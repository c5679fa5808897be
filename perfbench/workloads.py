"""The benchmark's workloads: fixed input pools and the work done per input.

Each pool is a fixed function of constants in this file, so the reference
trace digests in ``reference.json`` cover every input; the run's seed sets
the order in which each pass visits the pool.  All inputs sit in the
ambients the test suite uses, with at least one empty unit of margin.

Why these workloads (the predictions they test are in README.md):

- curves: many small m=1 states, so the exact path filling and the
  candidate scan dominate and the min-cut never runs;
- boxes: the largest regular spheres that fit a run, with many arcs per
  state and split-and-recurse, so the one-sided min-cut and per-state
  rebuilds dominate;
- polycubes: small irregular surfaces, including the known false
  obstruction and a genus-one ring, so per-state setup, the exact parity
  search, lofted fillings and the obstruction probe run;
- audit: the reading side of the same layers (deserialise, replay,
  validate, re-serialise, render) on traces made at set-up, with no
  candidate scan at all.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import oracle
from gridtopo import cells, complexes, corpus, deform, engine, io, render

CURVE_POOL_SEED = 20260809  # the seed of acceptance criterion 7
CURVE_COUNT = 30
POLY_POOL_SEED = 1
POLY_COUNT = 4
POLY_VOXELS = (4, 7)
AUDIT_MAX_CURVE = 14  # curves of at most this many edges are audited
AUDIT_BOXES = ((1, 1, 2), (1, 1, 3))
# Boxes a x b x c with 1 <= a <= b <= c <= 3, up to box 1x3x3 and box
# 2x2x2: each input runs three times in a run, and box 2x2x3 (4.5 s), box
# 2x3x3 (13 s) and box 3x3x3 (26 s) would not fit three times in one.
BOXES = ((1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3), (1, 3, 3), (2, 2, 2))
# The sphere that ROADMAP item 2 reports as obstructed (chi = 2, exits 2).
FALSE_OBSTRUCTION = ((0, 1, 0), (0, 1, 1), (0, 2, 1), (1, 1, 0), (1, 1, 1), (1, 2, 0), (1, 2, 1), (2, 2, 0))
# The smallest solid torus: a 3x3x1 ring (chi = 0).
RING = tuple((x, y, 0) for x in range(3) for y in range(3) if (x, y) != (1, 1))


@dataclass
class Item:
    """One input: an id, what the program receives, and the oracle's view."""

    id: str
    payload: object
    cells: tuple  # input cells as (base, axes) tuples, for the oracles
    source: str = ""  # audit: the contraction input whose trace this is


def _tuples(M):
    return tuple(sorted((c.base, c.axes) for c in M.cells))


def _surface(amb, voxels):
    tops = [(tuple(v), (0, 1, 2)) for v in voxels]
    faces = [cells.CubicalCell.make(b, a) for b, a in oracle.boundary_of_solid(tops)]
    return complexes.ManifoldComplex.make(amb, 2, faces)


def _random_polycube(rng, n):
    vox = {(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))}
    while len(vox) < n:
        x, y, z = rng.choice(sorted(vox))
        w = [x, y, z]
        w[rng.randrange(3)] += rng.choice((-1, 1))
        if all(0 <= c <= 2 for c in w):
            vox.add(tuple(w))
    return tuple(sorted(vox))


def curve_items():
    amb = cells.build_ambient(2, [(0, 15), (0, 15)])
    rng = random.Random(CURVE_POOL_SEED)
    items = []
    for i in range(CURVE_COUNT):
        M = corpus.random_simple_curve(amb, rng, max_perimeter=60)
        items.append(Item(f"curve-{i:02d}", M, _tuples(M)))
    return items


def box_items(sizes=BOXES):
    amb = cells.build_ambient(3, [(-2, 5)] * 3)
    items = []
    for a, b, c in sizes:
        M = _surface(amb, [(x, y, z) for x in range(a) for y in range(b) for z in range(c)])
        items.append(Item(f"box-{a}{b}{c}", M, _tuples(M)))
    return items


def polycube_items():
    amb = cells.build_ambient(3, [(-2, 5)] * 3)
    solids = [("poly-false-obstruction", FALSE_OBSTRUCTION), ("poly-ring", RING)]
    rng = random.Random(POLY_POOL_SEED)
    seen = {FALSE_OBSTRUCTION, RING}
    while len(solids) < POLY_COUNT + 2:
        vox = _random_polycube(rng, rng.randint(*POLY_VOXELS))
        tops = [(v, (0, 1, 2)) for v in vox]
        if vox in seen or not oracle.is_closed_manifold(oracle.boundary_of_solid(tops)):
            continue
        seen.add(vox)
        solids.append((f"poly-{len(solids) - 2:02d}", vox))
    items = []
    for name, vox in solids:
        M = _surface(amb, vox)
        items.append(Item(name, M, _tuples(M)))
    return items


def contraction_bytes(result):
    """The trace file bytes `gridtopo contract --trace-out` writes."""
    root = result.root
    children = {n.node_id: n.trace for n in result.nodes if n.node_id != root.node_id}
    doc = io.trace_to_json(root.trace, children)
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode(), doc


def audit_items():
    """Traces of the small curves and boxes, made by contracting them."""
    sources = [it for it in curve_items() if len(it.cells) <= AUDIT_MAX_CURVE]
    sources += box_items(AUDIT_BOXES)
    items = []
    for src in sources:
        data, _doc = contraction_bytes(engine.contract(src.payload))
        items.append(Item(f"audit-{src.id}", data, src.cells, source=src.id))
    return items


def contract_one(M):
    # Looked up at each call, so that a traced run reaches the wrapper.
    return engine.contract(M)


def fresh_input(item):
    """What one timed run receives.  A contraction gets a complex built
    anew from the input's cells, so that no run finds the caches an earlier
    run filled; an audit gets the item, whose trace bytes hold none."""
    if not isinstance(item.payload, complexes.ManifoldComplex):
        return item
    faces = [cells.CubicalCell.make(b, a) for b, a in item.cells]
    return complexes.ManifoldComplex.make(item.payload.ambient, len(item.cells[0][1]), faces)


class Audit:
    """Read one trace back the way a user of its file would."""

    def __init__(self, frames_dir: Path):
        self.frames_dir = frames_dir

    def __call__(self, item):
        doc = json.loads(item.payload)
        root = io.trace_from_json(doc)
        children = {int(k): io.trace_from_json(v) for k, v in doc.get("children", {}).items()}
        all_valid = True
        for trace in (root, *children.values()):
            deform.replay(trace)
            for state in trace.states():
                M = complexes.ManifoldComplex(trace.ambient, trace.m, state)
                all_valid &= complexes.validate(M).ok
        again = (json.dumps(io.trace_to_json(root, children), indent=1, sort_keys=True) + "\n").encode()
        frames = render.render(root, self.frames_dir / item.id)
        return again, all_valid, len(frames), len(root.steps) + 1


@dataclass(frozen=True)
class Workload:
    name: str
    make_items: object
    nominal_pass_s: float  # one pass on the seed commit, 2-core VM, seconds
    setup_reps: int  # more for cheap set-ups, so that their median is steady
    predicted: tuple  # spans that must record calls in a traced run


WORKLOADS = {
    "curves": Workload(
        "curves",
        curve_items,
        6.5,
        5,
        (
            "engine.contract",
            "curviness.valid_reports",
            "curviness.candidate_arcs",
            "curviness.fit_region",
            "curviness.replacement_filling",
            "filling.min_filling.path",
            "metric.ball",
        ),
    ),
    "boxes": Workload(
        "boxes",
        box_items,
        7.0,
        50,
        (
            "engine.contract",
            "curviness.candidate_arcs",
            "curviness.fit_region",
            "curviness.replacement_filling",
            "filling.one_sided_min_cut",
            "metric.ball",
        ),
    ),
    "polycubes": Workload(
        "polycubes",
        polycube_items,
        7.5,
        20,
        (
            "engine.contract",
            "engine.probe_obstruction",
            "filling.one_sided_min_cut",
            "filling.min_filling.parity",
            "filling.lofted",
        ),
    ),
    "audit": Workload(
        "audit",
        audit_items,
        0.2,
        3,
        (
            "complexes.validate",
            "deform.replay",
            "io.trace_from_json",
            "io.trace_to_json",
            "render.render",
        ),
    ),
}
