"""Acceptance suite: one criterion per test, one pass line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the pass lines.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from gridtopo import (
    CubicalCell,
    ManifoldComplex,
    ScanContext,
    all_pairs,
    build_ambient,
    cell_distance,
    contract,
    min_filling,
    validate,
)
from gridtopo.complexes import Cycle, region_boundary
from gridtopo.corpus import random_simple_curve
from gridtopo.curviness import curviness, fit_region
from gridtopo.deform import MoveStep, ReplaceStep, SplitStep, replay
from gridtopo.errors import Unreachable
from gridtopo.io import trace_to_json
from gridtopo.render import render

from util import (
    BOX333_VOXELS,
    TORUS_VOXELS,
    U_PIXELS,
    bfs_levels,
    cofaces,
    curve_from_pixels,
    edge_graph_of_complex,
    face_vertices,
    oracle_chain_distance,
    oracle_min_paths,
    oracle_min_surface_fillings,
    random_connected_subcomplex,
    surface_from_voxels,
    vertices_of,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

_CACHE = {}


def _trace_bytes(result):
    """The bytes `gridtopo contract --trace-out` writes: root plus children."""
    root = result.root
    children = {n.node_id: n.trace for n in result.nodes if n.node_id != root.node_id}
    doc = trace_to_json(root.trace, children)
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()


def _contraction(name, builder):
    if name not in _CACHE:
        result = contract(builder())
        _CACHE[name] = (result, _trace_bytes(result))
    return _CACHE[name]


def _builders():
    """The fixtures of tests/fixtures that load as valid, built in code."""
    amb2 = build_ambient(2, [(-2, 5), (-2, 5)])
    amb3 = build_ambient(3, [(-2, 5), (-2, 5), (-2, 5)])
    return {
        "sq1": lambda: curve_from_pixels(amb2, [(0, 0)]),
        "rect12": lambda: curve_from_pixels(amb2, [(0, 0), (1, 0)]),
        "ushape": lambda: curve_from_pixels(amb2, U_PIXELS),
        "box111": lambda: surface_from_voxels(amb3, [(0, 0, 0)]),
        "box211": lambda: surface_from_voxels(amb3, [(0, 0, 0), (1, 0, 0)]),
        "box333": lambda: surface_from_voxels(amb3, BOX333_VOXELS),
        "torus": lambda: surface_from_voxels(amb3, TORUS_VOXELS),
    }


def _n_sequence(trace):
    states = trace.states()
    ns = [len(states[0])]
    for step, state in zip(trace.steps, states[1:]):
        if isinstance(step, (ReplaceStep, SplitStep)):
            ns.append(len(state))
    return ns


def test_criterion_1_metric_oracle():
    start = time.monotonic()
    amb2 = build_ambient(2, [(0, 9), (0, 9)])
    amb3 = build_ambient(3, [(0, 4), (0, 4), (0, 4)])
    rng = random.Random(11)
    checked = 0
    for i in range(50):
        if i % 2 == 0:
            M = random_connected_subcomplex(amb2, 1, rng.randint(5, 40), rng)
        else:
            M = random_connected_subcomplex(amb3, 2, rng.randint(5, 30), rng)
        adjacency, ap = edge_graph_of_complex(M), all_pairs(M)
        verts = sorted(vertices_of(M.cells))
        sample = verts[:: max(1, len(verts) // 8)]
        for u in sample:
            table = {}  # the library's distances from u, unreachable vertices left out
            for v in verts:
                try:
                    table[v] = ap.d_m(u, v)
                except Unreachable:
                    pass
            assert table == bfs_levels(adjacency, u)
            checked += 1
        # metric axioms on the sampled sources
        for u in sample:
            du = bfs_levels(adjacency, u)
            assert du[u] == 0
            for v in sample:
                assert du.get(v) == bfs_levels(adjacency, v).get(u)
        for a in sample[:4]:
            da = bfs_levels(adjacency, a)
            for b in sample[:4]:
                db = bfs_levels(adjacency, b)
                for c in sample[:4]:
                    if c in da and b in da and c in db:
                        assert da[c] <= da[b] + db[c]
    # chain distances against the independent vertex-set oracle
    for p, q in [((0, 0), (2, 1)), ((0, 0), (3, 3)), ((1, 0), (1, 4))]:
        small = build_ambient(2, [(0, 4), (0, 4)])
        assert cell_distance(small, p, q, k=2) == oracle_chain_distance(
            None, p, q, 2, extent=small.extent
        )
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"criterion 1 took {elapsed:.1f}s"
    print(f"\n[criterion 1] PASS metric oracle: {checked} BFS tables matched ({elapsed:.1f}s)")


def test_criterion_2_filling_oracle():
    start = time.monotonic()
    # curves in a 6x6 ambient: every pair within reach of the size cap
    amb2 = build_ambient(2, [(0, 5), (0, 5)])
    verts = [(x, y) for x in range(6) for y in range(6)]
    pairs = 0
    for p, q in combinations(verts, 2):
        d = abs(p[0] - q[0]) + abs(p[1] - q[1])
        if d > 6:
            continue
        cyc = Cycle(frozenset({CubicalCell.make(p), CubicalCell.make(q)}), 1)
        f = min_filling(amb2, cyc, cap=6)
        best, _paths = oracle_min_paths(amb2.extent, p, q, cap=6)
        assert f.N == best
        assert region_boundary(f.cells) == cyc.cells
        pairs += 1

    # surfaces in a 4x4x4 ambient: boundaries of small connected face sets
    amb3 = build_ambient(3, [(0, 3), (0, 3), (0, 3)])
    anchor_faces = [
        c
        for c in (
            CubicalCell.make((1, 1, 1), (0, 1)),
            CubicalCell.make((1, 1, 1), (0, 2)),
            CubicalCell.make((1, 1, 1), (1, 2)),
        )
    ]
    face_sets = set()
    for f0 in anchor_faces:
        face_sets.add(frozenset([f0]))
        nbs = set()
        for e in f0.faces():
            for g in cofaces(e, range(3)):
                if g.dim == 2 and g != f0 and amb3.contains_cell(g):
                    nbs.add(g)
        for g in sorted(nbs):
            face_sets.add(frozenset([f0, g]))
        for g, h in combinations(sorted(nbs), 2):
            face_sets.add(frozenset([f0, g, h]))
    face_sets.add(
        frozenset(CubicalCell.make((x, y, 1), (0, 1)) for x in range(2) for y in range(2))
    )
    face_sets.add(
        frozenset(CubicalCell.make((x, y, 1), (0, 1)) for x in range(2) for y in range(3))
    )
    cycles = {}
    for fs in sorted(face_sets, key=sorted):
        bd = region_boundary(fs)
        cyc = Cycle(frozenset(bd), 2)
        if cyc.is_valid():
            cycles[cyc.cells] = cyc
    rings = 0
    for cyc in cycles.values():
        target = {frozenset(e.vertices()) for e in cyc.cells}
        oracle_n, oracle_sets = oracle_min_surface_fillings(amb3.extent, target, max_n=6)
        if oracle_n is None:
            continue
        f = min_filling(amb3, cyc, cap=6)
        assert f.N == oracle_n
        assert region_boundary(f.cells) == cyc.cells
        assert {face_vertices(c) for c in f.cells} in oracle_sets
        rings += 1
    elapsed = time.monotonic() - start
    assert rings >= 20, f"only {rings} surface rings exercised"
    assert elapsed < 60, f"criterion 2 took {elapsed:.1f}s"
    print(
        f"\n[criterion 2] PASS filling oracle: {pairs} paths and {rings} rings matched ({elapsed:.1f}s)"
    )


def test_criterion_3_ushape_curviness():
    start = time.monotonic()
    amb2 = build_ambient(2, [(-2, 5), (-2, 5)])
    M = curve_from_pixels(amb2, U_PIXELS)
    # independent oracles first: distances and the filling size
    adjacency = edge_graph_of_complex(M)
    d_m = bfs_levels(adjacency, (1, 3))[(2, 3)]
    d_u = abs(1 - 2) + abs(3 - 3)
    best, _ = oracle_min_paths(amb2.extent, (1, 3), (2, 3), cap=4)
    assert d_m == 5 and d_u == 1 and best == 1

    center = CubicalCell.make((1, 1), (0,))
    arc = fit_region(M, center, 2)
    assert arc.cycle.cells == {CubicalCell.make((1, 3)), CubicalCell.make((2, 3))}
    rep = curviness(ScanContext(M), arc, min_filling(amb2, arc.cycle, cap=len(arc.region)))
    assert rep.r == Fraction(5, 1)
    assert rep.r1 == 4
    assert rep.r2_h == 2
    assert rep.r3 == Fraction(2, 1)
    elapsed = time.monotonic() - start
    print(
        f"\n[criterion 3] PASS curviness fixture: r=5 r1=4 h=2 r3=2 "
        f"(oracle d_M=5 d_U=1 N=1) ({elapsed:.1f}s)"
    )


def test_criterion_4_end_to_end_curves():
    builders = _builders()
    start = time.monotonic()
    rect_result, _ = _contraction("rect12", builders["rect12"])
    rect_elapsed = time.monotonic() - start
    root = rect_result.root
    assert root.terminal.status == "irreducible_sphere"
    assert root.final.n_cells == 4
    reps = [s for s in root.trace.steps if isinstance(s, (ReplaceStep, SplitStep))]
    assert len(reps) == 1 and isinstance(reps[0], ReplaceStep)
    assert replay(root.trace).canonical_cells() == root.final.canonical_cells()
    assert rect_elapsed < 5

    start = time.monotonic()
    u_result, _ = _contraction("ushape", builders["ushape"])
    u_elapsed = time.monotonic() - start
    root = u_result.root
    assert root.terminal.status == "irreducible_sphere"
    assert root.final.n_cells == 4
    ns = _n_sequence(root.trace)
    assert ns[0] == 16 and ns[1] == 12
    assert all(a > b for a, b in zip(ns, ns[1:]))
    assert replay(root.trace).canonical_cells() == root.final.canonical_cells()
    assert u_elapsed < 5
    print(
        f"\n[criterion 4] PASS end-to-end curves: rect12 one replacement "
        f"({rect_elapsed:.2f}s), ushape N {ns} ({u_elapsed:.2f}s)"
    )


def test_criterion_5_end_to_end_surfaces():
    builders = _builders()
    start = time.monotonic()
    b211, _ = _contraction("box211", builders["box211"])
    assert b211.root.terminal.status == "irreducible_sphere"
    assert b211.root.final.n_cells == 6

    b333, _ = _contraction("box333", builders["box333"])
    elapsed = time.monotonic() - start
    root = b333.root
    assert root.terminal.status == "irreducible_sphere"
    assert root.final.n_cells == 6
    amb = root.initial.ambient
    for state in root.trace.states():
        M = ManifoldComplex(amb, 2, state)
        assert validate(M).ok
        assert M.euler_characteristic() == 2
    for node in b333.nodes:
        assert node.terminal.status == "irreducible_sphere"
    assert elapsed < 300, f"criterion 5 took {elapsed:.1f}s"
    print(
        f"\n[criterion 5] PASS end-to-end surfaces: box211 -> 6 faces, "
        f"box333 -> 6 faces across {len(root.trace.states())} valid states ({elapsed:.1f}s)"
    )


def test_criterion_6_torus_obstruction():
    builders = _builders()
    start = time.monotonic()
    result, _ = _contraction("torus", builders["torus"])
    elapsed = time.monotonic() - start
    root = result.root
    assert root.terminal.status == "obstruction"
    assert root.terminal.status != "irreducible_sphere"
    evidence = root.terminal.evidence
    assert any(ev.kind == "lofted_intersection" and ev.level is not None for ev in evidence)
    assert elapsed < 300, f"criterion 6 took {elapsed:.1f}s"
    ev = evidence[0]
    print(
        f"\n[criterion 6] PASS torus obstruction: lofted level {ev.level} "
        f"meets {len(ev.cells)} manifold cells ({elapsed:.1f}s)"
    )


def test_criterion_7_random_curves_soundness():
    start = time.monotonic()
    amb = build_ambient(2, [(0, 15), (0, 15)])
    rng = random.Random(20260809)
    for i in range(100):
        M = random_simple_curve(amb, rng, max_perimeter=60)
        assert M.n_cells <= 60
        result = contract(M)
        assert result.root.terminal.status == "irreducible_sphere"
        for node in result.nodes:
            assert node.terminal.status == "irreducible_sphere"
            final = replay(node.trace)
            assert final.canonical_cells() == node.final.canonical_cells()
            states = node.trace.states()
            for state in states:
                assert validate(ManifoldComplex(amb, 1, state)).ok
            for step, before in zip(node.trace.steps, states):
                if isinstance(step, MoveStep):
                    after = step.apply(before)
                    assert step.apply(after) == before
    elapsed = time.monotonic() - start
    assert elapsed < 600, f"criterion 7 took {elapsed:.1f}s"
    print(f"\n[criterion 7] PASS random curves: 100/100 irreducible spheres ({elapsed:.1f}s)")


def test_criterion_8_determinism(tmp_path):
    builders = _builders()
    start = time.monotonic()
    for name, builder in builders.items():
        _first, first_doc = _contraction(name, builder)
        second = contract(builder())
        second_doc = _trace_bytes(second)
        assert first_doc == second_doc, f"{name}: trace bytes differ between runs"
        a_dir = tmp_path / f"{name}_a"
        b_dir = tmp_path / f"{name}_b"
        frames_a = render(_first.root.trace, a_dir)
        frames_b = render(second.root.trace, b_dir)
        assert [p.name for p in frames_a] == [p.name for p in frames_b]
        for pa, pb in zip(frames_a, frames_b):
            assert pa.read_bytes() == pb.read_bytes(), f"{name}: frame {pa.name} differs"
    elapsed = time.monotonic() - start
    print(
        f"\n[criterion 8] PASS determinism: {len(builders)} fixtures byte-identical ({elapsed:.1f}s)"
    )


def test_golden_traces():
    """Trace bytes match the files recorded in tests/golden, byte for byte.

    Criterion 8 compares two runs of the same code; the goldens pin the
    bytes across changes, so a change that picks a different arc, order
    of flips or serialization shows here.
    """
    start = time.monotonic()
    builders = _builders()
    for name, builder in builders.items():
        _result, data = _contraction(name, builder)
        golden = (GOLDEN_DIR / f"{name}.json").read_bytes()
        assert data == golden, f"{name}: trace bytes differ from tests/golden/{name}.json"
    elapsed = time.monotonic() - start
    print(f"\n[goldens] PASS {len(builders)} traces byte-identical ({elapsed:.1f}s)")
