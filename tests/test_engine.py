import gc
import importlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import gridtopo
from gridtopo import (
    CubicalCell,
    ManifoldComplex,
    build_ambient,
    contract,
    is_irreducible_sphere,
    validate,
)
from gridtopo import engine
from gridtopo.cli import main
from gridtopo.corpus import random_simple_curve
from gridtopo.deform import MoveStep, ObstructionEvidence, ReplaceStep, SplitStep, TerminalStep, flip_ok, replay
from gridtopo.engine import probe_obstruction, radius_sweep
from gridtopo.errors import DimensionUnsupported, InterpolationFailed, ValidationFailed
from gridtopo.io import load_fixture, trace_to_json

from conftest import FIXTURE_DIR
from util import GOLDEN_DIR, contraction_pool, curve_from_pixels, golden_states, vertices_of

def replace_steps(trace):
    return [s for s in trace.steps if isinstance(s, (ReplaceStep, SplitStep))]


def n_sequence(trace):
    states = trace.states()
    out = [len(states[0])]
    for step, state in zip(trace.steps, states[1:]):
        if isinstance(step, (ReplaceStep, SplitStep)):
            out.append(len(state))
    return out


def test_irreducible_witnesses(sq1, box111, rect12):
    assert is_irreducible_sphere(sq1) == CubicalCell.make((0, 0), (0, 1))
    assert is_irreducible_sphere(box111) == CubicalCell.make((0, 0, 0), (0, 1, 2))
    assert is_irreducible_sphere(rect12) is None


def test_radius_sweep_order(ushape):
    assert radius_sweep(ushape) == [2, 1, 4, 3]


def test_contract_requires_valid(pinch):
    with pytest.raises(ValidationFailed):
        contract(pinch)


def test_contract_refuses_a_point(amb2):
    """A single vertex validates, but it is no sphere to contract."""
    point = ManifoldComplex.make(amb2, 0, [CubicalCell.make((1, 1), ())])
    assert validate(point).ok
    with pytest.raises(DimensionUnsupported, match="m=0"):
        contract(point)


def test_contract_validates_each_state_once(amb3, monkeypatch):
    """A contraction validates only its input, in `contract`, and on the
    split path the replaced state and the child, each once: flips are
    checked locally by `deform.flip_ok`, so `interpolate` validates
    nothing.  `validate` is counted in every gridtopo module that binds
    it, keyed on (module, m, cells)."""
    calls = []
    real_validate = validate

    def counting(name):
        def count(M):
            calls.append((name, M.m, M.cells))
            return real_validate(M)

        return count

    patched = set()
    for name, module in list(sys.modules.items()):
        if name == "gridtopo" or name.startswith("gridtopo."):
            for attr, value in list(vars(module).items()):
                if value is real_validate:
                    monkeypatch.setattr(module, attr, counting(name))
                    patched.add(name)
    assert {"gridtopo.engine", "gridtopo.deform"} <= patched
    splits = 0
    for M in contraction_pool(amb3):
        calls.clear()
        result = contract(M)
        assert calls[0] == ("gridtopo.engine", M.m, M.cells)
        assert {name for name, _, _ in calls} == {"gridtopo.engine"}
        assert len(set(calls)) == len(calls), "a state validated twice"
        for node in result.nodes:
            for step, state in zip(node.trace.steps, node.trace.states()[1:]):
                if isinstance(step, SplitStep):
                    child = next(c for c in result.nodes if c.node_id == step.child_id)
                    checked = calls.index(("gridtopo.engine", M.m, state))
                    assert calls[checked + 1] == ("gridtopo.engine", M.m, child.initial.cells)
                    splits += 1
    assert splits


def test_contract_requires_margin():
    amb = build_ambient(2, [(0, 4), (-2, 5)])
    with pytest.raises(ValueError, match="axis 0"):
        contract(curve_from_pixels(amb, [(0, 0)]))


def test_contract_leaves_no_reference_cycles(ushape, box211):
    """A contraction is freed by reference counting alone."""
    gc.collect()
    gc.disable()
    try:
        for M in (ushape, box211):
            contract(M)
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_contract_sq1_trivial(sq1):
    res = contract(sq1)
    assert res.root.terminal.status == "irreducible_sphere"
    assert res.root.terminal.center == CubicalCell.make((0, 0), (0, 1))
    assert replace_steps(res.root.trace) == []


def test_contract_rect12(rect12):
    res = contract(rect12)
    root = res.root
    assert root.terminal.status == "irreducible_sphere"
    assert root.final.n_cells == 4
    reps = replace_steps(root.trace)
    assert len(reps) == 1 and isinstance(reps[0], ReplaceStep)


def test_contract_ushape(ushape):
    res = contract(ushape)
    root = res.root
    assert root.terminal.status == "irreducible_sphere"
    assert root.final.n_cells == 4
    ns = n_sequence(root.trace)
    assert ns[0] == 16 and ns[1] == 12
    assert all(a > b for a, b in zip(ns, ns[1:]))
    # every intermediate closed state validates
    for state in root.trace.states():
        assert validate(ManifoldComplex(ushape.ambient, 1, state)).ok


def test_contract_determinism(ushape):
    a = contract(ushape)
    b = contract(ushape)
    assert a.root.trace == b.root.trace
    assert a.root.final.cells == b.root.final.cells


def _without_interpolation(monkeypatch):
    """Every interpolation fails, so every reduction goes through a split."""

    def fail(M, arc, filling, move_cap):
        raise InterpolationFailed("interpolation disabled")

    monkeypatch.setattr(engine, "interpolate", fail)


def test_forced_splits_reconstruct(ushape, monkeypatch):
    """With interpolation disabled, every reduction goes through splits;
    the recorded glue data must rebuild each parent state exactly."""
    _without_interpolation(monkeypatch)
    res = contract(ushape)
    assert res.root.terminal.status == "irreducible_sphere"
    assert len(res.nodes) > 1
    assert all(n.terminal.status == "irreducible_sphere" for n in res.nodes)
    by_id = {n.node_id: n for n in res.nodes}
    for node in res.nodes:
        state = frozenset(node.trace.initial)
        for step in node.trace.steps:
            new_state = step.apply(state)
            if isinstance(step, SplitStep):
                child = by_id[step.child_id]
                child_cells = frozenset(child.trace.initial)
                added = frozenset(step.added)
                arc_side = child_cells - added
                rebuilt = (new_state - added) | arc_side | (frozenset(step.removed) & state)
                assert rebuilt == state
                # glue data on the child matches the split record
                assert child.glue is not None
                cycle, filling = child.glue
                assert tuple(sorted(cycle.cells)) == step.cycle_cells
            state = new_state
        assert state == frozenset(node.trace.final)


def test_split_children_strictly_smaller(ushape, monkeypatch):
    _without_interpolation(monkeypatch)
    res = contract(ushape)
    by_id = {n.node_id: n for n in res.nodes}
    for node in res.nodes:
        for child in node.children:
            assert child.initial.n_cells < node.initial.n_cells


@pytest.mark.parametrize("dims", [(2, 1, 1, 1), (2, 2, 2, 1)])
def test_contract_3_spheres_by_simple_flips(dims):
    """The boundary of a box of hypercubes is a 3-sphere in a 4-d ambient
    (m = 3): it contracts to exit 0, and every move in the trees' traces
    is a simple flip."""
    amb4 = build_ambient(4, [(-1, 4)] * 4)
    counts = Counter(f for b in itertools.product(*map(range, dims)) for f in CubicalCell.make(b, range(4)).faces())
    result = contract(ManifoldComplex.make(amb4, 3, [f for f, k in counts.items() if k == 1]))
    assert result.exit_code == 0
    moves = 0
    for node in result.nodes:
        for step, state in zip(node.trace.steps, node.trace.states()):
            if isinstance(step, MoveStep):
                assert flip_ok(state, step.flip_cell) == step.apply(state)
                moves += 1
    assert moves


def test_probe_on_torus(torus):
    ev = probe_obstruction(torus)
    assert ev is not None
    assert ev.kind in ("lofted_intersection", "non_separating")


def test_probe_on_curves_returns_at_once(ushape, box111, monkeypatch):
    """A curve's probe returns None without computing a ball, on ushape and
    on criterion 7's curves; a surface's probe still computes them."""
    engine_module = importlib.import_module("gridtopo.engine")
    balls = []
    real_ball = engine_module.ball

    def counting(*args):
        balls.append(args)
        return real_ball(*args)

    monkeypatch.setattr(engine_module, "ball", counting)
    amb = build_ambient(2, [(0, 15), (0, 15)])
    rng = random.Random(20260809)  # criterion 7's seed
    curves = [random_simple_curve(amb, rng, max_perimeter=60) for _ in range(100)]
    for M in (ushape, *curves):
        assert probe_obstruction(M) is None
    assert balls == []
    probe_obstruction(box111)
    assert balls


def test_random_curves_contract():
    amb = build_ambient(2, [(0, 15), (0, 15)])
    rng = random.Random(4242)
    for _ in range(10):
        M = random_simple_curve(amb, rng, max_perimeter=40, max_cells=12)
        res = contract(M)
        assert res.root.terminal.status == "irreducible_sphere"
        assert all(n.terminal.status == "irreducible_sphere" for n in res.nodes)


def reference_witness(M):
    """The witness by enumeration, as `is_irreducible_sphere` found it
    before its closed form: the least ambient cell of the least dimension,
    within one unit of M's bounding box, that every m-cell touches."""

    def touches(c, o):  # the closures share a point: they meet on every axis
        return all(
            b <= ob + (i in o.axes) and ob <= b + (i in c.axes) for i, (b, ob) in enumerate(zip(c.base, o.base))
        )

    verts = sorted(vertices_of(M.cells))
    n = M.ambient.n
    lo = [min(v[i] for v in verts) for i in range(n)]
    hi = [max(v[i] for v in verts) for i in range(n)]
    if any(h - l > 3 for l, h in zip(lo, hi)):
        return None
    cells_sorted = sorted(M.cells)
    candidates = []
    for dim in range(0, n + 1):
        for axes in itertools.combinations(range(n), dim):
            ranges = []
            for i in range(n):
                top = 1 if i in axes else 0
                ranges.append(range(lo[i] - 1, hi[i] + 1 - top + 1))
            for base in itertools.product(*ranges):
                o = CubicalCell(dim, tuple(base), axes)
                if not M.ambient.contains_cell(o):
                    continue
                if all(touches(c, o) for c in cells_sorted):
                    candidates.append(o)
        if candidates:
            return min(candidates)
    return None


def test_irreducible_witness_matches_enumeration():
    states = []
    for name in ("sq1", "rect12", "ushape", "box111", "box211", "box333", "torus"):
        states += golden_states(name)
    amb = build_ambient(2, [(0, 15), (0, 15)])
    rng = random.Random(20260809)  # criterion 7's curves
    for _ in range(20):
        for node in contract(random_simple_curve(amb, rng, max_perimeter=60)).nodes:
            states += [ManifoldComplex(amb, 1, state) for state in node.trace.states()]
    # Small random cell sets, not manifolds, reach witnesses of every dimension.
    rng = random.Random(7)
    for n, m in ((2, 1), (3, 1), (3, 2)):
        amb_n = build_ambient(n, [(-2, 5)] * n)
        for _ in range(300):
            cells = set()
            for _ in range(rng.randint(1, 4)):
                axes = tuple(sorted(rng.sample(range(n), m)))
                cells.add(CubicalCell(m, tuple(rng.randint(0, 2) for _ in range(n)), axes))
            states.append(ManifoldComplex(amb_n, m, frozenset(cells)))
    dims = set()
    for M in states:
        got = is_irreducible_sphere(M)
        assert got == reference_witness(M)
        dims.add(None if got is None else got.dim)
    assert dims == {None, 0, 1, 2, 3}


# ---------------------------------------------------------------------------
# Symmetry: moving the input moves the trace.

_TOKEN = re.compile(r"(-?\d+(?:,-?\d+)*)\|([\d,]*)")


def _moved(M, extent, move):
    """M carried into an ambient of the given extent, cell by cell."""
    return ManifoldComplex.make(build_ambient(M.ambient.n, extent), M.m, map(move, M.cells))


def _translated_doc(doc, shift):
    """A trace document with every cell token and the ambient translated."""
    if isinstance(doc, dict):
        out = {k: _translated_doc(v, shift) for k, v in doc.items()}
        if "extent" in doc:
            out["extent"] = [[lo + t, hi + t] for (lo, hi), t in zip(doc["extent"], shift)]
        return out
    if isinstance(doc, list):
        return [_translated_doc(v, shift) for v in doc]
    if isinstance(doc, str) and _TOKEN.fullmatch(doc):
        base, axes = doc.split("|")
        return ",".join(str(int(b) + t) for b, t in zip(base.split(","), shift)) + "|" + axes
    return doc


def _trace_text(result):
    """The text `gridtopo contract --trace-out` writes."""
    children = {n.node_id: n.trace for n in result.nodes if n.node_id != result.root.node_id}
    return json.dumps(trace_to_json(result.root.trace, children), indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", ["ushape", "rect12", "box211", "box111"])
def test_translation_translates_the_trace(name):
    """Translating the input with its ambient by (3, -1[, -1]) gives the
    golden trace with every cell token translated, byte for byte."""
    M = load_fixture(FIXTURE_DIR / f"{name}.txt")
    shift = (3, -1, -1)[: M.ambient.n]
    extent = [(lo + t, hi + t) for (lo, hi), t in zip(M.ambient.extent, shift)]
    moved = _moved(M, extent, lambda c: CubicalCell(c.dim, tuple(b + t for b, t in zip(c.base, shift)), c.axes))
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    expected = json.dumps(_translated_doc(golden, shift), indent=1, sort_keys=True) + "\n"
    assert _trace_text(contract(moved)) == expected


@pytest.mark.parametrize("name", ["ushape", "rect12", "box211", "box111"])
def test_axis_permutation_and_reflection_keep_the_verdict(name):
    """Permuting the axes cyclically, or reflecting axis 0, gives the same
    exit code."""
    M = load_fixture(FIXTURE_DIR / f"{name}.txt")
    n, ext = M.ambient.n, M.ambient.extent
    perm = [(i + 1) % n for i in range(n)]  # new axis i is old axis perm[i]
    permuted = _moved(
        M,
        [ext[p] for p in perm],
        lambda c: CubicalCell.make([c.base[p] for p in perm], [i for i, p in enumerate(perm) if p in c.axes]),
    )
    (lo, hi), rest = ext[0], list(ext[1:])
    reflected = _moved(
        M,
        [(-hi, -lo), *rest],
        lambda c: CubicalCell(c.dim, (-c.base[0] - (0 in c.axes),) + c.base[1:], c.axes),
    )
    want = contract(M).exit_code
    assert contract(permuted).exit_code == want
    assert contract(reflected).exit_code == want


# ---------------------------------------------------------------------------
# Verdicts: every node ends in one terminal step, and the exit reads them all.


def _check_ends(result, status, exit_code):
    """Every node's terminal record is its trace's last step, every trace
    replays, and the run's status and exit code are the given ones."""
    for node in result.nodes:
        assert node.terminal is node.trace.steps[-1]
        assert isinstance(node.terminal, TerminalStep)
        assert replay(node.trace).cells == node.final.cells
    assert (result.status, result.exit_code) == (status, exit_code)


def _in_children(monkeypatch):
    """A list whose last entry says whether the node contracting now is a
    split child (it has glue), kept by wrapping `_Run.contract_node`."""
    depth = []
    contract_node = engine._Run.contract_node

    def tracking(self, M, glue):
        depth.append(glue is not None)
        try:
            return contract_node(self, M, glue)
        finally:
            depth.pop()

    monkeypatch.setattr(engine._Run, "contract_node", tracking)
    return depth


@pytest.mark.parametrize("status, exit_code", [("exhausted", 3), ("obstruction", 2)])
def test_the_verdict_reads_every_node(monkeypatch, status, exit_code):
    """M is the connected sum of every node's piece, so a child that gives
    up, or ends with obstruction evidence, decides the run even when the
    root ends as a sphere.  spacecurve's split children are made to find
    no witness, and to end as the case names."""
    M = load_fixture(FIXTURE_DIR / "spacecurve.txt")
    child = _in_children(monkeypatch)
    real = engine.is_irreducible_sphere
    monkeypatch.setattr(engine, "is_irreducible_sphere", lambda S: None if child[-1] else real(S))
    evidence = ObstructionEvidence(kind="non_separating", center=min(M.cells), gamma=1, level=1, cells=())
    if status == "obstruction":
        monkeypatch.setattr(engine, "probe_obstruction", lambda S: evidence if child[-1] else None)
    result = contract(M)
    assert result.root.terminal.status == "irreducible_sphere"
    children = [n for n in result.nodes if n is not result.root]
    assert len(children) == 5 and all(n.terminal.status == status for n in children)
    if status == "obstruction":
        assert all(n.terminal.evidence == (evidence,) for n in children)
    _check_ends(result, status, exit_code)


def test_torus_without_a_probe_ends_exhausted(torus, monkeypatch, capsys):
    """With no obstruction found, the torus gives up: exit 3, with the reason."""
    monkeypatch.setattr(engine, "probe_obstruction", lambda M: None)
    result = contract(torus)
    assert result.root.terminal.reason == "no reducible arc at any radius"
    assert result.root.terminal.evidence == ()
    _check_ends(result, "exhausted", 3)
    assert main(["contract", "--input", str(FIXTURE_DIR / "torus.txt")]) == 3
    assert capsys.readouterr().out.startswith("status=exhausted nodes=1\n")


def test_iteration_cap_ends_exhausted(box211, monkeypatch):
    """A node that runs out of replacement rounds gives up: exit 3."""
    monkeypatch.setattr(engine, "_MAX_ITERATIONS", 1)
    result = contract(box211)
    assert result.root.terminal.reason == "iteration cap reached"
    assert result.root.terminal.center is None
    _check_ends(result, "exhausted", 3)
    assert main(["--quiet", "contract", "--input", str(FIXTURE_DIR / "box211.txt")]) == 3


_FIRST_USE_SCRIPT = """
import gc, sys
from collections import Counter
from gridtopo import CubicalCell, ManifoldComplex, build_ambient, contract

amb = build_ambient(3, [(-2, 5)] * 3)
faces = Counter(f for z in (0, 1) for f in CubicalCell.make((0, 0, z), (0, 1, 2)).faces())
retained = []
for _ in range(3):
    M = ManifoldComplex.make(amb, 2, [f for f, k in faces.items() if k == 1])
    gc.collect()
    before = sys.getallocatedblocks()
    assert contract(M).exit_code == 0
    del M
    gc.collect()
    retained.append(sys.getallocatedblocks() - before)
print(retained[0] - retained[2])
"""


def test_first_contraction_retains_few_heap_blocks():
    """A fresh interpreter contracts box 1x1x2 three times in one new
    ambient.  After a collection, the first run, which fills the ambient's
    code tables and numpy's first-use state, retains fewer than 500 heap
    blocks more than the third: a first call of a plain 1-D `np.unique`
    alone would leave about 5000."""
    env = {**os.environ, "PYTHONPATH": str(Path(gridtopo.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", _FIRST_USE_SCRIPT], env=env, capture_output=True, text=True, check=True)
    assert int(out.stdout) < 500
