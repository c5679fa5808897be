from collections import Counter
from itertools import combinations

import pytest

from gridtopo import (
    CubicalCell,
    ManifoldComplex,
    ScanContext,
    build_ambient,
    contract,
    interpolate,
    replace_arc,
    validate,
)
from gridtopo import deform
from gridtopo.cells import parse_cell_token
from gridtopo.complexes import components
from gridtopo.curviness import (
    candidate_arcs,
    fit_region,
    replacement_filling,
    valid_reports,
)
from gridtopo.deform import (
    DeformationTrace,
    MoveStep,
    ReplaceStep,
    flip_ok,
    replay,
)
from gridtopo.errors import InterpolationFailed, ReplacementNotManifold, ReplayMismatch
from gridtopo.filling import Filling, min_filling

from util import closure_of, contraction_pool, curve_from_pixels, random_polycube_surfaces, surface_from_voxels


def arc_and_filling(M, center, gamma):
    arc = fit_region(M, center, gamma)
    return arc, min_filling(M.ambient, arc.cycle, cap=len(arc.region))


def test_interpolate_ushape_inner_two_moves(ushape):
    arc, filling = arc_and_filling(ushape, CubicalCell.make((1, 1), (0,)), 2)
    moves = interpolate(ushape, arc, filling, move_cap=50)
    assert [m.flip_cell for m in moves] == [
        CubicalCell.make((1, 1), (0, 1)),
        CubicalCell.make((1, 2), (0, 1)),
    ]
    # every intermediate full state is a valid closed manifold
    state = ushape.cells
    for m in moves:
        state = m.apply(state)
        assert validate(ManifoldComplex(ushape.ambient, 1, state)).ok


def test_interpolate_rect_cap_one_move(rect12):
    arc, filling = arc_and_filling(rect12, CubicalCell.make((0, 0), (1,)), 1)
    moves = interpolate(rect12, arc, filling, move_cap=30)
    assert len(moves) == 1
    assert moves[0].flip_cell == CubicalCell.make((0, 0), (0, 1))


def test_interpolate_identity(ushape):
    arc, _ = arc_and_filling(ushape, CubicalCell.make((1, 1), (0,)), 2)
    same = Filling(cells=arc.region, boundary=arc.cycle)
    assert interpolate(ushape, arc, same, move_cap=10) == []


def test_interpolate_cap(ushape):
    arc, filling = arc_and_filling(ushape, CubicalCell.make((1, 1), (0,)), 2)
    with pytest.raises(InterpolationFailed):
        interpolate(ushape, arc, filling, move_cap=1)


def test_interpolate_rejects_a_filling_of_another_cycle(ushape):
    """Every arc of ushape's scan that has a replacement filling, paired
    with each other such arc's filling: 30 pairs, no two of one cycle.
    Arc and filling do not close up, so interpolation raises instead of
    returning flips that do not end at the filling."""
    ctx, arcs, regions = ScanContext(ushape), [], set()
    for gamma in [2, 1]:  # ushape's halving schedule
        for arc in (fit.arc(ushape, gamma) for fit, _ in candidate_arcs(ctx, gamma)):
            filling = None if arc.region in regions else replacement_filling(ctx, arc)
            regions.add(arc.region)
            if filling is not None:
                arcs.append((arc, filling))
    pairs = [(arc, filling) for arc, _ in arcs for other, filling in arcs if other is not arc]
    assert len(pairs) == 30
    for arc, filling in pairs:
        assert filling.boundary.cells != arc.cycle.cells
        with pytest.raises(InterpolationFailed, match="boundary differs"):
            interpolate(ushape, arc, filling, move_cap=10 * len(arc.region))


def test_move_involution(ushape):
    arc, filling = arc_and_filling(ushape, CubicalCell.make((1, 1), (0,)), 2)
    moves = interpolate(ushape, arc, filling, move_cap=50)
    state = ushape.cells
    for m in moves:
        flipped = m.apply(state)
        assert m.apply(flipped) == state
        state = flipped


def test_interpolate_refuses_an_invalid_goal_at_once(amb3, monkeypatch):
    """Draw 54 of the seed-7 polycubes has a reducing report whose replaced
    state is not a manifold.  Simple flips keep a valid state valid, so
    the peel gets stuck before it reaches that state, and `interpolate`
    refuses it without one call to `validate`."""
    M = random_polycube_surfaces(amb3, 64, seed=7)[54]
    center = CubicalCell.make((2, 1, 3), (0,))
    report = next(r for r in valid_reports(ScanContext(M), 2) if r.center == center)
    goal = M.replace(report.arc.region, report.filling.cells)
    assert not validate(goal).ok
    calls = []
    monkeypatch.setattr(deform, "validate", lambda S: calls.append(S.cells) or validate(S))
    with pytest.raises(InterpolationFailed, match="no valid flip order"):
        interpolate(M, report.arc, report.filling, move_cap=10 * len(report.arc.region))
    assert calls == []


def test_interpolate_peels_without_backtracking(ushape, monkeypatch):
    """The peel takes, at each step, the first cell whose flip is simple,
    and fails as soon as no cell's is, never undoing a flip.  ushape's
    report at `1,1|0` with γ = 3 takes 5 flips; with `flip_ok` accepting
    only the first flip, the second step tries the 4 cells left and the
    interpolation fails after 5 tests, where a backtracking search would
    go on to try other first flips."""
    center = CubicalCell.make((1, 1), (0,))
    report = next(r for r in valid_reports(ScanContext(ushape), 3) if r.center == center)
    cap = 10 * len(report.arc.region)
    assert len(interpolate(ushape, report.arc, report.filling, move_cap=cap)) == 5
    calls = []

    def accept_one(state, flip_cell):
        calls.append((state, flip_cell))
        return flip_ok(state, flip_cell) if len(calls) == 1 else None

    monkeypatch.setattr(deform, "flip_ok", accept_one)
    with pytest.raises(InterpolationFailed, match="no valid flip order"):
        interpolate(ushape, report.arc, report.filling, move_cap=cap)
    assert calls[0][0] == ushape.cells
    assert len(calls) == len(set(calls)) == 5
    assert len({w for _, w in calls}) == 5


@pytest.mark.parametrize("k", [2, 3, 4])
def test_flip_ok_ball_rule_matches_pieces_and_euler(k):
    """On a state that is B itself the rim rule has nothing to test, so
    `flip_ok` is the ball rule alone.  Over every proper non-empty facet
    set B of a k-cube's boundary, it accepts exactly the sets that are one
    piece, with a complement of one piece, and whose closure has χ = 1."""
    c = CubicalCell.make((0,) * k, range(k))
    facets = list(c.faces())
    checked = 0
    for size in range(1, 2 * k):
        for B in map(frozenset, combinations(facets, size)):
            G = frozenset(facets) - B
            closure = closure_of(B)
            chi = sum((-1) ** f.dim for f in closure)
            ball = len(components(B)) == len(components(G)) == 1 and chi == 1
            assert flip_ok(B, c) == (G if ball else None)
            checked += 1
    assert checked == 2 ** (2 * k) - 2


@pytest.mark.parametrize(
    "b_tokens, rim_token",
    [
        # B is the facet x = 0; a square at the far corner (1, 1, 1)
        (["0,0,0|1,2"], "1,1,1|0,1"),
        # B is the facets z = 0, z = 1 and x = 0; a square on the edge x = 1, y = 0
        (["0,0,0|0,1", "0,0,1|0,1", "0,0,0|1,2"], "1,-1,0|1,2"),
    ],
)
def test_flip_ok_refuses_a_cell_on_the_rim(b_tokens, rim_token):
    """A square of M through a cell that only the facets outside M hold, a
    vertex or an edge whose own vertices lie in B, makes the flip of the
    unit cube no simple flip, though B alone flips."""
    c = CubicalCell.make((0, 0, 0), range(3))
    B = frozenset(map(parse_cell_token, b_tokens))
    assert flip_ok(B, c) == B.symmetric_difference(c.faces())
    assert flip_ok(B | {parse_cell_token(rim_token)}, c) is None


def test_flip_ok_refuses_the_ring_hole_flip():
    """The boundary of a ring of eight hypercubes is S¹×S², 48 cubes.
    Flipping the hypercube in its hole swaps 4 facets, two opposite pairs,
    for the other 4: the flip touches M without detaching it, and
    `validate` accepts the result, but its topology changed, and `flip_ok`
    refuses it.  A bump on the ring's outside is simple.  Replay checks each move with `flip_ok`, so a
    trace that makes the hole flip does not replay."""
    amb4 = build_ambient(4, [(-2, 5), (-2, 5), (-1, 2), (-1, 2)])
    ring = [(x, y, 0, 0) for x in range(3) for y in range(3) if (x, y) != (1, 1)]
    counts = Counter(f for b in ring for f in CubicalCell.make(b, range(4)).faces())
    M = ManifoldComplex.make(amb4, 3, [f for f, k in counts.items() if k == 1])
    assert len(M.cells) == 48 and validate(M).ok
    hole = parse_cell_token("1,1,0,0|0,1,2,3")
    bd = frozenset(hole.faces())
    assert len(M.cells & bd) == 4 and bd - M.cells  # touches M, does not detach it
    assert validate(ManifoldComplex(amb4, 3, M.cells ^ bd)).ok
    assert flip_ok(M.cells, hole) is None
    with pytest.raises(ReplayMismatch, match="not a simple flip"):
        MoveStep(flip_cell=hole).apply(M.cells)
    bump = parse_cell_token("0,-1,0,0|0,1,2,3")
    assert flip_ok(M.cells, bump) == M.cells.symmetric_difference(bump.faces())


def test_flip_ok_refuses_the_1x1x3_pinch(amb3):
    """The middle voxel of a 1×1×3 column touches its surface in 4 side
    squares, two opposite pairs.  The flip touches M without detaching it,
    and the result is closed and a manifold but not regular: the column
    is pinched into two cubes.  `flip_ok` refuses it, and so does replay."""
    M = surface_from_voxels(amb3, [(0, 0, 0), (0, 0, 1), (0, 0, 2)])
    middle = parse_cell_token("0,0,1|0,1,2")
    bd = frozenset(middle.faces())
    assert len(M.cells & bd) == 4 and bd - M.cells
    report = validate(ManifoldComplex(amb3, 2, M.cells ^ bd))
    assert report.is_manifold and report.is_closed and not report.is_regular
    assert flip_ok(M.cells, middle) is None
    with pytest.raises(ReplayMismatch, match="not a simple flip"):
        MoveStep(flip_cell=middle).apply(M.cells)


def test_flip_ok_agrees_with_validate_on_every_peel_flip(amb3, monkeypatch):
    """Every flip the peel tries over a small contraction pool: `flip_ok`
    accepts it exactly when it touches the state without detaching it and
    the flipped state validates, and then returns that state."""
    tried = []

    def recording(state, flip_cell):
        out = flip_ok(state, flip_cell)
        tried.append((ambient, state, flip_cell, out))
        return out

    monkeypatch.setattr(deform, "flip_ok", recording)
    for M in contraction_pool(amb3):
        ambient = M.ambient
        contract(M)
    refused = 0
    for ambient, state, flip_cell, out in tried:
        bd = frozenset(flip_cell.faces())
        new = state ^ bd if state & bd and bd - state else None  # touches, does not detach
        valid = new is not None and validate(ManifoldComplex(ambient, flip_cell.dim - 1, new)).ok
        assert out == (new if valid else None), flip_cell
        refused += out is None
    assert len(tried) > refused > 0


def test_replace_arc_rect12(rect12):
    arc, filling = arc_and_filling(rect12, CubicalCell.make((0, 0), (1,)), 1)
    out = replace_arc(rect12, arc, filling)
    assert out.n_cells == 4
    assert validate(out).ok
    assert out.euler_characteristic() == rect12.euler_characteristic() == 0


def test_replace_arc_ushape_inner(ushape):
    arc, filling = arc_and_filling(ushape, CubicalCell.make((1, 1), (0,)), 2)
    out = replace_arc(ushape, arc, filling)
    assert out.n_cells == 12
    # the result is the perimeter of the bounding block of the u-shape
    assert out.cells == curve_from_pixels(
        ushape.ambient, [(x, y) for x in range(3) for y in range(3)]
    ).cells


def test_replace_arc_box211(box211):
    arc, filling = arc_and_filling(box211, CubicalCell.make((0, 0, 0), (1, 2)), 1)
    out = replace_arc(box211, arc, filling)
    assert out.n_cells == 6
    assert out.cells == surface_from_voxels(box211.ambient, [(1, 0, 0)]).cells
    assert out.euler_characteristic() == 2


def test_replace_arc_must_reduce(ushape):
    arc, _ = arc_and_filling(ushape, CubicalCell.make((1, 1), (0,)), 2)
    same = Filling(cells=arc.region, boundary=arc.cycle)
    with pytest.raises(ReplacementNotManifold):
        replace_arc(ushape, arc, same)


def test_trace_replay_roundtrip(ushape):
    arc, filling = arc_and_filling(ushape, CubicalCell.make((1, 1), (0,)), 2)
    moves = interpolate(ushape, arc, filling, move_cap=50)
    out = replace_arc(ushape, arc, filling)
    steps = [MoveStep(flip_cell=m.flip_cell) for m in moves]
    steps.append(
        ReplaceStep(
            center=arc.center,
            gamma=arc.gamma,
            removed=tuple(sorted(arc.region - filling.cells)),
            added=tuple(sorted(filling.cells - arc.region)),
            sign="valley",
        )
    )
    trace = DeformationTrace(
        ambient=ushape.ambient,
        m=1,
        initial=ushape.canonical_cells(),
        steps=tuple(steps),
        final=out.canonical_cells(),
    )
    assert replay(trace).cells == out.cells
    assert len(trace.states()) == len(steps) + 1

    broken = DeformationTrace(
        ambient=ushape.ambient,
        m=1,
        initial=ushape.canonical_cells(),
        steps=tuple(steps),
        final=ushape.canonical_cells(),
    )
    with pytest.raises(ReplayMismatch):
        replay(broken)
