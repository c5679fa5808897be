import pytest

from gridtopo import (
    CubicalCell,
    ManifoldComplex,
    ScanContext,
    ball,
    interpolate,
    replace_arc,
    validate,
)
from gridtopo import deform
from gridtopo.complexes import ValidationReport
from gridtopo.curviness import (
    boundary_cycle_fit,
    candidate_arcs,
    minimum_filling_of_arc,
    radius_schedule,
    replacement_filling,
    valid_reports,
)
from gridtopo.deform import (
    DeformationTrace,
    MoveStep,
    ReplaceStep,
    apply_flip,
    replay,
)
from gridtopo.errors import InterpolationFailed, ReplacementNotManifold, ReplayMismatch
from gridtopo.filling import Filling

from util import curve_from_pixels, random_polycube_surfaces, surface_from_voxels


def arc_and_filling(M, center, gamma):
    arc = boundary_cycle_fit(M, ball(M, center, gamma), center=center, gamma=gamma)
    return arc, minimum_filling_of_arc(ScanContext(M), arc)


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
        state = apply_flip(state, m.flip_cell)
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
    for gamma in radius_schedule(ushape):
        for arc in (fit.arc(ushape, gamma) for fit in candidate_arcs(ushape, gamma)):
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
        flipped = apply_flip(state, m.flip_cell)
        assert apply_flip(flipped, m.flip_cell) == state
        state = flipped


def test_interpolate_refuses_an_invalid_goal_at_once(amb3, monkeypatch):
    """Draw 54 of the seed-7 polycubes has a reducing report whose replaced
    state is not a manifold; `interpolate` refuses it on one validation,
    of that state, without searching flip orders."""
    M = random_polycube_surfaces(amb3, 64, seed=7)[54]
    center = CubicalCell.make((2, 1, 3), (0,))
    report = next(r for r in valid_reports(ScanContext(M), 2) if r.center == center)
    goal = M.replace(report.arc.region, report.filling.cells)
    assert not validate(goal).ok
    calls = []
    monkeypatch.setattr(deform, "validate", lambda S: calls.append(S.cells) or validate(S))
    with pytest.raises(InterpolationFailed, match="not a valid manifold"):
        interpolate(M, report.arc, report.filling, move_cap=10 * len(report.arc.region))
    assert calls == [goal.cells]


def test_interpolate_peels_without_backtracking(ushape, monkeypatch):
    """The peel takes, at each step, the first cell whose state validates,
    and fails as soon as no cell does, never undoing a flip.  ushape's
    report at `1,1|0` with γ = 3 takes 5 flips; with `validate` accepting
    only the goal and the first flip's state, the second step tries the
    3 flips the move rule allows and the interpolation fails after 5
    calls, where a backtracking search would go on to try other first
    flips."""
    center = CubicalCell.make((1, 1), (0,))
    report = next(r for r in valid_reports(ScanContext(ushape), 3) if r.center == center)
    cap = 10 * len(report.arc.region)
    assert len(interpolate(ushape, report.arc, report.filling, move_cap=cap)) == 5
    calls = []

    def accept_two(S):
        calls.append(S.cells)
        return validate(S) if len(calls) <= 2 else ValidationReport(False, False, False, False, ())

    monkeypatch.setattr(deform, "validate", accept_two)
    with pytest.raises(InterpolationFailed, match="no valid flip order"):
        interpolate(ushape, report.arc, report.filling, move_cap=cap)
    assert calls[0] == ushape.replace(report.arc.region, report.filling.cells).cells
    assert len(calls) == len(set(calls)) == 5


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
