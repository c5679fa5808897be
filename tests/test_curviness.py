import heapq
import itertools
import random
import sys
from collections import Counter, namedtuple
from fractions import Fraction

import numpy as np
import pytest

import gridtopo
import gridtopo.curviness as curviness_module
from gridtopo import (
    CubicalCell,
    ManifoldComplex,
    ScanContext,
    arc_sign,
    ball,
    build_ambient,
    contract,
)
from gridtopo.complexes import Cycle, components, is_cycle, region_boundary
from gridtopo.corpus import random_simple_curve
from gridtopo.curviness import (
    VARIANTS,
    ArcRegion,
    candidate_arcs,
    curviness,
    fit_region,
    _replacement_cap,
    corner_gaps,
    radius_schedule_from,
    replacement_filling,
    valid_reports,
)
from gridtopo.engine import radius_sweep
from gridtopo.errors import CodimensionUnsupported, FillingNotFound, NoFittingCycle, SearchBudgetExceeded
from gridtopo.filling import FILLING_CAP, enclosed_cells, min_filling
from gridtopo.metric import ambient_distance

from util import (
    GOLDEN_DIR,
    POLYCUBE_VOXELS,
    SPHERE28_VOXELS,
    bfs_levels,
    closure_of,
    corner_gap,
    edge_graph_of_complex,
    filling_lower_bound,
    golden_states,
    measure_bound,
    oracle_min_paths,
    projection_bound,
    random_polycube_surfaces,
    reference_ball,
    reference_candidate_arcs,
    reference_is_cycle,
    surface_from_voxels,
)


def test_curviness_name_is_the_module():
    """The package does not shadow its `curviness` module with the report
    function, so a patch through `gridtopo.curviness` reaches the module."""
    assert gridtopo.curviness is sys.modules["gridtopo.curviness"] is curviness_module
    assert curviness_module.curviness is curviness


def inner_arc(ushape):
    return fit_region(ushape, CubicalCell.make((1, 1), (0,)), 2)


def test_fit_sq1_two_edge_ball(sq1):
    corner = CubicalCell.make((0, 0))
    arc = fit_region(sq1, corner, 1)
    assert len(arc.region) == 2
    assert arc.cycle.cells == {CubicalCell.make((1, 0)), CubicalCell.make((0, 1))}


def test_fit_ushape_inner_arc(ushape):
    arc = inner_arc(ushape)
    assert len(arc.region) == 5
    assert arc.cycle.cells == {CubicalCell.make((1, 3)), CubicalCell.make((2, 3))}
    assert len(ushape.cells) - arc.N == 11


def test_fit_box211_left_cap(box211):
    left = CubicalCell.make((0, 0, 0), (1, 2))
    arc = fit_region(box211, left, 1)
    assert len(arc.region) == 5
    assert len(arc.cycle.cells) == 4
    assert all(c.base[0] == 1 or c.base[0] + (0 in c.axes) == 1 for c in arc.cycle.cells)


def test_fit_rejects_whole_manifold(sq1):
    corner = CubicalCell.make((0, 0))
    assert ball(sq1, corner, 2) == sq1.cells
    with pytest.raises(NoFittingCycle, match="exceeds half") as err:
        fit_region(sq1, corner, 2)
    assert err.value.level == 2


def test_ushape_inner_arc_report(ushape):
    """Oracle first: d_M, d_U, and the filling size, then the measures."""
    adjacency = edge_graph_of_complex(ushape)
    assert bfs_levels(adjacency, (1, 3))[(2, 3)] == 5
    best, _ = oracle_min_paths(ushape.ambient.extent, (1, 3), (2, 3), cap=4)
    assert best == 1

    arc = inner_arc(ushape)
    rep = curviness(ScanContext(ushape), arc, least_filling(ushape, arc))
    assert rep.r == Fraction(5, 1)
    assert rep.r1 == 4
    assert rep.r2_h == 2
    assert rep.r3 == Fraction(2, 1)
    assert rep.arc.N == 5 and rep.filling.N == 1


def test_flat_arc_report(ushape):
    center = CubicalCell.make((1, 0), (0,))
    arc = fit_region(ushape, center, 1)
    rep = curviness(ScanContext(ushape), arc, least_filling(ushape, arc))
    assert rep.r == 1 and rep.r1 == 0 and rep.r2_h == 0 and rep.r3 == 0


def test_box211_cap_report(box211):
    left = CubicalCell.make((0, 0, 0), (1, 2))
    arc = fit_region(box211, left, 1)
    rep = curviness(ScanContext(box211), arc, least_filling(box211, arc))
    assert rep.r == Fraction(5, 1) and rep.r1 == 4 and rep.r2_h == 1


def test_report_invariants(ushape, rect12, box211):
    for M, gamma in ((ushape, 2), (rect12, 1), (box211, 1)):
        for rep in valid_reports(ScanContext(M), gamma):
            assert rep.r >= 1 and rep.r1 >= 0 and rep.r2_h >= 0
            assert (rep.r == 1) == (rep.r1 == 0)
            assert (rep.r1 == 0) == (rep.arc.N == rep.filling.N)
            if rep.r2_h == 0:
                assert rep.r == 1
            assert len(rep.arc.region) <= len(M.cells) // 2


def first_report(M, gamma):
    """The best report at one radius, the pick the engine's scan takes."""
    return next(valid_reports(ScanContext(M), gamma), None)


def least_filling(M, arc):
    """A minimum filling of the arc's cycle, free to run through M, within
    the arc's size."""
    return min_filling(M.ambient, arc.cycle, cap=len(arc.region))


def test_first_report_ushape(ushape):
    rep = first_report(ushape, 2)
    assert rep is not None
    assert rep.r == Fraction(5, 1)
    assert rep.filling.N == 1


def test_first_report_sq1_none(sq1):
    assert first_report(sq1, 1) is None


def test_first_report_rect12(rect12):
    rep = first_report(rect12, 1)
    assert rep is not None
    assert rep.r == Fraction(3, 1)
    assert len(rep.arc.region) == 3 and rep.filling.N == 1


def test_first_report_argmax_stable(ushape):
    """Scaling every measure by a positive constant keeps the argmax."""
    reports = list(valid_reports(ScanContext(ushape), 2))
    best = max(reports, key=lambda r: r.r)
    scaled = max(reports, key=lambda r: r.r * 7)
    assert best.r == scaled.r == reports[0].r


def test_radius_schedule_examples():
    assert list(radius_schedule_from(16)) == [4, 2, 1]
    assert list(radius_schedule_from(3)) == [1]
    assert list(radius_schedule_from(40)) == [10, 5, 2, 1]


def test_arc_sign_examples(ushape, rect12):
    arc = inner_arc(ushape)
    ctx = ScanContext(ushape)
    assert arc_sign(ctx, arc, least_filling(ushape, arc)) == "valley"

    center = CubicalCell.make((0, 0), (1,))
    cap = fit_region(rect12, center, 1)
    assert arc_sign(ScanContext(rect12), cap, least_filling(rect12, cap)) == "peak"

    flat_center = CubicalCell.make((1, 0), (0,))
    flat = fit_region(ushape, flat_center, 1)
    assert arc_sign(ctx, flat, least_filling(ushape, flat)) == "flat"


def test_arc_sign_codimension_guard(pinch):
    from gridtopo.complexes import Cycle
    from gridtopo.curviness import ArcRegion
    from gridtopo.filling import Filling

    sq = CubicalCell.make((0, 0), (0, 1))
    dummy = ArcRegion(
        center=CubicalCell.make((0, 0)),
        gamma=1,
        region=frozenset([sq]),
        cycle=Cycle(frozenset(sq.faces()), 2),
    )
    filling = Filling(cells=dummy.region, boundary=dummy.cycle)
    with pytest.raises(CodimensionUnsupported):
        arc_sign(ScanContext(pinch), dummy, filling)  # m equals the ambient dimension


def test_candidate_arcs_deduplicate(ushape):
    arcs = [fit.arc(ushape, 2) for fit, _ in candidate_arcs(ScanContext(ushape), 2)]
    regions = [a.region for a in arcs]
    assert len(regions) == len(set(regions))


def _scanned_manifolds(amb3, fixtures):
    """The fixtures, every golden state, seeded random curves and random
    polycubes, the last of which has distinct balls that fit one region."""
    amb2 = build_ambient(2, [(0, 15), (0, 15)])
    manifolds = list(fixtures)
    for name in ("sq1", "rect12", "ushape", "box111", "box211", "box333", "torus", "spacecurve"):
        manifolds += golden_states(name)
    manifolds += [random_simple_curve(amb2, random.Random(seed)) for seed in (3, 11, 29)]
    return manifolds + random_polycube_surfaces(amb3, 10, seed=2)


def test_candidate_arcs_match_reference(amb3, ushape, rect12, sq1, box111, box211, torus, monkeypatch):
    """The array pass against the per-center scan at every scanned radius,
    filtered by the same bound and cap: the same arcs (center, radius,
    region, cycle) with the same bounds, in the same order, on
    `_scanned_manifolds`.  The per-center fits take their balls from a
    fresh search, and the bound of the cycle; the filter drops arcs."""
    monkeypatch.setattr(curviness_module, "ball", reference_ball)
    arcs = dropped = 0
    for M in _scanned_manifolds(amb3, (ushape, rect12, sq1, box111, box211, torus)):
        ctx = ScanContext(M)
        for gamma in radius_sweep(M):
            got = [(fit.arc(M, gamma), lb) for fit, lb in candidate_arcs(ctx, gamma)]
            want = [(arc, filling_lower_bound(M.ambient, arc.cycle)) for arc in reference_candidate_arcs(M, gamma)]
            kept = [(arc, lb) for arc, lb in want if lb <= _replacement_cap(ctx, arc.N)]
            assert got == kept
            arcs += len(got)
            dropped += len(want) - len(kept)
    assert arcs and dropped


def test_grow_cycle_test_matches_reference(amb3, ushape, rect12, sq1, box111, box211, torus, monkeypatch):
    """Every boundary the region growth tests, over a scan at every radius,
    gets the same answer from the one-flood `is_cycle` on face ids as from
    the face count plus `components`; both answers occur."""
    seen = Counter()

    def checked(items, faces_of):
        got = is_cycle(items, faces_of)
        assert got == reference_is_cycle(items, faces_of), sorted(items)
        seen[got] += 1
        return got

    monkeypatch.setattr(curviness_module, "is_cycle", checked)
    for M in _scanned_manifolds(amb3, (ushape, rect12, sq1, box111, box211, torus)):
        ctx = ScanContext(M)
        for gamma in radius_sweep(M):
            candidate_arcs(ctx, gamma)
    assert seen[True] and seen[False]


def test_fit_bounds_match_cycle_bounds(amb3, ushape, rect12, sq1, box111, box211, torus):
    """The bounds the scan reads from a fit's ids equal those the
    references in `util` read from its arc's cells: `filling_lower_bound`
    of the cycle, and `measure_bound` for the ratio and the difference.
    The height variants build the arc for theirs; `eager_reports` checks
    all four on its fixtures."""
    fits = 0
    for M in _scanned_manifolds(amb3, (ushape, rect12, sq1, box111, box211, torus)):
        ctx = ScanContext(M)
        for gamma in radius_sweep(M):
            for fit, lb in candidate_arcs(ctx, gamma):
                arc = fit.arc(M, gamma)
                assert lb == filling_lower_bound(M.ambient, arc.cycle)
                for variant in ("ratio", "diff"):
                    got = curviness_module._fit_measure_bound(M, gamma, fit, lb, variant)
                    assert got == measure_bound(arc, lb, variant)
                fits += 1
    assert fits


def test_filling_lower_bound_holds(amb3, ushape, rect12, sq1, box111, box211, torus):
    """Every replacement filling, and every exact minimum filling, of a
    candidate cycle has at least `filling_lower_bound` cells, on the
    fixtures, the box211, box333 and torus golden states and 20 random
    polycubes; the bound the scan reads from each fit's region is that of
    its cycle.  Every replacement filling also fits the replacement cap,
    so it is smaller than the arc and than the rest of M, which
    `valid_reports` relies on without a check.  The exact search runs
    once per distinct cycle on a small node budget: one that runs out of
    nodes returns the least filling it found, which the bound must hold
    for too, or raises."""
    manifolds = [ushape, rect12, sq1, box111, box211, torus]
    for name in ("box211", "box333", "torus"):
        manifolds += golden_states(name)
    manifolds += random_polycube_surfaces(amb3, 20, seed=7)
    replaced, solved = 0, set()
    for M in manifolds:
        ctx = ScanContext(M)
        for gamma in radius_sweep(M):
            for fit, lb in candidate_arcs(ctx, gamma):
                arc = fit.arc(M, gamma)
                assert lb == filling_lower_bound(M.ambient, arc.cycle)
                filling = replacement_filling(ctx, arc)
                if filling is not None:
                    assert lb <= filling.N <= _replacement_cap(ctx, arc.N)
                    assert filling.N < min(arc.N, len(M.cells) - arc.N)
                    replaced += 1
                if arc.cycle.cells in solved:
                    continue
                solved.add(arc.cycle.cells)
                try:
                    assert min_filling(M.ambient, arc.cycle, cap=arc.N, node_budget=200).N >= lb
                except (FillingNotFound, SearchBudgetExceeded):
                    pass
    assert replaced and solved


def test_curve_bound_is_the_manhattan_distance(ushape, rect12, sq1):
    """For a curve the projection bound, read from the cycle or from the
    fit's region, is the Manhattan distance between the two ends."""
    arcs = 0
    for M in [ushape, rect12, sq1, *golden_states("spacecurve")]:
        ctx = ScanContext(M)
        for gamma in radius_sweep(M):
            for fit, lb in candidate_arcs(ctx, gamma):
                cycle = fit.arc(M, gamma).cycle
                p, q = (v.base for v in cycle.cells)
                assert lb == filling_lower_bound(M.ambient, cycle) == ambient_distance(M.ambient, p, q)
                assert projection_bound(M.ambient.n, cycle) == lb
                arcs += 1
    assert arcs


def test_projection_bound_can_fall_below_the_face_count(amb3):
    """A saddle of eight edges around a unit column, up and down at its
    corners: the shadows in two planes cancel and the third is one square,
    so the projection bound is 1, below the face count bound of 2, and the
    bound keeps the larger.  Its least filling has three squares."""
    corners = [(0, 0, 0), (1, 0, 0), (1, 0, 1), (1, 1, 1), (1, 1, 0), (0, 1, 0), (0, 1, 1), (0, 0, 1)]
    edges = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        (axis,) = [i for i in range(3) if a[i] != b[i]]
        edges.append(CubicalCell.make(min(a, b), (axis,)))
    cycle = Cycle(frozenset(edges), 2)
    assert cycle.is_valid()
    assert projection_bound(3, cycle) == 1
    assert filling_lower_bound(amb3, cycle) == 2
    assert min_filling(amb3, cycle).N == 3


def test_corner_gaps_match_per_cell_distances(amb3, ushape, rect12, box211, torus):
    """`corner_gaps` gives, cell by cell, the least corner-to-vertex
    Manhattan distance to a filling's vertices: for every solved report's
    arc, and for the top cells `deform.interpolate` peels, on the
    fixtures and ten random polycubes."""
    checked = 0
    for M in [ushape, rect12, box211, torus, *random_polycube_surfaces(amb3, 10, seed=3)]:
        ctx = ScanContext(M)
        for gamma in radius_sweep(M):
            for rep in valid_reports(ctx, gamma):
                verts = rep.filling.vertices
                tops = sorted(enclosed_cells(M.ambient, rep.arc.region ^ rep.filling.cells))
                for cells in (sorted(rep.arc.region), tops):
                    assert corner_gaps(cells, verts) == [corner_gap(c, verts) for c in cells]
                checked += bool(tops)
    assert checked


def _chi(M, ids):
    """Euler characteristic of the closure of the cells with these ids."""
    return ManifoldComplex(M.ambient, M.m, frozenset(M.index.cells[i] for i in ids)).euler_characteristic()


def test_certified_balls_are_fits_and_growth_fits_the_rest(
    amb3, ushape, rect12, sq1, box111, box211, torus, monkeypatch
):
    """Every ball the counts certify, on `_scanned_manifolds` at every
    scanned radius, is its own fit: its boundary is one cycle, which
    `_grow` would take at once, and it is one piece.  The balls left over
    still go through growth, which fits the punctured tori (chi = -1) of
    the torus states."""
    certified = grown = 0
    handles = Counter()
    disks, grow = curviness_module._disks, curviness_module._grow
    M = None

    def checked_disks(ix, m, balls, bd):
        nonlocal certified
        ok = disks(ix, m, balls, bd)
        for row in np.flatnonzero(ok).tolist():
            region = np.flatnonzero(balls[row]).tolist()
            assert is_cycle(np.flatnonzero(bd[row]).tolist(), ix.face_ridges.__getitem__)
            assert len(components(region, lambda i: ix.cell_faces[2 * m * i : 2 * m * i + 2 * m])) == 1
            certified += 1
        return ok

    def counted_grow(ix, m, region):
        nonlocal grown
        bd = grow(ix, m, region)
        if bd is not None:
            grown += 1
            handles[M.m, _chi(M, region)] += 1
        return bd

    monkeypatch.setattr(curviness_module, "_disks", checked_disks)
    monkeypatch.setattr(curviness_module, "_grow", counted_grow)
    for M in _scanned_manifolds(amb3, (ushape, rect12, sq1, box111, box211, torus)):
        ctx = ScanContext(M)
        for gamma in radius_sweep(M):
            candidate_arcs(ctx, gamma)
    assert certified > 10 * grown > 0
    assert handles[2, -1]


def test_determinism_of_reports(ushape):
    a = valid_reports(ScanContext(ushape), 2)
    b = valid_reports(ScanContext(ushape), 2)
    assert [(r.center, r.r, tuple(sorted(r.filling.cells))) for r in a] == [
        (r.center, r.r, tuple(sorted(r.filling.cells))) for r in b
    ]


def eager_reports(ctx, gamma):
    """Reference ranking: solve every candidate, then sort best first.

    Every arc of the per-center scan is a candidate here, including those
    the lazy ranking drops on their bounds.  Also checks the bounds the
    lazy ranking relies on: a candidate whose filling lower bound exceeds
    the replacement cap has no filling, a solved filling is no smaller
    than the bound and gives a measure no larger than the measure bound,
    and the measure bound the ranking reads from a fit is that of its arc.
    """
    M, variant = ctx.M, ctx.variant
    for fit, lb in candidate_arcs(ctx, gamma):
        bound = curviness_module._fit_measure_bound(M, gamma, fit, lb, variant)
        assert bound == measure_bound(fit.arc(M, gamma), lb, variant)
    out = []
    for arc in reference_candidate_arcs(M, gamma):
        lb = filling_lower_bound(M.ambient, arc.cycle)
        filling = replacement_filling(ctx, arc)
        if lb > min(FILLING_CAP, arc.N - 1, len(M.cells) - arc.N - 1):
            assert filling is None
        if filling is None:
            continue
        assert filling.N >= lb
        rep = curviness(ctx, arc, filling=filling)
        assert rep.measure(variant) <= measure_bound(arc, lb, variant)
        if filling.N < min(arc.N, len(M.cells) - arc.N):
            out.append(rep)
    out.sort(key=lambda r: r.center)
    out.sort(key=lambda r: r.measure(variant), reverse=True)
    return out


@pytest.mark.parametrize("variant", VARIANTS)
def test_lazy_reports_match_eager(variant, amb3, ushape, rect12, sq1, box111, box211):
    sphere28 = surface_from_voxels(amb3, SPHERE28_VOXELS)
    seen = 0
    for M in (ushape, rect12, sq1, box111, box211, sphere28):
        ctx = ScanContext(M, variant)
        for gamma in radius_sweep(M):
            expected = eager_reports(ctx, gamma)
            assert list(valid_reports(ctx, gamma)) == expected
            seen += len(expected)
    assert seen


def test_first_report_solves_few_fillings(ushape, monkeypatch):
    solved = []
    solve = curviness_module.replacement_filling

    def counting(ctx, arc):
        solved.append(arc.center)
        return solve(ctx, arc)

    monkeypatch.setattr(curviness_module, "replacement_filling", counting)
    assert next(iter(valid_reports(ScanContext(ushape), 2))) is not None
    assert len(solved) < len(candidate_arcs(ScanContext(ushape), 2))


# A scan context, and a contraction before any work: also one of an input
# that is already irreducible (box111), where no scan would run.
@pytest.mark.parametrize("bad", [(ScanContext, "ushape"), (contract, "ushape"), (contract, "box111")])
def test_config_rejects_bad_values(bad, request):
    run, fixture = bad
    with pytest.raises(ValueError, match="unknown variant 'bogus'"):
        run(request.getfixturevalue(fixture), "bogus")


def reference_fit_region(M, center, gamma):
    """`fit_region` as it was before it relied on M being closed and
    connected, on a ball from a fresh search: it checks the complement and
    finds repair candidates by scanning every complement cell."""
    def fail(msg):
        raise NoFittingCycle(gamma, msg)

    region = set(reference_ball(M, center, gamma))
    if not region:
        fail("empty region")
    half = len(M.cells) // 2
    if len(region) > half:
        fail(f"region of {len(region)} cells exceeds half of {len(M.cells)}")

    for _ in range(len(M.cells)):
        bd = region_boundary(region)
        if not bd:
            fail("region has empty boundary")
        cyc = Cycle(frozenset(bd), M.m)
        if cyc.is_valid() and len(components(region)) == 1:
            complement = M.cells - frozenset(region)
            if not complement or len(components(complement)) != 1:
                fail("boundary does not separate M into two components")
            return ArcRegion(center, gamma, frozenset(region), cyc)
        candidates = set()
        for c in sorted(M.cells - region):
            if any(f in bd for f in c.faces()):
                candidates.add(c)
        if not candidates or len(region) + 1 > half:
            fail("no regular separating cycle within half of M")
        region.add(min(candidates))
    fail("cycle repair did not converge")


def _fit_outcome(fit, M, center, gamma):
    try:
        return fit(M, center, gamma)
    except NoFittingCycle as err:
        return type(err), str(err), err.level


def test_fit_region_matches_reference(amb3, ushape, rect12, sq1, box111, box211, torus):
    """The index-backed fit against the cell-set fit, at every closure
    centre and every scanned radius, errors, their messages and their
    levels included."""
    amb2 = build_ambient(2, [(0, 15), (0, 15)])
    manifolds = [ushape, rect12, sq1, box111, box211, torus]
    manifolds += [random_simple_curve(amb2, random.Random(seed)) for seed in (3, 11, 29)]
    manifolds += [surface_from_voxels(amb3, v) for v in POLYCUBE_VOXELS]
    manifolds += [*golden_states("ushape"), *golden_states("box211")]
    fitted = repaired = failed = 0
    for M in manifolds:
        for gamma in radius_sweep(M):
            for center in sorted(closure_of(M.cells)):
                got = _fit_outcome(fit_region, M, center, gamma)
                assert got == _fit_outcome(reference_fit_region, M, center, gamma)
                if isinstance(got, ArcRegion):
                    assert len(components(got.region)) == 1
                    assert len(components(M.cells - got.region)) == 1
                    fitted += 1
                    repaired += got.region != ball(M, center, gamma)
                else:
                    failed += 1
    assert fitted and repaired and failed


def test_fit_region_needs_closed_manifold(amb2):
    arc = ManifoldComplex.make(amb2, 1, [CubicalCell.make((0, 0), (0,)), CubicalCell.make((1, 0), (0,))])
    with pytest.raises(ValueError, match="closed manifold"):
        fit_region(arc, CubicalCell.make((0, 0)), 1)


# ---------------------------------------------------------------------------
# The report, the sign and the ranking as they were when the report stored
# all four measures, the sign computed the height, and the ranking sorted
# its waiting candidates beside a heap of solved reports.

_MEASURE_FIELD = {"ratio": "r", "diff": "r1", "height": "r2_h", "height_ratio": "r3"}


class ReferenceReport(namedtuple("ReferenceReport", "center gamma arc filling r r1 r2_h r3")):
    def measure(self, variant):
        return getattr(self, _MEASURE_FIELD[variant])


def reference_height(M, arc, filling):
    """`curviness.height` as it was: the largest ambient vertex distance
    from arc cells to the filling."""
    verts, h = filling.vertices, 0
    for c in arc.region:
        d = min(ambient_distance(M.ambient, v, w) for v in c.vertices() for w in verts)
        h = max(h, d)
    return h


def reference_span(M, verts):
    verts = sorted(verts)
    return max(
        (ambient_distance(M.ambient, u, v) for i, u in enumerate(verts) for v in verts[i + 1 :]),
        default=0,
    )


def reference_curviness(ctx, arc, filling):
    """`curviness.curviness` as it was, given the filling: every measure
    computed when the report is built."""
    n_arc, n_fill = len(arc.region), filling.N
    h = reference_height(ctx.M, arc, filling)
    span = reference_span(ctx.M, filling.vertices)
    return ReferenceReport(
        arc.center, arc.gamma, arc, filling,
        Fraction(n_arc, n_fill), n_arc - n_fill, h, Fraction(h, span) if span else Fraction(0),
    )


def reference_arc_sign(ctx, arc, filling):
    """`curviness.arc_sign` as it was: flat when the height is 0."""
    M = ctx.M
    if M.ambient.n != M.m + 1:
        raise CodimensionUnsupported(f"m={M.m} in ambient n={M.ambient.n}")
    if reference_height(M, arc, filling) == 0:
        return "flat"
    inside = ctx.inside
    for c in sorted(filling.cells):
        if c in M.cells:
            continue
        carriers = list(M.ambient.top_cells_containing(c))
        if any(t in inside for t in carriers):
            return "peak"
        return "valley"
    return "flat"


def reference_valid_reports(ctx, gamma):
    """`curviness.valid_reports` as it was: the waiting candidates sorted
    on their bounds, the solved reports in a heap of their own, and a rule
    to choose between the two tops."""
    M, variant = ctx.M, ctx.variant
    pending = []  # (-bound, center id, fit), best key last
    for fit, lb in curviness_module.candidate_arcs(ctx, gamma):
        bound = curviness_module._fit_measure_bound(M, gamma, fit, lb, variant)
        pending.append((-bound, fit.center, fit))
    pending.sort(key=lambda e: e[:2], reverse=True)
    solved = []  # heap of ((-measure, center id), report)
    while pending or solved:
        if solved and (not pending or pending[-1][:2] > solved[0][0]):
            yield heapq.heappop(solved)[1]
            continue
        _, center, fit = pending.pop()
        arc = fit.arc(M, gamma)
        filling = curviness_module.replacement_filling(ctx, arc)
        if filling is None or filling.N >= min(arc.N, len(M.cells) - arc.N):
            continue
        rep = reference_curviness(ctx, arc, filling)
        heapq.heappush(solved, ((-rep.measure(variant), center), rep))


def _sign(sign, ctx, rep):
    try:
        return sign(ctx, rep.arc, rep.filling)
    except CodimensionUnsupported:
        return "unsupported"


def test_reports_match_reference(amb3, ushape, rect12, sq1, box111, box211, torus, monkeypatch):
    """The one-queue ranking with measures computed on read against the
    sorted ranking with stored measures, at every radius of the fixtures,
    every golden state and random polycubes: the same solves and yields,
    interleaved alike; the same reports with equal measures of the same
    types; and the same sign from the set test as from the height."""
    events = []

    def run(reports):
        events.clear()
        out = []
        for rep in reports:
            events.append(("yield", rep.center))
            out.append(rep)
        return out, list(events)

    # Both rankings take their candidates, bounds and fillings from the
    # same functions, so the second ranking of a state reads the first's
    # results; every solve is logged.
    def remembered(fn, key_of):
        known = {}

        def call(*args):
            key = key_of(*args)
            if key not in known:
                known[key] = fn(*args)
            return known[key]

        return call

    fits = remembered(curviness_module.candidate_arcs, lambda ctx, gamma: (id(ctx.M), gamma))
    bound = remembered(curviness_module._fit_measure_bound, lambda M, gamma, fit, lb, v: (id(M), gamma, fit, v))
    solve = remembered(curviness_module.replacement_filling, lambda ctx, arc: (id(ctx.M), arc))

    def logged_solve(ctx, arc):
        events.append(("solve", arc.center))
        return solve(ctx, arc)

    monkeypatch.setattr(curviness_module, "candidate_arcs", fits)
    monkeypatch.setattr(curviness_module, "_fit_measure_bound", bound)
    monkeypatch.setattr(curviness_module, "replacement_filling", logged_solve)
    manifolds = [ushape, rect12, sq1, box111, box211, torus]
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        manifolds += golden_states(path.stem)
    manifolds += random_polycube_surfaces(amb3, 6, seed=5)
    signs = Counter()
    for M, variant in itertools.product(manifolds, VARIANTS):
        ctx = ScanContext(M, variant)
        for gamma in radius_sweep(M):
            want, want_events = run(reference_valid_reports(ctx, gamma))
            got, got_events = run(valid_reports(ctx, gamma))
            assert got_events == want_events
            assert [(r.center, r.gamma, r.arc, r.filling) for r in got] == [w[:4] for w in want]
            for r, w in zip(got, want):
                measures = (r.r, r.r1, r.r2_h, r.r3)
                assert measures == w[4:]
                assert list(map(type, measures)) == [Fraction, int, int, Fraction]
                assert r.measure(variant) == w.measure(variant)
                sign = _sign(arc_sign, ctx, r)
                assert sign == _sign(reference_arc_sign, ctx, w)
                signs[sign] += 1
    assert set(signs) == {"peak", "valley", "flat", "unsupported"}
