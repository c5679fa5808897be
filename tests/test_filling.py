import pytest

from gridtopo import CubicalCell, Cycle, build_ambient, jordan_split, min_filling
from gridtopo.curviness import boundary_cycle_fit, candidate_arcs
from gridtopo.engine import radius_sweep
from gridtopo.errors import FillingNotFound, NotSeparating
from gridtopo.filling import (
    ScanContext,
    enclosed_cells,
    inside_region,
    lofted,
    one_sided_min_cut,
    semi_convex,
)
from gridtopo.metric import ball

from util import (
    SPHERE28_VOXELS,
    face_vertices,
    oracle_min_paths,
    oracle_min_surface_fillings,
    surface_from_voxels,
)


def vertex_cycle(p, q):
    return Cycle(frozenset({CubicalCell.make(p), CubicalCell.make(q)}), 1)


def edge_ring(cells):
    return Cycle(frozenset(cells), 2)


def test_min_path_straight():
    amb = build_ambient(2, [(0, 4), (0, 4)])
    f = min_filling(amb, vertex_cycle((0, 0), (3, 0)))
    assert f.N == 3
    best, _ = oracle_min_paths(amb.extent, (0, 0), (3, 0), cap=6)
    assert f.N == best


def test_min_filling_unit_square_ring():
    amb = build_ambient(3, [(0, 3)] * 3)
    sq = CubicalCell.make((0, 0, 0), (0, 1))
    ring = edge_ring(sq.faces())
    f = min_filling(amb, ring)
    assert f.N == 1 and f.cells == {sq}


def test_min_filling_domino_ring():
    amb = build_ambient(3, [(0, 3)] * 3)
    a = CubicalCell.make((0, 0, 0), (0, 1))
    b = CubicalCell.make((1, 0, 0), (0, 1))
    from gridtopo.complexes import region_boundary

    ring = edge_ring(region_boundary([a, b]))
    f = min_filling(amb, ring)
    assert f.N == 2 and f.cells == {a, b}
    oracle_n, oracle_sets = oracle_min_surface_fillings(
        amb.extent, {frozenset(e.vertices()) for e in ring.cells}, max_n=3
    )
    assert oracle_n == 2
    assert {face_vertices(c) for c in f.cells} in oracle_sets


def test_min_filling_exclude_forces_detour():
    amb = build_ambient(2, [(0, 4), (0, 4)])
    barrier = [CubicalCell.make((2, y)) for y in range(0, 3)]
    f = min_filling(amb, vertex_cycle((0, 0), (4, 0)), exclude=frozenset(barrier))
    assert f.N > 4


def test_filling_not_found_cap():
    amb = build_ambient(2, [(0, 8), (0, 8)])
    with pytest.raises(FillingNotFound):
        min_filling(amb, vertex_cycle((0, 0), (8, 8)), cap=3)


def test_filling_boundary_exactness(box211):
    left = CubicalCell.make((0, 0, 0), (1, 2))
    b = ball(box211, left, 1)
    arc = boundary_cycle_fit(box211, b, center=left, gamma=1)
    assert len(arc.region) == 5
    assert len(arc.cycle.cells) == 4
    f = min_filling(box211.ambient, arc.cycle)
    assert f.N == 1
    from gridtopo.complexes import region_boundary

    assert region_boundary(f.cells) == arc.cycle.cells


def test_jordan_split_sq1(sq1):
    cyc = vertex_cycle((0, 0), (1, 1))
    small, large = jordan_split(sq1, cyc)
    assert len(small) == 2 and len(large) == 2


def test_jordan_split_ushape(ushape):
    cyc = vertex_cycle((1, 3), (2, 3))
    small, large = jordan_split(ushape, cyc)
    assert len(small) == 5 and len(large) == 11
    assert small | large == ushape.cells


def test_jordan_split_torus_essential(torus):
    ring = edge_ring(
        [
            CubicalCell.make((1, 1, 3), (0,)),
            CubicalCell.make((1, 1, 3), (1,)),
            CubicalCell.make((2, 1, 3), (1,)),
            CubicalCell.make((1, 2, 3), (0,)),
        ]
    )
    assert ring.is_valid()
    with pytest.raises(NotSeparating):
        jordan_split(torus, ring)


def test_enclosed_cells_square():
    amb = build_ambient(2, [(-1, 3), (-1, 3)])
    sq = CubicalCell.make((0, 0), (0, 1))
    assert enclosed_cells(amb, frozenset(sq.faces())) == {sq}


def test_inside_region_counts(box211, torus):
    assert len(inside_region(box211)) == 2
    assert len(inside_region(torus)) == 24


def test_one_sided_min_cut_box211(box211):
    left = CubicalCell.make((0, 0, 0), (1, 2))
    b = ball(box211, left, 1)
    arc = boundary_cycle_fit(box211, b, center=left, gamma=1)
    got = one_sided_min_cut(ScanContext(box211), arc.region, "inside")
    assert got is not None
    cut, region = got
    assert cut == {CubicalCell.make((1, 0, 0), (1, 2))}
    assert region == {CubicalCell.make((0, 0, 0), (0, 1, 2))}


def test_shared_context_cut_matches_fresh(amb3, box211, torus):
    """Every arc and side solved on one shared context gives what a fresh
    context gives: no solve leaks into the shared networks."""
    poly = surface_from_voxels(amb3, SPHERE28_VOXELS)
    for M in (box211, torus, poly):
        shared = ScanContext(M)
        feasible = 0
        for gamma in radius_sweep(M):
            for arc in candidate_arcs(M, gamma):
                for side in ("inside", "outside"):
                    got = one_sided_min_cut(shared, arc.region, side)
                    assert got == one_sided_min_cut(ScanContext(M), arc.region, side)
                    feasible += got is not None
        assert feasible


def test_lofted_ushape_inner(ushape):
    center = CubicalCell.make((1, 1), (0,))
    b = ball(ushape, center, 2)
    arc = boundary_cycle_fit(ushape, b, center=center, gamma=2)
    seq = lofted(ScanContext(ushape), center, 2, arc_cells=arc.region)
    assert [l.filling.N for l in seq.levels] == [1, 1]
    assert not any(l.meets_arc for l in seq.levels)
    assert semi_convex(arc, seq)
    assert all(l.filling.boundary.cells == l.circle.cells for l in seq.levels)


def test_lofted_flat_arc_semi_convex(ushape):
    center = CubicalCell.make((1, 0), (0,))
    b = ball(ushape, center, 1)
    arc = boundary_cycle_fit(ushape, b, center=center, gamma=1)
    seq = lofted(ScanContext(ushape), center, 1, arc_cells=arc.region)
    assert semi_convex(arc, seq)


def test_lofted_torus_inner_wall_obstructed(torus):
    wall = CubicalCell.make((1, 1, 1), (1, 2))
    b = ball(torus, wall, 2)
    arc = boundary_cycle_fit(torus, b, center=wall, gamma=2)
    seq = lofted(ScanContext(torus), wall, 2, arc_cells=arc.region)
    assert any(l.meets_arc for l in seq.levels)
    assert not semi_convex(arc, seq)


def test_lofted_fillings_are_minimal_per_level(ushape):
    """Monotonicity is not asserted, minimality per circle is."""
    center = CubicalCell.make((1, 1), (0,))
    seq = lofted(ScanContext(ushape), center, 2)
    for lv in seq.levels:
        p, q = sorted(v.base for v in lv.circle.cells)
        best, _ = oracle_min_paths(ushape.ambient.extent, p, q, cap=8)
        assert lv.filling.N == best
