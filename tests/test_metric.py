import math
import random
from collections import Counter
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtopo import CubicalCell, ManifoldComplex, all_pairs, ball, build_ambient, cell_distance, diameter, validate
from gridtopo.corpus import random_simple_curve
from gridtopo.engine import radius_sweep
from gridtopo.errors import CellNotInComplex, Unreachable
from gridtopo.io import load_fixture
from gridtopo.metric import ambient_distance

from conftest import FIXTURE_DIR
from util import (
    GOLDEN_DIR,
    POLYCUBE_VOXELS,
    bfs_levels,
    closure_of,
    curve_from_pixels,
    edge_graph_of_complex,
    golden_states,
    grid_graph,
    oracle_chain_distance,
    random_connected_subcomplex,
    reference_ball,
    surface_from_voxels,
    vertices_of,
)


def test_sq1_opposite_corners(sq1):
    assert cell_distance(sq1, (0, 0), (1, 1), k=1) == 2


def test_square_chain_distance_oracle():
    """Frozen from the chain-enumeration oracle: two squares suffice for
    vertices (0,0) and (2,1), the second square owning (2,1) as a corner."""
    amb = build_ambient(2, [(0, 4), (0, 4)])
    expected = oracle_chain_distance(None, (0, 0), (2, 1), 2, extent=amb.extent)
    assert expected == 2
    assert cell_distance(amb, (0, 0), (2, 1), k=2) == expected


def test_chain_distance_matches_oracle_samples():
    amb = build_ambient(2, [(0, 4), (0, 4)])
    pairs = [((0, 0), (4, 4)), ((0, 0), (3, 1)), ((1, 1), (1, 1)), ((0, 2), (4, 2))]
    for p, q in pairs:
        assert cell_distance(amb, p, q, k=2) == oracle_chain_distance(
            None, p, q, 2, extent=amb.extent
        )


def test_chain_distance_on_complexes_and_higher_cells():
    """Chains of k = 2..n cells against the vertex-set oracle, unreachable
    pairs included: in a 3-d ambient, and on seeded random subcomplexes of
    2-cells and 3-cells in 3-d and 4-d ambients, where a k above m has no
    chain.  Each space is queried from some of its vertices and from an
    ambient vertex off it."""
    rng = random.Random(34)
    amb3 = build_ambient(3, [(0, 2), (-1, 1), (0, 2)])
    spaces = [amb3]
    for amb in (build_ambient(3, [(0, 4)] * 3), build_ambient(4, [(0, 3)] * 4)):
        for m in (2, 3):
            spaces += [random_connected_subcomplex(amb, m, rng.randint(2, 6), rng) for _ in range(3)]
    found = unreachable = 0
    for space in spaces:
        ambient = getattr(space, "ambient", space)
        extent = space.extent if space is ambient else None
        if extent is None:
            verts = sorted(vertices_of(space.cells))
            pts = rng.sample(verts, 3) + [tuple(hi for _, hi in ambient.extent)]
        else:
            pts = [tuple(rng.randint(lo, hi) for lo, hi in extent) for _ in range(4)]
        for k in range(2, ambient.n + 1):
            for x in pts:
                for y in pts:
                    want = oracle_chain_distance(space, x, y, k, extent=extent)
                    if want is None:
                        unreachable += 1
                        with pytest.raises(Unreachable):
                            cell_distance(space, x, y, k)
                    else:
                        found += 1
                        assert cell_distance(space, x, y, k) == want, (x, y, k)
    assert found > 50 and unreachable > 50


def test_ushape_tip_distances(ushape):
    ap = all_pairs(ushape)
    assert ap.d_m((1, 3), (2, 3)) == 5
    assert ap.d_u((1, 3), (2, 3)) == 1
    # the (8, 2) pattern appears in the table, at the inner-bottom corner pair
    assert ap.d_m((1, 0), (2, 1)) == 8
    assert ap.d_u((1, 0), (2, 1)) == 2


def test_all_pairs_against_bfs_oracle(ushape):
    adjacency = edge_graph_of_complex(ushape)
    ap = all_pairs(ushape)
    verts = sorted(vertices_of(ushape.cells))
    for u in verts:
        levels = bfs_levels(adjacency, u)
        for v in verts:
            assert ap.d_m(u, v) == levels[v]


def test_diameters(sq1, rect12, box111):
    assert diameter(sq1)[0] == 2
    d, witness = diameter(rect12)
    assert d == 3 and witness == ((0, 0), (2, 1))
    assert diameter(box111)[0] == 3


def test_ball_examples(sq1, ushape):
    corner = CubicalCell.make((0, 0))
    assert len(ball(sq1, corner, 1)) == 2
    tip = CubicalCell.make((1, 3))
    b = ball(ushape, tip, 2)
    # frozen by the BFS oracle: two inner-arm edges plus two outer edges
    assert b == {
        CubicalCell.make((0, 2), (1,)),
        CubicalCell.make((0, 3), (0,)),
        CubicalCell.make((1, 2), (1,)),
        CubicalCell.make((1, 1), (1,)),
    }
    d, _ = diameter(ushape)
    assert ball(ushape, tip, d) == ushape.cells


def test_ball_monotone(ushape):
    tip = CubicalCell.make((1, 3))
    prev = frozenset()
    for g in range(1, 9):
        cur = ball(ushape, tip, g)
        assert prev <= cur
        prev = cur


def test_unreachable():
    amb = build_ambient(2, [(0, 6), (0, 6)])
    cells = [CubicalCell.make((0, 0), (0,)), CubicalCell.make((4, 4), (0,))]
    M = ManifoldComplex.make(amb, 1, cells)
    with pytest.raises(Unreachable):
        cell_distance(M, (0, 0), (4, 4), k=1)


def test_d_m_off_the_complex_is_unreachable(ushape):
    """A point that is not a vertex of M is out of reach at either end,
    and from itself."""
    ap = all_pairs(ushape)
    for x, y in (((99, 99), (0, 0)), ((0, 0), (99, 99)), ((99, 99), (98, 98)), ((99, 99), (99, 99))):
        with pytest.raises(Unreachable):
            ap.d_m(x, y)
        with pytest.raises(Unreachable):
            cell_distance(ushape, x, y)


def test_cell_distance_rejects_k_below_one(ushape):
    """A chain of 0-cells is no distance: k = 0 is refused, inside M and
    in the ambient, even for a pair that is one vertex."""
    for space in (ushape, ushape.ambient):
        for x, y in (((0, 0), (0, 0)), ((0, 0), (1, 0))):
            with pytest.raises(ValueError, match="k must be >= 1"):
                cell_distance(space, x, y, k=0)


def test_manhattan_closed_form():
    amb = build_ambient(2, [(0, 9), (0, 9)])
    adjacency = grid_graph(amb.extent)
    rng = random.Random(7)
    for _ in range(20):
        u = (rng.randint(0, 9), rng.randint(0, 9))
        v = (rng.randint(0, 9), rng.randint(0, 9))
        levels = bfs_levels(adjacency, u)
        assert cell_distance(amb, u, v, k=1) == levels[v] == ambient_distance(amb, u, v)
    for x, y in (((0, 0), (10, 9)), ((10, 9), (0, 0)), ((10, 9), (10, 9))):  # a vertex off the box
        with pytest.raises(Unreachable):
            cell_distance(amb, x, y, k=1)


def test_du_never_exceeds_dm(ushape, rect12, box211):
    for M in (ushape, rect12, box211):
        ap = all_pairs(M)
        for u, v, dm, du in ap.pairs():
            assert du <= dm


def test_chain_distance_axioms_sampled():
    """Symmetry holds exactly; the triangle bound needs a join allowance.

    Chains meeting at a vertex need not share a square, so concatenation
    can cost up to two extra cells to walk around the join vertex.  The
    unmodified inequality genuinely fails: (0,0)->(4,4) needs 7 squares
    while routing through (2,1) gives 2+4.
    """
    amb = build_ambient(2, [(0, 4), (0, 4)])
    pts = [(0, 0), (2, 1), (4, 4), (1, 3)]
    d = {(p, q): cell_distance(amb, p, q, k=2) for p in pts for q in pts}
    for p in pts:
        assert d[(p, p)] == 1  # a single square already contains the pair
        for q in pts:
            assert d[(p, q)] == d[(q, p)]
            for r in pts:
                assert d[(p, r)] <= d[(p, q)] + d[(q, r)] + 2
    assert d[((0, 0), (4, 4))] == 7
    assert d[((0, 0), (2, 1))] + d[((2, 1), (4, 4))] == 6


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_metric_axioms_random_complexes(seed):
    rng = random.Random(seed)
    amb = build_ambient(2, [(0, 9), (0, 9)])
    M = random_connected_subcomplex(amb, 1, 12, rng)
    verts = sorted(vertices_of(M.cells))
    adjacency = edge_graph_of_complex(M)
    tables = {v: bfs_levels(adjacency, v) for v in verts}
    for u in verts:
        assert tables[u][u] == 0
        for v in verts:
            assert tables[u][v] == tables[v][u]
    sample = verts[:6]
    for a in sample:
        for b in sample:
            for c in sample:
                assert tables[a][c] <= tables[a][b] + tables[b][c]


# ---------------------------------------------------------------------------
# The per-state index against a fresh breadth-first search.


def reference_diameter(M):
    verts, adjacency = sorted(vertices_of(M.cells)), edge_graph_of_complex(M)
    best, witness = -1, None
    for i, u in enumerate(verts):
        table = bfs_levels(adjacency, u)
        for v in verts[i + 1 :]:
            if v not in table:
                raise Unreachable(f"{v} not reachable from {u} in M")
            if table[v] > best:
                best, witness = table[v], (u, v)
    return best, witness


def test_index_matches_bfs(amb3, sq1, ushape, rect12, box211, torus):
    """Balls, diameters, pair distances and center rows read from the
    per-state index against fresh searches, on closed curves and surfaces:
    the fixtures, seeded random curves, polycubes and the states of a
    curve in a 3-D ambient."""
    amb2 = build_ambient(2, [(0, 15), (0, 15)])
    curves = [random_simple_curve(amb2, random.Random(seed)) for seed in (3, 11, 29)]
    surfaces = [surface_from_voxels(amb3, v) for v in POLYCUBE_VOXELS]
    for M in [sq1, ushape, rect12, box211, torus, *curves, *surfaces, *golden_states("spacecurve")]:
        assert diameter(M) == reference_diameter(M)
        ap, adjacency, verts = all_pairs(M), edge_graph_of_complex(M), vertices_of(M.cells)
        for u in sorted(verts):
            table = bfs_levels(adjacency, u)
            assert all(ap.d_m(u, v) == table[v] for v in verts)
        ix = M.index
        assert list(ix.centers) == sorted(closure_of(M.cells))
        for center in ix.centers:
            table = bfs_levels(adjacency, *center.vertices())
            row = ix.center_dist[ix.centers.index(center)].tolist()
            assert row == [table.get(v, math.inf) for v in ix.vertices]
            for gamma in radius_sweep(M):
                assert ball(M, center, gamma) == reference_ball(M, center, gamma)


def reference_center_dist(M):
    """`StateIndex.center_dist` as it was built for every m: each block of
    rows from the vertices of every closure cell of one dimension."""
    ix, rows = M.index, []
    for k, same_dim in groupby(ix.centers, key=lambda c: c.dim):
        corners = [ix.vertex_id[v] for c in same_dim for v in c.vertices()]
        rows.append(ix.dist[np.reshape(corners, (-1, 1 << k))].min(axis=1))
    return np.concatenate(rows)


def test_center_dist_matches_cell_vertex_construction(amb3):
    """The table read from `dist`, `face_ridges` and `cell_vertices`
    against the one built from every closure cell's vertices, on every
    fixture, every golden state and the polycubes."""
    manifolds = [load_fixture(p, require_valid=False) for p in sorted(FIXTURE_DIR.glob("*.txt"))]
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        manifolds += golden_states(path.stem)
    manifolds += [surface_from_voxels(amb3, v) for v in POLYCUBE_VOXELS]
    assert {M.m for M in manifolds} == {1, 2}
    for M in manifolds:
        got = M.index.center_dist
        assert got.shape == (len(closure_of(M.cells)), len(vertices_of(M.cells)))
        assert np.array_equal(got, reference_center_dist(M))


def test_ball_rejects_center_outside_closure(ushape):
    """A vertex off the curve, and a square with a vertex on it, are not
    cells of its closure."""
    for center in (CubicalCell.make((4, 4)), CubicalCell.make((0, 0), (0, 1))):
        with pytest.raises(CellNotInComplex):
            ball(ushape, center, 2)


def test_index_on_disconnected_complex(amb2, amb3):
    """Balls leave out the cells out of reach; the diameter and distances
    between components raise Unreachable."""
    far_curve = curve_from_pixels(amb2, [(0, 0), (3, 3)])
    far_surface = surface_from_voxels(amb3, [(0, 0, 0), (2, 2, 2)])
    for M in (far_curve, far_surface):
        with pytest.raises(Unreachable) as got:
            diameter(M)
        with pytest.raises(Unreachable) as want:
            reference_diameter(M)
        assert str(got.value) == str(want.value)
        u, v = min(vertices_of(M.cells)), max(vertices_of(M.cells))
        with pytest.raises(Unreachable):
            all_pairs(M).d_m(u, v)
        for gamma in range(1, 8):
            for center in sorted(closure_of(M.cells)):
                got_ball = ball(M, center, gamma)
                assert got_ball == reference_ball(M, center, gamma)
                assert len(got_ball) <= len(M.cells) // 2  # one component at most


def test_index_of_a_three_manifold():
    """m = 3: the boundary of a 2x1x1x1 block of 4-cells, 14 cubes with
    χ = 0.  The index's distances match a fresh search over its edges, and
    its balls, read through the m >= 3 edge ends and the per-dimension
    `center_dist` rows, match `reference_ball` at every center and radius."""
    amb4 = build_ambient(4, [(-1, 3), (-1, 2), (-1, 2), (-1, 2)])
    counts = Counter(f for x in (0, 1) for f in CubicalCell.make((x, 0, 0, 0), (0, 1, 2, 3)).faces())
    M = ManifoldComplex.make(amb4, 3, [f for f, k in counts.items() if k == 1])
    assert len(M.cells) == 14 and M.euler_characteristic() == 0
    assert validate(M).ok
    ix, adjacency = M.index, edge_graph_of_complex(M)
    for u, row in zip(ix.vertices, ix.dist.tolist()):
        levels = bfs_levels(adjacency, u)
        assert row == [levels[v] for v in ix.vertices]
    assert list(ix.centers) == sorted(closure_of(M.cells))
    for center in ix.centers:
        for gamma in range(1, 6):
            assert ball(M, center, gamma) == reference_ball(M, center, gamma)
    assert diameter(M) == (5, ((0, 0, 0, 0), (2, 1, 1, 1)))
