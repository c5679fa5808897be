import math
import random
from array import array
from collections import deque
from functools import lru_cache
from itertools import accumulate, product

import numpy as np
import pytest

from gridtopo import CubicalCell, Cycle, ManifoldComplex, build_ambient, contract, jordan_split, min_filling
from gridtopo import deform as deform_module
import gridtopo.curviness as curviness_module
from gridtopo import filling as filling_module
from gridtopo.complexes import components, region_boundary
from gridtopo.corpus import random_simple_curve
from gridtopo.curviness import (
    _best_one_sided_cut,
    _replacement_cap,
    candidate_arcs,
    fit_region,
    replacement_filling,
)
from gridtopo.engine import radius_sweep
from gridtopo.errors import FillingNotFound, NoFittingCycle, NotSeparating, SearchBudgetExceeded
from gridtopo.filling import (
    FILLING_CAP,
    Filling,
    LoftedLevel,
    ScanContext,
    enclosed_cells,
    inside_region,
    lofted,
    one_sided_min_cut,
)
from gridtopo.io import load_fixture

from util import (
    BOX333_VOXELS,
    POLYCUBE_VOXELS,
    SPHERE28_VOXELS,
    bbox_top_cells,
    closure_of,
    code_exclusion,
    cofaces,
    complex_closure,
    face_vertices,
    golden_states,
    grid_graph,
    oracle_min_paths,
    oracle_min_surface_fillings,
    random_polycube,
    random_polycube_surfaces,
    reference_candidate_arcs,
    solid_surface_cells,
    surface_from_voxels,
    vertices_of,
)

from conftest import FIXTURE_DIR


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
    f = min_filling(amb, vertex_cycle((0, 0), (4, 0)), exclude=code_exclusion(amb, barrier))
    assert f.N > 4


def test_filling_not_found_cap():
    amb = build_ambient(2, [(0, 8), (0, 8)])
    with pytest.raises(FillingNotFound):
        min_filling(amb, vertex_cycle((0, 0), (8, 8)), cap=3)


def test_filling_boundary_exactness(box211):
    left = CubicalCell.make((0, 0, 0), (1, 2))
    arc = fit_region(box211, left, 1)
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


def reference_enclosed_cells(ambient, surface):
    """`enclosed_cells` as a flood, before the crossing parity: components
    of the block's top cells joined across faces off the surface, a
    component outside when one of its cells has a face off the surface on
    the block's outer boundary.  On a closed surface it agrees with the
    parity unless the surface has a cavity, which the flood fills."""
    if not surface:
        return frozenset()
    n = ambient.n
    cells = bbox_top_cells(ambient, {v for c in surface for v in c.vertices()})
    lo, hi = cells[0].base, cells[-1].base
    rest = [tuple(x for x in range(n) if x != a) for a in range(n)]
    hull = set()
    for c in cells:
        for a in range(n):
            for bound, step in ((lo[a], 0), (hi[a], 1)):
                if c.base[a] == bound:
                    outer = c.base[:a] + (bound + step,) + c.base[a + 1 :]
                    if CubicalCell(n - 1, outer, rest[a]) not in surface:
                        hull.add(c)
    inside = set()
    for comp in components(cells, blocked=surface):
        if comp.isdisjoint(hull):
            inside |= comp
    return frozenset(inside)


def test_enclosed_cells_match_reference(monkeypatch, amb2, amb3):
    """The parity against the flood on every golden state, the difference
    surfaces interpolation passes it, surfaces clipped by the ambient, a
    space curve's edges and sets of mixed dimension, all closed; on each,
    what it returns has the surface's codimension-one cells as boundary."""
    cases = []
    for name in ("sq1", "rect12", "ushape", "box111", "box211", "box333", "torus", "spacecurve"):
        cases += [(M.ambient, M.cells) for M in golden_states(name)]
    recorded = []

    def recording(ambient, surface):
        recorded.append((ambient, surface))
        return enclosed_cells(ambient, surface)

    monkeypatch.setattr(deform_module, "enclosed_cells", recording)
    for M in (load_fixture(FIXTURE_DIR / f"{name}.txt") for name in ("rect12", "ushape", "box211", "spacecurve")):
        contract(M)
    contract(surface_from_voxels(amb3, SPHERE28_VOXELS))
    assert any(a.n == 3 and all(c.dim == 1 for c in surface) for a, surface in recorded)  # the space curve's
    cases += recorded
    corners = [(-2, -2, -2), (4, 4, 4), (-2, 4, 0)]
    cases += [(amb3, frozenset(solid_surface_cells([v]))) for v in corners]
    space_curve = load_fixture(FIXTURE_DIR / "spacecurve.txt")
    cases.append((space_curve.ambient, space_curve.cells))
    square = CubicalCell.make((0, 0), (0, 1))
    box = CubicalCell.make((0, 0, 0), (0, 1, 2))
    cases.append((amb2, frozenset([*square.faces(), CubicalCell.make((3, 3)), CubicalCell.make((2, 2), (0, 1))])))
    cases.append((amb3, frozenset([*box.faces(), *space_curve.cells, box, CubicalCell.make((3, 3, 3))])))
    cases.append((amb3, frozenset([CubicalCell.make((1, 1, 1))])))
    enclosing = 0
    for ambient, surface in cases:
        got = enclosed_cells(ambient, surface)
        assert got == reference_enclosed_cells(ambient, surface)
        assert region_boundary(got) == {c for c in surface if c.dim == ambient.n - 1}
        enclosing += bool(got)
    assert 0 < enclosing < len(cases)


def test_enclosed_cells_of_solids(amb3):
    """A solid's surface encloses the solid, and the sum (mod 2) of two
    solids' surfaces encloses their symmetric difference: 40 seed-5
    polycubes, each paired with the next.  The surface of a 3x3x3 cube
    less its centre encloses the 26 voxels of the shell; a flood from
    outside would take the cavity too."""

    def solid(voxels):
        return frozenset(CubicalCell.make(v, (0, 1, 2)) for v in voxels)

    def surface(voxels):
        return frozenset(solid_surface_cells(voxels))

    rng = random.Random(5)
    draws = [random_polycube(rng, rng.randint(1, 12)) for _ in range(40)]
    for a, b in zip(draws, draws[1:] + draws[:1]):
        assert enclosed_cells(amb3, surface(a)) == solid(a)
        assert enclosed_cells(amb3, surface(a) ^ surface(b)) == solid(a) ^ solid(b)
    shell = [v for v in BOX333_VOXELS if v != (1, 1, 1)]
    got = enclosed_cells(amb3, surface(shell))
    assert got == solid(shell) and len(got) == 26


def test_inside_region_counts(box211, torus):
    assert len(inside_region(box211)) == 2
    assert len(inside_region(torus)) == 24


def test_one_sided_min_cut_box211(box211):
    """The inside cut around one end of box211 is the face between its two
    voxels; the context's network reads no enclosed region to find it."""
    left = CubicalCell.make((0, 0, 0), (1, 2))
    arc = fit_region(box211, left, 1)
    ctx = ScanContext(box211)
    got = one_sided_min_cut(ctx, arc.region, "inside")
    assert got is not None
    cut, region = got
    assert cut == {CubicalCell.make((1, 0, 0), (1, 2))}
    assert region == {CubicalCell.make((0, 0, 0), (0, 1, 2))}
    assert "inside" not in vars(ctx)


def test_one_sided_min_cut_on_the_ambient_bound():
    """A 1x2x1 box lying on the ambient's lower bound along axis 0, cut
    around one end.  The arc holds a face on that bound, which has no top
    cell outside, so the outside is infeasible.  Both of its voxels touch
    the bound, yet only the outside meets the far node, so the inside cut
    is the one face between them, within a cap of 1."""
    M = surface_from_voxels(build_ambient(3, [(0, 4), (-2, 4), (-2, 3)]), [(0, 0, 0), (0, 1, 0)])
    end = CubicalCell.make((0, 0, 0), (0, 2))
    arc = fit_region(M, end, 1)
    ctx = ScanContext(M)
    assert CubicalCell.make((0, 0, 0), (1, 2)) in arc.region
    assert one_sided_min_cut(ctx, arc.region, "outside") is None
    cut, region = one_sided_min_cut(ctx, arc.region, "inside", cap=1)
    assert cut == {CubicalCell.make((0, 1, 0), (0, 2))}
    assert region == {CubicalCell.make((0, 0, 0), (0, 1, 2))}


def test_one_sided_min_cut_refuses_codimension_two():
    """On the 28-face sphere lifted into a 4-d ambient no side is bounded
    by M, so both sides of every arc of the per-center scan, uncapped,
    give no cut, and no replacement filling is found."""
    amb4 = build_ambient(4, [(-2, 5)] * 3 + [(-1, 2)])
    lifted = [CubicalCell(c.dim, (*c.base, 0), c.axes) for c in solid_surface_cells(SPHERE28_VOXELS)]
    M = ManifoldComplex.make(amb4, 2, lifted)
    ctx, arcs = ScanContext(M), 0
    for gamma in radius_sweep(M):
        for arc in reference_candidate_arcs(M, gamma):
            assert one_sided_min_cut(ctx, arc.region, "inside") is None
            assert one_sided_min_cut(ctx, arc.region, "outside") is None
            assert replacement_filling(ctx, arc) is None
            arcs += 1
    assert arcs


@pytest.mark.parametrize("side", ["Inside", "outer", ""])
def test_one_sided_min_cut_rejects_unknown_side(box211, side):
    """A side is "inside" or "outside"; any other raises, before the
    context builds its network, rather than solving the outside."""
    left = CubicalCell.make((0, 0, 0), (1, 2))
    arc = fit_region(box211, left, 1)
    ctx = ScanContext(box211)
    with pytest.raises(ValueError, match="inside"):
        one_sided_min_cut(ctx, arc.region, side)
    assert "network" not in vars(ctx)


def test_one_network_per_context(monkeypatch, amb3):
    """Both sides' cuts of every candidate arc, and the cuts `lofted`
    stands in when every exact search is over budget, all solved on one
    context, build one network."""
    builds = []
    build = filling_module._CutNetwork.__init__

    def counted(self, *args):
        builds.append(args)
        build(self, *args)

    def over_budget(*args, **kwargs):
        raise SearchBudgetExceeded("over budget")

    monkeypatch.setattr(filling_module._CutNetwork, "__init__", counted)
    monkeypatch.setattr(filling_module, "min_filling", over_budget)
    M = surface_from_voxels(amb3, SPHERE28_VOXELS)
    ctx, cuts, levels = ScanContext(M), 0, 0
    for gamma in radius_sweep(M):
        for arc in (fit.arc(M, gamma) for fit, _ in candidate_arcs(ctx, gamma)):
            cuts += _best_one_sided_cut(ctx, arc, len(arc.region)) is not None
    for center in sorted(complex_closure(M))[::7]:
        try:
            levels += len(lofted(ctx, fit_region(M, center, 2)))
        except (NoFittingCycle, FillingNotFound):
            pass
    assert cuts and levels
    assert len(builds) == 1


def test_lofted_ushape_inner(ushape):
    center = CubicalCell.make((1, 1), (0,))
    arc = fit_region(ushape, center, 2)
    levels = lofted(ScanContext(ushape), arc)
    assert [l.filling.N for l in levels] == [1, 1]
    assert not any(l.meets_arc for l in levels)
    assert all(l.filling.boundary.cells == l.circle.cells for l in levels)


def test_lofted_flat_arc_semi_convex(ushape):
    center = CubicalCell.make((1, 0), (0,))
    arc = fit_region(ushape, center, 1)
    assert not any(lv.meets_arc for lv in lofted(ScanContext(ushape), arc))


def test_lofted_torus_inner_wall_obstructed(torus):
    wall = CubicalCell.make((1, 1, 1), (1, 2))
    arc = fit_region(torus, wall, 2)
    assert any(l.meets_arc for l in lofted(ScanContext(torus), arc))


def test_lofted_stands_in_a_cut_when_the_search_runs_out(monkeypatch, torus, box211):
    """With every exact search over budget, `lofted` gives each level the
    inside cut, or the outside one when that is infeasible, or raises
    FillingNotFound: the budget error never leaves it."""

    def over_budget(*args, **kwargs):
        raise SearchBudgetExceeded("over budget")

    monkeypatch.setattr(filling_module, "min_filling", over_budget)
    cut_levels = 0
    for M in (torus, box211):
        ctx = ScanContext(M)
        for center in sorted(complex_closure(M)):
            try:
                levels = lofted(ctx, fit_region(M, center, 2))
            except (NoFittingCycle, FillingNotFound):
                continue
            for lv in levels:
                region = fit_region(M, center, lv.level).region
                cut = one_sided_min_cut(ctx, region, "inside") or one_sided_min_cut(ctx, region, "outside")
                assert lv.filling.cells == cut[0] and not lv.meets_arc
                cut_levels += 1
    assert cut_levels


def test_lofted_fillings_are_minimal_per_level(ushape):
    """Monotonicity is not asserted, minimality per circle is."""
    center = CubicalCell.make((1, 1), (0,))
    for lv in lofted(ScanContext(ushape), fit_region(ushape, center, 2)):
        p, q = sorted(v.base for v in lv.circle.cells)
        best, _ = oracle_min_paths(ushape.ambient.extent, p, q, cap=8)
        assert lv.filling.N == best


# ---------------------------------------------------------------------------
# References: the cell-set exact search and the scipy min-cut solver that the
# integer-coded search and the augmenting-path cut replaced, kept here as
# oracles.


def _reference_parity_min_filling(ambient, cycle, exclude, cap, node_budget):
    """The exact search on cells, with the closure test against `exclude`."""
    m = cycle.m
    target = frozenset(cycle.cells)
    axes = range(ambient.n)

    def boundary_ok(cells):
        counts = {}
        for c in cells:
            for f in c.faces():
                counts[f] = counts.get(f, 0) + 1
        ones = {f for f, k in counts.items() if k == 1}
        return all(k <= 2 for k in counts.values()) and ones == target

    @lru_cache(maxsize=None)
    def fillers(e):
        out = []
        for f in cofaces(e, axes):
            if ambient.contains_cell(f) and closure_of([f]).isdisjoint(exclude):
                out.append(f)
        return tuple(sorted(out))

    nodes = 0
    for limit in range(max(1, math.ceil(len(target) / (2 * m))), cap + 1):
        solutions, seen = [], set()
        stack = [(frozenset(), target)]
        while stack:
            S, D = stack.pop()
            nodes += 1
            if nodes > node_budget:
                if solutions:
                    break
                raise SearchBudgetExceeded(f"filling search exceeded {node_budget} nodes")
            if not D:
                if boundary_ok(S) and len(components(S)) <= 1:
                    solutions.append(S)
                continue
            if len(S) + math.ceil(len(D) / (2 * m)) > limit:
                continue
            for f in fillers(min(D)):
                if f in S or S | {f} in seen:
                    continue
                seen.add(S | {f})
                stack.append((S | {f}, D.symmetric_difference(f.faces())))
        if solutions:
            return min(solutions, key=lambda s: tuple(sorted(s)))
    raise FillingNotFound(f"no filling of {len(target)} boundary cells within cap {cap}")


class _ReferenceNetwork:
    """The one-sided cut network as scipy's sparse arrays, with explicit
    source, sink and far nodes; a solve adds unbounded terminal arcs."""

    def __init__(self, M, inside, side):
        self.M, self.on_inside = M, side == "inside"
        ambient, n = M.ambient, M.ambient.n
        self.cells = [c for c in bbox_top_cells(ambient, vertices_of(M.cells)) if (c in inside) == self.on_inside]
        index = {c: i for i, c in enumerate(self.cells)}
        self.source, self.sink, far = len(index), len(index) + 1, len(index) + 2
        self.size = far if self.on_inside else far + 1
        rest = [tuple(x for x in range(n) if x != a) for a in range(n)]
        self.edges = []
        for i, c in enumerate(self.cells):
            leaving = 0
            for a in range(n):
                for d in (-1, 1):
                    base = c.base[:a] + (c.base[a] + d,) + c.base[a + 1 :]
                    nb = CubicalCell(n, base, c.axes)
                    j = index.get(nb)
                    if j is None:
                        leaving += nb not in inside
                    elif d == 1 and CubicalCell(n - 1, base, rest[a]) not in M.cells:
                        self.edges += ((i, j, 1), (j, i, 1))
            if leaving and not self.on_inside:
                self.edges += ((i, far, leaving), (far, i, leaving))
        if not self.on_inside:
            self.edges.append((self.source, far, _BIG))
        tops = {
            f: next((t for t in ambient.top_cells_containing(f) if (t in inside) == self.on_inside), None)
            for f in M.cells
        }
        self.carrier = {f: index[t] for f, t in tops.items() if t in index}
        self.stranded = frozenset(f for f, t in tops.items() if t not in index)

    def cut(self, arc_cells):
        import numpy as np
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import breadth_first_order, maximum_flow

        if not self.stranded.isdisjoint(arc_cells):
            return None
        arc_nodes, rest_nodes = set(), set()
        for f, i in self.carrier.items():
            (arc_nodes if f in arc_cells else rest_nodes).add(i)
        if arc_nodes & rest_nodes or not arc_nodes:
            return None
        edges = self.edges + [(self.source, v, _BIG) for v in sorted(rest_nodes)]
        edges += [(w, self.sink, _BIG) for w in sorted(arc_nodes)]
        rows, cols, caps = np.array(edges, dtype=np.int64).T
        graph = csr_matrix((caps.astype(np.int32), (rows, cols)), shape=(self.size, self.size))
        result = maximum_flow(graph, self.source, self.sink)
        if result.flow_value >= _BIG:
            return None
        unreached = np.ones(self.size, dtype=bool)
        unreached[breadth_first_order(graph - result.flow > 0, self.source, return_predecessors=False)] = False
        w_cells = frozenset(c for c, u in zip(self.cells, unreached) if u)
        if not w_cells:
            return None
        return region_boundary(w_cells) - self.M.cells, w_cells


_BIG = 1 << 20


def _reference_min_cut(networks, ctx, arc_cells, side):
    """The one-sided cut through scipy's maximum flow, on one network per
    context and side, kept in `networks`."""
    if (ctx, side) not in networks:
        networks[ctx, side] = _ReferenceNetwork(ctx.M, ctx.inside, side)
    return networks[ctx, side].cut(arc_cells)


def _arcs(manifolds):
    """Each manifold's context and its candidate arcs at every scanned
    radius, each region once."""
    for M in manifolds:
        ctx, regions = ScanContext(M), set()
        for gamma in radius_sweep(M):
            for arc in reference_candidate_arcs(M, gamma):
                if arc.region not in regions:
                    regions.add(arc.region)
                    yield ctx, arc


def _surfaces(amb3, box211, torus):
    polycubes = [surface_from_voxels(amb3, v) for v in POLYCUBE_VOXELS]
    return [box211, torus, *polycubes, *golden_states("box211")]


def test_min_cut_matches_reference(amb3, box211, torus):
    """Every candidate arc and side, all solved on one context per state
    (so no solve may leak into the shared networks): uncapped, the cut is
    the reference's; capped at its size k, at the replacement cap and, when
    there is no cut, at the size of M, it is the reference's when that fits
    the cap and None when it does not, and capped at k - 1 it is None.  On
    the fixture surfaces, the first, middle and last box333 states and the
    1x2x1 box on the ambient's bound."""
    sizes, networks = set(), {}
    box333_states = list(golden_states("box333"))[::22]  # first, middle and last
    on_bound = surface_from_voxels(build_ambient(3, [(0, 4), (-2, 4), (-2, 3)]), [(0, 0, 0), (0, 1, 0)])
    for ctx, arc in _arcs([*_surfaces(amb3, box211, torus), *box333_states, on_bound]):
        M = ctx.M
        for side in ("inside", "outside"):
            want = _reference_min_cut(networks, ctx, arc.region, side)
            assert one_sided_min_cut(ctx, arc.region, side) == want
            cap = _replacement_cap(ctx, arc.N)
            fits = want is not None and len(want[0]) <= cap
            assert one_sided_min_cut(ctx, arc.region, side, cap=cap) == (want if fits else None)
            if want is None:
                assert one_sided_min_cut(ctx, arc.region, side, cap=len(M.cells)) is None
                continue
            k = len(want[0])
            sizes.add(k)
            assert one_sided_min_cut(ctx, arc.region, side, cap=k) == want
            assert one_sided_min_cut(ctx, arc.region, side, cap=k - 1) is None
    assert len(sizes) > 5


class _ReferenceCutNetwork:
    """`filling._CutNetwork` as it was built on cells, before flat block
    indices: a dict from each top cell of the block to its node, and a
    face of M looked up per neighbour pair."""

    def __init__(self, M, inside):
        ambient, n = M.ambient, M.ambient.n
        self.cells = bbox_top_cells(ambient, vertices_of(M.cells))
        index = {c: i for i, c in enumerate(self.cells)}
        self.far = len(self.cells)
        self.size = self.far + 1
        self.nodes = {side: [] for side in ("inside", "outside")}
        rest = [tuple(x for x in range(n) if x != a) for a in range(n)]
        edges = []
        for i, c in enumerate(self.cells):
            side = "inside" if c in inside else "outside"
            self.nodes[side].append(i)
            leaving = 0
            for a in range(n):
                for d in (-1, 1):
                    base = c.base[:a] + (c.base[a] + d,) + c.base[a + 1 :]
                    j = index.get(CubicalCell(n, base, c.axes))
                    if j is None:
                        leaving += 1
                    elif d == 1 and CubicalCell(n - 1, base, rest[a]) not in M.cells:
                        edges.append((i, j, 1))
            if leaving and side == "outside":
                edges.append((i, self.far, leaving))
        degree = [0] * (self.size + 1)
        for u, v, _ in edges:
            degree[u + 1] += 1
            degree[v + 1] += 1
        self.start = array("l", accumulate(degree))
        self.head, self.cap, self.rev = (array("l", [0]) * (2 * len(edges)) for _ in range(3))
        fill = self.start.tolist()
        for u, v, c in edges:
            k, l = fill[u], fill[v]
            fill[u], fill[v] = k + 1, l + 1
            self.head[k], self.cap[k], self.rev[k] = v, c, l
            self.head[l], self.cap[l], self.rev[l] = u, c, k
        self.carrier = {side: {} for side in ("inside", "outside")}
        for f in M.cells:
            for t in ambient.top_cells_containing(f):
                if t in index:
                    self.carrier["inside" if t in inside else "outside"][f] = index[t]


def test_cut_network_matches_reference_build(amb3, box211, torus):
    """The network built in array passes from the state's index has the
    arrays, carriers and far node of the one built on cells, node i is the
    i-th top cell of the block in canonical order, and each side's nodes
    are the reference's: on the fixture surfaces, the 28-face sphere, ten
    random polycubes, every state of the box211 and box333 goldens, the
    1x2x1 box on the ambient's low bound and on its high bound, whose
    blocks are clipped to the ambient, and the 3-spheres bounding a
    2x1x1x1 and a 3x3x3x1 block of 4-cells."""
    amb4 = build_ambient(4, [(-1, 4)] * 3 + [(-1, 2)])
    boxes4 = [product(range(2), (0,), (0,), (0,)), product(range(3), range(3), range(3), (0,))]
    manifolds = [
        box211,
        torus,
        surface_from_voxels(amb3, SPHERE28_VOXELS),
        *random_polycube_surfaces(amb3, 10, seed=1),
        *golden_states("box211"),
        *golden_states("box333"),
        surface_from_voxels(build_ambient(3, [(0, 4), (-2, 4), (-2, 3)]), [(0, 0, 0), (0, 1, 0)]),
        surface_from_voxels(build_ambient(3, [(-3, 1), (-2, 4), (-2, 3)]), [(0, 0, 0), (0, 1, 0)]),
        *(ManifoldComplex.make(amb4, 3, region_boundary(CubicalCell.make(b, range(4)) for b in box)) for box in boxes4),
    ]
    for M in manifolds:
        got, want = filling_module._CutNetwork(M), _ReferenceCutNetwork(M, inside_region(M))
        for name in ("start", "head", "cap", "rev", "carrier", "far"):
            assert getattr(got, name) == getattr(want, name), name
        n = M.ambient.n
        bases = np.transpose(np.unravel_index(np.arange(got.far), got.shape)) + got.lo
        assert [CubicalCell(n, tuple(b), tuple(range(n))) for b in bases.tolist()] == want.cells
        assert np.flatnonzero(got.enclosed).tolist() == want.nodes["inside"]
        assert np.flatnonzero(~got.enclosed).tolist() == want.nodes["outside"]


def test_lofted_takes_the_arc_at_its_level(monkeypatch, ushape, box211, torus):
    """`lofted` given a candidate arc fits only the levels below its
    gamma, and gives the sequence that refitting every level, the arc's
    own included, gives: on every candidate arc of the U-shape and box211,
    and of the torus up to radius 2 (its exact searches at radius 3 and
    up take tens of seconds)."""
    fits = []

    def counted(M, center, gamma):
        fits.append(gamma)
        return fit_region(M, center, gamma)

    monkeypatch.setattr(curviness_module, "fit_region", counted)
    lofts = 0
    for ctx, arc in _arcs([ushape, box211, torus]):
        if ctx.M is torus and arc.gamma > 2:
            continue
        fits.clear()
        got = _outcome_of(lofted, ctx, arc)
        if all(isinstance(lv, LoftedLevel) for lv in got):
            assert fits == list(range(1, arc.gamma))
            lofts += 1
        assert got == _outcome_of(_refitted_lofted, ctx, arc.center, arc.gamma)
    assert lofts


def _outcome_of(fn, *args):
    try:
        return fn(*args)
    except (NoFittingCycle, FillingNotFound) as err:
        return type(err), str(err)


def _refitted_lofted(ctx, center, gamma):
    """`lofted` as it was, fitting every level around the center."""
    M, levels = ctx.M, []
    arc_cells = fit_region(M, center, gamma).region
    for i in range(1, gamma + 1):
        fit = fit_region(M, center, i)
        try:
            m_i = min_filling(M.ambient, fit.cycle, cap=min(FILLING_CAP, len(fit.region)))
            meets = bool(m_i.cells & arc_cells) and m_i.N < len(fit.region)
        except SearchBudgetExceeded:
            cut = one_sided_min_cut(ctx, fit.region, "inside") or one_sided_min_cut(ctx, fit.region, "outside")
            if cut is None:
                raise FillingNotFound(f"no lofted filling at level {i}")
            m_i, meets = Filling(cells=cut[0], boundary=fit.cycle), False
        levels.append(LoftedLevel(level=i, circle=fit.cycle, filling=m_i, meets_arc=meets))
    return tuple(levels)


def _reference_replacement_filling(networks, ctx, arc):
    """`curviness.replacement_filling` for a surface, with the reference
    cut and search: both cuts uncapped, the smaller (inside on ties) kept
    only when it fits the cap, then the exact search up to it."""
    M = ctx.M
    eff_cap = min(FILLING_CAP, len(arc.region) - 1, len(M.cells) - len(arc.region) - 1)
    if eff_cap < 1:
        return None
    cut = None
    for side in ("inside", "outside"):
        got = _reference_min_cut(networks, ctx, arc.region, side)
        if got is not None and (cut is None or len(got[0]) < len(cut)):
            cut = got[0]
    if cut is not None and len(cut) > eff_cap:
        cut = None
    exact_cap = min(eff_cap, len(cut) if cut is not None else 8)
    if exact_cap <= 8:
        exclude = complex_closure(M) - closure_of(arc.cycle.cells)
        try:
            return _reference_parity_min_filling(M.ambient, arc.cycle, exclude, exact_cap, 200_000)
        except (FillingNotFound, SearchBudgetExceeded):
            pass
    return cut


def test_replacement_filling_matches_reference(amb3, box211, torus):
    """The capped cut that `replacement_filling` takes for a surface picks
    what the reference rule picks: the uncapped reference cuts, then the
    cell search, on the fixture surfaces, ten random polycubes and the
    first, middle and last box333 states."""
    found, networks = 0, {}
    manifolds = [
        *_surfaces(amb3, box211, torus),
        *random_polycube_surfaces(amb3, 10, seed=1),
        *list(golden_states("box333"))[::22],
    ]
    for ctx, arc in _arcs(manifolds):
        got = replacement_filling(ctx, arc)
        assert (got and got.cells) == _reference_replacement_filling(networks, ctx, arc)
        found += got is not None
    assert found


def _outcome(search, *args):
    try:
        got = search(*args)
    except (FillingNotFound, SearchBudgetExceeded) as err:
        return type(err), str(err)
    return got.cells if isinstance(got, Filling) else got


def test_parity_search_matches_reference(amb3, box211, torus):
    """The coded exact search against the cell search on every candidate
    arc's cycle, at the replacement cap up to 8, with M's closure less the
    cycle's closure excluded (as codes, `code_exclusion`) and with no
    exclusion, under node budgets
    that stop it at once, truncate it and let it finish: the same filling
    or the same error."""
    seen = set()
    for ctx, arc in _arcs(_surfaces(amb3, box211, torus)):
        M, cycle = ctx.M, arc.cycle
        excluded = complex_closure(M) - closure_of(cycle.cells)
        cap = max(1, min(FILLING_CAP, len(arc.region) - 1, len(M.cells) - len(arc.region) - 1, 8))
        for budget in (1, 10, 100, 1000):
            want = _outcome(_reference_parity_min_filling, M.ambient, cycle, excluded, cap, budget)
            assert _outcome(min_filling, M.ambient, cycle, code_exclusion(M.ambient, excluded), cap, budget) == want
            want_free = _outcome(_reference_parity_min_filling, M.ambient, cycle, frozenset(), cap, budget)
            assert _outcome(min_filling, M.ambient, cycle, frozenset(), cap, budget) == want_free
            for w in (want, want_free):
                seen.add(w[0] if isinstance(w, tuple) else "filling")
    assert seen == {"filling", FillingNotFound, SearchBudgetExceeded}


def test_parity_search_matches_reference_on_made_cycles(amb3):
    """Cycles where the parity set closes on a set that is no filling: two
    disjoint rings (closed by two separate squares), the rim of four
    squares around one edge (that edge lies in all four) and the skew
    hexagon around a unit cube, which has two minimum fillings (the
    canonically smaller wins)."""
    square = CubicalCell.make
    rings = region_boundary([square((0, 0, 0), (0, 1)), square((3, 0, 0), (0, 1))])
    cross = region_boundary(
        [square((0, 0, 0), (0, 1)), square((0, -1, 0), (0, 1)), square((0, 0, 0), (0, 2)), square((0, 0, -1), (0, 2))]
    )
    hexagon = region_boundary([square((0, 0, 0), (1, 2)), square((0, 0, 0), (0, 2)), square((0, 0, 0), (0, 1))])
    for cells in (rings, cross, hexagon):
        cycle = Cycle(cells, 2)
        for cap, budget in ((3, 20_000), (6, 20_000)):
            want = _outcome(_reference_parity_min_filling, amb3, cycle, frozenset(), cap, budget)
            assert _outcome(min_filling, amb3, cycle, frozenset(), cap, budget) == want
    assert min_filling(amb3, Cycle(hexagon, 2), cap=3).cells == {
        square((0, 0, 0), (1, 2)), square((0, 0, 0), (0, 2)), square((0, 0, 0), (0, 1))
    }


def test_min_filling_cycle_outside_ambient():
    """A cycle with a cell past the ambient has no filling in it, for a
    curve (one endpoint a step outside) and a surface alike."""
    amb = build_ambient(2, [(0, 5), (0, 5)])
    with pytest.raises(FillingNotFound):
        min_filling(amb, vertex_cycle((-1, 0), (2, 0)))
    amb = build_ambient(3, [(0, 3)] * 3)
    square = CubicalCell.make((4, 0, 0), (1, 2))  # past the ambient on axis 0
    with pytest.raises(FillingNotFound):
        min_filling(amb, edge_ring(square.faces()))


def test_fillings_in_a_large_ambient():
    """Nothing in the surface fillings grows with the ambient: surfaces
    moved into an ambient a million units a side (whose codes take 63
    bits) get, for every candidate arc, the replacement filling, the exact
    search keeping off M's closure less the cycle's and the cuts they get
    in an ambient with ten units of room on each side, moved along."""

    def moved(cells, d):
        return frozenset(CubicalCell(c.dim, tuple(b + d for b in c.base), c.axes) for c in cells)

    near = 500_000
    roomy = build_ambient(3, [(-10, 13)] * 3)
    large = build_ambient(3, [(0, 1_000_000)] * 3)
    for voxels in ([(0, 0, 0), (1, 0, 0)], SPHERE28_VOXELS):
        M = surface_from_voxels(roomy, voxels)
        far = surface_from_voxels(large, [tuple(x + near for x in v) for v in voxels])
        arcs = list(_arcs([M]))
        far_arcs = list(_arcs([far]))
        assert [moved(a.region, near) for _, a in arcs] == [a.region for _, a in far_arcs]
        for (ctx, arc), (far_ctx, far_arc) in zip(arcs, far_arcs):
            got, far_got = replacement_filling(ctx, arc), replacement_filling(far_ctx, far_arc)
            assert (got and moved(got.cells, near)) == (far_got and far_got.cells)
            exclude = code_exclusion(roomy, complex_closure(M) - closure_of(arc.cycle.cells))
            far_exclude = code_exclusion(large, complex_closure(far) - closure_of(far_arc.cycle.cells))
            want = _outcome(min_filling, roomy, arc.cycle, exclude, 8, 10_000)
            far_want = _outcome(min_filling, large, far_arc.cycle, far_exclude, 8, 10_000)
            assert (moved(want, near) if isinstance(want, frozenset) else want) == far_want
            for side in ("inside", "outside"):
                cut = one_sided_min_cut(ctx, arc.region, side)
                far_cut = one_sided_min_cut(far_ctx, far_arc.region, side)
                assert (cut and tuple(moved(x, near) for x in cut)) == far_cut


def test_exclusion_is_closure_less_cycle_closure(ushape, box211, torus):
    """A context's exclusion is a set of codes that decodes, on the
    ambient's codes, to M's closure, and every replacement filling, a
    curve's or a surface's, keeps out of M's closure less the cycle's
    closure."""
    for ctx, arc in _arcs([ushape, box211, torus]):
        M = ctx.M
        got = ctx.exclusion
        assert isinstance(got, frozenset)
        assert {M.ambient.codes.cell(x) for x in got} == complex_closure(M)
        filling = replacement_filling(ctx, arc)
        assert filling is None or closure_of(filling.cells).isdisjoint(complex_closure(M) - closure_of(arc.cycle.cells))


def test_replacement_filling_is_exact_on_random_polycubes(amb3):
    """On random polycubes in a 3x3x3 block, at every candidate arc and
    radius, whenever the exact search keeping off M's closure less the
    cycle's closure finishes with a filling within the replacement cap,
    the replacement filling (the better one-sided cut) has as many cells."""
    both = 0
    for ctx, arc in _arcs(random_polycube_surfaces(amb3, 16, seed=1)):
        M = ctx.M
        cap = _replacement_cap(ctx, arc.N)
        if cap < 1:
            continue
        exclude = code_exclusion(M.ambient, complex_closure(M) - closure_of(arc.cycle.cells))
        want = _outcome(min_filling, M.ambient, arc.cycle, exclude, cap, 20_000)
        if isinstance(want, tuple):
            continue
        got = replacement_filling(ctx, arc)
        assert got is not None and got.N == len(want)
        both += 1
    assert both > 0


def test_replacement_filling_lids_a_pit(amb3):
    """A 3x3x2 box less its top centre voxel has a pit.  The arc of the
    pit's five faces has no inside cut, so its replacement is the outside
    one, the lid, which the exact search also finds."""
    voxels = [(x, y, z) for x in range(3) for y in range(3) for z in range(2)]
    M = surface_from_voxels(amb3, [v for v in voxels if v != (1, 1, 1)])
    lid = CubicalCell.make((1, 1, 2), (0, 1))
    pit = frozenset(CubicalCell.make((1, 1, 1), (0, 1, 2)).faces()) - {lid}
    ((ctx, arc),) = [(ctx, arc) for ctx, arc in _arcs([M]) if arc.region == pit]
    assert one_sided_min_cut(ctx, pit, "inside") is None
    assert replacement_filling(ctx, arc).cells == {lid}
    exclude = code_exclusion(M.ambient, complex_closure(M) - closure_of(arc.cycle.cells))
    assert min_filling(M.ambient, arc.cycle, exclude, cap=4).cells == {lid}


# ---------------------------------------------------------------------------
# Reference: the path search on coordinates that the coded search replaced,
# with its cell-set exclusion, kept here as an oracle.


def _reference_lex_shortest_path(ambient, p, q, banned_vertices, banned_edges):
    """Deterministic shortest grid path p -> q as an edge list."""
    neighbors = grid_graph(ambient.extent)

    def edge_between(u, v):
        (a,) = [i for i in range(ambient.n) if u[i] != v[i]]
        return CubicalCell(1, min(u, v), (a,))

    def usable(u, v):
        if v in banned_vertices and v != q and v != p:
            return False
        return edge_between(u, v) not in banned_edges

    dist = {p: 0}
    queue = deque([p])
    while queue:
        u = queue.popleft()
        if u == q:
            break
        for v in sorted(neighbors[u]):
            if v not in dist and usable(u, v):
                dist[v] = dist[u] + 1
                queue.append(v)
    if q not in dist:
        return None
    path = [q]
    cur = q
    while cur != p:
        preds = [
            v
            for v in sorted(neighbors[cur])
            if dist.get(v) == dist[cur] - 1 and usable(v, cur)
        ]
        cur = preds[0]
        path.append(cur)
    path.reverse()
    return [edge_between(a, b) for a, b in zip(path, path[1:])]


def _reference_path_fillings(ambient, cycle, exclude, caps):
    """`min_filling` for a curve cycle in the ambient, on coordinates, at
    each cap in turn: the cap keeps the one path found or rejects it."""
    p, q = sorted(v.base for v in cycle.cells)
    banned_vs = frozenset(c.base for c in exclude if c.dim == 0)
    banned_es = frozenset(c for c in exclude if c.dim == 1)
    edges = _reference_lex_shortest_path(ambient, p, q, banned_vs, banned_es)
    for cap in caps:
        if edges is None or len(edges) > cap:
            yield FillingNotFound, f"no path {p} -> {q} within cap {cap}"
        else:
            yield frozenset(edges)


def test_path_search_matches_reference(sq1, rect12, ushape):
    """The coded path search against the coordinate search on every
    candidate arc's cycle of the small curves and of criterion 7's first
    ten random curves, at every cap from 1 to the replacement cap, with
    the context's exclusion (M's whole closure), M's closure less the
    cycle's closure as codes, no exclusion, and M's whole closure made
    into codes by `code_exclusion`, as the context's is by its table (both
    list both endpoints): the same path or the same error."""
    amb = build_ambient(2, [(0, 15), (0, 15)])
    rng = random.Random(20260809)  # criterion 7's seed
    curves = [random_simple_curve(amb, rng, max_perimeter=60) for _ in range(10)]
    seen = set()
    for ctx, arc in _arcs([sq1, rect12, ushape, *curves]):
        M, cycle = ctx.M, arc.cycle
        excluded = complex_closure(M) - closure_of(cycle.cells)
        exclusions = (
            (ctx.exclusion, complex_closure(M)),
            (code_exclusion(M.ambient, excluded), excluded),
            (frozenset(), frozenset()),
            (code_exclusion(M.ambient, complex_closure(M)), complex_closure(M)),
        )
        caps = range(1, max(1, min(FILLING_CAP, len(arc.region) - 1, len(M.cells) - len(arc.region) - 1)) + 1)
        for exclude, cells in exclusions:
            for cap, want in zip(caps, _reference_path_fillings(M.ambient, cycle, cells, caps)):
                assert _outcome(min_filling, M.ambient, cycle, exclude, cap) == want
                seen.add(want[0] if isinstance(want, tuple) else "filling")
    assert seen == {"filling", FillingNotFound}
