"""Run configuration, scan context, Jordan separation, minimal fillings,
lofting, semi-convexity.

`ContractionConfig` holds what a caller may set for a run: the curviness
measure and the filling and move caps.  A `ScanContext` pairs it with one
manifold state and builds, on first use and once per state, what every
candidate arc of that state shares: the region the manifold encloses and
one minimum-cut network per side.  The scan functions here and in `curviness` take the context.

A filling of a cycle C is a set of m-cells in the ambient whose topological
boundary is exactly C.  For curves (m=1) the minimum filling is a shortest
grid path between the two boundary vertices.  For surfaces the exact search
runs iterative deepening over the filling size, always extending on the
canonically smallest deficient edge; when its fixed node budget runs out,
a deterministic minimum-cut over one side of the manifold supplies a valid
(possibly non-certified) filling instead.
"""

from __future__ import annotations

import math
from itertools import compress, product
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .cells import AmbientSpace, Coord, CubicalCell
from .complexes import Cycle, ManifoldComplex, components, region_boundary, split_by_cycle
from .errors import FillingNotFound, NotSeparating, SearchBudgetExceeded
from .metric import ambient_distance, ball

CellSet = FrozenSet[CubicalCell]

_INF_CAP = 1 << 20
_NODE_BUDGET = 200_000  # search nodes per exact filling

# The curviness measures a run can rank reports by.
VARIANTS = ("ratio", "diff", "height", "height_ratio")


@dataclass(frozen=True)
class ContractionConfig:
    """Caps and the curviness measure of a contraction run.

    Raises ValueError for a variant outside `VARIANTS` or a filling cap
    below 1.
    """

    variant: str = "ratio"
    filling_cap: int = 64
    move_cap: Optional[int] = None  # None: 10 * arc size

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.filling_cap < 1:
            raise ValueError(f"filling_cap must be >= 1, got {self.filling_cap}")


@dataclass(frozen=True)
class Filling:
    """An m-dimensional filling with boundary exactly `boundary`."""

    cells: CellSet
    boundary: Cycle

    @property
    def N(self) -> int:
        return len(self.cells)

    @property
    def vertices(self) -> FrozenSet[Coord]:
        """Vertices of the filling cells and of its boundary cycle."""
        return frozenset(v for c in self.cells | self.boundary.cells for v in c.vertices())


def closure_of(cells: Iterable[CubicalCell]) -> CellSet:
    out = set()
    for c in cells:
        out.update(c.all_faces())
    return frozenset(out)


def jordan_split(M: ManifoldComplex, cycle: Cycle) -> Tuple[CellSet, CellSet]:
    """Split a closed manifold along a cycle into (smaller, larger) sides."""
    comps = split_by_cycle(M, cycle)
    if len(comps) == 1:
        raise NotSeparating(f"cycle of {len(cycle.cells)} cells does not separate")
    if len(comps) != 2:
        raise NotSeparating(f"cycle produced {len(comps)} components")
    a, b = comps
    if (len(a), sorted(a)) <= (len(b), sorted(b)):
        return a, b
    return b, a


def _boundary_ok(cells: CellSet, cycle_cells: CellSet) -> bool:
    """Exact-boundary and regularity check for a candidate filling."""
    counts: Dict[CubicalCell, int] = {}
    for c in cells:
        for f in c.faces():
            counts[f] = counts.get(f, 0) + 1
    ones = {f for f, k in counts.items() if k == 1}
    if any(k > 2 for k in counts.values()):
        return False
    return ones == cycle_cells


def _lex_shortest_path(
    ambient: AmbientSpace,
    p: Coord,
    q: Coord,
    banned_vertices: FrozenSet[Coord],
    banned_edges: CellSet,
) -> Optional[List[CubicalCell]]:
    """Deterministic shortest grid path p -> q as an edge list."""

    def usable(u: Coord, v: Coord) -> bool:
        if v in banned_vertices and v != q and v != p:
            return False
        return ambient.edge_between(u, v) not in banned_edges

    dist = {p: 0}
    queue = deque([p])
    while queue:
        u = queue.popleft()
        if u == q:
            break
        for v in sorted(ambient.vertex_neighbors(u)):
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
            for v in sorted(ambient.vertex_neighbors(cur))
            if dist.get(v) == dist[cur] - 1 and usable(v, cur)
        ]
        cur = preds[0]
        path.append(cur)
    path.reverse()
    return [ambient.edge_between(a, b) for a, b in zip(path, path[1:])]


def _banned_filler(cell: CubicalCell, exclude: CellSet) -> bool:
    return any(f in exclude for f in cell.all_faces())


def filling_lower_bound(ambient: AmbientSpace, cycle: Cycle) -> int:
    """Fewest cells any filling of the cycle can have.

    A curve's filling is a grid path between the cycle's two vertices, no
    shorter than their Manhattan distance.  Each cell of a surface's
    filling has 2m faces, and every cycle cell must be one of them.
    """
    if cycle.dim == 0:
        p, q = (v.base for v in cycle.cells)
        return ambient_distance(ambient, p, q)
    return max(1, math.ceil(len(cycle.cells) / (2 * cycle.m)))


def _parity_min_filling(
    ambient: AmbientSpace,
    cycle: Cycle,
    exclude: CellSet,
    cap: int,
    node_budget: int,
) -> CellSet:
    """Exact minimum filling by iterative deepening over the size.

    States are face sets; each state extends only on its canonically
    smallest parity-deficient (m-1)-cell, which keeps the search complete
    while avoiding permutations of the same set.
    """
    m = cycle.m
    target = frozenset(cycle.cells)
    per_cell = 2 * m
    axes = range(ambient.n)

    @lru_cache(maxsize=None)
    def fillers(e: CubicalCell) -> Tuple[CubicalCell, ...]:
        out = []
        for f in e.cofaces(axes):
            if f.dim == m and ambient.contains_cell(f) and not _banned_filler(f, exclude):
                out.append(f)
        return tuple(sorted(out))

    nodes = 0
    for limit in range(filling_lower_bound(ambient, cycle), cap + 1):
        solutions: List[CellSet] = []
        seen: set = set()
        stack: List[Tuple[CellSet, FrozenSet[CubicalCell]]] = [(frozenset(), target)]
        while stack:
            S, D = stack.pop()
            nodes += 1
            if nodes > node_budget:
                if solutions:
                    # deterministic truncation: traversal order is fixed
                    break
                raise SearchBudgetExceeded(f"filling search exceeded {node_budget} nodes")
            if not D:
                if _boundary_ok(S, target) and len(components(S, m)) <= 1:
                    solutions.append(S)
                continue
            if len(S) + math.ceil(len(D) / per_cell) > limit:
                continue
            e = min(D)
            for f in fillers(e):
                if f in S:
                    continue
                S2 = S | {f}
                if S2 in seen:
                    continue
                seen.add(S2)
                D2 = D.symmetric_difference(f.faces())
                stack.append((S2, D2))
        if solutions:
            return min(solutions, key=lambda s: tuple(sorted(s)))
    raise FillingNotFound(f"no filling of {len(target)} boundary cells within cap {cap}")


def min_filling(
    ambient: AmbientSpace,
    cycle: Cycle,
    exclude: CellSet = frozenset(),
    cap: int = ContractionConfig.filling_cap,
    node_budget: int = _NODE_BUDGET,
) -> Filling:
    """Minimum filling of a cycle, exact up to `cap`.

    Cells in `exclude` are never touched.  Raises FillingNotFound when no
    filling fits the cap and SearchBudgetExceeded when the exact search
    runs out of nodes.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if cycle.dim == 0:
        p, q = sorted(v.base for v in cycle.cells)
        banned_vs = frozenset(c.base for c in exclude if c.dim == 0)
        banned_es = frozenset(c for c in exclude if c.dim == 1)
        edges = _lex_shortest_path(ambient, p, q, banned_vs, banned_es)
        if edges is None or len(edges) > cap:
            raise FillingNotFound(f"no path {p} -> {q} within cap {cap}")
        cells = frozenset(edges)
    else:
        cells = _parity_min_filling(ambient, cycle, exclude, cap, node_budget)
    return Filling(cells=cells, boundary=cycle)


# ---------------------------------------------------------------------------
# Region machinery for codimension-one manifolds.


def _bbox_top_cells(ambient: AmbientSpace, verts: Iterable[Coord]) -> List[CubicalCell]:
    """Top cells of the vertices' bounding block, one cell wider on the low
    side and clipped to the ambient, in canonical order."""
    verts = list(verts)
    n = ambient.n
    lo = [min(v[i] for v in verts) - 1 for i in range(n)]
    hi = [max(v[i] for v in verts) for i in range(n)]
    lo = [max(l, ambient.extent[i][0]) for i, l in enumerate(lo)]
    hi = [min(h, ambient.extent[i][1] - 1) for i, h in enumerate(hi)]
    axes = tuple(range(n))
    ranges = [range(l, h + 1) for l, h in zip(lo, hi)]
    return [CubicalCell(n, base, axes) for base in product(*ranges)]


def enclosed_cells(ambient: AmbientSpace, surface: CellSet) -> CellSet:
    """Top-dimensional cells enclosed by a closed codimension-one surface.

    Within the bounding block of the surface (one cell wider on the low
    side, clipped to the ambient), a component of cells joined across
    faces off the surface is outside when one of its cells has a face on
    the block's outer boundary that is not on the surface; the rest is
    enclosed.
    """
    if not surface:
        return frozenset()
    verts = set()
    for c in surface:
        verts.update(c.vertices())
    n = ambient.n
    cells = _bbox_top_cells(ambient, verts)
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
    inside: set = set()
    for comp in components(cells, n, blocked=surface):
        if comp.isdisjoint(hull):
            inside |= comp
    return frozenset(inside)


def inside_region(M: ManifoldComplex) -> CellSet:
    """Voxels (top cells) bounded by a closed codimension-one manifold."""
    return enclosed_cells(M.ambient, M.cells)


class _CutNetwork:
    """The arc-independent part of a one-sided minimum cut of M.

    Nodes are the side's top cells of M's bounding block, in canonical
    order, then source and sink and, outside, one far-outside node.  Unit
    arcs join neighbouring cells across faces off M; an outside cell meets
    the far node once per face leading out of the block, and the source
    feeds the far node.  `carrier` maps each face of M to the node of its
    top cell on this side; `stranded` holds the faces whose top cell is not
    in the block.  A solve adds only its arc's terminal arcs.
    """

    def __init__(self, M: ManifoldComplex, inside: CellSet, on_inside: bool):
        ambient, n = M.ambient, M.ambient.n
        self.cells = [c for c in _bbox_top_cells(ambient, M.vertices) if (c in inside) == on_inside]
        index = {c: i for i, c in enumerate(self.cells)}
        self.source, self.sink, far = len(index), len(index) + 1, len(index) + 2
        self.size = far if on_inside else far + 1
        rest = [tuple(x for x in range(n) if x != a) for a in range(n)]
        edges: List[Tuple[int, int, int]] = []  # (from, to, capacity)
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
                        edges += ((i, j, 1), (j, i, 1))
            if leaving and not on_inside:
                edges += ((i, far, leaving), (far, i, leaving))
        if not on_inside:
            edges.append((self.source, far, _INF_CAP))
        self.rows, self.cols, caps = np.array(edges, dtype=np.int64).reshape(-1, 3).T
        self.caps = caps.astype(np.int32)
        tops = {
            f: next((t for t in ambient.top_cells_containing(f) if (t in inside) == on_inside), None)
            for f in M.cells
        }
        self.carrier = {f: index[t] for f, t in tops.items() if t in index}
        self.stranded = frozenset(f for f, t in tops.items() if t not in index)


class ScanContext:
    """One manifold state under scan, and what all of its arcs share.

    Holds the state `M` and the run's `cfg`; the enclosed region
    (`inside`) and one cut network per side are built on first use.  A
    context belongs to its state: build a new one when the state changes.
    """

    def __init__(self, M: ManifoldComplex, cfg: ContractionConfig = ContractionConfig()):
        self.M = M
        self.cfg = cfg
        self._networks: Dict[str, _CutNetwork] = {}

    @cached_property
    def inside(self) -> CellSet:
        return inside_region(self.M)

    def network(self, side: str) -> _CutNetwork:
        if side not in self._networks:
            self._networks[side] = _CutNetwork(self.M, self.inside, side == "inside")
        return self._networks[side]


def one_sided_min_cut(ctx: ScanContext, arc_cells: CellSet, side: str) -> Optional[Tuple[CellSet, CellSet]]:
    """Minimum-area replacement surface for an arc, on one side of M.

    Returns (filling cells, flipped region) or None when the side is
    infeasible.  The filling is the minimum cut separating the cells that
    carry the arc from the cells that carry the rest of the manifold,
    restricted to the requested side, so it never touches M outside the
    arc boundary.  The cut is the set the source cannot reach in the
    residual graph, the same for every maximum flow, so reusing the
    side's network changes no result.
    """
    net = ctx.network(side)
    if not net.stranded.isdisjoint(arc_cells):
        return None
    arc_nodes, rest_nodes = set(), set()
    for f, i in net.carrier.items():
        (arc_nodes if f in arc_cells else rest_nodes).add(i)
    if arc_nodes & rest_nodes or not arc_nodes:
        return None
    w = np.fromiter(sorted(arc_nodes), np.int64)
    v = np.fromiter(sorted(rest_nodes), np.int64)
    rows = np.concatenate((net.rows, np.full(len(v), net.source), w))
    cols = np.concatenate((net.cols, v, np.full(len(w), net.sink)))
    caps = np.concatenate((net.caps, np.full(len(v) + len(w), _INF_CAP, dtype=np.int32)))
    graph = csr_matrix((caps, (rows, cols)), shape=(net.size, net.size))
    result = maximum_flow(graph, net.source, net.sink)
    if result.flow_value >= _INF_CAP:
        return None
    unreached = np.ones(net.size, dtype=bool)
    unreached[breadth_first_order(graph - result.flow > 0, net.source, return_predecessors=False)] = False
    w_cells = frozenset(compress(net.cells, unreached))
    if not w_cells:
        return None
    return region_boundary(w_cells) - ctx.M.cells, w_cells


# ---------------------------------------------------------------------------
# Lofted circles and semi-convexity.


@dataclass(frozen=True)
class LoftedLevel:
    level: int
    circle: Cycle
    filling: Filling
    meets_arc: bool


@dataclass(frozen=True)
class LoftedSequence:
    center: CubicalCell
    gamma: int
    levels: Tuple[LoftedLevel, ...]


def lofted(
    ctx: ScanContext, center: CubicalCell, gamma: int, arc_cells: Optional[CellSet] = None
) -> LoftedSequence:
    """Distance-i circles around a center and their minimum fillings.

    Each level records whether the true minimum filling runs through the
    arc away from its own sub-arc; a level whose sub-arc is already a
    minimum filling cannot obstruct anything.
    """
    from .curviness import fit_region

    M = ctx.M
    if arc_cells is None:
        arc_cells = fit_region(M, ball(M, center, gamma)).region
    levels: List[LoftedLevel] = []
    for i in range(1, gamma + 1):
        fit = fit_region(M, ball(M, center, i), level=i)
        try:
            cap = min(ctx.cfg.filling_cap, len(fit.region))
            m_i = min_filling(M.ambient, fit.cycle, cap=cap)
            meets = bool(m_i.cells & arc_cells) and m_i.N < len(fit.region)
        except SearchBudgetExceeded:
            # the inside cut first, the outside one only when it is infeasible
            cut = one_sided_min_cut(ctx, fit.region, "inside")
            cut = cut or one_sided_min_cut(ctx, fit.region, "outside")
            if cut is None:
                raise FillingNotFound(f"no lofted filling at level {i}")
            m_i = Filling(cells=cut[0], boundary=fit.cycle)
            meets = False
        levels.append(
            LoftedLevel(level=i, circle=fit.cycle, filling=m_i, meets_arc=meets)
        )
    return LoftedSequence(center=center, gamma=gamma, levels=tuple(levels))


def semi_convex(arc_region, seq: LoftedSequence) -> bool:
    """True when no lofted minimum filling runs through the arc.

    Levels whose sub-arc already realises the minimum volume are not
    obstructions: there is nothing to deform at such a level.
    """
    return not any(level.meets_arc for level in seq.levels)
