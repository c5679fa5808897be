"""Jordan separation, minimal discrete fillings, lofting, semi-convexity.

A filling of a cycle C is a set of m-cells in the ambient whose topological
boundary is exactly C.  For curves (m=1) the minimum filling is a shortest
grid path between the two boundary vertices.  For surfaces the exact search
runs iterative deepening over the filling size, always extending on the
canonically smallest deficient edge; when the node budget runs out, a
deterministic minimum-cut over one side of the manifold supplies a valid
(possibly non-certified) filling instead.
"""

from __future__ import annotations

import math
from itertools import product
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .cells import AmbientSpace, Coord, CubicalCell
from .complexes import Cycle, ManifoldComplex, components, region_boundary, split_by_cycle
from .errors import FillingNotFound, NotSeparating, SearchBudgetExceeded
from .metric import ball

CellSet = FrozenSet[CubicalCell]

DEFAULT_NODE_BUDGET = 200_000
_INF_CAP = 1 << 20


@dataclass(frozen=True)
class Filling:
    """An m-dimensional filling with boundary exactly `boundary`."""

    cells: CellSet
    boundary: Cycle
    is_minimal: bool
    avoid_hits: CellSet = frozenset()

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
    lower = max(1, math.ceil(len(target) / per_cell))
    for limit in range(lower, cap + 1):
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
    avoid: CellSet = frozenset(),
    exclude: CellSet = frozenset(),
    cap: int = 64,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Filling:
    """Minimum filling of a cycle, exact up to `cap`.

    Cells listed in `avoid` are permitted but reported through
    `Filling.avoid_hits`; cells in `exclude` are never touched.  Raises
    FillingNotFound when no filling fits the cap and SearchBudgetExceeded
    when the exact search runs out of nodes.
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
    hits = frozenset(g for g in closure_of(cells) if g in avoid)
    return Filling(cells=cells, boundary=cycle, is_minimal=True, avoid_hits=hits)


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


def _shared_face(c: CubicalCell, nb: CubicalCell, axis: int, direction: int) -> CubicalCell:
    base = nb.base if direction > 0 else c.base
    rest = tuple(a for a in c.axes if a != axis)
    return CubicalCell(c.dim - 1, base, rest)


def inside_region(M: ManifoldComplex) -> CellSet:
    """Voxels (top cells) bounded by a closed codimension-one manifold."""
    return enclosed_cells(M.ambient, M.cells)


def _side_carrier(ambient: AmbientSpace, face: CubicalCell, inside: CellSet, want_inside: bool):
    """First top cell on the face's requested side, or None."""
    return next((c for c in ambient.top_cells_containing(face) if (c in inside) == want_inside), None)


def one_sided_min_cut(
    M: ManifoldComplex,
    arc_cells: CellSet,
    inside: Optional[CellSet] = None,
    side: str = "inside",
) -> Optional[Tuple[CellSet, CellSet]]:
    """Minimum-area replacement surface for an arc, on one side of M.

    Returns (filling cells, flipped region) or None when the side is
    infeasible.  The filling is the minimum cut separating the cells that
    carry the arc from the cells that carry the rest of the manifold,
    restricted to the requested side, so it never touches M outside the
    arc boundary.
    """
    ambient = M.ambient
    if inside is None:
        inside = inside_region(M)
    n = ambient.n
    verts = set()
    for c in M.cells:
        verts.update(c.vertices())
    enum = _bbox_top_cells(ambient, verts)
    if side == "inside":
        region = sorted(c for c in enum if c in inside)
        has_far = False
    else:
        region = sorted(c for c in enum if c not in inside)
        has_far = True

    region_index = {c: i for i, c in enumerate(region)}
    n_nodes = len(region) + 2 + (1 if has_far else 0)
    source, sink = len(region), len(region) + 1
    far = len(region) + 2 if has_far else None

    forced_w: set = set()
    forced_v: set = set()
    for f in sorted(M.cells):
        idx = region_index.get(_side_carrier(ambient, f, inside, side == "inside"))
        if idx is None:
            if f in arc_cells:
                return None
            continue
        (forced_w if f in arc_cells else forced_v).add(idx)
    if forced_w & forced_v or not forced_w:
        return None

    rows: List[int] = []
    cols: List[int] = []
    caps: List[int] = []

    def add_edge(u, v, c):
        rows.append(u)
        cols.append(v)
        caps.append(c)

    for c in region:
        i = region_index[c]
        for a in range(n):
            b = list(c.base)
            b[a] += 1
            nb = CubicalCell(n, tuple(b), c.axes)
            shared = _shared_face(c, nb, a, 1)
            if shared in M.cells:
                continue
            j = region_index.get(nb)
            if j is not None:
                add_edge(i, j, 1)
                add_edge(j, i, 1)
        if has_far:
            # faces leading out of the enumerated block connect to far-outside
            k = 0
            for a in range(n):
                for d in (-1, 1):
                    b = list(c.base)
                    b[a] += d
                    nb = CubicalCell(n, tuple(b), c.axes)
                    if nb not in region_index and nb not in inside:
                        k += 1
            if k:
                add_edge(i, far, k)
                add_edge(far, i, k)
    for i in sorted(forced_v):
        add_edge(source, i, _INF_CAP)
    for i in sorted(forced_w):
        add_edge(i, sink, _INF_CAP)
    if has_far:
        add_edge(source, far, _INF_CAP)

    graph = csr_matrix(
        (np.asarray(caps, dtype=np.int32), (np.asarray(rows), np.asarray(cols))),
        shape=(n_nodes, n_nodes),
    )
    result = maximum_flow(graph, source, sink)
    if result.flow_value >= _INF_CAP:
        return None

    residual = graph - result.flow
    reach = {source}
    queue = deque([source])
    indptr, indices, data = residual.indptr, residual.indices, residual.data
    while queue:
        u = queue.popleft()
        for pos in range(indptr[u], indptr[u + 1]):
            v = indices[pos]
            if data[pos] > 0 and v not in reach:
                reach.add(v)
                queue.append(v)

    w_cells = frozenset(c for c in region if region_index[c] not in reach)
    if not w_cells:
        return None
    return region_boundary(w_cells) - M.cells, w_cells


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
    M: ManifoldComplex,
    center: CubicalCell,
    gamma: int,
    cap: int = 64,
    arc_cells: Optional[CellSet] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> LoftedSequence:
    """Distance-i circles around a center and their minimum fillings.

    Each level records whether the true minimum filling runs through the
    arc away from its own sub-arc; a level whose sub-arc is already a
    minimum filling cannot obstruct anything.
    """
    from .curviness import fit_region

    if arc_cells is None:
        arc_cells = fit_region(M, ball(M, center, gamma)).region
    levels: List[LoftedLevel] = []
    for i in range(1, gamma + 1):
        fit = fit_region(M, ball(M, center, i), level=i)
        avoid = M.closure_cells - closure_of(fit.cycle.cells)
        try:
            m_i = min_filling(
                M.ambient,
                fit.cycle,
                avoid=avoid,
                cap=min(cap, len(fit.region)),
                node_budget=node_budget,
            )
            meets = bool(m_i.cells & arc_cells) and m_i.N < len(fit.region)
        except SearchBudgetExceeded:
            cut = one_sided_min_cut(M, fit.region)
            if cut is None:
                cut = one_sided_min_cut(M, fit.region, side="outside")
            if cut is None:
                raise FillingNotFound(f"no lofted filling at level {i}")
            m_i = Filling(cells=cut[0], boundary=fit.cycle, is_minimal=False)
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
