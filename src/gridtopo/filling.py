"""Scan context, Jordan separation, minimal fillings, lofting.

A `ScanContext` holds one manifold state and the run's curviness variant,
and builds, on first use and once per state, what every candidate arc of
that state shares: the region the manifold encloses, a crossing parity by
Jordan's theorem, and one minimum-cut network that holds both sides.  The
scan functions here and in `curviness` take the context.

A filling of a cycle C is a set of m-cells in the ambient whose topological
boundary is exactly C.  For curves (m=1) the minimum filling is a shortest
grid path between the two boundary vertices.  For surfaces the exact search
runs iterative deepening over the filling size, always extending on the
canonically smallest deficient edge; it serves only the fillings free to
run through M.  A surface replacement, which keeps off M, is a one-sided
minimum cut (`curviness.replacement_filling`); the cut also stands in
when the exact search runs out of nodes.

Both searches, the path and the surface one, run on the ambient's
`cells.CellCodes`: integer codes whose order within a dimension is
canonical order, so every choice and tie-break falls as it would on cells.
The cells they may not touch are one frozenset of those codes.  The
minimum cut is a max flow by augmenting paths over flat arrays, on the
flat indices of M's bounding block, with the arc's and the rest's
carriers as implicit terminals.  The flow runs from the arc's carriers,
so each search stays near the small arc; each unit of flow is one cell of
the cut, so a caller that can use only small cuts passes a cap and the
search stops once the flow exceeds it.  Only at maximum flow is the
flipped region read, by one search from the rest.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, product
from operator import mul
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .cells import AmbientSpace, CellCodes, Coord, CubicalCell
from .complexes import Cycle, ManifoldComplex, components, region_boundary
from .errors import DimensionUnsupported, FillingNotFound, NotSeparating, SearchBudgetExceeded

if TYPE_CHECKING:
    from .curviness import ArcRegion

CellSet = FrozenSet[CubicalCell]

_NODE_BUDGET = 200_000  # search nodes per exact filling
FILLING_CAP = 64  # cells per filling any search of a run considers

# The curviness measures a run can rank reports by.
VARIANTS = ("ratio", "diff", "height", "height_ratio")


def check_variant(variant: str) -> None:
    """Raise ValueError for a variant outside `VARIANTS`."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")


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


def jordan_split(M: ManifoldComplex, cycle: Cycle) -> Tuple[CellSet, CellSet]:
    """Split a closed manifold along a cycle into (smaller, larger) sides."""
    comps = components(M.cells, blocked=cycle.cells)
    if len(comps) == 1:
        raise NotSeparating(f"cycle of {len(cycle.cells)} cells does not separate")
    if len(comps) != 2:
        raise NotSeparating(f"cycle produced {len(comps)} components")
    a, b = comps
    if (len(a), sorted(a)) <= (len(b), sorted(b)):
        return a, b
    return b, a


def _shortest_path(codes: CellCodes, cycle: Cycle, exclude: FrozenSet[int], cap: int) -> CellSet:
    """Shortest grid path between a curve cycle's two vertices, as edges.

    A breadth-first search over vertex codes, up to `cap` steps: a
    vertex's edges are its cofaces, and an edge's far end is its other
    face.  The path is read back from the larger vertex, each step to the
    smallest vertex one step nearer the smaller one; code order is
    canonical order, so ties fall as on cells.  The two ends stay usable
    even when excluded.
    """
    p, q = sorted(codes.code(v) for v in cycle.cells)

    def steps(u: int) -> Iterator[Tuple[int, int]]:
        """(edge, far end) for each usable edge at vertex u."""
        for e in codes.cofaces(u):
            if e not in exclude:
                a, b = codes.faces(e)
                v = a + b - u
                if v not in exclude or v == p or v == q:
                    yield e, v

    dist, layer = {p: 0}, [p]
    for d in range(1, cap + 1):
        if q in dist or not layer:
            break
        reached = []
        for u in layer:
            for _, v in steps(u):
                if v not in dist:
                    dist[v] = d
                    reached.append(v)
        layer = reached
    if q not in dist:
        a, b = sorted(v.base for v in cycle.cells)
        raise FillingNotFound(f"no path {a} -> {b} within cap {cap}")
    path, cur = [], q
    while cur != p:
        cur, e = min((v, e) for e, v in steps(cur) if dist.get(v) == dist[cur] - 1)
        path.append(e)
    return frozenset(map(codes.cell, path))


def _parity_min_filling(codes: CellCodes, cycle: Cycle, exclude: FrozenSet[int], cap: int, budget: int) -> CellSet:
    """Exact minimum filling by iterative deepening over the size.

    States are face sets; each state extends only on its canonically
    smallest parity-deficient (m-1)-cell, which keeps the search complete
    while avoiding permutations of the same set.  The search runs on the
    cells' codes, whose order within a dimension is canonical order, so
    every choice and tie-break falls as on cells.
    """
    m = cycle.m
    target = frozenset(codes.code(c) for c in cycle.cells)
    per_cell = 2 * m
    known: Dict[int, Tuple[Tuple[int, Tuple[int, ...]], ...]] = {}

    def fillers(e: int) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        """The ambient m-cells on face e touching no excluded cell,
        ascending, each with its faces."""
        if e not in known:
            known[e] = tuple(
                (f, tuple(codes.faces(f)))
                for f in sorted(codes.cofaces(e))
                if exclude.isdisjoint(codes.closure(f))
            )
        return known[e]

    nodes = 0
    # Deepening starts at the face count bound alone: a search that runs
    # out of nodes returns what it has, which depends on where it started.
    for limit in range(max(1, math.ceil(len(target) / per_cell)), cap + 1):
        solutions: List[FrozenSet[int]] = []
        seen: set = set()
        stack: List[Tuple[FrozenSet[int], FrozenSet[int]]] = [(frozenset(), target)]
        while stack:
            S, D = stack.pop()
            nodes += 1
            if nodes > budget:
                if solutions:
                    # deterministic truncation: traversal order is fixed
                    break
                raise SearchBudgetExceeded(f"filling search exceeded {budget} nodes")
            if not D:
                if _closes(codes, S):
                    solutions.append(S)
                continue
            if len(S) + math.ceil(len(D) / per_cell) > limit:
                continue
            for f, faces in fillers(min(D)):
                if f in S:
                    continue
                S2 = S | {f}
                if S2 in seen:
                    continue
                seen.add(S2)
                stack.append((S2, D.symmetric_difference(faces)))
        if solutions:
            return frozenset(codes.cell(x) for x in min(solutions, key=sorted))
    raise FillingNotFound(f"no filling of {len(target)} boundary cells within cap {cap}")


def _closes(codes: CellCodes, cells: FrozenSet[int]) -> bool:
    """Whether the coded cells have no face in more than two of them and
    form at most one piece.  The search asks only once no face is
    deficient, when the faces an odd number of them hold are the target,
    so with no face in more than two the boundary is the target."""
    counts = Counter(x for f in cells for x in codes.faces(f))
    return all(k <= 2 for k in counts.values()) and len(components(cells, codes.faces)) <= 1


def min_filling(
    ambient: AmbientSpace,
    cycle: Cycle,
    exclude: FrozenSet[int] = frozenset(),
    cap: int = FILLING_CAP,
    node_budget: int = _NODE_BUDGET,
) -> Filling:
    """Minimum filling of a cycle, exact up to `cap`.

    Both searches run on the ambient's `CellCodes`.  The cells whose codes
    on them are in `exclude` (a `ScanContext`'s `exclusion`, say) are
    never touched, apart from a curve cycle's two vertices.  Raises
    FillingNotFound when the cycle leaves the ambient or no filling fits
    the cap, and SearchBudgetExceeded when the surface search runs out of
    nodes.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if not all(ambient.contains_cell(c) for c in cycle.cells):
        raise FillingNotFound("the cycle leaves the ambient, so no filling in it has that boundary")
    if cycle.dim == 0:
        cells = _shortest_path(ambient.codes, cycle, exclude, cap)
    else:
        cells = _parity_min_filling(ambient.codes, cycle, exclude, cap, node_budget)
    return Filling(cells=cells, boundary=cycle)


# ---------------------------------------------------------------------------
# Region machinery for codimension-one manifolds.


def enclosed_cells(ambient: AmbientSpace, surface: CellSet) -> CellSet:
    """Top-dimensional cells enclosed by a closed codimension-one surface.

    The surface must be closed: its (n-1)-cells form a cycle mod 2, each
    (n-2)-cell a face of an even number of them.  Cells of other
    dimensions are ignored, so a curve in a 3-D ambient encloses nothing.

    By Jordan's theorem a cell is enclosed when a ray from it crosses the
    surface an odd number of times.  The ray runs down axis 0, so it
    crosses the surface's (n-1)-cells across axis 0, and a running XOR of
    those along axis 0, over the block they span, marks every enclosed
    cell at once.  The result is the one set of top cells whose boundary
    is the surface's (n-1)-cells: the cavity of a hollow shell is not
    enclosed.
    """
    n = ambient.n
    across = tuple(range(1, n))
    bases = np.array([c.base for c in surface if c.axes == across], dtype=np.int64).reshape(-1, n)
    if not len(bases):
        return frozenset()
    lo = bases.min(axis=0)
    crossings = np.zeros(bases.max(axis=0) - lo + 1, np.uint8)
    crossings[tuple((bases - lo).T)] = 1
    odd = np.bitwise_xor.accumulate(crossings, axis=0)
    axes = tuple(range(n))
    return frozenset(CubicalCell(n, tuple(b), axes) for b in (np.argwhere(odd) + lo).tolist())


def inside_region(M: ManifoldComplex) -> CellSet:
    """Voxels (top cells) bounded by a closed codimension-one manifold."""
    return enclosed_cells(M.ambient, M.cells)


_SIDES = ("inside", "outside")


class _CutNetwork:
    """The arc-independent part of a one-sided minimum cut of M, for both
    sides at once; M lies in codimension one, as only there it has sides.

    Nodes are the top cells of M's bounding block, one cell wider on every
    side and clipped to the ambient, then one far-outside node (`far`).  A
    cell's node is its flat index in the block, in canonical order: with
    `lo` the block's low corner, the cell at base b is node
    sum((b[a] - lo[a]) * stride[a]), so its neighbour across axis a is
    `i + stride[a]`.  An edge joins neighbouring cells across each face
    off M with capacity 1, and an outside cell meets the far node with
    capacity equal to its faces on the block's walls.  M's faces carry no
    edge and the inside is bounded by M, so no edge joins the two sides: a
    search started on one side stays there.  The edges are stored as pairs
    of arcs in flat CSR arrays: node u's arcs are `start[u]` to
    `start[u + 1]`, arc k runs to `head[k]` with capacity `cap[k]`, and
    `rev[k]` is its twin the other way.  Per side, `nodes[side]` lists that
    side's cell nodes and `carrier[side]` maps each face of M to the node
    of its top cell on that side, when that cell is in the block;
    `load[side][i]` counts the faces node i carries, and `terminals[side]`
    marks the nodes that carry one, and outside the far node: the rest's
    terminals, once a solve clears its arc's nodes.  A solve (`reached`)
    runs the flow from the arc's carriers, and only at maximum flow reads
    the flipped region, by one search from the rest.
    """

    def __init__(self, M: ManifoldComplex, inside: CellSet):
        ambient, n = M.ambient, M.ambient.n
        coords = M.index.vertex_coords
        low, high = coords.min(axis=0).tolist(), coords.max(axis=0).tolist()
        self.lo = [max(x - 1, l) for x, (l, _) in zip(low, ambient.extent)]
        self.shape = [min(x, h - 1) + 1 - lo for x, (_, h), lo in zip(high, ambient.extent, self.lo)]
        self.stride = [1] * n
        for a in range(n - 2, -1, -1):
            self.stride[a] = self.stride[a + 1] * self.shape[a + 1]
        self.far = self.stride[0] * self.shape[0]
        self.size = self.far + 1
        is_inside = bytearray(self.far)
        for c in inside:
            i = self.index(c.base)
            if i is not None:
                is_inside[i] = 1
        self.carrier: Dict[str, Dict[CubicalCell, int]] = {side: {} for side in _SIDES}
        blocked = bytearray(self.far * n)  # at i * n + a: M holds the face between i and i + stride[a]
        hi = [lo + k - 1 for lo, k in zip(self.lo, self.shape)]
        origin = sum(map(mul, self.lo, self.stride))
        axes_sum = n * (n - 1) // 2
        for f in M.cells:
            # In codimension one a face spans all axes but one, and its two
            # top cells lie across that axis: its own node and the one a
            # stride below, those in the block, in the order of
            # `top_cells_containing`.
            b, a = f.base, axes_sum - sum(f.axes)
            i = sum(map(mul, b, self.stride)) - origin
            if b[a] <= hi[a]:
                self.carrier[_SIDES[not is_inside[i]]][f] = i
            if b[a] > self.lo[a]:
                i -= self.stride[a]
                self.carrier[_SIDES[not is_inside[i]]][f] = i
                blocked[i * n + a] = 1  # M blocks the edge up from the node below
        self.nodes: Dict[str, List[int]] = {side: [] for side in _SIDES}
        edges: List[Tuple[int, int, int]] = []  # (u, v, capacity)
        last = [k - 1 for k in self.shape]
        for i, x in enumerate(product(*map(range, self.shape))):
            side = _SIDES[not is_inside[i]]
            self.nodes[side].append(i)
            leaving = 0
            for a in range(n):
                leaving += (x[a] == 0) + (x[a] == last[a])
                if x[a] < last[a] and not blocked[i * n + a]:
                    edges.append((i, i + self.stride[a], 1))
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
        self.load = {side: [0] * self.size for side in _SIDES}
        self.terminals = {side: bytearray(self.size) for side in _SIDES}
        self.terminals["outside"][self.far] = 1
        for side in _SIDES:
            for i in self.carrier[side].values():
                self.load[side][i] += 1
                self.terminals[side][i] = 1

    def index(self, base: Sequence[int]) -> Optional[int]:
        """The node of the top cell at `base`, or None off the block."""
        i = 0
        for b, lo, k, s in zip(base, self.lo, self.shape, self.stride):
            if not lo <= b < lo + k:
                return None
            i += (b - lo) * s
        return i

    def cell(self, i: int) -> CubicalCell:
        """The top cell of node i."""
        base = []
        for lo, s in zip(self.lo, self.stride):
            x, i = divmod(i, s)
            base.append(lo + x)
        return CubicalCell(len(base), tuple(base), tuple(range(len(base))))

    def reached(self, arc: List[int], rest: bytearray, cap: Optional[int]) -> Optional[bytearray]:
        """Which nodes the rest reaches once the flow between the `arc`
        nodes and the nodes `rest` marks is maximum, or None as soon as it
        exceeds `cap`.  The marks in `rest` grow into the reached nodes.

        The flow runs from the arc's nodes to the rest's, along shortest
        paths (Edmonds-Karp); both stand for arcs of unbounded capacity
        from a source and into a sink.  The paths of one edge are
        saturated first, all at once, which alone settles most capped
        solves; each later search starts from the arc, which is small, so
        it stays near it.  At maximum flow one search from the rest reads
        the nodes it reaches in the residual graph of the reverse flow,
        where arc k is open when its twin `rev[k]` has residual capacity:
        every edge's capacity is the same both ways, so that flow is a
        maximum flow from the rest, and the set it reaches is the same for
        every maximum flow.
        """
        residual = array("l", self.cap)
        start, head, rev, size = self.start, self.head, self.rev, self.size
        flow = 0
        for u in arc:  # every path of one edge from the arc to the rest at once
            for k in range(start[u], start[u + 1]):
                if rest[head[k]]:
                    flow += residual[k]
                    residual[rev[k]] += residual[k]
                    residual[k] = 0
        while cap is None or flow <= cap:
            via = [-1] * size  # the arc each node was reached by; -2 at the arc
            for s in arc:
                via[s] = -2
            queue, end = list(arc), -1
            for u in queue:
                for k in range(start[u], start[u + 1]):
                    v = head[k]
                    if via[v] == -1 and residual[k]:
                        via[v] = k
                        if rest[v]:
                            end = v
                            break
                        queue.append(v)
                if end >= 0:
                    break
            if end < 0:
                break
            path = []
            while via[end] >= 0:
                path.append(via[end])
                end = head[rev[via[end]]]
            push = min(residual[k] for k in path)
            for k in path:
                residual[k] -= push
                residual[rev[k]] += push
            flow += push
        if cap is not None and flow > cap:
            return None
        queue = [u for u, r in enumerate(rest) if r]
        for u in queue:
            for k in range(start[u], start[u + 1]):
                v = head[k]
                if not rest[v] and residual[rev[k]]:
                    rest[v] = 1
                    queue.append(v)
        return rest


class ScanContext:
    """One manifold state under scan, and what all of its arcs share.

    Holds the state `M` and the `variant` ranking its reports; the region
    M encloses (`inside`), the one cut network of both sides (`network`)
    and a curve replacement's `exclusion` are built on first use, once per
    state: build a new context when the state changes.  Raises ValueError
    for an unknown variant, and DimensionUnsupported for a set of vertices.
    """

    def __init__(self, M: ManifoldComplex, variant: str = "ratio"):
        check_variant(variant)
        if M.m < 1:
            raise DimensionUnsupported(M.m)
        self.M = M
        self.variant = variant

    @cached_property
    def inside(self) -> CellSet:
        return inside_region(self.M)

    @cached_property
    def network(self) -> _CutNetwork:
        return _CutNetwork(self.M, self.inside)

    @cached_property
    def exclusion(self) -> FrozenSet[int]:
        """What a curve replacement may not touch: M's closure, as codes
        on the ambient's `codes`.  A curve cycle's closure is its two
        vertices, which the path search lets through as its ends."""
        return frozenset(np.concatenate(self.M.table.closure).tolist())


def one_sided_min_cut(
    ctx: ScanContext, arc_cells: CellSet, side: str, cap: Optional[int] = None
) -> Optional[Tuple[CellSet, CellSet]]:
    """Minimum-area replacement surface for an arc, on one side of M.

    Returns (filling cells, flipped region), or None when the side is
    infeasible or, given a `cap`, when the filling would have more than
    `cap` cells.  The filling is the minimum cut separating the cells that
    carry the arc from the cells that carry the rest of the manifold (and,
    outside, from the far outside), on the context's one network; every
    terminal lies on the requested side and no edge leaves it, so the cut
    never touches M outside the arc boundary.  An arc cell whose top cell
    on the side is off the block leaves the side infeasible.  The cut is
    found by augmenting paths from the arc's carriers towards the rest's
    (and the far node); each unit of flow crosses one filling cell (an
    edge is one face, a far edge counts its faces), so the search stops,
    with None, once the flow exceeds the cap.  Only at maximum flow is
    the flipped region read, by one residual search from the rest: it is
    the side's cells the rest cannot reach, the same for every maximum
    flow, so the direction of the flow and reusing the network change no
    result.  In an ambient of more than m + 1 dimensions M bounds no side,
    so there is no cut, and the result is None, as `arc_sign` refuses such
    an M.  Raises ValueError for a side other than "inside" or "outside".
    """
    if side not in _SIDES:
        raise ValueError(f"side must be 'inside' or 'outside', got {side!r}")
    if ctx.M.ambient.n != ctx.M.m + 1:
        return None  # no side to cut on: M blocks no edge of the network
    net = ctx.network
    carrier = net.carrier[side]
    if not carrier.keys() >= arc_cells:
        return None
    held = Counter(carrier[f] for f in arc_cells)
    load = net.load[side]
    if not held or any(load[i] != k for i, k in held.items()):
        return None  # no arc, or a node carries both the arc and the rest
    rest = bytearray(net.terminals[side])
    for i in held:
        rest[i] = 0
    reached = net.reached(sorted(held), rest, cap)
    if reached is None:
        return None
    w_cells = frozenset(net.cell(i) for i in net.nodes[side] if not reached[i])
    return region_boundary(w_cells) - ctx.M.cells, w_cells


# ---------------------------------------------------------------------------
# Lofted circles.


@dataclass(frozen=True)
class LoftedLevel:
    level: int
    circle: Cycle
    filling: Filling
    meets_arc: bool


def lofted(ctx: ScanContext, arc: ArcRegion) -> Tuple[LoftedLevel, ...]:
    """Distance-i circles around the arc's center, for i up to its gamma,
    and their minimum fillings, one level each.

    Levels below gamma are fitted around the center; level gamma is the
    arc itself.  Each level records whether the true minimum filling runs
    through the arc away from its own sub-arc; a level whose sub-arc is
    already a minimum filling cannot obstruct anything.
    """
    from .curviness import fit_region

    M = ctx.M
    levels: List[LoftedLevel] = []
    for i in range(1, arc.gamma + 1):
        fit = arc if i == arc.gamma else fit_region(M, arc.center, i)
        try:
            cap = min(FILLING_CAP, len(fit.region))
            m_i = min_filling(M.ambient, fit.cycle, cap=cap)
            meets = bool(m_i.cells & arc.region) and m_i.N < len(fit.region)
        except SearchBudgetExceeded:
            # the inside cut first, the outside one only when it is infeasible
            cut = one_sided_min_cut(ctx, fit.region, "inside")
            cut = cut or one_sided_min_cut(ctx, fit.region, "outside")
            if cut is None:
                raise FillingNotFound(f"no lofted filling at level {i}")
            m_i = Filling(cells=cut[0], boundary=fit.cycle)
            meets = False
        levels.append(LoftedLevel(level=i, circle=fit.cycle, filling=m_i, meets_arc=meets))
    return tuple(levels)
