"""Scan context, Jordan separation, minimal fillings, lofting.

A `ScanContext` holds one manifold state and the run's curviness variant,
and builds, on first use and once per state, what every candidate arc of
that state shares: the region the manifold encloses, and one minimum-cut
network of both sides, built in array passes from the state's index,
each node's side the crossing parity by Jordan's theorem that
`enclosed_cells` reads.  The scan functions here and in `curviness` take
the context.

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
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterator, List, Optional, Tuple

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
    odd = _crossing_parity(bases - lo, bases.max(axis=0) - lo + 1)
    axes = tuple(range(n))
    return frozenset(CubicalCell(n, tuple(b), axes) for b in (np.argwhere(odd) + lo).tolist())


def _crossing_parity(crossings: np.ndarray, shape: np.ndarray) -> np.ndarray:
    """Per top cell of a block of `shape`, 1 when a ray from it down axis 0
    crosses an odd number of `crossings`: the offsets in the block of
    (n-1)-cells across axis 0, each on the low wall of the cell at its
    offset, so a running XOR along axis 0 counts them.  A crossing on the
    block's upper wall bounds none of its cells."""
    odd = np.zeros(shape, np.uint8)
    odd[tuple(crossings[crossings[:, 0] < shape[0]].T)] = 1
    return np.bitwise_xor.accumulate(odd, axis=0)


def inside_region(M: ManifoldComplex) -> CellSet:
    """Voxels (top cells) bounded by a closed codimension-one manifold."""
    return enclosed_cells(M.ambient, M.cells)


_SIDES = ("inside", "outside")


class _CutNetwork:
    """The arc-independent part of a one-sided minimum cut of M, for both
    sides at once; M lies in codimension one, as only there it has sides.

    Built in array passes from the state's index and code table.  Nodes
    are the top cells of M's bounding block, one cell wider on every side
    and clipped to the ambient, then one far-outside node (`far`).  A
    cell's node is its flat index in the block, in canonical order: the
    cell at base b is node `np.ravel_multi_index(b - lo, shape)`.
    `enclosed[i]` marks the inside nodes, by the crossing parity
    `enclosed_cells` reads.  An edge joins neighbouring cells across each
    face off M with capacity 1, and an outside cell meets the far node
    with capacity equal to its faces on the block's walls.  M's faces
    carry no edge and the inside is bounded by M, so no edge joins the two
    sides: a search started on one side stays there.  The edges are stored
    as pairs of arcs in flat CSR arrays: node u's arcs are `start[u]` to
    `start[u + 1]`, arc k runs to `head[k]` with capacity `cap[k]`, and
    `rev[k]` is its twin the other way.  Per side, `carrier[side]` maps
    each face of M to the node of its top cell on that side, when that
    cell is in the block; `load[side][i]` counts the faces node i carries,
    and `terminals[side]` marks the nodes that carry one, and outside the
    far node: the rest's terminals, once a solve clears its arc's nodes.
    A solve (`reached`) runs the flow from the arc's carriers, and only at
    maximum flow reads the flipped region, by one search from the rest.
    """

    def __init__(self, M: ManifoldComplex):
        n, codes = M.ambient.n, M.ambient.codes
        coords, (low, high) = M.index.vertex_coords, np.array(M.ambient.extent).T
        self.lo = np.maximum(coords.min(axis=0) - 1, low)
        self.shape = np.minimum(coords.max(axis=0), high - 1) + 1 - self.lo
        stride = np.cumprod([1, *self.shape[:0:-1]])[::-1]
        self.far = int(self.shape.prod())
        self.size = self.far + 1
        # In codimension one a face spans all axes but one, and its two top
        # cells lie across that axis: the node at its base and the one a
        # stride below, those in the block.  The n slots of (n-1)-cells, in
        # canonical order just below the top slot `low`, leave out axis
        # n - 1 first and axis 0 last.
        faces = M.table.closure[n - 1]
        at, axis = codes.bases(faces) - self.lo, codes.low - 1 - (faces & codes.low)
        along, up = at[np.arange(len(at)), axis], at @ stride
        lower = up - stride[axis]
        above, below = along < self.shape[axis], along > 0  # which of the two cells are in the block
        self.enclosed = _crossing_parity(at[axis == 0], self.shape).ravel().astype(bool)
        # Edges in the order (node, axis), each outside wall node's edge to
        # the far node last, then two arcs per edge, kept in that order per
        # node by one stable sort on their tails.
        grid = np.indices(self.shape).reshape(n, -1).T
        walls = (grid == 0).sum(axis=1) + (grid == self.shape - 1).sum(axis=1)
        is_edge = np.column_stack([grid < self.shape - 1, (walls > 0) & ~self.enclosed])
        is_edge[lower[below], axis[below]] = False  # M blocks the edge up from its lower cell
        u, a = np.nonzero(is_edge)
        v = np.where(a < n, u + np.append(stride, 0)[a], self.far)
        tail, head = np.column_stack([u, v]).ravel(), np.column_stack([v, u]).ravel()
        order = np.argsort(tail, kind="stable")
        # Copied into C-long arrays as bytes: the flow indexes them one by one.
        self.start = array("l", np.cumsum(np.bincount(tail + 1, minlength=self.size + 1)).astype("l").tobytes())
        self.head = array("l", head[order].astype("l").tobytes())
        self.cap = array("l", np.repeat(np.where(a < n, 1, walls[u]), 2)[order].astype("l").tobytes())
        self.rev = array("l", np.argsort(order)[order ^ 1].astype("l").tobytes())  # where each arc's twin went
        face = np.concatenate([np.flatnonzero(above), np.flatnonzero(below)])
        node = np.concatenate([up[above], lower[below]])
        self.carrier: Dict[str, Dict[CubicalCell, int]] = {}
        self.load, self.terminals = {}, {}
        for side, mine in zip(_SIDES, (self.enclosed[node], ~self.enclosed[node])):
            self.carrier[side] = dict(zip(map(M.table.cells.__getitem__, face[mine].tolist()), node[mine].tolist()))
            load = np.bincount(node[mine], minlength=self.size)
            self.load[side], self.terminals[side] = load.tolist(), bytearray(load > 0)
        self.terminals["outside"][self.far] = 1

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
    M encloses (`inside`, for `arc_sign`), the one cut network of both
    sides (`network`, from the state's index) and a curve replacement's
    `exclusion` are built on first use, once per state: build a new
    context when the state changes.  Raises ValueError for an unknown
    variant, and DimensionUnsupported for a set of vertices.
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
        return _CutNetwork(self.M)

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
    mine = net.enclosed if side == "inside" else ~net.enclosed
    flipped = (mine & ~np.frombuffer(reached, bool, net.far)).reshape(net.shape)
    axes = tuple(range(ctx.M.ambient.n))
    w_cells = frozenset(CubicalCell(len(axes), tuple(b), axes) for b in (np.argwhere(flipped) + net.lo).tolist())
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
