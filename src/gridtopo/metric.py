"""Graph distances, k-cell chain distances, balls, and diameters.

Distances are integers: the number of edges on a shortest path for k=1,
or the number of k-cells in a shortest (k-1)-connected chain for k>1.
Distances inside a complex use only its own cells; ambient distances may
use every grid cell.

Vertex distances inside a complex M come from one matrix per state,
`M.index.dist`, computed once: `diameter` and `all_pairs` read it.  A ball
reads one row of `M.index.center_dist`, the distances from its center,
which the candidate scan (`curviness.candidate_arcs`) thresholds for every
center at once; the row is found by the center's code, so a ball builds
no closure cells.  `vertex_distances` is the plain breadth-first search;
`cell_distance` uses it, and the closure as cells for chains of higher
cells, and the tests use it as the oracle the tables must match.
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from math import isinf
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

import numpy as np

from .cells import AmbientSpace, Coord, CubicalCell
from .complexes import ManifoldComplex
from .errors import CellNotInComplex, Unreachable

Space = Union[ManifoldComplex, AmbientSpace]


def vertex_distances(space: Space, sources: Iterable[Coord]) -> Dict[Coord, int]:
    """Multi-source BFS levels over the vertex graph (edges of the space)."""
    sources = frozenset(sources)
    dist: Dict[Coord, int] = {s: 0 for s in sources}
    queue = deque(sorted(sources))
    if isinstance(space, AmbientSpace):
        neighbors = space.vertex_neighbors
    else:
        adj = space.vertex_adjacency
        neighbors = lambda v: adj.get(v, ())
    while queue:
        v = queue.popleft()
        d = dist[v]
        for w in neighbors(v):
            if w not in dist:
                dist[w] = d + 1
                queue.append(w)
    return dist


def _k_cells_containing(space: Space, v: Coord, k: int) -> List[CubicalCell]:
    vx = CubicalCell(0, v, ())
    if isinstance(space, AmbientSpace):
        cur = [vx]
        for _ in range(k):
            nxt = set()
            for c in cur:
                nxt.update(space.cofaces(c))
            cur = sorted(nxt)
        return cur
    return sorted(c for c in space.closure.get(k, frozenset()) if c.contains(vx))


def _k_cell_neighbors(space: Space, c: CubicalCell) -> List[CubicalCell]:
    out = set()
    if isinstance(space, AmbientSpace):
        for f in c.faces():
            for co in f.cofaces(range(space.n)):
                if co.dim == c.dim and co != c and space.contains_cell(co):
                    out.add(co)
    else:
        cells = space.closure.get(c.dim, frozenset())
        for f in c.faces():
            for co in f.cofaces(range(len(c.base))):
                if co != c and co in cells:
                    out.add(co)
    return sorted(out)


def cell_distance(space: Space, x: Coord, y: Coord, k: int = 1) -> int:
    """Shortest-chain distance between two vertices.

    For k=1 this is the edge count of a shortest path.  For k>1 it is the
    number of k-cells in a shortest chain whose consecutive cells share a
    (k-1)-cell, with x in the first cell and y in the last.
    """
    x, y = tuple(x), tuple(y)
    if k == 1:
        table = vertex_distances(space, [x])
        if y not in table:
            raise Unreachable(f"{y} not reachable from {x}")
        return table[y]
    starts = _k_cells_containing(space, x, k)
    if not starts:
        raise Unreachable(f"no {k}-cells contain {x}")
    goal_vertex = CubicalCell(0, y, ())
    dist: Dict[CubicalCell, int] = {c: 1 for c in starts}
    queue = deque(starts)
    best: Optional[int] = None
    for c in starts:
        if c.contains(goal_vertex):
            return 1
    while queue:
        c = queue.popleft()
        d = dist[c]
        if best is not None and d >= best:
            continue
        for nb in _k_cell_neighbors(space, c):
            if nb not in dist:
                dist[nb] = d + 1
                if nb.contains(goal_vertex):
                    if best is None or d + 1 < best:
                        best = d + 1
                else:
                    queue.append(nb)
    if best is None:
        raise Unreachable(f"no {k}-cell chain joins {x} and {y}")
    return best


def ambient_distance(ambient: AmbientSpace, x: Coord, y: Coord) -> int:
    """Manhattan distance; exact for box extents."""
    return sum(abs(a - b) for a, b in zip(x, y))


class AllPairs:
    """Vertex-pair distances inside M, read from its index, and in the ambient."""

    def __init__(self, M: ManifoldComplex):
        self.M = M
        self._index = M.index

    def d_m(self, x: Coord, y: Coord) -> int:
        """Edges on a shortest path from x to y in M; Unreachable if there is none."""
        ix = self._index
        i = ix.vertex_id.get(tuple(x))
        j = ix.vertex_id.get(tuple(y))
        if i is None or j is None or isinf(ix.dist[i, j]):
            raise Unreachable(f"{y} not reachable from {x} in M")
        return int(ix.dist[i, j])

    def d_u(self, x: Coord, y: Coord) -> int:
        return ambient_distance(self.M.ambient, x, y)

    def pairs(self):
        verts = self._index.vertices
        for i, u in enumerate(verts):
            for v in verts[i + 1 :]:
                yield u, v, self.d_m(u, v), self.d_u(u, v)


def all_pairs(M: ManifoldComplex) -> AllPairs:
    return AllPairs(M)


def diameter(M: ManifoldComplex) -> Tuple[int, Tuple[Coord, Coord]]:
    """Largest pairwise vertex distance inside M with its least witness pair.

    Raises Unreachable, naming the least pair, when M is disconnected.
    """
    ix = M.index
    n, cells = len(ix.dist), ix.centers  # the first n centers are the vertices, by id
    if n < 2:
        raise ValueError("complex has fewer than two vertices")
    # Row-major order visits pairs as (u, v) with u < v first, vertices in
    # canonical order, so the first hit is the least pair.
    unreachable = np.isinf(ix.dist)
    if unreachable.any():
        u, v = divmod(int(unreachable.argmax()), n)
        raise Unreachable(f"{cells[v].base} not reachable from {cells[u].base} in M")
    u, v = divmod(int(ix.dist.argmax()), n)
    return int(ix.dist[u, v]), (cells[u].base, cells[v].base)


def ball(M: ManifoldComplex, center: CubicalCell, gamma: int) -> FrozenSet[CubicalCell]:
    """m-cells of M whose every vertex lies within gamma of the center.

    The center may be any cell of M's closure, and CellNotInComplex is
    raised for any other; vertex distances are taken inside M from the
    center's own vertices.
    """
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    ix = M.index
    try:
        row = ix.centers.index(center)
    except ValueError:
        raise CellNotInComplex(f"{center} is not a cell of M's closure") from None
    near = ix.center_dist[row] <= gamma
    return frozenset(compress(ix.cells, near[ix.cell_vertices].all(axis=1).tolist()))
