"""Graph distances, k-cell chain distances, balls, and diameters.

Distances are integers: the number of edges on a shortest path for k=1,
or the number of k-cells in a shortest (k-1)-connected chain for k>1.
Distances inside a complex use only its own cells; ambient distances may
use every grid cell.

Vertex distances inside a complex M come from one matrix per state,
`M.index.dist`, computed once: `diameter`, `all_pairs` and `cell_distance`
read it.  A ball reads one row of `M.index.center_dist`, the distances
from its center, which the candidate scan (`curviness.candidate_arcs`)
thresholds for every center at once; the row is found by the center's
code, so a ball builds no closure cells.  In the ambient the vertex
distance is the Manhattan distance, exact in a box.  A chain of higher
cells is one breadth-first search over the ambient's cell codes, in the
ambient or in M's closure codes of that dimension.
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from math import isinf
from typing import Callable, FrozenSet, Set, Tuple, Union

import numpy as np

from .cells import AmbientSpace, CellCodes, Coord, CubicalCell
from .complexes import ManifoldComplex
from .errors import CellNotInComplex, Unreachable

Space = Union[ManifoldComplex, AmbientSpace]


def cell_distance(space: Space, x: Coord, y: Coord, k: int = 1) -> int:
    """Shortest-chain distance between two vertices.

    For k=1 this is the edge count of a shortest path: inside M it is read
    from M's index, and in the ambient it is the Manhattan distance.  For
    k>1 it is the number of k-cells in a shortest chain whose consecutive
    cells share a (k-1)-cell, with x in the first cell and y in the last.
    A vertex off the space is out of reach.  Raises ValueError for k < 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    x, y = tuple(x), tuple(y)
    if isinstance(space, ManifoldComplex):
        if k == 1:
            return AllPairs(space).d_m(x, y)
        ambient, closure = space.ambient, space.table.closure
        member = frozenset(closure[k].tolist() if k < len(closure) else ()).__contains__
    else:
        ambient, member = space, lambda c: True
        if k == 1:
            if not (_on(ambient, x) and _on(ambient, y)):
                raise Unreachable(f"{y} not reachable from {x}")
            return ambient_distance(ambient, x, y)
    codes = ambient.codes
    starts = _cells_at(codes, x, k, member)
    if not starts:
        raise Unreachable(f"no {k}-cells contain {x}")
    goals = _cells_at(codes, y, k, member)
    dist = dict.fromkeys(starts, 1)
    queue = deque(starts)
    while queue:  # breadth-first, so the first goal taken is a nearest one
        c = queue.popleft()
        if c in goals:
            return dist[c]
        for f in codes.faces(c):
            for nb in codes.cofaces(f):
                if nb not in dist and member(nb):
                    dist[nb] = dist[c] + 1
                    queue.append(nb)
    raise Unreachable(f"no {k}-cell chain joins {x} and {y}")


def _on(ambient: AmbientSpace, v: Coord) -> bool:
    return ambient.contains_cell(CubicalCell(0, v, ()))


def _cells_at(codes: CellCodes, v: Coord, k: int, member: Callable[[int], bool]) -> Set[int]:
    """Codes of the member k-cells whose closure holds vertex v, found by
    stepping k times to the cofaces; none when v is off the ambient, which
    has no code for it."""
    if not _on(codes.ambient, v):
        return set()
    cells = {codes.code(CubicalCell(0, v, ()))}
    for _ in range(k):
        cells = {up for c in cells for up in codes.cofaces(c)}
    return set(filter(member, cells))


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
