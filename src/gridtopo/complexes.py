"""Subcomplexes of the ambient grid and discrete-manifold validation.

A ManifoldComplex is a finite set of m-cells.  Its one `CodeTable`, built
on first use in one array pass on the ambient's `cells.CellCodes`, holds
its cells in canonical order and its closure's codes per dimension, each
sorted, so in canonical order.  The Euler characteristic, the index,
`metric`'s chain distances and a curve replacement's exclusion are read
from it, and a closure cell is decoded only where it is read.  The
validation report checks the regular-manifold conditions in one pass
over the cells' faces: coface counts of (m-1)-cells, connectivity
through shared (m-1)-cells, and the local link condition at every vertex.
Every other "is it one piece" question goes through the one `components`
flood here, over any face table: cells (Jordan splits), `StateIndex` face
ids (region fits) and `CellCodes` codes (the exact filling search).
`is_cycle`, over the same face tables, asks whether a set is one closed
cycle: every face in exactly two of its members, then one flood from any
member; it serves `Cycle.is_valid` and the region fits.  The region a
surface encloses is no flood but a crossing parity along one axis
(`filling.enclosed_cells`).

Each complex also carries one integer `StateIndex`, built on first use
from the code table by gathers and binary searches on codes: its
vertices, m-cells and (m-1)-cells numbered in canonical order, the
distance matrix between its vertices inside the complex, and flat
incidence tables.  On first use it also tabulates the distance from every
closure cell, as a ball center, to every vertex.  Balls, diameters and
region fits read it instead of searching the graph again for every
center, and the candidate scan thresholds every center's row at once.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import (
    AbstractSet,
    Callable,
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

import numpy as np

from .cells import AmbientSpace, CellCodes, Coord, CubicalCell

CellSet = FrozenSet[CubicalCell]


class CodeTable(NamedTuple):
    """One state on its ambient's `CellCodes`: the m-cells in canonical
    order, and the codes of the closure's cells, by dimension from 0 to m,
    each sorted, so in canonical order; `closure[m]` codes `cells`."""

    cells: Tuple[CubicalCell, ...]
    closure: Tuple[np.ndarray, ...]


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of x, ascending (sorts x in place).  A plain
    `np.unique` would do, but its first call leaves thousands of heap
    blocks allocated."""
    x.sort()
    keep = np.empty(len(x), bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


@dataclass(frozen=True)
class ManifoldComplex:
    """A set of top-dimensional cells in an ambient box."""

    ambient: AmbientSpace
    m: int
    cells: CellSet

    @staticmethod
    def make(ambient: AmbientSpace, m: int, cells: Iterable[CubicalCell]) -> "ManifoldComplex":
        cs = frozenset(cells)
        for c in cs:
            if c.dim != m:
                raise ValueError(f"cell {c} has dim {c.dim}, expected {m}")
            if not ambient.contains_cell(c):
                raise ValueError(f"cell {c} outside ambient extent")
        return ManifoldComplex(ambient, m, cs)

    @cached_property
    def table(self) -> CodeTable:
        """The state's cells and closure on codes, built in one array pass:
        each closure dimension is one gather of the cells' closure offsets,
        sorted and deduplicated."""
        codes, m = self.ambient.codes, self.m
        cells = list(self.cells)
        x = np.fromiter(map(codes.code, cells), np.int64, len(cells))
        order = np.argsort(x)
        x = x[order]
        slots = x & codes.low
        closure = [_distinct((x[:, None] + codes.closure_table(m, j)[slots]).ravel()) for j in range(m)]
        return CodeTable(tuple(map(cells.__getitem__, order.tolist())), (*closure, x))

    @cached_property
    def index(self) -> "StateIndex":
        """Integer ids, vertex distances and incidence tables of this state."""
        return StateIndex(self)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(x) for d, x in enumerate(self.table.closure))

    def replace(self, removed: Iterable[CubicalCell], added: Iterable[CubicalCell]) -> "ManifoldComplex":
        return ManifoldComplex.make(self.ambient, self.m, (self.cells - frozenset(removed)) | frozenset(added))

    def canonical_cells(self) -> Tuple[CubicalCell, ...]:
        return tuple(sorted(self.cells))


class _CodedCells(Sequence):
    """Cells by id, read from sorted code blocks one dimension after
    another: id i decodes only its own code, and `index` finds a cell by
    the binary search of its code in its dimension's block."""

    def __init__(self, codes: CellCodes, blocks: Tuple[np.ndarray, ...]):
        self._codes = codes
        self._blocks = blocks
        self._all = np.concatenate(blocks)
        self._start = np.cumsum([0] + [len(x) for x in blocks]).tolist()

    def __len__(self) -> int:
        return len(self._all)

    def __getitem__(self, i: int) -> CubicalCell:
        return self._codes.cell(int(self._all[i]))

    def index(self, cell: CubicalCell) -> int:
        """The cell's id; ValueError when it is not among the cells."""
        k = len(cell.axes)
        if k < len(self._blocks) and self._codes.ambient.contains_cell(cell) and cell.axes in self._codes.slot:
            x = self._codes.code(cell)
            block = self._blocks[k]
            i = int(np.searchsorted(block, x))
            if i < len(block) and block[i] == x:
                return self._start[k] + i
        raise ValueError(f"{cell} is not among the cells")


class StateIndex:
    """One state's cells numbered in canonical order, with integer tables.

    Ids follow canonical order, so the least id is the canonically smallest
    cell and a tie broken on ids is broken as on cells.  Every table is
    read from the state's `CodeTable` by gathers on the ambient's code
    offset tables and `np.searchsorted` into the sorted closure codes, so
    no cell is built for it.  Every contraction node keeps its first state
    with its caches, so the tables are tuples and numpy arrays rather than
    per-cell lists.

    - `cells`: the m-cells by id.  `vertices`, `faces`: the vertex
      coordinates and (m-1)-cells by id, and `vertex_id` and `cell_id`,
      which map back, are decoded on first use; `vertex_coords` holds the
      coordinates as one array.
    - `dist[u, v]`: the edge count of a shortest path from u to v inside
      the complex, `inf` when there is none.
    - `cell_vertices[i]`: the 2^m vertex ids of cell i.
    - `cell_faces[2m*i : 2m*i + 2m]`: the face ids of cell i.
    - `face_cells[2*f]`, `face_cells[2*f + 1]`: the two cells of face f,
      smaller id first; None unless every face lies in exactly two cells,
      as in a closed manifold.
    - `face_ridges[f]`: the ids of the (m-2)-cells bounding face f, in the
      canonical order of (m-2)-cells; for m = 2 these are its two vertex
      ids, and a curve's vertex faces have none.  One tuple per face, so
      that `face_ridges.__getitem__` serves `is_cycle` as a face table.
    - `centers`: every cell of the closure, all dimensions, by id in
      canonical order.  `centers[i]` decodes one code, and
      `centers.index(cell)` finds the cell's code by `np.searchsorted`.
    - `center_dist[c, v]`: the distance inside the complex from center c
      to vertex v, the least over c's own vertices; built on first use.
    - `cell_plane[i]`: the projection class of cell i, built on first use:
      two cells share a class when they have the same axes and the same
      base on those axes, so that they project onto one cell of the
      coordinate m-plane of those axes.

    The candidate scan (`curviness.candidate_arcs`) works on these ids:
    a fit is a center id with marks over the cell ids of its region and
    the face ids of its boundary, and cells are built only for the
    candidates it solves.
    """

    def __init__(self, M: ManifoldComplex):
        self.m = m = M.m
        self._codes = codes = M.ambient.codes
        self.cells, closure = M.table
        self._closure = closure
        x = closure[m]
        self._face_codes = lower = closure[m - 1] if m else x[:0]
        cell_faces = np.searchsorted(lower, x[:, None] + codes.face_table(m)[x & codes.low]).ravel()
        self.cell_faces: Tuple[int, ...] = tuple(cell_faces.tolist())
        closed = bool((np.bincount(cell_faces, minlength=len(lower)) == 2).all())
        # A stable sort lists each face's positions, so its cells, in order.
        holder = np.repeat(np.arange(len(x)), 2 * m)[np.argsort(cell_faces, kind="stable")]
        self.face_cells: Optional[Tuple[int, ...]] = tuple(holder.tolist()) if closed else None
        self.face_ridges: Tuple[Tuple[int, ...], ...] = ((),) * len(lower)
        if m >= 2:
            ridges = np.searchsorted(closure[m - 2], lower[:, None] + codes.face_table(m - 1)[lower & codes.low])
            self.face_ridges = tuple(map(tuple, ridges.tolist()))
        self.cell_vertices = self._corners(m)
        # each edge's vertex ids: a curve's edges are its cells, and a set of
        # vertices has none
        ends = self._corners(1) if m > 1 else self.cell_vertices[:, : 2 * m]
        self.dist = _all_pairs_levels(len(closure[0]), ends.ravel())

    def _corners(self, k: int) -> np.ndarray:
        """The vertex ids of every k-cell of the closure, one row each."""
        x, codes = self._closure[k], self._codes
        return np.searchsorted(self._closure[0], x[:, None] + codes.closure_table(k, 0)[x & codes.low])

    @cached_property
    def vertex_coords(self) -> np.ndarray:
        """The vertex coordinates, one row per vertex id."""
        return self._codes.bases(self._closure[0])

    @cached_property
    def vertices(self) -> Tuple[Coord, ...]:
        return tuple(map(tuple, self.vertex_coords.tolist()))

    @cached_property
    def vertex_id(self) -> Dict[Coord, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def cell_id(self) -> Dict[CubicalCell, int]:
        return {c: i for i, c in enumerate(self.cells)}

    @cached_property
    def faces(self) -> Tuple[CubicalCell, ...]:
        # decoded once: the cycles of every arc built on this state share them
        return tuple(self._codes.cells(self._face_codes))

    @cached_property
    def centers(self) -> _CodedCells:
        # canonical order sorts on the dimension first
        return _CodedCells(self._codes, self._closure)

    @cached_property
    def cell_plane(self) -> np.ndarray:
        # Each cell's code masked to its axes and its base on them.
        x = self._closure[self.m]
        key = x & self._codes.plane_mask[x & self._codes.low]
        return np.unique(key, return_inverse=True)[1].reshape(-1).copy()  # a copy keeps no chain of views

    @cached_property
    def center_dist(self) -> np.ndarray:
        # Rows come dimension by dimension, each block the least of `dist`
        # over its cells' vertex ids.
        corners = [self._corners(k) for k in range(self.m)] + [self.cell_vertices]
        return np.concatenate([self.dist[ids].min(axis=1) for ids in corners])


def _all_pairs_levels(n: int, ends: Sequence[int]) -> np.ndarray:
    """Edge counts of shortest paths between all n vertices, `inf` where
    none exists; `ends` lists each edge's two vertex ids in turn.

    Breadth-first search from every vertex at once: row s of `frontier`
    is the search from s, and one matrix product advances every search
    by one level.
    """
    adjacency = np.zeros((n, n), np.float32)
    adjacency[ends[0::2], ends[1::2]] = adjacency[ends[1::2], ends[0::2]] = 1
    dist = np.full((n, n), np.inf)
    reached = frontier = np.eye(n, dtype=bool)
    level = 0
    while frontier.any():
        dist[frontier] = level
        level += 1
        frontier = (frontier.astype(np.float32) @ adjacency > 0) & ~reached
        reached = reached | frontier
    return dist


def check_margin(ambient: AmbientSpace, cells: Collection[CubicalCell]) -> None:
    """Raise ValueError, naming the axis, when a vertex of the cells lies on
    the ambient boundary: a manifold keeps one empty unit of margin."""
    for axis, (lo, hi) in enumerate(ambient.extent):
        if any(c.base[axis] <= lo or c.base[axis] + (axis in c.axes) >= hi for c in cells):
            raise ValueError(
                f"a vertex lies on the ambient boundary of axis {axis}; keep one empty unit of margin"
            )


@dataclass(frozen=True)
class Cycle:
    """A closed regular (m-1)-submanifold used as a separating boundary."""

    cells: CellSet
    m: int

    @property
    def dim(self) -> int:
        return self.m - 1

    def canonical_cells(self) -> Tuple[CubicalCell, ...]:
        return tuple(sorted(self.cells))

    def is_valid(self) -> bool:
        """Closed (every (dim-1)-cell in exactly two cells) and connected."""
        return is_cycle(self.cells)


@dataclass(frozen=True)
class ValidationReport:
    is_manifold: bool
    is_closed: bool
    is_regular: bool
    link_spheres_ok: bool
    offending_cells: Tuple[CubicalCell, ...]

    @property
    def ok(self) -> bool:
        return self.is_manifold and self.is_closed and self.is_regular and self.link_spheres_ok

    def __str__(self) -> str:
        flags = (
            f"manifold={self.is_manifold} closed={self.is_closed} "
            f"regular={self.is_regular} links={self.link_spheres_ok}"
        )
        if self.offending_cells:
            flags += f" offending={list(self.offending_cells[:4])}"
        return flags


def components(
    items: Iterable, faces_of: Callable[[object], Iterable] = CubicalCell.faces, blocked: AbstractSet = frozenset()
) -> List[FrozenSet]:
    """The pieces of `items`, two items joined when they share a face (as
    `faces_of` lists them) not in `blocked`.

    Items are cells by default, or any ordered ids with their face table:
    `StateIndex` face ids with rows of `face_ridges`, or `CellCodes`
    codes with `codes.faces`.  Items without faces, as vertices, are each
    a piece of their own.  Pieces come in the order of their least item.
    """
    order = sorted(set(items))
    root = list(range(len(order)))  # union-find on positions in order

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    first: Dict = {}  # each face's first item
    for i, x in enumerate(order):
        for f in faces_of(x):
            if f not in blocked:
                root[find(i)] = find(first.setdefault(f, i))
    pieces: Dict[int, List] = {}  # filled in order, so least items first
    for i, x in enumerate(order):
        pieces.setdefault(find(i), []).append(x)
    return [frozenset(p) for p in pieces.values()]


def is_cycle(items: Collection, faces_of: Callable[[object], Iterable] = CubicalCell.faces) -> bool:
    """Whether the distinct items form one closed cycle: every face lies in
    exactly two of them, and one flood from any item through the shared
    faces reaches them all.  Items are cells by default, or ids with their
    face table, as `components` takes them.  Items without faces, as
    vertices, form a cycle, a 0-sphere, when there are two."""
    holders: Dict = {}  # each face's items
    for x in items:
        for f in faces_of(x):
            holders.setdefault(f, []).append(x)
    if not holders:
        return len(items) == 2
    if set(map(len, holders.values())) != {2}:
        return False
    start = next(iter(items))
    seen, stack = {start}, [start]
    while stack:
        for f in faces_of(stack.pop()):
            for y in holders[f]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return len(seen) == len(items)


def region_boundary(region: Iterable[CubicalCell]) -> CellSet:
    """Cells of one lower dimension with an odd number of cofaces in region."""
    counts: Counter = Counter()
    for c in region:
        for f in c.faces():
            counts[f] += 1
    return frozenset(f for f, k in counts.items() if k % 2 == 1)


def validate(M: ManifoldComplex) -> ValidationReport:
    """Check the regular-manifold conditions and report, never raise.

    One pass collects each (m-1)-cell's holders, the m-cells it bounds:
    the coface counts, and the pieces by one union-find over the cells
    joined across every face, are read from them.

    A vertex breaks the link condition when it lies on an (m-1)-cell with
    more than two cofaces, or, for m >= 2, when the m-cells at it form
    more than one piece: two of them can only share a face at the vertex.
    So one union-find over (vertex, cell) pairs, joined at each vertex of
    a face with two holders, counts every vertex's pieces; a vertex on a
    face with more holders is broken already.  A curve's edges at a vertex
    all share it, so for m = 1 the first rule is the whole test.
    """
    cells = list(M.cells)
    holders: Dict[CubicalCell, List[int]] = defaultdict(list)  # each face's cells, by position in cells
    for i, c in enumerate(cells):
        for f in c.faces():
            holders[f].append(i)
    bad_counts = [f for f, held in holders.items() if len(held) > 2]
    offending = set(bad_counts)
    is_manifold = not bad_counts
    is_closed = is_manifold and all(len(held) == 2 for held in holders.values())

    root = list(range(len(cells)))  # union-find over cell positions

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    for held in holders.values():
        r = find(held[0])
        for i in held[1:]:
            root[find(i)] = r
    pieces = {find(i) for i in range(len(cells))}
    connected = len(pieces) == 1
    if len(pieces) > 1:  # the least cell of the last piece in canonical order
        offending.add(max(min(c for i, c in enumerate(cells) if find(i) == r) for r in pieces))
    is_regular = is_manifold and connected

    broken = {v for f in bad_counts for v in f.vertices()}
    if M.m >= 2:
        # Each m-cell at a vertex has m faces at it, so summing the holders
        # of the faces at a vertex counts its cells m times; each join of
        # two of its pieces takes m off, leaving m times its pieces.
        m, at, joined = M.m, Counter(), {}  # joined: union-find over (vertex, cell position)

        def find(p: Tuple[Coord, int]) -> Tuple[Coord, int]:
            while p in joined:
                p = joined[p]
            return p

        for f, held in holders.items():
            for v in f.vertices():
                at[v] += len(held)
                if len(held) == 2:
                    a, b = find((v, held[0])), find((v, held[1]))
                    if a != b:
                        joined[a] = b
                        at[v] -= m
        broken.update(v for v, k in at.items() if k > m)
    offending.update(CubicalCell(0, v, ()) for v in broken)
    return ValidationReport(
        is_manifold=is_manifold,
        is_closed=is_closed,
        is_regular=is_regular,
        link_spheres_ok=not broken,
        offending_cells=tuple(sorted(offending)),
    )
