"""Subcomplexes of the ambient grid and discrete-manifold validation.

A ManifoldComplex is a finite set of m-cells plus its derived closure.  The
validation report checks the regular-manifold conditions: coface counts of
(m-1)-cells, connectivity through shared (m-1)-cells, and the local link
condition at every vertex.  Every "is it one piece" question goes through
the one `components` flood here, over any face table: cells (validation,
vertex links, Jordan splits), `StateIndex` face ids (region fits) and
`CellCodes` codes (the exact filling search).  `is_cycle`, over the same
face tables, asks whether a set is one closed cycle: every face in exactly
two of its members, then one flood from any member; it serves
`Cycle.is_valid` and the region fits.  The region a surface encloses is
no flood but a crossing parity along one axis (`filling.enclosed_cells`).

Each complex also carries one integer `StateIndex`, built on first use: its
vertices, m-cells and (m-1)-cells numbered in canonical order, the distance
matrix between its vertices inside the complex, and flat incidence tables.
On first use it also tabulates the distance from every closure cell, as a
ball center, to every vertex.  Balls, diameters and region fits read it
instead of searching the graph again for every center, and the candidate
scan thresholds every center's row at once.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import AbstractSet, Callable, Collection, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .cells import AmbientSpace, Coord, CubicalCell

CellSet = FrozenSet[CubicalCell]


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
    def closure(self) -> Dict[int, CellSet]:
        by_dim: Dict[int, set] = defaultdict(set)
        for c in self.cells:
            for f in c.all_faces():
                by_dim[f.dim].add(f)
        return {d: frozenset(s) for d, s in by_dim.items()}

    @cached_property
    def closure_cells(self) -> CellSet:
        """Every cell of the closure, all dimensions together."""
        return frozenset().union(*self.closure.values())

    @cached_property
    def vertices(self) -> FrozenSet[Coord]:
        return frozenset(c.base for c in self.closure.get(0, frozenset()))

    @cached_property
    def edges(self) -> CellSet:
        return self.closure.get(1, frozenset())

    @cached_property
    def vertex_adjacency(self) -> Dict[Coord, Tuple[Coord, ...]]:
        """Each vertex's neighbours along the edges, in canonical order."""
        adj: Dict[Coord, List[Coord]] = defaultdict(list)
        for e in self.edges:
            (a,) = e.axes
            u = e.base
            w = u[:a] + (u[a] + 1,) + u[a + 1 :]
            adj[u].append(w)
            adj[w].append(u)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    @cached_property
    def coface_counts(self) -> Dict[CubicalCell, int]:
        """For each (m-1)-cell of the closure, how many m-cells contain it."""
        counts: Counter = Counter()
        for c in self.cells:
            for f in c.faces():
                counts[f] += 1
        return dict(counts)

    @cached_property
    def index(self) -> "StateIndex":
        """Integer ids, vertex distances and incidence tables of this state."""
        return StateIndex(self)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(s) for d, s in self.closure.items())

    def replace(self, removed: Iterable[CubicalCell], added: Iterable[CubicalCell]) -> "ManifoldComplex":
        return ManifoldComplex.make(self.ambient, self.m, (self.cells - frozenset(removed)) | frozenset(added))

    def canonical_cells(self) -> Tuple[CubicalCell, ...]:
        return tuple(sorted(self.cells))


class StateIndex:
    """One state's cells numbered in canonical order, with integer tables.

    Ids follow canonical order, so the least id is the canonically smallest
    cell and a tie broken on ids is broken as on cells.  Every contraction
    node keeps its first state with its caches, so the tables are tuples
    and numpy arrays rather than per-cell lists, and the faces are
    those of `ManifoldComplex.closure`.

    - `vertices`, `cells`, `faces`: the vertex coordinates, m-cells and
      (m-1)-cells by id; `vertex_id` and `cell_id` map back.
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
    - `centers`, `center_id`: every cell of the closure, all dimensions,
      by id in canonical order, built on first use.
    - `center_dist[c, v]`: the distance inside the complex from center c
      to vertex v, the least over c's own vertices; built on first use,
      for curves and surfaces from `dist`, `face_ridges` and
      `cell_vertices` alone.
    - `cell_plane[i]`: the projection class of cell i, built on first use:
      two cells share a class when they have the same axes and the same
      base on those axes, so that they project onto one cell of the
      coordinate m-plane of those axes.

    The candidate scan (`curviness.candidate_arcs`) works on these ids:
    a fit is a center id, region cell ids and boundary face ids, and
    cells are built only for the candidates it solves.
    """

    def __init__(self, M: ManifoldComplex):
        self.m = m = M.m
        self._closure = M.closure
        self.vertices: Tuple[Coord, ...] = tuple(sorted(M.vertices))
        self.vertex_id: Dict[Coord, int] = {v: i for i, v in enumerate(self.vertices)}
        self.cells: Tuple[CubicalCell, ...] = M.canonical_cells()
        self.cell_id: Dict[CubicalCell, int] = {c: i for i, c in enumerate(self.cells)}
        self.faces: Tuple[CubicalCell, ...] = tuple(sorted(M.closure.get(m - 1, ())))
        face_id = {f: i for i, f in enumerate(self.faces)}
        self.cell_faces: Tuple[int, ...] = tuple(face_id[f] for c in self.cells for f in c.faces())
        cofaces: List[List[int]] = [[] for _ in self.faces]
        for pos, f in enumerate(self.cell_faces):
            cofaces[f].append(pos // (2 * m))
        closed = all(len(cs) == 2 for cs in cofaces)
        self.face_cells: Optional[Tuple[int, ...]] = tuple(i for cs in cofaces for i in cs) if closed else None
        self.face_ridges: Tuple[Tuple[int, ...], ...] = ((),) * len(self.faces)
        if m >= 2:
            ridge_id = {r: i for i, r in enumerate(sorted(M.closure.get(m - 2, ())))}
            self.face_ridges = tuple(tuple(map(ridge_id.__getitem__, f.faces())) for f in self.faces)

        # The ends of every edge, and each cell's vertices.  A curve's cells
        # are its edges and their faces its vertices; a surface's faces are
        # its edges and their ridges its vertices.  Vertex cells are
        # numbered as their coordinates, and an edge lists its two faces
        # in the order of its vertices.
        vid = self.vertex_id
        if m == 1:
            ends = self.cell_faces
            cell_vertices: Iterable[int] = ends
        else:
            ends = (
                [v for e in self.face_ridges for v in e] if m == 2 else [vid[v] for e in M.edges for v in e.vertices()]
            )
            cell_vertices = (vid[v] for c in self.cells for v in c.vertices())
        self.cell_vertices = np.fromiter(cell_vertices, np.intp, len(self.cells) << m).reshape(
            len(self.cells), 1 << m
        )
        self.dist = _all_pairs_levels(len(self.vertices), ends)

    @cached_property
    def centers(self) -> Tuple[CubicalCell, ...]:
        # canonical order sorts on the dimension first
        return tuple(c for k in sorted(self._closure) for c in sorted(self._closure[k]))

    @cached_property
    def center_id(self) -> Dict[CubicalCell, int]:
        return {c: i for i, c in enumerate(self.centers)}

    @cached_property
    def cell_plane(self) -> np.ndarray:
        # Each cell's axes and its base on them, one row per cell, read as
        # one integer in mixed radix.
        axes = np.array([c.axes for c in self.cells]).reshape(len(self.cells), self.m)
        base = np.array([c.base for c in self.cells])
        rows = np.concatenate([axes, np.take_along_axis(base, axes, axis=1)], axis=1)
        rows -= rows.min(axis=0)
        radix = rows.max(axis=0) + 1
        key = rows @ np.cumprod(np.concatenate([[1], radix[:0:-1]]))[::-1]
        return np.unique(key, return_inverse=True)[1].reshape(-1).copy()  # a copy keeps no chain of views

    @cached_property
    def center_dist(self) -> np.ndarray:
        # Rows come dimension by dimension, each block the least of `dist`
        # over its cells' vertex ids.  For curves and surfaces the index
        # already holds every block's ids: a vertex is its own row, a
        # surface's edges are its faces, and the m-cells have
        # `cell_vertices`.
        if self.m in (1, 2):
            edges = [np.reshape(self.face_ridges, (-1, 2))] if self.m == 2 else []
            rows = [self.dist[ids].min(axis=1) for ids in (*edges, self.cell_vertices)]
            return np.concatenate([self.dist, *rows])
        vid, rows = self.vertex_id, []
        for k, same_dim in groupby(self.centers, key=lambda c: c.dim):
            corners = [vid[v] for c in same_dim for v in c.vertices()]
            rows.append(self.dist[np.reshape(corners, (-1, 1 << k))].min(axis=1))
        return np.concatenate(rows)


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

    A vertex breaks the link condition when it lies on an (m-1)-cell with
    more than two cofaces, or, for m >= 2, when the m-cells at it form
    more than one piece: two of them can only share a face at the vertex.
    A curve's edges at a vertex all share it, so for m = 1 the first rule
    is the whole test.
    """
    counts = M.coface_counts
    bad_counts = [f for f, k in counts.items() if k > 2]
    offending = set(bad_counts)
    is_manifold = not bad_counts
    is_closed = is_manifold and all(k == 2 for k in counts.values())

    comps = components(M.cells)
    connected = len(comps) == 1
    if not connected and comps:
        offending.add(min(comps[-1]))
    is_regular = is_manifold and connected

    broken = {v for f in bad_counts for v in f.vertices()}
    if M.m >= 2:
        incident: Dict[Coord, List[CubicalCell]] = defaultdict(list)
        for c in M.cells:
            for v in c.vertices():
                incident[v].append(c)
        broken.update(v for v, cs in incident.items() if len(components(cs)) > 1)
    offending.update(CubicalCell(0, v, ()) for v in broken)
    return ValidationReport(
        is_manifold=is_manifold,
        is_closed=is_closed,
        is_regular=is_regular,
        link_spheres_ok=not broken,
        offending_cells=tuple(sorted(offending)),
    )
