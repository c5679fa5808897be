"""Cubical cells and the ambient grid.

A cell is identified by an integer base coordinate and the sorted set of
axes it spans; a vertex spans no axes, an edge one, a square two, a voxel
three.  All incidence (faces, cofaces, vertices) is computed from the
coordinates, so no incidence tables are stored.  A cell's text token,
`b0,b1,...|a0,a1` (base, then axes), is the one cell format of traces and
command output.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Iterator, NamedTuple, Sequence, Tuple

from .errors import DegenerateExtent

Coord = Tuple[int, ...]


class CubicalCell(NamedTuple):
    """One cell of the ambient grid, any dimension.

    Ordering is lexicographic on (dim, base, axes); this is the canonical
    order used for every deterministic tie-break in the library.  A cell is
    a plain tuple of its fields, so it hashes and compares in C.
    """

    dim: int
    base: Coord
    axes: Tuple[int, ...]

    @staticmethod
    def make(base: Sequence[int], axes: Iterable[int] = ()) -> "CubicalCell":
        axes = tuple(sorted(axes))
        base = tuple(int(b) for b in base)
        if len(set(axes)) != len(axes):
            raise ValueError(f"duplicate axes {axes}")
        for a in axes:
            if not 0 <= a < len(base):
                raise ValueError(f"axis {a} out of range for base {base}")
        return CubicalCell(len(axes), base, axes)

    def vertices(self) -> Iterator[Coord]:
        """All 2^dim corner coordinates of the cell."""
        for offs in product((0, 1), repeat=self.dim):
            v = list(self.base)
            for a, o in zip(self.axes, offs):
                v[a] += o
            yield tuple(v)

    def faces(self) -> Iterator["CubicalCell"]:
        """The 2*dim cells of dimension dim-1 bounding this cell."""
        base, axes, dim = self.base, self.axes, self.dim - 1
        for i, a in enumerate(axes):
            rest = axes[:i] + axes[i + 1 :]
            yield CubicalCell(dim, base, rest)
            yield CubicalCell(dim, base[:a] + (base[a] + 1,) + base[a + 1 :], rest)

    def all_faces(self) -> Iterator["CubicalCell"]:
        """Every cell of the closure, including self, down to vertices."""
        n_ax = self.axes
        for k in range(self.dim, -1, -1):
            for sub in combinations(n_ax, k):
                dropped = tuple(a for a in n_ax if a not in sub)
                for offs in product((0, 1), repeat=len(dropped)):
                    b = list(self.base)
                    for a, o in zip(dropped, offs):
                        b[a] += o
                    yield CubicalCell(k, tuple(b), sub)

    def cofaces(self, up_axes: Iterable[int]) -> Iterator["CubicalCell"]:
        """Cells one dimension up that contain this cell.

        `up_axes` lists the ambient axes available for extension; each free
        axis yields two cofaces (extend forward, or backward by shifting
        the base).
        """
        for a in up_axes:
            if a in self.axes:
                continue
            new_axes = tuple(sorted(self.axes + (a,)))
            yield CubicalCell(self.dim + 1, self.base, new_axes)
            shifted = list(self.base)
            shifted[a] -= 1
            yield CubicalCell(self.dim + 1, tuple(shifted), new_axes)

    def contains(self, other: "CubicalCell") -> bool:
        """True when `other` is a face of this cell (or equal)."""
        if other.dim > self.dim:
            return False
        for a in other.axes:
            if a not in self.axes:
                return False
        for i, (b, ob) in enumerate(zip(self.base, other.base)):
            if i in other.axes:
                if ob != b:
                    return False
            elif i in self.axes:
                if not b <= ob <= b + 1:
                    return False
            elif ob != b:
                return False
        return True

    def touches(self, other: "CubicalCell") -> bool:
        """True when the closures share at least one point."""
        for i in range(len(self.base)):
            lo_s, hi_s = self.base[i], self.base[i] + (1 if i in self.axes else 0)
            lo_o, hi_o = other.base[i], other.base[i] + (1 if i in other.axes else 0)
            if hi_s < lo_o or hi_o < lo_s:
                return False
        return True

    def __repr__(self) -> str:
        return f"Cell({cell_token(self)})"


@dataclass(frozen=True, order=True)
class AmbientSpace:
    """A simply connected box of grid cells: dimension plus per-axis bounds.

    `extent[i] = (lo, hi)` bounds vertex coordinates inclusively on axis i.
    Cells are enumerated implicitly; nothing is materialised.
    """

    n: int
    extent: Tuple[Tuple[int, int], ...]

    def contains_cell(self, cell: CubicalCell) -> bool:
        for i, (lo, hi) in enumerate(self.extent):
            top = cell.base[i] + (1 if i in cell.axes else 0)
            if cell.base[i] < lo or top > hi:
                return False
        return True

    def contains_vertex(self, v: Coord) -> bool:
        return all(lo <= x <= hi for x, (lo, hi) in zip(v, self.extent))

    def vertex_neighbors(self, v: Coord) -> Iterator[Coord]:
        for a in range(self.n):
            for d in (-1, 1):
                w = list(v)
                w[a] += d
                w = tuple(w)
                if self.contains_vertex(w):
                    yield w

    def cofaces(self, cell: CubicalCell) -> Iterator[CubicalCell]:
        """In-bounds cells one dimension above `cell`."""
        for c in cell.cofaces(range(self.n)):
            if self.contains_cell(c):
                yield c

    def top_cells_containing(self, cell: CubicalCell) -> Iterator[CubicalCell]:
        """In-bounds n-cells whose closure contains `cell`."""
        free = [a for a in range(self.n) if a not in cell.axes]
        for offs in product((0, -1), repeat=len(free)):
            b = list(cell.base)
            for a, o in zip(free, offs):
                b[a] += o
            top = CubicalCell(self.n, tuple(b), tuple(range(self.n)))
            if self.contains_cell(top):
                yield top

    def edge_between(self, u: Coord, v: Coord) -> CubicalCell:
        diff = [i for i in range(self.n) if u[i] != v[i]]
        if len(diff) != 1 or abs(u[diff[0]] - v[diff[0]]) != 1:
            raise ValueError(f"{u} and {v} are not grid neighbors")
        a = diff[0]
        base = u if u[a] < v[a] else v
        return CubicalCell(1, tuple(base), (a,))


def build_ambient(n: int, extent: Sequence[Tuple[int, int]]) -> AmbientSpace:
    """Create the ambient box, rejecting axes with no unit cells."""
    if n < 2:
        raise ValueError(f"ambient dimension must be >= 2, got {n}")
    if len(extent) != n:
        raise ValueError(f"expected {n} extent pairs, got {len(extent)}")
    ext = tuple((int(lo), int(hi)) for lo, hi in extent)
    for i, (lo, hi) in enumerate(ext):
        if hi - lo < 1:
            raise DegenerateExtent(f"axis {i} spans {hi - lo} units")
    return AmbientSpace(n, ext)


def boundary_cells(cell: CubicalCell) -> frozenset:
    """The 2*dim cells of dimension dim-1 bounding `cell`."""
    if cell.dim < 1:
        raise ValueError("vertices have no boundary cells")
    return frozenset(cell.faces())


def cell_token(cell: CubicalCell) -> str:
    """The text form `b0,b1,...|a0,a1`: base, then axes."""
    b = ",".join(str(x) for x in cell.base)
    a = ",".join(str(x) for x in cell.axes)
    return f"{b}|{a}"


def parse_cell_token(tok: str) -> CubicalCell:
    """Inverse of `cell_token`."""
    b, _, a = tok.partition("|")
    base = tuple(int(x) for x in b.split(","))
    axes = tuple(int(x) for x in a.split(",")) if a else ()
    return CubicalCell.make(base, axes)
