"""Cubical cells and the ambient grid.

A cell is identified by an integer base coordinate and the sorted set of
axes it spans; a vertex spans no axes, an edge one, a square two, a voxel
three.  A cell's faces and vertices are computed from the
coordinates.  `CellCodes` numbers the cells of one ambient by integers in
canonical order, with incidence as fixed code offsets, for the searches
that run on integers (the filling searches and `metric`'s chain
distances) and for the array passes that build each state's tables
(`complexes.ManifoldComplex.table`); each ambient holds one, as
`AmbientSpace.codes`, and it decodes codes to cells singly or as arrays.  A
cell's text token, `b0,b1,...|a0,a1` (base, then axes), is the one cell
format of traces and command output.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from math import comb
from typing import Iterable, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

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

    def __repr__(self) -> str:
        return f"Cell({cell_token(self)})"


@dataclass(frozen=True, order=True)
class AmbientSpace:
    """A simply connected box of grid cells: dimension plus per-axis bounds.

    `extent[i] = (lo, hi)` bounds vertex coordinates inclusively on axis i.
    Cells are enumerated implicitly; nothing is materialised but the
    ambient's one `CellCodes`, built on first use.
    """

    n: int
    extent: Tuple[Tuple[int, int], ...]

    @cached_property
    def codes(self) -> "CellCodes":
        return CellCodes(self)

    def contains_cell(self, cell: CubicalCell) -> bool:
        if len(cell.base) != self.n:
            return False
        for i, (lo, hi) in enumerate(self.extent):
            top = cell.base[i] + (1 if i in cell.axes else 0)
            if cell.base[i] < lo or top > hi:
                return False
        return True

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


class CellCodes:
    """Order-preserving integer codes for the cells of one ambient box.

    A code packs a cell's base, each coordinate offset from the ambient's
    low bound into its own bit field (axis 0 most significant), above a
    slot for its axes; the slots of one dimension follow the canonical
    order of their axes.  So within one dimension code order is canonical
    order, and `sorted` on codes agrees with `sorted` on cells.  A cell's
    faces, cofaces and closure cells sit at code offsets that depend only
    on its axes: they are tabulated once per slot, in flat arrays, and
    once per dimension k as numpy tables with one row per slot
    (`face_table`, `closure_table`), so that one gather gives the faces,
    closure cells or vertices of many k-cells at once.  Only cells of the
    ambient have codes.  Nothing here is stored per code, so a larger
    ambient costs only wider codes.
    """

    def __init__(self, ambient: AmbientSpace):
        n = ambient.n
        self.ambient = ambient
        self._lo = tuple(lo for lo, _ in ambient.extent)
        self._span = tuple(hi - lo for lo, hi in ambient.extent)
        self._field = tuple((1 << s.bit_length()) - 1 for s in self._span)  # one coordinate's bits
        shift, width = [0] * n, n  # the slot takes the n lowest bits
        for a in reversed(range(n)):
            shift[a] = width
            width += self._span[a].bit_length()
        self._shift = tuple(shift)
        self.low = (1 << n) - 1
        self._shift_array, self._field_array, self._lo_array = (
            np.array(t, np.int64) for t in (self._shift, self._field, self._lo)
        )
        self._slot_axes = sorted(
            (axes for k in range(n + 1) for axes in combinations(range(n), k)), key=lambda t: (len(t), t)
        )
        self.slot = {axes: s for s, axes in enumerate(self._slot_axes)}  # each axes tuple's slot
        step = [1 << sh for sh in shift]
        # Slot s owns entries at[s] to at[s + 1] of each flat table.
        self._face_at, self._face = array("l", [0]), array("l")
        self._coface_at, self._coface = array("l", [0]), array("l")  # (axis, forward, backward)
        self._closure_at, self._closure = array("l", [0]), array("l")
        for s, axes in enumerate(self._slot_axes):
            for i, a in enumerate(axes):
                d = self.slot[axes[:i] + axes[i + 1 :]] - s
                self._face.extend((d, d + step[a]))
            for a in range(n):
                if a not in axes:
                    d = self.slot[tuple(sorted(axes + (a,)))] - s
                    self._coface.extend((a, d, d - step[a]))
            for k in range(len(axes), -1, -1):
                for sub in combinations(axes, k):
                    dropped = [step[a] for a in axes if a not in sub]
                    for offs in product((0, 1), repeat=len(dropped)):
                        self._closure.append(self.slot[sub] - s + sum(o * d for o, d in zip(offs, dropped)))
            self._face_at.append(len(self._face))
            self._coface_at.append(len(self._coface))
            self._closure_at.append(len(self._closure))
        # Per dimension k, the flat tables' rows of its slots; rows of
        # other slots stay zero.  A slot's closure lists its cells
        # dimension by dimension from k down, C(k, j) * 2^(k-j) of
        # dimension j.
        self._faces_k: List[np.ndarray] = []
        self._closure_k: List[List[np.ndarray]] = []
        for k in range(n + 1):
            faces = np.zeros((len(self._slot_axes), 2 * k), np.int64)
            closure = np.zeros((len(self._slot_axes), 3**k), np.int64)
            for s, axes in enumerate(self._slot_axes):
                if len(axes) == k:
                    faces[s] = self._face[self._face_at[s] : self._face_at[s + 1]]
                    closure[s] = self._closure[self._closure_at[s] : self._closure_at[s + 1]]
            ends = np.cumsum([0] + [comb(k, j) << (k - j) for j in range(k, -1, -1)])
            self._faces_k.append(faces)
            self._closure_k.append([closure[:, ends[k - j] : ends[k - j + 1]] for j in range(k + 1)])
        # Per slot: the slot's bits and the coordinate fields of its axes.
        self.plane_mask = np.array(
            [self.low | sum(self._field[a] << shift[a] for a in axes) for axes in self._slot_axes], np.int64
        )

    def code(self, cell: CubicalCell) -> int:
        """The cell's code; the cell must lie in the ambient."""
        x = self.slot[cell.axes]
        for b, lo, sh in zip(cell.base, self._lo, self._shift):
            x |= (b - lo) << sh
        return x

    def cell(self, x: int) -> CubicalCell:
        axes = self._slot_axes[x & self.low]
        base = tuple(((x >> sh) & f) + lo for sh, f, lo in zip(self._shift, self._field, self._lo))
        return CubicalCell(len(axes), base, axes)

    def bases(self, x: np.ndarray) -> np.ndarray:
        """The base coordinates of an array of codes, one row per code."""
        return ((x[:, None] >> self._shift_array) & self._field_array) + self._lo_array

    def cells(self, x: np.ndarray) -> List[CubicalCell]:
        """The cells of an array of codes, in its order."""
        axes = [self._slot_axes[s] for s in (x & self.low).tolist()]
        return [CubicalCell(len(a), tuple(b), a) for b, a in zip(self.bases(x).tolist(), axes)]

    def face_table(self, k: int) -> np.ndarray:
        """Per slot of dimension k, the code offsets of a k-cell's 2k faces,
        in the order of `faces`: `x[:, None] + face_table(k)[x & low]`
        gathers the faces of every k-cell code in x."""
        return self._faces_k[k]

    def closure_table(self, k: int, j: int) -> np.ndarray:
        """Per slot of dimension k, the code offsets of the j-cells of a
        k-cell's closure, in the order of `closure`; for j = 0 these are its
        2^k vertices, in the order of `CubicalCell.vertices`."""
        return self._closure_k[k][j]

    def faces(self, x: int) -> List[int]:
        """Codes of the cell's 2*dim faces."""
        s = x & self.low
        return [x + d for d in self._face[self._face_at[s] : self._face_at[s + 1]]]

    def closure(self, x: int) -> List[int]:
        """Codes of every cell of the cell's closure, itself included."""
        s = x & self.low
        return [x + d for d in self._closure[self._closure_at[s] : self._closure_at[s + 1]]]

    def cofaces(self, x: int) -> List[int]:
        """Codes of the cells one dimension up that contain the cell and lie
        in the ambient: per free axis in turn, the one that extends forward
        (same base), then the one that extends backward (base one lower on
        that axis)."""
        s, table, out = x & self.low, self._coface, []
        for k in range(self._coface_at[s], self._coface_at[s + 1], 3):
            a = table[k]
            at = (x >> self._shift[a]) & self._field[a]  # the coordinate on axis a, from the low bound
            if at < self._span[a]:
                out.append(x + table[k + 1])
            if at > 0:
                out.append(x + table[k + 2])
        return out


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
