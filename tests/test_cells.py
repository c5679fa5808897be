import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtopo import CubicalCell, ManifoldComplex, build_ambient
from gridtopo.cells import CellCodes
from gridtopo.errors import DegenerateExtent

from util import all_faces, cofaces


def test_build_ambient_examples():
    amb = build_ambient(2, [(0, 8), (0, 8)])
    assert amb.n == 2
    assert amb.extent == ((0, 8), (0, 8))
    amb3 = build_ambient(3, [(0, 4)] * 3)
    assert amb3.n == 3


def test_build_ambient_degenerate():
    with pytest.raises(DegenerateExtent):
        build_ambient(2, [(0, 0), (0, 5)])


def test_edge_boundary():
    e = CubicalCell.make((0, 0), (0,))
    assert frozenset(e.faces()) == {
        CubicalCell.make((0, 0)),
        CubicalCell.make((1, 0)),
    }


def test_square_boundary():
    sq = CubicalCell.make((0, 0), (0, 1))
    bd = frozenset(sq.faces())
    assert len(bd) == 4
    assert all(c.dim == 1 for c in bd)
    assert CubicalCell.make((0, 0), (0,)) in bd
    assert CubicalCell.make((0, 1), (0,)) in bd


def test_voxel_boundary():
    vx = CubicalCell.make((0, 0, 0), (0, 1, 2))
    bd = frozenset(vx.faces())
    assert len(bd) == 6
    assert all(c.dim == 2 for c in bd)


def test_vertices_count():
    sq = CubicalCell.make((2, 3), (0, 1))
    assert len(list(sq.vertices())) == 4
    assert (2, 3) in sq.vertices()
    assert (3, 4) in sq.vertices()


def test_ambient_refuses_cells_of_another_dimension():
    """A cell with more or fewer coordinates than the ambient has axes is
    not in it: no `IndexError`, and `ManifoldComplex.make` refuses it."""
    amb2 = build_ambient(2, [(-2, 5), (-2, 5)])
    assert amb2.contains_cell(CubicalCell.make((0, 0), (0,)))
    for cell in (CubicalCell.make((0, 0, 0), (0,)), CubicalCell.make((0,), (0,))):
        assert not amb2.contains_cell(cell)
        with pytest.raises(ValueError, match="outside ambient"):
            ManifoldComplex.make(amb2, 1, [cell])


@settings(max_examples=60, deadline=None)
@given(
    base=st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
    dim=st.integers(2, 3),
)
def test_boundary_of_boundary_vanishes(base, dim):
    """Every (dim-2)-cell appears exactly twice among boundary boundaries."""
    axes = tuple(range(dim))
    cell = CubicalCell.make(base[: max(dim, 2) if dim > 2 else 3][:3], axes)
    counts = {}
    for f in cell.faces():
        for g in f.faces():
            counts[g] = counts.get(g, 0) + 1
    assert all(k == 2 for k in counts.values())


def test_cofaces_inverse_of_faces():
    amb = build_ambient(2, [(0, 4), (0, 4)])
    e = CubicalCell.make((1, 1), (0,))
    ups = [u for u in cofaces(e, range(amb.n)) if amb.contains_cell(u)]
    assert len(ups) == 2
    for u in ups:
        assert e in u.faces()


def test_canonical_ordering():
    a = CubicalCell.make((0, 3), (0,))
    b = CubicalCell.make((1, 1), (0,))
    v = CubicalCell.make((9, 9))
    assert v < a < b


@pytest.mark.parametrize("n, extent", [(2, (0, 15)), (3, (-2, 5)), (4, (-1, 2))])
def test_cell_codes_round_trip_and_order(n, extent):
    """Codes decode to their cells, sort as the cells sort within each
    dimension, and give each cell's faces, closure and in-ambient cofaces
    (those in the order `util.cofaces` gives over every axis)."""
    amb = build_ambient(n, [extent] * n)
    codes = CellCodes(amb)
    lo, hi = extent
    rng = random.Random(n)
    for dim in range(n + 1):
        all_axes = list(combinations(range(n), dim))
        cells = set()
        while len(cells) < 60:
            axes = rng.choice(all_axes)
            cells.add(CubicalCell(dim, tuple(rng.randint(lo, hi - (a in axes)) for a in range(n)), axes))
        coded = {codes.code(c): c for c in cells}
        assert len(coded) == len(cells)
        assert all(x >= 0 and codes.cell(x) == c for x, c in coded.items())
        assert [coded[x] for x in sorted(coded)] == sorted(cells)
        for x, c in coded.items():
            assert sorted(map(codes.cell, codes.faces(x))) == sorted(c.faces())
            assert sorted(map(codes.cell, codes.closure(x))) == sorted(all_faces(c))
            ups = [u for u in cofaces(c, range(n)) if amb.contains_cell(u)]
            assert list(map(codes.cell, codes.cofaces(x))) == ups
