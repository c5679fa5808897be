import random
from collections import Counter, defaultdict
from itertools import groupby, product

import numpy as np
import pytest

from gridtopo import CubicalCell, Cycle, ManifoldComplex, build_ambient, validate
from gridtopo.complexes import ValidationReport, _all_pairs_levels, components, is_cycle, region_boundary
from gridtopo.io import load_fixture

from conftest import FIXTURE_DIR
from util import (
    GOLDEN_DIR,
    all_faces,
    cofaces,
    contraction_pool,
    golden_states,
    random_connected_subcomplex,
    reference_is_cycle,
)


def coface_counts(M):
    """For each (m-1)-cell of M's closure, how many m-cells contain it."""
    return Counter(f for c in M.cells for f in c.faces())


def test_sq1_validates(sq1):
    report = validate(sq1)
    assert report.is_manifold and report.is_closed
    assert report.is_regular and report.link_spheres_ok
    assert report.offending_cells == ()


def test_pinch_fails_link_check(pinch):
    report = validate(pinch)
    assert not report.link_spheres_ok
    assert CubicalCell.make((1, 1)) in report.offending_cells


def test_box111_closed_regular(box111):
    report = validate(box111)
    assert report.is_closed and report.is_regular
    # direct incidence count: every edge in exactly two faces
    assert all(k == 2 for k in coface_counts(box111).values())
    assert len(coface_counts(box111)) == 12


def test_closed_iff_two_cofaces(rect12, ushape, box211):
    for M in (rect12, ushape, box211):
        assert validate(M).is_closed == all(k == 2 for k in coface_counts(M).values())


def test_euler_characteristics(sq1, ushape, box111, box333, torus):
    assert sq1.euler_characteristic() == 0
    assert ushape.euler_characteristic() == 0
    assert box111.euler_characteristic() == 2
    assert box333.euler_characteristic() == 2
    assert torus.euler_characteristic() == 0


def test_region_boundary_parity():
    cells = [CubicalCell.make((0, 0), (0, 1)), CubicalCell.make((1, 0), (0, 1))]
    bd = region_boundary(cells)
    assert len(bd) == 6
    assert CubicalCell.make((1, 0), (1,)) not in bd  # shared edge cancels


def test_closure_counts(sq1):
    assert len(sq1.table.closure[1]) == 4
    assert len(sq1.table.closure[0]) == 4


# ---------------------------------------------------------------------------
# References: `validate`, `components` and `Cycle.is_valid` as they were
# before every connectivity question went through one `components` flood.


def reference_components(cells, dim, blocked=frozenset()):
    order = sorted(set(cells))
    if dim == 0:
        return [frozenset([c]) for c in order]
    by_face = defaultdict(list)
    for i, c in enumerate(order):
        for f in c.faces():
            if f not in blocked:
                by_face[f].append(i)
    neighbors = [[] for _ in order]
    for shared in by_face.values():
        for i in shared:
            neighbors[i].extend(j for j in shared if j != i)
    seen = [False] * len(order)
    comps = []
    for start in range(len(order)):
        if seen[start]:
            continue
        seen[start] = True
        members = [start]
        for i in members:
            for j in neighbors[i]:
                if not seen[j]:
                    seen[j] = True
                    members.append(j)
        comps.append(frozenset(order[i] for i in members))
    return comps


def reference_is_valid(cells, dim):
    if not cells:
        return False
    if dim == 0:
        return len(cells) == 2
    counts = Counter(f for c in cells for f in c.faces())
    if any(k != 2 for k in counts.values()):
        return False
    return len(reference_components(cells, dim)) == 1


def _reference_vertex_link_ok(m, v, incident, boundary_faces):
    if m == 1:
        return len(incident) in (1, 2)
    local_faces = Counter(f for c in incident for f in c.faces() if v in f.vertices())
    if any(k > 2 for k in local_faces.values()):
        return False
    if len(reference_components(incident, m)) != 1:
        return False
    if any(f in boundary_faces for f in local_faces):
        return True
    return all(k == 2 for k in local_faces.values())


def reference_validate(M):
    offending = set()
    counts = coface_counts(M)
    bad_counts = [f for f, k in counts.items() if k > 2]
    offending.update(bad_counts)
    is_manifold = not bad_counts
    is_closed = is_manifold and all(k == 2 for k in counts.values())
    comps = reference_components(M.cells, M.m)
    connected = len(comps) == 1
    if not connected and comps:
        offending.update(sorted(comps[-1])[:1])
    is_regular = is_manifold and connected
    boundary_faces = frozenset(f for f, k in counts.items() if k == 1)
    incident = defaultdict(list)
    for c in M.cells:
        for v in c.vertices():
            incident[v].append(c)
    link_ok = True
    for v in sorted(incident):
        if not _reference_vertex_link_ok(M.m, v, incident[v], boundary_faces):
            link_ok = False
            offending.add(CubicalCell(0, v, ()))
    return ValidationReport(is_manifold, is_closed, is_regular, link_ok, tuple(sorted(offending)))


def _voxels(*bases):
    return [CubicalCell.make(b, (0, 1, 2)) for b in bases]


def hand_made_invalid(amb2, amb3):
    """A pinch, three squares on one edge, two boxes touching at a vertex
    and at an edge, a curve with a branch and two disjoint squares."""
    three = sorted(cofaces(CubicalCell.make((1, 1, 1), (0,)), range(3)))[:3]
    return [
        ManifoldComplex.make(amb2, 2, [CubicalCell.make((0, 0), (0, 1)), CubicalCell.make((1, 1), (0, 1))]),
        ManifoldComplex.make(amb3, 2, three),
        ManifoldComplex.make(amb3, 2, region_boundary(_voxels((0, 0, 0))) | region_boundary(_voxels((1, 1, 1)))),
        ManifoldComplex.make(amb3, 2, region_boundary(_voxels((0, 0, 0))) | region_boundary(_voxels((1, 1, 0)))),
        ManifoldComplex.make(
            amb2, 1, [CubicalCell.make((0, 0), (0,)), CubicalCell.make((1, 0), (0,)), CubicalCell.make((1, 0), (1,))]
        ),
        ManifoldComplex.make(amb3, 2, [CubicalCell.make((0, 0, 0), (0, 1)), CubicalCell.make((2, 2, 2), (0, 1))]),
    ]


def reference_cases(amb2, amb3):
    """Random connected subcomplexes of every dimension in 2-D and 3-D, the
    hand-made invalid sets, every fixture and every golden state."""
    rng = random.Random(14)
    cases = []
    for amb in (build_ambient(2, [(0, 7), (0, 7)]), build_ambient(3, [(0, 5), (0, 5), (0, 5)])):
        for m in range(amb.n + 1):
            for _ in range(120):
                cases.append(random_connected_subcomplex(amb, m, rng.randint(1, 14), rng))
    cases += hand_made_invalid(amb2, amb3)
    cases += [load_fixture(p, require_valid=False) for p in sorted(FIXTURE_DIR.glob("*.txt"))]
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        cases += golden_states(path.stem)
    return cases


def test_validate_matches_reference(amb2, amb3):
    """Every report field and its text, against the per-vertex link check;
    every kind of failure shows up."""
    seen = Counter()
    for M in reference_cases(amb2, amb3):
        got, want = validate(M), reference_validate(M)
        assert got == want and str(got) == str(want), sorted(M.cells)
        seen[got.is_manifold, got.is_closed, got.is_regular, got.link_spheres_ok] += 1
    # broken links with and without a crowded face, and valid closed ones
    assert seen[False, False, False, False] and seen[True, False, False, False] and seen[True, True, True, True]
    assert seen[True, False, True, True] and seen[True, False, False, True]


def test_hand_made_invalid_sets(amb2, amb3):
    pinch, three, at_vertex, at_edge, branch, apart = hand_made_invalid(amb2, amb3)
    for M in (pinch, three, at_vertex, at_edge, branch):
        assert not validate(M).link_spheres_ok
    assert CubicalCell.make((1, 1)) in validate(pinch).offending_cells
    assert validate(three).offending_cells == (
        CubicalCell.make((1, 1, 1)), CubicalCell.make((2, 1, 1)), CubicalCell.make((1, 1, 1), (0,))
    )
    assert validate(at_vertex).is_manifold and CubicalCell.make((1, 1, 1)) in validate(at_vertex).offending_cells
    assert validate(branch).offending_cells == (CubicalCell.make((1, 0)),)
    assert validate(apart).link_spheres_ok and not validate(apart).is_regular


def test_components_and_cycles_match_reference(amb2, amb3):
    """Component lists with a random set of blocked faces, and cycle
    validity of each complex, of its boundary and of two of its cells,
    against the references; the floods on cells and on codes agree."""
    rng = random.Random(41)
    cycles = Counter()
    for M in reference_cases(amb2, amb3):
        faces = sorted({f for c in M.cells for f in c.faces()})
        blocked = frozenset(f for f in faces if rng.random() < 0.3)
        assert components(M.cells, blocked=blocked) == reference_components(M.cells, M.m, blocked)
        assert components(M.cells) == reference_components(M.cells, M.m)
        codes = M.ambient.codes
        by_code = components([codes.code(c) for c in M.cells], codes.faces)
        assert [frozenset(map(codes.cell, p)) for p in by_code] == components(M.cells)
        bd = region_boundary(M.cells)
        for cells, dim in ((M.cells, M.m), (bd, M.m - 1), (frozenset(sorted(M.cells)[:2]), M.m)):
            if dim >= 0:
                got = Cycle(frozenset(cells), dim + 1).is_valid()
                assert got == reference_is_valid(frozenset(cells), dim)
                cycles[dim, got] += 1
    assert all(cycles[d, ok] for d in range(3) for ok in (False, True))



def test_is_cycle_on_hand_made_sets(amb2):
    """The one-flood cycle test against the face count plus `components`,
    on cells and on their codes, with the answers pinned: two vertices
    (a 0-sphere) and a square's ring are cycles; no set, one vertex, three
    vertices, two apart rings, a figure-eight (two rings at one vertex)
    and an open path are not."""
    def ring(x, y):
        return region_boundary([CubicalCell.make((x, y), (0, 1))])

    def vertices(*points):
        return frozenset(CubicalCell.make(p) for p in points)

    edge = CubicalCell.make((0, 0), (0,))
    cases = {
        "empty": (frozenset(), False),
        "one vertex": (vertices((0, 0)), False),
        "two vertices": (vertices((0, 0), (3, 1)), True),
        "three vertices": (vertices((0, 0), (1, 0), (3, 1)), False),
        "ring": (ring(0, 0), True),
        "two apart rings": (ring(0, 0) | ring(2, 2), False),
        "figure-eight": (ring(0, 0) | ring(1, 1), False),
        "open path": (frozenset([edge, CubicalCell.make((1, 0), (0,)), CubicalCell.make((2, 0), (1,))]), False),
    }
    codes = amb2.codes
    for name, (cells, want) in cases.items():
        assert is_cycle(cells) == reference_is_cycle(cells) == want, name
        ids = frozenset(map(codes.code, cells))
        assert is_cycle(ids, codes.faces) == reference_is_cycle(ids, codes.faces) == want, name


# ---------------------------------------------------------------------------
# References: the closure and `StateIndex` as they were built from cells,
# before each state had one code table.


def reference_closure(M):
    by_dim = defaultdict(set)
    for c in M.cells:
        for f in all_faces(c):
            by_dim[f.dim].add(f)
    return {d: frozenset(s) for d, s in by_dim.items()}


class ReferenceIndex:
    """`StateIndex` from cells: every table from sorted cells and dicts."""

    def __init__(self, M):
        self.m = m = M.m
        closure = reference_closure(M)
        self.vertices = tuple(sorted(c.base for c in closure.get(0, ())))
        self.vertex_id = {v: i for i, v in enumerate(self.vertices)}
        self.cells = tuple(sorted(M.cells))
        self.cell_id = {c: i for i, c in enumerate(self.cells)}
        self.faces = tuple(sorted(closure.get(m - 1, ())))
        face_id = {f: i for i, f in enumerate(self.faces)}
        self.cell_faces = tuple(face_id[f] for c in self.cells for f in c.faces())
        cofaces = [[] for _ in self.faces]
        for pos, f in enumerate(self.cell_faces):
            cofaces[f].append(pos // (2 * m))
        closed = all(len(cs) == 2 for cs in cofaces)
        self.face_cells = tuple(i for cs in cofaces for i in cs) if closed else None
        self.face_ridges = ((),) * len(self.faces)
        if m >= 2:
            ridge_id = {r: i for i, r in enumerate(sorted(closure.get(m - 2, ())))}
            self.face_ridges = tuple(tuple(map(ridge_id.__getitem__, f.faces())) for f in self.faces)
        vid = self.vertex_id
        if m == 1:
            ends = cell_vertices = self.cell_faces
        else:
            if m == 2:
                ends = [v for e in self.face_ridges for v in e]
            else:
                ends = [vid[v] for e in closure.get(1, ()) for v in e.vertices()]
            cell_vertices = [vid[v] for c in self.cells for v in c.vertices()]
        self.cell_vertices = np.array(cell_vertices, np.intp).reshape(len(self.cells), 1 << m)
        self.dist = _all_pairs_levels(len(self.vertices), ends)
        self.centers = tuple(c for k in sorted(closure) for c in sorted(closure[k]))
        rows = []
        for k, same_dim in groupby(self.centers, key=lambda c: c.dim):
            corners = [vid[v] for c in same_dim for v in c.vertices()]
            rows.append(self.dist[np.reshape(corners, (-1, 1 << k))].min(axis=1))
        self.center_dist = np.concatenate(rows) if rows else np.zeros((0, 0))
        axes = np.array([c.axes for c in self.cells], np.intp).reshape(len(self.cells), m)
        base = np.array([c.base for c in self.cells])
        plane = np.concatenate([axes, np.take_along_axis(base, axes, axis=1)], axis=1)
        self.cell_plane = np.unique(plane, axis=0, return_inverse=True)[1].reshape(-1)


def _first_seen(labels):
    """Class labels renumbered in order of first appearance."""
    seen = {}
    return [seen.setdefault(x, len(seen)) for x in labels]


def test_closure_and_index_match_reference(amb2, amb3):
    """The closure and every `StateIndex` table, read from the state's code
    table, against the copies built from cells, on every golden state, the
    contraction pool, the 3-sphere bounding a 2x2x2x1 block of 4-cells and
    seeded random subcomplexes of every dimension in 2-D, 3-D and 4-D
    (open, branched and disconnected ones too)."""
    cases = [M for path in sorted(GOLDEN_DIR.glob("*.json")) for M in golden_states(path.stem)]
    cases += contraction_pool(amb3)
    amb4 = build_ambient(4, [(-1, 4)] * 4)
    counts = Counter(
        f for b in product((0, 1), (0, 1), (0, 1), (0,)) for f in CubicalCell.make(b, range(4)).faces()
    )
    cases.append(ManifoldComplex.make(amb4, 3, [f for f, k in counts.items() if k == 1]))
    rng = random.Random(33)
    for amb in (amb2, amb3, amb4):
        for m in range(amb.n + 1):
            for _ in range(8):
                cases.append(random_connected_subcomplex(amb, m, rng.randint(1, 12), rng))
    assert {M.m for M in cases} == {0, 1, 2, 3, 4}
    for M in cases:
        closure = reference_closure(M)
        got = {d: frozenset(M.ambient.codes.cells(x)) for d, x in enumerate(M.table.closure) if len(x)}
        assert got == closure
        assert M.euler_characteristic() == sum((-1) ** d * len(s) for d, s in closure.items())
        ix, want = M.index, ReferenceIndex(M)
        for name in ("cells", "vertices", "vertex_id", "cell_id", "faces", "cell_faces", "face_cells", "face_ridges"):
            assert getattr(ix, name) == getattr(want, name), name
        for name in ("cell_vertices", "dist", "center_dist"):
            assert np.array_equal(getattr(ix, name), getattr(want, name)), name
        assert np.array_equal(ix.vertex_coords, np.reshape(want.vertices, (-1, M.ambient.n)))
        assert tuple(ix.centers) == want.centers and len(ix.centers) == len(want.centers)
        assert all(ix.centers[i] == c and ix.centers.index(c) == i for i, c in enumerate(want.centers))
        assert _first_seen(ix.cell_plane.tolist()) == _first_seen(want.cell_plane.tolist())


def test_center_index_of_cells_off_the_closure(ushape):
    """A cell off the closure, or off the ambient, or with axes no cell
    has, is no center and has no center id."""
    ix = ushape.index
    off = [
        CubicalCell.make((4, 4)),
        CubicalCell.make((0, 0), (0, 1)),
        CubicalCell.make((9, 0), (0,)),
        CubicalCell(1, (0, 0), (1, 0)),
    ]
    for cell in off:
        assert cell not in ix.centers
        with pytest.raises(ValueError):
            ix.centers.index(cell)
