"""Boundary-cycle fitting, curviness measures, peak selection, arc signs.

The curviness of an arc compares its cell count against the cell count of
a filling of its boundary, in the scan its replacement filling.  A
`CurvinessReport` holds the arc and the filling, and computes each of four
measures when it is read: the ratio, the difference, the height of the arc
over the filling, and the height scaled by the filling span.  Peaks are selected by scanning balls
around every cell of the manifold closure; using edges and faces as ball
centers in addition to vertices reaches the odd-diameter arcs a vertex
center cannot produce.

An arc is fitted one way: `fit_region(M, center, gamma)` grows the ball of
radius gamma around the center into a region whose boundary is one regular
cycle and returns its `ArcRegion`, or raises `NoFittingCycle` with gamma
as its level.  `candidate_arcs` fits every center's ball at once, in one
array pass on ids: a ball is certified by counts first (`_disks`: a curve
arc with two ends, or a surface ball that is one piece, with every vertex
in 0 or 2 boundary edges and Euler characteristic 1, so a disk), and is
then its own fit; any other ball goes through the same growth (`_grow`).
The module is `gridtopo.curviness`; the report function is
`gridtopo.curviness.curviness`.

The scan functions (`valid_reports`, `replacement_filling`, `curviness`,
`arc_sign`) take a `filling.ScanContext`: one manifold state plus the
run's curviness variant, which ranks the reports.  The fixed filling cap
(`filling.FILLING_CAP`) bounds every replacement.

A replacement filling keeps off M outside its arc: a shortest path for a
curve, the better one-sided minimum cut for a surface, which is exact.
The exact surface search serves only fillings free to run through M: the
lofted circles and the obstruction probe.

`valid_reports` is lazy.  `candidate_arcs` fits its candidates on the ids
of `M.index`, each kept as its row of the scan (`ArcFit`: center id, and
bytes marking the region's cell ids and the boundary's face ids), each
with a lower bound on the size of any filling of its cycle, read from the
region (`_lower_bounds`): the larger of a face count and the projection
bound, the cells of the region's shadows that survive mod 2 on the
coordinate m-planes (for curves the endpoint distance).  Projection
commutes with the boundary, so every filling has at least that many
cells, and a fit whose bound exceeds the replacement cap has no reducing
filling: it is dropped before its `ArcFit` is built.  The bound caps each
measure from above (`_fit_measure_bound`) before any cell is built.  The
candidates wait in one heap with the solved reports, and a replacement
filling is solved only while a waiting candidate could still beat or tie
the best solved report, so the first report costs a few solves instead of
one per candidate.  Only a candidate taken up for solving is read as id
sets and built as cells, an `ArcRegion`.  Its replacement filling, when
there is one, is within the replacement cap, so it reduces.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from .cells import Coord, CubicalCell
from .complexes import Cycle, ManifoldComplex, is_cycle
from .errors import CodimensionUnsupported, FillingNotFound, NoFittingCycle
from .filling import (  # VARIANTS is re-exported here, beside the measures
    FILLING_CAP,
    VARIANTS,
    Filling,
    ScanContext,
    check_variant,
    min_filling,
    one_sided_min_cut,
)
from .metric import ball

CellSet = FrozenSet[CubicalCell]


@dataclass(frozen=True)
class ArcRegion:
    """A candidate peak or valley: a sub-half region of M and its boundary."""

    center: CubicalCell
    gamma: int
    region: CellSet
    cycle: Cycle

    @property
    def N(self) -> int:
        return len(self.region)


class ArcFit(NamedTuple):
    """A candidate arc on the ids of `M.index`: its center's id in
    `centers`, and the scan's rows of marks for its region's cell ids and
    its boundary's face ids, one byte per id, 1 when marked."""

    center: int
    region: bytes
    boundary: bytes

    @property
    def size(self) -> int:
        """The region's cell count."""
        return self.region.count(1)

    def arc(self, M: ManifoldComplex, gamma: int) -> ArcRegion:
        """The fit as cells, on the state M it was fitted on."""
        region, boundary = (np.flatnonzero(np.frombuffer(b, bool)).tolist() for b in (self.region, self.boundary))
        return _arc(M, M.index.centers[self.center], gamma, region, boundary)


def _arc(
    M: ManifoldComplex, center: CubicalCell, gamma: int, region: Iterable[int], boundary: Iterable[int]
) -> ArcRegion:
    """The arc of a fit given by its region's cell ids and its boundary's
    face ids in `M.index`."""
    ix = M.index
    cycle = Cycle(frozenset(map(ix.faces.__getitem__, boundary)), M.m)
    return ArcRegion(center, gamma, frozenset(map(ix.cells.__getitem__, region)), cycle)


@dataclass(frozen=True)
class CurvinessReport:
    """A solved candidate: its arc and the filling it is measured against.
    Each measure is computed when read; `measure` names them by variant."""

    arc: ArcRegion
    filling: Filling

    @property
    def center(self) -> CubicalCell:
        return self.arc.center

    @property
    def gamma(self) -> int:
        return self.arc.gamma

    @property
    def r(self) -> Fraction:
        return Fraction(self.arc.N, self.filling.N)

    @property
    def r1(self) -> int:
        return self.arc.N - self.filling.N

    @property
    def r2_h(self) -> int:
        return _height(self.arc.region, self.filling.vertices)

    @property
    def r3(self) -> Fraction:
        span = _span(self.filling.vertices)
        return Fraction(self.r2_h, span) if span else Fraction(0)

    def measure(self, variant: str):
        check_variant(variant)
        return getattr(self, _MEASURES[variant])


_MEASURES = dict(zip(VARIANTS, ("r", "r1", "r2_h", "r3")))  # each variant's report property


def fit_region(M: ManifoldComplex, center: CubicalCell, gamma: int) -> ArcRegion:
    """The arc around a center: its ball of radius gamma, grown into a
    region whose boundary is one regular cycle.

    The ball (`metric.ball`) is extended by the canonically smallest cells
    of M across its boundary until the topological boundary is a single
    closed regular (m-1)-manifold, or the region would exceed half of M,
    which raises NoFittingCycle with gamma as its level.  M must be closed
    and connected, as every state `contract` reaches is; the region is then
    one piece and the cycle separates M.  The search runs on the ids of
    `M.index` (`_grow`); cells are built only for the returned arc.
    """
    cells = ball(M, center, gamma)
    if not cells:
        raise NoFittingCycle(gamma, "empty region")
    if len(cells) > len(M.cells) // 2:
        raise NoFittingCycle(gamma, f"region of {len(cells)} cells exceeds half of {len(M.cells)}")
    ix = M.index
    region = {ix.cell_id[c] for c in cells}
    bd = _grow(ix, M.m, region)
    if bd is None:
        raise NoFittingCycle(gamma, "no regular separating cycle within half of M")
    return _arc(M, center, gamma, region, bd)


_NOT_CLOSED = "fitting arcs needs a closed manifold: a face lies in other than two cells"


def _grow(ix, m: int, region: Set[int]) -> Optional[Set[int]]:
    """`fit_region` on cell ids: grows the non-empty `region`, of at most
    half of M's cells, in place, and returns its boundary's face ids, or
    None when no fit stays within half of M.

    A region whose boundary is one cycle is one piece, as M is closed and
    connected: each piece of the region is not all of M, so it has a
    non-empty boundary, and no face bounds two pieces.  Two such
    boundaries meeting at a ridge would give it four or more boundary
    faces (a curve's pieces give four or more vertices), so a connected
    boundary with every ridge in two faces bounds a single piece.
    """
    if ix.face_cells is None:
        raise ValueError(_NOT_CLOSED)
    k = 2 * m
    cell_faces, face_cells = ix.cell_faces, ix.face_cells
    half = len(ix.cells) // 2
    bd = set()  # faces with an odd number of cells in the region
    for i in region:
        bd.symmetric_difference_update(cell_faces[k * i : k * i + k])

    ridges = ix.face_ridges.__getitem__
    while True:
        if is_cycle(bd, ridges):
            return bd
        # Repair: absorb the smallest cell of M across the current
        # boundary; each absorption can only merge components or remove a
        # boundary defect, and the region stops at half of M.  A boundary
        # face has one of its two cells in the region; the other is a
        # candidate.
        candidates = set()
        for f in bd:
            a, b = face_cells[2 * f], face_cells[2 * f + 1]
            candidates.add(b if a in region else a)
        if not candidates or len(region) + 1 > half:
            return None
        c = min(candidates)
        region.add(c)
        bd.symmetric_difference_update(cell_faces[k * c : k * c + k])


def corner_gaps(cells: Sequence[CubicalCell], verts: Iterable[Coord]) -> List[int]:
    """Each cell's least grid distance from one of its corners to one of
    the vertices, in the cells' order: 0 for a cell with a corner among
    them.  A height is their largest; `deform.interpolate` peels by them."""
    corners = np.array([list(c.vertices()) for c in cells])  # cell, corner, axis
    gaps = np.abs(corners[:, :, None, :] - np.array(list(verts))).sum(axis=3)
    return gaps.min(axis=(1, 2)).tolist()


def _height(region: CellSet, verts: FrozenSet[Coord]) -> int:
    """Largest corner gap of the region's cells to the vertices."""
    return max(corner_gaps(list(region), verts))


def _span(verts: Iterable[Coord]) -> int:
    """Largest grid distance between two of the vertices."""
    points = np.array(list(verts))
    return int(np.abs(points[:, None, :] - points).sum(axis=2).max(initial=0))


def _best_one_sided_cut(ctx: ScanContext, arc: ArcRegion, cap: int) -> Optional[CellSet]:
    """Filling cells of the smaller one-sided minimum cut of at most `cap`
    cells, inside on ties."""
    best = None
    for side in ("inside", "outside"):
        got = one_sided_min_cut(ctx, arc.region, side, cap)
        if got is not None and (best is None or len(got[0]) < len(best)):
            best = got[0]
    return best


def curviness(ctx: ScanContext, arc: ArcRegion, filling: Filling) -> CurvinessReport:
    """The curviness report of an arc against a filling of its boundary;
    the measures are read from it."""
    return CurvinessReport(arc=arc, filling=filling)


def replacement_filling(ctx: ScanContext, arc: ArcRegion) -> Optional[Filling]:
    """Smallest filling of the arc boundary that avoids M outside it.

    Only fillings strictly smaller than both sides of the split are
    useful, so the size cap is tightened accordingly.  Curves take the
    shortest path that keeps off M's closure; surfaces take the better
    one-sided minimum cut, which is exact here.  A valid replacement F
    meets M's closure only inside the cycle's closure and is connected,
    so F less the cycle lies on one side of M.  F and the arc A together
    form a 2-cycle, which in the box bounds one voxel set V on F's side,
    and so F = A + boundary(V) (mod 2): one of that side's cuts, and the
    least cut is a least replacement.  This is the graph-cut construction
    of minimal surfaces, on one side of M: Sullivan, "A crystalline
    approximation theorem for hypersurfaces" (PhD thesis, Princeton
    1990); Boykov & Kolmogorov, "Computing geodesics and minimal surfaces
    via graph cuts" (ICCV 2003).
    """
    M = ctx.M
    eff_cap = _replacement_cap(ctx, arc.N)
    if eff_cap < 1:
        return None
    if M.m == 1:
        try:
            return min_filling(M.ambient, arc.cycle, exclude=ctx.exclusion, cap=eff_cap)
        except FillingNotFound:
            return None
    cut = _best_one_sided_cut(ctx, arc, eff_cap)
    return None if cut is None else Filling(cells=cut, boundary=arc.cycle)


def _replacement_cap(ctx: ScanContext, n: int) -> int:
    """Most cells a useful replacement filling of an arc of n cells may
    have: fewer than the arc and than the rest of M."""
    return min(FILLING_CAP, n - 1, len(ctx.M.cells) - n - 1)


def _fit_measure_bound(M: ManifoldComplex, gamma: int, fit: ArcFit, lb: int, variant: str):
    """Upper bound on the measure of the fit's arc against any filling of
    at least lb cells.

    The ratio and the difference need only the region's size.  The
    heights build the arc: its height is taken to the cycle's vertices,
    which every filling includes, and the span is the cycle's, which no
    filling undercuts.
    """
    if variant == "ratio":
        return Fraction(fit.size, lb)
    if variant == "diff":
        return fit.size - lb
    arc = fit.arc(M, gamma)
    cycle_verts = frozenset(v for c in arc.cycle.cells for v in c.vertices())
    h = _height(arc.region, cycle_verts)
    if variant == "height":
        return h
    return Fraction(h, max(1, _span(cycle_verts)))


def candidate_arcs(ctx: ScanContext, gamma: int) -> List[Tuple[ArcFit, int]]:
    """The distinct fits at radius gamma that may have a reducing filling,
    each with a lower bound on the size of any filling of its cycle
    (`_lower_bounds`), on ids.

    One array pass over every center's ball: the balls come from one
    threshold of the state's center-to-vertex distances
    (`StateIndex.center_dist`), and a ball that is empty or holds more than
    half of M has no fit.  A ball that `_disks` certifies is its own fit;
    every other ball is grown on cell ids (`_grow`).  A fit whose lower
    bound (`_lower_bounds`) exceeds `_replacement_cap` has no reducing
    filling and is dropped unbuilt.  The first center in canonical order
    keeps each distinct region; the bound and the cap depend on the region
    alone, so dropping before that choice changes no kept center.  Fits
    come in the canonical order of their centers, and no cell is built:
    `ArcFit.arc` gives a fit's `ArcRegion`.
    """
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    M = ctx.M
    ix, m = M.index, M.m
    if ix.face_cells is None:
        raise ValueError(_NOT_CLOSED)
    n = len(ix.cells)
    in_ball = (ix.center_dist <= gamma)[:, ix.cell_vertices].all(axis=2)
    size = in_ball.sum(axis=1)
    centers = np.flatnonzero((size > 0) & (size <= n // 2))
    regions = in_ball[centers]  # one row per center, grown in place
    faces = np.reshape(ix.face_cells, (-1, 2))
    fitted = _disks(ix, m, regions, regions[:, faces[:, 0]] ^ regions[:, faces[:, 1]])
    for row in np.flatnonzero(~fitted).tolist():
        region = set(np.flatnonzero(regions[row]).tolist())
        if _grow(ix, m, region) is not None:
            regions[row, list(region)] = fitted[row] = True
    bd = regions[:, faces[:, 0]] ^ regions[:, faces[:, 1]]
    size = regions.sum(axis=1)
    cap = np.minimum(np.minimum(FILLING_CAP, size - 1), n - size - 1)  # `_replacement_cap` by row
    bound = _lower_bounds(ix, m, regions, bd)
    first = {}  # each region's first center, by the region's row of marks
    for row in np.flatnonzero(fitted & (bound <= cap)).tolist():
        first.setdefault(regions[row].tobytes(), row)
    kept = list(first.values())
    return [
        (ArcFit(center, region, bd[row].tobytes()), lb)
        for (region, row), center, lb in zip(first.items(), centers[kept].tolist(), bound[kept].tolist())
    ]


def _disks(ix, m: int, balls: np.ndarray, bd: np.ndarray) -> np.ndarray:
    """Which balls are their own fit, certified from counts alone; `balls`
    and `bd` mark, one row per ball, its cell ids and its boundary's face
    ids.

    A curve's ball is one arc exactly when it has two boundary vertices.
    A surface's ball with every vertex in 0 or 2 boundary edges is a
    surface with boundary; when it is also one piece with Euler
    characteristic V - E + F = 1 it is a disk, whose boundary is one
    cycle.  Annuli, handles and every ball for m >= 3 are left to growth.
    """
    if m == 1:
        return bd.sum(axis=1) == 2
    if m > 2:
        return np.zeros(len(balls), bool)
    n, nv = len(ix.cells), len(ix.dist)
    edge_at = np.zeros((bd.shape[1], nv), np.float32)  # each edge's two vertices
    edge_at[np.arange(bd.shape[1])[:, None], np.reshape(ix.face_ridges, (-1, 2))] = 1
    cell_at = np.zeros((n, nv), np.float32)  # each cell's four vertices
    cell_at[np.arange(n)[:, None], ix.cell_vertices] = 1
    bd_at = bd.astype(np.float32) @ edge_at
    ok = ((bd_at == 0) | (bd_at == 2)).all(axis=1)
    # Each cell has four edges, and only a boundary edge lies in one ball
    # cell, so 2E = 4F + |bd| and V - E + F = V - F - |bd| / 2.
    V = (balls.astype(np.float32) @ cell_at > 0).sum(axis=1)
    ok &= V - balls.sum(axis=1) - bd.sum(axis=1) // 2 == 1
    ok[ok] = _pieces(ix, m, balls[ok]) == 1
    return ok


def _pieces(ix, m: int, regions: np.ndarray) -> np.ndarray:
    """How many pieces each row's region has, joined across shared faces:
    every cell takes the least id of its piece, spread face by face, and
    each piece keeps one cell with its own id."""
    n = len(ix.cells)
    ids = np.arange(n)
    faces = np.reshape(ix.face_cells, (-1, 2))
    neighbour = faces[np.reshape(ix.cell_faces, (n, 2 * m))].sum(axis=2) - ids[:, None]  # across each face
    least = np.where(regions, ids, n)  # n: not in the region
    while True:
        spread = np.where(regions, np.minimum(least, least[:, neighbour].min(axis=2)), n)
        if (spread == least).all():
            return (least == ids).sum(axis=1)
        least = spread


def _lower_bounds(ix, m: int, regions: np.ndarray, bd: np.ndarray) -> np.ndarray:
    """Fewest cells any filling of each row's cycle can have, read from its
    region's cell ids and its boundary's face ids: the larger of the face
    count bound (a filling cell has 2m faces) and the projection bound,
    which counts the region's projection classes (`StateIndex.cell_plane`)
    that hold an odd number of its cells.  For a curve arc, whose boundary
    is its first and last vertex, that is the Manhattan distance between
    them; a row whose boundary is not two
    vertices has no fit, and its value is of no use."""
    if m == 1:  # a curve's faces are its vertices, by vertex id
        ends = ix.vertex_coords[[bd.argmax(axis=1), bd.shape[1] - 1 - bd[:, ::-1].argmax(axis=1)]]
        return np.abs(ends[0] - ends[1]).sum(axis=1)
    n = len(ix.cells)
    in_class = np.zeros((n, int(ix.cell_plane.max()) + 1), np.float32)
    in_class[np.arange(n), ix.cell_plane] = 1
    odd = (regions.astype(np.float32) @ in_class).astype(np.intp) & 1
    return np.maximum(-(-bd.sum(axis=1) // (2 * m)), odd.sum(axis=1))


def valid_reports(ctx: ScanContext, gamma: int) -> Iterator[CurvinessReport]:
    """Curviness reports for every arc admitting a reducing filling.

    An arc enters the valid set only when a filling avoiding M exists and
    its volume is smaller than both components of the split: a
    replacement filling is, as it fits `_replacement_cap`.  Reports are
    yielded best first by the context's variant, centers breaking ties.

    Lazy: candidates wait under upper bounds on their measures, in one
    heap with the solved reports, as (-bound, center id, fit) and
    (-measure, center id, report).  No two entries share a center, so each
    pop is the best entry: a report to yield, or a candidate to solve,
    whose report goes back in.  `candidate_arcs` has already dropped every
    fit whose filling lower bound exceeds the replacement cap.  The bounds
    are read from ids (the height variants build the arc for theirs);
    center ids follow canonical order, so ties fall as on cells.
    """
    M, variant = ctx.M, ctx.variant
    queue = [
        (-_fit_measure_bound(M, gamma, fit, lb, variant), fit.center, fit) for fit, lb in candidate_arcs(ctx, gamma)
    ]
    heapq.heapify(queue)
    while queue:
        _, center, item = heapq.heappop(queue)
        if isinstance(item, CurvinessReport):
            yield item
            continue
        arc = item.arc(M, gamma)
        filling = replacement_filling(ctx, arc)
        if filling is None:
            continue
        rep = curviness(ctx, arc, filling=filling)
        heapq.heappush(queue, (-rep.measure(variant), center, rep))


def radius_schedule_from(d: int) -> Iterator[int]:
    """Radii of the halving schedule for a diameter d: a quarter of it,
    then halvings down to 1."""
    g = max(1, d // 4)
    yield g
    while g > 1:
        g //= 2
        yield g


def arc_sign(ctx: ScanContext, arc: ArcRegion, filling: Filling) -> str:
    """Classify an arc as peak, valley, or flat by its filling side.

    Works in codimension one only, where the bounded component of the
    ambient is well defined; the filling sits inside it for a peak and
    outside for a valley.  It is flat when every arc cell has a vertex on
    the filling: its height over the filling is 0.
    """
    M = ctx.M
    if M.ambient.n != M.m + 1:
        raise CodimensionUnsupported(f"m={M.m} in ambient n={M.ambient.n}")
    verts = filling.vertices
    if all(not verts.isdisjoint(c.vertices()) for c in arc.region):
        return "flat"
    inside = ctx.inside
    for c in sorted(filling.cells):
        if c in M.cells:
            continue
        if any(t in inside for t in M.ambient.top_cells_containing(c)):
            return "peak"
        return "valley"
    return "flat"
