"""Independent oracles and fixture builders for the test suite.

Oracles deliberately use a different cell representation (frozen vertex
sets) and independently written traversals, so they share no code path
with the implementation they check.
"""

import json
import math
import random
from collections import Counter, deque
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from pathlib import Path

import numpy as np

from gridtopo import CubicalCell, ManifoldComplex, build_ambient, validate
from gridtopo.complexes import components, region_boundary
from gridtopo.corpus import random_simple_curve
from gridtopo.curviness import fit_region
from gridtopo.errors import GridTopoError
from gridtopo.io import load_fixture, trace_from_json

GOLDEN_DIR = Path(__file__).parent / "golden"
FIXTURE_DIR = Path(__file__).parent / "fixtures"

# ---------------------------------------------------------------------------
# Builders.


def polyomino_boundary_cells(pixels):
    counts = Counter()
    for p in pixels:
        for f in CubicalCell.make(p, (0, 1)).faces():
            counts[f] += 1
    return [f for f, k in counts.items() if k == 1]


def solid_surface_cells(voxels):
    counts = Counter()
    for v in voxels:
        for f in CubicalCell.make(v, (0, 1, 2)).faces():
            counts[f] += 1
    return [f for f, k in counts.items() if k == 1]


def curve_from_pixels(ambient, pixels):
    return ManifoldComplex.make(ambient, 1, polyomino_boundary_cells(pixels))


def surface_from_voxels(ambient, voxels):
    return ManifoldComplex.make(ambient, 2, solid_surface_cells(voxels))


def cofaces(cell, up_axes):
    """Cells one dimension up that contain the cell.

    `up_axes` lists the ambient axes available for extension; each free
    axis yields two cofaces (extend forward, or backward by shifting
    the base).
    """
    for a in up_axes:
        if a in cell.axes:
            continue
        new_axes = tuple(sorted(cell.axes + (a,)))
        yield CubicalCell(cell.dim + 1, cell.base, new_axes)
        shifted = list(cell.base)
        shifted[a] -= 1
        yield CubicalCell(cell.dim + 1, tuple(shifted), new_axes)


def random_connected_subcomplex(ambient, m, n_cells, rng):
    """Grow a connected set of m-cells by random adjacent extensions."""
    lo = [e[0] + 1 for e in ambient.extent]
    hi = [e[1] - 2 for e in ambient.extent]
    base = tuple(rng.randint(l, max(l, h)) for l, h in zip(lo, hi))
    axes = tuple(sorted(rng.sample(range(ambient.n), m)))
    seed = CubicalCell.make(base, axes)
    cells = {seed}
    guard = 0
    while len(cells) < n_cells and guard < n_cells * 50:
        guard += 1
        c = rng.choice(sorted(cells))
        # neighbors across shared (m-1)-cells
        options = []
        for f in c.faces():
            for nb in cofaces(f, range(ambient.n)):
                if nb.dim == m and nb != c and ambient.contains_cell(nb) and nb not in cells:
                    options.append(nb)
        if options:
            cells.add(rng.choice(sorted(options)))
    return ManifoldComplex.make(ambient, m, cells)


def code_exclusion(ambient, cells):
    """The cells as a frozenset of codes on the ambient's codes, as
    `min_filling` takes an exclusion; a cell outside the ambient is in no
    ambient cell's closure, so it is left out."""
    codes = ambient.codes
    return frozenset(codes.code(c) for c in cells if ambient.contains_cell(c))


U_PIXELS = [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0), (2, 1), (2, 2)]
BOX333_VOXELS = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
TORUS_VOXELS = [v for v in BOX333_VOXELS if not (v[0] == 1 and v[1] == 1)]
# A 28-face sphere that the engine wrongly reports as obstructed (ROADMAP
# item 2); its arcs exercise both sides of the one-sided cut.
SPHERE28_VOXELS = [(0, 1, 0), (0, 1, 1), (0, 2, 1), (1, 1, 0), (1, 1, 1), (1, 2, 0), (1, 2, 1), (2, 2, 0)]
# Small irregular closed surfaces: the sphere above, the 2x2x2 cube minus a
# corner, and a bent four-voxel polycube.
POLYCUBE_VOXELS = [
    SPHERE28_VOXELS,
    [(x, y, z) for x in range(2) for y in range(2) for z in range(2) if (x, y, z) != (1, 1, 1)],
    [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)],
]


def random_polycube(rng, n):
    """A face-connected set of n voxels in the 3x3x3 block, grown from one
    voxel (the benchmark's polycube generator)."""
    vox = {(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))}
    while len(vox) < n:
        x, y, z = rng.choice(sorted(vox))
        w = [x, y, z]
        w[rng.randrange(3)] += rng.choice((-1, 1))
        if all(0 <= c <= 2 for c in w):
            vox.add(tuple(w))
    return tuple(sorted(vox))


def random_polycube_surfaces(amb3, count, seed):
    """The boundaries of the first `count` distinct polycubes of 3 to 12
    voxels, drawn from a fixed seed, whose boundary is a closed surface."""
    rng, seen, out = random.Random(seed), set(), []
    while len(out) < count:
        vox = random_polycube(rng, rng.randint(3, 12))
        if vox in seen:
            continue
        seen.add(vox)
        M = surface_from_voxels(amb3, vox)
        if validate(M).ok:
            out.append(M)
    return out


def contraction_pool(amb3):
    """The fixtures of the goldens, 30 of criterion 7's curves and the
    surfaces of POLYCUBE_VOXELS: a small pool that splits, flips curves
    and surfaces, and ends at spheres and an obstruction."""
    pool = [load_fixture(FIXTURE_DIR / f"{p.stem}.txt") for p in sorted(GOLDEN_DIR.glob("*.json"))]
    amb = build_ambient(2, [(0, 15), (0, 15)])
    rng = random.Random(20260809)  # criterion 7's seed
    pool += [random_simple_curve(amb, rng, max_perimeter=60) for _ in range(30)]
    return pool + [surface_from_voxels(amb3, voxels) for voxels in POLYCUBE_VOXELS]


def bbox_top_cells(ambient, verts):
    """Top cells of the vertices' bounding block, one cell wider on every
    side and clipped to the ambient, in canonical order (the block of the
    one-sided cut network)."""
    coords = list(zip(*verts))
    ranges = [range(max(min(x) - 1, l), min(max(x), h - 1) + 1) for x, (l, h) in zip(coords, ambient.extent)]
    axes = tuple(range(ambient.n))
    return [CubicalCell(ambient.n, base, axes) for base in product(*ranges)]


def reference_ball(M, center, gamma):
    """`metric.ball` by a fresh breadth-first search from the center."""
    table = bfs_levels(edge_graph_of_complex(M), *center.vertices())
    return frozenset(c for c in M.cells if all(table.get(v, gamma + 1) <= gamma for v in c.vertices()))


def reference_candidate_arcs(M, gamma):
    """`curviness.candidate_arcs` as it was before the batch scan, and
    before it dropped arcs on their bounds: a fit at every closure center
    in canonical order, failed fits skipped, the first center of each
    region kept."""
    seen = {}
    for center in sorted(complex_closure(M)):
        try:
            arc = fit_region(M, center, gamma)
        except GridTopoError:
            continue
        seen.setdefault(arc.region, arc)
    return sorted(seen.values(), key=lambda a: (a.center, a.gamma))


def filling_lower_bound(ambient, cycle):
    """Fewest cells any filling of the cycle can have, from the cycle's
    cells: the bound `curviness._lower_bounds` reads from a region.

    A curve's filling is a grid path between the cycle's two vertices, no
    shorter than their Manhattan distance.  A surface's is the larger of
    two bounds.  Each cell of a filling has 2m faces, and every cycle cell
    must be one of them.  And projecting onto a coordinate m-plane, which
    keeps a cell with its axes among the plane's as its shadow and drops
    any other, commutes with the boundary mod 2: the shadows of a filling
    fill the shadows of the cycle, and in the plane that filling is
    unique, so the filling has at least that many cells with the plane's
    axes.  Summed over the planes this is the projection bound
    (`projection_bound`); for a curve it is the Manhattan distance.
    """
    if cycle.dim == 0:
        p, q = (v.base for v in cycle.cells)
        return sum(abs(a - b) for a, b in zip(p, q))
    return max(1, math.ceil(len(cycle.cells) / (2 * cycle.m)), projection_bound(ambient.n, cycle))


def projection_bound(n, cycle):
    """Cells, summed over the coordinate m-planes of an n-d ambient, of the
    one filling of the cycle's shadows in each plane.

    As in `filling.enclosed_cells`, a plane cell is in it when a ray down
    the plane's first axis crosses the shadows an odd number of times: a
    running XOR, along that axis, of the shadows across it.  Two cycle
    cells may share a shadow, which then cancels.
    """
    total = 0
    for plane in combinations(range(n), cycle.m):
        across = plane[1:]
        shadows = [[c.base[a] for a in plane] for c in cycle.cells if c.axes == across]
        if not shadows:
            continue
        at = np.array(shadows)
        lo = at.min(axis=0)
        crossings = np.zeros(at.max(axis=0) - lo + 1, np.uint8)
        np.add.at(crossings, tuple((at - lo).T), 1)
        total += int(np.bitwise_xor.accumulate(crossings & 1, axis=0).sum())
    return total


def corner_gap(cell, verts):
    """Least grid distance from one of the cell's corners to one of the
    vertices."""
    return min(sum(abs(a - b) for a, b in zip(v, u)) for v in cell.vertices() for u in verts)


def measure_bound(arc, lb, variant):
    """Upper bound on the arc's measure against any filling of >= lb cells,
    from its cells: `curviness._fit_measure_bound` of its fit.

    The height is taken to the cycle's vertices, which every filling
    includes, and the span is the cycle's, which no filling undercuts.
    """
    if variant == "ratio":
        return Fraction(arc.N, lb)
    if variant == "diff":
        return arc.N - lb
    verts = vertices_of(arc.cycle.cells)
    h = max(corner_gap(c, verts) for c in arc.region)
    if variant == "height":
        return h
    span = max(sum(abs(a - b) for a, b in zip(u, v)) for u in verts for v in verts)
    return Fraction(h, max(1, span))


def golden_states(name):
    """Every state of tests/golden/<name>.json, root trace then children."""
    doc = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    for d in [doc, *doc.get("children", {}).values()]:
        trace = trace_from_json(d)
        for state in trace.states():
            yield ManifoldComplex(trace.ambient, trace.m, state)


def reference_is_cycle(items, faces_of=CubicalCell.faces):
    """`complexes.is_cycle` as it was before its one-flood form: a face
    count, then the `components` union-find over the items."""
    counts = Counter(f for x in items for f in faces_of(x))
    if not counts:
        return len(items) == 2
    return all(k == 2 for k in counts.values()) and len(components(items, faces_of)) == 1


def reference_random_simple_curve(ambient, rng, max_perimeter=60, max_cells=25):
    """`corpus.random_simple_curve` as it was before its local tests: each
    growth attempt rebuilds the trial region's boundary and runs a full
    `validate` on it."""
    if ambient.n != 2:
        raise ValueError("curves need a 2-d ambient")
    lo = [e[0] + 2 for e in ambient.extent]
    hi = [e[1] - 3 for e in ambient.extent]
    seed = (rng.randint(lo[0], hi[0]), rng.randint(lo[1], hi[1]))
    region = {seed}

    def boundary_complex(cells):
        squares = [CubicalCell.make(c, (0, 1)) for c in cells]
        return ManifoldComplex.make(ambient, 1, region_boundary(squares))

    target = rng.randint(2, max_cells)
    attempts = 0
    while len(region) < target and attempts < 200:
        attempts += 1
        base = rng.choice(sorted(region))
        dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
        cand = (base[0] + dx, base[1] + dy)
        if cand in region:
            continue
        if not (lo[0] <= cand[0] <= hi[0] and lo[1] <= cand[1] <= hi[1]):
            continue
        trial = region | {cand}
        M = boundary_complex(trial)
        if M.n_cells > max_perimeter:
            continue
        if validate(M).ok:
            region = trial
    return boundary_complex(region)


# ---------------------------------------------------------------------------
# Independent BFS oracle over explicit adjacency dictionaries.


def bfs_levels(adjacency, *sources):
    """Edge counts from the nearest of the sources, for the vertices they
    reach."""
    seen = dict.fromkeys(sources, 0)
    frontier = list(seen)
    level = 0
    while frontier:
        level += 1
        nxt = []
        for u in frontier:
            for v in adjacency.get(u, ()):
                if v not in seen:
                    seen[v] = level
                    nxt.append(v)
        frontier = nxt
    return seen


@lru_cache(maxsize=16)
def edge_graph_of_complex(M):
    """Each vertex's neighbours along the edges of M's closure; cached, so
    the caller may not change it."""
    adjacency = {}
    for e in (c for c in closure_of(M.cells) if c.dim == 1):
        (a,) = e.axes
        u = e.base
        w = list(u)
        w[a] += 1
        w = tuple(w)
        adjacency.setdefault(u, set()).add(w)
        adjacency.setdefault(w, set()).add(u)
    return adjacency


@lru_cache(maxsize=16)
def grid_graph(extent):
    """Each vertex's neighbours in the box `extent`, a tuple of (lo, hi)
    pairs; cached, so the caller may not change it."""
    adjacency = {}
    ranges = [range(lo, hi + 1) for lo, hi in extent]
    for v in product(*ranges):
        nbs = set()
        for a in range(len(extent)):
            for d in (-1, 1):
                w = list(v)
                w[a] += d
                if extent[a][0] <= w[a] <= extent[a][1]:
                    nbs.add(tuple(w))
        adjacency[v] = nbs
    return adjacency


# ---------------------------------------------------------------------------
# k-cell chain oracle: cells as frozen vertex sets.


def _grid_k_cells(extent, k):
    n = len(extent)
    cells = []
    for axes in combinations(range(n), k):
        ranges = []
        for i in range(n):
            lo, hi = extent[i]
            ranges.append(range(lo, hi) if i in axes else range(lo, hi + 1))
        for base in product(*ranges):
            vs = []
            for offs in product((0, 1), repeat=k):
                v = list(base)
                for a, o in zip(axes, offs):
                    v[a] += o
                vs.append(tuple(v))
            cells.append(frozenset(vs))
    return cells


def _complex_k_cells(M, k):
    return [frozenset(c.vertices()) for c in closure_of(M.cells) if c.dim == k]


def oracle_chain_distance(space, x, y, k, extent=None):
    """Minimum k-cells in a chain from x to y, consecutive cells sharing
    2^(k-1) vertices (a common (k-1)-cell for unit cubes)."""
    if extent is not None:
        cells = _grid_k_cells(extent, k)
    else:
        cells = _complex_k_cells(space, k)
    share = 2 ** (k - 1)
    starts = [c for c in cells if x in c]
    if not starts:
        return None
    dist = {c: 1 for c in starts}
    queue = deque(starts)
    best = None
    for c in starts:
        if y in c:
            return 1
    while queue:
        c = queue.popleft()
        d = dist[c]
        if best is not None and d >= best:
            continue
        for other in cells:
            if other not in dist and len(c & other) == share:
                dist[other] = d + 1
                if y in other:
                    best = d + 1 if best is None else min(best, d + 1)
                else:
                    queue.append(other)
    return best


# ---------------------------------------------------------------------------
# Exhaustive filling oracles.


def oracle_min_paths(extent, p, q, cap):
    """All minimum-length simple vertex paths p -> q by exhaustive DFS."""
    best = [None]
    found = []

    def neighbors(v):
        for a in range(len(extent)):
            for d in (-1, 1):
                w = list(v)
                w[a] += d
                if extent[a][0] <= w[a] <= extent[a][1]:
                    yield tuple(w)

    def dfs(v, path):
        if best[0] is not None and len(path) - 1 > best[0]:
            return
        if v == q:
            length = len(path) - 1
            if best[0] is None or length < best[0]:
                best[0] = length
                found.clear()
            if length == best[0]:
                found.append(list(path))
            return
        if len(path) - 1 >= cap:
            return
        for w in neighbors(v):
            if w not in path:
                path.append(w)
                dfs(w, path)
                path.pop()

    dfs(p, [p])
    return best[0], found


def face_vertices(cell):
    return frozenset(cell.vertices())


def vertices_of(cells):
    """Every vertex of the cells."""
    return frozenset(v for c in cells for v in c.vertices())


def all_faces(cell):
    """Every cell of the cell's closure, itself included, down to vertices:
    each subset of its axes, with the base moved by 0 or 1 on the others."""
    for k in range(cell.dim, -1, -1):
        for sub in combinations(cell.axes, k):
            dropped = [a for a in cell.axes if a not in sub]
            for offs in product((0, 1), repeat=len(dropped)):
                b = list(cell.base)
                for a, o in zip(dropped, offs):
                    b[a] += o
                yield CubicalCell(k, tuple(b), sub)


def closure_of(cells):
    """Every cell of the cells' closures, themselves included."""
    return frozenset(f for c in cells for f in all_faces(c))


@lru_cache(maxsize=16)
def complex_closure(M):
    """Every cell of M's closure, from its cells; cached per complex."""
    return closure_of(M.cells)


def _face_edges(face):
    """Edges of a face given as a frozenset of 4 vertices."""
    vs = sorted(face)
    edges = []
    for a, b in combinations(vs, 2):
        if sum(abs(x - y) for x, y in zip(a, b)) == 1:
            edges.append(frozenset((a, b)))
    return edges


def oracle_min_surface_fillings(extent, cycle_edges, max_n, budget=2_000_000):
    """Minimum face sets whose boundary is exactly the given edge set.

    Faces are frozen vertex quadruples; connected candidate sets are grown
    from faces covering the smallest cycle edge, exhaustively up to max_n.
    """
    all_faces = _grid_k_cells(extent, 2)
    by_edge = {}
    for f in all_faces:
        for e in _face_edges(f):
            by_edge.setdefault(e, []).append(f)
    target = set(cycle_edges)
    anchor = sorted(target, key=sorted)[0]

    def boundary(fs):
        cnt = Counter()
        for f in fs:
            for e in _face_edges(f):
                cnt[e] += 1
        if any(k > 2 for k in cnt.values()):
            return None
        return {e for e, k in cnt.items() if k == 1}

    nodes = [0]

    for bound in range(1, max_n + 1):
        results = []
        seen = set()

        def grow(fs):
            nodes[0] += 1
            if nodes[0] > budget:
                raise RuntimeError("oracle budget exhausted")
            bd = boundary(fs)
            if bd is not None and bd == target:
                if len(fs) == bound:
                    results.append(set(fs))
                return
            if len(fs) >= bound:
                return
            if bd is not None:
                # each extra face toggles at most 4 edges of the boundary
                deficit = len(bd.symmetric_difference(target))
                if len(fs) + (deficit + 3) // 4 > bound:
                    return
            frontier = set()
            for f in fs:
                for e in _face_edges(f):
                    for g in by_edge.get(e, ()):
                        if g not in fs:
                            frontier.add(g)
            for g in sorted(frontier, key=sorted):
                nfs = fs | {g}
                key = frozenset(nfs)
                if key in seen:
                    continue
                seen.add(key)
                grow(nfs)

        for f0 in sorted(by_edge.get(anchor, ()), key=sorted):
            key = frozenset([f0])
            if key not in seen:
                seen.add(key)
                grow({f0})
        if results:
            return bound, results
    return None, []
