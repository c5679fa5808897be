"""Randomized test corpus: simple closed curves.

Generation is driven by a caller-supplied random.Random so corpora are
reproducible from a seed.
"""

from __future__ import annotations

import bisect
import random

from .cells import AmbientSpace, CubicalCell
from .complexes import ManifoldComplex, region_boundary

_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def random_simple_curve(
    ambient: AmbientSpace, rng: random.Random, max_perimeter: int = 60, max_cells: int = 25
) -> ManifoldComplex:
    """Boundary of a random simply connected polyomino, margin kept.

    The polyomino grows from a random seed square toward a random size of
    2 to `max_cells` squares, in at most 200 attempts that each try a
    random edge neighbour of a random square.  The neighbour is added when
    the boundary stays one closed curve of at most `max_perimeter` edges,
    which two local tests decide, with no boundary rebuilt:
    - the perimeter grows by 4 less twice the sides the square shares;
    - V - E + F of the region's closure stays 1: the square adds 1 face,
      4 - sides edges and the corners it does not share.
    The second test holds exactly when the square meets the closure in
    one arc of its boundary.  Glued to a disk along one arc the region
    stays a disk, whose boundary `validate` accepts.  Any other contact
    makes a hole or a pinch, a corner met alone by a diagonal square,
    which `validate` refuses.  The curve is a fixed function of the `rng`
    state; argument errors are raised before any draw.
    """
    if ambient.n != 2:
        raise ValueError("curves need a 2-d ambient")
    lo = [e[0] + 2 for e in ambient.extent]
    hi = [e[1] - 3 for e in ambient.extent]
    if lo[0] > hi[0] or lo[1] > hi[1]:
        raise ValueError(f"ambient extent {ambient.extent} leaves no square inside the margin of 2")
    if max_cells < 2:
        raise ValueError(f"max_cells must be at least 2, got {max_cells}")
    if max_perimeter < 4:
        raise ValueError(f"max_perimeter must be at least 4, one square's, got {max_perimeter}")
    seed = (rng.randint(lo[0], hi[0]), rng.randint(lo[1], hi[1]))
    region, order, perimeter = {seed}, [seed], 4  # order: the region sorted, as bases are drawn
    target = rng.randint(2, max_cells)
    attempts = 0
    while len(region) < target and attempts < 200:
        attempts += 1
        base = rng.choice(order)
        dx, dy = rng.choice(_STEPS)
        x, y = cand = (base[0] + dx, base[1] + dy)
        if cand in region:
            continue
        if not (lo[0] <= x <= hi[0] and lo[1] <= y <= hi[1]):
            continue
        sides = sum((x + sx, y + sy) in region for sx, sy in _STEPS)
        if perimeter + 4 - 2 * sides > max_perimeter:
            continue
        # corners of cand that no square of the region touches
        free = sum(
            not ((x + sx, y) in region or (x, y + sy) in region or (x + sx, y + sy) in region)
            for sx in (1, -1)
            for sy in (1, -1)
        )
        if free == 3 - sides:  # 1 face - (4 - sides) edges + free corners = 0
            region.add(cand)
            bisect.insort(order, cand)
            perimeter += 4 - 2 * sides
    squares = [CubicalCell.make(c, (0, 1)) for c in region]
    return ManifoldComplex.make(ambient, 1, region_boundary(squares))
