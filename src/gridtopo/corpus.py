"""Randomized test corpus: simple closed curves.

Generation is driven by a caller-supplied random.Random so corpora are
reproducible from a seed.
"""

from __future__ import annotations

import random

from .cells import AmbientSpace, CubicalCell
from .complexes import ManifoldComplex, region_boundary, validate


def random_simple_curve(
    ambient: AmbientSpace, rng: random.Random, max_perimeter: int = 60, max_cells: int = 25
) -> ManifoldComplex:
    """Boundary of a random simply connected polyomino, margin kept.

    Cells are added only while the resulting boundary stays a single
    closed curve whose perimeter respects the budget.
    """
    if ambient.n != 2:
        raise ValueError("curves need a 2-d ambient")
    lo = [e[0] + 2 for e in ambient.extent]
    hi = [e[1] - 3 for e in ambient.extent]
    seed = (rng.randint(lo[0], hi[0]), rng.randint(lo[1], hi[1]))
    region = {seed}

    def boundary_complex(cells) -> ManifoldComplex:
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
