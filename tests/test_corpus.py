"""The random curve generator: its local growth tests against the
rebuild-and-validate generator they replaced, and its argument checks."""

import random

import pytest

from gridtopo import build_ambient
from gridtopo.corpus import random_simple_curve

from util import curve_from_pixels, reference_random_simple_curve

CRITERION_7 = build_ambient(2, [(0, 15), (0, 15)])  # squares 2..12 on each axis
TIGHT = build_ambient(2, [(0, 8), (0, 8)])  # squares 2..5 on each axis


@pytest.mark.parametrize("ambient", [CRITERION_7, TIGHT], ids=["16x16", "8x8"])
@pytest.mark.parametrize("max_perimeter, max_cells", [(60, 25), (20, 25), (12, 8), (60, 60)])
def test_random_curves_match_reference(ambient, max_perimeter, max_cells):
    """Every draw equals the generator that validated each trial boundary,
    and leaves the random state where that one left it."""
    for seed in range(50):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = random_simple_curve(ambient, rng, max_perimeter, max_cells)
        want = reference_random_simple_curve(ambient, ref_rng, max_perimeter, max_cells)
        assert got.canonical_cells() == want.canonical_cells(), seed
        assert rng.getstate() == ref_rng.getstate(), seed


class ScriptedRng:
    """Plays back draws: `randint` returns `ints` in order, `choice` the
    (base, step) pairs of `moves`, and after them the least square and the
    step (-1, 0) on every attempt, which leaves the margin when the least
    square lies on its low edge."""

    def __init__(self, ints, moves):
        self.ints = list(ints)
        self.picks = [x for move in moves for x in move]
        self.calls = 0

    def randint(self, a, b):
        value = self.ints.pop(0)
        assert a <= value <= b
        return value

    def choice(self, seq):
        self.calls += 1
        value = self.picks.pop(0) if self.picks else seq[0] if self.calls % 2 else (-1, 0)
        assert value in seq
        return value


RIGHT, LEFT, UP = (1, 0), (-1, 0), (0, 1)
# seed (2, 2), then along the bottom row and up the right column to (4, 4)
HOOK = [((2, 2), RIGHT), ((3, 2), RIGHT), ((4, 2), UP), ((4, 3), UP)]


@pytest.mark.parametrize(
    "target, moves, max_perimeter, region",
    [
        # (2, 3) meets (3, 4) at one corner, with (2, 4) and (3, 3) empty
        (7, HOOK + [((4, 4), LEFT), ((2, 2), UP)], 60, {(2, 2), (3, 2), (4, 2), (4, 3), (4, 4), (3, 4)}),
        # (2, 3) is the eighth square of a ring around the hole (3, 3)
        (8, HOOK + [((4, 4), LEFT), ((3, 4), LEFT), ((2, 2), UP)], 60,
         {(2, 2), (3, 2), (4, 2), (4, 3), (4, 4), (3, 4), (2, 4)}),
        # (4, 2) would take the perimeter from 6 to 8
        (3, HOOK[:2], 7, {(2, 2), (3, 2)}),
        (3, HOOK[:2], 8, {(2, 2), (3, 2), (4, 2)}),
    ],
    ids=["pinch", "hole", "perimeter", "perimeter-fits"],
)
def test_growth_rejects(target, moves, max_perimeter, region):
    """Each local test refuses the square `validate` would refuse, and
    only that square: the curve bounds the region grown without it."""
    want = curve_from_pixels(CRITERION_7, region).canonical_cells()
    for generate in (random_simple_curve, reference_random_simple_curve):
        rng = ScriptedRng([2, 2, target], moves)
        got = generate(CRITERION_7, rng, max_perimeter=max_perimeter)
        assert got.canonical_cells() == want, generate.__name__
        assert not rng.picks


class NoDraws:
    def __getattr__(self, name):
        pytest.fail(f"rng.{name} was called before the arguments were checked")


@pytest.mark.parametrize(
    "extent, max_perimeter, max_cells, named",
    [
        ([(0, 4), (0, 15)], 60, 25, "ambient"),
        ([(0, 15), (0, 15)], 60, 1, "max_cells"),
        ([(0, 15), (0, 15)], 2, 25, "max_perimeter"),
    ],
)
def test_bad_arguments_raise_before_any_draw(extent, max_perimeter, max_cells, named):
    amb = build_ambient(2, extent)
    with pytest.raises(ValueError, match=named):
        random_simple_curve(amb, NoDraws(), max_perimeter=max_perimeter, max_cells=max_cells)


def test_least_arguments_draw_one_square():
    """One square position, `max_cells=2` and `max_perimeter=4` are valid:
    the curve is that square's boundary, as before the checks."""
    amb = build_ambient(2, [(0, 5), (0, 5)])
    for seed in range(5):
        got = random_simple_curve(amb, random.Random(seed), max_perimeter=4, max_cells=2)
        want = reference_random_simple_curve(amb, random.Random(seed), max_perimeter=4, max_cells=2)
        assert got.canonical_cells() == want.canonical_cells() == curve_from_pixels(amb, [(2, 2)]).canonical_cells()
