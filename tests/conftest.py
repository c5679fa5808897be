import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from util import (
    BOX333_VOXELS,
    FIXTURE_DIR,
    TORUS_VOXELS,
    U_PIXELS,
    curve_from_pixels,
    surface_from_voxels,
)

from gridtopo import CubicalCell, ManifoldComplex, build_ambient


@pytest.fixture(scope="session")
def amb2():
    return build_ambient(2, [(-2, 5), (-2, 5)])


@pytest.fixture(scope="session")
def amb3():
    return build_ambient(3, [(-2, 5), (-2, 5), (-2, 5)])


@pytest.fixture(scope="session")
def sq1(amb2):
    return curve_from_pixels(amb2, [(0, 0)])


@pytest.fixture(scope="session")
def rect12(amb2):
    return curve_from_pixels(amb2, [(0, 0), (1, 0)])


@pytest.fixture(scope="session")
def ushape(amb2):
    return curve_from_pixels(amb2, U_PIXELS)


@pytest.fixture(scope="session")
def box111(amb3):
    return surface_from_voxels(amb3, [(0, 0, 0)])


@pytest.fixture(scope="session")
def box211(amb3):
    return surface_from_voxels(amb3, [(0, 0, 0), (1, 0, 0)])


@pytest.fixture(scope="session")
def box333(amb3):
    return surface_from_voxels(amb3, BOX333_VOXELS)


@pytest.fixture(scope="session")
def torus(amb3):
    return surface_from_voxels(amb3, TORUS_VOXELS)


@pytest.fixture(scope="session")
def pinch(amb2):
    cells = [CubicalCell.make((0, 0), (0, 1)), CubicalCell.make((1, 1), (0, 1))]
    return ManifoldComplex.make(amb2, 2, cells)
