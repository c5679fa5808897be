"""gridtopo: contract closed cubical manifolds to irreducible discrete spheres."""

from .cells import AmbientSpace, CubicalCell, build_ambient
from .complexes import (
    Cycle,
    ManifoldComplex,
    ValidationReport,
    validate,
)
from .curviness import (
    ArcRegion,
    CurvinessReport,
    arc_sign,
)
from .deform import (
    DeformationTrace,
    interpolate,
    replace_arc,
    replay,
)
from .engine import (
    ContractionResult,
    contract,
    is_irreducible_sphere,
)
from .filling import Filling, ScanContext, jordan_split, lofted, min_filling
from .metric import all_pairs, ball, cell_distance, diameter

__version__ = "0.1.0"

__all__ = [
    "AmbientSpace",
    "ArcRegion",
    "ContractionResult",
    "CubicalCell",
    "CurvinessReport",
    "Cycle",
    "DeformationTrace",
    "Filling",
    "ManifoldComplex",
    "ScanContext",
    "ValidationReport",
    "all_pairs",
    "arc_sign",
    "ball",
    "build_ambient",
    "cell_distance",
    "contract",
    "diameter",
    "interpolate",
    "is_irreducible_sphere",
    "jordan_split",
    "lofted",
    "min_filling",
    "replace_arc",
    "replay",
    "validate",
]
