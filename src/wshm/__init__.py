"""wshm: weighted shift Hilbert modules, graded ideals, and truncated
multiplication operators in exact and floating-point arithmetic."""

# The single version source: pyproject.toml and report headers read it.
__version__ = "0.1.0"

from .algebra import (
    G_I,
    G_ONE,
    G_ZERO,
    GaussianRational,
    GradedPolynomial,
    enumerate_level,
    enumerate_weighted_level,
    level_dimension,
    residue_of,
    weighted_degree,
)
from .errors import WshmError
from .ideals import GradedIdeal, graded_basis, hilbert_function, hilbert_series
from .parsing import parse_polynomial, parse_polynomial_list
from .spaces import WeightedShiftSpace, builtin_space, weighted_piece

__all__ = [
    "G_I",
    "G_ONE",
    "G_ZERO",
    "GaussianRational",
    "GradedIdeal",
    "GradedPolynomial",
    "PositiveRegularPoly",
    "WeightedShiftSpace",
    "WshmError",
    "builtin_space",
    "enumerate_level",
    "enumerate_weighted_level",
    "graded_basis",
    "hilbert_function",
    "hilbert_series",
    "level_dimension",
    "parse_polynomial",
    "parse_polynomial_list",
    "residue_of",
    "weighted_degree",
    "weighted_piece",
]


def __getattr__(name: str):
    # posreg loads on first use: no diag, space or ideal command needs it
    if name == "PositiveRegularPoly":
        from .posreg import PositiveRegularPoly
        return PositiveRegularPoly
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
