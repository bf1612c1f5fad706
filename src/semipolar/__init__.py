"""Symplectic affine polar spaces and affine semipolar spaces over odd prime fields."""

from .apsg import AffLine, Point, SemipolarSpace
from .forms import (
    AffineAtlas,
    AlternatingMap,
    Semiform,
    cross_product_map,
    exterior_square,
    standard_symplectic,
)
from .gf import GF
from .linalg import LinearMap, Subspace

__all__ = [
    "GF",
    "LinearMap",
    "Subspace",
    "AlternatingMap",
    "AffineAtlas",
    "Semiform",
    "standard_symplectic",
    "exterior_square",
    "cross_product_map",
    "Point",
    "AffLine",
    "SemipolarSpace",
]

__version__ = "0.1.0"
