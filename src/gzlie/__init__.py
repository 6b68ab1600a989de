"""Exact linear-algebraic toolkit for orthogonal and general linear
Gelfand-Zeitlin chains over the Gaussian rationals."""

from .scalars import QI, parse_scalar, format_scalar
from .liealg import make_algebra, AlgebraContext, Root

__all__ = [
    "QI", "parse_scalar", "format_scalar",
    "make_algebra", "AlgebraContext", "Root",
]

__version__ = "0.1.0"
