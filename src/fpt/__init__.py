"""fpt: exact arithmetic over small finite fields.

Plane-orbit enumeration, the associated 0/1-coefficient polynomial
family, zigzag numeration, orders of appearance, Morgan-Voyce
polynomials and trinomial factorization degrees.  Everything is exact;
floating point appears only in the one reported density and in the
float64 products of small integers, exact by size, that build large
field tables.
"""

from .errors import BudgetExceeded, FptError
from .fmp import SparseSupport, build_recursive, build_zigzag, eval_fp, theta
from .gf import FieldDesc, make_field
from .upoly import DegreeMultiset, DensePoly, IntPoly, distinct_degree_factor, is_irreducible
from .zigzag import ZigzagSeq, enum_zigzag, negafibonacci, zeckendorf

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "DegreeMultiset",
    "DensePoly",
    "FieldDesc",
    "FptError",
    "IntPoly",
    "SparseSupport",
    "ZigzagSeq",
    "build_recursive",
    "build_zigzag",
    "distinct_degree_factor",
    "enum_zigzag",
    "eval_fp",
    "is_irreducible",
    "make_field",
    "negafibonacci",
    "theta",
    "zeckendorf",
]
