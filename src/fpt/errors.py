"""Exception hierarchy shared by all fpt modules.

Every error raised by the library derives from FptError so callers can
catch library failures with a single except clause.  BudgetExceeded is
kept distinct because the CLI maps it to exit code 2 (refusal) rather
than 1 (invariant violation).
"""


class FptError(Exception):
    pass


class BudgetExceeded(FptError):
    """An enumeration-scale operation was asked to exceed its element budget."""


# -- field construction and arithmetic ------------------------------------

class CompositeModulusBase(FptError):
    """The characteristic is not prime."""


class PrimalityUnproven(FptError):
    """A number passed the primality test above the bound where it is exact."""


class DegreeZero(FptError):
    """Extension degree below 1."""


class DivisionByZero(FptError, ZeroDivisionError):
    pass


class FieldMismatch(FptError):
    """Operands belong to different field descriptors."""


class ZeroElement(FptError):
    """Zero passed where a unit is required (e.g. multiplicative order)."""


# -- polynomials -----------------------------------------------------------

class ConstantModulus(FptError):
    pass


class ConstantInput(FptError):
    pass


# -- Dickson invariants ----------------------------------------------------

class DependentPair(FptError):
    """The two elements are linearly dependent over the prime field."""


class Fp2OrbitDenominator(FptError):
    """Even-index bracket product undefined: the pair spans (a dilate of) the
    quadratic subfield, so the [0,2] denominator vanishes."""


# -- planes ----------------------------------------------------------------

class DegreeTooSmall(FptError):
    """Plane enumeration requires extension degree at least 2."""


class WrongField(FptError):
    """The requested pencil does not live in the given field."""


class CoefficientNotInPrimeField(FptError):
    """Internal consistency failure: a root-product coefficient left F_p."""


# -- zigzag sequences and representations ----------------------------------

class NonBinaryEntry(FptError):
    pass


class NegativeInput(FptError):
    pass


class NonPositive(FptError):
    pass


class SearchWindowExhausted(FptError):
    """Bounded representation search ran out of window before finding a hit.

    Signals the window bound, not nonexistence.
    """


# -- polynomial family construction ----------------------------------------

class SupportCollision(FptError):
    """Internal consistency failure: the two support halves were not disjoint."""


class NegativeExponent(FptError):
    """Internal consistency failure: a support exponent came out negative."""


class NotPrimeFieldElement(FptError):
    pass


class NegativeIndex(FptError):
    pass


# -- order of appearance -----------------------------------------------------

class ZeroArgument(FptError):
    """alpha(0, p) is undefined and rejected rather than assigned."""


class PIsFive(FptError):
    """The Legendre-symbol divisibility law excludes p = 5."""


# -- trinomials ---------------------------------------------------------------

class ZeroZ(FptError):
    pass


class ZeroA(FptError):
    pass


class ZeroResidue(FptError):
    pass


class NoSuchOrder(FptError):
    """No element of the requested multiplicative order exists."""


class OrderTooSmall(FptError):
    """Irreducible generation needs order at least 3."""


# -- CLI -----------------------------------------------------------------------

class BadParameter(FptError):
    pass
