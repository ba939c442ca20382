"""The three exceptions fpt raises, one per outcome the CLI tells apart.

FptError is invalid input, or a value the library will not compute
(alpha(0, p), a composite characteristic, a constant to factor); the CLI
exits 1 with its message.  It subclasses ValueError, so callers that
already catch ValueError keep working.  BudgetExceeded is a refusal on
size: an enumeration budget, a scan cap or a search window; the CLI
exits 2.  DependentPair, a pair of field elements that spans no plane,
is the one precondition a caller handles by type: a sweep over pairs
skips it and goes on (perfbench's Dickson kernel timing does).  Broken
internal invariants raise AssertionError.
"""


class FptError(ValueError):
    pass


class BudgetExceeded(FptError):
    pass


class DependentPair(FptError):
    pass
