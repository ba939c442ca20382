"""Down/up and up/down 0/1 sequences, their base-b, Fibonacci and signed
Fibonacci values, and unique-representation algorithms (Zeckendorf,
negafibonacci, zigzag representations).

A sequence (e_{n-1}, ..., e_1, e_0) is stored most-significant first,
i.e. bits[0] = e_{n-1}.  Down/up means e_{n-1} >= e_{n-2} <= e_{n-3} >= ...
and up/down is the mirrored chain.

Signed Fibonacci numbers follow the recursion-consistent convention
Fib(-n) = (-1)^(n+1) Fib(n), so Fib(-2) = -1 and Fib(-7) = 13; the
two-term recursion then holds at every integer index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import BudgetExceeded, FptError
from .numth import fib

DOWN_UP = "down-up"
UP_DOWN = "up-down"

_ENUM_LIMIT = 40
_SEARCH_LIMIT = 30


def _check_bits(bits: Iterable[int]) -> tuple[int, ...]:
    out = tuple(bits)
    for b in out:
        if b not in (0, 1):
            raise FptError(f"entry {b!r} is not 0 or 1")
    return out


def _chain_ok(bits: tuple[int, ...], orientation: str) -> bool:
    # relation between positions k and k+1 (from the left) alternates,
    # starting with >= for down/up and <= for up/down
    start_ge = orientation == DOWN_UP
    for k in range(len(bits) - 1):
        a, b = bits[k], bits[k + 1]
        if (k % 2 == 0) == start_ge:
            if a < b:
                return False
        else:
            if a > b:
                return False
    return True


@dataclass(frozen=True)
class ZigzagSeq:
    """A 0/1 zigzag sequence with its orientation; bits[0] = e_{n-1}."""

    bits: tuple[int, ...]
    orientation: str = DOWN_UP

    def __post_init__(self):
        _check_bits(self.bits)
        if self.orientation not in (DOWN_UP, UP_DOWN):
            raise FptError(f"unknown orientation {self.orientation!r}")
        if not _chain_ok(self.bits, self.orientation):
            raise FptError(f"{self.bits} is not a {self.orientation} sequence")

    def __len__(self) -> int:
        return len(self.bits)

    def as_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    def to_json(self) -> str:
        return self.as_string()


def is_zigzag(bits: Iterable[int], orientation: str = DOWN_UP) -> bool:
    """Check the alternating inequality chain; length <= 1 is vacuously true.

    This is the paper's definition of a zigzag sequence, the brute-force
    oracle for enum_zigzag and its Fibonacci counts."""
    return _chain_ok(_check_bits(bits), orientation)


def check_length(n: int) -> None:
    """Refuse a length enum_zigzag would not list: negative, or beyond
    the enumeration budget."""
    if n < 0:
        raise FptError(f"sequence length {n} < 0")
    if n > _ENUM_LIMIT:
        raise BudgetExceeded(f"length {n} exceeds enumeration budget")


def enum_zigzag(n: int, orientation: str = DOWN_UP) -> list[ZigzagSeq]:
    """All zigzag sequences of length n (there are Fib(n+2) of them).

    Down/up sequences are generated by the parity recursion that appends
    on the low end; up/down sequences are the bitwise complements.
    """
    check_length(n)
    du = _enum_du(n)
    if orientation == DOWN_UP:
        return [ZigzagSeq(bits, DOWN_UP) for bits in du]
    return [ZigzagSeq(tuple(1 - b for b in bits), UP_DOWN) for bits in du]


def _enum_du(n: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    if n == 1:
        return [(0,), (1,)]
    shorter2 = _enum_du(n - 2)
    shorter1 = _enum_du(n - 1)
    if n % 2 == 1:
        out = [bits + (0, 0) for bits in shorter2]
        out += [bits + (1,) for bits in shorter1]
    else:
        out = [bits + (1, 1) for bits in shorter2]
        out += [bits + (0,) for bits in shorter1]
    return out


def value_base(seq, b: int) -> int:
    """sum_i v_i * b^i for any integer entries; the base may be any
    integer, including negatives."""
    vals = seq.bits if isinstance(seq, ZigzagSeq) else tuple(seq)
    acc = 0
    for v in vals:
        acc = acc * b + v
    return acc


def value_fib(seq) -> int:
    """sum_i v_i * Fib(i+1)."""
    vals = seq.bits if isinstance(seq, ZigzagSeq) else tuple(seq)
    n = len(vals)
    return sum(v * fib(n - k) for k, v in enumerate(vals) if v)


def value_sfib(seq) -> int:
    """sum_i v_i * Fib(-i-2), the signed Fibonacci value."""
    vals = seq.bits if isinstance(seq, ZigzagSeq) else tuple(seq)
    n = len(vals)
    return sum(v * fib(-(n - 1 - k) - 2) for k, v in enumerate(vals) if v)


# ---------------------------------------------------------------------------
# representations


def _min_length(n: int, parity: str) -> int:
    want_odd = parity == "odd"
    length = 1 if want_odd else 0
    while n >= fib(length + 2):
        length += 2
    return length


def to_downup(n: int, parity: str = "odd") -> ZigzagSeq:
    """The unique down/up sequence of the requested length parity whose
    Fibonacci value is n, at minimal length.

    Descends the interval decomposition: values below Fib(L) extend with
    prefix 00, values in [Fib(L), 2 Fib(L)) with 10, the rest with 11.
    """
    if n < 0:
        raise FptError("Fibonacci values of 0/1 sequences are non-negative")
    if parity not in ("odd", "even"):
        raise FptError("parity must be 'odd' or 'even'")
    length = _min_length(n, parity)
    bits: list[int] = []
    v = n
    while length >= 2:
        fl = fib(length)
        if v < fl:
            bits += [0, 0]
        elif v < 2 * fl:
            bits += [1, 0]
            v -= fl
        else:
            bits += [1, 1]
            v -= fib(length + 1)
        length -= 2
    if length == 1:
        bits.append(v)
        v = 0
    if v:
        raise AssertionError("interval descent left a nonzero remainder")
    return ZigzagSeq(tuple(bits), DOWN_UP)


def _search_unique(n: int, orientation: str, lengths, window: int) -> ZigzagSeq:
    for length in lengths:
        if length > window:
            break
        hits = [s for s in enum_zigzag(length, orientation) if value_sfib(s) == n]
        if hits:
            if len(hits) != 1:
                raise AssertionError(
                    f"representation of {n} not unique at length {length}: {hits}"
                )
            return hits[0]
    raise BudgetExceeded(f"no representation of {n} within window length {window}")


def _sfib_window(n: int) -> int:
    k = 2
    while abs(fib(-k)) <= abs(n):
        k += 1
    return min(2 * k + 6, _SEARCH_LIMIT)


def to_downup_sfib(n: int) -> ZigzagSeq:
    """The unique down/up sequence (over both length parities, all-zero
    strings identified) with signed Fibonacci value n.

    Found by bounded exhaustive search over increasing lengths, with the
    uniqueness at the hit length asserted.
    """
    if n == 0:
        return ZigzagSeq((), DOWN_UP)
    window = _sfib_window(n)
    return _search_unique(n, DOWN_UP, range(1, window + 1), window)


def to_updown(n: int, parity: str = "odd") -> ZigzagSeq:
    """The unique up/down sequence of the given length parity whose
    Fibonacci value is n, at minimal length (bounded search)."""
    if n < 0:
        raise FptError("Fibonacci values of 0/1 sequences are non-negative")
    if parity not in ("odd", "even"):
        raise FptError("parity must be 'odd' or 'even'")
    length = _min_length(n, parity)
    if length > _SEARCH_LIMIT:
        raise BudgetExceeded(f"minimal length {length} beyond search limit")
    hits = [s for s in enum_zigzag(length, UP_DOWN) if value_fib(s) == n]
    if len(hits) != 1:
        raise AssertionError(f"expected one up/down representation, got {hits}")
    return hits[0]


def to_updown_sfib(n: int, parity: str = "odd") -> ZigzagSeq:
    """The unique up/down sequence of the given length parity with signed
    Fibonacci value n (bounded search)."""
    if parity not in ("odd", "even"):
        raise FptError("parity must be 'odd' or 'even'")
    start = 1 if parity == "odd" else 0
    if n == 0 and parity == "even":
        return ZigzagSeq((), UP_DOWN)
    window = _sfib_window(n) if n else 2
    return _search_unique(n, UP_DOWN, range(start, window + 1, 2), window)


def zeckendorf(n: int) -> tuple[int, ...]:
    """Indices (descending) of the unique sum of non-consecutive Fibonacci
    numbers equal to n: n = sum Fib(k) over the returned k >= 2."""
    if n < 1:
        raise FptError("Zeckendorf representation needs n >= 1")
    k = 2
    while fib(k + 1) <= n:
        k += 1
    out = []
    while n:
        while fib(k) > n:
            k -= 1
        out.append(k)
        n -= fib(k)
        k -= 2  # non-consecutive by construction
    return tuple(out)


def negafibonacci(n: int) -> tuple[int, ...]:
    """Indices k (ascending) of the unique representation
    n = sum Fib(-k) with k >= 1 and no two k consecutive."""
    if n == 0:
        return ()
    span = 3
    while not (_nf_lo(span) <= n <= _nf_hi(span)):
        span += 1
    out: list[int] = []
    k = span
    while n:
        while k >= 1 and _nf_lo(k - 1) <= n <= _nf_hi(k - 1):
            k -= 1
        out.append(k)
        n -= fib(-k)
        k -= 2
    out.reverse()
    for a, b in zip(out, out[1:]):
        if b - a < 2:
            raise AssertionError("negafibonacci digits came out consecutive")
    return tuple(out)


def _nf_hi(span: int) -> int:
    # largest value representable with non-consecutive indices <= span
    return sum(fib(-k) for k in range(1, span + 1) if k % 2 == 1)


def _nf_lo(span: int) -> int:
    return sum(fib(-k) for k in range(1, span + 1) if k % 2 == 0)
