"""Zigzag sequences, Fibonacci values, and representation algorithms."""

import itertools
import random

import pytest

from fpt.errors import BudgetExceeded, FptError
from fpt.numth import fib
from fpt.zigzag import (
    DOWN_UP,
    _nf_hi,
    _nf_lo,
    UP_DOWN,
    ZigzagSeq,
    enum_zigzag,
    is_zigzag,
    negafibonacci,
    to_downup,
    to_downup_sfib,
    to_updown,
    to_updown_sfib,
    value_base,
    value_fib,
    value_sfib,
    zeckendorf,
)


def brute(n, orientation=DOWN_UP):
    return [bits for bits in itertools.product((0, 1), repeat=n) if is_zigzag(bits, orientation)]


def recursive_du(n):
    """The unmemoized parity recursion enum_zigzag replaced: its list order
    is the order the CLI prints."""
    if n == 0:
        return [()]
    if n == 1:
        return [(0,), (1,)]
    shorter2 = recursive_du(n - 2)
    shorter1 = recursive_du(n - 1)
    if n % 2 == 1:
        out = [bits + (0, 0) for bits in shorter2]
        out += [bits + (1,) for bits in shorter1]
    else:
        out = [bits + (1, 1) for bits in shorter2]
        out += [bits + (0,) for bits in shorter1]
    return out


def direct_value(bits, signed):
    # one Fibonacci number per set bit, as the definitions read
    n = len(bits)
    return sum(v * fib(-(n - 1 - k) - 2 if signed else n - k) for k, v in enumerate(bits) if v)


def test_signed_fibonacci_convention():
    assert [fib(k) for k in (-2, -7, -10)] == [-1, 13, -55]
    for k in range(-38, 39):
        assert fib(k) == fib(k - 1) + fib(k - 2)
    assert fib(-10) == -55 and fib(10) == 55


def test_is_zigzag_examples():
    assert is_zigzag((1, 0, 1), DOWN_UP)
    assert not is_zigzag((0, 1, 1), DOWN_UP)
    assert is_zigzag((), DOWN_UP)
    assert is_zigzag((1,), UP_DOWN)
    assert is_zigzag((0, 1, 0), UP_DOWN)
    assert not is_zigzag((1, 0, 1), UP_DOWN)
    with pytest.raises(FptError, match="^entry 2 is not 0 or 1$"):
        is_zigzag((0, 2, 1))


def test_enum_matches_known_lists():
    du3 = {s.bits for s in enum_zigzag(3)}
    assert du3 == {(1, 1, 1), (1, 0, 1), (0, 0, 1), (1, 0, 0), (0, 0, 0)}
    du4 = {s.bits for s in enum_zigzag(4)}
    assert du4 == {
        (1, 1, 1, 1), (1, 0, 1, 1), (0, 0, 1, 1), (1, 1, 1, 0),
        (1, 0, 1, 0), (0, 0, 1, 0), (1, 0, 0, 0), (0, 0, 0, 0),
    }
    assert [s.bits for s in enum_zigzag(0)] == [()]


def test_enum_count_and_brute_force_agree():
    for orientation in (DOWN_UP, UP_DOWN):
        for n in range(15):
            seqs = enum_zigzag(n, orientation)
            assert len(seqs) == fib(n + 2)
            assert {s.bits for s in seqs} == set(brute(n, orientation))


def test_enum_order_is_the_recursive_order():
    for n in range(21):
        du = recursive_du(n)
        assert [s.bits for s in enum_zigzag(n, DOWN_UP)] == du
        assert [s.bits for s in enum_zigzag(n, UP_DOWN)] == [tuple(1 - b for b in bits) for bits in du]


def test_generated_sequences_pass_validation():
    for orientation in (DOWN_UP, UP_DOWN):
        for n in range(15):
            for s in enum_zigzag(n, orientation):
                checked = ZigzagSeq(s.bits, s.orientation)
                assert s == checked and hash(s) == hash(checked) and s.orientation == orientation


def test_unknown_orientation_is_refused():
    msg = "^unknown orientation 'sideways'$"
    with pytest.raises(FptError, match=msg):
        enum_zigzag(3, "sideways")
    with pytest.raises(FptError, match=msg):
        is_zigzag((0, 1, 0), "sideways")
    with pytest.raises(FptError, match=msg):
        ZigzagSeq((0, 1, 0), "sideways")


def test_value_base():
    assert value_base((0, 0, 0), 5) == 0
    assert -value_base((1, 1), -3) == 2          # exponent p-1 for p=3
    assert value_base((1, 0, 1), -2) == 5
    assert value_base((2, -1), 10) == 19         # arbitrary integer entries


def test_value_fib_and_sfib_examples():
    # ones at little-endian positions 0 and 5
    assert value_sfib((1, 0, 0, 0, 0, 1)) == -1 + 13
    # ones at positions 0, 5, 8
    assert value_sfib((1, 0, 0, 1, 0, 0, 0, 0, 1)) == -1 + 13 - 55
    assert value_fib((0, 0, 0)) == 0
    assert value_fib((1, 0, 1)) == fib(3) + fib(1)


def test_values_match_one_fibonacci_number_per_entry():
    rng = random.Random(13)
    for _ in range(300):
        vals = tuple(rng.randrange(-3, 4) for _ in range(rng.randrange(25)))
        assert value_fib(vals) == direct_value(vals, False)
        assert value_sfib(vals) == direct_value(vals, True)


def test_downup_fib_bijection():
    # value_fib maps DU(n) one-to-one onto [0, Fib(n+2))
    for n in range(0, 15):
        values = sorted(value_fib(s) for s in enum_zigzag(n))
        assert values == list(range(fib(n + 2)))


def test_interval_decomposition_by_leading_bits():
    for n in range(2, 13):
        fl = fib(n)
        for s in enum_zigzag(n):
            v = value_fib(s)
            lead = s.bits[:2]
            if lead == (0, 0):
                assert v < fl
            elif lead == (1, 0):
                assert fl <= v < 2 * fl
            else:
                assert lead == (1, 1) and 2 * fl <= v < fib(n + 2)


def test_complement_symmetry():
    # eps in DU(n-1) => omega(n) - eps lies in DU(n) with leading 1
    for n in range(1, 13):
        members = {s.bits for s in enum_zigzag(n)}
        for s in enum_zigzag(n - 1):
            padded = (0,) * (n - len(s.bits)) + s.bits
            comp = tuple(1 - b for b in padded)
            assert comp in members and comp[0] == 1


def test_to_downup_examples():
    assert to_downup(0, "odd").bits == (0,)
    assert to_downup(0, "even").bits == ()
    hit = to_downup(7, "even")
    assert hit.bits == (1, 1, 1, 1) and value_fib(hit) == 7
    with pytest.raises(FptError, match="^Fibonacci values of 0/1 sequences are non-negative$"):
        to_downup(-1, "odd")


def test_to_downup_round_trip():
    for n in range(fib(13)):
        for parity in ("odd", "even"):
            s = to_downup(n, parity)
            assert value_fib(s) == n
            assert len(s.bits) % 2 == (1 if parity == "odd" else 0)


def test_to_updown_round_trip():
    for n in range(150):
        for parity in ("odd", "even"):
            s = to_updown(n, parity)
            assert value_fib(s) == n
            assert is_zigzag(s.bits, UP_DOWN)
            assert len(s.bits) % 2 == (1 if parity == "odd" else 0)


def test_to_downup_sfib():
    assert to_downup_sfib(0).bits == ()
    assert to_downup_sfib(-1).bits == (1,)
    # frozen from exhaustive search: unique down/up sequences
    assert to_downup_sfib(12).bits == (1, 1, 1, 0, 1, 0)
    assert to_downup_sfib(-43).bits == (1, 1, 1, 0, 0, 0, 0, 0, 1)
    for n in range(-60, 61):
        assert value_sfib(to_downup_sfib(n)) == n


def test_to_downup_sfib_unique_by_exhaustion():
    # over both parities at once, every value up to length 12 appears once
    seen = {}
    for n in range(13):
        for s in enum_zigzag(n):
            bits = s.bits
            while len(bits) >= 2 and bits[0] == 0 and bits[1] == 0:
                bits = bits[2:]
            if bits in ((), (0,)):
                bits = ()
            seen.setdefault(value_sfib(s), set()).add(bits)
    for v, reps in seen.items():
        assert len(reps) == 1, (v, reps)


def test_to_updown_sfib_round_trip():
    for parity in ("odd", "even"):
        for n in range(-40, 41):
            s = to_updown_sfib(n, parity)
            assert value_sfib(s) == n
            assert is_zigzag(s.bits, UP_DOWN)
            if s.bits:
                assert len(s.bits) % 2 == (1 if parity == "odd" else 0)


def test_zeckendorf_examples():
    assert zeckendorf(64) == (10, 6, 2)    # 55 + 8 + 1
    assert zeckendorf(1) == (2,)
    assert zeckendorf(100) == (11, 6, 4)   # 89 + 8 + 3
    with pytest.raises(FptError, match=r"^Zeckendorf representation needs n >= 1$"):
        zeckendorf(0)


def test_zeckendorf_properties():
    rng = random.Random(9)
    for _ in range(300):
        n = rng.randrange(1, 10**9)
        idx = zeckendorf(n)
        assert sum(fib(k) for k in idx) == n
        assert all(a - b >= 2 for a, b in zip(idx, idx[1:]))
        assert all(k >= 2 for k in idx)


def test_negafibonacci_examples():
    # 12 = Fib(-2) + Fib(-7), -43 = Fib(-2) + Fib(-7) + Fib(-10)
    assert negafibonacci(12) == (2, 7)
    assert negafibonacci(-43) == (2, 7, 10)
    assert negafibonacci(0) == ()
    assert negafibonacci(1) == (1,)


def test_negafibonacci_unique_by_exhaustion():
    # reconstruct and compare against brute-force subset search
    span = 11
    table = {}
    for r in range(span + 1):
        for combo in itertools.combinations(range(1, span + 1), r):
            if any(b - a < 2 for a, b in zip(combo, combo[1:])):
                continue
            v = sum(fib(-k) for k in combo)
            table.setdefault(v, []).append(combo)
    for v, combos in table.items():
        assert len(combos) == 1
        assert negafibonacci(v) == combos[0]


def test_searches_return_the_shortest_brute_force_hit():
    # value -> hits at the shortest length holding it, per orientation,
    # value kind and length parity (None: either parity)
    shortest = {}
    for orientation in (DOWN_UP, UP_DOWN):
        for n in range(16):
            for bits in brute(n, orientation):
                for signed in (False, True):
                    for parity in (n % 2, None):
                        key = (orientation, signed, parity, direct_value(bits, signed))
                        length, hits = shortest.setdefault(key, (n, []))
                        if length == n:
                            hits.append(bits)

    def only(orientation, signed, parity, n):
        hits = shortest[orientation, signed, parity, n][1]
        assert len(hits) == 1, (orientation, signed, parity, n, hits)
        return hits[0]

    for n in range(-300, 301):
        assert to_downup_sfib(n).bits == (() if n == 0 else only(DOWN_UP, True, None, n))
        for parity, odd in (("odd", 1), ("even", 0)):
            want = () if n == 0 and not odd else only(UP_DOWN, True, odd, n)
            assert to_updown_sfib(n, parity).bits == want
            if n >= 0:
                assert to_updown(n, parity).bits == only(UP_DOWN, False, odd, n)


def test_negafibonacci_bounds_are_the_partial_sums():
    for span in range(81):
        assert _nf_hi(span) == sum(fib(-k) for k in range(1, span + 1) if k % 2 == 1)
        assert _nf_lo(span) == sum(fib(-k) for k in range(1, span + 1) if k % 2 == 0)


def test_sequence_api():
    s = ZigzagSeq((1, 0, 1))
    assert s.as_string() == "101"
    assert len(s) == 3
    with pytest.raises(FptError, match=r"^\(0, 1, 1\) is not a down-up sequence$"):
        ZigzagSeq((0, 1, 1), DOWN_UP)


def test_enum_budget():
    with pytest.raises(BudgetExceeded):
        enum_zigzag(41)
    with pytest.raises(FptError, match="^sequence length -1 < 0$"):
        enum_zigzag(-1)


def test_search_window_exhausted():
    with pytest.raises(BudgetExceeded, match="^minimal length 33 beyond search limit$"):
        to_updown(4_000_000, "odd")
