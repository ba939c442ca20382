"""Acceptance checks: every release-gating property of the library as a
callable check, shared by the test suite and the CLI selfcheck command.

Each check runs at one of two scales: "full" is the release gate,
"quick" a subminute smoke pass over reduced ranges.  Checks return a
CheckResult with a human-readable detail string; nothing here tolerates
approximate answers, every comparison is exact except the one density
band that is explicitly a statistical census of a conjectural quantity.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

from . import appearance, dickson, fmp, gf, morganvoyce, planes, trinomials, zigzag
from .numth import factorize, fib, primes_upto
from .upoly import DegreeMultiset, distinct_degree_factor, is_irreducible


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name:<24} {self.seconds:7.2f}s  {self.detail}"


def _check_orbit_census(level: str) -> tuple[bool, str]:
    if level == "quick":
        census = planes.orbit_count(2, 5)
        ok = census.planes == 155 and census.enumerated_orbits == 5 == census.formula_orbits
        return ok, f"155 planes in 5 orbits for (2,5): {ok}"
    census = planes.orbit_count(3, 6)
    ok = (
        census.planes == 11011
        and census.enumerated_orbits == 31
        and census.formula_orbits == 31
        and dict(census.orbit_sizes) == {91: 1, 364: 30}
        and len(planes.enumerate_planes(gf.make_field(3, 6))) == census.planes
    )
    return ok, f"planes={census.planes} orbits={census.enumerated_orbits}"


def _check_triple_equality(level: str) -> tuple[bool, str]:
    m_top = 20 if level == "full" else 12
    for p in (2, 3, 5, 7):
        cache: dict = {}
        fmp.build_recursive(m_top, p, cache)
        for m in range(2, m_top + 1):
            if cache[m].support != fmp.build_zigzag(m, p).support:
                return False, f"construction mismatch at (m={m}, p={p})"
    ranges = {2: 16, 3: 10, 5: 7} if level == "full" else {2: 8, 3: 5, 5: 4}
    checked = 0
    for p, m_max in ranges.items():
        for m in range(2, m_max + 1):
            field = gf.make_field(p, m)
            oracle = planes.oracle_fmp(field)
            for c in oracle.coeffs:
                if c >= p:
                    return False, f"oracle coefficient left F_p at (m={m}, p={p})"
            dense = fmp.build_recursive(m, p).to_dense()
            if list(oracle.coeffs) != list(dense.coeffs):
                return False, f"oracle mismatch at (m={m}, p={p})"
            checked += 1
    return True, f"two builds equal to m<={m_top}; {checked} root-product oracles agree"


def _check_term_count(level: str) -> tuple[bool, str]:
    m_top = 40 if level == "full" else 24
    for p in (2, 3, 5, 7, 11):
        for m in range(m_top + 1):
            if fmp.support_size(m, p) != fib(m):
                return False, f"term count off at (m={m}, p={p})"
        cache: dict = {}
        fmp.build_recursive(min(m_top, 24), p, cache)
        for m, member in cache.items():
            if member.term_count() != fib(m):
                return False, f"materialized count off at (m={m}, p={p})"
    return True, f"|support| = Fib(m) for m<={m_top}, p in 2,3,5,7,11"


def _check_strong_division(level: str) -> tuple[bool, str]:
    top = 9 if level == "full" else 7
    cases = 0
    for p in (2, 3):
        for m in range(2, top + 1):
            for n in range(2, top + 1):
                if not fmp.gcd_check(m, n, p):
                    return False, f"gcd property failed at (m={m}, n={n}, p={p})"
                cases += 1
    return True, f"{cases} gcd identities hold over F_2 and F_3"


_P19_TABLE = {1: 18, 5: 18, 7: 18, 8: 9, 10: 9, 14: 9, 16: 6, 18: 3}


def _check_p19_table(level: str) -> tuple[bool, str]:
    for z, m in _P19_TABLE.items():
        rec = appearance.alpha_zp(z, 19)
        if rec.alpha != m:
            return False, f"alpha({z},19) = {rec.alpha}, wanted {m}"
        shape = distinct_degree_factor(trinomials.gamma(z, 19))
        want = DegreeMultiset.from_dict({1: 2, m: (19 - 1) // m})
        if shape != want:
            return False, f"factor shape at z={z}: {shape}"
    return True, "alpha and factor shapes reproduce the 8-row table (order-9 values 8,10,14)"


def _check_trinomial_theorem(level: str) -> tuple[bool, str]:
    tops = 31 if level == "full" else 13
    cases = 0
    for p in [q for q in primes_upto(tops) if q % 2 == 1]:
        for a in range(1, p):
            for b in range(p):
                predicted, actual, ok = trinomials.verify_degrees(a, b, p)
                if not ok:
                    return False, f"mismatch at (p={p}, a={a}, b={b})"
                if b == 0 and predicted != DegreeMultiset.from_dict({1: p + 1}):
                    return False, f"b=0 shape wrong at (p={p}, a={a})"
                cases += 1
    return True, f"{cases} factorizations match the prediction"


def _check_minus_four(level: str) -> tuple[bool, str]:
    tops = 47 if level == "full" else 19
    for p in [q for q in primes_upto(tops) if q % 2 == 1]:
        if appearance.alpha_zp((-4) % p, p).alpha != p:
            return False, f"alpha(-4,{p}) != {p}"
        if not is_irreducible(trinomials.gamma_bar((-4) % p, p)):
            return False, f"reduced polynomial at z=-4 not irreducible for p={p}"
    return True, f"alpha(-4,p) = p and irreducibility for odd p <= {tops}"


def _check_frob_square(level: str) -> tuple[bool, str]:
    cases = [(3, 1), (3, 2), (5, 1), (5, 4)]
    total = 0
    for p, z in cases:
        rep = trinomials.frob2_check(z, p)
        if not rep.passed:
            return False, f"failed at (p={p}, z={z})"
        if not trinomials.roots_distinct_planes_check(z, p):
            return False, f"plane injectivity failed at (p={p}, z={z})"
        total += rep.roots_checked
    return True, f"{total} roots satisfy the double-Frobenius identity"


def _check_zigzag_bijection(level: str) -> tuple[bool, str]:
    bij_top = 18 if level == "full" else 12
    count_top = 25 if level == "full" else 16
    for n in range(bij_top + 1):
        values = sorted(zigzag.value_fib(s) for s in zigzag.enum_zigzag(n))
        if values != list(range(fib(n + 2))):
            return False, f"bijection fails at length {n}"
    for n in range(count_top + 1):
        if len(zigzag.enum_zigzag(n)) != fib(n + 2):
            return False, f"count fails at length {n}"
    return True, f"bijection to length {bij_top}, counts to length {count_top}"


def _check_representations(level: str) -> tuple[bool, str]:
    ok = (
        zigzag.zeckendorf(64) == (10, 6, 2)
        and zigzag.negafibonacci(12) == (2, 7)
        and zigzag.negafibonacci(-43) == (2, 7, 10)
    )
    if not ok:
        return False, "representation index sets wrong"
    if zigzag.value_sfib(zigzag.to_downup_sfib(12)) != 12:
        return False, "zigzag representation of 12 does not evaluate back"
    return True, "64 = F10+F6+F2; 12 = F(-2)+F(-7); -43 = F(-2)+F(-7)+F(-10)"


def _check_morgan_voyce(level: str) -> tuple[bool, str]:
    k_top = 50 if level == "full" else 20
    for k in range(k_top + 1):
        if morganvoyce.mv_poly("b", k) != morganvoyce.f_m1(2 * k + 1):
            return False, f"odd ladder mismatch at k={k}"
        if morganvoyce.mv_poly("B", k) != morganvoyce.f_m1(2 * k + 2):
            return False, f"even ladder mismatch at k={k}"
    primes = (3, 5, 7, 11, 13, 19) if level == "full" else (3, 5, 7)
    for p in primes:
        for n in range(p + 2):
            poly = morganvoyce.f_m1(n)
            for z in range(1, p):
                if morganvoyce.lehmer_U(n, z) % p != fmp.eval_fp(n, p, z):
                    return False, f"mod-p bridge fails at (n={n}, p={p}, z={z})"
            if n >= 1 and fmp.eval_fp(n, p, 0) != 1:
                return False, f"constant term wrong at (n={n}, p={p})"
    for z in range(1, 19):
        if morganvoyce.mv_apparition(z, 19, z) != appearance.alpha_zp(z, 19).alpha:
            return False, f"apparition mismatch at z={z}, p=19"
    rng = random.Random(2024)
    for p in primes_upto(97):
        if p == 2:
            continue
        z = rng.randrange(1, p)
        lift = z + p * rng.randrange(-2, 3)
        if morganvoyce.mv_apparition(z, p, lift) != appearance.alpha_zp(z, p).alpha:
            return False, f"apparition mismatch at z={z}, p={p}"
    return True, f"ladders equal to k<={k_top}; mod-p bridge and apparition agree"


def _check_bracket_recursion(level: str) -> tuple[bool, str]:
    cases = (
        [(3, m) for m in (3, 4, 5, 6)] + [(2, m) for m in range(3, 9)]
        if level == "full"
        else [(3, 3), (3, 4), (2, 3), (2, 4), (2, 5)]
    )
    points = 0
    for p, m in cases:
        rep = dickson.verify_appendix_recursion(m, gf.make_field(p, m))
        if not rep.passed:
            return False, f"recursion fails at (p={p}, m={m}): {rep.failures[:3]}"
        points += rep.points_checked
    return True, f"{points} pointwise identities hold"


def _check_alpha_cross(level: str) -> tuple[bool, str]:
    tops = 97 if level == "full" else 31
    pairs = 0
    for p in primes_upto(tops):
        for z in range(1, p):
            rec = appearance.alpha_zp(z, p)
            if appearance.alpha_divisor_bound(z, p) % rec.alpha:
                return False, f"divisor law fails at (z={z}, p={p})"
            if appearance.alpha_via_multiplicative_order(z, p) != rec.alpha:
                return False, f"order route disagrees at (z={z}, p={p})"
            pairs += 1
    return True, f"{pairs} (z,p) pairs cross-validated, divisor law throughout"


_COVER_EXCLUDED = frozenset({1, 2, 6, 12})


def _check_entry_point_cover(level: str) -> tuple[bool, str]:
    m_top = 50 if level == "full" else 30
    bound = 10**4 if level == "full" else 10**3
    found: dict[int, int | None] = {}
    for m in range(1, m_top + 1):
        found[m] = appearance.carmichael_search(m, bound)
    for m in _COVER_EXCLUDED:
        if found.get(m) is not None:
            return False, f"witness prime found for excluded m={m}"
    misses = [
        m for m in range(3, m_top + 1) if m not in _COVER_EXCLUDED and found[m] is None
    ]
    # a miss at this scale is reported, then resolved exactly above the
    # bound through the primitive prime factors of Fib(m)
    for m in misses:
        witnesses = [q for q in factorize(fib(m)) if appearance.alpha_prime(q) == m]
        if not witnesses:
            return False, f"no witness prime exists for m={m}"
    for m, p in found.items():
        if p is not None and appearance.alpha_prime(p) != m:
            return False, f"claimed witness wrong at m={m}"
    detail = f"all m<={m_top} covered"
    if misses:
        detail = (
            f"misses above bound {bound} at m={misses}, each resolved by a "
            "primitive-factor witness"
        )
    return True, detail


def _check_entry_point_density(level: str) -> tuple[bool, str]:
    bound = 10**5 if level == "full" else 10**4
    rep = appearance.shanks_taylor_density(bound)
    for p in rep.pp1_primes:
        if p % 5 not in (2, 3):
            return False, f"alpha(p)=p+1 at p={p} not +-2 mod 5"
    if level == "full" and not 0.14 <= rep.density <= 0.21:
        return False, f"density {rep.density:.6f} outside [0.14, 0.21]"
    return True, f"density {rep.density:.6f} of {rep.total_primes} primes; {rep.count_pp1} maximal-plus cases"


ALL_CHECKS: list[tuple[str, Callable[[str], tuple[bool, str]]]] = [
    ("orbit-census", _check_orbit_census),
    ("triple-equality", _check_triple_equality),
    ("fibonacci-term-count", _check_term_count),
    ("strong-division", _check_strong_division),
    ("p19-table", _check_p19_table),
    ("trinomial-degrees", _check_trinomial_theorem),
    ("z-minus-four", _check_minus_four),
    ("frobenius-square", _check_frob_square),
    ("zigzag-bijection", _check_zigzag_bijection),
    ("representations", _check_representations),
    ("morgan-voyce-bridge", _check_morgan_voyce),
    ("bracket-recursion", _check_bracket_recursion),
    ("alpha-cross-check", _check_alpha_cross),
    ("entry-point-cover", _check_entry_point_cover),
    ("entry-point-density", _check_entry_point_density),
]


def run_check(name: str, level: str = "full") -> CheckResult:
    func = dict(ALL_CHECKS)[name]
    start = time.perf_counter()
    try:
        passed, detail = func(level)
    except Exception as exc:  # a crash is a failure, not an excuse
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(name, passed, detail, time.perf_counter() - start)


def run_all(level: str = "full") -> list[CheckResult]:
    return [run_check(name, level) for name, _ in ALL_CHECKS]
