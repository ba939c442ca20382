"""Acceptance gate: every release criterion at its stated scale.

Each test prints its pass/fail line (visible with -s or on failure);
the same checks back the CLI selfcheck command.
"""

from fpt.selfcheck import ALL_CHECKS, run_check

_NAMES = [name for name, _ in ALL_CHECKS]


def _run(name):
    result = run_check(name, level="full")
    print(result.line())
    assert result.passed, result.detail
    return result


def test_criterion_01_orbit_census():
    # 11,011 planes in 31 orbits for (p=3, m=6); < 10 s
    r = _run("orbit-census")
    assert r.seconds < 10


def test_criterion_02_triple_equality():
    # recursion = zigzag for m <= 20, p in {2,3,5,7}; both equal the
    # root-product oracle for (2,<=16), (3,<=10), (5,<=7); < 2 min
    r = _run("triple-equality")
    assert r.seconds < 120


def test_criterion_03_term_count():
    # |support| = Fib(m) for m <= 40, p in {2,3,5,7,11}
    _run("fibonacci-term-count")


def test_criterion_04_strong_division():
    # gcd(f_m, f_n) = f_gcd(m,n) over F_2, F_3 for 2 <= m,n <= 9
    _run("strong-division")


def test_criterion_05_p19_table():
    # the 8-row table with matching factor shapes; < 5 s
    r = _run("p19-table")
    assert r.seconds < 5


def test_criterion_06_trinomial_theorem():
    # predicted = actual degree multiset for every (a,b), odd p <= 31; < 2 min
    r = _run("trinomial-degrees")
    assert r.seconds < 120


def test_criterion_07_minus_four():
    # alpha(-4,p) = p and the reduced polynomial irreducible, odd p <= 47
    _run("z-minus-four")


def test_criterion_08_frobenius_square():
    # I_0(t,1) = t^(p^2) for all roots, p=3 z in {1,2}, p=5 z in {1,4}; < 1 min
    r = _run("frobenius-square")
    assert r.seconds < 60


def test_criterion_09_zigzag_bijection():
    # value_fib bijects onto [0, Fib(n+2)) for n <= 18; counts to n <= 25
    _run("zigzag-bijection")


def test_criterion_10_representations():
    # zeckendorf(64) = {10,6,2}; signed representations of 12 and -43
    _run("representations")


def test_criterion_11_morgan_voyce():
    # ladder identity k <= 50; mod-p bridge over F_p^*; apparition = alpha
    _run("morgan-voyce-bridge")


def test_criterion_12_bracket_recursion():
    # pointwise recursion over F_3^(3..6) and F_2^(3..8); < 1 min
    r = _run("bracket-recursion")
    assert r.seconds < 60


def test_criterion_13_alpha_cross_validation():
    # both alpha routes agree for all z, all primes p <= 97; divisor law
    _run("alpha-cross-check")


def test_criterion_14_entry_point_cover():
    # every m <= 50 outside {1,2,6,12} has a witness prime (misses at the
    # 1e4 bound are reported and resolved above it); {6,12} have none
    _run("entry-point-cover")


def test_criterion_15_entry_point_density():
    # statistical band for the conjectural density; exact mod-5 filter; < 5 min
    r = _run("entry-point-density")
    assert r.seconds < 300


def test_all_criteria_have_tests():
    import re
    from pathlib import Path

    thismod = Path(__file__).read_text()
    for name in _NAMES:
        assert re.search(rf'_run\("{name}"\)', thismod), name
