"""Seeded request streams for the fpt benchmark, the calls each request
makes into fpt, and the independent check applied to every answer.

A workload is a list of rounds.  Every round holds the same slots (a
request kind at a fixed size class) in a seeded order with seeded
parameters, so a list of a few rounds holds nearly the same mix of work
whatever the seed; the seed changes the inputs, not how much work they
ask for.  Requests are issued by one client in a closed loop (see run.py).

Each request kind has a runner, which makes the request's calls into fpt
through a tracer (spans.Tracer), and a checker, which judges the answer
by a route that does not share the code under test.  A checker returns
True for a correct answer; `judge` turns a False, or any exception raised
while checking a corrupted answer, into a counted failure.
"""

from __future__ import annotations

import base64
import contextlib
import functools
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer

from fpt import appearance, cli, dickson, fmp, gf, morganvoyce, planes, trinomials, upoly, zigzag

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("field-sweep", "trinomial-degrees", "numeration", "cli-cold")
CLI_TIMEOUT_S = 70.0  # launch.py kills a child after 60 s


@dataclass(frozen=True)
class Request:
    kind: str
    args: tuple


# -- independent arithmetic used by the checkers ---------------------------


def fib(n: int) -> int:
    """Signed Fibonacci number, Fib(-n) = (-1)^(n+1) Fib(n)."""
    a, b = 0, 1
    for _ in range(abs(n)):
        a, b = b, a + b
    return a if n >= 0 or n % 2 else -a


def primes_upto(n: int) -> list[int]:
    """Primes <= n, for n >= 1."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 1)
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return [i for i in range(n + 1) if sieve[i]]


def _alternates(bits: tuple[int, ...], down_first: bool) -> bool:
    for k in range(len(bits) - 1):
        if (k % 2 == 0) == down_first:
            if bits[k] < bits[k + 1]:
                return False
        elif bits[k] > bits[k + 1]:
            return False
    return True


def _parity_ok(seq, parity: str) -> bool:
    return len(seq) % 2 == (parity == "odd")


# -- field-sweep ------------------------------------------------------------


def run_census(session, p, m):
    session.call("gf.make_field", gf.make_field, p, m)
    return session.call("planes.orbit_count", planes.orbit_count, p, m)


def check_census(args, c):
    p, m = args
    return (
        c.planes == planes.plane_count_formula(p, m)
        and c.enumerated_orbits == c.formula_orbits == planes.orbit_count_formula(p, m)
        and sum(size * count for size, count in c.orbit_sizes) == c.planes
    )


def run_zvalues(session, p, m):
    field = session.call("gf.make_field", gf.make_field, p, m)
    return session.call("planes.z_values", planes.z_values, field)


def check_zvalues(args, res):
    p, m = args
    z, z_circ = res
    if len(z_circ) != fmp.degree_formula(m, p) or not z_circ <= z:
        return False
    if (0 in z) != (m % 2 == 0) or len(z) - len(z_circ) != (0 in z):
        return False
    # the prime-field part of Z° is exactly the family member's roots in F_p
    roots = {c for c in range(1, p) if fmp.eval_fp(m, p, c) == 0}
    return {c for c in z_circ if c < p} == roots


def run_pencil(session, p, m, z):
    field = session.call("gf.make_field", gf.make_field, p, m)
    return session.call("planes.pencil", planes.pencil, z, field)


def check_pencil(args, pen):
    p, m, z = args
    keys = {(pl.u, pl.v) for pl in pen.planes}
    return (
        len(pen.planes) == len(keys) == (1 if z == 0 else p + 1)
        and all(pl.contains_prime_field() and pl.nu_value() == z for pl in pen.planes)
    )


def run_oracle(session, p, m):
    field = session.call("gf.make_field", gf.make_field, p, m)
    root_product = session.call("planes.oracle_fmp", planes.oracle_fmp, field)
    member = session.call("fmp.build_recursive", fmp.build_recursive, m, p)
    return root_product, session.call("fmp.to_dense", member.to_dense)


def check_oracle(args, res):
    p, m = args
    root_product, recursion = res
    return (
        root_product.coeffs == recursion.coeffs
        and recursion.degree == fmp.degree_formula(m, p)
    )


def run_appendix(session, p, m, k):
    field = session.call("gf.make_field", gf.make_field, p, m)
    return session.call("dickson.verify_appendix_recursion", dickson.verify_appendix_recursion, k, field)


def appendix_points(p, m, k):
    """Points (x, 1) the recursion check visits: x outside F_p, and for
    k >= 4 also outside the quadratic subfield when there is one."""
    excluded = p * p if k >= 4 and m % 2 == 0 else p
    return p**m - excluded


def check_appendix(args, rep):
    p, m, k = args
    return rep.passed and rep.m == k and rep.points_checked == appendix_points(p, m, k)


# (kind, (p, m)) slots of one field-sweep round: q runs from 81 to 3^10.
# Orbit census stops at 3^6 (a census of F_{2^9} alone takes ~1 s).  Five
# slots of like cost (census on (3,6) and (2,8), the three sweeps of 3^9)
# sit just below the single 3^10 sweep, so the p90 falls among them.
FIELD_SWEEP_SLOTS = (
    [("census", f) for f in ((3, 4), (3, 5), (5, 4), (2, 7), (2, 8), (3, 6))]
    + [("zvalues", f) for f in ((3, 5), (5, 5), (7, 4), (3, 7), (2, 12), (11, 4), (3, 9), (3, 10))]
    + [("pencil", f) for f in ((3, 6), (5, 4), (7, 4), (13, 3), (3, 8), (2, 12), (3, 9))]
    + [("oracle", f) for f in ((3, 5), (5, 4), (2, 11), (11, 3), (3, 7), (3, 8), (3, 9))]
    + [("appendix", f) for f in ((3, 5), (5, 4), (7, 3), (2, 10), (3, 6))]
)


def _pencil_values(p, m):
    return [z for z in range(p) if (z == 0 and m % 2 == 0) or (z and fmp.eval_fp(m, p, z) == 0)]


def gen_field_sweep(rng, rounds):
    values = {f: _pencil_values(*f) for kind, f in FIELD_SWEEP_SLOTS if kind == "pencil"}
    out = []
    for _ in range(rounds):
        batch = []
        for kind, (p, m) in FIELD_SWEEP_SLOTS:
            if kind == "pencil":
                args = (p, m, rng.choice(values[(p, m)]))
            elif kind == "appendix":
                args = (p, m, rng.randrange(5, 10))  # indices 5..9 cost alike
            else:
                args = (p, m)
            batch.append(Request(kind, args))
        out += batch
    return out


# -- trinomial-degrees ------------------------------------------------------


def run_trinomial(session, a, b, p):
    """The calls trinomials.verify_degrees makes, one span each."""
    case = session.call("trinomials.classify", trinomials.classify, a, b, p)
    predicted = session.call("trinomials.predict_degrees", trinomials.predict_degrees, a, b, p)
    poly = session.call("trinomials.trinomial_poly", trinomials.trinomial_poly, a, b, p)
    return case, predicted, session.call("upoly.distinct_degree_factor", upoly.distinct_degree_factor, poly)


def check_trinomial(args, res):
    a, b, p = args
    case, predicted, actual = res
    return (
        case.p == p
        and predicted == actual
        and actual.total_degree == predicted.total_degree == p + 1
    )


def root_order(z: int, p: int) -> int:
    """Multiplicative order of X in F_p[X]/(X^2 + (z+2)X + 1), i.e. of a
    root of that quadratic; the trinomial's factor degrees follow from it.
    Computed here with its own arithmetic, not fpt's."""
    t = -(z + 2) % p  # X^2 = tX - 1

    def mul(x, y):
        (a, b), (c, d) = x, y
        return (a * c - b * d) % p, (a * d + b * c + t * b * d) % p

    def power(e):
        out, base = (1, 0), (0, 1)
        while e:
            if e & 1:
                out = mul(out, base)
            base = mul(base, base)
            e >>= 1
        return out

    n = p + 1 if power(p + 1) == (1, 0) and power(p - 1) != (1, 0) else p - 1
    for q in _prime_factors(n):
        while n % q == 0 and power(n // q) == (1, 0):
            n //= q
    return n


def _prime_factors(n):
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    return out | ({n} if n > 1 else set())


# A slot is (branch, p, order).  The root order fixes how many Frobenius
# steps the distinct-degree loop takes ("max": all of them, up to (p+1)/2;
# "min": the smallest order the branch allows, a few steps; zeta=-1/4
# always takes all, zeta=0 none), so a slot asks for the same work
# whatever (a, b) the seed draws.  Five slots share one cost (p = 31, all
# steps), so the median request falls inside them and not in a gap
# between two unlike slots.
SMALL_BAND = (  # odd p <= 43: gcd/divmod below the numpy divmod threshold
    (trinomials.BRANCH_ZERO, 43, None),
    (trinomials.BRANCH_NONSQUARE, 23, "min"),
    (trinomials.BRANCH_SQUARE, 31, "min"),
    (trinomials.BRANCH_NONSQUARE, 31, "max"),
    (trinomials.BRANCH_NONSQUARE, 31, "max"),
    (trinomials.BRANCH_SQUARE, 31, "max"),
    (trinomials.BRANCH_SQUARE, 31, "max"),
    (trinomials.BRANCH_QUARTER, 31, None),
    (trinomials.BRANCH_NONSQUARE, 41, "max"),
    (trinomials.BRANCH_QUARTER, 43, None),
)
# Large band: numpy divmod, and F_{p^2} tables built on first touch.  Three
# slots a round (23% of requests, so the p90 falls inside this band), all
# taking every Frobenius step, one from each tier.  Round r takes prime
# r mod 3 of every tier and rotates the branches over the tiers, so any
# three consecutive rounds ask for the same work whatever the seed.
LARGE_TIERS = ((101, 113, 127), (151, 167, 181), (211, 229, 251))
LARGE_SLOTS = (
    (trinomials.BRANCH_NONSQUARE, "max"),
    (trinomials.BRANCH_SQUARE, "max"),
    (trinomials.BRANCH_QUARTER, None),
)


def _trinomial(rng, p, branch, order):
    if branch == trinomials.BRANCH_ZERO:
        return rng.randrange(1, p), 0, p
    if branch == trinomials.BRANCH_QUARTER:
        a = rng.randrange(1, p)
        return a, -a * a * pow(4, -1, p) % p, p
    group = p + 1 if branch == trinomials.BRANCH_NONSQUARE else p - 1
    want = group if order == "max" else min(d for d in range(3, group + 1) if group % d == 0)
    while True:
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        case = trinomials.classify(a, b, p)
        if case.branch == branch and root_order(case.z, p) == want:
            return a, b, p


def gen_trinomial_degrees(rng, rounds):
    out = []
    for r in range(rounds):
        batch = [Request("trinomial", _trinomial(rng, p, branch, order)) for branch, p, order in SMALL_BAND]
        for i, tier in enumerate(LARGE_TIERS):
            branch, order = LARGE_SLOTS[(i + r) % len(LARGE_SLOTS)]
            batch.append(Request("trinomial", _trinomial(rng, tier[r % len(tier)], branch, order)))
        rng.shuffle(batch)
        out += batch
    return out


# -- numeration -------------------------------------------------------------


def _zz(name):
    fn = getattr(zigzag, name)
    return lambda session, *args: session.call("zigzag." + name, fn, *args)


def check_downup(args, seq):
    n, parity = args
    return (
        seq.orientation == zigzag.DOWN_UP
        and _alternates(seq.bits, True)
        and _parity_ok(seq, parity)
        and zigzag.value_fib(seq) == n
    )


def check_updown(args, seq):
    n, parity = args
    return (
        seq.orientation == zigzag.UP_DOWN
        and _alternates(seq.bits, False)
        and _parity_ok(seq, parity)
        and zigzag.value_fib(seq) == n
    )


def check_downup_sfib(args, seq):
    (n,) = args
    return seq.orientation == zigzag.DOWN_UP and _alternates(seq.bits, True) and zigzag.value_sfib(seq) == n


def check_updown_sfib(args, seq):
    n, parity = args
    return (
        seq.orientation == zigzag.UP_DOWN
        and _alternates(seq.bits, False)
        and _parity_ok(seq, parity)
        and zigzag.value_sfib(seq) == n
    )


def check_zeckendorf(args, idx):
    (n,) = args
    return (
        sum(fib(k) for k in idx) == n
        and all(k >= 2 for k in idx)
        and all(a - b >= 2 for a, b in zip(idx, idx[1:]))
    )


def check_negafibonacci(args, idx):
    (n,) = args
    return (
        sum(fib(-k) for k in idx) == n
        and all(k >= 1 for k in idx)
        and all(b - a >= 2 for a, b in zip(idx, idx[1:]))
    )


def check_enum(args, seqs):
    n, orientation = args
    down = orientation == zigzag.DOWN_UP
    return (
        len(seqs) == fib(n + 2)
        and len({s.bits for s in seqs}) == len(seqs)
        and all(len(s.bits) == n and s.orientation == orientation for s in seqs)
        and all(_alternates(s.bits, down) for s in seqs)
    )


def run_build_recursive(session, m, p):
    return session.call("fmp.build_recursive", fmp.build_recursive, m, p)


def check_build_recursive(args, member):
    m, p = args
    return (
        len(member.support) == fmp.support_size(m, p) == fib(m)
        and member.degree == fmp.degree_formula(m, p)
    )


def run_build_zigzag(session, m, p):
    return session.call("fmp.build_zigzag", fmp.build_zigzag, m, p)


def check_build_zigzag(args, member):
    m, p = args
    return len(member.support) == fib(m) and member.support == fmp.build_recursive(m, p).support


def run_support_size(session, m, p):
    return session.call("fmp.support_size", fmp.support_size, m, p)


def check_support_size(args, size):
    m, p = args
    return size == fib(m)


def run_alpha_table(session, p):
    return session.call("appearance.alpha_table", appearance.alpha_table, p)


def check_alpha_table(args, records):
    (p,) = args
    if [r.z for r in records] != list(range(1, p)):
        return False
    for r in records:
        # z = -4 is criterion 7 (alpha = p); elsewhere the multiplicative-order route
        want = p if (r.z + 4) % p == 0 else appearance.alpha_via_multiplicative_order(r.z, p)
        if r.p != p or r.alpha != want:
            return False
    return True


def run_carmichael(session, m, limit):
    return session.call("appearance.carmichael_search", appearance.carmichael_search, m, limit)


def check_carmichael(args, prime):
    # alpha(q) = m exactly when q divides Fib(m) but no Fib(d), d a proper divisor of m
    m, limit = args
    fm = fib(m)
    proper = [fib(d) for d in range(1, m) if m % d == 0]
    hits = (q for q in primes_upto(limit) if fm % q == 0 and all(f % q for f in proper))
    return prime == next(hits, None)


def run_density(session, limit):
    return session.call("appearance.shanks_taylor_density", appearance.shanks_taylor_density, limit)


def check_density(args, rep):
    (limit,) = args
    total = len(primes_upto(limit))
    sample = rep.pp1_primes[:1] + rep.pp1_primes[-1:]
    return (
        rep.total_primes == total
        and rep.count_pp1 == len(rep.pp1_primes)
        and rep.count_pm1 + rep.count_pp1 <= total
        and rep.density == rep.count_pm1 / total
        and all(appearance.alpha_classical(q) == q + 1 for q in sample)
    )


def run_mv_apparition(session, z, p, lift):
    return session.call("morganvoyce.mv_apparition", morganvoyce.mv_apparition, z, p, lift)


def check_mv_apparition(args, index):
    # exact-integer Morgan-Voyce values vs the mod-p family recursion
    z, p, lift = args
    return index == appearance.alpha_zp(z, p).alpha


_MV_PRIMES = tuple(q for q in primes_upto(300) if q >= 200)
_TABLE_PRIMES = (71, 73, 79)
# carmichael_search indices m whose search scans alike (60-70 ms here)
_CARMICHAEL_M = (12, 23, 29, 33, 35, 38, 43)


def _sized(rng, length):
    """An n whose minimal zigzag representation has exactly this length."""
    return rng.randrange(fib(length), fib(length + 2))


def gen_numeration(rng, rounds):
    """Every slot has a fixed size class; the seed draws inputs within it.
    The sfib costs step with |n| and sign, so each slot keeps to one step.
    Per round the two costliest slots are the density scan and carmichael,
    with enum_zigzag close below, so the p90 falls among like requests."""
    out = []
    for r in range(rounds):
        batch = []
        for _ in range(2):
            batch.append(Request("to_downup", (rng.randrange(10**9), rng.choice(("odd", "even")))))
            batch.append(Request("zeckendorf", (rng.randrange(1, 10**12),)))
            batch.append(Request("negafibonacci", (rng.randrange(-10**9, 10**9),)))
            z_p = rng.choice(_MV_PRIMES)
            z = rng.randrange(1, z_p)
            batch.append(Request("mv_apparition", (z, z_p, z + z_p * rng.randrange(4))))
        batch.append(Request("to_updown", (_sized(rng, 13), "odd")))
        if r % 2:
            batch.append(Request("to_downup_sfib", (rng.randrange(150, 300),)))
            batch.append(Request("to_updown_sfib", (-rng.randrange(100, 240), "odd")))
        else:
            batch.append(Request("to_downup_sfib", (-rng.randrange(90, 230),)))
            batch.append(Request("to_updown_sfib", (rng.randrange(150, 300), "odd")))
        batch.append(Request("enum_zigzag", (18, rng.choice((zigzag.DOWN_UP, zigzag.UP_DOWN)))))
        batch.append(Request("build_recursive", (17, rng.choice((2, 3, 5, 7, 11)))))
        batch.append(Request("build_zigzag", (13, rng.choice((2, 3, 5, 7, 11)))))
        batch.append(Request("support_size", (rng.randrange(20, 61), rng.choice((3, 5, 7, 11)))))
        batch.append(Request("alpha_table", (rng.choice(_TABLE_PRIMES),)))
        batch.append(Request("carmichael", (rng.choice(_CARMICHAEL_M), 10**4)))
        batch.append(Request("density", (rng.randrange(20000, 25001),)))
        rng.shuffle(batch)
        out += batch
    return out


# -- cli-cold ---------------------------------------------------------------


@dataclass(frozen=True)
class CliResult:
    code: int
    out: bytes
    err: bytes
    maxrss_kb: int


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FPT_BUDGET"}
    env["PYTHONPATH"] = str(SRC)
    return env


class Launcher:
    """A small process (launch.py) that starts each CLI child, so that a
    child's peak RSS is its own and not the benchmark's (see launch.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(ROOT / "perfbench" / "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
        )

    def run(self, argv) -> CliResult:
        self.proc.stdin.write(json.dumps([sys.executable, "-m", "fpt.cli", *argv]) + "\n")
        self.proc.stdin.flush()
        rep = json.loads(self.proc.stdout.readline())
        return CliResult(rep["code"], base64.b64decode(rep["out"]), base64.b64decode(rep["err"]), rep["maxrss_kb"])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()  # EOF ends the launcher
        try:
            self.proc.wait(timeout=CLI_TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


@dataclass
class Session:
    """What a runner needs: the tracer its fpt calls go through and, for
    CLI requests, the launcher that starts the children."""

    tracer: Tracer
    launcher: Launcher | None = None

    def call(self, name, fn, *args):
        return self.tracer.call(name, fn, *args)


def run_cli(session, argv, expected):
    return session.call("cli.cold", session.launcher.run, argv)


@functools.lru_cache(maxsize=None)
def warm_main(argv: tuple) -> tuple[int, bytes]:
    """Exit code and stdout of the same argv through cli.main in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue().encode()


def cli_contract_ok(res: CliResult, expected: int) -> bool:
    """Exit code as documented, no traceback, and one JSON document on
    success or an empty stdout with a one-line reason on refusal."""
    if res.code != expected or b"Traceback" in res.err:
        return False
    if expected == 0:
        lines = res.out.splitlines()
        return len(lines) == 1 and res.out.endswith(b"\n") and isinstance(json.loads(lines[0]), dict)
    prefix = b"budget refused:" if expected == 2 else b"error:"
    return res.out == b"" and res.err.startswith(prefix)


def check_cli(args, res):
    argv, expected = args
    return cli_contract_ok(res, expected) and warm_main(argv) == (res.code, res.out)


_FMP_PRIMES = (3, 5, 7, 11)
_EVAL_PRIMES = tuple(primes_upto(97))
_SMALL_FIELDS = ((2, 6), (3, 4), (3, 5), (5, 3), (5, 4))
_SWEEP_FIELDS = ((3, 5), (3, 6), (5, 4), (7, 3), (2, 8))
_PENCILS = tuple((p, m, z) for p, m in ((3, 6), (5, 4), (7, 4), (13, 3), (3, 4)) for z in _pencil_values(p, m))
# (p, m) and (p, z) pairs that finish in well under 0.1 s today
_GENERATE = ((7, 3), (7, 6), (7, 8), (11, 6), (11, 10), (11, 12), (13, 6), (13, 7), (13, 12),
             (17, 6), (17, 8), (17, 9), (17, 16), (19, 5), (19, 6), (19, 9), (19, 10), (23, 6), (23, 11))
_FROB2 = ((3, 1), (3, 2), (5, 1), (5, 3), (5, 4), (7, 5), (7, 6), (11, 10), (13, 12))
# Documented refusals: budget (exit 2) and invalid input (exit 1), each ending in well under a second.
CLI_REFUSALS = (
    (("planes", "count", "--p", "3", "--m", "14"), 2),
    (("zigzag", "enum", "--n", "41"), 2),
    (("planes", "zvalues", "--p", "2", "--m", "21"), 2),
    (("trinomial", "verify", "--p", "2003", "--a", "1", "--b", "4"), 2),
    (("--budget", "100", "planes", "zvalues", "--p", "3", "--m", "5"), 2),
)
CLI_INVALID = (
    (("zigzag", "zeck", "0"), 1),
    (("alpha", "classical", "--n", "1"), 1),
    (("fmp", "eval", "--p", "3", "--m", "5"), 1),
    (("planes", "pencil", "--p", "3", "--m", "5", "--z", "1"), 1),
    (("trinomial", "generate", "--p", "2", "--m", "2"), 1),
    (("mv", "poly", "--kind", "B", "--k", "-1"), 1),
    (("trinomial", "predict", "--p", "7", "--a", "0", "--b", "1"), 1),
    (("bogus",), 1),
)
# Invalid inputs whose documented answer is exit 1 but which today exit 0
# or end in a traceback.  They run once per run, outside the request
# stream, and are reported as cli.contract_violations.
CLI_KNOWN_DEFECTS = (
    (("alpha", "table", "--p", "15"), 1),
    (("alpha", "density", "--limit", "1"), 1),
    (("fmp", "eval", "--p", "4", "--m", "5", "--z", "1"), 1),
    (("mv", "apparition", "--p", "9", "--z", "2"), 1),
    (("alpha", "table", "--p", "1"), 1),
)


def _cli_round(rng):
    """One argv per subcommand (selfcheck aside), README-scale, seeded."""
    def s(*words):
        return tuple(str(w) for w in words)

    def pm(pool):  # "P --m M" for a seeded (p, m) of the pool
        p, m = rng.choice(pool)
        return p, "--m", m

    ev = rng.choice(_EVAL_PRIMES)
    tp = rng.choice((5, 7, 11, 13, 17, 19, 23, 29, 31))
    a = rng.randrange(1, tp)
    mp = rng.choice(_EVAL_PRIMES[5:])
    mz = rng.randrange(1, mp)
    pencil_p, pencil_m, pencil_z = rng.choice(_PENCILS)
    frob_p, frob_z = rng.choice(_FROB2)
    kind = rng.choice(("downup", "downup-sfib", "updown", "updown-sfib", "negafib"))
    if kind == "downup":
        n = rng.randrange(10**6)
    elif kind == "updown":
        n = rng.randrange(100, 600)
    elif kind == "negafib":
        n = rng.randrange(-10**6, 10**6)
    else:
        n = rng.randrange(-200, 200)
    return [
        s("fmp", "build", "--p", rng.choice(_FMP_PRIMES), "--m", rng.randrange(12, 19)),
        s("fmp", "eval", "--p", ev, "--m", rng.randrange(3, 41), "--z", rng.randrange(ev)),
        s("fmp", "gcd", "--p", 3, "--m", rng.randrange(4, 13), "--n", rng.randrange(4, 13)),
        s("planes", "count", "--p", *pm(_SMALL_FIELDS)),
        s("planes", "zvalues", "--p", *pm(_SWEEP_FIELDS)),
        s("planes", "pencil", "--p", pencil_p, "--m", pencil_m, "--z", pencil_z),
        s("zigzag", "zeck", rng.randrange(1, 10**9)),
        s("zigzag", "rep", "--kind", kind, "--", n),
        s("zigzag", "enum", "--n", rng.randrange(4, 15)),
        s("alpha", "table", "--p", rng.choice(_EVAL_PRIMES[4:])),
        s("alpha", "classical", "--n", rng.randrange(2, 10**4)),
        s("alpha", "density", "--limit", rng.randrange(1000, 5001)),
        s("alpha", "carmichael", "--m", rng.randrange(10, 41), "--limit", 10**4),
        s("trinomial", "predict", "--p", tp, "--a", a, "--b", rng.randrange(tp)),
        s("trinomial", "verify", "--p", tp, "--a", a, "--b", rng.randrange(tp)),
        s("trinomial", "generate", "--p", *pm(_GENERATE)),
        s("trinomial", "frob2", "--p", frob_p, "--z", frob_z),
        s("mv", "poly", "--kind", rng.choice("bB"), "--k", rng.randrange(31)),
        s("mv", "apparition", "--p", mp, "--z", mz, "--lift", mz + mp * rng.randrange(3)),
        s("verify", "appendix", "--p", *pm(_SWEEP_FIELDS)),
    ]


def gen_cli_cold(rng, rounds):
    out = []
    for _ in range(rounds):
        batch = [Request("cli", (argv, 0)) for argv in _cli_round(rng)]
        batch.append(Request("cli", rng.choice(CLI_REFUSALS)))
        batch.append(Request("cli", rng.choice(CLI_INVALID)))
        rng.shuffle(batch)
        out += batch
    return out


# -- registry ---------------------------------------------------------------

KINDS = {  # kind -> (runner, checker)
    "census": (run_census, check_census),
    "zvalues": (run_zvalues, check_zvalues),
    "pencil": (run_pencil, check_pencil),
    "oracle": (run_oracle, check_oracle),
    "appendix": (run_appendix, check_appendix),
    "trinomial": (run_trinomial, check_trinomial),
    "to_downup": (_zz("to_downup"), check_downup),
    "to_updown": (_zz("to_updown"), check_updown),
    "to_downup_sfib": (_zz("to_downup_sfib"), check_downup_sfib),
    "to_updown_sfib": (_zz("to_updown_sfib"), check_updown_sfib),
    "zeckendorf": (_zz("zeckendorf"), check_zeckendorf),
    "negafibonacci": (_zz("negafibonacci"), check_negafibonacci),
    "enum_zigzag": (_zz("enum_zigzag"), check_enum),
    "build_recursive": (run_build_recursive, check_build_recursive),
    "build_zigzag": (run_build_zigzag, check_build_zigzag),
    "support_size": (run_support_size, check_support_size),
    "alpha_table": (run_alpha_table, check_alpha_table),
    "carmichael": (run_carmichael, check_carmichael),
    "density": (run_density, check_density),
    "mv_apparition": (run_mv_apparition, check_mv_apparition),
    "cli": (run_cli, check_cli),
}

_GENERATORS = {
    "field-sweep": gen_field_sweep,
    "trinomial-degrees": gen_trinomial_degrees,
    "numeration": gen_numeration,
    "cli-cold": gen_cli_cold,
}


def make_requests(workload: str, seed: int, rounds: int) -> list[Request]:
    """The seeded request list: the same (workload, seed) always gives the same list."""
    return _GENERATORS[workload](random.Random(f"{workload}/{seed}"), rounds)


def execute(session, req: Request):
    return KINDS[req.kind][0](session, *req.args)


def judge(req: Request, result) -> bool:
    """True when the checker accepts the answer; a checker that raises on
    a malformed answer counts as a rejection."""
    try:
        return KINDS[req.kind][1](req.args, result) is True
    except Exception:  # a corrupted answer may break the checker itself
        return False
