"""Per-layer metrics of the traced run, one layer per module of src/fpt.

Every value carries its source, printed next to it:
  span       mean duration of one fpt call's spans in the traced pass;
  kernel     a layer function timed on inputs drawn from the workload's
             own requests;
  reference  the same timing on README-scale inputs, for a function the
             workload does not call (so every metric is measured on every
             workload);
  computed   a work count or ratio derived from the requests' inputs and
             outputs, not measured, so it repeats exactly for a seed (the
             cli-cold requests run in children, so there it is 0);
  measured   timed directly whatever the workload: CLI import and parser
             build, tracing overhead, the CLI contract probes;
  traced     call and failure counts of the spans themselves.
Which end-to-end metric each layer metric should move, and on which
workload, is recorded in spec.json and printed beside it.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W

from fpt import appearance, cli, dickson, fmp, gf, morganvoyce, numth, planes, trinomials, upoly, zigzag
from fpt.errors import DependentPair

LAYERS = ("gf", "upoly", "dickson", "planes", "fmp", "zigzag", "appearance", "trinomials", "morganvoyce", "numth", "cli")
SPEC = Path(__file__).resolve().parent / "spec.json"
KERNEL_S = 0.06  # least time spent timing one kernel metric

REF_FIELDS = ((3, 5), (3, 6), (5, 4), (2, 8))
REF_TRINOMIALS = ((1, 4, 19), (2, 3, 23), (1, 1, 13), (1, 4, 113), (2, 7, 127))
REF_ZP = ((16, 19), (3, 101), (5, 53))
REF_LIMIT = 10**4
REF_ARGVS = (
    ("zigzag", "zeck", "64"),
    ("fmp", "eval", "--p", "19", "--m", "6", "--z", "16"),
    ("trinomial", "verify", "--p", "19", "--a", "1", "--b", "4"),
    ("planes", "count", "--p", "3", "--m", "5"),
)
SMALL_P = 43  # the trinomial bands split here, below/above the numpy divmod path

# metric -> (span name, multiplier from ms)
SPAN_METRICS = {
    "dickson.verify_appendix_ms": ("dickson.verify_appendix_recursion", 1),
    "planes.orbit_count_ms": ("planes.orbit_count", 1),
    "planes.z_values_ms": ("planes.z_values", 1),
    "planes.pencil_ms": ("planes.pencil", 1),
    "planes.oracle_fmp_ms": ("planes.oracle_fmp", 1),
    "fmp.build_recursive_ms": ("fmp.build_recursive", 1),
    "fmp.build_zigzag_ms": ("fmp.build_zigzag", 1),
    "fmp.to_dense_ms": ("fmp.to_dense", 1),
    "zigzag.to_updown_ms": ("zigzag.to_updown", 1),
    "zigzag.to_downup_sfib_ms": ("zigzag.to_downup_sfib", 1),
    "zigzag.to_updown_sfib_ms": ("zigzag.to_updown_sfib", 1),
    "zigzag.to_downup_us": ("zigzag.to_downup", 1e3),
    "zigzag.zeckendorf_us": ("zigzag.zeckendorf", 1e3),
    "zigzag.negafibonacci_us": ("zigzag.negafibonacci", 1e3),
    "zigzag.enum_zigzag_ms": ("zigzag.enum_zigzag", 1),
    "trinomials.predict_degrees_us": ("trinomials.predict_degrees", 1e3),
    "morganvoyce.mv_apparition_us": ("morganvoyce.mv_apparition", 1e3),
}


def _reference_calls() -> dict:
    """span name -> (function, argument tuples) on README-scale inputs."""
    f35, f36 = gf.make_field(3, 5), gf.make_field(3, 6)
    member = fmp.build_recursive(12, 3)
    return {
        "dickson.verify_appendix_recursion": (dickson.verify_appendix_recursion, [(5, f35)]),
        "planes.orbit_count": (planes.orbit_count, [(3, 5)]),
        "planes.z_values": (planes.z_values, [(f36,)]),
        "planes.pencil": (planes.pencil, [(2, f36)]),
        "planes.oracle_fmp": (planes.oracle_fmp, [(f36,)]),
        "fmp.build_recursive": (fmp.build_recursive, [(16, 3)]),
        "fmp.build_zigzag": (fmp.build_zigzag, [(12, 3)]),
        "fmp.to_dense": (member.to_dense, [()]),
        "zigzag.to_updown": (zigzag.to_updown, [(400, "odd")]),
        "zigzag.to_downup_sfib": (zigzag.to_downup_sfib, [(77,)]),
        "zigzag.to_updown_sfib": (zigzag.to_updown_sfib, [(-50, "odd")]),
        "zigzag.to_downup": (zigzag.to_downup, [(10**6, "odd")]),
        "zigzag.zeckendorf": (zigzag.zeckendorf, [(64,)]),
        "zigzag.negafibonacci": (zigzag.negafibonacci, [(-43,)]),
        "zigzag.enum_zigzag": (zigzag.enum_zigzag, [(14,)]),
        "trinomials.predict_degrees": (trinomials.predict_degrees, [(1, 4, 19)]),
        "morganvoyce.mv_apparition": (morganvoyce.mv_apparition, [(16, 19, 16)]),
    }


def per_call(fn, arglist, min_s: float = KERNEL_S) -> float:
    """Seconds per call: the argument list is run in batches until min_s
    has passed (at least one batch); median of the batch means."""
    batches, start = [], time.perf_counter()
    while not batches or (time.perf_counter() - start < min_s and len(batches) < 200):
        t0 = time.perf_counter()
        for args in arglist:
            fn(*args)
        batches.append((time.perf_counter() - t0) / len(arglist))
    return statistics.median(batches)


# -- inputs of the workload's requests -------------------------------------


def _argv_field(argv):
    if argv[0] in ("planes", "verify") and "--m" in argv:
        return int(argv[argv.index("--p") + 1]), int(argv[argv.index("--m") + 1])
    return None


def fields_of(requests) -> list[tuple[int, int]]:
    """Fields the requests build, in first-touch order."""
    seen = {}
    for r in requests:
        if r.kind in ("census", "zvalues", "pencil", "oracle", "appendix"):
            seen[r.args[:2]] = None
        elif r.kind == "trinomial":
            a, b, p = r.args
            if trinomials.classify(a, b, p).branch == trinomials.BRANCH_NONSQUARE:
                seen[(p, 2)] = None
        elif r.kind == "cli" and _argv_field(r.args[0]):
            seen[_argv_field(r.args[0])] = None
    return list(seen)


def zp_pairs_of(requests, rng) -> list[tuple[int, int]]:
    out = []
    for r in requests:
        if r.kind == "pencil" and r.args[2]:
            out.append((r.args[2], r.args[0]))
        elif r.kind == "trinomial":
            case = trinomials.classify(*r.args)
            if case.z is not None:
                out.append((case.z, case.p))
        elif r.kind == "mv_apparition":
            out.append(r.args[:2])
        elif r.kind == "alpha_table":
            out.append((rng.randrange(1, r.args[0]), r.args[0]))
    return out


def _search_candidates(req, seq) -> int:
    """Sequences the exhaustive search enumerated before its hit, from the
    length of the answer: Fib(L+2) sequences of each length L scanned."""
    if req.kind == "to_updown":
        lengths = [len(seq)]
    elif req.kind == "to_downup_sfib":
        lengths = range(1, len(seq) + 1) if req.args[0] else []
    else:
        lengths = range(1 if req.args[1] == "odd" else 0, len(seq) + 1, 2) if len(seq) else []
    return sum(W.fib(n + 2) for n in lengths)


def ddf_steps(multiset, branch) -> tuple[int, int]:
    """(Frobenius steps, steps that split off a factor) of the
    distinct-degree loop that produced this multiset.  A trinomial with
    b != 0 is squarefree, so the loop runs once over the whole of it; with
    b = 0 every squarefree part is linear and no step is taken."""
    if branch == trinomials.BRANCH_ZERO:
        return 0, 0
    counts = multiset.as_dict()
    remaining, steps, useful, d = multiset.total_degree, 0, 0, 1
    while 2 * d <= remaining:
        steps += 1
        useful += d in counts
        remaining -= d * counts.get(d, 0)
        d += 1
    return steps, useful


def computed_counts(requests, results) -> dict[str, float]:
    c = dict.fromkeys(
        ("planes_enumerated", "elements_swept", "identities_checked", "terms_built", "sequences_enumerated",
         "frobenius_steps", "useful_steps", "search_hits", "search_candidates", "primes_scanned"), 0)
    for r, out in zip(requests, results):
        k, a = r.kind, r.args
        if k == "census":
            c["planes_enumerated"] += planes.plane_count_formula(*a)
        if k in ("zvalues", "pencil", "oracle"):
            c["elements_swept"] += a[0] ** a[1]
        if k == "appendix":
            c["identities_checked"] += W.appendix_points(*a)
        if k == "oracle":
            c["terms_built"] += W.fib(a[1])
        if k in ("build_recursive", "build_zigzag"):
            c["terms_built"] += W.fib(a[0])
        if k == "build_zigzag":
            c["sequences_enumerated"] += W.fib(a[0])
        if k == "enum_zigzag":
            c["sequences_enumerated"] += W.fib(a[0] + 2)
        if k in ("to_updown", "to_downup_sfib", "to_updown_sfib") and out is not None:
            n = _search_candidates(r, out)
            c["search_candidates"] += n
            c["search_hits"] += n > 0
        if k == "trinomial" and out is not None:
            steps, useful = ddf_steps(out[2], out[0].branch)
            c["frobenius_steps"] += steps
            c["useful_steps"] += useful
        if k == "density" and out is not None:
            c["primes_scanned"] += out.total_primes
        if k == "carmichael":
            c["primes_scanned"] += len(W.primes_upto(out if out is not None else a[1]))
    return c


# -- the metrics ---------------------------------------------------------------


def per_layer(workload, seed, requests, results, tracer, launcher) -> dict[str, tuple[float, str]]:
    """name -> (value, source) for every per-layer metric but the two the
    caller measures itself (tracing overhead, CLI contract probes)."""
    rng = random.Random(f"kernels/{workload}/{seed}")
    vals: dict[str, tuple[float, str]] = {}
    table = tracer.layer_table()
    for layer in LAYERS:
        row = table.get(layer, {"calls": 0, "failed": 0})
        vals[f"{layer}.calls"] = (row["calls"], "traced")
        vals[f"{layer}.failed"] = (row["failed"], "traced")

    durations = tracer.durations_ms()
    refs = _reference_calls()
    for metric, (span, scale) in SPAN_METRICS.items():
        if durations.get(span):
            vals[metric] = (statistics.fmean(durations[span]) * scale, "span")
        else:
            fn, arglist = refs[span]
            vals[metric] = (per_call(fn, arglist) * 1e3 * scale, "reference")

    vals.update(_gf_metrics(requests, rng))
    vals.update(_upoly_metrics(requests, rng))
    vals.update(_point_metrics(requests, rng))
    vals.update(_scan_metrics(requests, rng))
    vals.update(_cli_metrics(requests, tracer, launcher))

    c = computed_counts(requests, results)
    for name, key in (
        ("planes.planes_enumerated", "planes_enumerated"),
        ("planes.elements_swept", "elements_swept"),
        ("dickson.identities_checked", "identities_checked"),
        ("fmp.terms_built", "terms_built"),
        ("zigzag.sequences_enumerated", "sequences_enumerated"),
        ("upoly.frobenius_steps", "frobenius_steps"),
        ("appearance.primes_scanned", "primes_scanned"),
    ):
        vals[name] = (c[key], "computed")
    vals["upoly.ddf_useful_ratio"] = (c["useful_steps"] / c["frobenius_steps"] if c["frobenius_steps"] else 0.0, "computed")
    vals["zigzag.search_hit_ratio"] = (c["search_hits"] / c["search_candidates"] if c["search_candidates"] else 0.0, "computed")
    return vals


def _gf_metrics(requests, rng):
    fields = fields_of(requests)
    # exp and log tables: q - 1 and q entries for each extension field within TABLE_LIMIT
    entries = sum(2 * p**m - 1 for p, m in fields if m >= 2 and p**m <= gf.TABLE_LIMIT)
    source = "kernel" if fields else "reference"
    fields = fields or list(REF_FIELDS)
    extension = [gf.make_field(p, m) for p, m in fields if m >= 2]
    build = statistics.fmean(per_call(gf.make_field.__wrapped__, [f], 0) for f in fields)
    out = {"gf.make_field_ms": (build * 1e3, source), "gf.table_entries": (entries, "computed")}
    mul, pw, frob, order = [], [], [], []
    for F in extension:
        xs = [rng.randrange(1, F.q) for _ in range(256)]
        pairs = list(zip(xs, xs[1:] + xs[:1]))
        mul.append(per_call(F.mul_code, pairs))
        pw.append(per_call(F.pow_code, [(x, rng.randrange(F.q)) for x in xs]))
        frob.append(per_call(F.frob_code, [(x, 1) for x in xs]))
        order.append(per_call(F.order_code, [(x,) for x in xs[:32]]))
    out["gf.mul_code_ns"] = (statistics.fmean(mul) * 1e9, source)
    out["gf.pow_code_ns"] = (statistics.fmean(pw) * 1e9, source)
    out["gf.frob_code_ns"] = (statistics.fmean(frob) * 1e9, source)
    out["gf.order_code_us"] = (statistics.fmean(order) * 1e6, source)
    return out


def _upoly_metrics(requests, rng):
    triples = list(dict.fromkeys(r.args for r in requests if r.kind == "trinomial"))
    source = "kernel" if triples else "reference"
    triples = triples or list(REF_TRINOMIALS)
    polys = [trinomials.trinomial_poly(a, b, p) for a, b, p in triples]
    out = {
        "upoly.distinct_degree_factor_ms": (per_call(upoly.distinct_degree_factor, [(f,) for f in polys[:12]], 0) * 1e3, source),
        "upoly.squarefree_ms": (per_call(upoly.squarefree_decomposition, [(f,) for f in polys[:12]]) * 1e3, source),
    }
    for band in ("small", "large"):
        chosen = [f for f in polys if (f.field.p <= SMALL_P) == (band == "small")][:6]
        band_source = source if chosen else "reference"
        if not chosen:
            chosen = [trinomials.trinomial_poly(a, b, p) for a, b, p in REF_TRINOMIALS if (p <= SMALL_P) == (band == "small")]
        x = [upoly.DensePoly.x(f.field) for f in chosen]
        halves = [
            upoly.DensePoly.make(f.field, [rng.randrange(f.field.p) for _ in range(f.degree // 2)] + [1]) for f in chosen
        ]
        out[f"upoly.frobenius_step_us.{band}"] = (
            per_call(upoly.poly_powmod, [(xi, f.field.p, f) for xi, f in zip(x, chosen)]) * 1e6, band_source)
        out[f"upoly.gcd_us.{band}"] = (per_call(upoly.poly_gcd, list(zip(chosen, halves))) * 1e6, band_source)
        out[f"upoly.divmod_us.{band}"] = (per_call(divmod, list(zip(chosen, halves))) * 1e6, band_source)
    return out


def _point_metrics(requests, rng):
    """Per-element kernels of dickson, planes and appearance."""
    fields = fields_of(requests)
    source = "kernel" if fields else "reference"
    fields = [gf.make_field(p, m) for p, m in (fields or REF_FIELDS) if m >= 2]
    nu, canon = [], []
    for F in fields:
        xs = [rng.randrange(F.p, F.q) for _ in range(128)]
        nu.append(per_call(dickson.nu_point_code, [(F, x) for x in xs]))
        pairs = [(x, y) for x, y in zip(xs, xs[1:]) if _independent(F, x, y)]
        canon.append(per_call(planes.canonical_plane, [(F, x, y) for x, y in pairs]))
    zp = zp_pairs_of(requests, rng)
    out = {
        "dickson.nu_point_code_us": (statistics.fmean(nu) * 1e6, source),
        "planes.canonical_plane_us": (statistics.fmean(canon) * 1e6, source),
        "appearance.alpha_zp_us": (per_call(appearance.alpha_zp, zp[:64] or list(REF_ZP)) * 1e6, "kernel" if zp else "reference"),
    }
    return out


def _independent(F, x, y) -> bool:
    try:
        planes.canonical_plane(F, x, y)
    except DependentPair:
        return False
    return True


def _scan_metrics(requests, rng):
    limits = sorted({r.args[-1] for r in requests if r.kind in ("density", "carmichael")})
    source = "kernel" if limits else "reference"
    limits = limits or [REF_LIMIT]
    ps = [q for q in W.primes_upto(limits[0]) if q > 5][-64:]
    return {
        "numth.primes_upto_ms": (per_call(numth.primes_upto, [(n,) for n in limits]) * 1e3, source),
        "appearance.alpha_prime_us": (per_call(appearance.alpha_prime, [(q,) for q in ps]) * 1e6, source),
    }


def _cli_metrics(requests, tracer, launcher):
    env = W.child_env()
    imports = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import fpt.cli"], env=env, cwd=W.ROOT, check=True)
        imports.append(time.perf_counter() - t0)
    argvs = [r.args[0] for r in requests if r.kind == "cli"]
    if argvs:
        cold = tracer.durations_ms()["cli.cold"]
        source = "kernel"
    else:
        argvs = list(REF_ARGVS)
        cold = []
        for argv in argvs:
            t0 = time.perf_counter()
            launcher.run(argv)
            cold.append((time.perf_counter() - t0) * 1e3)
        source = "reference"
    warm = {argv: per_call(W.warm_main.__wrapped__, [(argv,)], 0.01) * 1e3 for argv in dict.fromkeys(argvs)}
    return {
        "cli.import_ms": (statistics.median(imports) * 1e3, "measured"),
        "cli.build_parser_ms": (per_call(cli.build_parser, [()]) * 1e3, "measured"),
        "cli.main_warm_ms": (statistics.fmean(warm[a] for a in argvs), source),
        "cli.process_overhead_ms": (statistics.fmean(c - warm[a] for c, a in zip(cold, argvs)), source),
    }


# -- the report ----------------------------------------------------------------


def report(workload, n_requests, tracer, vals, units, traced_wall, plain_wall) -> None:
    moves = json.loads(SPEC.read_text())["layer_metrics"]
    print(f"traced run: workload {workload}, {n_requests} requests")
    print(f"  tracing overhead {traced_wall / plain_wall:.3f}x  (traced {traced_wall:.3f} s / untraced {plain_wall:.3f} s)")
    print(f"  {'layer':<12} {'calls':>6} {'failed':>6} {'total ms':>10} {'self ms':>10}")
    for layer, row in sorted(tracer.layer_table().items(), key=lambda kv: -kv[1]["self_ms"]):
        print(f"  {layer:<12} {row['calls']:>6} {row['failed']:>6} {row['total_ms']:>10.2f} {row['self_ms']:>10.2f}")
    print(f"  {'metric':<34} {'value':>14} {'unit':<6} {'source':<10} should move")
    for name in units:
        value, source = vals[name]
        print(f"  {name:<34} {value:>14.4f} {units[name]:<6} {source:<10} {moves.get(name, '')}")
