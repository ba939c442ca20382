"""fpt benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; fpt is imported from its src/ directory.
One client sends a workload's seeded requests in a closed loop: one
process, one thread, the next request only after the previous one has
returned and been checked.  Every answer is checked by an independent
route (workloads.py); a request that raises or gives a wrong answer is
counted as failed.

--trace 0 measures the end-to-end metrics for --seconds of request time.
The seeded request list is sent in passes, each from cold field caches.
Every request is timed between two runs of a fixed reference kernel and
its wall time divided by their mean (`timed`), which gives its time on a
host where that kernel takes 1 ms: a shared host's speed drifts by a
third over seconds to minutes, and this takes the drift out.  A request's
latency is the median of these over its passes; requests_per_s is the
list's length over the sum of those latencies.  setup_s is wall time.
The report also prints the unscaled wall-time figures.
--trace 1 is the separate traced run: a fixed list of requests, sent
untraced (after one warm-up pass) and then traced, then kernel timings on
the workload's own inputs (layers.py).  Both print a human-readable report, then as the last
line one JSON object with keys correct, attempted, failed and metrics;
the metric names and units are those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_SETUPS = 7
# rounds in the timed run's request list, which is sent in passes of about
# 2 s (cli-cold: 4 s) on a 2-vCPU VM, so each request gets several tries
# spread over the run and its latency is the median of them
PASS_ROUNDS = {"field-sweep": 1, "trinomial-degrees": 3, "numeration": 6, "cli-cold": 1}
# rounds in the traced run's fixed request list: about the same work per
# workload; trinomial-degrees walks its large-band pool once
TRACE_ROUNDS = {"field-sweep": 1, "trinomial-degrees": 6, "numeration": 4, "cli-cold": 1}


def spec_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them under `kind`."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def reference_ms() -> float:
    """Wall milliseconds of a fixed pure-Python kernel (about 1 ms on an
    idle 2-vCPU VM): how fast the host runs this process right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1e3


def timed(fn, *args):
    """Run fn(*args) between two reference probes.  Returns its wall
    seconds, the same at reference speed (divided by the probes' mean
    milliseconds: seconds on a host where the kernel takes 1 ms), the
    result and the exception it raised."""
    before = reference_ms()
    exc, out, t0 = None, None, time.perf_counter()
    try:
        out = fn(*args)
    except Exception as e:  # the caller counts it as a failed request
        exc = e
    wall = time.perf_counter() - t0
    return wall, wall / ((before + reference_ms()) / 2), out, exc


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it has imported fpt
    and generated the seeded requests."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, cwd=ROOT,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError("set-up probe failed")
    return elapsed


def show_first(failures: list) -> None:
    """Print the first failed request, and its traceback if it raised."""
    if failures:
        req, exc = failures[0]
        print(f"{len(failures)} failed; first: {req}", file=sys.stderr)
        if exc is not None:
            traceback.print_exception(exc, file=sys.stderr)


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    import workloads
    from spans import Tracer

    from fpt import gf

    requests = workloads.make_requests(workload, seed, PASS_ROUNDS[workload])
    n = len(requests)
    scaled_s, wall_s = [[] for _ in requests], [[] for _ in requests]
    setup, pass_s, failures, busy, attempted = [], [], [], 0.0, 0
    with workloads.Launcher() if workload == "cli-cold" else contextlib.nullcontext() as launcher:
        session = workloads.Session(Tracer(False), launcher)
        rss_kb = 0
        # passes over the same request list until --seconds of request time,
        # the first pass always whole; each pass starts from cold field
        # caches and after one set-up probe, so both sample the whole run
        while not pass_s or busy < seconds:
            setup.append(measure_setup(workload, seed))
            gf.make_field.cache_clear()
            pass_start = busy
            for i, req in enumerate(requests):
                if pass_s and busy >= seconds:
                    break
                wall, scaled, out, exc = timed(workloads.execute, session, req)
                busy += wall
                attempted += 1
                scaled_s[i].append(scaled)
                wall_s[i].append(wall)
                if exc is not None or not workloads.judge(req, out):
                    failures.append((req, exc))
                if workload == "cli-cold" and out is not None:
                    rss_kb = max(rss_kb, out.maxrss_kb)
            pass_s.append(busy - pass_start)
        violations = known_defects(launcher) if launcher else None
    while len(setup) < MIN_SETUPS:
        setup.append(measure_setup(workload, seed))
    if workload != "cli-cold":
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    show_first(failures)
    failed = len(failures)

    def timings(times):
        lat = [statistics.median(t) for t in times]  # a request's latency: its median over passes
        return lat, {
            "requests_per_s": n / sum(lat),
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        }

    lat, scaled = timings(scaled_s)
    metrics = {"setup_s": statistics.median(setup), **scaled, "peak_rss_mb": rss_kb / 1024}
    _, wall = timings(wall_s)
    beyond = sum(x * 1e3 > metrics["latency_p90_ms"] for x in lat)
    samples = {
        "setup_s": f"median of {len(setup)} set-ups, wall time",
        "requests_per_s": f"{n} requests at their latency below",
        "latency_p50_ms": f"n={n}, each the median of up to {len(pass_s)} passes",
        "latency_p90_ms": f"n={n}, {beyond} beyond",
        "peak_rss_mb": "max over CLI children" if workload == "cli-cold" else "this process",
    }
    units = spec_metrics("end_to_end")
    print(f"workload {workload}  seed {seed}  closed loop, one client; request times at reference speed (wall time in brackets)")
    for name, value in metrics.items():
        raw = f"[{wall[name]:10.4f}]" if name in wall else " " * 12
        print(f"  {name:<16} {value:12.4f} {raw} {units[name]:<4} ({samples[name]})")
    print(f"  {'failed_ratio':<16} {failed / attempted:12.4f} {'':12}      ({failed} of {attempted} requests failed)")
    print(f"  {attempted} requests sent in {busy:.2f} s; pass times (s): " + " ".join(f"{t:.2f}" for t in pass_s))
    if violations is not None:
        print(f"  known CLI contract defects (outside the stream): {violations} of {len(workloads.CLI_KNOWN_DEFECTS)}")
    return {"attempted": attempted, "failed": failed, "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def known_defects(launcher) -> int:
    """How many of the documented-invalid CLI inputs still break the
    exit-code contract (exit 1, one-line message, no traceback)."""
    import workloads

    return sum(
        not workloads.cli_contract_ok(launcher.run(argv), expected)
        for argv, expected in workloads.CLI_KNOWN_DEFECTS
    )


def one_pass(session, requests) -> tuple[float, list, int]:
    """Send the requests once; return request wall time, the answers and
    the number of failed requests (raised, or rejected by the checker)."""
    import workloads

    results, raised = [], []
    t0 = time.perf_counter()
    for rid, req in enumerate(requests):
        session.tracer.request = rid
        out, exc = None, None
        try:
            out = session.call("request." + req.kind, workloads.execute, session, req)
        except Exception as e:  # counted as a failure of this request
            exc = e
        results.append(out)
        raised.append(exc)
    wall = time.perf_counter() - t0
    failures = [
        (req, exc) for req, out, exc in zip(requests, results, raised)
        if exc is not None or not workloads.judge(req, out)
    ]
    show_first(failures)
    return wall, results, len(failures)


def traced_run(workload: str, seed: int) -> dict:
    import layers
    import workloads
    from spans import Tracer

    from fpt import gf

    requests = workloads.make_requests(workload, seed, TRACE_ROUNDS[workload])
    with workloads.Launcher() as launcher:
        # the same requests untraced and traced, each from cold field caches,
        # after one warm-up pass that neither is charged for
        plain = workloads.Session(Tracer(False), launcher)
        for _ in range(2):
            gf.make_field.cache_clear()
            plain_wall, _, _ = one_pass(plain, requests)
        gf.make_field.cache_clear()
        tracer = Tracer(True)
        traced_wall, results, failed = one_pass(workloads.Session(tracer, launcher), requests)
        values = layers.per_layer(workload, seed, requests, results, tracer, launcher)
        values["trace.overhead_ratio"] = (traced_wall / plain_wall, "measured")
        values["cli.contract_violations"] = (known_defects(launcher), "measured")
    out_dir = ROOT / ".perfbench-out"
    tracer.write(out_dir / f"spans-{workload}-seed{seed}.jsonl")
    units = spec_metrics("per_layer")
    layers.report(workload, len(requests), tracer, values, units, traced_wall, plain_wall)
    if set(values) != set(units):
        raise RuntimeError(f"per-layer metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    return {
        "attempted": len(requests),
        "failed": failed,
        "metrics": {k: {"value": values[k][0], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0, help="request time to measure (--trace 0)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "fpt" / "__init__.py").is_file():
        print(f"error: no fpt package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.make_requests(args.workload, args.seed, PASS_ROUNDS[args.workload])
        print("ready", flush=True)
        return 0
    if args.trace:
        result = traced_run(args.workload, args.seed)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
