"""Tests of the benchmark itself: python -m pytest perfbench"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import workloads as W
from spans import Tracer

from fpt import upoly, zigzag

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# kind -> (request args, args of a different request whose answer is wrong for the first)
SAMPLES = {
    "census": ((3, 4), (3, 5)),
    "zvalues": ((3, 5), (3, 6)),
    "pencil": ((3, 6, 2), (3, 6, 0)),
    "oracle": ((3, 5), (3, 6)),
    "appendix": ((3, 5, 5), (3, 6, 5)),
    "trinomial": ((1, 4, 19), (2, 3, 23)),
    "to_downup": ((1000, "odd"), (1001, "odd")),
    "to_updown": ((300, "odd"), (301, "odd")),
    "to_downup_sfib": ((77,), (78,)),
    "to_updown_sfib": ((-50, "odd"), (-49, "odd")),
    "zeckendorf": ((64,), (65,)),
    "negafibonacci": ((-43,), (-42,)),
    "enum_zigzag": ((6, zigzag.DOWN_UP), (6, zigzag.UP_DOWN)),
    "build_recursive": ((10, 3), (11, 3)),
    "build_zigzag": ((8, 3), (8, 5)),
    "support_size": ((20, 3), (21, 3)),
    "alpha_table": ((19,), (23,)),
    "carmichael": ((10, 10**4), (11, 10**4)),
    "density": ((2000,), (3000,)),
    "mv_apparition": ((16, 19, 16), (15, 19, 15)),
    "cli": ((("zigzag", "zeck", "64"), 0), (("zigzag", "zeck", "65"), 0)),
}


def answer(session, kind, args):
    return W.execute(session, W.Request(kind, args))


@pytest.fixture(scope="module")
def session():
    with W.Launcher() as launcher:
        yield W.Session(Tracer(False), launcher)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_seed_fixes_the_request_list(workload):
    first = W.make_requests(workload, 7, 3)
    assert first == W.make_requests(workload, 7, 3)
    assert first != W.make_requests(workload, 8, 3)
    assert len(first) == 3 * len(W.make_requests(workload, 0, 1))


def test_every_kind_has_a_sample():
    assert set(SAMPLES) == set(W.KINDS)
    kinds = {r.kind for w in W.WORKLOADS for r in W.make_requests(w, 0, 1)}
    assert kinds == set(W.KINDS)


@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_checker_counts_corrupted_answers_as_failures(session, kind):
    args, other = SAMPLES[kind]
    req = W.Request(kind, args)
    good = answer(session, kind, args)
    assert W.judge(req, good)
    wrong = answer(session, kind, other)
    for bad in (wrong, None, 0, "garbage", (), (good, good)):
        assert W.judge(req, bad) is False, bad


def test_cli_checker_rejects_contract_breaks(session):
    argv = ("zigzag", "zeck", "64")
    req = W.Request("cli", (argv, 0))
    good = answer(session, "cli", (argv, 0))
    for bad in (
        dataclasses.replace(good, code=1),
        dataclasses.replace(good, err=b"Traceback (most recent call last):\n"),
        dataclasses.replace(good, out=good.out + good.out),
        dataclasses.replace(good, out=good.out.replace(b"64", b"65")),
    ):
        assert not W.judge(req, bad)
    refusal = W.Request("cli", W.CLI_REFUSALS[0])
    assert W.judge(refusal, answer(session, "cli", W.CLI_REFUSALS[0]))


def test_known_defects_still_break_the_contract(session):
    # if one is fixed, move it into CLI_INVALID so the stream checks it
    for argv, code in W.CLI_KNOWN_DEFECTS:
        assert not W.cli_contract_ok(session.launcher.run(argv), code)


def test_computed_frobenius_steps_match_the_ddf_loop(monkeypatch):
    steps = []
    powmod = upoly._ModCtx.powmod
    monkeypatch.setattr(upoly._ModCtx, "powmod", lambda self, a, e: steps.append(e) or powmod(self, a, e))
    session = W.Session(Tracer(False))
    for args in W.make_requests("trinomial-degrees", 3, 1):
        if args.args[2] > 43:
            continue
        steps.clear()
        case, _, actual = W.execute(session, args)
        assert layers.ddf_steps(actual, case.branch)[0] == len(steps), args


def test_computed_search_candidates_match_the_search(monkeypatch):
    scanned = []
    enum = zigzag.enum_zigzag
    monkeypatch.setattr(zigzag, "enum_zigzag", lambda *a, **k: scanned.append(len(enum(*a, **k))) or enum(*a, **k))
    session = W.Session(Tracer(False))
    for kind, args in (("to_updown", (300, "odd")), ("to_downup_sfib", (-77,)), ("to_updown_sfib", (50, "even"))):
        scanned.clear()
        seq = answer(session, kind, args)
        assert layers._search_candidates(W.Request(kind, args), seq) == sum(scanned)


def test_timed_scales_wall_time_by_the_mean_reference_probe(monkeypatch):
    probes = iter([4.0, 2.0])
    monkeypatch.setattr(run, "reference_ms", lambda: next(probes))
    wall, scaled, out, exc = run.timed(lambda: 7)
    assert (out, exc) == (7, None) and scaled == wall / 3.0

    def fail():
        raise ValueError("bad request")

    monkeypatch.setattr(run, "reference_ms", lambda: 1.0)
    _, _, out, exc = run.timed(fail)
    assert out is None and isinstance(exc, ValueError)


@pytest.mark.parametrize("workload", ["field-sweep", "trinomial-degrees", "numeration"])
def test_seed_changes_inputs_not_work(workload):
    """Slots fix each request's size class and the seed draws inputs within
    it, so every seed's pass asks for the same work."""
    def work(seed):
        reqs = W.make_requests(workload, seed, run.PASS_ROUNDS[workload])
        if workload == "field-sweep":
            return [(r.kind, r.args[:2]) for r in reqs]  # the order is fixed too
        if workload == "trinomial-degrees":
            return sorted(r.args[2] for r in reqs)
        sized = {"enum_zigzag", "build_recursive", "build_zigzag"}
        return sorted((r.kind, r.args[0] if r.kind in sized else 0) for r in reqs)

    assert work(1) == work(2)


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_printed_end_to_end_metrics_are_the_benchmark_json_names():
    out = run_bench(ROOT, "--workload", "numeration", "--seed", "1", "--seconds", "0.3", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    names = [m["name"] for m in BENCH["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in BENCH["end_to_end"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_printed_per_layer_metrics_are_the_benchmark_json_names():
    out = run_bench(ROOT, "--workload", "numeration", "--seed", "1", "--seconds", "1", "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert list(result["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    for name in result["metrics"]:
        assert f" {name} " in out.stdout


def test_every_layer_metric_says_what_it_should_move():
    moves = json.loads(layers.SPEC.read_text())["layer_metrics"]
    counted = {f"{layer}.{c}" for layer in layers.LAYERS for c in ("calls", "failed")}
    assert set(moves) == {m["name"] for m in BENCH["per_layer"]} - counted
    assert {w["name"] for w in BENCH["workloads"]} == set(W.WORKLOADS)


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(tmp_path, "--workload", "numeration", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
