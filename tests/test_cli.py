"""CLI surface: report shapes, determinism, exit codes."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import fpt
from fpt import cli, gf, planes, zigzag
from fpt.cli import main
from fpt.numth import fib


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_planes_count(capsys):
    code, out, _ = run_cli(capsys, "planes", "count", "--p", "3", "--m", "6")
    assert code == 0
    data = json.loads(out)
    assert data["planes"] == 11011 and data["orbits"] == 31


def test_alpha_table_p19(capsys):
    code, out, _ = run_cli(capsys, "alpha", "table", "--p", "19")
    assert code == 0
    table = {row["z"]: row["alpha"] for row in json.loads(out)["table"]}
    assert table[1] == 18 and table[8] == 9 and table[16] == 6 and table[18] == 3


def test_zigzag_zeck(capsys):
    code, out, _ = run_cli(capsys, "zigzag", "zeck", "64")
    assert code == 0
    assert json.loads(out)["indices"] == [10, 6, 2]


def test_zigzag_rep_negafib(capsys):
    code, out, _ = run_cli(capsys, "zigzag", "rep", "--kind", "negafib", "--", "-43")
    assert code == 0
    assert json.loads(out)["indices"] == [-2, -7, -10]


def test_zigzag_rep_downup(capsys):
    code, out, _ = run_cli(capsys, "zigzag", "rep", "--kind", "downup-sfib", "12")
    assert code == 0
    assert json.loads(out)["sequence"] == "111010"


def test_trinomial_verify(capsys):
    code, out, _ = run_cli(
        capsys, "trinomial", "verify", "--p", "19", "--a", "1", "--b", "4"
    )
    assert code == 0
    data = json.loads(out)
    assert data["branch"] == "nonzero-square"
    assert data["z"] == 5
    assert data["predicted"] == {"1": 2, "18": 1}
    assert data["match"] is True


def test_fmp_build_big_exponents_are_strings(capsys):
    code, out, _ = run_cli(capsys, "fmp", "build", "--p", "11", "--m", "20")
    assert code == 0
    data = json.loads(out)
    assert all(isinstance(e, str) for e in data["support"])
    assert len(data["support"]) == 6765  # Fib(20)


def test_fmp_eval_and_gcd(capsys):
    code, out, _ = run_cli(capsys, "fmp", "eval", "--p", "7", "--m", "3", "--z", "6")
    assert code == 0 and json.loads(out)["value"] == 0
    code, out, _ = run_cli(capsys, "fmp", "gcd", "--p", "3", "--m", "6", "--n", "9")
    assert code == 0 and json.loads(out)["match"] is True


def test_mv_poly(capsys):
    code, out, _ = run_cli(capsys, "mv", "poly", "--kind", "B", "--k", "2")
    assert code == 0
    assert json.loads(out)["coeffs"] == ["3", "4", "1"]


def test_verify_appendix(capsys):
    code, out, _ = run_cli(capsys, "verify", "appendix", "--p", "3", "--m", "4")
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == [] and data["points_checked"] == 72


def test_budget_refusal_exit_code_2(capsys):
    code, _, err = run_cli(
        capsys, "--budget", "100", "planes", "count", "--p", "3", "--m", "6"
    )
    assert code == 2
    assert "budget" in err


@pytest.mark.parametrize("argv", [
    ("trinomial", "frob2", "--p", "4099", "--z", "4"),
    ("planes", "zvalues", "--p", "1048573", "--m", "100000000"),
    ("verify", "appendix", "--p", "1048573", "--m", "100000000"),
])
def test_budget_refusal_names_the_order_as_a_power(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    p, m = argv[3], "4100" if argv[0] == "trinomial" else argv[5]
    assert err == f"budget refused: field order {p}^{m} exceeds budget {gf.DEFAULT_BUDGET}\n"


def test_invariant_violation_exit_code_1(capsys):
    code, _, err = run_cli(capsys, "planes", "pencil", "--p", "3", "--m", "3", "--z", "1")
    assert code == 1
    assert "error" in err


def test_determinism_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "--seed", "5", "trinomial", "generate", "--p", "19", "--m", "9")
    _, out2, _ = run_cli(capsys, "--seed", "5", "trinomial", "generate", "--p", "19", "--m", "9")
    assert out1 == out2


def test_csv_projection(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "alpha", "table", "--p", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,z"
    assert len(lines) == 7  # header + six residues


def test_cache_dir(tmp_path, capsys):
    args = ("--cache-dir", str(tmp_path), "fmp", "build", "--p", "3", "--m", "6")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    assert (tmp_path / "fmp_3_6.json").exists()
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_fmp_build_refused_on_support_size(tmp_path, capsys):
    # Fib(37) terms exceed 16 per unit of the default budget; a cached copy
    # on disk changes nothing, and nothing is written
    cached = tmp_path / "fmp_3_37.json"
    cached.write_text("{}")
    for prefix in ((), ("--cache-dir", str(tmp_path))):
        code, out, err = run_cli(capsys, *prefix, "fmp", "build", "--p", "3", "--m", "37")
        assert code == 2 and out == ""
        assert err.startswith("budget refused: family member 37")
    assert list(tmp_path.iterdir()) == [cached]
    # at budget 100 the line falls between Fib(17) = 1597 and Fib(18) = 2584 terms
    assert run_cli(capsys, "--budget", "100", "fmp", "build", "--p", "3", "--m", "17")[0] == 0
    assert run_cli(capsys, "--budget", "100", "fmp", "build", "--p", "3", "--m", "18")[0] == 2


# the least strong pseudoprime to the bases 2..37 (Jaeschke, Math. Comp. 61, 1993)
@pytest.mark.parametrize("p", ["-3", "1", "4", "318665857834031151167461"])
def test_fmp_build_refuses_a_characteristic_that_is_not_prime(tmp_path, capsys, p):
    # refused before the support-size charge and before a cached copy is read
    (tmp_path / f"fmp_{p}_12.json").write_text("{}")
    for prefix in ((), ("--cache-dir", str(tmp_path))):
        for m in ("12", "37"):
            code, out, err = run_cli(capsys, *prefix, "fmp", "build", "--p", p, "--m", m)
            assert (code, out, err) == (1, "", f"error: {p} is not a prime\n")


@pytest.mark.parametrize("argv", [
    ("trinomial", "frob2", "--p", "15", "--z", "1"),
    ("trinomial", "frob2", "--p", "4", "--z", "1"),
    ("trinomial", "frob2", "--p", "0", "--z", "1"),
    # psi_13, the least strong pseudoprime to the bases 2..41: no proof either way
    ("fmp", "build", "--p", "3317044064679887385961981", "--m", "4"),
])
def test_unusable_characteristic_is_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


# argv that used to exit 0, end in a traceback, or exit 1 for a size cap
@pytest.mark.parametrize("argv, code, err", [
    *((("trinomial", cmd, "--p", p, "--a", "1", "--b", "1"), 1, f"error: {p} is not a prime")
      for cmd in ("predict", "verify") for p in ("0", "4", "9", "15", "-5")),
    (("trinomial", "generate", "--p", "0", "--m", "3"), 1, "error: 0 is not a prime"),
    (("fmp", "gcd", "--p", "3", "--m", "-2", "--n", "4"), 1, "error: family index must be >= 0"),
    (("fmp", "gcd", "--p", "3", "--m", "4", "--n", "-2"), 1, "error: family index must be >= 0"),
    (("zigzag", "enum", "--n", "-1"), 1, "error: sequence length -1 < 0"),
    (("zigzag", "enum", "--n", "41"), 2, "budget refused: length 41 exceeds enumeration budget"),
    (("alpha", "density", "--limit", "2000000"), 2, "budget refused: scan limit capped at 1e6"),
    (("zigzag", "rep", "--kind", "updown", "100000000"), 2,
     "budget refused: minimal length 39 beyond search limit"),
])
def test_bad_parameter_is_one_line_and_its_exit_code(capsys, argv, code, err):
    assert run_cli(capsys, *argv) == (code, "", err + "\n")


def test_zigzag_enum_counts_without_listing_past_twelve(capsys):
    for n in range(13, 41):
        with mock.patch.object(zigzag, "enum_zigzag", side_effect=AssertionError):
            code, out, _ = run_cli(capsys, "zigzag", "enum", "--n", str(n), "--orientation", "up-down")
        assert code == 0
        assert json.loads(out) == {"n": n, "orientation": "up-down", "count": fib(n + 2), "sequences": None}
    assert fib(20) == len(zigzag.enum_zigzag(18))


def test_zvalues_full_sweep_flag_is_gone(capsys):
    code, out, err = run_cli(capsys, "planes", "zvalues", "--p", "3", "--m", "5", "--full-sweep")
    assert (code, out, err) == (1, "", "error: unrecognized arguments: --full-sweep\n")


@pytest.mark.parametrize("argv", [
    ("bogus",),
    ("zigzag", "rep", "--kind", "updown"),
    ("planes",),
])
def test_usage_error_is_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_env_budget(monkeypatch, capsys):
    monkeypatch.setenv("FPT_BUDGET", "100")
    code, _, _ = run_cli(capsys, "planes", "count", "--p", "3", "--m", "6")
    assert code == 2
    monkeypatch.setenv("FPT_BUDGET", "abc")
    assert run_cli(capsys, "planes", "count", "--p", "3", "--m", "6") == (
        1, "", "error: invalid literal for int() with base 10: 'abc'\n"
    )


def test_selfcheck_quick(capsys):
    code, out, _ = run_cli(capsys, "selfcheck", "quick")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert len(lines) == 15
    assert all(l.startswith("[PASS]") for l in lines)


def test_planes_zvalues(capsys):
    code, out, _ = run_cli(capsys, "planes", "zvalues", "--p", "3", "--m", "5")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 10 and data["z"] == data["z_circ"]


def test_planes_pencil(capsys):
    code, out, _ = run_cli(capsys, "planes", "pencil", "--p", "3", "--m", "4", "--z", "1")
    assert code == 0
    data = json.loads(out)
    assert len(data["planes"]) == 4
    assert all(pl[0] == [1, 0, 0, 0] for pl in data["planes"])


def test_zigzag_enum(capsys):
    code, out, _ = run_cli(capsys, "zigzag", "enum", "--n", "4")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 8
    assert set(data["sequences"]) == {
        "1111", "1011", "0011", "1110", "1010", "0010", "1000", "0000",
    }


def test_trinomial_predict_b_zero(capsys):
    code, out, _ = run_cli(capsys, "trinomial", "predict", "--p", "19", "--a", "1", "--b", "0")
    assert code == 0
    data = json.loads(out)
    assert data["branch"] == "zeta=0" and data["predicted"] == {"1": 20}


def test_trinomial_frob2(capsys):
    code, out, _ = run_cli(capsys, "trinomial", "frob2", "--p", "5", "--z", "1")
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == [] and data["splitting_degree"] == 5
    assert data["distinct_planes"] is True


def test_alpha_classical_cli(capsys):
    code, out, _ = run_cli(capsys, "alpha", "classical", "--n", "11")
    assert code == 0 and json.loads(out)["alpha"] == 10
    # psi_12 = 399165290221 * 798330580441: the recursion mod n would need
    # 2e11 steps, the order kernel on Wall's multiple a fraction of a second
    code, out, _ = run_cli(capsys, "alpha", "classical", "--n", "318665857834031151167461")
    assert code == 0 and json.loads(out)["alpha"] == 199582645110
    code, out, err = run_cli(capsys, "alpha", "classical", "--n", "1")
    assert code == 1 and out == "" and err == "error: entry points start at n = 2\n"
    # a probable prime above psi_13 is refused, not walked
    code, out, err = run_cli(capsys, "alpha", "classical", "--n", str(2**89 - 1))
    assert code == 1 and out == "" and "proves nothing at or above psi_13" in err


def test_alpha_carmichael_sieves_no_further_than_fib_m():
    # Fib(10) = 55 bounds the sieve; the whole limit would take seconds and
    # hundreds of MB
    src = str(Path(fpt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = [sys.executable, "-m", "fpt.cli", "alpha", "carmichael", "--m", "10", "--limit", "100000000"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=5)
    assert proc.returncode == 0 and json.loads(proc.stdout)["prime"] == 11


def _field_built_first(args, refuse=None):
    return gf.make_field(args.p, args.m)


@pytest.mark.parametrize("command", [
    ("planes", "count"),
    ("planes", "zvalues"),
    ("planes", "pencil", "--z", "1"),
    ("verify", "appendix"),
])
def test_budget_refused_before_the_field_is_built(capsys, command):
    # same exit code and stderr as building the field and letting the
    # command refuse, but a refusal never calls make_field; the built-first
    # run replaces each pre-build check with make_field itself
    built, make_field = [], gf.make_field

    def spy(p, m):
        built.append((p, m))
        return make_field(p, m)

    codes = set()
    for p, m, budget in itertools.product((1, 2, 3, 4, 5), (0, 1, 2, 3, 4), (2, 30, 100, 10**4)):
        argv = ("--budget", str(budget), *command[:2], "--p", str(p), "--m", str(m), *command[2:])
        with mock.patch.object(cli, "_field", _field_built_first), \
                mock.patch.object(planes, "check_field", make_field):
            expected = run_cli(capsys, *argv)
        built.clear()
        with mock.patch.object(gf, "make_field", spy), mock.patch.object(planes, "make_field", spy):
            got = run_cli(capsys, *argv)
        assert got == expected, argv
        assert got[0] != 2 or built == [], argv
        codes.add(got[0])
    assert codes == {0, 1, 2}


def test_cheap_commands_never_import_numpy():
    # numpy is loaded on first entry to one of upoly's large-polynomial
    # routes, or to gf's table build for a field of gf._NP_TABLE_MIN_Q
    # elements or more; the cheap commands include the pencil over F_{7^4},
    # the largest table the cold-CLI benchmark builds
    script = """if True:
        import contextlib, io, json, sys
        import fpt, fpt.cli
        assert "numpy" not in sys.modules
        def run(argv):
            with contextlib.redirect_stdout(io.StringIO()):
                assert fpt.cli.main(argv) == 0
            return "numpy" in sys.modules
        *cheap, costly = json.loads(sys.argv[1])
        for argv in cheap:
            assert not run(argv), argv
        assert run(costly), costly
    """
    cheap = [
        ["zigzag", "zeck", "64"],
        ["alpha", "table", "--p", "19"],
        ["planes", "count", "--p", "3", "--m", "4"],
        ["planes", "pencil", "--p", "7", "--m", "4", "--z", "0"],
        ["verify", "appendix", "--p", "2", "--m", "8"],
    ]
    costly = [
        ["trinomial", "verify", "--p", "19", "--a", "1", "--b", "4"],  # upoly
        ["planes", "zvalues", "--p", "3", "--m", "10"],  # a 3^10-entry table
    ]
    assert 3**10 >= gf._NP_TABLE_MIN_Q > 7**4
    src = str(Path(fpt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for argv in costly:
        script_argv = [sys.executable, "-c", script, json.dumps(cheap + [argv])]
        proc = subprocess.run(script_argv, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
