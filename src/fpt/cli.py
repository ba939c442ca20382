"""Batch command-line front end.

Every subcommand prints one machine-readable report to stdout (JSON by
default, CSV as a lossy convenience) and keeps diagnostics on stderr.
Exit codes: 0 success, 2 budget refusal, 1 invariant violation or bad
input.  Reports are byte-identical for identical configurations
(including --seed); integers beyond 2^53 are serialized as decimal
strings so downstream consumers cannot overflow.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import appearance, dickson, fmp, gf, morganvoyce, planes, trinomials, zigzag
from .errors import BadParameter, BudgetExceeded, FptError
from .numth import require_prime
from .selfcheck import run_all

_BIG = 1 << 53


def _jsonable(obj):
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) >= _BIG else obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = list(obj)
        if isinstance(obj, (set, frozenset)):
            items = sorted(items)
        return [_jsonable(v) for v in items]
    if hasattr(obj, "to_json"):
        return _jsonable(obj.to_json())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(payload: dict, fmt: str) -> None:
    data = _jsonable(payload)
    if fmt == "json":
        print(json.dumps(data, sort_keys=True, separators=(",", ":")))
        return
    # CSV projection: a top-level list of flat dicts becomes rows, anything
    # else becomes key,value lines
    rows = None
    for v in data.values():
        if isinstance(v, list) and v and all(isinstance(r, dict) for r in v):
            rows = v
            break
    if rows is not None:
        cols = sorted({k for r in rows for k in r})
        print(",".join(cols))
        for r in rows:
            print(",".join(str(r.get(c, "")) for c in cols))
    else:
        for k in sorted(data):
            print(f"{k},{data[k]}")


def _default_budget() -> int:
    env = os.environ.get("FPT_BUDGET")
    return int(env) if env else gf.DEFAULT_BUDGET


def _field(args, refuse=None) -> gf.FieldDesc:
    """F_{p^m} for a command that sweeps it, built only after the checks
    make_field and the command would make on it: refuse(p, m, budget) is
    the command's own (the budget alone when None), so a refusal never
    pays for the modulus search and the tables."""
    gf.check_field(args.p, args.m)
    (refuse or gf.check_budget)(args.p, args.m, args.budget)
    return gf.make_field(args.p, args.m)


# -- subcommand handlers ------------------------------------------------------


def _cmd_fmp_build(args):
    require_prime(args.p)
    fmp.refuse_build(args.m, args.budget)  # before the cache, so disk state cannot matter
    if args.cache_dir:
        path = Path(args.cache_dir) / f"fmp_{args.p}_{args.m}.json"
        if path.exists():
            return json.loads(path.read_text())
        member = fmp.build_recursive(args.m, args.p)
        payload = member.to_json()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, sort_keys=True))
        return payload
    return fmp.build_recursive(args.m, args.p).to_json()


def _cmd_fmp_eval(args):
    if args.z is None:
        raise BadParameter("fmp eval needs --z")
    return {
        "p": args.p,
        "m": args.m,
        "z": args.z % args.p,
        "value": fmp.eval_fp(args.m, args.p, args.z % args.p),
    }


def _cmd_fmp_gcd(args):
    import math

    if args.n is None:
        raise BadParameter("fmp gcd needs --n")
    ok = fmp.gcd_check(args.m, args.n, args.p, budget=args.budget)
    return {
        "p": args.p,
        "m": args.m,
        "n": args.n,
        "gcd_index": math.gcd(args.m, args.n),
        "match": ok,
    }


def _cmd_planes_count(args):
    census = planes.orbit_count(args.p, args.m, budget=args.budget)
    return census.to_json()


def _cmd_planes_zvalues(args):
    field = _field(args, planes.refuse_sweep)
    z, z_circ = planes.z_values(field, budget=args.budget)
    return {
        "p": args.p,
        "m": args.m,
        "z": sorted(field.to_coeffs(c) for c in z),
        "z_circ": sorted(field.to_coeffs(c) for c in z_circ),
        "count": len(z),
    }


def _cmd_planes_pencil(args):
    if args.z is None:
        raise BadParameter("planes pencil needs --z")
    field = _field(args)
    pen = planes.pencil(args.z % args.p, field, budget=args.budget)
    return pen.to_json()


def _cmd_zigzag_zeck(args):
    idx = zigzag.zeckendorf(args.value)
    return {"n": args.value, "indices": list(idx), "kind": "zeckendorf"}


def _cmd_zigzag_rep(args):
    n, kind = args.value, args.kind
    if kind == "downup":
        seq = zigzag.to_downup(n, args.parity)
    elif kind == "downup-sfib":
        seq = zigzag.to_downup_sfib(n)
    elif kind == "updown":
        seq = zigzag.to_updown(n, args.parity)
    elif kind == "updown-sfib":
        seq = zigzag.to_updown_sfib(n, args.parity)
    elif kind == "negafib":
        idx = zigzag.negafibonacci(n)
        return {"n": n, "indices": [-k for k in idx], "kind": "negafib"}
    else:
        raise BadParameter(f"unknown representation kind {kind!r}")
    return {"n": n, "kind": kind, "sequence": seq.as_string(), "length": len(seq)}


def _cmd_zigzag_enum(args):
    seqs = zigzag.enum_zigzag(args.n, args.orientation)
    return {
        "n": args.n,
        "orientation": args.orientation,
        "count": len(seqs),
        "sequences": [s.as_string() for s in seqs] if args.n <= 12 else None,
    }


def _cmd_alpha_table(args):
    recs = appearance.alpha_table(args.p)
    return {"p": args.p, "table": [{"z": r.z, "alpha": r.alpha} for r in recs]}


def _cmd_alpha_classical(args):
    if args.n is None:
        raise BadParameter("alpha classical needs --n")
    return {"n": args.n, "alpha": appearance.alpha_classical(args.n)}


def _cmd_alpha_density(args):
    return appearance.shanks_taylor_density(args.limit).to_json()


def _cmd_alpha_carmichael(args):
    if args.m is None:
        raise BadParameter("alpha carmichael needs --m (the target entry point)")
    p = appearance.carmichael_search(args.m, args.limit)
    return {"m": args.m, "limit": args.limit, "prime": p}


def _cmd_trinomial_predict(args):
    case = trinomials.classify(args.a, args.b, args.p)
    predicted = trinomials.predict_degrees(args.a, args.b, args.p)
    out = case.to_json()
    out["predicted"] = predicted.to_json()
    return out


def _cmd_trinomial_verify(args):
    case = trinomials.classify(args.a, args.b, args.p)
    predicted, actual, ok = trinomials.verify_degrees(args.a, args.b, args.p)
    out = case.to_json()
    out.update(
        {"predicted": predicted.to_json(), "actual": actual.to_json(), "match": ok}
    )
    return out


def _cmd_trinomial_generate(args):
    poly = trinomials.generate_irreducible(args.p, args.m, seed=args.seed, budget=args.budget)
    return {"p": args.p, "degree": args.m, "coeffs": list(poly.coeffs)}


def _cmd_trinomial_frob2(args):
    if args.z is None:
        raise BadParameter("trinomial frob2 needs --z")
    rep = trinomials.frob2_check(args.z, args.p, budget=args.budget)
    out = rep.to_json()
    out["distinct_planes"] = trinomials.roots_distinct_planes_check(
        args.z, args.p, budget=args.budget
    )
    return out


def _cmd_mv_poly(args):
    poly = morganvoyce.mv_poly(args.kind, args.k)
    return {"kind": args.kind, "k": args.k, "coeffs": poly.to_json()}


def _cmd_mv_apparition(args):
    if args.z is None:
        raise BadParameter("mv apparition needs --z")
    lift = args.lift if args.lift is not None else args.z
    return {
        "p": args.p,
        "z": args.z,
        "lift": lift,
        "apparition": morganvoyce.mv_apparition(args.z, args.p, lift),
    }


def _cmd_verify_appendix(args):
    field = _field(args, lambda p, m, budget: dickson.refuse_appendix(m, p, m, budget))
    rep = dickson.verify_appendix_recursion(args.m, field, budget=args.budget)
    return rep.to_json()


def _cmd_selfcheck(args):
    results = run_all(args.level)
    for r in results:
        print(r.line())
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


# -- parser ------------------------------------------------------------------


def _add_common(sp, *names):
    if "p" in names:
        sp.add_argument("--p", type=int, required=True, help="prime characteristic")
    if "m" in names:
        sp.add_argument("--m", type=int, required=True, help="index / degree")


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for budget refusals; usage problems exit 1
    def error(self, message):
        raise BadParameter(f"{message}\n{self.format_usage()}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="fpt",
        description="exact finite-field planes / zigzag / trinomial toolkit",
    )
    ap.add_argument("--format", choices=("json", "csv"), default="json")
    ap.add_argument("--seed", type=int, default=0, help="seed for seeded splitting")
    ap.add_argument("--budget", type=int, default=None, help="enumeration budget override")
    ap.add_argument("--cache-dir", default=None, help="memoize family supports here")
    top = ap.add_subparsers(dest="command", required=True)

    g = top.add_parser("fmp", help="polynomial family").add_subparsers(
        dest="action", required=True
    )
    sp = g.add_parser("build")
    _add_common(sp, "p", "m")
    sp.set_defaults(func=_cmd_fmp_build)
    sp = g.add_parser("eval")
    _add_common(sp, "p", "m")
    sp.add_argument("--z", type=int)
    sp.set_defaults(func=_cmd_fmp_eval)
    sp = g.add_parser("gcd")
    _add_common(sp, "p", "m")
    sp.add_argument("--n", type=int)
    sp.set_defaults(func=_cmd_fmp_gcd)

    g = top.add_parser("planes", help="plane enumeration").add_subparsers(
        dest="action", required=True
    )
    sp = g.add_parser("count")
    _add_common(sp, "p", "m")
    sp.set_defaults(func=_cmd_planes_count)
    sp = g.add_parser("zvalues")
    _add_common(sp, "p", "m")
    sp.set_defaults(func=_cmd_planes_zvalues)
    sp = g.add_parser("pencil")
    _add_common(sp, "p", "m")
    sp.add_argument("--z", type=int)
    sp.set_defaults(func=_cmd_planes_pencil)

    g = top.add_parser("zigzag", help="zigzag sequences and numeration").add_subparsers(
        dest="action", required=True
    )
    sp = g.add_parser("zeck")
    sp.add_argument("value", type=int)
    sp.set_defaults(func=_cmd_zigzag_zeck)
    sp = g.add_parser("rep")
    sp.add_argument("value", type=int)
    sp.add_argument(
        "--kind",
        choices=("downup", "downup-sfib", "updown", "updown-sfib", "negafib"),
        default="downup",
    )
    sp.add_argument("--parity", choices=("odd", "even"), default="odd")
    sp.set_defaults(func=_cmd_zigzag_rep)
    sp = g.add_parser("enum")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument(
        "--orientation", choices=(zigzag.DOWN_UP, zigzag.UP_DOWN), default=zigzag.DOWN_UP
    )
    sp.set_defaults(func=_cmd_zigzag_enum)

    g = top.add_parser("alpha", help="orders of appearance").add_subparsers(
        dest="action", required=True
    )
    sp = g.add_parser("table")
    _add_common(sp, "p")
    sp.set_defaults(func=_cmd_alpha_table)
    sp = g.add_parser("classical")
    sp.add_argument("--n", type=int)
    sp.set_defaults(func=_cmd_alpha_classical)
    sp = g.add_parser("density")
    sp.add_argument("--limit", type=int, default=10**5)
    sp.set_defaults(func=_cmd_alpha_density)
    sp = g.add_parser("carmichael")
    sp.add_argument("--m", type=int)
    sp.add_argument("--limit", type=int, default=10**4)
    sp.set_defaults(func=_cmd_alpha_carmichael)

    g = top.add_parser("trinomial", help="trinomial factorization degrees").add_subparsers(
        dest="action", required=True
    )
    for name, fn, needs_ab in (
        ("predict", _cmd_trinomial_predict, True),
        ("verify", _cmd_trinomial_verify, True),
    ):
        sp = g.add_parser(name)
        _add_common(sp, "p")
        sp.add_argument("--a", type=int, required=needs_ab)
        sp.add_argument("--b", type=int, required=needs_ab)
        sp.set_defaults(func=fn)
    sp = g.add_parser("generate")
    _add_common(sp, "p", "m")
    sp.set_defaults(func=_cmd_trinomial_generate)
    sp = g.add_parser("frob2")
    _add_common(sp, "p")
    sp.add_argument("--z", type=int)
    sp.set_defaults(func=_cmd_trinomial_frob2)

    g = top.add_parser("mv", help="Morgan-Voyce polynomials").add_subparsers(
        dest="action", required=True
    )
    sp = g.add_parser("poly")
    sp.add_argument("--kind", choices=("b", "B"), required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(func=_cmd_mv_poly)
    sp = g.add_parser("apparition")
    _add_common(sp, "p")
    sp.add_argument("--z", type=int)
    sp.add_argument("--lift", type=int, default=None)
    sp.set_defaults(func=_cmd_mv_apparition)

    g = top.add_parser("verify", help="pointwise identity verification").add_subparsers(
        dest="action", required=True
    )
    sp = g.add_parser("appendix")
    _add_common(sp, "p", "m")
    sp.set_defaults(func=_cmd_verify_appendix)

    sp = top.add_parser("selfcheck", help="run the acceptance checks")
    sp.add_argument("level", choices=("quick", "full"), nargs="?", default="quick")
    sp.set_defaults(func=_cmd_selfcheck, is_selfcheck=True)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except BadParameter as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.budget is None:
        args.budget = _default_budget()
    try:
        out = args.func(args)
    except BudgetExceeded as exc:
        print(f"budget refused: {exc}", file=sys.stderr)
        return 2
    except FptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "is_selfcheck", False):
        return int(out)
    _emit(out, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
