"""Command-line front end: eval / zeros / density / verify.

Exit codes: 0 ok, 1 verify failure, 2 usage or syntax error, 3 evaluation
error (pole/budget/convergence), 4 unresolved cells under --strict.  Output
files embed the run manifest (with the artifact version and a content hash)
and are byte-stable for identical manifests.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import sys
from dataclasses import asdict

from . import __version__
from .config import EvalConfig, DEFAULT_CONFIG
from .errors import ArityError, ExprSyntaxError, UnknownFamily, ZetaError
from .families import linear_form_eval, linear_form_from_config
from .expr import eval_expr, parse_expr, pole_set, to_text
from .verify import run_suite
from .zeros import (
    ContourConfig,
    DEFAULT_CONTOUR,
    Rectangle,
    T_FLOOR,
    _fit_slope,
    density_scan,
    localize_zeros,
)
from .zeta import EM_ORDER, MAX_TERMS, POLE_GUARD

USAGE_ERROR = 2
EVAL_ERROR = 3
STRICT_UNRESOLVED = 4

_SYNTAX_ERRORS = (ExprSyntaxError, UnknownFamily, ArityError)
_EVAL_ERRORS = (ZetaError,          # every other package failure
                ArithmeticError)    # a value that overflows a float


def _parse_point(text: str) -> complex:
    cleaned = text.strip().replace(" ", "")
    if cleaned.endswith("i"):               # 0.5+14i; the i of inf stays
        cleaned = cleaned[:-1] + "j"
    try:
        z = complex(cleaned)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse complex point {text!r}")
    if not cmath.isfinite(z):
        raise argparse.ArgumentTypeError(f"non-finite complex point {text!r}")
    return z


def _parse_tuple(text: str) -> tuple[str, tuple[complex, ...]]:
    """An --at-tuple value: its text and the points it lists."""
    return text, tuple(_parse_point(p) for p in text.split(";"))


def _parse_rect(text: str) -> Rectangle:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("--rect needs sigma_lo,sigma_hi,t_lo,t_hi")
    try:
        a, b, c, d = (float(p) for p in parts)
        return Rectangle(a, b, c, d)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_tlist(text: str) -> tuple[float, ...]:
    parts = [p for p in (q.strip() for q in text.split(",")) if p]
    if not parts:
        raise argparse.ArgumentTypeError("--T needs a comma-separated list")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad --T list {text!r}")


def _eval_config(args) -> EvalConfig:
    kwargs = {}
    if getattr(args, "tol", None) is not None:
        kwargs["target_abs_err"] = args.tol
    return EvalConfig(**kwargs) if kwargs else DEFAULT_CONFIG


def _contour_config(args) -> ContourConfig:
    if getattr(args, "zero_tol", None) is not None:
        return ContourConfig(zero_tol=args.zero_tol)
    return DEFAULT_CONTOUR


def _manifest(args, command: str, extra: dict) -> dict:
    man = {
        "command": command,
        "artifact_version": __version__,
        "eval_config": {**asdict(_eval_config(args)), "em_order": EM_ORDER,
                        "max_terms": MAX_TERMS, "pole_guard": POLE_GUARD},
    }
    man.update(extra)
    payload = json.dumps(man, sort_keys=True, separators=(",", ":"))
    man["manifest_hash"] = "sha256:" + hashlib.sha256(payload.encode()).hexdigest()
    return man


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    cfg = _eval_config(args)
    results = []
    if args.config:
        with open(args.config) as fh:
            spec = linear_form_from_config(fh.read())
        for raw, svals in args.at_tuple:
            v = linear_form_eval(spec, svals, cfg)
            results.append({"s": [ [c.real, c.imag] for c in svals ],
                            "re": v.re, "im": v.im, "abs_err": v.abs_err})
            print(f"F({raw}) = {v.re:.15g} + {v.im:.15g}i  (abs_err {v.abs_err:.3g})")
        expr_text = f"<config:{args.config}>"
    else:
        expr = parse_expr(args.expr)
        expr_text = to_text(expr)
        for s in args.at:
            v = eval_expr(expr, s, cfg)
            results.append({"s": [s.real, s.imag],
                            "re": v.re, "im": v.im, "abs_err": v.abs_err})
            print(f"F({s:g}) = {v.re:.15g} + {v.im:.15g}i  (abs_err {v.abs_err:.3g})")
    if args.json:
        man = _manifest(args, "eval", {
            "expression": expr_text,
            "points": [r["s"] for r in results],
            "out": args.json,
        })
        _write_json(args.json, {"expr": expr_text, "values": results, "manifest": man})
    return 0


def _clear_real_poles(expr, rect: Rectangle) -> Rectangle:
    """Lift a bottom edge sitting on real-axis pole candidates to T_FLOOR.

    Every implemented atom has only real poles, so nudging t_lo above the axis
    is the whole pre-split story for upper-half-plane rectangles.
    """
    on_poles = rect.t_lo <= T_FLOOR < rect.t_hi and any(
        abs(p.imag) <= 1e-12 and abs(rect.t_lo - p.imag) < T_FLOOR
        and rect.sigma_lo - T_FLOOR <= p.real <= rect.sigma_hi + T_FLOOR
        for p in (cand.location for cand in pole_set(expr)))
    return Rectangle(rect.sigma_lo, rect.sigma_hi, T_FLOOR, rect.t_hi) if on_poles else rect


def cmd_zeros(args) -> int:
    cfg = _eval_config(args)
    cc = _contour_config(args)
    expr = parse_expr(args.expr)
    rect = _clear_real_poles(expr, args.rect)
    result = localize_zeros(expr, rect, cc, cfg, threads=args.threads)
    zeros_payload = [
        {"re": r.location.re, "im": r.location.im,
         "residual": r.residual, "mult": r.winding_mult}
        for r in result.records
    ]
    unresolved_payload = [
        {"rect": u.rect.as_list(), "winding": u.winding, "reason": u.reason}
        for u in result.unresolved
    ]
    man = _manifest(args, "zeros", {
        "expression": to_text(expr),
        "rect": rect.as_list(),
        "contour_config": asdict(cc),
        "threads": args.threads,
        "out": args.out,
    })
    payload = {
        "expr": to_text(expr),
        "rect": rect.as_list(),
        "zeros": zeros_payload,
        "unresolved": unresolved_payload,
        "manifest": man,
    }
    if args.out:
        _write_json(args.out, payload)
    print(f"{len(zeros_payload)} zero(s), {len(unresolved_payload)} unresolved cell(s)")
    for z in zeros_payload:
        print(f"  {z['re']:.12g} + {z['im']:.12g}i   mult {z['mult']}  "
              f"residual {z['residual']:.3g}")
    if result.unresolved and args.strict:
        return STRICT_UNRESOLVED
    return 0


def cmd_density(args) -> int:
    cfg = _eval_config(args)
    expr = parse_expr(args.expr)
    scan = density_scan(expr, args.sigma0, args.T, cfg,
                        sigma_cap=args.sigma_cap, threads=args.threads)
    man = _manifest(args, "density", {
        "expression": to_text(expr),
        "sigma0": args.sigma0,
        "sigma_cap": args.sigma_cap,
        "t_floor": scan.t_floor,
        "T_values": list(scan.T_values),
        "out": args.out,
    })
    lines = [
        f"# zetazeros {__version__}",
        f"# manifest {man['manifest_hash']}",
        "T,count,slope",
    ]
    for i, (t, c) in enumerate(zip(scan.T_values, scan.counts)):
        slope_so_far = _fit_slope(scan.T_values[:i + 1], scan.counts[:i + 1])
        lines.append(f"{t:g},{c},{slope_so_far:.12g}")
        print(f"T={t:g}  count={c}  slope_so_far={slope_so_far:.6g}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    if not scan.complete:
        print("warning: scan incomplete", file=sys.stderr)
        if args.strict:
            return STRICT_UNRESOLVED
    return 0


def cmd_verify(args) -> int:
    results = run_suite(args.suite, _eval_config(args))
    width = max(len(r.name) for r in results) + 2
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        print(f"{r.suite:<11} {r.name:<{width}} residual {r.residual:10.3e}  "
              f"< {r.threshold:8.1e}  {status}")
    print(f"{len(results)} checks, {failures} failure(s)")
    return 0 if failures == 0 else 1


_TOL_HELP = ("target absolute error per evaluation (default 1e-12); it sets the "
             "Euler-Maclaurin cutoff, so a looser target does less work")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="zetazeros",
        description="Evaluate zeta-family expressions and scan rectangles for zeros.",
    )
    ap.add_argument("--version", action="version", version=f"zetazeros {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression at points")
    p.add_argument("expr", nargs="?", default=None, help="expression text")
    p.add_argument("--at", type=_parse_point, action="append", default=[], metavar="S",
                   help="complex point, e.g. 2 or 0.5+14.1i (repeatable)")
    p.add_argument("--at-tuple", type=_parse_tuple, action="append", default=[],
                   metavar="S1;S2;...",
                   help="exponent tuple for --config evaluation (repeatable)")
    p.add_argument("--config", help="linear-form family config file")
    p.add_argument("--json", help="write results as JSON to this path")
    p.add_argument("--tol", type=float, help=_TOL_HELP)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("zeros", help="locate zeros in a rectangle")
    p.add_argument("expr", help="expression text")
    p.add_argument("--rect", type=_parse_rect, required=True,
                   metavar="SLO,SHI,TLO,THI")
    p.add_argument("--out", help="write the zero list as JSON to this path")
    p.add_argument("--strict", action="store_true",
                   help="exit 4 if any cell is unresolved")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--tol", type=float, help=_TOL_HELP)
    p.add_argument("--zero-tol", type=float, help="zero residual tolerance")
    p.set_defaults(fn=cmd_zeros)

    p = sub.add_parser("density", help="zero-count scan N(sigma0, T)")
    p.add_argument("expr", help="expression text")
    p.add_argument("--sigma0", type=float, required=True)
    p.add_argument("--T", type=_parse_tlist, required=True, metavar="T1,T2,...")
    p.add_argument("--sigma-cap", type=float, default=2.0)
    p.add_argument("--out", help="write the counts as CSV to this path")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--tol", type=float, help=_TOL_HELP)
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("verify", help="run identity/oracle/symmetry suites")
    p.add_argument("suite", choices=["identities", "oracles", "symmetry", "all"])
    p.add_argument("--tol", type=float, help=_TOL_HELP)
    p.set_defaults(fn=cmd_verify)
    return ap


def _attach_dash_values(argv: list[str]) -> list[str]:
    """argv with each long option followed by a value that begins with '-'
    spelled as one token, ``--at -0.5+14i`` as ``--at=-0.5+14i``.  argparse
    reads such a value as an option unless it is a plain number.  -h is the
    only option with one dash, so any other such token after a long option is
    its value.  Nothing after '--' is touched."""
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if (prev.startswith("--") and "=" not in prev and "--" not in out
                and tok.startswith("-") and not tok.startswith("--") and tok != "-h"):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else list(argv)))
    if args.command == "eval" and args.config:
        if args.expr is not None or args.at:
            ap.error("eval --config takes --at-tuple points, not an expression or --at")
        if not args.at_tuple:
            ap.error("eval --config needs at least one --at-tuple 's1;s2;...'")
    elif args.command == "eval":
        if args.at_tuple:
            ap.error("--at-tuple needs --config")
        if args.expr is None:
            ap.error("eval needs an expression or --config")
        if not args.at:
            ap.error("eval needs at least one --at point")
    try:
        return args.fn(args)
    except _SYNTAX_ERRORS as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except _EVAL_ERRORS as exc:
        print(f"evaluation error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EVAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
