"""Command-line front end.

Subcommands
-----------
eval        single-point consensus evaluation of the power sum
poly        exact rational coefficients of the integer-order polynomial
constants   transference constant report for one (q, d) query
verify      full certification suite, JSON report, exit code 0/1/2
figure      power sum curves for r = 1.02^k, k in {1,2,4,...,256}, as CSV
            (or a simple SVG line plot)

Exit codes: 0 success; 1 verify found a violated/failed check; 2 domain
error (or verify found an inconclusive check); 3 requested precision
unreachable; 4 output path unwritable; 5 internal error (any other
exception, reported on one line instead of a traceback).  For fixed flags
and seed the output bytes are identical across runs; wall-clock timings
are only emitted under --timings.

verify runs its majorization check in a forked child, beside the other
checks, where os.fork is available and the caller is single-threaded, and
in-process otherwise; the report bytes are the same either way.  Under
--timings each check reports its own time, so the times can add up to more
than the run's wall time.
"""

import argparse
import json
import sys

from .constants import ConstantQuery, transference_factor
from .core import EvalConfig, EvalPoint
from .errors import DomainError, PrecisionError, SizeLimitError
from .evaluate import evaluate
from .exactpoly import poly_f, poly_min_certificate
from .verify.suite import SuiteConfig, run_suite, suite_exit_code

#: Exponents k of the figure curves r = 1.02^k.
FIGURE_K = (1, 2, 4, 8, 16, 32, 64, 128, 256)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_DOMAIN = 2
EXIT_INCONCLUSIVE = 2
EXIT_PRECISION = 3
EXIT_OUTPUT = 4
EXIT_INTERNAL = 5


def _emit(text: str, output: str | None) -> int:
    if output is None or output == "-":
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(output, "w") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {output}: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    return EXIT_OK


def _fmt(v: float) -> str:
    return f"{v:.15g}"


def cmd_eval(args) -> int:
    point = EvalPoint(r=args.r, x=args.x)
    cfg = EvalConfig(target_tol=args.tol, max_terms=args.max_terms, mode="consensus")
    res = evaluate(point, cfg)
    if args.format == "csv":
        text = "r,x,value,method_spread\n" + ",".join(
            (_fmt(args.r), _fmt(args.x), _fmt(res.value), _fmt(res.spread))
        ) + "\n"
    else:
        text = json.dumps(
            {
                "r": args.r,
                "x": args.x,
                "value": res.value,
                "method_spread": res.spread,
            },
            sort_keys=True,
            indent=2,
        ) + "\n"
    return _emit(text, args.output)


def cmd_poly(args) -> int:
    if args.r != int(args.r):
        raise DomainError(f"poly needs an integer r, got {args.r}")
    poly = poly_f(int(args.r))
    min_value, _ = poly_min_certificate(poly)
    fracs = [f"{c.numerator}/{c.denominator}" if c.denominator != 1 else str(c.numerator) for c in poly.coeffs]
    if args.format == "json":
        text = json.dumps(
            {
                "r": poly.r,
                "coeffs": fracs,
                "min_value": f"{min_value.numerator}/{min_value.denominator}",
            },
            sort_keys=True,
            indent=2,
        ) + "\n"
    else:
        text = ", ".join(fracs) + "\n"
    return _emit(text, args.output)


def cmd_constants(args) -> int:
    report = transference_factor(ConstantQuery(q=args.q, d=args.d))
    payload = report.to_json_dict()
    if args.format == "csv":
        keys = ["q", "d", "c_q", "factor", "crude", "exact_c_q"]
        row = [
            _fmt(payload[k]) if isinstance(payload[k], float) else str(payload[k])
            for k in keys
        ]
        text = ",".join(keys) + "\n" + ",".join(row) + "\n"
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return _emit(text, args.output)


def cmd_verify(args) -> int:
    cfg = SuiteConfig(
        grid=args.grid,
        tol=args.tol,
        seed=args.seed,
        trials=args.trials,
        max_depth=args.max_depth,
    )
    results = run_suite(cfg)
    code = suite_exit_code(results)
    payload = {
        "schema": "sincsum-verification-report/1",
        "grid": cfg.grid,
        "tol": cfg.tol,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "passed": code == 0,
        "checks": [c.to_json_dict(include_timings=args.timings) for c in results],
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    emit_code = _emit(text, args.output)
    return emit_code if emit_code != EXIT_OK else code


def _figure_rows(grid: int):
    cfg = EvalConfig(target_tol=1e-12, mode="consensus")
    curves = []
    for k in FIGURE_K:
        r = 1.02**k
        xs = [i / (grid - 1) for i in range(grid)]
        ys = [evaluate(EvalPoint(r=r, x=x), cfg).value for x in xs]
        curves.append((r, xs, ys))
    return curves


def _figure_svg(curves) -> str:
    width, height = 720, 460
    ml, mr, mt, mb = 54, 16, 16, 36
    pw, ph = width - ml - mr, height - mt - mb
    palette = (
        "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
        "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22",
    )
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        'stroke="#444" stroke-width="1"/>',
    ]
    for i, (r, xs, ys) in enumerate(curves):
        pts = " ".join(
            f"{ml + pw * x:.2f},{mt + ph * (1.0 - y):.2f}" for x, y in zip(xs, ys)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" '
            f'stroke="{palette[i % len(palette)]}" stroke-width="1.2"/>'
        )
        parts.append(
            f'<text x="{width - mr - 4}" y="{mt + 14 + 13 * i}" text-anchor="end" '
            f'font-family="monospace" font-size="10" '
            f'fill="{palette[i % len(palette)]}">r={r:.4g}</text>'
        )
    for frac, label in ((0.0, "0"), (0.5, "1/2"), (1.0, "1")):
        parts.append(
            f'<text x="{ml + pw * frac:.2f}" y="{height - 14}" text-anchor="middle" '
            f'font-family="monospace" font-size="11" fill="#222">{label}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        parts.append(
            f'<text x="{ml - 6}" y="{mt + ph * (1.0 - frac) + 4:.2f}" '
            f'text-anchor="end" font-family="monospace" font-size="11" '
            f'fill="#222">{frac:g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_figure(args) -> int:
    if args.grid < 2:
        raise DomainError(f"figure grid must be >= 2, got {args.grid}")
    curves = _figure_rows(args.grid)
    if args.format == "svg":
        return _emit(_figure_svg(curves), args.output)
    lines = ["x,r,f_r(x)"]
    for r, xs, ys in curves:
        for x, y in zip(xs, ys):
            lines.append(f"{_fmt(x)},{_fmt(r)},{_fmt(y)}")
    return _emit("\n".join(lines) + "\n", args.output)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sincsum",
        description="Validated periodic sinc power sums and their certification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("json", "csv"), default_format="json"):
        p.add_argument("--format", choices=formats, default=default_format)
        p.add_argument("--output", default=None, help="output path (default stdout)")

    p_eval = sub.add_parser("eval", help="evaluate the power sum at one point")
    p_eval.add_argument("--r", type=float, required=True)
    p_eval.add_argument("--x", type=float, required=True)
    p_eval.add_argument("--tol", type=float, default=1e-10)
    p_eval.add_argument("--max-terms", type=int, default=1_000_000)
    add_common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_poly = sub.add_parser("poly", help="exact polynomial coefficients")
    p_poly.add_argument("--r", type=float, required=True)
    add_common(p_poly, default_format="csv")
    p_poly.set_defaults(func=cmd_poly)

    p_const = sub.add_parser("constants", help="transference constant report")
    p_const.add_argument("--q", type=float, required=True)
    p_const.add_argument("--d", type=int, default=1)
    add_common(p_const)
    p_const.set_defaults(func=cmd_constants)

    p_verify = sub.add_parser("verify", help="run the certification suite")
    p_verify.add_argument("--grid", type=int, default=1024)
    p_verify.add_argument("--tol", type=float, default=1e-10)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=100_000)
    p_verify.add_argument("--max-depth", type=int, default=40)
    p_verify.add_argument(
        "--timings",
        action="store_true",
        help="include wall times (breaks byte-for-byte reproducibility)",
    )
    add_common(p_verify, formats=("json",))
    p_verify.set_defaults(func=cmd_verify)

    p_fig = sub.add_parser("figure", help="emit the power sum curve family")
    p_fig.add_argument("--grid", type=int, default=1024)
    add_common(p_fig, formats=("csv", "svg"), default_format="csv")
    p_fig.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except PrecisionError as exc:
        print(
            f"error: {exc} (achieved bound {exc.achieved_bound:.3e})", file=sys.stderr
        )
        return EXIT_PRECISION
    except Exception as exc:  # a defect, not a verdict: keep exit 1 for "violated"
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
