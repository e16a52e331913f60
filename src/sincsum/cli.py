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
from .core import EvalConfig, EvalPoint, _check_index, check_grid_cap, power_sum
from .errors import DomainError, PrecisionError, SizeLimitError
from .evaluate import evaluate
from .exactpoly import R_CAP, poly_min_certificate, poly_route
from .verify.engine import GRID_TOL
from .verify.suite import SuiteConfig, run_suite

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
    cfg = EvalConfig(target_tol=args.tol)
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
    if not args.r.is_integer():
        raise DomainError(f"poly needs an integer r, got {args.r}")
    poly = poly_route(args.r)
    if poly is None:
        raise SizeLimitError(f"r must be an integer in [1, {R_CAP}], got {args.r}")
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
        # every field of the JSON, in to_json_dict order; None is an empty field
        row = [
            "" if v is None else _fmt(v) if isinstance(v, float) else str(v)
            for v in payload.values()
        ]
        text = ",".join(payload) + "\n" + ",".join(row) + "\n"
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return _emit(text, args.output)


def cmd_verify(args) -> int:
    cfg = SuiteConfig(grid=args.grid, seed=args.seed, trials=args.trials)
    results = run_suite(cfg)
    statuses = {c.status for c in results}
    if statuses & {"violated", "failed"}:
        code = EXIT_VIOLATED
    elif "inconclusive" in statuses:
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_OK
    payload = {
        "schema": "sincsum-verification-report/1",
        "grid": cfg.grid,
        "tol": GRID_TOL,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "passed": code == EXIT_OK,
        "checks": [c.to_json_dict(include_timings=args.timings) for c in results],
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    for c in results:
        if c.detail:
            sys.stderr.write(f"{c.check_id} {c.status}:\n{c.detail}")
    emit_code = _emit(text, args.output)
    return emit_code if emit_code != EXIT_OK else code


def _figure_rows(grid: int):
    curves = []
    for k in FIGURE_K:
        r = 1.02**k
        xs = [i / (grid - 1) for i in range(grid)]
        ys = [power_sum(EvalPoint(r=r, x=x))[0] for x in xs]
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
    _check_index(args.grid, "figure grid", 2)
    check_grid_cap(args.grid)
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
    p_eval.add_argument("--tol", type=float, default=EvalConfig.target_tol)
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
    p_verify.add_argument("--grid", type=int, default=SuiteConfig.grid)
    p_verify.add_argument("--seed", type=int, default=SuiteConfig.seed)
    p_verify.add_argument("--trials", type=int, default=SuiteConfig.trials)
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
