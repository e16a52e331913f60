"""Golden outputs: what the program printed when the files in
``tests/golden/`` were last written, compared by ``tests/test_golden.py``.
They are the one place that pins the program's outputs, and since CI runs
that test on both backends, the check that the two kernel twins agree.

The default ``verify`` report is kept as text.  The larger outputs are
kept as sha256 digests in ``digests.txt``, one line each (``digests`` says
which), every float as ``float.hex``; ``FORMAT_ARGS`` pins the bytes of
each output format the command line writes.  The eval-stream points come
from the benchmark's ``perfbench/workloads.py``, read but not changed.  After a
change that moves numbers on purpose, rewrite the files from the
repository root with

    PYTHONPATH=src python tests/golden_outputs.py

and name them in the change's notes.  The files pin one libm's floats.
"""

import hashlib
import importlib.util
from pathlib import Path

from helpers import run_cli
from sincsum import EvalConfig, EvalPoint, backend, cli, evaluate
from sincsum.verify.suite import GLOBAL_MIN_R, SuiteConfig

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

#: ``evaluate``'s edge cases at its default tolerance, as ``sincsum eval`` reads
#: them.  "The guard" is x >= 1e-9 and 1 - x >= 1e-4, under which both twins
#: write sinc's plain branch in line, in the central loop and for sinc(x - 1).
EDGE_EVAL_POINTS = (
    ("3", "0.3"),  # a plain point on the polynomial route
    ("2.5", "1e-12"),  # below the guard's x >= 1e-9
    ("2.5", "1e-9"),  # on it
    ("2.5", "0.99995"),  # 1 - x below 1e-4, where sinc(x - 1) is Taylor
    ("2.5", "1"),  # the closed form's endpoint
    ("1e4", "1e-9"),  # r = 1e4: the far terms underflow
    ("1e4", "0.01"),
    ("0.6", "0.5"),  # r = 0.6 and 1.02 take M = 15 and 13; the other r take 8
    ("1.02", "0.3"),
    ("2.5", "0.0001"),  # from x = 1e-4 up, sinc(x) shares sin(pi*x) with the prefactor
    ("2.5", "9.999999999999999e-05"),  # just below: sinc(x) is Taylor
    ("8", "0.25"),  # a second point on the polynomial route
    ("2.5", "0.9998999999999999"),  # the largest x under the guard's 1 - x >= 1e-4
    ("2.5", "0.9999"),  # outside it: 1 - 0.9999 is 9.9999999999989e-05
    ("2.5", "0"),  # x = 0: both routes' one pass at the closed form's endpoint
    ("0.6", "0"),
)

#: The exact layer's outputs.
EXACT_ARGS = (
    "poly --r 100 --format json",  # the largest
    "constants --q 2048 --format json",  # at the Bernoulli cap
    "constants --q 60 --d 3 --format json",  # past q = 50, log zeta(q) is 3 series terms
    "constants --q 1e6 --format json",  # the same, past the cap, where exact_c_q is null
    "constants --q 2.5 --format json",  # the one that goes through zeta_em
)

#: One command per output format the command line writes, byte for byte.
FORMAT_ARGS = (
    "eval --r 2.5 --x 0.3",  # JSON, the default
    "eval --r 2.5 --x 0.3 --format csv",
    "eval --r 8 --x 0.25 --format csv",  # the polynomial route
    "poly --r 5",  # CSV, the default: the coefficient list
    "constants --q 4 --d 2 --format csv",
    "constants --q 3000 --format csv",  # c_q underflows to 0; exact_c_q is null
    "figure --grid 33",  # CSV, the default: one row per point
    "figure --grid 33 --format svg",
)


def _cli(args: str) -> str:
    """What ``sincsum args`` prints; it must exit 0 with nothing on stderr."""
    code, out, err = run_cli(args.split())
    if (code, err) != (0, ""):
        raise RuntimeError(f"{args} exited {code}: {err}")
    return out


def _figure_hex(grid: int) -> str:
    """The figure's curves, one line per r: r and every value as float.hex."""
    return "".join(
        " ".join([r.hex(), *(y.hex() for y in ys)]) + "\n" for r, _, ys in cli._figure_rows(grid)
    )


def _eval_hex(points, cfg: EvalConfig) -> str:
    """``evaluate`` at each (r, x), one line per point: r, x, value,
    tail_bound, spread and each route's value, as float.hex."""
    lines = []
    for r, x in points:
        res = evaluate(EvalPoint(r, x), cfg)
        methods = (f"{name}={v.hex()}" for name, v in res.methods.items())
        fields = (r, x, res.value, res.tail_bound, res.spread)
        lines.append(" ".join([*(v.hex() for v in fields), *methods]) + "\n")
    return "".join(lines)


def _deriv_hex(r: float, grid: int) -> str:
    """``power_sum_deriv`` at r and each interior grid point i/(grid - 1),
    as ``verify``'s global-minimum check evaluates it, as float.hex."""
    step = grid - 1
    return " ".join(backend.power_sum_deriv(r, i / step).hex() for i in range(1, step)) + "\n"


def _workloads():
    """The benchmark's workload definitions, loaded from their file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests() -> str:
    lines = [
        f"{_sha256(_cli('verify --seed 7 --trials 12345'))}  verify --seed 7 --trials 12345\n",
        f"{_sha256(_figure_hex(1024))}  figure --grid 1024, float.hex\n",
    ]
    workloads = _workloads()
    stream_cfg = EvalConfig(target_tol=workloads.EVAL_TOL)
    for seed in range(3):
        text = _eval_hex(workloads.eval_stream(seed), stream_cfg)
        lines.append(f"{_sha256(text)}  eval-stream seed {seed}, float.hex\n")
    for r, x in EDGE_EVAL_POINTS:
        text = _eval_hex([(float(r), float(x))], EvalConfig())
        lines.append(f"{_sha256(text)}  eval --r {r} --x {x}, float.hex\n")
    grid = SuiteConfig().grid
    for r in GLOBAL_MIN_R:
        text = _deriv_hex(r, grid)
        lines.append(f"{_sha256(text)}  power_sum_deriv r={r!r} at i/{grid - 1}, float.hex\n")
    lines += (f"{_sha256(_cli(args))}  {args}\n" for args in EXACT_ARGS + FORMAT_ARGS)
    return "".join(lines)


#: Each golden file and the function that renders it from the code as it is.
GOLDEN = {"verify_default.json": lambda: _cli("verify"), "digests.txt": digests}

if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, render in GOLDEN.items():
        (GOLDEN_DIR / name).write_text(render())
        print(GOLDEN_DIR / name)
