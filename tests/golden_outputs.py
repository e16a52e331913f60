"""Golden outputs: what the program printed when the files in
``tests/golden/`` were last written, compared by ``tests/test_golden.py``.

The default ``verify`` report is kept as text.  The larger outputs are
kept as sha256 digests in ``digests.txt``, one line each, every float as
``float.hex``: ``verify --seed 7 --trials 12345``, ``figure --grid 1024``,
``evaluate`` over the benchmark's eval-stream points for seeds 0-2 (its
``perfbench/workloads.py``, read but not changed), ``evaluate`` at each
point of CI's cross-backend eval list, one line per point, and
``power_sum_deriv`` at the interior points of ``verify``'s default grid, one
line per ``r`` of its global-minimum checks.  After a change
that moves numbers on purpose, rewrite the files from the repository root
with

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

#: The (r, x) points of the cross-backend eval step in
#: ``.github/workflows/tests.yml``, which reads them from here and passes them
#: to ``--r``/``--x`` as written.
CI_EVAL_POINTS = (
    ("3", "0.3"),
    ("2.5", "1e-12"),
    ("2.5", "1e-9"),
    ("2.5", "0.99995"),
    ("2.5", "1"),
    ("1e4", "1e-9"),
    ("1e4", "0.01"),
    ("0.6", "0.5"),
    ("1.02", "0.3"),
    ("2.5", "0.0001"),
    ("2.5", "9.999999999999999e-05"),
    ("8", "0.25"),
    ("2.5", "0.9998999999999999"),
    ("2.5", "0.9999"),
    ("2.5", "0"),
    ("0.6", "0"),
)


def verify(*argv: str) -> str:
    """``sincsum verify`` with these flags: its report, which must pass."""
    code, out, err = run_cli(["verify", *argv])
    if (code, err) != (0, ""):
        raise RuntimeError(f"verify {' '.join(argv)} exited {code}: {err}")
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
        f"{_sha256(verify('--seed', '7', '--trials', '12345'))}  verify --seed 7 --trials 12345\n",
        f"{_sha256(_figure_hex(1024))}  figure --grid 1024, float.hex\n",
    ]
    workloads = _workloads()
    stream_cfg = EvalConfig(target_tol=workloads.EVAL_TOL)
    for seed in range(3):
        text = _eval_hex(workloads.eval_stream(seed), stream_cfg)
        lines.append(f"{_sha256(text)}  eval-stream seed {seed}, float.hex\n")
    for r, x in CI_EVAL_POINTS:
        text = _eval_hex([(float(r), float(x))], EvalConfig())
        lines.append(f"{_sha256(text)}  eval --r {r} --x {x}, float.hex\n")
    grid = SuiteConfig().grid
    for r in GLOBAL_MIN_R:
        text = _deriv_hex(r, grid)
        lines.append(f"{_sha256(text)}  power_sum_deriv r={r!r} at i/{grid - 1}, float.hex\n")
    return "".join(lines)


#: Each golden file and the function that renders it from the code as it is.
GOLDEN = {"verify_default.json": verify, "digests.txt": digests}

if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, render in GOLDEN.items():
        (GOLDEN_DIR / name).write_text(render())
        print(GOLDEN_DIR / name)
