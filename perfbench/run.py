#!/usr/bin/env python3
"""The sincsum benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload eval-stream --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                  # every workload, untraced then traced

Workloads (see BENCHMARK.json for why each was chosen):

- ``verify-default``: ``sincsum.cli.main(["verify", ...])`` with default flags.
- ``eval-stream``: consensus ``evaluate`` over a seeded stream of points.
- ``exact-cold``: ``poly_f(r)`` and ``exact_min_constant(r)`` for r = 1..100
  in a fresh interpreter per op.

Each loop is closed, with one caller and no extra threads.  ``--trace 0``
measures the end-to-end metrics with tracing off; ``--trace 1`` makes the
separate traced run that gives the per-layer metrics, the span dump and the
tracing overhead.  Every measurement runs in a fresh worker process that
imports ``sincsum`` from ``src/``; the kernel backend is whatever
``sincsum.backend`` selects, unless ``--backend`` forces one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
print every metric with its unit and the work done per op.  Outputs go to
``perfbench/out/``.  Exit code 2 means the benchmark itself could not run.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"
SPEC = ROOT / "BENCHMARK.json"

#: Fresh interpreters whose set-up is timed; setup_s is their median.
SETUP_SAMPLES = 11

#: Reference-loop samples taken after each timed set-up.
SETUP_REF_SAMPLES = 4

#: Wall-clock budget of one workload run, in seconds.
TIME_LIMIT = 170.0

#: Values of SINCSUM_BACKEND the workers may be given.
BACKENDS = ("auto", "python", "compiled")


class BenchError(Exception):
    """The benchmark could not run; distinct from an op that failed."""


class Context:
    """Settings shared by every worker a run starts."""

    def __init__(self, seed: int, seconds: int, backend: str):
        self.seed = seed
        self.seconds = seconds
        self.env = dict(os.environ, SINCSUM_BACKEND=backend)
        # Imports read cached bytecode, as for an installed package, whatever
        # the caller's environment says.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.deadline = time.monotonic() + TIME_LIMIT

    def request(self, mode: str, workload: str, **extra) -> dict:
        return {
            "mode": mode,
            "workload": workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "src": str(SRC),
            "out": str(OUT),
            **extra,
        }

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"time limit of {TIME_LIMIT:.0f} s reached")
        return left

    def spawn(self, req: dict) -> dict:
        """Run one worker to completion and return its JSON result."""
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), json.dumps(req)],
                env=self.env,
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=self.remaining(),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{req['mode']} worker timed out") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(
                f"{req['mode']} worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}"
            )
        return json.loads(lines[-1])

    def setup_time(self, workload: str) -> float:
        """Seconds from starting an interpreter until the workload is ready."""
        req = self.request("setup", workload)
        with open(OUT / "setup-stderr.txt", "w+") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(WORKER), json.dumps(req)],
                env=self.env,
                cwd=ROOT,
                stdout=subprocess.PIPE,
                stderr=err,
                text=True,
            )
            try:
                line = proc.stdout.readline()
                t1 = time.perf_counter()
                proc.stdout.read()
                proc.wait(timeout=self.remaining())
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
                proc.stdout.close()
            if line.strip() != "ready" or proc.returncode != 0:
                err.seek(0)
                raise BenchError(f"setup worker failed:\n{err.read()[-3000:]}")
        return t1 - t0

    def setup_seconds(self, workload: str) -> tuple[float, float]:
        """Median set-up time, and the median reference-loop time around it."""
        self.setup_time(workload)  # untimed: fills bytecode and file caches
        gauge = workloads.SpeedGauge()
        times = []
        for _ in range(SETUP_SAMPLES):
            times.append(self.setup_time(workload))
            gauge.sample(SETUP_REF_SAMPLES)
        return statistics.median(times), statistics.median(gauge.samples)


# -- correctness -----------------------------------------------------------


def power_sum_mp(r: float, x: float):
    """S_r(x) from mpmath's Hurwitz zeta, independent of the package."""
    try:
        import mpmath as mp
    except ImportError as exc:
        raise BenchError("the eval-stream oracle needs mpmath") from exc

    with mp.workdps(workloads.ORACLE_DPS):
        xm = mp.mpf(x)
        if xm == 0 or xm == 1:
            return mp.mpf(1)
        s = 2 * mp.mpf(r)
        pref = (mp.sin(mp.pi * xm) / mp.pi) ** s
        return pref * (mp.zeta(s, xm) + mp.zeta(s, 1 - xm))


def check_oracle(rows) -> tuple[int, int, list[str]]:
    """Oracle failures (error above target_tol) and tail-bound misses.

    Rows of ops that raised carry NaN and were already counted as failed.
    """
    failures = misses = 0
    notes = []
    for k, r, x, value, bound in rows:
        if math.isnan(value):
            continue
        err = float(abs(power_sum_mp(r, x) - value))
        if not err <= workloads.EVAL_TOL:
            failures += 1
            notes.append(f"point {k} (r={r!r}, x={x!r}): error {err:.3g}")
        if not err <= bound:
            misses += 1
            notes.append(
                f"tail_bound miss at point {k} (r={r!r}, x={x!r}): "
                f"error {err:.3g} > bound {bound:.3g}"
            )
    return failures, misses, notes


# -- workloads ---------------------------------------------------------------


def in_process(name: str, ctx: Context, trace: bool) -> dict:
    """verify-default and eval-stream: one worker runs the whole loop."""
    if not trace:
        setup = ctx.setup_seconds(name)
        res = ctx.spawn(ctx.request("loop", name))
        run = {
            "attempted": res["ops"],
            "failed": res["failed"],
            "notes": res["errors"],
            "backend": res["backend"],
            "work": res["work"],
            "samples": res["ops"],
            **end_to_end(setup, res, res["max_rss_kb"] / 1024.0),
        }
    else:
        dump = OUT / f"spans-{name}.json"
        res = ctx.spawn(ctx.request("trace", name, dump=str(dump)))
        kernels = ctx.spawn(ctx.request("kernels", name))["kernels"]
        run = {
            "attempted": 2 * res["ops"],
            "failed": res["failed"] + res.get("trace_mismatches", 0),
            "notes": res["errors"],
            "backend": res["backend"],
            "work": res["work"],
            "dump": str(dump.relative_to(ROOT)),
            "trace": res,
            "kernels": kernels,
            "tail_bound_misses": 0,
        }
        if res.get("trace_mismatches"):
            run["notes"].append(
                f"{res['trace_mismatches']} values changed under tracing"
            )
    if name == "eval-stream":
        failures, misses, notes = check_oracle(res["oracle"])
        run["failed"] += failures
        run["notes"] += notes
        run["oracle_points"] = len(res["oracle"])
        run["tail_bound_misses"] = misses
    return run


def end_to_end(setup, loop: dict, rss_mb: float) -> dict:
    """End-to-end metrics, and the raw values of the scaled ones.

    ``setup`` is (setup_s, reference time around it).  ``loop`` holds the
    timed loop's ``ops``, ``wall_s`` and ``scaled_wall_s``, ``p50_ms`` and
    ``p50_scaled_ms``, ``p99_ms`` and the median reference time ``ref_s``.
    p99 is left raw: it is set by the slowest ops, and scaling each by a
    few reference samples taken after it more than doubled its spread
    between runs, where it narrowed the spread of the other times.
    """
    setup_s, setup_ref = setup
    return {
        "metrics": {
            "setup_s": (setup_s * workloads.REF_NOMINAL_S / setup_ref, "s"),
            "ops_per_s": (loop["ops"] / loop["scaled_wall_s"], "1/s"),
            "latency_p50_ms": (loop["p50_scaled_ms"], "ms"),
            "latency_p99_ms": (loop["p99_ms"], "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        },
        "raw": {
            "setup_s": setup_s,
            "setup_ref_ms": 1e3 * setup_ref,
            "ops_per_s": loop["ops"] / loop["wall_s"],
            "latency_p50_ms": loop["p50_ms"],
            "loop_ref_ms": 1e3 * loop["ref_s"],
        },
    }


def cold_op(ctx: Context, traced: bool, dump: Path | None = None) -> dict:
    req = ctx.request(
        "cold", "exact-cold", trace=traced, dump=None if dump is None else str(dump)
    )
    res = ctx.spawn(req)
    res["ok"] = res["error"] is None and res["mismatches"] == 0
    return res


def exact_cold(ctx: Context, trace: bool) -> dict:
    """exact-cold: a fresh interpreter per op; the op is timed inside it."""
    failed = 0
    notes = []

    def tally(res):
        nonlocal failed
        if not res["ok"]:
            failed += 1
            if len(notes) < 5:
                notes.append(res["error"] or f"{res['mismatches']} constants disagree")

    work = {"r_max": workloads.EXACT_R_MAX}
    if not trace:
        setup = ctx.setup_seconds("exact-cold")
        ops = []
        deadline = time.perf_counter() + ctx.seconds
        while True:
            t0 = time.perf_counter()
            res = cold_op(ctx, False)
            # The whole cycle counts for ops_per_s, except the reference loop.
            res["cycle_s"] = time.perf_counter() - t0 - res["gauge_s"]
            res["scale"] = workloads.REF_NOMINAL_S / statistics.median(res["ref_samples"])
            tally(res)
            ops.append(res)
            if time.perf_counter() >= deadline:
                break
        lat = sorted(r["op_s"] for r in ops)
        loop = {
            "ops": len(ops),
            "wall_s": sum(r["cycle_s"] for r in ops),
            "scaled_wall_s": sum(r["cycle_s"] * r["scale"] for r in ops),
            "p50_ms": 1e3 * statistics.median(lat),
            "p50_scaled_ms": 1e3 * statistics.median(r["op_s"] * r["scale"] for r in ops),
            "p99_ms": 1e3 * workloads.percentile99(lat),
            "ref_s": statistics.median(t for r in ops for t in r["ref_samples"]),
        }
        return {
            "attempted": len(ops),
            "failed": failed,
            "notes": notes,
            "backend": ops[0]["backend"],
            "work": work,
            "samples": len(ops),
            **end_to_end(
                setup, loop, statistics.median(r["max_rss_kb"] for r in ops) / 1024.0
            ),
        }

    untraced = 0.0
    n = 0
    while n == 0 or untraced < 0.5 * ctx.seconds:
        res = cold_op(ctx, False)
        tally(res)
        untraced += res["op_s"]
        n += 1
    dump = OUT / "spans-exact-cold.json"
    agg = {"layers": {}, "counters": {}, "root_ns": 0, "spans": 0}
    traced = 0.0
    for k in range(n):
        res = cold_op(ctx, True, dump if k == 0 else None)
        tally(res)
        traced += res["op_s"]
        for name, row in res["layers"].items():
            acc = agg["layers"].setdefault(name, [0, 0, 0])
            for j in range(3):
                acc[j] += row[j]
        for name, v in res["counters"].items():
            agg["counters"][name] = agg["counters"].get(name, 0) + v
        agg["root_ns"] += res["root_ns"]
        agg["spans"] += res["spans"]
    kernels = ctx.spawn(ctx.request("kernels", "exact-cold"))["kernels"]
    return {
        "attempted": 2 * n,
        "failed": failed,
        "notes": notes,
        "backend": res["backend"],
        "work": work,
        "dump": str(dump.relative_to(ROOT)),
        "trace": {**agg, "ops": n, "untraced_wall_s": untraced, "traced_wall_s": traced},
        "kernels": kernels,
        "tail_bound_misses": 0,
    }


# -- per-layer metrics -------------------------------------------------------

#: Spans reported with calls and self time per op.
SPAN_CALLS_SELF = (
    "backend.power_sum_fixed",
    "backend.power_sum_zeta",
    "backend.power_sum_deriv",
    "backend.sinc_sq",
    "backend.zeta_em",
    "core.EvalPoint",
    "core.select_m_terms",
    "core.power_sum",
    "evaluate.evaluate",
    "specfun.bernoulli",
    "exactpoly.poly_f",
    "exactpoly.poly_step",
    "exactpoly.poly_eval",
    "constants.exact_min_constant",
    "verify.certify.certify",
    "verify.engine.verify_global_min",
    "verify.engine.proof_chain",
)

#: Spans reported with self time per op only.
SPAN_SELF = (
    "specfun.power_sum_zeta",
    "verify.engine.majorization_property",
    "verify.suite.run_suite",
    "manifest.load_default_manifest",
    "manifest.manifest_check",
    "cli.main",
)


def layer_metrics(run: dict) -> dict:
    """Per-layer metrics of a traced run, normalised per op."""
    tr = run["trace"]
    ops = tr["ops"]
    layers, counters = tr["layers"], tr["counters"]

    def row(name):
        return layers.get(name, (0, 0, 0))

    def per_op(v):
        return v / ops

    def ratio(a, b):
        return a / b if b else 0.0

    untraced_ms = 1e3 * tr["untraced_wall_s"]
    traced_ms = 1e3 * tr["traced_wall_s"]
    m = {
        "trace.overhead_ms": (per_op(traced_ms - untraced_ms), "ms/op"),
        "trace.overhead_pct": (100.0 * ratio(traced_ms - untraced_ms, untraced_ms), "%"),
        "trace.unattributed_ms": (per_op(traced_ms - tr["root_ns"] / 1e6), "ms/op"),
        "trace.spans": (per_op(tr["spans"]), "count/op"),
        "bench.op.self_ms": (per_op(row("bench.op")[2] / 1e6), "ms/op"),
    }
    for name in SPAN_CALLS_SELF:
        m[f"{name}.calls"] = (per_op(row(name)[0]), "count/op")
        m[f"{name}.self_ms"] = (per_op(row(name)[2] / 1e6), "ms/op")
    for name in SPAN_SELF:
        m[f"{name}.self_ms"] = (per_op(row(name)[2] / 1e6), "ms/op")
    for name, us in run["kernels"].items():
        m[name] = (us, "us")

    boxes = counters.get("verify.certify.certify.boxes", 0)
    grid = counters.get("verify.engine.verify_global_min.grid_points", 0)
    trials = counters.get("verify.engine.majorization_property.trials", 0)
    m.update(
        {
            "core.m_terms_mean": (
                ratio(counters.get("core.m_terms_sum", 0), row("core.select_m_terms")[0]),
                "count",
            ),
            "core.tail_bound_misses": (run["tail_bound_misses"], "count"),
            "evaluate.routes_per_call": (
                ratio(counters.get("evaluate.routes", 0), row("evaluate.evaluate")[0]),
                "count",
            ),
            "verify.certify.certify.boxes": (per_op(boxes), "count/op"),
            "verify.certify.certify.us_per_box": (
                ratio(row("verify.certify.certify")[1] / 1e3, boxes),
                "us",
            ),
            "verify.certify.certify.undecided": (
                per_op(counters.get("verify.certify.certify.undecided", 0)),
                "count/op",
            ),
            "verify.interval.intervals": (
                per_op(counters.get("verify.interval.intervals", 0)),
                "count/op",
            ),
            "verify.engine.verify_global_min.grid_points": (per_op(grid), "count/op"),
            "verify.engine.verify_global_min.us_per_grid_point": (
                ratio(row("verify.engine.verify_global_min")[1] / 1e3, grid),
                "us",
            ),
            "verify.engine.majorization_property.trials": (per_op(trials), "count/op"),
            "verify.engine.majorization_property.us_per_trial": (
                ratio(row("verify.engine.majorization_property")[1] / 1e3, trials),
                "us",
            ),
        }
    )
    return m


# -- reporting ---------------------------------------------------------------


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(seed: int, backend_option: str, backend: str) -> dict:
    try:
        import mpmath

        mp_version = mpmath.__version__
    except ImportError:
        mp_version = None
    return {
        "python": platform.python_version(),
        "backend": backend,
        "backend_option": backend_option,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seed": seed,
        "mpmath": mp_version,
    }


def work_line(name: str, run: dict) -> str:
    w = run["work"]
    if name == "verify-default":
        return (
            f"work/op: {w.get('checks')} checks, {w.get('boxes')} boxes, "
            f"8 x {w.get('grid')} grid points, {w.get('trials')} trials"
        )
    if name == "eval-stream":
        return (
            f"work/op: one consensus evaluate; stream of {w['points']} points, "
            f"{w['integer_r']} with integer r (polynomial route too)"
        )
    return f"work/op: fresh interpreter, P_r and exact constant for r = 1..{w['r_max']}"


#: Work counts printed beside a layer's self time.
WORK_BESIDE = {
    "core.select_m_terms.self_ms": ("core.m_terms_mean", "M mean"),
    "verify.certify.certify.self_ms": ("verify.certify.certify.boxes", "boxes/op"),
    "verify.engine.verify_global_min.self_ms": (
        "verify.engine.verify_global_min.grid_points",
        "grid points/op",
    ),
    "verify.engine.majorization_property.self_ms": (
        "verify.engine.majorization_property.trials",
        "trials/op",
    ),
    "exactpoly.poly_step.self_ms": ("exactpoly.poly_step.calls", "steps/op"),
}


def report_lines(name: str, trace: bool, run: dict, metrics: dict) -> list[str]:
    lines = [f"== {name} ({'traced' if trace else 'untraced'}) =="]
    lines.append(work_line(name, run))
    if not trace:
        raw = run["raw"]
        lines.append(f"samples: {run['samples']} ops; times are medians")
        lines.append(
            f"speed: reference loop {raw['loop_ref_ms']:.4g} ms during the loop, "
            f"{raw['setup_ref_ms']:.4g} ms around set-up, nominal "
            f"{1e3 * workloads.REF_NOMINAL_S:.4g} ms; times below but p99 are scaled to nominal"
        )
        lines.append(
            "raw: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items() if "ref" not in k)
        )
    for metric, (value, unit) in metrics.items():
        extra = ""
        if metric in WORK_BESIDE:
            key, label = WORK_BESIDE[metric]
            extra = f"   [{metrics[key][0]:.6g} {label}]"
        lines.append(f"{metric:52s} {value:16.6g} {unit}{extra}")
    rate = run["failed"] / run["attempted"]
    lines.append(f"{'error_rate':52s} {rate:16.6g} ({run['failed']}/{run['attempted']})")
    if "oracle_points" in run:
        lines.append(f"oracle: {run['oracle_points']} points at {workloads.ORACLE_DPS} digits")
    if trace:
        tr = run["trace"]
        overhead = metrics["trace.overhead_ms"][0]
        unattributed = metrics["trace.unattributed_ms"][0]
        lines.append(
            f"tracing overhead: {1e3 * (tr['traced_wall_s'] - tr['untraced_wall_s']):.1f} ms "
            f"over {tr['ops']} ops (untraced {tr['untraced_wall_s']:.3f} s, "
            f"traced {tr['traced_wall_s']:.3f} s); span dump: {run['dump']}"
        )
        lines.append(
            f"self times sum to {tr['root_ns'] / 1e6 / tr['ops']:.6g} ms/op of "
            f"{1e3 * tr['traced_wall_s'] / tr['ops']:.6g} ms/op traced wall; the "
            f"{unattributed:.3g} ms/op left over is "
            f"{'within' if abs(unattributed) <= abs(overhead) else 'OUTSIDE'} "
            f"the {abs(overhead):.3g} ms/op tracing overhead"
        )
    lines += [f"note: {n.strip()}" for n in run["notes"]]
    return lines


def check_against_spec(metrics: dict, trace: bool) -> None:
    """The metrics must be exactly those BENCHMARK.json lists, same units."""
    spec = json.loads(SPEC.read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if wanted != got:
        raise BenchError(
            "metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))}, "
            f"units {sorted(k for k in wanted.keys() & got.keys() if wanted[k] != got[k])}"
        )


def run_workload(name: str, ctx: Context, trace: bool) -> tuple[dict, dict]:
    run = exact_cold(ctx, trace) if name == "exact-cold" else in_process(name, ctx, trace)
    metrics = layer_metrics(run) if trace else run["metrics"]
    check_against_spec(metrics, trace)
    return run, metrics


def result_line(attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default="auto",
        help="SINCSUM_BACKEND for the worker processes (default: auto)",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "sincsum" / "__init__.py").is_file():
        print(f"error: no sincsum sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (False, True) if args.trace is None else (bool(args.trace),)
    results = {}
    attempted = failed = 0
    combined = {}
    try:
        for name in names:
            for trace in modes:
                ctx = Context(args.seed, args.seconds, args.backend)
                run, metrics = run_workload(name, ctx, trace)
                env = environment(args.seed, args.backend, run["backend"])
                for line in report_lines(name, trace, run, metrics):
                    print(line)
                print("env " + json.dumps(env, sort_keys=True), flush=True)
                key = f"{name}/{'traced' if trace else 'untraced'}"
                results[key] = {
                    "env": env,
                    "raw": run.get("raw"),
                    "attempted": run["attempted"],
                    "failed": run["failed"],
                    "notes": run["notes"],
                    "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                }
                attempted += run["attempted"]
                failed += run["failed"]
                combined.update({f"{key}/{k}": vu for k, vu in metrics.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stem = "results" if len(results) > 1 else "result-" + next(iter(results)).replace("/", "-")
    (OUT / f"{stem}.json").write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(result_line(attempted, failed, metrics if len(results) == 1 else combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
