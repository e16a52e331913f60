"""One benchmark process: imports sincsum fresh and runs one job.

``run.py`` starts it as ``python worker.py '<json request>'`` and reads the
last line of its standard output, one JSON object.  Jobs:

- ``setup``: import (and warm up) as the workload does, print ``ready``.
- ``loop``: the timed closed loop of verify-default or eval-stream, one
  caller, no extra threads, tracing off, for ``seconds``.
- ``trace``: whole passes over the workload's ops with tracing off for
  about ``seconds / 2``, then the same passes with tracing on.
- ``cold``: one exact-cold op, traced or not.
- ``kernels``: the scalar kernels at fixed arguments.
"""

import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

import workloads
from tracer import ROOT_SPAN, Tracer

#: Latency ring of a fixed 8 MB, so peak RSS does not grow with the op count.
RING = 1 << 20

#: Spans written to the dump file, at most.
DUMP_LIMIT = 100_000

#: Failure messages kept for the report, at most.
MAX_ERRORS = 5

#: Reference-loop samples an exact-cold op takes before and after its build.
COLD_REF_SAMPLES = 8


def import_sincsum(src: str):
    sys.path.insert(0, src)
    import sincsum

    where = Path(sincsum.__file__).resolve().parent
    if where != Path(src, "sincsum").resolve():
        raise SystemExit(f"imported sincsum from {where}, not from {src}")
    return sincsum


def warm_up_eval(pkg) -> None:
    """Build the polynomials the stream needs, as a long-lived caller would."""
    cfg = pkg.EvalConfig(target_tol=workloads.EVAL_TOL)
    for r in workloads.STREAM_INT_R:
        pkg.evaluate(pkg.EvalPoint(float(r), 0.3), cfg)


def max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class VerifyJob:
    """verify-default: ``sincsum verify`` with default flags, in process."""

    def __init__(self, pkg, req):
        import sincsum.cli

        self.items = [None]
        self.out = Path(req["out"], f"verify-{os.getpid()}.json")
        argv = ["verify", "--seed", str(req["seed"]), "--output", str(self.out)]
        cli = sincsum.cli
        # Looked up on each call, so a traced ``cli.main`` is the one called.
        self.op = lambda _item: cli.main(argv)
        self.reference = None
        self.work = {}

    def before(self) -> None:
        self.out.unlink(missing_ok=True)

    def after(self, i, item, rc) -> list[str]:
        """Problems with one op's report; the first report is the reference."""
        try:
            data = self.out.read_bytes()
        except FileNotFoundError:
            return [f"exit code {rc}, no report written"]
        digest = hashlib.sha256(data).hexdigest()
        report = json.loads(data)
        if self.reference is None:
            self.reference = digest
            self.work = {
                "checks": len(report["checks"]),
                "boxes": sum(c["boxes_visited"] or 0 for c in report["checks"]),
                "grid": report["grid"],
                "trials": report["trials"],
            }
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}")
        checks = report["checks"]
        if len(checks) != workloads.VERIFY_CHECKS:
            problems.append(f"{len(checks)} checks, expected {workloads.VERIFY_CHECKS}")
        problems += [
            f"{c['check_id']} is {c['status']}"
            for c in checks
            if c["status"] not in ("certified", "passed")
        ]
        if digest != self.reference:
            problems.append("report bytes differ from the first op's")
        return problems

    def finish(self) -> dict:
        self.out.unlink(missing_ok=True)
        return {"work": self.work}


class EvalJob:
    """eval-stream: consensus ``evaluate`` over the seeded point stream."""

    def __init__(self, pkg, req):
        self.items = workloads.eval_stream(req["seed"])
        self.oracle = workloads.oracle_indices(req["seed"])
        tol = workloads.EVAL_TOL
        # Package attributes are looked up on each call, so traced ones are used.
        self.op = lambda item: pkg.evaluate(
            pkg.EvalPoint(item[0], item[1]), pkg.EvalConfig(target_tol=tol)
        )
        self.runs = []
        self.new_record()
        warm_up_eval(pkg)

    def new_record(self) -> None:
        """Start recording first-pass outputs afresh (one record per pass kind)."""
        n = len(self.items)
        self.value = array("d", [math.nan]) * n
        self.bound = array("d", [math.nan]) * n
        self.runs.append((self.value, self.bound))

    def before(self) -> None:
        pass

    def after(self, i, item, res) -> list[str]:
        if i < len(self.value):
            self.value[i] = res.value
            self.bound[i] = math.nan if res.tail_bound is None else res.tail_bound
        return []

    def finish(self) -> dict:
        value, bound = self.runs[-1]
        mismatches = 0
        if len(self.runs) > 1:
            first = self.runs[0][0]
            mismatches = sum(
                1
                for a, b in zip(first, value)
                if a != b and not (math.isnan(a) and math.isnan(b))
            )
        return {
            "work": {
                "points": len(self.items),
                "integer_r": sum(1 for r, _ in self.items if r == int(r)),
            },
            "oracle": [[k, *self.items[k], value[k], bound[k]] for k in self.oracle],
            "trace_mismatches": mismatches,
        }


JOBS = {"verify-default": VerifyJob, "eval-stream": EvalJob}


class Failures:
    def __init__(self):
        self.count = 0
        self.messages: list[str] = []

    def add(self, message: str) -> None:
        self.count += 1
        if len(self.messages) < MAX_ERRORS:
            self.messages.append(message)


def run_one(job, op, i, item, failures: Failures, clock):
    """Run one op; return its latency.  Exceptions count as failures."""
    job.before()
    t0 = clock()
    try:
        out = op(item)
    except Exception:
        t1 = clock()
        failures.add(traceback.format_exc(limit=3))
        return t1 - t0
    t1 = clock()
    problems = job.after(i, item, out)
    if problems:
        failures.add(f"op {i}: " + "; ".join(problems))
    return t1 - t0


def loop(pkg, req) -> dict:
    """Timed closed loop over the items, cyclically, for ``seconds``.

    Every REF_INTERVAL the loop pauses for a burst of reference-loop
    samples, left out of the timing, and scales the ops since the previous
    burst by the speed it measures.
    """
    job = JOBS[req["workload"]](pkg, req)
    items, n = job.items, len(job.items)
    mask = RING - 1
    lat = array("d", [0.0]) * RING
    scaled = array("d", [0.0]) * RING
    failures = Failures()
    gauge = workloads.SpeedGauge()
    clock = time.perf_counter
    i = chunk_first = 0
    wall = scaled_wall = 0.0
    t_chunk = clock()
    deadline = t_chunk + req["seconds"]
    while True:
        lat[i & mask] = run_one(job, job.op, i, items[i % n], failures, clock)
        i += 1
        now = clock()
        if now - t_chunk >= workloads.REF_INTERVAL or now >= deadline:
            scale = workloads.REF_NOMINAL_S / gauge.burst(now - t_chunk)
            wall += now - t_chunk
            scaled_wall += (now - t_chunk) * scale
            for k in range(chunk_first, i):
                scaled[k & mask] = lat[k & mask] * scale
            chunk_first = i
            if now >= deadline:
                break
            t_chunk = clock()
    rss = max_rss_kb()  # before the statistics below allocate
    count = min(i, RING)
    raw = sorted(lat[:count])
    return {
        "ops": i,
        "failed": failures.count,
        "errors": failures.messages,
        "wall_s": wall,
        "scaled_wall_s": scaled_wall,
        "p50_ms": 1e3 * statistics.median(raw),
        "p50_scaled_ms": 1e3 * statistics.median(scaled[:count]),
        "p99_ms": 1e3 * workloads.percentile99(raw),
        "max_rss_kb": rss,
        "ref_s": statistics.median(gauge.samples),
        "backend": pkg.BACKEND,
        **job.finish(),
    }


def passes(job, op, reps: int, failures: Failures) -> float:
    clock = time.perf_counter
    t_begin = clock()
    for _ in range(reps):
        for i, item in enumerate(job.items):
            run_one(job, op, i, item, failures, clock)
    return clock() - t_begin


def trace(pkg, req) -> dict:
    """Untraced passes for about seconds/2, then as many traced passes."""
    job = JOBS[req["workload"]](pkg, req)
    failures = Failures()
    reps = 0
    untraced = 0.0
    while reps == 0 or untraced < 0.5 * req["seconds"]:
        untraced += passes(job, job.op, 1, failures)
        reps += 1

    if isinstance(job, EvalJob):
        job.new_record()
    tracer = Tracer()
    tracer.install()
    traced = passes(job, tracer.wrap(ROOT_SPAN, job.op), reps, failures)
    if req.get("dump"):
        tracer.dump(req["dump"], DUMP_LIMIT)
    return {
        "ops": reps * len(job.items),
        "failed": failures.count,
        "errors": failures.messages,
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "backend": pkg.BACKEND,
        **tracer.aggregate(),
        **job.finish(),
    }


def cold(pkg, req) -> dict:
    """One exact-cold op: P_r and the exact minimum constant for every r."""
    tracer = None
    if req["trace"]:
        tracer = Tracer()
        tracer.install()
    order = workloads.exact_order(req["seed"])

    def build() -> int:
        return sum(
            1 for r in order if pkg.poly_f(r).coeffs[0] != pkg.exact_min_constant(r)
        )

    op = build if tracer is None else tracer.wrap(ROOT_SPAN, build)
    t_gauge = time.perf_counter()
    gauge = workloads.SpeedGauge(warm=10)
    warm_s = time.perf_counter() - t_gauge
    gauge.sample(COLD_REF_SAMPLES)
    t0 = time.perf_counter()
    error = None
    try:
        mismatches = op()
    except Exception:
        mismatches = None
        error = traceback.format_exc(limit=3)
    t1 = time.perf_counter()
    gauge.sample(COLD_REF_SAMPLES)
    result = {
        "op_s": t1 - t0,
        "mismatches": mismatches,
        "error": error,
        "max_rss_kb": max_rss_kb(),
        "ref_samples": gauge.samples,
        "gauge_s": warm_s + gauge.spent,
        "backend": pkg.BACKEND,
    }
    if tracer is not None:
        if req.get("dump"):
            tracer.dump(req["dump"], DUMP_LIMIT)
        result.update(tracer.aggregate())
    return result


#: Kernel cases at fixed arguments: (metric, kernel calls per case, case).
KERNEL_CASES = (
    ("backend.sinc.us_per_call", 1000, lambda k: [k.sinc(0.001 * i) for i in range(1000)]),
    ("backend.zeta_em.s2.us_per_call", 1, lambda k: k.zeta_em(2.0, 1.3)),
    ("backend.zeta_em.s17.us_per_call", 1, lambda k: k.zeta_em(17.0, 0.2)),
    ("backend.power_sum_fixed.r1.us_per_call", 1, lambda k: k.power_sum_fixed(1.0, 0.3, 16)),
    ("backend.power_sum_fixed.r8.us_per_call", 1, lambda k: k.power_sum_fixed(8.0, 0.3, 16)),
    ("backend.power_sum_zeta.us_per_call", 1, lambda k: k.power_sum_zeta(2.0, 0.3)),
    ("backend.power_sum_deriv.us_per_call", 1, lambda k: k.power_sum_deriv(2.0, 0.3)),
    (
        "backend.grid_sweep.us_per_point",
        3 * 512,
        lambda k: [
            (k.power_sum_fixed(r, i / 511.0, 16), k.power_sum_zeta(r, i / 511.0))
            for r in (1.0, 2.0, 5.0)
            for i in range(512)
        ],
    ),
)


def kernels(pkg, req) -> dict:
    """Median time per kernel call over 15 samples of at least 2 ms each."""
    from sincsum import backend

    clock = time.perf_counter
    out = {}
    for name, per_case, case in KERNEL_CASES:
        t0 = clock()
        case(backend)
        loops = max(1, int(2e-3 / max(clock() - t0, 1e-9)))
        samples = []
        for _ in range(15):
            t0 = clock()
            for _ in range(loops):
                case(backend)
            samples.append((clock() - t0) / (loops * per_case))
        out[name] = 1e6 * statistics.median(samples)
    return {"kernels": out, "backend": pkg.BACKEND}


def setup(pkg, req) -> dict:
    if req["workload"] == "verify-default":
        import sincsum.cli  # noqa: F401  (the CLI entry point verify runs through)
    elif req["workload"] == "eval-stream":
        warm_up_eval(pkg)
    print("ready", flush=True)
    return {}


MODES = {"setup": setup, "loop": loop, "trace": trace, "cold": cold, "kernels": kernels}


def main() -> None:
    req = json.loads(sys.argv[1])
    pkg = import_sincsum(req["src"])
    result = MODES[req["mode"]](pkg, req)
    if req["mode"] != "setup":
        print(json.dumps(result))


if __name__ == "__main__":
    main()
