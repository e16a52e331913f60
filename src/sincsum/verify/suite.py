"""Assembly of the full verification suite into a serializable report.

One CheckResult per check, sorted by check id so reports are canonical
regardless of execution order.  Wall times are measured but only included
in serialized output on request, keeping default output bytes identical
across runs for fixed flags and seed.

The majorization check shares no state with the others, so where
``os.fork`` exists and the caller runs a single thread, it runs in a forked
child beside the corpus, grid, proof-chain and manifest checks and sends
its result back through a pipe.  Otherwise it runs in-process.  The report
bytes are the same either way.  Each check times itself, so under
``--timings`` the times can add up to more than the run's wall time.
"""

import math
import time
from dataclasses import astuple, dataclass

from ..errors import DomainError
from .certify import MAX_DEPTH_CAP, certify
from .corpus import corpus, quartic_coefficient_margin
from .engine import MIN_GRID_N, majorization_property, proof_chain, verify_global_min

#: Exponent parameters exercised by the global-minimum suite.
GLOBAL_MIN_R = (1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 8.0, 1.02**256)

#: Exponents and points exercised by the proof-chain suite.
PROOF_CHAIN_R = (1.0, 1.5, 2.0, 4.0)
PROOF_CHAIN_X = tuple(round(0.05 * i, 2) for i in range(1, 20))

#: Frozen reference for the scalar coefficient-margin check.
QUARTIC_MARGIN_REF = -1.9537471


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    status: str  # certified | passed | failed | violated | inconclusive
    worst_margin: float | None
    witness: float | None
    boxes_visited: int | None
    wall_time_ms: float | None

    def to_json_dict(self, include_timings: bool = False) -> dict:
        return {
            "check_id": self.check_id,
            "status": self.status,
            "worst_margin": self.worst_margin,
            "witness": self.witness,
            "boxes_visited": self.boxes_visited,
            "wall_time_ms": self.wall_time_ms if include_timings else None,
        }

    @property
    def ok(self) -> bool:
        return self.status in ("certified", "passed")


@dataclass(frozen=True)
class SuiteConfig:
    grid: int = 1024
    tol: float = 1e-10
    seed: int = 0
    trials: int = 100_000
    max_depth: int = 40

    def __post_init__(self):
        # checked here so a bad flag fails before any check runs
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if self.grid < MIN_GRID_N:
            raise DomainError(f"grid_n must be >= {MIN_GRID_N}, got {self.grid}")
        if not (self.tol > 0.0):
            raise DomainError(f"tol must be positive, got {self.tol}")
        if not 1 <= self.max_depth <= MAX_DEPTH_CAP:
            raise DomainError(
                f"max_depth must be in [1, {MAX_DEPTH_CAP}], got {self.max_depth}"
            )


def _finite_or_none(v) -> float | None:
    if v is None:
        return None
    return v if math.isfinite(v) else None


def _majorization_check(cfg: SuiteConfig) -> CheckResult:
    t0 = time.perf_counter()
    maj = majorization_property(cfg.trials, cfg.seed)
    return CheckResult(
        check_id="majorization_random_instances",
        status="passed" if maj.violations == 0 else "failed",
        worst_margin=_finite_or_none(maj.min_margin),
        witness=None,
        boxes_visited=None,
        wall_time_ms=1e3 * (time.perf_counter() - t0),
    )


def _fork_call(fn):
    """Start ``fn()`` in a forked child; return its pid and the read end of
    its pipe, opened as a binary file.

    The child writes into the pipe ``fn()``'s value, which must be
    marshal-able, or else the exception it raised, pickled, and leaves
    through ``os._exit``, so it never returns into the caller's code nor
    flushes the parent's stdio buffers.  marshal is always loaded; pickle
    is imported only to carry an exception, since importing it adds about
    0.3 MB to the parent's peak RSS.  Returns None, and the caller runs
    ``fn`` itself, where ``os.fork`` is missing or fails, or where other
    threads are alive: one of them may hold a lock that the child would
    then wait on forever.
    """
    import marshal
    import os
    import threading

    if not hasattr(os, "fork") or threading.active_count() > 1:
        return None

    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            try:
                data = b"v" + marshal.dumps(fn())
            except BaseException as exc:  # re-raised by the parent
                import pickle

                data = b"e" + pickle.dumps(exc)
            view = memoryview(data)
            while view:
                view = view[os.write(wfd, view) :]
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    return pid, open(rfd, "rb")


def _kill_child(pid: int) -> None:
    import os
    import signal

    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


def _child_result(pid: int, pipe):
    """Read the child's outcome to EOF, reap the child, return or re-raise it.

    Closes ``pipe``.  If reading is interrupted, the child is killed and
    reaped before the interruption propagates.
    """
    import marshal
    import os

    with pipe:
        try:
            data = pipe.read()
        except BaseException:
            _kill_child(pid)
            raise
    _, status = os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(
            f"forked check exited with status {os.waitstatus_to_exitcode(status)} "
            "and sent no result"
        )
    if data[:1] == b"v":
        return marshal.loads(data[1:])
    import pickle

    raise pickle.loads(data[1:])


def run_suite(cfg: SuiteConfig = SuiteConfig()) -> list[CheckResult]:
    """Run every check and return results sorted by check id."""
    child = _fork_call(lambda: astuple(_majorization_check(cfg)))
    try:
        results = _other_checks(cfg)
    except BaseException:
        if child is not None:
            pid, pipe = child
            pipe.close()
            _kill_child(pid)
        raise
    if child is None:
        results.append(_majorization_check(cfg))
    else:
        results.append(CheckResult(*_child_result(*child)))
    results.sort(key=lambda c: c.check_id)
    return results


def _other_checks(cfg: SuiteConfig) -> list[CheckResult]:
    """Every check but the majorization one."""
    # deferred import: manifest loading needs the corpus registry, which
    # lives beside this module
    from ..manifest import load_default_manifest, manifest_check

    results: list[CheckResult] = []

    for entry in corpus():
        t0 = time.perf_counter()
        out = certify(entry, max_depth=cfg.max_depth)
        results.append(
            CheckResult(
                check_id=f"corpus_{out.id}",
                status=out.status,
                worst_margin=_finite_or_none(out.worst_margin),
                witness=out.witness,
                boxes_visited=out.boxes_visited,
                wall_time_ms=1e3 * (time.perf_counter() - t0),
            )
        )

    t0 = time.perf_counter()
    margin_const = quartic_coefficient_margin()
    scalar_ok = margin_const > -2.0 and abs(margin_const - QUARTIC_MARGIN_REF) <= 1e-6
    results.append(
        CheckResult(
            check_id="const_quartic_coefficient_margin",
            status="passed" if scalar_ok else "failed",
            worst_margin=margin_const - (-2.0),
            witness=None if scalar_ok else margin_const,
            boxes_visited=None,
            wall_time_ms=1e3 * (time.perf_counter() - t0),
        )
    )

    for r in GLOBAL_MIN_R:
        t0 = time.perf_counter()
        rep = verify_global_min(r, grid_n=cfg.grid, tol=cfg.tol)
        results.append(
            CheckResult(
                check_id=f"globalmin_r{rep.r:.6g}",
                status=rep.status,
                worst_margin=_finite_or_none(rep.worst_margin),
                witness=rep.worst_x if rep.status == "failed" else None,
                boxes_visited=None,
                wall_time_ms=1e3 * (time.perf_counter() - t0),
            )
        )

    for r in PROOF_CHAIN_R:
        t0 = time.perf_counter()
        worst = math.inf
        worst_x = None
        ok = True
        for x in PROOF_CHAIN_X:
            w = proof_chain(r, x)
            low = min(w.margins.values())
            if low < worst:
                worst = low
                worst_x = x
            ok = ok and w.passed
        results.append(
            CheckResult(
                check_id=f"proofchain_r{r:.6g}",
                status="passed" if ok else "failed",
                worst_margin=_finite_or_none(worst),
                witness=None if ok else worst_x,
                boxes_visited=None,
                wall_time_ms=1e3 * (time.perf_counter() - t0),
            )
        )

    t0 = time.perf_counter()
    man = manifest_check(load_default_manifest())
    results.append(
        CheckResult(
            check_id="manifest_corpus_match",
            status="passed" if man.passed else "failed",
            worst_margin=_finite_or_none(man.equality_worst),
            witness=None,
            boxes_visited=None,
            wall_time_ms=1e3 * (time.perf_counter() - t0),
        )
    )

    return results


def suite_exit_code(results: list[CheckResult]) -> int:
    """0 all ok, 1 any violated/failed, 2 any inconclusive."""
    if any(c.status in ("violated", "failed") for c in results):
        return 1
    if any(c.status == "inconclusive" for c in results):
        return 2
    return 0
