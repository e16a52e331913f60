"""Assembly of the full verification suite into a serializable report.

One CheckResult per check, sorted by check id so reports are canonical
regardless of execution order.  Wall times are measured but only included
in serialized output on request, keeping default output bytes identical
across runs for fixed flags and seed.

The majorization check shares no state with the others, so where
``os.fork`` exists and the caller runs a single thread, it runs in a forked
child beside the corpus, grid, proof-chain and manifest checks and sends
its result back through a pipe.  Otherwise it runs in-process.  The report
bytes are the same either way.  One helper, ``_row``, runs and times each
check and makes it a CheckResult, in the child too, so under ``--timings``
the times can add up to more than the run's wall time.
"""

import math
import time
from dataclasses import astuple, dataclass

from ..core import _check_index
from .certify import certify
from .corpus import corpus, quartic_coefficient_margin
from .engine import (
    _check_grid,
    _check_trials,
    majorization_property,
    proof_chain,
    verify_global_min,
)

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
    witness: float | None = None
    boxes_visited: int | None = None
    wall_time_ms: float | None = None
    #: why a check failed, in words, for stderr; not part of the report
    detail: str | None = None

    def to_json_dict(self, include_timings: bool = False) -> dict:
        return {
            "check_id": self.check_id,
            "status": self.status,
            "worst_margin": self.worst_margin,
            "witness": self.witness,
            "boxes_visited": self.boxes_visited,
            "wall_time_ms": self.wall_time_ms if include_timings else None,
        }


@dataclass(frozen=True)
class SuiteConfig:
    grid: int = 1024
    seed: int = 0
    trials: int = 100_000

    def __post_init__(self):
        # the checks' own rules, so a bad flag fails before any check runs
        _check_trials(self.trials)
        _check_grid(self.grid)
        _check_index(self.seed, "seed", 0)


def _finite_or_none(v) -> float | None:
    if v is None:
        return None
    return v if math.isfinite(v) else None


def _row(check_id: str, check, *args) -> CheckResult:
    """Run ``check(*args)`` and make its outcome a report row, timed with it.

    ``check`` returns (status, worst_margin, witness, boxes_visited, detail);
    a non-finite margin is reported as None.  The check functions, one per
    family of rows, look their engine function up in this module's globals
    at each call, so that it can be patched or traced.
    """
    t0 = time.perf_counter()
    status, margin, witness, boxes, detail = check(*args)
    return CheckResult(
        check_id, status, _finite_or_none(margin), witness, boxes,
        1e3 * (time.perf_counter() - t0), detail,
    )


def _verdict(ok: bool) -> str:
    return "passed" if ok else "failed"


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
    majorization = ("majorization_random_instances", _majorization, cfg)
    child = _fork_call(lambda: astuple(_row(*majorization)))
    try:
        results = _other_checks(cfg)
    except BaseException:
        if child is not None:
            pid, pipe = child
            pipe.close()
            _kill_child(pid)
        raise
    if child is None:
        results.append(_row(*majorization))
    else:
        results.append(CheckResult(*_child_result(*child)))
    results.sort(key=lambda c: c.check_id)
    return results


def _other_checks(cfg: SuiteConfig) -> list[CheckResult]:
    """Every check but the majorization one."""
    return [
        *(_row(f"corpus_{entry.id}", _certified, entry) for entry in corpus()),
        _row("const_quartic_coefficient_margin", _quartic),
        *(_row(f"globalmin_r{r:.6g}", _global_min, r, cfg.grid) for r in GLOBAL_MIN_R),
        *(_row(f"proofchain_r{r:.6g}", _proof_chain, r) for r in PROOF_CHAIN_R),
        _row("manifest_corpus_match", _manifest),
    ]


def _majorization(cfg: SuiteConfig):
    maj = majorization_property(cfg.trials, cfg.seed)
    return _verdict(maj.violations == 0), maj.min_margin, None, None, None


def _certified(entry):
    out = certify(entry)
    return out.status, out.worst_margin, out.witness, out.boxes_visited, None


def _quartic():
    margin = quartic_coefficient_margin()
    ok = margin > -2.0 and abs(margin - QUARTIC_MARGIN_REF) <= 1e-6
    return _verdict(ok), margin - (-2.0), None if ok else margin, None, None


def _global_min(r: float, grid: int):
    rep = verify_global_min(r, grid_n=grid)
    witness = rep.worst_x if rep.status == "failed" else None
    return rep.status, rep.worst_margin, witness, None, None


def _proof_chain(r: float):
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
    return _verdict(ok), worst, None if ok else worst_x, None, None


def _manifest():
    # deferred import: manifest loading needs the corpus registry, which
    # lives beside this module
    from ..manifest import load_default_manifest, manifest_check

    man = manifest_check(load_default_manifest())
    detail = None if man.passed else man.diff + "".join(
        f"{line}\n" for line in man.equality_failures
    )
    return _verdict(man.passed), man.equality_worst, None, None, detail
