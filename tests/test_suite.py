"""The verification suite's majorization check, forked beside the others."""

import json
import math
import os
import signal
import threading
import time

import pytest

from helpers import run_cli
from sincsum import DomainError, PrecisionError, cli
from sincsum.verify import suite
from sincsum.verify.suite import SuiteConfig, run_suite

#: A small grid keeps the eight global-minimum checks cheap; the
#: majorization check is what these tests are about.
GRID = 64

FD_DIR = "/proc/self/fd"

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _fd_count() -> int:
    return len(os.listdir(FD_DIR))


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def fds_unchanged():
    if not os.path.isdir(FD_DIR):
        pytest.skip(f"{FD_DIR} is absent")
    before = _fd_count()
    yield
    assert _fd_count() == before


def _report(results):
    return [c.to_json_dict() for c in results]


@pytest.mark.parametrize("seed, trials", [(0, 100_000), (7, 12345), (42, 1)])
def test_forked_report_equals_in_process(monkeypatch, fds_unchanged, seed, trials):
    cfg = SuiteConfig(grid=GRID, seed=seed, trials=trials)
    forked = _report(run_suite(cfg))
    with monkeypatch.context() as m:
        m.delattr(os, "fork")  # in-process
        assert _report(run_suite(cfg)) == forked
    ids = [c["check_id"] for c in forked]
    assert ids == sorted(ids) and "majorization_random_instances" in ids


def test_check_runs_in_a_child(monkeypatch, fds_unchanged):
    pids = []
    real = suite.majorization_property

    def recording(trials, seed):
        pids.append(os.getpid())
        return real(trials, seed)

    monkeypatch.setattr(suite, "majorization_property", recording)
    run_suite(SuiteConfig(grid=GRID, trials=10))
    assert pids == []  # recorded in the child's copy of the list
    monkeypatch.delattr(os, "fork")
    run_suite(SuiteConfig(grid=GRID, trials=10))
    assert pids == [os.getpid()]


@pytest.mark.parametrize(
    "exc_type, code", [(RuntimeError, cli.EXIT_INTERNAL), (DomainError, cli.EXIT_DOMAIN)]
)
def test_child_exception_is_reraised(monkeypatch, fds_unchanged, exc_type, code):
    parent = os.getpid()

    def broken(trials, seed):
        raise exc_type(f"broken in {'parent' if os.getpid() == parent else 'child'}")

    monkeypatch.setattr(suite, "majorization_property", broken)
    with pytest.raises(exc_type) as info:
        run_suite(SuiteConfig(grid=GRID, trials=10))
    assert type(info.value) is exc_type
    assert str(info.value) == "broken in child"
    rc, out, err = run_cli(["verify", "--grid", str(GRID), "--trials", "10"])
    assert rc == code
    assert out == ""
    prefix = "internal: RuntimeError: " if exc_type is RuntimeError else ""
    assert err == f"error: {prefix}broken in child\n"


def test_child_exception_keeps_its_attributes(monkeypatch, fds_unchanged):
    def broken(trials, seed):
        raise PrecisionError("unreachable", achieved_bound=1.5e-9)

    monkeypatch.setattr(suite, "majorization_property", broken)
    with pytest.raises(PrecisionError, match="^unreachable$") as info:
        run_suite(SuiteConfig(grid=GRID, trials=10))
    assert info.value.achieved_bound == 1.5e-9


def test_child_dying_without_result_names_its_status(monkeypatch, fds_unchanged):
    parent = os.getpid()

    def dies(trials, seed):
        if os.getpid() == parent:
            raise AssertionError("the check ran in-process")
        os._exit(3)

    monkeypatch.setattr(suite, "majorization_property", dies)
    with pytest.raises(RuntimeError, match="exited with status 3 and sent no result"):
        run_suite(SuiteConfig(grid=GRID, trials=10))
    rc, out, err = run_cli(["verify", "--grid", str(GRID), "--trials", "10"])
    assert rc == cli.EXIT_INTERNAL
    assert out == ""
    assert "exited with status 3" in err


@pytest.mark.parametrize("exc_type", [RuntimeError, KeyboardInterrupt])
def test_parent_failure_kills_and_reaps_child(monkeypatch, fds_unchanged, exc_type):
    def broken(*args, **kwargs):
        raise exc_type("grid failed")

    monkeypatch.setattr(suite, "verify_global_min", broken)
    with pytest.raises(exc_type, match="grid failed"):
        run_suite(SuiteConfig(grid=GRID))  # 10^5 trials: the child is still running


def test_interrupted_wait_kills_and_reaps_child(monkeypatch, fds_unchanged):
    class Interrupted(Exception):
        pass

    def alarm(signum, frame):
        raise Interrupted

    def arm_alarm(cfg):
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        return []

    monkeypatch.setattr(suite, "majorization_property", lambda trials, seed: time.sleep(60))
    monkeypatch.setattr(suite, "_other_checks", arm_alarm)
    previous = signal.signal(signal.SIGALRM, alarm)
    try:
        t0 = time.monotonic()
        with pytest.raises(Interrupted):
            run_suite(SuiteConfig(grid=GRID))
        assert time.monotonic() - t0 < 30.0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_fork_oserror_runs_in_process(monkeypatch, fds_unchanged):
    cfg = SuiteConfig(grid=GRID, trials=500, seed=3)
    forked = _report(run_suite(cfg))

    def refuse():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", refuse)
    assert _report(run_suite(cfg)) == forked


def test_other_thread_alive_means_no_fork(monkeypatch, fds_unchanged):
    cfg = SuiteConfig(grid=GRID, trials=500, seed=3)
    forked = _report(run_suite(cfg))

    def no_fork():
        pytest.fail("os.fork called while another thread was alive")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30.0,))
    thread.start()
    try:
        assert threading.active_count() > 1
        assert _report(run_suite(cfg)) == forked
    finally:
        release.set()
        thread.join(timeout=30.0)
    assert not thread.is_alive()


def test_timings_include_the_child_check(fds_unchanged):
    rc, out, _ = run_cli(["verify", "--grid", str(GRID), "--trials", "2000", "--timings"])
    assert rc == 0
    times = {c["check_id"]: c["wall_time_ms"] for c in json.loads(out)["checks"]}
    maj = times["majorization_random_instances"]
    assert math.isfinite(maj) and maj > 0.0
