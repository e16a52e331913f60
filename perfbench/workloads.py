"""Workload definitions shared by run.py and worker.py.

Inputs are pure functions of the benchmark seed.  String seeds are hashed
with SHA-512 by ``random.Random``, so the streams do not depend on the
interpreter's hash randomization.
"""

import math
import random
import statistics
import time

#: Workload names, in the order ``--workload all`` runs them.
WORKLOADS = ("verify-default", "eval-stream", "exact-cold")

#: Checks in the default ``sincsum verify`` report.
VERIFY_CHECKS = 52

#: Tolerance requested by every eval-stream op.
EVAL_TOL = 1e-10

#: Points in the eval-stream input; the timed loop cycles over them.
STREAM_LEN = 1 << 14

#: Points of the first pass checked against the mpmath oracle.
ORACLE_POINTS = 256

#: Digits the oracle works at.
ORACLE_DPS = 40

#: exact-cold builds P_r and the exact minimum constant for r = 1..EXACT_R_MAX.
EXACT_R_MAX = 100

#: Integer exponents whose polynomials the eval-stream warm-up builds.
STREAM_INT_R = range(1, 17)

_R_LO, _R_HI = 0.55, 160.0
_NEAR = 1e-3


def eval_stream(seed: int) -> list[tuple[float, float]]:
    """The eval-stream points (r, x).

    A quarter of the points have integer r in [1, 16], so the exact
    polynomial route runs as well; the rest have log-uniform r in
    [0.55, 160], which covers the figure's 1.02^k up to 1.02^256.  Half
    the x values are uniform on [0, 1); the other half lie within 1e-3 of
    0, 1/2 or 1, an eighth of those exactly on the anchor.
    """
    rng = random.Random(f"eval-stream/{seed}")
    log_lo, log_hi = math.log(_R_LO), math.log(_R_HI)
    points = []
    for _ in range(STREAM_LEN):
        if rng.random() < 0.25:
            r = float(rng.choice(STREAM_INT_R))
        else:
            r = math.exp(rng.uniform(log_lo, log_hi))
        if rng.random() < 0.5:
            x = rng.random()
        else:
            anchor = rng.choice((0.0, 0.5, 1.0))
            d = 0.0 if rng.random() < 0.125 else rng.uniform(0.0, _NEAR)
            if anchor == 0.0:
                x = d
            elif anchor == 1.0:
                x = 1.0 - d
            else:
                x = anchor + rng.choice((-d, d))
        points.append((r, x))
    return points


def oracle_indices(seed: int) -> list[int]:
    """Positions in the eval stream whose values are checked against mpmath."""
    rng = random.Random(f"oracle/{seed}")
    return sorted(rng.sample(range(STREAM_LEN), ORACLE_POINTS))


def exact_order(seed: int) -> list[int]:
    """Order in which exact-cold visits r = 1..EXACT_R_MAX.

    Every order does the same total work, because both exact caches fill up
    to the largest r requested so far.
    """
    order = list(range(1, EXACT_R_MAX + 1))
    random.Random(f"exact-cold/{seed}").shuffle(order)
    return order


def percentile99(sorted_samples: list[float]) -> float:
    """The 99th percentile, by linear interpolation between samples."""
    if len(sorted_samples) < 2:
        return sorted_samples[0]
    return statistics.quantiles(sorted_samples, n=100, method="inclusive")[98]


#: Seconds of timed work between two bursts of reference-loop samples.
REF_INTERVAL = 0.5

#: Reference-loop samples in one burst: one per REF_INTERVAL elapsed,
#: clamped to this range.
REF_BURST = (3, 8)

#: Time of reference_work() that defines the reference speed: the fast end
#: of what it took on the 2-CPU Xeon (2.1 GHz) machine the bounds were set
#: on (typical 1.8-2.7 ms), so scaled times rarely exceed raw ones.
REF_NOMINAL_S = 1.5e-3

_BIG = 3**700


def reference_work() -> int:
    """Fixed pure-Python work, independent of sincsum, that gauges machine speed.

    It mixes interpreted float arithmetic and big-integer products, the two
    kinds of work the workloads do.
    """
    acc = 0.0
    for i in range(1, 14000):
        acc += math.sqrt(i) % 3.0
    n = int(acc)
    for i in range(120):
        n += (_BIG * (_BIG + i)) % 1000003
    return n


class SpeedGauge:
    """Times reference_work() throughout a measurement.

    A shared machine runs faster or slower by tens of percent, for seconds
    to minutes at a time.  A time multiplied by ``REF_NOMINAL_S / reference
    time`` measured right after it is what it would have been at the
    reference speed, so runs made at different moments compare.  ``spent``
    is the time the samples took, which callers leave out of timed loops.
    """

    def __init__(self, warm: int = 20):
        for _ in range(warm):
            reference_work()
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, n: int) -> None:
        clock = time.perf_counter
        for _ in range(n):
            t0 = clock()
            reference_work()
            t1 = clock()
            self.samples.append(t1 - t0)
            self.spent += t1 - t0

    def burst(self, elapsed: float) -> float:
        """Sample after ``elapsed`` seconds of work; the burst's median time."""
        lo, hi = REF_BURST
        first = len(self.samples)
        self.sample(min(max(int(elapsed / REF_INTERVAL), lo), hi))
        return statistics.median(self.samples[first:])
