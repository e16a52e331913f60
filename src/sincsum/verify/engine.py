"""Grid certification of the global minimum, the majorization property
test, and the numerical witness for the minimum proof chain.

All randomness is owned by explicit seeds and all grid loops call the
backend kernels directly, so reports are reproducible bit for bit on a
fixed platform.
"""

import math
import random
from dataclasses import dataclass, field
from itertools import repeat

from .. import backend, core
from ..core import DEFAULT_CONFIG, R_MAX, _check_index, _check_x, select_m_terms
from ..errors import DomainError, SizeLimitError
from .corpus import THRESHOLD

#: Absolute slack of the grid's value and derivative-sign tests; the verify
#: report states it as its "tol" header field.
GRID_TOL = 1e-10

#: Fixed bound on the derivative antisymmetry defect across the grid.
ANTISYM_TOL = 1e-9

#: Fewest grid points the global-minimum check accepts.
MIN_GRID_N = 16

#: Most trials the majorization check accepts.  At about 4 us a trial on the
#: pure backend the cap takes about 7 minutes; more are refused at once.
MAX_TRIALS = 10**8


def _check_r(r: float) -> float:
    """The engine's one exponent rule: 1 <= r <= R_MAX (nan and inf fail it);
    returns r as a float."""
    r = core._real(r, "r")
    if not 1.0 <= r <= R_MAX:
        raise DomainError(
            f"the minimum claim is checked for 1 <= r <= {R_MAX}, got {core._show(r)}"
        )
    return r


def _check_grid(grid_n: int) -> None:
    _check_index(grid_n, "grid_n", MIN_GRID_N)
    core.check_grid_cap(grid_n)


def _check_trials(trials: int) -> None:
    _check_index(trials, "trials", 1)
    if trials > MAX_TRIALS:
        raise SizeLimitError(f"{core._show(trials)} trials exceed cap {MAX_TRIALS}")


@dataclass(frozen=True)
class GlobalMinReport:
    """Outcome of the grid certification that S_r dips lowest at x = 1/2.

    ``min_value`` and ``worst_margin`` come from the direct route alone; the
    cross-route consensus is ``evaluate``'s, reported by ``sincsum eval``.
    """

    r: float
    grid_n: int
    status: str  # passed | failed | inconclusive
    min_value: float
    worst_margin: float
    worst_x: float | None
    deriv_worst: float
    antisym_worst: float
    note: str = ""


def verify_global_min(r: float, grid_n: int) -> GlobalMinReport:
    """Check S_r(x) >= S_r(1/2) - GRID_TOL on a uniform grid, plus sign and
    antisymmetry of the analytic derivative.

    Values come from the direct route at the default tolerance's M, the
    one route the verdict reads.  The derivative must be <= GRID_TOL left
    of 1/2 and >= -GRID_TOL right of it, and |S'(x) + S'(1-x)| stays below
    ANTISYM_TOL across the grid.  From r of about 825 on, S_r(1/2) and
    the grid values away from the ends underflow to 0.0, so every margin
    would be exactly 0; the report is inconclusive there.
    """
    r = _check_r(r)
    _check_grid(grid_n)
    m_terms = select_m_terms(r, DEFAULT_CONFIG.target_tol)
    center, _ = backend.power_sum_fixed(r, 0.5, m_terms)
    if center == 0.0:
        return GlobalMinReport(
            r=r,
            grid_n=grid_n,
            status="inconclusive",
            min_value=center,
            worst_margin=math.nan,
            worst_x=None,
            deriv_worst=math.nan,
            antisym_worst=math.nan,
            note=f"S_r(1/2) underflows to 0.0 at r = {r:g}; the grid cannot resolve the minimum",
        )

    worst = math.inf
    worst_x = None
    step = grid_n - 1
    for i in range(grid_n):
        x = i / step
        value, _ = backend.power_sum_fixed(r, x, m_terms)
        margin = value - center
        if margin < worst:
            worst = margin
            worst_x = x

    derivs = [0.0] * grid_n
    deriv_worst = 0.0
    for i in range(1, grid_n - 1):
        x = i / step
        d = backend.power_sum_deriv(r, x)
        derivs[i] = d
        if x < 0.5:
            deriv_worst = max(deriv_worst, d)
        elif x > 0.5:
            deriv_worst = max(deriv_worst, -d)
        else:
            deriv_worst = max(deriv_worst, abs(d))
    antisym_worst = 0.0
    for i in range(1, grid_n - 1):
        antisym_worst = max(antisym_worst, abs(derivs[i] + derivs[grid_n - 1 - i]))

    ok = worst >= -GRID_TOL and deriv_worst <= GRID_TOL and antisym_worst <= ANTISYM_TOL
    return GlobalMinReport(
        r=r,
        grid_n=grid_n,
        status="passed" if ok else "failed",
        min_value=center,
        worst_margin=worst,
        worst_x=worst_x,
        deriv_worst=deriv_worst,
        antisym_worst=antisym_worst,
    )


@dataclass(frozen=True)
class MajorizationReport:
    """Bulk randomized check of the convex-ordering sum inequality."""

    trials: int
    seed: int
    violations: int
    min_margin: float
    first_violation: tuple | None = None


def majorization_property(trials: int, seed: int) -> MajorizationReport:
    """Randomized instances of the threshold-ordered sum comparison.

    Instance construction guarantees the hypotheses: draw y in (0,2]^n,
    pick the threshold t as a random element of y (so the >= side is
    nonempty), shrink x below y on the < side, grow it above y on the
    >= side, then rescale the >= side so sum(x) >= sum(y).  For g drawn
    from {t^rho (rho >= 1), exp(t)-1, max(0, t-c)^2}, nondecreasing and
    convex on [0, inf), the conclusion sum g(x) >= sum g(y) must hold;
    margins are allowed -1e-9 relative slack for float noise.

    The integer draws ``randint(1, 8)``, ``randrange(n)`` and ``randrange(3)``
    are made as CPython makes them, by rejection on
    ``getrandbits(n.bit_length())``, so each seed consumes the stream and gives
    the report of the plain ``random`` calls; docs/derivations.md section 9
    states this contract and proves the lemma.
    """
    _check_trials(trials)
    _check_index(seed, "seed", 0)
    rng = random.Random(seed)
    rand = rng.random
    getrandbits = rng.getrandbits
    fsum = math.fsum
    expm1 = math.expm1
    violations = 0
    min_margin = math.inf
    first_violation = None

    for _ in range(trials):
        n = getrandbits(4)  # randint(1, 8)
        while n >= 8:
            n = getrandbits(4)
        n += 1
        ys = [2.0 * rand() + 1e-12 for _ in range(n)]
        k = n.bit_length()  # randrange(n)
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        t = ys[j]
        xs = []
        high_sum = 0.0
        for y in ys:
            if y < t:
                xs.append(y * rand())
            else:
                v = y * (1.0 + rand())
                xs.append(v)
                high_sum += v
        deficit = fsum(ys) - fsum(xs)
        if deficit > 0.0:
            scale = 1.0 + (deficit / high_sum) * (1.0 + 1e-9)
            xs = [v * scale if y >= t else v for v, y in zip(xs, ys)]

        kind = getrandbits(2)  # randrange(3)
        while kind == 3:
            kind = getrandbits(2)
        if kind == 0:
            rho = 1.0 + 3.0 * rand()
            gx = fsum(map(pow, xs, repeat(rho, n)))
            gy = fsum(map(pow, ys, repeat(rho, n)))
        elif kind == 1:
            gx = fsum(map(expm1, xs))
            gy = fsum(map(expm1, ys))
        else:
            # max(0, v - cc)^2 without its zero terms, which leave fsum unchanged
            cc = 2.0 * rand()
            gx = fsum([(v - cc) ** 2 for v in xs if v > cc])
            gy = fsum([(v - cc) ** 2 for v in ys if v > cc])

        margin = gx - gy
        if margin < min_margin:
            min_margin = margin
        # the slack is negative, so only a negative margin can fall below it
        if margin < 0.0 and margin < -1e-9 * max(1.0, abs(gx), abs(gy)):
            violations += 1
            if first_violation is None:
                first_violation = (tuple(xs), tuple(ys), t, kind, margin)

    return MajorizationReport(
        trials=trials,
        seed=seed,
        violations=violations,
        min_margin=min_margin,
        first_violation=first_violation,
    )


@dataclass(frozen=True)
class ProofChainWitness:
    """Numerical instantiation of the inequality chain behind the minimum.

    s_m(x) = k(x+m) + k(x-(m+1)) with k the squared sinc; the tilde head
    replaces the m = 0 pair by its r-power mean.  The chain orders the
    x-sequence against the half-point sequence: head >= head, far terms <=,
    partial sums >=, and the half-point sequence splits at the threshold
    4/pi^2 (head above, all far terms below), which is what the convex
    ordering argument needs.
    """

    r: float
    x: float
    x_seq: tuple[float, ...]
    y_seq: tuple[float, ...]
    x0_tilde: float
    y0_tilde: float
    threshold: float
    tail_tol: float
    tau: float
    margins: dict[str, float] = field(default_factory=dict)
    passed: bool = False


#: Pointwise comparison slack in the chain checks.
TAU = 1e-12

_LN2 = math.log(2.0)

#: Pairs m = 0..PROOF_CHAIN_M in the witness sequences; the omitted pair
#: mass is below 2/(pi^2 PROOF_CHAIN_M), about 3.2e-3 (derivations section 7).
PROOF_CHAIN_M = 64


def _pair_sum(x: float, m: int) -> float:
    return backend.sinc_sq(x + m) + backend.sinc_sq(x - (m + 1.0))


def proof_chain(r: float, x: float) -> ProofChainWitness:
    """Build the witness at (r, x) and check every chain inequality.

    Full-sum identities over pairs m = 0..M, M = PROOF_CHAIN_M, are checked
    up to tail_tol = 2/(pi^2 M), the integral-comparison bound on the
    omitted pair mass; pointwise comparisons use tau = 1e-12.

    The tilde heads are formed without underflow.  The gap between the
    half-point tilde head and the threshold, 4/pi^2 (2^(1/r) - 1), shrinks
    like 1/r, so threshold_below_tilde_head measures it with expm1 and
    allows the slack tau relative to the head; the witness passes for
    every r up to R_MAX (derivations section 7).
    """
    r = _check_r(r)
    x = _check_x(x)

    far = range(1, PROOF_CHAIN_M + 1)
    xs = tuple(_pair_sum(x, m) for m in range(PROOF_CHAIN_M + 1))
    ys = tuple(_pair_sum(0.5, m) for m in range(PROOF_CHAIN_M + 1))

    hx = backend.sinc_sq(x)
    hx1 = backend.sinc_sq(x - 1.0)
    # the r-power means, scaled by the larger head so that no power underflows
    big, small = max(hx, hx1), min(hx, hx1)
    x0t = big * (1.0 + (small / big) ** r) ** (1.0 / r)
    hh = backend.sinc_sq(0.5)
    y0t = hh * 2.0 ** (1.0 / r)

    tail_tol = 2.0 / (math.pi * math.pi * PROOF_CHAIN_M)

    margins: dict[str, float] = {}
    margins["head_dominates"] = xs[0] - ys[0] + TAU
    margins["far_terms_below"] = min(ys[m] - xs[m] for m in far) + TAU

    px = py = 0.0
    worst_partial = math.inf
    for m in range(PROOF_CHAIN_M + 1):
        px += xs[m]
        py += ys[m]
        worst_partial = min(worst_partial, px - py)
    margins["partial_sums_dominate"] = worst_partial + TAU
    margins["total_sums_equal"] = (tail_tol + TAU) - abs(px - py)

    margins["tilde_gap_dominates"] = (x0t - xs[0]) - (y0t - ys[0]) + TAU
    margins["tilde_head_dominates"] = x0t - y0t + TAU

    pxt = x0t
    pyt = y0t
    worst_tilde_partial = pxt - pyt
    for m in far:
        pxt += xs[m]
        pyt += ys[m]
        worst_tilde_partial = min(worst_tilde_partial, pxt - pyt)
    margins["tilde_partial_sums_dominate"] = worst_tilde_partial + TAU

    # y0t - THRESHOLD = hh (2^(1/r) - 1) + (hh - THRESHOLD), formed without
    # cancellation and given the pointwise slack relative to the head
    margins["threshold_below_tilde_head"] = (
        hh * math.expm1(_LN2 / r) + (hh - THRESHOLD) + TAU * hh
    )
    margins["threshold_above_far_terms"] = min(THRESHOLD - ys[m] for m in far) - TAU

    return ProofChainWitness(
        r=r,
        x=x,
        x_seq=xs,
        y_seq=ys,
        x0_tilde=x0t,
        y0_tilde=y0t,
        threshold=THRESHOLD,
        tail_tol=tail_tol,
        tau=TAU,
        margins=margins,
        passed=all(v >= 0.0 for v in margins.values()),
    )
