"""Independent oracles used across the test suite, and a CLI runner.

The oracles deliberately avoid the package's own evaluation paths:
plain partial sums with elementary integral sandwiches for tails, and
mpmath (a wholly separate implementation) for high-precision references.
"""

import io
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import mpmath as mp

from sincsum import cli
from sincsum.errors import DomainError
from sincsum.verify.engine import MajorizationReport

mp.mp.dps = 40


def tail_sandwich(s: float, w: float) -> tuple[float, float]:
    """Enclosure of sum_{j>=0} (w+j)^(-s) by elementary integral comparison.

    For the decreasing convex integrand t -> t^(-s): the midpoint rule
    overestimates cell integrals, so the sum is at most the integral from
    w - 1/2; the trapezoid rule underestimates, so the sum is at least the
    integral from w plus half the first term.  Returns (value, half_width).
    """
    upper = (w - 0.5) ** (1.0 - s) / (s - 1.0)
    lower = w ** (1.0 - s) / (s - 1.0) + 0.5 * w ** (-s)
    return 0.5 * (upper + lower), 0.5 * (upper - lower)


def zeta_brute(s: float, a: float, terms: int = 100_000) -> tuple[float, float]:
    """Hurwitz zeta by direct summation plus a sandwiched tail.

    Returns (value, error_bound); the bound is the sandwich half-width
    plus a rounding allowance for the long float sum.
    """
    acc = math.fsum((k + a) ** (-s) for k in range(terms))
    tail, half = tail_sandwich(s, terms + a)
    return acc + tail, half + 1e-15 * abs(acc)


def power_sum_brute(r: float, x: float, terms: int = 20_000) -> tuple[float, float]:
    """The sinc power sum by direct summation plus sandwiched tails."""
    s = 2.0 * r

    def h_pow(t: float) -> float:
        if t == 0.0:
            return 1.0
        u = math.sin(math.pi * t) / (math.pi * t)
        if u == 0.0:
            return 0.0
        return abs(u) ** s

    acc = math.fsum(h_pow(x + m) for m in range(-terms, terms + 1))
    sp = abs(math.sin(math.pi * x))
    if sp == 0.0:
        return acc, 1e-15
    pref = (sp / math.pi) ** s
    t_right, e_right = tail_sandwich(s, terms + 1.0 + x)
    t_left, e_left = tail_sandwich(s, terms + 1.0 - x)
    value = acc + pref * (t_right + t_left)
    return value, pref * (e_right + e_left) + 1e-14


def power_sum_mp(r, x, dps: int = 40) -> mp.mpf:
    """High-precision reference via mpmath's own Hurwitz zeta."""
    with mp.workdps(dps):
        xm = mp.mpf(x)
        if xm == 0 or xm == 1:
            return mp.mpf(1)
        s = 2 * mp.mpf(r)
        pref = (mp.sin(mp.pi * xm) / mp.pi) ** s
        return pref * (mp.zeta(s, xm) + mp.zeta(s, 1 - xm))


def power_sum_deriv_mp(r, x, dps: int = 40) -> mp.mpf:
    """High-precision derivative via mpmath differentiation.

    ``mp.diff`` doubles the working precision and steps about 2^-(prec+10)
    away from x, so the power sum is evaluated at 3*dps digits: at fewer,
    x +- step would round back to x.  The step stays inside (0, 1) for
    x as close to an endpoint as 1e-20.
    """
    with mp.workdps(dps):
        return mp.diff(lambda t: power_sum_mp(r, t, dps=3 * dps), mp.mpf(x))


def _deriv(c: list[Fraction]) -> list[Fraction]:
    return [k * c[k] for k in range(1, len(c))]


def _times_y(c: list[Fraction]) -> list[Fraction]:
    return [Fraction(0)] + c if c else []


def _add(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, v in enumerate(b):
        out[k] += v
    return out


def _scale(c: list[Fraction], f: Fraction) -> list[Fraction]:
    return [f * v for v in c]


def _r_minus_yd(c: list[Fraction], r: int) -> list[Fraction]:
    # y*D acts diagonally on monomials: (r - yD) y^k = (r - k) y^k.
    return [(r - k) * v for k, v in enumerate(c)]


def poly_step_operator(coeffs, r: int) -> tuple[Fraction, ...]:
    """P_r -> P_{r+1} by the operator recursion, in its written grouping

        [4y(r - yD)^2 + 8(r - yD)yD + 2yD + 2r + 4yD^2 + 2D] P_r / (2r(2r+1)),

    built from elementary Fraction polynomial operations (differentiate,
    multiply by y, scalar combine), independent of the library's integer
    three-term recurrence.
    """
    c = list(coeffs)
    dc = _deriv(c)
    terms = (
        _scale(_times_y(_r_minus_yd(_r_minus_yd(c, r), r)), Fraction(4)),
        _scale(_r_minus_yd(_times_y(dc), r), Fraction(8)),
        _scale(_times_y(dc), Fraction(2)),
        _scale(c, Fraction(2 * r)),
        _scale(_times_y(_deriv(dc)), Fraction(4)),
        _scale(dc, Fraction(2)),
    )
    total: list[Fraction] = []
    for t in terms:
        total = _add(total, t)
    total = _scale(total, Fraction(1, 2 * r * (2 * r + 1)))
    total += [Fraction(0)] * (r + 1 - len(total))
    return tuple(total[: r + 1])


def uniform_grid(n: int) -> list[float]:
    return [i / (n - 1) for i in range(n)]


def majorization_reference(trials: int, seed: int) -> MajorizationReport:
    """The majorization check as first written, with randint/randrange draws
    and generator-fed fsum; ``engine.majorization_property`` must return the
    same report for every (trials, seed).
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    rng = random.Random(seed)
    violations = 0
    min_margin = math.inf
    first_violation = None

    for _ in range(trials):
        n = rng.randint(1, 8)
        ys = [2.0 * rng.random() + 1e-12 for _ in range(n)]
        t = ys[rng.randrange(n)]
        xs = [0.0] * n
        high_sum = 0.0
        for i, y in enumerate(ys):
            if y < t:
                xs[i] = y * rng.random()
            else:
                xs[i] = y * (1.0 + rng.random())
                high_sum += xs[i]
        deficit = math.fsum(ys) - math.fsum(xs)
        if deficit > 0.0:
            scale = 1.0 + (deficit / high_sum) * (1.0 + 1e-9)
            for i, y in enumerate(ys):
                if y >= t:
                    xs[i] *= scale

        kind = rng.randrange(3)
        if kind == 0:
            rho = 1.0 + 3.0 * rng.random()
            gx = math.fsum(v**rho for v in xs)
            gy = math.fsum(v**rho for v in ys)
        elif kind == 1:
            gx = math.fsum(math.expm1(v) for v in xs)
            gy = math.fsum(math.expm1(v) for v in ys)
        else:
            cc = 2.0 * rng.random()
            gx = math.fsum(max(0.0, v - cc) ** 2 for v in xs)
            gy = math.fsum(max(0.0, v - cc) ** 2 for v in ys)

        margin = gx - gy
        min_margin = min(min_margin, margin)
        if margin < -1e-9 * max(1.0, abs(gx), abs(gy)):
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


def run_cli(argv):
    """``sincsum.cli.main(argv)`` with captured output: (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()
