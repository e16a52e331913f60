"""Independent oracles used across the test suite, and a CLI runner.

Most oracles deliberately avoid the package's own evaluation paths:
plain partial sums with elementary integral sandwiches for tails, and
mpmath (a wholly separate implementation) for high-precision references.
A few are second routes built on the package's kernels (the half-integer
polygamma route, the finite-difference derivative) or earlier forms of its
code (the truncation-order search, the scalar-loop kernels, the
majorization check, the transference formulas), against which the
library is compared.
"""

import io
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import mpmath as mp

from sincsum import backend, cli
from sincsum._kernels_py import (
    _EM_COEF,
    _EM_NEXT,
    FLOAT_SLACK,
    LOG_PI,
    PI,
    _em_pass_c,
    dsinc,
    sinc,
)
from sincsum.constants import _log_zeta, crude_bound
from sincsum.core import (
    M_FLOOR,
    TOL_FLOOR,
    EvalConfig,
    EvalPoint,
    _gauge_coeff,
    power_sum,
)
from sincsum.errors import DomainError, PrecisionError
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


def polygamma_even_series(n: int, x: float) -> float:
    """Even-order polygamma psi^(2n)(x) = -(2n)! * zeta(2n+1, x), x in (0,1)."""
    value, _ = backend.zeta_em(2.0 * n + 1.0, x)
    return -float(math.factorial(2 * n)) * value


def power_sum_half_integer(n: int, x: float) -> float:
    """Power sum at half-integer exponent r = n + 1/2, x in (0,1), via
    polygamma values: S_{n+1/2}(x) = pi^-(2n+1) |sin(pi x)|^(2n+1) *
    (-1/(2n)!) * (psi^(2n)(x) + psi^(2n)(1-x)).
    """
    pg = polygamma_even_series(n, x) + polygamma_even_series(n, 1.0 - x)
    s = 2 * n + 1
    sp = math.sin(math.pi * x)
    pref = math.exp(s * (math.log(sp) - math.log(math.pi)))
    return pref * (-pg / float(math.factorial(2 * n)))


def power_sum_fd_deriv(p: EvalPoint, step: float) -> float:
    """Central finite difference of the direct route at x (x +- step in
    (0,1)), each value to tolerance step**3."""
    cfg = EvalConfig(target_tol=max(step * step * step, 4.0 * TOL_FLOOR))
    hi, _ = power_sum(EvalPoint(p.r, p.x + step), cfg)
    lo, _ = power_sum(EvalPoint(p.r, p.x - step), cfg)
    return (hi - lo) / (2.0 * step)


def tail_gauge(s: float, m: int) -> float:
    """The a-priori bound P(M) on the corrected tail error for half-width m
    (``sincsum.core``'s docstring), which ``core.select_m_terms`` scans."""
    return _gauge_coeff(s) * (m + 1.0) ** (-s - 7.0) + TOL_FLOOR


def select_m_terms_reference(r: float, target_tol: float) -> int:
    """The truncation-order search as first written: invert the gauge's power
    law for a guess, then fix it up linearly in both directions.
    ``core.select_m_terms`` must return the same M, or raise the same
    PrecisionError with the same achieved bound, for every input.
    """
    s = 2.0 * r
    if target_tol <= TOL_FLOOR:
        raise PrecisionError(
            f"target_tol {target_tol:g} is below the floating-point floor "
            f"{TOL_FLOOR:g}",
            achieved_bound=TOL_FLOOR,
        )
    if tail_gauge(s, M_FLOOR) <= target_tol:
        return M_FLOOR
    poch = 1.0
    for i in range(7):
        poch *= s + i
    coeff = 4.0 * -_EM_COEF[3] * poch * math.exp(-s * math.log(math.pi))
    guess = int(math.exp(math.log(coeff / (target_tol - TOL_FLOOR)) / (s + 7.0))) + 1
    m = max(M_FLOOR, guess - 2)
    while tail_gauge(s, m) > target_tol:
        m += 1
    while m > M_FLOOR and tail_gauge(s, m - 1) <= target_tol:
        m -= 1
    return m


def zeta_em_reference(s: float, a: float) -> tuple[float, float]:
    """The pure twin's ``zeta_em`` as first written, with its leading block
    and its eight Euler-Maclaurin corrections in loops.  Both kernel twins
    must return the same floats, bit for bit, for every input."""
    if a < 0.0:
        return _em_pass_c(s, a)
    n = 0 if a >= 8.0 else 8
    try:
        w = n + a
        acc = 0.0
        c = 0.0
        for k in range(n - 1, -1, -1):
            term = (k + a) ** (-s)
            y = term - c
            t = acc + y
            c = (t - acc) - y
            acc = t
        base = w ** (-s)
        if base == 0.0:
            return acc, 0.0
        total = acc + base * w / (s - 1.0) + 0.5 * base
        w2 = w * w
        g = base * s / w
        corr = 0.0
        j = 1
        for coef in _EM_COEF:
            corr += coef * g
            g *= (s + 2.0 * j - 1.0) * (s + 2.0 * j) / w2
            j += 1
        return total + corr, _EM_NEXT * g
    except (OverflowError, ZeroDivisionError):
        return _em_pass_c(s, a)


def _abs_sinc_pow(x: float, s: float) -> float:
    """|sinc(x)|^s via exp(s*log|sinc|), exactly 0 when sinc vanishes, as
    the pure twin first formed each term of the lattice sum."""
    u = sinc(x)
    if u == 0.0:
        return 0.0
    try:
        return math.exp(s * math.log(abs(u)))
    except OverflowError:
        return math.inf  # s < 0, where C's exp gives inf


def power_sum_fixed_reference(r: float, x: float, m_terms: int) -> tuple[float, float]:
    """The pure twin's ``power_sum_fixed`` as first written: one scalar
    ``_abs_sinc_pow`` call per central term, in a Python loop.  Both kernel
    twins must return the same floats, bit for bit, for every input."""
    s = 2.0 * r
    acc = 0.0
    c = 0.0
    for k in range(m_terms, 0, -1):
        for xm in (x + k, x - k):
            term = _abs_sinc_pow(xm, s)
            if term != 0.0:
                y = term - c
                t = acc + y
                c = (t - acc) - y
                acc = t
    term = _abs_sinc_pow(x, s)
    y = term - c
    acc = acc + y
    try:
        sp = abs(math.sin(PI * x))
    except ValueError:
        sp = math.nan
    if sp == 0.0:
        return acc, FLOAT_SLACK
    try:
        pref = math.exp(s * (math.log(sp) - LOG_PI))
    except OverflowError:
        pref = math.inf
    if pref == 0.0:
        return acc, FLOAT_SLACK
    z_right, g_right = zeta_em_reference(s, m_terms + 1.0 + x)
    z_left, g_left = zeta_em_reference(s, m_terms + 1.0 - x)
    value = acc + pref * (z_right + z_left)
    tail_bound = pref * (g_right + g_left) + FLOAT_SLACK
    return value, tail_bound


def power_sum_zeta_reference(r: float, x: float) -> float:
    """The closed-form route as first written: the m = 0 and m = -1 terms
    from ``_abs_sinc_pow`` and the Hurwitz zeta pair from
    ``zeta_em_reference``, each formed on its own, and the continuous value
    1 at the endpoints and outside them.  Both kernel twins must return the
    same floats, bit for bit, for every input."""
    if x <= 0.0 or x >= 1.0:
        return 1.0
    s = 2.0 * r
    head = _abs_sinc_pow(x, s) + _abs_sinc_pow(x - 1.0, s)
    try:
        pref = math.exp(s * (math.log(math.sin(PI * x)) - LOG_PI))
    except OverflowError:
        pref = math.inf  # s < 0, where C's exp gives inf
    if pref == 0.0:
        return head
    z0, _ = zeta_em_reference(s, 1.0 + x)
    z1, _ = zeta_em_reference(s, 2.0 - x)
    return head + pref * (z0 + z1)


def _head_deriv_reference(u: float, du: float, s: float) -> float:
    if u == 0.0 and s > 1.0:
        return 0.0
    try:
        return s * math.exp((s - 1.0) * math.log(u)) * du
    except ValueError:
        lu = -math.inf if u == 0.0 else math.nan
    except OverflowError:
        return s * math.inf * du
    return s * math.exp((s - 1.0) * lu) * du


def power_sum_deriv_reference(r: float, x: float) -> float:
    """The derivative of the closed form as first written: its own
    ``sinc(x)``, ``sinc(x - 1)``, ``sin(pi*x)`` and prefactor, and the
    Hurwitz zeta values from ``zeta_em_reference``, each formed on its own.
    Both kernel twins must return the same floats, bit for bit, for every
    input."""
    s = 2.0 * r
    d_head = _head_deriv_reference(sinc(x), dsinc(x), s)
    d_head += _head_deriv_reference(sinc(x - 1.0), dsinc(x - 1.0), s)
    try:
        sp = math.sin(PI * x)
        cp = math.cos(PI * x)
    except ValueError:
        sp = cp = math.nan
    lsp = math.log(sp) if sp > 0.0 else (-math.inf if sp == 0.0 else math.nan)
    try:
        pref = math.exp(s * (lsp - LOG_PI))
    except OverflowError:
        pref = math.inf
    try:
        d_pref = s * PI * cp * math.exp((s - 1.0) * lsp - s * LOG_PI)
    except OverflowError:
        d_pref = s * PI * cp * math.inf
    z0, _ = zeta_em_reference(s, 1.0 + x)
    z1, _ = zeta_em_reference(s, 2.0 - x)
    dz0, _ = zeta_em_reference(s + 1.0, 1.0 + x)
    dz1, _ = zeta_em_reference(s + 1.0, 2.0 - x)
    return d_head + d_pref * (z0 + z1) + pref * s * (dz1 - dz0)


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


def tangent_numbers_reference(m: int) -> tuple[int, ...]:
    """T_1..T_m in one shot: Brent & Harvey's Algorithm TangentNumbers
    (arXiv:1108.0286) as the paper orders it, pass by pass over the whole
    table, where the library grows its table index by index."""
    t = [0] * (m + 1)
    if m:
        t[1] = 1
    for k in range(2, m + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(t[1:])


def constants_reference(q: float, d: int) -> tuple[float, float, float, float]:
    """``(c_q, log c_q, factor, half-shifted norm)`` as ``min_constant``,
    ``transference_factor`` and ``lq_norm_halfshift`` first computed them,
    each evaluating log zeta(q) for itself; the library must match bit for bit.
    """
    log2 = math.log(2.0)
    log_h = log2 + q * log2 + math.log1p(-(2.0 ** (-q))) + _log_zeta(q)
    log_c = log_h - q * math.log(math.pi)
    excess = log2 + math.log1p(-(2.0 ** (-q))) + _log_zeta(q)
    factor = crude_bound(d) * math.exp(-(d / q) * excess)
    return math.exp(log_c), log_c, factor, math.exp(log_h / q)


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
