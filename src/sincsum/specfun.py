"""Special functions backing the closed-form power sum route.

Exact pieces (Bernoulli numbers, rational even-argument zeta values) use
``fractions.Fraction``; floating pieces (the Hurwitz zeta, the closed-form
power sum and its analytic derivative) delegate to the backend's
Euler-Maclaurin kernels.

Conventions: Bernoulli numbers with B_1 = -1/2, the even ones computed from
integer tangent numbers (Brent & Harvey, arXiv:1108.0286), whose one cached
table also serves zeta_even and constants.exact_min_constant.  The table
grows in place: a larger request computes only the new entries, from the
last column of the recurrence's triangle, which is cached beside it.
Even-argument zeta values come from
zeta(2n) = T_n pi^(2n) / (2 (4^n - 1) (2n-1)!).  Every exact-table index
must be an int, or DomainError is raised.
"""

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from . import backend
from .core import EvalPoint, _check_index, _real, _show
from .errors import DomainError, PrecisionError, SizeLimitError
from .exactpoly import R_CAP

#: Largest exact factorial argument (2 R_CAP + 1); larger requests are refused.
FACTORIAL_CAP = 2 * R_CAP + 1

#: Largest Bernoulli index computed.  Time grows like n^2 big-integer
#: products and memory like n^2 log n bits: B_2048 takes under a second and
#: about 1 MB, while a request such as q = 1e6 in exact_min_constant is
#: refused instead of exhausting memory.
BERNOULLI_CAP = 2048

#: How far above its pole at s = 1 hurwitz_zeta must be asked: the least
#: s it accepts exceeds 1 + POLE_SLACK.
POLE_SLACK = 1e-9

#: The cached tangent numbers T_1..T_M and the last column of the triangle
#: they were read from (see ``_extend_tangents``), published together.
_tangent_cache: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())
_tangent_lock = threading.Lock()


def _check_bernoulli_cap(n_max: int) -> None:
    if n_max > BERNOULLI_CAP:
        raise SizeLimitError(f"Bernoulli index {_show(n_max)} exceeds cap {BERNOULLI_CAP}")


def _extend_tangents(
    table: tuple[int, ...], column: tuple[int, ...], m: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """T_1..T_m and the triangle's column at m, from T_1..T_M and its column
    at M (both empty for M = 0).

    Brent & Harvey's integer recurrence (arXiv:1108.0286, Algorithm
    TangentNumbers), O(m^2) integer operations and no division, fills a
    triangle: A_1(j) = (j - 1)!, A_k(j) = (j - k) A_k(j - 1)
    + (j - k + 2) A_{k-1}(j) for 2 <= k <= j, and T_j = A_j(j).  Column j,
    the A_k(j) for k = 1..j, needs only column j - 1, so the table grows
    from the saved column and no entry is computed twice.
    """
    table, a = list(table), list(column)  # a[k - 1] = A_k(j - 1)
    for j in range(len(table) + 1, m + 1):
        if a:
            a[0] *= j - 1
            for k in range(2, j):  # in place, a[k - 2] already at column j
                a[k - 1] = (j - k) * a[k - 1] + (j - k + 2) * a[k - 2]
            a.append(2 * a[-1])  # A_j(j): the A_j(j - 1) term has factor 0
        else:
            a.append(1)  # A_1(1) = 0!
        table.append(a[-1])
    return tuple(table), tuple(a)


def _tangent_table(m: int) -> tuple[int, ...]:
    """The cached table T_1..T_M for some M >= m, itself and not a copy.

    A larger request extends the table from its saved column under a lock
    and publishes the new table and column as one tuple, so concurrent
    callers observe an immutable table.
    """
    global _tangent_cache
    table = _tangent_cache[0]
    if len(table) >= m:
        return table
    _check_bernoulli_cap(2 * m)
    with _tangent_lock:
        if len(_tangent_cache[0]) < m:
            _tangent_cache = _extend_tangents(*_tangent_cache, m)
        return _tangent_cache[0]


def tangent_numbers(m: int) -> tuple[int, ...]:
    """Tangent numbers T_1..T_m, tan x = sum_n T_n x^(2n-1)/(2n-1)!.

    T_n carries B_2n, so m shares its cap: at most BERNOULLI_CAP // 2.
    """
    _check_index(m, "m", 0)
    return _tangent_table(m)[:m]


def bernoulli(n_max: int) -> list[Fraction]:
    """Exact Bernoulli numbers B_0..B_{n_max} (convention B_1 = -1/2).

    Even entries come from the cached tangent numbers,
    B_{2n} = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)); odd entries past B_1 are 0.
    """
    _check_index(n_max, "n_max", 0)
    _check_bernoulli_cap(n_max)
    table = [Fraction(0)] * (n_max + 1)
    table[0] = Fraction(1)
    if n_max >= 1:
        table[1] = Fraction(-1, 2)
    for n, t in enumerate(tangent_numbers(n_max // 2), start=1):
        four_n = 4**n
        table[2 * n] = Fraction((-1) ** (n - 1) * 2 * n * t, four_n * (four_n - 1))
    return table


@dataclass(frozen=True)
class ZetaEvenValue:
    """zeta(2n) as an exact rational multiple of pi^(2n) plus its float."""

    n: int
    rational_part: Fraction
    float_value: float


def zeta_even(n: int) -> ZetaEvenValue:
    """zeta(2n) = T_n pi^(2n) / (2 (4^n - 1) (2n-1)!), exactly.

    This is (-1)^(n+1) B_{2n} (2 pi)^(2n) / (2 (2n)!) with B_{2n} written
    through the tangent number T_n (docs/derivations.md, section 8).
    """
    _check_index(n, "n", 1)
    if 2 * n > FACTORIAL_CAP:
        raise SizeLimitError(f"2n = {_show(2 * n)} exceeds exact factorial cap {FACTORIAL_CAP}")
    rational = Fraction(
        _tangent_table(n)[n - 1], 2 * (4**n - 1) * math.factorial(2 * n - 1)
    )
    value = float(rational) * math.pi ** (2 * n)
    return ZetaEvenValue(n=n, rational_part=rational, float_value=value)


def hurwitz_zeta(s: float, a: float) -> float:
    """sum_{k>=0} (k+a)^(-s) for s > 1 + POLE_SLACK and a in (0, 2]."""
    s = _real(s, "s")
    if not 1.0 + POLE_SLACK < s < math.inf:  # nan fails it too
        raise DomainError(f"s must exceed 1 + {POLE_SLACK!r} (pole at 1), got {_show(s)}")
    a = _real(a, "a")
    if not 0.0 < a <= 2.0:
        raise DomainError(f"a must lie in (0, 2], got {_show(a)}")
    value, gauge = backend.zeta_em(s, a)
    if not math.isfinite(value):
        raise PrecisionError(
            f"hurwitz_zeta({_show(s)}, {_show(a)}) exceeds floating-point range",
            achieved_bound=math.inf,
        )
    if gauge > 1e-12 * max(1.0, abs(value)):
        raise PrecisionError(
            f"hurwitz_zeta({_show(s)}, {_show(a)}) could not certify an error of at most "
            f"1e-12 * max(1, |value|): gauge {gauge:g}",
            achieved_bound=gauge,
        )
    return value


def power_sum_zeta(p: EvalPoint) -> float:
    """Closed-form power sum value via the Hurwitz zeta pair.

    S_r(x) = (|sin(pi x)|/pi)^(2r) * (zeta(2r,x) + zeta(2r,1-x)); valid for
    real r > 1/2 because the sum is over |sinc|^(2r).  Endpoints return the
    continuous value 1.
    """
    return backend.power_sum_zeta(p.r, p.x)


def power_sum_deriv(p: EvalPoint) -> float:
    """Analytic derivative of S_r at x in (0,1); antisymmetric about 1/2."""
    if not (0.0 < p.x < 1.0):
        raise DomainError(f"derivative route requires x in (0,1), got {_show(p.x)}")
    return backend.power_sum_deriv(p.r, p.x)
