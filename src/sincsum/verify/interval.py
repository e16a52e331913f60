"""Outward-rounded interval arithmetic for inequality certification.

Rigor model ("floating-point rigor"): every elementary operation is
evaluated in double precision and the result endpoints are pushed outward
by 4 units in the last place.  That inflation dominates the worst libm
error of sin/cos/pow (at most a couple of ulps on this platform),
so each primitive returns an interval containing the true range of the
operation over its input intervals.  This is honest validated numerics at
machine precision, not a formal proof.

sin/cos enclosures locate interior extrema by monotonicity-segment
analysis: endpoint values plus a widened test for whether a peak or trough
of the wave lies inside the argument interval.  Over-inclusion of a nearby
peak only widens the enclosure and is sound.

The normalized sinc and its derivative get dedicated enclosures: an
alternating-series bound near the removable singularity (|x| <= 1/4) and
the quotient form away from it, with input boxes split at the boundary.
"""

import math

from .._kernels_py import _DSINC_COEF
from ..core import _real
from ..errors import SincsumError

#: Outward inflation applied after every elementary operation.
ULPS = 4.0

_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi


class EnclosureError(SincsumError, ArithmeticError):
    """An enclosure could not be formed (zero divisor, domain overrun)."""


def _dn(v: float) -> float:
    return v - ULPS * math.ulp(v)


def _up(v: float) -> float:
    return v + ULPS * math.ulp(v)


class Interval:
    """Closed interval [lo, hi] with outward-rounded arithmetic."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        # two finite, ordered floats pass the in-line test without a call;
        # anything else is converted by the real-argument rule, then tested
        if not (
            lo.__class__ is float and hi.__class__ is float and -math.inf < lo <= hi < math.inf
        ):
            lo = _real(lo, "lo")
            hi = _real(hi, "hi")
            if not -math.inf < lo <= hi < math.inf:  # nan fails it too
                raise EnclosureError(f"invalid interval endpoints [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @classmethod
    def point(cls, v: float) -> "Interval":
        return cls(v, v)

    @classmethod
    def hull(cls, a: "Interval", b: "Interval") -> "Interval":
        return cls(min(a.lo, b.lo), max(a.hi, b.hi))

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, v: float) -> bool:
        return self.lo <= v <= self.hi

    def __repr__(self):
        return f"[{self.lo!r}, {self.hi!r}]"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Interval):
            return Interval(_dn(self.lo + other.lo), _up(self.hi + other.hi))
        v = float(other)
        return Interval(_dn(self.lo + v), _up(self.hi + v))

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        if isinstance(other, Interval):
            return Interval(_dn(self.lo - other.hi), _up(self.hi - other.lo))
        v = float(other)
        return Interval(_dn(self.lo - v), _up(self.hi - v))

    def __rsub__(self, other):
        v = float(other)
        return Interval(_dn(v - self.hi), _up(v - self.lo))

    def __mul__(self, other):
        if isinstance(other, Interval):
            p1 = self.lo * other.lo
            p2 = self.lo * other.hi
            p3 = self.hi * other.lo
            p4 = self.hi * other.hi
            return Interval(_dn(min(p1, p2, p3, p4)), _up(max(p1, p2, p3, p4)))
        v = float(other)
        p1 = self.lo * v
        p2 = self.hi * v
        return Interval(_dn(min(p1, p2)), _up(max(p1, p2)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Interval):
            if other.lo <= 0.0 <= other.hi:
                raise EnclosureError(f"division by interval containing zero: {other}")
            p1 = self.lo / other.lo
            p2 = self.lo / other.hi
            p3 = self.hi / other.lo
            p4 = self.hi / other.hi
            return Interval(_dn(min(p1, p2, p3, p4)), _up(max(p1, p2, p3, p4)))
        v = float(other)
        if v == 0.0:
            raise EnclosureError("division by zero scalar")
        p1 = self.lo / v
        p2 = self.hi / v
        return Interval(_dn(min(p1, p2)), _up(max(p1, p2)))

    def __rtruediv__(self, other):
        return Interval.point(float(other)) / self

    # -- powers and monotone transcendentals ---------------------------------

    def sq(self) -> "Interval":
        if self.lo >= 0.0:
            return Interval(_dn(self.lo * self.lo), _up(self.hi * self.hi))
        if self.hi <= 0.0:
            return Interval(_dn(self.hi * self.hi), _up(self.lo * self.lo))
        m = max(-self.lo, self.hi)
        return Interval(0.0, _up(m * m))

    def powi(self, n: int) -> "Interval":
        if n < 0:
            raise EnclosureError("negative integer powers unsupported; divide instead")
        if n == 0:
            return Interval(1.0, 1.0)
        if n == 1:
            return Interval(self.lo, self.hi)
        try:
            if n % 2 == 0:
                if self.lo >= 0.0:
                    a, b = self.lo, self.hi
                elif self.hi <= 0.0:
                    a, b = -self.hi, -self.lo
                else:
                    return Interval(0.0, _up(max(-self.lo, self.hi) ** n))
                return Interval(_dn(a**n), _up(b**n))
            return Interval(_dn(self.lo**n), _up(self.hi**n))
        except OverflowError as exc:
            raise EnclosureError(f"power {n} of {self} exceeds double range") from exc

    def pow_real(self, p: float) -> "Interval":
        """x^p for nonnegative bases, monotone in the base.

        A lower endpoint in [-1e-12, 0) is treated as exact 0: such dips
        below zero only arise from outward rounding of quantities that are
        nonnegative by construction on the certification domains.
        """
        lo, hi = self.lo, self.hi
        if lo < 0.0:
            if lo < -1e-12 or hi < 0.0:
                raise EnclosureError(f"pow_real base must be nonnegative: {self}")
            lo = 0.0
        if p == 0.0:
            return Interval(1.0, 1.0)
        try:
            if p > 0.0:
                return Interval(_dn(math.pow(lo, p)), _up(math.pow(hi, p)))
            if lo == 0.0:
                raise EnclosureError(f"negative power of interval touching 0: {self}")
            return Interval(_dn(math.pow(hi, p)), _up(math.pow(lo, p)))
        except OverflowError as exc:
            raise EnclosureError(f"power {p} of {self} exceeds double range") from exc

    # -- trigonometric enclosures --------------------------------------------

    def _wave(self, fn, peak_at: float, trough_at: float) -> "Interval":
        lo, hi = self.lo, self.hi
        if hi - lo >= _TWO_PI:
            return Interval(-1.0, 1.0)
        va, vb = fn(lo), fn(hi)
        mn, mx = (va, vb) if va <= vb else (vb, va)
        # Widened membership test: missing a peak that is truly inside would
        # be unsound, so the window grows by the argument rounding scale;
        # spuriously including a peak just outside only widens the result.
        delta = 1e-12 + 16.0 * math.ulp(max(abs(lo), abs(hi), 1.0))
        if math.ceil((lo - delta - peak_at) / _TWO_PI) <= math.floor(
            (hi + delta - peak_at) / _TWO_PI
        ):
            mx = 1.0
        if math.ceil((lo - delta - trough_at) / _TWO_PI) <= math.floor(
            (hi + delta - trough_at) / _TWO_PI
        ):
            mn = -1.0
        return Interval(max(-1.0, _dn(mn)), min(1.0, _up(mx)))

    def sin(self) -> "Interval":
        return self._wave(math.sin, _HALF_PI, -_HALF_PI)

    def cos(self) -> "Interval":
        return self._wave(math.cos, 0.0, math.pi)


def intersect(a: Interval, b: Interval) -> Interval | None:
    lo = max(a.lo, b.lo)
    hi = min(a.hi, b.hi)
    if lo > hi:
        return None
    return Interval(lo, hi)


#: Enclosures of the constants used by the certification expressions.
PI_I = Interval(math.pi, math.nextafter(math.pi, 4.0))
SQRT2_I = Interval(math.nextafter(math.sqrt(2.0), 0.0), math.sqrt(2.0))

# Normalized sinc: series coefficients (-1)^k / (2k+1)! for k = 0..7.
_SINC_COEF = (
    1.0,
    -1.0 / 6.0,
    1.0 / 120.0,
    -1.0 / 5040.0,
    1.0 / 362880.0,
    -1.0 / 39916800.0,
    1.0 / 6227020800.0,
    -1.0 / 1307674368000.0,
)
# The derivative series sinc'(x) = pi^2 x G(u), u = (pi x)^2, with
# G(u) = sum_{k>=1} (-1)^k 2k u^(k-1) / (2k+1)!, takes the kernels'
# coefficients for k = 1..8 (_DSINC_COEF).
_FACT_17 = 355687428096000.0  # 17!
_FACT_19 = 121645100408832000.0  # 19!
#: Static pad absorbing the rounding of series coefficients to doubles.
_SERIES_PAD = 1e-15
#: Series/quotient switchover for the sinc enclosures.
_SINC_SPLIT = 0.25


def _poly_eval_iv(u: Interval, coef: tuple) -> Interval:
    acc = Interval.point(coef[-1])
    for c in reversed(coef[:-1]):
        acc = acc * u + c
    return acc


def _sinc_series(x: Interval) -> Interval:
    u = (PI_I * x).sq()
    acc = _poly_eval_iv(u, _SINC_COEF)
    # Alternating series with decreasing terms on u <= (pi/4)^2: remainder
    # bounded by the first omitted term u^8/17!.
    rem = (u.hi**8) / _FACT_17 + _SERIES_PAD
    return Interval(_dn(acc.lo - rem), _up(acc.hi + rem))


def _sinc_quotient(x: Interval) -> Interval:
    t = PI_I * x
    return t.sin() / t


def _split_hull(x: Interval, series, quotient) -> Interval:
    """Hull of ``series`` on x within +-_SINC_SPLIT and ``quotient`` outside it."""
    quotient_pieces = []
    if x.lo < -_SINC_SPLIT:
        quotient_pieces.append(Interval(x.lo, min(x.hi, -_SINC_SPLIT)))
    if x.hi > _SINC_SPLIT:
        quotient_pieces.append(Interval(max(x.lo, _SINC_SPLIT), x.hi))
    mid_lo = max(x.lo, -_SINC_SPLIT)
    mid_hi = min(x.hi, _SINC_SPLIT)
    series_piece = Interval(mid_lo, mid_hi) if mid_lo <= mid_hi else None
    parts = [quotient(p) for p in quotient_pieces]
    if series_piece is not None:
        parts.append(series(series_piece))
    out = parts[0]
    for p in parts[1:]:
        out = Interval.hull(out, p)
    return out


def sinc_iv(x: Interval) -> Interval:
    """Enclosure of sin(pi t)/(pi t) over t in x."""
    return _split_hull(x, _sinc_series, _sinc_quotient)


def _dsinc_series(x: Interval) -> Interval:
    u = (PI_I * x).sq()
    g = _poly_eval_iv(u, _DSINC_COEF)
    rem = 18.0 * (u.hi**8) / _FACT_19 + _SERIES_PAD
    g = Interval(_dn(g.lo - rem), _up(g.hi + rem))
    return x * PI_I.sq() * g


def _dsinc_quotient(x: Interval) -> Interval:
    return ((PI_I * x).cos() - _sinc_quotient(x)) / x


def dsinc_iv(x: Interval) -> Interval:
    """Enclosure of d/dt [sin(pi t)/(pi t)] over t in x."""
    return _split_hull(x, _dsinc_series, _dsinc_quotient)
