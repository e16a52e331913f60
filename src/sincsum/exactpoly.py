"""Exact rational polynomials representing the power sum at integer order.

For integer r >= 1 the periodic sum S_r(x) equals P_r(y) with y = cos^2(pi x),
where P_r is a polynomial of degree r-1 with nonnegative rational
coefficients summing to 1.  P_{r+1} is produced from P_r by the differential
operator recursion

    P_{r+1} = [4y(r - yD)^2 + 8(r - yD)yD + 2yD + 2r + 4yD^2 + 2D] P_r
              / (2r (2r + 1)),

with D = d/dy.  The scaling 1/(2r(2r+1)) equals (2r-1)!/(2r+1)!, so
P_r = Q_r / (2r-1)! with integer Q_r, and the operator acts on monomials
as a three-term recurrence on those integers:

    Q_{r+1}[j] = 4(r-j+1)^2 Q_r[j-1] + (8j(r-j) + 2j + 2r) Q_r[j]
                 + 2(j+1)(2j+1) Q_r[j+1],    j = 0..r.

The coefficients summing to 1 reads sum(Q_r) = (2r-1)! (derivation in
docs/derivations.md, section 8).  poly_f forms and caches P_r for every
order it passes, each Fraction built after shifting out the power of two
common to (2r-1)! and all of Q_r, so that its gcd is found on smaller
integers; the values are the same.

Nonnegativity of the coefficients is an exact certificate that the minimum
of P_r over y in [0,1] sits at y = 0, i.e. the power sum minimum over x is
at x = 1/2, with minimum value P_r(0) = coeffs[0].
"""

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from numbers import Rational
from operator import or_

from .core import _check_index, _check_x, _show
from .errors import CertificateError, DomainError, SizeLimitError

#: Largest supported polynomial order; keeps the exact factorial scaling
#: and coefficient bit-growth desk-scale.
R_CAP = 100

_MIN_STATEMENT = (
    "all coefficients are nonnegative, so the minimum of P_r over y in [0,1] "
    "is at y = 0; hence the power sum attains its minimum at x = 1/2"
)


@dataclass(frozen=True)
class SincPolynomial:
    """P_r as a dense ascending-power coefficient list in y = cos^2(pi x)."""

    r: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        _check_index(self.r, "r", 1)
        coeffs = self.coeffs
        # a tuple of Fractions, as poly_f builds, passes the in-line test with
        # no call per coefficient; anything else is checked one by one
        if not (coeffs.__class__ is tuple and all(c.__class__ is Fraction for c in coeffs)):
            if not isinstance(coeffs, tuple):
                raise DomainError(f"coeffs must be a tuple, got {_show(coeffs)}")
            for k, c in enumerate(coeffs):
                if isinstance(c, bool) or not isinstance(c, Rational):
                    raise DomainError(f"coeffs[{k}] must be a rational number, got {_show(c)}")
        if len(coeffs) != self.r:
            raise CertificateError(
                f"P_{self.r} needs exactly {self.r} coefficients, got {len(coeffs)}"
            )

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @cached_property
    def float_coeffs(self) -> tuple[float, ...]:
        """The coefficients rounded to double, once per polynomial."""
        return tuple(float(c) for c in self.coeffs)


def _step_ints(q: list[int], r: int) -> list[int]:
    """Integer numerators Q_r -> Q_{r+1}, where P_r = Q_r / (2r-1)!.

    The operator maps y^j to 4(r-j)^2 y^(j+1) + (8j(r-j) + 2j + 2r) y^j
    + 2j(2j-1) y^(j-1), so each output coefficient takes three inputs.
    """
    padded = [0, *q, 0, 0]
    return [
        4 * (r - j + 1) ** 2 * padded[j]
        + (8 * j * (r - j) + 2 * j + 2 * r) * padded[j + 1]
        + 2 * (j + 1) * (2 * j + 1) * padded[j + 2]
        for j in range(r + 1)
    ]


def poly_step(p: SincPolynomial) -> SincPolynomial:
    """One application of the operator recursion: P_r -> P_{r+1}."""
    r = p.r
    if r + 1 > R_CAP:
        raise SizeLimitError(f"polynomial order {r + 1} exceeds cap {R_CAP}")
    lcm = math.lcm(*(c.denominator for c in p.coeffs))
    q = [c.numerator * (lcm // c.denominator) for c in p.coeffs]
    scale = lcm * 2 * r * (2 * r + 1)
    return SincPolynomial(
        r=r + 1, coeffs=tuple(Fraction(v, scale) for v in _step_ints(q, r))
    )


_poly_cache: dict[int, SincPolynomial] = {1: SincPolynomial(1, (Fraction(1),))}
#: Integer numerators Q_r of the highest cached order, where growth resumes.
_poly_top: tuple[int, list[int]] = (1, [1])
_poly_lock = threading.Lock()


def poly_f(r: int) -> SincPolynomial:
    """P_r by iterating the recursion from P_1 = 1, with all invariants checked."""
    global _poly_top
    _check_index(r, "r", 1)
    if r > R_CAP:
        raise SizeLimitError(f"r must be an integer in [1, {R_CAP}], got {_show(r)}")
    if r not in _poly_cache:
        with _poly_lock:
            k, q = _poly_top
            while k < r:
                q = _step_ints(q, k)
                k += 1
                scale = math.factorial(2 * k - 1)
                _check_invariants(k, q, scale)
                # shift out the power of two common to scale and every q[j]:
                # the values stay, each Fraction's gcd shrinks
                low = reduce(or_, q, scale)
                e = (low & -low).bit_length() - 1
                scale >>= e
                _poly_cache[k] = SincPolynomial(
                    k, tuple(Fraction(v >> e, scale) for v in q)
                )
                _poly_top = (k, q)
    return _poly_cache[r]


def poly_route(r: float) -> SincPolynomial | None:
    """P_r where the polynomial route applies (integer r in [1, R_CAP]), else None."""
    n = int(r)
    if r != n or not 1 <= n <= R_CAP:
        return None
    # a polynomial already built is read without poly_f's argument checks
    poly = _poly_cache.get(n)
    return poly_f(n) if poly is None else poly


def _check_invariants(r: int, q: list[int], scale: int) -> None:
    """Exact checks on P_r = q / scale with scale = (2r-1)!."""
    if q[-1] == 0:
        raise CertificateError(f"P_{r} has degree below {r - 1}")
    if any(v < 0 for v in q):
        raise CertificateError(f"P_{r} has a negative coefficient")
    if sum(q) != scale:
        raise CertificateError(f"P_{r} coefficients do not sum to 1")


def poly_eval(p: SincPolynomial, x: float) -> float:
    """Horner evaluation at y = cos^2(pi x), coefficients floated once."""
    if not (x.__class__ is float and 0.0 <= x <= 1.0):
        x = _check_x(x)
    cp = math.cos(math.pi * x)
    y = cp * cp
    acc = 0.0
    for c in reversed(p.float_coeffs):
        acc = acc * y + c
    return acc


def poly_min_certificate(p: SincPolynomial) -> tuple[Fraction, str]:
    """Exact minimum certificate: verify nonnegativity, return (P_r(0), why).

    A negative coefficient would invalidate the argument entirely, so it
    raises rather than returning a wrong certificate.
    """
    for k, c in enumerate(p.coeffs):
        if c < 0:
            raise CertificateError(
                f"coefficient of y^{k} in P_{p.r} is negative ({c}); "
                "nonnegativity certificate fails"
            )
    return p.coeffs[0], _MIN_STATEMENT
