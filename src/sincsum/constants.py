"""Transference constants derived from the power sum minimum.

For dual exponent q >= 2 the minimum of x -> sum_m |sinc(x+m)|^q over the
period is

    min_constant(q) = 2 (2^q - 1) zeta(q) / pi^q,

because sum_{m in Z} |1/2 + m|^(-q) = 2 (2^q - 1) zeta(q).  The torus-to-line
norm comparison factor is min_constant(q)^(-d/q) = pi^d / (2(2^q-1)zeta(q))^(d/q),
always at most the crude bound (pi/2)^d since the half-shifted lattice norm
(2(2^q-1)zeta(q))^(1/q) is at least 2 for every q >= 2.

Only these multiplicative factors are computed here; the operator norms they
compare are Banach-space dependent and out of scope.  All q-power work is in
log space so the formulas stay finite for q in the thousands.
"""

import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .errors import DomainError
from .specfun import BERNOULLI_CAP, bernoulli, hurwitz_zeta

_LOG2 = math.log(2.0)
_LOG_PI = math.log(math.pi)

#: Largest dimension whose crude bound (pi/2)^d is a finite double (1571).
CRUDE_D_MAX = int(math.log(sys.float_info.max) / math.log(0.5 * math.pi))


@dataclass(frozen=True)
class ConstantQuery:
    """Dual exponent q = 2r and dimension d; p is implied by 1/p + 1/q = 1."""

    q: float
    d: int = 1

    def __post_init__(self):
        if not math.isfinite(self.q) or self.q < 2.0:
            raise DomainError(f"q must be >= 2, got {self.q}")
        if self.d < 1:
            raise DomainError(f"d must be >= 1, got {self.d}")


@dataclass(frozen=True)
class ConstantReport:
    """Numeric factors for one (q, d) query; exact rational when q is an even
    integer up to BERNOULLI_CAP, None otherwise."""

    q: float
    d: int
    c_q: float
    factor: float
    crude: float
    exact_c_q: Fraction | None

    def to_json_dict(self) -> dict:
        exact = self.exact_c_q
        return {
            "q": self.q,
            "d": self.d,
            "c_q": self.c_q,
            "factor": self.factor,
            "crude": self.crude,
            "exact_c_q": None
            if exact is None
            else f"{_digits(exact.numerator)}/{_digits(exact.denominator)}",
        }


def _digits(n: int) -> str:
    """Decimal digits of n.  ``str(n)`` refuses integers longer than
    ``sys.get_int_max_str_digits()`` (4300 by default), which the exact
    constants pass from q = 1724 on; ``Decimal(n)`` is exact at any size."""
    return str(Decimal(n))


def _log_zeta(q: float) -> float:
    """log zeta(q) for q >= 2, switching to the raw series for large q."""
    if q <= 50.0:
        return math.log(hurwitz_zeta(q, 1.0))
    excess = 0.0
    k = 2
    while True:
        term = k ** (-q)
        excess += term
        if term < 1e-30:
            break
        k += 1
    return math.log1p(excess)


def _log_halfshift_sum(q: float) -> float:
    """log of sum_{m in Z} |1/2 + m|^(-q) = log(2 (2^q - 1) zeta(q))."""
    return _LOG2 + q * _LOG2 + math.log1p(-(2.0 ** (-q))) + _log_zeta(q)


def min_constant(q: float) -> float:
    """Global minimum 2(2^q - 1) zeta(q) / pi^q of the q-th power sinc sum."""
    if not math.isfinite(q) or q < 2.0:
        raise DomainError(f"q must be >= 2, got {q}")
    return math.exp(_log_halfshift_sum(q) - q * _LOG_PI)


def exact_min_constant(n: int) -> Fraction:
    """Exact rational value of min_constant(2n): (2^{2n}-1) 2^{2n} |B_{2n}| / (2n)!."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    b2n = bernoulli(2 * n)[2 * n]
    return Fraction((2 ** (2 * n) - 1) * 2 ** (2 * n)) * abs(b2n) / math.factorial(2 * n)


def crude_bound(d: int) -> float:
    """(pi/2)^d, the dimension-d bound that needs no zeta evaluation."""
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if d > CRUDE_D_MAX:
        raise DomainError(
            f"d = {d} is too large: (pi/2)^d overflows a double above "
            f"d = {CRUDE_D_MAX}, the largest supported d"
        )
    return (0.5 * math.pi) ** d


def transference_factor(query: ConstantQuery) -> ConstantReport:
    """Full report for one query: minimum constant, comparison factor, bounds."""
    q, d = query.q, query.d
    # factor <= crude, so checking crude's range first keeps exp() finite.
    crude = crude_bound(d)
    log_c = _log_halfshift_sum(q) - q * _LOG_PI
    factor = math.exp(-(d / q) * log_c)
    exact = None
    if q == int(q) and int(q) % 2 == 0 and q <= BERNOULLI_CAP:
        exact = exact_min_constant(int(q) // 2)
    return ConstantReport(
        q=q,
        d=d,
        c_q=math.exp(log_c),
        factor=factor,
        crude=crude,
        exact_c_q=exact,
    )


def lq_norm_halfshift(q: float) -> float:
    """(sum_{m in Z} |1/2 + m|^(-q))^(1/q); >= 2, nonincreasing, -> 2."""
    if not math.isfinite(q) or q < 2.0:
        raise DomainError(f"q must be >= 2, got {q}")
    return math.exp(_log_halfshift_sum(q) / q)
