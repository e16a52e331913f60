"""Transference constants derived from the power sum minimum.

For dual exponent q >= 2 the minimum of x -> sum_m |sinc(x+m)|^q over the
period is

    min_constant(q) = 2 (2^q - 1) zeta(q) / pi^q,

because sum_{m in Z} |1/2 + m|^(-q) = 2 (2^q - 1) zeta(q).  The torus-to-line
norm comparison factor is min_constant(q)^(-d/q) = pi^d / (2(2^q-1)zeta(q))^(d/q),
always at most the crude bound (pi/2)^d since the half-shifted lattice norm
(2(2^q-1)zeta(q))^(1/q) is at least 2 for every q >= 2.  It is computed as
(pi/2)^d * exp(-(d/q) log(2(1-2^-q)zeta(q))), whose exponent is negative, so
the reported factor never exceeds the reported crude bound.

At even q = 2n the minimum is the rational T_n / (2n-1)!, with T_n the n-th
tangent number (docs/derivations.md, section 8).

Only these multiplicative factors are computed here; the operator norms they
compare are Banach-space dependent and out of scope.  All q-power work is in
log space so the formulas stay finite for q in the thousands.
"""

import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from ._kernels_py import LOG_PI
from .core import _check_index, _real, _show
from .errors import DomainError
from .specfun import BERNOULLI_CAP, _tangent_table, hurwitz_zeta

_LOG2 = math.log(2.0)

#: Largest dimension whose crude bound (pi/2)^d is a finite double (1571).
CRUDE_D_MAX = int(math.log(sys.float_info.max) / math.log(0.5 * math.pi))


@dataclass(frozen=True)
class ConstantQuery:
    """Dual exponent q = 2r and dimension d; p is implied by 1/p + 1/q = 1."""

    q: float
    d: int = 1

    def __post_init__(self):
        object.__setattr__(self, "q", _check_q(self.q))  # stored as a float
        _check_index(self.d, "d", 1)


@dataclass(frozen=True)
class ConstantReport:
    """Numeric factors for one (q, d) query; exact rational when q is an even
    integer up to BERNOULLI_CAP, None otherwise.  ``log_c_q`` stays finite
    where ``c_q`` underflows to 0.0 (from q ~ 1652 on)."""

    q: float
    d: int
    c_q: float
    log_c_q: float
    factor: float
    crude: float
    exact_c_q: Fraction | None

    def to_json_dict(self) -> dict:
        exact = self.exact_c_q
        return {
            "q": self.q,
            "d": self.d,
            "c_q": self.c_q,
            "log_c_q": self.log_c_q,
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
    """log zeta(q) for q >= 2, switching to the raw series for large q.

    Past q = 50 the terms k^-q from k = 5 on sum to under 2e-35, far below
    half an ulp of 2^-q, so the first three terms give zeta(q) - 1.
    """
    if q <= 50.0:
        return math.log(hurwitz_zeta(q, 1.0))
    return math.log1p(2.0**-q + 3.0**-q + 4.0**-q)


def _check_q(q: float) -> float:
    """The one rule for the dual exponent: 2 <= q < inf; returns q as a float."""
    q = _real(q, "q")
    if not 2.0 <= q < math.inf:  # nan fails it too
        raise DomainError(f"q must be a finite number >= 2, got {_show(q)}")
    return q


def _log_sums(q: float) -> tuple[float, float, float]:
    """(log h, log c_q, excess) with one zeta evaluation: h = 2 (2^q - 1) zeta(q)
    is the half-shifted sum, c_q = h / pi^q, and excess = log h - q log 2."""
    q = _check_q(q)
    log_zeta = _log_zeta(q)
    shrink = math.log1p(-(2.0 ** (-q)))
    log_h = _LOG2 + q * _LOG2 + shrink + log_zeta
    return log_h, log_h - q * LOG_PI, _LOG2 + shrink + log_zeta


def min_constant(q: float) -> float:
    """Global minimum 2(2^q - 1) zeta(q) / pi^q of the q-th power sinc sum."""
    return math.exp(_log_sums(q)[1])


def exact_min_constant(n: int) -> Fraction:
    """Exact rational value of min_constant(2n): T_n / (2n-1)!.

    (2^{2n}-1) 2^{2n} |B_{2n}| / (2n)! simplifies to this with
    B_{2n} = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)), so the tangent table is
    indexed and no Bernoulli number is formed.
    """
    _check_index(n, "n", 1)
    return Fraction(_tangent_table(n)[n - 1], math.factorial(2 * n - 1))


def crude_bound(d: int) -> float:
    """(pi/2)^d, the dimension-d bound that needs no zeta evaluation."""
    _check_index(d, "d", 1)
    if d > CRUDE_D_MAX:
        raise DomainError(
            f"d = {d} is too large: (pi/2)^d overflows a double above "
            f"d = {CRUDE_D_MAX}, the largest supported d"
        )
    return (0.5 * math.pi) ** d


def transference_factor(query: ConstantQuery) -> ConstantReport:
    """Full report for one query: minimum constant, comparison factor, bounds."""
    q, d = query.q, query.d
    crude = crude_bound(d)
    _, log_c, excess = _log_sums(q)
    # log c_q = excess - q log(pi/2) with excess = log(2 (1 - 2^-q) zeta(q)) > 0,
    # so factor = crude * exp(-(d/q) excess) <= crude holds in floating point
    # too, and the cancellation of q log(pi/2) against log c_q never happens.
    factor = crude * math.exp(-(d / q) * excess)
    exact = None
    if q == int(q) and int(q) % 2 == 0 and q <= BERNOULLI_CAP:
        exact = exact_min_constant(int(q) // 2)
    return ConstantReport(
        q=q,
        d=d,
        c_q=math.exp(log_c),
        log_c_q=log_c,
        factor=factor,
        crude=crude,
        exact_c_q=exact,
    )


def lq_norm_halfshift(q: float) -> float:
    """(sum_{m in Z} |1/2 + m|^(-q))^(1/q); >= 2, nonincreasing, -> 2."""
    return math.exp(_log_sums(q)[0] / q)
