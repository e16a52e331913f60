"""Direct evaluation of the periodic sinc power sum.

The central object is S_r(x) = sum_{m in Z} |sinc(x+m)|^(2r) for r > 1/2,
where sinc is the normalized sin(pi t)/(pi t).  This module owns the typed
surface (EvalPoint, EvalConfig), input validation, and the truncation-order
selection for the direct route; the per-term arithmetic lives in the
backend kernels.

Truncation policy
-----------------
``power_sum`` picks the smallest half-width M >= M_FLOOR such that the
a-priori tail gauge

    P(M) = 4 * |B_8|/8! * s(s+1)...(s+6) * pi^(-s) * (M+1)^(-s-7) + 1e-14

falls below the requested tolerance (s = 2r), stepping M up one at a time
from M_FLOOR (at 1e-12, M is 8 to 16 for every r; above 1e-14, M <= 2,618,
so the scan needs no cap).  The fixed 1e-14 term covers floating-point
accumulation.  In floating point P(M) dominates the tail bound the kernel
reports, which adds prefactor times the two eight-correction
Euler-Maclaurin gauges to the same 1e-14; see docs/derivations.md section
2, and tests/test_core.py, which checks it for r up to 500.  (Where the
eight-correction gauge exceeds P's three-correction term in exact
arithmetic, both are below 3e-54 and vanish into the 1e-14.)  A tolerance
below that floor is therefore refused as unreachable rather than promised
dishonestly.
"""

import math
import sys
from dataclasses import dataclass
from numbers import Real

from . import backend
from ._kernels_py import _EM_COEF, LOG_PI
from .errors import DomainError, PrecisionError, SizeLimitError

#: Smallest admissible exponent parameter.  The sum diverges at r = 1/2;
#: the hard floor keeps callers away from the silent precision loss just
#: above it.
R_MIN = 0.501

#: Largest admissible exponent parameter: above it 2r * pi, the derivative's
#: prefactor, overflows a double.
R_MAX = sys.float_info.max / (2.0 * math.pi)

#: Minimum half-width of the directly summed block.
M_FLOOR = 8

#: Absolute floor of any reported tail bound (floating-point slack).
TOL_FLOOR = backend.FLOAT_SLACK

#: Most points any grid accepts: verify's global-minimum grid and the
#: figure's curves alike.  A larger grid is refused before anything is
#: allocated, so a mistyped size fails at once instead of running for hours.
MAX_GRID_N = 1 << 20


@dataclass(frozen=True, init=False)
class EvalConfig:
    """Evaluation budget: the tolerance the tail bound must meet."""

    target_tol: float = 1e-12

    # The value types write their fields straight into the instance dict:
    # the generated frozen __init__ would set each through object.__setattr__
    # and then call __post_init__.  ``target_tol`` in the signature is the
    # field's default above, read from the class body.  A valid float passes
    # the in-line test without a call; anything else goes through _real.
    def __init__(self, target_tol: float = target_tol):
        if not (target_tol.__class__ is float and 0.0 < target_tol < math.inf):
            target_tol = _real(target_tol, "target_tol")
            if not 0.0 < target_tol < math.inf:  # nan fails it too
                raise DomainError(f"target_tol must be positive, got {_show(target_tol)}")
        self.__dict__["target_tol"] = target_tol


def _show(value) -> str:
    """repr(value) for an error message, which never raises: repr raises
    ValueError for an int longer than ``sys.get_int_max_str_digits()``
    (4300 digits by default), and for a Fraction built of one."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def _real(value, name: str) -> float:
    """The one rule for a real argument: a ``numbers.Real`` other than bool
    (so int, float and Fraction, but not Decimal or complex), returned as a
    float.  Any other type, and a number past the float range, raise
    DomainError naming ``name``.  Each owner of a numeric range rule
    converts through it and compares the float it returns."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise DomainError(f"{name} must be a real number, got {_show(value)}")
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{name} is past the float range, got {_show(value)}") from None


def _check_x(x: float) -> float:
    """The one rule for evaluation points: 0 <= x <= 1; returns x as a
    float.  Per-point paths test a float in line and call this only
    otherwise, saving a call per point."""
    x = _real(x, "x")
    if not 0.0 <= x <= 1.0:  # nan fails it too
        raise DomainError(f"x must lie in [0,1], got {_show(x)}")
    return x


def _check_index(n: int, name: str, least: int) -> None:
    """The one rule for counts and exact-table indices: an int, not a bool,
    no less than ``least``."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise DomainError(f"{name} must be an integer, got {_show(n)}")
    if n < least:
        raise DomainError(f"{name} must be >= {least}, got {_show(n)}")


def check_grid_cap(grid_n: int) -> None:
    """Refuse a grid of more than MAX_GRID_N points with SizeLimitError."""
    if grid_n > MAX_GRID_N:
        raise SizeLimitError(f"grid of {_show(grid_n)} points exceeds cap {MAX_GRID_N}")


@dataclass(frozen=True, init=False)
class EvalPoint:
    """Exponent parameter r and evaluation point x in [0,1]."""

    r: float
    x: float

    def __init__(self, r: float, x: float):
        if not (
            r.__class__ is float and x.__class__ is float
            and R_MIN < r <= R_MAX and 0.0 <= x <= 1.0
        ):
            # not two floats, or out of range: convert both, then name the
            # first rule broken, in order: a non-number, a non-finite point,
            # then r, then x
            r = _real(r, "r")
            x = _real(x, "x")
            if not (math.isfinite(r) and math.isfinite(x)):
                raise DomainError(f"non-finite evaluation point ({_show(r)}, {_show(x)})")
            if r <= R_MIN:
                raise DomainError(f"r must exceed {R_MIN} (sum diverges at 1/2), got {_show(r)}")
            if r > R_MAX:
                raise DomainError(f"r must be at most {R_MAX} (2r*pi overflows), got {_show(r)}")
            _check_x(x)
        fields = self.__dict__
        fields["r"] = r
        fields["x"] = x


DEFAULT_CONFIG = EvalConfig()


def _check_sinc_arg(x: float, func: str) -> float:
    """The rule for sinc's and sinc_sq's argument: any finite real number;
    returns it as a float."""
    x = _real(x, "x")
    if not math.isfinite(x):
        raise DomainError(f"{func} requires finite input, got {_show(x)}")
    return x


def sinc(x: float) -> float:
    """Normalized sinc sin(pi*x)/(pi*x); 1 at x = 0; even; |sinc| <= 1."""
    return backend.sinc(_check_sinc_arg(x, "sinc"))


def sinc_sq(x: float) -> float:
    """Square of the normalized sinc; vanishes exactly at nonzero integers."""
    return backend.sinc_sq(_check_sinc_arg(x, "sinc_sq"))


def _gauge_coeff(s: float) -> float:
    """4 |B_8|/8! * s(s+1)...(s+6) * pi^(-s): the tail gauge less (m+1)^(-s-7)."""
    decay = math.exp(-s * LOG_PI)
    if decay == 0.0:
        # pi^(-s) underflowed, so the gauge is TOL_FLOOR for any finite
        # Pochhammer factor; from s ~ 1e44 on that factor overflows too,
        # and inf * 0 would turn the gauge into NaN.
        return 0.0
    # s(s+1)...(s+6), multiplied in that order; float literals, as an int
    # would be converted to the same float on every call
    poch = s * (s + 1.0) * (s + 2.0) * (s + 3.0) * (s + 4.0) * (s + 5.0) * (s + 6.0)
    # -_EM_COEF[3] = |B_8|/8!
    return 4.0 * -_EM_COEF[3] * poch * decay


def select_m_terms(r: float, target_tol: float) -> int:
    """Smallest block half-width whose tail gauge meets ``target_tol``.

    Raises PrecisionError for a tolerance at or below the floating-point
    floor, carrying TOL_FLOOR, the gauge's limit as M grows, as the
    achieved bound.
    """
    if target_tol <= TOL_FLOOR:
        raise PrecisionError(
            f"target_tol {target_tol:g} is below the floating-point floor "
            f"{TOL_FLOOR:g}",
            achieved_bound=TOL_FLOOR,
        )
    s = 2.0 * r
    coeff = _gauge_coeff(s)
    exponent = -s - 7.0
    m = M_FLOOR
    while coeff * (m + 1.0) ** exponent + TOL_FLOOR > target_tol:
        m += 1
    return m


def power_sum(p: EvalPoint, cfg: EvalConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """Direct evaluation of S_r(x); returns ``(value, tail_bound)``.

    The true sum differs from ``value`` by at most ``tail_bound``, which is
    itself at most ``cfg.target_tol``.
    """
    m = select_m_terms(p.r, cfg.target_tol)
    return backend.power_sum_fixed(p.r, p.x, m)
