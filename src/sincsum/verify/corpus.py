"""The fixed corpus of certified sign claims behind the minimum result.

Every entry carries the inequality expression, a hand-derived derivative
expression for the mean-value refinement, the equality points where the
claim is tight, and a self-contained statement string.  The derivative
expressions are plain calculus on the statements; tests cross-check each
one against finite differences of its expression.

Families
--------
sqrt2_sin_lower          sqrt(2) sin(pi x/4) - x >= 0 on [0,1]
cos_vs_parabola          (1 - x^2) - cos(pi x/2) >= 0 on [0,1]
weighted_cos_quartic     (x^2+1) cos^2(pi x/2) - (1-x^2)^2 >= 0 on [0,1]
near_pair_min_at_half    k(x) + k(x-1) - 8/pi^2 >= 0 on [0,1]
far_pair_max_at_half_mNN 2/(pi(m+1/2))^2 - k(x+m) - k(x-(m+1)) >= 0 on [0,1]
ratio_deriv_sign_MNN     cleared-numerator derivative of
                         sqrt(x^2+1) cos(pi x/2)/(M^2-x^2) is <= 0 on [0,1]
power_gap_deriv_rT       derivative of the power-mean gap
                         (1/2-x)^2+(1/2+x)^2 - ((1/2-x)^{2r}+(1/2+x)^{2r})^{1/r}
                         is <= 0 on [0,1/2]
translate_quartic_mNN    4x (4x^4 + (1-12a^2)x^2 + 3a^2-8a^4) <= 0 on [0,1/2],
                         a = m + 1/2

where k is the squared normalized sinc.  The far translate pairs
(|m| >= 1) peak at x = 1/2 while the near pair dips there; together with
the power-mean gap monotonicity these order every translate pair between
its value at 1/2 and the threshold 4/pi^2, which is the ordering the
global-minimum argument feeds to the majorization step.
"""

import math

from .certify import CertifiedInequality
from .interval import PI_I, SQRT2_I, Interval, dsinc_iv, sinc_iv

#: Sorting threshold separating the head pair from the far translate pairs.
THRESHOLD = 4.0 / (math.pi * math.pi)

_G_HALF = 8.0 / PI_I.sq()  # enclosure of the near-pair value at x = 1/2


def _sqrt2_sin_lower() -> CertifiedInequality:
    quarter_pi = PI_I / 4.0

    def expr(x):
        return SQRT2_I * (quarter_pi * x).sin() - x

    def dexpr(x):
        return SQRT2_I * quarter_pi * (quarter_pi * x).cos() - 1.0

    return CertifiedInequality(
        id="sqrt2_sin_lower",
        domain=Interval(0.0, 1.0),
        expression=expr,
        dexpression=dexpr,
        claim="nonnegative",
        equality_points=(0.0, 1.0),
        description="sqrt(2)*sin(pi*x/4) - x >= 0 on [0,1]",
    )


def _cos_vs_parabola() -> CertifiedInequality:
    half_pi = PI_I / 2.0

    def expr(x):
        return 1.0 - x.sq() - (half_pi * x).cos()

    def dexpr(x):
        return half_pi * (half_pi * x).sin() - 2.0 * x

    return CertifiedInequality(
        id="cos_vs_parabola",
        domain=Interval(0.0, 1.0),
        expression=expr,
        dexpression=dexpr,
        claim="nonnegative",
        equality_points=(0.0, 1.0),
        description="(1 - x^2) - cos(pi*x/2) >= 0 on [0,1]",
    )


def _weighted_cos_quartic() -> CertifiedInequality:
    half_pi = PI_I / 2.0

    def expr(x):
        c = (half_pi * x).cos()
        return (x.sq() + 1.0) * c.sq() - (1.0 - x.sq()).sq()

    def dexpr(x):
        c = (half_pi * x).cos()
        s = (half_pi * x).sin()
        return 2.0 * x * c.sq() - (x.sq() + 1.0) * PI_I * c * s + 4.0 * x * (
            1.0 - x.sq()
        )

    return CertifiedInequality(
        id="weighted_cos_quartic",
        domain=Interval(0.0, 1.0),
        expression=expr,
        dexpression=dexpr,
        claim="nonnegative",
        equality_points=(0.0, 1.0),
        description="(x^2+1)*cos(pi*x/2)^2 - (1-x^2)^2 >= 0 on [0,1]",
    )


def _near_pair_min_at_half() -> CertifiedInequality:
    def expr(x):
        return sinc_iv(x).sq() + sinc_iv(x - 1.0).sq() - _G_HALF

    def dexpr(x):
        return 2.0 * sinc_iv(x) * dsinc_iv(x) + 2.0 * sinc_iv(x - 1.0) * dsinc_iv(
            x - 1.0
        )

    return CertifiedInequality(
        id="near_pair_min_at_half",
        domain=Interval(0.0, 1.0),
        expression=expr,
        dexpression=dexpr,
        claim="nonnegative",
        equality_points=(0.5,),
        description="sinc_sq(x) + sinc_sq(x-1) - 8/pi^2 >= 0 on [0,1]",
    )


def _far_pair_max_at_half(m: int) -> CertifiedInequality:
    peak = 2.0 / (PI_I * (m + 0.5)).sq()  # pair value at x = 1/2

    def expr(x):
        return peak - sinc_iv(x + m).sq() - sinc_iv(x - (m + 1.0)).sq()

    def dexpr(x):
        return -2.0 * sinc_iv(x + m) * dsinc_iv(x + m) - 2.0 * sinc_iv(
            x - (m + 1.0)
        ) * dsinc_iv(x - (m + 1.0))

    return CertifiedInequality(
        id=f"far_pair_max_at_half_m{m:02d}",
        domain=Interval(0.0, 1.0),
        expression=expr,
        dexpression=dexpr,
        claim="nonnegative",
        equality_points=(0.5,),
        description=(
            f"2/(pi*({m}+1/2))^2 - sinc_sq(x+{m}) - sinc_sq(x-{m + 1}) >= 0 on [0,1]"
        ),
    )


def _ratio_deriv_sign(big_m: int) -> CertifiedInequality:
    # Cleared-numerator form of d/dx [sqrt(x^2+1) cos(pi x/2) / (M^2 - x^2)]:
    # the ratio decreases on [0,1] iff
    # 2x (M^2+x^2+2) cos(pi x/2) - pi (M^2 - x^4 + (M^2-1) x^2) sin(pi x/2) <= 0.
    msq = float(big_m * big_m)
    half_pi = PI_I / 2.0

    def expr(x):
        c = (half_pi * x).cos()
        s = (half_pi * x).sin()
        return 2.0 * x * (x.sq() + (msq + 2.0)) * c - PI_I * (
            msq - x.powi(4) + (msq - 1.0) * x.sq()
        ) * s

    def dexpr(x):
        c = (half_pi * x).cos()
        s = (half_pi * x).sin()
        t1 = 2.0 * ((msq + 2.0) + 3.0 * x.sq()) * c
        t2 = PI_I * x * (x.sq() + (msq + 2.0)) * s
        t3 = PI_I * (2.0 * (msq - 1.0) * x - 4.0 * x.powi(3)) * s
        t4 = PI_I * (msq - x.powi(4) + (msq - 1.0) * x.sq()) * half_pi * c
        return t1 - t2 - t3 - t4

    return CertifiedInequality(
        id=f"ratio_deriv_sign_M{big_m:02d}",
        domain=Interval(0.0, 1.0),
        expression=expr,
        dexpression=dexpr,
        claim="nonpositive",
        equality_points=(0.0,),
        description=(
            f"2x({big_m}^2+x^2+2)cos(pi*x/2) - pi({big_m}^2 - x^4 + "
            f"({big_m}^2-1)x^2)sin(pi*x/2) <= 0 on [0,1]"
        ),
    )


def _power_gap_deriv(r: float, tag: str) -> CertifiedInequality:
    # d/dx of (1/2-x)^2 + (1/2+x)^2 - ((1/2-x)^{2r} + (1/2+x)^{2r})^{1/r}
    # equals 4x - 2 S^{1/r-1} (a^{2r-1} - b^{2r-1}) with a = 1/2+x, b = 1/2-x,
    # S = a^{2r} + b^{2r}.  All exponents 2r, 2r-1, 2r-2 are integers for the
    # sampled r, so only S is raised to a real power.
    two_r = int(round(2.0 * r))
    c = 1.0 / r - 1.0

    def expr(x):
        a = x + 0.5
        b = 0.5 - x
        s_pow = (a.powi(two_r) + b.powi(two_r)).pow_real(c)
        return 4.0 * x - 2.0 * s_pow * (a.powi(two_r - 1) - b.powi(two_r - 1))

    def dexpr(x):
        a = x + 0.5
        b = 0.5 - x
        s = a.powi(two_r) + b.powi(two_r)
        t = a.powi(two_r - 1) - b.powi(two_r - 1)
        term1 = (2.0 * r * c) * s.pow_real(c - 1.0) * t.sq()
        term2 = (2.0 * r - 1.0) * s.pow_real(c) * (
            a.powi(two_r - 2) + b.powi(two_r - 2)
        )
        return 4.0 - 2.0 * (term1 + term2)

    return CertifiedInequality(
        id=f"power_gap_deriv_r{tag}",
        domain=Interval(0.0, 0.5),
        expression=expr,
        dexpression=dexpr,
        claim="nonpositive",
        equality_points=(0.0, 0.5),
        description=(
            f"4x - 2((1/2+x)^{two_r} + (1/2-x)^{two_r})^(1/{r}-1) * "
            f"((1/2+x)^{two_r - 1} - (1/2-x)^{two_r - 1}) <= 0 on [0,1/2]"
        ),
    )


def _translate_quartic(m: int) -> CertifiedInequality:
    # With a = m + 1/2, decreasingness of ((a+x)^-2 + (a-x)^-2)(1-4x^2)^2
    # on [0,1/2] reduces to 4x * p(x^2) <= 0 with
    # p(y) = 4y^2 + (1-12a^2) y + (3a^2 - 8a^4); all coefficients are exact
    # in doubles for m <= 10.
    a = m + 0.5
    c2 = 1.0 - 12.0 * a * a
    c0 = 3.0 * a * a - 8.0 * a**4

    def expr(x):
        return 4.0 * x * (4.0 * x.powi(4) + c2 * x.sq() + c0)

    def dexpr(x):
        return 80.0 * x.powi(4) + 12.0 * c2 * x.sq() + 4.0 * c0

    return CertifiedInequality(
        id=f"translate_quartic_m{m:02d}",
        domain=Interval(0.0, 0.5),
        expression=expr,
        dexpression=dexpr,
        claim="nonpositive",
        equality_points=(0.0,),
        description=(
            f"4x*(4x^4 + ({c2:.12g})x^2 + ({c0:.12g})) <= 0 on [0,1/2] "
            f"(a = {m} + 1/2)"
        ),
    )


_POWER_GAP_SAMPLES = ((1.0, "1"), (1.5, "1p5"), (2.0, "2"), (3.0, "3"), (5.0, "5"))


def corpus() -> list[CertifiedInequality]:
    """The full fixed registry, in deterministic order."""
    entries = [
        _sqrt2_sin_lower(),
        _cos_vs_parabola(),
        _weighted_cos_quartic(),
        _near_pair_min_at_half(),
    ]
    entries.extend(_far_pair_max_at_half(m) for m in range(1, 11))
    entries.extend(_ratio_deriv_sign(big_m) for big_m in range(3, 11))
    entries.extend(_power_gap_deriv(r, tag) for r, tag in _POWER_GAP_SAMPLES)
    entries.extend(_translate_quartic(m) for m in range(1, 11))
    return entries


def quartic_coefficient_margin() -> float:
    """Scalar margin in the weighted_cos_quartic certificate.

    The x in [0,1/2] branch of that inequality needs
    (1 - pi^2/4) + (1/4)(pi^4/64 - pi^2/4 - 1) > -2; the value is about
    -1.9537471, leaving a margin of about 0.046.
    """
    return (1.0 - math.pi**2 / 4.0) + 0.25 * (
        math.pi**4 / 64.0 - math.pi**2 / 4.0 - 1.0
    )
