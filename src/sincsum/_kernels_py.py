"""Pure-Python scalar kernels for the periodic sinc power sum.

This module is one of two interchangeable backends (the other is the C
twin ``sincsum._kernels_c``, built from ``_kernels_c.c``); ``sincsum.backend``
picks one at import time.  Everything here is a plain function of floats with
no package dependencies.  The twin contract is the same floating-point
operations in the same order, so both return the same floats bit for bit;
the loops need not match statement for statement.  A nan is the exception:
the twins return a nan for the same inputs, but not the same nan bits.
The sign and payload of a nan are set by the platform (x86's default NaN
is negative, AArch64's positive), and this module substitutes
``math.nan`` where Python raises and C returns a nan.  The direct route's
central block is one of two plain loops, picked once per call: one writes
``sinc``'s plain branch in line, for the inputs where that branch applies
to every term (see the ``power_sum_fixed`` paragraph below), and the other
calls the scalar kernel.  ``zeta_em``'s eight corrections and its eight
leading terms are written out in line.  The three lattice-sum kernels and
the derivative are compositions of one set of pieces, and
``power_sum_routes`` runs both routes in one pass that forms their shared
terms once (last paragraph below).

Definitions
-----------
``sinc(x)``
    Normalized sinc, sin(pi*x)/(pi*x), continuously extended to 1 at x = 0.
``sinc_sq(x)``
    Its square; the nonnegative kernel whose integer translates are summed.
``power_sum_*`` family
    S_r(x) = sum over all integers m of |sinc(x+m)|^(2r), the periodic
    power sum; it converges for r > 1/2, has period 1, and is symmetric
    about x = 1/2.
``zeta_em(s, a)``
    Hurwitz zeta sum_{k>=0} (k+a)^(-s) for s > 1, a > 0.

Error control
-------------
``zeta_em`` uses Euler-Maclaurin: after N leading terms (w := N + a),

    zeta(s,a) = sum_{k<N} (k+a)^(-s) + w^(1-s)/(s-1) + w^(-s)/2
                + sum_{j=1..8} B_{2j}/(2j)! * s(s+1)...(s+2j-2) * w^(-s-2j+1)
                + R,

where for real s > 1 the remainder R is bounded in absolute value by the
first omitted correction term (the integrand t -> (t+a)^(-s) is completely
monotone, so the correction series is enveloping).  There is one pass, with
the smallest block that puts w at 8 or more: N = 0 when a >= 8, else N = 8.
There the gauge, which bounds the truncation error, is below 4.6e-16 for
every s > 1, so no second pass is ever needed.  The direct route's tails
(a = M+1+-x >= 8) thus sum no leading term and the closed-form routes
(a in (1, 2)) sum eight; docs/derivations.md section 1 has the gauge table
and the accuracy contract.

``power_sum_fixed`` sums the 2M+1 central terms directly, largest |m| first
with Kahan compensation, then adds the two analytic tails.  The terms with
m != 0, -1 are summed in one loop over the offsets m = M, -M, M-1, ...,
2, -2, 1, which skips zero terms; the m = -1 term, which ``_heads`` forms,
follows with the same Kahan step, and the m = 0 term comes last.  The
loop is chosen once, before it starts.  Its terms are ``sinc``'s plain
branch in line, t = pi*(x + m) and exp(s*log|sin(t)/t|), where the scalar
``sinc`` would take that branch for every offset and ``exp`` cannot
overflow: M < OFFSET_LIMIT, s > 0, x >= ROUND_MARGIN and
1 - x >= ROUND_MARGIN.  There no x + m rounds to an integer (the margin
rule beside the constants), and |x + m| >= 1 > SERIES_SWITCH, since the
loop holds no m = 0 or m = -1.  1 - x is exact for x >= 1/2, so the last
condition is |x - 1| >= ROUND_MARGIN exactly.  Elsewhere the other loop
takes each term from ``sinc`` and ``_abs_pow``.

For m > M every term factors as (|sin(pi*x)|/pi)^(2r) * (m +- x)^(-2r), so
each tail equals that prefactor times a Hurwitz zeta value at argument
M+1+-x, which ``zeta_em`` evaluates with a proven remainder gauge.  The
reported ``tail_bound`` is prefactor * (left gauge + right gauge) plus a
fixed 1e-14 floating-point slack covering rounding of the compensated sum.

``power_sum_fixed``, ``power_sum_zeta``, ``power_sum_routes`` and
``power_sum_deriv`` are each a straight composition of the same pieces,
and none calls another.  ``_sines`` forms sinc(x), sinc(x - 1) and
sin(pi*x), signed, each sinc in its plain branch in line where it applies,
and the prefactor (|sin(pi*x)|/pi)^(2r); ``_heads`` takes from it the
m = 0 term |sinc(x)|^(2r), the m = -1 term |sinc(x - 1)|^(2r) and the
prefactor, which is 0.0 where sin(pi*x) is.  ``_em_factors`` forms the
eight Euler-Maclaurin factors, which depend on s alone, and ``_direct``
and ``_closed_form`` finish each route, summing their Hurwitz zeta values
with ``_zeta_em``.  ``_closed_form`` owns the endpoint rule: for x <= 0 or
x >= 1 it returns the continuous value 1.  So ``power_sum_routes`` returns
``(*power_sum_fixed(r, x, m_terms), power_sum_zeta(r, x))`` bit for bit in
one pass, for every input: it forms the heads and the prefactor once, and
the four Hurwitz zeta sums, two tails and the closed form's pair, share
one set of Euler-Maclaurin factors.  ``power_sum_deriv`` reads the sinc
values, sin(pi*x) and the prefactor from ``_sines`` and adds only its own
parts: ``dsinc``, cos(pi*x), ``_head_deriv`` and the prefactor's
derivative.  Like ``_closed_form`` it sums the Hurwitz zeta pair at
(1 + x, 2 - x) in line, at s and at s + 1: a helper shared by the two
would add a Python call to every ``evaluate``.
"""

import math
from itertools import chain, islice

PI = math.pi
LOG_PI = math.log(math.pi)

# B_{2j}/(2j)! for j = 1..8, exact rationals rounded once to double.
_EM_COEF = (
    1.0 / 12.0,
    -1.0 / 720.0,
    1.0 / 30240.0,
    -1.0 / 1209600.0,
    1.0 / 47900160.0,
    -691.0 / 1307674368000.0,
    1.0 / 74724249600.0,
    -3617.0 / 10670622842880000.0,
)
# |B_18|/18!, the gauge coefficient for the first omitted correction.
_EM_NEXT = 43867.0 / 5109094217170944000.0

# Floating-point slack added to every reported tail bound: covers Kahan
# summation residue and the final few uncommitted roundings.
FLOAT_SLACK = 1e-14

# The two rules every lattice-sum term is built from.  ``sinc`` takes its
# Taylor polynomial below |x| = SERIES_SWITCH.  No x + m rounds onto an
# integer for |m| < OFFSET_LIMIT where x and 1 - x are both at least
# ROUND_MARGIN: floats below 2^20 are at most 2^-33 apart, so rounding
# moves x + m by at most 2^-34, under a tenth of the margin.
SERIES_SWITCH = 1e-4
OFFSET_LIMIT = 1 << 20
ROUND_MARGIN = 1e-9


def backend_name() -> str:
    return "python"


def sinc(x: float) -> float:
    """sin(pi*x)/(pi*x) with the removable singularity filled in.

    Below |x| = SERIES_SWITCH (1e-4) the quotient is replaced by the
    Taylor polynomial 1 - (pi*x)^2/6 + (pi*x)^4/120; the first omitted term
    is below 2e-25 there, so the switch keeps relative error at machine
    epsilon without the cancellation of evaluating sin at denormal-scale
    arguments.
    """
    if abs(x) < SERIES_SWITCH:
        t = PI * x
        u = t * t
        return 1.0 - u / 6.0 + (u * u) / 120.0
    try:
        if x == math.floor(x):
            return 0.0  # sin(pi*m) is exactly 0 at integers; libm's is not
    except OverflowError:
        return 0.0  # x = +-inf, which C's floor returns unchanged
    except ValueError:
        return math.nan  # x = nan
    t = PI * x
    return math.sin(t) / t


def sinc_sq(x: float) -> float:
    """sinc(x)**2, the translate kernel of the power sum."""
    s = sinc(x)
    return s * s


# d/dx sinc(x) = (cos(pi*x) - sinc(x))/x; near zero that difference cancels,
# so use sinc'(x) = pi^2 * x * G((pi*x)^2) with the alternating series
# G(u) = -1/3 + u/30 - u^2/840 + ..., coefficients (-1)^k 2k/(2k+1)!.
_DSINC_COEF = (
    -1.0 / 3.0,
    1.0 / 30.0,
    -1.0 / 840.0,
    1.0 / 45360.0,
    -1.0 / 3991680.0,
    1.0 / 518918400.0,
    -7.0 / 653837184000.0,
    1.0 / 22230464256000.0,
)


def dsinc(x: float) -> float:
    """Derivative of the normalized sinc."""
    if abs(x) < 0.125:
        u = (PI * x) * (PI * x)
        g = _DSINC_COEF[7]
        for k in range(6, -1, -1):
            g = g * u + _DSINC_COEF[k]
        return PI * PI * x * g
    try:
        return (math.cos(PI * x) - sinc(x)) / x
    except ValueError:
        return math.nan  # x = +-inf, where C's cos gives nan


def _pow(x: float, y: float) -> float:
    """x ** y, with C's pow result where Python raises or goes complex.

    On overflow, and for zero to a negative power, C returns an infinity
    whose sign is that of x when y is an odd integer and + otherwise; for a
    negative x and a non-integer y it returns nan, also where Python's
    complex result would overflow.
    """
    try:
        v = x ** y
    except (OverflowError, ZeroDivisionError):
        if x < 0.0 and y != math.floor(y):
            return math.nan
        return math.copysign(math.inf, x) if y % 2.0 == 1.0 else math.inf
    return math.nan if v.__class__ is complex else v


def _div(x: float, y: float) -> float:
    """x / y, with C's quotient (an infinity or nan) for a zero divisor."""
    try:
        return x / y
    except ZeroDivisionError:
        if x == 0.0 or x != x:
            return math.nan
        return math.copysign(math.inf, x) * math.copysign(1.0, y)


def _em_factors(s: float) -> tuple[float, ...]:
    """The eight factors (s + 2j - 1)(s + 2j), j = 1..8, by which each
    Euler-Maclaurin correction is carried to the next.

    They depend on s alone, so a kernel that sums several Hurwitz zeta
    values at one s forms them once and hands them to ``_zeta_em``.
    """
    u1, u2, u3, u4 = s + 2.0, s + 4.0, s + 6.0, s + 8.0
    u5, u6, u7, u8 = s + 10.0, s + 12.0, s + 14.0, s + 16.0
    return (
        (u1 - 1.0) * u1,
        (u2 - 1.0) * u2,
        (u3 - 1.0) * u3,
        (u4 - 1.0) * u4,
        (u5 - 1.0) * u5,
        (u6 - 1.0) * u6,
        (u7 - 1.0) * u7,
        (u8 - 1.0) * u8,
    )


def _em_pass_c(s: float, a: float) -> tuple[float, float]:
    """``zeta_em`` in C's float semantics.

    The same operations in the same order as ``zeta_em``, but every power
    and quotient goes through ``_pow``/``_div``: this is the slow path for
    the inputs where Python's ``**`` or ``/`` would raise or return a
    complex number while C returns an infinity or nan.
    """
    n = 0 if a >= 8.0 else 8
    w = n + a
    acc = 0.0
    c = 0.0
    for k in range(n - 1, -1, -1):
        term = _pow(k + a, -s)
        y = term - c
        t = acc + y
        c = (t - acc) - y
        acc = t
    base = _pow(w, -s)
    if base == 0.0:
        return acc, 0.0
    total = acc + _div(base * w, s - 1.0) + 0.5 * base
    w2 = w * w
    g = _div(base * s, w)
    corr = 0.0
    for coef, f in zip(_EM_COEF, _em_factors(s)):
        corr += coef * g
        g *= _div(f, w2)
    return total + corr, _EM_NEXT * g


def zeta_em(s: float, a: float) -> tuple[float, float]:
    """Hurwitz zeta sum_{k>=0}(k+a)^(-s) with a proven remainder gauge.

    Returns ``(value, gauge)`` where ``gauge`` is the magnitude of the first
    omitted Euler-Maclaurin correction, an upper bound on the truncation
    error for real s > 1.  One pass: N = 0 leading terms when a >= 8, else
    N = 8, so that w = N + a is at least 8, where the gauge is below
    4.6e-16 for every s > 1.  Where w^(-s) underflows to 0, the leading sum
    is returned with gauge 0.  Outside s > 1, a > 0 (a leading term past
    the float range, a <= 0, s = 1) the C twin's infinities and nans are
    returned, and the gauge bounds nothing.
    """
    return _zeta_em(s, a, _em_factors(s))


def _zeta_em(s: float, a: float, f: tuple[float, ...]) -> tuple[float, float]:
    """``zeta_em(s, a)``, given its factors ``f = _em_factors(s)``."""
    if a < 0.0:
        # Python's ** gives complex numbers for a negative base
        return _em_pass_c(s, a)
    neg_s = -s
    c1, c2, c3, c4, c5, c6, c7, c8 = _EM_COEF
    try:
        if a >= 8.0:
            w = a
            acc = 0.0
        else:
            # _em_pass_c's leading loop written out for its eight terms: its
            # first step leaves acc at the first term and c at 0.0, so the
            # second subtracts no compensation (a nan first term makes the
            # sum nan either way)
            w = 8.0 + a
            acc = (7.0 + a) ** neg_s
            y = (6.0 + a) ** neg_s
            t = acc + y
            c = (t - acc) - y
            acc = t
            y = (5.0 + a) ** neg_s - c
            t = acc + y
            c = (t - acc) - y
            acc = t
            y = (4.0 + a) ** neg_s - c
            t = acc + y
            c = (t - acc) - y
            acc = t
            y = (3.0 + a) ** neg_s - c
            t = acc + y
            c = (t - acc) - y
            acc = t
            y = (2.0 + a) ** neg_s - c
            t = acc + y
            c = (t - acc) - y
            acc = t
            y = (1.0 + a) ** neg_s - c
            t = acc + y
            c = (t - acc) - y
            acc = t
            y = (0.0 + a) ** neg_s - c
            acc = acc + y
        base = w ** neg_s
        if base == 0.0:  # the factors below would overflow: 0 * inf
            return acc, 0.0
        total = acc + base * w / (s - 1.0) + 0.5 * base
        w2 = w * w
        # _em_pass_c's correction loop written out: corr starts from 0.0,
        # and before step j + 1 g is multiplied by f[j - 1]/w^2.
        f1, f2, f3, f4, f5, f6, f7, f8 = f
        g = base * s / w
        corr = 0.0 + c1 * g
        g *= f1 / w2
        corr += c2 * g
        g *= f2 / w2
        corr += c3 * g
        g *= f3 / w2
        corr += c4 * g
        g *= f4 / w2
        corr += c5 * g
        g *= f5 / w2
        corr += c6 * g
        g *= f6 / w2
        corr += c7 * g
        g *= f7 / w2
        corr += c8 * g
        g *= f8 / w2
        return total + corr, _EM_NEXT * g
    except (OverflowError, ZeroDivisionError):
        # a leading term past the float range, a = 0 or s = 1
        return _em_pass_c(s, a)


def _central_offsets(m: int):
    """The central offsets m, -m, m-1, -(m-1), ..., 2, -2, 1 as floats, m >= 1.

    x + (-k) is exactly x - k, so this is the order in which the direct
    route adds its terms: largest |k| first, + before -.  The m = -1 term
    comes last; ``_heads`` forms it, so its offset is left out here.
    """
    pairs = zip(map(float, range(m, 0, -1)), map(float, range(-m, 0)))
    return islice(chain.from_iterable(pairs), 2 * m - 1)


#: Offset tuples for m up to this size are built once, sharing their floats
#: (about 40 kB).  Slicing one per call would cost an allocation, and CPython
#: 3.11 parks every freed 20-tuple (m = 10) on a free list it never reuses,
#: up to 2000 of them (400 kB).
_KEPT_M = 64
_KEPT_OFFSETS = tuple(_central_offsets(_KEPT_M))
_OFFSETS = tuple(_KEPT_OFFSETS[2 * (_KEPT_M - m):] for m in range(_KEPT_M + 1))


def _abs_pow(u: float, s: float) -> float:
    """|u|^s via exp(s*log|u|); exactly 0 when u is."""
    if u == 0.0:
        return 0.0
    try:
        return math.exp(s * math.log(abs(u)))
    except OverflowError:
        return math.inf  # s < 0, where C's exp gives inf


def _sines(s: float, x: float) -> tuple[float, float, float, float, float]:
    """sinc(x), sinc(x - 1) and sin(pi*x), signed, the prefactor
    (|sin(pi*x)|/pi)^s and log|sin(pi*x)|: what the m = 0 and m = -1
    terms, the tails and the derivative are built from.

    Each sinc is ``sinc``'s plain branch in line where ``sinc`` takes it.
    For sinc(x) that is SERIES_SWITCH <= x < 1, where x is no integer and
    the quotient and the prefactor share one sin(pi*x).  For sinc(x - 1)
    it is x >= ROUND_MARGIN, since below about 1.1e-16 x - 1 rounds to -1,
    where sinc is exactly 0, and 1 - x >= SERIES_SWITCH, the switch at the
    argument x - 1.  1 - x is exact for x >= 1/2, so that is
    |x - 1| >= SERIES_SWITCH exactly; x <= 1 - 1e-4 would not be, since
    0.9999 - 1 is -9.9999999999989e-05.  At sin(pi*x) = 0 the prefactor
    is C's exp(s*(-inf)), which ``_heads`` replaces by 0.0, and the log is
    -inf.
    """
    t = PI * x
    try:
        sp = math.sin(t)
    except ValueError:
        sp = math.nan  # x = +-inf, where C's sin gives nan
    u = sp / t if SERIES_SWITCH <= x < 1.0 else sinc(x)
    if x >= ROUND_MARGIN and 1.0 - x >= SERIES_SWITCH:
        t = PI * (x - 1.0)
        v = math.sin(t) / t
    else:
        v = sinc(x - 1.0)
    try:
        ls = math.log(abs(sp))
        return u, v, sp, math.exp(s * (ls - LOG_PI)), ls
    except ValueError:
        return u, v, sp, math.exp(s * -math.inf), -math.inf  # sp = 0, where C's log gives -inf
    except OverflowError:
        return u, v, sp, math.inf, ls  # s < 0


def _heads(s: float, x: float) -> tuple[float, float, float]:
    """The m = 0 term |sinc(x)|^s, the m = -1 term |sinc(x - 1)|^s and the
    prefactor, which both routes share, from ``_sines``; the prefactor is
    0.0 where sin(pi*x) is.

    Where log or exp raises (a sinc of 0, or an overflow for s < 0), both
    terms come from ``_abs_pow``, which returns C's 0 and inf there.
    """
    u, v, sp, pref, _ = _sines(s, x)
    try:
        return math.exp(s * math.log(abs(u))), math.exp(s * math.log(abs(v))), pref if sp else 0.0
    except (ValueError, OverflowError):
        return _abs_pow(u, s), _abs_pow(v, s), pref if sp else 0.0


def _direct(
    s: float, x: float, m_terms: int, heads: tuple[float, float, float], f: tuple[float, ...]
) -> tuple[float, float]:
    """The direct route's ``(value, tail_bound)`` from ``heads = _heads(s, x)``
    and ``f = _em_factors(s)``.

    Kahan-sums the central terms 0 < |m| <= m_terms but m = -1, largest
    |m| first, then the m = -1 term with the same step, then the m = 0
    term, and adds the two analytic tails past m_terms.
    """
    if m_terms < 0:
        raise ValueError(f"m_terms must be >= 0, got {m_terms}")
    head, neighbour, pref = heads
    offsets = _OFFSETS[m_terms] if m_terms <= _KEPT_M else _central_offsets(m_terms)
    plain = m_terms < OFFSET_LIMIT and s > 0.0 and x >= ROUND_MARGIN and 1.0 - x >= ROUND_MARGIN
    sin, log, exp = math.sin, math.log, math.exp
    acc = 0.0
    c = 0.0
    if plain:
        for o in offsets:
            t = PI * (x + o)  # sinc's plain branch, in line
            term = exp(s * log(abs(sin(t) / t)))
            if term:  # the C twin's term != 0.0
                y = term - c
                t = acc + y
                c = (t - acc) - y
                acc = t
    else:
        for o in offsets:
            term = _abs_pow(sinc(x + o), s)
            if term:
                y = term - c
                t = acc + y
                c = (t - acc) - y
                acc = t
    if m_terms and neighbour:
        y = neighbour - c
        t = acc + y
        c = (t - acc) - y
        acc = t
    acc = acc + (head - c)
    if pref == 0.0:
        return acc, FLOAT_SLACK
    z_right, g_right = _zeta_em(s, m_terms + 1.0 + x, f)
    z_left, g_left = _zeta_em(s, m_terms + 1.0 - x, f)
    return acc + pref * (z_right + z_left), pref * (g_right + g_left) + FLOAT_SLACK


def _closed_form(
    s: float, x: float, heads: tuple[float, float, float], f: tuple[float, ...]
) -> float:
    """The closed-form route from ``heads = _heads(s, x)`` and
    ``f = _em_factors(s)``; the continuous value 1 at the endpoints and
    outside them."""
    if x <= 0.0 or x >= 1.0:
        return 1.0
    head, neighbour, pref = heads
    head = head + neighbour
    if pref == 0.0:
        return head
    z0, _ = _zeta_em(s, 1.0 + x, f)
    z1, _ = _zeta_em(s, 2.0 - x, f)
    return head + pref * (z0 + z1)


def power_sum_fixed(r: float, x: float, m_terms: int) -> tuple[float, float]:
    """Central block of 2*m_terms+1 sinc powers plus analytic tails.

    Returns ``(value, tail_bound)`` with |S_r(x) - value| <= tail_bound.
    Terms are accumulated from the largest |m| inward with Kahan
    compensation so the small terms are added first.
    """
    s = 2.0 * r
    return _direct(s, x, m_terms, _heads(s, x), _em_factors(s))


def power_sum_zeta(r: float, x: float) -> float:
    """Closed-form route: prefactor times a pair of Hurwitz zeta values.

    S_r(x) = (|sin(pi x)|/pi)^(2r) * (zeta(2r,x) + zeta(2r,1-x)) on (0,1);
    the m = 0 and m = -1 terms are peeled off as |sinc(x)|^(2r) and
    |sinc(x-1)|^(2r) so no intermediate overflows for large r, leaving
    zeta arguments in (1,2).  Endpoints return the continuous value 1.
    """
    s = 2.0 * r
    return _closed_form(s, x, _heads(s, x), _em_factors(s))


def power_sum_routes(r: float, x: float, m_terms: int) -> tuple[float, float, float]:
    """``(*power_sum_fixed(r, x, m_terms), power_sum_zeta(r, x))`` in one pass.

    The routes share the heads and the prefactor of ``_heads``, and the
    four Hurwitz zeta sums share one set of Euler-Maclaurin factors.
    """
    s = 2.0 * r
    heads = _heads(s, x)
    f = _em_factors(s)
    value, tail_bound = _direct(s, x, m_terms, heads, f)
    return value, tail_bound, _closed_form(s, x, heads, f)


def _head_deriv(u: float, du: float, s: float) -> float:
    """d/dx u^s = s u^(s-1) u'; 0 where u vanishes, since s - 1 > 0.

    u = 0 happens when x - 1 rounds to -1 for x within an ulp of 0.
    """
    if u == 0.0 and s > 1.0:
        return 0.0
    try:
        return s * math.exp((s - 1.0) * math.log(u)) * du
    except ValueError:
        lu = -math.inf if u == 0.0 else math.nan  # C's log of 0 and of u < 0
    except OverflowError:
        return s * math.inf * du  # s < 1, where C's exp gives inf
    return s * math.exp((s - 1.0) * lu) * du


def power_sum_deriv(r: float, x: float) -> float:
    """d/dx of the power sum via the closed form, for x in (0,1).

    Differentiates head + pref*(zeta(2r,1+x) + zeta(2r,2-x)) term by term,
    with the heads' sinc values and the prefactor from ``_sines``: the head
    uses d/dx u^s = s u^(s-1) u' with u = sinc, the prefactor derivative is
    computed in log space so sin(pi x)^(2r-1) never overflows or turns into
    0 * inf, and d/da zeta(s,a) = -s zeta(s+1,a).
    """
    s = 2.0 * r
    u, v, sp, pref, ls = _sines(s, x)
    d_head = _head_deriv(u, dsinc(x), s) + _head_deriv(v, dsinc(x - 1.0), s)
    try:
        cp = math.cos(PI * x)
    except ValueError:
        cp = math.nan  # x = +-inf, where C's cos gives nan
    # log sin(pi*x) is _sines' log|sin(pi*x)| where sin(pi*x) >= 0: -inf at
    # x = 0, where d_pref then vanishes for s > 1; C's log gives nan where
    # sin(pi*x) < 0, outside [0, 1]
    try:
        d_pref = s * PI * cp * math.exp((s - 1.0) * (ls if sp >= 0.0 else math.nan) - s * LOG_PI)
    except OverflowError:
        d_pref = s * PI * cp * math.inf

    f = _em_factors(s)
    z0, _ = _zeta_em(s, 1.0 + x, f)
    z1, _ = _zeta_em(s, 2.0 - x, f)
    f = _em_factors(s + 1.0)
    dz0, _ = _zeta_em(s + 1.0, 1.0 + x, f)
    dz1, _ = _zeta_em(s + 1.0, 2.0 - x, f)
    return d_head + d_pref * (z0 + z1) + pref * s * (dz1 - dz0)
