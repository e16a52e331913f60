"""Soundness of the outward-rounded interval arithmetic."""

import math
import random

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sincsum.verify.interval import (
    PI_I,
    SQRT2_I,
    EnclosureError,
    Interval,
    dsinc_iv,
    intersect,
    sinc_iv,
)


def finite_intervals(lo=-10.0, hi=10.0, max_width=5.0):
    return st.tuples(
        st.floats(lo, hi), st.floats(0.0, max_width)
    ).map(lambda t: Interval(t[0], min(hi, t[0] + t[1])))


class TestConstruction:
    def test_ordering_enforced(self):
        with pytest.raises(EnclosureError):
            Interval(1.0, 0.0)
        with pytest.raises(EnclosureError):
            Interval(0.0, math.inf)

    @pytest.mark.parametrize(
        "lo, hi", [(math.nan, 1.0), (0.0, math.nan), (-math.inf, 0.0), (2, 1), (math.inf, math.inf)]
    )
    def test_non_finite_or_unordered_endpoints(self, lo, hi):
        # numbers outside an interval's own rule stay EnclosureErrors,
        # whether or not they came as floats
        with pytest.raises(EnclosureError, match="^invalid interval endpoints"):
            Interval(lo, hi)

    def test_constants_contain_truth(self):
        assert PI_I.lo < math.pi or PI_I.lo == math.pi
        assert PI_I.contains(float(mp.pi)) or (PI_I.lo <= mp.pi <= PI_I.hi)
        assert SQRT2_I.lo <= mp.sqrt(2) <= SQRT2_I.hi
        assert PI_I.lo <= mp.pi <= PI_I.hi


class TestArithmeticContainment:
    @given(finite_intervals(), finite_intervals(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_ring_ops(self, a, b, ta, tb):
        x = a.lo + ta * (a.hi - a.lo)
        y = b.lo + tb * (b.hi - b.lo)
        assert (a + b).contains(x + y)
        assert (a - b).contains(x - y)
        assert (a * b).contains(x * y)
        if not (b.lo <= 0.0 <= b.hi):
            try:
                quotient = a / b
            except EnclosureError:
                return  # quotient left double range (subnormal divisor)
            assert quotient.contains(x / y)

    @given(finite_intervals(), st.floats(0.0, 1.0))
    def test_unary_ops(self, a, t):
        x = a.lo + t * (a.hi - a.lo)
        assert a.sq().contains(x * x)
        assert (-a).contains(-x)
        assert a.powi(3).contains(x**3)
        assert a.powi(4).contains(x**4)
        assert a.sin().contains(math.sin(x))
        assert a.cos().contains(math.cos(x))

    @given(finite_intervals(lo=0.0, hi=5.0), st.floats(0.0, 1.0), st.floats(-2.0, 3.0))
    def test_pow_real(self, a, t, p):
        x = a.lo + t * (a.hi - a.lo)
        if p < 0.0 and a.lo <= 0.0:
            return
        try:
            enc = a.pow_real(p)
        except EnclosureError:
            return  # result left double range (subnormal base, negative power)
        assert enc.contains(x**p)

    def test_division_by_zero_interval(self):
        with pytest.raises(EnclosureError):
            Interval(1.0, 2.0) / Interval(-1.0, 1.0)


class TestTrigEnclosures:
    @pytest.mark.parametrize(
        "lo,hi",
        [
            (0.0, 0.1),
            (1.4, 1.8),  # straddles the sine peak
            (3.0, 3.3),  # straddles pi
            (-0.2, 6.5),  # full period
            (100.0, 100.5),
            (-7.9, -7.7),
        ],
    )
    def test_sin_cos_dense_sampling(self, lo, hi):
        box = Interval(lo, hi)
        se, ce = box.sin(), box.cos()
        for i in range(500):
            x = lo + (hi - lo) * i / 499.0
            assert se.contains(math.sin(x))
            assert ce.contains(math.cos(x))

    def test_peak_capture(self):
        enc = Interval(1.5, 1.65).sin()
        assert enc.hi >= 1.0 - 1e-15  # peak at pi/2 is inside
        enc = Interval(3.1, 3.2).cos()
        assert enc.lo <= -1.0 + 1e-15


class TestSincEnclosures:
    @pytest.mark.parametrize(
        "lo,hi",
        [
            (-0.1, 0.1),
            (0.0, 0.25),
            (0.2, 0.3),  # straddles the series/quotient split
            (0.9, 1.1),
            (3.4, 3.6),
            (-2.0, 2.0),
            (9.99, 11.01),
        ],
    )
    def test_dense_sampling(self, lo, hi):
        box = Interval(lo, hi)
        enc = sinc_iv(box)
        denc = dsinc_iv(box)
        for i in range(400):
            x = lo + (hi - lo) * i / 399.0
            xm = mp.mpf(x)
            true = float(mp.sincpi(xm))
            dtrue = float(mp.diff(mp.sincpi, xm))
            assert enc.lo - 1e-15 <= true <= enc.hi + 1e-15, x
            assert denc.lo - 1e-13 <= dtrue <= denc.hi + 1e-13, x

    def test_point_evaluations_tight(self):
        enc = sinc_iv(Interval.point(0.5))
        assert enc.hi - enc.lo < 1e-14
        assert enc.contains(2.0 / math.pi)


def _random_expression(rng):
    """Random expression over the corpus grammar (closed ops only)."""
    leafs = [
        lambda x: x,
        lambda x: x.sq(),
        lambda x: (PI_I * x).sin(),
        lambda x: (PI_I * x / 2.0).cos(),
        lambda x: sinc_iv(x),
        lambda x: dsinc_iv(x),
    ]
    a = rng.choice(leafs)
    b = rng.choice(leafs)
    combiners = [
        lambda u, v: u + v,
        lambda u, v: u - v,
        lambda u, v: u * v,
        lambda u, v: u * 2.0 - v * 0.25,
        lambda u, v: u / (v.sq() + 1.5),
    ]
    op = rng.choice(combiners)
    return lambda x: op(a(x), b(x))


def test_bulk_soundness_seeded():
    """Random boxes, random grammar expressions: point values stay inside."""
    rng = random.Random(2024)
    for _ in range(5000):
        expr = _random_expression(rng)
        lo = -3.0 + 6.0 * rng.random()
        width = 2.0 * rng.random()
        box = Interval(lo, lo + width)
        try:
            enc = expr(box)
        except EnclosureError:
            continue
        for _ in range(20):
            x = lo + width * rng.random()
            pt = expr(Interval.point(x))
            mid = pt.mid
            assert enc.lo - 1e-13 <= mid <= enc.hi + 1e-13


def test_intersect():
    assert intersect(Interval(0.0, 2.0), Interval(1.0, 3.0)).lo == 1.0
    assert intersect(Interval(0.0, 1.0), Interval(2.0, 3.0)) is None
