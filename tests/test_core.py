"""Direct-route evaluation: sinc kernels, tail-bounded summation, FD derivative."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    power_sum_brute,
    power_sum_fd_deriv,
    power_sum_mp,
    select_m_terms_reference,
    tail_gauge,
)
from sincsum import DomainError, EvalConfig, EvalPoint, PrecisionError, evaluate
from sincsum import backend
from sincsum.core import (
    R_MAX,
    R_MIN,
    TOL_FLOOR,
    power_sum,
    select_m_terms,
    sinc,
    sinc_sq,
)


class TestSinc:
    def test_removable_singularity(self):
        assert sinc(0.0) == 1.0

    def test_integer_zero(self):
        assert sinc(1.0) == 0.0
        assert sinc(-3.0) == 0.0

    def test_half(self):
        # sin(pi/2)/(pi/2) = 2/pi
        assert sinc(0.5) == pytest.approx(2.0 / math.pi, abs=1e-15)

    def test_series_switch_is_seamless(self):
        # compare the series branch against the quotient just above the switch
        for x in (9.9e-5, 1.0e-4, 1.01e-4, -9.9e-5):
            quotient = math.sin(math.pi * x) / (math.pi * x)
            assert sinc(x) == pytest.approx(quotient, rel=1e-13)

    @given(st.floats(-50.0, 50.0))
    def test_even_and_bounded(self, x):
        assert abs(sinc(x)) <= 1.0 + 1e-15
        assert sinc(x) == pytest.approx(sinc(-x), abs=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            sinc(math.inf)
        with pytest.raises(DomainError):
            sinc(math.nan)


class TestSincSq:
    def test_values(self):
        assert sinc_sq(0.0) == 1.0
        # 4/pi^2 at the half point
        assert sinc_sq(0.5) == pytest.approx(4.0 / math.pi**2, abs=1e-15)
        # sin(3 pi/2)^2 / (3 pi/2)^2 = 4/(9 pi^2)
        assert sinc_sq(1.5) == pytest.approx(4.0 / (9.0 * math.pi**2), abs=1e-16)

    @given(st.floats(-20.0, 20.0))
    def test_range(self, x):
        assert 0.0 <= sinc_sq(x) <= 1.0 + 1e-15


class TestEvalTypes:
    def test_point_validation(self):
        with pytest.raises(DomainError):
            EvalPoint(0.4, 0.5)
        with pytest.raises(DomainError):
            EvalPoint(0.501, 0.5)  # the floor itself is rejected
        with pytest.raises(DomainError):
            EvalPoint(2.0, -0.1)
        with pytest.raises(DomainError):
            EvalPoint(2.0, 1.1)
        with pytest.raises(DomainError):
            EvalPoint(math.nan, 0.5)
        with pytest.raises(DomainError, match="non-finite"):
            EvalPoint(math.inf, 0.5)
        with pytest.raises(DomainError, match="non-finite"):
            EvalPoint(2.0, math.nan)

    def test_r_max(self):
        # above R_MAX, 2r * pi in the derivative's prefactor overflows
        assert EvalPoint(R_MAX, 0.5).r == R_MAX
        with pytest.raises(DomainError, match="r must be at most"):
            EvalPoint(math.nextafter(R_MAX, math.inf), 0.5)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            EvalConfig(target_tol=0.0)


class TestPowerSum:
    def test_unit_sum_at_r_one(self):
        # S_1 is identically 1
        cfg = EvalConfig(target_tol=1e-12)
        for x in (0.0, 0.123, 0.3, 0.5, 0.9, 1.0):
            value, bound = power_sum(EvalPoint(1.0, x), cfg)
            assert abs(value - 1.0) <= 1e-12
            assert bound <= 1e-12

    def test_table_values_r2(self):
        # P_2(y) = 1/3 + 2/3 y at y = cos^2(pi x)
        value, _ = power_sum(EvalPoint(2.0, 0.5), EvalConfig(target_tol=1e-12))
        assert value == pytest.approx(1.0 / 3.0, abs=1e-12)
        value, _ = power_sum(EvalPoint(2.0, 0.25), EvalConfig(target_tol=1e-12))
        assert value == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_against_brute_force_oracle(self):
        for r, x in [(0.75, 0.3), (1.0, 0.77), (1.5, 0.2), (2.5, 0.45), (7.0, 0.9)]:
            value, bound = power_sum(EvalPoint(r, x), EvalConfig(target_tol=1e-12))
            oracle, oracle_err = power_sum_brute(r, x)
            assert abs(value - oracle) <= bound + oracle_err

    def test_against_mpmath_oracle(self):
        for r, x in [(0.6, 0.4), (1.0, 0.3), (3.3, 0.15), (12.0, 0.5)]:
            value, bound = power_sum(EvalPoint(r, x), EvalConfig(target_tol=1e-13))
            assert abs(value - float(power_sum_mp(r, x))) <= bound + 1e-14

    def test_endpoints_are_one(self):
        for r in (0.75, 1.0, 2.0, 9.5):
            for x in (0.0, 1.0):
                value, _ = power_sum(EvalPoint(r, x))
                assert value == pytest.approx(1.0, abs=1e-12)

    @given(
        st.floats(0.55, 9.0),
        st.floats(0.0, 1.0),
    )
    def test_symmetry(self, r, x):
        cfg = EvalConfig(target_tol=1e-12)
        a, _ = power_sum(EvalPoint(r, x), cfg)
        b, _ = power_sum(EvalPoint(r, 1.0 - x), cfg)
        assert abs(a - b) <= 2e-12

    @given(
        st.floats(0.55, 6.0),
        st.floats(0.55, 6.0),
        st.floats(0.01, 0.99),
    )
    def test_monotone_in_r(self, r1, r2, x):
        if r1 > r2:
            r1, r2 = r2, r1
        cfg = EvalConfig(target_tol=1e-12)
        lo, _ = power_sum(EvalPoint(r2, x), cfg)
        hi, _ = power_sum(EvalPoint(r1, x), cfg)
        assert hi >= lo - 2e-12

    def test_tail_bound_sound_under_doubling(self):
        # enlarging the summed block moves the value by less than the
        # reported bound
        import random

        rng = random.Random(3)
        for _ in range(100):
            r = 0.6 + 5.0 * rng.random()
            x = rng.random()
            m = select_m_terms(r, 1e-12)
            v1, b1 = backend.power_sum_fixed(r, x, m)
            v2, _ = backend.power_sum_fixed(r, x, 2 * m)
            assert abs(v1 - v2) <= b1

    @pytest.mark.parametrize("m", [8, 9, 12, 16])
    def test_a_priori_gauge_dominates_tail_bound(self, twin_kernels, m):
        # select_m_terms promises tail_bound <= target_tol by checking P(M)
        rs = [0.502 * (500.0 / 0.502) ** (i / 59) for i in range(60)]
        xs = [1e-3, 0.999] + [j / 32 for j in range(1, 32)]
        for r in rs:
            gauge = tail_gauge(2.0 * r, m) - TOL_FLOOR
            for x in xs:
                _, tail_bound = twin_kernels.power_sum_fixed(r, x, m)
                assert tail_bound - twin_kernels.FLOAT_SLACK <= gauge, (r, x)

    def test_precision_unreachable(self):
        with pytest.raises(PrecisionError) as err:
            power_sum(EvalPoint(1.0, 0.3), EvalConfig(target_tol=1e-30))
        # the gauge's limit as M grows
        assert err.value.achieved_bound == TOL_FLOOR

    @pytest.mark.parametrize("x, expected", [(0.0, 1.0), (0.3, 0.0), (0.5, 0.0), (1.0, 1.0)])
    def test_huge_r(self, x, expected):
        # the Pochhammer factor of the tail gauge overflows from r ~ 6e43
        # on; the gauge must stay TOL_FLOOR instead of turning into NaN
        cfg = EvalConfig()
        res = evaluate(EvalPoint(1e45, x), cfg)
        assert res.value == expected
        assert res.spread == 0.0
        assert res.tail_bound <= cfg.target_tol
        assert select_m_terms(1e45, cfg.target_tol) == 8


def _m_or_error(select, r, tol):
    try:
        return select(r, tol)
    except PrecisionError as exc:
        return (str(exc), exc.achieved_bound)


class TestSelectMTerms:
    # r log-spaced on [0.5011, 1e50]; tolerances on both sides of the floor,
    # including the next double above it, where M reaches the thousands
    RS = [0.5011 * (1e50 / 0.5011) ** (i / 299) for i in range(300)]
    TOLS = [
        5e-15, TOL_FLOOR, math.nextafter(TOL_FLOOR, 1.0), 1.5e-14, 2e-14, 1e-13,
        1e-12, 1e-10, 1e-8, 1e-5, 0.5,
    ]

    def test_matches_reference_search(self):
        largest = 0
        for r in self.RS:
            for tol in self.TOLS:
                got = _m_or_error(select_m_terms, r, tol)
                assert got == _m_or_error(select_m_terms_reference, r, tol), (r, tol)
                if isinstance(got, int):
                    largest = max(largest, got)
        assert largest > 2000  # the grid reaches deep into the upward scan

    def test_terminates_without_a_cap(self):
        # the scan has no term cap: at the tightest tolerance above the
        # floor, M stays at or below 2,618 for every admissible r
        tol = math.nextafter(TOL_FLOOR, 1.0)
        lo = math.nextafter(R_MIN, math.inf)
        rs = [lo * (R_MAX / lo) ** (i / 4000) for i in range(4000)] + [R_MAX]
        assert max(select_m_terms(r, tol) for r in rs) <= 2618

    def test_at_1e_12(self):
        assert select_m_terms(1.0, 1e-12) == 13
        assert select_m_terms(50.0, 1e-12) == 8


class TestFdDeriv:
    def test_zero_at_symmetric_point(self):
        assert abs(power_sum_fd_deriv(EvalPoint(2.0, 0.5), 1e-4)) <= 1e-6

    def test_zero_for_constant_sum(self):
        assert abs(power_sum_fd_deriv(EvalPoint(1.0, 0.3), 1e-4)) <= 1e-6
