"""Transference constants: closed forms, exact paths, monotonicity."""

import json
import math
from fractions import Fraction

import mpmath as mp
import pytest

from helpers import constants_reference, zeta_brute
from sincsum import (
    ConstantQuery,
    DomainError,
    EvalConfig,
    EvalPoint,
    SizeLimitError,
    bernoulli,
    crude_bound,
    exact_min_constant,
    lq_norm_halfshift,
    min_constant,
    poly_f,
    power_sum,
    transference_factor,
)
from sincsum import constants
from sincsum.constants import CRUDE_D_MAX


class TestMinConstant:
    def test_exact_small_orders(self):
        assert min_constant(2.0) == pytest.approx(1.0, abs=1e-14)
        assert min_constant(4.0) == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert min_constant(6.0) == pytest.approx(2.0 / 15.0, abs=1e-14)

    def test_equals_power_sum_minimum(self):
        # ties the constant to the value of the sum at x = 1/2
        cfg = EvalConfig(target_tol=1e-12)
        for q in (2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0):
            at_half, _ = power_sum(EvalPoint(q / 2.0, 0.5), cfg)
            assert min_constant(q) == pytest.approx(at_half, abs=1e-11)

    def test_against_direct_summation(self):
        # 2 (2^q - 1) zeta(q) / pi^q via the summation oracle
        for q in (2.5, 3.0, 7.5):
            oracle, err = zeta_brute(q, 0.5)
            ref = 2.0 * oracle / math.pi**q
            assert min_constant(q) == pytest.approx(ref, abs=2 * err + 1e-13)

    def test_exact_path_matches_float(self):
        for n in range(1, 16):
            exact = exact_min_constant(n)
            assert float(exact) == pytest.approx(min_constant(2.0 * n), rel=1e-13)

    @pytest.mark.parametrize("n", [*range(1, 41), 64, 100, 257, 512, 1024])
    def test_exact_matches_bernoulli_formula(self, n):
        # the earlier form (2^{2n} - 1) 2^{2n} |B_{2n}| / (2n)!, as an oracle
        b = abs(bernoulli(2 * n)[2 * n])
        expected = Fraction((2 ** (2 * n) - 1) * 2 ** (2 * n)) * b / math.factorial(2 * n)
        assert exact_min_constant(n) == expected

    def test_exact_above_cap(self):
        with pytest.raises(SizeLimitError, match="Bernoulli index 2050 exceeds cap 2048"):
            exact_min_constant(1025)

    def test_exact_equals_poly_constant_term(self):
        for n in range(1, 16):
            assert exact_min_constant(n) == poly_f(n).coeffs[0]

    def test_domain(self):
        with pytest.raises(DomainError):
            min_constant(1.9)


class TestTransferenceFactor:
    def test_unit_factor_at_q2(self):
        rep = transference_factor(ConstantQuery(2.0, 1))
        assert rep.factor == pytest.approx(1.0, abs=1e-12)

    def test_fourth_root_of_three(self):
        rep = transference_factor(ConstantQuery(4.0, 1))
        assert rep.factor == pytest.approx(3.0**0.25, abs=1e-12)

    def test_dimension_power(self):
        rep2 = transference_factor(ConstantQuery(4.0, 2))
        assert rep2.factor == pytest.approx(math.sqrt(3.0), abs=1e-12)
        base = transference_factor(ConstantQuery(7.3, 1)).factor
        for d in range(1, 6):
            rep = transference_factor(ConstantQuery(7.3, d))
            assert rep.factor == pytest.approx(base**d, rel=1e-12)

    # q = 2 * 1.15^k up to about 2.6e18, plus the largest finite q
    SCAN_Q = [2.0 * 1.15**k for k in range(300)] + [1e308]
    SCAN_D = (1, 2, 10, 100, 1000, CRUDE_D_MAX)

    def test_factor_below_crude(self):
        # strict, with no slack: where log c_q ~ -q log(pi/2) is large, its
        # rounding times d/q once pushed factor past crude
        for q in [3.0, 4.5, 16.0, 64.0, 300.0] + self.SCAN_Q:
            for d in (3,) + self.SCAN_D:
                rep = transference_factor(ConstantQuery(q, d))
                assert rep.factor <= rep.crude, (q, d, rep.factor, rep.crude)

    def test_bit_equal_to_reference_formulas(self):
        for q in self.SCAN_Q:
            c_q, log_c, _, norm = constants_reference(q, 1)
            assert min_constant(q) == c_q, q
            assert lq_norm_halfshift(q) == norm, q
            for d in self.SCAN_D:
                rep = transference_factor(ConstantQuery(q, d))
                assert (rep.c_q, rep.log_c_q, rep.factor) == constants_reference(q, d)[:3]

    def test_one_zeta_evaluation_per_report(self, monkeypatch):
        calls = []
        log_zeta = constants._log_zeta

        def counted(q):
            calls.append(q)
            return log_zeta(q)

        monkeypatch.setattr(constants, "_log_zeta", counted)
        for q in (2.0, 7.3, 60.0, 1e308):
            calls.clear()
            transference_factor(ConstantQuery(q, 3))
            assert calls == [q]

    def test_factor_against_mpmath(self):
        # factor = (pi/2)^d * exp(-(d/q) log(2 (1 - 2^-q) zeta(q))); crude's own
        # pow carries d rounding errors of pi/2, so the budget grows with d
        for q in self.SCAN_Q[::7]:
            for d in self.SCAN_D:
                rep = transference_factor(ConstantQuery(q, d))
                with mp.workdps(50):
                    qm = mp.mpf(q)
                    ref = (2 * (2**qm - 1) * mp.zeta(qm) / mp.pi**qm) ** (-mp.mpf(d) / qm)
                err = abs(rep.factor - float(ref)) / float(ref)
                assert err <= (d + 1) * 2.0**-52, (q, d, err)

    def test_factor_is_inverse_power_of_constant(self):
        for q, d in ((3.0, 1), (5.5, 2), (12.0, 3)):
            rep = transference_factor(ConstantQuery(q, d))
            assert rep.factor == pytest.approx(rep.c_q ** (-d / q), rel=1e-12)

    def test_exact_field(self):
        assert transference_factor(ConstantQuery(4.0, 1)).exact_c_q == Fraction(1, 3)
        assert transference_factor(ConstantQuery(3.0, 1)).exact_c_q is None

    def test_json_shape(self):
        payload = transference_factor(ConstantQuery(6.0, 2)).to_json_dict()
        assert set(payload) == {
            "q", "d", "c_q", "log_c_q", "factor", "crude", "exact_c_q",
        }
        assert payload["exact_c_q"] == "2/15"
        json.dumps(payload)  # serializable

    def test_log_c_q_against_mpmath(self):
        # log c_q = log(2 (2^q - 1) zeta(q)) - q log(pi), at 50 digits
        worst = 0.0
        for i in range(200):
            q = 2.0 * 5000.0 ** (i / 199)
            rep = transference_factor(ConstantQuery(q, 1))
            with mp.workdps(50):
                qm = mp.mpf(q)
                ref = mp.log(2 * (2**qm - 1) * mp.zeta(qm)) - qm * mp.log(mp.pi)
            err = abs(rep.log_c_q - float(ref)) / max(1.0, abs(float(ref)))
            worst = max(worst, err)
            if rep.c_q > 0.0:
                assert rep.c_q == math.exp(rep.log_c_q)
        assert worst <= 1e-14, worst

    def test_query_validation(self):
        with pytest.raises(DomainError):
            ConstantQuery(1.5, 1)
        for q in (math.inf, math.nan):
            with pytest.raises(DomainError, match="q must be a finite number >= 2"):
                ConstantQuery(q, 1)
        with pytest.raises(DomainError, match="d must be >= 1, got 0"):
            ConstantQuery(4.0, 0)

    def test_dimension_is_an_integer(self):
        with pytest.raises(DomainError, match="d must be an integer, got 2.5"):
            ConstantQuery(4.0, 2.5)
        with pytest.raises(DomainError, match="d must be an integer, got 2.5"):
            crude_bound(2.5)
        for flag in (True, False):
            with pytest.raises(DomainError, match=f"d must be an integer, got {flag}"):
                ConstantQuery(4.0, flag)
            with pytest.raises(DomainError, match=f"d must be an integer, got {flag}"):
                crude_bound(flag)


class TestCrudeBound:
    def test_values(self):
        assert crude_bound(1) == pytest.approx(math.pi / 2.0, abs=1e-15)
        assert crude_bound(2) == pytest.approx(math.pi**2 / 4.0, abs=1e-14)
        assert crude_bound(3) == pytest.approx((math.pi / 2.0) ** 3, abs=1e-14)

    def test_largest_dimension(self):
        assert math.isfinite(crude_bound(CRUDE_D_MAX))
        with pytest.raises(DomainError, match=str(CRUDE_D_MAX)):
            crude_bound(CRUDE_D_MAX + 1)


class TestHalfShiftNorm:
    def test_known_values(self):
        assert lq_norm_halfshift(2.0) == pytest.approx(math.pi, abs=1e-13)
        assert lq_norm_halfshift(4.0) == pytest.approx(
            (math.pi**4 / 3.0) ** 0.25, abs=1e-13
        )

    def test_limit_toward_two(self):
        # dominated by the two unit terms; the excess decays like log(2)/q
        assert lq_norm_halfshift(1000.0) == pytest.approx(2.0013867749251611, abs=1e-12)
        assert lq_norm_halfshift(1e6) == pytest.approx(2.0, abs=1e-5)

    def test_monotone_and_bounded(self):
        q = 2.0
        prev = lq_norm_halfshift(q)
        while q <= 1024.0:
            cur = lq_norm_halfshift(q)
            assert cur <= prev + 1e-12
            assert cur >= 2.0
            prev = cur
            q *= 1.25
