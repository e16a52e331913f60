"""Exact polynomial recursion: reference tables, invariants, certificates."""

import math
from fractions import Fraction

import pytest
import sympy

from helpers import poly_step_operator
from sincsum import (
    CertificateError,
    DomainError,
    EvalConfig,
    EvalPoint,
    SincPolynomial,
    SizeLimitError,
    bernoulli,
    poly_eval,
    poly_f,
    poly_min_certificate,
    poly_step,
    power_sum,
    power_sum_zeta,
)
from sincsum import exactpoly

F = Fraction

#: Reference coefficient tables for orders 1..5 (ascending powers of
#: y = cos^2(pi x)); exact, zero tolerance.
REFERENCE_TABLES = {
    1: (F(1),),
    2: (F(1, 3), F(2, 3)),
    3: (F(2, 15), F(11, 15), F(2, 15)),
    4: (F(17, 315), F(4, 7), F(38, 105), F(4, 315)),
    5: (F(62, 2835), F(1072, 2835), F(484, 945), F(247, 2835), F(2, 2835)),
}


class TestRecursion:
    @pytest.mark.parametrize("r,expected", sorted(REFERENCE_TABLES.items()))
    def test_reference_tables_exact(self, r, expected):
        assert poly_f(r).coeffs == expected

    def test_step_from_p1(self):
        p2 = poly_step(SincPolynomial(1, (F(1),)))
        assert p2.coeffs == REFERENCE_TABLES[2]

    def test_step_chain(self):
        p = poly_f(4)
        assert poly_step(p).coeffs == REFERENCE_TABLES[5]

    def test_matches_operator_oracle(self):
        # every order poly_f builds, each reduced from its power-of-two strip
        expected = (F(1),)
        for r in range(1, exactpoly.R_CAP + 1):
            assert poly_f(r).coeffs == expected
            expected = poly_step_operator(expected, r)

    def test_step_unrelated_denominators(self):
        # arbitrary rationals, one negative: poly_step must not rely on the
        # (2r-1)! denominators or the signs of a genuine P_r
        p = SincPolynomial(4, (F(3, 7), F(-5, 11), F(2, 9), F(13, 25)))
        assert poly_step(p).coeffs == poly_step_operator(p.coeffs, 4)

    @pytest.mark.parametrize(
        "q, scale",
        [([1, 2, 0], 3), ([3, -1, 4], 6), ([1, 2, 3], 7)],
        ids=["degree", "negative", "sum"],
    )
    def test_invariant_failures_raise(self, q, scale):
        with pytest.raises(CertificateError):
            exactpoly._check_invariants(3, q, scale)

    def test_order_cap(self):
        # only an order above the cap is a size limit; the rest is the index rule
        with pytest.raises(SizeLimitError):
            poly_f(101)
        with pytest.raises(DomainError, match="^r must be >= 1, got 0$"):
            poly_f(0)
        with pytest.raises(DomainError, match=r"^r must be an integer, got 2\.0$"):
            poly_f(2.0)  # non-integer input
        for flag in (True, False):
            with pytest.raises(DomainError, match=f"^r must be an integer, got {flag}$"):
                poly_f(flag)

    def test_invariants_to_50(self):
        for r in range(1, 51):
            p = poly_f(r)
            assert p.degree == r - 1
            assert p.coeffs[-1] > 0
            assert all(c >= 0 for c in p.coeffs)
            assert sum(p.coeffs, F(0)) == 1

    def test_constant_term_closed_form(self):
        # P_n(0) = (2^{2n} - 1) 2^{2n} |B_{2n}| / (2n)! exactly
        for n in range(1, 21):
            b = abs(bernoulli(2 * n)[2 * n])
            expected = F((2 ** (2 * n) - 1) * 2 ** (2 * n)) * b / math.factorial(2 * n)
            assert poly_f(n).coeffs[0] == expected

    def test_denominator_prime_support(self):
        # denominators only pick up primes from the factorial scaling,
        # so none exceeds 2r+1
        for r in range(2, 13):
            for c in poly_f(r).coeffs:
                if c.denominator > 1:
                    biggest = max(sympy.factorint(c.denominator))
                    assert biggest <= 2 * r + 1


class TestEval:
    def test_table_points(self):
        assert poly_eval(poly_f(2), 0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert poly_eval(poly_f(2), 0.0) == pytest.approx(1.0, abs=1e-15)
        # P_3 at y = 1/2: 2/15 + 11/30 + 2/60 = 8/15
        assert poly_eval(poly_f(3), 0.25) == pytest.approx(8.0 / 15.0, abs=1e-15)

    def test_matches_direct_route(self):
        cfg = EvalConfig(target_tol=1e-12)
        worst = 0.0
        for r in (2, 3, 4, 5, 8, 16):
            p = poly_f(r)
            for i in range(33):
                x = i / 32.0
                via_poly = poly_eval(p, x)
                via_direct, _ = power_sum(EvalPoint(float(r), x), cfg)
                worst = max(worst, abs(via_poly - via_direct))
        assert worst <= 1e-11

    def test_matches_zeta_route(self):
        for r in (3, 7, 12):
            p = poly_f(r)
            for x in (0.1, 0.37, 0.5, 0.82):
                assert poly_eval(p, x) == pytest.approx(
                    power_sum_zeta(EvalPoint(float(r), x)), abs=1e-12
                )

    def test_domain(self):
        # the point rule and its error are core's, as for EvalPoint
        with pytest.raises(DomainError, match=r"x must lie in \[0,1\], got 1.5"):
            poly_eval(poly_f(2), 1.5)
        with pytest.raises(DomainError):
            poly_eval(poly_f(2), math.nan)


class TestPolyRoute:
    @pytest.mark.parametrize(
        "r, order",
        [
            (1, 1),
            (1.0, 1),
            (100.0, 100),
            (101.0, None),
            (2.5, None),
            (1.0 + 2.0**-52, None),
            (0.999, None),
        ],
    )
    def test_integer_orders_up_to_cap_only(self, r, order):
        poly = exactpoly.poly_route(r)
        if order is None:
            assert poly is None
        else:
            assert poly is poly_f(order)


class TestMinCertificate:
    def test_values(self):
        assert poly_min_certificate(poly_f(2))[0] == F(1, 3)
        assert poly_min_certificate(poly_f(4))[0] == F(17, 315)
        assert poly_min_certificate(poly_f(5))[0] == F(62, 2835)

    def test_statement_mentions_location(self):
        _, statement = poly_min_certificate(poly_f(3))
        assert "x = 1/2" in statement

    def test_negative_coefficient_rejected(self):
        bad = SincPolynomial(2, (F(1, 3), F(-2, 3)))
        with pytest.raises(CertificateError):
            poly_min_certificate(bad)

    def test_structure_validation(self):
        with pytest.raises(CertificateError):
            SincPolynomial(2, (F(1),))  # wrong length
        with pytest.raises(CertificateError):
            SincPolynomial(2, (F(1), F(1), F(1)))

    def test_integer_coefficients_accepted(self):
        # an int is a numbers.Rational: P_1 written with ints steps as with Fractions
        assert poly_step(SincPolynomial(1, (1,))) == poly_f(2)
