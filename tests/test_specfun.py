"""Bernoulli numbers, zeta values, and the closed-form evaluation routes."""

import math
import random
import sys
import threading
from fractions import Fraction

import mpmath as mp
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    polygamma_even_series,
    power_sum_brute,
    power_sum_deriv_mp,
    power_sum_fd_deriv,
    power_sum_half_integer,
    tangent_numbers_reference,
    zeta_brute,
)
from sincsum import _kernels_py, specfun
from sincsum import (
    DomainError,
    EvalConfig,
    EvalPoint,
    SizeLimitError,
    bernoulli,
    exact_min_constant,
    hurwitz_zeta,
    power_sum,
    power_sum_deriv,
    power_sum_zeta,
    tangent_numbers,
    zeta_even,
)


def sympy_bernoulli(n_max: int) -> list[Fraction]:
    """B_0..B_{n_max} from sympy, converted to the B_1 = -1/2 convention."""
    table = []
    for n in range(n_max + 1):
        ref = sympy.Rational(-1, 2) if n == 1 else sympy.bernoulli(n)
        table.append(Fraction(int(ref.p), int(ref.q)))
    return table


class TestBernoulli:
    def test_small_values(self):
        assert bernoulli(0) == [Fraction(1)]
        assert bernoulli(2) == [Fraction(1), Fraction(-1, 2), Fraction(1, 6)]
        assert bernoulli(4)[4] == Fraction(-1, 30)

    def test_against_sympy(self):
        # zeta_even reaches B_{2n} up to 2n = FACTORIAL_CAP
        n_max = specfun.FACTORIAL_CAP
        assert bernoulli(n_max) == sympy_bernoulli(n_max)

    def test_cache_growth(self, monkeypatch):
        monkeypatch.setattr(specfun, "_tangent_cache", ((), ()))
        for n_max in (3, 201, 10):
            assert bernoulli(n_max) == sympy_bernoulli(n_max)

    def test_cap(self):
        with pytest.raises(SizeLimitError):
            bernoulli(specfun.BERNOULLI_CAP + 1)

    def test_defining_recurrence_exactly(self):
        table = bernoulli(60)
        for n in range(1, 61):
            acc = sum(math.comb(n + 1, k) * table[k] for k in range(n + 1))
            # recurrence: sum_{k<=n} C(n+1,k) B_k = (n+1) B_n + sum_{k<n} ...
            # the defining form sums k = 0..n-1 to -(n+1) B_n
            assert sum(
                math.comb(n + 1, k) * table[k] for k in range(n)
            ) == -(n + 1) * table[n]
            del acc

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            bernoulli(-1)


class TestTangentNumbers:
    def test_small_values(self):
        assert tangent_numbers(0) == ()
        assert tangent_numbers(5) == (1, 2, 16, 272, 7936)

    def test_against_taylor_series(self):
        # tan x = sum_n T_n x^(2n-1) / (2n-1)!
        x = sympy.Symbol("x")
        series = sympy.series(sympy.tan(x), x, 0, 40).removeO()
        expected = tuple(
            int(series.coeff(x, 2 * n - 1) * sympy.factorial(2 * n - 1))
            for n in range(1, 21)
        )
        assert tangent_numbers(20) == expected

    def test_cache_growth(self, monkeypatch):
        full = tangent_numbers_reference(300)
        for order in ((3, 60, 10), (1, 2, 3), (5, 3, 64, 65, 200, 300), (299, 1, 300)):
            monkeypatch.setattr(specfun, "_tangent_cache", ((), ()))
            for m in order:
                assert tangent_numbers(m) == full[:m]
            table, column = specfun._tangent_cache
            assert table == full[: max(order)] and len(column) == len(table)

    def test_concurrent_growth(self, monkeypatch):
        # a table and column published apart, or a lost update, would show
        # as a wrong prefix or a column that does not match its table
        monkeypatch.setattr(specfun, "_tangent_cache", ((), ()))
        full = tangent_numbers_reference(200)
        wrong = []

        def grow(seed):
            order = random.Random(seed).sample(range(1, 201), 200)
            for m in order:
                if tangent_numbers(m) != full[:m]:
                    wrong.append(m)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=grow, args=(seed,)) for seed in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        table, column = specfun._tangent_cache
        assert table == full and len(column) == len(table)

    def test_grown_table_equals_a_one_shot_build_at_the_cap(self):
        m = specfun.BERNOULLI_CAP // 2
        full = tangent_numbers_reference(m)
        state = ((), ())
        for step in (1, 2, 7, 64, 513, m):
            state = specfun._extend_tangents(*state, step)
        assert state[0] == full
        assert tangent_numbers(m) == full

    def test_cap(self):
        cap = specfun.BERNOULLI_CAP // 2
        assert len(tangent_numbers(cap)) == cap
        with pytest.raises(SizeLimitError, match="Bernoulli index 2050 exceeds cap 2048"):
            tangent_numbers(cap + 1)


@pytest.mark.parametrize(
    "fn", [bernoulli, tangent_numbers, zeta_even, exact_min_constant]
)
@pytest.mark.parametrize("index", [2.0, "2", None, -1, True, False])
def test_exact_table_index_rule(fn, index):
    # one rule for every exact-table index: an int, not a bool, no less than the least
    with pytest.raises(DomainError):
        fn(index)


class TestZetaEven:
    def test_known_rational_parts(self):
        assert zeta_even(1).rational_part == Fraction(1, 6)
        assert zeta_even(2).rational_part == Fraction(1, 90)
        assert zeta_even(3).rational_part == Fraction(1, 945)

    def test_against_direct_summation(self):
        for n in range(1, 11):
            oracle, err = zeta_brute(2.0 * n, 1.0)
            assert zeta_even(n).float_value == pytest.approx(oracle, abs=err + 1e-13)

    def test_float_matches_rational(self):
        for n in range(1, 16):
            zv = zeta_even(n)
            ref = float(zv.rational_part) * math.pi ** (2 * n)
            assert zv.float_value == pytest.approx(ref, rel=1e-14)

    def test_agrees_with_hurwitz(self):
        for n in range(1, 11):
            assert zeta_even(n).float_value == pytest.approx(
                hurwitz_zeta(2.0 * n, 1.0), abs=1e-13
            )

    def test_matches_bernoulli_formula(self):
        # the earlier form (-1)^(n+1) B_{2n} (2 pi)^(2n) / (2 (2n)!), as an oracle
        table = bernoulli(specfun.FACTORIAL_CAP)
        for n in range(1, specfun.FACTORIAL_CAP // 2 + 1):
            rational = (-1) ** (n + 1) * table[2 * n] * Fraction(
                2 ** (2 * n), 2 * math.factorial(2 * n)
            )
            zv = zeta_even(n)
            assert zv.rational_part == rational, n
            assert zv.float_value == float(rational) * math.pi ** (2 * n), n


class TestHurwitzZeta:
    def test_reduces_to_zeta(self):
        assert hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-14)

    def test_half_shift(self):
        # sum over (m + 1/2)^-2 equals pi^2/2
        assert hurwitz_zeta(2.0, 0.5) == pytest.approx(math.pi**2 / 2.0, abs=1e-13)

    def test_combined_half_shift_sum(self):
        # both tails together: sum over |1/2 + m|^-4 = 2 (2^4 - 1) zeta(4)
        total = hurwitz_zeta(4.0, 0.5) + hurwitz_zeta(4.0, 0.5)
        assert total == pytest.approx(30.0 * zeta_even(2).float_value, abs=1e-12)

    def test_against_mpmath_grid(self):
        for s in (1.001, 1.5, 2.0, 3.7, 10.0, 41.5):
            for a in (0.1, 0.35, 0.5, 1.0, 1.7, 2.0):
                ref = float(mp.zeta(s, a))
                assert hurwitz_zeta(s, a) == pytest.approx(
                    ref, rel=1e-13, abs=1e-13
                ), (s, a)

    @given(st.floats(1.05, 6.0), st.floats(0.5, 1.0))
    def test_shift_identity(self, s, a):
        # zeta(s, a) = a^-s + zeta(s, a+1); sampled where values are O(10)
        lhs = hurwitz_zeta(s, a)
        rhs = a ** (-s) + hurwitz_zeta(s, a + 1.0)
        assert abs(lhs - rhs) <= 1e-13

    @given(st.floats(1.05, 12.0), st.floats(0.05, 2.0))
    def test_shift_identity_wide(self, s, a):
        if a + 1.0 > 2.0:
            a = 1.0
        lhs = hurwitz_zeta(s, a)
        rhs = a ** (-s) + hurwitz_zeta(s, a + 1.0)
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))

    def test_remainder_gauge_sound(self):
        # the kernel's truncation gauge must dominate the true error
        import random

        from sincsum import backend

        rng = random.Random(7)
        for _ in range(300):
            s = 1.01 + 30.0 * rng.random()
            a = 0.05 + 1.95 * rng.random()
            value, gauge = backend.zeta_em(s, a)
            ref = float(mp.zeta(mp.mpf(s), mp.mpf(a)))
            assert abs(value - ref) <= gauge + 1e-13 * max(1.0, abs(ref)), (s, a)

    def test_uncertified_gauge_message(self, monkeypatch):
        from sincsum import PrecisionError, backend

        monkeypatch.setattr(backend, "zeta_em", lambda s, a: (1.0, 1e-11))
        with pytest.raises(PrecisionError, match=r"1e-12 \* max\(1, \|value\|\)") as info:
            hurwitz_zeta(2.0, 1.0)
        assert info.value.achieved_bound == 1e-11

    def test_pole_guard(self):
        edge = 1.0 + specfun.POLE_SLACK
        with pytest.raises(DomainError, match=rf"^s must exceed 1 \+ 1e-09 \(pole at 1\), got {edge}$"):
            hurwitz_zeta(edge, 1.0)
        assert hurwitz_zeta(math.nextafter(edge, 2.0), 1.0) > 1e9 - 1e3
        with pytest.raises(DomainError):
            hurwitz_zeta(1.0, 1.0)
        with pytest.raises(DomainError):
            hurwitz_zeta(1.0 + 1e-10, 1.0)
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, 0.0)
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, 2.5)


class TestZetaEmStart:
    """zeta_em runs one pass at w = N + a >= 8 (N = 0 when a >= 8, else N = 8).

    There the first omitted correction |B_18|/18! s(s+1)...(s+16) w^(-s-17)
    is below 4.6e-16 for every s > 1, so one pass suffices.
    """

    # s - 1 log-spaced over [1e-3, 999]
    S = [1.0 + 1e-3 * 1e6 ** (i / 29) for i in range(30)]
    A = [1e-3, 0.5, 1.0, 1.5, 2.0, 8.0, 9.5, 23.9]

    @pytest.mark.parametrize("a", A)
    def test_first_pass_meets_gauge(self, twin_kernels, a):
        next_coef = abs(mp.bernoulli(18)) / mp.factorial(18)
        w = a if a >= 8.0 else a + 8.0
        for s in self.S:
            value, gauge = twin_kernels.zeta_em(s, a)
            first_pass = float(next_coef * mp.rf(s, 17) * mp.mpf(w) ** (-s - 17))
            assert gauge < 4.6e-16, (s, a)
            assert gauge == pytest.approx(first_pass, rel=1e-12, abs=1e-300), (s, a)
            ref = mp.zeta(mp.mpf(s), mp.mpf(a))
            if ref > mp.mpf(sys.float_info.max):
                assert value == math.inf, (s, a)
                continue
            ulp = math.ulp(float(ref))
            assert abs(mp.mpf(value) - ref) <= gauge + 16.0 * ulp, (s, a)

    def test_one_pass_everywhere(self, twin_kernels):
        # outside s > 1, a > 0 too (negative s, a <= 0, where the gauge bounds
        # nothing), the gauge returned is the one pass's at w = N + a
        next_coef = abs(mp.bernoulli(18)) / mp.factorial(18)
        checked = 0
        for s in [-20.5, -15.7, -9.3, -3.0, -0.5, 0.0, 0.5, 0.999, 1.0] + self.S[::3]:
            for a in [-9.5, -8.001, -7.999, -0.5, -1e-300, 0.0] + self.A + [1e6]:
                w = a if a >= 8.0 else a + 8.0
                base = mp.mpf(w) ** -s
                if not isinstance(base, mp.mpf):
                    continue  # a complex w^-s
                _, gauge = twin_kernels.zeta_em(s, a)
                if float(base) == 0.0:
                    assert gauge == 0.0, (s, a)  # w^-s underflows: the leading sum alone
                    continue
                if abs(base) < sys.float_info.min:
                    continue  # a subnormal w^-s, which carries fewer bits
                first_pass = next_coef * mp.rf(s, 17) * mp.mpf(w) ** (-s - 17)
                if abs(first_pass) > 1e300:
                    continue  # past the float range, or close enough to overflow
                assert gauge == pytest.approx(
                    float(first_pass), rel=1e-12, abs=1e-300
                ), (s, a)
                checked += 1
        assert checked > 200


def hurwitz_zeta_da(s: float, a: float) -> float:
    """d/da of the Hurwitz zeta, -s * zeta(s+1, a)."""
    return -s * hurwitz_zeta(s + 1.0, a)


class TestHurwitzZetaDa:
    def test_examples(self):
        # -2 zeta(3): direct summation oracle
        oracle, err = zeta_brute(3.0, 1.0)
        assert hurwitz_zeta_da(2.0, 1.0) == pytest.approx(-2.0 * oracle, abs=2 * err + 1e-13)
        # -2 sum (m+1/2)^-3
        oracle, err = zeta_brute(3.0, 0.5)
        assert hurwitz_zeta_da(2.0, 0.5) == pytest.approx(-2.0 * oracle, abs=2 * err + 1e-12)
        assert hurwitz_zeta_da(2.0, 0.5) == pytest.approx(-16.82879664423432, abs=1e-10)
        # -3 zeta(4) against the exact even value
        assert hurwitz_zeta_da(3.0, 1.0) == pytest.approx(
            -3.0 * zeta_even(2).float_value, abs=1e-13
        )

    @given(st.floats(1.1, 8.0), st.floats(0.3, 1.9))
    def test_matches_finite_differences(self, s, a):
        step = 1e-6
        fd = (hurwitz_zeta(s, a + step) - hurwitz_zeta(s, a - step)) / (2.0 * step)
        an = hurwitz_zeta_da(s, a)
        assert an == pytest.approx(fd, rel=1e-7, abs=1e-7)


class TestPowerSumZeta:
    def test_constant_at_r_one(self):
        assert power_sum_zeta(EvalPoint(1.0, 0.3)) == pytest.approx(1.0, abs=1e-12)

    def test_table_value_r3(self):
        # P_3(0) = 2/15 at x = 1/2
        assert power_sum_zeta(EvalPoint(3.0, 0.5)) == pytest.approx(
            2.0 / 15.0, abs=1e-12
        )

    def test_half_integer_value(self):
        # oracle: direct summation of |1/2 + m|^-3 (and mpmath)
        oracle, err = power_sum_brute(1.5, 0.5)
        got = power_sum_zeta(EvalPoint(1.5, 0.5))
        assert got == pytest.approx(oracle, abs=err + 1e-12)
        assert got == pytest.approx(0.5427545144408352, abs=1e-13)

    def test_matches_direct_route_on_grid(self):
        cfg = EvalConfig(target_tol=1e-12)
        worst = 0.0
        for r in (1.0, 1.5, 2.0, 3.0, 5.0):
            for i in range(256):
                x = i / 255.0
                direct, _ = power_sum(EvalPoint(r, x), cfg)
                closed = power_sum_zeta(EvalPoint(r, x))
                worst = max(worst, abs(direct - closed))
        assert worst <= 1e-10

    def test_endpoints_by_continuity(self):
        assert power_sum_zeta(EvalPoint(2.5, 0.0)) == 1.0
        assert power_sum_zeta(EvalPoint(2.5, 1.0)) == 1.0


class TestPowerSumDeriv:
    def test_zero_at_half(self):
        assert abs(power_sum_deriv(EvalPoint(2.0, 0.5))) <= 1e-10

    def test_zero_for_constant(self):
        assert abs(power_sum_deriv(EvalPoint(1.0, 0.4))) <= 1e-10

    def test_matches_fd(self):
        an = power_sum_deriv(EvalPoint(2.0, 0.25))
        fd = power_sum_fd_deriv(EvalPoint(2.0, 0.25), 1e-4)
        assert fd == pytest.approx(an, rel=1e-6)

    def test_exact_value_r2(self):
        # S_2 = 1/3 + 2/3 cos^2(pi x), so S_2' = -(2 pi/3) sin(2 pi x)
        an = power_sum_deriv(EvalPoint(2.0, 0.25))
        assert an == pytest.approx(-2.0 * math.pi / 3.0, rel=1e-13)

    @given(st.floats(0.55, 8.0), st.floats(0.01, 0.99))
    def test_antisymmetry(self, r, x):
        a = power_sum_deriv(EvalPoint(r, x))
        b = power_sum_deriv(EvalPoint(r, 1.0 - x))
        assert abs(a + b) <= 1e-10 * max(1.0, abs(a))

    @pytest.mark.parametrize("r", [1.0, 2.0, 7.5, 40.0])
    @pytest.mark.parametrize("x", [1e-20, 1.0 - 1e-16])
    def test_next_to_endpoints(self, r, x):
        # at x = 1e-20, x - 1 rounds to -1, so the sinc(x - 1) head term is 0
        ref = float(power_sum_deriv_mp(r, x))
        assert _kernels_py.power_sum_deriv(r, x) == pytest.approx(ref, abs=1e-12)
        assert power_sum_deriv(EvalPoint(r, x)) == pytest.approx(ref, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            power_sum_deriv(EvalPoint(2.0, 0.0))


class TestPolygamma:
    def test_value_at_half(self):
        # -2! * sum (m+1/2)^-3: direct summation oracle
        oracle, err = zeta_brute(3.0, 0.5)
        got = polygamma_even_series(1, 0.5)
        assert got == pytest.approx(-2.0 * oracle, abs=2 * err + 1e-12)
        assert got == pytest.approx(-16.82879664423432, abs=1e-10)

    def test_fourth_order_at_half(self):
        oracle, err = zeta_brute(5.0, 0.5)
        assert polygamma_even_series(2, 0.5) == pytest.approx(
            -24.0 * oracle, abs=24 * err + 1e-10
        )

    def test_against_mpmath(self):
        for n in (1, 2, 3):
            for x in (0.2, 0.5, 0.8):
                ref = float(mp.polygamma(2 * n, x))
                assert polygamma_even_series(n, x) == pytest.approx(ref, rel=1e-12)

    def test_half_integer_route_consistency(self):
        # the polygamma identity reproduces the zeta route at r = n + 1/2
        for n in (1, 2, 3):
            for x in (0.1, 0.3, 0.5, 0.9):
                via_polygamma = power_sum_half_integer(n, x)
                via_zeta = power_sum_zeta(EvalPoint(n + 0.5, x))
                assert via_polygamma == pytest.approx(via_zeta, abs=1e-10)
