"""Global-minimum grid verification, majorization trials, proof chain."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import majorization_reference, power_sum_mp
from sincsum import DomainError, EvalPoint, backend, exactpoly, power_sum
from sincsum.core import R_MAX
from sincsum.verify.engine import (
    ANTISYM_TOL,
    GRID_TOL,
    THRESHOLD,
    majorization_property,
    proof_chain,
    verify_global_min,
)
from sincsum.verify.suite import GLOBAL_MIN_R, PROOF_CHAIN_X, SuiteConfig, run_suite

#: Exponents outside the engine's 1 <= r <= R_MAX, and a non-number.
BAD_R = (math.nan, math.inf, math.nextafter(R_MAX, math.inf), 0.9, "2")


@pytest.mark.parametrize(
    "call",
    [
        lambda: verify_global_min(2.0, grid_n=16.5),
        lambda: SuiteConfig(grid=16.5),
        lambda: majorization_property(2.5, seed=0),
        lambda: majorization_property(True, seed=0),
        lambda: SuiteConfig(trials=2.5),
        lambda: SuiteConfig(trials=True),
        lambda: majorization_property(10, 1.5),
        lambda: majorization_property(10, True),
        lambda: majorization_property(10, None),
        lambda: SuiteConfig(seed=-3.25),
        lambda: SuiteConfig(seed="a"),
    ],
    ids=[
        "global-min-grid-16.5",
        "suite-grid-16.5",
        "majorization-trials-2.5",
        "majorization-trials-True",
        "suite-trials-2.5",
        "suite-trials-True",
        "majorization-seed-1.5",
        "majorization-seed-True",
        "majorization-seed-None",
        "suite-seed--3.25",
        "suite-seed-a",
    ],
)
def test_counts_must_be_ints(call):
    # a float count raised a raw TypeError or failed later, and True ran one trial;
    # random.Random hashes a float seed, takes True as 1 and None as OS entropy
    with pytest.raises(DomainError, match="must be an integer"):
        call()


class TestGlobalMin:
    def test_r2_minimum_is_one_third(self):
        rep = verify_global_min(2.0, grid_n=512)
        assert rep.status == "passed"
        assert rep.min_value == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert rep.worst_margin >= -1e-9
        assert rep.deriv_worst <= 1e-9
        assert rep.antisym_worst <= 1e-9

    def test_r1_trivial_margins(self):
        rep = verify_global_min(1.0, grid_n=256)
        assert rep.status == "passed"
        # the sum is constant, so every margin collapses to rounding noise
        assert abs(rep.worst_margin) <= 1e-11
        assert rep.deriv_worst <= 1e-11

    def test_half_integer_minimum_value(self):
        rep = verify_global_min(1.5, grid_n=256)
        assert rep.status == "passed"
        assert rep.min_value == pytest.approx(
            float(power_sum_mp(1.5, 0.5)), abs=1e-12
        )

    @pytest.mark.parametrize("r", GLOBAL_MIN_R)
    def test_min_value_is_the_direct_route(self, r):
        rep = verify_global_min(r, grid_n=1024)
        assert rep.min_value == power_sum(EvalPoint(r, 0.5))[0]

    @pytest.mark.parametrize("r", [2.0, 1.5])
    def test_reads_only_the_direct_route(self, r, monkeypatch):
        expected = verify_global_min(r, grid_n=256)

        def refuse(*args):
            raise AssertionError("the grid verdict reads only the direct route")

        monkeypatch.setattr(backend, "power_sum_zeta", refuse)
        monkeypatch.setattr(exactpoly, "poly_eval", refuse)
        assert verify_global_min(r, grid_n=256) == expected

    def test_validation(self):
        with pytest.raises(DomainError):
            verify_global_min(2.0, grid_n=8)
        with pytest.raises(DomainError):
            SuiteConfig(grid=8)

    @pytest.mark.parametrize("r", BAD_R)
    def test_r_outside_the_claim(self, r):
        with pytest.raises(DomainError):
            verify_global_min(r, grid_n=64)

    def test_largest_r_is_accepted(self):
        rep = verify_global_min(R_MAX, grid_n=16)
        assert rep.r == R_MAX
        # S_r(1/2) underflows to 0.0, so the worst grid margin would be exactly 0
        assert rep.min_value == 0.0
        assert rep.status == "inconclusive"
        assert "underflows" in rep.note


class TestGlobalMinFailures:
    """Each of the grid's three criteria fails it on its own."""

    R = 2.0
    X = 4 / 15  # a point of the 16-point grid left of 1/2; its mirror is 11/15

    def _bend(self, monkeypatch, name, xs, change):
        real = getattr(backend, name)

        def bent(r, x, *rest):
            out = real(r, x, *rest)
            return change(out) if r == self.R and x in xs else out

        monkeypatch.setattr(backend, name, bent)

    def test_value_dip(self, monkeypatch):
        self._bend(monkeypatch, "power_sum_fixed", (self.X,), lambda out: (0.0, out[1]))
        rep = verify_global_min(self.R, grid_n=16)
        assert rep.status == "failed"
        assert rep.worst_x == self.X
        assert rep.worst_margin == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert rep.deriv_worst <= GRID_TOL
        assert rep.antisym_worst <= ANTISYM_TOL

    def test_derivative_sign(self, monkeypatch):
        # flipping both mirror points keeps the derivative antisymmetric
        self._bend(monkeypatch, "power_sum_deriv", (self.X, 11 / 15), lambda d: -d)
        rep = verify_global_min(self.R, grid_n=16)
        assert rep.status == "failed"
        assert rep.deriv_worst > 2.0  # S_2'(4/15) is about -2.08
        assert rep.worst_margin >= -GRID_TOL
        assert rep.antisym_worst <= ANTISYM_TOL

    def test_antisymmetry(self, monkeypatch):
        # the derivative stays negative left of 1/2, but no longer mirrors
        self._bend(monkeypatch, "power_sum_deriv", (self.X,), lambda d: d - 10 * ANTISYM_TOL)
        rep = verify_global_min(self.R, grid_n=16)
        assert rep.status == "failed"
        assert rep.antisym_worst > ANTISYM_TOL
        assert rep.worst_margin >= -GRID_TOL
        assert rep.deriv_worst <= GRID_TOL

    def test_suite_check_fails_with_the_worst_x(self, monkeypatch):
        self._bend(monkeypatch, "power_sum_fixed", (self.X,), lambda out: (0.0, out[1]))
        checks = {c.check_id: c for c in run_suite(SuiteConfig(grid=16, trials=1))}
        assert checks["globalmin_r2"].status == "failed"
        assert checks["globalmin_r2"].witness == self.X
        assert [k for k, c in checks.items() if c.status == "failed"] == ["globalmin_r2"]


class TestMajorization:
    def test_documented_instance(self):
        # x = (0.3, 0.8), y = (0.4, 0.6), threshold 0.5, g(t) = t^2:
        # 0.09 + 0.64 = 0.73 >= 0.16 + 0.36 = 0.52
        gx = 0.3**2 + 0.8**2
        gy = 0.4**2 + 0.6**2
        assert gx == pytest.approx(0.73)
        assert gy == pytest.approx(0.52)
        assert gx >= gy

    def test_equal_sequences_give_equality(self):
        xs = ys = (0.2, 0.5, 1.4)
        for g in (lambda t: t**2, math.expm1, lambda t: max(0.0, t - 0.3) ** 2):
            assert math.fsum(map(g, xs)) == math.fsum(map(g, ys))

    def test_bulk_run_no_violations(self):
        rep = majorization_property(20_000, seed=42)
        assert rep.violations == 0
        assert rep.first_violation is None
        assert rep.min_margin >= -1e-12

    def test_deterministic(self):
        a = majorization_property(2_000, seed=5)
        b = majorization_property(2_000, seed=5)
        assert a == b

    @given(st.integers(0, 10_000))
    def test_any_seed_holds(self, seed):
        rep = majorization_property(50, seed=seed)
        assert rep.violations == 0

    def test_validation(self):
        with pytest.raises(DomainError):
            majorization_property(0, seed=1)
        with pytest.raises(DomainError):
            SuiteConfig(trials=0)

    @pytest.mark.parametrize("seed", [0, 1, 5, 42, 2**40 + 3])
    @pytest.mark.parametrize("trials", [1, 7, 2000])
    def test_matches_reference_loop(self, trials, seed):
        assert majorization_property(trials, seed) == majorization_reference(trials, seed)

    @pytest.mark.parametrize("seed", [0, 42])
    def test_matches_reference_loop_full_size(self, seed):
        # 10^5 trials: the suite default (seed 0) and acceptance criterion 6 (seed 42)
        assert majorization_property(100_000, seed) == majorization_reference(100_000, seed)

    def test_getrandbits_draws_match_random_methods(self):
        """Rejection draws on getrandbits(n.bit_length()) consume the stream
        exactly as randint(1, 8), randrange(n) and randrange(3) do."""

        def below(getrandbits, n):
            k = n.bit_length()
            v = getrandbits(k)
            while v >= n:
                v = getrandbits(k)
            return v

        chooser = random.Random(2024)
        for seed in range(20):
            plain = random.Random(seed)
            bits = random.Random(seed)
            for _ in range(2_000):
                n = chooser.randint(1, 10)
                if n == 9:
                    assert plain.randint(1, 8) == 1 + below(bits.getrandbits, 8)
                elif n == 10:
                    assert plain.random() == bits.random()
                else:
                    assert plain.randrange(n) == below(bits.getrandbits, n)
                    assert plain.randrange(3) == below(bits.getrandbits, 3)
            assert plain.getstate() == bits.getstate()


class TestProofChain:
    def test_generic_point(self):
        w = proof_chain(2.0, 0.3)
        assert w.passed, w.margins
        assert w.threshold == pytest.approx(4.0 / math.pi**2, abs=1e-16)
        assert len(w.x_seq) == 65
        assert w.y0_tilde > w.threshold
        assert all(v < w.threshold for v in w.y_seq[1:])

    def test_at_the_minimizer_everything_is_tight(self):
        w = proof_chain(2.0, 0.5)
        assert w.passed
        for a, b in zip(w.x_seq, w.y_seq):
            assert a == pytest.approx(b, abs=1e-15)
        assert w.x0_tilde == pytest.approx(w.y0_tilde, abs=1e-15)

    def test_first_far_pair_value(self):
        w = proof_chain(2.0, 0.5)
        assert w.y_seq[1] == pytest.approx(8.0 / (9.0 * math.pi**2), abs=1e-15)
        assert w.y_seq[1] < THRESHOLD

    def test_full_cross_product(self):
        for r in (1.0, 1.5, 2.0, 4.0):
            for i in range(1, 20):
                w = proof_chain(r, 0.05 * i)
                assert w.passed, (r, 0.05 * i, w.margins)

    # from about 2.8e11 on, the threshold gap 4/pi^2 (2^(1/r) - 1) is below tau
    @pytest.mark.parametrize("r", [1e3, 1e4, 1e6, 1e12, R_MAX])
    def test_large_r_heads_do_not_underflow(self, r):
        for x in PROOF_CHAIN_X:
            w = proof_chain(r, x)
            assert w.passed, (r, x, w.margins)

    def test_validation(self):
        with pytest.raises(DomainError):
            proof_chain(0.8, 0.3)
        with pytest.raises(DomainError):
            proof_chain(2.0, 1.5)

    @pytest.mark.parametrize("r", BAD_R)
    def test_r_outside_the_claim(self, r):
        with pytest.raises(DomainError):
            proof_chain(r, 0.3)

    def test_largest_r_is_accepted(self):
        assert proof_chain(R_MAX, 0.3).r == R_MAX
