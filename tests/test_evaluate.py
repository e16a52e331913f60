"""Consensus evaluation across the routes."""

import random

import pytest

from sincsum import (
    EvalConfig,
    EvalPoint,
    backend,
    evaluate,
    exactpoly,
    power_sum,
    power_sum_zeta,
)
from sincsum.verify.suite import GLOBAL_MIN_R, SuiteConfig

RS = (0.502, 1.0, 2.5, 3.0, 100.0, 101.0, 1e45)
XS = (0.0, 1e-20, 0.3, 0.5, 1.0 - 1e-16, 1.0)


class TestEvaluate:
    @pytest.mark.parametrize("r", RS)
    @pytest.mark.parametrize("x", XS)
    def test_equals_routes_called_directly(self, r, x):
        p = EvalPoint(r, x)
        cfg = EvalConfig()
        direct, tail_bound = power_sum(p, cfg)
        routes = {"direct": direct, "hurwitz": power_sum_zeta(p)}
        if r == int(r) and r <= exactpoly.R_CAP:
            routes["polynomial"] = exactpoly.poly_eval(exactpoly.poly_f(int(r)), x)
        res = evaluate(p, cfg)
        assert res.methods == routes
        assert res.value == direct
        assert res.tail_bound == tail_bound
        assert res.spread == max(routes.values()) - min(routes.values())

    def test_integer_order(self):
        res = evaluate(EvalPoint(4.0, 0.4))
        assert set(res.methods) == {"direct", "hurwitz", "polynomial"}
        assert res.spread <= 1e-11
        assert res.value == res.methods["direct"]

    def test_fractional_order(self):
        res = evaluate(EvalPoint(1.75, 0.4))
        assert set(res.methods) == {"direct", "hurwitz"}
        assert res.spread <= 1e-11

    @pytest.mark.parametrize("r", GLOBAL_MIN_R)
    def test_routes_agree_on_the_global_min_grid(self, r):
        # the points of verify's default grid, plus the minimizer
        n = SuiteConfig().grid
        xs = [i / (n - 1) for i in range(n)] + [0.5]
        assert max(evaluate(EvalPoint(r, x)).spread for x in xs) <= 1e-11

    def test_beyond_poly_cap(self):
        res = evaluate(EvalPoint(101.0, 0.5))
        assert "polynomial" not in res.methods


def test_quarter_point_identity(twin_kernels, monkeypatch):
    """S_r(1/4) = 2^(r-1) S_r(1/2), exactly, for every r > 1/2
    (docs/derivations.md section 3), at seeded log-uniform r in [0.51, 600].

    Each term is exp(s log|sinc|) with s = 2r, so a rounding of log|sinc|
    by a relative 2^-53 moves the term by about s 2^-53 relative: the
    bound grows like s.
    """
    monkeypatch.setattr(backend, "power_sum_routes", twin_kernels.power_sum_routes)
    cfg = EvalConfig(1e-13)
    rng = random.Random(0)
    for _ in range(401):
        r = 0.51 * (600.0 / 0.51) ** rng.random()
        quarter = evaluate(EvalPoint(r, 0.25), cfg).value
        half = evaluate(EvalPoint(r, 0.5), cfg).value
        assert abs(quarter - 2.0 ** (r - 1.0) * half) <= 4.0 * 2.0 * r * 2.0**-53 * quarter, r
