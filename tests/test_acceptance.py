"""Acceptance suite: the eleven exit criteria, each at its stated tolerance
and runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion with its wall time.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from helpers import power_sum_fd_deriv, power_sum_half_integer
from sincsum import (
    ConstantQuery,
    EvalConfig,
    EvalPoint,
    bernoulli,
    crude_bound,
    exact_min_constant,
    lq_norm_halfshift,
    min_constant,
    poly_eval,
    poly_f,
    poly_min_certificate,
    power_sum,
    power_sum_deriv,
    power_sum_zeta,
    transference_factor,
)
from sincsum.cli import main as cli_main
from sincsum.verify.certify import certify
from sincsum.verify.corpus import corpus
from sincsum.verify.engine import majorization_property, proof_chain, verify_global_min

F = Fraction


class _Budget:
    """Context manager asserting the criterion's runtime budget."""

    def __init__(self, criterion: str, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"{verdict} {self.criterion} ({dt:.2f}s, budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert dt < self.seconds, f"{self.criterion} exceeded budget: {dt:.2f}s"
        return False


def test_criterion_01_exact_polynomial_table():
    expected = {
        1: (F(1),),
        2: (F(1, 3), F(2, 3)),
        3: (F(2, 15), F(11, 15), F(2, 15)),
        4: (F(17, 315), F(4, 7), F(38, 105), F(4, 315)),
        5: (F(62, 2835), F(1072, 2835), F(484, 945), F(247, 2835), F(2, 2835)),
    }
    with _Budget("criterion 1: exact polynomial table r=1..5", 1.0):
        for r, coeffs in expected.items():
            assert poly_f(r).coeffs == coeffs  # zero tolerance


def test_criterion_02_unit_sum():
    with _Budget("criterion 2: |S_1(x) - 1| <= 1e-11 on 10^4 points", 5.0):
        cfg = EvalConfig(target_tol=1e-12)
        worst = 0.0
        n = 10_000
        for i in range(n):
            x = i / (n - 1)
            value, _ = power_sum(EvalPoint(1.0, x), cfg)
            worst = max(worst, abs(value - 1.0))
        assert worst <= 1e-11, worst


def test_criterion_03_constant_cross_check():
    with _Budget("criterion 3: exact constants n=1..15", 1.0):
        for n in range(1, 16):
            exact = exact_min_constant(n)
            b = abs(bernoulli(2 * n)[2 * n])
            assert exact == F((2 ** (2 * n) - 1) * 2 ** (2 * n)) * b / math.factorial(
                2 * n
            )
            assert exact == poly_f(n).coeffs[0]
            assert float(exact) == pytest.approx(min_constant(2.0 * n), rel=1e-13)
        assert exact_min_constant(2) == F(1, 3)
        assert exact_min_constant(3) == F(2, 15)
        assert exact_min_constant(4) == F(17, 315)


def test_criterion_04_minimum_certification():
    with _Budget("criterion 4: global minimum (grid + exact certificates)", 30.0):
        for r in (1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 8.0, 1.02**256):
            rep = verify_global_min(r, grid_n=4096)
            assert rep.status == "passed", (r, rep)
        for r in range(1, 51):
            value, statement = poly_min_certificate(poly_f(r))
            assert value > 0
            assert statement


def test_criterion_05_inequality_corpus():
    with _Budget("criterion 5: corpus certified, none violated/inconclusive", 60.0):
        entries = corpus()
        assert len(entries) >= 30
        for entry in entries:
            out = certify(entry)
            assert out.status == "certified", (entry.id, out.status)


def test_criterion_06_majorization_property():
    with _Budget("criterion 6: 10^5 majorization instances", 10.0):
        rep = majorization_property(100_000, seed=42)
        assert rep.violations == 0
        assert rep.first_violation is None


def test_criterion_07_proof_chain():
    with _Budget("criterion 7: proof chain inequalities", 10.0):
        for r in (1.0, 1.5, 2.0, 4.0):
            for i in range(1, 20):
                w = proof_chain(r, 0.05 * i)
                assert w.passed, (r, 0.05 * i, w.margins)
                assert w.y0_tilde > w.threshold
                assert all(v < w.threshold for v in w.y_seq[1:])


def test_criterion_08_cross_method_consensus():
    with _Budget("criterion 8: cross-method agreement", 20.0):
        cfg = EvalConfig(target_tol=1e-12)
        worst = 0.0
        for r in (2, 3, 4, 5, 8, 16):
            poly = poly_f(r)
            for i in range(128):
                x = i / 127.0
                point = EvalPoint(float(r), x)
                direct, _ = power_sum(point, cfg)
                closed = power_sum_zeta(point)
                via_poly = poly_eval(poly, x)
                gap = max(direct, closed, via_poly) - min(direct, closed, via_poly)
                worst = max(worst, gap)
        assert worst <= 1e-10, worst

        worst_half = 0.0
        for n, r in ((1, 1.5), (2, 2.5), (3, 3.5)):
            for i in range(1, 127):
                x = i / 127.0
                gap = abs(
                    power_sum_half_integer(n, x) - power_sum_zeta(EvalPoint(r, x))
                )
                worst_half = max(worst_half, gap)
        assert worst_half <= 1e-10, worst_half


def test_criterion_09_gradient_check():
    with _Budget("criterion 9: analytic vs finite-difference gradient", 10.0):
        rng = random.Random(1905)
        step = 5e-5
        worst = 0.0
        for _ in range(200):
            r = 1.0 + 7.0 * rng.random()
            x = 0.05 + 0.9 * rng.random()
            analytic = power_sum_deriv(EvalPoint(r, x))
            fd = power_sum_fd_deriv(EvalPoint(r, x), step)
            rel = abs(fd - analytic) / max(abs(analytic), 1e-12)
            worst = max(worst, rel)
        assert worst <= 1e-6, worst


def test_criterion_10_transference_factors():
    with _Budget("criterion 10: transference factors and norms", 5.0):
        assert transference_factor(ConstantQuery(2.0, 1)).factor == pytest.approx(
            1.0, abs=1e-12
        )
        assert transference_factor(ConstantQuery(4.0, 1)).factor == pytest.approx(
            3.0**0.25, abs=1e-12
        )
        q_grid = [2.0 * 1.09051 ** k for k in range(60) if 2.0 * 1.09051 ** k <= 64.0]
        q_grid.append(64.0)
        for d in (1, 2, 3):
            cap = crude_bound(d)
            for q in q_grid:
                assert transference_factor(ConstantQuery(q, d)).factor <= cap + 1e-12
        prev = math.inf
        for q in q_grid:
            norm = lq_norm_halfshift(q)
            assert norm >= 2.0
            assert norm <= prev + 1e-12
            prev = norm


def test_criterion_11_figure_reproduction(capsys, tmp_path):
    with _Budget("criterion 11: figure curve family", 10.0):
        out_path = tmp_path / "figure.csv"
        code = cli_main(["figure", "--grid", "1024", "--output", str(out_path)])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "x,r,f_r(x)"
        curves: dict[float, list[tuple[float, float]]] = {}
        for line in lines[1:]:
            x, r, y = (float(v) for v in line.split(","))
            curves.setdefault(r, []).append((x, y))
        assert len(curves) == 9
        for r, pts in curves.items():
            xs = [p[0] for p in pts]
            ys = [p[1] for p in pts]
            assert len(xs) == 1024
            i_min = ys.index(min(ys))
            best = min(abs(x - 0.5) for x in xs)
            assert abs(xs[i_min] - 0.5) <= best + 1e-12, r
            n = len(xs)
            for i in range(n):
                assert abs(ys[i] - ys[n - 1 - i]) <= 1e-9, (r, xs[i])
