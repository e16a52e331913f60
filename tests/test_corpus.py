"""Structure and pointwise truth of the inequality corpus."""

import math

import pytest

from sincsum.verify.corpus import (
    THRESHOLD,
    corpus,
    quartic_coefficient_margin,
)
from sincsum.verify.interval import Interval

ENTRIES = corpus()


class TestRegistry:
    def test_size_and_uniqueness(self):
        assert len(ENTRIES) >= 30
        ids = [e.id for e in ENTRIES]
        assert len(set(ids)) == len(ids)

    def test_expected_families_present(self):
        ids = {e.id for e in ENTRIES}
        assert "sqrt2_sin_lower" in ids
        assert "near_pair_min_at_half" in ids
        for m in range(1, 11):
            assert f"far_pair_max_at_half_m{m:02d}" in ids
            assert f"translate_quartic_m{m:02d}" in ids
        for big_m in range(3, 11):
            assert f"ratio_deriv_sign_M{big_m:02d}" in ids
        for tag in ("1", "1p5", "2", "3", "5"):
            assert f"power_gap_deriv_r{tag}" in ids

    def test_descriptions_nonempty(self):
        assert all(e.description for e in ENTRIES)

    def test_every_entry_has_derivative(self):
        assert all(e.dexpression is not None for e in ENTRIES)


class TestPointwiseTruth:
    @pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.id)
    def test_equality_points_are_tight(self, entry):
        for p in entry.equality_points:
            enc = entry.expression(Interval.point(p))
            assert max(abs(enc.lo), abs(enc.hi)) <= 1e-12, (entry.id, p)

    @pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.id)
    def test_claim_holds_on_sample_grid(self, entry):
        lo, hi = entry.domain.lo, entry.domain.hi
        for i in range(41):
            x = lo + (hi - lo) * i / 40.0
            enc = entry.expression(Interval.point(x))
            if entry.claim == "nonnegative":
                assert enc.hi >= -1e-12, (entry.id, x)
            else:
                assert enc.lo <= 1e-12, (entry.id, x)

    @pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.id)
    def test_derivative_matches_finite_differences(self, entry):
        # guards the hand-derived dexpression formulas
        lo, hi = entry.domain.lo, entry.domain.hi
        h = 1e-6 * (hi - lo)
        for t in (0.15, 0.4, 0.75):
            x = lo + (hi - lo) * t
            fp = entry.expression(Interval.point(x + h)).mid
            fm = entry.expression(Interval.point(x - h)).mid
            fd = (fp - fm) / (2.0 * h)
            an = entry.dexpression(Interval.point(x)).mid
            assert an == pytest.approx(fd, rel=2e-5, abs=2e-5), (entry.id, x)


class TestAnchorsAndScalars:
    def test_weighted_quartic_entry_boundary(self):
        entry = {e.id: e for e in ENTRIES}["weighted_cos_quartic"]
        enc = entry.expression(Interval.point(0.0))
        assert max(abs(enc.lo), abs(enc.hi)) <= 1e-14  # (0+1)*1 - 1 = 0

    def test_quartic_coefficient_margin(self):
        value = quartic_coefficient_margin()
        assert value > -2.0
        assert value == pytest.approx(-1.9537471, abs=1e-6)

    def test_threshold_value(self):
        assert THRESHOLD == pytest.approx(4.0 / math.pi**2, abs=1e-16)

    def test_far_pair_value_below_threshold(self):
        # first far pair at the half point: 8/(9 pi^2) < 4/pi^2
        pair = 2.0 / (math.pi * 1.5) ** 2
        assert pair == pytest.approx(0.0900632743487447, abs=1e-15)
        assert pair < THRESHOLD
