"""The bisection certifier: certified, violated, and inconclusive paths."""

import math

import pytest

from sincsum import DomainError
from sincsum.verify.certify import EPS_CERT, CertifiedInequality, certify
from sincsum.verify.corpus import corpus
from sincsum.verify.interval import PI_I, SQRT2_I, Interval


def _basic_lower():
    quarter_pi = PI_I / 4.0
    return CertifiedInequality(
        id="basic",
        domain=Interval(0.0, 1.0),
        expression=lambda x: SQRT2_I * (quarter_pi * x).sin() - x,
        dexpression=lambda x: SQRT2_I * quarter_pi * (quarter_pi * x).cos() - 1.0,
        claim="nonnegative",
        equality_points=(0.0, 1.0),
    )


class TestCertified:
    def test_basic_inequality(self):
        out = certify(_basic_lower())
        assert out.status == "certified"
        assert out.worst_margin >= -EPS_CERT
        assert out.witness is None
        assert out.boxes_visited >= 1

    def test_cosine_parabola(self):
        half_pi = PI_I / 2.0
        out = certify(
            CertifiedInequality(
                id="cos_parabola",
                domain=Interval(0.0, 1.0),
                expression=lambda x: 1.0 - x.sq() - (half_pi * x).cos(),
                dexpression=lambda x: half_pi * (half_pi * x).sin() - 2.0 * x,
                claim="nonnegative",
                equality_points=(0.0, 1.0),
            )
        )
        assert out.status == "certified"

    def test_trivial_positive_without_derivative(self):
        out = certify(
            CertifiedInequality(
                id="affine",
                domain=Interval(0.0, 1.0),
                expression=lambda x: x + 0.5,
                claim="nonnegative",
            )
        )
        assert out.status == "certified"
        assert out.worst_margin >= 0.4


class TestViolated:
    def test_shifted_sine(self):
        out = certify(
            CertifiedInequality(
                id="sin_minus_half",
                domain=Interval(0.0, 1.0),
                expression=lambda x: (PI_I * x).sin() - 0.5,
                claim="nonnegative",
            )
        )
        assert out.status == "violated"
        # the claim genuinely fails near the left endpoint
        assert out.witness is not None
        assert out.witness < 1.0 / 6.0
        assert math.sin(math.pi * out.witness) < 0.5 - EPS_CERT

    def test_wrong_direction_claim(self):
        out = certify(
            CertifiedInequality(
                id="positive_claimed_nonpositive",
                domain=Interval(0.25, 0.75),
                expression=lambda x: (PI_I * x).sin(),
                claim="nonpositive",
            )
        )
        assert out.status == "violated"


class TestInconclusive:
    def test_without_derivative_boundary_zero_stalls(self):
        # same claim, no mean-value refinement: boundary equality points
        # leave width-scale slack that the minimum box width cannot close
        quarter_pi = PI_I / 4.0
        out = certify(
            CertifiedInequality(
                id="basic_noderiv",
                domain=Interval(0.0, 1.0),
                expression=lambda x: SQRT2_I * (quarter_pi * x).sin() - x,
                claim="nonnegative",
            )
        )
        assert out.status == "inconclusive"


class TestEngineContracts:
    def test_deterministic(self):
        a = certify(_basic_lower())
        b = certify(_basic_lower())
        assert (a.status, a.worst_margin, a.boxes_visited) == (
            b.status,
            b.worst_margin,
            b.boxes_visited,
        )

    def test_claim_validation(self):
        with pytest.raises(DomainError):
            CertifiedInequality(
                id="bad",
                domain=Interval(0.0, 1.0),
                expression=lambda x: x,
                claim="positive",
            )

    @pytest.mark.parametrize(
        "lo, hi",
        [(0.0, 6e-8), (2.0**26, 2.0**26 + 8 * math.ulp(2.0**26))],
        ids=["min-width", "ulp-wide"],
    )
    def test_enclosure_failures_become_inconclusive(self, lo, hi):
        # an expression whose enclosure always fails cannot be decided.  At
        # 6e-8 wide, the minimum box width 1e-8 alone stops the bisection
        # after three levels (widths 3e-8, 1.5e-8, 7.5e-9); at 2**26, where
        # one ulp exceeds that width, eight ulps halve to one-ulp boxes whose
        # midpoint rounds onto an endpoint.  Either way 1 + 2 + 4 + 8 boxes
        def broken(x):
            return x / Interval(-1.0, 1.0)

        out = certify(
            CertifiedInequality(
                id="broken",
                domain=Interval(lo, hi),
                expression=broken,
                claim="nonnegative",
            )
        )
        assert out.status == "inconclusive"
        assert out.boxes_visited == 15
        assert len(out.diagnostics) == 8


def test_full_corpus_certifies():
    for entry in corpus():
        out = certify(entry)
        assert out.status == "certified", (entry.id, out.status, out.diagnostics)
        assert out.worst_margin >= -EPS_CERT
