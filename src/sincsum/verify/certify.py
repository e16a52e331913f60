"""Adaptive-bisection certification of sign claims over an interval.

A claim is an expression, a closed domain, and a required sign
(nonnegative or nonpositive).  The certifier bisects the domain and tries
to decide the sign of the enclosure on each box; a box counts as certified
when the claimed sign holds up to EPS_CERT = 1e-13, the documented slack
that makes boundary equalities (f(0) = 0 etc.) certifiable at all.

Where the naive enclosure is too loose, a mean-value (centered) form is
tried: f(x) in f(c) + f'(hull(box, c)) * (x - c), with the center taken at
the listed equality points near the box.  First-order zeros at those
points then certify at machine precision instead of stalling at the box
width, which is what lets every corpus entry finish above _MIN_WIDTH.

Violations are only ever reported with a concrete witness point whose own
(degenerate-interval) evaluation breaks the claim by more than the
evaluation error; a loose box enclosure alone never declares violation.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Callable

from ..errors import DomainError
from .interval import EnclosureError, Interval, intersect

#: Certification slack at and around equality points.
EPS_CERT = 1e-13

#: Boxes no wider than this (27 levels below a unit domain), or whose
#: midpoint rounds onto an endpoint (one ulp exceeds it from 2**26 on), are
#: not bisected further; the two rules together bound every search.
_MIN_WIDTH = 1e-8

CLAIMS = ("nonnegative", "nonpositive")


@dataclass
class CertifiedInequality:
    """A named sign claim over a closed interval plus its certification state."""

    id: str
    domain: Interval
    expression: Callable[[Interval], Interval]
    claim: str
    status: str = "inconclusive"
    witness: float | None = None
    dexpression: Callable[[Interval], Interval] | None = None
    equality_points: tuple[float, ...] = ()
    description: str = ""
    worst_margin: float | None = None
    boxes_visited: int = 0
    diagnostics: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.claim not in CLAIMS:
            raise DomainError(f"claim must be one of {CLAIMS}, got {self.claim!r}")


def _lower_margin(enc: Interval, claim: str) -> float:
    """Lower bound of the claim-normalized value (>= 0 means claim holds)."""
    return enc.lo if claim == "nonnegative" else -enc.hi


def _upper_margin(enc: Interval, claim: str) -> float:
    return enc.hi if claim == "nonnegative" else -enc.lo


def _try_eval(fn, box: Interval) -> Interval | None:
    try:
        out = fn(box)
    except EnclosureError:
        return None
    if not (math.isfinite(out.lo) and math.isfinite(out.hi)):
        return None
    return out


def _centered_enclosure(ineq: CertifiedInequality, box: Interval) -> Interval | None:
    """Mean-value form enclosure; None when unavailable."""
    if ineq.dexpression is None:
        return None
    w = box.width
    centers = [
        p for p in ineq.equality_points if box.lo - w <= p <= box.hi + w
    ] or [box.mid]
    best = None
    for c in centers:
        hull = Interval(min(box.lo, c), max(box.hi, c))
        fc = _try_eval(ineq.expression, Interval.point(c))
        dfb = _try_eval(ineq.dexpression, hull)
        if fc is None or dfb is None:
            continue
        enc = fc + dfb * (box - c)
        if best is None:
            best = enc
        else:
            tighter = intersect(best, enc)
            if tighter is not None:
                best = tighter
    return best


def certify(ineq: CertifiedInequality) -> CertifiedInequality:
    """Run adaptive bisection and return the claim with its status filled in.

    Deterministic for fixed inputs: boxes are explored left to right,
    depth first, and the first confirmed witness stops the search.

    There is no time or box budget.  A box is not bisected once it is no
    wider than _MIN_WIDTH = 1e-8 or its midpoint rounds onto an endpoint.
    So an expression whose enclosure never decides visits every box of a
    full binary tree: 2^28 - 1 boxes on a unit domain such as [0, 1] (27
    levels of bisection), and 2^27 - 1 on [2^26, 2^26 + 1], where the
    midpoint stops splitting after 26 levels.  On the pure backend (an
    Intel Xeon core) a box costs from 1.6 us, for a constant enclosure,
    to about 60 us: the 37 corpus entries average 48-63 us per box over
    their 2,015 boxes.  So 2^27 - 1 boxes take from about 4 minutes to
    over 2 hours, and a corpus-like expression on a unit domain about 4
    hours.  The corpus entries decide far above these stops.
    """
    claim = ineq.claim
    stack = [(ineq.domain.lo, ineq.domain.hi, 0)]
    boxes = 0
    worst = math.inf
    witness = None
    diagnostics: list[str] = []

    while stack:
        lo, hi, depth = stack.pop()
        boxes += 1
        box = Interval(lo, hi)
        enc = _try_eval(ineq.expression, box)

        decided = False
        if enc is not None:
            margin = _lower_margin(enc, claim)
            if margin >= -EPS_CERT:
                worst = min(worst, margin)
                decided = True
            else:
                refined = _centered_enclosure(ineq, box)
                if refined is not None:
                    tighter = intersect(enc, refined)
                    enc = tighter if tighter is not None else refined
                    margin = _lower_margin(enc, claim)
                    if margin >= -EPS_CERT:
                        worst = min(worst, margin)
                        decided = True
        if decided:
            continue

        # a box that looks refuted, or that is split no further, is tested
        # once at its midpoint for a witness
        mid = box.mid
        at_floor = (hi - lo) <= _MIN_WIDTH or not lo < mid < hi
        if at_floor or (enc is not None and _upper_margin(enc, claim) < -EPS_CERT):
            point = _try_eval(ineq.expression, Interval.point(mid))
            if point is not None and _upper_margin(point, claim) < -EPS_CERT:
                witness = mid
                break
        if at_floor:
            if len(diagnostics) < 8:
                diagnostics.append(f"box [{lo!r}, {hi!r}] at depth {depth} undecided")
            continue

        stack.append((mid, hi, depth + 1))
        stack.append((lo, mid, depth + 1))

    if witness is not None:
        status = "violated"
    elif diagnostics:
        status = "inconclusive"
    else:
        status = "certified"
    return replace(
        ineq,
        status=status,
        witness=witness,
        worst_margin=None if not math.isfinite(worst) else worst,
        boxes_visited=boxes,
        diagnostics=tuple(diagnostics),
    )
