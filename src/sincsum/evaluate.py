"""Consensus evaluation across the independent power sum routes.

Three routes exist: the direct tail-bounded lattice sum (any r > 1/2), the
Hurwitz zeta closed form (any r > 1/2), and exact-polynomial evaluation
(integer r up to 100).  ``evaluate`` runs every applicable route, reports
the direct value with its tail bound, and reports the maximum pairwise gap,
which serves as a cheap smoke alarm for implementation disagreement.  A
caller who wants a single route calls it directly: ``core.power_sum``,
``specfun.power_sum_zeta`` or ``exactpoly.poly_eval(poly_f(r), x)``.
"""

from dataclasses import dataclass

from . import exactpoly, specfun
from .core import DEFAULT_CONFIG, EvalConfig, EvalPoint, power_sum


@dataclass(frozen=True)
class EvalResult:
    value: float
    spread: float
    methods: dict[str, float]
    tail_bound: float


def evaluate(p: EvalPoint, cfg: EvalConfig = DEFAULT_CONFIG) -> EvalResult:
    """Evaluate S_r(x) by every applicable route; ``value`` is the direct one."""
    value, tail_bound = power_sum(p, cfg)
    hurwitz = specfun.power_sum_zeta(p)
    poly = exactpoly.poly_route(p.r)
    if poly is None:
        spread = max(value, hurwitz) - min(value, hurwitz)
        methods = {"direct": value, "hurwitz": hurwitz}
    else:
        polynomial = exactpoly.poly_eval(poly, p.x)
        spread = max(value, hurwitz, polynomial) - min(value, hurwitz, polynomial)
        methods = {"direct": value, "hurwitz": hurwitz, "polynomial": polynomial}
    return EvalResult(value, spread, methods, tail_bound)
