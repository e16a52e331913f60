"""Consensus evaluation across the independent power sum routes.

Three routes exist: the direct tail-bounded lattice sum (any r > 1/2), the
Hurwitz zeta closed form (any r > 1/2), and exact-polynomial evaluation
(integer r up to 100).  ``evaluate`` runs every applicable route, reports
the direct value with its tail bound, and reports the maximum pairwise gap,
which serves as a cheap smoke alarm for implementation disagreement.  The
direct and closed-form routes run in one kernel pass,
``backend.power_sum_routes``, built from the same pieces as the two
single-route kernels.  It forms their shared terms once: the m = 0 and
m = -1 terms, the prefactor (|sin(pi x)|/pi)^(2r) and the Euler-Maclaurin
factors.  It returns both routes' floats bit for bit at every x, the
closed form's endpoints included.  A caller who wants a single route calls
it directly: ``core.power_sum``, ``specfun.power_sum_zeta`` or
``exactpoly.poly_eval(poly_f(r), x)``.
"""

from dataclasses import dataclass

from . import backend, core, exactpoly
from .core import DEFAULT_CONFIG, EvalConfig, EvalPoint


@dataclass(frozen=True)
class EvalResult:
    value: float
    spread: float
    methods: dict[str, float]
    tail_bound: float


def evaluate(p: EvalPoint, cfg: EvalConfig = DEFAULT_CONFIG) -> EvalResult:
    """Evaluate S_r(x) by every applicable route; ``value`` is the direct one.

    The direct route sums to ``core.select_m_terms``'s order, as
    ``core.power_sum`` does.
    """
    m = core.select_m_terms(p.r, cfg.target_tol)
    value, tail_bound, hurwitz = backend.power_sum_routes(p.r, p.x, m)
    poly = exactpoly.poly_route(p.r)
    if poly is None:
        spread = max(value, hurwitz) - min(value, hurwitz)
        methods = {"direct": value, "hurwitz": hurwitz}
    else:
        polynomial = exactpoly.poly_eval(poly, p.x)
        spread = max(value, hurwitz, polynomial) - min(value, hurwitz, polynomial)
        methods = {"direct": value, "hurwitz": hurwitz, "polynomial": polynomial}
    return EvalResult(value, spread, methods, tail_bound)
