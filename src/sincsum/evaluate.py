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

On the pure backend that pass is most of a call; the Python around it is
kept thin.  ``evaluate`` reads the point's fields once, ``EvalResult`` (like
``EvalPoint`` and ``EvalConfig``) stores its fields with a hand-written
``__init__`` rather than the generated frozen one, and for integer r
``exactpoly.poly_route`` returns a polynomial already built without
``poly_f``'s argument checks.  It keeps no state per point.
"""

from dataclasses import dataclass

from . import backend, core, exactpoly
from .core import DEFAULT_CONFIG, EvalConfig, EvalPoint


@dataclass(frozen=True, init=False)
class EvalResult:
    value: float
    spread: float
    methods: dict[str, float]
    tail_bound: float

    def __init__(self, value: float, spread: float, methods: dict[str, float], tail_bound: float):
        # the fields go straight into the instance dict, as in core.EvalPoint
        fields = self.__dict__
        fields["value"] = value
        fields["spread"] = spread
        fields["methods"] = methods
        fields["tail_bound"] = tail_bound


def evaluate(p: EvalPoint, cfg: EvalConfig = DEFAULT_CONFIG) -> EvalResult:
    """Evaluate S_r(x) by every applicable route; ``value`` is the direct one.

    The direct route sums to ``core.select_m_terms``'s order, as
    ``core.power_sum`` does.
    """
    r = p.r
    x = p.x
    m = core.select_m_terms(r, cfg.target_tol)
    value, tail_bound, hurwitz = backend.power_sum_routes(r, x, m)
    poly = exactpoly.poly_route(r)
    if poly is None:
        spread = max(value, hurwitz) - min(value, hurwitz)
        methods = {"direct": value, "hurwitz": hurwitz}
    else:
        polynomial = exactpoly.poly_eval(poly, x)
        spread = max(value, hurwitz, polynomial) - min(value, hurwitz, polynomial)
        methods = {"direct": value, "hurwitz": hurwitz, "polynomial": polynomial}
    return EvalResult(value, spread, methods, tail_bound)
