"""sincsum: validated evaluation of periodic sinc power sums.

The package evaluates S_r(x) = sum_{m in Z} |sinc(x+m)|^(2r) by three
independent routes (direct tail-bounded summation, Hurwitz zeta closed
form, exact rational polynomials for integer r), computes the transference
constants 2(2^q-1)zeta(q)/pi^q exactly where possible, and machine-certifies
that the sum attains its global minimum at x = 1/2 together with the
supporting inequality corpus.
"""

from .backend import BACKEND
from .constants import (
    ConstantQuery,
    ConstantReport,
    crude_bound,
    exact_min_constant,
    lq_norm_halfshift,
    min_constant,
    transference_factor,
)
from .core import (
    EvalConfig,
    EvalPoint,
    power_sum,
    sinc,
    sinc_sq,
)
from .errors import (
    CertificateError,
    DomainError,
    PrecisionError,
    SincsumError,
    SizeLimitError,
)
from .evaluate import EvalResult, evaluate
from .exactpoly import SincPolynomial, poly_eval, poly_f, poly_min_certificate, poly_step
from .specfun import (
    ZetaEvenValue,
    bernoulli,
    hurwitz_zeta,
    power_sum_deriv,
    power_sum_zeta,
    tangent_numbers,
    zeta_even,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "CertificateError",
    "ConstantQuery",
    "ConstantReport",
    "DomainError",
    "EvalConfig",
    "EvalPoint",
    "EvalResult",
    "PrecisionError",
    "SincPolynomial",
    "SincsumError",
    "SizeLimitError",
    "ZetaEvenValue",
    "bernoulli",
    "crude_bound",
    "evaluate",
    "exact_min_constant",
    "hurwitz_zeta",
    "lq_norm_halfshift",
    "min_constant",
    "poly_eval",
    "poly_f",
    "poly_min_certificate",
    "poly_step",
    "power_sum",
    "power_sum_deriv",
    "power_sum_zeta",
    "sinc",
    "sinc_sq",
    "tangent_numbers",
    "transference_factor",
    "zeta_even",
    "__version__",
]
