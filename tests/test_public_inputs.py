"""Every public entry point returns a value or raises a typed SincsumError,
whatever is passed where it takes a number; and the command line exits with
a documented code and one stderr line on any flag value argparse parses.

The library half calls each public callable of ``sincsum.__all__`` and
``sincsum.verify.__all__`` with one parameter replaced by junk: None, a
bool, a str, a Decimal, a Fraction, a complex, an int past the float range,
-0.0, nan, +-inf, subnormals, a list, and the floats, small ints, fractions
and decimals hypothesis draws.  Parameters that take an object (an
EvalPoint, a SincPolynomial, an Interval) are outside the real-argument
rule; they are named in OBJECT_PARAMS, and callables that take only such
objects in SKIPPED, each with the reason.

Both halves are seeded (``derandomize=True``) with a fixed example count,
so each run draws the same values.
"""

import inspect
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sincsum
import sincsum.verify
from helpers import run_cli
from sincsum import SincsumError, poly_f

#: Each checked callable's valid arguments, by parameter name.  Every
#: parameter not in OBJECT_PARAMS takes a number, or SincPolynomial's tuple
#: of them, and is given junk in turn; the valid values keep each call small
#: (a 16-point grid, one trial).
CHECKED = {
    "ConstantQuery": {"q": 4.0, "d": 1},
    "EvalConfig": {"target_tol": 1e-10},
    "EvalPoint": {"r": 2.5, "x": 0.3},
    "SincPolynomial": {"r": 1, "coeffs": (Fraction(1),)},
    "bernoulli": {"n_max": 4},
    "crude_bound": {"d": 2},
    "exact_min_constant": {"n": 2},
    "hurwitz_zeta": {"s": 2.0, "a": 1.0},
    "lq_norm_halfshift": {"q": 4.0},
    "min_constant": {"q": 4.0},
    "poly_eval": {"p": poly_f(3), "x": 0.3},
    "poly_f": {"r": 3},
    "sinc": {"x": 0.3},
    "sinc_sq": {"x": 0.3},
    "tangent_numbers": {"m": 3},
    "zeta_even": {"n": 2},
    "majorization_property": {"trials": 1, "seed": 0},
    "proof_chain": {"r": 2.0, "x": 0.3},
    "verify_global_min": {"r": 2.0, "grid_n": 16},
    "Interval": {"lo": 0.25, "hi": 0.5},
    "SuiteConfig": {"grid": 16, "seed": 0, "trials": 1},
}

#: Parameters of checked callables that take an object, not a number.
OBJECT_PARAMS = {
    ("poly_eval", "p"): "a SincPolynomial, which checks its own order and coefficients",
}

_RECORD = "a plain record of results computed elsewhere; it validates nothing"
_POINT = "takes an EvalPoint (and an EvalConfig), which check their own numbers"
_POLY = "takes a SincPolynomial, which checks its own order and coefficients"
_CONSTANT = "a float constant, not a callable"
_EXCEPTION = "an exception class"
_NO_ARGS = "takes no arguments"
_INTERVAL = "takes Intervals, which check their own endpoints"

#: Public names outside the real-argument rule, with the reason.
SKIPPED = {
    "BACKEND": "a string, not a callable",
    "__version__": "a string, not a callable",
    "CertificateError": _EXCEPTION,
    "DomainError": _EXCEPTION,
    "PrecisionError": _EXCEPTION,
    "SincsumError": _EXCEPTION,
    "SizeLimitError": _EXCEPTION,
    "ConstantReport": _RECORD,
    "EvalResult": _RECORD,
    "ZetaEvenValue": _RECORD,
    "evaluate": _POINT,
    "power_sum": _POINT,
    "power_sum_deriv": _POINT,
    "power_sum_zeta": _POINT,
    "poly_min_certificate": _POLY,
    "poly_step": _POLY,
    "transference_factor": "takes a ConstantQuery, which checks its own q and d",
    # sincsum.verify
    "ANTISYM_TOL": _CONSTANT,
    "EPS_CERT": _CONSTANT,
    "GRID_TOL": _CONSTANT,
    "THRESHOLD": _CONSTANT,
    "EnclosureError": _EXCEPTION,
    "CheckResult": _RECORD,
    "GlobalMinReport": _RECORD,
    "MajorizationReport": _RECORD,
    "ProofChainWitness": _RECORD,
    "CertifiedInequality": "a claim over an Interval domain and interval functions; "
    "it checks only its claim word",
    "certify": "takes a CertifiedInequality",
    "corpus": _NO_ARGS,
    "quartic_coefficient_margin": _NO_ARGS,
    "dsinc_iv": _INTERVAL,
    "intersect": _INTERVAL,
    "sinc_iv": _INTERVAL,
    "run_suite": "takes a SuiteConfig, which checks its own grid, seed and trials",
}

#: Junk every numeric parameter is given, each value on every parameter.
FIXED_JUNK = [
    None, True, False, "2", "nan", Decimal("2"), Decimal("nan"), Fraction(5, 2),
    Fraction(-1, 3), 1j, complex(2.0, 0.0), 10**400, -(10**400), -0.0, math.nan,
    math.inf, -math.inf, 5e-324, -5e-324, 1e-310, [], [0.5],
]

#: Further junk drawn beside it.
JUNK = st.one_of(
    st.floats(),
    st.integers(-3, 20),
    st.fractions(),
    st.decimals(),
    st.complex_numbers(),
    st.text(max_size=3),
    st.lists(st.floats(), max_size=2),
)


def _public(name):
    return getattr(sincsum if name in sincsum.__all__ else sincsum.verify, name)


def test_every_public_name_is_checked_or_skipped():
    assert not set(sincsum.__all__) & set(sincsum.verify.__all__)
    names = set(sincsum.__all__) | set(sincsum.verify.__all__)
    assert not set(CHECKED) & set(SKIPPED)
    assert names == set(CHECKED) | set(SKIPPED), "a public name is in neither table"
    for name, valid in CHECKED.items():
        params = list(inspect.signature(_public(name)).parameters)
        assert params == list(valid), name
    assert {name for name, _ in OBJECT_PARAMS} <= set(CHECKED)


NUMERIC_PARAMS = [
    (name, param)
    for name, valid in CHECKED.items()
    for param in valid
    if (name, param) not in OBJECT_PARAMS
]


def _with_fixed_junk(test):
    for value in FIXED_JUNK:
        test = example(junk=value)(test)
    return test


@pytest.mark.parametrize("name, param", NUMERIC_PARAMS, ids=[f"{n}-{p}" for n, p in NUMERIC_PARAMS])
@settings(derandomize=True, max_examples=30, database=None)
@_with_fixed_junk
@given(junk=JUNK)
def test_numeric_parameter_junk_is_typed(name, param, junk):
    args = {**CHECKED[name], param: junk}
    try:
        _public(name)(**args)
    except SincsumError:
        pass


def _assert_clean_exit(argv):
    code, out, err = run_cli(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err
    if code != 0:
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)


#: Flag values argparse accepts for a float flag and for an int flag; each is
#: passed as ``--flag=value``, so that "-inf" is not read as a flag.
FLOAT_FLAGS = st.sampled_from(
    ["nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "-0", "0", "5e-324",
     "1e308", "-2.5", "0.3", "1", "2", "2.5", "3", "1e-13", "1e-10"]
)
INT_FLAGS = st.sampled_from(["0", "-1", "-5", "1", "2", "3", "4", str(10**30), str(-(10**30))])


@settings(derandomize=True, max_examples=60, database=None)
@given(r=FLOAT_FLAGS, x=FLOAT_FLAGS, tol=FLOAT_FLAGS)
def test_eval_flags(r, x, tol):
    _assert_clean_exit(["eval", f"--r={r}", f"--x={x}", f"--tol={tol}"])


@settings(derandomize=True, max_examples=20, database=None)
@given(r=FLOAT_FLAGS)
def test_poly_flags(r):
    _assert_clean_exit(["poly", f"--r={r}"])


@settings(derandomize=True, max_examples=40, database=None)
@given(q=FLOAT_FLAGS, d=INT_FLAGS)
def test_constants_flags(q, d):
    _assert_clean_exit(["constants", f"--q={q}", f"--d={d}"])


# figure and verify draw their sizes from values their flag rules refuse and
# from tiny runs: figure's grid of 2 to 4 points, verify's 16-point grid with
# one trial, so that no draw runs a full suite
@settings(derandomize=True, max_examples=10, database=None)
@given(grid=INT_FLAGS)
def test_figure_flags(grid):
    _assert_clean_exit(["figure", f"--grid={grid}"])


@settings(derandomize=True, max_examples=20, database=None)
@example(grid="16", seed="0", trials="1")
@given(
    grid=st.sampled_from(["15", "0", "-16", "16", str(10**30)]),
    seed=INT_FLAGS,
    trials=st.sampled_from(["0", "-1", "1", str(10**30)]),
)
def test_verify_flags(grid, seed, trials):
    _assert_clean_exit(["verify", f"--grid={grid}", f"--seed={seed}", f"--trials={trials}"])
