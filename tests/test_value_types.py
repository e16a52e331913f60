"""The contract of the frozen value types EvalPoint, EvalConfig and EvalResult
(and the freezing of sincsum.verify's CertifiedInequality and CertifyResult).

They are dataclasses with validated construction: fields and defaults,
immutability, eq, hash and repr, ``dataclasses.replace``, pickling, and the
exact ``DomainError`` message for each kind of bad input, checks in order;
and the real-argument rule of the typed surface: ``core._real``, and it
alone, raises ``DomainError`` for a non-number or a number past the float
range, and every accepted number is stored or passed on as a float.
"""

import ast
import dataclasses
import math
import pickle
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import sincsum
from sincsum import (
    ConstantQuery,
    DomainError,
    EvalConfig,
    EvalPoint,
    SincPolynomial,
    evaluate,
    hurwitz_zeta,
    min_constant,
    poly_eval,
    poly_f,
    sinc,
    sinc_sq,
)
from sincsum.core import R_MAX, R_MIN
from sincsum.evaluate import EvalResult
from sincsum.verify import (
    CertifiedInequality,
    CertifyResult,
    Interval,
    certify,
    dsinc_iv,
    intersect,
    sinc_iv,
    verify_global_min,
)

MISSING = dataclasses.MISSING


def _result() -> EvalResult:
    return EvalResult(1.5, 2e-16, {"direct": 1.5, "hurwitz": 1.5000000000000002}, 1e-14)


SAMPLES = {
    "point": (EvalPoint, lambda: EvalPoint(2.5, 0.3)),
    "config": (EvalConfig, lambda: EvalConfig(1e-10)),
    "result": (EvalResult, _result),
}


@pytest.mark.parametrize(
    "cls, defaults",
    [
        (EvalPoint, {"r": MISSING, "x": MISSING}),
        (EvalConfig, {"target_tol": 1e-12}),
        (EvalResult, dict.fromkeys(("value", "spread", "methods", "tail_bound"), MISSING)),
    ],
)
def test_fields_and_defaults(cls, defaults):
    assert dataclasses.is_dataclass(cls)
    fields = dataclasses.fields(cls)
    assert {f.name: f.default for f in fields} == defaults
    assert [f.name for f in fields] == list(defaults)  # the positional order
    assert all(f.default_factory is MISSING for f in fields)


#: test_frozen's cases: the samples, plus sincsum.verify's claim and the
#: outcome certify returns for it (a claim's Interval domain has no __eq__,
#: so the eq and pickle contracts are the samples' alone)
FROZEN = {
    **SAMPLES,
    "claim": (CertifiedInequality, lambda: _claim()),
    "certify-result": (CertifyResult, lambda: CertifyResult("certified", None, 0.0, 1, ())),
}


@pytest.mark.parametrize("kind", sorted(FROZEN))
def test_frozen(kind):
    _, make = FROZEN[kind]
    obj = make()
    for f in dataclasses.fields(obj):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, 0.75)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, f.name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.extra = 1.0


@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_eq(kind):
    _, make = SAMPLES[kind]
    assert make() == make()
    assert make() is not make()
    values = tuple(getattr(make(), f.name) for f in dataclasses.fields(make()))
    assert make() != values


def test_eq_compares_fields():
    assert EvalPoint(2.5, 0.3) != EvalPoint(2.5, 0.5)
    assert EvalPoint(2.5, 0.3) != EvalPoint(3.0, 0.3)
    assert EvalConfig(1e-10) != EvalConfig()
    assert EvalConfig() == EvalConfig(1e-12)
    assert _result() != EvalResult(1.5, 2e-16, {"direct": 1.5}, 1e-14)


def test_hash():
    assert hash(EvalPoint(2.5, 0.3)) == hash(EvalPoint(2.5, 0.3)) == hash((2.5, 0.3))
    assert hash(EvalConfig()) == hash(EvalConfig(1e-12)) == hash((1e-12,))
    assert len({EvalPoint(2.5, 0.3), EvalPoint(2.5, 0.3), EvalPoint(2.5, 0.5)}) == 2
    with pytest.raises(TypeError, match="unhashable"):
        hash(_result())  # its methods field is a dict


def test_repr():
    assert repr(EvalPoint(2.5, 0.3)) == "EvalPoint(r=2.5, x=0.3)"
    assert repr(EvalConfig()) == "EvalConfig(target_tol=1e-12)"
    assert repr(_result()) == (
        "EvalResult(value=1.5, spread=2e-16, "
        "methods={'direct': 1.5, 'hurwitz': 1.5000000000000002}, tail_bound=1e-14)"
    )


def test_replace():
    assert dataclasses.replace(EvalPoint(2.5, 0.3), x=0.5) == EvalPoint(2.5, 0.5)
    assert dataclasses.replace(EvalConfig(), target_tol=1e-10) == EvalConfig(1e-10)
    res = dataclasses.replace(_result(), spread=0.0)
    assert (res.value, res.spread, res.tail_bound) == (1.5, 0.0, 1e-14)
    # replace builds a new object, so the checks run again
    with pytest.raises(DomainError, match=r"^x must lie in \[0,1\], got 1.5$"):
        dataclasses.replace(EvalPoint(2.5, 0.3), x=1.5)
    with pytest.raises(DomainError, match="^target_tol must be positive, got 0.0$"):
        dataclasses.replace(EvalConfig(), target_tol=0.0)


@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_pickle_round_trip(kind):
    cls, make = SAMPLES[kind]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(make(), protocol))
        assert type(back) is cls
        assert back == make()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(back, dataclasses.fields(cls)[0].name, 0.75)


def test_keyword_and_positional_construction():
    assert EvalPoint(r=2.5, x=0.3) == EvalPoint(2.5, x=0.3) == EvalPoint(2.5, 0.3)
    assert EvalPoint(x=0.3, r=2.5).r == 2.5
    assert EvalConfig(target_tol=1e-10) == EvalConfig(1e-10)
    assert EvalConfig().target_tol == EvalConfig.target_tol == 1e-12
    res = EvalResult(value=1.5, spread=0.0, methods={}, tail_bound=1e-14)
    assert res == EvalResult(1.5, 0.0, {}, 1e-14)
    assert (res.value, res.spread, res.methods, res.tail_bound) == (1.5, 0.0, {}, 1e-14)
    with pytest.raises(TypeError):
        EvalPoint(2.5)
    with pytest.raises(TypeError):
        EvalPoint(2.5, 0.3, 0.1)
    with pytest.raises(TypeError):
        EvalPoint(2.5, y=0.3)
    with pytest.raises(TypeError):
        EvalConfig(1e-10, 1e-12)
    with pytest.raises(TypeError):
        EvalResult(1.5, 0.0, {})


_ABOVE_MAX = math.nextafter(R_MAX, math.inf)


@pytest.mark.parametrize(
    "r, x, message",
    [
        (math.nan, 0.5, "non-finite evaluation point (nan, 0.5)"),
        (2.0, math.nan, "non-finite evaluation point (2.0, nan)"),
        (math.inf, 0.5, "non-finite evaluation point (inf, 0.5)"),
        (-math.inf, 0.5, "non-finite evaluation point (-inf, 0.5)"),
        (2.0, math.inf, "non-finite evaluation point (2.0, inf)"),
        (2.0, -math.inf, "non-finite evaluation point (2.0, -inf)"),
        (R_MIN, 0.5, f"r must exceed {R_MIN} (sum diverges at 1/2), got {R_MIN}"),
        (0.4, 0.5, f"r must exceed {R_MIN} (sum diverges at 1/2), got 0.4"),
        (-2.0, 0.5, f"r must exceed {R_MIN} (sum diverges at 1/2), got -2.0"),
        (_ABOVE_MAX, 0.5, f"r must be at most {R_MAX} (2r*pi overflows), got {_ABOVE_MAX}"),
        (2.0, -0.1, "x must lie in [0,1], got -0.1"),
        (2.0, 1.1, "x must lie in [0,1], got 1.1"),
        (2.0, -5e-324, "x must lie in [0,1], got -5e-324"),
        # the checks run in order: non-finite, then r, then x
        (math.nan, 2.0, "non-finite evaluation point (nan, 2.0)"),
        (0.4, math.nan, "non-finite evaluation point (0.4, nan)"),
        (0.4, 1.5, f"r must exceed {R_MIN} (sum diverges at 1/2), got 0.4"),
        (_ABOVE_MAX, -1.0, f"r must be at most {R_MAX} (2r*pi overflows), got {_ABOVE_MAX}"),
        # a non-number is named before any range or finiteness check
        ("2", 0.5, "r must be a real number, got '2'"),
        (2, None, "x must be a real number, got None"),
        (None, "0.5", "r must be a real number, got None"),
        (math.nan, "0.5", "x must be a real number, got '0.5'"),
        (2.0, 1j, "x must be a real number, got 1j"),
    ],
)
def test_point_domain_messages(r, x, message):
    with pytest.raises(DomainError) as exc:
        EvalPoint(r, x)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "tol, message",
    [
        (t, f"target_tol must be positive, got {t}")
        for t in (math.nan, math.inf, -math.inf, 0.0, -0.0, -1e-10)
    ]
    + [
        ("1e-3", "target_tol must be a real number, got '1e-3'"),
        (None, "target_tol must be a real number, got None"),
    ],
)
def test_config_domain_messages(tol, message):
    with pytest.raises(DomainError) as exc:
        EvalConfig(tol)
    assert str(exc.value) == message


def _claim(**fields) -> CertifiedInequality:
    """A small valid claim, sinc >= 0 on [0, 1/2], with ``fields`` replaced."""
    valid = {"domain": Interval(0.0, 0.5), "expression": sinc_iv, "claim": "nonnegative"}
    return CertifiedInequality("t", **{**valid, **fields})


def test_claim_checks_cannot_be_undone():
    # a mutable claim let `c.domain = (0.0, 1.0)` undo its construction
    # checks, and certify then raised a raw AttributeError; the outcome
    # fields were the claim's own too, and any caller could set them
    claim = _claim(equality_points=(0, Fraction(1, 2)))
    assert [type(p) for p in claim.equality_points] == [float, float]
    with pytest.raises(dataclasses.FrozenInstanceError):
        claim.domain = (0.0, 1.0)
    assert [f.name for f in dataclasses.fields(CertifiedInequality)] == [
        "id", "domain", "expression", "claim", "dexpression", "equality_points", "description",
    ]
    fresh = dataclasses.replace(claim)
    res = certify(claim)
    assert type(res) is CertifyResult
    assert (res.status, res.witness, res.diagnostics) == ("certified", None, ())
    assert claim == fresh


_HUGE = 10**400  # past the float range: math.isfinite raises OverflowError
_LONG = -(10**5000)  # past str's 4300-digit limit: formatting raises ValueError
_UNIT = Interval(0.0, 1.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ConstantQuery("4"), "q must be a real number, got '4'"),
        (lambda: min_constant("4"), "q must be a real number, got '4'"),
        (lambda: hurwitz_zeta("2", 1.0), "s must be a real number, got '2'"),
        (lambda: hurwitz_zeta(2.0, "1"), "a must be a real number, got '1'"),
        (lambda: poly_eval(poly_f(3), "0.5"), "x must be a real number, got '0.5'"),
        (lambda: EvalPoint(_HUGE, 0.5), f"r is past the float range, got {_HUGE}"),
        (lambda: EvalPoint(2, _HUGE), f"x is past the float range, got {_HUGE}"),
        (lambda: hurwitz_zeta(_HUGE, 1.0), f"s is past the float range, got {_HUGE}"),
        (lambda: hurwitz_zeta(2.0, _HUGE), f"a is past the float range, got {_HUGE}"),
        (lambda: sinc(_HUGE), f"x is past the float range, got {_HUGE}"),
        (lambda: min_constant(_HUGE), f"q is past the float range, got {_HUGE}"),
        (lambda: ConstantQuery(_HUGE), f"q is past the float range, got {_HUGE}"),
        (lambda: poly_eval(poly_f(2), _HUGE), f"x is past the float range, got {_HUGE}"),
        (lambda: sinc("1"), "x must be a real number, got '1'"),
        (lambda: sinc_sq(None), "x must be a real number, got None"),
        (lambda: EvalConfig(_LONG), "target_tol is past the float range, got <int too long to print>"),
        (lambda: ConstantQuery(4.0, _LONG), "d must be >= 1, got <int too long to print>"),
        # bool and Decimal are not real numbers: neither is accepted anywhere
        (lambda: EvalPoint(True, 0.5), "r must be a real number, got True"),
        (lambda: EvalPoint(2.0, False), "x must be a real number, got False"),
        (lambda: evaluate(EvalPoint(Decimal("2"), 0.3)), "r must be a real number, got Decimal('2')"),
        (lambda: sinc(Decimal("0.5")), "x must be a real number, got Decimal('0.5')"),
        (lambda: min_constant(Decimal("4")), "q must be a real number, got Decimal('4')"),
        (lambda: hurwitz_zeta(2.0, Decimal("1")), "a must be a real number, got Decimal('1')"),
        (lambda: verify_global_min(Decimal("2"), 16), "r must be a real number, got Decimal('2')"),
        (lambda: EvalConfig(Decimal("1e-10")), "target_tol must be a real number, got Decimal('1E-10')"),
        (lambda: EvalConfig(_HUGE), f"target_tol is past the float range, got {_HUGE}"),
        (lambda: EvalPoint(Fraction(_HUGE), 0.5), f"r is past the float range, got Fraction({_HUGE}, 1)"),
        (lambda: SincPolynomial("3", ()), "r must be an integer, got '3'"),
        (lambda: SincPolynomial(None, ()), "r must be an integer, got None"),
        (lambda: SincPolynomial(True, (Fraction(1),)), "r must be an integer, got True"),
        (lambda: SincPolynomial(0, ()), "r must be >= 1, got 0"),
        (lambda: SincPolynomial(2, (0.5, 0.5)), "coeffs[0] must be a rational number, got 0.5"),
        (lambda: SincPolynomial(1, ("a",)), "coeffs[0] must be a rational number, got 'a'"),
        (lambda: SincPolynomial(2, (Fraction(1), True)), "coeffs[1] must be a rational number, got True"),
        (lambda: SincPolynomial(1, None), "coeffs must be a tuple, got None"),
        (lambda: SincPolynomial(1, [Fraction(1)]), "coeffs must be a tuple, got [Fraction(1, 1)]"),
        (lambda: Interval("a", 1.0), "lo must be a real number, got 'a'"),
        (lambda: Interval(None, 1.0), "lo must be a real number, got None"),
        (lambda: Interval(0.0, "1"), "hi must be a real number, got '1'"),
        (lambda: Interval(True, 2.0), "lo must be a real number, got True"),
        (lambda: Interval(Decimal(1), 2.0), "lo must be a real number, got Decimal('1')"),
        (lambda: Interval(_HUGE, 10 * _HUGE), f"lo is past the float range, got {_HUGE}"),
        (lambda: Interval(0.0, _HUGE), f"hi is past the float range, got {_HUGE}"),
        (lambda: _UNIT + "a", "other must be a real number, got 'a'"),
        (lambda: _UNIT * None, "other must be a real number, got None"),
        (lambda: _UNIT + True, "other must be a real number, got True"),
        (lambda: _UNIT / Decimal(2), "other must be a real number, got Decimal('2')"),
        (lambda: None - _UNIT, "other must be a real number, got None"),
        (lambda: 1j / _UNIT, "other must be a real number, got 1j"),
        (lambda: _UNIT - _HUGE, f"other is past the float range, got {_HUGE}"),
        (lambda: _UNIT.powi(2.5), "n must be an integer, got 2.5"),
        (lambda: _UNIT.powi(True), "n must be an integer, got True"),
        (lambda: _UNIT.pow_real("x"), "p must be a real number, got 'x'"),
        (lambda: _claim(domain=(0.0, 1.0)), "domain must be an Interval, got (0.0, 1.0)"),
        (lambda: _claim(domain=None), "domain must be an Interval, got None"),
        (lambda: _claim(expression=None), "expression must be callable, got None"),
        (lambda: _claim(dexpression=0.5), "dexpression must be None or callable, got 0.5"),
        (lambda: _claim(equality_points="0.5"), "equality_points must be a tuple, got '0.5'"),
        (lambda: _claim(equality_points=(0.5, "1")), "equality_points[1] must be a real number, got '1'"),
        (
            lambda: certify(_claim(expression=lambda box: 0.5)),
            "t: expression(box) must be an Interval, got 0.5",
        ),
        (
            # an undecided enclosure, so that the mean-value form is tried
            lambda: certify(_claim(expression=lambda box: Interval(-1.0, 1.0), dexpression=lambda box: None)),
            "t: dexpression(box) must be an Interval, got None",
        ),
        (lambda: sinc_iv(0.5), "x must be an Interval, got 0.5"),
        (lambda: dsinc_iv(None), "x must be an Interval, got None"),
        (lambda: intersect(1.0, Interval(0.0, 1.0)), "a must be an Interval, got 1.0"),
        (lambda: intersect(Interval(0.0, 1.0), (0.0, 1.0)), "b must be an Interval, got (0.0, 1.0)"),
    ],
    ids=[
        "constant-query", "min-constant", "hurwitz-s", "hurwitz-a", "poly-eval",
        "huge-point-r", "huge-point-x", "huge-hurwitz-s", "huge-hurwitz-a", "huge-sinc",
        "huge-min-constant", "huge-constant-query", "huge-poly-eval", "sinc-str",
        "sinc-sq-none", "long-config", "long-query-d", "bool-point-r", "bool-point-x",
        "decimal-evaluate", "decimal-sinc", "decimal-min-constant", "decimal-hurwitz-a",
        "decimal-global-min", "decimal-config", "huge-config", "huge-fraction-point-r",
        "str-poly-order", "none-poly-order", "bool-poly-order", "zero-poly-order",
        "float-poly-coeffs", "str-poly-coeffs", "bool-poly-coeffs", "none-poly-coeffs",
        "list-poly-coeffs", "str-interval-lo", "none-interval-lo", "str-interval-hi",
        "bool-interval-lo", "decimal-interval-lo", "huge-interval-lo", "huge-interval-hi",
        "str-interval-add", "none-interval-mul", "bool-interval-add", "decimal-interval-div",
        "none-interval-rsub", "complex-interval-rdiv", "huge-interval-sub", "float-interval-powi",
        "bool-interval-powi", "str-interval-pow-real",
        "tuple-claim-domain", "none-claim-domain", "none-claim-expression",
        "float-claim-dexpression", "str-claim-equality-points", "str-claim-equality-point",
        "float-expression-value", "none-dexpression-value", "float-sinc-iv", "none-dsinc-iv",
        "float-intersect-a", "tuple-intersect-b",
    ],
)
def test_non_numbers_are_domain_errors(call, message):
    # each raised a raw TypeError, or for the huge and long ints a raw
    # OverflowError or ValueError, or was accepted (a bool, EvalConfig's huge
    # int, a Decimal on the compiled sinc); the polynomial orders raised
    # CertificateError or a raw TypeError; SincPolynomial took any coeffs but
    # None, and Interval raised a raw TypeError or OverflowError or took a
    # bool or a Decimal, and so did its scalar operands, which otherwise
    # raised a raw ValueError or TypeError, as pow_real did; powi took a
    # float or a bool; CertifiedInequality took any domain, expression and
    # equality points, and certify and the interval functions raised a raw
    # AttributeError or TypeError on a non-Interval
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message


def _message_owners(fragment: str) -> list[str]:
    """module:function for each string literal under the package, docstrings
    aside, that contains ``fragment``."""
    owners = []
    for path in sorted(Path(sincsum.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text())
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and ast.get_docstring(node) is not None
        }

        def visit(node, where):
            if isinstance(node, ast.FunctionDef):
                where = f"{path.stem}:{node.name}"
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and fragment in node.value
                and id(node) not in docstrings
            ):
                owners.append(where)
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(tree, path.stem)
    return owners


@pytest.mark.parametrize("fragment", ["must be a real number", "past the float range"])
def test_real_argument_rule_has_one_owner(fragment):
    # a second validator writing either message would bring back a second
    # meaning of "a real argument"
    assert _message_owners(fragment) == ["core:_real"]


def test_real_arguments_are_stored_as_floats():
    # int and Fraction are real numbers: converted to float once, at the boundary
    for point in (EvalPoint(Fraction(5, 2), Fraction(1, 3)), EvalPoint(2, 0)):
        assert (type(point.r), type(point.x)) == (float, float)
    assert EvalPoint(Fraction(5, 2), Fraction(1, 3)) == EvalPoint(2.5, 1 / 3)
    assert repr(EvalPoint(2, 0)) == "EvalPoint(r=2.0, x=0.0)"
    assert repr(EvalConfig(Fraction(1, 10**10))) == "EvalConfig(target_tol=1e-10)"
    assert repr(ConstantQuery(4).q) == "4.0"
    assert repr(poly_eval(poly_f(1), Fraction(1, 2))) == "1.0"
    assert repr(Interval(1, Fraction(3, 2))) == "[1.0, 1.5]"
    # the range messages show the converted value
    with pytest.raises(DomainError, match=f"^r must exceed {R_MIN} .*, got 0.0$"):
        EvalPoint(0, 0.5)


def test_domain_edges_accepted():
    assert EvalPoint(math.nextafter(R_MIN, math.inf), 0.0).x == 0.0
    assert EvalPoint(R_MAX, 1.0).r == R_MAX
    assert EvalConfig(5e-324).target_tol == 5e-324
