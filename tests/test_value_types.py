"""The contract of the frozen value types EvalPoint, EvalConfig and EvalResult.

They are dataclasses with validated construction: fields and defaults,
immutability, eq, hash and repr, ``dataclasses.replace``, pickling, and the
exact ``DomainError`` message for each kind of bad input, checks in order;
and the ``DomainError`` that every owner of a numeric rule on the typed
surface raises for a non-number or a number past the float range.
"""

import dataclasses
import math
import pickle

import pytest

from sincsum import (
    ConstantQuery,
    DomainError,
    EvalConfig,
    EvalPoint,
    hurwitz_zeta,
    min_constant,
    poly_eval,
    poly_f,
    sinc,
    sinc_sq,
)
from sincsum.core import R_MAX, R_MIN
from sincsum.evaluate import EvalResult

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


@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_frozen(kind):
    _, make = SAMPLES[kind]
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


_HUGE = 10**400  # past the float range: math.isfinite raises OverflowError
_LONG = -(10**5000)  # past str's 4300-digit limit: formatting raises ValueError


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
        (lambda: EvalConfig(_LONG), "target_tol must be positive, got <int too long to print>"),
        (lambda: ConstantQuery(4.0, _LONG), "d must be >= 1, got <int too long to print>"),
    ],
    ids=[
        "constant-query", "min-constant", "hurwitz-s", "hurwitz-a", "poly-eval",
        "huge-point-r", "huge-point-x", "huge-hurwitz-s", "huge-hurwitz-a", "huge-sinc",
        "huge-min-constant", "huge-constant-query", "huge-poly-eval", "sinc-str",
        "sinc-sq-none", "long-config", "long-query-d",
    ],
)
def test_non_numbers_are_domain_errors(call, message):
    # each raised a raw TypeError, or for the huge and long ints a raw
    # OverflowError or ValueError
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message


def test_domain_edges_accepted():
    assert EvalPoint(math.nextafter(R_MIN, math.inf), 0.0).x == 0.0
    assert EvalPoint(R_MAX, 1.0).r == R_MAX
    assert EvalConfig(5e-324).target_tol == 5e-324
