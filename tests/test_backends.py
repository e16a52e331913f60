"""Differential tests between the compiled kernel core and the pure twin.

The C extension is compiled from ``src/sincsum/_kernels_c.c`` into a
temporary directory once per session (the ``compiled`` fixture in
``conftest.py``), so these tests run wherever a C compiler is found and
leave nothing behind in the source tree.  The twins compute the same floats
in the same order, so every comparison is exact.
"""

import ast
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from helpers import (
    power_sum_deriv_mp,
    power_sum_deriv_reference,
    power_sum_fixed_reference,
    power_sum_mp,
    power_sum_zeta_reference,
    zeta_em_reference,
)
from sincsum import EvalConfig, EvalPoint, PrecisionError, backend, evaluate, power_sum_deriv
from sincsum import _kernels_py as pure, specfun
from sincsum.core import R_MAX

PACKAGE_DIR = Path(pure.__file__).resolve().parent


def _same(a, b) -> bool:
    """Exact equality of floats or float tuples, with nan equal to nan.  The
    twins must agree on which outputs are nan, not on a nan's sign or payload:
    the platform sets those (x86's default NaN is negative, AArch64's
    positive), and the pure twin substitutes ``math.nan``."""
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    return a == b or (a != a and b != b)


def _assert_same(compiled, name, *args):
    want = getattr(pure, name)(*args)
    got = getattr(compiled, name)(*args)
    assert _same(want, got), f"{name}{args}: pure {want!r} != compiled {got!r}"


class TestDifferential:
    def test_names(self, compiled):
        assert pure.backend_name() == "python"
        assert compiled.backend_name() == "compiled"

    def test_slack_constant_matches(self, compiled):
        assert pure.FLOAT_SLACK == compiled.FLOAT_SLACK

    def test_scalar_kernels_agree(self, compiled):
        rng = random.Random(11)
        for _ in range(2000):
            for x in (-30.0 + 60.0 * rng.random(), -0.2 + 0.4 * rng.random()):
                for name in ("sinc", "sinc_sq", "dsinc"):
                    _assert_same(compiled, name, x)

    def test_integer_zeros_preserved(self, compiled):
        for m in (1.0, -2.0, 7.0):
            assert compiled.sinc(m) == 0.0
            assert pure.sinc(m) == 0.0

    def test_zeta_agrees(self, compiled):
        rng = random.Random(12)
        for _ in range(500):
            s = 1.01 + 20.0 * rng.random()
            a = 0.05 + 1.95 * rng.random()
            _assert_same(compiled, "zeta_em", s, a)
            _assert_same(compiled, "zeta_em", s, 30.0 * a)

    def test_power_sum_routes_agree(self, compiled):
        rng = random.Random(13)
        for _ in range(500):
            r = math.exp(rng.uniform(math.log(0.51), math.log(1e4)))
            x = rng.random()
            _assert_same(compiled, "power_sum_fixed", r, x, 16)
            _assert_same(compiled, "power_sum_zeta", r, x)
            _assert_same(compiled, "power_sum_routes", r, x, 16)
            if 0.0 < x < 1.0:
                _assert_same(compiled, "power_sum_deriv", r, x)

    @pytest.mark.parametrize("r", [-2.0, 0.75, 1.0, 2.0, 7.5, 40.0, 1000.0, 1e45])
    @pytest.mark.parametrize(
        "x",
        [0.0, 1e-300, 1e-20, math.nextafter(1e-4, 0.0), 1e-4, math.nextafter(1e-4, 1.0)]
        + [0.5, 1.0 - 1e-16, 1.0]
        # outside [0, 1], where Python's floor, sin, cos, log and exp raise
        # and C returns floats; no public route passes these
        + [-0.5, 1.5, math.inf, -math.inf, math.nan],
    )
    def test_edge_grid(self, compiled, r, x):
        for name in ("sinc", "sinc_sq", "dsinc"):
            _assert_same(compiled, name, x)
            _assert_same(compiled, name, x - 1.0)
        for m in (0, 8, 64):
            _assert_same(compiled, "power_sum_fixed", r, x, m)
            _assert_same(compiled, "power_sum_routes", r, x, m)
        _assert_same(compiled, "power_sum_zeta", r, x)
        _assert_same(compiled, "power_sum_deriv", r, x)

    @pytest.mark.parametrize(
        "s",
        [-math.inf, -300.0, -1.0, 0.0, 0.5, 1.0, 2.0, 200.0, 1100.5, 1e300]
        + [math.inf, math.nan],
    )
    @pytest.mark.parametrize(
        "a",
        [-math.inf, -20.5, -8.0, -0.5, -1e-3, 0.0, 5e-324, 1e-300, 1e-3, 0.5, 2.0]
        + [7.999, 8.0, 24.0, 1e300, math.inf, math.nan],
    )
    def test_zeta_outside_domain(self, compiled, s, a):
        # the twins agree past s > 1, a > 0 too: pure Python's raising pow and
        # division are mapped to C's infinities, e.g. zeta_em(200, 1e-3) and
        # zeta_em(1, 2) are (inf, gauge) on both, and its complex powers of a
        # negative base to C's nan, e.g. zeta_em(2.5, -0.5) is (nan, gauge),
        # also where the complex power overflows, as (-1e-3)^-1100.5 does
        _assert_same(compiled, "zeta_em", s, a)

    def test_argument_errors(self, compiled):
        with pytest.raises(TypeError):
            compiled.sinc()
        with pytest.raises(TypeError):
            compiled.sinc("0.5")
        with pytest.raises(TypeError):
            compiled.zeta_em(2.0)
        with pytest.raises(TypeError):
            compiled.power_sum_fixed(2.0, 0.3, 16.0)
        with pytest.raises(OverflowError):
            compiled.power_sum_fixed(2.0, 0.3, 1 << 80)
        with pytest.raises(TypeError):
            compiled.power_sum_routes(2.0, 0.3)
        for twin in (pure, compiled):
            for name in ("power_sum_fixed", "power_sum_routes"):
                for x in (0.3, 1.0):
                    with pytest.raises(ValueError, match="m_terms must be >= 0"):
                        getattr(twin, name)(2.0, x, -3)
                    with pytest.raises(ValueError, match="m_terms must be >= 0"):
                        getattr(twin, name)(2.0, x, -1)
        assert compiled.power_sum_fixed(2.0, 0.3, 0) == pure.power_sum_fixed(2.0, 0.3, 0)
        assert compiled.sinc(0) == pure.sinc(0)

    def test_hurwitz_zeta_overflow_is_precision_error(self, twin_kernels, monkeypatch):
        monkeypatch.setattr(backend, "zeta_em", twin_kernels.zeta_em)
        assert twin_kernels.zeta_em(200.0, 1e-3)[0] == math.inf
        with pytest.raises(PrecisionError, match="exceeds floating-point range"):
            specfun.hurwitz_zeta(200.0, 1e-3)
        assert specfun.hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-14)
        # 9^-s underflows to 0 where the Euler-Maclaurin factors overflow;
        # 0 * inf made the value nan and this a PrecisionError
        assert specfun.hurwitz_zeta(1e200, 1.0) == 1.0

    def test_every_route_finite_up_to_r_max(self, twin_kernels, monkeypatch):
        for name in (
            "power_sum_fixed",
            "power_sum_zeta",
            "power_sum_routes",
            "power_sum_deriv",
            "zeta_em",
        ):
            monkeypatch.setattr(backend, name, getattr(twin_kernels, name))
        # the derivative was nan from r ~ 6.7e153 on
        for r in (6.7e153, 1e200, 1e300, R_MAX):
            for x in (0.0, 1e-300, 1e-9, 0.3, 0.5, 1.0 - 1e-16, 1.0):
                res = evaluate(EvalPoint(r, x))
                assert all(map(math.isfinite, res.methods.values())), (r, x, res)
                assert math.isfinite(res.spread) and math.isfinite(res.tail_bound)
                if 0.0 < x < 1.0:
                    assert math.isfinite(power_sum_deriv(EvalPoint(r, x))), (r, x)


@pytest.fixture(scope="session")
def package_copies(tmp_path_factory, extension_path):
    """Two copies of the package: one holding the built module, one not."""
    root = tmp_path_factory.mktemp("packages")
    ignore = shutil.ignore_patterns("__pycache__", "*.so", "*.pyd")
    copies = {}
    for label in ("built", "unbuilt"):
        shutil.copytree(PACKAGE_DIR, root / label / "sincsum", ignore=ignore)
        copies[label] = root / label
    shutil.copy2(extension_path, root / "built" / "sincsum" / extension_path.name)
    return copies


def _import_backend(where: Path, requested: str | None):
    env = dict(os.environ, PYTHONPATH=str(where))
    env.pop("SINCSUM_BACKEND", None)
    if requested is not None:
        env["SINCSUM_BACKEND"] = requested
    return subprocess.run(
        [sys.executable, "-c", "import sincsum; print(sincsum.BACKEND, sincsum.__file__)"],
        capture_output=True,
        text=True,
        env=env,
    )


class TestSelection:
    @pytest.mark.parametrize(
        "label, requested, backend",
        [
            ("built", None, "compiled"),
            ("built", "auto", "compiled"),
            ("built", "compiled", "compiled"),
            ("built", "python", "python"),
            ("unbuilt", None, "python"),
            ("unbuilt", "python", "python"),
        ],
    )
    def test_selection_honors_environment(self, package_copies, label, requested, backend):
        out = _import_backend(package_copies[label], requested)
        assert out.returncode == 0, out.stderr
        name, path = out.stdout.split()
        assert name == backend
        assert Path(path).is_relative_to(package_copies[label])

    def test_compiled_required_but_missing(self, package_copies):
        out = _import_backend(package_copies["unbuilt"], "compiled")
        assert out.returncode != 0
        assert "ImportError" in out.stderr

    @pytest.mark.parametrize("requested", ["fortran", "pure"])
    def test_unknown_backend_rejected(self, package_copies, requested):
        out = _import_backend(package_copies["built"], requested)
        assert out.returncode != 0
        assert "unknown SINCSUM_BACKEND" in out.stderr


# Each kernel-branch threshold, by its name in both twins, and the value of
# the literal that its definition alone may write.
THRESHOLDS = {"SERIES_SWITCH": 1e-4, "ROUND_MARGIN": 1e-9}


def _py_literals(path: Path) -> list[tuple[str, float]]:
    """(the name a line assigns to or "", value) for each numeric literal in
    a Python source; strings and comments are not literals."""
    out = []
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == tokenize.NUMBER:
                target = re.match(r"(\w+) = ", tok.line)
                out.append((target.group(1) if target else "", ast.literal_eval(tok.string)))
    return out


def _c_literals(path: Path) -> list[tuple[str, float]]:
    """The same for a C source, with its comments stripped."""
    text = re.sub(r"/\*.*?\*/|//[^\n]*", "", path.read_text(), flags=re.S)
    out = []
    for line in text.splitlines():
        target = re.match(r"static const double (\w+) = ", line)
        for lit in re.findall(r"(?<![\w.])(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?", line):
            out.append((target.group(1) if target else "", float(lit)))
    return out


@pytest.mark.parametrize("source", ["_kernels_py.py", "_kernels_c.c"])
def test_each_threshold_literal_has_one_owner(source):
    path = PACKAGE_DIR / source
    literals = (_py_literals if source.endswith(".py") else _c_literals)(path)
    for name, value in THRESHOLDS.items():
        owners = [target for target, v in literals if v == value]
        assert owners == [name], f"{source}: {value!r} is written for {owners}"
    if source.endswith(".py"):
        # the offset limit 2^20, which the margin is derived from: rounding
        # an x + m below it moves it by half an ulp at most
        assert [t for t, v in literals if v == 20] == ["OFFSET_LIMIT"]
        assert math.ulp(math.nextafter(pure.OFFSET_LIMIT, 0.0)) / 2.0 < pure.ROUND_MARGIN / 10.0


# Points at and around the edges of the guards under which the twins write
# sinc's plain branch in line.  The pure twin's central loop (where s > 0)
# takes it where x >= 1e-9 and 1 - x >= 1e-9, and the sinc(x - 1) of
# ``_sines`` where x >= 1e-9 and 1 - x >= 1e-4: 1 - 1e-4 rounds to 0.9999,
# whose x - 1 is within 1e-4 of 0, so the head's guard must not hold there,
# while its lower neighbour is the largest x where it does; 1 - 1e-9 and
# the loop's guard likewise.  1 - 5e-5 lies between the two upper edges.
# Around 1e-4 the sinc(x) of ``_sines``, which the m = 0 term and the
# derivative read, switches between sinc's Taylor branch and the plain
# branch whose sin(pi*x) the prefactor shares.  At 1e-17, x - 1 rounds to
# -1, where sinc is exactly 0 and the plain branch is not.  0 and 1 are
# the closed form's endpoints.
_up = math.nextafter
GUARD_X = [0.0, 5e-324, 1e-17, 1e-12, _up(1e-9, 0.0), 1e-9, _up(1e-9, 1.0)]
GUARD_X += [_up(1e-4, 0.0), 1e-4, _up(1e-4, 1.0), 0.5]
GUARD_X += [_up(1.0 - 1e-4, 0.0), 1.0 - 1e-4, _up(1.0 - 1e-4, 1.0), 1.0 - 5e-5]
GUARD_X += [_up(1.0 - 1e-9, 0.0), 1.0 - 1e-9, _up(1.0 - 1e-9, 1.0), 1.0 - 1e-16, 1.0]
GUARD_X += [-3.5, 7.25]
GUARD_M = [0, 1, 8, 13, 64]
# -1e4: exp overflows to C's inf; 1e4: far terms underflow to 0 and are skipped
GUARD_R = [-1e4, -2.0, 0.51, 1.0, 2.5, 1e4, 1e45]


class TestReferenceLoops:
    """Both twins against the scalar loops that the pure twin's in-line
    central loop and unrolled Euler-Maclaurin corrections replaced, and
    against the closed form and its derivative as first written."""

    @pytest.mark.parametrize("x", GUARD_X)
    def test_power_sum_fixed_at_the_guard(self, twin_kernels, x):
        for r in GUARD_R:
            for m in GUARD_M:
                want = power_sum_fixed_reference(r, x, m)
                got = twin_kernels.power_sum_fixed(r, x, m)
                assert _same(want, got), f"({r}, {x!r}, {m}): {want!r} != {got!r}"

    @pytest.mark.parametrize("m", [63, 64, 65, 300])
    def test_power_sum_fixed_past_the_kept_offsets(self, twin_kernels, m):
        for x in (1e-9, 0.3, _up(1.0 - 1e-4, 0.0), 1.0 - 1e-4):
            want = power_sum_fixed_reference(2.5, x, m)
            assert _same(want, twin_kernels.power_sum_fixed(2.5, x, m))

    def test_power_sum_fixed_random(self, twin_kernels):
        rng = random.Random(14)
        for _ in range(400):
            r = math.exp(rng.uniform(math.log(0.51), math.log(1e5)))
            x = rng.choice((rng.random(), rng.uniform(0.0, 2e-4), rng.uniform(0.9998, 1.0)))
            m = rng.randrange(0, 40)
            want = power_sum_fixed_reference(r, x, m)
            assert _same(want, twin_kernels.power_sum_fixed(r, x, m)), (r, x, m)

    # nan fails both comparisons of the endpoint rule x <= 0 or x >= 1, so
    # it is summed, where not 0 < x < 1 would return 1
    @pytest.mark.parametrize("x", GUARD_X + [math.inf, -math.inf, math.nan])
    def test_power_sum_zeta_at_the_guard(self, twin_kernels, x):
        for r in GUARD_R:
            want = power_sum_zeta_reference(r, x)
            got = twin_kernels.power_sum_zeta(r, x)
            assert _same(want, got), f"({r}, {x!r}): {want!r} != {got!r}"

    def test_power_sum_zeta_random(self, twin_kernels):
        rng = random.Random(17)
        for _ in range(400):
            r = math.exp(rng.uniform(math.log(0.51), math.log(1e5)))
            x = rng.choice((rng.random(), rng.uniform(0.0, 2e-4), rng.uniform(0.9998, 1.0)))
            assert _same(power_sum_zeta_reference(r, x), twin_kernels.power_sum_zeta(r, x)), (r, x)

    @pytest.mark.parametrize("x", GUARD_X + [math.inf, -math.inf, math.nan])
    def test_power_sum_deriv_at_the_guard(self, twin_kernels, x):
        for r in GUARD_R:
            want = power_sum_deriv_reference(r, x)
            got = twin_kernels.power_sum_deriv(r, x)
            assert _same(want, got), f"({r}, {x!r}): {want!r} != {got!r}"

    def test_power_sum_deriv_random(self, twin_kernels):
        rng = random.Random(18)
        for _ in range(400):
            r = math.exp(rng.uniform(math.log(0.51), math.log(1e5)))
            x = rng.choice((rng.random(), rng.uniform(0.0, 2e-4), rng.uniform(0.9998, 1.0)))
            want = power_sum_deriv_reference(r, x)
            assert _same(want, twin_kernels.power_sum_deriv(r, x)), (r, x)

    @pytest.mark.parametrize(
        "s", [-math.inf, -300.0, -1.0, 0.0, 0.5, 1.0, 1.0 + 1e-9, 2.0, 5.3, 200.0, 1e300]
        + [math.inf, math.nan],
    )
    def test_zeta_em(self, twin_kernels, s):
        for a in (
            [-math.inf, -20.5, -0.5, 0.0, 5e-324, 1e-300, 1e-3, 0.5, 1.3, 2.0]
            + [7.999, 8.0, 8.5, 24.0, 1e300, math.inf, math.nan]
        ):
            want = zeta_em_reference(s, a)
            got = twin_kernels.zeta_em(s, a)
            assert _same(want, got), f"({s}, {a}): {want!r} != {got!r}"

    def test_zeta_em_random(self, twin_kernels):
        rng = random.Random(15)
        for _ in range(2000):
            s = 1.0 + math.exp(rng.uniform(-20.0, 8.0))
            a = math.exp(rng.uniform(-10.0, 6.0))
            assert _same(zeta_em_reference(s, a), twin_kernels.zeta_em(s, a)), (s, a)


def _routes_reference(r, x, m):
    return (*power_sum_fixed_reference(r, x, m), power_sum_zeta_reference(r, x))


class TestRoutesPass:
    """``power_sum_routes`` on each twin against the two routes' reference
    loops, ``power_sum_fixed_reference`` and ``power_sum_zeta_reference``,
    bit for bit, and the twins against each other.  The references share
    no piece with the kernels: in each twin the direct route, the closed
    form and ``power_sum_routes`` are built from the same heads."""

    @pytest.mark.parametrize("x", GUARD_X)
    def test_at_the_guard(self, twin_kernels, compiled, x):
        # the guard points straddle the in-line guards of the central loop
        # and of both heads, and the closed form's endpoints
        for r in GUARD_R:
            for m in GUARD_M:
                want = _routes_reference(r, x, m)
                got = twin_kernels.power_sum_routes(r, x, m)
                assert _same(want, got), f"({r}, {x!r}, {m}): {want!r} != {got!r}"
                assert _same(got, compiled.power_sum_routes(r, x, m)), (r, x, m)

    def test_random(self, twin_kernels):
        rng = random.Random(16)
        for _ in range(2000):
            r = math.exp(rng.uniform(math.log(0.51), math.log(1e5)))
            x = rng.choice((rng.random(), rng.uniform(0.0, 2e-4), rng.uniform(0.9998, 1.0)))
            m = rng.randrange(0, 40)
            got = twin_kernels.power_sum_routes(r, x, m)
            assert _same(_routes_reference(r, x, m), got), (r, x, m)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
class TestOpenDefects:
    def test_tail_bound_covers_the_error_at_large_r(self, twin_kernels, monkeypatch):
        # the error is 1.95e-13, against a reported tail_bound of 1e-14
        monkeypatch.setattr(backend, "power_sum_routes", twin_kernels.power_sum_routes)
        res = evaluate(EvalPoint(1000.0, 0.01), EvalConfig(1e-12))
        assert abs(res.value - float(power_sum_mp(1000.0, 0.01, dps=50))) <= res.tail_bound

    def test_derivative_next_to_zero_below_r_one(self, twin_kernels):
        # 40.671 against about 41.08: x - 1 rounds to -1, dropping the sinc(x - 1) head
        want = float(power_sum_deriv_mp(0.51, 1e-20))
        assert twin_kernels.power_sum_deriv(0.51, 1e-20) == pytest.approx(want, rel=1e-10)
