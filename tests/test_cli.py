"""CLI surface: output formats, exit codes, determinism."""

import json
import math
import os
from decimal import Decimal
from fractions import Fraction

import pytest

from helpers import run_cli
from sincsum import DomainError, cli, exact_min_constant
from sincsum.specfun import BERNOULLI_CAP
from sincsum.verify.certify import MAX_DEPTH_CAP, certify
from sincsum.verify.corpus import corpus
from sincsum.verify.engine import majorization_property, verify_global_min


class TestEval:
    def test_table_point(self):
        code, out, _ = run_cli(["eval", "--r", "2", "--x", "0.5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(1.0 / 3.0, abs=1e-11)
        assert payload["method_spread"] < 1e-11
        assert set(payload) == {"r", "x", "value", "method_spread"}

    def test_constant_sum(self):
        code, out, _ = run_cli(["eval", "--r", "1", "--x", "0.123"])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-11)

    def test_csv_format(self):
        code, out, _ = run_cli(["eval", "--r", "1.5", "--x", "0.5", "--format", "csv"])
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "r,x,value,method_spread"
        assert float(row.split(",")[2]) == pytest.approx(0.5427545144408352, abs=1e-11)

    def test_domain_error_exit(self):
        code, _, err = run_cli(["eval", "--r", "0.4", "--x", "0.5"])
        assert code == 2
        assert "error" in err

    def test_huge_r(self):
        code, out, err = run_cli(["eval", "--r", "1e45", "--x", "0.3"])
        assert code == 0
        assert json.loads(out)["value"] == 0.0
        assert "Traceback" not in err

    def test_precision_error_exit(self):
        code, _, err = run_cli(["eval", "--r", "1", "--x", "0.3", "--tol", "1e-30"])
        assert code == 3
        assert "achieved bound" in err


class TestPoly:
    def test_table_rows(self):
        code, out, _ = run_cli(["poly", "--r", "2"])
        assert code == 0
        assert out.strip() == "1/3, 2/3"
        code, out, _ = run_cli(["poly", "--r", "5"])
        assert out.strip() == "62/2835, 1072/2835, 484/945, 247/2835, 2/2835"
        code, out, _ = run_cli(["poly", "--r", "1"])
        assert out.strip() == "1"

    def test_json_schema(self):
        code, out, _ = run_cli(["poly", "--r", "4", "--format", "json"])
        payload = json.loads(out)
        assert payload == {
            "r": 4,
            "coeffs": ["17/315", "4/7", "38/105", "4/315"],
            "min_value": "17/315",
        }

    def test_out_of_range(self):
        assert run_cli(["poly", "--r", "0"])[0] == 2
        assert run_cli(["poly", "--r", "101"])[0] == 2
        assert run_cli(["poly", "--r", "2.5"])[0] == 2


class TestConstants:
    def test_report(self):
        code, out, _ = run_cli(["constants", "--q", "4", "--d", "2"])
        payload = json.loads(out)
        assert payload["factor"] == pytest.approx(math.sqrt(3.0), abs=1e-12)
        assert payload["exact_c_q"] == "1/3"
        assert payload["crude"] == pytest.approx(math.pi**2 / 4.0, abs=1e-12)

    def test_non_even_exact_is_null(self):
        _, out, _ = run_cli(["constants", "--q", "3"])
        assert json.loads(out)["exact_c_q"] is None

    def test_domain(self):
        assert run_cli(["constants", "--q", "1.5"])[0] == 2

    @pytest.mark.parametrize("q, d, why", [("2", "2000", "1571")])
    def test_too_large_exits_2(self, q, d, why):
        code, out, err = run_cli(["constants", "--q", q, "--d", d])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and why in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("q", ["2050", "1e6"])
    def test_above_bernoulli_cap_exact_is_null(self, q):
        code, out, err = run_cli(["constants", "--q", q])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["exact_c_q"] is None
        assert payload["factor"] <= payload["crude"]

    def test_exact_at_bernoulli_cap(self):
        # numerator and denominator have about 5000 digits, past the
        # interpreter's default int-to-str limit, so compare through Decimal
        code, out, err = run_cli(["constants", "--q", str(BERNOULLI_CAP)])
        assert (code, err) == (0, "")
        num, den = json.loads(out)["exact_c_q"].split("/")
        exact = Fraction(int(Decimal(num)), int(Decimal(den)))
        assert exact == exact_min_constant(BERNOULLI_CAP // 2)


class TestVerify:
    def test_reduced_suite_passes(self):
        code, out, _ = run_cli(
            ["verify", "--grid", "64", "--trials", "500", "--seed", "3"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["checks"]) >= 50
        for check in payload["checks"]:
            assert set(check) == {
                "check_id",
                "status",
                "worst_margin",
                "witness",
                "boxes_visited",
                "wall_time_ms",
            }
            assert check["status"] in ("certified", "passed")
            assert check["wall_time_ms"] is None  # timings only under --timings

    def test_deterministic_bytes(self):
        args = ["verify", "--grid", "64", "--trials", "500", "--seed", "7"]
        _, out1, _ = run_cli(args)
        _, out2, _ = run_cli(args)
        assert out1 == out2

    def test_unreachable_tolerance_inconclusive(self):
        code, out, _ = run_cli(
            ["verify", "--grid", "64", "--trials", "100", "--tol", "1e-30"]
        )
        assert code == 2
        statuses = {c["status"] for c in json.loads(out)["checks"]}
        assert "inconclusive" in statuses

    @pytest.mark.parametrize(
        "flag, value, library_error",
        [
            ("--trials", "0", lambda: majorization_property(0, 0)),
            ("--trials", "-5", lambda: majorization_property(-5, 0)),
            ("--grid", "15", lambda: verify_global_min(1.0, grid_n=15)),
            ("--tol", "0", lambda: verify_global_min(1.0, tol=0.0)),
            ("--tol", "-1e-9", lambda: verify_global_min(1.0, tol=-1e-9)),
            ("--tol", "nan", lambda: verify_global_min(1.0, tol=math.nan)),
            ("--max-depth", "0", lambda: certify(corpus()[0], max_depth=0)),
            (
                "--max-depth",
                str(MAX_DEPTH_CAP + 1),
                lambda: certify(corpus()[0], max_depth=MAX_DEPTH_CAP + 1),
            ),
        ],
        ids=[
            "trials0", "trials-5", "grid15", "tol0", "tol-1e-9", "tolnan", "depth0", "depth61"
        ],
    )
    def test_bad_flag_fails_before_any_check(self, monkeypatch, flag, value, library_error):
        with pytest.raises(DomainError) as expected:
            library_error()

        def must_not_run(*args, **kwargs):
            pytest.fail("a check started for a bad flag")

        monkeypatch.setattr(os, "fork", must_not_run)
        monkeypatch.setattr(cli, "run_suite", must_not_run)
        code, out, err = run_cli(["verify", f"{flag}={value}"])
        assert code == cli.EXIT_DOMAIN
        assert out == ""
        assert err == f"error: {expected.value}\n"

    def test_timings_flag(self):
        _, out, _ = run_cli(
            ["verify", "--grid", "64", "--trials", "100", "--timings"]
        )
        checks = json.loads(out)["checks"]
        assert any(c["wall_time_ms"] is not None for c in checks)


class TestFigure:
    def test_csv_shape_and_content(self):
        code, out, _ = run_cli(["figure", "--grid", "33"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,r,f_r(x)"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 9 * 33
        r_values = sorted({float(row[1]) for row in rows})
        assert len(r_values) == 9
        assert r_values[0] == pytest.approx(1.02)
        assert r_values[-1] == pytest.approx(1.02**256)

    def test_rows_round_trip_at_15_digits(self):
        _, out, _ = run_cli(["figure", "--grid", "17"])
        for line in out.strip().splitlines()[1:]:
            for field in line.split(","):
                assert float(field) == float(f"{float(field):.15g}")

    def test_minimum_at_center_and_symmetric(self):
        _, out, _ = run_cli(["figure", "--grid", "65"])
        lines = out.strip().splitlines()[1:]
        curves = {}
        for line in lines:
            x, r, y = (float(v) for v in line.split(","))
            curves.setdefault(r, []).append((x, y))
        for r, pts in curves.items():
            xs = [p[0] for p in pts]
            ys = [p[1] for p in pts]
            i_min = ys.index(min(ys))
            nearest = min(range(len(xs)), key=lambda i: abs(xs[i] - 0.5))
            assert abs(xs[i_min] - 0.5) <= abs(xs[nearest] - 0.5) + 1e-12
            for i in range(len(xs)):
                assert ys[i] == pytest.approx(ys[len(xs) - 1 - i], abs=1e-9)

    def test_endpoints_are_one(self):
        _, out, _ = run_cli(["figure", "--grid", "9"])
        for line in out.strip().splitlines()[1:]:
            x, _, y = (float(v) for v in line.split(","))
            if x in (0.0, 1.0):
                assert y == pytest.approx(1.0, abs=1e-11)

    def test_svg_output(self):
        code, out, _ = run_cli(["figure", "--grid", "17", "--format", "svg"])
        assert code == 0
        assert out.startswith("<svg ")
        assert out.count("<polyline") == 9

    def test_unwritable_output(self):
        code, _, err = run_cli(
            ["figure", "--grid", "9", "--output", "/nonexistent-dir/out.csv"]
        )
        assert code == 4
        assert "cannot write" in err

    def test_degenerate_grid(self):
        _, out, _ = run_cli(["figure", "--grid", "3"])
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        for x, _, y in rows:
            if float(x) == 0.5:
                assert float(y) < 1.0
            else:
                assert float(y) == pytest.approx(1.0, abs=1e-11)


class TestOutputFile:
    def test_write_to_path(self, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(["poly", "--r", "3", "--output", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text().strip() == "2/15, 11/15, 2/15"


class TestInternalError:
    def test_unexpected_exception_exits_5(self, monkeypatch):
        def broken(args):
            raise RuntimeError("kernel returned garbage")

        monkeypatch.setattr(cli, "cmd_poly", broken)
        code, out, err = run_cli(["poly", "--r", "3"])
        assert code == cli.EXIT_INTERNAL == 5
        assert code not in (
            cli.EXIT_OK,
            cli.EXIT_VIOLATED,
            cli.EXIT_DOMAIN,
            cli.EXIT_PRECISION,
            cli.EXIT_OUTPUT,
        )
        assert out == ""
        assert err == "error: internal: RuntimeError: kernel returned garbage\n"
