"""CLI surface: output formats, exit codes, determinism."""

import dataclasses
import json
import math
import os
from decimal import Decimal
from fractions import Fraction

import pytest

from helpers import run_cli
from sincsum import DomainError, EvalConfig, SizeLimitError, cli, exact_min_constant, manifest
from sincsum.core import MAX_GRID_N, check_grid_cap
from sincsum.manifest import ManifestReport
from sincsum.specfun import BERNOULLI_CAP
from sincsum.verify.engine import MAX_TRIALS, majorization_property, verify_global_min
from sincsum.verify.suite import CheckResult, SuiteConfig


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

    def test_tol_default_is_the_config_default(self):
        args = cli.build_parser().parse_args(["eval", "--r", "2", "--x", "0.3"])
        defaults = {f.name: f.default for f in dataclasses.fields(EvalConfig)}
        assert args.tol == defaults["target_tol"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--r", "2", "--x", "0.3", "--max-terms", "9"],
            ["verify", "--max-depth", "40"],
            ["verify", "--tol", "1e-10"],
        ],
    )
    def test_retired_flags_are_rejected(self, argv):
        # argparse exits 2 on an unknown flag
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2

    def test_domain_error_exit(self):
        code, _, err = run_cli(["eval", "--r", "0.4", "--x", "0.5"])
        assert code == 2
        assert "error" in err

    def test_huge_r(self):
        code, out, err = run_cli(["eval", "--r", "1e45", "--x", "0.3"])
        assert code == 0
        assert json.loads(out)["value"] == 0.0
        assert "Traceback" not in err

    def test_r_above_r_max_exits_2(self):
        # 2r overflows from r ~ 8.99e307 on; this printed "value": NaN
        code, out, err = run_cli(["eval", "--r", "1e308", "--x", "0"])
        assert code == cli.EXIT_DOMAIN
        assert out == ""
        assert err.startswith("error: r must be at most")

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

    def test_huge_r_message_echoes_r(self):
        # int(1e300) has 301 digits; the message shows the float given instead
        code, out, err = run_cli(["poly", "--r", "1e300"])
        assert code == 2
        assert out == ""
        assert err == "error: r must be an integer in [1, 100], got 1e+300\n"

    @pytest.mark.parametrize("r", ["nan", "inf"])
    def test_non_finite_exits_2(self, r):
        code, out, err = run_cli(["poly", "--r", r])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "integer r" in err
        assert "Traceback" not in err


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

    @pytest.mark.parametrize(
        "argv, row",
        [
            (
                ["--q", "4", "--d", "2"],
                "4,2,0.333333333333333,-1.09861228866811,1.73205080756888,2.46740110027234,1/3",
            ),
            (["--q", "2.5"], "2.5,1,0.714224117616125,-0.336558475677118,1.14410582182039,1.5707963267949,"),
            # c_q underflows to 0 here; its finite log is the useful column
            (["--q", "3000"], "3000,1,0,-1354.0549686878,1.57043343770405,1.5707963267949,"),
        ],
    )
    def test_csv_has_the_json_fields(self, argv, row):
        # every JSON field, in the report's order; floats to 15 digits, null empty
        header = "q,d,c_q,log_c_q,factor,crude,exact_c_q"
        code, out, err = run_cli(["constants", *argv, "--format", "csv"])
        assert (code, err) == (0, "")
        assert out == header + "\n" + row + "\n"
        assert set(header.split(",")) == set(json.loads(run_cli(["constants", *argv])[1]))

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
        # c_q underflows to 0.0 here; its log does not
        assert payload["c_q"] == math.exp(payload["log_c_q"]) == 0.0
        assert math.isfinite(payload["log_c_q"])

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

    @pytest.mark.parametrize(
        "flag, value, library_error",
        [
            ("--trials", "0", lambda: majorization_property(0, 0)),
            ("--trials", "-5", lambda: majorization_property(-5, 0)),
            ("--trials", str(MAX_TRIALS + 1), lambda: majorization_property(MAX_TRIALS + 1, 0)),
            ("--grid", "15", lambda: verify_global_min(1.0, 15)),
            # random.seed drops the sign, so -3 would draw seed 3's stream
            ("--seed", "-3", lambda: majorization_property(1, -3)),
        ],
        ids=["trials0", "trials-5", "trials-above-cap", "grid15", "seed-3"],
    )
    def test_bad_flag_fails_before_any_check(self, monkeypatch, flag, value, library_error):
        with pytest.raises((DomainError, SizeLimitError)) as expected:
            library_error()

        def must_not_run(*args, **kwargs):
            pytest.fail("a check started for a bad flag")

        monkeypatch.setattr(os, "fork", must_not_run)
        monkeypatch.setattr(cli, "run_suite", must_not_run)
        code, out, err = run_cli(["verify", f"{flag}={value}"])
        assert code == cli.EXIT_DOMAIN
        assert out == ""
        assert err == f"error: {expected.value}\n"

    def test_grid_above_the_cap_is_refused_at_once(self, monkeypatch):
        huge = 10**20
        with pytest.raises(SizeLimitError) as expected:
            verify_global_min(1.0, huge)
        SuiteConfig(grid=MAX_GRID_N)
        with pytest.raises(SizeLimitError):
            SuiteConfig(grid=MAX_GRID_N + 1)

        def must_not_run(*args, **kwargs):
            pytest.fail("a check started for a grid above the cap")

        monkeypatch.setattr(os, "fork", must_not_run)
        monkeypatch.setattr(cli, "run_suite", must_not_run)
        code, out, err = run_cli(["verify", "--grid", str(huge)])
        assert (code, out) == (cli.EXIT_DOMAIN, "")
        assert err == f"error: {expected.value}\n"

    def test_stale_manifest_names_the_line_on_stderr(self, monkeypatch):
        args = ["verify", "--grid", "64", "--trials", "500"]
        code, passing, err = run_cli(args)
        assert (code, err) == (0, "")
        text = manifest.load_default_manifest()
        line = text.splitlines(keepends=True)[1]
        flipped = line.replace("\tnonnegative\t", "\tnonpositive\t")
        assert flipped != line
        monkeypatch.setattr(manifest, "load_default_manifest", lambda: text.replace(line, flipped))
        code, out, err = run_cli(args)
        assert code == cli.EXIT_VIOLATED
        assert err.startswith("manifest_corpus_match failed:\n--- manifest\n+++ registry\n")
        assert f"\n-{flipped}+{line}" in err
        # the report is the passing one but for the check's status
        payload = json.loads(passing)
        payload["passed"] = False
        for check in payload["checks"]:
            if check["check_id"] == "manifest_corpus_match":
                check["status"] = "failed"
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_failed_equality_point_on_stderr(self, monkeypatch):
        args = ["verify", "--grid", "64", "--trials", "500"]
        failure = "sqrt2_sin_lower at x=0.0: |expr| = 1.000e-03"
        report = ManifestReport(False, "", 1e-3, (failure,))
        monkeypatch.setattr(manifest, "manifest_check", lambda text: report)
        code, out, err = run_cli(args)
        assert code == cli.EXIT_VIOLATED
        assert err == f"manifest_corpus_match failed:\n{failure}\n"
        payload = json.loads(out)
        (check,) = [c for c in payload["checks"] if c["check_id"] == "manifest_corpus_match"]
        assert (check["status"], check["worst_margin"], check["witness"]) == ("failed", 1e-3, None)

    def test_flag_defaults_are_the_config_defaults(self):
        args = cli.build_parser().parse_args(["verify"])
        for f in dataclasses.fields(SuiteConfig):
            assert getattr(args, f.name) == f.default, f.name

    @pytest.mark.parametrize(
        "statuses, code",
        [
            (("certified", "passed"), cli.EXIT_OK),
            (("passed", "inconclusive"), cli.EXIT_INCONCLUSIVE),
            (("inconclusive", "failed"), cli.EXIT_VIOLATED),
            (("violated", "passed"), cli.EXIT_VIOLATED),
        ],
    )
    def test_exit_code_from_statuses(self, monkeypatch, statuses, code):
        results = [CheckResult(f"c{i}", status, None) for i, status in enumerate(statuses)]
        monkeypatch.setattr(cli, "run_suite", lambda cfg: results)
        got, out, _ = run_cli(["verify"])
        assert got == code
        assert json.loads(out)["passed"] is (code == cli.EXIT_OK)

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

    def test_grid_above_the_cap_is_refused_at_once(self, monkeypatch):
        check_grid_cap(MAX_GRID_N)
        with pytest.raises(SizeLimitError):
            check_grid_cap(MAX_GRID_N + 1)

        def must_not_run(*args, **kwargs):
            pytest.fail("the curves were computed for a grid above the cap")

        monkeypatch.setattr(cli, "_figure_rows", must_not_run)
        code, out, err = run_cli(["figure", "--grid", str(10**20)])
        assert (code, out) == (cli.EXIT_DOMAIN, "")
        assert err == f"error: grid of {10**20} points exceeds cap {MAX_GRID_N}\n"

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
