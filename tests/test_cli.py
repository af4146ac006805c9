"""End-to-end CLI contract: exit codes, record shapes, input handling,
and byte-identical reruns.  Every test drives the installed entry point
through a real subprocess."""

import json
import subprocess
import sys

import pytest

CMD = [sys.executable, "-m", "gmdinfo"]


def run(*argv):
    return subprocess.run(CMD + list(argv), capture_output=True, text=True)


def json_lines(stdout: str):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


@pytest.fixture
def data123(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1\n2\n3\n")
    return str(path)


class TestCompute:
    def test_gmd_on_file(self, data123):
        res = run("compute", "--input", data123, "--measure", "gmd")
        assert res.returncode == 0
        (rec,) = json_lines(res.stdout)
        assert rec == {
            "measure": "gmd",
            "parameters": {},
            "value": 1.33333333333,
            "estimator_route": "sorted-u-statistic",
            "n": 3,
        }

    def test_crj_on_exponential_model(self):
        res = run("compute", "--dist", "exp", "--mean", "1", "--measure", "crj")
        assert res.returncode == 0
        (rec,) = json_lines(res.stdout)
        assert rec["measure"] == "crj"
        assert rec["value"] == pytest.approx(-0.25, abs=1e-8)
        assert rec["estimator_route"] == "population-quadrature"
        assert rec["n"] is None

    def test_alpha_guard_exits_3(self, data123):
        res = run("compute", "--input", data123, "--measure", "crt", "--alpha", "1")
        assert res.returncode == 3
        assert "alpha must differ from 1" in res.stderr
        assert "crt" in res.stderr

    def test_multiple_measures_emit_ordered_records(self, data123):
        res = run("compute", "--input", data123,
                  "--measure", "gmd", "--measure", "cj", "--measure", "ce")
        assert res.returncode == 0
        recs = json_lines(res.stdout)
        assert [r["measure"] for r in recs] == ["gmd", "cj", "ce"]
        assert recs[1]["value"] == pytest.approx(-4.0 / 3.0, abs=1e-10)

    def test_pwm_flags(self, data123):
        res = run("compute", "--input", data123, "--measure", "pwm",
                  "--p", "1", "--r", "1")
        (rec,) = json_lines(res.stdout)
        assert rec["value"] == pytest.approx(4.0 / 3.0, abs=1e-10)
        assert rec["estimator_route"] == "unbiased-pwm"
        assert rec["parameters"] == {"p": 1, "r": 1.0}

    def test_weight_and_phi_selectors(self):
        res = run("compute", "--dist", "uniform", "--a", "0", "--b", "1",
                  "--measure", "gce", "--w", "F", "--phi", "2*x")
        assert res.returncode == 0
        (rec,) = json_lines(res.stdout)
        assert rec["value"] == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert rec["parameters"] == {"w": "F^1", "phi": "2*x^1"}

    @pytest.mark.parametrize("flag, what, text", [("--w", "weight", "F^x"),
                                                  ("--w", "weight", "const:"),
                                                  ("--phi", "phi", "1e*x"),
                                                  ("--phi", "phi", "x^1e")])
    def test_malformed_selector_number_exits_3(self, flag, what, text):
        selectors = {"--w": "F", "--phi": "x", flag: text}
        res = run("compute", "--dist", "uniform", "--measure", "gce",
                  "--w", selectors["--w"], "--phi", selectors["--phi"])
        assert res.returncode == 3
        assert res.stdout == ""
        assert f"cannot parse {what} {text!r}" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("text", ["nan", "-inf", "const:inf", "F^nan"])
    def test_a_weight_that_is_not_finite_exits_3(self, text):
        res = run("compute", "--dist", "uniform", "--measure", "gce", f"--w={text}", "--phi", "x")
        assert res.returncode == 3
        assert res.stdout == ""
        assert "weight parameters must be finite" in res.stderr
        assert "Traceback" not in res.stderr

    def test_unknown_measure_exits_3(self, data123):
        res = run("compute", "--input", data123, "--measure", "entropy")
        assert res.returncode == 3
        assert "unknown measure" in res.stderr

    def test_requires_exactly_one_source(self, data123):
        res = run("compute", "--measure", "gmd")
        assert res.returncode == 2
        res = run("compute", "--input", data123, "--dist", "exp",
                  "--measure", "gmd")
        assert res.returncode == 2
        assert "exactly one of --input or --dist" in res.stderr

    def test_negative_data_domain_error(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("1\n-2\n3\n")
        res = run("compute", "--input", str(path), "--measure", "gmd")
        assert res.returncode == 3

    def test_bad_quadrature_tolerance_exits_3(self):
        res = run("compute", "--dist", "exp", "--measure", "gmd", "--tol", "-1")
        assert res.returncode == 3
        assert "tolerances must be positive" in res.stderr

    def test_infinite_quadrature_tolerance_exits_3(self):
        res = run("compute", "--dist", "weibull", "--shape", "0.7", "--measure", "gmd",
                  "--tol", "inf")
        assert res.returncode == 3
        assert res.stdout == ""
        assert "quadrature tolerance must be finite, got inf" in res.stderr

    def test_tsv_format(self, data123):
        res = run("compute", "--input", data123, "--measure", "gmd",
                  "--format", "tsv")
        lines = res.stdout.splitlines()
        assert lines[0] == "measure\tparameters\tvalue\testimator_route\tn"
        cells = lines[1].split("\t")
        assert cells[0] == "gmd"
        assert cells[1] == "-"  # no parameters
        assert cells[2] == "1.33333333333"
        assert cells[4] == "3"


class TestDeepOrders:
    def test_a_premium_of_order_past_the_recursion_limit_exits_0(self, tmp_path):
        path = tmp_path / "x.csv"
        x = [0.5 + (7 * i % 10007) / 1000.0 for i in range(10**4)]
        path.write_text("\n".join(map(repr, x)) + "\n")
        res = run("compute", "--input", str(path), "--measure", "gain_premium", "--k", "2000")
        assert res.returncode == 0, res.stderr
        (rec,) = json_lines(res.stdout)
        assert rec["parameters"] == {"k": 2000} and rec["n"] == 10**4
        assert 0.0 < rec["value"] < max(x) - sum(x) / len(x)


class TestInputParsing:
    def test_header_comments_blanks_and_crlf(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"# measured weights\r\nvalue\r\n1.5\r\n\r\n2.5\r\n4.0\r\n")
        res = run("compute", "--input", str(path), "--measure", "gmd")
        assert res.returncode == 0
        (rec,) = json_lines(res.stdout)
        assert rec["n"] == 3
        assert rec["value"] == pytest.approx(5.0 / 3.0, abs=1e-10)

    def test_utf8_bom(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1\n2\n3\n")
        res = run("compute", "--input", str(path), "--measure", "gmd")
        assert res.returncode == 0

    def test_missing_file_exits_2(self):
        res = run("compute", "--input", "/nonexistent/nope.csv", "--measure", "gmd")
        assert res.returncode == 2
        assert "cannot read" in res.stderr

    def test_second_column_rejected(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("1,9\n2\n")
        res = run("compute", "--input", str(path), "--measure", "gmd")
        assert res.returncode == 2
        assert "line 1, column 2" in res.stderr

    def test_non_numeric_mid_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1\ntwo\n3\n")
        res = run("compute", "--input", str(path), "--measure", "gmd")
        assert res.returncode == 2
        assert "line 2" in res.stderr and "cannot parse 'two'" in res.stderr

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("1\ninf\n3\n")
        res = run("compute", "--input", str(path), "--measure", "gmd")
        assert res.returncode == 2
        assert "non-finite" in res.stderr


class TestNonFiniteResults:
    @pytest.fixture
    def huge(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("1e200\n2e200\n3e200\n")  # x^2 overflows
        return str(path)

    def test_compute_exits_3(self, huge):
        res = run("compute", "--input", huge, "--measure", "crjw")
        assert res.returncode == 3
        assert "crjw is not finite" in res.stderr
        assert res.stdout == ""

    def test_verify_exits_3_naming_the_identity(self, huge):
        res = run("verify", "--input", huge)
        assert res.returncode == 3
        assert "I7: non-finite side" in res.stderr

    def test_verify_prints_the_finite_reports(self, huge):
        res = run("verify", "--input", huge)
        assert res.returncode == 3
        recs = json_lines(res.stdout)
        assert [r["identity"] for r in recs] == [
            "I1", "I2", "I3", "I4", "I5", "I6", "I8", "I9", "I12", "I14"]
        assert "nan" not in res.stdout.lower() and "infinity" not in res.stdout.lower()
        errors = [line for line in res.stderr.splitlines() if line.startswith("gmdinfo: error:")]
        assert [line.split()[2] for line in errors] == ["I7:", "I10:", "I11:"]

    @pytest.mark.parametrize("argv", [("compute", "--measure", "crjw"), ("verify",)])
    def test_overflow_prints_only_error_lines(self, huge, argv):
        """numpy's RuntimeWarnings, with their source paths, stay out of the CLI's stderr."""
        res = run(*argv, "--input", huge)
        assert res.returncode == 3
        lines = res.stderr.splitlines()
        assert lines and all(line.startswith("gmdinfo: error: ") for line in lines), lines


class TestPopulationErrors:
    """Population failures say which measure, parameters, model and route."""

    def test_unsupported_spec_exits_3_naming_the_measure(self):
        res = run("compute", "--dist", "pareto", "--shape", "2.5", "--measure", "pwm", "--p", "3")
        assert res.returncode == 3
        assert res.stdout == ""
        assert res.stderr.strip() == (
            "gmdinfo: error: measure 'pwm': pwm(p=3) on pareto(shape=2.5, scale=1), quantile "
            "route: M_{3,0.0,0.0} does not exist for pareto(shape=2.5, scale=1)")

    def test_dynamic_extropy_deep_in_the_tail(self):
        # S(400) = 1.9e-174: S(t)^2 underflows, the integrand over S(t) does not
        res = run("compute", "--dist", "exp", "--mean", "1", "--measure", "j_dyn", "--t", "400")
        assert res.returncode == 0
        (rec,) = json_lines(res.stdout)
        assert rec["value"] == pytest.approx(-0.25, rel=1e-12)
        # S(740) = 4.2e-322 is below the smallest normal double
        res = run("compute", "--dist", "exp", "--mean", "1", "--measure", "j_dyn", "--t", "740")
        assert res.returncode == 3
        assert res.stdout == ""
        assert res.stderr.strip() == (
            "gmdinfo: error: measure 'j_dyn': no survival mass above t=740.0 for "
            "exponential(mean=1): 4.2e-322 is below the smallest normal double")

    def test_non_finite_population_value_exits_3(self):
        res = run("compute", "--dist", "exponential", "--mean", "1e200", "--measure", "gmd",
                  "--measure", "wcrt", "--alpha", "2")
        assert res.returncode == 3
        assert res.stdout == ""
        assert res.stderr.strip().endswith(
            "measure 'wcrt': wcrt(alpha=2.0) on exponential(mean=1e+200), quantile route: "
            "the value is not finite: nan")


class TestVerify:
    def test_uniform_passes_all(self):
        res = run("verify", "--dist", "uniform", "--a", "0", "--b", "1")
        assert res.returncode == 0
        recs = json_lines(res.stdout)
        assert len(recs) == 14
        assert all(r["passed"] for r in recs)
        assert res.stdout.splitlines()[-1] == "passed 14/14"

    def test_sample_level_filter(self, data123):
        res = run("verify", "--input", data123, "--level", "sample")
        assert res.returncode == 0
        recs = json_lines(res.stdout)
        assert len(recs) == 13  # the population-only identity is skipped
        assert all(r["level"] == "sample" for r in recs)
        assert res.stdout.splitlines()[-1] == "passed 13/13"

    def test_non_convergence_keeps_the_converged_reports(self):
        # a request below double precision: no identity's quadrature converges; verify
        # still prints what it has, its summary, and names each identity on stderr in order
        res = run("verify", "--dist", "pareto", "--shape", "2.2", "--tol", "1e-17")
        assert res.returncode == 3
        assert json_lines(res.stdout) == []
        assert res.stdout.splitlines()[-1] == "passed 0/0"
        errors = [line for line in res.stderr.splitlines() if line.startswith("gmdinfo: error:")]
        assert [line.split()[2] for line in errors] == [f"I{k}:" for k in range(1, 15)]
        assert all("quadrature on " in line and "did not converge" in line for line in errors)
        assert "I10: crt(alpha=2.0) on pareto(shape=2.2, scale=1), direct route: " in errors[9]

    def test_pareto_shape_guard(self):
        res = run("verify", "--dist", "pareto", "--shape", "1.5")
        assert res.returncode == 3
        assert "pareto shape must exceed 2" in res.stderr

    def test_report_fields(self):
        res = run("verify", "--dist", "exp", "--format", "tsv")
        header = res.stdout.splitlines()[0].split("\t")
        assert header == ["identity", "description", "source", "level",
                          "exactness", "lhs", "rhs", "abs_residual",
                          "rel_residual", "tolerance", "passed"]
        row = res.stdout.splitlines()[1].split("\t")
        assert row[0] == "I1"
        assert row[2] == "exponential(mean=1)"
        assert row[-1] == "true"


class TestMonteCarlo:
    def test_record_shape_and_determinism(self):
        argv = ("mc", "--dist", "exp", "--mean", "1", "--measure", "gmd",
                "--sizes", "50,200", "--reps", "25", "--seed", "7")
        first = run(*argv)
        assert first.returncode == 0
        recs = json_lines(first.stdout)
        assert [r["n"] for r in recs] == [50, 200]
        for rec in recs:
            assert set(rec) == {"n", "reps", "mean", "bias", "sd", "rmse",
                                "population"}
            assert rec["reps"] == 25
            assert rec["population"] == pytest.approx(1.0, abs=1e-8)
            assert rec["rmse"] > 0
        second = run(*argv)
        assert second.stdout == first.stdout

    def test_size_one_rejected(self):
        res = run("mc", "--dist", "exp", "--measure", "gmd",
                  "--sizes", "1", "--reps", "5", "--seed", "1")
        assert res.returncode == 3
        assert "need at least 2 observations" in res.stderr

    def test_seed_required(self):
        res = run("mc", "--dist", "exp", "--measure", "gmd", "--sizes", "10")
        assert res.returncode == 2

    def test_seed_range_guard(self):
        res = run("mc", "--dist", "exp", "--measure", "gmd",
                  "--sizes", "10", "--reps", "2", "--seed", "-1")
        assert res.returncode == 3
        assert "64-bit" in res.stderr

    def test_input_flag_rejected(self, data123):
        res = run("mc", "--input", data123, "--measure", "gmd",
                  "--sizes", "10", "--seed", "1")
        assert res.returncode == 2
        assert "use --dist" in res.stderr

    def test_bad_sizes_list(self):
        res = run("mc", "--dist", "exp", "--measure", "gmd",
                  "--sizes", "10;20", "--seed", "1")
        assert res.returncode == 2

    def test_tsv_table(self):
        res = run("mc", "--dist", "uniform", "--measure", "gmd",
                  "--sizes", "40", "--reps", "10", "--seed", "3",
                  "--format", "tsv")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "n\treps\tmean\tbias\tsd\trmse\tpopulation"
        assert len(lines) == 2


class TestReruns:
    def test_compute_and_verify_are_byte_identical(self, data123):
        for argv in (
            ("compute", "--input", data123, "--measure", "gmd",
             "--measure", "s_gini", "--v", "2"),
            ("verify", "--dist", "uniform", "--a", "0", "--b", "1"),
        ):
            first = run(*argv)
            second = run(*argv)
            assert first.stdout == second.stdout
            assert first.returncode == second.returncode
