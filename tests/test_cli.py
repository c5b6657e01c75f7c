"""End-to-end command-line checks: output bytes and exit codes."""

import io
import json
import sys

import pytest

import qpartitions.cli as cli
from qpartitions.cli import main

WORKED_FLAGS = ["--r", "2", "--n1", "2", "--n2", "3", "--k1", "2", "--k2", "2"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class TestGauss:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "gauss", "--top", "4", "--bottom", "2")
        assert code == 0
        assert out == "1 + q + 2*q^2 + q^3 + q^4\n"

    def test_out_of_range_bottom(self, capsys):
        code, out, _ = run(capsys, "gauss", "--top", "3", "--bottom", "5")
        assert code == 0
        assert out == "0\n"

    def test_step(self, capsys):
        code, out, _ = run(capsys, "gauss", "--top", "3", "--bottom", "1", "--step", "2")
        assert code == 0
        assert out == "1 + q^2 + q^4\n"

    def test_json_round_trips(self, capsys):
        code, out, _ = run(
            capsys, "gauss", "--top", "4", "--bottom", "2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["coeffs"] == ["1", "1", "2", "1", "1"]
        assert payload["polynomial"] == "1 + q + 2*q^2 + q^3 + q^4"
        assert canonical(payload) == out.strip()

    def test_bad_step(self, capsys):
        code, _, err = run(capsys, "gauss", "--top", "4", "--bottom", "2", "--step", "0")
        assert code == 2
        assert "step" in err

    def test_unbounded_step_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "gauss", "--top", "3", "--bottom", "1", "--step", str(10**18)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "degree" in err

    def test_missing_flag(self, capsys):
        code, _, _ = run(capsys, "gauss", "--top", "4")
        assert code == 2


class TestCount:
    def test_two_kind_worked_example(self, capsys):
        code, out, _ = run(capsys, "count", "pbar", *WORKED_FLAGS, "--n", "4")
        assert code == 0
        assert out == "6\n"

    def test_all_routes_agree(self, capsys):
        code, out, err = run(
            capsys, "count", "pbar", *WORKED_FLAGS, "--n", "4", "--method", "all"
        )
        assert code == 0
        assert out == "genfun: 6\nconvolution: 6\nenumerate: 6\n"
        assert err == ""

    def test_convolution_far_beyond_degree(self, capsys):
        code, out, _ = run(
            capsys, "count", "pbar", "--r", "1", "--n1", "2", "--n2", "2",
            "--k1", "2", "--k2", "2", "--n", str(10**12),
            "--method", "convolution", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["count"] == "0"

    def test_partition_number(self, capsys):
        code, out, _ = run(capsys, "count", "partition", "--n", "6")
        assert code == 0
        assert out == "11\n"

    def test_one_kind_trivial(self, capsys):
        code, out, _ = run(capsys, "count", "p", "--N", "5", "--k", "0", "--n", "0")
        assert code == 0
        assert out == "1\n"

    def test_enumerate_method(self, capsys):
        code, out, _ = run(
            capsys, "count", "p", "--N", "2", "--k", "2", "--n", "2",
            "--method", "enumerate",
        )
        assert code == 0
        assert out == "2\n"

    def test_convolution_invalid_for_p(self, capsys):
        code, _, err = run(
            capsys, "count", "p", "--N", "2", "--k", "2", "--n", "2",
            "--method", "convolution",
        )
        assert code == 2
        assert "convolution" in err

    def test_missing_params(self, capsys):
        code, _, err = run(capsys, "count", "pbar", "--n", "4")
        assert code == 2
        assert "--r" in err

    def test_extraneous_params(self, capsys):
        code, _, err = run(
            capsys, "count", "partition", "--n", "6", "--k1", "2"
        )
        assert code == 2
        assert "--k1" in err

    def test_json_uses_decimal_strings(self, capsys):
        code, out, _ = run(
            capsys, "count", "pbar", *WORKED_FLAGS, "--n", "4", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == "6"
        assert payload["params"]["r"] == "2"
        assert canonical(payload) == out.strip()

    def test_route_disagreement_exits_nonzero(self, monkeypatch):
        # one stream for both: the diagnostic comes after every stdout line
        monkeypatch.setattr(cli, "pbar_convolution", lambda query: 999)
        both = io.StringIO()
        monkeypatch.setattr(sys, "stdout", both)
        monkeypatch.setattr(sys, "stderr", both)
        code = main(["count", "pbar", *WORKED_FLAGS, "--n", "4", "--method", "all"])
        assert code == 1
        assert both.getvalue() == (
            "genfun: 6\nconvolution: 999\nenumerate: 6\n"
            "route disagreement: genfun=6, convolution=999, enumerate=6\n"
        )

    def test_quiet(self, capsys):
        code, out, _ = run(
            capsys, "count", "partition", "--n", "6", "--quiet"
        )
        assert code == 0
        assert out == ""

    def test_negative_partition_target_names_it(self, capsys):
        code, out, err = run(capsys, "count", "partition", "--n", "-1")
        assert (code, out) == (2, "")
        assert err == "error: n must be nonnegative, got -1\n"

    def test_unbounded_step(self, capsys):
        # the generating function would be a dense row of degree ~10**18;
        # the other routes never build it and still answer
        bounds = ["--n1", "2", "--n2", "2", "--k1", "2", "--k2", "2", "--n", "3"]
        argv = ["count", "pbar", "--r", str(10**18), *bounds]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "degree" in err
        for method in ("convolution", "enumerate"):
            assert run(capsys, *argv, "--method", method)[:2] == (0, "1\n")
        code, out, _ = run(capsys, "enumerate", "pbar", "--r", str(10**18), *bounds)
        assert (code, out) == (0, "2'+1'\n")
        # a distinct-part shift of r * C(k1 + 1, 2) is refused the same way
        argv = ["count", "qbar", "--r", str(10**18), "--n1", "1", "--n2", "1",
                "--k1", "1", "--k2", "1", "--n", "3"]
        assert run(capsys, *argv)[:2] == (2, "")
        assert run(capsys, *argv, "--method", "enumerate")[:2] == (0, "0\n")
        # with no first-kind part the step costs nothing and genfun answers
        argv = ["count", "qbar", "--r", str(10**18), "--n1", "2", "--n2", "2",
                "--k1", "0", "--k2", "1", "--n", "1"]
        assert run(capsys, *argv)[:2] == (0, "1\n")


class TestEnumerate:
    def test_worked_example_lines(self, capsys):
        code, out, _ = run(capsys, "enumerate", "pbar", *WORKED_FLAGS, "--n", "4")
        assert code == 0
        assert out == "4\n2+2\n2+2'\n2+1'+1'\n3'+1'\n2'+2'\n"

    def test_empty_partition_line(self, capsys):
        code, out, _ = run(capsys, "enumerate", "pbar", *WORKED_FLAGS, "--n", "0")
        assert code == 0
        assert out == "(empty)\n"

    def test_unreachable_target(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "pbar",
            "--r", "2", "--n1", "1", "--n2", "0", "--k1", "1", "--k2", "0",
            "--n", "3",
        )
        assert code == 0
        assert out == ""

    def test_json_shape(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "pbar", *WORKED_FLAGS, "--n", "4",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == "6"
        assert payload["partitions"][0] == {"first": ["4"], "second": []}
        assert payload["partitions"][3] == {"first": ["2"], "second": ["1", "1"]}
        assert canonical(payload) == out.strip()

    def test_distinct_kind(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "qbar",
            "--r", "2", "--n1", "3", "--n2", "2", "--k1", "1", "--k2", "1",
            "--n", "5",
        )
        assert code == 0
        assert out == "4+1'\n"


class TestVerify:
    def test_pass_with_grid_flags(self, capsys):
        code, out, _ = run(
            capsys, "verify", "eq2", "--m-max", "8", "--n-max", "8"
        )
        assert code == 0
        assert "eq2: PASS" in out
        assert "checked=81" in out

    def test_unknown_identity(self, capsys):
        code, _, err = run(capsys, "verify", "thm9.9")
        assert code == 2
        assert "invalid choice" in err

    def test_json_report_round_trips(self, capsys):
        code, out, _ = run(
            capsys, "verify", "thm2.5", "--r-max", "2", "--param-max", "2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["identity_id"] == "thm2.5"
        assert payload["failures"] == []
        assert payload["checked"] > 0
        assert canonical(payload) == out.strip()

    def test_all_on_reduced_grids(self, capsys):
        code, out, _ = run(
            capsys, "verify", "all",
            "--param-max", "2", "--r-max", "2", "--m-max", "3",
            "--n-max", "3", "--k-max", "3",
        )
        assert code == 0
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 11
        assert all("PASS" in line for line in lines)

    def test_quiet_still_signals_by_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "verify", "eq2", "--m-max", "2", "--n-max", "2", "--quiet"
        )
        assert code == 0
        assert out == ""

    def test_failing_report_exits_one(self, capsys, monkeypatch):
        from qpartitions.identities import Counterexample, VerificationReport

        failing = VerificationReport(
            "eq2", "stub", checked=1,
            failures=[Counterexample((3, 4), "1 + q", "1")],
        )
        monkeypatch.setattr(cli, "run_identity", lambda *a, **k: failing)
        code, out, _ = run(capsys, "verify", "eq2")
        assert code == 1
        assert "FAIL" in out
        assert "params=(3, 4)" in out

    def test_empty_grid_is_a_usage_error(self, capsys):
        for argv in (
            ("eq2", "--m-max", "-1"),
            ("thm2.1", "--r-max", "0"),
            ("thm2.3", "--param-max", "0"),
            ("all", "--param-max", "-1"),
        ):
            code, out, err = run(capsys, "verify", *argv)
            assert code == 2, argv
            assert out == ""
            assert err.startswith("error: ") and "empty verification grid" in err

    def test_all_json_shape(self, capsys):
        code, out, _ = run(
            capsys, "verify", "all",
            "--param-max", "1", "--r-max", "1", "--m-max", "1",
            "--n-max", "1", "--k-max", "1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert len(payload["reports"]) == 11
        assert canonical(payload) == out.strip()


class TestTable:
    def test_one_kind_golden_csv(self, capsys):
        code, out, _ = run(
            capsys, "table", "p", "--N", "2", "--k", "2", "--n", "0..4",
            "--format", "csv",
        )
        assert code == 0
        assert out == "n,count\n0,1\n1,1\n2,2\n3,1\n4,1\n"

    def test_two_kind_row(self, capsys):
        code, out, _ = run(
            capsys, "table", "pbar", *WORKED_FLAGS, "--n", "0..10",
            "--format", "csv",
        )
        assert code == 0
        assert "4,6" in out.splitlines()

    def test_empty_range(self, capsys):
        code, _, err = run(
            capsys, "table", "pbar", *WORKED_FLAGS, "--n", "5..2",
            "--format", "csv",
        )
        assert code == 2
        assert "empty range" in err

    def test_malformed_range(self, capsys):
        code, _, err = run(capsys, "table", "partition", "--n", "7")
        assert code == 2
        assert "expected A..B" in err

    def test_formats_agree_on_numeric_content(self, capsys):
        _, csv_out, _ = run(
            capsys, "table", "p", "--N", "2", "--k", "2", "--n", "0..4",
            "--format", "csv",
        )
        _, text_out, _ = run(
            capsys, "table", "p", "--N", "2", "--k", "2", "--n", "0..4"
        )
        _, json_out, _ = run(
            capsys, "table", "p", "--N", "2", "--k", "2", "--n", "0..4",
            "--format", "json",
        )
        csv_rows = [line.split(",") for line in csv_out.splitlines()[1:]]
        text_rows = [line.split() for line in text_out.splitlines()[1:]]
        json_rows = [
            [row["n"], row["count"]] for row in json.loads(json_out)["rows"]
        ]
        assert csv_rows == text_rows == json_rows
        assert canonical(json.loads(json_out)) == json_out.strip()


class TestParserBasics:
    def test_no_command(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("gauss", "--top", "4", "--bottom", "2"),
            ("count", "pbar", *WORKED_FLAGS, "--n", "4"),
            ("enumerate", "pbar", *WORKED_FLAGS, "--n", "4"),
            ("verify", "eq2", "--m-max", "2", "--n-max", "2"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_csv_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert code == 2
        assert "csv" in err
        assert out == ""

    def test_help_offers_only_served_formats(self, capsys):
        for command, formats in (("count", "{text,json}"), ("table", "{text,json,csv}")):
            code, out, _ = run(capsys, command, "--help")
            assert code == 0
            assert f"--format {formats}" in out

    def test_quiet_renders_nothing(self, capsys, monkeypatch):
        # under --quiet no JSON record is built, yet the exit code stands
        def forbidden(obj):
            raise AssertionError("rendered under --quiet")

        monkeypatch.setattr(cli, "_dump_json", forbidden)
        for argv in (
            ("gauss", "--top", "4", "--bottom", "2"),
            ("count", "pbar", *WORKED_FLAGS, "--n", "4", "--method", "all"),
            ("enumerate", "pbar", *WORKED_FLAGS, "--n", "4"),
            ("verify", "eq2", "--m-max", "2", "--n-max", "2"),
            ("table", "partition", "--n", "0..5"),
        ):
            assert run(capsys, *argv, "--format", "json", "--quiet") == (0, "", "")
        monkeypatch.setattr(cli, "pbar_convolution", lambda query: 999)
        code, out, err = run(
            capsys, "count", "pbar", *WORKED_FLAGS, "--n", "4", "--method", "all",
            "--format", "json", "--quiet",
        )
        assert (code, out) == (1, "")
        assert "route disagreement" in err

    def test_help_exits_zero(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == 0
