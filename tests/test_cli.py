"""End-to-end command-line checks: output bytes and exit codes."""

import io
import json
import sys

import pytest

import qpartitions.cli as cli
from qpartitions import identities, partitions, qbinomial
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

    def test_unbounded_gaussian_row_is_a_usage_error(self, capsys):
        # rows of degree 10**8 and 10**12: refused before anything is built
        for argv in (
            ("gauss", "--top", "20000", "--bottom", "10000"),
            ("count", "p", "--N", str(10**6), "--k", str(10**6), "--n", "5"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and "degree" in err


    def test_costly_gaussian_build_is_a_usage_error(self, capsys, monkeypatch):
        # with the limit at 11 steps, [6, 3] (27 steps) and [12, 6] (216) are
        # refused as count partition --n 3000 and gauss --top 6000 --bottom
        # 1500 are at the real limit, and no row is built; the store starts
        # empty, since a held row is not admitted again
        monkeypatch.setattr(qbinomial, "MAX_GAUSSIAN_WORK", 11)
        monkeypatch.setattr(qbinomial, "_prefixes", {})
        monkeypatch.setattr(qbinomial, "_build", None)
        for argv in (
            ("gauss", "--top", "6", "--bottom", "3"),
            ("count", "partition", "--n", "6"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: build of Gaussian [") and err.count("\n") == 1
            assert "exceeds the limit of 11" in err


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

    @pytest.mark.parametrize(
        "method, expected",
        [("enumerate", "1\n"), ("all", "genfun: 1\nenumerate: 1\n")],
        ids=("enumerate", "all"),
    )
    def test_deep_enumeration_counts(self, capsys, method, expected):
        # the one partition, 1500 ones, is a walk 1500 parts deep
        code, out, err = run(
            capsys, "count", "p", "--N", "1", "--k", "2000", "--n", "1500",
            "--method", method,
        )
        assert (code, out, err) == (0, expected, "")

    def test_listing_past_the_work_limit_is_refused(self, capsys):
        # 1,000,001 ones would be walked and held one part at a time
        code, out, err = run(
            capsys, "count", "p", "--N", "1", "--k", "1000001", "--n", "1000001",
            "--method", "enumerate",
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: listing of partitions of up to 1000001 parts "
            "exceeds the limit of 1000000\n"
        )

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
        # a distinct-part count reads pbar_gf at the lowered bounds, here the
        # product 1, at n - s for the shift s = r * C(k1 + 1, 2) + 1, and
        # builds no shifted copy of degree s, so genfun answers too
        bounds = ["--r", str(10**18), "--n1", "1", "--n2", "1", "--k1", "1", "--k2", "1"]
        argv = ["count", "qbar", *bounds, "--n", "3"]
        assert run(capsys, *argv) == (0, "0\n", "")
        assert run(capsys, *argv, "--method", "enumerate")[:2] == (0, "0\n")
        assert run(capsys, *argv, "--method", "all") == (0, "genfun: 0\nenumerate: 0\n", "")
        # the one partition r + 1'
        argv = ["count", "qbar", *bounds, "--n", str(10**18 + 1), "--method", "all"]
        assert run(capsys, *argv) == (0, "genfun: 1\nenumerate: 1\n", "")
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

    @pytest.mark.parametrize(
        "function, bounds, expected",
        [
            # 1200 first-kind ones
            ("pbar", ("1", "0", "1500", "0", "1200"), "+".join(["1"] * 1200)),
            # every second-kind part from 1 to 1200, once
            (
                "qbar",
                ("0", "1200", "0", "1200", "720600"),
                "+".join(f"{part}'" for part in range(1200, 0, -1)),
            ),
        ],
        ids=("pbar", "qbar"),
    )
    def test_deep_walk_lists_its_one_partition(self, capsys, function, bounds, expected):
        flags = [
            word
            for flag, value in zip(("--n1", "--n2", "--k1", "--k2", "--n"), bounds)
            for word in (flag, value)
        ]
        code, out, err = run(capsys, "enumerate", function, "--r", "1", *flags)
        assert (code, out, err) == (0, expected + "\n", "")

    def test_json_renders_each_partition_once(self, capsys, monkeypatch):
        # the encoder asks for each partition's record as it reaches it, so
        # no second copy of the listing is built before encoding starts
        seen, encoding = [], []
        render, dump = cli._json_default, cli._dump_json

        def counting(item):
            seen.append((item.render(), bool(encoding)))
            return render(item)

        def dumping(obj):
            encoding.append(True)
            return dump(obj)

        monkeypatch.setattr(cli, "_json_default", counting)
        monkeypatch.setattr(cli, "_dump_json", dumping)
        argv = ("enumerate", "pbar", *WORKED_FLAGS, "--n", "4")
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert seen == [
            (text, True) for text in ("4", "2+2", "2+2'", "2+1'+1'", "3'+1'", "2'+2'")
        ]
        assert len(json.loads(out)["partitions"]) == 6
        seen.clear()
        assert run(capsys, *argv, "--format", "json", "--quiet") == (0, "", "")
        assert run(capsys, *argv)[0] == 0
        assert seen == []

    def test_other_objects_are_not_serializable(self):
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            cli._dump_json({"parts": {1, 2}})
        with pytest.raises(TypeError):
            cli._dump_json([object()])


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

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("thm2.1", "--n-max", "5"), "--n-max"),
            (("eq2", "--m-max", "3", "--r-max", "1"), "--r-max"),
            (("cor3.2", "--param-max", "2"), "--param-max"),
        ],
    )
    def test_grid_flag_the_identity_does_not_take(self, capsys, monkeypatch, argv, flag):
        # refused before any verifier runs, as `count` refuses a stray flag
        def unreachable(*args, **kwargs):
            raise AssertionError("a verifier ran")

        monkeypatch.setattr(identities, "run_identity", unreachable)
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {flag} is not valid for {argv[0]}\n"

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
        assert out.splitlines() == [
            "thm2.1: PASS (checked=162, grid 1<=r<=2, 0<=N1,N2,k1,k2<=2, all n)",
            "thm2.2: PASS (checked=162, grid 1<=r<=2, 0<=N1,N2,k1,k2<=2, all n)",
            "thm2.3: PASS (checked=216, grid 1<=r<=2, 1<=N1,N2<=2, 0<=k1,k2<=2, "
            "three relations, all n)",
            "thm2.4: PASS (checked=162, grid 1<=r<=2, 0<=N1,N2,k1,k2<=2)",
            "thm2.5: PASS (checked=162, grid 1<=r<=2, 0<=N1,N2,k1,k2<=2)",
            "thm2.6: PASS (checked=162, grid 1<=r<=2, 0<=N1,N2,k1,k2<=2, all n)",
            "thm3.1: PASS (checked=52, grid 0<=N<=3, 0<=k<=3, 0<=n<=N*k)",
            "thm3.3: PASS (checked=52, grid 0<=N<=3, 0<=k<=3, 0<=n<=N*k)",
            "cor3.2: PASS (checked=4, grid 0<=n<=3)",
            "eq2: PASS (checked=16, grid 0<=m<=3, 0<=n<=3)",
            "eq3: PASS (checked=16, grid 0<=m<=3, 0<=n<=3)",
        ]

    def test_all_at_the_default_grids(self, capsys):
        code, out, err = run(capsys, "verify", "all")
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "thm2.1: PASS (checked=1875, grid 1<=r<=3, 0<=N1,N2,k1,k2<=4, all n)",
            "thm2.2: PASS (checked=1875, grid 1<=r<=3, 0<=N1,N2,k1,k2<=4, all n)",
            "thm2.3: PASS (checked=8100, grid 1<=r<=3, 1<=N1,N2<=5, 0<=k1,k2<=5, "
            "three relations, all n)",
            "thm2.4: PASS (checked=3888, grid 1<=r<=3, 0<=N1,N2,k1,k2<=5)",
            "thm2.5: PASS (checked=3888, grid 1<=r<=3, 0<=N1,N2,k1,k2<=5)",
            "thm2.6: PASS (checked=3888, grid 1<=r<=3, 0<=N1,N2,k1,k2<=5, all n)",
            "thm3.1: PASS (checked=1377, grid 0<=N<=8, 0<=k<=8, 0<=n<=N*k)",
            "thm3.3: PASS (checked=357, grid 0<=N<=5, 0<=k<=6, 0<=n<=N*k)",
            "cor3.2: PASS (checked=61, grid 0<=n<=60)",
            "eq2: PASS (checked=121, grid 0<=m<=10, 0<=n<=10)",
            "eq3: PASS (checked=121, grid 0<=m<=10, 0<=n<=10)",
        ]

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
        monkeypatch.setattr(identities, "run_identity", lambda *a, **k: failing)
        code, out, _ = run(capsys, "verify", "eq2")
        assert code == 1
        assert "FAIL" in out
        assert "params=(3, 4)" in out

    def test_text_shows_ten_failures_and_counts_the_rest(self, capsys, monkeypatch):
        from qpartitions.identities import Counterexample, VerificationReport

        failures = [Counterexample((n,), "1", "0") for n in range(13)]
        failing = VerificationReport("eq2", "stub", checked=13, failures=failures)
        monkeypatch.setattr(identities, "run_identity", lambda *a, **k: failing)
        code, out, _ = run(capsys, "verify", "eq2")
        assert code == 1
        assert out.splitlines() == [
            "eq2: FAIL (13 counterexamples) (checked=13, grid stub)",
            *(f"  params=({n},) lhs=1 rhs=0" for n in range(10)),
            "  ... and 3 more",
        ]

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

    def test_oversized_grid_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "thm2.1", "--r-max", "100000000")
        assert code == 2
        assert out == ""
        assert err == (
            "error: thm2.1: grid of 62500000000 points exceeds the limit of 1000000\n"
        )

    def test_costly_expansion_grid_is_a_usage_error(self, capsys):
        # 40,401 points, but each (N, k) compares rows of N*k + 1 counts
        code, out, err = run(
            capsys, "verify", "thm3.1", "--n-max", "200", "--k-max", "200"
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: thm3.1: grid of 404050401 comparisons exceeds the limit of 1000000\n"
        )

    def test_costly_gaussian_grid_is_a_usage_error(self, capsys):
        # 5,511 points, but the memo keeps [m+j, j] of m*j + 1 coefficients
        # for every m <= 10 and j <= 500: 6,894,261 in all
        code, out, err = run(
            capsys, "verify", "eq2", "--m-max", "10", "--n-max", "500"
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: eq2: grid of 6894261 Gaussian coefficients exceeds the limit "
            "of 1000000\n"
        )

    def test_tall_gaussian_grid_is_a_usage_error(self, capsys):
        # 400,004 points, but [m+j, j] for m <= 100,000 and j <= 3 hold
        # 30,000,700,004 coefficients
        code, out, err = run(
            capsys, "verify", "eq3", "--m-max", "100000", "--n-max", "3"
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: eq3: grid of 30000700004 Gaussian coefficients exceeds the "
            "limit of 1000000\n"
        )

    def test_costly_corollary_grid_is_a_usage_error(self, capsys):
        # 10**6 points, but point n builds [2n, n] of n*n + 1 coefficients
        code, out, err = run(capsys, "verify", "cor3.2", "--n-max", "999999")
        assert code == 2
        assert out == ""
        assert err == (
            "error: cor3.2: grid of 333332833334500000 Gaussian coefficients "
            "exceeds the limit of 1000000\n"
        )

    def test_costly_generating_function_grid_is_a_usage_error(self, capsys, monkeypatch):
        # 28,561 points, but the pbar_gf memo would hold 2,084,953 coefficients
        monkeypatch.setattr(identities, "pbar_gf", None)
        code, out, err = run(
            capsys, "verify", "thm2.4", "--r-max", "1", "--param-max", "12"
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: thm2.4: grid of 2084953 generating-function coefficients "
            "exceeds the limit of 1000000\n"
        )

    def test_costly_staircase_grid_is_a_usage_error(self, capsys, monkeypatch):
        # 130,321 points, but the staircase check would walk 2 * (2**19 - 1)
        # picks, whatever r_max is; no pick is walked before the refusal
        monkeypatch.setattr(identities, "_picks", None)
        code, out, err = run(
            capsys, "verify", "thm2.5", "--r-max", "1", "--param-max", "18"
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: thm2.5: grid of 1048574 picks exceeds the limit of 1000000\n"
        )

    def test_costly_corollary_rows_are_a_usage_error(self, capsys, monkeypatch):
        # the rows [2n, n] hold 338,451 coefficients, and the terms' rows
        # [n+j, j] and [n+1, 2j+1] bring the memo to 1,528,848
        monkeypatch.setattr(identities, "partition_p", None)
        code, out, err = run(capsys, "verify", "cor3.2", "--n-max", "100")
        assert code == 2
        assert out == ""
        assert err == (
            "error: cor3.2: grid of 1528848 Gaussian coefficients "
            "exceeds the limit of 1000000\n"
        )

    def test_costly_oracle_grid_is_a_usage_error(self, capsys, monkeypatch):
        # 12,288 points; the enumeration row at (7, 7, 7, 7) walks 3,432**2
        # pairs, and no row is walked before the refusal
        monkeypatch.setattr(identities, "_tally", None)
        code, out, err = run(capsys, "verify", "thm2.1", "--param-max", "7")
        assert code == 2
        assert out == ""
        assert err == (
            "error: enumeration of 11778624 pairs of picks drawing 48048 parts "
            "exceeds the limit of 1000000\n"
        )

    def test_long_oracle_grid_is_a_usage_error(self, capsys, monkeypatch):
        # every row of param-max 6 is within the walk limit, but 416 r walk
        # 416 * 3,431**2 pairs of picks in all
        monkeypatch.setattr(identities, "_tally", None)
        code, out, err = run(
            capsys, "verify", "thm2.1", "--r-max", "416", "--param-max", "6"
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: thm2.1: grid of 4897052576 pairs of picks exceeds the limit "
            "of 100000000\n"
        )

    def test_every_grid_bound_has_a_flag(self):
        accepted = {name for _, names in identities._REGISTRY.values() for name in names}
        assert sorted(cli._GRID_BOUNDS) == sorted(accepted)

    def test_all_json_shape(self, capsys):
        code, out, _ = run(
            capsys, "verify", "all",
            "--param-max", "1", "--r-max", "1", "--m-max", "1",
            "--n-max", "1", "--k-max", "1", "--format", "json",
        )
        assert code == 0
        reports = [
            ("thm2.1", 16, "1<=r<=1, 0<=N1,N2,k1,k2<=1, all n"),
            ("thm2.2", 16, "1<=r<=1, 0<=N1,N2,k1,k2<=1, all n"),
            ("thm2.3", 12, "1<=r<=1, 1<=N1,N2<=1, 0<=k1,k2<=1, three relations, all n"),
            ("thm2.4", 16, "1<=r<=1, 0<=N1,N2,k1,k2<=1"),
            ("thm2.5", 16, "1<=r<=1, 0<=N1,N2,k1,k2<=1"),
            ("thm2.6", 16, "1<=r<=1, 0<=N1,N2,k1,k2<=1, all n"),
            ("thm3.1", 5, "0<=N<=1, 0<=k<=1, 0<=n<=N*k"),
            ("thm3.3", 5, "0<=N<=1, 0<=k<=1, 0<=n<=N*k"),
            ("cor3.2", 2, "0<=n<=1"),
            ("eq2", 4, "0<=m<=1, 0<=n<=1"),
            ("eq3", 4, "0<=m<=1, 0<=n<=1"),
        ]
        payload = {"pass": True, "reports": [
            {"checked": checked, "failures": [], "grid": grid, "identity_id": identity_id}
            for identity_id, checked, grid in reports
        ]}
        assert out == canonical(payload) + "\n"


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

    def test_partition_range_reads_one_gaussian_row(self, capsys, monkeypatch):
        # p(n) = p(b, b, n) for n <= b, so the range 3..7 reads [14, 7] alone
        read = set()

        def recording(top, bottom, low, high):
            read.add((top, bottom))
            return qbinomial._coefficients(top, bottom, low, high)

        monkeypatch.setattr(partitions, "_coefficients", recording)
        code, out, _ = run(capsys, "table", "partition", "--n", "3..7")
        assert code == 0
        assert out == "n count\n3 3\n4 5\n5 7\n6 11\n7 15\n"
        assert read == {(14, 7)}
        code, out, _ = run(
            capsys, "table", "partition", "--n", "6..7", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {
            "function": "partition",
            "params": {},
            "rows": [{"n": "6", "count": "11"}, {"n": "7", "count": "15"}],
        }

    def test_partition_range_is_held_to_the_gaussian_work_limit(self, capsys):
        # the one row [930, 465] is refused before it is built
        code, out, err = run(capsys, "table", "partition", "--n", "0..465")
        assert (code, out) == (2, "")
        assert err == (
            "error: build of Gaussian [930, 465] in 100544625 steps "
            "exceeds the limit of 100000000\n"
        )

    def test_oversized_range_is_refused_before_any_row(self, capsys, monkeypatch):
        # 10**9 + 1 rows would need about 100 GB; no route is called
        def count(values):
            raise AssertionError(f"row {values['n']} was counted")

        for function in ("p", "pbar", "qbar"):
            monkeypatch.setitem(cli._ROUTES[function], "genfun", count)
        for argv in (
            ("p", "--N", "5", "--k", "5"),
            ("pbar", *WORKED_FLAGS),
            ("qbar", *WORKED_FLAGS),
            ("partition",),
        ):
            code, out, err = run(capsys, "table", *argv, "--n", "0..1000000000")
            assert (code, out) == (2, "")
            assert err == "error: table of 1000000001 rows exceeds the limit of 100000\n"

    def test_range_at_the_row_limit_is_tabulated(self, capsys, monkeypatch):
        counted = []
        monkeypatch.setitem(
            cli._ROUTES["p"], "genfun", lambda values: counted.append(values["n"]) or 0
        )
        flags = ("table", "p", "--N", "5", "--k", "5", "--quiet", "--n")
        code, out, err = run(capsys, *flags, "1..100000")
        assert (code, out, err) == (0, "", "")
        assert counted == list(range(1, 100001))
        counted.clear()
        code, out, err = run(capsys, *flags, "1..100001")
        assert (code, out, counted) == (2, "", [])
        assert err == "error: table of 100001 rows exceeds the limit of 100000\n"

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
