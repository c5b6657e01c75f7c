"""Identity verifiers: worked instances, default grids, report contracts."""

import copy
import itertools
import math
import pickle
import sys
import threading
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpartitions import identities, partitions
from qpartitions.identities import (
    Counterexample,
    VerificationReport,
    corollary_lower_index,
    corollary_term_count,
    corollary_terms,
    p_by_corollary,
    run_identity,
    verify_cor32,
    verify_guo_yang_1,
    verify_guo_yang_2,
    verify_thm21,
    verify_thm22,
    verify_thm23,
    verify_thm24,
    verify_thm25,
    verify_thm26,
    verify_thm31,
    verify_thm33,
    IDENTITY_IDS,
)
from qpartitions.partitions import (
    p,
    partition_p,
    pbar_enumerate_totals,
    pbar_gf,
    qbar_enumerate_totals,
    qbar_gf,
)
from qpartitions.polynomial import IntPolynomial, packed_sums
from qpartitions.qbinomial import qbinom


def perturb(monkeypatch, name, cells):
    """Add ``cells[args]`` to ``identities.<name>(*args)`` at the listed arguments."""
    real = getattr(identities, name)

    def perturbed(*args):
        value = real(*args)
        return value + cells[args] if args in cells else value

    monkeypatch.setattr(identities, name, perturbed)


def failures(report):
    return [c.as_dict() for c in report.failures]


def pentagonal_partition_numbers(limit):
    """p(0..limit) by the alternating pentagonal recurrence.  Oracle only."""
    values = [1] + [0] * limit
    for n in range(1, limit + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = 1 if k % 2 else -1
            if g1 <= n:
                total += sign * values[n - g1]
            if g2 <= n:
                total += sign * values[n - g2]
            k += 1
        values[n] = total
    return values


class TestReportContract:
    def test_pass_iff_no_failures(self):
        report = VerificationReport("x", "grid", checked=3)
        assert report.passed
        report = VerificationReport(
            "x", "grid", checked=3, failures=[Counterexample((1,), "0", "1")]
        )
        assert not report.passed

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            VerificationReport("x", "grid", checked=0)

    def test_failures_sorted_by_params(self):
        report = VerificationReport(
            "x",
            "grid",
            checked=2,
            failures=[
                Counterexample((2, 0), "a", "b"),
                Counterexample((1, 5), "c", "d"),
            ],
        )
        assert [c.params for c in report.failures] == [(1, 5), (2, 0)]

    def test_json_shape(self):
        report = VerificationReport(
            "x", "grid", checked=2, failures=[Counterexample((1,), "0", "1")]
        )
        assert report.as_dict() == {
            "identity_id": "x",
            "grid": "grid",
            "checked": 2,
            "failures": [{"params": [1], "lhs": "0", "rhs": "1"}],
        }

    def test_reports_compare_by_value_and_do_not_hash(self):
        failure = Counterexample((1,), "0", "1")
        report = VerificationReport("x", "grid", 2, [failure])
        assert report == VerificationReport("x", "grid", 2, [failure])
        assert report != VerificationReport("x", "grid", 2)
        assert report != VerificationReport("y", "grid", 2, [failure])
        assert report != ("x", "grid", 2, [failure])
        with pytest.raises(TypeError, match="unhashable"):
            hash(report)
        report.checked = 3
        assert report.checked == 3

    def test_keyword_construction(self):
        failures = [Counterexample(params=(2,), lhs="a", rhs="b")]
        report = VerificationReport(
            failures=failures, checked=2, grid="g", identity_id="x"
        )
        assert report == VerificationReport("x", "g", 2, list(failures))
        assert VerificationReport(identity_id="x", grid="g", checked=1).failures == []

    def test_copies_are_equal_mutable_reports(self):
        failures = [Counterexample((2, 0), "a", "b"), Counterexample((1, 5), "c", "d")]
        report = VerificationReport("x", "grid", 4, failures)
        for twin in (copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
            assert twin == report and twin is not report
            assert twin.failures is not report.failures
            assert repr(twin) == repr(report)
            with pytest.raises(TypeError, match="unhashable"):
                hash(twin)
            twin.checked = 5
            twin.failures.append(Counterexample((3,), "e", "f"))
            assert twin != report and report.checked == 4
            assert len(report.failures) == 2
            del twin.grid
            assert not hasattr(twin, "grid")

    def test_repr(self):
        failures = [Counterexample((2,), "a", "b"), Counterexample((1,), "c", "d")]
        report = VerificationReport("x", "grid", 3, failures)
        assert repr(report) == (
            "VerificationReport(identity_id='x', grid='grid', checked=3, failures=["
            "Counterexample(params=(1,), lhs='c', rhs='d'), "
            "Counterexample(params=(2,), lhs='a', rhs='b')])"
        )
        assert repr(VerificationReport("x", "g", 1)) == (
            "VerificationReport(identity_id='x', grid='g', checked=1, failures=[])"
        )

    def test_registry_covers_all_ids(self):
        assert set(IDENTITY_IDS) == {
            "thm2.1",
            "thm2.2",
            "thm2.3",
            "thm2.4",
            "thm2.5",
            "thm2.6",
            "thm3.1",
            "thm3.3",
            "cor3.2",
            "eq2",
            "eq3",
        }
        with pytest.raises(KeyError):
            run_identity("thm9.9")

    def test_run_identity_filters_overrides(self):
        report = run_identity("eq2", m_max=2, n_max=2, param_max=99, r_max=None)
        assert report.checked == 9 and report.passed

    SQUARE = {"r_max": 2, "param_max": 2, "m_max": 3, "n_max": 3, "k_max": 3}
    OBLONG = {"r_max": 3, "param_max": 1, "m_max": 2, "n_max": 5, "k_max": 1}

    @pytest.mark.parametrize("grid", [SQUARE, OBLONG], ids=["square", "oblong"])
    @pytest.mark.parametrize("identity_id", IDENTITY_IDS)
    def test_checked_counts_match_closed_forms(self, identity_id, grid):
        r, top = grid["r_max"], grid["param_max"]
        m, n, k = grid["m_max"], grid["n_max"], grid["k_max"]
        expected = {
            "eq2": (m + 1) * (n + 1),
            "eq3": (m + 1) * (n + 1),
            "cor3.2": n + 1,
            "thm3.1": sum(N * j + 1 for N in range(n + 1) for j in range(k + 1)),
            "thm3.3": sum(N * j + 1 for N in range(n + 1) for j in range(k + 1)),
            "thm2.3": 3 * r * top**2 * (top + 1) ** 2,
        }.get(identity_id, r * (top + 1) ** 4)
        report = run_identity(identity_id, **grid)
        assert report.identity_id == identity_id
        assert report.passed
        assert report.checked == expected


def zero_cost():
    return 0, "units", 0


class TestGridLimit:
    def test_grid_at_the_limit_runs(self, monkeypatch):
        monkeypatch.setattr(identities, "MAX_GRID_POINTS", 12)
        points = []

        def check(*point):
            points.append(point)
            return 1, []

        axes = (range(3), range(1, 5))
        report = identities._sweep("x", "grid", axes, check, zero_cost)
        assert report.checked == 12 and report.passed
        assert points == [(i, j) for i in range(3) for j in range(1, 5)]

    def test_one_point_over_is_refused_before_any_check(self, monkeypatch):
        monkeypatch.setattr(identities, "MAX_GRID_POINTS", 11)

        def check(*point):
            raise AssertionError(f"checked {point}")

        with pytest.raises(ValueError, match=r"^x: grid of 12 points exceeds the limit of 11$"):
            identities._sweep("x", "grid", (range(3), range(1, 5)), check, zero_cost)

    def test_verifiers_size_their_grid_first(self, monkeypatch):
        # thm2.1 at r <= 2, N1, N2, k1, k2 <= 1 has 2 * 2**4 = 32 points
        monkeypatch.setattr(identities, "MAX_GRID_POINTS", 32)
        assert verify_thm21(r_max=2, param_max=1).checked == 32
        monkeypatch.setattr(identities, "MAX_GRID_POINTS", 31)
        monkeypatch.setattr(identities, "pbar_convolution_totals", None)
        monkeypatch.setattr(partitions, "_convolve", None)
        with pytest.raises(ValueError, match="thm2.1: grid of 32 points"):
            verify_thm21(r_max=2, param_max=1)

    @pytest.mark.parametrize(
        "identity_id, grid",
        [
            ("thm2.1", {"r_max": 10**8}),
            ("thm2.3", {"r_max": 10**30}),  # past a C ssize_t
            ("eq2", {"n_max": 10**8}),
            ("cor3.2", {"n_max": 10**6}),
            ("thm3.1", {"n_max": 200, "k_max": 200}),  # 40,401 points
            ("eq2", {"m_max": 10, "n_max": 500}),  # 5,511 points
            ("eq3", {"m_max": 5, "n_max": 1000}),  # 6,006 points
            ("cor3.2", {"n_max": 999999}),  # 10**6 points
            ("eq3", {"m_max": 100000, "n_max": 3}),  # 400,004 points
        ],
    )
    def test_unpatched_limit_refuses_large_grids(self, identity_id, grid):
        with pytest.raises(ValueError, match=f"limit of {10**6}$"):
            run_identity(identity_id, **grid)

    @pytest.mark.parametrize(
        "identity_id, verifier",
        [
            ("thm3.1", verify_thm31),
            ("thm3.3", verify_thm33),
            ("eq2", verify_guo_yang_1),
            ("eq3", verify_guo_yang_2),
        ],
    )
    def test_expansion_grids_count_comparisons(
        self, monkeypatch, identity_id, verifier
    ):
        # 12 points at (2, 3).  A point (a, b) of thm3.x compares rows of
        # a*b + 1 counts, and one of eq2 or eq3 keeps [a+b, b] of a*b + 1
        # coefficients, so each grid costs 3 * 6 + 3 * 4 = 30
        if identity_id.startswith("thm"):
            unit, checked = "comparisons", 30
        else:
            unit, checked = "Gaussian coefficients", 12
        monkeypatch.setattr(identities, "MAX_GRID_POINTS", 30)
        report = verifier(2, 3)
        assert report.passed and report.checked == checked
        monkeypatch.setattr(identities, "MAX_GRID_POINTS", 29)
        monkeypatch.setattr(identities, "pbar_convolution_totals", None)
        monkeypatch.setattr(identities, "_convolve", None)
        monkeypatch.setattr(partitions, "_convolve", None)
        monkeypatch.setattr(identities, "qbinom", None)
        refusal = f"^{identity_id}: grid of 30 {unit} exceeds the limit of 29$"
        with pytest.raises(ValueError, match=refusal):
            verifier(2, 3)

    def test_rectangle_sweep_costs_every_point(self, monkeypatch):
        # a point (a, b) costs a*b + 1 units, summed over the whole rectangle;
        # from 1 up, each rectangle costs more units than it has points
        def sweep(a_max, b_max):
            return identities._rectangle_sweep(
                "x", "a b", a_max, b_max, lambda a, b: (1, []), "units", ", note"
            )

        for a_max, b_max in itertools.product(range(1, 8), repeat=2):
            work = sum(a * b + 1 for a in range(a_max + 1) for b in range(b_max + 1))
            monkeypatch.setattr(identities, "MAX_GRID_POINTS", work)
            report = sweep(a_max, b_max)
            assert report.checked == (a_max + 1) * (b_max + 1)
            assert report.grid == f"0<=a<={a_max}, 0<=b<={b_max}, note"
            monkeypatch.setattr(identities, "MAX_GRID_POINTS", work - 1)
            refusal = f"^x: grid of {work} units exceeds the limit of {work - 1}$"
            with pytest.raises(ValueError, match=refusal):
                sweep(a_max, b_max)

    def test_corollary_grid_counts_its_gaussian_rows(self, monkeypatch):
        # n <= 3 builds [2n, n] of n*n + 1 coefficients, 1 + 2 + 5 + 10 = 18,
        # and its terms add [1, 0], [2, 0], [3, 0], [3, 1] and [4, 1]: 28 in all
        monkeypatch.setattr(identities, "MAX_GRID_POINTS", 28)
        assert verify_cor32(n_max=3).passed

        def unreachable(n):
            raise AssertionError(f"checked {n}")

        monkeypatch.setattr(identities, "partition_p", unreachable)
        monkeypatch.setattr(identities, "p_by_corollary", unreachable)
        for limit, size in ((27, 28), (17, 18)):
            monkeypatch.setattr(identities, "MAX_GRID_POINTS", limit)
            refusal = (
                f"^cor3.2: grid of {size} Gaussian coefficients exceeds the limit "
                f"of {limit}$"
            )
            with pytest.raises(ValueError, match=refusal):
                verify_cor32(n_max=3)
            # past the limit, the [2n, n] rows alone refuse before any term
            monkeypatch.setattr(identities, "corollary_lower_index", unreachable)

    @pytest.mark.parametrize("n_max", (0, 1, 7, 20))
    def test_corollary_cost_is_the_rows_the_memo_keeps(self, monkeypatch, n_max):
        # every distinct row the grid reads, [t, b] and [t, t-b] as one
        rows = set()
        real = partitions._coefficients

        def recording(top, bottom, low, high):
            if 0 <= bottom <= top:
                rows.add((top, min(bottom, top - bottom)))
            return real(top, bottom, low, high)

        monkeypatch.setattr(partitions, "_coefficients", recording)
        assert verify_cor32(n_max=n_max).passed
        held = sum(b * (t - b) + 1 for t, b in rows)
        monkeypatch.setattr(identities, "MAX_GRID_POINTS", held - 1)
        with pytest.raises(ValueError, match=f"^cor3.2: grid of {held} Gaussian"):
            verify_cor32(n_max=n_max)

    @pytest.mark.parametrize("n_max, coeffs", [(40, 74054), (60, 282299), (88, 998851)])
    def test_corollary_cost_at_documented_sizes(self, monkeypatch, n_max, coeffs):
        monkeypatch.setattr(identities, "MAX_GRID_POINTS", coeffs - 1)
        monkeypatch.setattr(identities, "partition_p", None)
        with pytest.raises(ValueError, match=f"^cor3.2: grid of {coeffs} Gaussian"):
            verify_cor32(n_max=n_max)

    @pytest.mark.parametrize("r_max, param_max", [(1, 3), (2, 2), (3, 4)])
    @pytest.mark.parametrize("identity_id", ("thm2.3", "thm2.4"))
    def test_generating_function_grids_count_their_memo(
        self, monkeypatch, identity_id, r_max, param_max
    ):
        # the coefficients of every distinct pbar_gf the grid reads,
        # neighbours included; thm2.3 reads every bound tuple up to
        # param_max, and those at a part-count bound of -1, which are zero
        held = {}
        real = identities.pbar_gf

        def recording(*bounds):
            gf = real(*bounds)
            held[bounds] = len(gf.coeffs)
            return gf

        monkeypatch.setattr(identities, "pbar_gf", recording)
        assert run_identity(identity_id, r_max=r_max, param_max=param_max).passed
        size = sum(held.values())
        if identity_id == "thm2.3":
            tuples = itertools.product(
                range(1, r_max + 1), *[range(param_max + 1)] * 4
            )
            everything = set(tuples)
            assert {key for key, length in held.items() if length} == everything
            size = sum(r * n1 * k1 + n2 * k2 + 1 for r, n1, n2, k1, k2 in everything)
        unit = "generating-function coefficients"
        monkeypatch.setattr(identities, "MAX_GRID_POINTS", size)
        assert run_identity(identity_id, r_max=r_max, param_max=param_max).passed
        monkeypatch.setattr(identities, "MAX_GRID_POINTS", size - 1)
        monkeypatch.setattr(identities, "pbar_gf", None)
        refusal = f"^{identity_id}: grid of {size} {unit} exceeds the limit of {size - 1}$"
        with pytest.raises(ValueError, match=refusal):
            run_identity(identity_id, r_max=r_max, param_max=param_max)

    @pytest.mark.parametrize(
        "r_max, param_max, coeffs",
        [(3, 5, 76788), (3, 7, 463872), (1, 10, 746691), (1, 12, 2084953)],
    )
    def test_symmetry_cost_at_documented_sizes(self, monkeypatch, r_max, param_max, coeffs):
        # the sum of r*N1*k1 + N2*k2 + 1 over the grid's points
        monkeypatch.setattr(identities, "MAX_GRID_POINTS", coeffs - 1)
        monkeypatch.setattr(identities, "pbar_gf", None)
        refusal = f"^thm2.4: grid of {coeffs} generating-function coefficients"
        with pytest.raises(ValueError, match=refusal):
            verify_thm24(r_max=r_max, param_max=param_max)

    @pytest.mark.parametrize("r_max, param_max", [(1, 0), (1, 3), (3, 4), (2, 6)])
    def test_staircase_grid_counts_its_picks(self, monkeypatch, r_max, param_max):
        # the sets and multisets the staircase check walks, once per grid
        walked = []
        real = identities._picks

        def counted(*args):
            picks = list(real(*args))
            walked.append(len(picks))
            return iter(picks)

        monkeypatch.setattr(identities, "_picks", counted)
        assert verify_thm25(r_max=r_max, param_max=param_max).passed
        picks = 2 * (2 ** (param_max + 1) - 1)
        assert sum(walked) == picks
        monkeypatch.setattr(partitions, "MAX_ENUMERATION_WORK", picks)
        assert verify_thm25(r_max=r_max, param_max=param_max).passed
        monkeypatch.setattr(partitions, "MAX_ENUMERATION_WORK", picks - 1)
        monkeypatch.setattr(identities, "_picks", None)
        refusal = f"^thm2.5: grid of {picks} picks exceeds the limit of {picks - 1}$"
        with pytest.raises(ValueError, match=refusal):
            verify_thm25(r_max=r_max, param_max=param_max)

    @pytest.mark.parametrize("r_max", [1, 3])
    def test_staircase_limit_falls_between_17_and_18(self, monkeypatch, r_max):
        # 524,286 picks at param-max 17, within 10**6, and 1,048,574 at 18,
        # refused before the first pick whatever r_max is; at 17 the limit
        # is lowered to show the count without walking it
        monkeypatch.setattr(identities, "_picks", None)
        with pytest.raises(ValueError, match="^thm2.5: grid of 1048574 picks .* 1000000$"):
            verify_thm25(r_max=r_max, param_max=18)
        monkeypatch.setattr(partitions, "MAX_ENUMERATION_WORK", 524285)
        with pytest.raises(ValueError, match="^thm2.5: grid of 524286 picks"):
            verify_thm25(r_max=r_max, param_max=17)

    @pytest.mark.parametrize(
        "identity_id, bound, pairs, parts",
        [
            # the costliest row is (2, 2, 2, 2): C(4, 2)**2 pairs, 2 * 2 * 6 parts
            ("thm2.1", 2, 36, 24),
            ("thm2.2", 2, 36, 24),
            # the costliest row is (3, 3, 2, 2): C(3, 2)**2 pairs, 2 * 2 * 3 parts
            ("thm2.6", 3, 9, 12),
        ],
    )
    def test_oracle_grids_size_their_walk_first(
        self, monkeypatch, identity_id, bound, pairs, parts
    ):
        work = max(pairs, parts)
        monkeypatch.setattr(partitions, "MAX_ENUMERATION_WORK", work)
        assert run_identity(identity_id, r_max=1, param_max=bound).passed
        monkeypatch.setattr(partitions, "MAX_ENUMERATION_WORK", work - 1)

        def unreachable(*bounds):
            raise AssertionError(f"walked {bounds}")

        for name in ("pbar_convolution_totals", "pbar_gf", "_tally"):
            monkeypatch.setattr(identities, name, unreachable)
        refusal = (
            f"^enumeration of {pairs} pairs of picks drawing {parts} parts "
            f"exceeds the limit of {work - 1}$"
        )
        with pytest.raises(ValueError, match=refusal):
            run_identity(identity_id, r_max=1, param_max=bound)

    @pytest.mark.parametrize(
        "identity_id, walk",
        [
            # k picks with replacement from 0..N
            ("thm2.1", lambda n, k: (k, n + k)),
            # k distinct picks from 1..N; a kind with k > N is not walked
            ("thm2.6", lambda n, k: (k, n) if k <= n else None),
        ],
    )
    def test_grid_refuses_as_its_costliest_row(self, monkeypatch, identity_id, walk):
        # with no walk allowed, the grid names its costliest row; that row
        # has both the most pairs and the most parts of any row in the grid,
        # so a grid is refused exactly when one of its rows would be
        monkeypatch.setattr(partitions, "MAX_ENUMERATION_WORK", 0)
        for bound in range(16):
            kinds = [walk(n, k) for n in range(bound + 1) for k in range(bound + 1)]
            picks = [math.comb(t, k) for k, t in filter(None, kinds)]
            parts = [k * math.comb(t, k) for k, t in filter(None, kinds)]
            refusal = (
                f"^enumeration of {max(picks) ** 2} pairs of picks "
                f"drawing {2 * max(parts)} parts "
            )
            with pytest.raises(ValueError, match=refusal):
                run_identity(identity_id, r_max=1, param_max=bound)

    @pytest.mark.parametrize(
        "identity_id, pairs",
        [
            # two r, each (C(6, 3) - 1)**2 pairs over N1, N2, k1, k2 <= 2
            ("thm2.1", 2 * 19**2),
            ("thm2.2", 2 * 19**2),
            # two r, each (2**3 - 1)**2 pairs
            ("thm2.6", 2 * 7**2),
        ],
    )
    def test_oracle_grids_size_their_total_walk_first(
        self, monkeypatch, identity_id, pairs
    ):
        walked = []
        real = identities._tally

        def counted(first, second):
            walked.append(len(first) * len(second))
            return real(first, second)

        monkeypatch.setattr(identities, "_tally", counted)
        monkeypatch.setattr(identities, "MAX_GRID_WORK", pairs)
        assert run_identity(identity_id, r_max=2, param_max=2).passed
        # the sizing is exact: it counts the pairs the tallies then walk
        assert sum(walked) == pairs
        monkeypatch.setattr(identities, "MAX_GRID_WORK", pairs - 1)

        def unreachable(*bounds):
            raise AssertionError(f"walked {bounds}")

        for name in ("pbar_convolution_totals", "pbar_gf", "_tally"):
            monkeypatch.setattr(identities, name, unreachable)
        refusal = (
            f"^{identity_id}: grid of {pairs} pairs of picks exceeds the limit of {pairs - 1}$"
        )
        with pytest.raises(ValueError, match=refusal):
            run_identity(identity_id, r_max=2, param_max=2)

    def test_unpatched_work_limit_refuses_long_grids(self, monkeypatch):
        # 2,401 points per r, each row within the walk limit, but 416 r walk
        # 416 * 3,431**2 pairs
        monkeypatch.setattr(identities, "_tally", None)
        with pytest.raises(ValueError, match=f"^thm2.1: grid of {416 * 3431**2} pairs"):
            verify_thm21(r_max=416, param_max=6)

    def test_empty_axis_is_not_walked(self):
        # an empty N1 axis next to a huge r axis checks nothing, at once
        with pytest.raises(ValueError, match="empty verification grid"):
            verify_thm23(r_max=10**15, param_max=0)


class TestRowFailures:
    def test_equal_rows_of_either_type_match(self):
        assert identities._row_failures((1,), (1, 2, 3), [1, 2, 3]) == []
        assert identities._row_failures((1,), [1, 2, 3], (1, 2, 3)) == []

    def test_trailing_zeros_read_as_zero(self):
        assert identities._row_failures((1,), [1, 2, 0, 0], (1, 2)) == []
        assert identities._row_failures((1,), (1, 2), [1, 2, 0]) == []

    def test_empty_row_reads_as_zero(self):
        # an empty row against a row of zeros
        assert identities._row_failures((1,), (), [0]) == []
        assert identities._row_failures((1,), (), [0, 1]) == [
            Counterexample((1, 1), "0", "1")
        ]

    def test_padding_leaves_the_callers_rows(self):
        got, expected = [1], [1, 0, 2]
        identities._row_failures((1,), got, expected)
        assert (got, expected) == ([1], [1, 0, 2])

    def test_changed_entry(self):
        assert identities._row_failures((4, 5), [1, 7, 1], (1, 2, 1)) == [
            Counterexample((4, 5, 1), "7", "2")
        ]

    def test_extra_nonzero_entry(self):
        assert identities._row_failures((4, 5), (1, 2, 1), [1, 2, 1, 0, 3]) == [
            Counterexample((4, 5, 4), "0", "3")
        ]
        assert identities._row_failures((4,), [0, 6, 1, 0], (0, 2)) == [
            Counterexample((4, 1), "6", "2"),
            Counterexample((4, 2), "1", "0"),
        ]


class TestGuoYang:
    def test_first_identity_worked_instance(self):
        # m=1, n=2: q * [2,2] + [2,1] at q^2 sums to [3,2]
        lhs = (qbinom(1, 0, 2) * qbinom(2, 2)).shift(1) + qbinom(2, 1, 2) * qbinom(2, 0)
        assert lhs == IntPolynomial((1, 1, 1)) == qbinom(3, 2)

    def test_first_identity_grid(self):
        report = verify_guo_yang_1(m_max=8, n_max=8)
        assert report.passed
        assert report.checked == 81

    def test_only_live_terms_are_built(self, monkeypatch):
        # [1, j] vanishes past j = 1, so at m = 0 each n has one live left
        # term; the sides alternate, and each right side is [n, n] alone
        real = identities.packed_sums
        terms = []

        def counting(sides):
            terms.append(sum(len(side) for side in sides[::2]))
            assert [len(side) for side in sides[1::2]] == [1] * 61
            return real(sides)

        monkeypatch.setattr(identities, "packed_sums", counting)
        assert verify_guo_yang_1(m_max=0, n_max=60).passed
        assert terms == [61]

    def test_second_identity_single_term_instance(self):
        report = verify_guo_yang_2(m_max=0, n_max=1)
        assert report.passed

    def test_second_identity_grid(self):
        report = verify_guo_yang_2(m_max=6, n_max=6)
        assert report.passed

    @pytest.mark.parametrize(
        "cell, extra",
        [
            ((4, 2), IntPolynomial((0, -7, 0, 1))),  # a negative coefficient
            ((5, 2), IntPolynomial((0, 0, 2**70))),  # past 64 bits
            ((6, 3), IntPolynomial((0, 0, 0, 0, -(2**75)))),  # and negative
            ((3, 0), IntPolynomial((0, 1))),
            ((6, 2), IntPolynomial((3, 1))),  # small, on every side it is in
            # only the highest-degree coefficient of [7, 3], the right side
            # of eq2 at (4, 3): raised, and cancelled so the degree drops
            ((7, 3), IntPolynomial((0,) * 12 + (1,))),
            ((7, 3), IntPolynomial((0,) * 12 + (-1,))),
        ],
    )
    def test_counterexamples_match_the_product_loop(self, monkeypatch, cell, extra):
        # one Gaussian cell perturbed: the packed totals must report exactly
        # the failures of the plain multiply-and-add loop, and of reading
        # every packed side back and comparing the polynomials
        real = identities.qbinom

        def perturbed(top, bottom, step=1):
            base = real(top, bottom)
            if (top, bottom) == cell:
                base = base + extra
            return base.inflate(step)

        monkeypatch.setattr(identities, "qbinom", perturbed)

        def first(m_max, n_max):
            failures = []
            for m in range(m_max + 1):
                for n in range(n_max + 1):
                    lhs = IntPolynomial()
                    for k in range(n // 2 + 1):
                        term = perturbed(m + k, k, 2) * perturbed(m + 1, n - 2 * k)
                        lhs = lhs + term.shift(math.comb(n - 2 * k, 2))
                    rhs = perturbed(m + n, n)
                    if lhs != rhs:
                        failures.append([[m, n], str(lhs), str(rhs)])
            return failures

        def second(m_max, n_max):
            failures = []
            for m in range(m_max + 1):
                for n in range(n_max + 1):
                    lhs = rhs = IntPolynomial()
                    for k in range(n // 4 + 1):
                        term = perturbed(m + k, k, 4) * perturbed(m + 1, n - 4 * k)
                        lhs = lhs + term.shift(math.comb(n - 4 * k, 2))
                    for k in range(n // 2 + 1):
                        term = perturbed(m + k, k, 2) * perturbed(m + n - 2 * k, n - 2 * k)
                        rhs = rhs + (term if k % 2 == 0 else -term)
                    if lhs != rhs:
                        failures.append([[m, n], str(lhs), str(rhs)])
            return failures

        def unpacked(identity_id, m_max, n_max):
            # the comparison of whole polynomials that packed totals replace
            step = 2 if identity_id == "eq2" else 4
            failures = []
            for m in range(m_max + 1):
                wide = [perturbed(m + j, j).coeffs for j in range(n_max + 1)]
                narrow = [perturbed(m + 1, j).coeffs for j in range(m + 2)]
                sides = []
                for n in range(n_max + 1):
                    sides.append([
                        (1, math.comb(n - step * k, 2), step, wide[k], narrow[n - step * k])
                        for k in range(n // step + 1)
                        if n - step * k <= m + 1
                    ])
                    if identity_id == "eq3":
                        sides.append([
                            (-1 if k % 2 else 1, 0, 2, wide[k], wide[n - 2 * k])
                            for k in range(n // 2 + 1)
                        ])
                packing, totals = packed_sums(sides)
                read = iter([IntPolynomial(packing.unpack(*total)) for total in totals])
                for n in range(n_max + 1):
                    lhs = next(read)
                    rhs = perturbed(m + n, n) if identity_id == "eq2" else next(read)
                    if lhs != rhs:
                        failures.append([[m, n], str(lhs), str(rhs)])
            return failures

        for verify, reference, identity_id in (
            (verify_guo_yang_1, first, "eq2"),
            (verify_guo_yang_2, second, "eq3"),
        ):
            expected = [
                {"params": params, "lhs": lhs, "rhs": rhs}
                for params, lhs, rhs in reference(6, 9)
            ]
            assert expected  # the perturbation is seen
            assert unpacked(identity_id, 6, 9) == reference(6, 9)
            assert verify(m_max=6, n_max=9).as_dict() == {
                "identity_id": identity_id,
                "grid": "0<=m<=6, 0<=n<=9",
                "checked": 70,
                "failures": expected,
            }


class TestStructuralVerifiers:
    def test_convolution_route(self):
        assert verify_thm21(r_max=2, param_max=3).passed

    def test_genfun_route(self):
        assert verify_thm22(r_max=2, param_max=3).passed

    def test_recurrences(self):
        report = verify_thm23(r_max=2, param_max=3)
        assert report.passed
        assert report.checked == 2 * 3 * 3 * 4 * 4 * 3  # three relations per tuple

    def test_recurrences_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            verify_thm23(param_max=0)

    def test_symmetry_and_reflection(self):
        assert verify_thm24(r_max=2, param_max=3).passed

    def test_staircase_bijection(self):
        assert verify_thm25(r_max=2, param_max=3).passed

    def test_distinct_genfun_route(self):
        assert verify_thm26(r_max=2, param_max=3).passed

    def test_counterexamples_are_reported_per_target(self, monkeypatch):
        real = identities.pbar_convolution_totals

        def tampered(r, n1, n2, k1, k2):
            row = real(r, n1, n2, k1, k2)
            if (r, n1, n2, k1, k2) == (2, 1, 1, 1, 1):
                row[1] += 1  # the row is 1 + q + q^2 + q^3
                row.append(5)
            return row

        monkeypatch.setattr(identities, "pbar_convolution_totals", tampered)
        report = verify_thm21(r_max=2, param_max=1)
        assert report.checked == 32
        assert [c.as_dict() for c in report.failures] == [
            {"params": [2, 1, 1, 1, 1, 1], "lhs": "2", "rhs": "1"},
            {"params": [2, 1, 1, 1, 1, 4], "lhs": "5", "rhs": "0"},
        ]

    def test_recurrence_counterexamples_carry_the_relation_index(self, monkeypatch):
        # the perturbed cell is the (N1-1, N2-1) neighbour of (1, 1, 1, 1, 1),
        # shifted by k1*r + k2, by nothing and by k1*r in the three relations
        perturb(monkeypatch, "pbar_gf", {(1, 0, 0, 1, 1): IntPolynomial((0, 0, 0, 1))})
        report = verify_thm23(r_max=1, param_max=1)
        assert report.checked == 12
        lhs = "1 + 2*q + q^2"
        assert failures(report) == [
            {"params": [1, 1, 1, 1, 1, 1], "lhs": lhs, "rhs": lhs + " + q^5"},
            {"params": [2, 1, 1, 1, 1, 1], "lhs": lhs, "rhs": lhs + " + q^3"},
            {"params": [3, 1, 1, 1, 1, 1], "lhs": lhs, "rhs": lhs + " + q^4"},
        ]

    @pytest.mark.parametrize(
        "cells",
        [
            # a negative coefficient, below the largest unperturbed one
            {(2, 1, 1, 1, 1): IntPolynomial((0, -3))},
            # a coefficient that sets the digit width alone, as the point's
            # own side and as a neighbour
            {(1, 2, 1, 1, 2): IntPolynomial((0, 0, 2**70))},
            {(2, 1, 0, 2, 1): IntPolynomial((2**70,))},
            # the four neighbours of (1, 2, 2, 2, 2), their large coefficients
            # meeting at q^4 in relation 2: a sum near 4 times the largest
            {
                (1, 1, 1, 2, 2): IntPolynomial((0, 0, 0, 0, 2**70 - 2**60)),
                (1, 1, 2, 2, 1): IntPolynomial((0, 0, 2**70 - 2**60)),
                (1, 2, 1, 1, 2): IntPolynomial((0, 0, 2**70 - 2**60)),
                (1, 2, 2, 1, 1): IntPolynomial((2**70 - 2**60,)),
            },
        ],
    )
    def test_recurrence_packed_sides_report_like_polynomials(self, monkeypatch, cells):
        perturb(monkeypatch, "pbar_gf", cells)
        gf = identities.pbar_gf
        expected = []
        for r, n1, n2, k1, k2 in itertools.product(
            range(1, 3), range(1, 3), range(1, 3), range(3), range(3)
        ):
            a = gf(r, n1 - 1, n2 - 1, k1, k2)
            b = gf(r, n1 - 1, n2, k1, k2 - 1)
            c = gf(r, n1, n2 - 1, k1 - 1, k2)
            d = gf(r, n1, n2, k1 - 1, k2 - 1)
            relations = (
                a.shift(k1 * r + k2) + b.shift(k1 * r) + c.shift(k2) + d,
                a + b.shift(n2) + c.shift(n1 * r) + d.shift(n1 * r + n2),
                a.shift(k1 * r) + b.shift(k1 * r + n2) + c + d.shift(n2),
            )
            lhs = gf(r, n1, n2, k1, k2)
            expected += [
                {"params": [index, r, n1, n2, k1, k2], "lhs": str(lhs), "rhs": str(rhs)}
                for index, rhs in enumerate(relations, start=1)
                if lhs != rhs
            ]
        assert expected  # the perturbation is seen
        report = verify_thm23(r_max=2, param_max=2)
        assert report.as_dict() == {
            "identity_id": "thm2.3",
            "grid": "1<=r<=2, 1<=N1,N2<=2, 0<=k1,k2<=2, three relations, all n",
            "checked": 3 * 2 * 2 * 2 * 3 * 3,
            "failures": sorted(expected, key=lambda c: c["params"]),
        }

    @pytest.mark.parametrize("coeff", [1, -(2**70)], ids=("one", "past-64-bits"))
    def test_failing_recurrences_add_no_polynomials(self, monkeypatch, coeff):
        # a failing point is read back from its packed totals, with no
        # polynomial sums; the perturbed values are built before the ban
        gf = {
            bounds: partitions.pbar_gf(*bounds)
            for bounds in itertools.product((1,), *[range(2)] * 2, *[range(-1, 2)] * 2)
        }
        assert gf[1, 0, 0, 1, 1] == 1
        gf[1, 0, 0, 1, 1] = IntPolynomial((1, 0, 0, coeff))
        monkeypatch.setattr(identities, "pbar_gf", lambda *bounds: gf[bounds])

        def forbidden(*args):
            raise AssertionError("polynomial arithmetic in a recurrence check")

        monkeypatch.setattr(IntPolynomial, "__add__", forbidden)
        monkeypatch.setattr(IntPolynomial, "__radd__", forbidden)
        monkeypatch.setattr(IntPolynomial, "shift", forbidden)
        report = verify_thm23(r_max=1, param_max=1)
        assert report.checked == 12
        lhs = "1 + 2*q + q^2"
        extra = " + q^{}" if coeff == 1 else f" - {-coeff}*q^{{}}"
        assert failures(report) == [
            {"params": [1, 1, 1, 1, 1, 1], "lhs": lhs, "rhs": lhs + extra.format(5)},
            {"params": [2, 1, 1, 1, 1, 1], "lhs": lhs, "rhs": lhs + extra.format(3)},
            {"params": [3, 1, 1, 1, 1, 1], "lhs": lhs, "rhs": lhs + extra.format(4)},
        ]

    def test_passing_recurrences_add_no_polynomials(self, monkeypatch):
        # a passing point is decided on packed integers alone
        def forbidden(*args):
            raise AssertionError("polynomial arithmetic on a passing point")

        partitions.pbar_gf.cache_clear()
        monkeypatch.setattr(IntPolynomial, "__add__", forbidden)
        monkeypatch.setattr(IntPolynomial, "__radd__", forbidden)
        monkeypatch.setattr(IntPolynomial, "shift", forbidden)
        report = verify_thm23(r_max=3, param_max=4)
        assert report.passed
        assert report.checked == 3 * 3 * 4 * 4 * 5 * 5

    def test_symmetry_counterexamples_share_their_params(self, monkeypatch):
        # three swaps, then the reversed polynomial, at the perturbed tuple;
        # one swap at each tuple that swaps into it
        perturb(monkeypatch, "pbar_gf", {(1, 1, 1, 0, 0): IntPolynomial((0, 2))})
        report = verify_thm24(r_max=1, param_max=1)
        assert report.checked == 16
        into = {"lhs": "1", "rhs": "1 + 2*q"}
        swap = {"params": [1, 1, 1, 0, 0], "lhs": "1 + 2*q", "rhs": "1"}
        assert failures(report) == [
            {"params": [1, 0, 0, 1, 1], **into},
            {"params": [1, 0, 1, 1, 0], **into},
            {"params": [1, 1, 0, 0, 1], **into},
            swap,
            swap,
            swap,
            {"params": [1, 1, 1, 0, 0], "lhs": "1 + 2*q", "rhs": "2 + q"},
        ]

    def test_staircase_counterexamples_on_either_side(self, monkeypatch):
        # a map that leaves the set {1} as it is: the one set of one part at
        # most 1 must go to the empty multiset, so every point with
        # (N, k) = (1, 1) in either kind fails, and the kind ends its
        # parameters
        real = identities._staircase
        monkeypatch.setattr(
            identities, "_staircase", lambda parts: parts if parts == (1,) else real(parts)
        )
        report = verify_thm25(r_max=1, param_max=1)
        assert report.checked == 16
        points = [
            (1, 0, 1, 0, 1, 2),
            (1, 0, 1, 1, 1, 2),
            (1, 1, 0, 1, 0, 1),
            (1, 1, 0, 1, 1, 1),
            (1, 1, 1, 0, 1, 2),
            (1, 1, 1, 1, 0, 1),
            (1, 1, 1, 1, 1, 1),
            (1, 1, 1, 1, 1, 2),
        ]
        assert failures(report) == [
            {"params": list(point), "lhs": "(1,)", "rhs": "()"} for point in points
        ]

    def test_staircase_names_a_walk_that_ends_early(self, monkeypatch):
        # each walk of sets loses its last set, {k, ..., 2, 1} (the empty set
        # at k = 0), which the map sends to the empty multiset, the last one
        # walked at (N - k, k): every kind with k <= N ends its images early
        real = identities._picks

        def short(max_value, count, low, high, gap):
            picks = list(real(max_value, count, low, high, gap))
            return iter(picks[:-1] if gap else picks)

        monkeypatch.setattr(identities, "_picks", short)
        report = verify_thm25(r_max=2, param_max=2)
        assert not report.passed
        assert failures(report)[0] == {"params": [1, 0, 0, 0, 0, 1], "lhs": "None", "rhs": "()"}
        assert {c.lhs for c in report.failures} == {"None"}
        assert {c.rhs for c in report.failures} == {"()"}

    def test_staircase_reads_no_generating_function(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a generating function read by thm2.5")

        monkeypatch.setattr(identities, "pbar_gf", forbidden)
        monkeypatch.setattr(partitions, "pbar_gf", forbidden)
        monkeypatch.setattr(identities, "qbinom", forbidden)
        monkeypatch.setattr(partitions, "qbinom", forbidden)
        assert verify_thm25(r_max=3, param_max=6).passed

    def test_count_verifiers_multiply_no_polynomials(self, monkeypatch):
        # the convolution route and the row sums stay independent of pbar_gf
        def forbidden(*args):
            raise AssertionError("polynomial product on the convolution route")

        monkeypatch.setattr(IntPolynomial, "__mul__", forbidden)
        monkeypatch.setattr(IntPolynomial, "__rmul__", forbidden)
        monkeypatch.setattr(identities, "pbar_gf", forbidden)
        monkeypatch.setattr(partitions, "pbar_gf", forbidden)
        assert verify_thm21(r_max=2, param_max=3).passed
        assert verify_thm31(n_max=5, k_max=6).passed
        assert verify_thm33(n_max=4, k_max=8).passed

    def test_generating_functions_build_no_inflated_copy(self, monkeypatch):
        # pbar_gf pads the step-1 row as it packs it, and qbar_gf reads it;
        # no Gaussian at q^r is built on the way, cold memo included
        steps = []
        inflate = IntPolynomial.inflate

        def recording(self, r):
            steps.append(r)
            return inflate(self, r)

        monkeypatch.setattr(IntPolynomial, "inflate", recording)
        partitions.pbar_gf.cache_clear()
        for verify in (verify_thm22, verify_thm23, verify_thm24, verify_thm26):
            assert verify(r_max=3, param_max=2).passed
        assert steps and set(steps) == {1}


class TestOracleRows:
    """The oracle verifiers draw each kind's picks once per grid."""

    @settings(deadline=None)
    @given(st.data())
    def test_cached_tallies_match_the_public_rows_and_the_generating_functions(
        self, data
    ):
        r = data.draw(st.integers(1, 4))
        n1, n2, k1, k2 = (data.draw(st.integers(0, 5)) for _ in range(4))
        for gap, public, gf in (
            (0, pbar_enumerate_totals, pbar_gf),
            (1, qbar_enumerate_totals, qbar_gf),
        ):
            sums = lru_cache(maxsize=None)(partitions._kind_sums)

            def picks(n, k):
                # as in the oracle grids, a kind with no pick is not listed
                return () if gap and k > n else sums(n, k, gap)

            def tally(n1, n2, k1, k2):
                return identities._tally([r * s for s in picks(n1, k1)], picks(n2, k2))

            # the swapped bounds draw both kinds' lists first, so the tally
            # below reads every list it needs back from the cache
            tally(n2, n1, k2, k1)
            listed = {(n, k) for n, k in ((n1, k1), (n2, k2)) if not (gap and k > n)}
            assert sums.cache_info().misses == len(listed)
            cached = tally(n1, n2, k1, k2)
            assert sums.cache_info().misses == len(listed)
            assert cached == public(r, n1, n2, k1, k2)
            coeffs = list(gf(r, n1, n2, k1, k2).coeffs)
            assert cached == coeffs + [0] * (len(cached) - len(coeffs))

    @pytest.mark.parametrize(
        "verify, grid, lists",
        [
            # k picks with replacement from 0..N, for N, k <= 4
            (verify_thm21, (4, 4), 25),
            # k distinct picks from 1..N, for k <= N <= 7
            (verify_thm26, (4, 7), 36),
        ],
    )
    def test_each_kind_is_enumerated_once_per_grid(
        self, monkeypatch, verify, grid, lists
    ):
        calls = []
        real = identities._kind_sums

        def counted(n, k, gap):
            calls.append((n, k, gap))
            return real(n, k, gap)

        monkeypatch.setattr(identities, "_kind_sums", counted)
        first = verify(*grid)
        assert first.passed
        assert len(calls) == len(set(calls)) == lists
        # a second call enumerates them all again: no cache outlives a call
        assert verify(*grid) == first
        assert len(calls) == 2 * lists

    @pytest.mark.parametrize(
        "verify, grid, kernel, points, reads",
        [
            # a kind's (N, k) with N, k <= 4 are 15 Gaussian cells
            # [N+k, min(N, k)], so 4 r read 4 * 15**2 rows, not one per point
            (verify_thm21, (4, 4), "pbar_convolution_totals", 4 * 5**4, 4 * 15**2),
            (verify_thm22, (5, 4), "pbar_gf", 5 * 5**4, 5 * 15**2),
            # a kind's k <= N <= 7, lowered to (N - k, k), are 20 cells
            (verify_thm26, (4, 7), "pbar_gf", 4 * 8**4, 4 * 20**2),
        ],
    )
    def test_convolution_row_is_read_once_per_cell_pair(
        self, monkeypatch, verify, grid, kernel, points, reads
    ):
        calls = []
        real = getattr(identities, kernel)

        def counted(*bounds):
            calls.append(bounds)
            return real(*bounds)

        monkeypatch.setattr(identities, kernel, counted)
        first = verify(*grid)
        assert first.passed and first.checked == points
        assert len(calls) == len(set(calls)) == reads
        # each row is read at its cells' own orientation, N <= k in each kind
        assert all(n1 <= k1 and n2 <= k2 for _, n1, n2, k1, k2 in calls)
        # a second call reads them all again: no cache outlives a call
        assert verify(*grid) == first
        assert len(calls) == 2 * reads

    def test_distinct_failure_is_reported_at_its_point(self, monkeypatch):
        # the row at (2, 2, 1, 1, 1) is q^3 + q^5: one part 2 or 4, one part
        # 1.  It is read as 1 + q^2 from the staircase s = 2 * 1 + 1 up, at
        # the lowered bounds (2, 1, 0, 1, 1): the cells [2, 1] and [1, 0].
        # (2, 2, 1, 1, 0) reads the same cells, as 1 + q^2 from s = 2 up,
        # for its row q^2 + q^4: a fault at q^0 and q^4 of that one product
        # is reported at both points, at their real targets
        extra = IntPolynomial((1, 0, 0, 0, 1))
        perturb(monkeypatch, "pbar_gf", {(2, 1, 0, 1, 1): extra})
        report = verify_thm26(r_max=2, param_max=3)
        assert report.checked == 2 * 4**4
        assert failures(report) == [
            {"params": [2, 2, 1, 1, 0, 2], "lhs": "2", "rhs": "1"},
            {"params": [2, 2, 1, 1, 0, 6], "lhs": "1", "rhs": "0"},
            {"params": [2, 2, 1, 1, 1, 3], "lhs": "2", "rhs": "1"},
            {"params": [2, 2, 1, 1, 1, 7], "lhs": "1", "rhs": "0"},
        ]

    def test_no_generating_function_is_read_where_a_kind_has_no_pick(self, monkeypatch):
        # where k > N in a kind, both sides are the zero row: the point is
        # counted as checked and decided before any read, so the oracle is
        # tallied only at the points with k <= N in both kinds, and pbar_gf
        # read once for each pair of cells of their lowered bounds
        read, tallied = [], []
        real_gf, real_tally = identities.pbar_gf, identities._tally

        def recording(*bounds):
            read.append(bounds)
            return real_gf(*bounds)

        def tallying(first, second):
            tallied.append((first, second))
            return real_tally(first, second)

        monkeypatch.setattr(identities, "pbar_gf", recording)
        monkeypatch.setattr(identities, "_tally", tallying)
        report = verify_thm26(r_max=2, param_max=3)
        assert report.passed
        assert report.checked == 2 * 4**4
        points = itertools.product(range(1, 3), *[range(4)] * 4)
        picked = [
            (r, n1 - k1, n2 - k2, k1, k2)
            for r, n1, n2, k1, k2 in points
            if k1 <= n1 and k2 <= n2
        ]
        assert len(picked) == len(tallied) == 2 * 10**2
        cells = {
            (r, min(m1, k1), min(m2, k2), max(m1, k1), max(m2, k2))
            for r, m1, m2, k1, k2 in picked
        }
        assert len(read) == len(cells) == 2 * 6**2
        assert set(read) == cells
        assert all(first and second for first, second in tallied)

    def test_a_total_below_its_staircase_is_a_failure(self, monkeypatch):
        # each distinct-part list with k >= 1 has its least total, that of
        # {k, ..., 2, 1}, moved one below C(k+1, 2), where no k distinct
        # parts reach: the lowered frame cannot hold it, so the lists are
        # lowered by their least totals instead and the route's rows padded
        # to match, and every stray pick is a counterexample at its real n
        real = identities._kind_sums

        def below(n, k, gap):
            sums = real(n, k, gap)
            return sums[:-1] + [sums[-1] - 1] if gap and k else sums

        monkeypatch.setattr(identities, "_kind_sums", below)
        report = verify_thm26(r_max=2, param_max=3)
        assert report.checked == 2 * 4**4
        assert len(report.failures) == 421
        # (1, 0, 1, 0, 1): the one part 1' moved to 0'
        assert failures(report)[:2] == [
            {"params": [1, 0, 1, 0, 1, 0], "lhs": "0", "rhs": "1"},
            {"params": [1, 0, 1, 0, 1, 1], "lhs": "1", "rhs": "0"},
        ]
        # the same counterexamples as comparing the rows at their real targets
        expected = []
        for r, n1, n2, k1, k2 in itertools.product(range(1, 3), *[range(4)] * 4):
            lists = [() if k > n else below(n, k, 1) for n, k in ((n1, k1), (n2, k2))]
            row = [0] * 20
            for a, b in itertools.product(*lists):
                row[r * a + b] += 1
            gf = qbar_gf(r, n1, n2, k1, k2)
            expected += [
                {"params": [r, n1, n2, k1, k2, n], "lhs": str(gf.coeff(n)), "rhs": str(count)}
                for n, count in enumerate(row)
                if gf.coeff(n) != count
            ]
        assert failures(report) == expected

    def test_an_oracle_total_below_zero_is_a_failure(self, monkeypatch):
        # at gap 0 the frame starts at target 0: a list whose last total,
        # the empty pick's 0, is moved to -1 is lowered by -1 instead, and
        # its stray picks are reported at negative targets, not indexed
        real = identities._kind_sums
        monkeypatch.setattr(
            identities, "_kind_sums", lambda n, k, gap: real(n, k, gap)[:-1] + [-1]
        )
        for verify in (verify_thm21, verify_thm22):
            report = verify(r_max=1, param_max=1)
            assert report.checked == 16
            # (1, 0, 0, 0, 0): the empty pair at -2 instead of 0
            assert failures(report)[:2] == [
                {"params": [1, 0, 0, 0, 0, -2], "lhs": "0", "rhs": "1"},
                {"params": [1, 0, 0, 0, 0, 0], "lhs": "1", "rhs": "0"},
            ]

    def test_oracle_rows_need_no_polynomial_arithmetic(self, monkeypatch):
        grid = (2, 3)
        # the kernel is read at lowered bounds, N <= k in each kind, so at
        # gap 1 its rows start at the staircase, as thm2.6's do; a read at
        # any other bounds is a KeyError
        rows = {
            bounds: list(pbar_gf(*bounds).coeffs)
            for bounds in itertools.product(range(1, 3), *[range(4)] * 4)
            if bounds[1] <= bounds[3] and bounds[2] <= bounds[4]
        }

        def public_rows():
            return pbar_enumerate_totals(2, 3, 2, 2, 3), qbar_enumerate_totals(2, 3, 2, 2, 1)

        before = public_rows()

        def forbidden(*args):
            raise AssertionError("polynomial arithmetic in the oracle")

        # with the memo cleared, a generating function read anywhere would
        # reach the patched product and Gaussian
        partitions.pbar_gf.cache_clear()
        monkeypatch.setattr(partitions, "qbinom", forbidden)
        monkeypatch.setattr(partitions, "product", forbidden)
        assert public_rows() == before
        for gap in (0, 1):
            # the kernel reads the rows made before the patch
            report = identities._rows_against_oracle(
                "x", lambda *b: rows[b], gap, *grid
            )
            assert report.passed and report.checked == 2 * 4**4

    def test_concurrent_verifiers_match_serial(self):
        calls = [(verify_thm21, 3, 4), (verify_thm26, 3, 5)]
        expected = [verify(*grid) for verify, *grid in calls]
        workers = 4
        barrier = threading.Barrier(workers)
        results = [None] * workers
        errors = []

        def run(index):
            try:
                barrier.wait(timeout=30)
                # half the threads run the verifiers in the other order
                order = calls if index % 2 else calls[::-1]
                got = {verify: verify(*grid) for verify, *grid in order}
                results[index] = [got[verify] for verify, *_ in calls]
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert results == [expected] * workers


class TestOneKindExpansion:
    """p(N, k, n) by the r=2 expansion of Thm 3.1, one window of ``_expansion``."""

    def test_trivial_cases(self):
        for N in range(4):
            assert identities._expansion(2, N, 0, 0, 0)[0] == 1

    def test_small_case(self):
        assert identities._expansion(2, 2, 2, 2, 2)[0] == 2 == p(2, 2, 2)

    def test_partition_number_case(self):
        assert identities._expansion(2, 6, 6, 6, 6)[0] == 11 == p(6, 6, 6)

    def test_single_target_matches_the_row(self):
        for N in range(9):
            for k in range(9):
                row = identities._expansion(2, N, k, 0, N * k + 2)
                assert row[-2:] == [0, 0]
                for n in range(N * k + 3):
                    assert identities._expansion(2, N, k, n, n)[0] == row[n] == p(N, k, n)

    def test_small_target_at_large_bounds(self):
        assert identities._expansion(2, 40, 40, 5, 5)[0] == p(40, 40, 5) == 7

    def test_default_grid(self):
        report = verify_thm31()
        assert report.passed
        assert "N<=8" in report.grid and "k<=8" in report.grid


def decimal_ceiling_index(n):
    """ceil(n/2 - 1/4 - sqrt(n/2 + 1/16)) at 60-digit precision.  Oracle only.

    When 8n + 1 is a perfect square the square root is a terminating decimal
    and the evaluation is exact; otherwise the value is irrational and 60
    digits dwarf its distance to the nearest integer for any n tested here.
    """
    import decimal

    ctx = decimal.Context(prec=60)
    half_n = ctx.divide(decimal.Decimal(n), 2)
    inner = ctx.add(half_n, decimal.Decimal("0.0625"))
    value = ctx.subtract(
        ctx.subtract(half_n, decimal.Decimal("0.25")), ctx.sqrt(inner)
    )
    return max(0, int(value.to_integral_value(rounding=decimal.ROUND_CEILING)))


def scanned_lower_index(n):
    """Smallest j >= 0 with C(n-2j, 2) <= n, by exact integer scan.  Oracle only.

    The condition holds at j = n // 2 and on every j above the answer, so
    the scan walks down from n // 2, about sqrt(n/2) steps.
    """
    j = n // 2
    while j > 0 and math.comb(n - 2 * (j - 1), 2) <= n:
        j -= 1
    return j


class TestShortSumFormula:
    def test_lower_index_scan_matches_ceiling_formula(self):
        for n in range(201):
            assert (
                corollary_lower_index(n)
                == scanned_lower_index(n)
                == decimal_ceiling_index(n)
            ), n

    def test_lower_index_at_large_n(self):
        assert corollary_term_count(10**12) == 707108
        assert corollary_lower_index(10**6) == scanned_lower_index(10**6)

    def test_worked_instance_terms(self):
        assert corollary_terms(6) == [1, 7, 3]
        assert p_by_corollary(6) == 11

    def test_edge(self):
        assert p_by_corollary(0) == 1
        assert corollary_terms(0) == [1]
        for formula in (corollary_lower_index, corollary_terms, p_by_corollary):
            with pytest.raises(ValueError, match="^n must be nonnegative, got -1$"):
                formula(-1)

    def test_term_count_matches_terms(self):
        for n in range(41):
            assert corollary_term_count(n) == len(corollary_terms(n))

    def test_term_count_bound(self):
        for n in range(201):
            assert corollary_term_count(n) <= 2 + math.sqrt(n / 2), n

    def test_against_pentagonal_oracle(self):
        # up to [928, 464], the largest [2n, n] that MAX_GAUSSIAN_WORK admits
        oracle = pentagonal_partition_numbers(464)
        for n in range(465):
            assert p_by_corollary(n) == partition_p(n) == oracle[n], n

    def test_default_grid_verifier(self):
        assert verify_cor32(n_max=25).passed


    def test_counterexamples_name_the_target(self, monkeypatch):
        perturb(monkeypatch, "partition_p", {(0,): 1, (5,): 1})
        report = verify_cor32(n_max=6)
        assert report.checked == 7
        assert failures(report) == [
            {"params": [0], "lhs": "1", "rhs": "2"},
            {"params": [5], "lhs": "7", "rhs": "8"},
        ]

class TestCrossStepExpansion:
    def test_single_part_instance(self):
        # N=1, k=1, n=1: both sides count the single partition 1'
        report = verify_thm33(n_max=1, k_max=1)
        assert report.passed

    def test_default_grid(self):
        assert verify_thm33().passed

    def test_alternating_sign_is_essential(self):
        report = verify_thm33(signed=False)
        assert not report.passed
        assert len(report.failures) == 315
        assert report.failures[0].as_dict() == {
            "params": [0, 2, 0],
            "lhs": "0",
            "rhs": "2",
        }
        # counterexamples are reported with both sides rendered
        first = report.failures[0]
        assert first.lhs != first.rhs
