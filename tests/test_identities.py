"""Identity verifiers: worked instances, default grids, report contracts."""

import math

import pytest

from qpartitions import identities, partitions
from qpartitions.identities import (
    Counterexample,
    VerificationReport,
    corollary_ceiling_index,
    corollary_lower_index,
    corollary_term_count,
    corollary_terms,
    expand_p_thm31,
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
from qpartitions.partitions import p, partition_p
from qpartitions.polynomial import IntPolynomial
from qpartitions.qbinomial import qbinom


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


class TestGuoYang:
    def test_first_identity_worked_instance(self):
        # m=1, n=2: q * [2,2] + [2,1] at q^2 sums to [3,2]
        lhs = (qbinom(1, 0, 2) * qbinom(2, 2)).shift(1) + qbinom(2, 1, 2) * qbinom(2, 0)
        assert lhs == IntPolynomial((1, 1, 1)) == qbinom(3, 2)

    def test_first_identity_grid(self):
        report = verify_guo_yang_1(m_max=8, n_max=8)
        assert report.passed
        assert report.checked == 81

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
            ((3, 0), IntPolynomial((0, 1))),
        ],
    )
    def test_counterexamples_match_the_product_loop(self, monkeypatch, cell, extra):
        # one Gaussian cell perturbed: the packed sums must report exactly
        # the failures of the plain multiply-and-add loop
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

        for verify, reference, identity_id in (
            (verify_guo_yang_1, first, "eq2"),
            (verify_guo_yang_2, second, "eq3"),
        ):
            expected = [
                {"params": params, "lhs": lhs, "rhs": rhs}
                for params, lhs, rhs in reference(6, 9)
            ]
            assert expected  # the perturbation is seen
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
        # pbar_gf and qbar_gf pad the step-1 row as they pack it; no Gaussian
        # at q^r is built on the way, cold memos included
        steps = []
        inflate = IntPolynomial.inflate

        def recording(self, r):
            steps.append(r)
            return inflate(self, r)

        monkeypatch.setattr(IntPolynomial, "inflate", recording)
        partitions.pbar_gf.cache_clear()
        partitions.qbar_gf.cache_clear()
        for verify in (verify_thm22, verify_thm23, verify_thm24, verify_thm25, verify_thm26):
            assert verify(r_max=3, param_max=2).passed
        assert steps and set(steps) == {1}


class TestOneKindExpansion:
    def test_trivial_cases(self):
        for N in range(4):
            assert expand_p_thm31(N, 0, 0) == 1

    def test_small_case(self):
        assert expand_p_thm31(2, 2, 2) == 2 == p(2, 2, 2)

    def test_partition_number_case(self):
        assert expand_p_thm31(6, 6, 6) == 11 == p(6, 6, 6)

    def test_single_target_matches_the_row(self):
        for N in range(9):
            for k in range(9):
                row = identities._expansion(2, N, k)
                for n in range(N * k + 3):
                    assert expand_p_thm31(N, k, n) == row.coeff(n) == p(N, k, n)

    def test_small_target_at_large_bounds(self):
        assert expand_p_thm31(40, 40, 5) == p(40, 40, 5) == 7

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


class TestShortSumFormula:
    def test_lower_index_scan_matches_ceiling_formula(self):
        for n in range(201):
            assert (
                corollary_lower_index(n)
                == corollary_ceiling_index(n)
                == decimal_ceiling_index(n)
            ), n

    def test_worked_instance_terms(self):
        assert corollary_terms(6) == [1, 7, 3]
        assert p_by_corollary(6) == 11

    def test_edge(self):
        assert p_by_corollary(0) == 1
        assert corollary_terms(0) == [1]

    def test_term_count_matches_terms(self):
        for n in range(41):
            assert corollary_term_count(n) == len(corollary_terms(n))

    def test_term_count_bound(self):
        for n in range(201):
            assert corollary_term_count(n) <= 2 + math.sqrt(n / 2), n

    def test_against_pentagonal_oracle(self):
        oracle = pentagonal_partition_numbers(30)
        for n in range(31):
            assert p_by_corollary(n) == partition_p(n) == oracle[n], n

    def test_default_grid_verifier(self):
        assert verify_cor32(n_max=25).passed


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
