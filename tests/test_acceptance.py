"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every criterion also asserts, so a plain ``pytest`` run enforces the
same bar.  Stated runtime ceilings are asserted alongside the values.
"""

import math
import time

from qpartitions.identities import (
    corollary_term_count,
    corollary_terms,
    p_by_corollary,
    verify_guo_yang_1,
    verify_guo_yang_2,
    verify_thm23,
    verify_thm24,
    verify_thm25,
    verify_thm26,
    verify_thm31,
    verify_thm33,
)
from qpartitions.partitions import (
    TwoKindQuery,
    partition_p,
    pbar_convolution,
    pbar_enumerate,
    pbar_enumerate_totals,
    pbar_genfun,
)
from qpartitions.qbinomial import qbinom

EXPECTED_SIX = ["4", "2+2", "2+2'", "2+1'+1'", "3'+1'", "2'+2'"]


def pentagonal_partition_numbers(limit):
    """Independent classical oracle for p(n), alternating pentagonal sums."""
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


def report(number, label, passed, elapsed, limit):
    status = "PASS" if passed and elapsed < limit else "FAIL"
    print(f"[acceptance] criterion {number}: {status} ({elapsed:.2f}s) {label}")
    assert passed, f"criterion {number}: {label}"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_worked_example_all_routes():
    start = time.perf_counter()
    query = TwoKindQuery(r=2, n1=2, n2=3, k1=2, k2=2, n=4)
    listing = pbar_enumerate(query)
    ok = (
        pbar_genfun(query) == 6
        and pbar_convolution(query) == 6
        and len(listing) == 6
        and [item.render() for item in listing] == EXPECTED_SIX
    )
    report(1, "two-kind count 6 by all routes, six canonical partitions",
           ok, time.perf_counter() - start, 1.0)


def test_criterion_2_short_sum_worked_example():
    start = time.perf_counter()
    terms = corollary_terms(6)
    ok = terms == [1, 7, 3] and p_by_corollary(6) == 11
    report(2, "short-sum formula at 6 gives terms 1, 7, 3 totalling 11",
           ok, time.perf_counter() - start, 1.0)


def test_criterion_3_summation_identities():
    start = time.perf_counter()
    first = verify_guo_yang_1(m_max=10, n_max=10)
    second = verify_guo_yang_2(m_max=10, n_max=10)
    ok = (
        first.passed
        and second.passed
        and first.checked == 121
        and second.checked == 121
    )
    report(3, "both summation identities exact on the 11x11 grid",
           ok, time.perf_counter() - start, 30.0)


def test_criterion_4_three_route_agreement():
    start = time.perf_counter()
    ok = True
    for r in (1, 2, 3):
        for n1 in range(5):
            for n2 in range(5):
                for k1 in range(5):
                    for k2 in range(5):
                        totals = pbar_enumerate_totals(r, n1, n2, k1, k2)
                        for n, expected in enumerate(totals):
                            query = TwoKindQuery(r, n1, n2, k1, k2, n)
                            if not (
                                pbar_genfun(query)
                                == pbar_convolution(query)
                                == expected
                            ):
                                ok = False
    report(4, "genfun, convolution, enumeration agree for r<=3, params<=4",
           ok, time.perf_counter() - start, 60.0)


def test_criterion_5_structural_theorem_suite():
    start = time.perf_counter()
    reports = [
        verify_thm23(r_max=3, param_max=5),
        verify_thm24(r_max=3, param_max=5),
        verify_thm25(r_max=3, param_max=5),
        verify_thm26(r_max=3, param_max=5),
        verify_thm31(),
        verify_thm33(),
    ]
    ok = all(r.passed for r in reports)
    report(5, "recurrences, symmetry, bijection, distinct gf, both expansions",
           ok, time.perf_counter() - start, 60.0)


def test_criterion_6_partition_number_cross_check():
    start = time.perf_counter()
    oracle = pentagonal_partition_numbers(60)
    ok = oracle[60] == 966467
    for n in range(61):
        if not (p_by_corollary(n) == partition_p(n) == oracle[n]):
            ok = False
    report(6, "short sum equals p(n, n, n) equals pentagonal oracle up to 60",
           ok, time.perf_counter() - start, 10.0)


def test_criterion_7_term_count_bound():
    start = time.perf_counter()
    ok = all(
        corollary_term_count(n) <= 2 + math.sqrt(n / 2) for n in range(201)
    )
    report(7, "short-sum summand count at most 2 + sqrt(n/2) up to 200",
           ok, time.perf_counter() - start, 10.0)


def test_criterion_8_unimodality_and_reciprocity():
    start = time.perf_counter()
    witness = any(
        not qbinom(N + k, N, 2).is_unimodal()
        for N in range(1, 4)
        for k in range(1, 4)
    )
    reciprocal = True
    for r in (1, 2, 3):
        for a in range(6):
            for b in range(6):
                if not qbinom(a + b, a, r).is_self_reciprocal():
                    reciprocal = False
                inner = qbinom(a, b, r)
                if inner and not inner.is_self_reciprocal():
                    reciprocal = False
    report(8, "step-2 non-unimodal witness exists; all grid gaussians palindromic",
           witness and reciprocal, time.perf_counter() - start, 10.0)


def test_criterion_9_sign_regression():
    start = time.perf_counter()
    unsigned = verify_thm33(signed=False)
    ok = (not unsigned.passed) and len(unsigned.failures) >= 1
    report(9, "dropping the alternating sign is caught with counterexamples",
           ok, time.perf_counter() - start, 30.0)
