"""Gaussian polynomials: examples, the product characterization, recurrences."""

import sys
import threading

import pytest

from qpartitions import qbinomial
from qpartitions.polynomial import ONE, IntPolynomial
from qpartitions.qbinomial import check_gr1, check_gr2, pochhammer_q, qbinom


def brute_restricted_counts(max_part, max_count):
    """Coefficient list of [max_part + max_count, max_part] by enumeration.

    Counts partitions of each n into at most ``max_count`` parts, each at
    most ``max_part``, by direct recursive generation.  Oracle only; no
    polynomial arithmetic.
    """

    def gen(limit, slots, total):
        yield total
        if slots == 0:
            return
        for part in range(1, limit + 1):
            yield from gen(part, slots - 1, total + part)

    counts = [0] * (max_part * max_count + 1)
    for total in gen(max_part, max_count, 0):
        counts[total] += 1
    return counts


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer_q(0) == ONE

    def test_single_factor(self):
        assert pochhammer_q(1) == IntPolynomial((1, -1))

    def test_three_factors(self):
        # (1-q)(1-q^2)(1-q^3) expanded by hand
        assert pochhammer_q(3) == IntPolynomial((1, -1, -1, 0, 1, 1, -1))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pochhammer_q(-1)


class TestGaussian:
    def test_four_choose_two(self):
        # matches brute-force enumeration of partitions with <=2 parts <=2
        expected = brute_restricted_counts(2, 2)
        assert list(qbinom(4, 2).coeffs) == expected == [1, 1, 2, 1, 1]

    def test_bottom_zero(self):
        assert qbinom(5, 0) == ONE

    def test_out_of_range_bottom_is_zero(self):
        assert not qbinom(3, 4, 2)
        assert not qbinom(3, -1)

    def test_inflated(self):
        assert qbinom(3, 1, 2) == IntPolynomial((1, 0, 1, 0, 1))

    def test_matches_enumeration_on_a_grid(self):
        for max_part in range(5):
            for max_count in range(5):
                expected = brute_restricted_counts(max_part, max_count)
                got = qbinom(max_part + max_count, max_part)
                assert [got.coeff(i) for i in range(len(expected))] == expected

    def test_symmetric_bottoms_share_one_memo_entry(self):
        qbinomial._gaussian_base.cache_clear()
        low, high = qbinom(10, 3), qbinom(10, 7)
        assert qbinomial._gaussian_base.cache_info().currsize == 1
        assert low is high

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            qbinom(-1, 0)
        with pytest.raises(ValueError):
            qbinom(3, 1, 0)


class TestDefinitionConsistency:
    def test_product_identity(self):
        # [n, k] (q;q)_k (q;q)_{n-k} == (q;q)_n, checked without any division
        for n in range(11):
            for k in range(n + 1):
                lhs = qbinom(n, k) * pochhammer_q(k) * pochhammer_q(n - k)
                assert lhs == pochhammer_q(n), (n, k)

    def test_product_identity_at_real_sizes(self):
        # signed operands of hundreds of coefficients take the Kronecker path
        for n in (20, 30):
            for k in (3, n // 2, n - 4):
                lhs = qbinom(n, k) * pochhammer_q(k) * pochhammer_q(n - k)
                assert lhs == pochhammer_q(n), (n, k)


class TestStructure:
    def test_symmetry(self):
        for n in range(11):
            for k in range(n + 1):
                for r in range(1, 5):
                    assert qbinom(n, k, r) == qbinom(n, n - k, r), (n, k, r)

    def test_self_reciprocal(self):
        for n in range(11):
            for k in range(n + 1):
                for r in range(1, 5):
                    assert qbinom(n, k, r).is_self_reciprocal(), (n, k, r)

    def test_nonnegative_coefficients(self):
        for n in range(11):
            for k in range(n + 1):
                assert all(c >= 0 for c in qbinom(n, k).coeffs)

    def test_inflation_is_not_unimodal(self):
        # the expansion 1 + q^2 + q^4 dips to zero between spikes
        assert not qbinom(3, 1, 2).is_unimodal()

    def test_non_unimodal_witness_exists_for_step_two(self):
        witnesses = [
            (N, k)
            for N in range(1, 4)
            for k in range(1, 4)
            if not qbinom(N + k, N, 2).is_unimodal()
        ]
        assert witnesses


class TestRecurrences:
    def test_gr1_examples(self):
        assert check_gr1(4, 2, 1)
        assert check_gr1(1, 0, 3)
        assert check_gr1(5, 3, 2)

    def test_gr2_examples(self):
        assert check_gr2(4, 2, 1)
        assert check_gr2(1, 1, 1)
        assert check_gr2(6, 2, 4)

    def test_full_grid(self):
        for top in range(1, 13):
            for bottom in range(-1, top + 2):
                for step in range(1, 5):
                    params = (top, bottom, step)
                    assert check_gr1(*params), params
                    assert check_gr2(*params), params

    def test_top_zero_rejected(self):
        with pytest.raises(ValueError):
            check_gr1(0, 0, 1)
        with pytest.raises(ValueError):
            check_gr2(0, 0, 1)


class TestThreadSafety:
    def test_concurrent_fills_match_serial(self):
        cells = [(top, bottom) for top in range(26) for bottom in range(-1, top + 2)]
        qbinomial._gaussian_base.cache_clear()
        expected = [qbinom(top, bottom) for top, bottom in cells]
        qbinomial._gaussian_base.cache_clear()

        workers = 8
        barrier = threading.Barrier(workers)
        results = [None] * workers
        errors = []

        def fill(index):
            # each thread walks the same cells from a different start and
            # direction, so the threads race to fill overlapping rows
            start = index * len(cells) // workers
            order = list(range(start, len(cells))) + list(range(start))
            if index % 2:
                order.reverse()
            got = [None] * len(cells)
            try:
                barrier.wait(timeout=30)
                for i in order:
                    got[i] = qbinom(*cells[i])
            except Exception as exc:  # reported by the main thread
                errors.append(exc)
            results[index] = got

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fill, args=(i,)) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for got in results:
            assert got == expected
