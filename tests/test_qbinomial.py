"""Gaussian polynomials: examples, the product characterization, recurrences."""

import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpartitions import partitions, qbinomial
from qpartitions.partitions import pbar_gf, qbar_gf
from qpartitions.polynomial import ONE, ZERO, IntPolynomial
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
        qbinomial._prefixes.clear()
        low, high = qbinom(10, 3), qbinom(10, 7)
        assert list(qbinomial._prefixes) == [(10, 3)]
        assert low.coeffs is high.coeffs is qbinomial._prefixes[10, 3]

    def test_costly_build_is_refused_before_it_starts(self, monkeypatch):
        # [5, 2] and [5, 3] are one row, 2 passes over degree 6: 12 steps
        def build(top, bottom, depth):
            raise AssertionError(f"[{top}, {bottom}] was built")

        monkeypatch.setattr(qbinomial, "MAX_GAUSSIAN_WORK", 11)
        monkeypatch.setattr(qbinomial, "_build", build)
        refusal = r"^build of Gaussian \[5, 2\] in 12 steps exceeds the limit of 11$"
        for bottom in (2, 3):
            with pytest.raises(ValueError, match=refusal):
                qbinom(5, bottom, 2)

    def test_build_at_the_limit_is_made(self, monkeypatch):
        monkeypatch.setattr(qbinomial, "MAX_GAUSSIAN_WORK", 12)
        assert qbinom(5, 2) == qbinom(5, 3) == IntPolynomial([1, 1, 2, 2, 2, 1, 1])
        assert qbinom(6, 1).degree == 5

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


class TestPrefix:
    """``_prefix`` and ``_coefficients``, the truncated build the counts read.

    A truncated row leaves no remainder to check, so the whole row from
    ``qbinom`` is the reference.
    """

    @settings(deadline=None)
    @given(st.data())
    def test_prefix_matches_the_whole_row(self, data):
        top = data.draw(st.integers(0, 40), label="top")
        bottom = data.draw(st.integers(-2, top + 2), label="bottom")
        degree = bottom * (top - bottom) if 0 <= bottom <= top else 0
        # depths up to past the degree, two of them for a cell read again
        depths = data.draw(st.lists(st.integers(0, degree + 3), min_size=1, max_size=2))
        qbinomial._prefixes.clear()
        got = [qbinomial._prefix(top, bottom, depth) for depth in depths]
        row = qbinom(top, bottom).coeffs
        for depth, prefix in zip(depths, got):
            assert prefix[: depth + 1] == row[: depth + 1], (top, bottom, depth)
            assert len(prefix) >= min(depth, degree) + 1 or not row
        if 0 <= bottom <= top and 2 * depths[0] < degree:
            # a first read stops at its depth
            assert len(got[0]) == depths[0] + 1
        mirrored = qbinomial._prefix(top, top - bottom, depths[-1])
        assert mirrored[: depths[-1] + 1] == row[: depths[-1] + 1]

    def test_reads_the_far_end_from_its_mirror(self, monkeypatch):
        # [12, 4] has degree 32, so q^30..q^32 is read at depth 2 as q^2..q^0
        row = qbinom(12, 4).coeffs
        depths = []
        real = qbinomial._prefix

        def recording(top, bottom, depth):
            depths.append(depth)
            return real(top, bottom, depth)

        monkeypatch.setattr(qbinomial, "_prefix", recording)
        assert qbinomial._coefficients(12, 4, 30, 32) == row[30:]
        assert qbinomial._coefficients(12, 8, 29, 29) == (row[29],) == (row[3],)
        assert qbinomial._coefficients(12, 4, -1, 5) == (0,) + row[:6]
        assert qbinomial._coefficients(12, 4, 31, 34) == row[31:] + (0, 0)
        # a window across the middle reads the whole row, and a full window
        # is the stored tuple itself
        assert qbinomial._coefficients(12, 4, 10, 20) == row[10:21]
        assert qbinomial._coefficients(12, 4, 0, 32) is row
        # a window that misses the row reads zeros and still admits it
        assert qbinomial._coefficients(3, 5, 0, 1) == (0, 0)
        assert qbinomial._coefficients(12, 4, -3, -1) == (0, 0, 0)
        assert qbinomial._coefficients(12, 4, 33, 33) == (0,)
        assert depths == [2, 3, 5, 1, 20, 32, 0, 0, 0]

    @settings(deadline=None)
    @given(st.data())
    def test_cold_window_matches_the_row(self, data):
        top = data.draw(st.integers(0, 30), label="top")
        bottom = data.draw(st.integers(-2, top + 2), label="bottom")
        row = qbinom(top, bottom).coeffs
        low = data.draw(st.integers(-3, len(row) + 3), label="low")
        high = data.draw(st.integers(low - 1, len(row) + 3), label="high")
        inside = range(len(row))
        expected = tuple(row[n] if n in inside else 0 for n in range(low, high + 1))
        qbinomial._prefixes.clear()
        assert qbinomial._coefficients(top, bottom, low, high) == expected

    def test_build_at_every_depth_is_the_row_truncated(self):
        # [30, 12] takes both division walks: along the residue classes
        # while j * j fits the list, block by block past that
        for top, bottom in ((30, 12), (17, 8), (9, 1), (9, 0)):
            row = qbinom(top, bottom).coeffs
            for depth in range(len(row) + 3):
                assert tuple(qbinomial._build(top, bottom, depth)) == row[: depth + 1]

    def test_whole_steps_check_their_remainder(self, monkeypatch):
        # a running sum that drifts leaves a remainder; step 1 of [8, 4]
        # is [5, 1], whole at depth 16 and truncated at depth 3
        def drifting(values):
            return [total + 1 for total in itertools.accumulate(values)]

        monkeypatch.setattr(qbinomial, "accumulate", drifting)
        with pytest.raises(ArithmeticError, match=r"^\[5, 1\]: 1 - q\^1 left a remainder$"):
            qbinomial._build(8, 4, 16)
        assert len(qbinomial._build(8, 4, 3)) == 4

    def test_prefix_is_admitted_by_the_whole_row_rule(self, monkeypatch):
        # [5, 2] takes 12 steps whole, so even its first coefficient is
        # refused, and so is a window that misses the row; the store starts
        # empty, since a held row is not admitted again
        monkeypatch.setattr(qbinomial, "MAX_GAUSSIAN_WORK", 11)
        monkeypatch.setattr(qbinomial, "_prefixes", {})
        refusal = r"^build of Gaussian \[5, 2\] in 12 steps exceeds the limit of 11$"
        for bottom, low, high in ((2, 0, 0), (3, 0, 0), (2, 7, 9), (3, -2, -1)):
            with pytest.raises(ValueError, match=refusal):
                qbinomial._coefficients(5, bottom, low, high)
        with pytest.raises(ValueError, match="^dense degree 100000000 exceeds"):
            qbinomial._prefix(20000, 10000, 0)

    def test_held_cell_is_read_before_admission(self, monkeypatch):
        # a held cell passed the limits when it was stored, so a read it
        # covers skips them; a deeper read is admitted again
        monkeypatch.setattr(qbinomial, "_prefixes", {})
        row = qbinom(9, 4).coeffs
        prefix = qbinomial._prefix(20, 5, 2)

        def unreachable(degree):
            raise AssertionError(f"admitted degree {degree}")

        monkeypatch.setattr(qbinomial, "_check_dense", unreachable)
        assert qbinomial._prefix(9, 5, 3) is row
        assert qbinom(9, 5).coeffs is row
        assert qbinomial._coefficients(9, 4, 0, 20) is row
        assert qbinomial._prefix(20, 15, 1) is prefix
        with pytest.raises(AssertionError, match="^admitted degree 75$"):
            qbinomial._prefix(20, 5, 10)


class TestOneStore:
    """``_prefixes`` is the one memo of Gaussian rows.

    A whole row is its cell's prefix at full length, and ``qbinom`` wraps
    the stored tuple, so prefix reads and whole-row reads share one cell.
    """

    def test_whole_row_read_extends_a_short_prefix(self):
        qbinomial._prefixes.clear()
        assert qbinomial._prefix(20, 5, 2) == (1, 1, 2)
        assert list(qbinomial._prefixes) == [(20, 5)]
        row = qbinom(20, 15)
        assert list(qbinomial._prefixes) == [(20, 5)]
        assert qbinomial._prefixes[20, 5] is row.coeffs
        assert row.degree == 75 and row.is_self_reciprocal()

    def test_prefix_of_a_held_row_is_the_row(self):
        row = qbinom(14, 5).coeffs
        assert qbinomial._prefix(14, 5, 1) is row
        assert qbinomial._prefix(14, 9, 1) is row

    @settings(deadline=None)
    @given(st.data())
    def test_any_read_mix_leaves_one_tuple_per_cell(self, data):
        qbinomial._prefixes.clear()
        cells = set()
        for _ in range(data.draw(st.integers(1, 8), label="reads")):
            top = data.draw(st.integers(0, 16), label="top")
            bottom = data.draw(st.integers(0, top), label="bottom")
            depth = data.draw(st.integers(0, 70), label="depth")
            if data.draw(st.booleans(), label="whole"):
                qbinom(top, bottom)
            else:
                qbinomial._prefix(top, bottom, depth)
            cells.add((top, min(bottom, top - bottom)))
        assert set(qbinomial._prefixes) == cells
        for top, bottom in cells:
            row = qbinom(top, bottom).coeffs
            assert row is qbinom(top, top - bottom).coeffs
            assert row is qbinomial._prefixes[top, bottom]
            assert len(row) == bottom * (top - bottom) + 1


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
        qbinomial._prefixes.clear()
        expected = [qbinom(top, bottom) for top, bottom in cells]
        qbinomial._prefixes.clear()

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
        # every cell holds exactly its whole row, and every thread was
        # handed that one stored tuple
        rows = {(top, min(bottom, top - bottom)): row.coeffs
                for (top, bottom), row in zip(cells, expected) if row}
        assert qbinomial._prefixes == rows
        for got in results:
            for (top, bottom), row in zip(cells, got):
                if row:
                    key = top, min(bottom, top - bottom)
                    assert row.coeffs is qbinomial._prefixes[key]

    def test_concurrent_prefix_reads_match_the_row(self):
        # [120, 60] has degree 3,600; eight threads read its prefixes at
        # mixed depths, racing to rebuild and store the cell.  The cell must
        # end up holding the longest prefix any thread was handed: a shorter
        # store that replaced a longer one would break that.
        top, bottom = 120, 60
        row = qbinom(top, bottom).coeffs
        depths = list(range(0, 1900, 37))
        qbinomial._prefixes.clear()
        workers = 8
        barrier = threading.Barrier(workers)
        bad = []
        errors = []
        longest = [0] * workers

        def read(index):
            order = depths[:]
            random.Random(index).shuffle(order)
            try:
                barrier.wait(timeout=30)
                for depth in order:
                    prefix = qbinomial._prefix(top, bottom, depth)
                    if prefix[: depth + 1] != row[: depth + 1]:
                        bad.append((index, depth))
                    longest[index] = max(longest[index], len(prefix))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(i,)) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and bad == []
        assert len(qbinomial._prefixes[top, bottom]) == max(longest) == len(row)
        assert qbinomial._prefixes[top, bottom] == row

    def test_concurrent_generating_function_reads_share_one_product(self, monkeypatch):
        # eight threads read every bound tuple and its three N<->k swaps,
        # and qbar_gf at it, each from a different start and direction, on a
        # cold memo, so the threads race to build and store the same
        # products.  Every read of one pair of Gaussian cells must be handed
        # one object, equal to a serial run's, and every qbar_gf read must
        # shift a product that the one memo holds, at a cell it stored.
        tuples = list(itertools.product(range(1, 3), *[range(-1, 5)] * 4))

        def cells(r, n1, n2, k1, k2):
            return r, n1 + k1, min(n1, k1), n2 + k2, min(n2, k2)

        def read(r, n1, n2, k1, k2):
            swaps = ((n1, n2, k1, k2), (k1, n2, n1, k2), (n1, k2, k1, n2), (k1, k2, n1, n2))
            return [pbar_gf(r, *bounds) for bounds in swaps] + [qbar_gf(r, n1, n2, k1, k2)]

        pbar_gf.cache_clear()
        expected = [read(*bounds) for bounds in tuples]
        pbar_gf.cache_clear()
        # the products qbar_gf shifts; list.append is atomic
        shifted = []
        shift = IntPolynomial.shift

        def recording(self, e):
            shifted.append(self)
            return shift(self, e)

        monkeypatch.setattr(IntPolynomial, "shift", recording)

        workers = 8
        barrier = threading.Barrier(workers)
        results = [None] * workers
        errors = []

        def run(index):
            start = index * len(tuples) // workers
            order = list(range(start, len(tuples))) + list(range(start))
            if index % 2:
                order.reverse()
            got = [None] * len(tuples)
            try:
                barrier.wait(timeout=30)
                for i in order:
                    got[i] = read(*tuples[i])
            except Exception as exc:  # reported by the main thread
                errors.append(exc)
            results[index] = got

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
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
        held, lowered = {}, set()
        for got in results:
            assert got == expected
            for bounds, (*swaps, distinct) in zip(tuples, got):
                for gf in swaps:
                    if gf:
                        assert held.setdefault(cells(*bounds), gf) is gf
                    else:
                        assert gf is ZERO
                r, n1, n2, k1, k2 = bounds
                if distinct:
                    # the cells qbar_gf read, which the memo must hold
                    lowered.add(cells(r, n1 - k1, n2 - k2, k1, k2))
                else:
                    assert distinct is ZERO
        # one shift of a product per non-zero qbar_gf read, each of the very
        # object the memo holds
        products = [gf for gf in shifted if gf]
        assert len(products) == workers * sum(1 for *_, distinct in expected if distinct)
        stored = {id(gf) for gf in partitions._pbar_memo.values()}
        assert all(id(gf) in stored for gf in products)
        # the misses are exact under threads: one per entry stored, and the
        # qbar_gf reads stored nothing of their own
        info = pbar_gf.cache_info()
        assert set(partitions._pbar_memo) == set(held) | lowered
        assert info.misses == info.currsize == len(partitions._pbar_memo)
        pbar_gf.cache_clear()
