"""Two-kind partition counting: routes, enumerators, and their agreement."""

import copy
import pickle
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpartitions import partitions, polynomial
from qpartitions.identities import Counterexample
from qpartitions.partitions import (
    DistinctTwoKindPartition,
    Q,
    TwoKindPartition,
    TwoKindQuery,
    p,
    partition_p,
    pbar_convolution,
    pbar_convolution_totals,
    pbar_enumerate,
    pbar_enumerate_totals,
    pbar_genfun,
    pbar_gf,
    qbar_enumerate,
    qbar_enumerate_totals,
    qbar_genfun,
    qbar_gf,
)
from qpartitions.polynomial import product

WORKED_SIX = TwoKindQuery(r=2, n1=2, n2=3, k1=2, k2=2, n=4)


def count_walker_calls(monkeypatch, limit):
    """Record the arguments of every call to the enumeration walker.

    The walker's recursion looks its own name up on the module, so the
    wrapper sees every call, not only the outermost ones.  A walk past
    ``limit`` calls fails at once rather than running on.
    """
    walker = partitions._picks
    calls = []

    def counting(*args):
        calls.append(args)
        assert len(calls) <= limit, "walk not bounded by the listing"
        return walker(*args)

    monkeypatch.setattr(partitions, "_picks", counting)
    return calls


def all_partitions(n):
    """Every unrestricted partition of n, as descending tuples.  Oracle only."""

    def gen(total, limit):
        if total == 0:
            yield ()
            return
        for first in range(min(total, limit), 0, -1):
            for rest in gen(total - first, first):
                yield (first,) + rest

    return list(gen(n, n))


class TestQueryValidation:
    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            TwoKindQuery(0, 1, 1, 1, 1, 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TwoKindQuery(1, -1, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            TwoKindQuery(1, 1, 1, 1, 1, -1)

    @pytest.mark.parametrize(
        "totals",
        [pbar_convolution_totals, pbar_enumerate_totals, qbar_enumerate_totals],
    )
    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, 1, 1, 1, 1), "r must be a positive integer"),
            ((1, -1, 1, 1, 1), "n1 must be nonnegative"),
            ((1, 1, -1, 1, 1), "n2 must be nonnegative"),
            ((1, 1, 1, -1, 1), "k1 must be nonnegative"),
            ((1, 1, 1, 1, -1), "k2 must be nonnegative"),
        ],
    )
    def test_totals_reject_bad_bounds(self, totals, args, message):
        with pytest.raises(ValueError, match=message):
            totals(*args)

    @pytest.mark.parametrize(
        "totals",
        [pbar_convolution_totals, pbar_enumerate_totals, qbar_enumerate_totals],
    )
    def test_totals_hold_their_row_to_the_dense_limit(self, totals, monkeypatch):
        # one first-kind part r: the row runs from 0 through r
        monkeypatch.setattr(polynomial, "MAX_DENSE_DEGREE", 6)
        row = totals(6, 1, 0, 1, 0)
        assert len(row) == 7 and row[6] == 1
        with pytest.raises(ValueError, match="^dense degree 7 exceeds the limit of 6$"):
            totals(7, 1, 0, 1, 0)
        monkeypatch.undo()
        with pytest.raises(ValueError, match=f"^dense degree {10**18} exceeds"):
            totals(10**18, 1, 0, 1, 0)
        # one part from a huge pool: refused before any pool is copied
        for bounds in ((10**18, 0, 1, 0), (0, 10**18, 0, 1)):
            with pytest.raises(ValueError, match=f"^dense degree {10**18} exceeds"):
                totals(1, *bounds)

    @pytest.mark.parametrize(
        "totals, one_part_row",
        [(pbar_enumerate_totals, [1, 1, 1, 1]), (qbar_enumerate_totals, [0, 1, 1, 1])],
    )
    def test_totals_copy_no_pool_for_a_kind_with_no_parts(self, totals, one_part_row):
        # a kind with k = 0 has one empty pick, whatever its pool
        assert totals(1, 10**18, 0, 0, 0) == [1]
        assert totals(2, 0, 10**18, 0, 0) == [1]
        assert totals(1, 10**18, 3, 0, 1) == one_part_row

    def test_generating_functions_reject_a_step_below_one(self):
        # a one-coefficient first operand needs no gap, but its step is
        # still checked where the step reaches the packing
        for build in (
            lambda: pbar_gf(0, 0, 1, 0, 1),
            lambda: qbar_gf(0, 1, 2, 1, 1),
            lambda: product([1], [1, 1], -5),
            lambda: product([1, 1], [1, 1], 0),
        ):
            with pytest.raises(
                ValueError, match="^step must be a positive integer, got (0|-5)$"
            ):
                build()

    @pytest.mark.parametrize(
        "totals, bounds, pairs, parts",
        [
            # C(4, 2) * C(2, 1) pairs, 2 * 6 + 1 * 2 parts drawn
            (pbar_enumerate_totals, (1, 2, 1, 2, 1), 12, 14),
            # C(4, 1) * C(4, 1) pairs, 4 + 4 parts drawn
            (pbar_enumerate_totals, (2, 3, 3, 1, 1), 16, 8),
            # C(5, 2) * C(4, 2) pairs, 2 * 10 + 2 * 6 parts drawn
            (qbar_enumerate_totals, (1, 5, 4, 2, 2), 60, 32),
            # the one set of six parts from 1..6
            (qbar_enumerate_totals, (3, 6, 0, 6, 0), 1, 6),
        ],
    )
    def test_totals_size_their_walk_first(
        self, totals, bounds, pairs, parts, monkeypatch
    ):
        work = max(pairs, parts)
        monkeypatch.setattr(partitions, "MAX_ENUMERATION_WORK", work)
        assert sum(totals(*bounds)) == pairs
        monkeypatch.setattr(partitions, "MAX_ENUMERATION_WORK", work - 1)
        for pick in ("combinations", "combinations_with_replacement"):
            monkeypatch.setattr(partitions, pick, None)
        refusal = (
            f"^enumeration of {pairs} pairs of picks drawing {parts} parts "
            f"exceeds the limit of {work - 1}$"
        )
        with pytest.raises(ValueError, match=refusal):
            totals(*bounds)

    @pytest.mark.parametrize(
        "bounds, pairs, parts",
        [
            # a 4,001-entry row, but 2,003,001 picks of 2,000 parts
            ((1, 2, 0, 2000, 0), 2003001, 4006002000),
            # one pick of 10**7 zeros
            ((1, 0, 0, 10**7, 0), 1, 10**7),
        ],
    )
    def test_unpatched_work_limit_refuses_long_walks(
        self, bounds, pairs, parts, monkeypatch
    ):
        monkeypatch.setattr(partitions, "combinations_with_replacement", None)
        refusal = f"^enumeration of {pairs} pairs of picks drawing {parts} parts"
        with pytest.raises(ValueError, match=refusal):
            pbar_enumerate_totals(*bounds)


# each frozen record: its class, constructor arguments, a field, and its repr
RECORDS = [
    (
        TwoKindQuery, (2, 3, 4, 1, 2, 9), "n",
        "TwoKindQuery(r=2, n1=3, n2=4, k1=1, k2=2, n=9)",
    ),
    (
        TwoKindPartition, ((1, 3, 2), (2, 5)), "first_kind",
        "TwoKindPartition(first_kind=(3, 2, 1), second_kind=(5, 2))",
    ),
    (
        DistinctTwoKindPartition, ((2, 4), (1,)), "second_kind",
        "DistinctTwoKindPartition(first_kind=(4, 2), second_kind=(1,))",
    ),
    (
        Counterexample, ((1, 2), "1 + q", "1"), "lhs",
        "Counterexample(params=(1, 2), lhs='1 + q', rhs='1')",
    ),
]


@pytest.mark.parametrize("kind, args, field, text", RECORDS)
class TestRecordContract:
    """The frozen records: value equality within one class, and no mutation."""

    def test_repr(self, kind, args, field, text):
        assert repr(kind(*args)) == text

    def test_equal_records_hash_equal(self, kind, args, field, text):
        record, twin = kind(*args), kind(*args)
        assert twin == record and twin is not record
        assert hash(twin) == hash(record)
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record

    def test_fields_cannot_be_assigned_or_deleted(self, kind, args, field, text):
        record = kind(*args)
        value = getattr(record, field)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, field) == value


class TestRecordEquality:
    def test_keyword_construction(self):
        assert WORKED_SIX == TwoKindQuery(2, 2, 3, 2, 2, 4)
        assert WORKED_SIX != TwoKindQuery(2, 2, 3, 2, 2, 5)
        assert TwoKindPartition(second_kind=(1,), first_kind=(2,)).render() == "2+1'"

    def test_only_records_of_one_class_are_equal(self):
        assert TwoKindPartition((), ()) != DistinctTwoKindPartition((), ())
        assert not TwoKindPartition((), ()) == DistinctTwoKindPartition((), ())
        assert TwoKindPartition((2,), (1,)) != ((2,), (1,))
        assert Counterexample((1,), "a", "b") != ((1,), "a", "b")


class TestPartitionTypes:
    def test_parts_normalized_descending(self):
        part = TwoKindPartition((1, 3, 2), (2, 5))
        assert part.first_kind == (3, 2, 1)
        assert part.second_kind == (5, 2)

    def test_total(self):
        assert TwoKindPartition((4,), (2, 1)).total() == 7

    def test_render(self):
        assert TwoKindPartition((2,), (1, 1)).render() == "2+1'+1'"
        assert TwoKindPartition((), (3, 1)).render() == "3'+1'"
        assert TwoKindPartition((), ()).render() == "(empty)"

    def test_nonpositive_part_rejected(self):
        with pytest.raises(ValueError):
            TwoKindPartition((0,), ())

    def test_distinctness_enforced(self):
        with pytest.raises(ValueError):
            DistinctTwoKindPartition((2, 2), ())
        assert DistinctTwoKindPartition((2, 4), (1,)).first_kind == (4, 2)


class TestOneKindCounts:
    def test_empty_partition(self):
        for N in range(4):
            for k in range(4):
                assert p(N, k, 0) == 1

    def test_small_case(self):
        assert p(2, 2, 2) == 2  # 2 and 1+1

    def test_beyond_maximum(self):
        for N in range(4):
            for k in range(4):
                assert p(N, k, N * k + 1) == 0
                assert p(N, k, N * k + 5) == 0

    def test_against_enumeration(self):
        for N in range(5):
            for k in range(5):
                for n in range(N * k + 1):
                    expected = sum(
                        1
                        for parts in all_partitions(n)
                        if len(parts) <= k and all(v <= N for v in parts)
                    )
                    assert p(N, k, n) == expected, (N, k, n)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            p(-1, 2, 2)
        with pytest.raises(ValueError, match="^n must be nonnegative, got -1$"):
            partition_p(-1)

    def test_partition_numbers(self):
        assert partition_p(0) == 1
        assert partition_p(6) == 11
        assert partition_p(10) == len(all_partitions(10)) == 42
        # large n: storing every intermediate Gaussian cell would exhaust memory
        assert partition_p(100) == 190569292
        assert partition_p(200) == 3972999029388


class TestDistinctCounts:
    def test_unique_pair(self):
        assert Q(3, 2, 5) == 1  # only 3+2

    def test_empty_selection(self):
        assert Q(7, 0, 0) == 1

    def test_too_many_distinct_parts(self):
        for n in range(12):
            assert Q(2, 3, n) == 0

    def test_matches_distinct_enumeration(self):
        for N in range(6):
            for k in range(4):
                for n in range(10):
                    oracle = len(
                        qbar_enumerate(TwoKindQuery(1, N, 0, k, 0, n))
                    )
                    assert Q(N, k, n) == oracle, (N, k, n)


class TestTwoKindRoutes:
    def test_worked_example_all_routes(self):
        assert pbar_genfun(WORKED_SIX) == 6
        assert pbar_convolution(WORKED_SIX) == 6
        assert len(pbar_enumerate(WORKED_SIX)) == 6

    def test_empty_target(self):
        query = TwoKindQuery(2, 2, 3, 2, 2, 0)
        assert pbar_genfun(query) == 1
        assert pbar_enumerate(query) == [TwoKindPartition((), ())]

    def test_target_three(self):
        query = TwoKindQuery(2, 2, 3, 2, 2, 3)
        listing = pbar_enumerate(query)
        assert pbar_genfun(query) == len(listing) == 3
        assert [item.render() for item in listing] == ["2+1'", "3'", "2'+1'"]

    def test_convolution_reduces_to_one_kind(self):
        for N in range(4):
            for k in range(4):
                for n in range(N * k + 2):
                    query = TwoKindQuery(1, 0, N, 0, k, n)
                    assert pbar_convolution(query) == p(N, k, n)

    def test_single_slot(self):
        assert pbar_convolution(TwoKindQuery(3, 1, 1, 1, 1, 4)) == 1
        assert [x.render() for x in pbar_enumerate(TwoKindQuery(3, 1, 1, 1, 1, 4))] == [
            "3+1'"
        ]

    def test_beyond_degree_is_zero(self):
        query = TwoKindQuery(2, 2, 3, 2, 2, 2 * 2 * 2 + 3 * 2 + 1)
        assert pbar_genfun(query) == 0
        assert pbar_enumerate(query) == []

    def test_unreachable_target(self):
        assert pbar_enumerate(TwoKindQuery(2, 1, 0, 1, 0, 3)) == []

    @settings(deadline=None)
    @given(st.data())
    def test_convolution_matches_unclipped_sum(self, data):
        r = data.draw(st.integers(1, 4))
        n1, n2, k1, k2 = (data.draw(st.integers(0, 4)) for _ in range(4))
        n = data.draw(st.integers(0, r * n1 * k1 + n2 * k2 + 2 * r))
        expected = sum(
            p(n1, k1, j) * p(n2, k2, n - r * j) for j in range(n // r + 1)
        )
        assert pbar_convolution(TwoKindQuery(r, n1, n2, k1, k2, n)) == expected

    def test_convolution_far_beyond_degree_returns_at_once(self):
        # the clipped range is empty, so no loop runs up to n // r
        assert pbar_convolution(TwoKindQuery(3, 2, 2, 2, 2, 10**12)) == 0


class TestEnumerationGolden:
    def test_worked_example_six_partitions_in_canonical_order(self):
        renders = [item.render() for item in pbar_enumerate(WORKED_SIX)]
        assert renders == ["4", "2+2", "2+2'", "2+1'+1'", "3'+1'", "2'+2'"]

    def test_listed_partitions_pass_the_public_checks(self):
        # the listings build their records without the constructor's checks
        distinct = TwoKindQuery(2, 6, 6, 3, 3, 25)
        for listing in (pbar_enumerate(WORKED_SIX), qbar_enumerate(distinct)):
            rebuilt = [type(i)(i.first_kind, i.second_kind) for i in listing]
            assert listing and rebuilt == listing

    def test_structural_invariants(self):
        for r in (1, 2, 3):
            for n1 in range(3):
                for n2 in range(3):
                    for k1 in range(3):
                        for k2 in range(3):
                            for n in range(r * n1 * k1 + n2 * k2 + 1):
                                query = TwoKindQuery(r, n1, n2, k1, k2, n)
                                listing = pbar_enumerate(query)
                                assert len(set(listing)) == len(listing)
                                for item in listing:
                                    assert len(item.first_kind) <= k1
                                    assert len(item.second_kind) <= k2
                                    assert all(
                                        part % r == 0 and 0 < part <= n1 * r
                                        for part in item.first_kind
                                    )
                                    assert all(
                                        0 < part <= n2 for part in item.second_kind
                                    )
                                    assert item.total() == n

    def test_canonical_order_is_descending_lexicographic(self):
        listing = pbar_enumerate(TwoKindQuery(1, 3, 3, 3, 3, 5))
        keys = [(item.first_kind, item.second_kind) for item in listing]
        assert keys == sorted(keys, reverse=True)

    def test_distinct_listing_in_canonical_order(self):
        listing = qbar_enumerate(TwoKindQuery(1, 6, 5, 3, 2, 14))
        assert [item.render() for item in listing] == [
            "6+4+1+2'+1'", "6+3+2+2'+1'", "6+3+1+3'+1'", "6+2+1+4'+1'",
            "6+2+1+3'+2'", "5+4+2+2'+1'", "5+4+1+3'+1'", "5+3+2+3'+1'",
            "5+3+1+4'+1'", "5+3+1+3'+2'", "5+2+1+5'+1'", "5+2+1+4'+2'",
            "4+3+2+4'+1'", "4+3+2+3'+2'", "4+3+1+5'+1'", "4+3+1+4'+2'",
            "4+2+1+5'+2'", "4+2+1+4'+3'", "3+2+1+5'+3'",
        ]

    def test_distinct_listing_with_step(self):
        listing = qbar_enumerate(TwoKindQuery(2, 3, 4, 2, 2, 13))
        assert [item.render() for item in listing] == [
            "6+4+2'+1'", "6+2+4'+1'", "6+2+3'+2'", "4+2+4'+3'"
        ]

    @settings(deadline=None)
    @given(st.data())
    def test_listings_strictly_descend_and_match_totals(self, data):
        # the listings are generated in canonical order, never sorted; every
        # target is listed, since a single random one rarely gives a
        # distinct-part listing more than one first-kind selection
        r = data.draw(st.integers(1, 3))
        n1, n2, k1, k2 = (data.draw(st.integers(0, 5)) for _ in range(4))
        for enumerate_, totals in (
            (pbar_enumerate, pbar_enumerate_totals(r, n1, n2, k1, k2)),
            (qbar_enumerate, qbar_enumerate_totals(r, n1, n2, k1, k2)),
        ):
            for n in range(len(totals) + 2):
                listing = enumerate_(TwoKindQuery(r, n1, n2, k1, k2, n))
                keys = [(item.first_kind, item.second_kind) for item in listing]
                assert all(a > b for a, b in zip(keys, keys[1:]))
                assert len(listing) == (totals[n] if n < len(totals) else 0)

    @pytest.mark.parametrize(
        "query",
        [
            # k1 > N1: there is no first-kind pick at all
            TwoKindQuery(1, 0, 30, 1, 15, 5),
            # the one first-kind pick already totals 15 > n
            TwoKindQuery(1, 5, 30, 5, 15, 3),
            # 15 distinct second-kind parts total at least 120 > n
            TwoKindQuery(1, 0, 30, 0, 15, 5),
            # 15 distinct first-kind parts total at least 120 > n
            TwoKindQuery(1, 30, 1, 15, 1, 3),
            # either kind alone reaches n, but the two together total 240
            TwoKindQuery(1, 30, 30, 15, 15, 200),
        ],
    )
    def test_distinct_listing_skips_second_kind_without_rest(self, monkeypatch, query):
        # filtering C(30, 15) = 155M picks of either kind by total would take
        # minutes; the walk is cut by the least and greatest total a branch
        # can reach, so an empty listing takes a call or two
        calls = count_walker_calls(monkeypatch, 100)
        assert qbar_enumerate(query) == []
        assert calls

    @settings(deadline=None)
    @given(st.data())
    def test_walk_is_bounded_by_the_listing(self, data):
        # no branch is walked without a partition below it: every walker
        # call lies on the path to some listed partition, at most one call
        # per part, plus one second-kind walk per first-kind tuple.  Drop
        # either cut, or walk an empty range of totals, and this fails.
        r = data.draw(st.integers(1, 3))
        n1, n2, k1, k2 = (data.draw(st.integers(0, 5)) for _ in range(4))
        n = data.draw(st.integers(0, r * n1 * k1 + n2 * k2 + 1))
        query = TwoKindQuery(r, n1, n2, k1, k2, n)
        for enumerate_ in (pbar_enumerate, qbar_enumerate):
            with pytest.MonkeyPatch.context() as monkeypatch:
                calls = count_walker_calls(monkeypatch, 10**5)
                listing = enumerate_(query)
            assert len(calls) <= 1 + len(listing) * (k1 + k2 + 1)


class TestDistinctTwoKind:
    def test_single_distinct_pair(self):
        listing = qbar_enumerate(TwoKindQuery(1, 3, 0, 2, 0, 4))
        assert [item.render() for item in listing] == ["3+1"]
        assert qbar_genfun(TwoKindQuery(1, 3, 0, 2, 0, 4)) == 1

    def test_empty_query(self):
        listing = qbar_enumerate(TwoKindQuery(1, 0, 0, 0, 0, 0))
        assert listing == [DistinctTwoKindPartition((), ())]
        assert qbar_genfun(TwoKindQuery(1, 0, 0, 0, 0, 0)) == 1

    def test_mixed_kinds(self):
        listing = qbar_enumerate(TwoKindQuery(2, 3, 2, 1, 1, 5))
        assert [item.render() for item in listing] == ["4+1'"]

    def test_first_kind_bound_scales_with_step(self):
        # with step 2 and multiplier bound 2, the pair 4+2 reaches 6
        assert qbar_genfun(TwoKindQuery(2, 2, 0, 2, 0, 6)) == 1
        listing = qbar_enumerate(TwoKindQuery(2, 2, 0, 2, 0, 6))
        assert [item.render() for item in listing] == ["4+2"]

    def test_genfun_matches_enumeration(self):
        for r in (1, 2):
            for n1 in range(4):
                for n2 in range(4):
                    for k1 in range(4):
                        for k2 in range(4):
                            totals = qbar_enumerate_totals(r, n1, n2, k1, k2)
                            gf = qbar_gf(r, n1, n2, k1, k2)
                            for n in range(max(len(totals), len(gf.coeffs)) + 1):
                                expected = totals[n] if n < len(totals) else 0
                                assert gf.coeff(n) == expected, (r, n1, n2, k1, k2, n)

    def test_structural_invariants(self):
        for n in range(9):
            query = TwoKindQuery(2, 3, 3, 2, 1, n)
            listing = qbar_enumerate(query)
            assert len(set(listing)) == len(listing)
            for item in listing:
                assert len(item.first_kind) == 2
                assert len(item.second_kind) == 1
                assert len(set(item.first_kind)) == 2
                assert all(part % 2 == 0 and part <= 6 for part in item.first_kind)
                assert all(part <= 3 for part in item.second_kind)
                assert item.total() == n


class TestRouteAgreement:
    def test_three_routes_small_grid(self):
        for r in (1, 2):
            for n1 in range(4):
                for n2 in range(4):
                    for k1 in range(4):
                        for k2 in range(4):
                            totals = pbar_enumerate_totals(r, n1, n2, k1, k2)
                            for n, expected in enumerate(totals):
                                query = TwoKindQuery(r, n1, n2, k1, k2, n)
                                assert pbar_genfun(query) == expected
                                assert pbar_convolution(query) == expected

    @settings(deadline=None)
    @given(st.data())
    def test_routes_agree_on_random_queries(self, data):
        r = data.draw(st.integers(1, 3))
        n1, n2, k1, k2 = (data.draw(st.integers(0, 4)) for _ in range(4))
        n = data.draw(st.integers(0, r * n1 * k1 + n2 * k2))
        query = TwoKindQuery(r, n1, n2, k1, k2, n)
        count = len(pbar_enumerate(query))
        assert pbar_genfun(query) == pbar_convolution(query) == count
        # every distinct-part target: a single random n almost never has
        # more than one distinct-part partition
        top = r * (k1 * n1 - comb(k1, 2)) + k2 * n2 - comb(k2, 2)
        for target in range(max(top, 0) + 2):
            query = TwoKindQuery(r, n1, n2, k1, k2, target)
            assert qbar_genfun(query) == len(qbar_enumerate(query))

    @settings(deadline=None)
    @given(st.data())
    def test_totals_match_listings_on_random_bounds(self, data):
        r = data.draw(st.integers(1, 3))
        n1, n2, k1, k2 = (data.draw(st.integers(0, 3)) for _ in range(4))
        pbar_totals = pbar_enumerate_totals(r, n1, n2, k1, k2)
        qbar_totals = qbar_enumerate_totals(r, n1, n2, k1, k2)
        assert pbar_convolution_totals(r, n1, n2, k1, k2) == pbar_totals
        n = data.draw(st.integers(0, len(pbar_totals) - 1))
        query = TwoKindQuery(r, n1, n2, k1, k2, n)
        assert pbar_totals[n] == len(pbar_enumerate(query))
        # the distinct-part list stops at its largest achievable total
        qbar_count = qbar_totals[n] if n < len(qbar_totals) else 0
        assert qbar_count == len(qbar_enumerate(query))

    @settings(deadline=None)
    @given(st.integers(1, 6), *[st.integers(0, 12)] * 4)
    def test_row_kernel_matches_per_target_sums(self, r, n1, n2, k1, k2):
        # past the enumeration oracle's reach, so against the clipped sums
        row = pbar_convolution_totals(r, n1, n2, k1, k2)
        top = r * n1 * k1 + n2 * k2
        assert len(row) == top + 1
        assert row == [
            pbar_convolution(TwoKindQuery(r, n1, n2, k1, k2, n))
            for n in range(top + 1)
        ]
        for n in range(top + 1, top + r + 2):
            assert pbar_convolution(TwoKindQuery(r, n1, n2, k1, k2, n)) == 0

    def test_totals_match_materialized_enumeration(self):
        totals = pbar_enumerate_totals(2, 2, 3, 2, 2)
        for n, expected in enumerate(totals):
            assert len(pbar_enumerate(TwoKindQuery(2, 2, 3, 2, 2, n))) == expected
        assert totals[4] == 6


class TestSymmetryAndReflection:
    def test_parameter_swaps(self):
        for r in (1, 2):
            for n1 in range(4):
                for n2 in range(4):
                    for k1 in range(4):
                        for k2 in range(4):
                            gf = pbar_gf(r, n1, n2, k1, k2)
                            assert gf == pbar_gf(r, k1, n2, n1, k2)
                            assert gf == pbar_gf(r, n1, k2, k1, n2)
                            assert gf == pbar_gf(r, k1, k2, n1, n2)

    def test_reflection(self):
        for r in (1, 2, 3):
            for n1 in range(4):
                for k1 in range(4):
                    top = r * n1 * k1 + 3 * 2
                    for n in range(top + 1):
                        lhs = pbar_genfun(TwoKindQuery(r, n1, 3, k1, 2, n))
                        rhs = pbar_genfun(TwoKindQuery(r, n1, 3, k1, 2, top - n))
                        assert lhs == rhs


class TestStaircaseBijection:
    def test_distinct_counts_shift_to_unrestricted(self):
        for r in (1, 2):
            for n1 in range(5):
                for n2 in range(5):
                    for k1 in range(5):
                        for k2 in range(5):
                            offset = r * comb(k1 + 1, 2) + comb(k2 + 1, 2)
                            lhs = qbar_gf(r, n1, n2, k1, k2)
                            rhs = pbar_gf(r, n1 - k1, n2 - k2, k1, k2).shift(offset)
                            assert lhs == rhs, (r, n1, n2, k1, k2)


class TestFirstKindBoundReading:
    """The distinct-part bound must scale with the step.

    Capping first-kind parts at N1 instead of N1*r contradicts the
    distinct-part generating function as soon as the step exceeds 1; this
    pins the implemented reading.
    """

    @staticmethod
    def wrong_bound_totals(r, n1, n2, k1, k2):
        # distinct first-kind parts divisible by r but capped at n1 (not n1*r)
        from itertools import combinations

        totals = {}
        allowed = range(r, n1 + 1, r)
        for first in combinations(allowed, k1):
            for second in combinations(range(1, n2 + 1), k2):
                s = sum(first) + sum(second)
                totals[s] = totals.get(s, 0) + 1
        return totals

    def test_cap_at_n1_contradicts_generating_function(self):
        gf = qbar_gf(2, 2, 0, 1, 0)
        wrong = self.wrong_bound_totals(2, 2, 0, 1, 0)
        span = range(len(gf.coeffs) + 1)
        assert any(gf.coeff(n) != wrong.get(n, 0) for n in span)
        # the implemented reading agrees everywhere
        right = qbar_enumerate_totals(2, 2, 0, 1, 0)
        for n in span:
            expected = right[n] if n < len(right) else 0
            assert gf.coeff(n) == expected
