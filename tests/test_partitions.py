"""Two-kind partition counting: routes, enumerators, and their agreement."""

import copy
import pickle
from collections import Counter
from itertools import combinations, combinations_with_replacement
from itertools import product as product_of
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpartitions import identities, partitions, polynomial, qbinomial
from qpartitions.cli import main
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
from qpartitions.polynomial import ZERO, IntPolynomial, product

WORKED_SIX = TwoKindQuery(r=2, n1=2, n2=3, k1=2, k2=2, n=4)


def count_walker_frames(monkeypatch, limit):
    """Record the candidate range of every level the enumeration walker opens.

    The walker makes one descending ``range`` of candidates for every level
    with a part left to place and a window of totals to reach, last-part
    levels and dead ends included, and it looks ``range`` up on the module;
    so a ``range`` bound there sees each of those levels.  A walk past
    ``limit`` levels fails at once rather than running on.
    """
    frames = []

    def counting(*args):
        frames.append(args)
        assert len(frames) <= limit, "walk not bounded by the listing"
        return range(*args)

    monkeypatch.setattr(partitions, "range", counting, raising=False)
    return frames


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
        # one part up to 10**18: refused before any pick is walked
        for bounds in ((10**18, 0, 1, 0), (0, 10**18, 0, 1)):
            with pytest.raises(ValueError, match=f"^dense degree {10**18} exceeds"):
                totals(1, *bounds)

    @pytest.mark.parametrize(
        "totals, one_part_row",
        [(pbar_enumerate_totals, [1, 1, 1, 1]), (qbar_enumerate_totals, [0, 1, 1, 1])],
    )
    def test_totals_copy_no_pool_for_a_kind_with_no_parts(self, totals, one_part_row):
        # a kind with k = 0 has one empty pick, whatever its bound N
        assert totals(1, 10**18, 0, 0, 0) == [1]
        assert totals(2, 0, 10**18, 0, 0) == [1]
        assert totals(1, 10**18, 3, 0, 1) == one_part_row

    @pytest.mark.parametrize("gf", [pbar_gf, qbar_gf])
    @pytest.mark.parametrize(
        "bounds", [(-1, 1, 1, 1), (1, -1, 1, 1), (1, 1, -1, 1), (1, 1, 1, -1)]
    )
    def test_generating_functions_vanish_at_a_negative_bound(self, gf, bounds):
        assert gf(2, *bounds) is ZERO

    @pytest.mark.parametrize("gf", [pbar_gf, qbar_gf])
    @pytest.mark.parametrize(
        "args",
        [
            (0, 0, 1, 0, 1),
            (0, 1, 1, 1, 1),
            (0, 2, 2, 1, 1),
            (0, -1, 0, 0, 0),
            (-5, 1, 1, -1, 1),
        ],
    )
    def test_generating_functions_reject_a_step_below_one(self, gf, args):
        # the step is checked first, in the words of the bounds check, so a
        # negative bound does not turn a bad step into the zero polynomial
        with pytest.raises(ValueError, match="^r must be a positive integer, got (0|-5)$"):
            gf(*args)

    def test_product_rejects_a_step_below_one(self):
        # a one-coefficient first operand needs no gap, but its step is
        # still checked where the step reaches the packing
        for args in (([1], [1, 1], -5), ([1, 1], [1, 1], 0)):
            with pytest.raises(
                ValueError, match="^step must be a positive integer, got (0|-5)$"
            ):
                product(*args)

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
        monkeypatch.setattr(partitions, "_picks", None)
        refusal = (
            f"^enumeration of {pairs} pairs of picks drawing {parts} parts "
            f"exceeds the limit of {work - 1}$"
        )
        with pytest.raises(ValueError, match=refusal):
            totals(*bounds)

    def test_deepest_row_the_walk_limit_admits(self):
        # 1,000 picks of up to 999 ones draw 999,000 parts; each pick is a
        # walk up to 999 parts deep
        assert pbar_enumerate_totals(1, 1, 0, 999, 0) == [1] * 1000

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
        monkeypatch.setattr(partitions, "_picks", None)
        refusal = f"^enumeration of {pairs} pairs of picks drawing {parts} parts"
        with pytest.raises(ValueError, match=refusal):
            pbar_enumerate_totals(*bounds)

    @pytest.mark.parametrize(
        "bounds, deeper",
        [
            # 700 first-kind and 800 second-kind ones, then one more of each
            ((1, 1, 1, 700, 800, 1500), (1, 1, 1, 700, 801, 1501)),
            # any number of ones allowed, so n alone bounds the parts
            ((1, 0, 1, 0, 10**9, 1500), (1, 0, 1, 0, 10**9, 1501)),
        ],
    )
    def test_listing_refuses_partitions_past_the_work_limit(
        self, bounds, deeper, monkeypatch
    ):
        monkeypatch.setattr(partitions, "MAX_ENUMERATION_WORK", 1500)
        (listed,) = pbar_enumerate(TwoKindQuery(*bounds))
        assert len(listed.first_kind) + len(listed.second_kind) == 1500
        monkeypatch.setattr(partitions, "_picks", None)
        refusal = "^listing of partitions of up to 1501 parts exceeds the limit of 1500$"
        for listing in (pbar_enumerate, qbar_enumerate):
            with pytest.raises(ValueError, match=refusal):
                listing(TwoKindQuery(*deeper))


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

    def test_keywords_in_any_order(self):
        assert TwoKindQuery(n=4, k2=2, k1=2, n2=3, n1=2, r=2) == WORKED_SIX
        with pytest.raises(ValueError, match="k2 must be nonnegative"):
            TwoKindQuery(r=1, n1=0, n2=0, k1=0, k2=-1, n=0)
        failure = Counterexample(rhs="1", lhs="1 + q", params=(1, 2))
        assert failure == Counterexample((1, 2), "1 + q", "1")

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

    @pytest.mark.parametrize("args", [(-1, 1, 1), (1, -1, 1), (1, 1, -1)])
    def test_negative_rejected(self, args):
        with pytest.raises(ValueError, match=r"^Q\(N, k, n\) needs nonnegative"):
            Q(*args)

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
        # can reach, so an empty listing opens a level or none
        frames = count_walker_frames(monkeypatch, 100)
        assert qbar_enumerate(query) == []
        assert len(frames) <= 1

    def test_empty_window_of_totals_opens_no_level(self, monkeypatch):
        # 7 is no total of first-kind parts 2, 4, ..., 10 alone
        frames = count_walker_frames(monkeypatch, 100)
        assert pbar_enumerate(TwoKindQuery(2, 5, 0, 3, 0, 7)) == []
        assert frames == []

    @settings(deadline=None)
    @given(st.data())
    def test_walk_is_bounded_by_the_listing(self, data):
        # no branch is walked without a partition below it: besides the
        # first walk's root, every level opened lies on the path to some
        # partition, at most one level per part of each kind.  The count of
        # partitions comes from the generating function, so a walk that
        # lists too much cannot raise its own bound.  Drop either cut and
        # this fails.
        r = data.draw(st.integers(1, 3))
        n1, n2, k1, k2 = (data.draw(st.integers(0, 5)) for _ in range(4))
        n = data.draw(st.integers(0, r * n1 * k1 + n2 * k2 + 1))
        query = TwoKindQuery(r, n1, n2, k1, k2, n)
        routes = ((pbar_enumerate, pbar_genfun), (qbar_enumerate, qbar_genfun))
        for enumerate_, genfun in routes:
            with pytest.MonkeyPatch.context() as monkeypatch:
                frames = count_walker_frames(monkeypatch, 10**5)
                enumerate_(query)
            total = genfun(query)
            assert len(frames) <= 1 + total * (k1 + k2)
            # a partition with a part walks at least one level
            assert frames or not total or k1 + k2 == 0

    @settings(deadline=None)
    @given(
        st.integers(0, 8),
        st.integers(0, 6),
        st.integers(-6, 40),
        st.integers(-6, 40),
        st.sampled_from((0, 1)),
    )
    def test_walker_matches_filtered_itertools_picks(
        self, max_value, count, low, high, gap
    ):
        # the walker's model: count picks from 0..max_value with replacement,
        # a 0 standing for no part, or from 1..max_value without; kept when
        # their total is in [low, high], in descending order
        if gap:
            picks = combinations(range(1, max_value + 1), count)
        else:
            picks = combinations_with_replacement(range(max_value + 1), count)
        tuples = {tuple(sorted(filter(None, pick), reverse=True)) for pick in picks}
        expected = sorted((t for t in tuples if low <= sum(t) <= high), reverse=True)
        assert list(partitions._picks(max_value, count, low, high, gap)) == expected

    @settings(deadline=None)
    @given(st.integers(1, 3), *(st.integers(0, 4) for _ in range(4)))
    def test_totals_match_an_itertools_tally(self, r, n1, n2, k1, k2):
        for totals, pick, start in (
            (pbar_enumerate_totals, combinations_with_replacement, 0),
            (qbar_enumerate_totals, combinations, 1),
        ):
            tally = Counter(
                r * sum(first) + sum(second)
                for first in pick(range(start, n1 + 1), k1)
                for second in pick(range(start, n2 + 1), k2)
            )
            expected = [tally[n] for n in range(max(tally, default=0) + 1)]
            assert totals(r, n1, n2, k1, k2) == expected


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


def _gaussian_fault(monkeypatch):
    """Every Gaussian row's q^1 coefficient, where it is built, one more."""
    real = qbinomial._build

    def faulty(top, bottom, depth):
        cs = real(top, bottom, depth)
        if len(cs) > 1:
            cs[1] += 1
        return cs

    monkeypatch.setattr(qbinomial, "_build", faulty)


def _product_fault(monkeypatch):
    """The constant term of every nonzero generating-function product one more."""
    real = partitions.product

    def faulty(a, b, step=1):
        gf = real(a, b, step)
        return IntPolynomial((gf.coeffs[0] + 1, *gf.coeffs[1:])) if gf.coeffs else gf

    monkeypatch.setattr(partitions, "product", faulty)


def _packed_sums_fault(monkeypatch):
    """The first total of every ``packed_sums`` call in the verifiers one more."""
    real = identities.packed_sums

    def faulty(sides):
        packing, ((total, length), *rest) = real(sides)
        return packing, [(total + 1, length), *rest]

    monkeypatch.setattr(identities, "packed_sums", faulty)


def _convolve_fault(monkeypatch):
    """One more at target 1 in every convolution window that holds it."""
    real = partitions._convolve

    def faulty(r, n1, n2, k1, k2, low, high):
        out = real(r, n1, n2, k1, k2, low, high)
        if low <= 1 <= high:
            out[1 - low] += 1
        return out

    monkeypatch.setattr(partitions, "_convolve", faulty)
    monkeypatch.setattr(identities, "_convolve", faulty)


def _oriented_convolve_fault(monkeypatch):
    """One more at target 1 in every convolution window with N1 > k1 that holds it."""
    real = partitions._convolve

    def faulty(r, n1, n2, k1, k2, low, high):
        out = real(r, n1, n2, k1, k2, low, high)
        if n1 > k1 and low <= 1 <= high:
            out[1 - low] += 1
        return out

    monkeypatch.setattr(partitions, "_convolve", faulty)


def _kind_sums_fault(monkeypatch):
    """The oracle grids' pick totals of one kind lose their last total."""
    real = identities._kind_sums
    monkeypatch.setattr(identities, "_kind_sums", lambda n, k, gap: real(n, k, gap)[:-1])


def _picks_fault(monkeypatch):
    """The walker drops its last pick at gap 1, wherever it walks."""
    real = partitions._picks

    def faulty(max_value, count, low, high, gap):
        picks = list(real(max_value, count, low, high, gap))
        return iter(picks[:-1] if gap else picks)

    monkeypatch.setattr(partitions, "_picks", faulty)
    monkeypatch.setattr(identities, "_picks", faulty)


# Every id on a small grid, in registry order.
FAULT_GRIDS = {
    **{i: {"r_max": 2, "param_max": 3} for i in identities.IDENTITY_IDS[:6]},
    "thm3.1": {"n_max": 5, "k_max": 5},
    "thm3.3": {"n_max": 4, "k_max": 6},
    "cor3.2": {"n_max": 20},
    "eq2": {"m_max": 6, "n_max": 6},
    "eq3": {"m_max": 6, "n_max": 6},
}

# The fault-detection matrix: each fault, the ids it fails and the route
# disagreement of ``count pbar --method all`` it causes.  thm2.5 reads no
# generating function and no pick totals: it checks the staircase map on the
# walker's picks, so of these faults only the walker's makes it fail.
FAULTS = [
    pytest.param(
        _gaussian_fault,
        [i for i in FAULT_GRIDS if i != "thm2.5"],
        "route disagreement: genfun=2, convolution=1, enumerate=1\n",
        id="gaussian",
    ),
    pytest.param(
        _product_fault, ["thm2.2", "thm2.3", "thm2.4", "thm2.6"], "", id="product"
    ),
    pytest.param(_packed_sums_fault, ["eq2", "eq3"], "", id="packed_sums"),
    pytest.param(
        _convolve_fault,
        ["thm2.1", "thm3.1", "thm3.3", "cor3.2"],
        "route disagreement: genfun=1, convolution=2, enumerate=1\n",
        id="convolve",
    ),
    pytest.param(_kind_sums_fault, ["thm2.1", "thm2.2", "thm2.6"], "", id="kind_sums"),
    pytest.param(_picks_fault, ["thm2.5", "thm2.6"], "", id="picks"),
]


class TestConvolutionKernel:
    """``_convolve``, the one kernel of every two-kind count by convolution.

    The per-target ``pbar_convolution``, the row ``pbar_convolution_totals``
    and the Thm 3.x expansions all read windows of it, so a fault in it
    must show in every verifier that reads one of them.  The fault test
    asserts this, and the same for the other kernels the verifiers read:
    the whole fault-detection matrix.
    """

    @staticmethod
    def expected(row, low, high):
        return [row[n] if 0 <= n < len(row) else 0 for n in range(low, high + 1)]

    @settings(deadline=None)
    @given(st.data())
    def test_windows_match_the_enumeration_row(self, data):
        r = data.draw(st.integers(1, 4), label="r")
        bounds = [data.draw(st.integers(0, 5)) for _ in range(4)]
        row = pbar_enumerate_totals(r, *bounds)
        top = len(row) - 1
        shapes = ("single", "any", "below", "above")
        shape = data.draw(st.sampled_from(shapes), label="shape")
        if shape == "single":
            low = high = data.draw(st.integers(-2, top + 2), label="n")
        elif shape == "any":
            low = data.draw(st.integers(-top - 3, top + 3), label="low")
            high = data.draw(st.integers(low - 1, top + 3), label="high")
        else:
            # a window wholly past one end of the row: no first-kind count
            # falls in it
            width = data.draw(st.integers(1, 5), label="width")
            gap = data.draw(st.integers(0, 3), label="gap")
            low = -gap - width if shape == "below" else top + 1 + gap
            high = low + width - 1
        got = partitions._convolve(r, *bounds, low, high)
        assert got == self.expected(row, low, high), (r, bounds, low, high)

    def test_edge_windows(self):
        # (r, N1, N2, k1, k2) = (2, 2, 3, 2, 2) spans targets 0..14
        row = pbar_enumerate_totals(2, 2, 3, 2, 2)
        windows = ((0, 14), (-3, 2), (12, 17), (15, 20), (-5, -1), (7, 7), (7, 6))
        for low, high in windows:
            got = partitions._convolve(2, 2, 3, 2, 2, low, high)
            assert got == self.expected(row, low, high), (low, high)
        # no first-kind part allowed: the row is the second kind's alone
        assert partitions._convolve(3, 0, 2, 4, 2, -1, 5) == [0, 1, 1, 2, 1, 1, 0]

    @staticmethod
    def rows_off_the_oracle():
        # every point with r <= 2 and bounds <= 4, so both orders (N, k) and
        # (k, N) of each kind
        return [
            bounds for bounds in product_of((1, 2), *[range(5)] * 4)
            if pbar_convolution_totals(*bounds) != pbar_enumerate_totals(*bounds)
        ]

    def test_rows_match_the_oracle_at_both_orders_of_each_kind(self):
        # thm2.1 reads each row at N <= k in each kind only, so the other
        # order is compared with the oracle here
        assert self.rows_off_the_oracle() == []

    def test_a_fault_at_one_order_fails_the_row_comparison(self, monkeypatch):
        _oriented_convolve_fault(monkeypatch)
        off = self.rows_off_the_oracle()
        assert off and all(n1 > k1 for _, n1, _, k1, _ in off)

    @pytest.mark.parametrize("fault, failing, disagreement", FAULTS)
    def test_a_fault_in_the_kernel_fails_every_reader(
        self, monkeypatch, capsys, fault, failing, disagreement
    ):
        # each fault must fail exactly its readers among the ids, and the
        # three count routes must disagree exactly when it moves their count
        argv = ["count", "pbar", "--r", "2", "--n1", "1", "--n2", "1", "--k1", "1",
                "--k2", "1", "--n", "1", "--method", "all"]

        def run():
            # a fresh Gaussian store and generating-function memo, so no
            # row built on one side of the fault is read on the other
            monkeypatch.setattr(qbinomial, "_prefixes", {})
            partitions.pbar_gf.cache_clear()
            ids = [i for i, grid in FAULT_GRIDS.items()
                   if not identities.run_identity(i, **grid).passed]
            code = main(argv)
            return ids, code, capsys.readouterr().err

        try:
            assert run() == ([], 0, "")
            fault(monkeypatch)
            code = 1 if disagreement else 0
            assert run() == (failing, code, disagreement)
        finally:
            partitions.pbar_gf.cache_clear()


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


class TestGeneratingFunctionMemos:
    """``pbar_gf`` keeps one product per pair of Gaussian cells, and no zeros.

    It is the one generating-function memo: ``qbar_gf`` reads it and keeps
    nothing of its own.
    """

    @pytest.fixture(autouse=True)
    def cold_memos(self):
        pbar_gf.cache_clear()
        yield
        pbar_gf.cache_clear()

    @staticmethod
    def cells(r, n1, n2, k1, k2):
        return r, n1 + k1, min(n1, k1), n2 + k2, min(n2, k2)

    def test_swapped_tuples_read_one_product(self):
        for r, n1, n2, k1, k2 in product_of(range(1, 4), *[range(5)] * 4):
            gf = pbar_gf(r, n1, n2, k1, k2)
            assert pbar_gf(r, k1, n2, n1, k2) is gf
            assert pbar_gf(r, n1, k2, k1, n2) is gf
            assert pbar_gf(r, k1, k2, n1, n2) is gf
        assert pbar_gf.cache_info().currsize == len(
            {self.cells(*bounds) for bounds in product_of(range(1, 4), *[range(5)] * 4)}
        )

    @pytest.mark.parametrize(
        "gf, bounds",
        [
            (pbar_gf, (2, -1, 1, 1, 1)),
            (pbar_gf, (1, 3, 2, 1, -1)),
            (qbar_gf, (2, 1, 1, -1, 1)),
            (qbar_gf, (1, -2, 3, -3, 1)),
            # k > N in one kind: no k distinct parts at most N
            (qbar_gf, (1, 1, 3, 2, 1)),
            (qbar_gf, (3, 4, 0, 2, 1)),
        ],
    )
    def test_zero_reads_store_nothing(self, gf, bounds):
        # qbar_gf(1, 2, 2, 1, 1) reads pbar_gf at (1, 1, 1, 1, 1), a second cell
        pbar_gf(1, 2, 2, 1, 1)
        qbar_gf(1, 2, 2, 1, 1)
        before = pbar_gf.cache_info()
        assert (before.misses, before.currsize) == (2, 2)
        for _ in range(2):
            assert gf(*bounds) is ZERO
        assert pbar_gf.cache_info() == before

    def test_a_symmetry_grid_holds_one_entry_per_cell_pair(self):
        assert identities.verify_thm24(2, 7).passed
        keys = {self.cells(*bounds) for bounds in product_of(range(1, 3), *[range(8)] * 4)}
        info = pbar_gf.cache_info()
        assert info.currsize == info.misses == len(keys) == 2 * 36**2
        assert set(partitions._pbar_memo) == keys
        # each of the grid's 2 * 8**4 points reads four bound tuples
        assert info.hits + info.misses == 4 * 2 * 8**4

    def test_qbar_reads_count_in_the_one_memo(self):
        # qbar_gf has no memo, counts or cache_clear of its own: each read is
        # a pbar_gf read at the lowered bounds, and pbar_gf.cache_clear
        # empties the one memo and zeroes its counts
        def counts():
            info = pbar_gf.cache_info()
            return info.hits, info.misses, info.currsize

        assert not hasattr(qbar_gf, "cache_info") and not hasattr(qbar_gf, "cache_clear")
        for _ in range(2):
            # [3, 1] at q^2 times [1, 1], shifted by 2 * 1 + 1
            assert qbar_gf(2, 3, 1, 1, 1) == pbar_gf(2, 2, 0, 1, 1).shift(3)
        assert counts() == (3, 1, 1)
        # the N <-> k swap of the lowered bounds reads the same product
        assert pbar_gf(2, 1, 0, 2, 1) is partitions._pbar_memo[2, 3, 1, 1, 0]
        assert counts() == (4, 1, 1)
        pbar_gf.cache_clear()
        assert counts() == (0, 0, 0)


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

    def test_the_map_carries_each_listing_onto_the_lowered_one(self):
        # thm2.5's map, on the public listings: each distinct-part partition
        # of n, less (k, ..., 1) per kind (in multiples of r for the first
        # kind), is the partition at the same place in the listing at the
        # lowered bounds and n - s, s = r * C(k1 + 1, 2) + C(k2 + 1, 2)
        staircase = identities._staircase
        for r, n1, n2, k1, k2 in product_of((1, 2), *[range(4)] * 4):
            if k1 > n1 or k2 > n2:
                continue
            offset = r * comb(k1 + 1, 2) + comb(k2 + 1, 2)
            for n in range(offset, offset + r * (n1 - k1) * k1 + (n2 - k2) * k2 + 1):
                images = []
                for item in qbar_enumerate(TwoKindQuery(r, n1, n2, k1, k2, n)):
                    multipliers = tuple(part // r for part in item.first_kind)
                    first = tuple(r * m for m in staircase(multipliers))
                    images.append((first, staircase(item.second_kind)))
                lowered = TwoKindQuery(r, n1 - k1, n2 - k2, k1, k2, n - offset)
                listing = pbar_enumerate(lowered)
                assert images == [(item.first_kind, item.second_kind) for item in listing]
                assert len(images) == qbar_genfun(TwoKindQuery(r, n1, n2, k1, k2, n))


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
