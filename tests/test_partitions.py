import copy
import gc
import itertools
import pickle
import sys
import time
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from schmidt.bijection import DistinctPair, PaddedPair, wright_build
from schmidt.partitions import (
    RefinedQuery,
    TwoColorPartition,
    _heads,
    _unchecked,
    alternating_sum,
    as_partition,
    conjugate,
    count_schmidt,
    count_two_color,
    enumerate_schmidt,
    enumerate_schmidt_refined_literal,
    enumerate_two_color,
    enumerate_two_color_refined,
    iter_schmidt,
    iter_two_color,
    partitions_of,
    schmidt_counts,
    two_color_counts,
)
from schmidt.series import two_color_coefficients
from schmidt.textform import format_two_color

# OEIS A000712, the two-color partition counts for n = 0..10
A000712 = (1, 2, 5, 10, 20, 36, 65, 110, 185, 300, 481)
# classical partition numbers p(0)..p(20)
PARTITION_COUNTS = [
    1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42,
    56, 77, 101, 135, 176, 231, 297, 385, 490, 627,
]


def slow_schmidt(n):
    # independent route: filter every partition of total weight up to 2n,
    # since even-position parts are bounded by the odd-position parts
    found = set()
    for total in range(2 * n + 1):
        for p in partitions_of(total):
            if alternating_sum(p) == n:
                found.add(p)
    return found


def columns_by_rows(p):
    # column c of the diagram holds one cell per row of length >= c
    columns = range(1, p[0] + 1) if p else ()
    return tuple(sum(1 for row in p if row >= c) for c in columns)


def test_as_partition_accepts_valid():
    assert as_partition([3, 2, 2, 1]) == (3, 2, 2, 1)
    assert as_partition(()) == ()


@pytest.mark.parametrize("bad", [(0,), (-1,), (1, 2), (3, 1, 2)])
def test_as_partition_rejects(bad):
    with pytest.raises(ValueError):
        as_partition(bad)


@pytest.mark.parametrize(
    "p,expected",
    [((3, 3), 3), ((), 0), ((4, 3, 3, 2, 1), 8)],
)
def test_alternating_sum(p, expected):
    assert alternating_sum(p) == expected


@pytest.mark.parametrize(
    "p,expected",
    [((), ()), ((3, 1), (2, 1, 1)), ((4, 4, 3, 3, 2, 1), (6, 5, 4, 2))],
)
def test_conjugate(p, expected):
    assert conjugate(p) == expected


def test_conjugate_matches_column_definition():
    for n in range(19):
        for p in partitions_of(n):
            assert conjugate(p) == columns_by_rows(p)


def test_conjugate_matches_column_definition_on_tall_shapes():
    # wright_build shapes stack long runs of equal rows below the diagonal
    # (and long first rows), which the exhaustive tests above never reach.
    # Every strictly decreasing tuple of m <= 3 entries <= 40 serves as legs
    # and as arms against the staircase m-1, ..., 0, and every pair of
    # tuples drawn from a spread of entries <= 40 is taken as well.
    pairs = []
    for m in range(1, 4):
        stairs = tuple(range(m - 1, -1, -1))
        for t in itertools.combinations(range(40, -1, -1), m):
            pairs += [(t, stairs), (stairs, t)]
        spread = list(itertools.combinations((40, 39, 21, 20, 2, 1, 0), m))
        pairs += itertools.product(spread, spread)
    for arms, legs in pairs:
        shape = wright_build(DistinctPair(arms, legs))
        assert conjugate(shape) == columns_by_rows(shape)


def test_conjugate_cost_follows_runs_of_rows():
    # two runs of a million rows: the rows are checked in C and each run's
    # end found by binary search, about 0.11 s on a 2-vCPU x86 machine with
    # CPython 3.11, where a Python loop over every row takes about 0.7 s
    p = (5,) * 10**6 + (2,) * 10**6
    start = time.perf_counter()
    assert conjugate(p) == (2 * 10**6, 2 * 10**6, 10**6, 10**6, 10**6)
    assert time.perf_counter() - start < 0.4


def test_conjugate_is_linear_in_its_runs():
    # 20,000 runs of one row each, a staircase that is its own conjugate.
    # Every run extends one list, about 0.02 s on a 2-vCPU x86 machine with
    # CPython 3.11; a tuple concatenated per run copies the columns so far
    # each time, and took 0.72 s.
    p = tuple(range(20_000, 0, -1))
    start = time.perf_counter()
    assert conjugate(p) == p
    assert time.perf_counter() - start < 0.25


def test_conjugate_holds_one_list_beside_its_output():
    # 2,000 runs of one row each: the columns are gathered in one list and
    # made a tuple once, so beyond the output (its tuple and the ints above
    # 256 it holds) the peak is that one list, not a tuple per run.  The
    # output is measured after a collection, which empties the free lists
    # that freed short tuples would otherwise still be counted in.
    p = tuple(range(2000, 0, -1))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        columns = conjugate(p)
        peak = tracemalloc.get_traced_memory()[1] - base
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert columns == p
    assert peak - kept < 2 * sys.getsizeof(columns)


def test_conjugate_involution_exhaustive():
    for n in range(21):
        for p in partitions_of(n):
            assert conjugate(conjugate(p)) == p


def test_partitions_of_counts_and_order():
    for n, expected in enumerate(PARTITION_COUNTS):
        ps = list(partitions_of(n))
        assert len(ps) == expected
        assert len(set(ps)) == expected
        assert ps == sorted(ps, reverse=True)
        assert all(sum(p) == n for p in ps)


def test_enumerate_schmidt_n3_is_the_known_ten():
    expected = {
        (3,), (3, 3), (3, 2), (3, 1),
        (2, 2, 1), (2, 2, 1, 1), (2, 1, 1), (2, 1, 1, 1),
        (1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1),
    }
    assert set(enumerate_schmidt(3)) == expected


def test_enumerate_schmidt_edge_cases():
    assert enumerate_schmidt(0) == [()]
    assert set(enumerate_schmidt(1)) == {(1,), (1, 1)}


@pytest.mark.parametrize("n", range(13))
def test_enumerate_schmidt_matches_slow_filter(n):
    assert enumerate_schmidt(n) == sorted(slow_schmidt(n), reverse=True)


@pytest.mark.parametrize("n", range(13))
def test_iter_schmidt_yields_each_partition_once(n):
    walked = sorted(iter_schmidt(n), reverse=True)
    assert walked == enumerate_schmidt(n) == sorted(slow_schmidt(n), reverse=True)


def test_iter_schmidt_edge_cases_and_heads_major_order():
    assert list(iter_schmidt(0)) == [()]
    with pytest.raises(ValueError):
        next(iter_schmidt(-1))
    # heads 3, then 2+1, then 1+1+1; for each, odd length before even
    assert list(iter_schmidt(3)) == [
        (3,), (3, 3), (3, 2), (3, 1),
        (2, 2, 1), (2, 1, 1), (2, 2, 1, 1), (2, 1, 1, 1),
        (1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1),
    ]


def test_enumerate_schmidt_structure():
    for n in range(9):
        out = enumerate_schmidt(n)
        assert len(out) == len(set(out))
        assert out == sorted(out, reverse=True)
        for p in out:
            assert as_partition(p) == p
            assert alternating_sum(p) == n


def test_counts():
    assert count_schmidt(3) == 10
    assert count_two_color(3) == 10
    assert count_two_color(0) == 1
    assert count_two_color(2) == 5


def test_count_equality_small():
    for n in range(13):
        assert count_schmidt(n) == count_two_color(n)
    # the counter does not enumerate, so tie it to the enumerator
    for n in range(17):
        assert count_two_color(n) == len(enumerate_two_color(n))


def test_schmidt_counts_match_the_enumerator():
    # the DP never enumerates, so tie it to the enumerator up to 20
    counts = schmidt_counts(20)
    assert len(counts) == 21
    for n in range(21):
        assert counts[n] == len(enumerate_schmidt(n))


def test_two_color_counts_match_the_enumerator():
    counts = two_color_counts(16)
    assert len(counts) == 17
    for n in range(17):
        assert counts[n] == len(enumerate_two_color(n))


def test_count_tables_match_the_series_and_oeis():
    series = two_color_coefficients(500)
    assert schmidt_counts(500) == series
    assert two_color_counts(500) == series
    assert schmidt_counts(10) == two_color_counts(10) == A000712
    assert schmidt_counts(0) == two_color_counts(0) == (1,)


def test_schmidt_counts_keeps_two_rows():
    # the DP holds F[.][b] and S[.][b] for one bound b at a time, so its
    # memory grows with max_n, not with max_n**2: about 0.2 MB at 1000,
    # where a stored table of every prefix row takes 27 MB
    tracemalloc.start()
    try:
        counts = schmidt_counts(1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(counts) == 1001
    assert peak < 1 << 20


@pytest.mark.parametrize("table", [schmidt_counts, two_color_counts, count_schmidt, count_two_color])
def test_counts_reject_negative(table):
    with pytest.raises(ValueError, match="must be nonnegative"):
        table(-1)


def test_enumerate_two_color_edge_cases():
    assert enumerate_two_color(0) == [TwoColorPartition((), ())]
    assert {format_two_color(tc) for tc in enumerate_two_color(1)} == {"1r", "1g"}


def test_enumerate_two_color_n3_is_the_known_ten():
    expected = {
        "3r", "3g", "2r+1r", "2g+1r", "2r+1g", "2g+1g",
        "1r+1r+1r", "1r+1r+1g", "1r+1g+1g", "1g+1g+1g",
    }
    got = [format_two_color(tc) for tc in enumerate_two_color(3)]
    assert set(got) == expected
    assert len(got) == len(set(got))


def test_enumerate_two_color_weights_and_order():
    for n in range(15):
        out = enumerate_two_color(n)
        assert all(tc.weight == n for tc in out)
        keys = [tc.sort_key() for tc in out]
        assert keys == sorted(keys)
        reference = [
            TwoColorPartition(red, green)
            for k in range(n + 1)
            for red in partitions_of(k)
            for green in partitions_of(n - k)
        ]
        assert out == sorted(reference, key=TwoColorPartition.sort_key)


def test_enumerate_two_color_sorts_nothing():
    # the walk appends each value in canonical order; sorting the whole
    # list through sort_key, one merged list per value, peaked at 3.7 MB
    gc.collect()
    tracemalloc.start()
    try:
        out = enumerate_two_color(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == count_two_color(16)
    assert peak < 2 << 20


def test_iter_two_color_holds_one_object_at_a_time():
    # the walk keeps only its pending nodes; the list of weight 16 peaks at 1.05 MB
    gc.collect()
    tracemalloc.start()
    try:
        count = sum(1 for _ in iter_two_color(16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == count_two_color(16)
    assert peak < 64 << 10


def test_enumerate_two_color_leaves_no_cycle():
    # a cycle would hold the list, or a dropped walk, until the cyclic collector runs
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        enumerate_two_color(8)
        assert gc.collect() == 0
        walk = iter_two_color(8)
        for _ in range(3):
            next(walk)
        del walk
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_memoized_results_are_fresh_lists():
    first = enumerate_two_color(4)
    expected = list(first)
    first.clear()
    assert enumerate_two_color(4) == expected

    query = RefinedQuery(3, 2, 1, 2, 1)
    vectors = enumerate_schmidt_refined_literal(query)
    expected_vectors = list(vectors)
    vectors.reverse()
    vectors.append((9, 9, 9, 9))
    assert enumerate_schmidt_refined_literal(query) == expected_vectors


def test_two_color_accessors():
    tc = TwoColorPartition((2, 1), (3,))
    assert (tc.weight, tc.num_red, tc.num_green) == (6, 2, 1)
    assert (tc.max_red, tc.max_green) == (2, 3)
    empty = TwoColorPartition((), ())
    assert (empty.weight, empty.max_red, empty.max_green) == (0, 0, 0)


def test_two_color_validation():
    with pytest.raises(ValueError):
        TwoColorPartition((1, 2), ())


def test_refined_query_validation():
    with pytest.raises(ValueError):
        RefinedQuery(n=-1, r=1, l=1, p=1, q=1)
    with pytest.raises(ValueError):
        RefinedQuery(n=1, r=0, l=1, p=1, q=1)


# each immutable value with its exact repr
VALUES = [
    (TwoColorPartition((2, 1), (3,)), "TwoColorPartition(red=(2, 1), green=(3,))"),
    (RefinedQuery(3, 1, 1, 2, 1), "RefinedQuery(n=3, r=1, l=1, p=2, q=1)"),
    (PaddedPair((2, 1), (3, 0)), "PaddedPair(red=(2, 1), green=(3, 0))"),
    (DistinctPair((3, 1), (2, 0)), "DistinctPair(arms=(3, 1), legs=(2, 0))"),
]


def fields_of(value):
    return tuple(getattr(value, name) for name in value.__match_args__)


@pytest.mark.parametrize("value,text", VALUES)
def test_values_are_frozen_and_slotted(value, text):
    assert repr(value) == text
    assert not hasattr(value, "__dict__")
    first = value.__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(value, first, getattr(value, first))
    with pytest.raises(AttributeError):
        delattr(value, first)
    with pytest.raises(AttributeError):
        value.other = 1
    assert repr(value) == text  # unchanged by the failed writes


@pytest.mark.parametrize("value,text", VALUES)
def test_values_hash_and_compare_by_their_fields(value, text):
    fields = fields_of(value)
    assert hash(value) == hash(fields)
    assert value == type(value)(*fields)
    assert value != fields


def test_values_of_different_classes_differ():
    assert PaddedPair((1,), (0,)) != DistinctPair((1,), (0,))
    assert TwoColorPartition((1,), (1,)) != PaddedPair((1,), (1,))


@pytest.mark.parametrize("value,text", VALUES)
def test_values_copy_and_pickle_through_the_checking_constructor(value, text):
    assert value.__reduce__() == (type(value), fields_of(value))
    for again in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(again) is type(value)
        assert again == value
    # the constructor's checks run again: a value built without them fails
    unsorted = _unchecked(TwoColorPartition, (1, 2), ())
    for rebuild in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        with pytest.raises(ValueError, match="weakly decreasing"):
            rebuild(unsorted)


def test_values_destructure_in_match():
    match TwoColorPartition((2, 1), (3,)):
        case TwoColorPartition(red, green):
            assert (red, green) == ((2, 1), (3,))
        case _:
            pytest.fail("no match")
    match RefinedQuery(3, 1, 2, 2, 1):
        case RefinedQuery(n, r, l, p=2, q=q):
            assert (n, r, l, q) == (3, 1, 2, 1)
        case _:
            pytest.fail("no match")


def test_constructors_keep_their_signatures():
    assert TwoColorPartition() == TwoColorPartition((), ()) == TwoColorPartition(red=(), green=())
    assert TwoColorPartition(green=(1,)) == TwoColorPartition((), (1,))
    assert RefinedQuery(3, 1, 1, 2, 1) == RefinedQuery(n=3, r=1, l=1, p=2, q=1)
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        RefinedQuery(-1, 1, 1, 1, 1)
    for bad in [(0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)]:
        with pytest.raises(ValueError, match="^r, l, p, q must be positive$"):
            RefinedQuery(1, *bad)


@pytest.mark.parametrize(
    "query,expected",
    [
        (RefinedQuery(2, 1, 1, 1, 1), {"1r+1g"}),
        (RefinedQuery(3, 1, 1, 2, 1), {"2r+1g"}),
        (RefinedQuery(1, 2, 1, 9, 9), set()),
    ],
)
def test_enumerate_two_color_refined(query, expected):
    got = {format_two_color(tc) for tc in enumerate_two_color_refined(query)}
    assert got == expected


@pytest.mark.parametrize(
    "query,expected",
    [
        (RefinedQuery(2, 1, 1, 1, 1), {(2, 0), (2, 1), (2, 2)}),
        (RefinedQuery(0, 1, 1, 1, 1), {(0, 0)}),
        (RefinedQuery(3, 1, 1, 1, 2), {(3, 0), (3, 1), (3, 2), (3, 3)}),
        # n above max(r, l) * (p + q), the most the heads can sum to
        (RefinedQuery(4, 1, 1, 1, 2), set()),
        (RefinedQuery(13, 3, 2, 2, 2), set()),
        (RefinedQuery(31, 2, 5, 3, 3), set()),
    ],
)
def test_enumerate_schmidt_refined_literal(query, expected):
    assert set(enumerate_schmidt_refined_literal(query)) == expected


def test_literal_vectors_match_product_scan():
    # dumb oracle: scan every weakly decreasing vector of the length (each
    # combination with replacement, reversed), grouped by odd-position sum
    # and sorted descending; the enumerator must give the same ordered list
    for length, cap in itertools.product((2, 4, 6, 8, 10), range(2, 9)):
        by_sum = {}
        for v in itertools.combinations_with_replacement(range(cap + 1), length):
            v = v[::-1]
            by_sum.setdefault(sum(v[::2]), []).append(v)
        k, a = length // 2, cap // 2
        for n in range(13):
            expected = sorted(by_sum.get(n, []), reverse=True)
            # the length comes from max(r, l) and the cap from p + q
            for query in (RefinedQuery(n, k, 1, a, cap - a), RefinedQuery(n, 1, k, cap - a, a)):
                assert enumerate_schmidt_refined_literal(query) == expected


def test_literal_vectors_have_fixed_length_and_order():
    out = enumerate_schmidt_refined_literal(RefinedQuery(2, 2, 1, 2, 2))
    assert all(len(v) == 4 for v in out)
    assert out == sorted(out, reverse=True)
    # trailing zeros distinguish members
    assert (1, 1, 1, 1) in out and (1, 1, 1, 0) in out


# The recursions that the one heads walk, `partitions._heads`, replaced,
# kept as references for its order.  Each recurses once per part.
def reference_partitions_of(n, max_part=None):
    # every partition of n, parts at most max_part, descending lexicographic
    bound = n if max_part is None else min(max_part, n)
    if n == 0:
        yield ()
        return
    for first in range(bound, 0, -1):
        for rest in reference_partitions_of(n - first, first):
            yield (first,) + rest


def reference_heads(factors, at, count, total, prev):
    # at most count heads, each at most prev, summing to total, in descending
    # lexicographic order, each written in place as factors[at] = (h,) after
    # the range from the head before it (or prev) down to h; yields the index
    # just past the last head
    for head in range(min(prev, total), -(-total // count) - 1, -1):
        factors[at - 1] = range(prev, head - 1, -1)
        factors[at] = (head,)
        rest = total - head
        if not rest:
            yield at + 1
        elif count == 2:
            factors[at + 1] = range(head, rest - 1, -1)
            factors[at + 2] = (rest,)
            yield at + 3
        else:
            yield from reference_heads(factors, at + 2, count - 1, rest, head)


def reference_decreasing(total, count, high):
    # weakly decreasing count-tuples with entries in [1, high] summing to
    # total, in descending lexicographic order
    if not count <= total <= count * high:
        return []
    if count == 1:
        return [(total,)]
    out = []
    for first in range(min(high, total - count + 1), -(-total // count) - 1, -1):
        out += [(first,) + rest for rest in reference_decreasing(total - first, count - 1, first)]
    return out


def walked_heads(count, total, cap):
    # each head tuple of the walk, with the factors it wrote before the slot
    # past its last head
    factors = [()] * (2 * count)
    return [
        (tuple(heads), factors[: 2 * len(heads) - 1]) for heads in _heads(factors, count, total, cap)
    ]


def referenced_heads(count, total, cap):
    factors = [()] * (2 * count + 1)
    return [
        (tuple(head for head, in factors[:end:2]), factors[:end])
        for end in reference_heads(factors, 0, count, total, cap)
    ]


# Each head tuple from the reference partitions, its factors rebuilt ...
def interleaved_schmidt(n):
    if n == 0:
        yield ()
        return
    for heads in reference_partitions_of(n):
        factors = []
        for head, after in zip(heads, heads[1:] + (1,)):
            factors += [(head,), range(head, after - 1, -1)]
        yield from itertools.product(*factors[:-1])
        yield from itertools.product(*factors)


# ... and every one of the max(r, l) heads placed by one recursive call,
# the zero heads too
def placed_literal(query):
    k, cap = max(query.r, query.l), query.p + query.q
    if query.n > k * cap:
        return []
    out = []
    place_heads(out, [()] * (2 * k), 0, k, query.n, cap)
    out.sort(reverse=True)
    return out


def place_heads(out, factors, at, count, total, prev):
    if count == 1:
        factors[at - 1] = range(prev, total - 1, -1)
        factors[at] = (total,)
        factors[at + 1] = range(total, -1, -1)
        out += itertools.product(*factors)
        return
    for head in range(min(prev, total), -(-total // count) - 1, -1):
        factors[at - 1] = range(prev, head - 1, -1)
        factors[at] = (head,)
        place_heads(out, factors, at + 2, count - 1, total - head, head)


# Both colors from the reference tuples, sorted in canonical order
def decreasing_refined(query):
    n, r, l, p, q = query.n, query.r, query.l, query.p, query.q
    out = [
        TwoColorPartition(red, green)
        for red_weight in range(n + 1)
        for red in reference_decreasing(red_weight, r, p)
        for green in reference_decreasing(n - red_weight, l, q)
    ]
    out.sort(key=TwoColorPartition.sort_key)
    return out


# the cells of the (8, 4, 4, 4, 4) grid, then r > n cells
REFINED_CELLS = [
    RefinedQuery(n, r, l, p, q)
    for (r, l, p, q), n in itertools.product(itertools.product(range(1, 5), repeat=4), range(9))
] + [RefinedQuery(n, r, 2, 1, 2) for n, r in itertools.product(range(4), (5, 9))]


@pytest.mark.parametrize("m", [None, *range(-1, 18)])
def test_partitions_of_keeps_the_order_of_the_recursion(m):
    for n in range(17):
        if m is None or m <= n + 1:
            assert list(partitions_of(n, m)) == list(reference_partitions_of(n, m))


@pytest.mark.parametrize("n", range(15))
def test_iter_schmidt_keeps_the_order_of_the_interleaved_heads(n):
    assert list(iter_schmidt(n)) == list(interleaved_schmidt(n))


@settings(max_examples=300)
@given(st.integers(1, 6), st.integers(0, 30), st.integers(0, 12))
@example(3, 5, 9)  # cap > total
@example(2, 30, 12)  # count * cap < total
def test_heads_walk_keeps_the_order_of_the_recursion(count, total, cap):
    assert walked_heads(count, total, cap) == referenced_heads(count, total, cap)


def test_literal_vectors_keep_the_order_of_the_placed_heads():
    for query in REFINED_CELLS:
        assert enumerate_schmidt_refined_literal(query) == placed_literal(query)


def test_trimmed_literal_vectors_are_the_bounded_schmidt_partitions():
    # trimming the zeros is one to one, onto the partitions of alternating
    # sum n with at most 2 * max(r, l) parts and a largest part <= p + q
    for query in REFINED_CELLS:
        k, cap = max(query.r, query.l), query.p + query.q
        trimmed = [v[: len(v) - v.count(0)] for v in enumerate_schmidt_refined_literal(query)]
        assert len(set(trimmed)) == len(trimmed)
        assert set(trimmed) == {
            s for s in enumerate_schmidt(query.n) if len(s) <= 2 * k and (not s or s[0] <= cap)
        }


def test_two_color_refined_keeps_the_order_of_the_recursion():
    for query in REFINED_CELLS:
        assert enumerate_two_color_refined(query) == decreasing_refined(query)


def test_literal_vectors_of_many_zero_heads_need_no_deep_recursion():
    # 5,000 heads, one of them positive
    zeros = (0,) * 9_998
    assert enumerate_schmidt_refined_literal(RefinedQuery(n=1, r=5000, l=1, p=1, q=1)) == [
        (1, 1) + zeros,
        (1, 0) + zeros,
    ]


# Queries with small answers whose parts or heads number in the thousands,
# deeper than the recursion limit
@pytest.mark.parametrize(
    "query,answer",
    [
        (lambda: len(enumerate_two_color_refined(RefinedQuery(2001, 2000, 1, 1, 1))), 1),
        (lambda: len(enumerate_two_color_refined(RefinedQuery(3001, 2000, 1, 2, 1))), 1),
        (lambda: len(enumerate_schmidt_refined_literal(RefinedQuery(1500, 1000, 1, 1, 1))), 1003),
        (lambda: list(partitions_of(5000, 1)), [(1,) * 5000]),
    ],
    ids=["two-color-ones", "two-color-one-two", "literal", "partitions-of"],
)
def test_deep_queries_need_no_recursion(query, answer):
    assert query() == answer


def test_a_partly_read_walk_holds_only_its_heads():
    # the first partition of 10**6 is one head, so the scratch is a few slots
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        first = next(partitions_of(10**6))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert first == (10**6,)
    assert peak < 64 * 1024


def test_refined_is_the_ordered_filter_of_the_full_table():
    # p = q = n + 1 exceeds every part, so those cells bound only the counts
    for n in range(9):
        table = enumerate_two_color(n)
        for r, l in itertools.product(range(1, 5), repeat=2):
            for p, q in itertools.product(range(1, n + 2), repeat=2):
                expected = [
                    tc
                    for tc in table
                    if tc.num_red == r
                    and tc.num_green == l
                    and tc.max_red <= p
                    and tc.max_green <= q
                ]
                assert enumerate_two_color_refined(RefinedQuery(n, r, l, p, q)) == expected


@pytest.mark.parametrize("n", range(2, 7))
def test_refined_tiles_the_two_colored_ones(n):
    # refined sets with p = q = n partition everything having both colors
    union = set()
    total = 0
    for r in range(1, n):
        for l in range(1, n - r + 1):
            block = enumerate_two_color_refined(RefinedQuery(n, r, l, n, n))
            union.update(block)
            total += len(block)
    both_colors = {
        tc for tc in enumerate_two_color(n) if tc.num_red >= 1 and tc.num_green >= 1
    }
    assert union == both_colors
    assert total == len(both_colors)
