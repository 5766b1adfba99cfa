import gc
import time
import tracemalloc
from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import given

from schmidt.bijection import (
    DistinctPair,
    NotInImageError,
    PaddedPair,
    add_staircase,
    check_hooks,
    durfee_square,
    hook_compose,
    hook_decompose,
    hooks_to_schmidt,
    pad_colors,
    remove_staircase,
    render_two_modular,
    schmidt_to_hooks,
    schmidt_to_two_color,
    trace_backward,
    trace_forward,
    two_color_to_schmidt,
    wright_build,
    wright_split,
)
from schmidt.partitions import (
    TwoColorPartition,
    alternating_sum,
    as_partition,
    enumerate_schmidt,
    enumerate_two_color,
    partitions_of,
)
from schmidt.textform import format_partition, format_two_color, parse_two_color


def hooks_by_cells(shape):
    # literal oracle: lay out the filled cells and cut hooks at the diagonal
    cells = {}
    for i, row in enumerate(shape, 1):
        for j in range(1, row + 1):
            cells[(i, j)] = 2
        cells[(i, row)] = 1
    out = []
    j = 1
    while (j, j) in cells:
        hook = [rc for rc in cells if (rc[0] == j and rc[1] >= j) or (rc[1] == j and rc[0] > j)]
        out.append(len(hook))
        out.append(sum(1 for rc in hook if cells[rc] == 2))
        j += 1
    return tuple(out)


def build_by_cells(arms, legs):
    # literal oracle: place diagonal, arm, and leg cells, then read row lengths
    cells = set()
    for j in range(1, len(arms) + 1):
        cells.add((j, j))
        cells.update((j, j + c) for c in range(1, arms[j - 1] + 1))
        cells.update((j + c, j) for c in range(1, legs[j - 1] + 1))
    rows = {}
    for i, _ in cells:
        rows[i] = rows.get(i, 0) + 1
    assert all((i, c) in cells for i in rows for c in range(1, rows[i] + 1))
    return tuple(rows[i] for i in sorted(rows))


# ---------------------------------------------------------------- padding


# ----------------------------------------------------------------- checks


@pytest.mark.parametrize(
    "check,args,error,message",
    [
        (as_partition, ((0, 1),), ValueError, "parts must be positive integers: (0, 1)"),
        (as_partition, ((3, 1, 2),), ValueError, "parts must be weakly decreasing: (3, 1, 2)"),
        (PaddedPair, ((1,), (1, 0)), ValueError, "padded sequences must have equal length"),
        (PaddedPair, ((1, 2), (1, 0)), ValueError, "padded red must be weakly decreasing: (1, 2)"),
        (
            PaddedPair,
            ((1, -1), (1, 0)),
            ValueError,
            "padded red entries must be nonnegative: (1, -1)",
        ),
        (
            PaddedPair,
            ((1, 0), (1, 2)),
            ValueError,
            "padded green must be weakly decreasing: (1, 2)",
        ),
        (PaddedPair, ((1, 0), (1, 0)), ValueError, "at least one color must be zero-free"),
        (DistinctPair, ((1,), ()), ValueError, "arm and leg sequences must have equal length"),
        (DistinctPair, ((1, 0), (1, 1)), ValueError, "legs must be strictly decreasing: (1, 1)"),
        (DistinctPair, ((1, 0), (-1, 0)), ValueError, "legs entries must be nonnegative: (-1, 0)"),
        (DistinctPair, ((2, 2), (1, 0)), ValueError, "arms must be strictly decreasing: (2, 2)"),
        (check_hooks, ((1,),), NotInImageError, "hook vector must have even length: (1,)"),
        (
            check_hooks,
            ((3, 2, 1),),
            NotInImageError,
            "hook vector must have even length: (3, 2, 1)",
        ),
        (check_hooks, ((-1, 0),), NotInImageError, "hook counts must be nonnegative: (-1, 0)"),
        (
            check_hooks,
            ((3, 3, 1, 0),),
            NotInImageError,
            "hook counts must be strictly decreasing: (3, 3, 1, 0)",
        ),
        (hook_decompose, ((-1,),), ValueError, "parts must be positive integers: (-1,)"),
        (hook_decompose, ((1, 2),), ValueError, "parts must be weakly decreasing: (1, 2)"),
        (hook_decompose, ((0,),), ValueError, "parts must be positive integers: (0,)"),
        # a fault in the Durfee square's rows, in row m + 1 or in the rows
        # below it gets the whole shape's message
        (hook_decompose, ((2, 3, 1),), ValueError, "parts must be weakly decreasing: (2, 3, 1)"),
        (hook_decompose, ((2, 3, 0),), ValueError, "parts must be positive integers: (2, 3, 0)"),
        (hook_decompose, ((2, 2, 0),), ValueError, "parts must be positive integers: (2, 2, 0)"),
        (
            hook_decompose,
            ((3, 3, 3, 1, 2),),
            ValueError,
            "parts must be weakly decreasing: (3, 3, 3, 1, 2)",
        ),
        (
            hook_decompose,
            ((3, 3, 3, 2, -1),),
            ValueError,
            "parts must be positive integers: (3, 3, 3, 2, -1)",
        ),
    ],
)
def test_checks_keep_their_messages(check, args, error, message):
    with pytest.raises(error) as caught:
        check(*args)
    assert str(caught.value) == message


def test_checks_make_no_copy():
    # each check walks its tuple in place: a slice or sorted copy of these
    # would allocate 800 KB to 8 MB
    parts = (2,) * 500_000 + (1,) * 500_000
    hooks = tuple(range(100_000 - 1, -1, -1))
    tracemalloc.start()
    try:
        assert as_partition(parts) is parts
        assert check_hooks(hooks) is hooks
        assert DistinctPair(hooks, hooks).arms is hooks
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_inverse_map_leaves_no_shrunken_tuples():
    # tuple() of a map starts at ten slots and shrinks to fit, and the short
    # tuples freed afterwards stay on the interpreter's free lists.  The
    # steps build lists and size each tuple from one: mapping back every
    # partition with alternating sum 8 peaks near 57 KB on CPython 3.11,
    # against 138 KB when the steps build tuples from generator expressions
    partitions = enumerate_schmidt(8)
    schmidt_to_two_color(partitions[1])
    gc.collect()  # also empties the free lists
    tracemalloc.start()
    try:
        preimages = [schmidt_to_two_color(p) for p in partitions]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(preimages) == 185
    assert peak < 96 * 1024


def test_pad_colors_examples():
    assert pad_colors(TwoColorPartition((1, 1), (1,))) == PaddedPair((1, 1), (1, 0))
    assert pad_colors(TwoColorPartition((3,), ())) == PaddedPair((3,), (0,))
    assert pad_colors(TwoColorPartition((1,), (1,))) == PaddedPair((1,), (1,))


# each step with its input's empty value and the empty value it must give
EMPTY_VALUES = [
    (PaddedPair, ((), ()), PaddedPair((), ())),
    (DistinctPair, ((), ()), DistinctPair((), ())),
    (pad_colors, (TwoColorPartition(),), PaddedPair((), ())),
    (add_staircase, (PaddedPair((), ()),), DistinctPair((), ())),
    (remove_staircase, (DistinctPair((), ()),), TwoColorPartition()),
    (wright_build, (DistinctPair((), ()),), ()),
    (wright_split, ((),), DistinctPair((), ())),
    (hook_decompose, ((),), ()),
    (check_hooks, ((),), ()),
    (hook_compose, ((),), DistinctPair((), ())),
    (hooks_to_schmidt, ((),), ()),
    (schmidt_to_hooks, ((),), ()),
]


@pytest.mark.parametrize(
    "step,args,empty", EMPTY_VALUES, ids=[row[0].__name__ for row in EMPTY_VALUES]
)
def test_steps_take_the_empty_value(step, args, empty):
    # Wright's bijection is total: the empty diagram has the empty
    # Frobenius symbol, m = 0, so each step maps the empty value of its
    # input type to the empty value of its output type
    result = step(*args)
    assert result == empty and type(result) is type(empty)


def test_padded_pair_validation():
    with pytest.raises(ValueError):
        PaddedPair((0,), (0,))
    with pytest.raises(ValueError):
        PaddedPair((1, 0), (1,))


# -------------------------------------------------------------- staircase


@pytest.mark.parametrize(
    "red,green,arms,legs",
    [
        ((0, 0, 0), (1, 1, 1), (2, 1, 0), (3, 2, 1)),
        ((1, 1), (1, 0), (2, 1), (2, 0)),
        ((3,), (0,), (3,), (0,)),
    ],
)
def test_add_staircase(red, green, arms, legs):
    assert add_staircase(PaddedPair(red, green)) == DistinctPair(arms, legs)


def test_staircase_weight_shift():
    for n in range(15):
        for tc in enumerate_two_color(n):
            pair = add_staircase(pad_colors(tc))
            m = pair.m
            assert sum(pair.arms) + sum(pair.legs) == n + m * (m - 1)


@pytest.mark.parametrize(
    "arms,legs,red,green",
    [
        ((3, 2, 0), (5, 3, 1), (1, 1), (3, 2, 1)),
        ((3,), (0,), (3,), ()),
    ],
)
def test_remove_staircase(arms, legs, red, green):
    assert remove_staircase(DistinctPair(arms, legs)) == TwoColorPartition(red, green)


def test_remove_staircase_not_in_image():
    with pytest.raises(NotInImageError):
        remove_staircase(DistinctPair((5, 0), (1, 0)))


def test_staircase_round_trip():
    for n in range(11):
        for tc in enumerate_two_color(n):
            assert remove_staircase(add_staircase(pad_colors(tc))) == tc


# ----------------------------------------------------------------- wright


@pytest.mark.parametrize(
    "arms,legs,shape",
    [
        ((3, 2, 0), (5, 3, 1), (4, 4, 3, 3, 2, 1)),
        ((0,), (0,), (1,)),
        ((2, 1), (2, 0), (3, 3, 1)),
    ],
)
def test_wright_build(arms, legs, shape):
    assert wright_build(DistinctPair(arms, legs)) == shape


@pytest.mark.parametrize(
    "shape,arms,legs",
    [
        ((4, 4, 3, 3, 2, 1), (3, 2, 0), (5, 3, 1)),
        ((1,), (0,), (0,)),
        ((4,), (3,), (0,)),
    ],
)
def test_wright_split(shape, arms, legs):
    assert wright_split(shape) == DistinctPair(arms, legs)


def test_wright_round_trip_on_all_shapes():
    for n in range(13):
        for shape in partitions_of(n):
            pair = wright_split(shape)
            assert wright_build(pair) == shape


def test_wright_build_matches_cell_oracle():
    pairs = [wright_split(shape) for n in range(13) for shape in partitions_of(n)]
    # every pair with m <= 3 and entries <= 9, long legs beside short arms too
    pairs += [
        DistinctPair(arms, legs)
        for m in range(4)
        for arms in combinations(range(9, -1, -1), m)
        for legs in combinations(range(9, -1, -1), m)
    ]
    for pair in pairs:
        assert wright_build(pair) == build_by_cells(pair.arms, pair.legs)
        assert sum(wright_build(pair)) == sum(pair.arms) + sum(pair.legs) + pair.m


def rows_by_column_ends(arms, legs):
    # the rows of 1..m from the arms, then below the square one run of rows
    # per column end: column j ends in row legs[j] + j, so the rows between
    # the ends of columns j + 1 and j hold j cells
    m = len(arms)
    rows = [arm + j for j, arm in enumerate(arms, 1)]
    ends = [leg + j for j, leg in enumerate(legs, 1)] + [m]
    for j in range(m, 0, -1):
        rows += [j] * (ends[j - 1] - ends[j])
    return tuple(rows)


def distinct_descending(m, high):
    return st.sets(st.integers(0, high), min_size=m, max_size=m).map(
        lambda xs: tuple(sorted(xs, reverse=True))
    )


pairs_with_long_legs = st.integers(1, 4).flatmap(
    lambda m: st.builds(DistinctPair, distinct_descending(m, 10**6), distinct_descending(m, 10**6))
)


@given(pairs_with_long_legs)
def test_wright_build_matches_cell_oracle_on_long_legs(pair):
    shape = wright_build(pair)
    assert shape == rows_by_column_ends(pair.arms, pair.legs)
    assert sum(shape) == sum(pair.arms) + sum(pair.legs) + pair.m
    # the cell oracle holds one set entry per cell, so it runs on the
    # pairs small enough to lay out cell by cell
    if sum(shape) <= 10**4:
        assert shape == build_by_cells(pair.arms, pair.legs)


def test_forward_trace_hooks_are_those_of_its_diagram():
    # trace_forward reads the hooks off the pair; hook_decompose reads them
    # off the diagram that wright_build draws from the same pair
    for n in range(13):
        for tc in enumerate_two_color(n):
            _, pair, shape, hooks, _ = trace_forward(tc)
            assert hooks == hook_decompose(shape)
            assert wright_split(wright_build(pair)) == pair


def test_durfee_square():
    assert durfee_square((4, 4, 3, 3, 2, 1)) == 3
    assert durfee_square((1,)) == 1
    assert durfee_square((2, 2)) == 2


# ------------------------------------------------------------------ hooks


@pytest.mark.parametrize(
    "shape,hooks",
    [
        ((4, 4, 3, 3, 2, 1), (9, 7, 6, 4, 2, 0)),
        ((1,), (1, 0)),
        ((3, 3, 1), (5, 3, 2, 1)),
    ],
)
def test_hook_decompose(shape, hooks):
    assert hook_decompose(shape) == hooks


def test_hook_decompose_matches_cell_oracle():
    for n in range(11):
        for shape in partitions_of(n):
            assert hook_decompose(shape) == hooks_by_cells(shape)


@given(st.lists(st.integers(1, 60), min_size=1, max_size=60))
def test_hook_decompose_matches_cell_oracle_on_large_shapes(parts):
    shape = tuple(sorted(parts, reverse=True))
    assert hook_decompose(shape) == hooks_by_cells(shape)


@pytest.mark.parametrize(
    "hooks,pair,shape",
    [
        ((9, 7, 6, 4, 2, 0), DistinctPair((3, 2, 0), (5, 3, 1)), (4, 4, 3, 3, 2, 1)),
        ((4, 3), DistinctPair((3,), (0,)), (4,)),
    ],
)
def test_hook_compose(hooks, pair, shape):
    assert hook_compose(hooks) == pair
    assert wright_build(hook_compose(hooks)) == shape


@pytest.mark.parametrize("bad", [(3, 3, 1, 0), (1,), (4, 3, 2), (2, 3), (1, -1)])
def test_hook_compose_rejects(bad):
    with pytest.raises(NotInImageError):
        hook_compose(bad)


def test_hook_round_trip_on_all_shapes():
    for n in range(13):
        for shape in partitions_of(n):
            assert wright_build(hook_compose(hook_decompose(shape))) == shape


def test_hook_round_trip_on_all_vectors():
    # hook_compose trusts that every vector check_hooks accepts is in the
    # image; this checks it on every strictly decreasing vector of length
    # 0-8 with entries at most 11
    for length in range(0, 9, 2):
        for hooks in combinations(range(11, -1, -1), length):
            assert hook_decompose(wright_build(hook_compose(hooks))) == hooks


def test_hook_compose_matches_quadratic_leg_formula():
    # the legs' defining sum, recomputed for every hook, as oracle for the
    # running suffix sum
    for length in range(0, 9, 2):
        for hooks in combinations(range(12, -1, -1), length):
            m = length // 2
            ones = [hooks[2 * j] - hooks[2 * j + 1] for j in range(m)]
            legs = tuple(
                (m - j) + sum(o - 1 for o in ones[j - 1 :]) for j in range(1, m + 1)
            )
            arms = tuple(hooks[2 * j] - 1 - legs[j] for j in range(m))
            assert hook_compose(hooks) == DistinctPair(arms, legs)


def test_unmap_is_linear_in_the_number_of_hooks():
    start = time.perf_counter()
    schmidt_to_two_color(tuple(range(20000, 0, -1)))
    assert time.perf_counter() - start < 1.0


def test_hook_counts_strictly_decreasing():
    for n in range(11):
        for shape in partitions_of(n):
            hooks = hook_decompose(shape)
            assert all(a > b for a, b in zip(hooks, hooks[1:]))
            assert len(hooks) == 2 * durfee_square(shape)


# --------------------------------------------------- final staircase step


@pytest.mark.parametrize(
    "hooks,partition",
    [
        ((9, 7, 6, 4, 2, 0), (4, 3, 3, 2, 1)),
        ((4, 1), (3, 1)),
        ((1, 0), ()),
    ],
)
def test_hooks_to_schmidt(hooks, partition):
    assert hooks_to_schmidt(hooks) == partition


@pytest.mark.parametrize(
    "partition,hooks",
    [
        ((4, 3, 3, 2, 1), (9, 7, 6, 4, 2, 0)),
        ((3, 1), (4, 1)),
        ((3,), (4, 0)),
    ],
)
def test_schmidt_to_hooks(partition, hooks):
    assert schmidt_to_hooks(partition) == hooks


def test_schmidt_hooks_round_trip():
    for n in range(9):
        for partition in enumerate_schmidt(n):
            assert hooks_to_schmidt(schmidt_to_hooks(partition)) == partition


# ------------------------------------------------------------- composites

TABLE_N3 = [
    ("3r", "3+3"),
    ("3g", "3"),
    ("2r+1r", "2+2+1+1"),
    ("2g+1r", "3+1"),
    ("2r+1g", "3+2"),
    ("2g+1g", "2+1+1"),
    ("1r+1r+1r", "1+1+1+1+1+1"),
    ("1r+1r+1g", "2+1+1+1"),
    ("1r+1g+1g", "2+2+1"),
    ("1g+1g+1g", "1+1+1+1+1"),
]


@pytest.mark.parametrize("colored,plain", TABLE_N3)
def test_full_map_on_weight_three(colored, plain):
    tc = parse_two_color(colored)
    image = two_color_to_schmidt(tc)
    assert format_partition(image) == plain
    assert format_two_color(schmidt_to_two_color(image)) == colored


def test_full_map_examples():
    assert two_color_to_schmidt(TwoColorPartition((), ())) == ()
    assert two_color_to_schmidt(TwoColorPartition((1, 1), (3, 2, 1))) == (4, 3, 3, 2, 1)
    assert schmidt_to_two_color(()) == TwoColorPartition((), ())
    assert schmidt_to_two_color((4, 3, 3, 2, 1)) == TwoColorPartition((1, 1), (3, 2, 1))


def test_trace_forward_inverts_step_by_step():
    for n in range(11):
        for tc in enumerate_two_color(n):
            padded, pair, shape, hooks, image = trace_forward(tc)
            assert padded == pad_colors(tc)
            assert remove_staircase(pair) == tc
            assert wright_split(shape) == pair
            assert hook_compose(hooks) == pair
            assert schmidt_to_hooks(image) == hooks
            assert image == two_color_to_schmidt(tc)


def test_the_traces_of_weight_zero():
    # the steps' round trip of the empty value, against the closed form
    empty = TwoColorPartition()
    assert trace_forward(empty) == (PaddedPair((), ()), DistinctPair((), ()), (), (), ())
    assert trace_backward(()) == ((), DistinctPair((), ()), empty)
    assert trace_backward(())[-1] == schmidt_to_two_color(()) == empty


def test_round_trips_exhaustive():
    for n in range(11):
        for tc in enumerate_two_color(n):
            image = two_color_to_schmidt(tc)
            assert alternating_sum(image) == n
            assert schmidt_to_two_color(image) == tc
        for partition in enumerate_schmidt(n):
            assert two_color_to_schmidt(schmidt_to_two_color(partition)) == partition


def test_hook_weight_identity():
    for n in range(11):
        for tc in enumerate_two_color(n):
            pair = add_staircase(pad_colors(tc))
            hooks = hook_decompose(wright_build(pair))
            assert sum(hooks[::2]) == n + pair.m * pair.m


def test_statistic_transport():
    # largest part of the image adds the two largest colored parts; the
    # image length parity records which color had more parts
    for n in range(11):
        for tc in enumerate_two_color(n):
            image = two_color_to_schmidt(tc)
            m = max(tc.num_red, tc.num_green)
            assert max(image, default=0) == tc.max_red + tc.max_green
            assert (len(image) + 1) // 2 == m
            assert (len(image) % 2 == 1) == (tc.num_red < tc.num_green)


# -------------------------------------------------------------- rendering


def test_render_two_modular():
    assert render_two_modular((4,)) == "2 2 2 1"
    assert render_two_modular((1,)) == "1"
    assert render_two_modular((3, 1)) == "2 2 1\n1"
    assert render_two_modular(()) == ""
