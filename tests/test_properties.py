import hypothesis.strategies as st
from hypothesis import given

from schmidt.bijection import (
    add_staircase,
    hook_decompose,
    pad_colors,
    schmidt_to_two_color,
    two_color_to_schmidt,
    wright_build,
    wright_split,
)
from schmidt.partitions import (
    TwoColorPartition,
    alternating_sum,
    conjugate,
)
from schmidt.textform import (
    format_partition,
    format_two_color,
    parse_partition,
    parse_two_color,
)

partitions = st.lists(st.integers(1, 25), max_size=10).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)
two_colors = st.tuples(partitions, partitions).map(lambda rg: TwoColorPartition(*rg))


@given(partitions)
def test_conjugate_is_an_involution(p):
    assert conjugate(conjugate(p)) == p


@given(partitions)
def test_conjugate_preserves_weight(p):
    assert sum(conjugate(p)) == sum(p)


@given(partitions)
def test_plain_text_round_trip(p):
    assert parse_partition(format_partition(p)) == p


@given(two_colors)
def test_colored_text_round_trip(tc):
    assert parse_two_color(format_two_color(tc)) == tc


@given(two_colors)
def test_forward_then_back_is_identity(tc):
    image = two_color_to_schmidt(tc)
    assert alternating_sum(image) == tc.weight
    assert schmidt_to_two_color(image) == tc


@given(partitions)
def test_back_then_forward_is_identity(p):
    assert two_color_to_schmidt(schmidt_to_two_color(p)) == p


@given(two_colors)
def test_weight_identities(tc):
    pair = add_staircase(pad_colors(tc))
    m = pair.m
    assert sum(pair.arms) + sum(pair.legs) == tc.weight + m * (m - 1)
    hooks = hook_decompose(wright_build(pair))
    assert sum(hooks[::2]) == tc.weight + m * m


@given(two_colors)
def test_statistic_transport(tc):
    image = two_color_to_schmidt(tc)
    assert max(image, default=0) == tc.max_red + tc.max_green
    assert (len(image) % 2 == 1) == (tc.num_red < tc.num_green)


@given(partitions)
def test_wright_round_trip(shape):
    assert wright_build(wright_split(shape)) == shape
