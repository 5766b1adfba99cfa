"""The map in closed form, and the statistics read off the Schmidt side.

Write g_i and r_i for the i-th green and red part, 0 past each color's
length.  The image of a two-color partition with m = max(#red, #green) is
(r1+g1, r1+g2, r2+g2, ..., rm+gm, rm+g(m+1)) with its trailing zeros cut,
so the preimage of a Schmidt partition s has its largest parts and its
part counts as alternating sums and drops of s, and its parts as the
differences of s.
"""

import itertools
import time

import hypothesis.strategies as st
from hypothesis import given

import schmidt.harness
from schmidt.bijection import (
    hook_decompose,
    schmidt_to_two_color,
    trace_backward,
    two_color_to_schmidt,
)
from schmidt.cli import main
from schmidt.partitions import TwoColorPartition, enumerate_schmidt, enumerate_two_color

MAX_WEIGHT = 12


def closed_form(tc):
    m = max(tc.num_red, tc.num_green)
    red = tc.red + (0,) * (m + 1 - tc.num_red)
    green = tc.green + (0,) * (m + 1 - tc.num_green)
    image = []
    for i in range(m):
        image += [red[i] + green[i], red[i] + green[i + 1]]
    while image and image[-1] == 0:
        image.pop()
    return tuple(image)


def closed_inverse(s):
    """The preimage of ``s`` read off its differences, with zeros past the end.

    s(2j-1) - s(2j) = g_j - g_(j+1) and s(2j) - s(2j+1) = r_j - r_(j+1), so
    each part of a color is the sum of that color's differences from it on.
    """
    padded = s + (0,) * (3 - len(s) % 2)
    green_steps = [padded[i] - padded[i + 1] for i in range(0, len(s), 2)]
    red_steps = [padded[i] - padded[i + 1] for i in range(1, len(s) + 1, 2)]

    def color(steps):
        parts = list(itertools.accumulate(reversed(steps)))
        return tuple(part for part in reversed(parts) if part)

    return TwoColorPartition(color(red_steps), color(green_steps))


def schmidt_statistics(s):
    """(largest green, largest red, #green, #red) of the preimage of ``s``."""
    padded = s + (0,)
    # s(2j-1) > s(2j) is a drop at 0-based index i = 2j - 2, and
    # s(2j) > s(2j+1) one at i = 2j - 1; either way j = i // 2 + 1
    drops = [i for i in range(len(s)) if padded[i] > padded[i + 1]]
    num_green = max((i // 2 + 1 for i in drops if i % 2 == 0), default=0)
    num_red = max((i // 2 + 1 for i in drops if i % 2 == 1), default=0)
    max_green = sum(s[0::2]) - sum(s[1::2])
    max_red = sum(s[1::2]) - sum(s[2::2])
    return max_green, max_red, num_green, num_red


def preimage_statistics(tc):
    return tc.max_green, tc.max_red, tc.num_green, tc.num_red


def test_closed_form_is_the_map_exhaustively():
    for n in range(MAX_WEIGHT + 1):
        for tc in enumerate_two_color(n):
            assert two_color_to_schmidt(tc) == closed_form(tc)


def test_closed_inverse_is_the_inverse_exhaustively():
    for n in range(MAX_WEIGHT + 1):
        for s in enumerate_schmidt(n):
            assert schmidt_to_two_color(s) == closed_inverse(s)


def test_schmidt_statistics_of_the_preimage_exhaustively():
    for n in range(MAX_WEIGHT + 1):
        for s in enumerate_schmidt(n):
            assert preimage_statistics(schmidt_to_two_color(s)) == schmidt_statistics(s)


large_partitions = st.lists(st.integers(1, 1000), max_size=8).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)
large_two_colors = st.tuples(large_partitions, large_partitions).map(
    lambda rg: TwoColorPartition(*rg)
)


@given(large_two_colors)
def test_closed_form_is_the_map(tc):
    assert two_color_to_schmidt(tc) == closed_form(tc)


@given(large_partitions)
def test_schmidt_statistics_of_the_preimage(s):
    assert preimage_statistics(schmidt_to_two_color(s)) == schmidt_statistics(s)


def descending(xs):
    return tuple(sorted(xs, reverse=True))


# parts near 10**18 are red only: the forward map's cost grows with the
# green parts, which become the rows below the Durfee square
huge_red_two_colors = st.tuples(
    st.lists(st.integers(1, 10**18), max_size=8).map(descending),
    st.lists(st.integers(1, 50), max_size=8).map(descending),
).map(lambda rg: TwoColorPartition(*rg))


@given(huge_red_two_colors)
def test_closed_form_is_the_map_on_huge_red_parts(tc):
    assert two_color_to_schmidt(tc) == closed_form(tc)


huge_partitions = st.lists(st.integers(1, 10**18), max_size=60).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


@given(huge_partitions)
def test_closed_inverse_is_the_inverse_on_huge_parts(s):
    assert schmidt_to_two_color(s) == closed_inverse(s)


def test_closed_inverse_is_the_inverse_steps_exhaustively():
    for n in range(1, MAX_WEIGHT + 1):
        for s in enumerate_schmidt(n):
            assert schmidt_to_two_color(s) == trace_backward(s)[-1]


@given(huge_partitions.filter(bool))
def test_closed_inverse_is_the_inverse_steps_on_huge_parts(s):
    assert schmidt_to_two_color(s) == trace_backward(s)[-1]


def verify_with_inverse_steps(capsys, monkeypatch, steps):
    monkeypatch.setattr(schmidt.harness, "trace_backward", steps)
    code = main(["verify", "--max-n", "4", "--roundtrip-cutoff", "4"])
    out, err = capsys.readouterr()
    return code, [line for line in out.splitlines() if line.startswith("FAIL:")], err


def test_verify_reports_closed_inverse_disagreeing_with_the_steps(capsys, monkeypatch):
    def wrong(partition):
        hooks, pair, preimage = trace_backward(partition)
        if partition == (2, 1):
            preimage = TwoColorPartition((2,), (1,))
        return hooks, pair, preimage

    code, fails, err = verify_with_inverse_steps(capsys, monkeypatch, wrong)
    assert (code, err) == (1, "")
    assert fails == ["FAIL: n=2: closed-form inverse disagrees with the steps at 2+1"]


def test_verify_reports_raising_inverse_steps_as_a_witness(capsys, monkeypatch):
    def raising(partition):
        if partition == (2, 1):
            raise ValueError("boom")
        return trace_backward(partition)

    code, fails, err = verify_with_inverse_steps(capsys, monkeypatch, raising)
    assert (code, err) == (1, "")
    assert fails == ["FAIL: n=2: round trip raised ValueError: boom at 2+1"]


def verify_with_hook_decompose(capsys, monkeypatch, decompose):
    monkeypatch.setattr(schmidt.harness, "hook_decompose", decompose)
    code = main(["verify", "--max-n", "4", "--roundtrip-cutoff", "4"])
    out, err = capsys.readouterr()
    return code, [line for line in out.splitlines() if line.startswith("FAIL:")], err


# 2r+1g has arms (2,) and legs (1,), so its diagram is 3+1
def test_verify_reports_forward_hooks_disagreeing_with_hook_decompose(capsys, monkeypatch):
    def wrong(shape):
        hooks = hook_decompose(shape)
        return (5, 1) if shape == (3, 1) else hooks

    code, fails, err = verify_with_hook_decompose(capsys, monkeypatch, wrong)
    assert (code, err) == (1, "")
    assert fails == [
        "FAIL: n=3: hooks of the forward trace differ from hook_decompose of its diagram at 2r+1g"
    ]


def test_verify_reports_raising_hook_decompose_as_a_witness(capsys, monkeypatch):
    def raising(shape):
        if shape == (3, 1):
            raise ValueError("boom")
        return hook_decompose(shape)

    code, fails, err = verify_with_hook_decompose(capsys, monkeypatch, raising)
    assert (code, err) == (1, "")
    # the check runs where the Schmidt side maps each preimage forward, and
    # 3+2 is the Schmidt partition whose preimage is 2r+1g
    assert fails == ["FAIL: n=3: round trip raised ValueError: boom at 3+2"]


def test_unmap_of_parts_near_a_quintillion_is_fast():
    s = tuple(range(10**18 + 10**5, 10**18, -1))
    start = time.perf_counter()
    preimage = schmidt_to_two_color(s)
    assert time.perf_counter() - start < 1.0
    assert preimage == closed_inverse(s)
