"""A weight-preserving bijection between two-color partitions and
partitions counted by their alternating sum.

The forward map runs through five reversible steps: pad the two colors to
a common length, add a staircase so both sequences become strictly
decreasing, assemble the pair into a Young diagram (a diagonal of cells
with the first sequence as arms and the second as legs), decompose the
diagram's 2-modular filling into hooks cornered on the diagonal, and
finally subtract a staircase from the interleaved hook counts.  Every
step is exposed on its own so that each can be tested and inverted
independently.  `trace_forward` is the one composition of the forward
steps, and `two_color_to_schmidt` returns its last value.  The inverse,
`schmidt_to_two_color`, is the closed form: the preimage's parts are the
alternating suffix sums of the Schmidt partition, read in O(parts).  The
inverse steps stay, composed once in `trace_backward`, as the paper's
construction and as the slow path `verify` checks the closed form
against.  Only the forward side draws the diagram: `trace_forward` reads
the hooks straight off the arms and legs it holds, and draws the diagram
once, with `wright_build`, for `render`; `hook_decompose` reads the same
hooks back off a drawn diagram through `wright_split`, and `verify`
checks the one against the other.  The inverse steps read the pair off
the hooks.  Both halves of Wright's bijection transpose with the one
column walk behind `conjugate`.
"""

from __future__ import annotations

import itertools
import operator

from .partitions import Parts, TwoColorPartition, _Frozen, _columns, _unchecked, as_partition, conjugate

__all__ = [
    "DistinctPair",
    "NotInImageError",
    "PaddedPair",
    "add_staircase",
    "check_hooks",
    "durfee_square",
    "hook_compose",
    "hook_decompose",
    "hooks_to_schmidt",
    "pad_colors",
    "remove_staircase",
    "render_two_modular",
    "schmidt_to_hooks",
    "schmidt_to_two_color",
    "trace_backward",
    "trace_forward",
    "two_color_to_schmidt",
    "wright_build",
    "wright_split",
]


class NotInImageError(ValueError):
    """An inverse step received a value outside the image of its forward step."""


def _check_counts(name: str, seq: tuple[int, ...], strictly: bool) -> None:
    if seq and min(seq) < 0:
        raise ValueError(f"{name} entries must be nonnegative: {seq!r}")
    # neighbours are compared through an offset iterator, without a copy
    if not all(map(operator.gt if strictly else operator.ge, seq, itertools.islice(seq, 1, None))):
        order = "strictly" if strictly else "weakly"
        raise ValueError(f"{name} must be {order} decreasing: {seq!r}")


class PaddedPair(_Frozen):
    """Red and green part sequences padded with zeros to a common length."""

    __slots__ = __match_args__ = ("red", "green")

    def __init__(self, red: tuple[int, ...], green: tuple[int, ...]) -> None:
        red, green = tuple(red), tuple(green)
        if len(red) != len(green):
            raise ValueError("padded sequences must have equal length")
        _check_counts("padded red", red, strictly=False)
        _check_counts("padded green", green, strictly=False)
        if red and red[-1] < 1 and green[-1] < 1:
            raise ValueError("at least one color must be zero-free")
        super().__init__(red, green)

    @property
    def m(self) -> int:
        return len(self.red)


class DistinctPair(_Frozen):
    """Strictly decreasing arm and leg lengths for a diagonal of cells."""

    __slots__ = __match_args__ = ("arms", "legs")

    def __init__(self, arms: tuple[int, ...], legs: tuple[int, ...]) -> None:
        arms, legs = tuple(arms), tuple(legs)
        if len(arms) != len(legs):
            raise ValueError("arm and leg sequences must have equal length")
        _check_counts("arms", arms, strictly=True)
        _check_counts("legs", legs, strictly=True)
        super().__init__(arms, legs)

    @property
    def m(self) -> int:
        return len(self.arms)


def pad_colors(two_color: TwoColorPartition) -> PaddedPair:
    """Extend the shorter color with zeros to length max(r, l).

    Needs no check: both colors are partitions, so zeros appended to them
    keep them weakly decreasing and nonnegative, and the longer one stays
    zero-free.  The empty two-color partition pads to two empty sequences.
    """
    red, green = two_color.red, two_color.green
    m = max(len(red), len(green))
    return _unchecked(PaddedPair, red + (0,) * (m - len(red)), green + (0,) * (m - len(green)))


def add_staircase(padded: PaddedPair) -> DistinctPair:
    """Add m-1, m-2, ..., 1, 0 to both sequences, forcing distinct parts.

    Needs no check: a strictly decreasing staircase added to a weakly
    decreasing nonnegative sequence is strictly decreasing and nonnegative.
    """
    red, green = padded.red, padded.green
    stairs = range(len(red) - 1, -1, -1)
    arms = list(map(operator.add, red, stairs))
    legs = list(map(operator.add, green, stairs))
    return _unchecked(DistinctPair, tuple(arms), tuple(legs))


def remove_staircase(pair: DistinctPair) -> TwoColorPartition:
    """Invert `add_staircase` followed by the zero padding.

    Both sequences of a `DistinctPair` strictly decrease and are
    nonnegative, so subtracting m-1, ..., 1, 0 always leaves weakly
    decreasing nonnegative sequences, whose zeros all come last.  Raises
    NotInImageError when neither color then has exactly m nonzero parts.
    """
    m = pair.m
    stairs = range(m - 1, -1, -1)
    red_padded = list(map(operator.sub, pair.arms, stairs))
    green_padded = list(map(operator.sub, pair.legs, stairs))
    red = red_padded[: m - red_padded.count(0)]
    green = green_padded[: m - green_padded.count(0)]
    if max(len(red), len(green)) != m:
        raise NotInImageError(f"padded length {m} does not match max(r, l): {pair!r}")
    return _unchecked(TwoColorPartition, tuple(red), tuple(green))


def wright_build(pair: DistinctPair) -> Parts:
    """Assemble a Young diagram from a diagonal with given arms and legs.

    Cell (j, j) is placed for j = 1..m, then arms[j] cells to its right
    and legs[j] cells below it.  The result is always a partition with
    sum(arms) + sum(legs) + m cells.  Rows 1..m, the Durfee square's, are
    arms[j] + j long: the arms strictly decrease, so these rows do not
    grow with j.  Column j ends in row legs[j] + j, so legs[j] + j - m of
    its cells lie below the square; these overhangs are nonnegative,
    because legs[j] >= m - j, and do not grow with j, because the legs
    strictly decrease.  The rows below the square are the conjugate of the
    nonzero overhangs, the inverse of how `wright_split` reads the legs,
    and each is at most m <= row m long.  The cost is O(m) plus that of
    `conjugate`, which grows with the rows below the square, not with the
    length of an arm.  Those rows are built in one list, made a tuple, and
    copied once more behind the square's m rows.
    """
    m = pair.m
    overhangs = list(map(operator.add, pair.legs, range(1 - m, 1)))
    # the overhangs do not grow, so their zeros come last
    del overhangs[len(overhangs) - overhangs.count(0) :]
    # a list made into a tuple, not tuple(map(...)): see schmidt_to_hooks
    rows = list(map(operator.add, pair.arms, range(1, m + 1)))
    return tuple(rows) + conjugate(overhangs)


def durfee_square(shape: Parts) -> int:
    """Side of the largest top-left square inside the diagram."""
    d = 0
    while d < len(shape) and shape[d] >= d + 1:
        d += 1
    return d


def wright_split(shape: Parts) -> DistinctPair:
    """Read arms and legs off the diagonal of a diagram.

    `as_partition` checks the shape, once.  Rows 1..m, the Durfee
    square's, give the arms.  Column j <= m holds m cells of the square
    plus column j of the rows below it, which are at most m long, so the
    legs come from the columns of those rows alone, read off the checked
    shape in place by the transpose behind `conjugate`.  The cost is the
    check plus O(runs * log rows + m) below the square, not the length of
    a row.  Row j and column j of a partition reach at least j inside its
    Durfee square and do not grow with j, so arms and legs strictly
    decrease from >= 0.  The empty diagram has an empty diagonal, m = 0.
    """
    shape = as_partition(shape)
    m = durfee_square(shape)
    below = _columns(shape, m)
    arms = list(map(operator.sub, shape[:m], range(1, m + 1)))
    legs = list(map(operator.add, below + (0,) * (m - len(below)), range(m - 1, -1, -1)))
    return _unchecked(DistinctPair, tuple(arms), tuple(legs))


def _hook_counts(pair: DistinctPair) -> tuple[int, ...]:
    # hook j holds arms[j] + legs[j] + 1 cells and arms[j] + legs[j + 1] + 1
    # twos, with legs[m + 1] = -1 (see hook_decompose)
    reach = list(map(operator.add, pair.arms, itertools.repeat(1)))
    out = [0] * (2 * pair.m)
    out[0::2] = map(operator.add, reach, pair.legs)
    out[1::2] = map(operator.add, reach, pair.legs[1:] + (-1,))
    return tuple(out)


def hook_decompose(shape: Parts) -> tuple[int, ...]:
    """Interleaved cell and 2-count per hook of the 2-modular filling.

    The filling writes 2 in every cell except a 1 in the last cell of each
    row.  Hook j consists of the diagonal cell (j, j), its arm, and its
    leg; the output lists (cells in hook 1, 2's in hook 1, cells in hook
    2, 2's in hook 2, ...), which is strictly decreasing.  With the arms
    and legs that `wright_split` reads, hook j holds arms[j] + legs[j] + 1
    cells and arms[j] + legs[j + 1] + 1 twos, where legs[m + 1] = -1: its
    ones end row j and the legs[j] - legs[j + 1] - 1 rows of its leg that
    column j + 1 does not reach.  These are the identities that
    `hook_compose` inverts.  `trace_forward` computes them from the pair
    it holds; this is the slow path that reads them off a drawn diagram,
    and `verify` checks that the two agree.
    """
    return _hook_counts(wright_split(shape))  # wright_split validates the shape


def check_hooks(hooks: tuple[int, ...]) -> tuple[int, ...]:
    """Validate an interleaved hook-count vector.

    Requires even length, nonnegative entries, and strictly decreasing
    order (which makes all parts distinct and every cell count positive).
    The empty vector, the hooks of the empty diagram, passes.  Raises
    NotInImageError otherwise.
    """
    hooks = tuple(hooks)
    if len(hooks) % 2 != 0:
        raise NotInImageError(f"hook vector must have even length: {hooks!r}")
    if hooks and min(hooks) < 0:
        raise NotInImageError(f"hook counts must be nonnegative: {hooks!r}")
    if not all(map(operator.gt, hooks, itertools.islice(hooks, 1, None))):
        raise NotInImageError(f"hook counts must be strictly decreasing: {hooks!r}")
    return hooks


def hook_compose(hooks: tuple[int, ...]) -> DistinctPair:
    """Read the arms and legs of the unique shape whose hooks are ``hooks``.

    With ones[j] the 1-count of hook j (cells minus 2's), the legs satisfy
    legs[j] = (m-j) + sum over k >= j of (ones[k] - 1), that is
    legs[j] + 1 = sum over k >= j of ones[k], and the arms follow from
    cells[j] = arms[j] + legs[j] + 1.  A vector that `check_hooks`
    accepts strictly decreases, so every ones[j] >= 1.  Consecutive legs
    then differ by ones[j] >= 1 and the last leg is ones[m] - 1 >= 0;
    consecutive arms differ by the 2-count of hook j minus the cell count
    of hook j+1, at least 1, and the last arm is the 2-count of hook m.
    So the pair is always valid, and its shape decomposes back to ``hooks``.
    """
    hooks = check_hooks(hooks)
    cells = hooks[0::2]
    ones = list(map(operator.sub, cells, hooks[1::2]))
    # legs[j] + 1 for every j: the suffix sums of ones, from the last hook up
    reach = list(itertools.accumulate(reversed(ones)))
    reach.reverse()
    legs = list(map(operator.sub, reach, itertools.repeat(1)))
    arms = list(map(operator.sub, cells, reach))
    return _unchecked(DistinctPair, tuple(arms), tuple(legs))


def hooks_to_schmidt(hooks: tuple[int, ...]) -> Parts:
    """Subtract the staircase 2m-1, ..., 1, 0 and trim trailing zeros.

    The hooks strictly decrease from a nonnegative last entry, so hooks[i]
    >= 2m-1-i and the result is always a partition.
    """
    hooks = check_hooks(hooks)
    out = list(map(operator.sub, hooks, range(len(hooks) - 1, -1, -1)))
    # out is weakly decreasing and nonnegative, so its zeros come last
    del out[len(out) - out.count(0) :]
    return tuple(out)


def schmidt_to_hooks(partition: Parts) -> tuple[int, ...]:
    """Zero-pad to even length and add the staircase 2m-1, ..., 1, 0."""
    p = as_partition(partition)
    length = 2 * ((len(p) + 1) // 2)
    padded = p + (0,) * (length - len(p))
    # tuple() sizes a list exactly, but starts a map at ten slots and then
    # shrinks it, which leaves tuples of the short size on the free lists
    return tuple(list(map(operator.add, padded, range(length - 1, -1, -1))))


def trace_forward(
    two_color: TwoColorPartition,
) -> tuple[PaddedPair, DistinctPair, Parts, tuple[int, ...], Parts]:
    """Every intermediate of the forward map: padded, pair, shape, hooks, image.

    The hooks come from the pair, not read back off the shape, which would
    cost a second transpose and a second check.  The empty two-color
    partition gives the empty value of each step.
    """
    padded = pad_colors(two_color)
    pair = add_staircase(padded)
    hooks = _hook_counts(pair)
    return padded, pair, wright_build(pair), hooks, hooks_to_schmidt(hooks)


def trace_backward(partition: Parts) -> tuple[tuple[int, ...], DistinctPair, TwoColorPartition]:
    """Every intermediate of the inverse steps: hooks, pair, preimage.

    The step-by-step inverse that `schmidt_to_two_color` computes in
    closed form, on the empty partition too.
    """
    hooks = schmidt_to_hooks(partition)
    pair = hook_compose(hooks)
    return hooks, pair, remove_staircase(pair)


def two_color_to_schmidt(two_color: TwoColorPartition) -> Parts:
    """Full forward map; the result's alternating sum equals the weight."""
    return trace_forward(two_color)[-1]


def schmidt_to_two_color(partition: Parts) -> TwoColorPartition:
    """Full inverse map, defined for every ordinary partition, in closed form.

    The image of a two-color partition is (r1+g1, r1+g2, r2+g2, ...,
    rm+gm, rm+g(m+1)), with g and r zero past each color's length, so the
    alternating suffix sums of s = (s1, s2, ...) telescope to its parts:
    s(2j-1) - s(2j) + s(2j+1) - ... = g_j and s(2j) - s(2j+1) + ... = r_j.
    Each difference of neighbours is nonnegative and the last part is
    positive, so both colors come out weakly decreasing and nonnegative,
    with their zeros last.  The cost is O(parts) in C-level maps, whatever
    the size of a part; `trace_backward` gives the same preimage step by
    step.
    """
    p = as_partition(partition)
    signed = list(p)
    signed[1::2] = map(operator.neg, p[1::2])
    # sums[i] is the signed suffix sum from part i on
    sums = list(itertools.accumulate(reversed(signed)))
    sums.reverse()
    green = sums[0::2]
    red = list(map(operator.neg, sums[1::2]))
    del green[len(green) - green.count(0) :]
    del red[len(red) - red.count(0) :]
    return _unchecked(TwoColorPartition, tuple(red), tuple(green))


def render_two_modular(shape: Parts) -> str:
    """ASCII 2-modular filling: one row per line, "2 " cells, final "1"."""
    shape = as_partition(shape)
    return "\n".join("2 " * (row - 1) + "1" for row in shape)
