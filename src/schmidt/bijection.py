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
steps; the composites are `two_color_to_schmidt` and
`schmidt_to_two_color`.  Only the forward side draws the diagram, with
`wright_build` and `wright_split`; the inverse reads the pair off the hooks.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .partitions import Parts, TwoColorPartition, _unchecked, as_partition, conjugate


class NotInImageError(ValueError):
    """An inverse step received a value outside the image of its forward step."""


def _check_counts(name: str, seq: tuple[int, ...], strictly: bool) -> None:
    if len(seq) < 1:
        raise ValueError(f"{name} must be nonempty")
    if min(seq) < 0:
        raise ValueError(f"{name} entries must be nonnegative: {seq!r}")
    # neighbours are compared through an offset iterator, without a copy
    if not all(map(operator.gt if strictly else operator.ge, seq, itertools.islice(seq, 1, None))):
        order = "strictly" if strictly else "weakly"
        raise ValueError(f"{name} must be {order} decreasing: {seq!r}")


@dataclass(frozen=True)
class PaddedPair:
    """Red and green part sequences padded with zeros to a common length."""

    red: tuple[int, ...]
    green: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "red", tuple(self.red))
        object.__setattr__(self, "green", tuple(self.green))
        if len(self.red) != len(self.green):
            raise ValueError("padded sequences must have equal length")
        _check_counts("padded red", self.red, strictly=False)
        _check_counts("padded green", self.green, strictly=False)
        if self.red[-1] < 1 and self.green[-1] < 1:
            raise ValueError("at least one color must be zero-free")

    @property
    def m(self) -> int:
        return len(self.red)


@dataclass(frozen=True)
class DistinctPair:
    """Strictly decreasing arm and leg lengths for a diagonal of cells."""

    arms: tuple[int, ...]
    legs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "arms", tuple(self.arms))
        object.__setattr__(self, "legs", tuple(self.legs))
        if len(self.arms) != len(self.legs):
            raise ValueError("arm and leg sequences must have equal length")
        _check_counts("arms", self.arms, strictly=True)
        _check_counts("legs", self.legs, strictly=True)

    @property
    def m(self) -> int:
        return len(self.arms)


def pad_colors(two_color: TwoColorPartition) -> PaddedPair:
    """Extend the shorter color with zeros to length max(r, l).

    Needs no check: both colors are partitions, so zeros appended to them
    keep them weakly decreasing and nonnegative, and the longer one stays
    zero-free.
    """
    m = max(two_color.num_red, two_color.num_green)
    if m == 0:
        raise ValueError("cannot pad the empty two-color partition")
    red = two_color.red + (0,) * (m - two_color.num_red)
    green = two_color.green + (0,) * (m - two_color.num_green)
    return _unchecked(PaddedPair, red, green)


def add_staircase(padded: PaddedPair) -> DistinctPair:
    """Add m-1, m-2, ..., 1, 0 to both sequences, forcing distinct parts.

    Needs no check: a strictly decreasing staircase added to a weakly
    decreasing nonnegative sequence is strictly decreasing and nonnegative.
    """
    stairs = range(padded.m - 1, -1, -1)
    arms = list(map(operator.add, padded.red, stairs))
    legs = list(map(operator.add, padded.green, stairs))
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
    sum(arms) + sum(legs) + m cells: the rows j + arms[j] strictly
    decrease with the arms, and each row #{j : legs[j] + j >= i} below
    them does not grow with i and is at most m <= row m.
    """
    m = pair.m
    rows = list(map(operator.add, pair.arms, range(1, m + 1)))
    # column j ends in row legs[j] + j, which does not grow with j, so rows
    # ends[j] + 1 .. ends[j - 1] below the diagonal hold exactly j cells,
    # and the shape is built in O(m + rows)
    ends = [leg + j for j, leg in enumerate(pair.legs, 1)] + [m]
    for j in range(m, 0, -1):
        rows += [j] * (ends[j - 1] - ends[j])
    return tuple(rows)


def durfee_square(shape: Parts) -> int:
    """Side of the largest top-left square inside the diagram."""
    d = 0
    while d < len(shape) and shape[d] >= d + 1:
        d += 1
    return d


def wright_split(shape: Parts) -> DistinctPair:
    """Read arms and legs off the diagonal of a nonempty diagram.

    Rows 1..m, the Durfee square's, give the arms.  Column j <= m holds m
    cells of the square plus column j of the rows below it, which are at
    most m long, so the legs come from the conjugate of those rows alone:
    the cost grows with the rows below the square, not with the length of
    a row.  `conjugate` checks those rows and one neighbour comparison
    checks rows 1..m + 1, which together prove the shape a partition; a
    failed check raises the whole shape's message.  Row j and column j of
    a partition reach at least j inside its Durfee square and do not grow
    with j, so arms and legs strictly decrease from >= 0.
    """
    shape = tuple(shape)
    m = durfee_square(shape)
    head = shape[: m + 1]
    try:
        below = conjugate(shape[m:])
        if not all(map(operator.ge, head, itertools.islice(head, 1, None))):
            raise ValueError
    except ValueError:
        as_partition(shape)  # raises with the whole shape's message
        raise
    if not shape:
        raise ValueError("cannot split the empty shape")
    arms = list(map(operator.sub, head[:m], range(1, m + 1)))
    legs = list(map(operator.add, below + (0,) * (m - len(below)), range(m - 1, -1, -1)))
    return _unchecked(DistinctPair, tuple(arms), tuple(legs))


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
    `hook_compose` inverts.
    """
    pair = wright_split(shape)  # validates the shape
    reach = list(map(operator.add, pair.arms, itertools.repeat(1)))
    out = [0] * (2 * pair.m)
    out[0::2] = map(operator.add, reach, pair.legs)
    out[1::2] = map(operator.add, reach, pair.legs[1:] + (-1,))
    return tuple(out)


def check_hooks(hooks: tuple[int, ...]) -> tuple[int, ...]:
    """Validate an interleaved hook-count vector.

    Requires even positive length, nonnegative entries, and strictly
    decreasing order (which makes all parts distinct and every cell count
    positive).  Raises NotInImageError otherwise.
    """
    hooks = tuple(hooks)
    if not hooks or len(hooks) % 2 != 0:
        raise NotInImageError(f"hook vector must have even positive length: {hooks!r}")
    if min(hooks) < 0:
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
    if not p:
        raise ValueError("cannot lift the empty partition")
    length = 2 * ((len(p) + 1) // 2)
    padded = p + (0,) * (length - len(p))
    # tuple() sizes a list exactly, but starts a map at ten slots and then
    # shrinks it, which leaves tuples of the short size on the free lists
    return tuple(list(map(operator.add, padded, range(length - 1, -1, -1))))


def trace_forward(
    two_color: TwoColorPartition,
) -> tuple[PaddedPair, DistinctPair, Parts, tuple[int, ...], Parts]:
    """Every intermediate of the forward map: padded, pair, shape, hooks, image.

    Raises ValueError on the empty two-color partition, which has no padding.
    """
    padded = pad_colors(two_color)
    pair = add_staircase(padded)
    shape = wright_build(pair)
    hooks = hook_decompose(shape)
    return padded, pair, shape, hooks, hooks_to_schmidt(hooks)


def two_color_to_schmidt(two_color: TwoColorPartition) -> Parts:
    """Full forward map; the result's alternating sum equals the weight."""
    if two_color.weight == 0:
        return ()
    return trace_forward(two_color)[-1]


def schmidt_to_two_color(partition: Parts) -> TwoColorPartition:
    """Full inverse map, defined for every ordinary partition."""
    p = tuple(partition)
    if not p:
        return TwoColorPartition((), ())
    return remove_staircase(hook_compose(schmidt_to_hooks(p)))


def render_two_modular(shape: Parts) -> str:
    """ASCII 2-modular filling: one row per line, "2 " cells, final "1"."""
    shape = as_partition(shape)
    return "\n".join("2 " * (row - 1) + "1" for row in shape)
