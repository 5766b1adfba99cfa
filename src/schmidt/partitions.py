"""Integer partitions, two-color partitions, and exhaustive enumerators.

A partition is a weakly decreasing tuple of positive integers.  Its
alternating sum is the sum of the first, third, fifth, ... parts; a
partition is called a Schmidt partition of n when that sum equals n.
Two-color partitions are ordered pairs of partitions, thought of as one
multiset of parts painted red or green.  Both families are enumerated
exhaustively here, together with the bounded refinements of each count.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

Parts = tuple[int, ...]


def as_partition(parts: Iterable[int]) -> Parts:
    """Normalize ``parts`` to a tuple, checking the partition invariants.

    A tuple is returned as it is, not copied, and neither check copies it:
    each neighbour pair is compared in place through an offset iterator.
    A nonpositive part is reported before a misordered pair.
    """
    p = tuple(parts)
    decreasing = all(map(operator.ge, p, itertools.islice(p, 1, None)))
    # the least part of a weakly decreasing p is its last
    if p and (p[-1] if decreasing else min(p)) < 1:
        raise ValueError(f"parts must be positive integers: {p!r}")
    if not decreasing:
        raise ValueError(f"parts must be weakly decreasing: {p!r}")
    return p


def alternating_sum(p: Parts) -> int:
    """Sum of the parts in odd positions (first, third, fifth, ...)."""
    return sum(p[::2])


def conjugate(p: Parts) -> Parts:
    """Transpose the Young diagram of ``p``.

    The rows are read as runs of equal length.  A run ending after row j
    whose rows are d cells longer than the next row down (or than 0, for
    the last run) contributes d columns of length j.  The end of each run
    is found by binary search, so past the check of the rows, one pass in
    C, the cost is O(runs * log rows) plus the output, however many rows a
    run holds.
    """
    p = as_partition(p)
    rows = len(p)
    runs = []
    i = 0
    while i < rows:
        # p is decreasing, so -p is increasing: the first row shorter than p[i]
        j = bisect.bisect_right(p, -p[i], i, key=operator.neg)
        runs.append((j, p[i] - (p[j] if j < rows else 0)))
        i = j
    # the longest columns come from the last run
    columns = itertools.starmap(itertools.repeat, reversed(runs))
    return tuple(itertools.chain.from_iterable(columns))


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Parts]:
    """Yield every partition of ``n`` in descending lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    bound = n if max_part is None else min(max_part, n)
    if n == 0:
        yield ()
        return
    for first in range(bound, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def _schmidt_suffixes(remaining: int, bound: int) -> Iterator[Parts]:
    # Weakly decreasing positive tuples with first part <= bound whose
    # odd-position parts sum to ``remaining``.  Tuples are built from a
    # leading block (odd-position part, optional even-position part), so
    # each one is produced exactly once and termination is structural.
    # They come out in descending lexicographic order: each block is tried
    # from largest to smallest, and the lone ``(head,)``, a prefix of every
    # ``(head, even)`` and so smaller, is yielded after them.
    if remaining == 0:
        yield ()
        return
    for head in range(min(remaining, bound), 0, -1):
        rest = remaining - head
        if rest == 0:
            for even in range(head, 0, -1):
                yield (head, even)
            yield (head,)
        else:
            for even in range(head, 0, -1):
                for suffix in _schmidt_suffixes(rest, even):
                    yield (head, even) + suffix


def enumerate_schmidt(n: int) -> list[Parts]:
    """All partitions with alternating sum ``n``, descending lexicographic.

    Any such partition has first part at most n, at most 2n parts, and
    total weight at most 2n, since every even-position part is bounded by
    the odd-position part before it.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(_schmidt_suffixes(n, n))


def count_schmidt(n: int) -> int:
    """Number of partitions with alternating sum ``n``."""
    return len(enumerate_schmidt(n))


@dataclass(frozen=True)
class TwoColorPartition:
    """A pair of partitions: the red parts and the green parts."""

    red: Parts = ()
    green: Parts = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "red", as_partition(self.red))
        object.__setattr__(self, "green", as_partition(self.green))

    @property
    def weight(self) -> int:
        return sum(self.red) + sum(self.green)

    @property
    def num_red(self) -> int:
        return len(self.red)

    @property
    def num_green(self) -> int:
        return len(self.green)

    @property
    def max_red(self) -> int:
        return self.red[0] if self.red else 0

    @property
    def max_green(self) -> int:
        return self.green[0] if self.green else 0

    def sort_key(self) -> list[tuple[int, int]]:
        """Merged part list: largest size first, red before green on ties."""
        return sorted([(-s, 0) for s in self.red] + [(-s, 1) for s in self.green])


def enumerate_two_color(n: int) -> list[TwoColorPartition]:
    """All two-color partitions of weight ``n`` in canonical order.

    Canonical order sorts by the merged part list, largest part first with
    red preceding green on equal sizes.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = []
    for red_weight in range(n, -1, -1):
        greens = list(partitions_of(n - red_weight))
        out += [
            TwoColorPartition(red, green) for red in partitions_of(red_weight) for green in greens
        ]
    out.sort(key=TwoColorPartition.sort_key)
    return out


def count_two_color(n: int) -> int:
    """Number of two-color partitions of weight ``n``."""
    return len(enumerate_two_color(n))


@dataclass(frozen=True)
class RefinedQuery:
    """Bounds for the refined counts.

    Asks for weight ``n`` with exactly ``r`` red and ``l`` green parts, the
    largest red part at most ``p`` and the largest green part at most ``q``.
    """

    n: int
    r: int
    l: int
    p: int
    q: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if min(self.r, self.l, self.p, self.q) < 1:
            raise ValueError("r, l, p, q must be positive")


def enumerate_two_color_refined(query: RefinedQuery) -> list[TwoColorPartition]:
    """Two-color partitions of weight ``n`` matching all four bounds.

    Only pairs of r red parts at most p and l green parts at most q are
    built, and they are sorted in canonical order, so the result is the
    ordered sublist of ``enumerate_two_color(n)`` that meets the bounds.
    """
    n, r, l, p, q = query.n, query.r, query.l, query.p, query.q
    out = []
    # r parts in [1, p] weigh between r and r*p, likewise l parts in [1, q]
    for red_weight in range(max(r, n - l * q), min(r * p, n - l) + 1):
        reds = _decreasing(red_weight, r, 1, p)
        greens = _decreasing(n - red_weight, l, 1, q)
        out += [TwoColorPartition(red, green) for red in reds for green in greens]
    out.sort(key=TwoColorPartition.sort_key)
    return out


def _decreasing(total: int, count: int, low: int, high: int) -> list[tuple[int, ...]]:
    # Weakly decreasing count-tuples (count >= 1) with entries in [low, high]
    # summing to total, in descending lexicographic order.  The first entry
    # runs down from the largest that leaves low for every later entry to the
    # mean rounded up, so every recursive call has a nonempty answer.
    if not count * low <= total <= count * high:
        return []
    if count == 1:
        return [(total,)]
    out = []
    for first in range(min(high, total - (count - 1) * low), -(-total // count) - 1, -1):
        out += [(first,) + rest for rest in _decreasing(total - first, count - 1, low, first)]
    return out


def _bounded_vectors(length: int, cap: int, target: int) -> list[tuple[int, ...]]:
    # Weakly decreasing vectors of even length, entries in [0, cap], whose
    # odd-position (0-based even index) entries sum to ``target``.  Those
    # entries are a decreasing tuple of heads; each even-position entry then
    # ranges on its own from the head before it down to the head after it
    # (to 0 for the last), so each tuple's vectors are one product, built in
    # C.  Products of different heads interleave in lexicographic order, so
    # the whole list is sorted once at the end.
    out = []
    for heads in _decreasing(target, length // 2, 0, cap):
        factors = []
        for head, after in zip(heads, heads[1:] + (0,)):
            factors += [(head,), range(head, after - 1, -1)]
        out += itertools.product(*factors)
    out.sort(reverse=True)
    return out


def enumerate_schmidt_refined_literal(query: RefinedQuery) -> list[tuple[int, ...]]:
    """Fixed-length weakly decreasing vectors with bounded entries.

    Vectors have length exactly 2*max(r, l), entries in [0, p+q], and
    odd-position sum ``n``, in descending lexicographic order.  Trailing
    zeros are significant, so vectors that would trim to the same
    partition are distinct members.
    """
    return _bounded_vectors(2 * max(query.r, query.l), query.p + query.q, query.n)
