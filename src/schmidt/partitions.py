"""Integer partitions, two-color partitions, and exhaustive enumerators.

A partition is a weakly decreasing tuple of positive integers.  Its
alternating sum is the sum of the first, third, fifth, ... parts; a
partition is called a Schmidt partition of n when that sum equals n.
Two-color partitions are ordered pairs of partitions, thought of as one
multiset of parts painted red or green.  Both families are enumerated here,
lazily (`iter_two_color`, `iter_schmidt`) and as sorted lists, with the
bounded refinements of each count, and counted for every weight up to a
bound without enumeration.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from collections.abc import Iterable, Iterator

__all__ = [
    "Parts",
    "RefinedQuery",
    "TwoColorPartition",
    "alternating_sum",
    "as_partition",
    "conjugate",
    "count_schmidt",
    "count_two_color",
    "enumerate_schmidt",
    "enumerate_schmidt_refined_literal",
    "enumerate_two_color",
    "enumerate_two_color_refined",
    "iter_schmidt",
    "iter_two_color",
    "partitions_of",
    "schmidt_counts",
    "two_color_counts",
]

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


class _Frozen:
    """Base of the immutable values, whose slots ``__match_args__`` names.

    A subclass sets ``__slots__ = __match_args__`` to two or more names.
    Its values are built positionally, one per name, and one whose fields
    need checks checks its arguments in ``__init__`` before storing them
    here.  Values are equal only within one class; hash, repr, copy and
    pickle read the fields' tuple, and copies and unpickling run the
    checking constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = property(operator.attrgetter(*cls.__match_args__))  # a tuple, read in C
        # each slot's own setter, which bypasses the raising __setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__match_args__)

    def __init__(self, *values) -> None:
        if len(values) != len(self._setters):
            expected = len(self._setters)
            raise TypeError(f"{type(self).__qualname__} takes {expected} values, not {len(values)}")
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        return hash(self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self.__match_args__, self._fields))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _unchecked(cls, a, b):
    """The one trusted constructor: the `_Frozen` value ``cls(a, b)``, unchecked.

    Only for values a step has proved valid; give each field as an exact
    ``tuple``.  The public constructors keep every check for outside input.
    """
    value = object.__new__(cls)
    set_first, set_second = cls._setters
    set_first(value, a)
    set_second(value, b)
    return value


def alternating_sum(p: Parts) -> int:
    """Sum of the parts in odd positions (first, third, fifth, ...)."""
    return sum(p[::2])


def conjugate(p: Parts) -> Parts:
    """Transpose the Young diagram of ``p``.

    `as_partition` checks the rows, one pass in C, and `_columns` reads
    the columns off them in O(runs * log rows) plus the output, however
    many rows a run holds.
    """
    return _columns(as_partition(p), 0)


def _columns(p: Parts, start: int) -> Parts:
    # The columns of the rows p[start:] of a checked partition, read in
    # place.  The rows are read as runs of equal length, from the top row
    # down.  A run that ends above row j, with rows d cells longer than row
    # j (or than 0, for the last run), gives d columns of length j - start,
    # so the columns come out shortest first: the top run's list is the one
    # the others extend, and it is reversed once and made a tuple.  The end
    # of each run is found by binary search.
    rows = len(p)
    if start >= rows:
        return ()
    part = p[start]
    # p is decreasing, so -p is increasing: the first row shorter than part
    j = bisect.bisect_right(p, -part, start, rows, key=operator.neg)
    shorter = p[j] if j < rows else 0
    columns = [j - start] * (part - shorter)
    while j < rows:
        part = shorter
        k = bisect.bisect_right(p, -part, j, rows, key=operator.neg)
        shorter = p[k] if k < rows else 0
        columns += [k - start] * (part - shorter)
        j = k
    columns.reverse()
    return tuple(columns)


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Parts]:
    """Yield every partition of ``n`` in descending lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    yield from map(tuple, _heads({}, n, n, n if max_part is None else max_part))


def _heads(factors: list | dict, count: int, total: int, cap: int) -> Iterator[list[int]]:
    # The partitions of total into at most count heads, each at most cap, in
    # descending lexicographic order, as one list updated in place (total 0
    # gives the one head 0).  Head h at index i is also written as
    # factors[2i] = (h,) after the range from the head before it (or cap)
    # down to h; factors is a list of 2 * count slots, or a dict, which grows
    # with the heads.  Next the last head h_i whose rest, the sum of it and
    # the heads after it, is at most (count - i)(h_i - 1) drops by one, and
    # the tail is refilled greedily (Knuth, TAOCP 4A, 7.2.1.4, Algorithm P).
    if total > count * cap:
        return
    heads = []
    prev, top, rest = cap, min(cap, total), total
    while True:
        at = 2 * len(heads)
        while rest or not heads:
            head = top if top < rest else rest
            factors[at - 1] = range(prev, head - 1, -1)
            factors[at] = (head,)
            heads.append(head)
            rest -= head
            at, prev = at + 2, head
        yield heads
        i = len(heads)
        while i:
            i -= 1
            head = heads[i]
            rest += head
            if rest <= (count - i) * (head - 1):
                break
        else:
            return
        del heads[i:]
        prev, top = heads[-1] if i else cap, head - 1


def iter_schmidt(n: int) -> Iterator[Parts]:
    """Yield the partitions with alternating sum ``n``, heads-major.

    The odd-position parts (the heads) h1 >= ... >= hk of such a partition
    are a partition of n, and each even-position part lies between the head
    before it and the head after it.  So for each partition of n as heads,
    taken in descending lexicographic order by one walk, the partitions of
    odd length are one product of ranges, and those of even length are the
    same product with one more factor, the last even part running from hk
    down to 1; each product is yielded in its own descending lexicographic
    order, the odd lengths first.  Every partition of alternating sum n is
    in exactly one product, once, since it fixes its heads and its even
    parts.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    # (h1,), range(h1, h2 - 1, -1), (h2,), ..., (hk,): each even part runs
    # from the head before it down to the head after it, or to 1 after hk
    factors = [()] * (2 * n)
    for heads in _heads(factors, n, n, n):
        odd = factors[: 2 * len(heads) - 1]
        yield from itertools.product(*odd)
        yield from itertools.product(*odd, range(heads[-1], 0, -1))


def enumerate_schmidt(n: int) -> list[Parts]:
    """All partitions with alternating sum ``n``, descending lexicographic: `iter_schmidt`'s, sorted."""
    return sorted(iter_schmidt(n), reverse=True)


def schmidt_counts(max_n: int) -> tuple[int, ...]:
    """Number of partitions with alternating sum n, for n = 0..max_n.

    Counted by a DP over blocks of a head and the even part after it, not
    by enumeration nor through the bijection.  Let F[r][b] count the ways
    to finish a partition whose heads still to place sum to r and whose
    later parts are all at most b, and S[r][b] = F[r][1] + ... + F[r][b].
    Then F[0][b] = 1 and F[r][0] = 0 for r > 0.  The finishes that F[r][b]
    counts and F[r][b - 1] does not are those whose next head is b, which
    needs b <= r: that head ends the partition (if b = r) or is followed by
    an even part e <= b, and then by one of the F[r - b][e] finishes:

        F[r][b] = F[r][b - 1] + [b = r] + S[r - b][b]   for b <= r,
        F[r][b] = F[r][b - 1]                           for b > r.

    Column b overwrites column b - 1 in two lists of max_n + 1 entries,
    taking the rows r in ascending order, so S[r - b] already holds column
    b when row r reads it.  The count for n is F[n][n] = F[n][max_n]:
    O(max_n**2) additions and O(max_n) memory.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    # F[r][b] and S[r][b], allocated whole so that a max_n too large to hold fails here
    finish = [1] + [0] * max_n
    prefix = [0] * (max_n + 1)
    for b in range(1, max_n + 1):
        finish[b] += 1  # the head b = r ends the partition
        # rows r < b keep F[r][b] = F[r][b - 1]
        prefix[:b] = map(operator.add, prefix[:b], finish[:b])
        for r in range(b, max_n + 1):
            finish[r] += prefix[r - b]
            prefix[r] += finish[r]
    return tuple(finish)


def count_schmidt(n: int) -> int:
    """Entry ``n`` of `schmidt_counts(n)`: O(n²) additions, O(n) memory; for many n, call that once."""
    return schmidt_counts(n)[n]


class TwoColorPartition(_Frozen):
    """A pair of partitions, the red parts and the green parts, each checked by `as_partition`."""

    __slots__ = __match_args__ = ("red", "green")

    def __init__(self, red: Parts = (), green: Parts = ()) -> None:
        super().__init__(as_partition(red), as_partition(green))

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


def iter_two_color(n: int) -> Iterator[TwoColorPartition]:
    """Yield the two-color partitions of weight ``n`` in canonical order.

    Canonical order sorts by the merged part list, largest part first with
    red preceding green on equal sizes.  Number each colored part by its
    kind, 2s + 1 for a red part s and 2s for a green part s: a merged list
    in that order is a list of kinds in non-increasing order, and canonical
    order compares those lists by their kinds, larger first.  One
    depth-first walk picks each next kind from the largest allowed down,
    so it visits the lists in that order; two lists of equal weight are
    never prefixes of one another, so the order of its leaves is the
    canonical order and no sort is needed.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    # A node extends red and green by non-increasing positive parts of kind at
    # most top summing to rest, so a leaf needs no check.  Per size, green's
    # kind 2s is pushed before red's 2s + 1, so the largest kind pops first.
    stack = [((), (), n, 2 * n + 1)]
    while stack:
        red, green, rest, top = stack.pop()
        if not rest:
            yield _unchecked(TwoColorPartition, red, green)
            continue
        for size in range(1, min(top >> 1, rest) + 1):
            stack.append((red, green + (size,), rest - size, 2 * size))
            if 2 * size < top:
                stack.append((red + (size,), green, rest - size, 2 * size + 1))


def enumerate_two_color(n: int) -> list[TwoColorPartition]:
    """All two-color partitions of weight ``n``, in the canonical order of `iter_two_color`."""
    return list(iter_two_color(n))


def two_color_counts(max_n: int) -> tuple[int, ...]:
    """Number of two-color partitions of n, for n = 0..max_n.

    A pair of weights k and n - k gives p(k) * p(n - k) pairs, so the counts
    are the self-convolution of the partition numbers p, which come from
    Euler's pentagonal recurrence

        p(k) = sum over j >= 1 of (-1)^(j+1) (p(k - j(3j-1)/2) + p(k - j(3j+1)/2)).
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    p = [1] + [0] * max_n  # allocated whole, as in schmidt_counts
    for k in range(1, max_n + 1):
        total = 0
        for j in itertools.count(1):
            pentagonal = j * (3 * j - 1) // 2
            if pentagonal > k:
                break
            term = p[k - pentagonal] + (p[k - pentagonal - j] if pentagonal + j <= k else 0)
            total += term if j % 2 else -term
        p[k] = total
    return tuple(sum(map(operator.mul, p[: n + 1], reversed(p[: n + 1]))) for n in range(max_n + 1))


def count_two_color(n: int) -> int:
    """Entry ``n`` of `two_color_counts(n)`: O(n²) additions, O(n) memory; for many large n,
    call that once.  The CLI's entry check calls this for n = 1, 2, ... up to 28 at most."""
    return two_color_counts(n)[n]


class RefinedQuery(_Frozen):
    """Bounds for the refined counts.

    Asks for weight ``n`` with exactly ``r`` red and ``l`` green parts, the
    largest red part at most ``p`` and the largest green part at most ``q``.
    The constructor checks that n >= 0 and the other four are positive.
    """

    __slots__ = __match_args__ = ("n", "r", "l", "p", "q")

    def __init__(self, n: int, r: int, l: int, p: int, q: int) -> None:
        if n < 0:
            raise ValueError("n must be nonnegative")
        if min(r, l, p, q) < 1:
            raise ValueError("r, l, p, q must be positive")
        super().__init__(n, r, l, p, q)


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
        reds = _decreasing(red_weight, r, p)
        greens = _decreasing(n - red_weight, l, q)
        # _decreasing gives positive weakly decreasing tuples
        out += [_unchecked(TwoColorPartition, red, green) for red in reds for green in greens]
    out.sort(key=TwoColorPartition.sort_key)
    return out


def _decreasing(total: int, count: int, high: int) -> list[tuple[int, ...]]:
    # Weakly decreasing count-tuples of entries in [1, high] summing to total,
    # count <= total <= count * high, descending lexicographic: 1 plus each
    # partition of total - count into at most count parts < high, zero-padded.
    if count == 1:
        return [(total,)]
    if count == 2:
        return [(first, total - first) for first in range(min(high, total - 1), (total - 1) // 2, -1)]
    ones = (1,) * count
    return [
        (*map(operator.add, heads, ones), *ones[len(heads) :])
        for heads in _heads({}, count, total - count, high - 1)
    ]


def enumerate_schmidt_refined_literal(query: RefinedQuery) -> list[tuple[int, ...]]:
    """Fixed-length weakly decreasing vectors with bounded entries.

    Vectors have length exactly 2*max(r, l), entries in [0, p+q], and
    odd-position sum ``n``, in descending lexicographic order.  Trimming
    the trailing zeros is a bijection from the members onto the partitions
    of alternating sum n with at most 2*max(r, l) parts and no part above
    p+q; padding with zeros to length 2*max(r, l) is its inverse.

    The odd-position entries are the heads h1 >= ... >= hk, k = max(r, l).
    The positive heads come from the walk of `iter_schmidt`, the heads
    after them are 0, and each head tuple's vectors are one product of
    ranges, built in C.  Products of different heads interleave when
    k >= 3, so the list is sorted once at the end.
    """
    k, cap = max(query.r, query.l), query.p + query.q
    out: list[tuple[int, ...]] = []
    factors = [()] * (2 * k)
    for heads in _heads(factors, k, query.n, cap):
        end = 2 * len(heads) - 1
        # the even part after the last head hj runs from hj to 0, then all 0
        factors[end] = range(heads[-1], -1, -1)
        factors[end + 1 :] = [(0,)] * (2 * k - end - 1)
        out += itertools.product(*factors)
    out.sort(reverse=True)
    return out
