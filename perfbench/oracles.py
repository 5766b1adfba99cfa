"""Reference answers that never call the package under test.

Each workload's outputs are checked against these:

* `two_color_counts`: A000712 (two-color partitions of n) from Euler's
  pentagonal recurrence for p(n) followed by self-convolution.
* `refined_count`: two-color partitions of n with exactly r red parts
  <= p and exactly l green parts <= q, as the convolution of two
  "exactly r parts, each <= p" counts.
* `closed_map` / `closed_unmap`: the bijection in closed form.  With red
  padded to m = max(r, l) and green to m + 1 by zeros, the image is
  (r1+g1, r1+g2, r2+g2, r2+g3, ..., rm+gm, rm+g(m+1)) with trailing
  zeros cut; the inverse reads it backwards.
* `two_color_objects`: every two-color partition of n, as (red, green).
* `LiteralCounts`: the number of fixed-length bounded vectors that
  `enumerate_schmidt_refined_literal` lists.
"""

from __future__ import annotations


def partition_counts(max_n: int) -> list[int]:
    """p(0..max_n) by Euler's pentagonal number recurrence."""
    p = [1] + [0] * max_n
    for n in range(1, max_n + 1):
        total, k = 0, 1
        while True:
            first = n - k * (3 * k - 1) // 2
            if first < 0:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[first]
            second = n - k * (3 * k + 1) // 2
            if second >= 0:
                total += sign * p[second]
            k += 1
        p[n] = total
    return p


def two_color_counts(max_n: int) -> list[int]:
    """A000712(0..max_n): the self-convolution of p(n)."""
    p = partition_counts(max_n)
    return [sum(p[i] * p[n - i] for i in range(n + 1)) for n in range(max_n + 1)]


class BoxCounts:
    """Partitions of k into exactly r parts, each at most p."""

    def __init__(self) -> None:
        self._memo: dict[tuple[int, int, int], int] = {}

    def _at_most(self, k: int, parts: int, size: int) -> int:
        # partitions of k into at most `parts` parts, each at most `size`:
        # either no part equals `size`, or remove one part equal to it
        if k == 0:
            return 1
        if k < 0 or parts == 0 or size == 0:
            return 0
        key = (k, parts, size)
        if key not in self._memo:
            self._memo[key] = self._at_most(k, parts, size - 1) + self._at_most(
                k - size, parts - 1, size
            )
        return self._memo[key]

    def exactly(self, k: int, r: int, p: int) -> int:
        # removing the first column leaves at most r parts, each <= p - 1
        return self._at_most(k - r, r, p - 1) if k >= r else 0


def refined_count(boxes: BoxCounts, n: int, r: int, l: int, p: int, q: int) -> int:
    """Two-color partitions of n: exactly r red parts <= p, l green <= q."""
    return sum(boxes.exactly(k, r, p) * boxes.exactly(n - k, l, q) for k in range(n + 1))


def closed_map(red: tuple[int, ...], green: tuple[int, ...]) -> tuple[int, ...]:
    """Image of a two-color partition (parts descending) under the bijection."""
    m = max(len(red), len(green))
    r = list(red) + [0] * (m - len(red))
    g = list(green) + [0] * (m + 1 - len(green))
    out = []
    for j in range(m):
        out += [r[j] + g[j], r[j] + g[j + 1]]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def closed_unmap(parts: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(red, green) preimage of a partition: r_m = s_2m, g_j = s_2j-1 - r_j,
    r_j-1 = s_2j-2 - g_j."""
    if not parts:
        return (), ()
    m = (len(parts) + 1) // 2
    s = list(parts) + [0] * (2 * m - len(parts))
    r, g = [0] * m, [0] * m
    r[m - 1] = s[2 * m - 1]
    for j in range(m - 1, -1, -1):
        g[j] = s[2 * j] - r[j]
        if j:
            r[j - 1] = s[2 * j - 1] - g[j]
    return tuple(x for x in r if x), tuple(x for x in g if x)


def plain_text(parts: tuple[int, ...]) -> str:
    """The plain grammar: parts joined by "+", the empty partition is "0"."""
    return "+".join(map(str, parts)) if parts else "0"


def colored_text(red: tuple[int, ...], green: tuple[int, ...]) -> str:
    """Canonical colored grammar: largest first, red before green on ties."""
    merged = sorted([(-s, 0) for s in red] + [(-s, 1) for s in green])
    return "+".join(f"{-s}{'rg'[c]}" for s, c in merged) if merged else "0"


def partitions_of(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Every partition of n with parts at most ``largest``."""
    if n == 0:
        return [()]
    top = n if largest is None else min(n, largest)
    return [(first,) + rest for first in range(top, 0, -1) for rest in partitions_of(n - first, first)]


def two_color_objects(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (red, green) pair of partitions of total weight n."""
    return [
        (red, green)
        for k in range(n, -1, -1)
        for red in partitions_of(k)
        for green in partitions_of(n - k)
    ]


class LiteralCounts:
    """Weakly decreasing vectors of a fixed length with entries in
    [0, cap] whose entries at 0-based even indices sum to a target."""

    def __init__(self) -> None:
        self._memo: dict[tuple[int, int, int], int] = {}

    def count(self, length: int, cap: int, target: int) -> int:
        return self._fill(length, cap, target, 0)

    def _fill(self, left: int, bound: int, target: int, parity: int) -> int:
        # ``left`` entries remain, each at most ``bound``; the next one sits
        # at an even index when ``parity`` is 0
        if left == 0:
            return int(target == 0)
        key = (left, bound, target * 2 + parity)
        if key not in self._memo:
            self._memo[key] = sum(
                self._fill(left - 1, v, target - v if parity == 0 else target, 1 - parity)
                for v in range(0, (bound if parity else min(bound, target)) + 1)
            )
        return self._memo[key]
