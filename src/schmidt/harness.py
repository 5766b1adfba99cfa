"""Verification reports: count agreement, round trips, and refinements.

`verify_report` compares three counts built without enumeration (the
Schmidt-side DP, the recurrence from Jacobi's identity, and the series),
and up to its round-trip cutoff streams both sides through one trip
each: `_two_color_trip` maps a two-color partition there and back, and
`_schmidt_trip` maps a Schmidt partition back and there, checking the
closed-form inverse and the forward hooks against the paper's steps on
the way.  `refined_report` and `table_lines` enumerate; `refined_report`
reads its literal counts off the Schmidt walk that it maps back.  Every
report is a pure function of its arguments, a `_Frozen` value, and
`format_report` writes it in any of `FORMATS` (from `textform`).
`table_lines` and `render_text` are the pages of `table` and `render`.
Pages and reports are iterables of lines without newlines;
`format_report` and `table_lines` make each line as it is read, so a
large report or table is never held whole.  The command line imports
this module only for those commands, so `map` and `unmap` start without
it.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from collections.abc import Callable, Iterator

from .bijection import (
    hook_decompose,
    render_two_modular,
    schmidt_to_two_color,
    trace_backward,
    trace_forward,
    two_color_to_schmidt,
)
from .partitions import (
    Parts,
    TwoColorPartition,
    _Frozen,
    alternating_sum,
    enumerate_two_color,
    iter_schmidt,
    iter_two_color,
    schmidt_counts,
    two_color_counts,
)
from .series import two_color_coefficients
from .textform import FORMATS, format_partition, format_two_color


def _bool(value: bool) -> str:
    return "true" if value else "false"


# Each report and record is built positionally, in the order of its
# __match_args__, which is also its JSON key order.
class VerifyRecord(_Frozen):
    __slots__ = __match_args__ = (
        "n", "s_count", "t_count", "series_count", "round_trip_checked", "ok",
    )


class VerifyReport(_Frozen):
    __slots__ = __match_args__ = ("max_n", "roundtrip_cutoff", "ok", "witness", "records")

    @property
    def summary(self) -> str:
        if not self.ok:
            return f"FAIL: {self.witness}"
        bounds = f"max_n={self.max_n}, cutoff={self.roundtrip_cutoff}"
        return f"PASS: counts agree and round trips hold ({bounds})"

    def _text_rows(self) -> Iterator[str]:
        for r in self.records:
            yield (
                f"n={r.n} s={r.s_count} t={r.t_count} series={r.series_count}"
                f" roundtrips={r.round_trip_checked} {'ok' if r.ok else 'MISMATCH'}"
            )

    def _csv_rows(self) -> Iterator[str]:
        yield "n,s,t,series,pass"
        for r in self.records:
            yield f"{r.n},{r.s_count},{r.t_count},{r.series_count},{_bool(r.ok)}"


class RefinedRecord(_Frozen):
    __slots__ = __match_args__ = (
        "n", "r", "l", "p", "q", "t_refined", "s_literal", "transported_count",
        "literal_match", "transported_match",
    )


class RefinedReport(_Frozen):
    __slots__ = __match_args__ = (
        "max_n", "max_r", "max_l", "max_p", "max_q", "ok", "records", "witness",
    )

    @property
    def summary(self) -> str:
        if self.ok:
            return "PASS: transported counts agree"
        if self.witness:
            return f"FAIL: {self.witness}"
        # with no witness, ok is false only when some transported count differs
        r = next(r for r in self.records if not r.transported_match)
        cell = f"n={r.n} r={r.r} l={r.l} p={r.p} q={r.q}"
        return f"FAIL: {cell} t_refined={r.t_refined} transported={r.transported_count}"

    def _text_rows(self) -> Iterator[str]:
        records = self.records
        for r in records:
            yield (
                f"n={r.n} r={r.r} l={r.l} p={r.p} q={r.q}"
                f" t_refined={r.t_refined} s_literal={r.s_literal}"
                f" transported={r.transported_count}"
                f" literal_match={_bool(r.literal_match)}"
                f" transported_match={_bool(r.transported_match)}"
            )
        yield (
            f"cells={len(records)}"
            f" transported_match={sum(r.transported_match for r in records)}"
            f" literal_match={sum(r.literal_match for r in records)}"
        )

    def _csv_rows(self) -> Iterator[str]:
        yield "n,r,l,p,q,t_refined,s_literal,transported,literal_match,transported_match"
        for r in self.records:
            yield (
                f"{r.n},{r.r},{r.l},{r.p},{r.q},{r.t_refined},{r.s_literal},"
                f"{r.transported_count},{_bool(r.literal_match)},{_bool(r.transported_match)}"
            )


def table_lines(n: int) -> Iterator[str]:
    """One "colored <-> plain" line per two-color partition of weight ``n``,
    in canonical order, each object mapped as its line is read.

    Weight zero has no lines: its one object, the degenerate empty mapping,
    is not in the table.  A negative ``n`` raises here, before any line is read.
    """
    objects = iter_two_color(n)
    if n <= 0:
        next(objects)  # a negative n raises here; weight zero's one object is skipped
    return (
        f"{format_two_color(tc)} <-> {format_partition(two_color_to_schmidt(tc))}"
        for tc in objects
    )


def render_text(two_color: TwoColorPartition, colored: str) -> list[str]:
    """The lines of ``render``: the text ``colored`` that was parsed into
    ``two_color``, its two colors, every intermediate of the forward map
    from `trace_forward` with the 2-modular diagram, and the image."""
    lines = [
        f"input: {colored}",
        f"red: {format_partition(two_color.red)}",
        f"green: {format_partition(two_color.green)}",
    ]
    _, pair, shape, hooks, image = trace_forward(two_color)
    if two_color.weight:
        lines += [
            f"arms: {' '.join(map(str, pair.arms))}",
            f"legs: {' '.join(map(str, pair.legs))}",
            f"shape: {' '.join(map(str, shape))}",
            "diagram:",
            *render_two_modular(shape).split("\n"),
            f"hooks: {' '.join(map(str, hooks))}",
        ]
    lines.append(f"schmidt: {format_partition(image)}")
    return lines


def _two_color_trip(n: int, two_color: TwoColorPartition) -> str | None:
    image = two_color_to_schmidt(two_color)
    if alternating_sum(image) == n and schmidt_to_two_color(image) == two_color:
        return None
    return f"round trip failed at {format_two_color(two_color)}"


def _schmidt_trip(n: int, partition: Parts) -> str | None:
    # the fast paths against the slow steps: the closed-form inverse against
    # trace_backward, and the hooks trace_forward reads off its pair against
    # those hook_decompose reads off its diagram
    preimage = schmidt_to_two_color(partition)
    if trace_backward(partition)[-1] != preimage:
        return f"closed-form inverse disagrees with the steps at {format_partition(partition)}"
    if preimage.weight == n:
        _, _, shape, hooks, image = trace_forward(preimage)
        if hook_decompose(shape) != hooks:
            return (
                "hooks of the forward trace differ from hook_decompose of its diagram"
                f" at {format_two_color(preimage)}"
            )
        if image == partition:
            return None
    return f"round trip failed at {format_partition(partition)}"


def _round_trips(
    n: int, objects: Iterator, trip: Callable, show: Callable[..., str]
) -> tuple[int, str | None]:
    # Run ``trip`` on each object, stopping at the first whose trip returns
    # a witness or raises.  Returns the objects checked and that witness;
    # on a stop, the objects after it are left in ``objects``.
    checked = 0
    for checked, obj in enumerate(objects, 1):
        try:
            failure = trip(n, obj)
        except Exception as exc:  # a raising map is a witness, not a crash
            failure = f"round trip raised {type(exc).__name__}: {exc} at {show(obj)}"
        if failure:
            return checked, f"n={n}: {failure}"
    return checked, None


def verify_report(max_n: int, roundtrip_cutoff: int = 12) -> VerifyReport:
    """Compare three independent counts and run the round trips.

    For each n the Schmidt count comes from `schmidt_counts`, the two-color
    count from Jacobi's identity and the third from the series, each table
    built once without enumerating.  For n up to the cutoff, both sides are
    read once as streams (`iter_two_color`, `iter_schmidt`), counted as they
    pass against their counts, and each object runs its side's trip:
    `_two_color_trip` checks that the image has alternating sum n and maps
    back; `_schmidt_trip` checks that the closed-form preimage equals the
    one of the inverse steps and has weight n, and that, traced forward,
    its hooks read off the pair equal those `hook_decompose` reads off its
    diagram and its image is the partition.  A map that raises fails its
    trip, and the witness names the exception.  The witness is the first
    failure of the first failing n: its count mismatch, else its length
    mismatch, else its first failed trip, the two-color side before the
    Schmidt side, which is met in `iter_schmidt`'s heads-major order.
    """
    if max_n < 1:
        raise ValueError("max_n must be positive")
    if roundtrip_cutoff < 0:
        raise ValueError("roundtrip_cutoff must be nonnegative")
    counts = zip(schmidt_counts(max_n), two_color_counts(max_n), two_color_coefficients(max_n))
    next(counts)  # weight 0 has no record
    records = []
    witness = None
    for n, (s, t, series) in enumerate(counts, 1):
        checked = 0
        ok = s == t == series
        if not ok:
            witness = witness or f"n={n}: s={s} t={t} series={series}"
        if n <= roundtrip_cutoff:
            two_color_side = iter_two_color(n)
            checked, failure = _round_trips(n, two_color_side, _two_color_trip, format_two_color)
            enumerated_t = checked + sum(1 for _ in two_color_side)
            schmidt_side = iter_schmidt(n)
            back_checked, back_failure = _round_trips(
                n, schmidt_side, _schmidt_trip, format_partition
            )
            enumerated_s = back_checked + sum(1 for _ in schmidt_side)
            if (enumerated_s, enumerated_t) != (s, t):
                ok = False
                witness = witness or (
                    f"n={n}: enumerated s={enumerated_s} t={enumerated_t},"
                    f" counted s={s} t={t}"
                )
            checked += back_checked
            failure = failure or back_failure
            if failure:
                ok = False
                witness = witness or failure
        records.append(VerifyRecord(n, s, t, series, checked, ok))
    ok = all(r.ok for r in records)
    return VerifyReport(max_n, roundtrip_cutoff, ok, witness, tuple(records))


def _stats(tc: TwoColorPartition) -> tuple[int, int, int, int]:
    return (tc.num_red, tc.num_green, tc.max_red, tc.max_green)


def _by_part_counts(tally: Counter) -> dict[tuple[int, int], list[tuple[int, int, int]]]:
    # a (num_red, num_green, max_red, max_green) tally grouped by its part
    # counts, each entry as (max_red, max_green, count)
    groups: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for (nr, ng, mr, mg), count in tally.items():
        groups.setdefault((nr, ng), []).append((mr, mg, count))
    return groups


def _cell_count(groups: dict, r: int, l: int, p: int, q: int) -> int:
    # entries of cell (r, l, p, q): only the (r, l) group is scanned
    return sum(count for mr, mg, count in groups.get((r, l), ()) if mr <= p and mg <= q)


def refined_report(
    max_n: int, max_r: int, max_l: int, max_p: int, max_q: int
) -> RefinedReport:
    """Run the refinement grid.

    t_refined counts two-color partitions matching the bounds directly;
    s_literal counts the fixed-length bounded vectors; transported_count
    counts partitions of alternating sum n whose preimage statistics
    match the bounds.  Only transported_match feeds the pass flag, the
    literal column is recorded as data.  For each weight, every two-color
    partition (from the list `enumerate_two_color`) and every preimage (of
    the stream `iter_schmidt`) is enumerated once, and its statistics are
    tallied and grouped by (num_red, num_green), so a cell scans only its
    own group.  Trimmed of its zeros, a literal vector is a partition of
    alternating sum n with at most max(r, l) heads and no part above p+q,
    one to one, so the same walk tallies (heads, largest part), and each
    literal count, one per weight and (min(max(r, l), n), p+q), sums that
    tally and reads no map.  An inverse map that raises fails the report,
    and the witness names the first partition it raised at, in
    `iter_schmidt`'s heads-major order; that partition is left out of the
    map's tally.
    """
    if min(max_n, max_r, max_l, max_p, max_q) < 1:
        raise ValueError("all grid bounds must be positive")
    grid = list(itertools.product(*(range(1, b + 1) for b in (max_r, max_l, max_p, max_q))))
    records = []
    witness = None
    for n in range(1, max_n + 1):
        # a list, not iter_two_color: perfbench's layer gate expects this call on `refined`
        direct = _by_part_counts(Counter(_stats(tc) for tc in enumerate_two_color(n)))
        preimages: Counter = Counter()
        shapes: Counter = Counter()  # (heads, largest part) of each partition
        for partition in iter_schmidt(n):
            shapes[(len(partition) + 1) // 2, partition[0]] += 1
            try:
                preimages[_stats(schmidt_to_two_color(partition))] += 1
            except Exception as exc:  # a raising map is a witness, not a crash
                witness = witness or (
                    f"n={n}: inverse map raised {type(exc).__name__}: {exc}"
                    f" at {format_partition(partition)}"
                )
        transported = _by_part_counts(preimages)
        literal: dict[tuple[int, int], int] = {}
        for r, l, p, q in grid:
            # past n heads every head is 0, so max(r, l) counts only up to n
            heads, cap = key = (min(max(r, l), n), p + q)
            if key not in literal:
                literal[key] = sum(c for (k, top), c in shapes.items() if k <= heads and top <= cap)
            t_refined = _cell_count(direct, r, l, p, q)
            s_literal = literal[key]
            transported_count = _cell_count(transported, r, l, p, q)
            records.append(
                RefinedRecord(
                    n, r, l, p, q, t_refined, s_literal, transported_count,
                    s_literal == t_refined, transported_count == t_refined,
                )
            )
    ok = witness is None and all(r.transported_match for r in records)
    return RefinedReport(max_n, max_r, max_l, max_p, max_q, ok, tuple(records), witness)


def _json_key(name: str) -> str:
    return "pass" if name == "ok" else name


def _json_scalar(value: int) -> str:
    return _bool(value) if isinstance(value, bool) else str(value)


def _json_lines(report: VerifyReport | RefinedReport) -> Iterator[str]:
    # json.dumps(..., indent=2) of the report as an object in field order:
    # each head field through json.dumps, since a witness may hold any
    # text, and each record, whose fields are ints and bools, through one
    # template made from its __match_args__, the comma after it included
    yield "{"
    names = report.__match_args__
    for i, name in enumerate(names, 1):
        head = f'  "{_json_key(name)}": '
        comma = "," if i < len(names) else ""
        value = getattr(report, name)
        if name != "records":
            yield f"{head}{json.dumps(value)}{comma}"
        elif not value:
            yield f"{head}[]{comma}"
        else:
            yield head + "["
            members = ",\n".join(f'      "{_json_key(k)}": {{}}' for k in value[0].__match_args__)
            template = f"    {{{{\n{members}\n    }}}}{{}}"
            for j, record in enumerate(value, 1):
                after = "," if j < len(value) else ""
                yield from template.format(*map(_json_scalar, record._fields), after).split("\n")
            yield f"  ]{comma}"
    yield "}"


def format_report(report: VerifyReport | RefinedReport, fmt: str) -> Iterator[str]:
    """The lines, without newlines, of a report in one of `FORMATS`.

    Text is the rows and then the summary, CSV the header and then one row
    per record, and JSON reads as ``json.dumps(..., indent=2)`` of the
    report as an object in field order, with ``ok`` keyed "pass" and the
    records as a list of objects.  Each line is made as it is read; an
    unknown format raises `ValueError` here, before any line is.
    """
    if fmt == "text":
        return itertools.chain(report._text_rows(), (report.summary,))
    if fmt == "csv":
        return report._csv_rows()
    if fmt == "json":
        return _json_lines(report)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
