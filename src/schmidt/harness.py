"""Verification reports: count agreement, round trips, and refinements.

`verify_report` reads its counts from three tables built without
enumeration (the Schmidt-side DP, the convolution of partition numbers,
and the series) and enumerates both sides only up to its round-trip
cutoff; `refined_report` and `table_lines` enumerate.  Everything here is
a pure function of its arguments, so reports are byte-for-byte
reproducible.  Reports and their records are `_Frozen` values.
`format_report` writes either report in any of `FORMATS` (defined in
`textform`): CSV and JSON for machine consumption, text for humans.
`table_lines` and `render_text` are the pages of `table` and `render`.
Every page and report is an iterable of lines without newlines, and
`format_report` and `table_lines` make each line as it is read, so a
large report or table is never held whole as text.  The command line
imports this module only when one of those commands or a report runs,
so `map` and `unmap` start without it.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from collections.abc import Callable, Iterator

from .bijection import (
    render_two_modular,
    schmidt_to_two_color,
    trace_backward,
    trace_forward,
    two_color_to_schmidt,
)
from .partitions import (
    Parts,
    RefinedQuery,
    TwoColorPartition,
    _Frozen,
    alternating_sum,
    enumerate_schmidt,
    enumerate_schmidt_refined_literal,
    enumerate_two_color,
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

    Weight zero has no lines: the degenerate empty mapping is not part of
    the table.  A negative ``n`` raises here, before any line is read.
    """
    objects = enumerate_two_color(n) if n else ()
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
    image: Parts = ()
    if two_color.weight:
        _, pair, shape, hooks, image = trace_forward(two_color)
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


def _round_trips(
    n: int,
    objects: list,
    there: Callable,
    back: Callable,
    holds: Callable[..., bool],
    show: Callable[..., str],
    steps: Callable | None = None,
) -> tuple[int, str | None]:
    # Map each object there and back, stopping at the first whose image
    # differs from the one ``steps`` builds step by step (when given), fails
    # ``holds`` or does not map back to it, or whose maps raise.  Returns
    # the objects checked and a witness for that first one.
    for checked, obj in enumerate(objects, 1):
        try:
            image = there(obj)
            if steps is not None and steps(obj) != image:
                return checked, f"n={n}: closed-form inverse disagrees with the steps at {show(obj)}"
            if holds(image) and back(image) == obj:
                continue
            what = "failed"
        except Exception as exc:  # a raising map is a witness, not a crash
            what = f"raised {type(exc).__name__}: {exc}"
        return checked, f"n={n}: round trip {what} at {show(obj)}"
    return len(objects), None


def verify_report(max_n: int, roundtrip_cutoff: int = 12) -> VerifyReport:
    """Compare three independent counts and exercise the round trips.

    For each n the Schmidt count comes from `schmidt_counts`, the two-color
    count from `two_color_counts` and the third from the series; each table
    is built once, for every n up to max_n, without enumerating.  Only for
    n up to the cutoff are both sides enumerated: each list's length is
    checked against its count, and the round trips run exhaustively in
    both directions.  The closed-form inverse is also compared with the
    inverse steps of `trace_backward` on every Schmidt partition there.  A
    map that raises fails its round trip, and the witness names the
    exception.
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
            schmidt_side = enumerate_schmidt(n)
            two_color_side = enumerate_two_color(n)
            if (len(schmidt_side), len(two_color_side)) != (s, t):
                ok = False
                witness = witness or (
                    f"n={n}: enumerated s={len(schmidt_side)} t={len(two_color_side)},"
                    f" counted s={s} t={t}"
                )
            checked, failure = _round_trips(
                n,
                two_color_side,
                two_color_to_schmidt,
                schmidt_to_two_color,
                lambda image: alternating_sum(image) == n,
                format_two_color,
            )
            back_checked, back_failure = _round_trips(
                n,
                schmidt_side,
                schmidt_to_two_color,
                two_color_to_schmidt,
                lambda preimage: preimage.weight == n,
                format_partition,
                steps=lambda partition: trace_backward(partition)[-1],
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
    partition and every preimage is enumerated once, and its statistics
    are tallied and grouped by (num_red, num_green), so a cell scans only
    its own group.  Each literal vector set, which depends only on
    (max(r, l), p+q), is counted once per weight.  An inverse map that
    raises fails the report, and the witness names the first partition it
    raised at; that partition is left out of the tally.
    """
    if min(max_n, max_r, max_l, max_p, max_q) < 1:
        raise ValueError("all grid bounds must be positive")
    grid = list(itertools.product(*(range(1, b + 1) for b in (max_r, max_l, max_p, max_q))))
    records = []
    witness = None
    for n in range(1, max_n + 1):
        direct = _by_part_counts(Counter(_stats(tc) for tc in enumerate_two_color(n)))
        preimages: Counter = Counter()
        for partition in enumerate_schmidt(n):
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
            key = (max(r, l), p + q)
            if key not in literal:
                query = RefinedQuery(n=n, r=r, l=l, p=p, q=q)
                literal[key] = len(enumerate_schmidt_refined_literal(query))
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
