"""Verification reports: count agreement, round trips, and refinements.

`verify_report` reads its counts from three tables built without
enumeration (the Schmidt-side DP, the convolution of partition numbers,
and the series) and enumerates both sides only up to its round-trip
cutoff; `refined_report` and `table_pairs` enumerate.  Everything here is
a pure function of its arguments, so reports are byte-for-byte
reproducible.  `format_report` renders either report in
any of `FORMATS` (defined in `textform`): CSV and JSON for machine
consumption, text for humans.  `table_text` and `render_text` are the
pages of `table` and `render`.  The command line imports this module
only when one of those commands or a report runs, so `map` and `unmap`
start without it.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, fields, is_dataclass

from .bijection import render_two_modular, schmidt_to_two_color, trace_forward, two_color_to_schmidt
from .partitions import (
    Parts,
    RefinedQuery,
    TwoColorPartition,
    alternating_sum,
    enumerate_schmidt,
    enumerate_schmidt_refined_literal,
    enumerate_two_color,
    schmidt_counts,
    two_color_counts,
)
from .series import two_color_coefficients
from .textform import FORMATS, format_partition, format_two_color, parse_two_color


def _bool(value: bool) -> str:
    return "true" if value else "false"


# The field order of each report and record is its JSON key order.
@dataclass(frozen=True)
class VerifyRecord:
    n: int
    s_count: int
    t_count: int
    series_count: int
    round_trip_checked: int
    ok: bool


@dataclass(frozen=True)
class VerifyReport:
    max_n: int
    roundtrip_cutoff: int
    ok: bool
    witness: str | None
    records: tuple[VerifyRecord, ...]

    @property
    def summary(self) -> str:
        if not self.ok:
            return f"FAIL: {self.witness}"
        bounds = f"max_n={self.max_n}, cutoff={self.roundtrip_cutoff}"
        return f"PASS: counts agree and round trips hold ({bounds})"

    def _text_rows(self) -> list[str]:
        return [
            f"n={r.n} s={r.s_count} t={r.t_count} series={r.series_count}"
            f" roundtrips={r.round_trip_checked} {'ok' if r.ok else 'MISMATCH'}"
            for r in self.records
        ]

    def _csv_rows(self) -> list[str]:
        return ["n,s,t,series,pass"] + [
            f"{r.n},{r.s_count},{r.t_count},{r.series_count},{_bool(r.ok)}"
            for r in self.records
        ]


@dataclass(frozen=True)
class RefinedRecord:
    n: int
    r: int
    l: int
    p: int
    q: int
    t_refined: int
    s_literal: int
    transported_count: int
    literal_match: bool
    transported_match: bool


@dataclass(frozen=True)
class RefinedReport:
    max_n: int
    max_r: int
    max_l: int
    max_p: int
    max_q: int
    ok: bool
    records: tuple[RefinedRecord, ...]
    witness: str | None = None

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

    def _text_rows(self) -> list[str]:
        records = self.records
        return [
            f"n={r.n} r={r.r} l={r.l} p={r.p} q={r.q}"
            f" t_refined={r.t_refined} s_literal={r.s_literal}"
            f" transported={r.transported_count}"
            f" literal_match={_bool(r.literal_match)}"
            f" transported_match={_bool(r.transported_match)}"
            for r in records
        ] + [
            f"cells={len(records)}"
            f" transported_match={sum(r.transported_match for r in records)}"
            f" literal_match={sum(r.literal_match for r in records)}"
        ]

    def _csv_rows(self) -> list[str]:
        return ["n,r,l,p,q,t_refined,s_literal,transported,literal_match,transported_match"] + [
            f"{r.n},{r.r},{r.l},{r.p},{r.q},{r.t_refined},{r.s_literal},"
            f"{r.transported_count},{_bool(r.literal_match)},{_bool(r.transported_match)}"
            for r in self.records
        ]


def table_pairs(n: int) -> list[tuple[TwoColorPartition, Parts]]:
    """Every (two-color partition, image) pair of weight ``n``, canonical order.

    Weight zero has no listable pairs; the degenerate empty mapping is not
    part of the table.
    """
    if n == 0:
        return []
    return [(tc, two_color_to_schmidt(tc)) for tc in enumerate_two_color(n)]


def table_text(n: int) -> str:
    """One "colored <-> plain" line per pair; empty for n = 0."""
    lines = [
        f"{format_two_color(tc)} <-> {format_partition(image)}"
        for tc, image in table_pairs(n)
    ]
    return "\n".join(lines)


def render_text(colored: str) -> str:
    """The colored text's two colors, every intermediate of the forward map
    from `trace_forward` with the 2-modular diagram, and the image."""
    two_color = parse_two_color(colored)
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
            render_two_modular(shape),
            f"hooks: {' '.join(map(str, hooks))}",
        ]
    lines.append(f"schmidt: {format_partition(image)}")
    return "\n".join(lines)


def _round_trips(
    n: int,
    objects: list,
    there: Callable,
    back: Callable,
    holds: Callable[..., bool],
    show: Callable[..., str],
) -> tuple[int, str | None]:
    # Map each object there and back, stopping at the first whose image
    # fails ``holds`` or does not map back to it, or whose maps raise.
    # Returns the objects checked and a witness for that first one.
    for checked, obj in enumerate(objects, 1):
        try:
            image = there(obj)
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
    both directions.  A map that raises fails its round trip, and the
    witness names the exception.
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
            )
            checked += back_checked
            failure = failure or back_failure
            if failure:
                ok = False
                witness = witness or failure
        records.append(
            VerifyRecord(
                n=n,
                s_count=s,
                t_count=t,
                series_count=series,
                round_trip_checked=checked,
                ok=ok,
            )
        )
    return VerifyReport(
        max_n=max_n,
        roundtrip_cutoff=roundtrip_cutoff,
        records=tuple(records),
        ok=all(r.ok for r in records),
        witness=witness,
    )


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
                    n=n,
                    r=r,
                    l=l,
                    p=p,
                    q=q,
                    t_refined=t_refined,
                    s_literal=s_literal,
                    transported_count=transported_count,
                    literal_match=s_literal == t_refined,
                    transported_match=transported_count == t_refined,
                )
            )
    return RefinedReport(
        max_n=max_n,
        max_r=max_r,
        max_l=max_l,
        max_p=max_p,
        max_q=max_q,
        records=tuple(records),
        ok=witness is None and all(r.transported_match for r in records),
        witness=witness,
    )


def _json_ready(value):
    # Reports and records become dicts in field order, with ``ok`` spelled
    # "pass"; tuples of records become lists.
    if is_dataclass(value):
        return {
            "pass" if f.name == "ok" else f.name: _json_ready(getattr(value, f.name))
            for f in fields(value)
        }
    if isinstance(value, tuple):
        return [_json_ready(v) for v in value]
    return value


def format_report(report: VerifyReport | RefinedReport, fmt: str) -> str:
    """Render a report in one of `FORMATS`; the text format ends with its summary."""
    if fmt == "text":
        return "\n".join([*report._text_rows(), report.summary])
    if fmt == "csv":
        return "\n".join(report._csv_rows())
    if fmt == "json":
        return json.dumps(_json_ready(report), indent=2)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
