"""Verification reports: count agreement, round trips, and refinements.

Everything here is a pure function of its arguments, so reports are
byte-for-byte reproducible.  `format_report` renders either report in
any of `FORMATS`: CSV and JSON for machine consumption, text for humans.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, fields, is_dataclass

from .bijection import schmidt_to_two_color, two_color_to_schmidt
from .partitions import (
    Parts,
    RefinedQuery,
    TwoColorPartition,
    alternating_sum,
    enumerate_schmidt,
    enumerate_schmidt_refined_literal,
    enumerate_two_color,
)
from .series import two_color_coefficients
from .textform import format_partition, format_two_color


FORMATS = ("text", "csv", "json")  # the first is the default


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

    @property
    def summary(self) -> str:
        if self.ok:
            return "PASS: transported counts agree"
        # ok is false only when some record's transported count differs
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
        return ["n,r,l,p,q,t_refined,s_literal,transported,literal_match"] + [
            f"{r.n},{r.r},{r.l},{r.p},{r.q},{r.t_refined},{r.s_literal},"
            f"{r.transported_count},{_bool(r.literal_match)}"
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


def verify_report(max_n: int, roundtrip_cutoff: int = 12) -> VerifyReport:
    """Compare both counts with the series and exercise the round trips.

    Round trips run exhaustively in both directions for each n up to the
    cutoff; above it only the three counts are compared.
    """
    if max_n < 1:
        raise ValueError("max_n must be positive")
    if roundtrip_cutoff < 0:
        raise ValueError("roundtrip_cutoff must be nonnegative")
    coefficients = two_color_coefficients(max_n)
    records = []
    witness = None
    for n in range(1, max_n + 1):
        schmidt_side = enumerate_schmidt(n)
        two_color_side = enumerate_two_color(n)
        checked = 0
        ok = True
        if len(schmidt_side) != len(two_color_side) or len(schmidt_side) != coefficients[n]:
            ok = False
            witness = witness or (
                f"n={n}: s={len(schmidt_side)} t={len(two_color_side)}"
                f" series={coefficients[n]}"
            )
        if n <= roundtrip_cutoff:
            for tc in two_color_side:
                image = two_color_to_schmidt(tc)
                checked += 1
                if alternating_sum(image) != n or schmidt_to_two_color(image) != tc:
                    ok = False
                    witness = witness or (
                        f"n={n}: round trip failed at {format_two_color(tc)}"
                    )
                    break
            for partition in schmidt_side:
                preimage = schmidt_to_two_color(partition)
                checked += 1
                if two_color_to_schmidt(preimage) != partition:
                    ok = False
                    witness = witness or (
                        f"n={n}: round trip failed at {format_partition(partition)}"
                    )
                    break
        records.append(
            VerifyRecord(
                n=n,
                s_count=len(schmidt_side),
                t_count=len(two_color_side),
                series_count=coefficients[n],
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


def _cell_count(tally: Counter, r: int, l: int, p: int, q: int) -> int:
    # entries of a (num_red, num_green, max_red, max_green) tally in cell (r, l, p, q)
    return sum(
        count
        for (nr, ng, mr, mg), count in tally.items()
        if nr == r and ng == l and mr <= p and mg <= q
    )


def refined_report(
    max_n: int, max_r: int, max_l: int, max_p: int, max_q: int
) -> RefinedReport:
    """Run the refinement grid.

    t_refined counts two-color partitions matching the bounds directly;
    s_literal counts the fixed-length bounded vectors; transported_count
    counts partitions of alternating sum n whose preimage statistics
    match the bounds.  Only transported_match feeds the pass flag, the
    literal column is recorded as data.  Each weight's two-color
    partitions and preimages are tallied once, and each literal vector
    set, which depends only on (max(r, l), p+q), is counted once.
    """
    if min(max_n, max_r, max_l, max_p, max_q) < 1:
        raise ValueError("all grid bounds must be positive")
    records = []
    for n in range(1, max_n + 1):
        direct = Counter(_stats(tc) for tc in enumerate_two_color(n))
        transported = Counter(
            _stats(schmidt_to_two_color(partition)) for partition in enumerate_schmidt(n)
        )
        literal: dict[tuple[int, int], int] = {}
        for r in range(1, max_r + 1):
            for l in range(1, max_l + 1):
                for p in range(1, max_p + 1):
                    for q in range(1, max_q + 1):
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
        ok=all(r.transported_match for r in records),
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
