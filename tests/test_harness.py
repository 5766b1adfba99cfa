import itertools
import json
import math
import tracemalloc
from collections import Counter

import pytest

import schmidt.cli
import schmidt.harness
from schmidt.bijection import schmidt_to_two_color
from schmidt.harness import (
    FORMATS,
    RefinedRecord,
    RefinedReport,
    VerifyRecord,
    VerifyReport,
    format_report,
    refined_report,
    table_lines,
    verify_report,
)
from schmidt.partitions import (
    RefinedQuery,
    TwoColorPartition,
    count_two_color,
    enumerate_schmidt,
    enumerate_schmidt_refined_literal,
    enumerate_two_color_refined,
    iter_schmidt,
    iter_two_color,
)
from schmidt.series import two_color_coefficients


def written(report, fmt):
    return "\n".join(format_report(report, fmt))


def test_table_text():
    assert list(table_lines(0)) == []
    assert list(table_lines(1)) == ["1r <-> 1+1", "1g <-> 1"]
    assert len(list(table_lines(3))) == 10
    # a bad weight raises when the page is made, before any line is read
    with pytest.raises(ValueError):
        table_lines(-1)


def test_verify_report_values():
    report = verify_report(3)
    assert report.ok and report.witness is None
    by_n = {r.n: r for r in report.records}
    assert (by_n[3].s_count, by_n[3].t_count, by_n[3].series_count) == (10, 10, 10)
    assert by_n[1].round_trip_checked == 4
    assert by_n[3].round_trip_checked == 20


def test_verify_report_cutoff():
    report = verify_report(4, roundtrip_cutoff=2)
    by_n = {r.n: r for r in report.records}
    assert by_n[2].round_trip_checked == 10
    assert by_n[3].round_trip_checked == 0
    assert report.ok


def test_verify_report_enumerates_only_up_to_the_cutoff(monkeypatch):
    calls = {"schmidt": [], "two_color": []}

    def recording(name, enumerate_side):
        def enumerate_and_record(n):
            calls[name].append(n)
            return enumerate_side(n)

        return enumerate_and_record

    monkeypatch.setattr(schmidt.harness, "iter_schmidt", recording("schmidt", iter_schmidt))
    monkeypatch.setattr(schmidt.harness, "iter_two_color", recording("two_color", iter_two_color))
    report = verify_report(30, 6)
    assert report.ok
    assert calls == {"schmidt": list(range(1, 7)), "two_color": list(range(1, 7))}
    assert [r.round_trip_checked > 0 for r in report.records] == [True] * 6 + [False] * 24


@pytest.mark.parametrize("side", ["iter_schmidt", "iter_two_color"])
def test_verify_report_checks_the_enumerated_lengths(monkeypatch, side):
    # an enumerator that loses the last of the ten objects of weight 3 is a
    # mismatch at n=3, even though the objects it does list round-trip
    enumerate_side = getattr(schmidt.harness, side)
    monkeypatch.setattr(
        schmidt.harness,
        side,
        lambda n: itertools.islice(enumerate_side(n), 9) if n == 3 else enumerate_side(n),
    )
    report = verify_report(4, 4)
    assert not report.ok
    s, t = (9, 10) if side == "iter_schmidt" else (10, 9)
    assert report.witness == f"n=3: enumerated s={s} t={t}, counted s=10 t=10"
    assert [r.ok for r in report.records] == [True, True, False, True]
    assert report.summary == f"FAIL: {report.witness}"


def test_verify_report_holds_no_list_of_either_side(monkeypatch):
    def refuse(n):
        raise AssertionError(f"a whole side of weight {n} was listed")

    for name in ("enumerate_schmidt", "enumerate_two_color"):
        monkeypatch.setattr(schmidt.harness, name, refuse, raising=False)
    report = verify_report(8, 8)
    assert report.ok
    assert [r.round_trip_checked for r in report.records] == [2 * r.t_count for r in report.records]


def test_verify_report_names_the_first_failure_in_heads_major_order(monkeypatch):
    # of 3 and 3+3, iter_schmidt yields 3 first (descending order puts 3+3 first)
    steps = schmidt.harness.trace_backward

    def raising(partition):
        if partition in ((3,), (3, 3)):
            raise ValueError("boom")
        return steps(partition)

    monkeypatch.setattr(schmidt.harness, "trace_backward", raising)
    report = verify_report(4, 4)
    assert report.witness == "n=3: round trip raised ValueError: boom at 3"
    assert [r.ok for r in report.records] == [True, True, False, True]
    assert report.records[2].round_trip_checked == 11


# 2r+1g maps to 3+2, and 3+2 maps back to 2r+1g
def test_verify_report_names_a_failed_two_color_round_trip(monkeypatch):
    inverse = schmidt.harness.schmidt_to_two_color

    def wrong(partition):
        return TwoColorPartition((1,), (2,)) if partition == (3, 2) else inverse(partition)

    monkeypatch.setattr(schmidt.harness, "schmidt_to_two_color", wrong)
    report = verify_report(4, 4)
    assert report.witness == "n=3: round trip failed at 2r+1g"
    assert [r.ok for r in report.records] == [True, True, False, True]


def test_verify_report_names_a_failed_schmidt_round_trip(monkeypatch):
    steps = schmidt.harness.trace_forward

    def wrong(two_color):
        trace = steps(two_color)
        return trace[:-1] + ((9,),) if two_color == TwoColorPartition((2,), (1,)) else trace

    monkeypatch.setattr(schmidt.harness, "trace_forward", wrong)
    report = verify_report(4, 4)
    assert report.witness == "n=3: round trip failed at 3+2"
    assert [r.round_trip_checked for r in report.records] == [4, 10, 13, 40]


def test_verify_report_names_a_count_mismatch_before_a_trip_failure(monkeypatch, capsys):
    # the series off by one at n=3, and a failed round trip at the same n:
    # the count mismatch is met first, so it is the witness
    def off_by_one(max_n):
        series = list(two_color_coefficients(max_n))
        series[3] += 1
        return series

    inverse = schmidt.harness.schmidt_to_two_color

    def wrong(partition):
        return TwoColorPartition((1,), (2,)) if partition == (3, 2) else inverse(partition)

    monkeypatch.setattr(schmidt.harness, "two_color_coefficients", off_by_one)
    report = verify_report(4, 4)
    assert report.witness == "n=3: s=10 t=10 series=11"
    assert [r.ok for r in report.records] == [True, True, False, True]
    monkeypatch.setattr(schmidt.harness, "schmidt_to_two_color", wrong)
    report = verify_report(4, 4)
    assert report.witness == "n=3: s=10 t=10 series=11"
    assert [r.ok for r in report.records] == [True, True, False, True]
    assert schmidt.cli.main(["verify", "--max-n", "4", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["witness"] == "n=3: s=10 t=10 series=11"
    assert captured.err == "FAIL: n=3: s=10 t=10 series=11\n"


# The object each side's trip is made to fail at, by weight: the third or
# fourth of its stream, so that objects are checked before it and after it.
FAILING_TWO_COLOR = {2: TwoColorPartition((1, 1), ()), 3: TwoColorPartition((2,), (1,))}
FAILING_SCHMIDT = {2: (2, 1), 3: (3, 1)}


def inject_failures(monkeypatch, at):
    # ``at`` maps each kind of failure to the weight it is injected at:
    # "count" puts the series off by one, "length" drops the last object of
    # iter_two_color, "two_color" and "schmidt" make one map raise inside
    # that side's trip
    def off_by_one(max_n):
        table = list(two_color_coefficients(max_n))
        table[at["count"]] += 1
        return table

    def short(n):
        objects = iter_two_color(n)
        return itertools.islice(objects, count_two_color(n) - 1) if n == at["length"] else objects

    def raising(name, failing):
        f = getattr(schmidt.harness, name)

        def raising_at(obj):
            if obj == failing:
                raise ValueError("boom")
            return f(obj)

        monkeypatch.setattr(schmidt.harness, name, raising_at)

    if "count" in at:
        monkeypatch.setattr(schmidt.harness, "two_color_coefficients", off_by_one)
    if "length" in at:
        monkeypatch.setattr(schmidt.harness, "iter_two_color", short)
    if "two_color" in at:
        raising("two_color_to_schmidt", FAILING_TWO_COLOR[at["two_color"]])
    if "schmidt" in at:
        raising("trace_backward", FAILING_SCHMIDT[at["schmidt"]])


@pytest.mark.parametrize(
    "at,witness,failing_n,checked",
    [
        ({}, None, (), [4, 10, 20, 40]),
        # at one weight, the count mismatch beats the length mismatch, which
        # beats the two-color trip, which beats the Schmidt trip
        (
            {"count": 3, "length": 3, "two_color": 3, "schmidt": 3},
            "n=3: s=10 t=10 series=11", (3,), [4, 10, 8, 40],
        ),
        (
            {"length": 3, "two_color": 3, "schmidt": 3},
            "n=3: enumerated s=10 t=9, counted s=10 t=10", (3,), [4, 10, 8, 40],
        ),
        (
            {"count": 3, "two_color": 3},
            "n=3: s=10 t=10 series=11", (3,), [4, 10, 14, 40],
        ),
        (
            {"two_color": 3, "schmidt": 3},
            "n=3: round trip raised ValueError: boom at 2r+1g", (3,), [4, 10, 8, 40],
        ),
        ({"length": 3}, "n=3: enumerated s=10 t=9, counted s=10 t=10", (3,), [4, 10, 19, 40]),
        ({"schmidt": 3}, "n=3: round trip raised ValueError: boom at 3+1", (3,), [4, 10, 14, 40]),
        # an earlier failing weight beats a later one, whatever either's kind
        (
            {"schmidt": 2, "count": 3},
            "n=2: round trip raised ValueError: boom at 2+1", (2, 3), [4, 8, 20, 40],
        ),
        (
            {"two_color": 2, "length": 3},
            "n=2: round trip raised ValueError: boom at 1r+1r", (2, 3), [4, 8, 19, 40],
        ),
        ({"count": 2, "schmidt": 3}, "n=2: s=5 t=5 series=6", (2, 3), [4, 10, 14, 40]),
    ],
)
def test_verify_report_keeps_the_first_failure_of_the_first_failing_weight(
    monkeypatch, at, witness, failing_n, checked
):
    inject_failures(monkeypatch, at)
    report = verify_report(4, 4)
    assert report.witness == witness
    assert report.ok == (report.witness is None)
    assert [r.ok for r in report.records] == [n not in failing_n for n in range(1, 5)]
    # each side's objects count up to and with its failed trip, or all of them
    assert [r.round_trip_checked for r in report.records] == checked


def test_verify_report_maps_and_traces_each_object_once(monkeypatch):
    calls = Counter()

    def counting(name):
        f = getattr(schmidt.harness, name)

        def counted(arg):
            calls[name] += 1
            return f(arg)

        return counted

    names = (
        "two_color_to_schmidt", "schmidt_to_two_color", "trace_backward",
        "trace_forward", "hook_decompose",
    )
    for name in names:
        monkeypatch.setattr(schmidt.harness, name, counting(name))
    report = verify_report(6, 6)
    assert report.ok
    # each side has this many objects, since the counts agree
    objects = sum(r.t_count for r in report.records)
    # the inverse maps every two-color image back and every Schmidt partition there
    assert calls == {
        "two_color_to_schmidt": objects,
        "schmidt_to_two_color": 2 * objects,
        "trace_backward": objects,
        "trace_forward": objects,
        "hook_decompose": objects,
    }


def test_verify_report_counts_far_above_the_cutoff():
    report = verify_report(200, 0)
    assert report.ok and report.witness is None
    last = report.records[-1]
    assert last.n == 200
    assert last.s_count == last.t_count == last.series_count == two_color_coefficients(200)[200]
    assert all(r.round_trip_checked == 0 for r in report.records)


def test_verify_report_rejects_bad_bounds():
    with pytest.raises(ValueError):
        verify_report(0)
    with pytest.raises(ValueError):
        verify_report(3, roundtrip_cutoff=-1)


def test_verify_renderings():
    report = verify_report(2)
    assert written(report, "text").splitlines()[0] == "n=1 s=2 t=2 series=2 roundtrips=4 ok"
    assert written(report, "text").splitlines()[-1].startswith("PASS")
    csv = written(report, "csv").splitlines()
    assert csv[0] == "n,s,t,series,pass"
    assert csv[1] == "1,2,2,2,true"
    data = json.loads(written(report, "json"))
    assert list(data) == ["max_n", "roundtrip_cutoff", "pass", "witness", "records"]
    assert data["pass"] is True
    assert data["records"][0] == {
        "n": 1,
        "s_count": 2,
        "t_count": 2,
        "series_count": 2,
        "round_trip_checked": 4,
        "pass": True,
    }
    assert list(data["records"][0])[-1] == "pass"


def test_refined_report_witness_row():
    report = refined_report(2, 1, 1, 1, 1)
    assert report.ok
    row = {(r.n, r.r, r.l, r.p, r.q): r for r in report.records}[(2, 1, 1, 1, 1)]
    assert row.t_refined == 1
    assert row.s_literal == 3
    assert row.transported_count == 1
    assert row.literal_match is False
    assert row.transported_match is True


def test_refined_report_grid_shape_and_order():
    report = refined_report(2, 2, 2, 2, 2)
    keys = [(r.n, r.r, r.l, r.p, r.q) for r in report.records]
    assert len(keys) == 2 * 16
    assert keys == sorted(keys)


# the second grid's cells pass n in both max(r, l) and p + q
@pytest.mark.parametrize("grid", [(7, 3, 3, 3, 3), (5, 7, 2, 6, 3)])
def test_refined_report_counts_match_the_cell_enumerators(grid):
    report = refined_report(*grid)
    assert len(report.records) == math.prod(grid)
    for row in report.records:
        query = RefinedQuery(row.n, row.r, row.l, row.p, row.q)
        assert row.t_refined == len(enumerate_two_color_refined(query))
        assert row.s_literal == len(enumerate_schmidt_refined_literal(query))


def test_a_raising_inverse_map_leaves_the_literal_column_unchanged(monkeypatch):
    literal = [row.s_literal for row in refined_report(4, 2, 2, 2, 2).records]

    def raising(partition):
        raise ValueError("boom")

    monkeypatch.setattr(schmidt.harness, "schmidt_to_two_color", raising)
    report = refined_report(4, 2, 2, 2, 2)
    assert report.witness == "n=1: inverse map raised ValueError: boom at 1"
    assert [row.s_literal for row in report.records] == literal


def test_refined_report_transported_counts_match_mapped_preimages():
    # independent of the report's tallies: map every partition of
    # alternating sum n back and count the preimages inside each cell
    report = refined_report(6, 3, 3, 3, 3)
    assert len(report.records) == 6 * 81
    preimages = {n: [schmidt_to_two_color(s) for s in enumerate_schmidt(n)] for n in range(1, 7)}
    for row in report.records:
        expected = sum(
            tc.num_red == row.r
            and tc.num_green == row.l
            and tc.max_red <= row.p
            and tc.max_green <= row.q
            for tc in preimages[row.n]
        )
        assert row.transported_count == expected


def test_refined_renderings():
    report = refined_report(2, 1, 1, 1, 1)
    lines = written(report, "csv").splitlines()
    assert lines[0] == "n,r,l,p,q,t_refined,s_literal,transported,literal_match,transported_match"
    assert "2,1,1,1,1,1,3,1,false,true" in lines
    text = written(report, "text").splitlines()
    assert "t_refined=1 s_literal=3 transported=1" in text[1]
    assert text[-2:] == [
        "cells=2 transported_match=2 literal_match=0",
        "PASS: transported counts agree",
    ]
    data = json.loads(written(report, "json"))
    assert list(data) == [
        "max_n", "max_r", "max_l", "max_p", "max_q", "pass", "records", "witness",
    ]
    assert list(data["records"][0]) == [
        "n", "r", "l", "p", "q", "t_refined", "s_literal",
        "transported_count", "literal_match", "transported_match",
    ]
    assert data["pass"] is True
    assert data["records"][-1]["transported_match"] is True
    assert data["witness"] is None


def test_reports_are_reproducible():
    first = refined_report(4, 2, 2, 2, 2)
    second = refined_report(4, 2, 2, 2, 2)
    assert first == second
    assert written(first, "csv") == written(second, "csv")
    assert written(verify_report(5), "csv") == written(verify_report(5), "csv")


def test_format_report_formats():
    report = verify_report(2)
    assert FORMATS == ("text", "csv", "json")
    assert [written(report, fmt) != "" for fmt in FORMATS] == [True] * 3
    assert written(report, "text").splitlines()[-1] == report.summary
    # an unknown format raises when called, not when the first line is read
    with pytest.raises(ValueError):
        format_report(report, "xml")


def test_refined_failure_summary_names_the_first_failing_cell():
    report = refined_report(2, 1, 1, 1, 1)
    first, second = report.records
    assert second == RefinedRecord(2, 1, 1, 1, 1, 1, 3, 1, False, True)
    broken_second = RefinedRecord(2, 1, 1, 1, 1, 1, 3, 2, False, False)
    broken = RefinedReport(2, 1, 1, 1, 1, False, (first, broken_second), None)
    assert broken.summary == "FAIL: n=2 r=1 l=1 p=1 q=1 t_refined=1 transported=2"
    assert written(broken, "text").splitlines()[-1] == broken.summary
    assert report.summary == "PASS: transported counts agree"


def _as_dict(value):
    # a report or record as the object its JSON writes, built apart from the
    # writer: fields in order, "ok" keyed "pass", records as a list of objects
    fields = {name: getattr(value, name) for name in value.__match_args__}
    if "records" in fields:
        fields["records"] = [_as_dict(r) for r in fields["records"]]
    return {"pass" if name == "ok" else name: field for name, field in fields.items()}


@pytest.mark.parametrize(
    "report",
    [
        verify_report(6, 4),
        verify_report(3, 0),
        refined_report(3, 2, 2, 2, 2),
        # a witness may hold any text
        VerifyReport(
            1, 0, False, 'n=1: "quoted" \\ caf\u00e9 \u2603\nnext', (VerifyRecord(1, 2, 3, 2, 0, False),)
        ),
        RefinedReport(1, 1, 1, 1, 1, False, (), "n=1: a witness with no records"),
    ],
)
def test_json_lines_read_as_json_dumps_with_indent_2(report):
    lines = list(format_report(report, "json"))
    assert "\n".join(lines) == json.dumps(_as_dict(report), indent=2)
    assert not any("\n" in line for line in lines)


@pytest.mark.parametrize("fmt", FORMATS)
def test_format_report_makes_each_line_as_it_is_read(fmt):
    # 3,000 cells: written whole, the JSON alone peaks at megabytes
    report = refined_report(1, 10, 10, 10, 3)
    tracemalloc.start()
    try:
        count = sum(1 for _ in format_report(report, fmt))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count > len(report.records)
    assert peak < 100_000


def test_reports_are_built_with_one_value_per_field():
    with pytest.raises(TypeError):
        VerifyRecord(1, 2)
    with pytest.raises(TypeError):
        VerifyRecord(1, 2, 3, 4, 5, True, 7)
    with pytest.raises(TypeError):
        RefinedReport(1, 1, 1, 1, 1, True, ())
    record = VerifyRecord(1, 2, 2, 2, 4, True)
    assert (record.n, record.round_trip_checked, record.ok) == (1, 4, True)
