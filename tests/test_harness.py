import dataclasses
import json

import pytest

from schmidt.harness import (
    FORMATS,
    format_report,
    refined_report,
    table_pairs,
    table_text,
    verify_report,
)
from schmidt.partitions import (
    RefinedQuery,
    enumerate_schmidt_refined_literal,
    enumerate_two_color_refined,
)


def test_table_text():
    assert table_text(0) == ""
    assert table_text(1) == "1r <-> 1+1\n1g <-> 1"
    assert len(table_pairs(3)) == 10


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


def test_verify_report_rejects_bad_bounds():
    with pytest.raises(ValueError):
        verify_report(0)
    with pytest.raises(ValueError):
        verify_report(3, roundtrip_cutoff=-1)


def test_verify_renderings():
    report = verify_report(2)
    assert format_report(report, "text").splitlines()[0] == "n=1 s=2 t=2 series=2 roundtrips=4 ok"
    assert format_report(report, "text").splitlines()[-1].startswith("PASS")
    csv = format_report(report, "csv").splitlines()
    assert csv[0] == "n,s,t,series,pass"
    assert csv[1] == "1,2,2,2,true"
    data = json.loads(format_report(report, "json"))
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


def test_refined_report_counts_match_the_cell_enumerators():
    report = refined_report(7, 3, 3, 3, 3)
    assert len(report.records) == 7 * 81
    for row in report.records:
        query = RefinedQuery(row.n, row.r, row.l, row.p, row.q)
        assert row.t_refined == len(enumerate_two_color_refined(query))
        assert row.s_literal == len(enumerate_schmidt_refined_literal(query))


def test_refined_renderings():
    report = refined_report(2, 1, 1, 1, 1)
    lines = format_report(report, "csv").splitlines()
    assert lines[0] == "n,r,l,p,q,t_refined,s_literal,transported,literal_match"
    assert "2,1,1,1,1,1,3,1,false" in lines
    text = format_report(report, "text").splitlines()
    assert "t_refined=1 s_literal=3 transported=1" in text[1]
    assert text[-2:] == [
        "cells=2 transported_match=2 literal_match=0",
        "PASS: transported counts agree",
    ]
    data = json.loads(format_report(report, "json"))
    assert list(data) == ["max_n", "max_r", "max_l", "max_p", "max_q", "pass", "records"]
    assert list(data["records"][0]) == [
        "n", "r", "l", "p", "q", "t_refined", "s_literal",
        "transported_count", "literal_match", "transported_match",
    ]
    assert data["pass"] is True
    assert data["records"][-1]["transported_match"] is True


def test_reports_are_reproducible():
    first = refined_report(4, 2, 2, 2, 2)
    second = refined_report(4, 2, 2, 2, 2)
    assert first == second
    assert format_report(first, "csv") == format_report(second, "csv")
    assert format_report(verify_report(5), "csv") == format_report(verify_report(5), "csv")


def test_format_report_formats():
    report = verify_report(2)
    assert FORMATS == ("text", "csv", "json")
    assert [format_report(report, fmt) != "" for fmt in FORMATS] == [True] * 3
    assert format_report(report, "text").splitlines()[-1] == report.summary
    with pytest.raises(ValueError):
        format_report(report, "xml")


def test_refined_failure_summary_names_the_first_failing_cell():
    report = refined_report(2, 1, 1, 1, 1)
    first, second = report.records
    broken = dataclasses.replace(
        report,
        ok=False,
        records=(first, dataclasses.replace(second, transported_count=2, transported_match=False)),
    )
    assert broken.summary == "FAIL: n=2 r=1 l=1 p=1 q=1 t_refined=1 transported=2"
    assert format_report(broken, "text").splitlines()[-1] == broken.summary
    assert report.summary == "PASS: transported counts agree"
