import contextlib
import inspect
import io
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import schmidt.cli
import schmidt.harness
from schmidt.cli import ENTRY_LIMIT, build_parser, main
from schmidt.harness import (
    RefinedRecord,
    RefinedReport,
    VerifyRecord,
    VerifyReport,
    format_report,
)
from schmidt.partitions import TwoColorPartition
from schmidt.textform import FORMATS

DATA = Path(__file__).parent / "data"
GOLDEN_TABLE = DATA / "table_n3.txt"
# argv of each report whose output in every format is pinned in DATA as
# <name>.<format>
GOLDEN_REPORTS = {
    "verify_n6_c4": ("verify", "--max-n", "6", "--roundtrip-cutoff", "4"),
    "refined_n3_2222": (
        "refined", "--max-n", "3", "--max-r", "2", "--max-l", "2", "--max-p", "2", "--max-q", "2",
    ),
    "refined_n6_3232": (
        "refined", "--max-n", "6", "--max-r", "3", "--max-l", "2", "--max-p", "3", "--max-q", "2",
    ),
}
BROKEN_VERIFY = VerifyReport(
    1, 12, False, "n=1: s=2 t=3 series=2", (VerifyRecord(1, 2, 3, 2, 0, False),)
)
BROKEN_REFINED = RefinedReport(
    1, 1, 1, 1, 2, False,
    (
        RefinedRecord(1, 1, 1, 1, 1, 0, 2, 0, False, True),
        RefinedRecord(1, 1, 1, 1, 2, 0, 2, 1, False, False),
    ),
    None,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "colored,plain",
    [("2r+1g", "3+2"), ("3g", "3"), ("1r+1g+1g", "2+2+1")],
)
def test_map(capsys, colored, plain):
    code, out, _ = run_cli(capsys, "map", colored)
    assert code == 0
    assert out == plain + "\n"


@pytest.mark.parametrize(
    "plain,colored",
    [("1+1+1+1+1", "1g+1g+1g"), ("3+1", "2g+1r"), ("0", "0")],
)
def test_unmap(capsys, plain, colored):
    code, out, _ = run_cli(capsys, "unmap", plain)
    assert code == 0
    assert out == colored + "\n"


@pytest.mark.parametrize(
    "argv,out",
    [
        (("map", "2r+1g"), "3+2\n"),
        (("unmap", "3+1"), "2g+1r\n"),
        (("table", "--n", "3"), GOLDEN_TABLE.read_text()),
    ],
)
def test_a_subcommand_is_parsed_by_its_own_parser_alone(capsys, monkeypatch, argv, out):
    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser parsed a subcommand's argv")

    monkeypatch.setattr(build_parser(), "parse_args", refuse)
    assert run_cli(capsys, *argv) == (0, out, "")


@pytest.mark.parametrize("argv", [(), ("nosuch",)])
def test_no_or_unknown_command_gets_the_top_level_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.startswith("usage: schmidt [-h] {map,unmap,table,verify,refined,render} ...\n")
    assert err.splitlines()[-1].startswith("schmidt: error: ")


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    listed = [line.split()[0] for line in out.splitlines() if line.startswith("    ")]
    assert listed == ["map", "unmap", "table", "verify", "refined", "render"]


@pytest.mark.parametrize("argv", [("map", "1r", "x"), ("render", "1g", "x")])
def test_an_extra_argument_is_reported_by_the_subcommand(capsys, argv):
    command = argv[0]
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.startswith(f"usage: schmidt {command} [-h] colored\n")
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == [f"schmidt {command}: error: unrecognized arguments: x"]


@pytest.mark.parametrize(
    "argv,usage", [(("map", "-h"), "colored"), (("unmap", "--help"), "partition")]
)
def test_an_operand_command_prints_its_help(capsys, argv, usage):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    assert out.startswith(f"usage: schmidt {argv[0]} [-h] {usage}\n")


def test_a_missing_operand_is_reported_by_the_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["map"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.splitlines()[-1] == "schmidt map: error: the following arguments are required: colored"


@pytest.mark.parametrize(
    "argv",
    # argparse takes "-3" for a positional, so the grammar rejects it
    [("map", "2x"), ("unmap", "1+2"), ("render", "3q"), ("unmap", "²"), ("unmap", "-3")],
)
def test_parse_failures_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_non_decimal_digit_gets_the_grammar_message(capsys):
    code, out, err = run_cli(capsys, "unmap", "²")
    assert (code, out, err) == (2, "", "error: bad part '²' in '²'\n")


@pytest.mark.parametrize("command,suffix", [("unmap", ""), ("unmap", "+1"), ("map", "g"), ("render", "r")])
def test_a_part_past_the_digit_limit_gets_the_grammar_message(capsys, digit_limit, command, suffix):
    operand = "9" * (digit_limit + 1) + suffix
    message = f"error: part too long: {digit_limit + 1:,} digits\n"
    assert run_cli(capsys, command, operand) == (2, "", message)


def test_an_image_part_past_the_digit_limit_gets_its_own_message(capsys, digit_limit):
    # every input part is short enough, but the image starts with 10^640
    code, out, err = run_cli(capsys, "map", "9" * digit_limit + "r+1g")
    assert (code, out) == (2, "")
    assert err == f"error: part too long to write: more than {digit_limit:,} digits\n"
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize(
    "argv,refusal",
    [
        (("render", "5r+{}r"), "render would draw at least 10^{} cells; the limit is 250,000"),
        (
            ("verify", "--max-n", "{}"),
            "verify would build its count tables in at least 10^{} additions; the limit is 25,000,000",
        ),
    ],
)
def test_a_refusal_states_a_count_past_the_digit_limit(capsys, digit_limit, argv, refusal):
    # the count has more digits than the interpreter writes out
    argv = [arg.format("9" * digit_limit) for arg in argv]
    assert run_cli(capsys, *argv) == (2, "", f"error: {refusal.format(digit_limit)}\n")


def test_table_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "3")
    assert code == 0
    assert out == GOLDEN_TABLE.read_text()


def test_table_weight_zero_is_empty(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "0")
    assert code == 0
    assert out == ""


def test_table_rejects_negative(capsys):
    code, _, err = run_cli(capsys, "table", "--n", "-1")
    assert code == 2
    assert err


def test_entry_limit_counts_the_objects_each_command_enumerates(capsys, monkeypatch):
    # t(1), ..., t(4) = 2, 5, 10, 20 objects on each side
    monkeypatch.setattr(schmidt.cli, "ENTRY_LIMIT", 10)

    def refused(command, count):
        return (2, "", f"error: {command} would enumerate {count} objects; the limit is 10\n")

    # table enumerates one side of one weight
    assert run_cli(capsys, "table", "--n", "3")[0] == 0
    assert run_cli(capsys, "table", "--n", "4") == refused("table", 20)
    # a later weight has more objects, so counting stops at weight 4
    assert run_cli(capsys, "table", "--n", "5") == refused("table", "more than 20")
    # verify enumerates both sides of each weight up to the cutoff
    assert run_cli(capsys, "verify", "--max-n", "5", "--roundtrip-cutoff", "1")[0] == 0
    assert run_cli(capsys, "verify", "--max-n", "2", "--roundtrip-cutoff", "5") == refused(
        "verify", 14
    )
    # refined enumerates both sides of each weight up to max_n
    one_cell = ("--max-r", "1", "--max-l", "1", "--max-p", "1", "--max-q", "1")
    assert run_cli(capsys, "refined", "--max-n", "1", *one_cell)[0] == 0
    assert run_cli(capsys, "refined", "--max-n", "3") == refused("refined", "more than 14")


def test_entry_limit_counts_the_cells_refined_reports(capsys, monkeypatch):
    monkeypatch.setattr(schmidt.cli, "ENTRY_LIMIT", 10)
    grid = ("--max-r", "1", "--max-l", "1", "--max-p", "2", "--max-q")
    # one record per weight and (r, l, p, q) cell: 1 * 1 * 1 * 2 * q, and
    # 2 * t(1) = 4 objects
    assert run_cli(capsys, "refined", "--max-n", "1", *grid, "5")[0] == 0
    assert run_cli(capsys, "refined", "--max-n", "1", *grid, "6") == (
        2,
        "",
        "error: refined would report 12 cells; the limit is 10\n",
    )
    # the objects are counted first, and a bound below 1 is left to the library
    assert run_cli(capsys, "refined", "--max-n", "3", *grid, "6")[2].endswith(" objects; the limit is 10\n")
    assert run_cli(capsys, "refined", "--max-n", "1", "--max-r", "-5", "--max-l", "-5") == (
        2,
        "",
        "error: all grid bounds must be positive\n",
    )


def test_table_limit_counts_the_additions_of_verify(capsys, monkeypatch):
    monkeypatch.setattr(schmidt.cli, "TABLE_LIMIT", 100)
    assert run_cli(capsys, "verify", "--max-n", "10", "--roundtrip-cutoff", "0")[0] == 0
    assert run_cli(capsys, "verify", "--max-n", "11", "--roundtrip-cutoff", "0") == (
        2,
        "",
        "error: verify would build its count tables in 121 additions; the limit is 100\n",
    )
    assert run_cli(capsys, "verify", "--max-n", "-11") == (2, "", "error: max_n must be positive\n")


def test_table_limit_allows_verify_up_to_5000(capsys, monkeypatch):
    # the report itself is stubbed: the real one at 5000 takes seconds
    monkeypatch.setattr("schmidt.harness.verify_report", lambda *a, **k: BROKEN_VERIFY)
    assert run_cli(capsys, "verify", "--max-n", "5000", "--roundtrip-cutoff", "0")[0] == 1
    assert run_cli(capsys, "verify", "--max-n", "5001", "--roundtrip-cutoff", "0") == (
        2,
        "",
        "error: verify would build its count tables in 25,010,001 additions;"
        " the limit is 25,000,000\n",
    )


def test_entry_limit_counts_the_cells_render_draws(capsys, monkeypatch):
    # weight w plus m² with m = max(#red, #green): 5 + 4 and 7 + 4 cells
    monkeypatch.setattr(schmidt.cli, "ENTRY_LIMIT", 10)
    assert run_cli(capsys, "render", "2r+2g+1g")[0] == 0
    assert run_cli(capsys, "render", "3r+3g+1g") == (
        2,
        "",
        "error: render would draw 11 cells; the limit is 10\n",
    )


INTEGER_OPTIONS = [
    ("table", "--n"),
    ("verify", "--max-n"),
    ("verify", "--roundtrip-cutoff"),
    ("refined", "--max-n"),
    ("refined", "--max-r"),
    ("refined", "--max-l"),
    ("refined", "--max-p"),
    ("refined", "--max-q"),
]


@pytest.mark.parametrize(
    "command,option,value",
    [
        ("table", "--n", "1_0"),
        ("table", "--n", " 3"),
        ("verify", "--max-n", "٣"),
        ("refined", "--max-n", "３"),
    ]
    + [(command, option, value) for command, option in INTEGER_OPTIONS for value in ("+3", "٣")],
)
def test_integer_options_take_ascii_digits_only(capsys, command, option, value):
    # int() alone takes each of these; the message is the one "x" gets
    with pytest.raises(SystemExit) as exc:
        main([command, option, value])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    message = f"schmidt {command}: error: argument {option}: invalid int value: {value!r}"
    assert err.splitlines()[-1] == message


def test_negative_integer_options_reach_the_library_checks(capsys):
    assert run_cli(capsys, "verify", "--max-n", "-3") == (2, "", "error: max_n must be positive\n")


def test_verify_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "3")
    assert code == 0
    lines = out.splitlines()
    assert "n=3 s=10 t=10 series=10 roundtrips=20 ok" in lines
    assert lines[-1].startswith("PASS")


def test_verify_counts_without_round_trips(capsys):
    # the counts of every n up to 60 come from tables, not enumeration
    code, out, err = run_cli(capsys, "verify", "--max-n", "60", "--roundtrip-cutoff", "0")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 61
    assert lines[-1] == "PASS: counts agree and round trips hold (max_n=60, cutoff=0)"


def test_verify_rejects_bad_bounds(capsys):
    assert run_cli(capsys, "verify", "--max-n", "0")[0] == 2
    assert run_cli(capsys, "verify", "--max-n", "3", "--roundtrip-cutoff", "-1")[0] == 2


def test_verify_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("schmidt.harness.verify_report", lambda *a, **k: BROKEN_VERIFY)
    code, out, _ = run_cli(capsys, "verify", "--max-n", "1")
    assert code == 1
    assert "FAIL: n=1" in out


@pytest.mark.parametrize("error", [ValueError, TypeError])
def test_verify_reports_a_raising_map_as_a_witness(capsys, monkeypatch, error):
    # a map that raises is a mismatch (exit 1) with a witness, not a usage
    # error (exit 2) or a traceback
    forward = schmidt.harness.two_color_to_schmidt

    def raising(tc):
        if tc == TwoColorPartition((2,), (1,)):
            raise error("boom")
        return forward(tc)

    monkeypatch.setattr(schmidt.harness, "two_color_to_schmidt", raising)
    code, out, err = run_cli(capsys, "verify", "--max-n", "4", "--roundtrip-cutoff", "4")
    assert (code, err) == (1, "")
    fails = [line for line in out.splitlines() if line.startswith("FAIL:")]
    assert fails == [f"FAIL: n=3: round trip raised {error.__name__}: boom at 2r+1g"]
    assert out.splitlines()[2].endswith(" MISMATCH")
    assert "Traceback" not in out + err


@pytest.mark.parametrize("error", [ValueError, TypeError])
def test_refined_reports_a_raising_map_as_a_witness(capsys, monkeypatch, error):
    # a raising inverse map inside the grid is a mismatch (exit 1) with a
    # witness, not a usage error (exit 2) or a traceback
    backward = schmidt.harness.schmidt_to_two_color

    def raising(partition):
        if partition == (2, 1):
            raise error("boom")
        return backward(partition)

    monkeypatch.setattr(schmidt.harness, "schmidt_to_two_color", raising)
    code, out, err = run_cli(capsys, *GOLDEN_REPORTS["refined_n3_2222"])
    assert (code, err) == (1, "")
    fails = [line for line in out.splitlines() if line.startswith("FAIL:")]
    assert fails == [f"FAIL: n=2: inverse map raised {error.__name__}: boom at 2+1"]
    assert "Traceback" not in out + err


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize(
    "command,broken,summary",
    [
        ("verify", BROKEN_VERIFY, "FAIL: n=1: s=2 t=3 series=2"),
        ("refined", BROKEN_REFINED, "FAIL: n=1 r=1 l=1 p=1 q=2 t_refined=0 transported=1"),
    ],
)
def test_report_failure_exits_1_with_summary(capsys, monkeypatch, command, broken, summary, fmt):
    # text ends with the summary; csv and json give it on stderr instead
    monkeypatch.setattr(f"schmidt.harness.{command}_report", lambda *a, **k: broken)
    code, out, err = run_cli(capsys, command, "--max-n", "1", "--format", fmt)
    assert code == 1
    assert out == "\n".join(format_report(broken, fmt)) + "\n"
    if fmt == "text":
        assert out.splitlines()[-1] == summary
        assert err == ""
    else:
        assert summary not in out
        assert err == summary + "\n"


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_report_matches_golden(capsys, name, fmt):
    code, out, err = run_cli(capsys, *GOLDEN_REPORTS[name], "--format", fmt)
    assert (code, err) == (0, "")
    assert out == (DATA / f"{name}.{fmt}").read_text()


def test_verify_csv_deterministic(capsys):
    first = run_cli(capsys, "verify", "--max-n", "4", "--format", "csv")
    second = run_cli(capsys, "verify", "--max-n", "4", "--format", "csv")
    assert first == second
    assert first[1].splitlines()[0] == "n,s,t,series,pass"


def test_refined_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "refined",
        "--max-n", "2", "--max-r", "1", "--max-l", "1", "--max-p", "1", "--max-q", "1",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == [
        "n,r,l,p,q,t_refined,s_literal,transported,literal_match,transported_match",
        "1,1,1,1,1,0,2,0,false,true",
        "2,1,1,1,1,1,3,1,false,true",
    ]


def test_refined_rejects_bad_bounds(capsys):
    assert run_cli(capsys, "refined", "--max-n", "0")[0] == 2


def test_render_full_pipeline(capsys):
    code, out, _ = run_cli(capsys, "render", "3g+2g+1g+1r+1r")
    assert code == 0
    assert out == (
        "input: 3g+2g+1g+1r+1r\n"
        "red: 1+1\n"
        "green: 3+2+1\n"
        "arms: 3 2 0\n"
        "legs: 5 3 1\n"
        "shape: 4 4 3 3 2 1\n"
        "diagram:\n"
        "2 2 2 1\n"
        "2 2 2 1\n"
        "2 2 1\n"
        "2 2 1\n"
        "2 1\n"
        "1\n"
        "hooks: 9 7 6 4 2 0\n"
        "schmidt: 4+3+3+2+1\n"
    )


def test_render_single_red(capsys):
    code, out, _ = run_cli(capsys, "render", "3r")
    assert code == 0
    assert out == (
        "input: 3r\n"
        "red: 3\n"
        "green: 0\n"
        "arms: 3\n"
        "legs: 0\n"
        "shape: 4\n"
        "diagram:\n"
        "2 2 2 1\n"
        "hooks: 4 3\n"
        "schmidt: 3+3\n"
    )


def test_render_smallest_and_empty(capsys):
    code, out, _ = run_cli(capsys, "render", "1r")
    assert code == 0
    assert "schmidt: 1+1" in out
    code, out, _ = run_cli(capsys, "render", "0")
    assert code == 0
    assert out == "input: 0\nred: 0\ngreen: 0\nschmidt: 0\n"


def test_text_builders_are_looked_up_at_call_time(capsys, monkeypatch):
    monkeypatch.setattr(
        schmidt.harness, "render_text", lambda two_color, colored: [f"patched {colored}"]
    )
    assert run_cli(capsys, "render", "1r") == (0, "patched 1r\n", "")
    # an empty page prints nothing, not an empty line
    monkeypatch.setattr(schmidt.harness, "render_text", lambda two_color, colored: [])
    assert run_cli(capsys, "render", "1r") == (0, "", "")


def test_render_draws_the_value_its_entry_check_parsed(capsys, monkeypatch):
    # the text is parsed once, by the builder that counts its cells; the
    # page draws that value and echoes the text as given
    parsed = []

    def parse(text):
        parsed.append(text)
        return TwoColorPartition((3,))

    monkeypatch.setattr(schmidt.cli, "parse_two_color", parse)
    code, out, err = run_cli(capsys, "render", "1r")
    assert (code, err, parsed) == (0, "", ["1r"])
    assert out.splitlines()[:3] == ["input: 1r", "red: 3", "green: 0"]


def test_render_echoes_non_canonical_input(capsys):
    code, out, err = run_cli(capsys, "render", "1r+3g+1r")
    assert (code, err) == (0, "")
    assert out == (
        "input: 1r+3g+1r\n"
        "red: 1+1\n"
        "green: 3\n"
        "arms: 2 1\n"
        "legs: 4 0\n"
        "shape: 3 3 1 1 1\n"
        "diagram:\n"
        "2 2 1\n"
        "2 2 1\n"
        "1\n"
        "1\n"
        "1\n"
        "hooks: 7 3 2 1\n"
        "schmidt: 4+1+1+1\n"
    )


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "schmidt", "map", "2r+1g"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "3+2\n"


def test_map_and_unmap_start_without_the_report_layer():
    # -S skips site, which may load typing for reasons of its own
    code = """
import sys
from schmidt.cli import main
main(["map", "2r+1g"])
main(["unmap", "3+1"])
print(sorted({"schmidt.harness", "json", "typing", "dataclasses"} & set(sys.modules)))
main(["render", "2r+1g"])
print("schmidt.harness" in sys.modules)
main(["verify", "--max-n", "3"])
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(schmidt.cli.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:3] == ["3+2", "2g+1r", "[]"]
    assert lines[-2:] == ["PASS: counts agree and round trips hold (max_n=3, cutoff=12)", "[]"]
    assert lines[lines.index("True") - 1] == "schmidt: 3+2"


def assert_usage_error(proc):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


HUGE = "99999999999999999999"


@pytest.mark.parametrize(
    "argv",
    [("map", HUGE + "g"), ("render", HUGE + "g"), ("render", HUGE + "r"), ("verify", "--max-n", HUGE)],
)
def test_number_too_large_is_a_usage_error(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "schmidt", *argv],
        capture_output=True,
        text=True,
    )
    assert_usage_error(proc)
    assert proc.stdout == ""


def run_in_one_gib(*argv, limit=1 << 30, timeout=None):
    resource = pytest.importorskip("resource")

    def limit_address_space():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "schmidt", *argv],
        capture_output=True,
        text=True,
        preexec_fn=limit_address_space,
        timeout=timeout,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--n", "60"),
        ("table", "--n", HUGE),
        (
            "refined", "--max-n", "40", "--max-r", "2", "--max-l", "2", "--max-p", "2", "--max-q", "2",
        ),
        ("refined", "--max-n", HUGE),
        ("verify", "--max-n", "40", "--roundtrip-cutoff", "40"),
    ],
)
def test_a_run_above_the_entry_limit_is_refused_at_once(argv):
    # each of these used to enumerate for minutes or more
    proc = run_in_one_gib(*argv, timeout=5)
    assert_usage_error(proc)
    assert proc.stdout == ""
    assert proc.stderr.endswith(f" objects; the limit is {ENTRY_LIMIT:,}\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ("refined", "--max-n", "1", "--max-r", "1000", "--max-l", "1000", "--max-p", "1000", "--max-q", "10"),
            f"error: refined would report 10,000,000,000 cells; the limit is {ENTRY_LIMIT:,}\n",
        ),
        (
            ("verify", "--max-n", "100000", "--roundtrip-cutoff", "0"),
            "error: verify would build its count tables in 10,000,000,000 additions;"
            " the limit is 25,000,000\n",
        ),
    ],
)
def test_a_grid_or_table_above_its_limit_is_refused_at_once(argv, message):
    # the grid ran out of memory under 1 GiB, and the tables ran for about an hour
    proc = run_in_one_gib(*argv, timeout=5)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)


def test_a_render_above_the_entry_limit_is_refused_at_once():
    # it used to draw rows until it ran out of memory
    proc = run_in_one_gib("render", "1000000000g", timeout=5)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2,
        "",
        "error: render would draw 1,000,000,001 cells; the limit is 250,000\n",
    )


def test_out_of_memory_is_a_usage_error():
    assert_usage_error(run_in_one_gib("map", "1000000000g"))


@pytest.mark.parametrize(
    "argv,out",
    [
        (("unmap", "1000000000"), "1000000000g"),
        (("unmap", HUGE), HUGE + "g"),
        (("unmap", HUGE + "+5+5+1"), "99999999999999999998g+4g+1r+1r"),
    ],
)
def test_unmap_of_huge_parts_fits_in_one_gib(argv, out):
    # the inverse never draws the diagram, so its cost does not grow with
    # the size of a part
    proc = run_in_one_gib(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out + "\n", "")


@pytest.mark.parametrize(
    "argv,out",
    [
        (("map", "1000000000r"), "1000000000+1000000000"),
        (
            ("map", "1000000000000000000r+5r+3g"),
            "1000000000000000003+1000000000000000000+5+5",
        ),
    ],
)
def test_map_of_huge_red_parts_fits_in_one_gib(argv, out):
    # red parts are arms: they lengthen rows of the Durfee square and add no
    # row below it, and only the rows below it are read column by column
    proc = run_in_one_gib(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out + "\n", "")


def test_verify_counts_fit_in_128_mib():
    # the three count tables each keep O(max_n) big integers, so the counts
    # up to 2000 need no more than the interpreter itself
    proc = run_in_one_gib("verify", "--max-n", "2000", "--roundtrip-cutoff", "0", limit=128 << 20)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1].startswith("PASS:")


ONE_CELL_BUT_R = ("--max-n", "1", "--max-l", "1", "--max-p", "1", "--max-q", "1")


def test_refined_of_many_heads_exits_0():
    # 2,000 literal heads, one of them positive: the walk must recurse only
    # per positive head, or this is a RecursionError traceback
    proc = run_in_one_gib("refined", *ONE_CELL_BUT_R, "--max-r", "2000")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == "PASS: transported counts agree"


def test_refined_at_the_cell_limit_is_quick():
    # past n heads the literal count no longer changes, so it must be
    # computed once for the whole grid, not once per max(r, l)
    proc = run_in_one_gib("refined", *ONE_CELL_BUT_R, "--max-r", f"{ENTRY_LIMIT}", timeout=20)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_refined_of_a_grid_near_the_cell_limit_is_quick():
    # 240,786 cells over 21 weights: the literal counts must come from the
    # one walk per weight, not from enumerating the vectors once per key
    argv = ("--max-n", "21", "--max-r", "21", "--max-l", "1", "--max-p", "21", "--max-q", "26")
    proc = run_in_one_gib("refined", *argv, timeout=20)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_reused_parser_leaks_no_state(capsys):
    # main reuses one parser per process; each call must still behave as a
    # fresh process would, defaults and error exits included
    sequence = [
        ("verify", "--max-n", "3", "--format", "json"),
        ("verify", "--max-n", "3"),
        ("verify", "--max-n", "x"),
        ("map", "2x"),
        ("map", "2r+1g"),
        ("unmap", "3+1"),
    ]
    in_process = []
    for argv in sequence:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        in_process.append((code, capsys.readouterr().out))
    fresh = []
    for argv in sequence:
        proc = subprocess.run(
            [sys.executable, "-m", "schmidt", *argv],
            capture_output=True,
            text=True,
        )
        fresh.append((proc.returncode, proc.stdout))
    assert in_process == fresh
    assert [code for code, _ in in_process] == [0, 0, 2, 2, 0, 0]
    assert in_process[0][1].startswith("{")
    assert in_process[1][1].startswith("n=1 ")
    assert in_process[4][1] == "3+2\n"
    assert in_process[5][1] == "2g+1r\n"


def test_build_parser_stays_a_traced_function(capsys, monkeypatch):
    # perfbench's tracer wraps plain module functions and its missing_layers
    # gate fails a traced run in which cli.build_parser records no call, so
    # build_parser must stay a plain function that main calls every time
    assert inspect.isfunction(schmidt.cli.build_parser)
    assert build_parser() is build_parser()
    calls = []

    def counting():
        calls.append(1)
        return build_parser()

    monkeypatch.setattr(schmidt.cli, "build_parser", counting)
    for n, argv in enumerate([("map", "2r+1g"), ("unmap", "3+1"), ("map", "2x")], 1):
        main(list(argv))
        assert len(calls) == n
    capsys.readouterr()


def texts(max_part):
    """Texts of either grammar, and strings of their characters and "²" and "٣"."""
    size = st.integers(1, max_part)
    colored = st.lists(st.tuples(size.map(str), st.sampled_from("rg")), min_size=1, max_size=4)
    plain = st.lists(size, min_size=1, max_size=4).map(lambda parts: sorted(parts, reverse=True))
    return st.one_of(
        colored.map(lambda parts: "+".join(map("".join, parts))),
        plain.map(lambda parts: "+".join(map(str, parts))),
        st.text("0123456789rg+²٣", max_size=5),
    )


@st.composite
def argvs(draw):
    command = draw(
        st.sampled_from(("map", "unmap", "table", "verify", "refined", "render", "-h", "nosuch"))
    )
    # map of a huge green part still draws one row per unit of it
    text = texts(10**5 if command == "map" else 10**20)
    argv = [command]
    if command in ("map", "unmap", "render"):
        # now and then through argparse: after "--", or starting with "-"
        argv += ["--"] if draw(st.sampled_from((False, False, True))) else []
        operand = draw(text)
        argv.append("-" + operand if draw(st.sampled_from((False, False, True))) else operand)
    integer = (st.integers(-3, 12) | st.integers(13, 3000) | st.integers(min_value=10**19)).map(str)
    options = [option for name, option in INTEGER_OPTIONS if name == command]
    options += ["--format"] if command in ("verify", "refined") else []
    if options:
        for name in draw(st.lists(st.sampled_from(options), max_size=3)):
            good = st.sampled_from(FORMATS) if name == "--format" else integer
            argv += [name, draw(good | good | text)]
    if draw(st.sampled_from((False, False, False, True))):  # now and then a stray token
        argv.append(draw(text | st.sampled_from(("--n", "--max-n", "--max-q", "--format"))))
    return argv


def outcome(argv):
    """Exit code, stdout and stderr of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's help and usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@given(argvs())
@settings(deadline=1000)
def test_main_exits_0_or_2_with_one_error_line(argv):
    # The limits bound the work, not the time: a run they allow may take
    # seconds (verify --roundtrip-cutoff 20, 8.6 s; verify --max-n 3000,
    # 2.7 s), past the deadline.  Lower limits keep every run short and
    # still reach each refusal.
    with (
        mock.patch.object(schmidt.cli, "ENTRY_LIMIT", 10_000),
        mock.patch.object(schmidt.cli, "TABLE_LIMIT", 250_000),
    ):
        code, _, err = outcome(argv)
    assert code in (0, 2)
    if code == 2:
        assert len([line for line in err.splitlines() if "error:" in line]) == 1


@pytest.mark.parametrize("command", ["map", "unmap", "render"])
@given(text=texts(10**5))
@example(text="")
@example(text="0")
@example(text="+")
@example(text="٣+1")
@example(text=HUGE + "g")
@settings(deadline=1000)
def test_an_operand_gives_the_same_outcome_without_argparse(command, text):
    # main skips argparse for [command, operand]; "--" makes argparse parse
    # the operand, which it passes on unchanged
    assert outcome([command, text]) == outcome([command, "--", text])
