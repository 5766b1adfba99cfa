"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import time
from pathlib import Path

from schmidt.bijection import (
    add_staircase,
    hook_decompose,
    pad_colors,
    schmidt_to_two_color,
    two_color_to_schmidt,
    wright_build,
    DistinctPair,
)
from schmidt.cli import main
from schmidt.harness import format_report, refined_report, verify_report
from schmidt.partitions import (
    alternating_sum,
    count_schmidt,
    count_two_color,
    enumerate_schmidt,
    enumerate_two_color,
)
from schmidt.series import two_color_coefficients

GOLDEN_TABLE = Path(__file__).parent / "data" / "table_n3.txt"


def report(number, description, ok):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_table_reproduction(capsys):
    start = time.perf_counter()
    code = main(["table", "--n", "3"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    ok = code == 0 and out == GOLDEN_TABLE.read_text() and elapsed < 1.0
    with capsys.disabled():
        report(1, f"table --n 3 matches the golden file ({elapsed:.3f}s)", ok)


def test_criterion_2_count_identity_to_20(capsys):
    start = time.perf_counter()
    coefficients = two_color_coefficients(20)
    ok = count_schmidt(3) == 10
    for n in range(1, 21):
        s, t = count_schmidt(n), len(enumerate_two_color(n))
        ok = ok and s == t == count_two_color(n) == coefficients[n]
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    with capsys.disabled():
        report(2, f"counts and series agree for n=1..20 ({elapsed:.1f}s)", ok)


def test_criterion_3_bijectivity_to_12(capsys):
    start = time.perf_counter()
    failures = 0
    for n in range(13):
        for tc in enumerate_two_color(n):
            if schmidt_to_two_color(two_color_to_schmidt(tc)) != tc:
                failures += 1
        for partition in enumerate_schmidt(n):
            if two_color_to_schmidt(schmidt_to_two_color(partition)) != partition:
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    with capsys.disabled():
        report(3, f"round trips are the identity up to weight 12 ({elapsed:.1f}s)", ok)


def test_criterion_4_weight_identities(capsys):
    failures = 0
    for n in range(13):
        for tc in enumerate_two_color(n):
            image = two_color_to_schmidt(tc)
            if alternating_sum(image) != n:
                failures += 1
            if tc.weight == 0:
                continue
            pair = add_staircase(pad_colors(tc))
            m = pair.m
            if sum(pair.arms) + sum(pair.legs) != n + m * (m - 1):
                failures += 1
            hooks = hook_decompose(wright_build(pair))
            if sum(hooks[::2]) != n + m * m:
                failures += 1
    with capsys.disabled():
        report(4, "staircase, hook, and image weight identities hold", failures == 0)


def test_criterion_5_worked_example_fidelity(capsys):
    pair = DistinctPair((3, 2, 0), (5, 3, 1))
    shape = wright_build(pair)
    hooks = hook_decompose(shape)
    ok = shape == (4, 4, 3, 3, 2, 1)
    ok = ok and hooks == (9, 7, 6, 4, 2, 0) and hooks[:5] == (9, 7, 6, 4, 2)
    code = main(["render", "3g+2g+1g+1r+1r"])
    out = capsys.readouterr().out
    ok = ok and code == 0
    for line in (
        "arms: 3 2 0",
        "legs: 5 3 1",
        "shape: 4 4 3 3 2 1",
        "hooks: 9 7 6 4 2 0",
        "schmidt: 4+3+3+2+1",
    ):
        ok = ok and line in out
    with capsys.disabled():
        report(5, "worked example intermediates and render output match", ok)


def brute_bounded_exact(total, parts, cap):
    # independent count of partitions of ``total`` into exactly ``parts``
    # positive parts, each at most ``cap``
    if parts == 0:
        return 1 if total == 0 else 0
    return sum(
        brute_bounded_exact(total - largest, parts - 1, largest)
        for largest in range(1, min(cap, total) + 1)
    )


def test_criterion_6_transported_refinement(capsys):
    rep = refined_report(8, 3, 3, 3, 3)
    ok = rep.ok and all(r.transported_match for r in rep.records)

    # the recorded witness row, recomputed by independent enumeration
    row = {(r.n, r.r, r.l, r.p, r.q): r for r in rep.records}[(2, 1, 1, 1, 1)]
    refined_direct = sum(
        brute_bounded_exact(k, 1, 1) * brute_bounded_exact(2 - k, 1, 1)
        for k in range(3)
    )
    literal_direct = sum(
        1
        for a1 in range(3)
        for a2 in range(a1 + 1)
        if a1 == 2
    )
    ok = ok and (row.t_refined, row.s_literal, row.transported_count) == (1, 3, 1)
    ok = ok and refined_direct == 1 and literal_direct == 3
    ok = ok and row.literal_match is False and row.transported_match is True

    # run-to-run stability
    again = refined_report(8, 3, 3, 3, 3)
    ok = ok and format_report(rep, "csv") == format_report(again, "csv")
    with capsys.disabled():
        report(6, "transported refinement holds on the full grid, witness row 1/3/1", ok)


def test_criterion_7_statistic_transport(capsys):
    ok = True
    for n in range(1, 13):
        for tc in enumerate_two_color(n):
            image = two_color_to_schmidt(tc)
            ok = ok and image[0] == tc.max_red + tc.max_green
            ok = ok and (len(image) % 2 == 1) == (tc.num_red < tc.num_green)
            ok = ok and (len(image) + 1) // 2 == max(tc.num_red, tc.num_green)
    # the count/round-trip harness agrees end to end
    ok = ok and verify_report(12).ok
    with capsys.disabled():
        report(7, "statistic transport holds up to weight 12", ok)
