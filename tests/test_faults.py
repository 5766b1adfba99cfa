"""A table of faults that `verify` and `refined` must catch.

Each row replaces one function of the package with a broken copy, under
every name the function has in a ``schmidt`` module, and runs
`verify_report(20)`: the report must fail, with the witness the row
records.  A row whose fault changes the part statistics of the objects
(the colors, or which objects the walk yields) also runs
`refined_report(8, 3, 3, 3, 3)`, which must fail with the summary the
row records (swapped colors on every object would pass it: the grid bounds
both colors alike).  The witnesses are recorded so that a change to what a
failure names shows as one diff per row.

A known miss: ``verify`` maps no object heavier than its round-trip
cutoff, and the counts never call the map.  So a forward map that is
wrong only on parts >= 13 passes `verify_report(5000, 12)`.
"""

import sys

import pytest

import schmidt.bijection
import schmidt.partitions
import schmidt.series
from schmidt.bijection import DistinctPair
from schmidt.harness import refined_report, verify_report
from schmidt.partitions import TwoColorPartition, _unchecked


def patch_everywhere(monkeypatch, original, replacement):
    """Put ``replacement`` under every name ``original`` has in the package."""
    patched = 0
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "schmidt":
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, replacement)
                patched += 1
    assert patched, original


def staircase_off_by_one(original):
    # adds m, ..., 2, 1 to the arms in place of m - 1, ..., 1, 0
    def add_staircase(padded):
        pair = original(padded)
        return _unchecked(DistinctPair, tuple(a + 1 for a in pair.arms), pair.legs)

    return add_staircase


def hook_twos_off_by_one(original):
    # one 2 fewer in the first hook
    def hook_counts(pair):
        hooks = list(original(pair))
        if hooks:
            hooks[1] -= 1
        return tuple(hooks)

    return hook_counts


def wright_build_untransposed(original):
    # the nonzero overhangs below the Durfee square as rows, not as columns
    def wright_build(pair):
        m = pair.m
        rows = tuple(a + j for j, a in enumerate(pair.arms, 1))
        overhangs = (leg + j - m for j, leg in enumerate(pair.legs, 1))
        return rows + tuple(o for o in overhangs if o)

    return wright_build


def colors_swapped(original):
    # on the partitions of even length only: a swap of every preimage keeps
    # each refined count, since the grid bounds both colors alike
    def schmidt_to_two_color(partition):
        preimage = original(partition)
        if len(partition) % 2:
            return preimage
        return _unchecked(TwoColorPartition, preimage.green, preimage.red)

    return schmidt_to_two_color


def one_yield_skipped(index):
    # every walk loses its item at index: an object of iter_schmidt or
    # iter_two_color, or a head tuple of _heads with every partition built on it
    def fault(original):
        def walk(*args):
            for i, item in enumerate(original(*args)):
                if i != index:
                    yield item

        return walk

    return fault


def off_at_seven(original):
    def table(max_n):
        values = list(original(max_n))
        if max_n >= 7:
            values[7] += 1
        return tuple(values)

    return table


def raising_at_weight_five(original):
    def two_color_to_schmidt(two_color):
        if two_color.weight == 5:
            raise RuntimeError("injected")
        return original(two_color)

    return two_color_to_schmidt


# (original, fault, verify_report(20) witness, refined_report(8, 3, 3, 3, 3)
# summary or None when the fault leaves the part statistics alone)
FAULTS = {
    "staircase-off-by-one": (
        schmidt.bijection.add_staircase,
        staircase_off_by_one,
        "n=1: round trip failed at 1r",
        None,
    ),
    "hook-twos-off-by-one": (
        schmidt.bijection._hook_counts,
        hook_twos_off_by_one,
        "n=1: round trip failed at 1r",
        None,
    ),
    "wright-build-untransposed": (
        schmidt.bijection.wright_build,
        wright_build_untransposed,
        "n=2: round trip raised ValueError: parts must be weakly decreasing: (1, 2) at 2",
        None,
    ),
    "inverse-swaps-colors": (
        schmidt.bijection.schmidt_to_two_color,
        colors_swapped,
        "n=1: round trip failed at 1r",
        "FAIL: n=3 r=1 l=2 p=1 q=1 t_refined=1 transported=2",
    ),
    "iter-schmidt-drops-one": (
        schmidt.partitions.iter_schmidt,
        # n, n + n, n + (n - 1), ...: the third is the first of both colors
        one_yield_skipped(2),
        "n=2: enumerated s=4 t=5, counted s=5 t=5",
        "FAIL: n=2 r=1 l=1 p=1 q=1 t_refined=1 transported=0",
    ),
    "iter-two-color-drops-one": (
        schmidt.partitions.iter_two_color,
        # weight 2 walks 2r, 2g, 1r+1r, 1r+1g: the fourth is the first of
        # both colors.  Index 1 or 2 drops a one-color object, which no
        # refined cell counts (each needs r, l >= 1), so refined passes
        one_yield_skipped(3),
        "n=2: enumerated s=5 t=4, counted s=5 t=5",
        "FAIL: n=2 r=1 l=1 p=1 q=1 t_refined=0 transported=1",
    ),
    "heads-walk-skips-one": (
        schmidt.partitions._heads,
        one_yield_skipped(1),
        "n=2: enumerated s=3 t=5, counted s=5 t=5",
        "FAIL: n=3 r=1 l=2 p=1 q=1 t_refined=1 transported=0",
    ),
    "schmidt-counts-off-at-7": (
        schmidt.partitions.schmidt_counts,
        off_at_seven,
        "n=7: s=111 t=110 series=110",
        None,
    ),
    "two-color-counts-off-at-7": (
        schmidt.partitions.two_color_counts,
        off_at_seven,
        "n=7: s=110 t=111 series=110",
        None,
    ),
    "series-off-at-7": (
        schmidt.series.two_color_coefficients,
        off_at_seven,
        "n=7: s=110 t=110 series=111",
        None,
    ),
    "forward-map-raises": (
        schmidt.bijection.two_color_to_schmidt,
        raising_at_weight_five,
        "n=5: round trip raised RuntimeError: injected at 5r",
        None,
    ),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_a_fault_is_caught_with_its_witness(monkeypatch, fault):
    original, make, verify_witness, refined_summary = FAULTS[fault]
    patch_everywhere(monkeypatch, original, make(original))
    report = verify_report(20)
    assert not report.ok
    assert report.witness == verify_witness
    if refined_summary is not None:
        refined = refined_report(8, 3, 3, 3, 3)
        assert not refined.ok
        assert refined.summary == refined_summary


def test_the_package_passes_without_a_fault():
    assert verify_report(20).ok
    assert refined_report(8, 3, 3, 3, 3).ok
