"""The public surface: each module's `__all__`, republished by `schmidt`."""

import ast
import inspect
import pathlib

import pytest

import schmidt
from schmidt import bijection, partitions, series, textform

MODULES = [bijection, partitions, series, textform]

PUBLIC = [
    "DistinctPair",
    "NotInImageError",
    "PaddedPair",
    "PartitionSyntaxError",
    "Parts",
    "RefinedQuery",
    "TwoColorPartition",
    "add_staircase",
    "alternating_sum",
    "as_partition",
    "check_hooks",
    "conjugate",
    "count_schmidt",
    "count_two_color",
    "durfee_square",
    "enumerate_schmidt",
    "enumerate_schmidt_refined_literal",
    "enumerate_two_color",
    "enumerate_two_color_refined",
    "format_partition",
    "format_two_color",
    "hook_compose",
    "hook_decompose",
    "hooks_to_schmidt",
    "iter_schmidt",
    "iter_two_color",
    "pad_colors",
    "parse_partition",
    "parse_two_color",
    "partitions_of",
    "remove_staircase",
    "render_two_modular",
    "schmidt_counts",
    "schmidt_to_hooks",
    "schmidt_to_two_color",
    "trace_backward",
    "trace_forward",
    "two_color_coefficients",
    "two_color_counts",
    "two_color_to_schmidt",
    "wright_build",
    "wright_split",
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_all_is_what_it_defines(module):
    defined = {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    if module is partitions:
        defined.add("Parts")
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == defined


def test_package_republishes_every_module_list_once():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert schmidt.__all__ == sorted(names) == PUBLIC
    for module in MODULES:
        for name in module.__all__:
            assert getattr(schmidt, name) is getattr(module, name)


def test_no_function_calls_itself():
    # a call by its own name, `yield from` on one included, recurses once per
    # level, so deep inputs would raise RecursionError
    recursive = []
    for path in sorted(pathlib.Path(schmidt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                called = {
                    call.func.id
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                }
                if node.name in called:
                    recursive.append(f"{path.name}:{node.lineno} {node.name}")
    assert not recursive
