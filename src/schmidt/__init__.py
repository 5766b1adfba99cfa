"""Two-color partitions, Schmidt partitions, and the bijection between them.

A Schmidt partition of n is an ordinary partition whose first, third,
fifth, ... parts sum to n.  This package enumerates both families,
implements a weight-preserving bijection between them with every
intermediate construction step exposed, backs the counts with an exact
power-series oracle, and ships a command-line harness that verifies the
count identity and its four-parameter refinement.
"""

from .bijection import (
    DistinctPair,
    NotInImageError,
    PaddedPair,
    add_staircase,
    durfee_square,
    hook_compose,
    hook_decompose,
    hooks_to_schmidt,
    pad_colors,
    remove_staircase,
    render_two_modular,
    schmidt_to_hooks,
    schmidt_to_two_color,
    two_color_to_schmidt,
    wright_build,
    wright_split,
)
from .partitions import (
    Parts,
    RefinedQuery,
    TwoColorPartition,
    alternating_sum,
    as_partition,
    conjugate,
    count_schmidt,
    count_two_color,
    enumerate_schmidt,
    enumerate_schmidt_refined_literal,
    enumerate_two_color,
    enumerate_two_color_refined,
    iter_schmidt,
    iter_two_color,
    partitions_of,
    schmidt_counts,
    two_color_counts,
)
from .series import two_color_coefficients
from .textform import (
    PartitionSyntaxError,
    format_partition,
    format_two_color,
    parse_partition,
    parse_two_color,
    two_color_from_dict,
    two_color_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "DistinctPair",
    "NotInImageError",
    "PaddedPair",
    "Parts",
    "PartitionSyntaxError",
    "RefinedQuery",
    "TwoColorPartition",
    "add_staircase",
    "alternating_sum",
    "as_partition",
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
    "two_color_coefficients",
    "two_color_counts",
    "two_color_from_dict",
    "two_color_to_dict",
    "two_color_to_schmidt",
    "wright_build",
    "wright_split",
]
