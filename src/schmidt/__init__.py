"""Two-color partitions, Schmidt partitions, and the bijection between them.

A Schmidt partition of n is an ordinary partition whose first, third,
fifth, ... parts sum to n.  This package enumerates both families,
implements a weight-preserving bijection between them with every
intermediate construction step exposed, backs the counts with an exact
power-series oracle, and ships a command-line harness that verifies the
count identity and its four-parameter refinement.
"""

from . import bijection, partitions, series, textform
from .bijection import *
from .partitions import *
from .series import *
from .textform import *

__version__ = "0.1.0"

__all__ = sorted(bijection.__all__ + partitions.__all__ + series.__all__ + textform.__all__)
