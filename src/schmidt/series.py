"""Truncated formal power series over the integers.

Exact arithmetic only; a series of truncation order N stores the
coefficients of q^0 through q^N and all operations ignore higher terms.
Used as an independent, non-enumerative source for the two-color counts.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TruncatedSeries:
    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(int(c) for c in self.coefficients)
        if not coeffs:
            raise ValueError("a series needs at least the constant term")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1


def series_one(order: int) -> TruncatedSeries:
    """The multiplicative identity truncated at ``order``."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return TruncatedSeries((1,) + (0,) * order)


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the common order."""
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} != {b.order}")
    n = a.order
    out = [0] * (n + 1)
    for i, ca in enumerate(a.coefficients):
        if ca == 0:
            continue
        for j in range(n + 1 - i):
            out[i + j] += ca * b.coefficients[j]
    return TruncatedSeries(tuple(out))


def series_recip(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse; requires constant term 1 or -1."""
    c0 = a.coefficients[0]
    if c0 not in (1, -1):
        raise ValueError(f"constant term must be a unit, got {c0}")
    out = [c0] + [0] * a.order
    for n in range(1, a.order + 1):
        acc = sum(a.coefficients[k] * out[n - k] for k in range(1, n + 1))
        out[n] = -c0 * acc
    return TruncatedSeries(tuple(out))


def two_color_coefficients(order: int) -> tuple[int, ...]:
    """Coefficients of the product over k >= 1 of 1/(1 - q^k)^2.

    Entry n counts the two-color partitions of n; factors with k beyond
    the truncation order do not affect the kept coefficients.  The product
    of the (1 - q^k) is built in place, one sparse factor at a time, before
    one reciprocal and one squaring.
    """
    product = list(series_one(order).coefficients)
    for k in range(1, order + 1):
        for i in range(order, k - 1, -1):  # downwards, so product[i - k] is still old
            product[i] -= product[i - k]
    inverse = series_recip(TruncatedSeries(tuple(product)))
    return series_mul(inverse, inverse).coefficients
