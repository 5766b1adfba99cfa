"""The two-color counts as power-series coefficients.

An independent, non-enumerative source for the two-color counts: exact
integer arithmetic on the coefficients of q^0 through q^N only.
"""

from __future__ import annotations

__all__ = ["two_color_coefficients"]


def two_color_coefficients(order: int) -> tuple[int, ...]:
    """Coefficients of the product over k >= 1 of 1/(1 - q^k)^2.

    Entry n counts the two-color partitions of n; factors with k beyond
    the truncation order do not affect the kept coefficients.  Multiplying
    by 1/(1 - q^k) = sum over j of q^(jk) is the in-place update
    c[i] += c[i - k] over ascending i >= k, since c[i - k] is then already
    new; applying it twice for each k <= order gives the square, so one
    list starting at 1 holds the whole product.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    coefficients = [1] + [0] * order
    for k in range(1, order + 1):
        for _ in range(2):
            for i in range(k, order + 1):
                coefficients[i] += coefficients[i - k]
    return tuple(coefficients)
