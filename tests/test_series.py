import pytest

from schmidt.partitions import count_two_color
from schmidt.series import two_color_coefficients


def reference_coefficients(order):
    # p(k) by Euler's pentagonal-number recurrence, p(k) = sum over j >= 1 of
    # (-1)^(j+1) (p(k - j(3j-1)/2) + p(k - j(3j+1)/2)), then the square of
    # the partition generating function as the Cauchy product of p with itself
    p = [1]
    for k in range(1, order + 1):
        total = 0
        j = 1
        while j * (3 * j - 1) // 2 <= k:
            sign = 1 if j % 2 else -1
            total += sign * p[k - j * (3 * j - 1) // 2]
            if j * (3 * j + 1) // 2 <= k:
                total += sign * p[k - j * (3 * j + 1) // 2]
            j += 1
        p.append(total)
    return tuple(sum(p[i] * p[n - i] for i in range(n + 1)) for n in range(order + 1))


def test_two_color_coefficients_known_prefix():
    assert two_color_coefficients(8) == (1, 2, 5, 10, 20, 36, 65, 110, 185)


def test_two_color_coefficients_match_enumeration():
    coefficients = two_color_coefficients(24)
    for n in range(25):
        assert coefficients[n] == count_two_color(n)


def test_two_color_coefficients_match_the_full_product():
    reference = reference_coefficients(500)
    for order in [*range(61), 500]:
        assert two_color_coefficients(order) == reference[: order + 1]


def test_two_color_coefficients_reject_negative_order():
    with pytest.raises(ValueError, match="order must be nonnegative"):
        two_color_coefficients(-1)
