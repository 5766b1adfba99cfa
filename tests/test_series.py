import pytest

from schmidt.partitions import count_two_color
from schmidt.series import (
    TruncatedSeries,
    series_mul,
    series_one,
    series_recip,
    two_color_coefficients,
)


def test_series_validation():
    with pytest.raises(ValueError):
        TruncatedSeries(())
    assert TruncatedSeries((1, 2)).order == 1


def test_series_mul_examples():
    sq = series_mul(TruncatedSeries((1, 1, 0)), TruncatedSeries((1, 1, 0)))
    assert sq.coefficients == (1, 2, 1)
    anything = TruncatedSeries((5, -3, 7))
    assert series_mul(series_one(2), anything) == anything
    telescoped = series_mul(TruncatedSeries((1, -1, 0, 0)), TruncatedSeries((1, 1, 1, 1)))
    assert telescoped.coefficients == (1, 0, 0, 0)


def test_series_mul_order_mismatch():
    with pytest.raises(ValueError):
        series_mul(series_one(2), series_one(3))


def test_series_recip_examples():
    assert series_recip(series_one(4)) == series_one(4)
    geometric = series_recip(TruncatedSeries((1, -1, 0, 0)))
    assert geometric.coefficients == (1, 1, 1, 1)
    negative_unit = TruncatedSeries((-1, 2, 5))
    assert series_mul(negative_unit, series_recip(negative_unit)) == series_one(2)


def test_series_recip_requires_unit():
    with pytest.raises(ValueError):
        series_recip(TruncatedSeries((0, 1)))
    with pytest.raises(ValueError):
        series_recip(TruncatedSeries((2, 1)))


def test_recip_is_two_sided_inverse():
    series = TruncatedSeries((1, 3, -2, 0, 7, -1))
    inverse = series_recip(series)
    assert series_mul(series, inverse) == series_one(5)
    assert series_mul(inverse, series) == series_one(5)


def test_two_color_coefficients_known_prefix():
    assert two_color_coefficients(8) == (1, 2, 5, 10, 20, 36, 65, 110, 185)


def test_two_color_coefficients_match_enumeration():
    coefficients = two_color_coefficients(24)
    for n in range(25):
        assert coefficients[n] == count_two_color(n)


def test_two_color_coefficients_match_the_full_product():
    # the N-fold product of dense (1 - q^k) factors, as oracle for the
    # in-place sparse updates
    for order in range(61):
        product = series_one(order)
        for k in range(1, order + 1):
            factor = [0] * (order + 1)
            factor[0] = 1
            factor[k] = -1
            product = series_mul(product, TruncatedSeries(tuple(factor)))
        inverse = series_recip(product)
        assert two_color_coefficients(order) == series_mul(inverse, inverse).coefficients


def test_truncation_is_an_ideal():
    # multiplying by q^k zeroes the top k coefficients only
    shift = TruncatedSeries((0, 0, 1, 0, 0))
    series = TruncatedSeries((1, 1, 1, 1, 1))
    assert series_mul(shift, series).coefficients == (0, 0, 1, 1, 1)
