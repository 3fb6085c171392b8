"""Term values are IEEE product chains: pinned bit for bit.

``evaluate_term`` computes x^2 as x*x, x^3 as (x*x)*x and x^4 as
(x*x)*(x*x). These tests pin those bits on a vector that holds every kind of
double (signed zeros, subnormals, infinities, nan, values whose powers
overflow), check that the bits do not depend on how the values are split
into calls, and check that each power is exact in the sign of x and within
2 ulp of ``np.power``.
"""

import numpy as np
import pytest

from sitelasso.errors import DataError
from sitelasso.terms import MAX_ORDER, TermSpec, evaluate_term

ORDERS = range(1, MAX_ORDER + 1)
PRODUCTS = {
    1: lambda x: x,
    2: lambda x: x * x,
    3: lambda x: (x * x) * x,
    4: lambda x: (x * x) * (x * x),
}


def mixed_values():
    rng = np.random.default_rng(19)
    tiny = np.finfo(np.float64).tiny
    special = np.array([
        0.0, -0.0, 5e-324, -5e-324, tiny / 3, -tiny / 7, tiny, -tiny,
        np.inf, -np.inf, np.nan, 1.0, -1.0, 2.0, -3.0,
        1e77, -1.2e77, 1.4e77, 1e102, -6e102, 1e154, -1.4e154, 1.5e154,
        1e200, -1e300, np.finfo(np.float64).max, -np.finfo(np.float64).max,
        1e-80, -1e-103, 1e-160, -1e-200,
    ])
    normals = rng.normal(size=6000) * 10.0 ** rng.uniform(-3, 3, size=6000)
    return np.concatenate([special, normals, -normals[:2000]])


@pytest.fixture(autouse=True)
def quiet_overflow():
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        yield


def term_values(order, x):
    return evaluate_term(TermSpec("poly", "x", order), {"x": x})


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("order", ORDERS)
def test_each_power_is_its_product_chain_bit_for_bit(order):
    x = mixed_values()
    expected = PRODUCTS[order](x)
    assert np.array_equal(bits(term_values(order, x)), bits(expected))


@pytest.mark.parametrize("order", ORDERS)
def test_bits_do_not_depend_on_how_the_values_are_grouped(order):
    x = mixed_values()
    whole = bits(term_values(order, x))
    blocks = np.concatenate(
        [bits(term_values(order, x[i : i + 4096])) for i in range(0, x.size, 4096)]
    )
    singles = np.concatenate([bits(term_values(order, x[i : i + 1])) for i in range(x.size)])
    assert np.array_equal(whole, blocks)
    assert np.array_equal(whole, singles)


@pytest.mark.parametrize("order", ORDERS)
def test_odd_orders_are_odd_and_even_orders_even_in_the_sign_of_x(order):
    x = mixed_values()
    x = x[~np.isnan(x)]  # the sign bit of a nan product is not the sign of x
    plus, minus = term_values(order, x), term_values(order, -x)
    mirrored = -plus if order % 2 else plus
    assert np.array_equal(bits(minus), bits(mirrored))


@pytest.mark.parametrize("order", ORDERS)
def test_normal_results_are_within_2_ulp_of_np_power(order):
    x = mixed_values()
    ours = term_values(order, x)
    reference = np.power(x, float(order))
    normal = np.isfinite(reference) & (np.abs(reference) >= np.finfo(np.float64).tiny)
    assert normal.sum() > 7000
    # same-signed finite doubles are ordered as their bit patterns
    ulps = np.abs(bits(ours[normal]) - bits(reference[normal]))
    assert ulps.max() <= 2
    assert np.array_equal(np.isnan(ours), np.isnan(reference))


def test_orders_above_max_order_are_rejected():
    with pytest.raises(DataError, match=rf"^polynomial order must be in 1\.\.{MAX_ORDER}, got 5$"):
        TermSpec("poly", "x", MAX_ORDER + 1)
    with pytest.raises(DataError, match="got 0"):
        TermSpec("poly", "x", 0)
