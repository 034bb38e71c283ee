"""Kernel tests: derivatives of exp(quadratic) against independent references."""

import cmath
import math

import numpy as np
import pytest

from mssvs.errors import CapacityError
from mssvs.genfunc import DEFAULT_MAX_TOTAL_ORDER, QuadraticExponent, taylor_coefficient_box
from mssvs.observables import svs_moment

from symbolic_oracle import symbolic_derivative


def derivative(exponent, orders, max_total_order=DEFAULT_MAX_TOTAL_ORDER):
    """Derivative of exp(E(x)) at x = 0 read off the Taylor box."""
    orders = tuple(orders)
    box = taylor_coefficient_box(exponent, orders, max_total_order)
    scale = 1.0
    for k in orders:
        scale *= math.factorial(k)
    return complex(box[orders]) * scale * cmath.exp(exponent.c)


def random_exponent(rng, n_vars, with_linear=True, with_constant=True):
    a = rng.uniform(-1, 1, (n_vars, n_vars)) + 1j * rng.uniform(-1, 1, (n_vars, n_vars))
    a = a + a.T
    b = np.zeros(n_vars, dtype=complex)
    if with_linear:
        b = rng.uniform(-1, 1, n_vars) + 1j * rng.uniform(-1, 1, n_vars)
    c = 0.0
    if with_constant:
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return QuadraticExponent(a, b, c)


class TestTrivialValues:
    def test_zero_exponent(self):
        exponent = QuadraticExponent(np.zeros((2, 2)), np.zeros(2))
        assert derivative(exponent, (0, 0)) == 1.0

    def test_half_square(self):
        exponent = QuadraticExponent([[1.0]], [0.0])
        assert derivative(exponent, (2,)) == pytest.approx(1.0)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 8])
    def test_cross_term_gives_factorial(self, m):
        exponent = QuadraticExponent([[0, 1], [1, 0]], [0, 0])
        assert derivative(exponent, (m, m)) == pytest.approx(math.factorial(m))

    def test_linear_term(self):
        exponent = QuadraticExponent([[1.0]], [0.7 + 0.2j])
        assert derivative(exponent, (1,)) == pytest.approx(0.7 + 0.2j)

    def test_constant_multiplies(self):
        exponent = QuadraticExponent([[1.0]], [0.4], 0.0)
        shifted = QuadraticExponent(exponent.a, exponent.b, exponent.c + (0.3 - 0.2j))
        ratio = derivative(shifted, (3,)) / derivative(exponent, (3,))
        assert ratio == pytest.approx(cmath.exp(0.3 - 0.2j), rel=1e-13)


class TestOracleEquivalence:
    def test_three_variable_point(self):
        rng = np.random.default_rng(11)
        exponent = random_exponent(rng, 3)
        got = derivative(exponent, (2, 1, 1))
        want = symbolic_derivative(exponent, (2, 1, 1))
        assert got == pytest.approx(want, rel=1e-12)

    def test_random_sample(self):
        # acceptance criterion: 200 random exponents, n_vars <= 3, order <= 6
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n_vars = int(rng.integers(1, 4))
            exponent = random_exponent(rng, n_vars)
            orders = tuple(int(k) for k in rng.integers(0, 4, n_vars))
            while sum(orders) > 6:
                orders = tuple(int(k) for k in rng.integers(0, 4, n_vars))
            got = derivative(exponent, orders)
            want = symbolic_derivative(exponent, orders)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_four_variables_with_linear_part(self):
        # the shape of the moment and photon-number exponents, plus a linear part
        rng = np.random.default_rng(2025)
        for _ in range(40):
            exponent = random_exponent(rng, 4)
            orders = tuple(int(k) for k in rng.integers(0, 5, 4))
            while sum(orders) > 8:
                orders = tuple(int(k) for k in rng.integers(0, 5, 4))
            got = derivative(exponent, orders)
            want = symbolic_derivative(exponent, orders)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestProperties:
    def test_permutation_symmetry(self):
        rng = np.random.default_rng(5)
        exponent = random_exponent(rng, 4)
        orders = (3, 1, 2, 0)
        perm = rng.permutation(4)
        permuted = QuadraticExponent(
            exponent.a[np.ix_(perm, perm)], exponent.b[perm], exponent.c
        )
        orders_p = tuple(orders[i] for i in perm)
        assert derivative(permuted, orders_p) == pytest.approx(
            derivative(exponent, orders), rel=1e-12
        )

    def test_odd_parity_vanishes(self):
        rng = np.random.default_rng(6)
        exponent = random_exponent(rng, 3, with_linear=False)
        for orders in [(1, 0, 0), (1, 1, 1), (3, 0, 2), (0, 1, 2)]:
            assert derivative(exponent, orders) == 0.0

    def test_scaling(self):
        rng = np.random.default_rng(7)
        exponent = random_exponent(rng, 2)
        scale = 0.83
        scaled = QuadraticExponent(
            exponent.a * scale**2, exponent.b * scale, exponent.c
        )
        orders = (2, 3)
        assert derivative(scaled, orders) == pytest.approx(
            derivative(exponent, orders) * scale ** sum(orders), rel=1e-12
        )

    def test_box_matches_pointwise(self):
        rng = np.random.default_rng(8)
        exponent = random_exponent(rng, 2)
        box = taylor_coefficient_box(exponent, (3, 4))
        for i in range(4):
            for j in range(5):
                pointwise = derivative(exponent, (i, j))
                expected = (
                    box[i, j]
                    * math.factorial(i)
                    * math.factorial(j)
                    * cmath.exp(exponent.c)
                )
                assert pointwise == pytest.approx(expected, rel=1e-12, abs=1e-14)

    def test_large_cross_term_box(self):
        # exp(a x y) has Taylor coefficients delta_kl a^k / k!
        a = 0.9 - 0.4j
        exponent = QuadraticExponent([[0, a], [a, 0]], [0, 0])
        box = taylor_coefficient_box(exponent, (64, 64), max_total_order=128)
        expected = np.diag([a**k / math.factorial(k) for k in range(65)])
        np.testing.assert_allclose(box, expected, rtol=1e-13, atol=0)


class TestContracts:
    def test_dimension_mismatch(self):
        exponent = QuadraticExponent(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            derivative(exponent, (1,))

    def test_negative_order(self):
        exponent = QuadraticExponent(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            derivative(exponent, (1, -1))

    def test_capacity(self):
        exponent = QuadraticExponent([[0, 1], [1, 0]], [0, 0])
        with pytest.raises(CapacityError) as info:
            derivative(exponent, (40, 40))
        assert info.value.requested == 80
        # raising the cap makes the same call valid
        value = derivative(exponent, (40, 40), max_total_order=80)
        assert value == pytest.approx(math.factorial(40), rel=1e-10)
        # the public observables take no cap, so the message names none
        with pytest.raises(CapacityError) as info:
            svs_moment(0.5, 40, 30)
        assert str(info.value) == "total derivative order 70 exceeds the cap 64"

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError):
            QuadraticExponent([[0.0, 1.0], [0.2, 0.0]], [0.0, 0.0])

