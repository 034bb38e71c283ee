"""Kernel tests: derivatives of exp(quadratic) against independent references."""

import math

import numpy as np
import pytest

from mssvs import observables as obs
from mssvs.circuit import CircuitParams, derived_coefficients
from mssvs.errors import CapacityError
from mssvs.genfunc import DEFAULT_MAX_TOTAL_ORDER, QuadraticExponent, taylor_coefficient_box

from conftest import columns_of
from moment_reference import herald_exponent, moment_exponent
from symbolic_oracle import symbolic_derivative


def derivative(exponent, orders, max_total_order=DEFAULT_MAX_TOTAL_ORDER):
    """Derivative of exp(E(x)) at x = 0 read off the Taylor box."""
    orders = tuple(orders)
    box = taylor_coefficient_box(exponent, orders, max_total_order)
    scale = 1.0
    for k in orders:
        scale *= math.factorial(k)
    return float(box[orders]) * scale


def reference_hermite_box(a, caps):
    """The unbatched kernel: one exponent, each zero coefficient skipped.

    The batched kernel must reproduce it entry for entry at every point.
    """
    n = len(caps)
    g = np.zeros(tuple(k + 1 for k in caps))
    g[(0,) * n] = 1.0
    for i, cap in enumerate(caps):
        lead = (slice(None),) * i
        rest = (0,) * (n - i - 1) + (Ellipsis,)
        couplings = [(j, a[i, j]) for j in range(i) if a[i, j] != 0]
        for t in range(1, cap + 1):
            prev = g[lead + (t - 1,) + rest]
            slab = g[lead + (t,) + rest]
            if t >= 2 and a[i, i] != 0:
                slab += a[i, i] * g[lead + (t - 2,) + rest]
            for j, coeff in couplings:
                shift = (slice(None),) * j
                slab[shift + (slice(1, None),)] += coeff * prev[shift + (slice(None, -1),)]
            slab /= t
    return g


def circuit_points(m, count=40, seed=31):
    """Seeded points plus the edges eta = 1, T = 0, T = 1 and r = 0."""
    rng = np.random.default_rng(seed + m)
    points = [
        CircuitParams(rng.uniform(0, 1.5), rng.uniform(0, 0.5), rng.uniform(0, 0.5),
                      rng.uniform(0, 1), m)
        for _ in range(count)
    ]
    edges = [(0.7, 1.0, 0.1, 0.9), (0.7, 0.1, 1.0, 0.9), (0.7, 0.1, 0.1, 0.0),
             (0.7, 0.1, 0.1, 1.0), (0.0, 0.1, 0.1, 0.9), (0.7, 0.0, 0.0, 0.9)]
    return points + [CircuitParams(*edge, m) for edge in edges]


def random_exponent(rng, n_vars):
    a = rng.uniform(-1, 1, (n_vars, n_vars))
    return QuadraticExponent(a + a.T)


class TestTrivialValues:
    def test_zero_exponent(self):
        exponent = QuadraticExponent(np.zeros((2, 2)))
        assert derivative(exponent, (0, 0)) == 1.0

    def test_half_square(self):
        exponent = QuadraticExponent([[1.0]])
        assert derivative(exponent, (2,)) == pytest.approx(1.0)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 8])
    def test_cross_term_gives_factorial(self, m):
        exponent = QuadraticExponent([[0, 1], [1, 0]])
        assert derivative(exponent, (m, m)) == pytest.approx(math.factorial(m))


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

    def test_four_variables(self):
        # the shape of the moment and photon-number exponents
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
        permuted = QuadraticExponent(exponent.a[np.ix_(perm, perm)])
        orders_p = tuple(orders[i] for i in perm)
        assert derivative(permuted, orders_p) == pytest.approx(
            derivative(exponent, orders), rel=1e-12
        )

    def test_odd_parity_vanishes(self):
        rng = np.random.default_rng(6)
        exponent = random_exponent(rng, 3)
        for orders in [(1, 0, 0), (1, 1, 1), (3, 0, 2), (0, 1, 2)]:
            assert derivative(exponent, orders) == 0.0

    def test_scaling(self):
        rng = np.random.default_rng(7)
        exponent = random_exponent(rng, 2)
        scale = 0.83
        scaled = QuadraticExponent(exponent.a * scale**2)
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
                expected = box[i, j] * math.factorial(i) * math.factorial(j)
                assert pointwise == pytest.approx(expected, rel=1e-12, abs=1e-14)

    def test_large_cross_term_box(self):
        # exp(a x y) has Taylor coefficients delta_kl a^k / k!
        a = -0.95
        exponent = QuadraticExponent([[0, a], [a, 0]])
        box = taylor_coefficient_box(exponent, (64, 64), max_total_order=128)
        expected = np.diag([a**k / math.factorial(k) for k in range(65)])
        np.testing.assert_allclose(box, expected, rtol=1e-13, atol=0)


class TestBatchedBox:
    def assert_matches_reference(self, exponent, caps):
        box = taylor_coefficient_box(exponent, caps, max_total_order=sum(caps))
        assert box.shape == tuple(k + 1 for k in caps) + exponent.a.shape[2:]
        for p in range(box.shape[-1]):
            want = reference_hermite_box(exponent.a[..., p], caps)
            np.testing.assert_array_equal(box[..., p], want)

    @pytest.mark.parametrize("m", range(9))
    def test_herald_boxes(self, m):
        dc = derived_coefficients(columns_of(circuit_points(m)))
        self.assert_matches_reference(herald_exponent(dc), (m, m))

    @pytest.mark.parametrize("m", range(9))
    def test_moment_boxes(self, m):
        dc = derived_coefficients(columns_of(circuit_points(m, count=10)))
        self.assert_matches_reference(moment_exponent(dc), (m, m, 2, 2))

    def test_zero_coefficients_at_some_points(self):
        # a coefficient that is zero at one point but not at another is
        # applied to the whole batch; the zero points must not change
        rng = np.random.default_rng(41)
        exponents = [random_exponent(rng, 4) for _ in range(6)]
        a = np.stack([e.a for e in exponents], axis=-1).copy()
        a[1, 0, :3] = a[0, 1, :3] = 0.0
        a[2, 2, ::2] = 0.0
        a[3, 2, :] = a[2, 3, :] = 0.0
        self.assert_matches_reference(QuadraticExponent(a), (3, 2, 4, 2))

    def test_single_point_batch(self):
        rng = np.random.default_rng(42)
        exponent = random_exponent(rng, 3)
        batch = QuadraticExponent(exponent.a[..., None])
        box = taylor_coefficient_box(batch, (2, 3, 1))
        np.testing.assert_array_equal(box[..., 0], taylor_coefficient_box(exponent, (2, 3, 1)))

    def test_asymmetric_point_rejected(self):
        a = np.zeros((2, 2, 3))
        a[0, 1, 1] = 1.0
        with pytest.raises(ValueError, match="not symmetric"):
            QuadraticExponent(a)

    def test_quadratic_part_must_be_square(self):
        with pytest.raises(ValueError, match="square"):
            QuadraticExponent(np.zeros((2, 3, 4)))


class TestContracts:
    def test_dimension_mismatch(self):
        exponent = QuadraticExponent(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            derivative(exponent, (1,))

    def test_negative_order(self):
        exponent = QuadraticExponent(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            derivative(exponent, (1, -1))

    def test_capacity(self):
        exponent = QuadraticExponent([[0, 1], [1, 0]])
        with pytest.raises(CapacityError) as info:
            derivative(exponent, (40, 40))
        assert info.value.requested == 80
        # raising the cap makes the same call valid
        value = derivative(exponent, (40, 40), max_total_order=80)
        assert value == pytest.approx(math.factorial(40), rel=1e-10)
        # the public observables take no cap, so the message names none
        with pytest.raises(CapacityError) as info:
            obs.pnd_vector(CircuitParams(1.0, 0.1, 0.1, 0.9, 33))
        assert str(info.value) == "total derivative order 66 exceeds the cap 64"

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError):
            QuadraticExponent([[0.0, 1.0], [0.2, 0.0]])

    def test_complex_matrix_rejected(self):
        # a cast would only warn and drop the imaginary part
        for a in ([[0.0, 1.0 + 0.5j], [1.0 + 0.5j, 0.0]], np.eye(2, dtype=complex)):
            with pytest.raises(ValueError, match="real"):
                QuadraticExponent(a)

