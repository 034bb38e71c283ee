"""Closed-form observable tests: trivial limits, baselines, properties."""

import math

import numpy as np
import pytest

from mssvs.circuit import CircuitParams, derived_coefficients
from mssvs.errors import ParameterDomainError, UndefinedStateError
from mssvs import observables as obs


class TestSuccessProbability:
    def test_vacuum_heralded_on_zero(self):
        assert obs.success_probability(CircuitParams(0, 0, 0, 0.5, 0)) == 1.0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_vacuum_cannot_herald_photons(self, m):
        assert obs.success_probability(CircuitParams(0, 0, 0, 0.5, m)) == 0.0

    @pytest.mark.parametrize("m", [1, 2])
    def test_complete_loss_kills_heralding(self, m):
        assert obs.success_probability(CircuitParams(0.5, 1.0, 0, 0.5, m)) == 0.0
        assert obs.success_probability(CircuitParams(0.5, 0, 1.0, 0.5, m)) == 0.0

    def test_single_photon_closed_form(self):
        params = CircuitParams(0.5, 0.02, 0.02, 0.97, 1)
        dc = derived_coefficients(params)
        closed = (1.0 - dc.eps1 / dc.eps4) / math.sqrt(dc.eps4)
        assert obs.success_probability(params) == pytest.approx(closed, rel=1e-13)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            params = CircuitParams(
                r=rng.uniform(0, 1.2),
                eta1=rng.uniform(0, 1),
                eta2=rng.uniform(0, 1),
                T=rng.uniform(0, 1),
                m=int(rng.integers(0, 4)),
            )
            assert 0.0 <= obs.success_probability(params) <= 1.0

    def test_monotone_in_detection_loss(self):
        values = [
            obs.success_probability(CircuitParams(0.7, 0.05, eta2, 0.9, 1))
            for eta2 in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]) if b > 0)
        assert values[-1] == 0.0


class TestMoments:
    def test_mean_displacement_vanishes(self):
        params = CircuitParams(0.7, 0.1, 0.05, 0.9, 2)
        assert abs(obs.moment(params, 1, 0)) < 1e-14
        assert abs(obs.moment(params, 0, 1)) < 1e-14

    def test_hermiticity(self):
        params = CircuitParams(0.6, 0.2, 0.1, 0.8, 1)
        for k, l in [(1, 0), (2, 0), (2, 1)]:
            assert obs.moment(params, k, l) == pytest.approx(
                obs.moment(params, l, k).conjugate(), abs=1e-10
            )

    def test_svs_mean_photon(self):
        for r in (0.3, 0.7, 1.0):
            lam = math.tanh(r)
            assert obs.svs_moment(r, 1, 1).real == pytest.approx(
                lam**2 / (1 - lam**2), rel=1e-12
            )
            assert obs.svs_moment(r, 1, 1).real == pytest.approx(
                math.sinh(r) ** 2, rel=1e-12
            )

    def test_pipeline_svs_limit(self):
        # T = 1, m = 0, lossless reduces to the squeezed vacuum itself
        params = CircuitParams(0.8, 0, 0, 1.0, 0)
        assert obs.moment(params, 1, 1).real == pytest.approx(
            math.sinh(0.8) ** 2, rel=1e-12
        )

    def test_moment_pnd_consistency(self):
        params = CircuitParams(0.7, 0.1, 0.1, 0.9, 2)
        dist = obs.pnd_vector(params)
        mean = sum(n * p for n, p in enumerate(dist))
        assert obs.moment(params, 1, 1).real == pytest.approx(mean, abs=1e-8)

    def test_undefined_state(self):
        with pytest.raises(UndefinedStateError):
            obs.moment(CircuitParams(0, 0, 0, 0.5, 1), 1, 1)

    def test_orders_past_170_are_a_domain_error(self):
        # float(k!) overflows from k = 171 on
        params = CircuitParams(0.5, 0.1, 0.1, 0.9, 1)
        with pytest.raises(ParameterDomainError, match="170"):
            obs.moment(params, 171, 0)
        with pytest.raises(ParameterDomainError, match="170"):
            obs.moment(params, 0, 171)


class TestVariances:
    def test_vacuum(self):
        var = obs.variances(CircuitParams(0, 0, 0, 0.5, 0))
        assert var.var_x == pytest.approx(0.5)
        assert var.var_p == pytest.approx(0.5)

    def test_svs_closed_form(self):
        for r in (0.5, 0.7, 1.0):
            var = obs.svs_variances(r)
            assert var.var_x == pytest.approx(0.5 * math.exp(2 * r), rel=1e-14)
            assert var.var_p == pytest.approx(0.5 * math.exp(-2 * r), rel=1e-14)

    def test_pipeline_svs_limit(self):
        r = 0.6
        var = obs.variances(CircuitParams(r, 0, 0, 1.0, 0))
        assert var.var_x == pytest.approx(0.5 * math.exp(2 * r), rel=1e-12)
        assert var.var_p == pytest.approx(0.5 * math.exp(-2 * r), rel=1e-12)

    def test_above_threshold_squeezing(self):
        var = obs.variances(CircuitParams(0.7, 0, 0, 0.9, 1))
        assert var.var_p < 0.5

    def test_heisenberg(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            params = CircuitParams(
                r=rng.uniform(0.05, 1.1),
                eta1=rng.uniform(0, 0.5),
                eta2=rng.uniform(0, 0.5),
                T=rng.uniform(0.2, 1.0),
                m=int(rng.integers(0, 4)),
            )
            var = obs.variances(params)
            assert var.var_x * var.var_p >= 0.25 - 1e-10


class TestSqueezingThreshold:
    @pytest.mark.parametrize(
        "m,eta,expected",
        [
            (1, 0.0, 0.626381),
            (1, 0.1, 0.609918),
            (3, 0.0, 0.396049),
            (3, 0.1, 0.387008),
        ],
    )
    def test_reported_thresholds(self, m, eta, expected):
        r_c = obs.squeezing_threshold(m, 0.9, eta, eta)
        assert r_c == pytest.approx(expected, abs=1e-3)

    @pytest.mark.parametrize("eta", [0.0, 0.1])
    def test_double_subtraction_always_squeezed(self, eta):
        scan = obs.squeezing_threshold_scan(2, 0.9, eta, eta)
        assert scan.r_c is None
        assert scan.status == "always-squeezed"

    def test_threshold_is_a_root(self):
        r_c = obs.squeezing_threshold(1, 0.9, 0.0, 0.0)
        var = obs.variances(CircuitParams(r_c, 0, 0, 0.9, 1))
        assert var.var_p == pytest.approx(0.5, abs=1e-5)


class TestPhotonNumberDistribution:
    def test_svs_closed_form_values(self):
        for r in (0.5, 0.7, 1.0):
            lam = math.tanh(r)
            assert obs.svs_pnd(r, 0) == pytest.approx(math.sqrt(1 - lam**2), rel=1e-14)
            assert obs.svs_pnd(r, 2) == pytest.approx(
                lam**2 * math.sqrt(1 - lam**2) / 2, rel=1e-14
            )
            assert obs.svs_pnd(r, 1) == 0.0
            assert obs.svs_pnd(r, 7) == 0.0

    def test_pipeline_svs_limit(self):
        params = CircuitParams(0.7, 0, 0, 1.0, 0)
        for n in range(9):
            assert obs.pnd(params, n) == pytest.approx(obs.svs_pnd(0.7, n), abs=1e-12)
        dist = obs.pnd_vector(params, 120)
        for n in range(121):
            assert dist[n] == pytest.approx(obs.svs_pnd(0.7, n), abs=1e-12)

    def test_lossless_parity_selection(self):
        odd = obs.pnd_vector(CircuitParams(0.7, 0, 0, 0.9, 1), 9)
        even = obs.pnd_vector(CircuitParams(0.7, 0, 0, 0.9, 2), 9)
        assert all(p < 1e-12 for p in odd[0::2])
        assert all(p > 0 for p in odd[1::2])
        assert all(p < 1e-12 for p in even[1::2])

    def test_loss_populates_both_parities(self):
        dist = obs.pnd_vector(CircuitParams(0.7, 0.1, 0.1, 0.9, 1), 8)
        assert all(p > 1e-6 for p in dist)

    def test_adaptive_normalization(self):
        for params in [
            CircuitParams(0.5, 0, 0, 0.9, 1),
            CircuitParams(1.0, 0.1, 0.1, 0.8, 3),
            CircuitParams(0.3, 0.3, 0.05, 0.97, 2),
        ]:
            dist = obs.pnd_vector(params)
            assert dist.sum() >= 1.0 - 1e-8

    def test_fixed_length(self):
        dist = obs.pnd_vector(CircuitParams(0.5, 0, 0, 0.9, 1), 12)
        assert dist.shape == (13,)

    def test_photon_numbers_past_170_are_a_domain_error(self):
        # float(n!) overflows from n = 171 on
        params = CircuitParams(1.0, 0, 0, 0.9, 1)
        assert obs.pnd_vector(params, 170).shape == (171,)
        with pytest.raises(ParameterDomainError, match="170"):
            obs.pnd_vector(params, 171)
        with pytest.raises(ParameterDomainError, match="170"):
            obs.pnd(params, 171)


class TestWigner:
    def test_svs_origin(self):
        assert obs.svs_wigner(0.7, 0, 0).w == pytest.approx(2 / math.pi, rel=1e-14)
        point = obs.wigner(CircuitParams(0.7, 0, 0, 1.0, 0), 0, 0)
        assert point.w == pytest.approx(2 / math.pi, rel=1e-12)

    def test_pipeline_svs_limit_off_origin(self):
        params = CircuitParams(0.6, 0, 0, 1.0, 0)
        for x, y in [(0.3, -0.4), (1.2, 0.8), (-2.0, 1.5)]:
            assert obs.wigner(params, x, y).w == pytest.approx(
                obs.svs_wigner(0.6, x, y).w, rel=1e-11, abs=1e-15
            )

    @pytest.mark.parametrize("m,sign", [(1, -1.0), (2, 1.0), (3, -1.0)])
    def test_lossless_parity_at_origin(self, m, sign):
        point = obs.wigner(CircuitParams(0.7, 0, 0, 0.9, m), 0, 0)
        assert point.w == pytest.approx(sign * 2 / math.pi, abs=1e-8)

    def test_grid_matches_pointwise(self):
        params = CircuitParams(0.7, 0.1, 0.1, 0.9, 2)
        grid = obs.wigner_grid(params, (-2, 2), (-2, 2), 5)
        for point in grid:
            single = obs.wigner(params, point.x, point.y)
            assert point.w == pytest.approx(single.w, rel=1e-11, abs=1e-14)

    def test_grid_ordering(self):
        grid = obs.wigner_grid(CircuitParams(0.3, 0, 0, 0.9, 0), (-1, 1), (-1, 1), 3)
        coords = [(p.x, p.y) for p in grid]
        xs = [-1.0, 0.0, 1.0]
        assert coords == [(x, y) for x in xs for y in xs]

    def test_vacuum_quadrature(self):
        grid = obs.wigner_grid(CircuitParams(0, 0, 0, 0.5, 0), (-5, 5), (-5, 5), 201)
        assert obs.wigner_quadrature(grid, 201) == pytest.approx(1.0, abs=1e-3)

    def test_negative_region_with_loss(self):
        grid = obs.wigner_grid(CircuitParams(0.7, 0.1, 0.1, 0.9, 1), (-3, 3), (-3, 3), 41)
        assert min(p.w for p in grid) < 0.0

    def test_origin_matches_oracle(self):
        from mssvs import fock_oracle as fo

        params = CircuitParams(0.5, 0, 0, 0.9, 1)
        state = fo.run_pipeline(params, 40).state
        assert obs.wigner(params, 0, 0).w == pytest.approx(
            fo.oracle_wigner(state, 0, 0).w, abs=1e-10
        )


@pytest.mark.parametrize(
    "call",
    [
        lambda p: obs.success_probability(p),
        lambda p: obs.variances(p),
        lambda p: obs.moment(p, 1, 2),
        lambda p: obs.pnd_vector(p, 10),
        lambda p: obs.wigner(p, 0.3, -0.2),
        lambda p: obs.wigner_grid(p, (-1, 1), (-1, 1), 3),
    ],
    ids=["success_probability", "variances", "moment", "pnd_vector", "wigner", "wigner_grid"],
)
def test_one_coefficient_evaluation_per_call(monkeypatch, call):
    calls = []

    def counting(params):
        calls.append(params)
        return derived_coefficients(params)

    monkeypatch.setattr(obs, "derived_coefficients", counting)
    call(CircuitParams(0.7, 0.1, 0.1, 0.9, 2))
    assert len(calls) == 1
