"""Characteristic-function pipeline and derived-coefficient tests."""

import math

import numpy as np
import pytest

from mssvs.circuit import (
    CircuitParams,
    TwoModeGaussianCF,
    apply_beamsplitter,
    apply_loss,
    derived_coefficients,
    stage1_cf,
    stage_cfs,
)
from mssvs.errors import ParameterDomainError


def random_cf(rng) -> TwoModeGaussianCF:
    return TwoModeGaussianCF(
        mod_a=-rng.uniform(0.5, 2.0),
        quad_a=rng.uniform(-0.4, 0.4),
        mod_b=-rng.uniform(0.5, 2.0),
        quad_b=rng.uniform(-0.4, 0.4),
        cross_same=rng.uniform(-0.4, 0.4),
        cross_conj=rng.uniform(-0.4, 0.4),
    )


def random_params(rng, m_values=(0, 1, 2, 3)) -> CircuitParams:
    return CircuitParams(
        r=rng.uniform(0.05, 1.2),
        eta1=rng.uniform(0.0, 0.6),
        eta2=rng.uniform(0.0, 0.6),
        T=rng.uniform(0.1, 1.0),
        m=int(rng.choice(m_values)),
    )


def explicit_stage3(params: CircuitParams) -> TwoModeGaussianCF:
    """Post-beam-splitter weights written out through the tau coefficients."""
    dc = derived_coefficients(params)
    lam = dc.lam
    return TwoModeGaussianCF(
        mod_a=-(0.5 + lam**2 * dc.tau1),
        quad_a=lam * dc.tau1 / 2.0,
        mod_b=-(0.5 + lam**2 * dc.tau2),
        quad_b=lam * dc.tau2 / 2.0,
        cross_same=lam * dc.tau3,
        cross_conj=-(lam**2) * dc.tau3,
    )


class TestCircuitParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(r=-0.1, eta1=0, eta2=0, T=0.5, m=0),
            dict(r=0.5, eta1=-0.2, eta2=0, T=0.5, m=0),
            dict(r=0.5, eta1=0, eta2=1.3, T=0.5, m=0),
            dict(r=0.5, eta1=0, eta2=0, T=2.0, m=0),
            dict(r=0.5, eta1=0, eta2=0, T=0.5, m=-1),
        ],
    )
    def test_rejects_out_of_domain(self, kwargs):
        with pytest.raises(ParameterDomainError):
            CircuitParams(**kwargs)

    def test_rejects_r_where_tanh_rounds_to_one(self):
        assert math.tanh(20.0) == 1.0
        with pytest.raises(ParameterDomainError, match="tanh"):
            CircuitParams(r=20.0, eta1=0, eta2=0, T=0.9, m=1)
        with pytest.raises(ParameterDomainError, match="tanh"):
            CircuitParams(r=math.inf, eta1=0, eta2=0, T=0.9, m=1)
        assert math.tanh(18.0) < 1.0
        CircuitParams(r=18.0, eta1=0, eta2=0, T=0.9, m=1)


class TestStage1:
    def test_vacuum(self):
        cf = stage1_cf(CircuitParams(0.0, 0, 0, 0.5, 0))
        assert cf.mod_a == pytest.approx(-0.5)
        assert cf.mod_b == pytest.approx(-0.5)
        assert cf.quad_a == cf.quad_b == cf.cross_same == cf.cross_conj == 0.0

    def test_squeezed_weight(self):
        lam = math.tanh(0.5)
        cf = stage1_cf(CircuitParams(0.5, 0, 0, 0.5, 0))
        assert cf.quad_a == pytest.approx(lam / (2 * (1 - lam**2)))
        assert cf.mod_a == pytest.approx(-(1 + lam**2) / (2 * (1 - lam**2)))

    def test_unit_trace(self):
        for r in (0.0, 0.3, 1.1):
            cf = stage1_cf(CircuitParams(r, 0, 0, 0.5, 0))
            assert cf.value(0.0, 0.0) == pytest.approx(1.0)


class TestLoss:
    def test_identity(self):
        rng = np.random.default_rng(3)
        cf = random_cf(rng)
        assert apply_loss(cf, "a", 0.0) == cf
        assert apply_loss(cf, "b", 0.0) == cf

    def test_complete_loss_gives_vacuum_mode(self):
        rng = np.random.default_rng(4)
        cf = random_cf(rng)
        lost = apply_loss(cf, "a", 1.0)
        assert lost.mod_a == pytest.approx(-0.5)
        assert lost.quad_a == 0.0
        assert lost.cross_same == 0.0
        assert lost.cross_conj == 0.0
        assert lost.mod_b == cf.mod_b

    @pytest.mark.parametrize("mode", ["a", "b"])
    def test_composition(self, mode):
        rng = np.random.default_rng(5)
        for _ in range(20):
            cf = random_cf(rng)
            eta, eta_more = rng.uniform(0, 1, 2)
            twice = apply_loss(apply_loss(cf, mode, eta), mode, eta_more)
            combined = apply_loss(cf, mode, 1.0 - (1.0 - eta) * (1.0 - eta_more))
            for got, want in zip(twice.weights(), combined.weights()):
                assert got == pytest.approx(want, abs=1e-12)

    def test_domain(self):
        cf = stage1_cf(CircuitParams(0.2, 0, 0, 0.5, 0))
        with pytest.raises(ParameterDomainError):
            apply_loss(cf, "a", 1.5)
        with pytest.raises(ValueError):
            apply_loss(cf, "c", 0.5)


class TestBeamsplitter:
    def test_transparent(self):
        rng = np.random.default_rng(6)
        cf = random_cf(rng)
        out = apply_beamsplitter(cf, 1.0)
        for got, want in zip(out.weights(), cf.weights()):
            assert got == pytest.approx(want, abs=1e-15)

    def test_swap_limit(self):
        cf = stage1_cf(CircuitParams(0.8, 0, 0, 0.5, 0))
        swapped = apply_beamsplitter(cf, 0.0)
        assert swapped.mod_b == pytest.approx(cf.mod_a)
        assert swapped.quad_b == pytest.approx(cf.quad_a)
        assert swapped.mod_a == pytest.approx(cf.mod_b)
        assert swapped.quad_a == pytest.approx(cf.quad_b)

    def test_double_swap_restores(self):
        rng = np.random.default_rng(7)
        cf = random_cf(rng)
        back = apply_beamsplitter(apply_beamsplitter(cf, 0.0), 0.0)
        for got, want in zip(back.weights(), cf.weights()):
            assert got == pytest.approx(want, abs=1e-12)

    def test_stage3_weights_paper_point(self):
        # r = 0.5, eta1 = 0, T = 0.9: tau1 = 0.9/(1 - tanh^2 0.5), etc.
        params = CircuitParams(0.5, 0.0, 0.0, 0.9, 1)
        lam = math.tanh(0.5)
        denom = 1.0 - lam**2
        cf3 = stage_cfs(params)[2]
        assert cf3.quad_a == pytest.approx(lam * 0.9 / denom / 2.0)
        assert cf3.quad_b == pytest.approx(lam * 0.1 / denom / 2.0)
        assert cf3.cross_same == pytest.approx(lam * math.sqrt(0.09) / denom)
        assert cf3.cross_conj == pytest.approx(-(lam**2) * math.sqrt(0.09) / denom)

    def test_generic_substitution_matches_explicit_form(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            params = random_params(rng)
            cf3 = stage_cfs(params)[2]
            explicit = explicit_stage3(params)
            for got, want in zip(cf3.weights(), explicit.weights()):
                assert got == pytest.approx(want, abs=1e-12)

    def test_domain(self):
        cf = stage1_cf(CircuitParams(0.2, 0, 0, 0.5, 0))
        with pytest.raises(ParameterDomainError):
            apply_beamsplitter(cf, -0.1)


class TestStages:
    def test_unit_trace_all_stages(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            params = random_params(rng)
            for cf in stage_cfs(params):
                assert cf.value(0.0, 0.0) == pytest.approx(1.0)

    def test_hermiticity_of_values(self):
        rng = np.random.default_rng(10)
        params = random_params(rng)
        cf = stage_cfs(params)[3]
        for _ in range(5):
            alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            beta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert cf.value(-alpha, -beta) == pytest.approx(
                cf.value(alpha, beta).conjugate()
            )


class TestDerivedCoefficients:
    def test_vacuum_input(self):
        dc = derived_coefficients(CircuitParams(0.0, 0, 0, 0.5, 0))
        assert dc.lam == 0.0
        assert dc.eps1 == 1.0
        assert dc.eps2 == 0.0
        assert dc.eps4 == 1.0

    def test_complete_input_loss(self):
        dc = derived_coefficients(CircuitParams(0.5, 1.0, 0, 0.5, 1))
        assert dc.tau1 == dc.tau2 == dc.tau3 == 0.0
        assert dc.eps1 == 1.0
        assert dc.eps2 == 0.0

    def test_tau_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            dc = derived_coefficients(random_params(rng))
            assert dc.tau3**2 == pytest.approx(dc.tau1 * dc.tau2, abs=1e-12)

    def test_discriminants_positive(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            dc = derived_coefficients(random_params(rng))
            assert dc.eps4 > 0.0
            assert dc.kappa4 > 0.0
            assert dc.kappa9 > 0.0
