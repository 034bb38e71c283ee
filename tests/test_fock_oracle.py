"""Fock-space oracle tests: channels, pipeline, observables, cross-checks."""

import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import genlaguerre

from mssvs.circuit import CircuitParams, stage_cfs
from mssvs.errors import CutoffTooSmallError
from mssvs import fock_oracle as fo
from mssvs import observables as obs


def displacement_expm(alpha: complex, cutoff: int) -> np.ndarray:
    """Generator exponentiation on the block; edge-distorted near the cutoff."""
    a = fo.ladder(cutoff)
    return expm(alpha * a.conj().T - alpha.conjugate() * a)


def displacement_laguerre(alpha: complex, cutoff: int) -> np.ndarray:
    """Matrix elements from scipy's associated-Laguerre polynomials."""
    out = np.zeros((cutoff, cutoff), dtype=complex)
    gauss = math.exp(-abs(alpha) ** 2 / 2.0)
    for row in range(cutoff):
        for col in range(cutoff):
            m_, n_ = (row, col) if row >= col else (col, row)
            arg = alpha if row >= col else -alpha.conjugate()
            out[row, col] = (
                math.sqrt(math.factorial(n_) / math.factorial(m_))
                * arg ** (m_ - n_)
                * gauss
                * genlaguerre(n_, m_ - n_)(abs(alpha) ** 2)
            )
    return out


class TestSqueezedVacuum:
    def test_zero_squeezing_is_vacuum(self):
        state = fo.squeezed_vacuum(0.0, 10)
        expected = np.zeros(10)
        expected[0] = 1.0
        assert np.allclose(state.amplitudes, expected)

    def test_vacuum_probability(self):
        for r in (0.3, 0.7):
            lam = math.tanh(r)
            state = fo.squeezed_vacuum(r, 80)
            assert abs(state.amplitudes[0]) ** 2 == pytest.approx(
                math.sqrt(1 - lam**2), rel=1e-12
            )

    def test_odd_amplitudes_vanish(self):
        state = fo.squeezed_vacuum(0.9, 41, enforce_tail=False)
        assert np.all(state.amplitudes[1::2] == 0.0)

    def test_mean_photon_number(self):
        # cutoff 120 holds r = 1 to the stated precision; cutoff 60 leaves
        # a 1e-6-scale truncation residue
        rho = fo.squeezed_vacuum(1.0, 120, enforce_tail=False).density()
        assert fo.oracle_moment(rho, 1, 1).real == pytest.approx(
            math.sinh(1.0) ** 2, abs=1e-10
        )
        rho60 = fo.squeezed_vacuum(1.0, 60, enforce_tail=False).density()
        assert fo.oracle_moment(rho60, 1, 1).real == pytest.approx(
            math.sinh(1.0) ** 2, abs=1e-5
        )

    def test_tail_contract(self):
        with pytest.raises(CutoffTooSmallError) as info:
            fo.squeezed_vacuum(1.0, 40)
        assert info.value.required_cutoff > 40
        # the reported cutoff is sufficient
        fo.squeezed_vacuum(1.0, info.value.required_cutoff)

    def test_pnd_matches_closed_form(self):
        state = fo.squeezed_vacuum(0.7, 50)
        probabilities = np.abs(state.amplitudes) ** 2
        for n in range(12):
            assert probabilities[n] == pytest.approx(obs.svs_pnd(0.7, n), abs=1e-10)


class TestLossChannel:
    def test_kraus_completeness(self):
        for eta in (0.0, 0.35, 1.0):
            kraus = fo.loss_kraus(eta, 25)
            assert kraus.completeness_defect() < 1e-10

    def test_identity(self):
        rng = np.random.default_rng(31)
        mat = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        rho = fo.FockDensity(mat @ mat.conj().T / np.trace(mat @ mat.conj().T).real)
        out = fo.apply_loss_kraus(rho, "a", 0.0)
        assert np.allclose(out.matrix, rho.matrix)

    def test_complete_loss(self):
        state = fo.squeezed_vacuum(0.8, 30, enforce_tail=False)
        out = fo.apply_loss_kraus(state.density(), "a", 1.0)
        expected = np.zeros((30, 30))
        expected[0, 0] = 1.0
        assert np.allclose(out.matrix, expected, atol=1e-12)

    def test_single_photon_damping(self):
        rho = np.zeros((5, 5), dtype=complex)
        rho[1, 1] = 1.0
        out = fo.apply_loss_kraus(fo.FockDensity(rho), "a", 0.3)
        assert out.matrix[1, 1] == pytest.approx(0.7)
        assert out.matrix[0, 0] == pytest.approx(0.3)

    def test_matches_explicit_kraus_sum(self):
        rng = np.random.default_rng(32)
        d = 10
        mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = mat @ mat.conj().T
        rho /= np.trace(rho).real
        eta = 0.4
        kraus = fo.loss_kraus(eta, d)
        explicit = sum(op @ rho @ op.conj().T for op in kraus.operators)
        fast = fo.apply_loss_kraus(fo.FockDensity(rho), "a", eta)
        assert np.allclose(fast.matrix, explicit, atol=1e-12)

    def test_two_mode_modes_and_trace(self):
        rng = np.random.default_rng(33)
        d = 6
        mat = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        rho = mat @ mat.conj().T
        rho /= np.trace(rho).real
        rho4 = fo.FockDensity(rho.reshape(d, d, d, d))
        for mode in ("a", "b"):
            out = fo.apply_loss_kraus(rho4, mode, 0.25)
            assert out.trace() == pytest.approx(1.0, abs=1e-10)
            assert out.hermiticity_defect() < 1e-12
            assert out.min_eigenvalue() > -1e-10


class TestBeamsplitter:
    def test_transparent(self):
        u = fo.beamsplitter_unitary(1.0, 6)
        assert np.allclose(u, np.eye(36), atol=1e-12)

    def test_unitary(self):
        u = fo.beamsplitter_unitary(0.7, 12)
        assert np.max(np.abs(u @ u.T - np.eye(144))) < 1e-10

    def test_single_photon_split(self):
        d = 4
        u = fo.beamsplitter_unitary(0.7, d)
        # column of |1, 0>: index 1 * d + 0
        column = u[:, d]
        expected = np.zeros(d * d)
        expected[d] = math.sqrt(0.7)  # |1, 0>
        expected[1] = math.sqrt(0.3)  # |0, 1>
        assert np.allclose(column, expected, atol=1e-12)

    def test_photon_number_conservation(self):
        d = 6
        u = fo.beamsplitter_unitary(0.42, d)
        totals = np.add.outer(np.arange(d), np.arange(d)).ravel()
        mixing = np.abs(u) > 1e-14
        same_total = totals[:, None] == totals[None, :]
        assert not np.any(mixing & ~same_total)

    def test_vacuum_columns_closed_form(self):
        d = 9
        T = 0.64
        u = fo.beamsplitter_unitary(T, d)
        w = fo.bs_vacuum_weights(T, d)
        for k in range(d):
            column = u[:, k * d].reshape(d, d)
            for j in range(k + 1):
                assert column[k - j, j] == pytest.approx(
                    math.sqrt(math.comb(k, j) * T ** (k - j) * (1 - T) ** j),
                    abs=1e-12,
                )
                assert w[k - j, j] == pytest.approx(column[k - j, j], abs=1e-12)


class TestHerald:
    def test_vacuum_zero_photons(self):
        vac = np.zeros((5, 5, 5, 5), dtype=complex)
        vac[0, 0, 0, 0] = 1.0
        state, p_d = fo.herald(fo.FockDensity(vac), 0)
        assert p_d == pytest.approx(1.0)
        assert state.matrix[0, 0] == pytest.approx(1.0)

    def test_vacuum_one_photon_impossible(self):
        vac = np.zeros((5, 5, 5, 5), dtype=complex)
        vac[0, 0, 0, 0] = 1.0
        state, p_d = fo.herald(fo.FockDensity(vac), 1)
        assert state is None
        assert p_d == 0.0

    def test_pipeline_matches_closed_form(self):
        params = CircuitParams(0.5, 0.02, 0.02, 0.97, 1)
        result = fo.run_pipeline(params, 40)
        assert result.p_d == pytest.approx(
            obs.success_probability(params), abs=1e-8
        )


class TestPipelineConsistency:
    def test_fast_equals_reference(self):
        rng = np.random.default_rng(34)
        for _ in range(4):
            params = CircuitParams(
                r=rng.uniform(0.1, 0.8),
                eta1=rng.uniform(0, 0.5),
                eta2=rng.uniform(0, 0.5),
                T=rng.uniform(0.3, 1.0),
                m=int(rng.integers(0, 3)),
            )
            reference = fo.run_pipeline_reference(params, 20)
            fast = fo.run_pipeline(params, 20, escalate=False, tail_tol=1.0)
            assert fast.p_d == pytest.approx(reference.p_d, abs=1e-13)
            assert np.allclose(
                fast.state.matrix, reference.state.matrix, atol=1e-12
            )

    def test_stage_cfs_match_circuit(self):
        params = CircuitParams(0.5, 0.12, 0.08, 0.85, 1)
        cfs = stage_cfs(params)
        stages = fo.stage_densities(params, 36)
        rng = np.random.default_rng(35)
        for cf, rho in zip(cfs, stages):
            for _ in range(5):
                alpha = complex(*rng.uniform(-0.6, 0.6, 2))
                beta = complex(*rng.uniform(-0.6, 0.6, 2))
                got = fo.characteristic_function(rho, alpha, beta)
                assert got == pytest.approx(cf.value(alpha, beta), abs=1e-8)

    def test_stage_invariants(self):
        params = CircuitParams(0.4, 0.2, 0.15, 0.8, 1)
        for rho in fo.stage_densities(params, 18):
            assert rho.trace() == pytest.approx(1.0, abs=1e-10)
            assert rho.hermiticity_defect() < 1e-12
            assert rho.min_eigenvalue() > -1e-10

    def test_cutoff_doubling_convergence(self):
        # representative standard-grid points, including the escalating ones
        for args in [
            (0.3, 0.0, 0.0, 0.8, 1),
            (0.7, 0.1, 0.1, 0.97, 2),
            (1.0, 0.3, 0.05, 0.97, 3),
        ]:
            params = CircuitParams(*args)
            first = fo.run_pipeline(params, 40)
            second = fo.run_pipeline(params, 2 * first.cutoff, escalate=False, tail_tol=1.0)
            assert second.p_d == pytest.approx(first.p_d, abs=1e-8)
            d = first.cutoff
            assert np.allclose(
                second.state.matrix[:d, :d], first.state.matrix, atol=1e-8
            )
            var1 = fo.oracle_variances(first.state)
            var2 = fo.oracle_variances(second.state)
            assert var2.var_x == pytest.approx(var1.var_x, abs=1e-8)
            assert var2.var_p == pytest.approx(var1.var_p, abs=1e-8)


class TestDisplacement:
    def test_methods_agree(self):
        rng = np.random.default_rng(36)
        for _ in range(4):
            alpha = complex(*rng.uniform(-1.2, 1.2, 2))
            rec = fo.displacement_matrix(alpha, 12)
            lag = displacement_laguerre(alpha, 12)
            assert np.max(np.abs(rec - lag)) < 1e-9
            # generator exponentiation agrees away from the truncation edge
            exp_interior = displacement_expm(alpha, 30)[:12, :12]
            assert np.max(np.abs(rec - exp_interior)) < 1e-9

    def test_zero_displacement(self):
        assert np.allclose(fo.displacement_matrix(0.0, 7), np.eye(7))

    def test_characteristic_function_of_svs(self):
        params = CircuitParams(0.6, 0, 0, 0.5, 0)
        rho = fo.squeezed_vacuum(0.6, 40).density()
        cf = stage_cfs(params)[0]
        rng = np.random.default_rng(37)
        for _ in range(5):
            alpha = complex(*rng.uniform(-0.8, 0.8, 2))
            got = fo.characteristic_function(rho, alpha)
            assert got == pytest.approx(cf.value(alpha, 0.0), abs=1e-10)


def wigner_per_point(rho: fo.FockDensity, x: float, y: float) -> float:
    """(2/pi) Tr[rho D(2 beta) (-1)^(a†a)] from one full displacement matrix."""
    d = rho.cutoffs[0]
    beta = complex(x, y) / math.sqrt(2.0)
    kernel = fo.displacement_matrix(2.0 * beta, d)
    signs = 1.0 - 2.0 * (np.arange(d) % 2)
    return (2.0 / math.pi) * np.einsum("nm,mn->", rho.matrix, kernel * signs).real


class TestBatchedOracle:
    @pytest.fixture(scope="class")
    def escalated_state(self):
        result = fo.run_pipeline(CircuitParams(1.0, 0.1, 0.1, 0.97, 3))
        assert result.cutoff == 188
        return result.state

    def test_grid_matches_per_point_reference(self, escalated_state):
        grid = fo.oracle_wigner_grid(escalated_state, (-2, 2), (-1.5, 1.5), 5)
        assert (grid[12].x, grid[12].y) == (0.0, 0.0)
        for point in grid:
            reference = wigner_per_point(escalated_state, point.x, point.y)
            assert point.w == pytest.approx(reference, abs=1e-13)

    def test_point_is_a_one_point_grid(self, escalated_state):
        grid = fo.oracle_wigner_grid(escalated_state, (-2, 2), (-1.5, 1.5), 5)
        for point in (grid[0], grid[7], grid[12]):
            single = fo.oracle_wigner(escalated_state, point.x, point.y)
            assert single.w == pytest.approx(point.w, abs=1e-15)

    def test_loss_weights_match_binomials(self):
        eta = 0.35
        for j in range(320):
            length = 320 - j
            expected = np.array(
                [math.sqrt(math.comb(p + j, j)) * (1 - eta) ** (p / 2) for p in range(length)]
            )
            got = fo._loss_weights(eta, length, j)
            assert np.max(np.abs(got - expected) / expected) < 1e-13


class TestOracleObservables:
    def test_vacuum(self):
        vac = np.zeros((10, 10), dtype=complex)
        vac[0, 0] = 1.0
        rho = fo.FockDensity(vac)
        assert fo.oracle_wigner(rho, 0, 0).w == pytest.approx(2 / math.pi)
        assert fo.oracle_pnd(rho, 3) == pytest.approx([1, 0, 0, 0])
        var = fo.oracle_variances(rho)
        assert var.var_x == pytest.approx(0.5)
        assert var.var_p == pytest.approx(0.5)
        assert fo.oracle_parity(rho) == pytest.approx(1.0)

    def test_single_photon(self):
        rho = np.zeros((10, 10), dtype=complex)
        rho[1, 1] = 1.0
        point = fo.oracle_wigner(fo.FockDensity(rho), 0, 0)
        assert point.w == pytest.approx(-2 / math.pi)

    def test_wigner_matches_svs_closed_form(self):
        rho = fo.squeezed_vacuum(0.8, 100).density()
        for x, y in [(0, 0), (1.0, -0.5), (2.5, 1.5), (-3.0, 3.0)]:
            assert fo.oracle_wigner(rho, x, y).w == pytest.approx(
                obs.svs_wigner(0.8, x, y).w, rel=1e-9, abs=1e-12
            )

    def test_observable_bundle(self):
        result = fo.run_pipeline(CircuitParams(0.5, 0.1, 0.1, 0.9, 1), 40)
        bundle = fo.oracle_observables(result.state, n_max=6)
        assert bundle["pnd"].shape == (7,)
        assert bundle["var_x"] > 0
        assert -1.0 <= bundle["parity"] <= 1.0

    def test_wigner_grid_matches_closed_form(self):
        params = CircuitParams(0.7, 0.1, 0.1, 0.9, 3)
        result = fo.run_pipeline(params, 40)
        closed = obs.wigner_grid(params, (-2, 2), (-2, 2), 9)
        oracle = fo.oracle_wigner_grid(result.state, (-2, 2), (-2, 2), 9)
        worst = max(abs(c.w - o.w) for c, o in zip(closed, oracle))
        assert worst < 1e-6

    def test_high_transmissivity_fidelity(self):
        for m in (1, 2):
            params = CircuitParams(0.5, 0.0, 0.0, 0.999, m)
            result = fo.run_pipeline(params, 40)
            target = fo.photon_subtracted_target(0.5, m, result.cutoff)
            assert fo.fidelity(result.state, target) >= 0.999
