"""Dense two-mode references for the Fock oracle.

Test-only: builds the circuit of :mod:`mssvs.fock_oracle` the long way,
so the tests can check the oracle's single route against it. Two-mode
densities are 4-index arrays ``[na, nb, na', nb']``; flattening the
first and last index pairs in C order matches the ``na * cutoff + nb``
basis of :func:`beamsplitter_unitary`. The beam splitter is the dense
exponential of its generator and each loss channel is the explicit sum
of K rho K† over :func:`loss_kraus`, independent of the oracle's
vacuum-column weights and shifted slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from mssvs import fock_oracle as fo
from mssvs.circuit import CircuitParams
from mssvs.errors import ParameterDomainError


@dataclass(frozen=True)
class KrausSet:
    """Kraus operators of the pure-loss channel with loss factor eta."""

    eta: float
    operators: tuple[np.ndarray, ...]

    def completeness_defect(self) -> float:
        d = self.operators[0].shape[1]
        acc = np.zeros((d, d), dtype=complex)
        for op in self.operators:
            acc += op.conj().T @ op
        return float(np.max(np.abs(acc - np.eye(d))))


def loss_kraus(eta: float, cutoff: int) -> KrausSet:
    """Explicit loss Kraus operators K_j |n> = sqrt(C(n,j)(1-eta)^(n-j) eta^j)|n-j>."""
    if not 0.0 <= eta <= 1.0:
        raise ParameterDomainError(f"eta must lie in [0, 1], got {eta}")
    keep = 1.0 - eta
    ops = []
    for j in range(cutoff):
        op = np.zeros((cutoff, cutoff))
        for n in range(j, cutoff):
            op[n - j, n] = math.sqrt(math.comb(n, j) * keep ** (n - j) * eta**j)
        ops.append(op)
        if eta == 0.0:
            break
    return KrausSet(eta=eta, operators=tuple(ops))


def apply_loss_two_mode(rho: np.ndarray, mode: str, eta: float) -> np.ndarray:
    """Loss on one mode of a two-mode density: the sum over j of K_j rho K_j†.

    The sum is taken over j first, as the channel's Liouville matrix
    sum_j K_j (x) conj(K_j), which is then applied to rho in one product.
    """
    d = rho.shape[0]
    ops = np.array(loss_kraus(eta, d).operators)
    liouville = np.einsum("jbx,jey->bexy", ops, ops.conj()).reshape(d * d, d * d)
    # rows (x, y) index the lossy mode's ket and bra, columns the other mode's
    order = (0, 2, 1, 3) if mode == "a" else (1, 3, 0, 2)
    flat = np.ascontiguousarray(rho.transpose(order)).reshape(d * d, d * d)
    # liouville is real: two real products instead of one complex one
    out = (liouville @ flat.real + 1j * (liouville @ flat.imag)).reshape(d, d, d, d)
    return out.transpose(np.argsort(order))


def beamsplitter_unitary(T: float, cutoff: int) -> np.ndarray:
    """Number-conserving beam-splitter unitary on the truncated two-mode space.

    Basis index is na * cutoff + nb. The mode convention sends
    a -> sqrt(T) a + sqrt(1-T) b, realized by exponentiating
    theta (a b† - a† b) with cos theta = sqrt(T) block by block in total
    photon number; each block exponent is antisymmetric, so the result is
    exactly unitary on the truncated space.
    """
    if not 0.0 <= T <= 1.0:
        raise ParameterDomainError(f"T must lie in [0, 1], got {T}")
    theta = math.acos(math.sqrt(T))
    d = cutoff
    u = np.zeros((d * d, d * d))
    for total in range(2 * d - 1):
        ks = list(range(max(0, total - d + 1), min(total, d - 1) + 1))
        size = len(ks)
        gen = np.zeros((size, size))
        for i in range(size - 1):
            k = ks[i]
            # a b† lowers k by one; a† b raises it, antisymmetrically
            amp = math.sqrt((k + 1) * (total - k))
            gen[i, i + 1] = amp
            gen[i + 1, i] = -amp
        block = expm(theta * gen) if size > 1 else np.ones((1, 1))
        flat = [k * d + (total - k) for k in ks]
        u[np.ix_(flat, flat)] = block
    return u


def stage_densities(
    params: CircuitParams, cutoff: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four pre-detection two-mode densities, by direct composition."""
    svs = fo.squeezed_vacuum(params.r, cutoff, enforce_tail=False)
    vac = np.zeros(cutoff)
    vac[0] = 1.0
    psi = np.einsum("a,b->ab", svs.amplitudes, vac)
    rho1 = np.einsum("ab,cd->abcd", psi, psi.conj())
    rho2 = apply_loss_two_mode(rho1, "a", params.eta1)
    u = beamsplitter_unitary(params.T, cutoff)
    d2 = cutoff * cutoff
    rho3 = (u @ rho2.reshape(d2, d2) @ u.conj().T).reshape(rho2.shape)
    rho4 = apply_loss_two_mode(rho3, "b", params.eta2)
    return rho1, rho2, rho3, rho4


def herald(rho: np.ndarray, m: int) -> tuple[fo.FockDensity | None, float]:
    """Project mode b of a two-mode density onto m photons: (state, p_d).

    Below ``fo.HERALD_FLOOR`` no normalized state exists and None is
    returned in its place.
    """
    if not 0 <= m < rho.shape[1]:
        raise ValueError(f"heralded photon number {m} outside the detector cutoff {rho.shape[1]}")
    kept = np.array(rho[:, m, :, m])
    p_d = float(np.trace(kept).real)
    if p_d < fo.HERALD_FLOOR:
        return None, max(p_d, 0.0)
    return fo.FockDensity(kept / p_d), p_d


def run_pipeline_reference(params: CircuitParams, cutoff: int) -> fo.PipelineResult:
    """Pipeline by literal stage composition (dense two-mode tensors)."""
    rho4 = stage_densities(params, cutoff)[3]
    state, p_d = herald(rho4, params.m)
    return fo.PipelineResult(params=params, p_d=p_d, state=state, cutoff=cutoff)


def trace(rho: np.ndarray) -> float:
    return float(np.einsum("abab->", rho).real)


def hermiticity_defect(rho: np.ndarray) -> float:
    return float(np.max(np.abs(rho - np.conj(np.transpose(rho, (2, 3, 0, 1))))))


def min_eigenvalue(rho: np.ndarray) -> float:
    d = rho.shape[0] * rho.shape[1]
    return float(np.linalg.eigvalsh(rho.reshape(d, d))[0])


def characteristic_function(rho: fo.FockDensity, alpha: complex) -> complex:
    """Tr[rho D(alpha)] of a single-mode density."""
    return complex(np.einsum("ab,ba->", rho.matrix, fo.displacement_matrix(alpha, rho.cutoff)))


def characteristic_function_two_mode(rho: np.ndarray, alpha: complex, beta: complex) -> complex:
    """Tr[rho D_a(alpha) D_b(beta)] of a two-mode density."""
    da, db = rho.shape[:2]
    d_a = fo.displacement_matrix(alpha, da)
    d_b = fo.displacement_matrix(beta, db)
    return complex(np.einsum("abcd,ca,db->", rho, d_a, d_b))


def oracle_moment(rho: fo.FockDensity, k: int, l: int) -> complex:
    """<a†^k a^l> by direct matrix products."""
    a = fo.ladder(rho.cutoff)
    op = np.linalg.matrix_power(a.conj().T, k) @ np.linalg.matrix_power(a, l)
    return complex(np.einsum("ab,ba->", rho.matrix, op))


def annihilate(state: fo.FockState, m: int) -> fo.FockState:
    """Apply the annihilation operator m times and renormalize."""
    amp = np.array(state.amplitudes)
    for _ in range(m):
        n = np.arange(1, amp.size)
        amp = amp[1:] * np.sqrt(n)
    norm = np.linalg.norm(amp)
    if norm == 0.0:
        raise ValueError("annihilation emptied the state")
    return fo.FockState(amp / norm)


def photon_subtracted_target(r: float, m: int, cutoff: int) -> fo.FockState:
    """Normalized a^m S(r)|0>, the ideal lossless subtraction output."""
    source = fo.squeezed_vacuum(r, cutoff + m, enforce_tail=False)
    return annihilate(source, m)


def fidelity(rho: fo.FockDensity, target: fo.FockState) -> float:
    """Overlap <psi| rho |psi> with a pure target, padding to a common cutoff."""
    d = max(rho.cutoff, target.cutoff)
    amp = np.zeros(d, dtype=complex)
    amp[: target.cutoff] = target.amplitudes
    mat = np.zeros((d, d), dtype=complex)
    mat[: rho.cutoff, : rho.cutoff] = rho.matrix
    return float((amp.conj() @ mat @ amp).real)
