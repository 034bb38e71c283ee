"""Brute-force reference simulation in a truncated two-mode Fock space.

Ground truth for every closed-form result in :mod:`mssvs.observables`:
the same circuit is simulated by direct linear algebra on photon-number
amplitudes, with the loss channels realized by explicit Kraus sums and
the beam splitter by a number-conserving unitary. Nothing here touches
the generating-function machinery, so agreement between the two routes
validates both.

Two-mode density operators are stored as 4-index tensors indexed
``[na, nb, na', nb']``; flattening the first and last index pairs in C
order matches the ``na * cutoff + nb`` basis convention of
:func:`beamsplitter_unitary`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .circuit import CircuitParams
from .errors import CutoffTooSmallError, ParameterDomainError
from .observables import QuadratureVariances, WignerPoint

DEFAULT_CUTOFF = 40
ESCALATED_CUTOFF = 60
HERALD_FLOOR = 1e-14

_TAIL_MARGIN = 4  # tail mass is measured from cutoff - 4 upward


@dataclass(frozen=True)
class FockState:
    """Pure single-mode state as a vector of number-basis amplitudes."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.atleast_1d(np.array(self.amplitudes, dtype=complex))
        if amp.ndim != 1 or amp.size == 0:
            raise ValueError("amplitudes must form a non-empty vector")
        norm = float(np.linalg.norm(amp))
        if norm > 1.0 + 1e-12:
            raise ValueError(f"state norm {norm} exceeds 1")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def cutoff(self) -> int:
        return self.amplitudes.size

    def density(self) -> "FockDensity":
        return FockDensity(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class FockDensity:
    """Density operator over one mode (matrix) or two modes (4-index tensor)."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim == 2:
            if mat.shape[0] != mat.shape[1]:
                raise ValueError(f"single-mode density must be square, got {mat.shape}")
        elif mat.ndim == 4:
            if mat.shape[0] != mat.shape[2] or mat.shape[1] != mat.shape[3]:
                raise ValueError(
                    f"two-mode density must have shape (da, db, da, db), got {mat.shape}"
                )
        else:
            raise ValueError(f"density must have 2 or 4 indices, got {mat.ndim}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def n_modes(self) -> int:
        return self.matrix.ndim // 2

    @property
    def cutoffs(self) -> tuple[int, ...]:
        return self.matrix.shape[: self.n_modes]

    def trace(self) -> float:
        if self.n_modes == 1:
            return float(np.trace(self.matrix).real)
        return float(np.einsum("abab->", self.matrix).real)

    def hermiticity_defect(self) -> float:
        if self.n_modes == 1:
            return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))
        swapped = np.conj(np.transpose(self.matrix, (2, 3, 0, 1)))
        return float(np.max(np.abs(self.matrix - swapped)))

    def min_eigenvalue(self) -> float:
        if self.n_modes == 1:
            mat = self.matrix
        else:
            d = self.cutoffs[0] * self.cutoffs[1]
            mat = self.matrix.reshape(d, d)
        return float(np.linalg.eigvalsh(mat)[0])


# ---------------------------------------------------------------------------
# State preparation


def _svs_amplitudes(r: float, count: int) -> np.ndarray:
    """First ``count`` number-basis amplitudes of squeezed vacuum, unnormalized
    beyond truncation (the exact series has unit norm)."""
    lam = math.tanh(r)
    amp = np.zeros(count)
    amp[0] = (1.0 - lam * lam) ** 0.25
    for k in range(1, (count - 1) // 2 + 1):
        amp[2 * k] = amp[2 * k - 2] * lam * math.sqrt((2 * k - 1) / (2 * k))
    return amp


def _svs_probabilities_extended(r: float, tail_tol: float) -> np.ndarray:
    """Amplitude-squared series carried far enough to bound the tail."""
    count = 128
    lam2 = math.tanh(r) ** 2
    while True:
        amp = _svs_amplitudes(r, count)
        probs = amp * amp
        top = probs[-2] if count % 2 == 0 else probs[-1]
        # remaining mass is bounded by a geometric series with ratio lam^2
        bound = top * lam2 / (1.0 - lam2) if lam2 < 1.0 else math.inf
        if bound < tail_tol * 1e-3 or count > 100_000:
            return probs
        count *= 2


def required_cutoff(r: float, tail_tol: float = 1e-10) -> int:
    """Smallest cutoff whose tail mass (above cutoff - 4) stays below tol."""
    if r == 0.0:
        return 1
    probs = _svs_probabilities_extended(r, tail_tol)
    suffix = np.cumsum(probs[::-1])[::-1]
    # suffix[i] = total mass at photon numbers >= i; cutoff c is accepted
    # when suffix[c - 3] < tol
    for start in range(suffix.size):
        if suffix[start] < tail_tol:
            return start + _TAIL_MARGIN - 1
    raise CutoffTooSmallError(0, float(suffix[-1]), -1)


def squeezed_vacuum(
    r: float,
    cutoff: int,
    *,
    tail_tol: float = 1e-10,
    enforce_tail: bool = True,
) -> FockState:
    """Squeezed vacuum truncated to ``cutoff`` levels and renormalized.

    Only even photon numbers are populated. When the probability mass at
    and above ``cutoff - 4`` is not below ``tail_tol`` the cutoff is
    rejected with :class:`CutoffTooSmallError` naming a sufficient one,
    unless ``enforce_tail`` is disabled.
    """
    if r < 0.0:
        raise ParameterDomainError(f"r must be non-negative, got {r}")
    if cutoff < 1:
        raise ParameterDomainError(f"cutoff must be positive, got {cutoff}")
    if enforce_tail and r > 0.0:
        probs = _svs_probabilities_extended(r, tail_tol)
        start = max(cutoff - _TAIL_MARGIN + 1, 0)
        tail = float(probs[start:].sum())
        if tail >= tail_tol:
            raise CutoffTooSmallError(cutoff, tail, required_cutoff(r, tail_tol))
    amp = _svs_amplitudes(r, cutoff)
    return FockState(amp / np.linalg.norm(amp))


def annihilate(state: FockState, m: int = 1) -> FockState:
    """Apply the annihilation operator m times and renormalize."""
    amp = np.array(state.amplitudes)
    for _ in range(m):
        n = np.arange(1, amp.size)
        amp = amp[1:] * np.sqrt(n)
    norm = np.linalg.norm(amp)
    if norm == 0.0:
        raise ValueError("annihilation emptied the state")
    return FockState(amp / norm)


def photon_subtracted_target(r: float, m: int, cutoff: int) -> FockState:
    """Normalized a^m S(r)|0>, the ideal lossless subtraction output."""
    source = squeezed_vacuum(r, cutoff + m, enforce_tail=False)
    return annihilate(source, m)


# ---------------------------------------------------------------------------
# Channels


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


def _loss_weights(eta: float, length: int, j: int) -> np.ndarray:
    """sqrt(C(p+j, j)) (1-eta)^(p/2) for p = 0..length-1."""
    keep = 1.0 - eta
    p = np.arange(length)
    # C(p+j, j) = C(p-1+j, j) (p+j)/p, from C(j, j) = 1
    combs = np.ones(length)
    combs[1:] = np.cumprod((p[1:] + j) / p[1:])
    return np.sqrt(combs) * keep ** (p / 2.0)


def apply_loss_kraus(rho: FockDensity, mode: str, eta: float) -> FockDensity:
    """Pure-loss channel on one mode of a density operator.

    Equivalent to summing K_j rho K_j† over the Kraus set; implemented by
    diagonal-shifted slices, which keeps the cost at one dense pass per
    Kraus index.
    """
    if not 0.0 <= eta <= 1.0:
        raise ParameterDomainError(f"eta must lie in [0, 1], got {eta}")
    if rho.n_modes == 1:
        if mode != "a":
            raise ValueError(f"single-mode density has only mode 'a', got {mode!r}")
        axes = (0, 1)
    elif mode == "a":
        axes = (0, 2)
    elif mode == "b":
        axes = (1, 3)
    else:
        raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")

    mat = rho.matrix
    d = mat.shape[axes[0]]
    out = np.zeros_like(mat)
    ndim = mat.ndim
    for j in range(d):
        weight = eta**j
        if weight == 0.0 and j > 0:
            break
        length = d - j
        u = _loss_weights(eta, length, j)
        shape_ket = [1] * ndim
        shape_ket[axes[0]] = length
        shape_bra = [1] * ndim
        shape_bra[axes[1]] = length
        src = tuple(
            slice(j, None) if ax in axes else slice(None) for ax in range(ndim)
        )
        dst = tuple(
            slice(0, length) if ax in axes else slice(None) for ax in range(ndim)
        )
        out[dst] += weight * u.reshape(shape_ket) * u.reshape(shape_bra) * mat[src]
    return FockDensity(out)


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


def bs_vacuum_weights(T: float, cutoff: int) -> np.ndarray:
    """Amplitudes <p, n| B |p+n, 0> as weights[p, n] (closed binomial form)."""
    if not 0.0 <= T <= 1.0:
        raise ParameterDomainError(f"T must lie in [0, 1], got {T}")
    d = cutoff
    w = np.zeros((d, d))
    w[0, :] = (1.0 - T) ** (np.arange(d) / 2.0)
    for p in range(1, d):
        n = np.arange(d)
        w[p, :] = w[p - 1, :] * np.sqrt(T * (p + n) / p)
    return w


def herald(rho: FockDensity, m: int) -> tuple[FockDensity | None, float]:
    """Project mode b onto m photons; returns the kept state and p_d.

    The projection trace is the herald probability. Below
    ``HERALD_FLOOR`` no normalized state exists and None is returned in
    its place (not an exception, so parameter sweeps can record nulls).
    """
    if rho.n_modes != 2:
        raise ValueError("herald expects a two-mode density")
    if not 0 <= m < rho.cutoffs[1]:
        raise ValueError(
            f"heralded photon number {m} outside the detector cutoff {rho.cutoffs[1]}"
        )
    kept = np.array(rho.matrix[:, m, :, m])
    p_d = float(np.trace(kept).real)
    if p_d < HERALD_FLOOR:
        return None, max(p_d, 0.0)
    return FockDensity(kept / p_d), p_d


# ---------------------------------------------------------------------------
# Pipeline


@dataclass(frozen=True)
class PipelineResult:
    params: CircuitParams
    p_d: float
    state: FockDensity | None
    cutoff: int


def stage_densities(
    params: CircuitParams, cutoff: int
) -> tuple[FockDensity, FockDensity, FockDensity, FockDensity]:
    """The four pre-detection two-mode densities, by direct composition.

    Materializes full two-mode tensors; intended for moderate cutoffs
    (tests and characteristic-function sampling).
    """
    svs = squeezed_vacuum(params.r, cutoff, enforce_tail=False)
    vac = np.zeros(cutoff)
    vac[0] = 1.0
    psi = np.einsum("a,b->ab", svs.amplitudes, vac)
    rho1 = FockDensity(np.einsum("ab,cd->abcd", psi, psi.conj()))
    rho2 = apply_loss_kraus(rho1, "a", params.eta1)
    u = beamsplitter_unitary(params.T, cutoff)
    d2 = cutoff * cutoff
    mixed = u @ rho2.matrix.reshape(d2, d2) @ u.conj().T
    rho3 = FockDensity(mixed.reshape(cutoff, cutoff, cutoff, cutoff))
    rho4 = apply_loss_kraus(rho3, "b", params.eta2)
    return rho1, rho2, rho3, rho4


def run_pipeline_reference(params: CircuitParams, cutoff: int) -> PipelineResult:
    """Pipeline by literal stage composition (dense two-mode tensors)."""
    rho4 = stage_densities(params, cutoff)[3]
    state, p_d = herald(rho4, params.m)
    return PipelineResult(params=params, p_d=p_d, state=state, cutoff=cutoff)


def _herald_once(params: CircuitParams, d: int, svs: FockState) -> tuple[np.ndarray, float]:
    """Heralded (unnormalized) output and p_d at one working cutoff."""
    m = params.m
    rho_a = np.outer(svs.amplitudes, svs.amplitudes.conj())
    if params.eta1 > 0.0:
        rho_a = apply_loss_kraus(FockDensity(rho_a), "a", params.eta1).matrix

    weights = bs_vacuum_weights(params.T, d)
    eta2 = params.eta2
    out = np.zeros((d, d), dtype=complex)
    for j in range(d - m):
        herald_weight = math.comb(m + j, j) * (1.0 - eta2) ** m * eta2**j
        if herald_weight == 0.0 and j > 0:
            break
        n = m + j
        length = d - n
        u = weights[:length, n]
        out[:length, :length] += herald_weight * np.outer(u, u) * rho_a[n:, n:]
    return out, float(np.trace(out).real)


def _herald_summary(out: np.ndarray, p_d: float) -> float:
    """Second photon moment of the normalized heralded state."""
    diag = np.real(np.diag(out))
    ns = np.arange(diag.size, dtype=float)
    return float((diag * ns * ns).sum() / p_d)


def run_pipeline(
    params: CircuitParams,
    cutoff: int = DEFAULT_CUTOFF,
    *,
    escalate: bool = True,
    tail_tol: float = 1e-10,
    convergence_tol: float = 1e-10,
    max_cutoff: int = 320,
) -> PipelineResult:
    """Simulate the full circuit and herald on m photons.

    Identical channel algebra to :func:`run_pipeline_reference` without
    materializing the two-mode tensors: the beam splitter acts on a
    product with vacuum, so only its vacuum-column amplitudes enter, and
    the detection-arm loss is folded into the herald projection weights.

    Cutoff escalation happens twice over. The squeezed input must satisfy
    its own tail criterion (``tail_tol``; first retry at
    ``ESCALATED_CUTOFF``, then at the reported sufficient value).
    Heralding then re-weights high photon numbers, so the cutoff keeps
    growing until the herald probability and the conditioned state's
    second photon moment are stationary to ``convergence_tol``; m-photon
    detection at high transmissivity needs visibly more room than the
    input alone.
    """
    d = cutoff
    try:
        svs = squeezed_vacuum(params.r, d, tail_tol=tail_tol)
    except CutoffTooSmallError as exc:
        if not escalate:
            raise
        d = max(ESCALATED_CUTOFF, exc.required_cutoff)
        svs = squeezed_vacuum(params.r, d, tail_tol=tail_tol)
    m = params.m
    if m >= d:
        raise ParameterDomainError(
            f"heralded photon number {m} needs a cutoff above {m}"
        )

    out, p_d = _herald_once(params, d, svs)
    if escalate and p_d >= HERALD_FLOOR:
        moment2 = _herald_summary(out, p_d)
        while d < max_cutoff:
            wider = min(max_cutoff, d + max(24, d // 3))
            svs = squeezed_vacuum(params.r, wider, tail_tol=tail_tol, enforce_tail=False)
            out_w, p_w = _herald_once(params, wider, svs)
            moment2_w = _herald_summary(out_w, p_w)
            converged = (
                abs(p_w - p_d) <= convergence_tol * p_w
                and abs(moment2_w - moment2) <= convergence_tol * (1.0 + moment2_w)
            )
            out, p_d, moment2, d = out_w, p_w, moment2_w, wider
            if converged:
                break
    if p_d < HERALD_FLOOR:
        return PipelineResult(params=params, p_d=max(p_d, 0.0), state=None, cutoff=d)
    return PipelineResult(
        params=params, p_d=p_d, state=FockDensity(out / p_d), cutoff=d
    )


# ---------------------------------------------------------------------------
# Observables by direct matrix algebra


def ladder(cutoff: int) -> np.ndarray:
    """Annihilation operator matrix."""
    return np.diag(np.sqrt(np.arange(1, cutoff)), 1).astype(complex)


def _laguerre_columns(alphas: np.ndarray, d: int):
    """Displacement elements of a batch of points, one column at a time.

    At step n (n = 0..d-1) yields ``(u, phase)``, each of shape
    (points, d - n), with ``u[p, k] = <n+k|D(alpha_p)|n>`` and
    ``<n|D(alpha_p)|n+k> = u[p, k] * phase[p, k]``, where
    ``phase[p, k] = (-alpha_p*/alpha_p)^k`` (1 at alpha_p = 0). Entries
    are the exact infinite-space matrix elements, evaluated by the
    normalized associated-Laguerre three-term recurrence in n,

        u(n+1) = [(2n+k+1-x) u(n) - sqrt(n(n+k)) u(n-1)]
                 / sqrt((n+1)(n+k+1)),   x = |alpha|^2,

    started from <k|D|0> = alpha^k e^{-x/2} / sqrt(k!). It runs on every
    point and every k at once and stays at machine precision for the
    |alpha| and cutoffs used here.
    """
    alphas = np.asarray(alphas, dtype=complex).reshape(-1, 1)
    x = np.abs(alphas) ** 2
    k = np.arange(d)
    factors = np.ones((alphas.shape[0], d), dtype=complex)
    factors[:, 1:] = alphas / np.sqrt(k[1:])
    current = np.exp(-x / 2.0) * np.cumprod(factors, axis=1)
    previous = np.zeros_like(current)
    zero = alphas == 0
    safe = np.where(zero, 1.0, alphas)
    mirror = np.where(zero, 1.0, -safe.conjugate() / safe)
    phase = mirror ** k
    for n in range(d):
        width = d - n
        yield current, phase[:, :width]
        if width == 1:
            return
        kk = k[: width - 1]
        upcoming = (
            (2 * n + kk + 1 - x) * current[:, : width - 1]
            - np.sqrt(n * (n + kk)) * previous[:, : width - 1]
        ) / np.sqrt((n + 1) * (n + kk + 1))
        previous, current = current, upcoming


def displacement_matrix(alpha: complex, cutoff: int) -> np.ndarray:
    """Displacement operator exp(alpha a† - alpha* a) on the truncated space.

    Entries are the exact infinite-space matrix elements restricted to
    the block (so columns near the cutoff are rows of a longer unitary,
    not a unitary of the block), filled column by column from
    :func:`_laguerre_columns`.
    """
    d = cutoff
    out = np.zeros((d, d), dtype=complex)
    for n, (u, phase) in enumerate(_laguerre_columns(np.array([alpha]), d)):
        out[n:, n] = u[0]
        out[n, n + 1 :] = u[0, 1:] * phase[0, 1:]
    return out


def characteristic_function(rho: FockDensity, alpha: complex, beta: complex | None = None) -> complex:
    """Tr[rho D_a(alpha)] or Tr[rho D_a(alpha) D_b(beta)] for two modes."""
    if rho.n_modes == 1:
        d = rho.cutoffs[0]
        return complex(np.einsum("ab,ba->", rho.matrix, displacement_matrix(alpha, d)))
    if beta is None:
        raise ValueError("two-mode characteristic function needs both arguments")
    da, db = rho.cutoffs
    d_a = displacement_matrix(alpha, da)
    d_b = displacement_matrix(beta, db)
    return complex(np.einsum("abcd,ca,db->", rho.matrix, d_a, d_b))


def oracle_pnd(rho: FockDensity, n_max: int | None = None) -> np.ndarray:
    """Diagonal photon-number probabilities of a single-mode state."""
    if rho.n_modes != 1:
        raise ValueError("photon-number distribution expects a single-mode state")
    diag = np.real(np.diag(rho.matrix))
    if n_max is not None:
        diag = diag[: n_max + 1]
    return diag


def oracle_moment(rho: FockDensity, k: int, l: int) -> complex:
    """<a†^k a^l> by direct matrix products."""
    if rho.n_modes != 1:
        raise ValueError("moments expect a single-mode state")
    d = rho.cutoffs[0]
    a = ladder(d)
    op = np.linalg.matrix_power(a.conj().T, k) @ np.linalg.matrix_power(a, l)
    return complex(np.einsum("ab,ba->", rho.matrix, op))


def oracle_variances(rho: FockDensity) -> QuadratureVariances:
    """Quadrature variances from the quadrature matrices themselves."""
    d = rho.cutoffs[0]
    a = ladder(d)
    x = (a + a.conj().T) / math.sqrt(2.0)
    p = (a - a.conj().T) / (1j * math.sqrt(2.0))
    var = []
    for quad in (x, p):
        mean = np.einsum("ab,ba->", rho.matrix, quad).real
        second = np.einsum("ab,ba->", rho.matrix, quad @ quad).real
        var.append(float(second - mean * mean))
    return QuadratureVariances(var_x=var[0], var_p=var[1])


def oracle_parity(rho: FockDensity) -> float:
    """Expectation of (-1)^(a†a)."""
    diag = np.real(np.diag(rho.matrix))
    signs = 1.0 - 2.0 * (np.arange(diag.size) % 2)
    return float(diag @ signs)


def _wigner_values(matrix: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """(2/pi) Re Tr[rho D(2 beta) (-1)^(a†a)] for every beta of a batch.

    Parity conjugates displacements, so the displaced-parity kernel is
    D(2 beta) times parity; the trace needs the displacement elements
    only on the state's own support. Each column the recurrence yields
    is contracted with rho as it is produced, so no displacement matrix
    is formed.
    """
    if matrix.ndim != 2:
        raise ValueError("Wigner evaluation expects a single-mode state")
    d = matrix.shape[0]
    signs = 1.0 - 2.0 * (np.arange(d) % 2)
    # the kernel's column c carries parity signs[c]: <n+k|D|n> meets
    # rho[n, n+k] with signs[n], and <n|D|n+k> meets rho[n+k, n] with
    # signs[n+k], so both read row-signed entries of rho
    signed = signs[:, None] * matrix
    total = np.zeros(len(betas), dtype=complex)
    for n, (u, phase) in enumerate(_laguerre_columns(2.0 * betas, d)):
        total += u @ signed[n, n:]
        total += (u[:, 1:] * phase[:, 1:]) @ signed[n + 1 :, n]
    return (2.0 / math.pi) * total.real


def oracle_wigner(rho: FockDensity, x: float, y: float) -> WignerPoint:
    """Wigner value (2/pi) Tr[rho D(beta) (-1)^(a†a) D†(beta)].

    A one-point :func:`oracle_wigner_grid`: the same batched evaluation
    at beta = (x + iy)/sqrt(2).
    """
    beta = complex(x, y) / math.sqrt(2.0)
    w = _wigner_values(rho.matrix, np.array([beta]))[0]
    return WignerPoint(x=float(x), y=float(y), w=float(w))


def oracle_wigner_grid(
    rho: FockDensity,
    x_range: tuple[float, float],
    y_range: tuple[float, float],
    resolution: int,
) -> list[WignerPoint]:
    """Wigner function on a grid, ordered by (x, y) index.

    One displacement recurrence serves the whole grid; its cost is
    O(points x cutoff^2) time and O(points x cutoff) memory.
    """
    xs = np.linspace(x_range[0], x_range[1], resolution)
    ys = np.linspace(y_range[0], y_range[1], resolution)
    coords = [(float(xv), float(yv)) for xv in xs for yv in ys]
    betas = np.array([complex(xv, yv) / math.sqrt(2.0) for xv, yv in coords])
    values = _wigner_values(rho.matrix, betas)
    return [WignerPoint(x=xv, y=yv, w=float(w)) for (xv, yv), w in zip(coords, values)]


def fidelity(rho: FockDensity, target: FockState) -> float:
    """Overlap <psi| rho |psi> with a pure target, padding to a common cutoff."""
    if rho.n_modes != 1:
        raise ValueError("fidelity expects a single-mode state")
    d = max(rho.cutoffs[0], target.cutoff)
    amp = np.zeros(d, dtype=complex)
    amp[: target.cutoff] = target.amplitudes
    mat = np.zeros((d, d), dtype=complex)
    mat[: rho.cutoffs[0], : rho.cutoffs[0]] = rho.matrix
    return float((amp.conj() @ mat @ amp).real)


def oracle_observables(rho: FockDensity, *, n_max: int | None = None) -> dict:
    """Bundle of the scalar diagnostics used by validation reports."""
    variances_ = oracle_variances(rho)
    return {
        "pnd": oracle_pnd(rho, n_max),
        "mean_photon": oracle_moment(rho, 1, 1).real,
        "var_x": variances_.var_x,
        "var_p": variances_.var_p,
        "parity": oracle_parity(rho),
    }
