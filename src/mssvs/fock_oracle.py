"""Brute-force reference simulation in a truncated Fock space.

Ground truth for every closed-form result in :mod:`mssvs.observables`:
the same circuit is simulated by direct linear algebra on photon-number
amplitudes. Nothing here touches the generating-function machinery, so
agreement between the two routes validates both.

There is one route per operation. The squeezed input is a number-basis
vector; the input loss is the Kraus sum taken as diagonal-shifted slices
of the single-mode density matrix; the beam splitter acts on a product
with vacuum, so only its vacuum-column amplitudes enter; and the
detection loss is folded into the herald projection weights. No
two-mode tensor is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitParams
from .errors import CutoffTooSmallError, ParameterDomainError
from .observables import QuadratureVariances, WignerPoint

DEFAULT_CUTOFF = 40
ESCALATED_CUTOFF = 60
HERALD_FLOOR = 1e-14

# Cutoff escalation: the herald probability and second photon moment must
# be stationary to CONVERGENCE_TOL (relative) before MAX_CUTOFF is reached.
CONVERGENCE_TOL = 1e-10
MAX_CUTOFF = 320

_TAIL_MARGIN = 4  # tail mass is measured from cutoff - 4 upward

# The loss and herald sums stop at the first term whose largest weight is
# at most this share of the trace kept so far: density entries are at most
# 1 in magnitude, so such a term adds nothing a double can hold next to
# that trace, and past their peak the weights only fall.
_TERM_TOL = 1e-16


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
    """Single-mode density operator as a number-basis matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density must be a square matrix, got shape {mat.shape}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def cutoff(self) -> int:
        return self.matrix.shape[0]


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


def _tail_mass(probs: np.ndarray, cutoff: int) -> float:
    """Probability mass at and above ``cutoff - 4``."""
    return float(probs[max(cutoff - _TAIL_MARGIN + 1, 0):].sum())


def _sufficient_cutoff(probs: np.ndarray, tail_tol: float) -> int:
    """Smallest cutoff whose tail mass in ``probs`` stays below tol."""
    suffix = np.cumsum(probs[::-1])[::-1]
    # suffix[i] = total mass at photon numbers >= i; cutoff c is accepted
    # when suffix[c - 3] < tol
    for start in range(suffix.size):
        if suffix[start] < tail_tol:
            return start + _TAIL_MARGIN - 1
    raise CutoffTooSmallError(0, float(suffix[-1]), -1)


def _check_tail(probs: np.ndarray, cutoff: int, tail_tol: float) -> None:
    """Raise :class:`CutoffTooSmallError`, naming a sufficient cutoff, when
    the mass ``cutoff`` leaves in the tail is not below ``tail_tol``."""
    tail = _tail_mass(probs, cutoff)
    if tail >= tail_tol:
        raise CutoffTooSmallError(cutoff, tail, _sufficient_cutoff(probs, tail_tol))


def required_cutoff(r: float, tail_tol: float) -> int:
    """Smallest cutoff whose tail mass (above cutoff - 4) stays below tol."""
    if r == 0.0:
        return 1
    return _sufficient_cutoff(_svs_probabilities_extended(r, tail_tol), tail_tol)


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
        _check_tail(_svs_probabilities_extended(r, tail_tol), cutoff, tail_tol)
    amp = _svs_amplitudes(r, cutoff)
    return FockState(amp / np.linalg.norm(amp))


# ---------------------------------------------------------------------------
# Channels


def _loss_weights(eta: float, length: int, j: int) -> np.ndarray:
    """sqrt(C(p+j, j)) (1-eta)^(p/2) for p = 0..length-1."""
    keep = 1.0 - eta
    p = np.arange(length)
    # C(p+j, j) = C(p-1+j, j) (p+j)/p, from C(j, j) = 1
    combs = np.ones(length)
    combs[1:] = np.cumprod((p[1:] + j) / p[1:])
    return np.sqrt(combs) * keep ** (p / 2.0)


def _shifted_sum(matrix: np.ndarray, terms) -> np.ndarray:
    """Sum of ``weight * outer(u, u) * matrix[s:, s:]`` into the leading block.

    ``terms`` yields ``(s, weight, u)`` with ``u`` of length d - s. The
    sum stops at the first term whose bound ``weight * max(u**2)`` is at
    most ``_TERM_TOL`` times the trace kept so far.
    """
    d = matrix.shape[0]
    out = np.zeros((d, d), dtype=complex)
    kept = 0.0
    for s, weight, u in terms:
        if weight * np.max(u * u) <= _TERM_TOL * kept:
            break
        length = d - s
        out[:length, :length] += weight * np.outer(u, u) * matrix[s:, s:]
        kept = float(np.trace(out).real)
    return out


def apply_loss_kraus(rho: FockDensity, eta: float) -> FockDensity:
    """Pure-loss channel: the sum of K_j rho K_j† over the Kraus set
    K_j |n> = sqrt(C(n, j) (1-eta)^(n-j) eta^j) |n-j>.

    K_j moves the block ``rho[j:, j:]`` to the top-left corner, scaled by
    ``_loss_weights`` on each side, so each index costs one dense pass.
    """
    if not 0.0 <= eta <= 1.0:
        raise ParameterDomainError(f"eta must lie in [0, 1], got {eta}")
    d = rho.cutoff
    terms = ((j, eta**j, _loss_weights(eta, d - j, j)) for j in range(d))
    return FockDensity(_shifted_sum(rho.matrix, terms))


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


# ---------------------------------------------------------------------------
# Pipeline


@dataclass(frozen=True)
class PipelineResult:
    params: CircuitParams
    p_d: float
    state: FockDensity | None
    cutoff: int


def _herald_once(params: CircuitParams, d: int, svs: FockState) -> tuple[np.ndarray, float]:
    """Heralded (unnormalized) output and p_d at one working cutoff.

    Detecting m photons behind the detection loss means m + j photons
    reached it and j were lost, with weight C(m+j, j) (1-eta2)^m eta2^j;
    m + j photons in the detection arm come from the signal's
    vacuum-column beam-splitter amplitudes.
    """
    m = params.m
    rho_a = svs.density()
    if params.eta1 > 0.0:
        rho_a = apply_loss_kraus(rho_a, params.eta1)
    weights = bs_vacuum_weights(params.T, d)
    eta2 = params.eta2
    terms = (
        (m + j, math.comb(m + j, j) * (1.0 - eta2) ** m * eta2**j, weights[: d - m - j, m + j])
        for j in range(d - m)
    )
    out = _shifted_sum(rho_a.matrix, terms)
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
) -> PipelineResult:
    """Simulate the full circuit and herald on m photons.

    Cutoff escalation happens twice over. The squeezed input must satisfy
    its own tail criterion (``tail_tol``): a cutoff that fails it is
    raised to ``ESCALATED_CUTOFF`` or the sufficient value, whichever is
    larger, before any state is built.
    Heralding then re-weights high photon numbers, so the cutoff keeps
    growing, up to ``MAX_CUTOFF``, until the herald probability and the
    conditioned state's second photon moment are stationary to
    ``CONVERGENCE_TOL``; m-photon detection at high transmissivity needs
    visibly more room than the input alone.
    """
    if cutoff < 1:
        raise ParameterDomainError(f"cutoff must be positive, got {cutoff}")
    d = cutoff
    if params.r > 0.0:
        # one tail series serves the choice of cutoff and its check
        probs = _svs_probabilities_extended(params.r, tail_tol)
        if escalate and _tail_mass(probs, d) >= tail_tol:
            d = max(ESCALATED_CUTOFF, _sufficient_cutoff(probs, tail_tol))
        _check_tail(probs, d, tail_tol)
    svs = squeezed_vacuum(params.r, d, tail_tol=tail_tol, enforce_tail=False)
    m = params.m
    if m >= d:
        raise ParameterDomainError(
            f"heralded photon number {m} needs a cutoff above {m}"
        )

    out, p_d = _herald_once(params, d, svs)
    if escalate and p_d >= HERALD_FLOOR:
        moment2 = _herald_summary(out, p_d)
        while d < MAX_CUTOFF:
            wider = min(MAX_CUTOFF, d + max(24, d // 3))
            svs = squeezed_vacuum(params.r, wider, tail_tol=tail_tol, enforce_tail=False)
            out_w, p_w = _herald_once(params, wider, svs)
            moment2_w = _herald_summary(out_w, p_w)
            converged = (
                abs(p_w - p_d) <= CONVERGENCE_TOL * p_w
                and abs(moment2_w - moment2) <= CONVERGENCE_TOL * (1.0 + moment2_w)
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


def oracle_pnd(rho: FockDensity, n_max: int) -> np.ndarray:
    """Photon-number probabilities P(0..n_max), the diagonal of rho."""
    return np.real(np.diag(rho.matrix))[: n_max + 1]


def oracle_variances(rho: FockDensity) -> QuadratureVariances:
    """Quadrature variances from the quadrature matrices themselves."""
    d = rho.cutoff
    a = ladder(d)
    x = (a + a.conj().T) / math.sqrt(2.0)
    p = (a - a.conj().T) / (1j * math.sqrt(2.0))
    var = []
    for quad in (x, p):
        mean = np.einsum("ab,ba->", rho.matrix, quad).real
        second = np.einsum("ab,ba->", rho.matrix, quad @ quad).real
        var.append(float(second - mean * mean))
    return QuadratureVariances(var_x=var[0], var_p=var[1])


def _wigner_values(matrix: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """(2/pi) Re Tr[rho D(2 beta) (-1)^(a†a)] for every beta of a batch.

    Parity conjugates displacements, so the displaced-parity kernel is
    D(2 beta) times parity; the trace needs the displacement elements
    only on the state's own support. Each column the recurrence yields
    is contracted with rho as it is produced, so no displacement matrix
    is formed.
    """
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
