"""Closed-form observables of the heralded photon-subtracted state.

Success probability, normally-ordered moments, quadrature variances,
photon-number distribution and the Wigner function are all evaluated by
differentiating exponential-quadratic generating functions built from the
derived coefficient set of :mod:`mssvs.circuit`, read off one genfunc
Taylor box each. Every public call evaluates that coefficient set once
and shares it between p_d and the observable. Closed forms for the
plain squeezed vacuum (the lossless, no-subtraction baseline) live here
as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitParams, DerivedCoefficients, derived_coefficients
from .errors import (
    ConvergenceError,
    NumericalConsistencyError,
    ParameterDomainError,
    UndefinedStateError,
)
from .genfunc import DEFAULT_MAX_TOTAL_ORDER, QuadraticExponent, taylor_coefficient_box

_IMAG_TOL = 1e-10
_PROB_SLACK = 1e-12
_PND_NEGATIVE_TOL = 1e-10
_HEISENBERG_TOL = 1e-10

# Probability mass an adaptive photon-number distribution may leave out,
# and the largest photon number it grows to.
PND_TAIL_TOL = 1e-10
PND_N_CAP = 64

# Largest n with float(n!) finite; P(n) and moments of order beyond it
# cannot be scaled.
_FACTORIAL_N_MAX = 170

# Squeezing-threshold search: coarse scan from THRESHOLD_R_MIN in steps of
# THRESHOLD_SCAN_STEP, then bisection to THRESHOLD_R_TOL.
THRESHOLD_R_MIN = 1e-4
THRESHOLD_SCAN_STEP = 0.05
THRESHOLD_R_TOL = 1e-6
THRESHOLD_MAX_ITERATIONS = 200

VACUUM_VARIANCE = 0.5


@dataclass(frozen=True)
class QuadratureVariances:
    """Variances of X = (a + a†)/sqrt(2) and P = (a - a†)/(sqrt(2) i)."""

    var_x: float
    var_p: float

    def __post_init__(self):
        if self.var_x <= 0.0 or self.var_p <= 0.0:
            raise NumericalConsistencyError(
                f"quadrature variances must be positive, got "
                f"({self.var_x}, {self.var_p})"
            )
        if self.var_x * self.var_p < 0.25 - _HEISENBERG_TOL:
            raise NumericalConsistencyError(
                f"uncertainty product {self.var_x * self.var_p} violates the "
                f"Heisenberg bound 1/4"
            )


@dataclass(frozen=True)
class WignerPoint:
    """Wigner value at phase-space point beta = (x + iy)/sqrt(2)."""

    x: float
    y: float
    w: float


def _real_part(value: complex, what: str, tol: float) -> float:
    scale = max(1.0, abs(value))
    if abs(value.imag) > tol * scale:
        raise NumericalConsistencyError(
            f"{what} has imaginary residue {value.imag:.3e} beyond {tol:.0e}"
        )
    return value.real


def _clamp_probability(value: float, what: str) -> float:
    if -_PROB_SLACK <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + _PROB_SLACK:
        return 1.0
    if value < 0.0 or value > 1.0:
        raise NumericalConsistencyError(f"{what} = {value} is outside [0, 1]")
    return value


def _herald_exponent(dc: DerivedCoefficients) -> QuadraticExponent:
    """Generating exponent in (mu, nu) for the detection probability."""
    cross = 1.0 - dc.eps1 / dc.eps4
    diag = 2.0 * dc.eps2 / dc.eps4
    return QuadraticExponent([[diag, cross], [cross, diag]], [0.0, 0.0])


def _moment_exponent(dc: DerivedCoefficients) -> QuadraticExponent:
    """Generating exponent in (mu, nu, f, g) for normally-ordered moments."""
    a = np.zeros((4, 4))
    a[0, 1] = 1.0 - dc.eps1 / dc.eps4
    a[0, 0] = a[1, 1] = 2.0 * dc.eps2 / dc.eps4
    a[0, 2] = a[1, 3] = dc.eps3 * dc.eps7 / dc.eps4
    a[1, 2] = a[0, 3] = dc.eps3 * dc.eps8 / dc.eps4
    a[2, 3] = dc.lam**2 * dc.tau1 + dc.eps5 / dc.eps4
    a[2, 2] = a[3, 3] = dc.lam * dc.tau1 + 2.0 * dc.eps6 / dc.eps4
    a = a + np.triu(a, 1).T
    return QuadraticExponent(a, np.zeros(4))


def _pnd_exponent(dc: DerivedCoefficients) -> QuadraticExponent:
    """Generating exponent in (mu, nu, s, t) for the photon-number law."""
    k32_over_k4 = dc.kappa3**2 / dc.kappa4
    a = np.zeros((4, 4))
    a[0, 1] = (
        1.0
        - dc.eps1 / dc.eps4
        + k32_over_k4 * (dc.kappa1 * dc.kappa5 + 4.0 * dc.kappa2 * dc.kappa6)
    )
    a[0, 0] = a[1, 1] = 2.0 * (
        dc.eps2 / dc.eps4
        - k32_over_k4 * (dc.kappa1 * dc.kappa6 + dc.kappa2 * dc.kappa5)
    )
    a[2, 3] = 1.0 - dc.kappa1 / dc.kappa4
    a[2, 2] = a[3, 3] = 2.0 * dc.kappa2 / dc.kappa4
    a[0, 3] = a[1, 2] = dc.kappa3 * dc.kappa7 / dc.kappa4
    a[0, 2] = a[1, 3] = dc.kappa3 * dc.kappa8 / dc.kappa4
    a = a + np.triu(a, 1).T
    return QuadraticExponent(a, np.zeros(4))


def _herald_probability(dc: DerivedCoefficients, m: int) -> float:
    """p_d from the (m, m) Taylor coefficient of the herald exponent."""
    box = taylor_coefficient_box(_herald_exponent(dc), (m, m))
    raw = complex(box[m, m]) * (float(math.factorial(m)) * math.factorial(m))
    value = _real_part(raw, "success probability", _PROB_SLACK)
    value /= math.factorial(m) * math.sqrt(dc.eps4)
    return _clamp_probability(value, "success probability")


def success_probability(params: CircuitParams) -> float:
    """Probability that the detection arm registers exactly m photons."""
    return _herald_probability(derived_coefficients(params), params.m)


def _heralded(params: CircuitParams) -> tuple[DerivedCoefficients, float]:
    """Derived coefficients and p_d of a point whose heralded state exists."""
    dc = derived_coefficients(params)
    pd = _herald_probability(dc, params.m)
    if pd <= 0.0:
        raise UndefinedStateError(
            f"herald probability vanishes at {params}; the conditioned state "
            f"is undefined"
        )
    return dc, pd


def _moment_box(dc: DerivedCoefficients, m: int, k_cap: int, l_cap: int) -> np.ndarray:
    caps = (m, m, k_cap, l_cap)
    return taylor_coefficient_box(
        _moment_exponent(dc), caps, max_total_order=max(DEFAULT_MAX_TOTAL_ORDER, sum(caps))
    )


def moment(params: CircuitParams, k: int, l: int) -> complex:
    """Normally-ordered moment <a†^k a^l> of the heralded state."""
    if k < 0 or l < 0:
        raise ValueError(f"moment orders must be non-negative, got ({k}, {l})")
    if max(k, l) > _FACTORIAL_N_MAX:
        raise ParameterDomainError(
            f"moment orders above {_FACTORIAL_N_MAX} are out of range (k! overflows "
            f"a float), got ({k}, {l})"
        )
    dc, pd = _heralded(params)
    m = params.m
    box = _moment_box(dc, m, k, l)
    coeff = complex(box[m, m, k, l])
    raw = coeff * math.factorial(m) ** 2 * math.factorial(k) * math.factorial(l)
    return raw / (math.factorial(m) * pd * math.sqrt(dc.eps4))


def variances(params: CircuitParams) -> QuadratureVariances:
    """Quadrature variances of the heralded state.

    Assembled from <a†a>, <a†> and <a†²> as
    Var(X) = <a†a> - |<a†>|² + Re(<a†²> - <a†>²) + 1/2 and Var(P) with the
    real part subtracted instead.
    """
    dc, pd = _heralded(params)
    m = params.m
    box = _moment_box(dc, m, 2, 2)
    scale = math.factorial(m) / (pd * math.sqrt(dc.eps4))
    n_mean = complex(box[m, m, 1, 1]) * scale
    adag = complex(box[m, m, 1, 0]) * scale
    adag2 = complex(box[m, m, 2, 0]) * 2.0 * scale
    base = n_mean - abs(adag) ** 2
    shift = adag2 - adag**2
    var_x = _real_part(base + shift + VACUUM_VARIANCE, "Var(X)", _IMAG_TOL)
    var_p = _real_part(base - shift + VACUUM_VARIANCE, "Var(P)", _IMAG_TOL)
    return QuadratureVariances(var_x=var_x, var_p=var_p)


@dataclass(frozen=True)
class SqueezingScan:
    """Outcome of a squeezing-threshold search over r."""

    r_c: float | None
    status: str  # "threshold", "always-squeezed" or "never-squeezed"
    r_max: float


def squeezing_threshold_scan(
    m: int,
    T: float,
    eta1: float,
    eta2: float,
    *,
    r_max: float = 3.0,
) -> SqueezingScan:
    """Locate the smallest r where Var(P) crosses the vacuum level 1/2.

    A coarse scan from ``THRESHOLD_R_MIN`` in steps of
    ``THRESHOLD_SCAN_STEP`` brackets the first sign change of
    Var(P) - 1/2, then bisection refines the root to ``THRESHOLD_R_TOL``.
    When no sign change exists the scan reports whether the state is
    squeezed everywhere in (0, r_max] ("always-squeezed") or nowhere
    ("never-squeezed").
    """

    def objective(r: float) -> float:
        return variances(CircuitParams(r, eta1, eta2, T, m)).var_p - VACUUM_VARIANCE

    step = THRESHOLD_SCAN_STEP
    grid = [THRESHOLD_R_MIN]
    steps = int(round(r_max / step))
    grid.extend(
        min(step * i, r_max) for i in range(1, steps + 1) if step * i > THRESHOLD_R_MIN
    )
    lo = grid[0]
    f_lo = objective(lo)
    if f_lo == 0.0:
        return SqueezingScan(r_c=lo, status="threshold", r_max=r_max)
    bracket = None
    for hi in grid[1:]:
        f_hi = objective(hi)
        if f_hi == 0.0:
            return SqueezingScan(r_c=hi, status="threshold", r_max=r_max)
        if f_lo * f_hi < 0.0:
            bracket = (lo, f_lo, hi, f_hi)
            break
        lo, f_lo = hi, f_hi
    if bracket is None:
        status = "always-squeezed" if f_lo < 0.0 else "never-squeezed"
        return SqueezingScan(r_c=None, status=status, r_max=r_max)

    lo, f_lo, hi, f_hi = bracket
    iterations = 0
    while hi - lo > THRESHOLD_R_TOL:
        iterations += 1
        if iterations > THRESHOLD_MAX_ITERATIONS:
            raise ConvergenceError(
                f"bisection for the squeezing threshold did not converge: "
                f"bracket [{lo}, {hi}], width {hi - lo:.3e} after "
                f"{THRESHOLD_MAX_ITERATIONS} iterations"
            )
        mid = 0.5 * (lo + hi)
        f_mid = objective(mid)
        if f_mid == 0.0:
            return SqueezingScan(r_c=mid, status="threshold", r_max=r_max)
        if f_lo * f_mid < 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return SqueezingScan(r_c=0.5 * (lo + hi), status="threshold", r_max=r_max)


def squeezing_threshold(
    m: int,
    T: float,
    eta1: float,
    eta2: float,
    *,
    r_max: float = 3.0,
) -> float | None:
    """Threshold squeezing parameter, or None when no crossing exists."""
    return squeezing_threshold_scan(m, T, eta1, eta2, r_max=r_max).r_c


def _pnd_values(
    params: CircuitParams, dc: DerivedCoefficients, pd: float, n_max: int
) -> np.ndarray:
    if n_max > _FACTORIAL_N_MAX:
        raise ParameterDomainError(
            f"photon numbers above {_FACTORIAL_N_MAX} are out of range (n! overflows "
            f"a float), got n_max = {n_max}"
        )
    m = params.m
    caps = (m, m, n_max, n_max)
    box = taylor_coefficient_box(
        _pnd_exponent(dc), caps, max_total_order=max(DEFAULT_MAX_TOTAL_ORDER, sum(caps))
    )
    norm = pd * math.sqrt(dc.eps4 * dc.kappa4)
    values = np.empty(n_max + 1)
    for n in range(n_max + 1):
        coeff = complex(box[m, m, n, n])
        raw = _real_part(coeff, f"P({n})", _IMAG_TOL)
        value = raw * math.factorial(m) * math.factorial(n) / norm
        if value < -_PND_NEGATIVE_TOL:
            raise NumericalConsistencyError(
                f"P({n}) = {value} is negative beyond tolerance at {params}"
            )
        values[n] = min(max(value, 0.0), 1.0)
    return values


def pnd(params: CircuitParams, n: int) -> float:
    """Probability of finding n photons in the heralded state."""
    if n < 0:
        raise ValueError(f"photon number must be non-negative, got {n}")
    dc, pd = _heralded(params)
    return float(_pnd_values(params, dc, pd, n)[n])


def pnd_vector(params: CircuitParams, n_max: int | None = None) -> np.ndarray:
    """Photon-number distribution P(0..N).

    With explicit ``n_max`` (at most 170) the vector has fixed length
    n_max + 1. Otherwise N adapts: it grows until the cumulative
    probability reaches 1 - ``PND_TAIL_TOL`` or N hits ``PND_N_CAP``, and
    the vector is trimmed at the first index where the target is met. A
    vector that stops at ``PND_N_CAP`` can sum to less than
    1 - ``PND_TAIL_TOL``; callers that need the full mass check the sum.
    """
    dc, pd = _heralded(params)
    if n_max is not None:
        return _pnd_values(params, dc, pd, n_max)
    size = 16
    while True:
        size = min(size, PND_N_CAP)
        values = _pnd_values(params, dc, pd, size)
        cumulative = np.cumsum(values)
        reached = np.nonzero(cumulative >= 1.0 - PND_TAIL_TOL)[0]
        if reached.size:
            return values[: reached[0] + 1]
        if size >= PND_N_CAP:
            return values
        size *= 2


def _wigner_values(params: CircuitParams, beta: np.ndarray) -> np.ndarray:
    """Wigner function of the heralded state at each entry of a 1-d ``beta``.

    The Taylor box over (mu, nu) of the beta-independent quadratic part is
    computed once. Only the linear couplings depend on beta (mu couples to
    g7 beta + g8 beta*, nu to g8 beta + g7 beta*); they exponentiate into
    polynomial factors, so each point is a contraction of that box.
    """
    dc, pd = _heralded(params)
    m = params.m
    k9 = dc.kappa9
    k32_over_k9 = dc.kappa3**2 / k9
    env_mod = dc.kappa1 / k9 - 1.0 / (2.0 * k9)
    env_quad = dc.kappa2 / k9
    cross = (
        1.0
        - dc.eps1 / dc.eps4
        + k32_over_k9
        * (4.0 * dc.kappa2 * dc.kappa6 + dc.kappa1 * dc.kappa5 - 0.5 * dc.kappa5)
    )
    diag = 2.0 * (
        dc.eps2 / dc.eps4
        + k32_over_k9 * (0.5 * dc.kappa6 - dc.kappa1 * dc.kappa6 - dc.kappa2 * dc.kappa5)
    )
    g8 = env_mod * dc.kappa3 * dc.eps8 - 2.0 * env_quad * dc.kappa3 * dc.eps7
    g7 = env_mod * dc.kappa3 * dc.eps7 - 2.0 * env_quad * dc.kappa3 * dc.eps8

    quad_box = taylor_coefficient_box(
        QuadraticExponent([[diag, cross], [cross, diag]], np.zeros(2)), (m, m)
    )
    b_mu = g7 * beta + g8 * beta.conjugate()
    b_nu = g8 * beta + g7 * beta.conjugate()
    powers_mu = np.empty((beta.size, m + 1), dtype=complex)
    powers_nu = np.empty((beta.size, m + 1), dtype=complex)
    for d in range(m + 1):
        # column i holds b^(m-i) / (m-i)! to pair with series order i
        powers_mu[:, m - d] = b_mu**d / math.factorial(d)
        powers_nu[:, m - d] = b_nu**d / math.factorial(d)
    raw = np.einsum("ij,pi,pj->p", quad_box, powers_mu, powers_nu)
    raw *= math.factorial(m) ** 2

    envelope = np.exp(
        -env_mod * np.abs(beta) ** 2 + env_quad * (beta**2 + np.conj(beta) ** 2).real
    )
    values = raw * envelope / (math.pi * math.factorial(m) * pd * math.sqrt(dc.eps4 * dc.kappa9))
    residue = float(np.max(np.abs(values.imag))) if values.size else 0.0
    if residue > _IMAG_TOL:
        raise NumericalConsistencyError(
            f"Wigner function has imaginary residue {residue:.3e} beyond {_IMAG_TOL:.0e}"
        )
    return values.real


def wigner(params: CircuitParams, x: float, y: float) -> WignerPoint:
    """Wigner function of the heralded state at beta = (x + iy)/sqrt(2)."""
    beta = np.array([complex(x, y) / math.sqrt(2.0)])
    return WignerPoint(x=float(x), y=float(y), w=float(_wigner_values(params, beta)[0]))


def wigner_grid(
    params: CircuitParams,
    x_range: tuple[float, float],
    y_range: tuple[float, float],
    resolution: int,
) -> list[WignerPoint]:
    """Wigner function on a rectangular grid, ordered by (x, y) index."""
    if resolution < 1:
        raise ValueError(f"resolution must be at least 1, got {resolution}")
    xs = np.linspace(x_range[0], x_range[1], resolution)
    ys = np.linspace(y_range[0], y_range[1], resolution)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    beta = (gx + 1j * gy).ravel() / math.sqrt(2.0)
    w = _wigner_values(params, beta).reshape(resolution, resolution)
    return [
        WignerPoint(x=float(xs[i]), y=float(ys[j]), w=float(w[i, j]))
        for i in range(resolution)
        for j in range(resolution)
    ]


def wigner_quadrature(points: list[WignerPoint], resolution: int) -> float:
    """Riemann-sum normalization integral of a wigner_grid result.

    The Wigner function is normalized over the complex beta plane; with
    beta = (x + iy)/sqrt(2) the area element is d2beta = dx dy / 2, so
    the (x, y) grid sum carries that Jacobian. A window holding the state
    yields 1.
    """
    if resolution < 2:
        raise ValueError("quadrature needs at least a 2x2 grid")
    xs = sorted({p.x for p in points})
    ys = sorted({p.y for p in points})
    dx = (xs[-1] - xs[0]) / (len(xs) - 1)
    dy = (ys[-1] - ys[0]) / (len(ys) - 1)
    return sum(p.w for p in points) * dx * dy / 2.0


# ---------------------------------------------------------------------------
# Squeezed-vacuum baselines (the m = 0, lossless, fully transmitting limit).


def svs_variances(r: float) -> QuadratureVariances:
    """Quadrature variances of squeezed vacuum: e^{2r}/2 and e^{-2r}/2."""
    return QuadratureVariances(var_x=0.5 * math.exp(2.0 * r), var_p=0.5 * math.exp(-2.0 * r))


def svs_moment(r: float, k: int, l: int) -> complex:
    """Moment <a†^k a^l> of squeezed vacuum via its generating exponent."""
    lam = math.tanh(r)
    denom = 1.0 - lam * lam
    a = np.array([[lam / denom, lam**2 / denom], [lam**2 / denom, lam / denom]])
    box = taylor_coefficient_box(QuadraticExponent(a, np.zeros(2)), (k, l))
    return complex(box[k, l]) * (float(math.factorial(k)) * math.factorial(l))


def svs_mean_photon(r: float) -> float:
    return math.sinh(r) ** 2


def svs_pnd(r: float, n: int) -> float:
    """Photon-number law of squeezed vacuum; odd components vanish."""
    if n < 0:
        raise ValueError(f"photon number must be non-negative, got {n}")
    if n % 2 == 1:
        return 0.0
    lam = math.tanh(r)
    half = n // 2
    return (
        math.factorial(n)
        * lam**n
        * math.sqrt(1.0 - lam * lam)
        / (2.0**n * math.factorial(half) ** 2)
    )


def svs_wigner(r: float, x: float, y: float) -> WignerPoint:
    """Gaussian Wigner function of squeezed vacuum."""
    lam = math.tanh(r)
    denom = 1.0 - lam * lam
    beta = complex(x, y) / math.sqrt(2.0)
    w = (2.0 / math.pi) * math.exp(
        -2.0 * (1.0 + lam * lam) / denom * abs(beta) ** 2
        + 2.0 * lam / denom * (beta**2 + beta.conjugate() ** 2).real
    )
    return WignerPoint(x=float(x), y=float(y), w=w)
