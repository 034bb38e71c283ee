"""Closed-form observables of the heralded photon-subtracted state.

Every observable differentiates an exponential-quadratic generating
function built from the derived coefficient set of :mod:`mssvs.circuit`,
which each public call evaluates once. p_d and the quadrature variances
need only three Taylor coefficients of the two-variable herald exponent,
which an O(m) recurrence sums with no Taylor box; the photon-number
distribution and the Wigner function are read off genfunc Taylor boxes.
Closed forms for the plain squeezed vacuum (the lossless, no-subtraction
baseline) live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import (
    CircuitColumns,
    CircuitParams,
    DerivedCoefficients,
    check_parameter,
    derived_coefficients,
)
from .errors import (
    CapacityError,
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

# Largest n with float(n!) finite; P(n) beyond it cannot be scaled.
_FACTORIAL_N_MAX = 170

# Squeezing-threshold search: coarse scan from THRESHOLD_R_MIN in steps of
# THRESHOLD_SCAN_STEP, then passes that split the bracket THRESHOLD_SPLIT
# ways (four bisection steps each) until it is at most THRESHOLD_R_TOL wide.
THRESHOLD_R_MIN = 1e-4
THRESHOLD_SCAN_STEP = 0.05
THRESHOLD_R_TOL = 1e-6
THRESHOLD_SPLIT = 16
THRESHOLD_MAX_PASSES = 50

VACUUM_VARIANCE = 0.5


def _first(mask) -> int | None:
    """Flat index of the first true entry of ``mask``, or None."""
    hits = np.asarray(mask).ravel().nonzero()[0]
    return int(hits[0]) if hits.size else None


def _nth(params: CircuitParams | CircuitColumns, i: int) -> CircuitParams:
    """Point i of columns; a single point is its own only entry."""
    return params if isinstance(params, CircuitParams) else params[i]


@dataclass(frozen=True)
class QuadratureVariances:
    """Variances of X = (a + a†)/sqrt(2) and P = (a - a†)/(sqrt(2) i).

    Floats for one point, arrays for parameter columns; every entry is
    checked.
    """

    var_x: float | np.ndarray
    var_p: float | np.ndarray

    def __post_init__(self):
        i = _first((self.var_x <= 0.0) | (self.var_p <= 0.0))
        if i is not None:
            raise NumericalConsistencyError(
                f"quadrature variances must be positive, got "
                f"({np.ravel(self.var_x)[i]}, {np.ravel(self.var_p)[i]})"
            )
        product = self.var_x * self.var_p
        i = _first(product < 0.25 - _HEISENBERG_TOL)
        if i is not None:
            raise NumericalConsistencyError(
                f"uncertainty product {np.ravel(product)[i]} violates the "
                f"Heisenberg bound 1/4"
            )


@dataclass(frozen=True)
class WignerPoint:
    """Wigner value at phase-space point beta = (x + iy)/sqrt(2)."""

    x: float
    y: float
    w: float


def _clamp_probability(value, what: str):
    """Clamp rounding noise within ``_PROB_SLACK`` of [0, 1], entry by entry."""
    i = _first((value < -_PROB_SLACK) | (value > 1.0 + _PROB_SLACK))
    if i is not None:
        raise NumericalConsistencyError(
            f"{what} = {np.ravel(value)[i]} is outside [0, 1]"
        )
    return np.minimum(np.maximum(value, 0.0), 1.0)


def _pnd_exponents(dc: DerivedCoefficients) -> tuple[QuadraticExponent, QuadraticExponent]:
    """Generating exponent in (mu, nu, s, t) for the photon-number law, split.

    The first exponent is the whole one with its (s, t) block set to zero,
    the second is that (s, t) block alone over (s, t); their sum is the
    exponent whose [m, m, n, n] Taylor coefficient gives P(n). Both take
    2s and 2t for s and t, so that coefficient comes out times 4^n: an
    exact power of two, which keeps the coefficients up to n = 170 above
    the subnormal range, where they would lose digits.
    """
    k32_over_k4 = dc.kappa3**2 / dc.kappa4
    a = np.zeros((4, 4) + np.shape(dc.eps4))
    a[0, 1] = a[1, 0] = (
        1.0
        - dc.eps1 / dc.eps4
        + k32_over_k4 * (dc.kappa1 * dc.kappa5 + 4.0 * dc.kappa2 * dc.kappa6)
    )
    a[0, 0] = a[1, 1] = 2.0 * (
        dc.eps2 / dc.eps4
        - k32_over_k4 * (dc.kappa1 * dc.kappa6 + dc.kappa2 * dc.kappa5)
    )
    a[0, 3] = a[3, 0] = a[1, 2] = a[2, 1] = 2.0 * (dc.kappa3 * dc.kappa7 / dc.kappa4)
    a[0, 2] = a[2, 0] = a[1, 3] = a[3, 1] = 2.0 * (dc.kappa3 * dc.kappa8 / dc.kappa4)
    cross = 4.0 * (1.0 - dc.kappa1 / dc.kappa4)
    diag = 4.0 * (2.0 * dc.kappa2 / dc.kappa4)
    return (
        QuadraticExponent(a),
        QuadraticExponent([[diag, cross], [cross, diag]]),
    )


def _herald_probability(dc: DerivedCoefficients, m: int):
    """p_d, checked, and H[m, m], H[m-1, m-1], H[m-1, m-1] - H[m-2, m] times m!/s^m.

    H[i, j] = sum_k c^k/k! (d/2)^(a + b)/(a! b!), a = (i - k)/2 and
    b = (j - k)/2, are the Taylor coefficients of the herald exponent
    d/2 (mu^2 + nu^2) + c mu nu, d = 2 eps2/eps4 >= c = 1 - eps1/eps4 >= 0.
    With s = c + d, f(n) = n! H[n, n]/s^n is the chance that the two d/2
    counts of a trinomial draw of n over the weights (c, d/2, d/2)/s agree,
    in [0, 1] at any m; delta(n) = f(n - 1) - f(n) keeps the digits of the
    difference Var(P) needs. Both follow one elementwise recurrence in a
    fixed order. The entries are f(m), m f(m - 1)/s and m delta(m)/d, with
    1 for s and d where c = d = 0.
    """
    c = 1.0 - dc.eps1 / dc.eps4
    d = 2.0 * dc.eps2 / dc.eps4
    empty = d == 0.0  # c = 0 there as well
    s = c + d + empty
    x, w, z = c / s, (d - c) / s, d / s
    f_prev, f, delta, power = 0.0, 1.0, 0.0, 1.0
    # n f(n) = (2n - 1) x f(n - 1) + (n - 1) w f(n - 2),
    # n delta(n) = z f(n - 1) - (n - 1) w delta(n - 1)
    for n in range(1, m + 1):
        delta = (z * f - (n - 1) * w * delta) / n
        f_prev, f = f, (2 * n - 1) / n * x * f + (n - 1) / n * w * f_prev
        power = power * s
    pd = _clamp_probability(f * power / np.sqrt(dc.eps4), "success probability")
    return pd, (f, m * f_prev / s, m * delta / (d + empty))


def success_probability(params: CircuitParams | CircuitColumns) -> float | np.ndarray:
    """Probability that the detection arm registers exactly m photons.

    One point gives a float. :class:`CircuitColumns` give an array with
    one entry per point, from one coefficient evaluation and one pass of
    the herald sums.
    """
    pd, _ = _herald_probability(derived_coefficients(params), params.m)
    return float(pd) if isinstance(params, CircuitParams) else pd


def _require_heralded(params: CircuitParams | CircuitColumns, pd) -> None:
    """Raise for the first point whose heralded state does not exist."""
    i = _first(pd <= 0.0)
    if i is not None:
        raise UndefinedStateError(
            f"herald probability vanishes at {_nth(params, i)}; the conditioned state "
            f"is undefined"
        )


def _heralded(params: CircuitParams | CircuitColumns):
    """Derived coefficients and p_d of points whose heralded state exists."""
    dc = derived_coefficients(params)
    pd, _ = _herald_probability(dc, params.m)
    _require_heralded(params, pd)
    return dc, pd


def variances(params: CircuitParams | CircuitColumns) -> QuadratureVariances:
    """Quadrature variances of the heralded state.

    With the moment exponent's couplings alpha = eps3 eps7/eps4, beta =
    eps3 eps8/eps4, A23 and A22, and R1, R2 = H[m-1, m-1], H[m-2, m] over
    H[m, m]: Var(X), Var(P) = 1/2 + A23 ± A22 + (alpha ± beta)² (R1 ± R2).
    A point is heralded where H[m, m] > 0, also where p_d underflows.
    :class:`CircuitColumns` give array fields, one entry per point.
    """
    dc = derived_coefficients(params)
    _, (h_mm, h_m1, h_diff) = _herald_probability(dc, params.m)
    _require_heralded(params, h_mm)
    alpha = dc.eps3 * dc.eps7 / dc.eps4
    beta = dc.eps3 * dc.eps8 / dc.eps4
    a23 = dc.lam * dc.lam * dc.tau1 + dc.eps5 / dc.eps4
    a22 = dc.lam * dc.tau1 + 2.0 * dc.eps6 / dc.eps4
    ratio, difference = h_m1 / h_mm, h_diff / h_mm
    plus, minus = alpha + beta, alpha - beta
    var_x = VACUUM_VARIANCE + (a23 + a22) + plus * plus * (2.0 * ratio - difference)
    var_p = VACUUM_VARIANCE + (a23 - a22) + minus * minus * difference
    return QuadratureVariances(var_x=var_x, var_p=var_p)


@dataclass(frozen=True)
class SqueezingScan:
    """Outcome of a squeezing-threshold search over r."""

    r_c: float | None
    status: str  # "threshold", "always-squeezed" or "never-squeezed"
    r_max: float


def _sign_change(rs: list, values: list):
    """First sign change of ``values`` over the increasing ``rs``.

    Returns the bracketing pair as (lo, f_lo, hi, f_hi); an exact zero at
    r gives the empty bracket (r, 0.0, r, 0.0). None when the sign never
    changes.
    """
    for i, (r, f) in enumerate(zip(rs, values)):
        if f == 0.0:
            return r, f, r, f
        if i and values[i - 1] * f < 0.0:
            return rs[i - 1], values[i - 1], r, f
    return None


def squeezing_threshold_scan(
    m: int,
    T: float,
    eta1: float,
    eta2: float,
    *,
    r_max: float = 3.0,
) -> SqueezingScan:
    """Locate the smallest r where Var(P) crosses the vacuum level 1/2.

    A coarse grid from ``THRESHOLD_R_MIN`` in steps of
    ``THRESHOLD_SCAN_STEP``, ending at ``r_max`` itself, is evaluated in
    one batched ``variances`` call; its first sign change of Var(P) - 1/2
    brackets the root. Each refinement pass then evaluates the
    ``THRESHOLD_SPLIT - 1`` interior points of an even split of the
    bracket in one batched call and keeps the first sign change, until
    the bracket is at most ``THRESHOLD_R_TOL`` wide. When no sign change
    exists the scan reports whether the state is squeezed everywhere in
    (0, r_max] ("always-squeezed") or nowhere ("never-squeezed"). An
    ``r_max`` that leaves nothing to scan above ``THRESHOLD_R_MIN``, or
    that is not a valid r, is a ``ParameterDomainError``, raised before
    any grid is built.
    """
    if not THRESHOLD_R_MIN < r_max < math.inf:
        raise ParameterDomainError(
            f"r_max must be finite and above THRESHOLD_R_MIN = {THRESHOLD_R_MIN}, "
            f"got {r_max}"
        )
    check_parameter("r", r_max)

    def objective(rs: list) -> list:
        return (variances(CircuitColumns(rs, eta1, eta2, T, m)).var_p - VACUUM_VARIANCE).tolist()

    step = THRESHOLD_SCAN_STEP
    inner = (step * i for i in range(1, math.ceil(r_max / step) + 1))
    grid = [THRESHOLD_R_MIN, *(r for r in inner if THRESHOLD_R_MIN < r < r_max), r_max]
    values = objective(grid)
    bracket = _sign_change(grid, values)
    if bracket is None:
        status = "always-squeezed" if values[-1] < 0.0 else "never-squeezed"
        return SqueezingScan(r_c=None, status=status, r_max=r_max)

    lo, f_lo, hi, f_hi = bracket
    for _ in range(THRESHOLD_MAX_PASSES):
        if hi - lo <= THRESHOLD_R_TOL:
            break
        inner_rs = [lo + (hi - lo) * j / THRESHOLD_SPLIT for j in range(1, THRESHOLD_SPLIT)]
        bracket = _sign_change([lo, *inner_rs, hi], [f_lo, *objective(inner_rs), f_hi])
        if bracket is None:  # a NaN value hid the sign change
            break
        lo, f_lo, hi, f_hi = bracket
    if hi - lo > THRESHOLD_R_TOL:
        raise ConvergenceError(
            f"the squeezing threshold search did not converge: bracket [{lo}, {hi}], "
            f"width {hi - lo:.3e}"
        )
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


def _pnd_diagonal(dc: DerivedCoefficients, m: int, n_max: int) -> np.ndarray:
    """Taylor coefficients G[m, m, n, n] 4^n, n = 0..n_max, of the photon-number exponent.

    The (s, t) block of the exponent does not involve the herald
    variables, so the exponential factors into the coupling part, whose
    (mu, nu) coefficient c[m, m] is a polynomial in (s, t) of total degree
    at most 2m, times the series h of the (s, t) block:
    G[m, m, n, n] = sum over i + j <= 2m of c[m, m, i, j] h[n - i, n - j].
    Two small boxes replace one of (m + 1)^2 (n_max + 1)^2 cells. The sum
    is one elementwise pass per (i, j) in a fixed order, so an entry does
    not depend on n_max or on the batch it is computed in. A batch axis
    comes before the n axis. The coupling box has total order 2m, so m
    above 32 is a ``CapacityError`` before any box is built.
    """
    if 2 * m > DEFAULT_MAX_TOTAL_ORDER:
        raise CapacityError(2 * m, DEFAULT_MAX_TOTAL_ORDER)
    coupling, photon = _pnd_exponents(dc)
    k = min(2 * m, n_max)
    # c[i, j] as a column against the n axis
    c = taylor_coefficient_box(coupling, (m, m, k, k), max_total_order=2 * (m + k))
    c = c[m, m][..., None]
    h = taylor_coefficient_box(photon, (n_max, n_max), max_total_order=2 * n_max)
    # h[n - i, n - j] for n = max(i, j)..n_max starts diagonal i - j of h
    bands = {offset: np.diagonal(h, offset) for offset in range(-k, k + 1)}
    diagonal = np.zeros(np.shape(dc.eps4) + (n_max + 1,))
    for i in range(k + 1):
        for j in range(min(k, 2 * m - i) + 1):
            start = max(i, j)
            diagonal[..., start:] += c[i, j] * bands[i - j][..., : n_max + 1 - start]
    return diagonal


def _pnd_values(
    params: CircuitParams | CircuitColumns,
    dc: DerivedCoefficients,
    pd,
    n_max: int,
) -> np.ndarray:
    """P(0..n_max), one row per point of a batch, checked entry by entry.

    The coefficients come from the two-box split of ``_pnd_diagonal``;
    P(n) is G[m, m, n, n] m! n! / (p_d sqrt(eps4 kappa4)).
    """
    if n_max > _FACTORIAL_N_MAX:
        raise ParameterDomainError(
            f"photon numbers above {_FACTORIAL_N_MAX} are out of range (n! overflows "
            f"a float), got n_max = {n_max}"
        )
    m = params.m
    norm = np.asarray(pd * np.sqrt(dc.eps4 * dc.kappa4))[..., None]
    # n! / 4^n undoes the diagonal's 4^n; both are exact in binary
    scales = np.array([math.ldexp(math.factorial(n), -2 * n) for n in range(n_max + 1)])
    values = _pnd_diagonal(dc, m, n_max) * float(math.factorial(m)) * scales / norm
    bad = _first(values < -_PND_NEGATIVE_TOL)
    if bad is not None:
        point, n = divmod(bad, n_max + 1)
        raise NumericalConsistencyError(
            f"P({n}) = {values.flat[bad]} is negative beyond tolerance at "
            f"{_nth(params, point)}"
        )
    # where() rather than clip(), so that -0.0 and NaN pass as min/max left them
    return np.where(values > 1.0, 1.0, np.where(values < 0.0, 0.0, values))


def pnd(params: CircuitParams, n: int) -> float:
    """Probability of finding n photons in the heralded state."""
    if n < 0:
        raise ValueError(f"photon number must be non-negative, got {n}")
    dc, pd = _heralded(params)
    return float(_pnd_values(params, dc, pd, n)[n])


def pnd_vector(params: CircuitParams | CircuitColumns, n_max: int | None = None) -> np.ndarray:
    """Photon-number distribution P(0..N).

    With explicit ``n_max`` (at most 170) the vector has fixed length
    n_max + 1. Otherwise P(0..``PND_N_CAP``) is evaluated once and trimmed
    at the first index where the cumulative probability reaches
    1 - ``PND_TAIL_TOL``; an entry does not depend on the length asked
    for. A vector that runs to ``PND_N_CAP`` can sum to less than
    1 - ``PND_TAIL_TOL``; callers that need the full mass check the sum.

    :class:`CircuitColumns` with explicit ``n_max`` give an array of shape
    (points, n_max + 1) from one Taylor box; without ``n_max`` they are a
    ``ValueError``.
    """
    if n_max is None and not isinstance(params, CircuitParams):
        raise ValueError("parameter columns need an explicit n_max")
    dc, pd = _heralded(params)
    if n_max is not None:
        return _pnd_values(params, dc, pd, n_max)
    values = _pnd_values(params, dc, pd, PND_N_CAP)
    reached = np.nonzero(np.cumsum(values) >= 1.0 - PND_TAIL_TOL)[0]
    return values[: reached[0] + 1] if reached.size else values


def _wigner_contraction(box: np.ndarray, b_mu: np.ndarray, b_nu: np.ndarray) -> np.ndarray:
    """Sum of box[i, j] b_mu^(m-i)/(m-i)! b_nu^(m-j)/(m-j)! at each point and beta.

    ``box`` is the (m + 1, m + 1) Taylor box, a batch axis trailing;
    ``b_mu`` and ``b_nu`` carry the batch shape and then the beta axis.
    The box's exponent has no linear part, so only its entries of even
    i + j are nonzero: row i is b_nu^((m - i) mod 2) times a polynomial in
    b_nu^2, evaluated by Horner, and the rows are summed by Horner in
    b_mu. Each step is one elementwise pass over the whole
    (points x beta) array in a fixed order, so a value does not depend on
    the batch or the beta vector it is computed in. Beside its inputs the
    pass holds three such arrays.
    """
    m = box.shape[0] - 1
    scale = np.array([
        [float(math.factorial(m - i) * math.factorial(m - j)) for j in range(m + 1)]
        for i in range(m + 1)
    ])
    coefficients = box / scale.reshape(scale.shape + (1,) * (box.ndim - 2))
    u = b_nu * b_nu
    total = None
    row = np.empty_like(u)
    for i in range(m + 1):
        # the columns j of i's parity, the highest power of u (smallest j) first
        row[...] = coefficients[i, i % 2][..., None]
        for j in range(i % 2 + 2, m + 1, 2):
            row *= u
            row += coefficients[i, j][..., None]
        if (m - i) % 2:
            row *= b_nu
        if total is None:
            total, row = row, np.empty_like(u)
        else:
            total *= b_mu
            total += row
    return total


def _wigner_values(params: CircuitParams | CircuitColumns, beta: np.ndarray) -> np.ndarray:
    """Wigner function of the heralded state at each entry of a 1-d ``beta``.

    The Taylor box over (mu, nu) of the beta-independent quadratic part is
    computed once. Only the linear couplings depend on beta (mu couples to
    g7 beta + g8 beta*, nu to g8 beta + g7 beta*); they exponentiate into
    polynomial factors, so each value is that box contracted with powers
    of the two couplings, which ``_wigner_contraction`` sums by Horner over
    the whole (points x beta) array at once. :class:`CircuitColumns` give
    one row of values per point. A value that is not finite, or a point
    whose values keep an imaginary part beyond ``_IMAG_TOL``, is a
    ``NumericalConsistencyError`` naming the point.
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

    quad_box = taylor_coefficient_box(QuadraticExponent([[diag, cross], [cross, diag]]), (m, m))

    def per_point(value):
        """A per-point coefficient as a column against the beta axis."""
        return np.asarray(value)[..., None]

    # Far from the origin the powers and the envelope overflow; that shows
    # as a non-finite value, which is reported below instead of warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        b_mu = per_point(g7) * beta + per_point(g8) * beta.conjugate()
        # g7 and g8 are real, so g8 beta + g7 beta* is b_mu's conjugate
        b_nu = b_mu.conjugate()
        values = _wigner_contraction(quad_box, b_mu, b_nu)
        del b_mu, b_nu
        # The envelope and the normalization m!^2 / (pi m! p_d sqrt(eps4 kappa9))
        # are real, so they scale the real and imaginary parts in place.
        envelope = np.exp(
            -per_point(env_mod) * np.abs(beta) ** 2
            + per_point(env_quad) * (beta**2 + np.conj(beta) ** 2).real
        )
        envelope *= per_point(math.factorial(m) / (math.pi * pd * np.sqrt(dc.eps4 * dc.kappa9)))
        values.real *= envelope
        values.imag *= envelope
    i = _first(~np.isfinite(values))
    if i is not None:
        point, j = divmod(i, beta.size)
        raise NumericalConsistencyError(
            f"Wigner function is not finite at beta = {complex(beta[j]):.6g} for "
            f"{_nth(params, point)}"
        )
    residue = np.abs(values.imag).max(axis=-1, initial=0.0)
    i = _first(residue > _IMAG_TOL)
    if i is not None:
        raise NumericalConsistencyError(
            f"Wigner function has imaginary residue {np.ravel(residue)[i]:.3e} beyond "
            f"{_IMAG_TOL:.0e} at {_nth(params, i)}"
        )
    return values.real


def _grid_beta(xs, ys) -> np.ndarray:
    """beta = (x + iy)/sqrt(2) over the grid of 1-d axes ``xs`` and ``ys``,
    flattened with the ``ys`` index fastest."""
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return (gx + 1j * gy).ravel() / math.sqrt(2.0)


def wigner(params: CircuitParams, x: float, y: float) -> WignerPoint:
    """Wigner function of the heralded state at beta = (x + iy)/sqrt(2)."""
    beta = np.array([complex(x, y) / math.sqrt(2.0)])
    return WignerPoint(x=float(x), y=float(y), w=float(_wigner_values(params, beta)[0]))


def wigner_array(
    params: CircuitParams | CircuitColumns, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """Wigner function on the grid of 1-d axes ``xs`` and ``ys``.

    Entry [i, j] is the value at beta = (xs[i] + i ys[j])/sqrt(2).
    :class:`CircuitColumns` give shape (points, len(xs), len(ys)), entry
    [p, i, j] belonging to point p, from one Taylor box.
    """
    values = _wigner_values(params, _grid_beta(xs, ys))
    return values.reshape(values.shape[:-1] + (len(xs), len(ys)))


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
    w = wigner_array(params, xs, ys)
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
