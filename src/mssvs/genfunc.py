"""Derivatives at the origin of exponentials of quadratic forms.

Every observable in this package reduces to evaluating

    d^(k1+...+kn) / dx1^k1 ... dxn^kn   exp(E(x)) |_(x=0)

for an exponent E(x) = (1/2) x^T A x + b^T x + c with complex, symmetric
A. The Taylor coefficients G[k] of exp(E - c) obey the multivariate
Hermite recurrence

    (k_i + 1) G[k + e_i] = b_i G[k] + sum_j A_ij G[k - e_j],

the recursion used for Gaussian Fock amplitudes by Miatto and Quesada
(Quantum 4, 366, 2020). The kernel fills a dense box of coefficients,
bounded per variable by the requested orders, directly from G[0] = 1:
one vectorized slab update per index step, O(n_vars x box size) work and
prod(k_i + 1) complex entries of memory. A derivative is the coefficient
times prod(k_i!) times exp(c), exact up to floating-point rounding.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError

# Multi-index of derivative orders, one entry per formal variable.
MultiIndex = tuple[int, ...]

DEFAULT_MAX_TOTAL_ORDER = 64

_SYMMETRY_RTOL = 1e-9


def _as_complex_array(value, shape, name: str) -> np.ndarray:
    arr = np.array(value, dtype=complex)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class QuadraticExponent:
    """Exponent (1/2) x^T A x + b^T x + c over ``n_vars`` formal variables.

    ``a`` is symmetrized on construction; grossly asymmetric input is
    rejected rather than silently averaged away.
    """

    a: np.ndarray
    b: np.ndarray
    c: complex = 0.0

    def __post_init__(self):
        a = np.atleast_2d(np.array(self.a, dtype=complex))
        b = np.atleast_1d(np.array(self.b, dtype=complex))
        n = b.shape[0]
        if a.shape != (n, n):
            raise ValueError(
                f"quadratic part must be {n}x{n} to match the linear part, "
                f"got {a.shape}"
            )
        scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
        if a.size and float(np.max(np.abs(a - a.T))) > _SYMMETRY_RTOL * scale:
            raise ValueError("quadratic coefficient matrix is not symmetric")
        a = (a + a.T) / 2.0
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", complex(self.c))

    @property
    def n_vars(self) -> int:
        return self.b.shape[0]

    def shifted_constant(self, delta: complex) -> "QuadraticExponent":
        return QuadraticExponent(self.a, self.b, self.c + delta)


def _validate_orders(orders, n_vars: int) -> MultiIndex:
    idx = tuple(int(k) for k in orders)
    if len(idx) != n_vars:
        raise ValueError(
            f"derivative multi-index has {len(idx)} entries for an exponent "
            f"with {n_vars} variables"
        )
    if any(k < 0 for k in idx):
        raise ValueError(f"derivative orders must be non-negative, got {idx}")
    return idx


def _hermite_box(a: np.ndarray, b: np.ndarray, caps: MultiIndex) -> np.ndarray:
    """Dense box G[k], k_i <= caps_i, of Taylor coefficients of exp(E - c).

    Applies the recurrence of the module docstring. Axis i is filled after
    axes 0..i-1, on the slice where every later index is zero, so only
    A_ij with j <= i enter; each new slab k_i = t is one vectorized update.
    """
    n = len(caps)
    g = np.zeros(tuple(k + 1 for k in caps), dtype=complex)
    g[(0,) * n] = 1.0
    for i, cap in enumerate(caps):
        lead = (slice(None),) * i
        # The trailing Ellipsis keeps even a 0-d slab a writable view.
        rest = (0,) * (n - i - 1) + (Ellipsis,)
        couplings = [(j, a[i, j]) for j in range(i) if a[i, j] != 0]
        for t in range(1, cap + 1):
            prev = g[lead + (t - 1,) + rest]
            slab = g[lead + (t,) + rest]
            if b[i] != 0:
                slab += b[i] * prev
            if t >= 2 and a[i, i] != 0:
                slab += a[i, i] * g[lead + (t - 2,) + rest]
            for j, coeff in couplings:
                shift = (slice(None),) * j
                slab[shift + (slice(1, None),)] += coeff * prev[shift + (slice(None, -1),)]
            slab /= t
    return g


def extract_derivative(
    exponent: QuadraticExponent,
    orders: MultiIndex,
    max_total_order: int = DEFAULT_MAX_TOTAL_ORDER,
) -> complex:
    """Derivative of exp(E(x)) at x = 0 for the given multi-index of orders.

    Returns the exact mixed partial derivative (the constant part of the
    exponent enters as the factor exp(c)). The Hermite recurrence fills
    the box of coefficients up to ``orders`` and the last entry is read
    off, at O(n_vars x prod(k_i + 1)) cost. Orders whose total exceeds
    ``max_total_order`` raise :class:`CapacityError` so the caller can
    raise the cap explicitly instead of receiving a truncated value.
    """
    idx = _validate_orders(orders, exponent.n_vars)
    total = sum(idx)
    if total > max_total_order:
        raise CapacityError(total, max_total_order)
    coeff = complex(_hermite_box(exponent.a, exponent.b, idx)[idx])
    scale = 1.0
    for k in idx:
        scale *= math.factorial(k)
    return coeff * scale * cmath.exp(exponent.c)


def taylor_coefficient_box(
    exponent: QuadraticExponent,
    caps: MultiIndex,
    max_total_order: int = DEFAULT_MAX_TOTAL_ORDER,
) -> np.ndarray:
    """All Taylor coefficients of exp(E - c) up to per-variable caps.

    Bulk companion of :func:`extract_derivative`: entry ``[k1, ..., kn]``
    is the series coefficient of x^k, so the corresponding derivative at
    the origin is that entry times prod(k_i!) times exp(c). The whole box
    costs what the single corner derivative costs, O(n_vars x box size),
    which suits callers that need many orders of one exponent, e.g. a
    whole photon-number distribution.
    """
    idx = _validate_orders(caps, exponent.n_vars)
    total = sum(idx)
    if total > max_total_order:
        raise CapacityError(total, max_total_order)
    return _hermite_box(exponent.a, exponent.b, idx)


@dataclass(frozen=True)
class ParameterizedExponent:
    """Family of exponents whose linear and constant parts depend on parameters.

    With parameter vector p the member exponent is

        (1/2) x^T A x + (b_base + b_linear p)^T x
            + c_base + c_linear . p + (1/2) p^T c_quadratic p

    which covers exponents whose x-linear coefficients are affine in the
    parameters and whose constant collects parameter bilinears.
    """

    a: np.ndarray
    b_base: np.ndarray
    b_linear: np.ndarray
    c_base: complex = 0.0
    c_linear: np.ndarray | None = None
    c_quadratic: np.ndarray | None = None
    _n_params: int = field(init=False, repr=False, default=0)

    def __post_init__(self):
        b_base = np.atleast_1d(np.array(self.b_base, dtype=complex))
        n = b_base.shape[0]
        b_linear = np.array(self.b_linear, dtype=complex)
        if b_linear.ndim != 2 or b_linear.shape[0] != n:
            raise ValueError(
                f"parameter coupling matrix must have {n} rows, got shape "
                f"{b_linear.shape}"
            )
        p = b_linear.shape[1]
        a = _as_complex_array(self.a, (n, n), "quadratic part")
        c_linear = (
            _as_complex_array(self.c_linear, (p,), "constant linear part")
            if self.c_linear is not None
            else None
        )
        c_quadratic = (
            _as_complex_array(self.c_quadratic, (p, p), "constant quadratic part")
            if self.c_quadratic is not None
            else None
        )
        b_base.setflags(write=False)
        b_linear.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b_base", b_base)
        object.__setattr__(self, "b_linear", b_linear)
        object.__setattr__(self, "c_base", complex(self.c_base))
        object.__setattr__(self, "c_linear", c_linear)
        object.__setattr__(self, "c_quadratic", c_quadratic)
        object.__setattr__(self, "_n_params", p)

    @property
    def n_params(self) -> int:
        return self._n_params

    def at(self, params) -> QuadraticExponent:
        """Instantiate the family member for concrete parameter values."""
        p = np.atleast_1d(np.array(params, dtype=complex))
        if p.shape != (self.n_params,):
            raise ValueError(
                f"expected {self.n_params} parameters, got shape {p.shape}"
            )
        b = self.b_base + self.b_linear @ p
        c = self.c_base
        if self.c_linear is not None:
            c = c + self.c_linear @ p
        if self.c_quadratic is not None:
            c = c + (p @ self.c_quadratic @ p) / 2.0
        return QuadraticExponent(self.a, b, c)


def derivative_in_parameters(
    family: ParameterizedExponent,
    orders: MultiIndex,
    params,
    max_total_order: int = DEFAULT_MAX_TOTAL_ORDER,
) -> complex:
    """Derivative at the origin of the family member at ``params``.

    The derivative acts on the formal variables only; the parameters enter
    through the instantiated linear and constant parts.
    """
    return extract_derivative(family.at(params), orders, max_total_order)
