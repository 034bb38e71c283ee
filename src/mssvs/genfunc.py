"""Derivatives at the origin of exponentials of quadratic forms.

P(n) and the Wigner function reduce to evaluating

    d^(k1+...+kn) / dx1^k1 ... dxn^kn   exp(E(x)) |_(x=0)

for an exponent E(x) = (1/2) x^T A x with real, symmetric A, the form of
every generating function of the lossy circuit (p_d and the variances
sum three coefficients of one directly, in :mod:`mssvs.observables`).
The Taylor coefficients G[k] of exp(E) obey the multivariate Hermite
recurrence

    (k_i + 1) G[k + e_i] = sum_j A_ij G[k - e_j],

the recursion of Miatto and Quesada (Quantum 4, 366, 2020) for Gaussian
Fock amplitudes without its linear term, so every G[k] of odd total order
is exactly zero. The kernel fills a dense float64 box of coefficients,
bounded per variable by the requested orders, directly from G[0] = 1:
one vectorized slab update per index step, O(n_vars x box size) work. A
batch of exponents that share the caps fills one box with a trailing
batch axis: the same updates, each covering every point.

:func:`taylor_coefficient_box` is the only entry point. A derivative is
the box entry at its multi-index times prod(k_i!), exact up to
floating-point rounding; callers apply that scale themselves, so a
caller that needs many orders of one exponent (a photon-number
distribution, a Wigner grid) pays for one box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

# Multi-index of derivative orders, one entry per formal variable.
MultiIndex = tuple[int, ...]

DEFAULT_MAX_TOTAL_ORDER = 64

_SYMMETRY_RTOL = 1e-9


@dataclass(frozen=True)
class QuadraticExponent:
    """Exponent (1/2) x^T A x over ``n_vars`` formal variables.

    ``a`` is real with shape ``(n, n)``, or ``(n, n, N)`` for a batch of N
    exponents, and is symmetrized on construction. Grossly asymmetric input
    at any point of the batch is rejected, and so is complex input, whose
    imaginary part a cast would drop with only a warning.
    """

    a: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.a):
            raise ValueError("quadratic coefficient matrix must be real")
        a = np.atleast_2d(np.array(self.a, dtype=float))
        if a.shape[0] != a.shape[1]:
            raise ValueError(
                f"quadratic part must be square in its first two axes, got {a.shape}"
            )
        transpose = a.swapaxes(0, 1)
        if a.size:
            scale = np.maximum(1.0, abs(a).max(axis=(0, 1)))
            asymmetry = abs(a - transpose).max(axis=(0, 1))
            if (asymmetry > _SYMMETRY_RTOL * scale).any():
                raise ValueError("quadratic coefficient matrix is not symmetric")
        a = (a + transpose) / 2.0
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    @property
    def n_vars(self) -> int:
        return self.a.shape[0]


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


def _hermite_box(a: np.ndarray, caps: MultiIndex) -> np.ndarray:
    """Dense box G[k], k_i <= caps_i, of Taylor coefficients of exp(E).

    Applies the recurrence of the module docstring. Axis i is filled after
    axes 0..i-1, on the slice where every later index is zero, so only
    A_ij with j <= i enter; each new slab k_i = t is one vectorized update.
    A trailing batch axis of ``a`` rides along as the box's last axis, so
    one update covers every point; a coefficient that is zero at every
    point of the batch is skipped.
    """
    n = len(caps)
    batch = a.shape[2:]
    g = np.zeros(tuple(k + 1 for k in caps) + batch)
    g[(0,) * n] = 1.0
    # Which coefficients are nonzero anywhere in the batch, found once.
    a_used = a.reshape(n, n, math.prod(batch)).any(axis=2).tolist()
    for i, cap in enumerate(caps):
        lead = (slice(None),) * i
        # The trailing Ellipsis keeps even a 0-d slab a writable view.
        rest = (0,) * (n - i - 1) + (Ellipsis,)
        couplings = [(j, a[i, j]) for j in range(i) if a_used[i][j]]
        for t in range(1, cap + 1):
            prev = g[lead + (t - 1,) + rest]
            slab = g[lead + (t,) + rest]
            if t >= 2 and a_used[i][i]:
                slab += a[i, i] * g[lead + (t - 2,) + rest]
            for j, coeff in couplings:
                shift = (slice(None),) * j
                slab[shift + (slice(1, None),)] += coeff * prev[shift + (slice(None, -1),)]
            slab /= t
    return g


def taylor_coefficient_box(
    exponent: QuadraticExponent,
    caps: MultiIndex,
    max_total_order: int = DEFAULT_MAX_TOTAL_ORDER,
) -> np.ndarray:
    """All Taylor coefficients of exp(E) up to per-variable caps, as float64.

    Entry ``[k1, ..., kn]`` is the series coefficient of x^k, so the
    derivative of exp(E) at the origin is that entry times prod(k_i!). A
    batched exponent gives a box with the batch axis last, entry ``[k1, ..., kn, p]`` belonging to point p. The box costs
    O(n_vars x prod(caps_i + 1)) per point. Caps whose total exceeds
    ``max_total_order`` raise :class:`CapacityError` so the caller can
    raise the cap explicitly instead of receiving a truncated value.
    """
    idx = _validate_orders(caps, exponent.n_vars)
    total = sum(idx)
    if total > max_total_order:
        raise CapacityError(total, max_total_order)
    return _hermite_box(exponent.a, idx)
