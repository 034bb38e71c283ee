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
prod(k_i + 1) complex entries of memory. A batch of exponents that share
the caps fills one box with a trailing batch axis: the same updates, each
covering every point.

:func:`taylor_coefficient_box` is the only entry point. A derivative is
the box entry at its multi-index times prod(k_i!) times exp(c), exact up
to floating-point rounding; callers apply that scale themselves, so a
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
    """Exponent (1/2) x^T A x + b^T x + c over ``n_vars`` formal variables.

    ``a`` has shape ``(n, n)`` and ``b`` shape ``(n,)``, or ``(n, n, N)``
    and ``(n, N)`` for a batch of N exponents that share the constant
    ``c``. ``a`` is symmetrized on construction; grossly asymmetric input
    at any point of the batch is rejected rather than silently averaged
    away.
    """

    a: np.ndarray
    b: np.ndarray
    c: complex = 0.0

    def __post_init__(self):
        a = np.atleast_2d(np.array(self.a, dtype=complex))
        b = np.atleast_1d(np.array(self.b, dtype=complex))
        n = b.shape[0]
        if a.shape != (n, n) + b.shape[1:]:
            raise ValueError(
                f"quadratic part must have shape {(n, n) + b.shape[1:]} to match "
                f"the linear part, got {a.shape}"
            )
        transpose = a.swapaxes(0, 1)
        if a.size:
            scale = np.maximum(1.0, abs(a).max(axis=(0, 1)))
            asymmetry = abs(a - transpose).max(axis=(0, 1))
            if (asymmetry > _SYMMETRY_RTOL * scale).any():
                raise ValueError("quadratic coefficient matrix is not symmetric")
        a = (a + transpose) / 2.0
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", complex(self.c))

    @property
    def n_vars(self) -> int:
        return self.b.shape[0]


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
    A trailing batch axis of ``a`` and ``b`` rides along as the box's last
    axis, so one update covers every point; a coefficient that is zero at
    every point of the batch is skipped.
    """
    n = len(caps)
    batch = b.shape[1:]
    g = np.zeros(tuple(k + 1 for k in caps) + batch, dtype=complex)
    g[(0,) * n] = 1.0
    # Which coefficients are nonzero anywhere in the batch, found once.
    size = math.prod(batch)
    b_used = b.reshape(n, size).any(axis=1).tolist()
    a_used = a.reshape(n, n, size).any(axis=2).tolist()
    for i, cap in enumerate(caps):
        lead = (slice(None),) * i
        # The trailing Ellipsis keeps even a 0-d slab a writable view.
        rest = (0,) * (n - i - 1) + (Ellipsis,)
        couplings = [(j, a[i, j]) for j in range(i) if a_used[i][j]]
        for t in range(1, cap + 1):
            prev = g[lead + (t - 1,) + rest]
            slab = g[lead + (t,) + rest]
            if b_used[i]:
                slab += b[i] * prev
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
    """All Taylor coefficients of exp(E - c) up to per-variable caps.

    Entry ``[k1, ..., kn]`` is the series coefficient of x^k, so the
    derivative of exp(E) at the origin is that entry times prod(k_i!)
    times exp(c). A batched exponent gives a box with the batch axis
    last, entry ``[k1, ..., kn, p]`` belonging to point p. The box costs
    O(n_vars x prod(caps_i + 1)) per point. Caps whose total exceeds
    ``max_total_order`` raise :class:`CapacityError` so the caller can
    raise the cap explicitly instead of receiving a truncated value.
    """
    idx = _validate_orders(caps, exponent.n_vars)
    total = sum(idx)
    if total > max_total_order:
        raise CapacityError(total, max_total_order)
    return _hermite_box(exponent.a, exponent.b, idx)
