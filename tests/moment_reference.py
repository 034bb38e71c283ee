"""Moments of the heralded state read off Taylor boxes: the test-side reference.

The moment generating exponent over (mu, nu, f, g) is the herald exponent
in (mu, nu) plus its couplings to the moment variables (f, g). Its
[m, m, k, l] Taylor coefficient, times m!^2 k! l!/(m! p_d sqrt(eps4)),
is the normally-ordered moment <a†^k a^l>, and its [m, m, 0, 0] entry
gives p_d. ``observables`` computes p_d and the variances from three
sums instead; these boxes check those sums and keep the kernel covered on
the four-variable exponent.
"""

import math

import numpy as np

from mssvs import observables as obs
from mssvs.circuit import derived_coefficients
from mssvs.errors import ParameterDomainError
from mssvs.genfunc import DEFAULT_MAX_TOTAL_ORDER, QuadraticExponent, taylor_coefficient_box


def herald_exponent(dc):
    """Generating exponent in (mu, nu) for the detection probability."""
    cross = 1.0 - dc.eps1 / dc.eps4
    diag = 2.0 * dc.eps2 / dc.eps4
    return QuadraticExponent([[diag, cross], [cross, diag]])


def moment_exponent(dc):
    """Generating exponent in (mu, nu, f, g) for normally-ordered moments."""
    a = np.zeros((4, 4) + np.shape(dc.eps4))
    a[0, 1] = a[1, 0] = 1.0 - dc.eps1 / dc.eps4
    a[0, 0] = a[1, 1] = 2.0 * dc.eps2 / dc.eps4
    a[0, 2] = a[2, 0] = a[1, 3] = a[3, 1] = dc.eps3 * dc.eps7 / dc.eps4
    a[1, 2] = a[2, 1] = a[0, 3] = a[3, 0] = dc.eps3 * dc.eps8 / dc.eps4
    a[2, 3] = a[3, 2] = dc.lam**2 * dc.tau1 + dc.eps5 / dc.eps4
    a[2, 2] = a[3, 3] = dc.lam * dc.tau1 + 2.0 * dc.eps6 / dc.eps4
    return QuadraticExponent(a)


def box_probability(params):
    """p_d from the herald exponent's (m, m) box."""
    dc = derived_coefficients(params)
    m = params.m
    box = taylor_coefficient_box(herald_exponent(dc), (m, m))
    return float(box[m, m]) * float(math.factorial(m)) / math.sqrt(dc.eps4)


def _moment_box(params, k, l):
    """The (m, m, k, l) moment box, its p_d and the derived coefficients."""
    dc = derived_coefficients(params)
    m = params.m
    caps = (m, m, k, l)
    box = taylor_coefficient_box(
        moment_exponent(dc), caps, max_total_order=max(DEFAULT_MAX_TOTAL_ORDER, sum(caps))
    )
    pd = obs._clamp_probability(
        box[m, m, 0, 0] * float(math.factorial(m)) / math.sqrt(dc.eps4), "success probability"
    )
    obs._require_heralded(params, pd)
    return box, pd, dc


def moment(params, k, l):
    """Normally-ordered moment <a†^k a^l> of the heralded state."""
    if k < 0 or l < 0:
        raise ValueError(f"moment orders must be non-negative, got ({k}, {l})")
    if max(k, l) > 170:
        raise ParameterDomainError(
            f"moment orders above 170 are out of range (k! overflows a float), got ({k}, {l})"
        )
    box, pd, dc = _moment_box(params, k, l)
    m = params.m
    raw = float(box[m, m, k, l]) * math.factorial(m) ** 2 * math.factorial(k) * math.factorial(l)
    return float(raw / (math.factorial(m) * pd * math.sqrt(dc.eps4)))


def box_variances(params):
    """(Var(X), Var(P)) from one (m, m, 2, 2) moment box."""
    box, pd, dc = _moment_box(params, 2, 2)
    m = params.m
    scale = float(math.factorial(m)) / (pd * math.sqrt(dc.eps4))
    n_mean = box[m, m, 1, 1] * scale
    adag2 = box[m, m, 2, 0] * 2.0 * scale
    return n_mean + adag2 + 0.5, n_mean - adag2 + 0.5


def svs_moment(r, k, l):
    """Moment <a†^k a^l> of squeezed vacuum via its generating exponent."""
    lam = math.tanh(r)
    denom = 1.0 - lam * lam
    a = np.array([[lam / denom, lam**2 / denom], [lam**2 / denom, lam / denom]])
    box = taylor_coefficient_box(QuadraticExponent(a), (k, l))
    return float(box[k, l]) * (float(math.factorial(k)) * math.factorial(l))
