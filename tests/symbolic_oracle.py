"""Term-by-term symbolic differentiation of polynomial * exp(E).

Test-only reference for the Taylor-box kernel: repeatedly applies

    d/dx_i [ P(x) exp(E(x)) ] = ( dP/dx_i + P dE/dx_i ) exp(E(x))

with P carried as a sparse multivariate polynomial, then evaluates at the
origin. Independent of the recurrence route under test.
"""

from __future__ import annotations

import cmath

Poly = dict[tuple[int, ...], complex]


def poly_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for key, coeff in q.items():
        out[key] = out.get(key, 0.0) + coeff
    return {k: v for k, v in out.items() if v != 0}


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for kp, cp in p.items():
        for kq, cq in q.items():
            key = tuple(a + b for a, b in zip(kp, kq))
            out[key] = out.get(key, 0.0) + cp * cq
    return {k: v for k, v in out.items() if v != 0}


def poly_diff(p: Poly, var: int) -> Poly:
    out: Poly = {}
    for key, coeff in p.items():
        if key[var] == 0:
            continue
        lowered = list(key)
        lowered[var] -= 1
        out[tuple(lowered)] = out.get(tuple(lowered), 0.0) + coeff * key[var]
    return out


def monomials(exponent) -> Poly:
    """Sparse map from exponent multi-index to coefficient of E - c."""
    n = exponent.n_vars
    monos: Poly = {}

    def put(powers, coeff):
        if coeff != 0:
            monos[tuple(powers)] = monos.get(tuple(powers), 0.0) + coeff

    for i in range(n):
        powers = [0] * n
        powers[i] = 1
        put(powers, exponent.b[i])
        powers[i] = 2
        put(powers, exponent.a[i, i] / 2.0)
        for j in range(i + 1, n):
            powers = [0] * n
            powers[i] = 1
            powers[j] = 1
            put(powers, exponent.a[i, j])
    return monos


def symbolic_derivative(exponent, orders) -> complex:
    """Mixed partial of exp(E) at the origin by symbolic differentiation."""
    n = exponent.n_vars
    gradient = [poly_diff(monomials(exponent), var) for var in range(n)]
    prefactor: Poly = {(0,) * n: 1.0}
    for var, order in enumerate(orders):
        for _ in range(order):
            prefactor = poly_add(
                poly_diff(prefactor, var), poly_mul(prefactor, gradient[var])
            )
    constant = prefactor.get((0,) * n, 0.0)
    return constant * cmath.exp(exponent.c)
