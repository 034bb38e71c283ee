"""Closed-form versus oracle comparison on a standard parameter grid.

The standard grid spans r in {0.3, 0.7, 1.0}, T in {0.8, 0.97}, loss
pairs {(0, 0), (0.1, 0.1), (0.3, 0.05)} and m in {0, 1, 2, 3}; at each of
the 72 points the herald probability, the photon-number distribution up
to n = 10, both quadrature variances and the Wigner function on a 5 x 5
grid over [-2, 2]^2 are compared between the generating-function route
and the Fock-space oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import fock_oracle, observables
from .circuit import CircuitParams

STANDARD_R = (0.3, 0.7, 1.0)
STANDARD_T = (0.8, 0.97)
STANDARD_LOSS = ((0.0, 0.0), (0.1, 0.1), (0.3, 0.05))
STANDARD_M = (0, 1, 2, 3)

DEFAULT_REL_TOL = 1e-6
DEFAULT_ABS_TOL = 1e-8
SMALL_VALUE = 1e-2

PND_MAX = 10
WIGNER_EXTENT = 2.0
WIGNER_POINTS = 5


def standard_grid() -> list[CircuitParams]:
    """The 72 parameter points of the standard validation grid."""
    return [
        CircuitParams(r=r, eta1=e1, eta2=e2, T=t, m=m)
        for r, t, (e1, e2), m in product(STANDARD_R, STANDARD_T, STANDARD_LOSS, STANDARD_M)
    ]


def deviation_within(closed: float, oracle: float, rel_tol: float, abs_tol: float) -> bool:
    """Tolerance rule: relative above SMALL_VALUE, absolute below it."""
    diff = abs(closed - oracle)
    scale = max(abs(closed), abs(oracle))
    if scale < SMALL_VALUE:
        return diff <= abs_tol
    return diff <= rel_tol * scale


@dataclass(frozen=True)
class PointReport:
    """Largest closed-form/oracle deviations at one parameter point."""

    params: CircuitParams
    cutoff: int
    deviations: dict[str, float]
    ok: bool

    def worst(self) -> tuple[str, float]:
        name = max(self.deviations, key=lambda k: self.deviations[k])
        return name, self.deviations[name]


def compare_point(
    params: CircuitParams,
    cutoff: int = fock_oracle.DEFAULT_CUTOFF,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> PointReport:
    """Compare every validated observable at one parameter point.

    P(0..PND_MAX), both variances and the Wigner function on a
    WIGNER_POINTS x WIGNER_POINTS grid over [-WIGNER_EXTENT, WIGNER_EXTENT]^2.
    """
    result = fock_oracle.run_pipeline(params, cutoff)
    pd_closed = observables.success_probability(params)
    deviations = {"p_d": abs(pd_closed - result.p_d)}
    ok = deviation_within(pd_closed, result.p_d, rel_tol, abs_tol)

    if result.state is not None:
        pnd_closed = observables.pnd_vector(params, PND_MAX)
        pnd_oracle = fock_oracle.oracle_pnd(result.state, PND_MAX)
        deviations["pnd"] = float(np.max(np.abs(pnd_closed - pnd_oracle)))
        ok &= all(
            deviation_within(float(c), float(o), rel_tol, abs_tol)
            for c, o in zip(pnd_closed, pnd_oracle)
        )

        var_closed = observables.variances(params)
        var_oracle = fock_oracle.oracle_variances(result.state)
        deviations["var_x"] = abs(var_closed.var_x - var_oracle.var_x)
        deviations["var_p"] = abs(var_closed.var_p - var_oracle.var_p)
        ok &= deviation_within(var_closed.var_x, var_oracle.var_x, rel_tol, abs_tol)
        ok &= deviation_within(var_closed.var_p, var_oracle.var_p, rel_tol, abs_tol)

        window = (-WIGNER_EXTENT, WIGNER_EXTENT)
        w_closed = observables.wigner_grid(params, window, window, WIGNER_POINTS)
        w_oracle = fock_oracle.oracle_wigner_grid(result.state, window, window, WIGNER_POINTS)
        deviations["wigner"] = max(
            abs(c.w - o.w) for c, o in zip(w_closed, w_oracle)
        )
        ok &= all(
            deviation_within(c.w, o.w, rel_tol, abs_tol)
            for c, o in zip(w_closed, w_oracle)
        )
    return PointReport(params=params, cutoff=result.cutoff, deviations=deviations, ok=ok)


def validate_grid() -> list[PointReport]:
    """Run compare_point over the standard grid at the default tolerances."""
    return [compare_point(p) for p in standard_grid()]
