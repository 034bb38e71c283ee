"""Two-mode Gaussian characteristic-function pipeline.

The preparation circuit is squeeze -> loss on the signal mode -> beam
splitter -> loss on the detection mode -> photon counting. Every state up
to the detection stage stays inside a six-parameter family of two-mode
Gaussian characteristic functions

    chi(alpha, beta) = exp( w_mod_a |alpha|^2 + w_quad_a (alpha^2 + alpha*^2)
                          + w_mod_b |beta|^2  + w_quad_b (beta^2 + beta*^2)
                          + w_cross_same (alpha beta + alpha* beta*)
                          + w_cross_conj (alpha beta* + alpha* beta) )

with real weights, which is closed under both the pure-loss channel and
the beam splitter. The detection stage is handled analytically through
the derived coefficient set consumed by :mod:`mssvs.observables`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ParameterDomainError


def _check_unit_interval(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ParameterDomainError(f"{name} must lie in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class CircuitParams:
    """The five knobs of the preparation circuit.

    r: input squeezing parameter (>= 0)
    eta1: loss factor on the signal mode before the beam splitter
    eta2: loss factor on the detection mode after the beam splitter
    T: beam-splitter transmissivity
    m: heralded photon count (>= 0; m = 0 heralds on vacuum)
    """

    r: float
    eta1: float
    eta2: float
    T: float
    m: int

    def __post_init__(self):
        r = float(self.r)
        if r < 0.0:
            raise ParameterDomainError(f"r must be non-negative, got {r}")
        if math.tanh(r) == 1.0:
            raise ParameterDomainError(
                f"r = {r} is too large: tanh(r) rounds to 1 in double "
                f"precision, so the squeezed vacuum's normalization "
                f"1 - tanh(r)^2 vanishes"
            )
        m = self.m
        if m != int(m) or m < 0:
            raise ParameterDomainError(f"m must be a non-negative integer, got {m}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "eta1", _check_unit_interval("eta1", self.eta1))
        object.__setattr__(self, "eta2", _check_unit_interval("eta2", self.eta2))
        object.__setattr__(self, "T", _check_unit_interval("T", self.T))
        object.__setattr__(self, "m", int(m))


@dataclass(frozen=True)
class TwoModeGaussianCF:
    """Exponent weights of a two-mode Gaussian characteristic function."""

    mod_a: float
    quad_a: float
    mod_b: float
    quad_b: float
    cross_same: float = 0.0
    cross_conj: float = 0.0

    def value(self, alpha: complex, beta: complex) -> complex:
        """Evaluate chi(alpha, beta). chi(0, 0) = 1 by construction."""
        alpha = complex(alpha)
        beta = complex(beta)
        exponent = (
            self.mod_a * abs(alpha) ** 2
            + self.quad_a * (alpha**2 + alpha.conjugate() ** 2)
            + self.mod_b * abs(beta) ** 2
            + self.quad_b * (beta**2 + beta.conjugate() ** 2)
            + self.cross_same * (alpha * beta + (alpha * beta).conjugate())
            + self.cross_conj
            * (alpha * beta.conjugate() + alpha.conjugate() * beta)
        )
        return cmath.exp(exponent)

    def weights(self) -> tuple[float, float, float, float, float, float]:
        return (
            self.mod_a,
            self.quad_a,
            self.mod_b,
            self.quad_b,
            self.cross_same,
            self.cross_conj,
        )


def stage1_cf(params: CircuitParams) -> TwoModeGaussianCF:
    """Characteristic function of squeezed vacuum times vacuum."""
    lam = math.tanh(params.r)
    denom = 2.0 * (1.0 - lam * lam)
    return TwoModeGaussianCF(
        mod_a=-(1.0 + lam * lam) / denom,
        quad_a=lam / denom,
        mod_b=-0.5,
        quad_b=0.0,
    )


def apply_loss(cf: TwoModeGaussianCF, mode: str, eta: float) -> TwoModeGaussianCF:
    """Pure-loss channel with loss factor ``eta`` on one mode.

    In characteristic-function form the channel scales the lost mode's
    argument by sqrt(1 - eta) and adds -eta|z|^2/2 to its modulus weight;
    cross weights carry one factor of the argument and scale by
    sqrt(1 - eta).
    """
    eta = _check_unit_interval("eta", eta)
    keep = 1.0 - eta
    root = math.sqrt(keep)
    if mode == "a":
        return TwoModeGaussianCF(
            mod_a=keep * cf.mod_a - eta / 2.0,
            quad_a=keep * cf.quad_a,
            mod_b=cf.mod_b,
            quad_b=cf.quad_b,
            cross_same=root * cf.cross_same,
            cross_conj=root * cf.cross_conj,
        )
    if mode == "b":
        return TwoModeGaussianCF(
            mod_a=cf.mod_a,
            quad_a=cf.quad_a,
            mod_b=keep * cf.mod_b - eta / 2.0,
            quad_b=keep * cf.quad_b,
            cross_same=root * cf.cross_same,
            cross_conj=root * cf.cross_conj,
        )
    raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")


def apply_beamsplitter(cf: TwoModeGaussianCF, T: float) -> TwoModeGaussianCF:
    """Beam splitter mixing the modes with transmissivity ``T``.

    The mode convention maps a -> sqrt(T) a + sqrt(1-T) b, under which the
    characteristic function transforms by the argument substitution
    alpha -> sqrt(T) alpha + sqrt(1-T) beta,
    beta  -> -sqrt(1-T) alpha + sqrt(T) beta.
    """
    T = _check_unit_interval("T", T)
    s2 = T
    u2 = 1.0 - T
    su = math.sqrt(s2 * u2)
    ma, qa, mb, qb, cs, cc = cf.weights()
    return TwoModeGaussianCF(
        mod_a=s2 * ma + u2 * mb - 2.0 * su * cc,
        quad_a=s2 * qa + u2 * qb - su * cs,
        mod_b=u2 * ma + s2 * mb + 2.0 * su * cc,
        quad_b=u2 * qa + s2 * qb + su * cs,
        cross_same=2.0 * su * (qa - qb) + (s2 - u2) * cs,
        cross_conj=su * (ma - mb) + (s2 - u2) * cc,
    )


def stage_cfs(
    params: CircuitParams,
) -> tuple[TwoModeGaussianCF, TwoModeGaussianCF, TwoModeGaussianCF, TwoModeGaussianCF]:
    """Characteristic functions of the four pre-detection stages."""
    cf1 = stage1_cf(params)
    cf2 = apply_loss(cf1, "a", params.eta1)
    cf3 = apply_beamsplitter(cf2, params.T)
    cf4 = apply_loss(cf3, "b", params.eta2)
    return cf1, cf2, cf3, cf4


@dataclass(frozen=True)
class DerivedCoefficients:
    """Scalar coefficient set feeding every closed-form observable.

    All 21 entries are plain functions of the circuit parameters; the
    discriminants eps4, kappa4 and kappa9 must be positive for the
    heralded-state formulas to be defined.
    """

    lam: float
    tau1: float
    tau2: float
    tau3: float
    eps1: float
    eps2: float
    eps3: float
    eps4: float
    eps5: float
    eps6: float
    eps7: float
    eps8: float
    kappa1: float
    kappa2: float
    kappa3: float
    kappa4: float
    kappa5: float
    kappa6: float
    kappa7: float
    kappa8: float
    kappa9: float


def derived_coefficients(params: CircuitParams) -> DerivedCoefficients:
    """Evaluate the coefficient set for one parameter point."""
    lam = math.tanh(params.r)
    one_minus_lam2 = 1.0 - lam * lam
    keep1 = 1.0 - params.eta1
    keep2 = 1.0 - params.eta2
    T = params.T

    tau1 = keep1 * T / one_minus_lam2
    tau2 = keep1 * (1.0 - T) / one_minus_lam2
    tau3 = keep1 * math.sqrt(T * (1.0 - T)) / one_minus_lam2

    eps1 = 1.0 + lam * lam * tau2 * keep2
    eps2 = 0.5 * lam * tau2 * keep2
    eps3 = lam * tau3 * math.sqrt(keep2)
    eps4 = eps1 * eps1 - 4.0 * eps2 * eps2
    if eps4 <= 0.0:
        raise ParameterDomainError(
            f"discriminant eps4 = {eps4} is not positive at {params}"
        )
    eps32 = eps3 * eps3
    eps5 = 4.0 * lam * eps2 * eps32 - (1.0 + lam * lam) * eps1 * eps32
    eps6 = (1.0 + lam * lam) * eps2 * eps32 - lam * eps1 * eps32
    eps7 = lam * eps1 - 2.0 * eps2
    eps8 = eps1 - 2.0 * lam * eps2

    kappa1 = 1.0 + lam * lam * tau1 + eps5 / eps4
    kappa2 = 0.5 * lam * tau1 + eps6 / eps4
    kappa3 = eps3 / eps4
    kappa4 = kappa1 * kappa1 - 4.0 * kappa2 * kappa2
    if kappa4 <= 0.0:
        raise ParameterDomainError(
            f"discriminant kappa4 = {kappa4} is not positive at {params}"
        )
    e1sq = eps1 * eps1 + 4.0 * eps2 * eps2
    kappa5 = 8.0 * lam * eps1 * eps2 - (1.0 + lam * lam) * e1sq
    kappa6 = lam * e1sq - 2.0 * (1.0 + lam * lam) * eps1 * eps2
    kappa7 = kappa1 * eps7 - 2.0 * kappa2 * eps8
    kappa8 = kappa1 * eps8 - 2.0 * kappa2 * eps7
    kappa9 = (kappa1 - 0.5) ** 2 - 4.0 * kappa2 * kappa2
    if kappa9 <= 0.0:
        raise ParameterDomainError(
            f"discriminant kappa9 = {kappa9} is not positive at {params}"
        )
    return DerivedCoefficients(
        lam=lam,
        tau1=tau1,
        tau2=tau2,
        tau3=tau3,
        eps1=eps1,
        eps2=eps2,
        eps3=eps3,
        eps4=eps4,
        eps5=eps5,
        eps6=eps6,
        eps7=eps7,
        eps8=eps8,
        kappa1=kappa1,
        kappa2=kappa2,
        kappa3=kappa3,
        kappa4=kappa4,
        kappa5=kappa5,
        kappa6=kappa6,
        kappa7=kappa7,
        kappa8=kappa8,
        kappa9=kappa9,
    )
