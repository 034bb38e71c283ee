"""Conditional multiphoton subtraction from squeezed vacuum, with losses.

The package follows one circuit: a squeezed vacuum passes through a loss
channel, mixes with vacuum on a beam splitter, the detection arm passes
through a second loss channel, and a photon-number measurement on that
arm heralds the surviving mode. Closed-form observables of the heralded
state come from differentiating Gaussian generating functions; an
independent truncated-Fock-space oracle cross-checks every number.
"""

from .circuit import (
    CircuitColumns,
    CircuitParams,
    DerivedCoefficients,
    TwoModeGaussianCF,
    apply_beamsplitter,
    apply_loss,
    derived_coefficients,
    stage1_cf,
    stage_cfs,
)
from .errors import (
    CapacityError,
    ConvergenceError,
    CutoffTooSmallError,
    MssvsError,
    NumericalConsistencyError,
    ParameterDomainError,
    UndefinedStateError,
)
from .genfunc import (
    MultiIndex,
    QuadraticExponent,
    taylor_coefficient_box,
)
from .observables import (
    QuadratureVariances,
    SqueezingScan,
    WignerPoint,
    pnd,
    pnd_vector,
    squeezing_threshold,
    squeezing_threshold_scan,
    success_probability,
    svs_mean_photon,
    svs_pnd,
    svs_variances,
    svs_wigner,
    variances,
    wigner,
    wigner_array,
    wigner_grid,
    wigner_quadrature,
)

__version__ = "0.1.0"

__all__ = [
    "CircuitColumns",
    "CircuitParams",
    "DerivedCoefficients",
    "TwoModeGaussianCF",
    "apply_beamsplitter",
    "apply_loss",
    "derived_coefficients",
    "stage1_cf",
    "stage_cfs",
    "CapacityError",
    "ConvergenceError",
    "CutoffTooSmallError",
    "MssvsError",
    "NumericalConsistencyError",
    "ParameterDomainError",
    "UndefinedStateError",
    "MultiIndex",
    "QuadraticExponent",
    "taylor_coefficient_box",
    "QuadratureVariances",
    "SqueezingScan",
    "WignerPoint",
    "pnd",
    "pnd_vector",
    "squeezing_threshold",
    "squeezing_threshold_scan",
    "success_probability",
    "svs_mean_photon",
    "svs_pnd",
    "svs_variances",
    "svs_wigner",
    "variances",
    "wigner",
    "wigner_array",
    "wigner_grid",
    "wigner_quadrature",
    "__version__",
]
