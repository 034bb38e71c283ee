"""Exception types shared across the package."""


class MssvsError(Exception):
    """Base class for all package-specific errors."""


class CapacityError(MssvsError):
    """A requested derivative order exceeds the configured cap.

    Raised instead of silently truncating. Callers of
    :func:`mssvs.genfunc.taylor_coefficient_box` may retry with a larger
    ``max_total_order``; the public observables fix their own cap.
    """

    def __init__(self, requested: int, cap: int):
        super().__init__(f"total derivative order {requested} exceeds the cap {cap}")
        self.requested = requested
        self.cap = cap


class ParameterDomainError(MssvsError, ValueError):
    """A physical parameter lies outside its admissible domain."""


class UndefinedStateError(MssvsError):
    """The heralded state does not exist (success probability is zero)."""


class NumericalConsistencyError(MssvsError):
    """A computed value violates a consistency bound beyond rounding noise."""


class ConvergenceError(MssvsError):
    """An iterative routine failed to converge within its iteration budget."""


class CutoffTooSmallError(MssvsError):
    """A Fock-space cutoff cannot hold the requested state.

    Carries the cutoff that would satisfy the tail criterion so callers
    can escalate.
    """

    def __init__(self, cutoff: int, tail: float, required_cutoff: int):
        super().__init__(
            f"cutoff {cutoff} leaves tail mass {tail:.3e} above the "
            f"tolerance; required cutoff is {required_cutoff}"
        )
        self.cutoff = cutoff
        self.tail = tail
        self.required_cutoff = required_cutoff
