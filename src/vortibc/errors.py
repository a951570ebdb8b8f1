"""Exception hierarchy for solver and configuration failures."""


class VortibcError(Exception):
    """Base class for all package errors."""


class InvalidSpec(VortibcError):
    """Domain specification violates its invariants."""


class ResolutionTooLow(VortibcError):
    """Grid resolution below the supported minimum."""


class MissingTimeDerivative(VortibcError):
    """A norm or diagnostic needs a time derivative that was not supplied."""


class IncompatibleData(VortibcError):
    """Neumann data violates the solvability condition beyond tolerance."""


class SolverDiverged(VortibcError):
    """Linear solve failed to reach the requested residual."""


class LinearSolveFailed(VortibcError):
    """Sparse factorization or backsolve failed."""


class BCEnforcementFailed(VortibcError):
    """Ghost-value boundary system is singular."""


class BCViolation(VortibcError):
    """Input field violates a required boundary condition beyond tolerance."""


class DegenerateInput(VortibcError):
    """Input is identically zero where a ratio or fit would be 0/0."""


class CFLViolation(VortibcError):
    """Advective CFL number exceeds the configured limit."""


class NoContraction(VortibcError):
    """Picard iteration failed to contract over the configured window."""


class MaxIterExceeded(VortibcError):
    """Picard iteration hit the iteration cap before converging."""


class CirculationSystemSingular(VortibcError):
    """Streamfunction circulation constraint system is singular."""


class ConfigError(VortibcError):
    """Run configuration failed to parse or validate."""


class MemoryBudgetExceeded(VortibcError):
    """A field history would not fit in physical memory."""
