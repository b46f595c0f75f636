"""Exception types shared across the package."""


class ExtremalLabError(Exception):
    """Base class for all package errors."""


class InvalidSpec(ExtremalLabError):
    """A domain description violates its invariants (or h is out of range)."""


class MeshQualityFailure(ExtremalLabError):
    """The mesher could not reach the 20-degree minimum-angle floor."""


class EmptyDomain(ExtremalLabError):
    """No grid point fell inside the domain."""


class NonTransversal(ExtremalLabError):
    """A cutting line meets a boundary edge at a near-zero angle."""


class DegenerateTriangle(ExtremalLabError):
    """Triangle area below 1e-14 during assembly."""


class IterationLimit(ExtremalLabError):
    """Eigensolver hit its iteration cap or left the double range; carries the residual."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class NewtonDiverged(ExtremalLabError):
    """Damped Newton failed to reduce the residual."""


class NonPositiveSolution(ExtremalLabError):
    """The semilinear solve left the positive basin (u < -1e-8 somewhere)."""


class NonPositiveLambda(ExtremalLabError):
    """An operation requiring lambda > 0 got a non-positive value."""


class NonNegativeAlpha(ExtremalLabError):
    """An operation requiring alpha < 0 got a non-negative value."""


class ZeroBoundary(ExtremalLabError):
    """Boundary flux is identically zero; no Neumann statistics exist."""


class NoSignChange(ExtremalLabError):
    """The linearized Neumann deviation kept one sign over the scanned periods."""


class MeshTangled(ExtremalLabError):
    """The evolving boundary self-intersected and step halving ran out."""


class StagnatedFlow(ExtremalLabError):
    """No descent step could be accepted while far from criticality."""


class TruncationInsufficient(ExtremalLabError):
    """The trailing Fourier coefficient is too large for the requested truncation."""


class ConfigInvalid(ExtremalLabError):
    """A run configuration failed validation."""


class VersionMismatch(ExtremalLabError):
    """Experiment records from different versions cannot be aggregated."""
