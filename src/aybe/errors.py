"""Exception types shared across the package."""

__all__ = ["DomainError", "NonConvergenceError", "PoleProximityError"]


class PoleProximityError(ValueError):
    """An evaluation point is too close to a pole / lattice point."""


class DomainError(ValueError):
    """Input lies outside the domain of validity of a solution family."""


class NonConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to stabilise."""
