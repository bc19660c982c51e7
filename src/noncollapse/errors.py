"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument outside the open positive cone (some entry <= 0)."""


class NotPositiveDefinite(ValueError):
    """Symmetric-matrix argument has an eigenvalue <= 0."""


class SingularShift(ValueError):
    """Shift k too close to the smallest eigenvalue; A - kI or B - kI nearly singular."""


class ConvexityLost(RuntimeError):
    """A principal radius of curvature dropped to zero or below."""


class DiagonalWitness(ValueError):
    """The extremum witness is the diagonal; no off-diagonal tangent condition to check."""


class CenterOutside(ValueError):
    """Proposed center is not interior to the body."""
