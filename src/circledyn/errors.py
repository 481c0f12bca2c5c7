"""Exception types shared across the package."""


class CircledynError(Exception):
    """Base class for all package errors."""


class NoRootAbove(CircledynError):
    """Sign analysis certifies the polynomial has no real root above the floor."""


class OrderConflict(CircledynError):
    """Prescribed orbit images cannot be realized by a single-valued map."""


class Degenerate(CircledynError):
    """Two prescribed orbit points coincide."""


class DepthExceeded(CircledynError):
    """Stern-Brocot search passed the denominator bound (rotation number
    plausibly irrational)."""


class NotInvariant(CircledynError):
    """The image of a partition point escapes the candidate partition set."""


class NotShort(CircledynError):
    """Some basic interval has an image of length >= 1, so the partition does
    not project to a Markov partition on the circle."""


class InvalidRome(CircledynError):
    """A loop avoiding the proposed rome exists."""


class BudgetExceeded(CircledynError):
    """A configured enumeration cap was passed; results would be truncated."""


class NotCofinite(CircledynError):
    """The period set has no cofinite tail."""


class BadParameter(CircledynError):
    """Family parameter outside its admissible range."""


class RotationMismatch(CircledynError):
    """The interval given as Rot(F) is not the minimum and maximum loop mean
    of the Markov graph."""


class DegenerateRotationInterval(CircledynError):
    """Rotation interval reduced to a point; outside Misiurewicz's theorem."""


class NotExtendable(CircledynError):
    """The excised subgraph is an interval (or endpoints invalid), so the
    graph-extension construction does not apply."""
