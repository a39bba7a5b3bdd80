"""Exception hierarchy for model validation, enumeration budgets, and mechanism preconditions."""


class PeerSpotError(Exception):
    """Base class for all package errors."""


class InvalidDistribution(PeerSpotError):
    """Probability weights are negative or do not sum to one."""


class ShapeMismatch(PeerSpotError):
    """Channel or distribution dimensions are inconsistent."""


class TooFewAgents(PeerSpotError):
    """The operation needs more agents than the environment provides."""


class EnumerationBudgetExceeded(PeerSpotError):
    """Exact enumeration would exceed the configured outcome budget."""


class NotEnoughObjects(PeerSpotError):
    """The instance has too few objects for the mechanism's sampling step."""


class NonBinaryLabelSpace(PeerSpotError):
    """The mechanism is only defined for binary label spaces."""


class LogOfZero(PeerSpotError):
    """Logarithmic score evaluated at an outcome with zero predicted mass."""


class ConfigError(PeerSpotError):
    """Experiment configuration failed to parse or validate; message names the field."""
