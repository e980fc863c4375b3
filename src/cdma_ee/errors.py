"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A scenario or run configuration is inconsistent or out of range."""


class ReceiverUnavailableError(RuntimeError):
    """The decorrelator cannot be built (rank deficit or ill-conditioned correlation)."""
