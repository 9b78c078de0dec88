"""Exception types shared across the package."""


class GmstructError(Exception):
    """Base class for all package errors."""


class NotSettled(GmstructError):
    """Power iteration for the unstable direction did not converge."""


class NonConvergent(GmstructError):
    """Construction left more than half the reference disk unpartitioned."""


class DegenerateSample(GmstructError):
    """Sampled pair distances span too few decades for a regression."""


class DegenerateVariance(GmstructError):
    """Observable variance indistinguishable from a coboundary."""


class InsufficientData(GmstructError):
    """Too few positive points in the requested fit window."""


class MissingStage(GmstructError):
    """A report was requested but stage outputs are absent."""


class ConfigError(GmstructError):
    """Invalid experiment configuration."""

    def __init__(self, key, message):
        self.key = key
        super().__init__(f"{key}: {message}")
