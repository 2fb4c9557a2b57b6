"""Exception types shared across the package."""

from contextlib import contextmanager


class ShaperError(Exception):
    """Base class for all rfshaper errors."""


class DomainError(ShaperError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class SingularityError(DomainError):
    """A transfer function is evaluated exactly at a pole."""


class ConfigurationError(ShaperError, ValueError):
    """A parameter set or named option is inconsistent or unknown."""


class TopologyError(ShaperError, ValueError):
    """A circuit graph is not a well-formed feed-forward network."""


class AnalysisError(ShaperError, RuntimeError):
    """A measurement routine could not extract the requested feature."""


@contextmanager
def io_context(failure: str):
    """Re-raise an ``OSError`` of the block as ``<failure>: <error>``."""
    try:
        yield
    except OSError as exc:
        raise OSError(f"{failure}: {exc}") from exc
