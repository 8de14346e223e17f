"""Exception hierarchy for the NAPEL reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch framework errors without accidentally swallowing unrelated
Python errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ConfigError(ReproError):
    """An architecture or framework configuration is invalid."""


class TraceError(ReproError):
    """A dynamic instruction trace is malformed or inconsistent."""


class WorkloadError(ReproError):
    """A workload was given invalid parameters or failed to generate."""


class DoEError(ReproError):
    """A design-of-experiments request is invalid (bad levels, bad space)."""


class MLError(ReproError):
    """A machine-learning model was misused (unfitted, shape mismatch...)."""


class NotFittedError(MLError):
    """Prediction was requested from a model that has not been fitted."""


class SchemaMismatchError(MLError):
    """Feature data does not match the feature schema it is used against.

    Carries the offending column names so callers (and error messages) can
    say precisely *which* features are ``missing`` from the data, which are
    ``extra``, and which ``moved`` to a different position.
    """

    def __init__(
        self,
        message: str,
        *,
        missing: tuple = (),
        extra: tuple = (),
        moved: tuple = (),
    ) -> None:
        super().__init__(message)
        self.missing = tuple(missing)
        self.extra = tuple(extra)
        self.moved = tuple(moved)


class SimulationError(ReproError):
    """The NMC or host simulator encountered an inconsistent state."""


class CampaignError(ReproError):
    """A simulation campaign (DoE data gathering) failed."""


class ParallelError(ReproError):
    """A parallel job failed in a worker (carries the job's context)."""


class TracingError(ReproError):
    """An event-trace file is malformed, or the tracer was misused."""


class KernelBuildError(ReproError):
    """The compiled kernel library failed to build on a host that has a C
    compiler (carries the compiler's error output)."""
