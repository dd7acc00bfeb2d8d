"""Exception hierarchy for the :mod:`repro` library.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch the whole family with a single ``except`` clause while
still being able to discriminate analysis problems from model-construction
problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ProgramModelError(ReproError):
    """A program model (CFG/ACFG) is malformed or violates an invariant."""


class LayoutError(ProgramModelError):
    """The address layout of a program is inconsistent."""


class LoopBoundError(ProgramModelError):
    """A loop is missing a bound, or a bound is not a positive integer."""


class CacheConfigError(ReproError):
    """A cache configuration is invalid (non power of two, assoc > sets...)."""


class AnalysisError(ReproError):
    """A static analysis (abstract interpretation, IPET, WCET) failed."""


class UniverseOutgrown(AnalysisError):
    """A program references a memory block outside the dense kernel's
    block universe (the pipeline then regrows the universe)."""


class InfeasibleILPError(AnalysisError):
    """The IPET integer linear program has no feasible solution."""


class SimulationError(ReproError):
    """Concrete execution / trace simulation failed."""


class OptimizationError(ReproError):
    """The prefetch-insertion optimizer reached an inconsistent state."""


class GuaranteeViolation(OptimizationError):
    """Raised when a run would violate Theorem 1 (WCET non-increase).

    This is a *defensive* error: the optimizer checks its own output and
    refuses to return a program whose memory contribution to the WCET is
    larger than the input program's.
    """


class ExperimentError(ReproError):
    """An experiment/sweep was configured inconsistently."""


class SweepFailure(ExperimentError):
    """One or more use cases of a sweep failed permanently.

    Raised by :func:`repro.experiments.sweep.run_sweep` *after* every
    other case of the grid has completed (and been disk-cached), when
    the number of permanent failures exceeds the caller's
    ``max_failures`` policy — so a rerun only recomputes the failed
    cases.

    Attributes:
        failures: The per-case
            :class:`~repro.experiments.sweep.FailureRecord` list.
        results: The successful results, in grid order.
    """

    def __init__(self, message: str, failures=(), results=()):
        super().__init__(message)
        self.failures = list(failures)
        self.results = list(results)


class ConfigError(ExperimentError):
    """An environment/CLI configuration knob holds an unusable value.

    Raised early, with the offending knob named, instead of letting a
    raw ``ValueError`` escape from deep inside a sweep or the service.
    """


class ProtocolError(ReproError):
    """A service request violates the job protocol (HTTP 400)."""


class ServiceError(ReproError):
    """The analysis service (or a client talking to it) failed.

    Attributes:
        status: HTTP status code of the failing response, if any.
        retry_after: Server-suggested retry delay in seconds, if any.
    """

    def __init__(self, message: str, status: "int | None" = None,
                 retry_after: "float | None" = None):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class QueueFullError(ServiceError):
    """The service job queue is at capacity (HTTP 429 + Retry-After)."""
