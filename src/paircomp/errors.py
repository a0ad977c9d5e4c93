"""Exception types shared across the package.

Plain ``ValueError`` is used for ordinary domain errors (bad numeric
arguments); the classes here mark conditions that callers need to tell
apart, e.g. to map them to CLI exit codes.
"""

from __future__ import annotations


class PaircompError(Exception):
    """Base class for package-specific errors."""


class ConfigError(PaircompError):
    """Invalid or inconsistent configuration / manifest / flags."""


class AssumptionViolationError(PaircompError):
    """A statistical working assumption does not hold for the data.

    Raised e.g. when percent differences are requested but the baseline
    sample mean is not strictly positive (the remedy is to switch to
    simple differences), or when the parametric percent-difference SE
    overflows a float at the data's scale.
    """


class DegenerateDataError(PaircompError):
    """A test statistic is undefined for the given data (e.g. zero spread)."""


class RunnerError(PaircompError):
    """A single algorithm run failed (bad exit status, output, or timeout)."""

    def __init__(self, message: str, *, alias: str | None = None,
                 instance_id: str | None = None, seed: int | None = None,
                 output_excerpt: str | None = None):
        self.message = message
        self.alias = alias
        self.instance_id = instance_id
        self.seed = seed
        self.output_excerpt = output_excerpt
        parts = [message]
        if alias is not None:
            parts.append(f"algorithm={alias}")
        if instance_id is not None:
            parts.append(f"instance={instance_id}")
        if seed is not None:
            parts.append(f"seed={seed}")
        if output_excerpt:
            parts.append(f"output: {output_excerpt}")
        super().__init__(" | ".join(parts))


class ExperimentAbortedError(PaircompError):
    """An experiment stopped early; completed instances are on disk.

    Wraps the causing error, points at the checkpoint journal holding
    the partial results and names the failing instance, unless the cause
    is a ``RunnerError``, which names it already.
    """

    def __init__(self, cause: Exception, checkpoint_path=None, completed: int = 0,
                 instance_id: str | None = None):
        self.cause = cause
        self.checkpoint_path = checkpoint_path
        self.completed = completed
        where = f" (partial results: {checkpoint_path})" if checkpoint_path else ""
        which = ("" if instance_id is None or isinstance(cause, RunnerError)
                 else f"instance {instance_id}: ")
        super().__init__(f"experiment aborted after {completed} instance(s)"
                         f"{where}: {which}{cause}")
