"""Exception taxonomy.

Every error raised by this package derives from GenretError so callers can
catch the whole family at a process boundary (the CLI does exactly that).
Subclasses carry structured context where a message alone would lose
information, e.g. the raw response body on a transport failure.
"""

from __future__ import annotations


class GenretError(Exception):
    """Base class for all package errors."""


class TemplateSyntaxError(GenretError):
    """Template spec string cannot be parsed."""


class RenderError(GenretError):
    """A sentence cannot be formed: a template slot has no word to fill it,
    or a sentence to score has no tokens."""


class SchemaError(GenretError):
    """A serialized record does not match its documented layout."""


class VocabularyError(GenretError):
    """A sentence token falls outside the backend vocabulary."""


class NormalizationError(GenretError):
    """A probability distribution or embedding fails its normalization check."""


class ConfigurationError(GenretError):
    """Incompatible template, method, or backend capability combination."""


class InfiniteLossError(GenretError):
    """A backend assigned zero probability to a scored token, so the loss
    has no finite value. Backends meant for counterfactual scoring should
    smooth instead."""


class UnknownImageError(GenretError):
    """Backend cannot resolve the given image identifier."""


class CacheMissError(GenretError):
    """Score cache has no record for the requested query."""


class TransportError(GenretError):
    """Remote call failed after retries; carries the raw response body."""

    def __init__(self, message: str, status: int | None = None, body: str | None = None):
        super().__init__(message)
        self.status = status
        self.body = body


class BatchScoringError(GenretError):
    """One or more instances in a batch failed to score.

    The batch always runs to completion first. `failures` holds
    (input index, exception) pairs; `completed` holds (input index,
    ScoredInstance) pairs for everything that succeeded.
    """

    def __init__(self, failures, completed):
        lines = ", ".join(f"#{i}: {exc}" for i, exc in failures[:5])
        more = "" if len(failures) <= 5 else f" (+{len(failures) - 5} more)"
        super().__init__(f"{len(failures)} instance(s) failed to score: {lines}{more}")
        self.failures = list(failures)
        self.completed = list(completed)


class WorldError(GenretError):
    """Invalid world description or scene-sampling precondition."""


class BuilderError(GenretError):
    """Ranking-instance construction cannot satisfy its contract."""


class StatsError(GenretError):
    """Co-occurrence statistics cannot be built from the given records."""


class MetricError(GenretError):
    """A metric is undefined on the given input."""


class CoverageError(GenretError):
    """Calibration table is missing classes needed by the input."""

    def __init__(self, missing):
        missing = sorted(missing)
        shown = ", ".join(missing[:8]) + ("" if len(missing) <= 8 else ", ...")
        super().__init__(f"calibration table missing {len(missing)} class(es): {shown}")
        self.missing = missing


class OptimizationError(GenretError):
    """Calibration fit diverged; reports the offending step."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


class ParameterError(GenretError):
    """A parameter given to the library lies outside its domain: any numeric
    parameter, a calibration table's mu and sigma included
    (core.check_parameter)."""
