"""Exception types shared across the package."""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager


class TradeStudyError(Exception):
    """Base class for all boomsuite errors."""


class ConfigError(TradeStudyError):
    """A configuration file is missing or cannot be parsed."""


class ValidationError(TradeStudyError, ValueError):
    """A loaded record violates an invariant.

    Always names the offending subject (sensor id, 'mission', profile
    stage, ...) and field so callers can point at the bad line.
    """

    def __init__(self, subject: str, field: str, message: str) -> None:
        self.subject = subject
        self.field = field
        self.message = message
        super().__init__(f"{subject}.{field}: {message}")


@contextmanager
def fields_of(subject: str) -> Iterator[None]:
    """Rename the subject of a ValidationError raised inside: a record's
    range rule knows the field, the file it came from knows where the
    record sits."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(subject, exc.field, exc.message) from None


class ScoringError(TradeStudyError):
    """Scores could not be resolved (absent specs with no override).

    ``pairs`` lists the offending (sensor id, criterion name) tuples.
    """

    def __init__(self, pairs: list[tuple[str, str]]) -> None:
        self.pairs = list(pairs)
        listing = ", ".join(f"{s}/{c}" for s, c in self.pairs)
        super().__init__(f"unresolved scores with no override: {listing}")


class NoFeasibleSuiteError(TradeStudyError):
    """Suite selection found no assignment satisfying every constraint.

    ``reasons`` lists the binding constraints that eliminated candidates.
    """

    def __init__(self, reasons: list[str]) -> None:
        self.reasons = list(reasons)
        super().__init__("no feasible suite: " + "; ".join(reasons))


class EnumerationGuardError(TradeStudyError):
    """Exhaustive enumeration would exceed the combinatorial guard."""
