"""Error types shared across the toolkit."""

from __future__ import annotations


class SpecError(Exception):
    """Base class for all specification-level errors."""


class SpecSyntaxError(SpecError):
    """Raised by the parser; message is formatted as file:line:col: text."""

    def __init__(self, message: str, filename: str = "<spec>", line: int = 0, col: int = 0):
        self.filename = filename
        self.line = line
        self.col = col
        super().__init__(f"{filename}:{line}:{col}: {message}")


class DuplicateStream(SpecSyntaxError):
    """A stream declared again, at the name of its second declaration."""

    def __init__(self, name: str, filename: str = "<spec>", line: int = 0,
                 col: int = 0):
        self.name = name
        super().__init__(f"stream '{name}' declared more than once",
                         filename, line, col)


class UnknownStream(SpecSyntaxError):
    """A name that no stream declares, at the token that uses it."""

    def __init__(self, name: str, filename: str = "<spec>", line: int = 0,
                 col: int = 0):
        self.name = name
        super().__init__(f"reference to undeclared stream '{name}'",
                         filename, line, col)


class TypeError_(SpecError):
    """Static type error in an expression or declaration."""


class PacingConflict(SpecError):
    """Explicit pacing does not cover a synchronously accessed stream."""


class EmptyPacing(SpecError):
    """No pacing can be inferred (expression accesses no paced stream)."""


class CyclicDependency(SpecError):
    def __init__(self, cycle: list[str]):
        self.cycle = cycle
        super().__init__("cyclic synchronous dependency: " + " -> ".join(cycle))


class MixedAnnotationKinds(SpecError):
    """Annotation kinds are inconsistent with the requested scheduling mode."""


class NonMonotonicTime(SpecError):
    """Timestamps must be strictly increasing."""


class PreconditionViolation(SpecError):
    """A scheduler validity precondition does not hold."""


class OutOfRange(SpecError):
    """Query time outside the span covered by a sensor trace."""


class SensorUnavailable(SpecError):
    def __init__(self, sensor: str, time):
        self.sensor = sensor
        self.time = time
        super().__init__(f"sensor '{sensor}' cannot be queried at t={time}")


class TooManySteps(SpecError):
    """A run would take more steps than a model or trace is allowed."""


class MismatchedTraces(SpecError):
    """Compared runs did not observe the same underlying trace."""
