"""Error types and the violation record shared by every validator."""

from __future__ import annotations

from dataclasses import dataclass, field


class InputError(ValueError):
    """Malformed input: unknown points, bad documents, mixed spaces.

    The CLI maps this to exit code 2. ``path`` locates the offending field
    when the input came from a JSON document.
    """

    def __init__(self, message: str, path: str | None = None):
        self.message = message
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class EvaluatorError(RuntimeError):
    """A distance or fiber evaluator broke its contract."""


class WitnessError(RuntimeError):
    """A tying witness returned an unusable index."""


@dataclass(frozen=True)
class Violation:
    """One validator finding. ``witness`` carries the offending objects."""

    kind: str
    message: str
    witness: tuple = field(default=())

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message}"
