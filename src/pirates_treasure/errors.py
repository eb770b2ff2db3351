"""Shared exception types.

Everything raised on purpose by this package derives from ValueError or
RuntimeError so callers can stay coarse-grained; the CLI maps these onto
exit codes.  An error raised in a sweep's worker process crosses the pool
pickled, so each error rebuilds its message and attributes from its own
constructor arguments.
"""

from __future__ import annotations


class ParseError(ValueError):
    """Instance text could not be parsed.  Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message

    def __reduce__(self):
        return type(self), (self.line_no, self.message)


class ValidationError(ValueError):
    """A structurally well-formed input violates a board rule."""


class IllegalMoveError(ValueError):
    """A move was applied that is not legal in the given position."""


class BudgetExceededError(RuntimeError):
    """A search or expansion ran past its node budget."""

    def __init__(self, budget: int, what: str = "search"):
        super().__init__(f"{what} exceeded node budget of {budget}")
        self.budget = budget
        self.what = what

    def __reduce__(self):
        return type(self), (self.budget, self.what)


class WorkerLostError(RuntimeError):
    """A sweep's process pool lost a worker process before the sweep ended."""
