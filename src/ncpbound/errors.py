"""The library's exception types, which the CLI maps to exit codes; none has a subclass.

ValidationError     exit 2: malformed or out-of-contract input.
InvariantError      exit 1, {"error": "invariant-violated"}: a mathematical
                    invariant of the computation failed, which is a bug,
                    not bad input.  It is raised explicitly, never through
                    `assert`, so it still fires under `python -O`.
SearchExhausted     exit 3: a bounded search ran out.
"""


class ValidationError(ValueError):
    """Malformed or out-of-contract input (CLI exit code 2)."""


class InvariantError(RuntimeError):
    """A mathematical invariant failed to hold (CLI exit code 1)."""


class SearchExhausted(RuntimeError):
    """A bounded search ran out of candidates before satisfying its quota
    (CLI exit code 3).  Carries any partial results found."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
