"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes, so estimator and factorization
code should raise the most specific class that applies rather than a bare
ValueError.
"""

__all__ = ["InputError", "NotNonNegativeError", "ConvergenceError", "PostSelectionError"]


class InputError(ValueError):
    """Invalid or out-of-contract input (exit code 2 at the CLI)."""


class NotNonNegativeError(InputError):
    """A source that must be non-negative on the real line is not.

    Raised where a polynomial would have to factor into squared moduli; a
    caller can route such a source through the basis-product estimator,
    which needs no sign condition.
    """


class ConvergenceError(RuntimeError):
    """An iterative routine ran out of budget (exit code 3 at the CLI).

    Carries ``best_residual`` so callers can report how close the run got.
    """

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class PostSelectionError(RuntimeError):
    """A parallel run hit a zero-probability post-selection branch (exit 4)."""
