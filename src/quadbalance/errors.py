"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or out-of-contract input (bad syntax, wrong degrees, ...)."""


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would exceed the configured budget."""


class UnattainableTargetError(ValueError):
    """The requested Hilbert function cannot be realized by the construction."""

    def __init__(self, message, degree=None):
        super().__init__(message)
        self.degree = degree


class NotCohenMacaulayError(ValueError):
    """Raised by the balancing pipeline when the input complex fails the
    homological test; carries the failing (face, degree, betti) witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class RegularSequenceNotFoundError(RuntimeError):
    """All sampling attempts and the deterministic fallback were exhausted.

    Over Q this is not expected for genuine inputs: every attempt fails
    with probability at most 1/2, and the lemma in the ``regseq`` module
    docstring shows that suitable forms exist.  Over a small prime field it
    can happen, because the sampled and structured coefficients may collapse
    mod p.
    """
