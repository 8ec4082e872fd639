"""Exception types shared across the package."""


class CutoffExceededError(RuntimeError):
    """A requested Fock-space cutoff is larger than the configured maximum.

    Maps to the resource-limit exit code (3) in the command line front end.
    """


class ExpmNotConvergedError(RuntimeError):
    """A matrix exponential failed its accuracy contract.

    Raised when the exponentiated squeeze generator does not preserve the
    state norm to the documented tolerance, which signals a numerically
    unusable exponential rather than a truncation effect.
    """
