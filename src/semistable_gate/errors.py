"""Exception hierarchy shared across the package.

Three families, mapped to CLI exit codes: schema errors (2), domain
precondition failures (3), and internal consistency failures (4).
"""


class SchemaError(ValueError):
    """Malformed or unknown-key input document."""


class PreconditionError(ValueError):
    """A documented domain precondition was violated by the caller."""


class InternalConsistencyError(RuntimeError):
    """A state that is mathematically impossible for valid inputs."""


class NonIntegralSymmetricFunction(InternalConsistencyError):
    """Newton-identity division by m was not exact: the power sums are not
    those of algebraic integers with integer symmetric functions."""


class LemmaViolation(InternalConsistencyError):
    """Congruent above the forcing bound yet not exactly equal."""


class RootFindingFailure(PreconditionError):
    """Weil-weight validation refused the input: its degree exceeds the cap."""


class EllEqualsEll0(PreconditionError):
    """ell = ell0 is outside the framework; the two primes must differ."""


class WEven(PreconditionError):
    """The etale-cohomology decision requires odd cohomological weight."""


class CorpusTooLarge(PreconditionError):
    """Counterexample-search enumeration budget exceeded."""
