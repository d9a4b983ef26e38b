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


def brief(n: int) -> str:
    """n in full up to 100 digits; past that, its first and last 10 digits
    and its digit count.  It never calls str() on all of n, which refuses
    integers past the int-to-str digit limit."""
    m = abs(n)
    if m < 10 ** 100:
        return str(n)
    digits = m.bit_length() * 1233 >> 12    # 1233/4096 < log10(2): at most the count
    while 10 ** digits <= m:
        digits += 1
    return f"{'-' * (n < 0)}{m // 10 ** (digits - 10)}...{m % 10 ** 10:010d} ({digits} digits)"
