"""The package's exceptions: one class per CLI exit code, schema errors
(2), domain precondition failures (3) and internal consistency failures
(4), each raised where its fault is found; the message says which fault it
was."""

# Python's default int-to-str limit, which the CLI sets whatever the
# environment says: a certificate prints no longer integer
DIGIT_LIMIT = 4300
# the least integer of more than DIGIT_LIMIT digits, built once
DIGIT_CEILING = 10 ** DIGIT_LIMIT


def min_digits(bits: int) -> int:
    """A lower bound on the digits of every integer >= 2^bits: 1233/4096 < log10(2)."""
    return (bits * 1233 >> 12) + 1


class SchemaError(ValueError):
    """A value of the wrong shape for the record or function given it."""


class PreconditionError(ValueError):
    """A documented domain precondition was violated by the caller."""


class InternalConsistencyError(RuntimeError):
    """A state that is mathematically impossible for valid inputs."""


def _exact(v) -> bool:
    try:
        return int(v) == v
    except (TypeError, ValueError, OverflowError):
        return False


def exact_ints(values, what: str) -> tuple[int, ...]:
    """values as a tuple of ints; a value that int() would change (0.5, 1.9,
    "3") or cannot convert ("x", None, inf, 1j) is a SchemaError naming the
    first such, never truncated."""
    values = tuple(values)
    try:
        ints = tuple(map(int, values))
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != values:
        bad = next(v for v in values if not _exact(v))
        raise SchemaError(f"{what} must be integers, got {bad!r}")
    return ints


def brief(n: int) -> str:
    """n in full up to 100 digits; past that, its first and last 10 digits and
    its digit count, never calling str() on all of n (refused past DIGIT_LIMIT)."""
    m = abs(n)
    if m < 10 ** 100:
        return str(n)
    digits = min_digits(m.bit_length() - 1)
    while 10 ** digits <= m:
        digits += 1
    return f"{'-' * (n < 0)}{m // 10 ** (digits - 10)}...{m % 10 ** 10:010d} ({digits} digits)"
