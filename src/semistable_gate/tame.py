"""Fundamental-character exponent bookkeeping at the tame level.

A character of the tame quotient at level h is encoded by its exponent
modulo ell^h - 1.  Its base-ell digits are the tame inertia weights; the h
Frobenius twists multiply the exponent by powers of ell, which permutes the
digits cyclically and so leaves the digit multiset alone.  No character is
ever evaluated; everything is exponent arithmetic.
"""

from collections import Counter, namedtuple

from .errors import (DIGIT_CEILING, DIGIT_LIMIT, PreconditionError, SchemaError, brief,
                     min_digits)
from .primes import is_prime


class TameCharacterExponent(namedtuple("TameCharacterExponent", "ell level exponent")):
    __slots__ = ()

    def __new__(cls, ell: int, level: int, exponent: int):
        if not is_prime(ell):
            raise SchemaError(f"ell = {brief(ell)} is not prime")
        if level < 1:
            raise SchemaError("level must be positive")
        # a nonzero exponent's orbit rotates a nonzero digit to the top: an integer >= ell^(level-1)
        if (min_digits((ell.bit_length() - 1) * (level - 1)) > DIGIT_LIMIT
                or ell ** (level - 1) >= DIGIT_CEILING):
            raise PreconditionError(f"level {brief(level)} is too large: the orbit of a nonzero "
                                    f"exponent holds an integer of more than {DIGIT_LIMIT} digits")
        modulus = ell ** level - 1
        if not 0 <= exponent <= modulus - 1:
            raise SchemaError(f"exponent must lie in [0, {brief(modulus - 1)}], got {brief(exponent)}")
        return super().__new__(cls, ell, level, exponent)

    @property
    def modulus(self) -> int:
        return self.ell ** self.level - 1


def base_digits(n: int, ell: int, h: int) -> Counter[int]:
    """Multiset of the h lowest base-ell digits of n (leading zeros kept)."""
    digits = []
    for _ in range(h):
        n, digit = divmod(n, ell)
        digits.append(digit)
    return Counter(digits)


def digit_weights(c: TameCharacterExponent) -> Counter[int]:
    """Multiset of the h base-ell digits of the exponent (leading zeros kept)."""
    return base_digits(c.exponent, c.ell, c.level)


def frobenius_orbit(c: TameCharacterExponent) -> tuple[int, ...]:
    """(n_f * ell^i mod ell^h - 1) for i = 0, ..., h-1."""
    m = c.modulus
    return tuple(c.exponent * c.ell ** i % m for i in range(c.level))


def canonical_exponent(c: TameCharacterExponent) -> int:
    """Minimum of the Frobenius orbit; an orbit invariant identifying the
    weight data independently of the chosen embedding."""
    return min(frobenius_orbit(c))
