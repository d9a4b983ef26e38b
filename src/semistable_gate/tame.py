"""Fundamental-character exponent bookkeeping at the tame level.

A character of the tame quotient at level h is encoded by its exponent
modulo ell^h - 1.  Its base-ell digits are the tame inertia weights; the h
Frobenius twists multiply the exponent by powers of ell, which permutes the
digits cyclically and so leaves the digit multiset alone.  No character is
ever evaluated; everything is exponent arithmetic.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .errors import WeightOutOfRange
from .primes import is_prime


class TameCharacterExponent(namedtuple("TameCharacterExponent", "ell level exponent")):
    __slots__ = ()

    def __new__(cls, ell: int, level: int, exponent: int):
        if not is_prime(ell):
            raise ValueError(f"ell = {ell} is not prime")
        if level < 1:
            raise ValueError("level must be positive")
        modulus = ell ** level - 1
        if not 0 <= exponent <= modulus - 1:
            raise ValueError(f"exponent must lie in [0, {modulus - 1}], got {exponent}")
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


def level_one_norm_exponent(ell: int, h: int) -> int:
    """1 + ell + ... + ell^{h-1}: the exponent realizing the level-1
    character when viewed at level h."""
    if h < 1:
        raise ValueError("h must be positive")
    return (ell ** h - 1) // (ell - 1) if ell > 1 else h


def is_uniform(w_set, w: int, ell: int) -> bool:
    """True iff every weight in the multiset equals w.  The uniform-weight
    notion is only defined for 0 <= w < ell - 1."""
    if not 0 <= w < ell - 1:
        raise WeightOutOfRange(f"w = {w} outside [0, {ell - 2}]")
    return all(x == w for x in _elements(w_set))


def caruso_range_check(w_set, e: int, r: int) -> bool:
    """True iff every weight lies in [0, e*r]."""
    if e < 1:
        raise ValueError("e must be positive")
    return all(0 <= x <= e * r for x in _elements(w_set))


def _elements(w_set):
    if isinstance(w_set, Counter):
        return w_set.elements()
    return iter(w_set)
