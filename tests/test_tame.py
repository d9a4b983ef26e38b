from collections import Counter

import pytest

from semistable_gate.errors import PreconditionError
from semistable_gate.primes import next_prime
from semistable_gate.tame import (
    DIGIT_LIMIT,
    TameCharacterExponent,
    base_digits,
    canonical_exponent,
    digit_weights,
    frobenius_orbit,
)

SMALL = [(ell, h) for ell in (2, 3, 5, 7) for h in (1, 2, 3)]


def test_digit_weights_examples():
    assert digit_weights(TameCharacterExponent(5, 2, 7)) == Counter({1: 1, 2: 1})
    assert digit_weights(TameCharacterExponent(3, 3, 13)) == Counter({1: 3})
    assert digit_weights(TameCharacterExponent(7, 1, 4)) == Counter({4: 1})
    assert digit_weights(TameCharacterExponent(5, 2, 12)) == Counter({2: 2})


def test_digit_weights_keeps_leading_zeros():
    assert digit_weights(TameCharacterExponent(5, 3, 7)) == Counter({1: 1, 2: 1, 0: 1})


def test_frobenius_orbit_examples():
    assert frobenius_orbit(TameCharacterExponent(5, 2, 7)) == (7, 11)
    assert frobenius_orbit(TameCharacterExponent(3, 2, 0)) == (0, 0)
    assert frobenius_orbit(TameCharacterExponent(3, 3, 13)) == (13, 13, 13)


def test_canonical_exponent_examples():
    assert canonical_exponent(TameCharacterExponent(5, 2, 11)) == 7
    assert canonical_exponent(TameCharacterExponent(7, 1, 4)) == 4
    assert canonical_exponent(TameCharacterExponent(3, 3, 13)) == 13


def test_canonical_exponent_idempotent():
    for ell, h in SMALL:
        for n_f in range(ell ** h - 1):
            c = canonical_exponent(TameCharacterExponent(ell, h, n_f))
            assert canonical_exponent(TameCharacterExponent(ell, h, c)) == c


def test_invalid_exponent_rejected():
    with pytest.raises(ValueError):
        TameCharacterExponent(5, 2, 24)  # modulus is 24, max exponent 23
    with pytest.raises(ValueError):
        TameCharacterExponent(4, 2, 1)   # 4 not prime
    with pytest.raises(ValueError):
        TameCharacterExponent(5, 0, 0)


def test_the_level_bound_refuses_only_levels_no_nonzero_orbit_prints_at():
    ell = next_prime(10 ** 24)
    h = 1
    while ell ** h < 10 ** DIGIT_LIMIT:
        h += 1
    # ell^(h-1) < 10^4300 <= ell^h - 1: the orbit of 1 still prints at level h
    assert max(frobenius_orbit(TameCharacterExponent(ell, h, 1))) == ell ** (h - 1)
    with pytest.raises(PreconditionError, match=f"level {h + 1} is too large"):
        TameCharacterExponent(ell, h + 1, 0)
    with pytest.raises(PreconditionError):
        TameCharacterExponent(2, 10 ** 9, -1)  # before the exponent's range


# exhaustive invariance suites over ell in {2,3,5,7}, h <= 3

def test_digit_multiset_constant_on_frobenius_orbits():
    for ell, h in SMALL:
        for n_f in range(ell ** h - 1):
            c = TameCharacterExponent(ell, h, n_f)
            base = digit_weights(c)
            for m in frobenius_orbit(c):
                assert digit_weights(TameCharacterExponent(ell, h, m)) == base


def test_norm_relation_digits():
    # k * (1 + ell + ... + ell^{h-1}) has all h digits equal to k
    for ell, h in SMALL:
        norm = (ell ** h - 1) // (ell - 1)
        for k in range(ell):
            assert base_digits(k * norm, ell, h) == Counter({k: h})


def test_digit_sum_congruence():
    for ell, h in SMALL:
        if ell == 2 and h == 1:
            continue  # modulus ell - 1 = 1 makes the congruence vacuous
        for n_f in range(ell ** h - 1):
            digits = digit_weights(TameCharacterExponent(ell, h, n_f))
            assert sum(digits.elements()) % (ell - 1) == n_f % (ell - 1)
