from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semistable_gate.errors import InternalConsistencyError
from semistable_gate.intpoly import (
    IntPolynomial,
    _newton_sums,
    from_power_sums,
    from_prime_power_roots,
    poly_gcd,
    poly_mul,
    power_transform,
    real_root_count,
    synthetic_division,
)


def numeric_power_transform(f: IntPolynomial, s: int) -> tuple[int, ...]:
    """Independent oracle: complex roots of f, powered, re-symmetrized,
    rounded to the nearest integers.  Tolerance 1e-6 before rounding."""
    roots = np.roots(list(reversed(f.coeffs))) ** s
    coeffs = np.poly(roots)  # highest degree first
    rounded = [round(c.real) for c in coeffs]
    assert all(abs(c.real - r) < 0.5 for c, r in zip(coeffs, rounded))
    return tuple(reversed(rounded))


monic_polys = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(st.integers(-10, 10), min_size=n, max_size=n).map(
        lambda low: IntPolynomial(tuple(low) + (1,))))


def power_sums(f: IntPolynomial, m: int) -> tuple[int, ...]:
    """p_1, ..., p_m, the sums of the j-th powers of f's roots, as
    power_transform reads them from Newton's identities."""
    return tuple(islice(_newton_sums(f), m))


def test_non_monic_rejected():
    with pytest.raises(ValueError):
        IntPolynomial((1, 2))
    with pytest.raises(ValueError):
        IntPolynomial(())


def test_power_sums_single_root():
    assert power_sums(IntPolynomial((-2, 1)), 3) == (2, 4, 8)


def test_power_sums_complex_pair():
    # oracle: roots (-1 +/- i*sqrt(7))/2, powered and summed numerically
    f = IntPolynomial((2, 1, 1))
    roots = np.roots([1, 1, 2])
    expected = tuple(round((roots[0] ** j + roots[1] ** j).real) for j in range(1, 5))
    assert expected == (-1, -3, 5, 1)
    assert power_sums(f, 4) == (-1, -3, 5, 1)


def test_power_sums_double_root():
    assert power_sums(IntPolynomial((1, -2, 1)), 2) == (2, 2)


def test_from_power_sums_examples():
    assert from_power_sums((2, 4), 2).coeffs == (0, -2, 1)
    assert from_power_sums((-3, 1), 2).coeffs == (4, 3, 1)
    assert from_power_sums((0, 0, 0), 3).coeffs == (0, 0, 0, 1)


def test_from_power_sums_non_integral():
    with pytest.raises(InternalConsistencyError, match=r"^a_0 = 1/2 is not an integer$"):
        from_power_sums((1, 0), 2)  # e_2 = 1/2


def test_power_transform_examples():
    assert power_transform(IntPolynomial((2, 1, 1)), 2).coeffs == (4, 3, 1)
    f = IntPolynomial((7, -3, 2, 1))
    assert power_transform(f, 1) is f
    assert power_transform(IntPolynomial((-3, 1)), 4).coeffs == (-81, 1)


def test_from_prime_power_roots_examples():
    assert from_prime_power_roots(2, (1, 1)).coeffs == (4, -4, 1)
    assert from_prime_power_roots(3, (0,)).coeffs == (-1, 1)
    assert from_prime_power_roots(2, (0, 2)).coeffs == (4, -5, 1)


@given(monic_polys)
def test_round_trip(f):
    n = f.degree
    assert from_power_sums(power_sums(f, n), n) == f


@given(monic_polys, st.integers(1, 4))
@settings(max_examples=200)
def test_power_transform_matches_numeric_oracle(f, s):
    assert power_transform(f, s).coeffs == numeric_power_transform(f, s)


@given(monic_polys, st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=100)
def test_power_transform_composes(f, s, t):
    assert power_transform(power_transform(f, s), t) == power_transform(f, s * t)


@given(monic_polys, st.integers(1, 4))
def test_constant_coefficient_is_powered(f, s):
    n = f.degree
    # e_n(alpha^s) = e_n(alpha)^s
    e_n = (-1) ** n * f.coeffs[0]
    g = power_transform(f, s)
    assert (-1) ** n * g.coeffs[0] == e_n ** s


def test_power_transform_s_zero_sends_roots_to_one():
    f = IntPolynomial((2, 1, 1))
    assert power_transform(f, 0).coeffs == (1, -2, 1)


def test_poly_mul():
    f = IntPolynomial((-2, 1))
    g = IntPolynomial((-4, 1))
    assert poly_mul(f, g).coeffs == (8, -6, 1)


def test_synthetic_division():
    f = (2, 1, 1)  # T^2 + T + 2 = (T - x)(T + x + 1) + f(x)
    assert synthetic_division(f, 0) == ([1, 1], 2)
    assert synthetic_division(f, 1) == ([2, 1], 4)
    assert synthetic_division(f, -2) == ([-1, 1], 4)
    assert synthetic_division((5,), 3) == ([], 5)
    assert synthetic_division((), 3) == ([], 0)


def test_poly_gcd_examples():
    # (x-1)^2 (x+2) and 6 (x-1)(x+3): gcd x - 1, primitive, up to sign
    a, b = times([-1, 1], [-1, 1], [2, 1]), times([6], [-1, 1], [3, 1])
    assert poly_gcd(a, b) in ([-1, 1], [1, -1])
    assert poly_gcd(times(a, a, [5, 0, 1]), times(a, [7, 1])) in (a, [-c for c in a])
    assert poly_gcd([2, 0, 1], [3, 1]) in ([1], [-1])
    assert poly_gcd([0, 4, 2], []) == [0, 2, 1]


def times(*factors):
    """Product of integer polynomials given lowest degree first."""
    out = [1]
    for f in factors:
        out = [sum(out[j] * f[i - j] for j in range(len(out)) if 0 <= i - j < len(f))
               for i in range(len(out) + len(f) - 1)]
    return out


def test_real_root_count_with_multiplicity():
    # (y - 1)^3 (y - 3) (2y + 1): roots 1, 1, 1, 3 and -1/2
    p = times([-1, 1], [-1, 1], [-1, 1], [-3, 1], [1, 2])
    assert real_root_count(p, -2, 2) == 4
    assert real_root_count(p, -2, 4) == 5
    assert real_root_count(p, 0, 2) == 3
    assert real_root_count([-c for c in p], -2, 2) == 4
    assert real_root_count(times([1, 0, 1], [1, -3]), -2, 2) == 1  # (y^2 + 1)(1 - 3y)
    assert real_root_count([5], -2, 2) == 0


@given(st.lists(st.tuples(st.integers(-6, 6), st.sampled_from([-3, -2, -1, 1, 2, 3])),
                min_size=1, max_size=6))
@settings(deadline=None)
def test_real_root_count_matches_the_factors(factors):
    # root 2r of lead*(y - 2r), with either sign of lead: the odd ends are never roots
    p = times(*([-2 * r * lead, lead] for r, lead in factors))
    assert real_root_count(p, -5, 5) == sum(abs(r) <= 2 for r, _ in factors)
