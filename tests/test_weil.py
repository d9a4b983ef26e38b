import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from semistable_gate.errors import PreconditionError
from semistable_gate.gate import CongruenceInstance
from semistable_gate.intpoly import IntPolynomial, poly_mul
from semistable_gate.weil import (
    WeilDatum,
    enumerate_weil_quadratics,
    functional_equation_check,
    validate_weights,
)


def test_validate_weights_examples():
    # |(-1 +/- i sqrt 7)/2| = sqrt 2 = 2^{1/2}
    assert validate_weights(IntPolynomial((2, 1, 1)), 2, [1, 1])
    assert validate_weights(IntPolynomial((-4, 1)), 2, [4])
    # roots approx 4.56 and 0.44: neither is sqrt 2
    assert not validate_weights(IntPolynomial((2, -5, 1)), 2, [1, 1])


def test_validate_weights_permutation_invariant():
    f = poly_mul(IntPolynomial((-2, 1)), IntPolynomial((-4, 1)))
    assert validate_weights(f, 2, [2, 4])
    assert validate_weights(f, 2, [4, 2])


def test_validate_weights_degree_cap():
    # the cap is IntPolynomial's, so no polynomial past it reaches validate_weights
    coeffs = (0,) * 65 + (1,)
    with pytest.raises(PreconditionError, match=r"^degree 65 exceeds cap 64$"):
        validate_weights(IntPolynomial(coeffs), 2, [0] * 65)


def test_validate_weights_size_mismatch():
    with pytest.raises(ValueError):
        validate_weights(IntPolynomial((2, 1, 1)), 2, [1])


def test_functional_equation_examples():
    # T^2*(4/T^2 + 2/T + 2) = 2*(T^2 + T + 2): sign +
    assert functional_equation_check(IntPolynomial((2, 1, 1)), 2, 1)
    assert functional_equation_check(IntPolynomial((-1, 1)), 2, 0)
    # expansion gives T^2 - 6T + 4, not +/-2*(T^2 - 3T + 1)
    assert not functional_equation_check(IntPolynomial((1, -3, 1)), 2, 1)


def test_functional_equation_odd_nw():
    assert not functional_equation_check(IntPolynomial((-2, 1)), 2, 1)


@pytest.mark.parametrize("coeffs,q,w,holds", [
    ((-2, 1), 4, 1, True),              # T*(4/T - 2) = 4 - 2T = -2*(T - 2)
    ((-8, 1), 4, 3, True),              # T*(64/T - 8) = 64 - 8T = -8*(T - 8)
    ((-3, 1), 4, 1, False),             # T^0: 4 != (-3)^2
    ((3, 1), 9, 1, True),               # T*(9/T + 3) = 9 + 3T = 3*(T + 3)
    ((-27, 9, -3, 1), 9, 1, True),      # (T - 3)(T^2 + 9): 729 - 243T + 81T^2 - 27T^3
    ((3, -4, 1), 9, 1, False),          # (T - 1)(T - 3): T^0 says 81 = 3^2
    ((4, -5, 1), 4, 1, True),           # (T - 1)(T - 4): 4/alpha swaps the roots, which
])                                      # are off the circle: necessary, not sufficient
def test_functional_equation_at_a_square_q(coeffs, q, w, holds):
    assert functional_equation_check(IntPolynomial(coeffs), q, w) is holds


def test_enumerate_weil_quadratics_examples():
    # the argument is the constant term q^w
    polys = enumerate_weil_quadratics(2)
    assert sorted(-p.coeffs[1] for p in polys) == [-2, -1, 0, 1, 2]
    assert all(p.coeffs[0] == 2 for p in polys)
    assert sorted(-p.coeffs[1] for p in enumerate_weil_quadratics(4)) == list(range(-4, 5))
    w0 = enumerate_weil_quadratics(1)  # weight 0
    assert sorted(-p.coeffs[1] for p in w0) == [-2, -1, 0, 1, 2]
    assert all(p.coeffs[0] == 1 for p in w0)
    assert len(enumerate_weil_quadratics(101)) == 41  # |a| <= 2*sqrt(101) = 20.09...
    with pytest.raises(ValueError, match="^c must be positive$"):
        enumerate_weil_quadratics(0)


@pytest.mark.parametrize("q,w", [(2, 0), (2, 1), (2, 2), (3, 1), (4, 1), (5, 2)])
def test_enumerated_quadratics_validate(q, w):
    for p in enumerate_weil_quadratics(q ** w):
        assert validate_weights(p, q, [w, w]), p


def test_product_validates_with_union_multiset():
    f = IntPolynomial((2, 1, 1))   # weights {1,1} at q=2
    g = IntPolynomial((-4, 1))     # weight {4} at q=2
    assert validate_weights(poly_mul(f, g), 2, [1, 1, 4])


def test_weil_datum_constraints():
    datum = WeilDatum(IntPolynomial((2, 1, 1)), 2, (1, 1))
    with pytest.raises(ValueError, match=r"^total weight 2 exceeds budget 1$"):
        CongruenceInstance(datum, 1, 1, (1, 1), w_bar=1)  # budget too small
    with pytest.raises(ValueError):
        WeilDatum(IntPolynomial((2, 1, 1)), 2, (1,))    # size mismatch


@st.composite
def uniform_weight_products(draw):
    """(f, q, w): a product of Weil quadratics of weight w and, where q^w is
    a square, linear factors T +- q^(w/2), with every root on |z| = q^(w/2)."""
    q, w = draw(st.sampled_from([2, 3, 4, 8, 9, 25, 27])), draw(st.integers(0, 3))
    quadratics = enumerate_weil_quadratics(q ** w)
    factors = draw(st.lists(st.sampled_from(quadratics), max_size=3))
    root = math.isqrt(q ** w)
    if root * root == q ** w:
        factors += draw(st.lists(st.sampled_from([IntPolynomial((-root, 1)),
                                                  IntPolynomial((root, 1))]), max_size=3))
    assume(factors)
    f = IntPolynomial((1,))
    for g in factors:
        f = poly_mul(f, g)
    return f, q, w


@given(uniform_weight_products())
@example((IntPolynomial((-2, 1)), 4, 1))
@example((IntPolynomial((-27, 9, -3, 1)), 9, 1))
def test_functional_equation_holds_on_weil_quadratics(case):
    # necessary condition: every genuine uniform-weight datum passes
    f, q, w = case
    assert validate_weights(f, q, [w] * f.degree)
    assert functional_equation_check(f, q, w)


def test_roots_on_the_real_axis_and_at_zero():
    # T^2 (T - 2)(T + 2) at q=4: 0 lies on no circle; +-2 on |z| = 4^(1/2)
    f = IntPolynomial((0, 0, -4, 0, 1))
    assert not validate_weights(f, 4, [0, 0, 1, 1])
    # (T - 1)(T + 1)(T - 4)(T + 4) at q=2: weights 0, 0, 4, 4
    g = poly_mul(IntPolynomial((-1, 0, 1)), IntPolynomial((-16, 0, 1)))
    assert validate_weights(g, 2, [0, 0, 4, 4])
    assert not validate_weights(g, 2, [0, 2, 2, 4])


# (q, [(w, index into enumerate_weil_quadratics(q ** w)), ...])
weil_products = st.tuples(
    st.sampled_from([2, 3, 4, 5]),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 10 ** 6)), min_size=1, max_size=4))


@given(weil_products)
@example((2, [(1, 2)] * 3))      # (T^2 + 2)^3
@example((3, [(2, 0)] * 2))      # (T + 3)^4
@example((4, [(1, 0), (1, 8), (0, 0)]))  # double roots -2, 2 and -1
@settings(deadline=None)
def test_products_of_weil_quadratics_validate(case):
    # every product of Weil quadratics, repeated factors and double roots included
    q, picks = case
    poly, weights = IntPolynomial((1,)), []
    for w, i in picks:
        quadratics = enumerate_weil_quadratics(q ** w)
        poly = poly_mul(poly, quadratics[i % len(quadratics)])
        weights += [w, w]
    assert validate_weights(poly, q, weights)


@given(weil_products, st.lists(st.sampled_from([0, 0, 1, -1]), min_size=4, max_size=4))
@settings(deadline=None)
def test_validate_weights_agrees_with_numpy_on_separated_roots(case, shifts):
    # T^2 - a*T + q^w + shift: shift != 0 moves both roots off the circle
    q, picks = case
    poly, weights = IntPolynomial((1,)), []
    for (w, i), shift in zip(picks, shifts):
        a_max = math.isqrt(4 * q ** w)
        poly = poly_mul(poly, IntPolynomial((q ** w + shift, -(i % (2 * a_max + 1) - a_max), 1)))
        weights += [w, w]
    roots = np.roots(list(reversed(poly.coeffs)))
    # the float oracle is reliable only on well-separated roots
    assume(min(abs(x - y) for x, y in combinations(roots, 2)) > 0.05)
    observed = sorted(abs(roots))
    targets = sorted(q ** (w / 2) for w in weights)
    expected = all(abs(x - y) <= 1e-9 * y for x, y in zip(observed, targets))
    assert validate_weights(poly, q, weights) == expected
