"""Weil-weight validation for monic integer polynomials.

A "Weil datum" is a characteristic polynomial, a prime power q and a weight
multiset, and no budget (a gate instance holds that); it is valid when every
root has absolute value q^{w/2} for a matched weight w, checked exactly by
counting roots on circles (Kedlaya, "Search techniques for root-unitary polynomials", 2008).
The functional-equation test is a cheaper necessary condition for the
uniform-weight case.
"""

import math
from collections import namedtuple

from .errors import PreconditionError, SchemaError, exact_ints
from .intpoly import IntPolynomial, poly_gcd, power_transform, real_root_count, synthetic_division


class WeilDatum(namedtuple("WeilDatum", "poly q weights")):
    """A monic integer polynomial whose roots have absolute values q^{w_k/2};
    weights are kept sorted.  The root absolute values are checked when the
    datum is built, so a datum that exists is valid."""

    __slots__ = ()

    def __new__(cls, poly: IntPolynomial, q: int, weights):
        weights = tuple(sorted(exact_ints(weights, "weights")))
        if any(w < 0 for w in weights):
            raise SchemaError("weights must be non-negative")
        if not validate_weights(poly, q, weights):
            raise PreconditionError("datum fails the root absolute-value check")
        return super().__new__(cls, poly, q, weights)


def validate_weights(poly: IntPolynomial, q: int, weights) -> bool:
    """True iff the root absolute values are {q^{w/2} : w in weights}: each
    circle |z| = q^w carries as many roots alpha^2 as w has entries."""
    weights = sorted(exact_ints(weights, "weights"))
    if len(weights) != poly.degree:
        raise SchemaError("weight multiset size must equal the polynomial degree")
    if weights and weights[0] < 0:
        return False  # alpha * conj(alpha) = q^w < 1 is no algebraic integer
    F = power_transform(poly, 2).coeffs
    # Cauchy: every root has |z| < 1 + max|F_i|, which q^w passes by bit length
    bound_bits = (1 + max(map(abs, F[:-1]), default=0)).bit_length()
    return all(
        w * (q.bit_length() - 1) < bound_bits and _circle_count(F, q ** w) == weights.count(w)
        for w in set(weights))


def _circle_count(F: tuple[int, ...], radius: int) -> int:
    """Roots of F on |z| = radius, with multiplicity.  Past u = +-1, those of
    f(u) = F(radius*u) on |u| = 1 are common to f and rev f (1/u = conj u), so
    to f + rev f and f - rev f; each root in (-2, 2) of the gcd of their
    traces is a conjugate pair there."""
    f, plus = _strip_roots([c * radius ** i for i, c in enumerate(F)], 1)
    f, minus = _strip_roots(f, -1)
    h = poly_gcd(*(_trace([a + sign * b for a, b in zip(f, f[::-1])]) for sign in (1, -1)))
    return plus + minus + 2 * real_root_count(h, -2, 2)


def _strip_roots(a: list[int], x: int) -> tuple[list[int], int]:
    """a with its roots x = +-1 divided out, and their number."""
    count = 0
    while a:
        quotient, value = synthetic_division(a, x)
        if value:
            break
        a, count = quotient, count + 1
    return a, count


def _trace(a: list[int]) -> list[int]:
    """h with u^k h(u + 1/u) = a(u) for (anti)palindromic a, rid of roots 0, +-1:
    u^-k a = a_k + sum_j a_{k+j} D_j(y), D_j(u + 1/u) = u^j + u^-j."""
    while a and not a[-1]:
        a = a[1:-1]
    a = _strip_roots(_strip_roots(a, 1)[0], -1)[0]
    k = len(a) // 2
    h, lower, dickson = a[k:k + 1] + [0] * k, [2], [0, 1]
    for j in range(1, k + 1):
        for i, c in enumerate(dickson):
            h[i] += a[k + j] * c
        lower, dickson = dickson, [s - t for s, t in zip([0] + dickson, lower + [0, 0])]
    return h


def functional_equation_check(poly: IntPolynomial, q: int, w: int) -> bool:
    """Exact necessary condition for uniform weight w: T^n * poly(q^w / T)
    equals c_0 * poly(T) as an integer polynomial identity, c_0 being the
    constant term (each root alpha has q^w / alpha = conj(alpha) as a root).

    False when w < 0, and by bit lengths, before any power, when q^{nw}
    exceeds c_0^2, which the T^0 coefficients say it must equal.
    """
    n, c0 = poly.degree, poly.coeffs[0]
    if w < 0 or n * w * (q.bit_length() - 1) >= 2 * abs(c0).bit_length():
        return False
    # coefficient of T^i in T^n * poly(q^w/T) is coeffs[n-i] * q^{w*(n-i)}
    return all(poly.coeffs[n - i] * q ** (w * (n - i)) == c0 * c
               for i, c in enumerate(poly.coeffs))


def enumerate_weil_quadratics(c: int) -> list[IntPolynomial]:
    """All T^2 - a*T + c with integer a, |a| <= 2*sqrt(c): for c = q^w, the
    Weil quadratics of weight w, 2*isqrt(4c) + 1 of them (the count
    `gate.counterexample_search` budgets before it lists any).

    Every such quadratic has both roots of absolute value sqrt(c): the
    discriminant is <= 0 off the boundary (conjugate pair of product c), and
    the boundary gives a double real root of absolute value sqrt(c) exactly
    when c is a perfect square.
    """
    if c < 1:
        raise ValueError("c must be positive")
    a_max = math.isqrt(4 * c)
    return [IntPolynomial((c, -a, 1)) for a in range(-a_max, a_max + 1)]
