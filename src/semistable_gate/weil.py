"""Weil-weight validation for monic integer polynomials.

A "Weil datum" is a characteristic polynomial together with a prime power q
and a weight multiset; validity means every root has complex absolute value
q^{w/2} for a matched weight w, which is checked exactly by counting roots on
circles (Kedlaya, "Search techniques for root-unitary polynomials", 2008).
The functional-equation test is a cheaper necessary condition for the
uniform-weight case.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import RootFindingFailure, brief
from .intpoly import IntPolynomial, power_transform, poly_gcd, real_root_count

DEGREE_CAP = 64


class WeilDatum(namedtuple("WeilDatum", "poly q weights weight_budget")):
    """A monic integer polynomial asserted to have roots of absolute values
    q^{w_k/2}, with total weight at most weight_budget; weights are kept
    sorted."""

    __slots__ = ()

    def __new__(cls, poly: IntPolynomial, q: int, weights, weight_budget: int):
        weights = tuple(sorted(int(w) for w in weights))
        if len(weights) != poly.degree:
            raise ValueError("weight multiset size must equal the polynomial degree")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        if sum(weights) > weight_budget:
            raise ValueError(f"total weight {brief(sum(weights))} exceeds budget {brief(weight_budget)}")
        return super().__new__(cls, poly, q, weights, weight_budget)

    def validate(self) -> bool:
        return validate_weights(self.poly, self.q, self.weights)


def validate_weights(poly: IntPolynomial, q: int, weights) -> bool:
    """True iff the root absolute values are {q^{w/2} : w in weights}: each
    circle |z| = q^w carries as many roots alpha^2 as w has entries."""
    weights = sorted(int(w) for w in weights)
    if len(weights) != poly.degree:
        raise ValueError("weight multiset size must equal the polynomial degree")
    if poly.degree > DEGREE_CAP:
        raise RootFindingFailure(f"degree {poly.degree} exceeds cap {DEGREE_CAP}")
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
    while a and not sum(c * x ** i for i, c in enumerate(a)):
        a = [sum(a[j] * x ** (j - i - 1) for j in range(i + 1, len(a))) for i in range(len(a) - 1)]
        count += 1
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
    equals +/- q^{nw/2} * poly(T) as an integer polynomial identity.

    False when w < 0 or n*w is odd (the right side is not integral), and by
    bit lengths, before any power, when q^{nw} exceeds c_0^2, which it must equal.
    """
    n, c0 = poly.degree, poly.coeffs[0]
    if w < 0 or n * w % 2 or n * w * (q.bit_length() - 1) >= 2 * abs(c0).bit_length():
        return False
    qw, scale = q ** w, q ** (n * w // 2)
    # coefficient of T^i in T^n * poly(q^w/T) is coeffs[n-i] * q^{w*(n-i)}
    return any(all(poly.coeffs[n - i] * qw ** (n - i) == sign * scale * c
                   for i, c in enumerate(poly.coeffs)) for sign in (1, -1))


def enumerate_weil_quadratics(q: int, w: int) -> list[IntPolynomial]:
    """All T^2 - a*T + q^w with integer a, |a| <= 2*q^{w/2}.

    Every such quadratic has both roots of absolute value q^{w/2}:
    the discriminant is <= 0 off the boundary (conjugate pair of product
    q^w), and the boundary gives a double real root of absolute value
    q^{w/2} exactly when q^w is a perfect square.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    qw = q ** w
    a_max = math.isqrt(4 * qw)
    return [IntPolynomial((qw, -a, 1)) for a in range(-a_max, a_max + 1)]
