"""Weil-weight validation for monic integer polynomials.

A "Weil datum" is a characteristic polynomial together with a prime power q
and a weight multiset; validity means every root has complex absolute value
q^{w/2} for a matched weight w.  Root absolute values are checked numerically
at a documented tolerance; the exact functional-equation test is a cheaper
necessary condition for the uniform-weight case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RootFindingFailure
from .intpoly import IntPolynomial

DEGREE_CAP = 64
DEFAULT_TOLERANCE = 1e-6


@dataclass(frozen=True)
class WeilDatum:
    """A monic integer polynomial asserted to have roots of absolute values
    q^{w_k/2}, with total weight at most weight_budget."""

    poly: IntPolynomial
    q: int
    weights: tuple[int, ...]
    weight_budget: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(sorted(int(w) for w in self.weights)))
        if len(self.weights) != self.poly.degree:
            raise ValueError("weight multiset size must equal the polynomial degree")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        if sum(self.weights) > self.weight_budget:
            raise ValueError(
                f"total weight {sum(self.weights)} exceeds budget {self.weight_budget}")

    def validate(self, tolerance: float = DEFAULT_TOLERANCE) -> bool:
        return validate_weights(self.poly, self.q, self.weights, tolerance)


def root_abs_values(poly: IntPolynomial) -> list[float]:
    """Sorted absolute values of the complex roots, via the companion matrix."""
    if poly.degree > DEGREE_CAP:
        raise RootFindingFailure(f"degree {poly.degree} exceeds cap {DEGREE_CAP}")
    try:  # numpy wants highest degree first
        roots = np.roots([float(c) for c in reversed(poly.coeffs)])
    except OverflowError as exc:
        raise RootFindingFailure("a coefficient exceeds the float range") from exc
    if not np.all(np.isfinite(roots)):
        raise RootFindingFailure("root finder returned non-finite values")
    return sorted(abs(complex(z)) for z in roots)


def validate_weights(poly: IntPolynomial, q: int, weights, tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """True iff the multiset of root absolute values matches {q^{w/2}}.

    Both sides are sorted, so optimal matching reduces to pairwise comparison
    at the given relative tolerance.
    """
    weights = sorted(int(w) for w in weights)
    if len(weights) != poly.degree:
        raise ValueError("weight multiset size must equal the polynomial degree")
    if not 0 < tolerance < 0.5:
        raise ValueError("tolerance must lie in (0, 0.5)")
    observed = root_abs_values(poly)
    targets = sorted(float(q) ** (w / 2) for w in weights)
    return all(
        abs(a - b) <= tolerance * max(b, 1.0)
        for a, b in zip(observed, targets)
    )


def functional_equation_check(poly: IntPolynomial, q: int, w: int) -> bool:
    """Exact necessary condition for uniform weight w: T^n * poly(q^w / T)
    equals +/- q^{nw/2} * poly(T) as an integer polynomial identity.

    Returns False when n*w is odd (the right side is not integral).
    """
    n = poly.degree
    if (n * w) % 2 == 1:
        return False
    qw = q ** w
    # coefficient of T^i in T^n * poly(q^w/T) is coeffs[n-i] * q^{w*(n-i)}
    lhs = [poly.coeffs[n - i] * qw ** (n - i) for i in range(n + 1)]
    scale = isqrt_exact(q ** (n * w))
    for sign in (1, -1):
        if all(l == sign * scale * c for l, c in zip(lhs, poly.coeffs)):
            return True
    return False


def isqrt_exact(m: int) -> int:
    """Integer square root of a perfect square; raises otherwise."""
    r = math.isqrt(m)
    if r * r != m:
        raise ValueError(f"{m} is not a perfect square")
    return r


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
