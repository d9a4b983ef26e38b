"""Exact monic integer polynomial arithmetic.

Supports Newton power sums in both directions, the roots-to-s-th-powers
transform, gcds and Sturm real-root counts.  All coefficient arithmetic uses
Python ints, so nothing here can overflow.  Coefficients are stored lowest
degree first: ``coeffs[i]`` is the coefficient of T^i.  `IntPolynomial` and
`PowerSums` are named tuples (immutable, hashable, equal by value) that check
and coerce their fields to int when built.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .errors import NonIntegralSymmetricFunction


class IntPolynomial(namedtuple("IntPolynomial", "coeffs")):
    """Monic polynomial with integer coefficients, lowest degree first."""

    __slots__ = ()

    def __new__(cls, coeffs: Iterable[int]):
        coeffs = tuple(int(c) for c in coeffs)
        if not coeffs:
            raise ValueError("empty coefficient sequence")
        if coeffs[-1] != 1:
            raise ValueError(f"polynomial is not monic: leading coefficient {coeffs[-1]}")
        return super().__new__(cls, coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def elementary_symmetric(self) -> list[int]:
        """e_0, e_1, ..., e_n of the roots: e_m = (-1)^m * coeffs[n-m]."""
        n = self.degree
        return [(-1) ** m * self.coeffs[n - m] for m in range(n + 1)]

    def __str__(self) -> str:
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0 and i != 0:
                continue
            if i == 0:
                terms.append(f"{c:+d}" if terms else f"{c}")
            elif i == 1:
                terms.append(f"{c:+d}*T" if terms else f"{c}*T")
            else:
                terms.append(f"{c:+d}*T^{i}" if terms else f"{c}*T^{i}")
        return " ".join(terms) if terms else "0"


class PowerSums(namedtuple("PowerSums", "values source_degree")):
    """p_1, ..., p_m of the roots of a monic degree-n integer polynomial."""

    __slots__ = ()

    def __new__(cls, values: Iterable[int], source_degree: int):
        return super().__new__(cls, tuple(int(v) for v in values), source_degree)


def monic_from_elementary(e: Sequence[int]) -> IntPolynomial:
    """Build the monic polynomial with elementary symmetric functions e_1..e_n."""
    n = len(e) - 1  # e[0] == 1
    coeffs = [(-1) ** m * e[m] for m in range(n, -1, -1)]
    return IntPolynomial(tuple(coeffs))


def poly_mul(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Exact product of two monic polynomials."""
    out = [0] * (f.degree + g.degree + 1)
    for i, a in enumerate(f.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(g.coeffs):
            out[i + j] += a * b
    return IntPolynomial(tuple(out))


def _primitive(a: list[int]) -> list[int]:
    """a without trailing zeros, over the (positive) gcd of its coefficients."""
    while a and a[-1] == 0:
        a.pop()
    c = math.gcd(*a)
    return [x // c for x in a] if c > 1 else a


def _remainder_sequence(a: Sequence[int], b: Sequence[int]) -> list[list[int]]:
    """a, b, then each negated remainder of the last two, times a positive
    integer and primitive (unlike a Fraction Euclid's, coefficients stay
    small), up to gcd(a, b); with b = a' a Sturm sequence."""
    seq = [_primitive(list(a)), _primitive(list(b))]
    while seq[-1]:
        r, d = list(seq[-2]), seq[-1]
        lead, sign = abs(d[-1]), 1 if d[-1] > 0 else -1
        while len(r) >= len(d):
            c, shift = r[-1] * sign, len(r) - len(d)
            r = [lead * x for x in r]
            for i, y in enumerate(d):
                r[shift + i] -= c * y
            r = _primitive(r)
        seq.append([-x for x in r])
    return seq[:-1]


def poly_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """gcd in Z[x], primitive, up to sign."""
    return _remainder_sequence(a, b)[-1]


def real_root_count(p: Sequence[int], lo: int, hi: int) -> int:
    """Real roots of p in (lo, hi) with multiplicity; lo and hi are no roots.
    Sturm counts distinct roots, and the sequence of p and its derivative
    ends in gcd(p, p'), with the repeated roots once less; so repeat on it."""
    count = 0
    while len(p) > 1:
        seq = _remainder_sequence(p, [i * c for i, c in enumerate(p)][1:])
        for x, sign in ((lo, 1), (hi, -1)):
            signs = [v > 0 for v in (sum(c * x ** i for i, c in enumerate(r)) for r in seq) if v]
            count += sign * sum(a != b for a, b in zip(signs, signs[1:]))
        p = seq[-1]
    return count


def power_sums(f: IntPolynomial, m: int) -> PowerSums:
    """First m power sums p_j = sum of j-th powers of the roots of f.

    Newton's identities over exact integers; every p_j is an integer
    because the e_i are.
    """
    if m < 1:
        raise ValueError("m must be positive")
    n = f.degree
    e = f.elementary_symmetric()
    p: list[int] = []
    for j in range(1, m + 1):
        # p_j = sum_{i=1}^{min(j,n)} (-1)^{i-1} e_i p_{j-i}, with p_0 := j for the i=j term
        acc = 0
        for i in range(1, min(j, n) + 1):
            prev = j if i == j else p[j - i - 1]
            acc += (-1) ** (i - 1) * e[i] * prev
        p.append(acc)
    return PowerSums(tuple(p), n)


def from_power_sums(p: PowerSums | Iterable[int], n: int) -> IntPolynomial:
    """Unique monic degree-n polynomial whose roots have the given power sums.

    Inverts Newton's identities, m*e_m = sum_{i=1}^m (-1)^{i-1} e_{m-i} p_i,
    with exact division by m.  Raises NonIntegralSymmetricFunction when a
    division is not exact.
    """
    values = p.values if isinstance(p, PowerSums) else tuple(int(v) for v in p)
    if len(values) < n:
        raise ValueError(f"need at least {n} power sums, got {len(values)}")
    e = [1]
    for m in range(1, n + 1):
        acc = 0
        for i in range(1, m + 1):
            acc += (-1) ** (i - 1) * e[m - i] * values[i - 1]
        q, rem = divmod(acc, m)
        if rem:
            raise NonIntegralSymmetricFunction(
                f"e_{m} = {acc}/{m} is not an integer")
        e.append(q)
    return monic_from_elementary(e)


def power_transform(f: IntPolynomial, s: int) -> IntPolynomial:
    """Monic integer polynomial whose roots are the s-th powers of f's roots.

    Extracts p_s, p_2s, ..., p_ns from power_sums(f, n*s) and rebuilds via
    from_power_sums.  s = 0 sends every root to 1, giving (T-1)^n.
    """
    if s < 0:
        raise ValueError("s must be non-negative")
    n = f.degree
    if s == 0:
        return monic_from_elementary([math.comb(n, m) for m in range(n + 1)])
    if s == 1:
        return f
    all_sums = power_sums(f, n * s).values
    selected = [all_sums[j * s - 1] for j in range(1, n + 1)]
    return from_power_sums(selected, n)


def from_prime_power_roots(q: int, t: Iterable[int]) -> IntPolynomial:
    """Expand prod_k (T - q^{t_k}) exactly."""
    if q < 2:
        raise ValueError("q must be at least 2")
    coeffs = [1]
    for tk in t:
        root = q ** int(tk)
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= root * coeffs[i + 1]
    return IntPolynomial(tuple(coeffs))
