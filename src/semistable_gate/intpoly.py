"""Exact monic integer polynomial arithmetic.

Newton's identities in both directions, the roots-to-s-th-powers transform,
synthetic division by T - x, gcds and Sturm real-root counts.  All
coefficient arithmetic uses Python ints, so nothing here can overflow.
Coefficients are stored lowest degree first: ``coeffs[i]`` is the
coefficient of T^i.  `IntPolynomial` is a named tuple (immutable, hashable,
equal by value) that refuses, when built, a coefficient that is not an
integer and a degree past DEGREE_CAP, so every polynomial meets both.
"""

import math
from collections import deque, namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import count, islice
from operator import mul

from .errors import InternalConsistencyError, PreconditionError, SchemaError, brief, exact_ints

DEGREE_CAP = 64


class IntPolynomial(namedtuple("IntPolynomial", "coeffs")):
    """Monic polynomial with integer coefficients, lowest degree first."""

    __slots__ = ()

    def __new__(cls, coeffs: Iterable[int]):
        coeffs = exact_ints(coeffs, "coefficients")
        if not coeffs:
            raise SchemaError("empty coefficient sequence")
        if coeffs[-1] != 1:
            raise SchemaError(f"polynomial is not monic: leading coefficient {coeffs[-1]}")
        if len(coeffs) > DEGREE_CAP + 1:
            raise PreconditionError(f"degree {len(coeffs) - 1} exceeds cap {DEGREE_CAP}")
        return super().__new__(cls, coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def poly_mul(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Exact product of two monic polynomials."""
    out = [0] * (f.degree + g.degree + 1)
    for i, a in enumerate(f.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(g.coeffs):
            out[i + j] += a * b
    return IntPolynomial(tuple(out))


def synthetic_division(a: Sequence[int], x: int) -> tuple[list[int], int]:
    """The quotient of a by T - x, lowest degree first, and the value a(x)
    (Horner's rule)."""
    quotient, acc = [], 0
    for c in reversed(a):
        quotient.append(acc)
        acc = acc * x + c
    return quotient[:0:-1], acc


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
            signs = [v > 0 for v in (synthetic_division(r, x)[1] for r in seq) if v]
            count += sign * sum(a != b for a, b in zip(signs, signs[1:]))
        p = seq[-1]
    return count


def _newton_sums(f: IntPolynomial) -> Iterator[int]:
    """p_1, p_2, ... without end, by Newton's identities on f's coefficients
    a_i: p_j + a_{n-1} p_{j-1} + ... + a_{n-j+1} p_1 + j a_{n-j} = 0, with
    a_{n-j} = 0 past j = n.  Only the last n sums are kept."""
    a = f.coeffs[-2::-1]  # a_{n-1}, ..., a_0
    last: deque[int] = deque(maxlen=len(a))  # p_{j-1}, ..., p_{j-n}
    for j in count(1):
        acc = sum(map(mul, a, last))
        if j <= len(a):
            acc += j * a[j - 1]
        last.appendleft(-acc)
        yield -acc


def from_power_sums(p: Sequence[int], n: int) -> IntPolynomial:
    """Unique monic degree-n polynomial whose roots have the power sums
    p_1, p_2, ...: Newton's identities solved for a_{n-1}, ..., a_0 in turn,
    each by an exact division by j.  A division that is not exact raises
    InternalConsistencyError: no algebraic integers have such power sums."""
    if len(p) < n:
        raise ValueError(f"need at least {n} power sums, got {len(p)}")
    a: list[int] = []  # a_{n-1}, ..., a_{n-j+1}
    for j in range(1, n + 1):
        num = -p[j - 1] - sum(map(mul, a, reversed(p[:j - 1])))
        c, rem = divmod(num, j)
        if rem:
            raise InternalConsistencyError(f"a_{n - j} = {num}/{j} is not an integer")
        a.append(c)
    return IntPolynomial(a[::-1] + [1])


def power_transform(f: IntPolynomial, s: int) -> IntPolynomial:
    """Monic integer polynomial whose roots are the s-th powers of f's roots:
    from p_s, p_2s, ..., p_ns, read off the stream of power sums.  s = 0 sends
    every root to 1, giving (T-1)^n."""
    if s < 0:
        raise SchemaError("s must be non-negative")
    n = f.degree
    if s == 0:
        return IntPolynomial((-1) ** (n - i) * math.comb(n, i) for i in range(n + 1))
    if s == 1:
        return f
    return from_power_sums(tuple(islice(_newton_sums(f), s - 1, n * s, s)), n)


def from_prime_power_roots(q: int, t: Iterable[int]) -> IntPolynomial:
    """Expand prod_k (T - q^{t_k}) exactly; each t_k is a non-negative integer."""
    if q < 2:
        raise ValueError("q must be at least 2")
    t = exact_ints(t, "t")
    if t and min(t) < 0:
        raise SchemaError(f"t_k must be non-negative, got {brief(min(t))}")
    coeffs = [1]
    for tk in t:
        root = q ** tk
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= root * coeffs[i + 1]
    return IntPolynomial(tuple(coeffs))
