"""Congruence-forcing engine.

Given a Weil datum with Frobenius eigenvalues alpha_1..alpha_n, a power s and
a target exponent multiset t, decide whether the multiset congruence
{alpha_k^s} = {q^{t_k}} mod ell is forced into exact equality by the size
bound ell > 2 * c_n * ell0^(d*M*u).  Multiset congruence in the algebraic
closure is tested as coefficient-wise congruence of the two monic degree-n
polynomials, which is equivalent because both sides split there.  Neither
the bound nor the two sides depend on ell, so an instance has no ell: built
once, it holds its weight budget, bound (refused past DIGIT_LIMIT digits) and
both sides; `forced_equality(inst, ell)` compares them and enforces the lemma.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from itertools import combinations_with_replacement

from .bounds import lemma_bound, size_exponent
from .errors import (DIGIT_LIMIT, InternalConsistencyError, PreconditionError, SchemaError,
                     brief, exact_ints)
from .intpoly import IntPolynomial, from_prime_power_roots, poly_mul, power_transform
from .primes import prime_count_lower_bound, prime_power_base, primes_up_to
from .weil import WeilDatum, enumerate_weil_quadratics


class CongruenceInstance(namedtuple("CongruenceInstance", "datum s u t d r w_bar bound lhs rhs")):
    """The congruence {alpha_k^s} = {q^(t_k)} mod any prime ell, for a Weil
    datum of total weight at most w_bar (its own by default) over a field of
    degree d with Hodge-Tate bound r; t is kept sorted, bound is refused past
    DIGIT_LIMIT digits, and lhs = f_s, rhs = prod (T - q^(t_k)).  A t of the
    wrong length or weight past w_bar is a SchemaError, else a PreconditionError."""

    __slots__ = ()

    def __new__(cls, datum: WeilDatum, s: int, u: int, t, d: int = 1, r: int = 1,
                w_bar: int | None = None):
        total = sum(datum.weights)
        if total > (w_bar := total if w_bar is None else w_bar):
            raise SchemaError(f"total weight {brief(total)} exceeds budget {brief(w_bar)}")
        n, t = datum.poly.degree, tuple(sorted(exact_ints(t, "t")))
        if len(t) != n:
            raise SchemaError("t must have one entry per eigenvalue")
        if not 0 <= s <= u:
            raise PreconditionError(f"need 0 <= s <= u, got s={brief(s)}, u={brief(u)}")
        if any(not 0 <= tk <= r * u for tk in t):
            raise PreconditionError(f"every t_k must lie in [0, r*u] = [0, {brief(r * u)}]")
        if n == 0:
            raise PreconditionError("poly must have degree at least 1")
        if d < 1:
            raise PreconditionError(f"d must be positive, got {brief(d)}")
        M = size_exponent(n, r, w_bar)
        if (bound := lemma_bound(n, prime_power_base(datum.q), d, M, u)) is None:
            raise PreconditionError(f"bound 2*c_n*ell0^(d*M*u) has more than {DIGIT_LIMIT} digits")
        return super().__new__(cls, datum, s, u, t, d, r, w_bar, bound,
                               power_transform(datum.poly, s), from_prime_power_roots(datum.q, t))


# outcome is "ForcedEqual", "CongruentBelowBound" or "NotCongruent";
# matched_weights is the sorted t when ForcedEqual, else None.
GateVerdict = namedtuple("GateVerdict", "outcome bound congruent matched_weights",
                         defaults=(None,))


def forced_equality(inst: CongruenceInstance, ell: int) -> GateVerdict:
    """Decide whether the congruence mod the prime ell forces exact equality.

    The instance's two sides are compared coefficient by coefficient mod
    ell.  Congruent and ell above the bound means they must agree over the
    integers, and then the matched weights s*w_k/2 are the sorted t; a
    failure of either check is an InternalConsistencyError (possible only
    for an implementation bug: the datum was validated when built).  An ell
    that divides q is a PreconditionError.
    """
    if inst.datum.q % ell == 0:
        raise PreconditionError("ell must not divide q")
    bound, lhs, rhs = inst.bound, inst.lhs, inst.rhs
    if any((a - b) % ell for a, b in zip(lhs.coeffs, rhs.coeffs)):
        return GateVerdict("NotCongruent", bound, False)
    if ell <= bound:
        return GateVerdict("CongruentBelowBound", bound, True)
    if lhs != rhs:
        raise InternalConsistencyError(
            f"congruent mod {ell} above bound {bound} but not equal: "
            f"{list(lhs.coeffs)} vs {list(rhs.coeffs)}")
    # |alpha_k|^(2s) = q^(s*w_k) and |q^(t_k)|^2 = q^(2*t_k): both sorted, they agree
    if [inst.s * w for w in inst.datum.weights] != [2 * tk for tk in inst.t]:
        raise InternalConsistencyError(
            f"equal above bound {bound}, yet s*w = {inst.s} * {list(inst.datum.weights)} "
            f"is not 2*t = 2 * {list(inst.t)}")
    return GateVerdict("ForcedEqual", bound, True, inst.t)


def _weight_one_products(q: int, n: int) -> Iterator[IntPolynomial]:
    """Monic degree-n products of weight-1 Weil quadratics at q."""
    quadratics = enumerate_weil_quadratics(q)
    for combo in combinations_with_replacement(quadratics, n // 2):
        poly = combo[0]
        for g in combo[1:]:
            poly = poly_mul(poly, g)
        yield poly


def counterexample_search(
    q: int,
    n: int,
    s_max: int,
    ell_max: int,
    budget: int = 10_000_000,
) -> list[tuple[CongruenceInstance, int]]:
    """Exhaustive sweep for congruent-but-not-equal instances.

    Corpus: products of weight-1 Weil quadratics at q (degree n), s in
    [1, s_max] with u = s and r = 1, all sorted t-multisets with entries in
    [0, r*u], all primes ell <= ell_max not dividing q.  Returns every
    (instance, ell) that is congruent where exact equality fails, one
    instance per congruent cell; `forced_equality` checks that each ell sits
    at or below the instance's forcing bound.  Each right side is built once
    per (s, t), and each cell's nonzero coefficient differences once.
    """
    if n < 2 or n % 2 != 0 or n > 4:
        raise PreconditionError("n must be 2 or 4")
    ell0 = prime_power_base(q)
    # counted, not listed: the products are multisets of n/2 of the 2*isqrt(4q)+1
    # quadratics, and the t count, sum(comb(s+n, n) for s in 1..s_max), is closed-form
    m, k = 2 * math.isqrt(4 * q) + 1, n // 2
    cells = math.comb(m + k - 1, k) * (math.comb(max(s_max, 0) + n + 1, n + 1) - 1)
    # refuse on a lower bound first: the sieve takes time and memory linear in ell_max
    if (least := cells * (prime_count_lower_bound(ell_max) - 1)) > budget:
        raise PreconditionError(
            f"corpus size at least {brief(least)} exceeds budget {brief(budget)}")
    primes = [p for p in primes_up_to(ell_max) if p != ell0]
    if (corpus_size := cells * len(primes)) > budget:
        raise PreconditionError(f"corpus size {brief(corpus_size)} exceeds budget {brief(budget)}")
    if not corpus_size:
        return []

    sides = {s: [(t, from_prime_power_roots(q, t).coeffs)
                 for t in combinations_with_replacement(range(s + 1), n)]
             for s in range(1, s_max + 1)}
    found: list[tuple[CongruenceInstance, int]] = []
    for poly in _weight_one_products(q, n):
        datum = WeilDatum(poly, q, (1,) * n)
        for s, rhss in sides.items():
            lhs = power_transform(poly, s).coeffs
            for t, rhs in rhss:
                # the cell's nonzero differences, once; none means the sides are equal
                if not (diffs := [a - b for a, b in zip(lhs, rhs) if a != b]):
                    continue
                inst = None
                for ell in primes:
                    if all(x % ell == 0 for x in diffs):
                        inst = inst or CongruenceInstance(datum, s, s, t)  # one per congruent cell
                        forced_equality(inst, ell)  # raises if ell > bound: the lemma forbids it
                        found.append((inst, ell))
    found.sort(key=lambda hit: (hit[0].datum.poly.coeffs, hit[0].s, hit[0].t, hit[1]))
    return found
