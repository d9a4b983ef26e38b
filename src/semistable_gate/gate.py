"""Congruence-forcing engine.

Given a Weil datum with Frobenius eigenvalues alpha_1..alpha_n, a power s and
a target exponent multiset t, decide whether the multiset congruence
{alpha_k^s} = {q^{t_k}} mod ell is forced into exact equality by the size
bound ell > 2 * c_n * ell0^(d*M*u).  Multiset congruence in the algebraic
closure is tested as coefficient-wise congruence of the two monic degree-n
polynomials, which is equivalent because both sides split there.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from enum import Enum
from fractions import Fraction
from itertools import combinations_with_replacement

from .bounds import lemma_bound, size_exponent
from .errors import CorpusTooLarge, LemmaViolation, brief
from .intpoly import IntPolynomial, from_prime_power_roots, poly_mul, power_transform
from .primes import prime_count_lower_bound, prime_power_base, primes_up_to
from .weil import WeilDatum, enumerate_weil_quadratics


class CongruenceInstance(namedtuple("CongruenceInstance", "datum s u t ell d r")):
    """The congruence {alpha_k^s} = {q^(t_k)} mod ell for a Weil datum, over
    a field of degree d with Hodge-Tate bound r; t is kept sorted."""

    __slots__ = ()

    def __new__(cls, datum: WeilDatum, s: int, u: int, t, ell: int, d: int = 1, r: int = 1):
        t = tuple(sorted(int(x) for x in t))
        if len(t) != datum.poly.degree:
            raise ValueError("t must have one entry per eigenvalue")
        if not 0 <= s <= u:
            raise ValueError(f"need 0 <= s <= u, got s={brief(s)}, u={brief(u)}")
        if any(not 0 <= tk <= r * u for tk in t):
            raise ValueError(f"every t_k must lie in [0, r*u] = [0, {brief(r * u)}]")
        if datum.q % ell == 0:
            raise ValueError("ell must not divide q")
        return super().__new__(cls, datum, s, u, t, ell, d, r)

    @property
    def ell0(self) -> int:
        return prime_power_base(self.datum.q)

    @property
    def bound(self) -> int:
        n = self.datum.poly.degree
        M = size_exponent(n, self.r, self.datum.weight_budget)
        return lemma_bound(n, self.ell0, self.d, M, self.u)


class GateOutcome(Enum):
    FORCED_EQUAL = "ForcedEqual"
    CONGRUENT_BELOW_BOUND = "CongruentBelowBound"
    NOT_CONGRUENT = "NotCongruent"


GateVerdict = namedtuple("GateVerdict", "outcome bound congruent matched_weights",
                         defaults=(None,))


def symmetric_congruence(inst: CongruenceInstance) -> bool:
    """True iff the s-th-power transform of the characteristic polynomial is
    congruent, coefficient by coefficient mod ell, to prod (T - q^{t_k})."""
    lhs = power_transform(inst.datum.poly, inst.s)
    rhs = from_prime_power_roots(inst.datum.q, inst.t)
    return all((a - b) % inst.ell == 0 for a, b in zip(lhs.coeffs, rhs.coeffs))


def forced_equality(inst: CongruenceInstance) -> GateVerdict:
    """Decide whether the mod-ell congruence forces exact equality.

    Congruent and ell above the bound means the two polynomials must agree
    over the integers; a failure of that check is a LemmaViolation (possible
    only for an invalid datum or an implementation bug).
    """
    if not inst.datum.validate():
        raise ValueError("datum fails the root absolute-value check")
    bound = inst.bound
    congruent = symmetric_congruence(inst)
    if not congruent:
        return GateVerdict(GateOutcome.NOT_CONGRUENT, bound, False)
    if inst.ell <= bound:
        return GateVerdict(GateOutcome.CONGRUENT_BELOW_BOUND, bound, True)
    lhs = power_transform(inst.datum.poly, inst.s)
    rhs = from_prime_power_roots(inst.datum.q, inst.t)
    if lhs != rhs:
        raise LemmaViolation(
            f"congruent mod {inst.ell} above bound {bound} but not equal: "
            f"{lhs} vs {rhs}")
    halves = sorted(Fraction(inst.s * w, 2) for w in inst.datum.weights)
    matched = tuple(int(x) if x.denominator == 1 else x for x in halves)
    return GateVerdict(GateOutcome.FORCED_EQUAL, bound, True, matched)


def _weight_one_products(q: int, n: int) -> Iterator[tuple[IntPolynomial, tuple[int, ...]]]:
    """Monic degree-n products of weight-1 Weil quadratics at q."""
    quadratics = enumerate_weil_quadratics(q, 1)
    for combo in combinations_with_replacement(quadratics, n // 2):
        poly = combo[0]
        for g in combo[1:]:
            poly = poly_mul(poly, g)
        yield poly, (1,) * n


def counterexample_search(
    q: int,
    n: int,
    s_max: int,
    ell_max: int,
    budget: int = 10_000_000,
) -> list[CongruenceInstance]:
    """Exhaustive sweep for congruent-but-not-equal instances.

    Corpus: products of weight-1 Weil quadratics at q (degree n), s in
    [1, s_max] with u = s and r = 1, all sorted t-multisets with entries in
    [0, r*u], all primes ell <= ell_max not dividing q.  Returns every
    congruent instance where exact equality fails; each must sit at or below
    the forcing bound, and that is re-checked here.
    """
    if n < 2 or n % 2 != 0 or n > 4:
        raise ValueError("n must be 2 or 4")
    ell0 = prime_power_base(q)
    polys = list(_weight_one_products(q, n))
    cells = len(polys) * sum(  # t: multisets of size n from 0..s
        math.comb(s + n, n) for s in range(1, s_max + 1))
    # refuse on a lower bound first: the sieve takes time and memory linear in ell_max
    if (least := cells * (prime_count_lower_bound(ell_max) - 1)) > budget:
        raise CorpusTooLarge(f"corpus size at least {brief(least)} exceeds budget {brief(budget)}")
    primes = [p for p in primes_up_to(ell_max) if p != ell0]
    if (corpus_size := cells * len(primes)) > budget:
        raise CorpusTooLarge(f"corpus size {brief(corpus_size)} exceeds budget {brief(budget)}")

    found: list[CongruenceInstance] = []
    for poly, weights in polys:
        datum = WeilDatum(poly, q, weights, weight_budget=n)
        for s in range(1, s_max + 1):
            lhs = power_transform(poly, s)
            for t in combinations_with_replacement(range(s + 1), n):
                rhs = from_prime_power_roots(q, t)
                if lhs == rhs:
                    continue
                # read once: a named-tuple field read costs a descriptor call
                lc, rc = lhs.coeffs, rhs.coeffs
                for ell in primes:
                    if all((a - b) % ell == 0 for a, b in zip(lc, rc)):
                        inst = CongruenceInstance(datum, s, s, t, ell)
                        if ell > inst.bound:
                            raise LemmaViolation(
                                f"sub-bound guarantee violated: ell={ell} > {inst.bound} "
                                f"for {poly}, s={s}, t={t}")
                        found.append(inst)
    found.sort(key=lambda i: (i.datum.poly.coeffs, i.s, i.t, i.ell))
    return found
