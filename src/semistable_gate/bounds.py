"""Explicit thresholds and emptiness decision procedures.

The emptiness theorems are data: `THEOREMS` gives each a gate of named
hypotheses and situations tried in order, each (label, hypotheses,
threshold).  Every threshold is `lemma_bound`, 2*c*base^ceil(e), a (b)-type
one at d times the exponent of its (a)-type partner.  A `Setting` applies a
theorem to one family (`trivial_setting`, ..., `etale_setting`); `decide`
runs its ladder at one prime, and `least_empty_prime` finds in closed form
the least prime it certifies.  The CLI builds a query's settings once and
uses these two; the `decide_*` functions are library entries that build a
setting and decide at one prime.  All arithmetic is exact, and a decision
is Empty, with a hypothesis trace, or NotDecided: no procedure ever asserts
non-emptiness.  The records (`FieldInvariants`, `Verdict`, ...) are named
tuples, which cost nothing to define at import time; those with constraints
check them when built.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

from .errors import EllEqualsEll0, WEven, brief
from .primes import next_prime


class FieldInvariants(namedtuple("FieldInvariants", "d disc h_plus galois_odd_degree")):
    """Degree, discriminant and narrow class number of the base field."""

    __slots__ = ()

    def __new__(cls, d: int, disc: int, h_plus: int, galois_odd_degree: bool = False):
        if d < 1 or h_plus < 1:
            raise ValueError("d and h_plus must be positive")
        if disc == 0:
            raise ValueError("discriminant must be nonzero")
        if galois_odd_degree and d % 2 == 0:
            raise ValueError("galois_odd_degree requires odd d")
        return super().__new__(cls, d, disc, h_plus, galois_odd_degree)


class PrimeSituation(namedtuple("PrimeSituation", "ell divides_disc splits_in_K",
                                defaults=(False, False))):
    """Caller-supplied splitting data for a prime ell in the base field.

    For d = 1 both flags are forced to False: over the rationals there is a
    unique place above ell and the discriminant is 1.
    """

    __slots__ = ()

    @staticmethod
    def rational(ell: int) -> PrimeSituation:
        return PrimeSituation(ell, divides_disc=False, splits_in_K=False)

    @staticmethod
    def of(inv: FieldInvariants, ell: int, divides_disc: bool = False,
           splits_in_K: bool = False) -> PrimeSituation:
        """The flags read soundly: over Q neither can hold, and otherwise ell
        divides the discriminant whenever it does in fact, so a flag can only
        make a verdict more conservative."""
        if inv.d == 1:
            return PrimeSituation.rational(ell)
        return PrimeSituation(ell, divides_disc or inv.disc % ell == 0, splits_in_K)


class RepFamilyParams(namedtuple("RepFamilyParams", "n ell0 r variant w w_bar cyclotomic")):
    """Family parameters: dimension n, auxiliary prime ell0, Hodge-Tate bound
    r, and either a uniform weight w (variant "bullet") or a weight budget
    w_bar (variant "circle").  cyclotomic flags the subfamily with
    cyclotomic-power graded pieces."""

    __slots__ = ()

    def __new__(cls, n: int, ell0: int, r: int, variant: str, w: int | None = None,
                w_bar: int | None = None, cyclotomic: bool = False):
        if n < 1 or r < 0:
            raise ValueError("need n >= 1 and r >= 0")
        if variant == "bullet":
            if w is None or w_bar is not None:
                raise ValueError("bullet variant takes w only; w_bar is derived")
            if w < 0:
                raise ValueError("w must be non-negative")
        elif variant == "circle":
            if w_bar is None or w is not None:
                raise ValueError("circle variant takes w_bar only")
            if w_bar < 0:
                raise ValueError("w_bar must be non-negative")
        else:
            raise ValueError(f"unknown variant {variant!r}")
        return super().__new__(cls, n, ell0, r, variant, w, w_bar, cyclotomic)

    @property
    def weight_budget(self) -> int:
        # bullet feeds the constant formulas with the tight budget n*w
        return self.n * self.w if self.variant == "bullet" else self.w_bar


DerivedConstants = namedtuple(
    "DerivedConstants", "M c_n eps1 eps2 eps1p eps2p C1 C2 C1p C2p")

# conclusion is "Empty" or "NotDecided"; situation is None when NotDecided;
# trace is a tuple of (hypothesis name, truth) pairs.
Verdict = namedtuple("Verdict", "conclusion theorem situation threshold trace")


def central_binomial(n: int) -> int:
    """max over m of binom(n, m): binom(n, n//2)."""
    if n < 1:
        raise ValueError("n must be positive")
    return math.comb(n, n // 2)


def size_exponent(n: int, r: int, w_bar: int) -> Fraction:
    """M = max{n*r, w_bar/2}, exact."""
    from fractions import Fraction  # here, so that only the commands using M load it
    return max(Fraction(n * r), Fraction(w_bar, 2))


def lemma_bound(n: int, ell0: int, d: int, M: int | Fraction, u: int) -> int:
    """2 * c_n * ell0^(d*M*u), exact: every threshold in the package.

    A fractional exponent (odd w_bar) is rounded up: a larger bound is
    always sound.
    """
    exponent = -(-d * M.numerator * u // M.denominator)
    return 2 * central_binomial(n) * ell0 ** exponent


def _a_b(n: int, base: int, d: int, M: int | Fraction, u: int) -> tuple[int, int]:
    """Situation (a) at exponent d*M*u, and (b) at d times that."""
    return lemma_bound(n, base, d, M, u), lemma_bound(n, base, d, M, u * d)


def derived_constants(inv: FieldInvariants, p: RepFamilyParams) -> DerivedConstants:
    """The size exponent M, the binomial peak c_n, and the four thresholds.

    M = max{n*r, w_bar/2}; eps1 = d*M, eps2 = d*eps1, and the primed versions
    carry the narrow class number.  Each C is 2*c_n*ell0^ceil(eps): a
    fractional exponent is rounded up, which only enlarges the threshold.
    """
    M = size_exponent(p.n, p.r, p.weight_budget)
    d, h = inv.d, inv.h_plus
    C1, C2 = _a_b(p.n, p.ell0, d, M, 1)
    C1p, C2p = _a_b(p.n, p.ell0, d, M, h)
    return DerivedConstants(
        M=M, c_n=central_binomial(p.n), eps1=d * M, eps2=d * d * M,
        eps1p=d * h * M, eps2p=d * d * h * M, C1=C1, C2=C2, C1p=C1p, C2p=C2p)


# ---- the theorem table ------------------------------------------------------

# A situation is (label, hypotheses, index of its threshold in the setting's
# (a, b) pair); ell_gt_threshold reads ell > that threshold.
_UNIFORM_WEIGHT = (
    ("a", ("w_odd", "ell_not_dividing_disc", "ell_gt_threshold"), 0),
    ("b", ("w_odd", "degree_odd", "ell_gt_threshold"), 1),
    ("c", ("w_gt_2r", "ell_not_dividing_disc", "ell_gt_threshold"), 0),
    ("d", ("w_gt_2r", "ell_gt_threshold"), 1),
    ("e", ("w_odd", "n_odd", "ell_gt_threshold"), 1),
)
_TWO_SITUATIONS = (
    ("a", ("ell_not_dividing_disc", "ell_gt_threshold"), 0),
    ("b", ("degree_odd", "ell_gt_threshold"), 1),
)
_NONSPLIT = ("ell_does_not_split_in_K",)

# theorem -> (gate, situations)
THEOREMS = {
    "Trivial": (("n_odd", "w_odd", "galois_odd_degree", "ell_ne_ell0"), (("trivial", (), 0),)),
    "Cor1": (("w_odd_or_w_gt_2r",), _UNIFORM_WEIGHT),
    "Cor2": (("w_odd_or_w_gt_2r", *_NONSPLIT), _UNIFORM_WEIGHT),
    "RTst": ((), _TWO_SITUATIONS),
    "GRTst": (_NONSPLIT, _TWO_SITUATIONS),
    "Ell": (_NONSPLIT, _TWO_SITUATIONS),
    "Et": (_NONSPLIT, _TWO_SITUATIONS),
}


class Setting(namedtuple("Setting", "theorem thresholds facts ell0", defaults=(None,))):
    """A theorem applied to one family: its (a, b) thresholds, the truth of
    the hypotheses that do not depend on ell (a dict), and the prime ell0 it
    never certifies (NotDecided under an ell_ne_ell0 hypothesis, else
    outside the framework)."""

    __slots__ = ()


def _facts(inv: FieldInvariants, p: RepFamilyParams | None = None) -> dict[str, bool]:
    """The hypotheses that do not depend on ell; those about the weight
    need the bullet variant."""
    facts = {"degree_odd": inv.d % 2 == 1, "galois_odd_degree": inv.galois_odd_degree}
    if p is not None:
        if p.variant != "bullet":
            raise ValueError("this decision requires the bullet (uniform weight) variant")
        w_odd, w_big = p.w % 2 == 1, p.w > 2 * p.r
        facts.update(w_odd=w_odd, w_gt_2r=w_big, w_odd_or_w_gt_2r=w_odd or w_big,
                     n_odd=p.n % 2 == 1)
    return facts


def trivial_setting(inv: FieldInvariants, p: RepFamilyParams) -> Setting:
    return Setting("Trivial", (0, 0), _facts(inv, p), p.ell0)


def cor1_setting(inv: FieldInvariants, p: RepFamilyParams) -> Setting:
    facts = _facts(inv, p)
    if not p.cyclotomic:
        raise ValueError("this decision applies to the cyclotomic subfamily only")
    c = derived_constants(inv, p)
    return Setting("Cor1", (c.C1, c.C2), facts, p.ell0)


def cor2_setting(inv: FieldInvariants, p: RepFamilyParams) -> Setting:
    facts = _facts(inv, p)
    c = derived_constants(inv, p)
    return Setting("Cor2", (c.C1p, c.C2p), facts, p.ell0)


def rt_setting(inv: FieldInvariants, g: int, variant: str,
               ell0: int | None = None) -> Setting:
    """The semistable torsion-tower family of g-dimensional abelian
    varieties; variant is "st" or "st_with_ell0".

    st (RTst): thresholds 2^(2dg+1)*binom(2g,g) and 2^(2d^2g+1)*binom(2g,g).
    st_with_ell0 (GRTst): thresholds 2*ell0^(2dgh+)*binom(2g,g) and
    2*ell0^(2d^2gh+)*binom(2g,g), gated on ell non-split in K and ell != ell0.
    """
    if g < 1:
        raise ValueError("g must be positive")
    if variant == "st":
        return Setting("RTst", _a_b(2 * g, 2, inv.d, 2 * g, 1), _facts(inv))
    if variant == "st_with_ell0":
        if ell0 is None:
            raise ValueError("st_with_ell0 requires ell0")
        return Setting("GRTst", _a_b(2 * g, ell0, inv.d, 2 * g, inv.h_plus), _facts(inv), ell0)
    raise ValueError(f"unknown variant {variant!r}")


def ec_irred_setting(inv: FieldInvariants, ell_E: int) -> Setting:
    """Irreducibility of the ell-torsion of a semistable elliptic curve with
    good reduction above ell_E: thresholds 4*ell_E^(2dh+) and 4*ell_E^(2d^2h+)."""
    return Setting("Ell", _a_b(2, ell_E, inv.d, 2, inv.h_plus), _facts(inv))


def etale_setting(inv: FieldInvariants, b_w: int, ell_X: int, w: int) -> Setting:
    """Residual-Borel exclusion for odd-degree etale cohomology of Betti
    number b_w and odd weight w with good reduction above ell_X."""
    if w % 2 == 0:
        raise WEven(f"w must be odd, got {brief(w)}")
    if b_w < 1:
        raise ValueError("b_w must be positive")
    return Setting("Et", _a_b(b_w, ell_X, inv.d, b_w * w, inv.h_plus), _facts(inv))


def _ladder(theorem: str, gate: list, situations: list) -> Verdict:
    """First situation whose gate and hypotheses all hold certifies Empty,
    with only its own hypotheses in the trace; otherwise NotDecided with the
    trace of everything evaluated."""
    for label, hyps, threshold in situations:
        if all(ok for _, ok in gate + hyps):
            return Verdict("Empty", theorem, label, threshold, tuple(gate + hyps))
    trace = gate + [(f"{label}:{name}", ok) for label, hyps, _ in situations for name, ok in hyps]
    return Verdict("NotDecided", theorem, None, 0, tuple(trace))


def decide(s: Setting, ell: int, ps: PrimeSituation) -> Verdict:
    """The setting's ladder at the prime ell, with the flags of ps."""
    gate, situations = THEOREMS[s.theorem]
    if ell == s.ell0 and "ell_ne_ell0" not in gate:
        raise EllEqualsEll0(f"ell = ell0 = {ell} is outside the framework")
    facts = {**s.facts, "ell_ne_ell0": ell != s.ell0,
             "ell_not_dividing_disc": not ps.divides_disc,
             "ell_does_not_split_in_K": not ps.splits_in_K}
    ladder = []
    for label, hyps, i in situations:
        threshold = s.thresholds[i]
        facts["ell_gt_threshold"] = ell > threshold
        ladder.append((label, [(h, facts[h]) for h in hyps], threshold))
    return _ladder(s.theorem, [(h, facts[h]) for h in gate], ladder)


def least_empty_prime(settings: Sequence[Setting], inv: FieldInvariants,
                      divides_disc: bool = False, splits_in_K: bool = False) -> int | None:
    """Least prime some setting certifies Empty, the flags read at every
    prime as `PrimeSituation.of` reads them; None when no situation can fire.

    A situation fires at the least prime above its threshold other than its
    setting's ell0 and, if it needs ell_not_dividing_disc, the primes
    dividing the discriminant.  Thresholds go in increasing order while they
    can beat the best prime found, so `next_prime` meets one past its range
    only when no smaller answer exists."""
    rational = inv.d == 1
    firing = []
    for s in settings:
        facts = {**s.facts, "ell_ne_ell0": True, "ell_gt_threshold": True,
                 "ell_not_dividing_disc": rational or not divides_disc,
                 "ell_does_not_split_in_K": rational or not splits_in_K}
        gate, situations = THEOREMS[s.theorem]
        for _, hyps, i in situations:
            if all(facts[h] for h in gate + hyps):
                coprime = not rational and "ell_not_dividing_disc" in hyps
                firing.append((s.thresholds[i], coprime, s.ell0))
    best = None
    for threshold, coprime, ell0 in sorted(firing, key=lambda f: f[0]):
        if best is not None and threshold + 1 >= best:
            break
        ell = next_prime(threshold)
        while ell == ell0 or coprime and inv.disc % ell == 0:
            ell = next_prime(ell)
        best = ell if best is None else min(best, ell)
    return best


# ---- the decision entries ---------------------------------------------------

def decide_cor1(inv: FieldInvariants, p: RepFamilyParams, ps: PrimeSituation) -> Verdict:
    """Emptiness for the cyclotomic-graded uniform-weight family, via the
    unprimed thresholds C1/C2."""
    return decide(cor1_setting(inv, p), ps.ell, ps)


def decide_cor2(inv: FieldInvariants, p: RepFamilyParams, ps: PrimeSituation) -> Verdict:
    """Emptiness for the residually-Borel uniform-weight family, via the
    primed thresholds C1'/C2'; requires ell non-split in K."""
    return decide(cor2_setting(inv, p), ps.ell, ps)


def decide_trivial(inv: FieldInvariants, p: RepFamilyParams, ell: int) -> Verdict:
    """Parity shortcut: the Frobenius determinant has absolute value
    q^{n*w/2} and must be a rational integer; when n and w are odd and K/Q
    is Galois of odd degree every residue degree is odd, so q^{n*w/2} is
    never an integer and the family is empty for every ell != ell0."""
    return decide(trivial_setting(inv, p), ell, PrimeSituation.rational(ell))


def decide_rt(
    inv: FieldInvariants,
    g: int,
    ell: int,
    ps: PrimeSituation,
    variant: str = "st",
    ell0: int | None = None,
) -> Verdict:
    """Emptiness of the semistable torsion-tower family of g-dimensional
    abelian varieties (thresholds in `rt_setting`)."""
    return decide(rt_setting(inv, g, variant, ell0), ell, ps)


def decide_ec_irred(
    inv: FieldInvariants, ell_E: int, ell: int, ps: PrimeSituation
) -> Verdict:
    """Irreducibility of the ell-torsion of a semistable elliptic curve with
    good reduction above ell_E.  Empty here reads "E[ell] is irreducible"."""
    return decide(ec_irred_setting(inv, ell_E), ell, ps)


def decide_etale(
    inv: FieldInvariants, b_w: int, ell_X: int, w: int, ell: int, ps: PrimeSituation
) -> Verdict:
    """Residual-Borel exclusion for odd-degree etale cohomology of Betti
    number b_w with good reduction above ell_X.  Empty here reads "the
    cohomology group is not residually Borel"."""
    return decide(etale_setting(inv, b_w, ell_X, w), ell, ps)


def parity_obstruction(e: int, w: int, r: int, n: int) -> str:
    """Which contradiction refutes a hypothetical uniform tame weight e*w/2.

    NonIntegral: e*w odd, so e*w/2 is not an integer.
    RangeExceeded: w/2 > r, outside the semistable weight range [0, e*r].
    DivisibilityFails: the weight sum n*e*w/2 is not divisible by e.
    """
    if e < 1:
        raise ValueError("e must be positive")
    if (e * w) % 2 == 1:
        return "NonIntegral"
    if w > 2 * r:
        return "RangeExceeded"
    if (n * e * w // 2) % e != 0:
        return "DivisibilityFails"
    return "None"
