"""Explicit thresholds and emptiness decision procedures.

The emptiness theorems are data: `THEOREMS` gives each a gate of named
hypotheses and situations tried in order, each (label, hypotheses,
threshold).  Every threshold is `lemma_bound`, 2*c*base^ceil(e), a (b)-type
one at d times the exponent of its (a)-type partner, or None past
DIGIT_LIMIT digits.  A `Setting` applies a theorem to one family
(`trivial_setting`, ..., `etale_setting`) and keeps the base field's
discriminant.  `decide` runs its ladder at one prime, and
`least_empty_prime` asks it prime by prime from the least threshold any
situation can pass; only `_situations` (and `Setting.refuses`) read the
table, the flags and the primes a ladder excludes, so every caller reads
them alike, and ell divides the discriminant whenever it does in fact.  All
arithmetic is exact, and a decision is Empty, with a hypothesis trace, or
NotDecided: no procedure ever asserts non-emptiness.  The records
(`FieldInvariants`, `Verdict`, ...) are named tuples, which cost nothing to
define at import time; those with constraints check them when built, and the
fields of `Verdict` and `DerivedConstants` are their certificate keys.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

from .errors import (DIGIT_CEILING, DIGIT_LIMIT, PreconditionError, SchemaError, brief,
                     min_digits)
from .primes import next_prime


class FieldInvariants(namedtuple("FieldInvariants", "d disc h_plus galois_odd_degree")):
    """Degree, discriminant and narrow class number of the base field."""

    __slots__ = ()

    def __new__(cls, d: int, disc: int, h_plus: int, galois_odd_degree: bool = False):
        if d < 1 or h_plus < 1:
            raise SchemaError("d and h_plus must be positive")
        if disc == 0:
            raise SchemaError("discriminant must be nonzero")
        if galois_odd_degree and d % 2 == 0:
            raise SchemaError("galois_odd_degree requires odd d")
        return super().__new__(cls, d, disc, h_plus, galois_odd_degree)


class RepFamilyParams(namedtuple("RepFamilyParams", "n ell0 r variant w w_bar cyclotomic")):
    """Family parameters: dimension n, auxiliary prime ell0, Hodge-Tate bound
    r, and either a uniform weight w (variant "bullet") or a weight budget
    w_bar (variant "circle").  cyclotomic flags the subfamily with
    cyclotomic-power graded pieces."""

    __slots__ = ()

    def __new__(cls, n: int, ell0: int, r: int, variant: str, w: int | None = None,
                w_bar: int | None = None, cyclotomic: bool = False):
        if n < 1 or r < 0:
            raise SchemaError("need n >= 1 and r >= 0")
        if variant == "bullet":
            if w is None or w_bar is not None:
                raise SchemaError("bullet variant takes w only; w_bar is derived")
            if w < 0:
                raise SchemaError("w must be non-negative")
        elif variant == "circle":
            if w_bar is None or w is not None:
                raise SchemaError("circle variant takes w_bar only")
            if w_bar < 0:
                raise SchemaError("w_bar must be non-negative")
        else:
            raise SchemaError(f"unknown variant {variant!r}")
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


def lemma_bound(n: int, ell0: int, d: int, M: int | Fraction, u: int) -> int | None:
    """2 * c_n * ell0^(d*M*u), exact: every threshold in the package, or None
    past DIGIT_LIMIT digits, where no prime the program reads passes it, told
    first from bit lengths: log2(2*c_n) >= 1 + n - log2(n+1).  A fractional
    exponent (odd w_bar) is rounded up: a larger bound is always sound."""
    exponent = -(-d * M.numerator * u // M.denominator)
    if min_digits(1 + n - (n + 1).bit_length() + exponent * (ell0.bit_length() - 1)) > DIGIT_LIMIT:
        return None
    bound = 2 * central_binomial(n) * ell0 ** exponent
    return bound if bound < DIGIT_CEILING else None


def _a_b(n: int, base: int, d: int, M: int | Fraction, u: int) -> tuple[int | None, int | None]:
    """Situation (a) at exponent d*M*u, and (b) at d times that."""
    return lemma_bound(n, base, d, M, u), lemma_bound(n, base, d, M, u * d)


def derived_constants(inv: FieldInvariants, p: RepFamilyParams) -> DerivedConstants:
    """The size exponent M, the binomial peak c_n, and the four thresholds.

    M = max{n*r, w_bar/2}; eps1 = d*M, eps2 = d*eps1, and the primed versions
    carry the narrow class number.  Each C is 2*c_n*ell0^ceil(eps): a
    fractional exponent is rounded up, which only enlarges the threshold.
    C2', the largest, is refused once `lemma_bound` leaves it unbuilt.
    """
    M = size_exponent(p.n, p.r, p.weight_budget)
    d, h = inv.d, inv.h_plus
    C1p, C2p = _a_b(p.n, p.ell0, d, M, h)
    if C2p is None:
        raise PreconditionError(f"C2' = 2*c_n*ell0^ceil(eps2') has more than {DIGIT_LIMIT} digits")
    return DerivedConstants(M, central_binomial(p.n), d * M, d * d * M, d * h * M, d * d * h * M,
                            *_a_b(p.n, p.ell0, d, M, 1), C1p, C2p)


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


class Setting(namedtuple("Setting", "theorem thresholds facts disc ell0", defaults=(None,) * 2)):
    """A theorem applied to one family: its (a, b) thresholds, the truth of
    the hypotheses that do not depend on ell (a dict), the base field's
    discriminant (None over Q), and the prime ell0 it never certifies."""

    __slots__ = ()

    def refuses(self, ell: int) -> bool:
        """ell = ell0 is outside the framework unless the gate tests ell != ell0."""
        return ell == self.ell0 and "ell_ne_ell0" not in THEOREMS[self.theorem][0]


def _facts(inv: FieldInvariants, p: RepFamilyParams | None = None) -> tuple[dict, int | None]:
    """The hypotheses that do not depend on ell, and the discriminant (None
    over Q); those about the weight need the bullet variant.  A Galois field
    of odd degree has a group of odd order, inside A_d, and is totally real,
    so its discriminant is a positive square; a cubic field with one is
    Galois.  So the flag holds in fact at d = 1, at d = 3 iff the
    discriminant is a positive square, and, unproven, never at d >= 5."""
    galois = inv.galois_odd_degree and (
        inv.d == 1 or inv.d == 3 and inv.disc > 0 and math.isqrt(inv.disc) ** 2 == inv.disc)
    facts = {"degree_odd": inv.d % 2 == 1, "galois_odd_degree": galois}
    if p is not None:
        if p.variant != "bullet":
            raise PreconditionError("this decision requires the bullet (uniform weight) variant")
        w_odd, w_big = p.w % 2 == 1, p.w > 2 * p.r
        facts.update(w_odd=w_odd, w_gt_2r=w_big, w_odd_or_w_gt_2r=w_odd or w_big,
                     n_odd=p.n % 2 == 1)
    return facts, None if inv.d == 1 else inv.disc


def trivial_setting(inv: FieldInvariants, p: RepFamilyParams) -> Setting:
    """Parity shortcut: the Frobenius determinant has absolute value
    q^{n*w/2} and must be a rational integer; when n and w are odd and K/Q
    is Galois of odd degree every residue degree is odd, so q^{n*w/2} is
    never an integer and the family is empty for every ell != ell0."""
    return Setting("Trivial", (0, 0), *_facts(inv, p), p.ell0)


def cor1_setting(inv: FieldInvariants, p: RepFamilyParams) -> Setting:
    """The cyclotomic-graded uniform-weight family, via the unprimed
    thresholds C1/C2."""
    facts = _facts(inv, p)
    if not p.cyclotomic:
        raise PreconditionError("this decision applies to the cyclotomic subfamily only")
    M = size_exponent(p.n, p.r, p.weight_budget)
    return Setting("Cor1", _a_b(p.n, p.ell0, inv.d, M, 1), *facts, p.ell0)


def cor2_setting(inv: FieldInvariants, p: RepFamilyParams) -> Setting:
    """The residually-Borel uniform-weight family, via the primed thresholds
    C1'/C2'; gated on ell non-split in K."""
    facts = _facts(inv, p)
    M = size_exponent(p.n, p.r, p.weight_budget)
    return Setting("Cor2", _a_b(p.n, p.ell0, inv.d, M, inv.h_plus), *facts, p.ell0)


def rt_setting(inv: FieldInvariants, g: int, variant: str,
               ell0: int | None = None) -> Setting:
    """The semistable torsion-tower family of g-dimensional abelian
    varieties; variant is "st" or "st_with_ell0".

    st (RTst): thresholds 2^(2dg+1)*binom(2g,g) and 2^(2d^2g+1)*binom(2g,g).
    st_with_ell0 (GRTst): thresholds 2*ell0^(2dgh+)*binom(2g,g) and
    2*ell0^(2d^2gh+)*binom(2g,g), gated on ell non-split in K and ell != ell0.
    ell0 is given exactly for st_with_ell0.
    """
    if variant not in ("st", "st_with_ell0"):
        raise SchemaError(f"variant must be 'st' or 'st_with_ell0', got {variant!r}")
    if variant == "st_with_ell0" and ell0 is None:
        raise SchemaError("ell0 is required for variant 'st_with_ell0'")
    if variant == "st" and ell0 is not None:
        raise SchemaError("ell0 is only meaningful for variant 'st_with_ell0'")
    if g < 1:
        raise PreconditionError("g must be positive")
    if variant == "st":
        return Setting("RTst", _a_b(2 * g, 2, inv.d, 2 * g, 1), *_facts(inv))
    return Setting("GRTst", _a_b(2 * g, ell0, inv.d, 2 * g, inv.h_plus), *_facts(inv), ell0)


def ec_irred_setting(inv: FieldInvariants, ell_E: int) -> Setting:
    """Irreducibility of the ell-torsion of a semistable elliptic curve with
    good reduction above ell_E: thresholds 4*ell_E^(2dh+) and 4*ell_E^(2d^2h+).
    Empty here reads "E[ell] is irreducible"."""
    return Setting("Ell", _a_b(2, ell_E, inv.d, 2, inv.h_plus), *_facts(inv))


def etale_setting(inv: FieldInvariants, b_w: int, ell_X: int, w: int) -> Setting:
    """Residual-Borel exclusion for odd-degree etale cohomology of Betti
    number b_w and odd weight w >= 1 with good reduction above ell_X.  Empty
    here reads "the cohomology group is not residually Borel"."""
    if w % 2 == 0:
        raise PreconditionError(f"w must be odd, got {brief(w)}")
    if w < 1:
        raise PreconditionError(f"w must be positive, got {brief(w)}")
    if b_w < 1:
        raise PreconditionError("b_w must be positive")
    return Setting("Et", _a_b(b_w, ell_X, inv.d, b_w * w, inv.h_plus), *_facts(inv))


def _situations(s: Setting, ell: int | None, divides_disc: bool, splits_in_K: bool):
    """Each situation of the setting's theorem at the prime ell, as (label,
    gate, hypotheses, threshold), the gate and hypotheses as (name, truth)
    pairs; ell None stands for a prime above every threshold, other than
    ell0, that does not divide the discriminant.  The flags are read
    soundly: over Q neither can hold, and otherwise ell divides the
    discriminant whenever it does in fact, so a flag can only make a
    verdict more conservative."""
    over_q = s.disc is None
    facts = {**s.facts, "ell_ne_ell0": ell is None or ell != s.ell0,
             "ell_not_dividing_disc": over_q or not (
                 divides_disc or ell is not None and s.disc % ell == 0),
             "ell_does_not_split_in_K": over_q or not splits_in_K}
    gate, situations = THEOREMS[s.theorem]
    gate = [(h, facts[h]) for h in gate]
    for label, hyps, i in situations:
        threshold = s.thresholds[i]
        facts["ell_gt_threshold"] = ell is None or threshold is not None and ell > threshold
        yield label, gate, [(h, facts[h]) for h in hyps], threshold


def decide(s: Setting, ell: int, divides_disc: bool = False, splits_in_K: bool = False) -> Verdict:
    """The setting's ladder at the prime ell.  The first situation whose gate
    and hypotheses all hold certifies Empty, with only its own hypotheses in
    the trace; otherwise NotDecided with the trace of everything evaluated."""
    if s.refuses(ell):
        raise PreconditionError(f"ell = ell0 = {ell} is outside the framework")
    trace = []
    for label, gate, hyps, threshold in _situations(s, ell, divides_disc, splits_in_K):
        if all(ok for _, ok in gate + hyps):
            return Verdict("Empty", s.theorem, label, threshold, tuple(gate + hyps))
        trace += [(f"{label}:{name}", ok) for name, ok in hyps]
    return Verdict("NotDecided", s.theorem, None, 0, tuple(gate + trace))


def least_empty_prime(settings: Sequence[Setting], divides_disc: bool = False,
                      splits_in_K: bool = False) -> int | None:
    """Least prime some setting certifies Empty, the flags read at every
    prime as `decide` reads them; None when no situation can fire.

    No prime at or below the least threshold any situation can pass is
    certified; above it, the ladders are asked prime by prime until one
    answers Empty, so the primes a ladder excludes (ell0, the discriminant's
    divisors) are read from `_situations` and `Setting.refuses` alone."""
    thresholds = [threshold for s in settings
                  for _, gate, hyps, threshold in _situations(s, None, divides_disc, splits_in_K)
                  if all(ok for _, ok in gate + hyps)]
    if not thresholds:
        return None
    if not (built := [t for t in thresholds if t is not None]):
        raise PreconditionError(f"every threshold reaches 10^{DIGIT_LIMIT}, past the witness range")
    ell = next_prime(min(built))
    while not any(decide(s, ell, divides_disc, splits_in_K).conclusion == "Empty"
                  for s in settings if not s.refuses(ell)):
        ell = next_prime(ell)
    return ell


# read only by `bench/tracing.py`'s `WRAPPED`; ROADMAP item 6 deletes them with the tracer
decide_cor1 = decide_cor2 = decide_trivial = decide_rt = decide_ec_irred = decide_etale = decide
