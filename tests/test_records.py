"""The contract of the package's immutable records: fields cannot be
assigned, equal records are equal and hash alike, keyword and default
construction work, invalid arguments raise ValueError with a fixed message,
and the fields that are normalised (coerced to int, sorted) stay so."""

from fractions import Fraction

import pytest

from semistable_gate.bounds import (
    FieldInvariants,
    PrimeSituation,
    RepFamilyParams,
    Setting,
    Verdict,
    derived_constants,
)
from semistable_gate.gate import CongruenceInstance, GateOutcome, GateVerdict
from semistable_gate.intpoly import IntPolynomial, PowerSums
from semistable_gate.tame import TameCharacterExponent
from semistable_gate.weil import WeilDatum

QUAD = IntPolynomial((2, 1, 1))
DATUM = WeilDatum(QUAD, 2, (1, 1), 2)
Q_FIELD = FieldInvariants(1, 1, 1)
BULLET = RepFamilyParams(2, 2, 1, "bullet", w=1)

# one record of each type, with the name of one of its fields
RECORDS = [
    (Q_FIELD, "d"),
    (PrimeSituation(7), "ell"),
    (BULLET, "w"),
    (derived_constants(Q_FIELD, BULLET), "C1"),
    (Verdict("NotDecided", "Cor2", None, 0, ()), "conclusion"),
    (Setting("Ell", (16, 16), {"degree_odd": True}), "thresholds"),
    (QUAD, "coeffs"),
    (PowerSums((-1, -3), 2), "values"),
    (CongruenceInstance(DATUM, 2, 2, (1, 1), 7), "t"),
    (GateVerdict(GateOutcome.NOT_CONGRUENT, 64, False), "bound"),
    (DATUM, "weights"),
    (TameCharacterExponent(5, 2, 7), "exponent"),
]


@pytest.mark.parametrize("record,field", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_equality_and_hashing():
    assert {IntPolynomial((2, 1, 1)), IntPolynomial([2, 1, 1]), IntPolynomial((3, 1, 1))} == {
        QUAD, IntPolynomial((3, 1, 1))}
    assert WeilDatum(QUAD, 2, (1, 1), 2) == DATUM
    assert hash(WeilDatum(QUAD, 2, [1, 1], 2)) == hash(DATUM)
    assert CongruenceInstance(DATUM, 2, 2, (1, 1), 7) != CongruenceInstance(DATUM, 2, 2, (1, 1), 11)
    assert len({PrimeSituation(7), PrimeSituation(7, False, False), PrimeSituation(7, True)}) == 2


def test_keyword_and_default_construction():
    assert FieldInvariants(d=1, disc=1, h_plus=1) == FieldInvariants(1, 1, 1, False)
    assert PrimeSituation(ell=7) == PrimeSituation(7, divides_disc=False, splits_in_K=False)
    p = RepFamilyParams(n=2, ell0=2, r=1, variant="circle", w_bar=3)
    assert (p.w, p.w_bar, p.cyclotomic, p.weight_budget) == (None, 3, False, 3)
    assert BULLET.weight_budget == 2
    inst = CongruenceInstance(datum=DATUM, s=1, u=1, t=(0, 1), ell=7)
    assert (inst.d, inst.r) == (1, 1)
    assert CongruenceInstance(DATUM, 1, 1, (0, 2), 7, r=2).r == 2
    assert GateVerdict(GateOutcome.NOT_CONGRUENT, 64, False).matched_weights is None
    assert Setting("Ell", (16, 16), {}).ell0 is None
    assert PowerSums(values=(2,), source_degree=1).source_degree == 1
    assert TameCharacterExponent(ell=5, level=2, exponent=7).modulus == 24
    assert WeilDatum(poly=QUAD, q=2, weights=(1, 1), weight_budget=2) == DATUM


@pytest.mark.parametrize("build,message", [
    (lambda: FieldInvariants(0, 1, 1), "d and h_plus must be positive"),
    (lambda: FieldInvariants(1, 1, 0), "d and h_plus must be positive"),
    (lambda: FieldInvariants(1, 0, 1), "discriminant must be nonzero"),
    (lambda: FieldInvariants(2, 5, 1, galois_odd_degree=True), "galois_odd_degree requires odd d"),
    (lambda: RepFamilyParams(0, 2, 1, "bullet", w=1), "need n >= 1 and r >= 0"),
    (lambda: RepFamilyParams(2, 2, -1, "bullet", w=1), "need n >= 1 and r >= 0"),
    (lambda: RepFamilyParams(2, 2, 1, "bullet", w_bar=2),
     "bullet variant takes w only; w_bar is derived"),
    (lambda: RepFamilyParams(2, 2, 1, "bullet", w=-1), "w must be non-negative"),
    (lambda: RepFamilyParams(2, 2, 1, "circle", w=1), "circle variant takes w_bar only"),
    (lambda: RepFamilyParams(2, 2, 1, "circle", w_bar=-1), "w_bar must be non-negative"),
    (lambda: RepFamilyParams(2, 2, 1, "square", w=1), "unknown variant 'square'"),
    (lambda: IntPolynomial(()), "empty coefficient sequence"),
    (lambda: IntPolynomial((1, 2)), "polynomial is not monic: leading coefficient 2"),
    (lambda: WeilDatum(QUAD, 2, (1,), 2), "weight multiset size must equal the polynomial degree"),
    (lambda: WeilDatum(QUAD, 2, (-1, 1), 2), "weights must be non-negative"),
    (lambda: WeilDatum(QUAD, 2, (1, 2), 2), "total weight 3 exceeds budget 2"),
    (lambda: CongruenceInstance(DATUM, 1, 1, (1,), 7), "t must have one entry per eigenvalue"),
    (lambda: CongruenceInstance(DATUM, 3, 2, (1, 1), 7), "need 0 <= s <= u, got s=3, u=2"),
    (lambda: CongruenceInstance(DATUM, 1, 1, (2, 0), 7),
     "every t_k must lie in [0, r*u] = [0, 1]"),
    (lambda: CongruenceInstance(DATUM, 1, 1, (1, 1), 2), "ell must not divide q"),
    (lambda: TameCharacterExponent(4, 2, 7), "ell = 4 is not prime"),
    (lambda: TameCharacterExponent(5, 0, 0), "level must be positive"),
    (lambda: TameCharacterExponent(5, 2, 24), "exponent must lie in [0, 23], got 24"),
])
def test_invalid_arguments_raise_the_same_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_normalisation():
    assert DATUM.weights == (1, 1)
    assert WeilDatum(IntPolynomial((-8, 6, 1)), 2, [2, 0], 2).weights == (0, 2)
    assert CongruenceInstance(DATUM, 1, 1, [1, 0], 7).t == (0, 1)
    poly = IntPolynomial([Fraction(4, 2), True, Fraction(1)])
    assert poly.coeffs == (2, 1, 1) and all(type(c) is int for c in poly.coeffs)
    assert poly == QUAD
    sums = PowerSums([Fraction(-1), False], 2)
    assert sums.values == (-1, 0) and all(type(v) is int for v in sums.values)
