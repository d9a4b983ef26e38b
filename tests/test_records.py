"""The contract of the package's immutable records: fields cannot be
assigned, equal records are equal and hash alike, keyword and default
construction work, invalid arguments raise ValueError with a fixed message
(a gate's ell by `forced_equality`, as a `CongruenceInstance` has none), a
value of the wrong shape raising SchemaError where it is found, and the
fields that are normalised (integral values made ints, sorted) stay so."""

from fractions import Fraction

import pytest

from semistable_gate.bounds import (
    FieldInvariants,
    RepFamilyParams,
    Setting,
    Verdict,
    central_binomial,
    derived_constants,
    rt_setting,
)
from semistable_gate.errors import PreconditionError, SchemaError
from semistable_gate.gate import (CongruenceInstance, GateVerdict, counterexample_search,
                                  forced_equality)
from semistable_gate.intpoly import (IntPolynomial, from_power_sums, from_prime_power_roots,
                                     power_transform)
from semistable_gate.primes import is_prime, prime_power_base
from semistable_gate.tame import TameCharacterExponent
from semistable_gate.weil import WeilDatum, validate_weights

QUAD = IntPolynomial((2, 1, 1))
DATUM = WeilDatum(QUAD, 2, (1, 1))
Q_FIELD = FieldInvariants(1, 1, 1)
BULLET = RepFamilyParams(2, 2, 1, "bullet", w=1)

# one record of each type, with the name of one of its fields
RECORDS = [
    (Q_FIELD, "d"),
    (BULLET, "w"),
    (derived_constants(Q_FIELD, BULLET), "C1"),
    (Verdict("NotDecided", "Cor2", None, 0, ()), "conclusion"),
    (Setting("Ell", (16, 16), {"degree_odd": True}), "thresholds"),
    (QUAD, "coeffs"),
    (CongruenceInstance(DATUM, 2, 2, (1, 1)), "t"),
    (GateVerdict("NotCongruent", 64, False), "bound"),
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
    assert WeilDatum(QUAD, 2, (1, 1)) == DATUM
    assert hash(WeilDatum(QUAD, 2, [1, 1])) == hash(DATUM)
    assert CongruenceInstance(DATUM, 2, 2, (1, 1)) == CongruenceInstance(DATUM, 2, 2, [1, 1])
    assert CongruenceInstance(DATUM, 2, 2, (1, 1)) != CongruenceInstance(DATUM, 2, 3, (1, 1))


def test_keyword_and_default_construction():
    assert FieldInvariants(d=1, disc=1, h_plus=1) == FieldInvariants(1, 1, 1, False)
    p = RepFamilyParams(n=2, ell0=2, r=1, variant="circle", w_bar=3)
    assert (p.w, p.w_bar, p.cyclotomic, p.weight_budget) == (None, 3, False, 3)
    assert BULLET.weight_budget == 2
    inst = CongruenceInstance(datum=DATUM, s=1, u=1, t=(0, 1))
    assert (inst.d, inst.r) == (1, 1)
    assert CongruenceInstance(DATUM, 1, 1, (0, 2), r=2).r == 2
    assert GateVerdict("NotCongruent", 64, False).matched_weights is None
    assert Setting("Ell", (16, 16), {})[3:] == (None, None)  # disc, ell0
    assert TameCharacterExponent(ell=5, level=2, exponent=7).modulus == 24
    assert WeilDatum(poly=QUAD, q=2, weights=(1, 1)) == DATUM


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
    (lambda: IntPolynomial((0,) * 65 + (1,)), "degree 65 exceeds cap 64"),
    (lambda: WeilDatum(QUAD, 2, (1,)), "weight multiset size must equal the polynomial degree"),
    (lambda: WeilDatum(QUAD, 2, (-1, 1)), "weights must be non-negative"),
    # T - 8 at q = 4: |8| = 4^(3/2), so weight 3
    (lambda: CongruenceInstance(WeilDatum(IntPolynomial((-8, 1)), 4, (3,)), 1, 1, (1,), w_bar=2),
     "total weight 3 exceeds budget 2"),
    (lambda: CongruenceInstance(DATUM, 1, 1, (1,)), "t must have one entry per eigenvalue"),
    (lambda: CongruenceInstance(DATUM, 3, 2, (1, 1)), "need 0 <= s <= u, got s=3, u=2"),
    (lambda: CongruenceInstance(DATUM, 1, 1, (2, 0)),
     "every t_k must lie in [0, r*u] = [0, 1]"),
    (lambda: forced_equality(CongruenceInstance(DATUM, 1, 1, (1, 1)), 2), "ell must not divide q"),
    (lambda: TameCharacterExponent(4, 2, 7), "ell = 4 is not prime"),
    (lambda: TameCharacterExponent(5, 0, 0), "level must be positive"),
    (lambda: TameCharacterExponent(5, 2, 24), "exponent must lie in [0, 23], got 24"),
    (lambda: central_binomial(0), "n must be positive"),
    (lambda: from_power_sums((1,), 2), "need at least 2 power sums, got 1"),
    (lambda: from_prime_power_roots(1, ()), "q must be at least 2"),
    (lambda: prime_power_base(6), "6 is not a prime power"),
])
def test_invalid_arguments_raise_the_same_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


# every wrong-shape fault a document can reach, raised where it is found:
# the CLI maps SchemaError to exit 2 and wraps no call
WRONG_SHAPES = [
    (lambda: FieldInvariants(0, 1, 1), "d and h_plus must be positive"),
    (lambda: FieldInvariants(1, 0, 1), "discriminant must be nonzero"),
    (lambda: FieldInvariants(2, 5, 1, True), "galois_odd_degree requires odd d"),
    (lambda: RepFamilyParams(2, 2, -1, "bullet", w=1), "need n >= 1 and r >= 0"),
    (lambda: RepFamilyParams(2, 2, 1, "bullet", w=1, w_bar=2),
     "bullet variant takes w only; w_bar is derived"),
    (lambda: RepFamilyParams(2, 2, 1, "bullet", w=-1), "w must be non-negative"),
    (lambda: RepFamilyParams(2, 2, 1, "circle"), "circle variant takes w_bar only"),
    (lambda: RepFamilyParams(2, 2, 1, "circle", w_bar=-1), "w_bar must be non-negative"),
    (lambda: RepFamilyParams(2, 2, 1, "st", w=1), "unknown variant 'st'"),
    (lambda: rt_setting(Q_FIELD, 1, "x"), "variant must be 'st' or 'st_with_ell0', got 'x'"),
    (lambda: rt_setting(Q_FIELD, 1, "st_with_ell0"), "ell0 is required for variant 'st_with_ell0'"),
    (lambda: rt_setting(Q_FIELD, 1, "st", 3), "ell0 is only meaningful for variant 'st_with_ell0'"),
    (lambda: IntPolynomial([]), "empty coefficient sequence"),
    (lambda: IntPolynomial([2, 1, 3]), "polynomial is not monic: leading coefficient 3"),
    (lambda: power_transform(QUAD, -1), "s must be non-negative"),
    (lambda: WeilDatum(QUAD, 2, (1, -1)), "weights must be non-negative"),
    (lambda: CongruenceInstance(DATUM, 2, 2, (1, 1), w_bar=1), "total weight 2 exceeds budget 1"),
    (lambda: validate_weights(QUAD, 2, [1, 1, 1]),
     "weight multiset size must equal the polynomial degree"),
    (lambda: TameCharacterExponent(9, 2, 7), "ell = 9 is not prime"),
    (lambda: TameCharacterExponent(5, -1, 0), "level must be positive"),
    (lambda: TameCharacterExponent(5, 2, -1), "exponent must lie in [0, 23], got -1"),
    (lambda: CongruenceInstance(DATUM, 1, 1, (0, 1, 1)), "t must have one entry per eigenvalue"),
    # a value int() would truncate is refused, never coerced
    (lambda: IntPolynomial([0.5, 1]), "coefficients must be integers, got 0.5"),
    (lambda: from_prime_power_roots(2, (1.5,)), "t must be integers, got 1.5"),
    (lambda: from_prime_power_roots(2, (-1,)), "t_k must be non-negative, got -1"),
    (lambda: WeilDatum(QUAD, 2, (1.9, 1.2)), "weights must be integers, got 1.9"),
    (lambda: validate_weights(QUAD, 2, (1, 1.5)), "weights must be integers, got 1.5"),
    (lambda: CongruenceInstance(DATUM, 2, 2, (1.7, 1.2)), "t must be integers, got 1.7"),
    # a value int() cannot convert is refused the same way, not with int()'s own error
    (lambda: IntPolynomial(["x", 1]), "coefficients must be integers, got 'x'"),
    (lambda: IntPolynomial([None, 1]), "coefficients must be integers, got None"),
    (lambda: validate_weights(IntPolynomial([2, 1, 1]), 2, [None, 1]),
     "weights must be integers, got None"),
    (lambda: IntPolynomial([float("inf"), 1]), "coefficients must be integers, got inf"),
    (lambda: IntPolynomial([1j, 1]), "coefficients must be integers, got 1j"),
]


@pytest.mark.parametrize("build,message", WRONG_SHAPES)
def test_a_wrong_shape_raises_schema_error_where_it_is_found(build, message):
    with pytest.raises(SchemaError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("build,message", [
    # the least integer past the witness range has no witness as a factor
    (lambda: is_prime(3_317_044_064_679_887_385_961_981),
     "primality of 3317044064679887385961981 exceeds the deterministic witness range"),
    (lambda: counterexample_search(2, 3, 1, 50), "n must be 2 or 4"),
])
def test_a_document_reaches_these_checks_as_precondition_failures(build, message):
    with pytest.raises(PreconditionError) as exc:
        build()
    assert str(exc.value) == message


def test_normalisation():
    assert DATUM.weights == (1, 1)
    # (T - 1)(T - 2) at q = 2: |1| = 2^(0/2) and |2| = 2^(2/2)
    assert WeilDatum(IntPolynomial((2, -3, 1)), 2, [2, 0]).weights == (0, 2)
    assert CongruenceInstance(DATUM, 1, 1, [1, 0]).t == (0, 1)
    poly = IntPolynomial([Fraction(4, 2), True, Fraction(1)])
    assert poly.coeffs == (2, 1, 1) and all(type(c) is int for c in poly.coeffs)
    assert poly == QUAD
