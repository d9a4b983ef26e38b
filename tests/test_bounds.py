import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from semistable_gate.bounds import (
    FieldInvariants,
    RepFamilyParams,
    central_binomial,
    cor1_setting,
    cor2_setting,
    decide,
    derived_constants,
    ec_irred_setting,
    etale_setting,
    least_empty_prime,
    lemma_bound,
    rt_setting,
    trivial_setting,
)
from semistable_gate.errors import PreconditionError
from semistable_gate.primes import next_prime

Q_FIELD = FieldInvariants(d=1, disc=1, h_plus=1, galois_odd_degree=True)


def bullet(n, ell0, r, w, cyclotomic=False):
    return RepFamilyParams(n=n, ell0=ell0, r=r, variant="bullet", w=w,
                           cyclotomic=cyclotomic)


def test_central_binomial():
    assert central_binomial(2) == 2
    assert central_binomial(3) == 3
    assert central_binomial(4) == 6
    assert central_binomial(1) == 1


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 60) | st.integers(1, 16000),
       ell0=st.sampled_from([2, 3, 5, 101, 2 ** 61 - 1]),
       d=st.integers(1, 4), numerator=st.integers(0, 4000), u=st.integers(1, 8))
@example(n=1, ell0=2, d=1, numerator=2 * 14283, u=1)  # 2^14284 has 4300 digits
@example(n=1, ell0=2, d=1, numerator=2 * 14284, u=1)  # 2^14285 has 4301
@example(n=2, ell0=3, d=1, numerator=9200, u=2)       # 4*3^9200, past it by its value only
@example(n=14300, ell0=2, d=1, numerator=0, u=1)      # 2*c_n alone, near the limit
def test_lemma_bound_is_its_closed_form_up_to_the_digit_limit(n, ell0, d, numerator, u):
    M = Fraction(numerator, 2)
    exponent = math.ceil(d * M * u)
    if exponent * (ell0.bit_length() - 1) > 20_000:
        expected = None  # ell0^exponent alone passes 2^20000 > 10^6000
    else:
        expected = 2 * math.comb(n, n // 2) * ell0 ** exponent
        if expected >= 10 ** 4300:
            expected = None
    assert lemma_bound(n, ell0, d, M, u) == expected


def test_derived_constants_examples():
    c = derived_constants(Q_FIELD, bullet(2, 2, 1, 1))
    assert (c.M, c.eps1, c.C1, c.C1p, c.C2, c.C2p) == (2, 2, 16, 16, 16, 16)

    c = derived_constants(FieldInvariants(2, 5, 1), bullet(2, 2, 1, 1))
    assert c.eps1 == 4 and c.C1 == 64
    assert c.eps2 == 8 and c.C2 == 1024

    c = derived_constants(Q_FIELD, RepFamilyParams(1, 2, 0, "circle", w_bar=0))
    assert c.M == 0 and c.C1 == c.C2 == c.C1p == c.C2p == 2


def test_derived_constants_invariants():
    for d in (1, 2, 3):
        for h in (1, 2):
            inv = FieldInvariants(d, 5, h)
            c = derived_constants(inv, bullet(3, 3, 2, 1))
            assert c.eps2 == d * c.eps1 and c.eps2p == d * c.eps1p
            assert c.C1 <= c.C2 and c.C1p <= c.C2p
            assert c.C1 <= c.C1p and c.C2 <= c.C2p


def test_derived_constants_odd_budget_ceils():
    # w_bar = 3, n*r = 1 so M = 3/2; exponent ceil(3/2) = 2
    c = derived_constants(Q_FIELD, RepFamilyParams(1, 2, 1, "circle", w_bar=3))
    assert c.M == Fraction(3, 2)
    assert c.C1 == 2 * 1 * 4


def test_variant_field_exclusivity():
    with pytest.raises(ValueError):
        RepFamilyParams(2, 2, 1, "bullet", w=1, w_bar=2)
    with pytest.raises(ValueError):
        RepFamilyParams(2, 2, 1, "circle", w=1)
    with pytest.raises(ValueError):
        RepFamilyParams(2, 2, 1, "circle")


def test_decide_cor1_examples():
    p = bullet(2, 2, 1, 1, cyclotomic=True)
    v = decide(cor1_setting(Q_FIELD, p), 17)
    assert (v.conclusion, v.situation, v.threshold) == ("Empty", "a", 16)
    assert all(ok for _, ok in v.trace)

    v = decide(cor1_setting(Q_FIELD, p), 13)
    assert v.conclusion == "NotDecided"

    # standing hypothesis fails: w = 2 = 2r is neither odd nor > 2r
    v = decide(cor1_setting(Q_FIELD, bullet(2, 2, 1, 2, cyclotomic=True)), 10 ** 9 + 7)
    assert v.conclusion == "NotDecided"


def test_decide_cor1_requires_cyclotomic():
    with pytest.raises(ValueError):
        decide(cor1_setting(Q_FIELD, bullet(2, 2, 1, 1)), 17)


def test_decide_cor1_rejects_ell0():
    with pytest.raises(PreconditionError, match=r"^ell = ell0 = 2 is outside the framework$"):
        decide(cor1_setting(Q_FIELD, bullet(2, 2, 1, 1, cyclotomic=True)), 2)


def test_decide_cor2_examples():
    v = decide(cor2_setting(Q_FIELD, bullet(2, 3, 1, 1)), 37)
    assert (v.conclusion, v.situation, v.threshold) == ("Empty", "a", 36)

    v = decide(cor2_setting(FieldInvariants(2, 5, 1), bullet(2, 3, 1, 1)), 37, splits_in_K=True)
    assert v.conclusion == "NotDecided"
    assert ("ell_does_not_split_in_K", False) in v.trace


def test_decide_cor2_odd_dimension_threshold_48():
    # n = 3, w = 1, r = 1, d = 1, ell0 = 2: M = 3, C1' = C2' = 2*3*8 = 48.
    # Over Q no prime divides the discriminant, so the flag is ignored and
    # situation (a) fires.
    v = decide(cor2_setting(Q_FIELD, bullet(3, 2, 1, 1)), 53, divides_disc=True)
    assert (v.conclusion, v.situation, v.threshold) == ("Empty", "a", 48)
    # Over a cubic field the flag blocks (a); d = 3 is odd, so (b) fires
    # before (e) at the same threshold C2' = 2*3*2^(d^2*h*M) = 6*2^27.
    ell = next_prime(6 * 2 ** 27)
    v = decide(cor2_setting(FieldInvariants(3, 49, 1), bullet(3, 2, 1, 1)), ell, divides_disc=True)
    assert (v.conclusion, v.situation, v.threshold) == ("Empty", "b", 6 * 2 ** 27)


def test_decide_cor2_situation_e_fires_for_even_degree():
    # d = 2 blocks (b); divides_disc blocks (a); w <= 2r blocks (c), (d).
    # (e) needs w, n odd and ell > C2' = 2*3*2^(d^2*h*M) = 24576.
    inv = FieldInvariants(2, 5, 1)
    p = bullet(3, 2, 1, 1)
    v = decide(cor2_setting(inv, p), 24593, divides_disc=True)
    assert (v.conclusion, v.situation, v.threshold) == ("Empty", "e", 24576)
    below = decide(cor2_setting(inv, p), 53, divides_disc=True)
    assert below.conclusion == "NotDecided"


def test_decide_trivial():
    p = bullet(1, 2, 1, 1)
    v = decide(trivial_setting(Q_FIELD, p), 5)
    assert v.conclusion == "Empty" and v.threshold == 0
    assert decide(trivial_setting(Q_FIELD, bullet(2, 2, 1, 1)), 5).conclusion == "NotDecided"
    assert decide(trivial_setting(Q_FIELD, p), 2).conclusion == "NotDecided"
    non_galois = FieldInvariants(3, 49, 1, galois_odd_degree=False)
    assert decide(trivial_setting(non_galois, p), 5).conclusion == "NotDecided"


@pytest.mark.parametrize("d,disc,galois", [
    (1, 1, True), (3, 49, True), (3, 81, True),
    (3, -23, False),   # T^3 - T - 1: not a square
    (3, -49, False),   # a square in absolute value only: not totally real
    (3, 148, False),   # T^3 - 4T - 2, Eisenstein at 2: 4 * 37, positive but no square
    (5, 14641, False),  # 11^4, the cyclic quintic's: unproven from the invariants
])
def test_the_galois_flag_holds_only_where_the_invariants_prove_it(d, disc, galois):
    inv = FieldInvariants(d, disc, 1, galois_odd_degree=True)
    conclusion = decide(trivial_setting(inv, bullet(1, 2, 1, 1)), 5).conclusion
    assert conclusion == ("Empty" if galois else "NotDecided")


def test_decide_rt_examples():
    v = decide(rt_setting(Q_FIELD, 1, "st"), 17)
    assert (v.conclusion, v.situation, v.threshold) == ("Empty", "a", 16)

    v = decide(rt_setting(Q_FIELD, 2, "st"), 200)
    assert v.threshold == 2 ** 5 * 6 == 192

    v = decide(rt_setting(Q_FIELD, 1, "st_with_ell0", 2), 17)
    assert v.threshold == 2 * 4 * 2 == 16


def test_decide_rt_gating():
    inv = FieldInvariants(2, 5, 1)
    v = decide(rt_setting(inv, 1, "st_with_ell0", 2), 10 ** 9 + 7, splits_in_K=True)
    assert v.conclusion == "NotDecided"
    with pytest.raises(PreconditionError, match=r"^ell = ell0 = 2 is outside the framework$"):
        decide(rt_setting(Q_FIELD, 1, "st_with_ell0", 2), 2)


def test_decide_ec_irred_examples():
    v = decide(ec_irred_setting(Q_FIELD, 2), 17)
    assert (v.conclusion, v.threshold) == ("Empty", 16)
    v = decide(ec_irred_setting(Q_FIELD, 3), 37)
    assert (v.conclusion, v.threshold) == ("Empty", 36)
    # real quadratic d = 2, h+ = 1, ell_E = 2: (a) 4*2^4 = 64, (b) 4*2^8 = 1024
    inv = FieldInvariants(2, 8, 1)
    assert ec_irred_setting(inv, 2).thresholds == (64, 1024)
    v = decide(ec_irred_setting(inv, 2), 1031, divides_disc=True)
    assert v.conclusion == "NotDecided"  # d even: (b) unavailable, (a) gated off
    v = decide(ec_irred_setting(inv, 2), 67)
    assert (v.situation, v.threshold) == ("a", 64)


def test_ec_irred_situation_b_threshold():
    inv = FieldInvariants(3, 49, 1)
    ell = next_prime(4 * 2 ** 18)
    v = decide(ec_irred_setting(inv, 2), ell, divides_disc=True)
    # situation (a) is gated off by divides_disc; (b) has threshold 4*2^(2*9*1)
    assert v.situation == "b" and v.threshold == 4 * 2 ** 18


def test_decide_etale_examples():
    v = decide(etale_setting(Q_FIELD, 2, 2, 1), 17)
    assert (v.conclusion, v.threshold) == ("Empty", 16)
    v = decide(etale_setting(Q_FIELD, 4, 2, 1), 193)
    assert (v.conclusion, v.threshold) == ("Empty", 192)
    with pytest.raises(PreconditionError, match=r"^w must be odd, got 2$"):
        decide(etale_setting(Q_FIELD, 2, 2, 2), 17)


# 1009 is prime and divides the discriminant of this real quadratic field
DISC_1009 = FieldInvariants(2, 1009, 1)


def test_no_empty_claims_coprimality_at_a_prime_dividing_the_discriminant():
    # every (a) threshold here is below 1009, and d = 2 blocks (b): with the
    # flags unset, each entry must still see that 1009 divides the discriminant
    verdicts = [
        decide(cor1_setting(DISC_1009, bullet(2, 2, 1, 1, cyclotomic=True)), 1009),
        decide(cor2_setting(DISC_1009, bullet(2, 2, 1, 1)), 1009),
        decide(rt_setting(DISC_1009, 1, "st"), 1009),
        decide(ec_irred_setting(DISC_1009, 2), 1009),
        decide(etale_setting(DISC_1009, 1, 2, 1), 1009),
    ]
    for v in verdicts:
        assert v.conclusion == "NotDecided", v
        assert ("a:ell_not_dividing_disc", False) in v.trace, v


def test_least_empty_prime_skips_a_prime_dividing_the_discriminant():
    # n = 1, r = 0, w = 1: M = 1/2, so (a) sits at 2*503^(2*1/2) = 1006, and
    # the first prime above it is 1009; d = 2 blocks (b)
    p = bullet(1, 503, 0, 1)
    assert cor2_setting(DISC_1009, p).thresholds[0] == 1006
    assert least_empty_prime([cor2_setting(FieldInvariants(2, 5, 1), p)]) == 1009
    assert least_empty_prime([cor2_setting(DISC_1009, p)]) == 1013


def test_thresholds_monotone_in_every_parameter():
    grid_d, grid_h = (1, 2, 3, 4), (1, 2, 3, 4)
    grid_n, grid_r, grid_w, grid_l0 = (1, 2, 3, 4, 5, 6), (0, 1, 2, 3), (0, 1, 2, 3), (2, 3, 5)

    def thresholds(d, h, n, r, w, l0):
        c = derived_constants(FieldInvariants(d, 5, h), bullet(n, l0, r, w))
        return (c.C1, c.C2, c.C1p, c.C2p)

    base_args = dict(d=2, h=2, n=3, r=1, w=1, l0=3)
    for key, grid in [("d", grid_d), ("h", grid_h), ("n", grid_n),
                      ("r", grid_r), ("w", grid_w), ("l0", grid_l0)]:
        prev = None
        for val in grid:
            args = dict(base_args, **{key: val})
            cur = thresholds(**args)
            if prev is not None:
                assert all(a <= b for a, b in zip(prev, cur)), (key, val)
            prev = cur


def test_cross_consistency_rt_vs_constants():
    from semistable_gate.bounds import rt_setting
    # bullet (2g, 2, 1, 1): C1/C1' must equal the abelian-variety thresholds
    for g in range(1, 6):
        for d in range(1, 5):
            for h in range(1, 5):
                inv = FieldInvariants(d, 5, h)
                c = derived_constants(inv, bullet(2 * g, 2, 1, 1))
                assert c.C1 == 2 ** (2 * d * g + 1) * math.comb(2 * g, g)
                assert c.C1p == 2 ** (2 * d * g * h + 1) * math.comb(2 * g, g)
                assert c.C1 == rt_setting(inv, g, "st").thresholds[0]
                assert c.C1p == rt_setting(inv, g, "st_with_ell0", 2).thresholds[0]


def test_cross_consistency_ec_vs_grt_vs_etale():
    from semistable_gate.bounds import ec_irred_setting, etale_setting, rt_setting
    for d in range(1, 5):
        for h in range(1, 5):
            inv = FieldInvariants(d, 5, h)
            for l0 in (2, 3, 5):
                assert rt_setting(inv, 1, "st_with_ell0", l0).thresholds \
                    == ec_irred_setting(inv, l0).thresholds \
                    == etale_setting(inv, 2, l0, 1).thresholds
