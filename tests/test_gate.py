import pytest
from hypothesis import given, settings, strategies as st

from semistable_gate import gate, weil
from semistable_gate.errors import InternalConsistencyError, PreconditionError, SchemaError
from semistable_gate.gate import (
    CongruenceInstance,
    counterexample_search,
    forced_equality,
    lemma_bound,
    size_exponent,
)
from semistable_gate.intpoly import IntPolynomial, from_prime_power_roots, poly_mul, power_transform
from semistable_gate.primes import primes_up_to
from semistable_gate.weil import WeilDatum


def quad_datum():
    return WeilDatum(IntPolynomial((2, 1, 1)), 2, (1, 1))


def test_lemma_bound_examples():
    assert lemma_bound(2, 2, 1, 2, 2) == 64
    assert lemma_bound(1, 2, 1, 0, 0) == 2
    assert lemma_bound(2, 3, 1, 2, 1) == 36


def test_lemma_bound_fractional_exponent_ceils():
    from fractions import Fraction
    # d*M*u = 3/2 rounds up to 2
    assert lemma_bound(2, 2, 1, Fraction(3, 2), 1) == 2 * 2 * 4


def test_size_exponent():
    from fractions import Fraction
    assert size_exponent(2, 1, 2) == 2
    assert size_exponent(2, 1, 5) == Fraction(5, 2)
    assert size_exponent(1, 0, 0) == 0


def test_symmetric_congruence_examples():
    d = quad_datum()
    # T^2+3T+4 vs T^2-4T+4: 3 == -4 mod 7 only
    assert forced_equality(CongruenceInstance(d, 2, 2, (1, 1)), 7).congruent
    assert not forced_equality(CongruenceInstance(d, 2, 2, (1, 1)), 5).congruent


def test_symmetric_congruence_reflexive_on_equality():
    for q, j in [(2, 1), (3, 0), (5, 2)]:
        poly = from_prime_power_roots(q, (j,))
        datum = WeilDatum(poly, q, (2 * j,))
        for ell in (7, 101, 9973):
            if q % ell == 0:
                continue
            inst = CongruenceInstance(datum, 1, 1, (j,), r=max(j, 1))
            assert forced_equality(inst, ell).congruent


def test_forced_equality_below_bound():
    v = forced_equality(CongruenceInstance(quad_datum(), 2, 2, (1, 1)), 7)
    assert v.outcome == "CongruentBelowBound"
    assert v.bound == 64 and v.congruent


def test_forced_equality_exact():
    poly = poly_mul(IntPolynomial((-2, 1)), IntPolynomial((-4, 1)))
    datum = WeilDatum(poly, 2, (2, 4))
    v = forced_equality(CongruenceInstance(datum, 1, 1, (1, 2), r=2), 101)
    assert v.outcome == "ForcedEqual"
    assert v.matched_weights == (1, 2)
    assert sum(v.matched_weights) * 2 == 1 * sum(datum.weights)


def test_forced_equality_with_unmatched_weights_is_a_lemma_violation(monkeypatch):
    # roots +-2 have weight 2 at q = 2, and (T-4)^2 matches t = (2, 2) exactly;
    # weights (1, 3), let through the validation, give s*w = (2, 6) != 2*t
    monkeypatch.setattr(weil, "validate_weights", lambda poly, q, weights: True)
    datum = WeilDatum(IntPolynomial((-4, 0, 1)), 2, (1, 3))
    with pytest.raises(InternalConsistencyError, match=r"s\*w = 2 \* \[1, 3\] is not 2\*t = 2 \* \[2, 2\]"):
        forced_equality(CongruenceInstance(datum, 2, 2, (2, 2)), 67)


def test_forced_equality_not_congruent():
    v = forced_equality(CongruenceInstance(quad_datum(), 1, 1, (0, 0)), 101)
    assert v.outcome == "NotCongruent"
    assert not v.congruent


def test_instance_validation():
    d = quad_datum()
    with pytest.raises(PreconditionError):
        CongruenceInstance(d, 3, 2, (1, 1))         # s > u
    with pytest.raises(PreconditionError):
        CongruenceInstance(d, 1, 1, (2, 0))         # t_k > r*u
    with pytest.raises(PreconditionError, match=r"^d must be positive, got -1$"):
        CongruenceInstance(quad_datum(), 1, 1, (1, 1), d=-1)  # field degree -1
    with pytest.raises(ValueError) as wrong_size:
        CongruenceInstance(d, 1, 1, (1,))           # wrong t size
    assert not isinstance(wrong_size.value, PreconditionError)
    constant = WeilDatum(IntPolynomial((1,)), 2, ())
    with pytest.raises(PreconditionError, match=r"^poly must have degree at least 1$"):
        CongruenceInstance(constant, 1, 1, ())      # no eigenvalue


def test_forced_equality_refuses_an_ell_dividing_q():
    inst = CongruenceInstance(quad_datum(), 1, 1, (1, 1))
    with pytest.raises(PreconditionError, match=r"^ell must not divide q$"):
        forced_equality(inst, 2)
    four = WeilDatum(IntPolynomial((4, 1, 1)), 4, (1, 1))
    with pytest.raises(PreconditionError, match=r"^ell must not divide q$"):
        forced_equality(CongruenceInstance(four, 1, 1, (0, 1)), 2)


def test_counterexample_search_contains_worked_instance():
    found = counterexample_search(2, 2, 2, 100)
    assert any(
        f.datum.poly.coeffs == (2, 1, 1) and f.s == 2 and f.t == (1, 1) and ell == 7
        for f, ell in found)


def test_counterexample_search_all_sub_bound():
    for n in (2, 4):
        for inst, ell in counterexample_search(2, n, 2, 200):
            M = size_exponent(n, 1, n)
            assert ell <= lemma_bound(n, 2, 1, M, inst.u)


def test_counterexample_search_excludes_exact_equality():
    for inst, _ in counterexample_search(2, 2, 1, 3):
        from semistable_gate.intpoly import power_transform
        lhs = power_transform(inst.datum.poly, inst.s)
        rhs = from_prime_power_roots(2, inst.t)
        assert lhs != rhs


def test_counterexample_search_deterministic_order():
    a = counterexample_search(2, 2, 2, 100)
    b = counterexample_search(2, 2, 2, 100)
    assert [(i.datum.poly.coeffs, i.s, i.t, ell) for i, ell in a] == \
           [(i.datum.poly.coeffs, i.s, i.t, ell) for i, ell in b]


def test_counterexample_search_budget():
    with pytest.raises(PreconditionError, match=r"^corpus size at least \d+ exceeds budget 10$"):
        counterexample_search(2, 4, 2, 200, budget=10)


def test_counterexample_search_budget_meets_the_exact_count_after_the_sieve():
    # q = 2, n = 2, s_max = 1: 5 quadratics times 3 t vectors is 15 cells, and the
    # 24 primes up to 100 other than ell0 = 2 make a corpus of 360; the lower
    # bound, read before the sieve, counts 13 primes
    with pytest.raises(PreconditionError, match=r"^corpus size at least 195 exceeds budget 194$"):
        counterexample_search(2, 2, 1, 100, budget=194)
    with pytest.raises(PreconditionError, match=r"^corpus size 360 exceeds budget 359$"):
        counterexample_search(2, 2, 1, 100, budget=359)
    assert len(counterexample_search(2, 2, 1, 100, budget=360)) == 2


@given(st.sampled_from(primes_up_to(60)[1:]), st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_forced_equal_never_fires_at_or_below_bound(ell, s):
    d = quad_datum()
    inst = CongruenceInstance(d, s, s, (1,) * 2 if s == 1 else (1, 1))
    v = forced_equality(inst, ell)
    if v.outcome == "ForcedEqual":
        assert ell > v.bound


def test_an_instance_past_the_digit_limit_is_refused_when_built():
    # 2*c_2*2^(2*10^5) has about 60,000 digits
    message = r"^bound 2\*c_n\*ell0\^\(d\*M\*u\) has more than 4300 digits$"
    with pytest.raises(PreconditionError, match=message):
        CongruenceInstance(quad_datum(), 10 ** 5, 10 ** 5, (1, 1))


@pytest.mark.parametrize("u,d,r", [(2, 1, 1), (3, 2, 1), (1, 1, 2), (2, 1, 0), (5, 3, 1)])
def test_the_bound_is_a_field_with_its_closed_form(u, d, r):
    # n = 2 and weight budget 2, so M = max(2r, 1); c_2 = 2 and ell0 = 2
    inst = CongruenceInstance(quad_datum(), 1, u, (0, 0), d=d, r=r)
    assert "bound" in CongruenceInstance._fields and "ell" not in CongruenceInstance._fields
    assert inst.bound == 2 * 2 * 2 ** (d * max(2 * r, 1) * u)
    # T^2 + 9: roots +-3i of absolute value 9^(1/2), so ell0 = 3
    nine = WeilDatum(IntPolynomial((9, 0, 1)), 9, (1, 1))
    nine = CongruenceInstance(nine, 1, u, (0, 0), d=d, r=r)
    assert nine.bound == 2 * 2 * 3 ** (d * max(2 * r, 1) * u)


def test_the_sweep_leaves_the_lemma_to_forced_equality(monkeypatch):
    # a bound of 2 puts every congruent, unequal hit (ell 7 among them) above it
    monkeypatch.setattr(gate, "lemma_bound", lambda *args: 2)
    with pytest.raises(InternalConsistencyError, match=r"^congruent mod \d+ above bound 2 but not equal"):
        counterexample_search(2, 2, 2, 100)


def test_an_instance_owns_its_weight_budget_and_both_sides():
    assert WeilDatum._fields == ("poly", "q", "weights")
    inst = CongruenceInstance(quad_datum(), 2, 2, (1, 1))
    assert inst.w_bar == 2  # the datum's total weight
    assert (inst.lhs, inst.rhs) == (power_transform(IntPolynomial((2, 1, 1)), 2),
                                    from_prime_power_roots(2, (1, 1)))
    # only the bound reads w_bar: M = max(n*r, w_bar/2) = max(2, 3) at w_bar = 6
    wide = CongruenceInstance(quad_datum(), 2, 2, (1, 1), w_bar=6)
    assert (wide.w_bar, wide.bound, wide.lhs, wide.rhs) == (6, 2 * 2 * 2 ** (3 * 2), inst.lhs, inst.rhs)


def test_the_weight_budget_is_checked_first():
    # the t length and s > u are faults too, but the budget is read first
    with pytest.raises(SchemaError, match=r"^total weight 2 exceeds budget 1$"):
        CongruenceInstance(quad_datum(), 3, 2, (1,), w_bar=1)


def test_forced_equality_only_compares(monkeypatch):
    inst = CongruenceInstance(quad_datum(), 2, 2, (1, 1))

    def rebuilt(*args):
        raise AssertionError(f"a side was rebuilt: {args}")

    monkeypatch.setattr(gate, "power_transform", rebuilt)
    monkeypatch.setattr(gate, "from_prime_power_roots", rebuilt)
    outcomes = {forced_equality(inst, ell).outcome for ell in primes_up_to(100)[1:]}
    assert outcomes == {"CongruentBelowBound", "NotCongruent"}


def test_a_refused_bound_builds_no_side(monkeypatch):
    built = []
    monkeypatch.setattr(gate, "power_transform", lambda *args: built.append(args))
    monkeypatch.setattr(gate, "from_prime_power_roots", lambda *args: built.append(args))
    with pytest.raises(PreconditionError, match=r"has more than 4300 digits$"):
        CongruenceInstance(quad_datum(), 10 ** 5, 10 ** 5, (1, 1))
    assert built == []


def test_the_sweep_builds_each_side_once_and_an_instance_per_congruent_cell(monkeypatch):
    calls = {"power_transform": 0, "from_prime_power_roots": 0}
    for name in calls:
        def counted(*args, fn=getattr(gate, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(gate, name, counted)
    found = counterexample_search(2, 2, 2, 100)
    cells = len({(inst.datum.poly, inst.s, inst.t) for inst, _ in found})
    assert 0 < cells <= len(found)
    # 5 quadratics at q = 2; s in {1, 2}; 3 + 6 t-multisets, each right side built
    # once for all products; each congruent cell's instance builds its two sides once more
    assert calls == {"power_transform": 5 * 2 + cells, "from_prime_power_roots": 9 + cells}
