"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.
"""

import json
import math
import pathlib
import random
import time

import numpy as np
import pytest

from semistable_gate import cli
from semistable_gate.bounds import (
    FieldInvariants,
    RepFamilyParams,
    cor1_setting,
    cor2_setting,
    decide,
    derived_constants,
    ec_irred_setting,
    etale_setting,
    rt_setting,
    trivial_setting,
)
from semistable_gate.gate import counterexample_search, lemma_bound, size_exponent
from semistable_gate.intpoly import IntPolynomial, power_transform
from semistable_gate.primes import primes_up_to
from semistable_gate.tame import (
    TameCharacterExponent,
    base_digits,
    digit_weights,
    frobenius_orbit,
)

from golden_cases import CASES, OTHER_CASES, hand_check

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def report(criterion: str, started: float) -> None:
    print(f"PASS: {criterion} ({time.monotonic() - started:.2f}s)")


def test_criterion_1_constant_reproduction():
    started = time.monotonic()
    for g in range(1, 6):
        for d in range(1, 5):
            for h in range(1, 5):
                inv = FieldInvariants(d, 5, h)
                p = RepFamilyParams(2 * g, 2, 1, "bullet", w=1)
                c = derived_constants(inv, p)
                binom = math.comb(2 * g, g)
                assert c.C1 == 2 ** (2 * d * g + 1) * binom
                assert c.C1p == 2 ** (2 * d * g * h + 1) * binom
    report("criterion 1: constant reproduction over the (g, d, h+) grid", started)


def test_criterion_2_threshold_cross_consistency():
    started = time.monotonic()
    for d in range(1, 5):
        for h in range(1, 5):
            inv = FieldInvariants(d, 5, h)
            for l0 in (2, 3, 5):
                rt = rt_setting(inv, 1, "st_with_ell0", l0).thresholds
                ec = ec_irred_setting(inv, l0).thresholds
                et = etale_setting(inv, 2, l0, 1).thresholds
                assert rt == ec == et
    report("criterion 2: rt(g=1) == ec-irred == etale(b_w=2, w=1) thresholds", started)


def test_criterion_3_lemma_soundness_at_desk_scale():
    started = time.monotonic()
    total_sub_bound = 0
    worked_instance_seen = False
    for n in (2, 4):
        found = counterexample_search(2, n, 2, 200)
        # every returned instance is congruent-but-unequal and sub-bound
        for inst, ell in found:
            bound = lemma_bound(n, 2, 1, size_exponent(n, 1, n), inst.u)
            assert ell <= bound, (inst, ell, bound)
        total_sub_bound += len(found)
        if n == 2:
            worked_instance_seen = any(
                inst.datum.poly.coeffs == (2, 1, 1)
                and inst.s == 2 and inst.t == (1, 1) and ell == 7
                for inst, ell in found)
    assert worked_instance_seen
    assert total_sub_bound >= 1
    report(f"criterion 3: zero above-bound violations, {total_sub_bound} "
           "sub-bound congruences recorded", started)


def test_criterion_4_power_transform_oracle():
    started = time.monotonic()
    rng = random.Random(20260827)
    for _ in range(1000):
        n = rng.randint(1, 6)
        coeffs = tuple(rng.randint(-10, 10) for _ in range(n)) + (1,)
        s = rng.randint(1, 4)
        f = IntPolynomial(coeffs)
        got = power_transform(f, s)
        roots = np.roots(list(reversed(coeffs))) ** s
        numeric = np.poly(roots)
        expected = tuple(round(c.real) for c in reversed(numeric))
        assert all(abs(c.real - e) < 0.5 for c, e in zip(reversed(numeric), expected))
        assert got.coeffs == expected, (coeffs, s)
    assert power_transform(IntPolynomial((2, 1, 1)), 2).coeffs == (4, 3, 1)
    report("criterion 4: power transform matches the numeric root-powering "
           "oracle on 1000 random polynomials", started)


def test_criterion_5_tame_weight_invariance():
    started = time.monotonic()
    for ell in (2, 3, 5, 7):
        for h in (1, 2, 3):
            for n_f in range(ell ** h - 1):
                c = TameCharacterExponent(ell, h, n_f)
                base = digit_weights(c)
                for m in frobenius_orbit(c):
                    assert digit_weights(TameCharacterExponent(ell, h, m)) == base
                assert sum(base.elements()) % (ell - 1) == n_f % (ell - 1)
            norm = (ell ** h - 1) // (ell - 1)  # 1 + ell + ... + ell^(h-1)
            for k in range(ell):
                assert base_digits(k * norm, ell, h) == {k: h}
    report("criterion 5: tame-weight invariance exhaustive over "
           "ell in {2,3,5,7}, h <= 3", started)


def _run_cli(command: str, doc: dict) -> tuple[int, str]:
    code, out, _ = cli.answer([command], json.dumps(doc))
    return code, out


def test_criterion_6_decision_fidelity_golden_table():
    started = time.monotonic()
    assert len(CASES) == 20
    for name, command, doc, _ in CASES:
        code, out = _run_cli(command, doc)
        assert code == 0, name
        frozen = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
        assert out == frozen, f"certificate for {name} is not byte-identical"
        assert hand_check(name, json.loads(out)), name
    report("criterion 6: 20 golden certificates byte-exact", started)


def test_criterion_6_other_commands_golden():
    started = time.monotonic()
    for name, command, doc, _ in OTHER_CASES:
        code, out = _run_cli(command, doc)
        assert code == 0, name
        assert out == (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"), name
        assert hand_check(name, json.loads(out)), name
    report(f"criterion 6: {len(OTHER_CASES)} more golden certificates (three commands, "
           "and every situation CASES leaves out)", started)


def test_criterion_7_one_directionality_fuzz():
    started = time.monotonic()
    rng = random.Random(7)
    primes = primes_up_to(10_000)
    checked = 0
    reached = {}
    for _ in range(100_000):
        d = rng.randint(1, 4)
        inv = FieldInvariants(d, rng.choice([1, 5, 8, 49, 1009][d > 1:]), rng.randint(1, 4),
                              galois_odd_degree=(d % 2 == 1 and rng.random() < 0.5))
        ell = rng.choice(primes)
        flags = {"divides_disc": rng.random() < 0.3, "splits_in_K": rng.random() < 0.3}
        kind = rng.randrange(6)
        try:
            if kind == 0:
                p = RepFamilyParams(rng.randint(1, 6), rng.choice([2, 3, 5]),
                                    rng.randint(0, 3), "bullet",
                                    w=rng.randint(0, 3), cyclotomic=True)
                v = decide(cor1_setting(inv, p), ell, **flags)
            elif kind == 1:
                p = RepFamilyParams(rng.randint(1, 6), rng.choice([2, 3, 5]),
                                    rng.randint(0, 3), "bullet", w=rng.randint(0, 3))
                v = decide(cor2_setting(inv, p), ell, **flags)
            elif kind == 2:
                p = RepFamilyParams(rng.randint(1, 6), rng.choice([2, 3, 5]),
                                    rng.randint(0, 3), "bullet", w=rng.randint(0, 3))
                v = decide(trivial_setting(inv, p), ell)
            elif kind == 3:
                g, variant, ell0 = (rng.randint(1, 4), rng.choice(["st", "st_with_ell0"]),
                                    rng.choice([2, 3, 5]))
                v = decide(rt_setting(inv, g, variant,
                                      ell0 if variant == "st_with_ell0" else None), ell, **flags)
            elif kind == 4:
                v = decide(ec_irred_setting(inv, rng.choice([2, 3, 5])), ell, **flags)
            else:
                v = decide(etale_setting(inv, rng.randint(1, 4), rng.choice([2, 3, 5]),
                                         rng.choice([1, 3])), ell, **flags)
        except ValueError:
            continue  # ell == ell0 and similar precondition rejections
        checked += 1
        reached[v.theorem] = reached.get(v.theorem, 0) + 1
        assert v.conclusion in ("Empty", "NotDecided")
        if v.conclusion == "Empty":
            assert all(ok for _, ok in v.trace), v
            assert ell > v.threshold, v
            # true in fact, not merely of the flags: over Q no prime divides
            # the discriminant
            if ("ell_not_dividing_disc", True) in v.trace:
                assert inv.d == 1 or inv.disc % ell != 0 and not flags["divides_disc"], v
    assert checked > 50_000
    # every family's verdicts are checked: a precondition that starts
    # refusing a whole branch shows here, not as a quietly shorter run
    assert min(reached.values()) > 5_000 and len(reached) == 7, reached
    report(f"criterion 7: one-directionality holds on {checked} fuzzed inputs",
           started)
