"""An independent check of emptiness certificates.

For an `Empty` verdict at the prime ell, every hypothesis in its trace is
recomputed from the input document alone, and its threshold is rebuilt
from the theorems' closed forms, a second statement of them (the `*_setting`
docstrings give the same formulas).  This module imports nothing from
`semistable_gate`, so a fault in the package cannot hide itself here.
"""

from math import comb, isqrt

# theorem -> (its gate, situation -> (its own hypotheses, threshold kind));
# for the family's exponent E, kind "a" is 2*c*base^ceil(d*E) and kind "b"
# 2*c*base^ceil(d^2*E); every situation but the trivial one also needs
# ell_gt_threshold
_UNIFORM = {"a": ({"w_odd", "ell_not_dividing_disc"}, "a"), "b": ({"w_odd", "degree_odd"}, "b"),
            "c": ({"w_gt_2r", "ell_not_dividing_disc"}, "a"), "d": ({"w_gt_2r"}, "b"),
            "e": ({"w_odd", "n_odd"}, "b")}
_TWO = {"a": ({"ell_not_dividing_disc"}, "a"), "b": ({"degree_odd"}, "b")}
_NONSPLIT = {"ell_does_not_split_in_K"}
THEOREMS = {
    "Trivial": ({"n_odd", "w_odd", "galois_odd_degree", "ell_ne_ell0"},
                {"trivial": (set(), None)}),
    "Cor1": ({"w_odd_or_w_gt_2r"}, _UNIFORM),
    "Cor2": ({"w_odd_or_w_gt_2r"} | _NONSPLIT, _UNIFORM),
    "RTst": (set(), _TWO),
    "GRTst": (_NONSPLIT, _TWO),
    "Ell": (_NONSPLIT, _TWO),
    "Et": (_NONSPLIT, _TWO),
}


def is_prime(n: int) -> bool:
    """Trial division by 2, 3 and the numbers 6k +- 1."""
    if n < 4:
        return n >= 2
    if n % 2 == 0 or n % 3 == 0:
        return False
    return all(n % k and n % (k + 2) for k in range(5, isqrt(n) + 1, 6))


def thresholds(theorem: str, doc: dict) -> dict:
    """The (a) and (b) thresholds of the family, from the closed forms."""
    field, q = doc["field"], doc.get("query", {})
    d, h = field["d"], field["h_plus"]
    if theorem in ("Cor1", "Cor2"):
        p = doc["params"]
        n, u = p["n"], 1 if theorem == "Cor1" else h
        twice_M = max(2 * n * p["r"], n * p["w"])   # M = max(n*r, n*w/2)
        # 2*c_n*ell0^ceil(d*u*M) and 2*c_n*ell0^ceil(d^2*u*M)
        return {kind: 2 * comb(n, n // 2) * p["ell0"] ** (-(-e * u * twice_M // 2))
                for kind, e in (("a", d), ("b", d * d))}
    # each (a) threshold is c*base^(d*e), and its (b) partner c*base^(d^2*e)
    if theorem == "RTst":      # 2^(2dg+1)*binom(2g,g)
        base, c, e = 2, 2 * comb(2 * q["g"], q["g"]), 2 * q["g"]
    elif theorem == "GRTst":   # 2*binom(2g,g)*ell0^(2dgh)
        base, c, e = q["ell0"], 2 * comb(2 * q["g"], q["g"]), 2 * q["g"] * h
    elif theorem == "Ell":     # 4*ell_E^(2dh)
        base, c, e = q["ell_E"], 4, 2 * h
    else:                      # Et: 2*binom(b_w, b_w/2)*ell_X^(b_w*w*d*h)
        base, c, e = q["ell_X"], 2 * comb(q["b_w"], q["b_w"] // 2), q["b_w"] * q["w"] * h
    return {"a": c * base ** (d * e), "b": c * base ** (d * d * e)}


def _facts(doc: dict, ell: int) -> dict:
    """The truth of each hypothesis name at ell, read from the document."""
    field, q, p = doc["field"], doc.get("query", {}), doc.get("params", {})
    d, disc = field["d"], field["disc"]
    facts = {
        "degree_odd": d % 2 == 1,
        # odd-degree Galois: a positive square discriminant, which at d = 3 suffices
        "galois_odd_degree": field.get("galois_odd_degree", False)
                             and (d == 1 or d == 3 and disc > 0 and isqrt(disc) ** 2 == disc),
        "ell_ne_ell0": ell != p.get("ell0", q.get("ell0")),
        # over Q nothing divides the discriminant 1; a set flag forbids the claim
        "ell_not_dividing_disc": d == 1 or (disc % ell != 0 and not q.get("divides_disc", False)),
        "ell_does_not_split_in_K": d == 1 or not q.get("splits_in_K", False),
    }
    if "w" in p:
        n, w, r = p["n"], p["w"], p["r"]
        facts.update(n_odd=n % 2 == 1, w_odd=w % 2 == 1, w_gt_2r=w > 2 * r,
                     w_odd_or_w_gt_2r=w % 2 == 1 or w > 2 * r)
    return facts


def check_empty(doc: dict, ell: int, verdict: dict) -> None:
    """Assert that an Empty verdict at ell is true in fact: ell is prime,
    the threshold is the closed form's integer and ell exceeds it, and
    every hypothesis the theorem's gate and situation need is in the trace
    and holds for the document."""
    assert verdict["conclusion"] == "Empty"
    assert is_prime(ell), f"{ell} is not prime"
    gate, situations = THEOREMS[verdict["theorem"]]
    own, kind = situations[verdict["situation"]]
    threshold = verdict["threshold"]
    assert type(threshold) is int, f"threshold {threshold!r} is not an integer"
    expected = 0 if kind is None else thresholds(verdict["theorem"], doc)[kind]
    assert threshold == expected, f"threshold {threshold} is not the closed form {expected}"
    facts = {**_facts(doc, ell), "ell_gt_threshold": ell > threshold}
    claimed = dict(verdict["trace"])
    needed = gate | own | ({"ell_gt_threshold"} if kind else set())
    assert needed <= set(claimed), f"the trace lacks {sorted(needed - set(claimed))}"
    for name, truth in claimed.items():
        assert truth is True and facts[name], f"{name} is claimed at {ell} but is false"


def kronecker_is_minus_one(disc: int, ell: int) -> bool:
    """(disc/ell) = -1 for a prime ell not dividing disc: Euler's criterion,
    and at ell = 2, disc = 5 mod 8."""
    if ell == 2:
        return disc % 8 == 5
    return pow(disc, (ell - 1) // 2, ell) == ell - 1


def check_nonsplit(doc: dict, ell: int, verdict: dict) -> None:
    """Assert that an Empty verdict claims ell does not split in K only when
    exactly one prime lies above ell: always over Q; over a quadratic field,
    when ell ramifies or is inert; over a field of degree 3 or more, never,
    because (d, disc, h_plus) does not determine how ell decomposes."""
    if "ell_does_not_split_in_K" not in dict(verdict["trace"]):
        return
    d, disc = doc["field"]["d"], doc["field"]["disc"]
    assert d <= 2, f"no-split claimed at {ell} over a field of degree {d}"
    assert d == 1 or disc % ell == 0 or kronecker_is_minus_one(disc, ell), \
        f"no-split claimed at {ell}, which splits in the field of discriminant {disc}"
