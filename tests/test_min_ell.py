"""--min-ell against a prime-by-prime scan of the whole range.  The CLI asks
the ladders prime by prime too, but starts at the least threshold any
situation can pass; the scan starts at 2, so it checks that start."""

import json
import time

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from semistable_gate import cli
from semistable_gate.bounds import (
    FieldInvariants,
    RepFamilyParams,
    cor1_setting,
    cor2_setting,
    decide,
    ec_irred_setting,
    etale_setting,
    rt_setting,
    trivial_setting,
)
from semistable_gate.primes import primes_up_to

SCAN_LIMIT = 10 ** 5
PRIMES = primes_up_to(SCAN_LIMIT)

Q1 = {"d": 1, "disc": 1, "h_plus": 1}
FIELDS = [
    Q1,
    {"d": 1, "disc": 1, "h_plus": 1, "galois_odd_degree": True},
    {"d": 2, "disc": 5, "h_plus": 1},
    {"d": 2, "disc": 12, "h_plus": 2},
    {"d": 2, "disc": 67, "h_plus": 1},
    {"d": 2, "disc": 1009, "h_plus": 1},
    {"d": 3, "disc": 49, "h_plus": 1, "galois_odd_degree": True},
]


def run_min_ell(command, doc):
    """(exit code, min_ell or None) of the CLI run with --min-ell."""
    code, out, _ = cli.answer([command, "--min-ell"], json.dumps(doc))
    return code, json.loads(out)["min_ell"] if code == 0 else None


def settings_of(command, doc):
    """The field, the settings a decision command decides at each prime, and
    the prime it never decides (ell0 of decide and of rt st_with_ell0)."""
    inv = FieldInvariants(**doc["field"])
    q = doc["query"]
    if command == "decide":
        p = RepFamilyParams(**doc["params"])
        cor1 = [cor1_setting(inv, p)] if p.cyclotomic else []
        return inv, [trivial_setting(inv, p), *cor1, cor2_setting(inv, p)], p.ell0
    if command == "rt":
        return inv, [rt_setting(inv, q["g"], q["variant"], q.get("ell0"))], q.get("ell0")
    if command == "ec-irred":
        return inv, [ec_irred_setting(inv, q["ell_E"])], None
    return inv, [etale_setting(inv, q["b_w"], q["ell_X"], q["w"])], None


def reference_min_ell(command, doc):
    """The reference scan: the least prime below SCAN_LIMIT, other than
    ell0, at which some setting's ladder certifies Empty, with the query's
    flags read at that prime as the CLI reads them; None when there is none
    below the limit."""
    inv, settings, ell0 = settings_of(command, doc)
    q = doc["query"]
    flags = (q.get("divides_disc", False), q.get("splits_in_K", False))
    for ell in PRIMES:
        if ell == ell0:
            continue
        if any(decide(s, ell, *flags).conclusion == "Empty" for s in settings):
            return ell
    return None


def _flags(draw):
    flags = {}
    if draw(st.booleans()):
        flags["divides_disc"] = draw(st.booleans())
    if draw(st.booleans()):
        flags["splits_in_K"] = draw(st.booleans())
    return flags


@st.composite
def decision_documents(draw):
    command = draw(st.sampled_from(["rt", "ec-irred", "etale", "decide"]))
    field = draw(st.sampled_from(FIELDS))
    query = {"ell": [], **_flags(draw)}
    if command == "decide":
        params = {"n": draw(st.integers(1, 4)), "ell0": draw(st.sampled_from([2, 3, 5, 7])),
                  "r": draw(st.integers(0, 2)), "variant": "bullet", "w": draw(st.integers(0, 4))}
        if draw(st.booleans()):
            params["cyclotomic"] = True
        return command, {"field": field, "params": params, "query": query}
    if command == "rt":
        query.update(g=draw(st.integers(1, 3)),
                     variant=draw(st.sampled_from(["st", "st_with_ell0"])))
        if query["variant"] == "st_with_ell0":
            query["ell0"] = draw(st.sampled_from([2, 3, 5]))
    elif command == "ec-irred":
        query["ell_E"] = draw(st.sampled_from([2, 3, 5, 7]))
    else:
        query.update(b_w=draw(st.integers(1, 4)), ell_X=draw(st.sampled_from([2, 3, 5])),
                     w=draw(st.sampled_from([1, 3])))
    return command, {"field": field, "query": query}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(decision_documents())
# 67 divides the discriminant and is the first prime above the threshold 4*2^4 = 64
@example(("ec-irred", {"field": FIELDS[4], "query": {"ell": [], "ell_E": 2}}))
# ell0 = 2 is the first prime above the trivial case's threshold 0
@example(("decide", {"field": FIELDS[1], "query": {"ell": []},
                     "params": {"n": 1, "ell0": 2, "r": 1, "variant": "bullet", "w": 1}}))
# 67 and 71, the first two primes above the threshold 64, both divide 4757
@example(("ec-irred", {"field": {"d": 2, "disc": 67 * 71, "h_plus": 1},
                       "query": {"ell": [], "ell_E": 2}}))
# the flag blocks (a) at every prime and the even degree blocks (b): no answer
@example(("ec-irred", {"field": FIELDS[2], "query": {"ell": [], "ell_E": 2,
                                                     "divides_disc": True}}))
def test_min_ell_closed_form_matches_the_scan(case):
    command, doc = case
    expected = reference_min_ell(command, doc)
    code, got = run_min_ell(command, doc)
    if expected is not None:
        assert (code, got) == (0, expected), (command, doc)
    elif code == 0:
        assert got is None or got > SCAN_LIMIT, (command, doc, got)
    else:
        # the least threshold that can fire is past the primality range
        assert code == 3, (command, doc)


def test_first_prime_above_a_threshold_is_skipped_when_excluded():
    assert run_min_ell("ec-irred", {"field": FIELDS[4], "query": {"ell": [], "ell_E": 2}}) \
        == (0, 71)
    doc = {"field": FIELDS[1], "query": {"ell": []},
           "params": {"n": 1, "ell0": 2, "r": 1, "variant": "bullet", "w": 1}}
    assert run_min_ell("decide", doc) == (0, 3)


def test_min_ell_beyond_the_old_scan_range():
    # 2^13 * binom(12, 6) = 7569408; the scan gave up after 100k primes (~1.3e6)
    doc = {"field": Q1, "query": {"ell": [], "g": 6, "variant": "st"}}
    assert run_min_ell("rt", doc) == (0, 7569409)


def test_min_ell_null_without_scanning():
    # w = 2 = 2r: neither w odd nor w > 2r, and n even blocks the trivial case
    doc = {"field": Q1, "query": {"ell": 1000003},
           "params": {"n": 2, "ell0": 2, "r": 1, "variant": "bullet", "w": 2,
                      "cyclotomic": True}}
    started = time.perf_counter()
    assert run_min_ell("decide", doc) == (0, None)
    assert time.perf_counter() - started < 1.0
