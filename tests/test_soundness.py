"""Every Empty certificate is true in fact.

A property over the five families (the uniform-weight family of `decide`,
its cyclotomic subfamily, and `rt`, `ec-irred` and `etale`): each Empty the
CLI certifies, at the query's primes and at its --min-ell answer, must pass
`trace_checker`, which recomputes every claim from the input document and
shares no code with the package, and so must every Empty among the
committed goldens of those families.  An `ast` guard keeps the independent
checkers free of the package, and another keeps the golden regeneration to
the standard library."""

import ast
import itertools
import json
import pathlib
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from semistable_gate import cli
from trace_checker import check_empty, check_nonsplit, is_prime, thresholds

# the cubic field of T^3 - T - 1: flagged, yet not Galois (its discriminant is no square)
CUBIC_23 = {"d": 3, "disc": -23, "galois_odd_degree": True}
FIELDS = [{"d": 1, "disc": 1}, {"d": 1, "disc": 1, "galois_odd_degree": True},
          *({"d": 2, "disc": disc} for disc in (5, 8, 12, 13, 4757)),
          {"d": 3, "disc": 49}, {"d": 3, "disc": 49, "galois_odd_degree": True},
          CUBIC_23]
# small primes, among them the discriminants' divisors and ell0 candidates
SPECIAL = [2, 3, 5, 7, 13, 67, 71, 101]
# --min-ell is asked only where every threshold is below this, so that
# trial division can prove its answer prime
MIN_ELL_CAP = 10 ** 9


def run(command: str, doc: dict, *flags: str) -> tuple[int, dict | None]:
    code, out, _ = cli.answer([command, *flags], json.dumps(doc))
    return code, json.loads(out) if code == 0 else None


def _prime_from(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


@st.composite
def families(draw):
    command = draw(st.sampled_from(["decide", "rt", "ec-irred", "etale"]))
    field = {**draw(st.sampled_from(FIELDS)), "h_plus": draw(st.integers(1, 2))}
    ells = st.sampled_from(SPECIAL) | st.integers(2, 10 ** 6).map(_prime_from)
    query = {"ell": draw(st.lists(ells, max_size=3, unique=True))}
    for flag in ("divides_disc", "splits_in_K"):
        if draw(st.booleans()):
            query[flag] = draw(st.booleans())
    doc = {"field": field, "query": query}
    if command == "decide":
        doc["params"] = {"n": draw(st.integers(1, 4)), "ell0": draw(st.sampled_from([2, 3, 5, 7])),
                         "r": draw(st.integers(0, 2)), "variant": "bullet",
                         "w": draw(st.integers(0, 4)), "cyclotomic": draw(st.booleans())}
    elif command == "rt":
        query.update(g=draw(st.integers(1, 3)),
                     variant=draw(st.sampled_from(["st", "st_with_ell0"])))
        if query["variant"] == "st_with_ell0":
            query["ell0"] = draw(st.sampled_from([2, 3, 5]))
            query["ell"] = [ell for ell in query["ell"] if ell != query["ell0"]]
    elif command == "ec-irred":
        query["ell_E"] = draw(st.sampled_from([2, 3, 5, 7]))
    else:
        query.update(b_w=draw(st.integers(1, 4)), ell_X=draw(st.sampled_from([2, 3, 5])),
                     w=draw(st.sampled_from([1, 3])))
    return command, doc


def _largest_theorem(command: str, query: dict) -> str:
    """The theorem whose thresholds bound the family's: Cor2's bound Cor1's,
    and Trivial's is 0."""
    return {"decide": "Cor2", "ec-irred": "Ell", "etale": "Et"}.get(command) \
        or ("RTst" if query["variant"] == "st" else "GRTst")


def empties(command: str, doc: dict) -> list[tuple[int, dict]]:
    """(ell, verdict) for each Empty the CLI certifies at the query's primes
    and at its --min-ell answer, which must be one."""
    code, cert = run(command, doc)
    assert code == 0, (command, doc)
    found = [(entry["ell"], v) for entry in cert["verdicts"]
             for v in entry.get("verdicts", [entry]) if v["conclusion"] == "Empty"]
    theorem = _largest_theorem(command, doc["query"])
    if max(thresholds(theorem, doc).values()) <= MIN_ELL_CAP:
        code, cert = run(command, {**doc, "query": {**doc["query"], "ell": []}}, "--min-ell")
        assert code == 0, (command, doc)
        if (min_ell := cert["min_ell"]) is not None:
            _, cert = run(command, {**doc, "query": {**doc["query"], "ell": [min_ell]}})
            entry = cert["verdicts"][0]
            at_min = [v for v in entry.get("verdicts", [entry]) if v["conclusion"] == "Empty"]
            assert at_min, f"min_ell {min_ell} is certified by no setting"
            found += [(min_ell, v) for v in at_min]
    return found


Q_GALOIS = {"d": 1, "disc": 1, "h_plus": 1, "galois_odd_degree": True}
K5 = {"d": 2, "disc": 5, "h_plus": 1}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(families())
# situations the draws reach rarely: the trivial case, and Cor2's (d) and
# (e) and RTst's (b), which the divides_disc flag forces onto the (b) thresholds
@example(("decide", {"field": Q_GALOIS, "query": {"ell": [5]},
                     "params": {"n": 1, "ell0": 2, "r": 1, "variant": "bullet", "w": 1}}))
@example(("decide", {"field": K5, "query": {"ell": [37], "divides_disc": True},
                     "params": {"n": 1, "ell0": 2, "r": 0, "variant": "bullet", "w": 2}}))
@example(("decide", {"field": K5, "query": {"ell": [24593], "divides_disc": True},
                     "params": {"n": 3, "ell0": 2, "r": 1, "variant": "bullet", "w": 1}}))
# the Trivial case holds only over a Galois field: not at 101, nor at 3 by --min-ell
@example(("decide", {"field": {**CUBIC_23, "h_plus": 1}, "query": {"ell": [101]},
                     "params": {"n": 1, "ell0": 2, "r": 0, "variant": "bullet", "w": 1}}))
@example(("rt", {"field": {"d": 3, "disc": 49, "h_plus": 1},
                 "query": {"g": 1, "variant": "st", "ell": [1048583], "divides_disc": True}}))
def test_every_empty_trace_is_true_in_fact(case):
    command, doc = case
    for ell, verdict in empties(command, doc):
        check_empty(doc, ell, verdict)


@pytest.mark.xfail(strict=True, reason="ell_does_not_split_in_K is read from the splits_in_K "
                                       "flag alone, never from the field")
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(families())
# 101 = 1 mod 5 splits in Q(sqrt 5), yet ec-irred certifies it Empty (Ell, a)
@example(("ec-irred", {"field": {"d": 2, "disc": 5, "h_plus": 1},
                       "query": {"ell_E": 2, "ell": [101]}}))
# over the cubic field of discriminant 49, (d, disc, h_plus) cannot tell whether 257 splits
@example(("ec-irred", {"field": {"d": 3, "disc": 49, "h_plus": 1},
                       "query": {"ell_E": 2, "ell": [257]}}))
def test_no_empty_claims_that_a_split_prime_does_not_split(case):
    command, doc = case
    for ell, verdict in empties(command, doc):
        check_nonsplit(doc, ell, verdict)


# fields each true as given: (d, disc) fixes a quadratic field, and h_plus is its h+
WITNESS_FIELDS = [{"d": 1, "disc": 1, "h_plus": 1},
                  *({"d": 2, "disc": disc, "h_plus": 1} for disc in (5, 8, 37)),
                  {"d": 2, "disc": 12, "h_plus": 2}, {"d": 3, "disc": 49, "h_plus": 1}]
WITNESS_FLAGS = [{}, {"divides_disc": False}, {"splits_in_K": False},
                 {"divides_disc": False, "splits_in_K": False}]


def _add(a, p1, p2):
    """p1 + p2 on y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 (None is the
    point at infinity), in exact rationals."""
    a1, a2, a3, a4, a6 = a
    if p1 is None or p2 is None:
        return p2 if p1 is None else p1
    (x1, y1), (x2, y2) = p1, p2
    if x1 == x2 and y1 + y2 + a1 * x2 + a3 == 0:  # p2 = -p1
        return None
    if x1 == x2:
        lam = (3 * x1 ** 2 + 2 * a2 * x1 + a4 - a1 * y1) / (2 * y1 + a1 * x1 + a3)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam ** 2 + a1 * lam - a2 - x1 - x2
    return x3, -(lam + a1) * x3 - (y1 - lam * x1) - a3


def test_a_curve_with_a_point_of_order_5_is_never_certified_empty_at_5():
    # E: y^2 + y = x^3 - x^2 is a semistable elliptic curve whose 5-torsion
    # is reducible over every field, so no family it belongs to is empty at 5
    a1, a2, a3, a4, a6 = a = tuple(map(Fraction, (0, -1, 1, 0, 0)))
    b2, b4, b6 = a1 ** 2 + 4 * a2, 2 * a4 + a1 * a3, a3 ** 2 + 4 * a6
    b8 = a1 ** 2 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 ** 2 - a4 ** 2
    disc = -b2 ** 2 * b8 - 8 * b4 ** 3 - 27 * b6 ** 2 + 9 * b2 * b4 * b6
    c4 = b2 ** 2 - 24 * b4
    # good reduction away from 11, and multiplicative at 11, where c4 is a unit
    assert (disc, c4) == (-11, 16)
    P = (Fraction(0), Fraction(0))
    assert P[1] ** 2 + a1 * P[0] * P[1] + a3 * P[1] == P[0] ** 3 + a2 * P[0] ** 2 + a4 * P[0] + a6
    multiples = [P]
    for _ in range(4):
        multiples.append(_add(a, multiples[-1], P))
    assert multiples[1:] == [(1, -1), (1, 0), (0, -1), None]  # 2P, 3P, 4P = -P, 5P = O

    for field, flags, ell in itertools.product(WITNESS_FIELDS, WITNESS_FLAGS, (2, 3, 5, 7)):
        for command, query in (("ec-irred", {"ell_E": ell}),
                               ("etale", {"b_w": 2, "w": 1, "ell_X": ell})):
            doc = {"field": field, "query": {**query, "ell": [5], **flags}}
            code, cert = run(command, doc, "--min-ell")
            assert code == 0, doc
            assert cert["verdicts"][0]["conclusion"] != "Empty", doc
            assert cert["min_ell"] != 5, doc


# Q(sqrt 3): its fundamental unit 2 + sqrt 3 has norm +1, so h+ = 2
DISC_12_AT_101 = {"query": {"ell_E": 2, "ell": [101]}}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 16: h_plus is taken as claimed, so "
                   "h_plus 1 over disc 12 certifies Empty (Ell, a, threshold 64)")
def test_a_false_h_plus_over_a_quadratic_field_is_refused():
    doc = {"field": {"d": 2, "disc": 12, "h_plus": 1}, **DISC_12_AT_101}
    code, out, err = cli.answer(["ec-irred"], json.dumps(doc))
    assert code == 3 and "field.h_plus" in err, out


def test_the_true_h_plus_over_a_quadratic_field_is_not_decided():
    code, cert = run("ec-irred", {"field": {"d": 2, "disc": 12, "h_plus": 2}, **DISC_12_AT_101})
    assert code == 0 and cert["verdicts"][0]["conclusion"] == "NotDecided"


GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
FAMILY_GOLDENS = sorted(path.stem for path in GOLDEN_DIR.glob("*.json")
                        if json.loads(path.read_text("utf-8"))["command"]
                        in ("decide", "rt", "ec-irred", "etale"))
# each claims ell_does_not_split_in_K over a field of degree 3
SPLIT_CLAIMED = {"cor_situation_b_64", "ec_irred_situation_b_1048576",
                 "etale_situation_b_1549681956", "rt_grt_situation_b_824633720832"}


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 1: the no-split claim over d = 3 rests on no fact"))
    if name in SPLIT_CLAIMED else name for name in FAMILY_GOLDENS])
def test_every_golden_empty_is_true_in_fact(name):
    cert = json.loads((GOLDEN_DIR / f"{name}.json").read_text("utf-8"))
    for entry in cert["verdicts"]:
        for verdict in entry.get("verdicts", [entry]):
            if verdict["conclusion"] == "Empty":
                check_empty(cert["input"], entry["ell"], verdict)
                check_nonsplit(cert["input"], entry["ell"], verdict)


# the second statements of the theorems and the goldens' hand derivations,
# which check the package only while they share none of its code
INDEPENDENT = ["tests/trace_checker.py", "tests/golden_cases.py", "bench/oracle.py",
               "bench/workloads.py"]


def _imports(path: str) -> list[tuple[int, str]]:
    """(line, module) for each import in the file at path, by statement or by
    a string among an import call's arguments."""
    tree = ast.parse((pathlib.Path(__file__).resolve().parents[1] / path).read_text("utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Call) and "import" in ast.unparse(node.func):
            # importlib's functions and __import__: each string among the arguments
            names = [c.value for arg in [*node.args, *node.keywords] for c in ast.walk(arg)
                     if isinstance(c, ast.Constant) and isinstance(c.value, str)]
        else:
            continue
        found += [(node.lineno, n) for n in names]
    return found


@pytest.mark.parametrize("path", INDEPENDENT)
def test_the_independent_checkers_import_nothing_of_the_package(path):
    assert [(line, n) for line, n in _imports(path) if "semistable_gate" in n] == []


# CI regenerates the goldens with these two files against `pip install .`,
# which installs none of the test extras
@pytest.mark.parametrize("path", ["scripts/regen_golden.py", "tests/golden_cases.py"])
def test_the_golden_regeneration_imports_only_the_standard_library(path):
    allowed = sys.stdlib_module_names | {"golden_cases", "semistable_gate"}
    assert [(line, n) for line, n in _imports(path) if n.split(".")[0] not in allowed] == []
