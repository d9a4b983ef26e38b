"""Seeded request generators for the three workloads.

Each generator returns one *cycle*: a shuffled list of requests drawn from
`rng`.  A run repeats whole cycles, so every run of a workload does the same
mix of work and its ratios do not depend on where the clock stopped.

- cli-mix:  all 10 commands on desk-scale inputs, the 20 golden documents,
            invalid documents with a known exit class, and the known
            wrong-at-seed cases.  Interpreter start-up, imports, argparse,
            schema parsing and JSON dominate; the maths costs microseconds.
- sweep:    gate-search on seven fixed configurations; the congruence
            sweep's inner ell-loop in `gate`, plus `intpoly`, does most of the
            work.  Beside the four heavy ones, three small ones (0.1-0.5 s)
            put the median request inside a cluster of similar requests
            instead of on one configuration's few samples, so it is steady.
- min-ell:  the decision commands with --min-ell at thresholds from 10^1 to
            10^7; `bounds` runs once per candidate prime and `primes` scans
            with Miller-Rabin `next_prime`.  Four scans of similar length
            (thresholds 28812-62500) put the median request inside a cluster.
"""

from __future__ import annotations

import importlib.util
import math
import random
from pathlib import Path

from oracle import Request, derived_body, gate_body, product, factor_power, weil_body

Q1 = {"d": 1, "disc": 1, "h_plus": 1}
Q1_GAL = {"d": 1, "disc": 1, "h_plus": 1, "galois_odd_degree": True}
FIELDS = [
    Q1, Q1_GAL,
    {"d": 2, "disc": 5, "h_plus": 1},
    {"d": 2, "disc": 8, "h_plus": 1},
    {"d": 2, "disc": 12, "h_plus": 2},
    {"d": 3, "disc": 49, "h_plus": 1, "galois_odd_degree": True},
]

# gate-search configurations (q, n, s_max, ell_max) -> sha256 of the certificate.
# The instance lists were reproduced independently (gcd of coefficient
# differences of Lucas-sequence power transforms), so any correct algorithm
# must print these bytes.
SWEEP_CONFIGS = {
    (2, 4, 3, 2000): "68528a73c7e5b5701683c9e0a01b6cb3e6db18159a03de0b6abdf7178d8d15e1",
    (3, 4, 3, 2000): "7d345e8412e9fc1d9c899541c389893200b96aa25e68e5736ce3d8e26ef7788f",
    (2, 4, 4, 5000): "ed0fd24517ab2f07cc3178e15f7a6bd8aefc3fb36c57f2e6b68a5c50dfebb823",
    (5, 4, 3, 5000): "2662d018bca447272082f084ea7197d4593e866b720d81fb26dbe763a01156c8",
    (3, 4, 2, 500): "2a76b456b140b88f933b236a960d9f4b77bcfb4292cac2e693bf588158401532",
    (5, 4, 2, 2000): "028cc6a8a870df7c2506dd5ac9827f77b83982eedf3d067c1b22abd9954344ff",
    (4, 4, 2, 2000): "df974db0c69d1f3bcaf22deda8f6410eac847de50a7b4516de9f5d8c21bbdd10",
}
SMALL_SEARCHES = {
    (2, 2, 2, 200): "21004fd7423966a162e72518a81f79e21c4d2a75ec3374aef6cce1e392997c6a",
    (3, 2, 2, 300): "3d3cb8283693c7b662cba09508c230c637a5b638631014e33836d6741556eecc",
    (2, 2, 3, 500): "55cdd63ef35f860607e49815752158acd257e5c149e9082e85f434d055773c03",
    (5, 2, 2, 200): "1c0cf5de35a35304d73bc5f320c71c8654f4acb28f6308a7e75b630f8f1eeab4",
}


def is_prime(n: int) -> bool:
    """Trial division; the benchmark only needs primes below 10^9."""
    if n < 2:
        return False
    return all(n % p for p in range(2, math.isqrt(n) + 1))


def next_prime(n: int) -> int:
    n += 1
    while not is_prime(n):
        n += 1
    return n


def _search(config: tuple, sha: str, label: str) -> Request:
    q, n, s_max, ell_max = config
    return Request(label, "gate-search",
                   {"query": {"q": q, "n": n, "s_max": s_max, "ell_max": ell_max}},
                   sha256=sha)


# ---- known wrong-at-seed cases, each labelled with the ROADMAP item that fixes it

def _weil_case(label: str, factors: list, q: int, weights: list, item: str) -> Request:
    poly = product(factors)
    doc = {"query": {"poly": poly, "q": q, "weights": weights}}
    return Request(label, "weil-check", doc, body=weil_body(poly, q, weights, True), defect=item)


def known_defects() -> list[Request]:
    """Inputs on which the seed answers wrongly.  The d=h=1000 `constants`
    MemoryError (also item 2) is left out: its allocation has no bound."""
    big_q = 2 ** 1100
    big_field = {"d": 10, "disc": 5, "h_plus": 10}
    big_params = {"n": 10, "ell0": 2, "r": 2, "variant": "bullet", "w": 1}
    ec_doc = {"field": {"d": 2, "disc": 1009, "h_plus": 1}, "query": {"ell_E": 2, "ell": 1009}}
    big_poly = [big_q, 0, 1]
    return [
        # repeated roots defeat the float root check (item 4): all four are Weil polynomials
        _weil_case("weil (T-1)^3 w=0", [[-1, 1]] * 3, 2, [0, 0, 0], "ROADMAP item 4"),
        _weil_case("weil (T^2+2)^3 q=2", [[2, 0, 1]] * 3, 2, [1] * 6, "ROADMAP item 4"),
        _weil_case("weil (T-3)^4 q=3", [[-3, 1]] * 4, 3, [2] * 4, "ROADMAP item 4"),
        _weil_case("weil (T^2-2T+4)^3 q=2", [[4, -2, 1]] * 3, 2, [2] * 6, "ROADMAP item 4"),
        # 1009 divides disc = 1009, so situation (a) may not fire (item 2)
        Request("ec-irred disc=1009 ell=1009", "ec-irred", ec_doc,
                body=derived_body("ec-irred", ec_doc), defect="ROADMAP item 2"),
        # float k-th root overflows (item 2); exit 0 with the right answer or a
        # size-budget refusal (exit 3) are both correct
        Request("weil-check q=2**1100", "weil-check",
                {"query": {"poly": big_poly, "q": big_q, "weights": [1, 1]}},
                exits=frozenset({0, 3}), body=weil_body(big_poly, big_q, [1, 1], True),
                defect="ROADMAP item 2"),
        # a 6000-digit C2p hits the int-to-str limit outside the error mapping (item 2)
        Request("constants d=h=n=10 r=2", "constants",
                {"field": big_field, "params": big_params}, exits=frozenset({0, 3}),
                body=derived_body("constants", {"field": big_field, "params": big_params}),
                defect="ROADMAP item 2"),
    ]


def invalid_documents() -> list[Request]:
    bullet = {"n": 2, "ell0": 2, "r": 1, "variant": "bullet", "w": 1}
    two, three = frozenset({2}), frozenset({3})
    return [
        Request("decide ell=15", "decide",
                {"field": Q1, "params": bullet, "query": {"ell": 15}}, exits=two),
        Request("rt unknown key", "rt",
                {"field": Q1, "query": {"g": 1, "ell": 17, "variant": "st"}, "extra": 1}, exits=two),
        Request("tame-weights two ells", "tame-weights",
                {"query": {"ell": [3, 5], "h": 2, "n_f": 4}}, exits=two),
        Request("weil-check short weights", "weil-check",
                {"query": {"poly": [2, 0, 1], "q": 2, "weights": [1]}}, exits=two),
        Request("power-transform bad JSON", "power-transform", '{"query": ', exits=two),
        Request("constants ell0=4", "constants",
                {"field": Q1, "params": dict(bullet, ell0=4)}, exits=two),
        Request("etale even w", "etale",
                {"field": Q1, "query": {"b_w": 2, "ell_X": 2, "w": 2, "ell": 17}}, exits=three),
        Request("gate-search n=6", "gate-search",
                {"query": {"q": 2, "n": 6, "s_max": 1, "ell_max": 50}}, exits=three),
        Request("gate ell | q", "gate",
                {"query": {"poly": [4, 1, 1], "q": 4, "weights": [1, 1], "s": 1, "u": 1,
                           "t": [0, 1], "ell": 2}}, exits=three),
        Request("rt ell = ell0", "rt",
                {"field": Q1, "query": {"g": 1, "ell": 3, "variant": "st_with_ell0", "ell0": 3}},
                exits=three),
        Request("gate-search over budget", "gate-search",
                {"query": {"q": 2, "n": 4, "s_max": 4, "ell_max": 5000}},
                flags=("--budget", "1000"), exits=three),
    ]


def golden_requests(root: Path) -> list[Request]:
    spec = importlib.util.spec_from_file_location("golden_cases", root / "tests" / "golden_cases.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = []
    for name, command, doc, _ in module.CASES:
        text = (root / "tests" / "golden" / f"{name}.json").read_text(encoding="utf-8")
        body = derived_body(command, doc) if command != "gate" else None
        out.append(Request(f"golden {name}", command, doc, body=body, golden=text))
    return out


# ---- random desk-scale documents -------------------------------------------

def _primes(rng: random.Random, disc: int, avoid: int | None = None) -> list[int]:
    """1-3 distinct primes of assorted sizes, none dividing disc or equal to avoid."""
    ells: list[int] = []
    count = rng.randint(1, 3)
    while len(ells) < count:
        lo = rng.choice((3, 1_000, 100_000, 3_000_000))
        p = next_prime(rng.randrange(lo, 3 * lo))
        if disc % p and p != avoid and p not in ells:
            ells.append(p)
    return ells


def _ells(rng: random.Random, field: dict, avoid: int | None = None) -> tuple[list[int], dict]:
    """Query primes and truthful divides_disc/splits_in_K flags.

    Over a field of degree > 1 the query either lists only prime divisors of
    the discriminant (flag set) or only primes that do not divide it.
    """
    flags: dict = {}
    ells = []
    if field["d"] > 1 and rng.random() < 0.25:
        ells = [p for p in _prime_factors(field["disc"]) if p != avoid]
    if ells:
        flags["divides_disc"] = True
    else:
        ells = _primes(rng, field["disc"], avoid)
    if field["d"] > 1 and rng.random() < 0.3:
        flags["splits_in_K"] = True
    return ells, flags


def _query_ell(ells: list[int]):
    return ells if len(ells) > 1 else ells[0]


def _decision_doc(rng: random.Random, command: str) -> dict:
    field = rng.choice(FIELDS)
    if command == "decide":
        params = {"n": rng.randint(1, 4), "ell0": rng.choice((2, 3, 5, 7)),
                  "r": rng.randint(0, 2), "variant": "bullet", "w": rng.randint(0, 4)}
        if rng.random() < 0.5:
            params["cyclotomic"] = True
        ells, flags = _ells(rng, field)
        return {"field": field, "params": params, "query": {"ell": _query_ell(ells), **flags}}
    if command == "rt":
        query = {"g": rng.randint(1, 3), "variant": "st"}
        ell0 = None
        if rng.random() < 0.5:
            ell0 = rng.choice((2, 3, 5))
            query.update(variant="st_with_ell0", ell0=ell0)
        ells, flags = _ells(rng, field, avoid=ell0)
        return {"field": field, "query": {**query, "ell": _query_ell(ells), **flags}}
    ells, flags = _ells(rng, field)
    if command == "ec-irred":
        query = {"ell_E": rng.choice((2, 3, 5, 7, 11, 13))}
    else:
        query = {"b_w": rng.randint(1, 4), "ell_X": rng.choice((2, 3, 5)), "w": rng.choice((1, 3))}
    return {"field": field, "query": {**query, "ell": _query_ell(ells), **flags}}


def _constants_doc(rng: random.Random) -> dict:
    params = {"n": rng.randint(1, 4), "ell0": rng.choice((2, 3, 5, 7)), "r": rng.randint(0, 2)}
    if rng.random() < 0.5:
        params.update(variant="bullet", w=rng.randint(0, 4))
    else:
        params.update(variant="circle", w_bar=rng.randint(0, 8))
    return {"field": rng.choice(FIELDS), "params": params}


def _tame_doc(rng: random.Random) -> dict:
    ell, h = rng.choice((2, 3, 5, 7, 11, 13)), rng.randint(1, 4)
    return {"query": {"ell": ell, "h": h, "n_f": rng.randint(0, ell ** h - 2)}}


def _weil_quadratics(rng: random.Random, q: int, w: int, k: int) -> list[list[int]]:
    """k distinct weight-w Weil quadratics T^2 - a*T + q^w with a^2 < 4*q^w."""
    qw = q ** w
    a_max = math.isqrt(4 * qw - 1)
    return [[qw, -a, 1] for a in rng.sample(range(-a_max, a_max + 1), k)]


def _weil_request(rng: random.Random) -> Request:
    q, w = rng.choice((2, 3, 4, 5, 7, 9)), rng.randint(1, 2)
    factors = _weil_quadratics(rng, q, w, rng.randint(1, 3))
    weights = [w] * (2 * len(factors))
    if rng.random() < 0.5:
        j = rng.randint(0, 1)
        factors.append([rng.choice((-1, 1)) * q ** j, 1])
        weights.append(2 * j)
    valid = rng.random() < 0.7
    if not valid:  # real roots far from the circle |z| = q^(w/2)
        factors[0] = [q ** w, -(math.isqrt(4 * q ** w) + 2), 1]
    poly = product(factors)
    doc = {"query": {"poly": poly, "q": q, "weights": weights}}
    return Request("random weil-check", "weil-check", doc, body=weil_body(poly, q, weights, valid))


def _power_request(rng: random.Random) -> Request:
    factors = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.6:
            factors.append([rng.randint(-5, 5), rng.randint(-5, 5), 1])
        else:
            factors.append([rng.randint(-4, 4), 1])
    s = rng.randint(0, 5)
    result = product([factor_power(f, s) for f in factors])
    doc = {"query": {"poly": product(factors), "s": s}}
    return Request("random power-transform", "power-transform", doc, body={"result": result})


def _prime_factors(m: int) -> list[int]:
    """Prime factors of m below 10^5 (gate congruences only need some)."""
    return [p for p in range(2, min(abs(m), 100_000) + 1) if m % p == 0 and is_prime(p)]


def _gate_request(rng: random.Random) -> Request:
    q = rng.choice((2, 3, 4, 5))
    if rng.random() < 0.2:
        # alpha = +-i*sqrt(q): alpha^4 = q^2 exactly, so a large ell forces equality
        factors, s, u, t = [[q, 0, 1]], 4, 4, [2, 2]
    else:
        n = rng.choice((2, 4))
        factors = _weil_quadratics(rng, q, 1, n // 2)
        s = rng.randint(1, 3)
        u = s + rng.randint(0, 1)
        t = [rng.randint(0, u) for _ in range(n)]
    n = 2 * len(factors)
    lhs = product([factor_power(f, s) for f in factors])
    rhs = product([[-(q ** tk), 1] for tk in sorted(t)])
    g = 0
    for a, b in zip(lhs, rhs):
        g = math.gcd(g, a - b)
    candidates = [p for p in _prime_factors(g) if q % p] if g else [next_prime(10 ** 6)]
    ells = rng.sample(candidates, min(2, len(candidates)))
    ells += _primes(rng, q)[:1]
    doc = {"query": {"poly": product(factors), "q": q, "weights": [1] * n,
                     "s": s, "u": u, "t": t, "ell": ells}}
    return Request("random gate", "gate", doc, body=gate_body(factors, q, n, s, u, sorted(t), ells))


def _random_valid(rng: random.Random) -> list[Request]:
    out = []
    for command, count in (("decide", 3), ("rt", 2), ("ec-irred", 1), ("etale", 1)):
        for _ in range(count):
            doc = _decision_doc(rng, command)
            out.append(Request(f"random {command}", command, doc, body=derived_body(command, doc)))
    for _ in range(2):
        doc = _constants_doc(rng)
        out.append(Request("random constants", "constants", doc,
                           body=derived_body("constants", doc)))
        doc = _tame_doc(rng)
        out.append(Request("random tame-weights", "tame-weights", doc,
                           body=derived_body("tame-weights", doc)))
    out += [_weil_request(rng), _power_request(rng), _gate_request(rng)]
    config = rng.choice(sorted(SMALL_SEARCHES))
    out.append(_search(config, SMALL_SEARCHES[config], f"gate-search {config}"))
    out.append(_min_ell_request(rng, rng.choice(MIN_ELL_CASES[:3])))   # thresholds <= 2560
    return out


# ---- the workloads ------------------------------------------------------------

def cli_mix(rng: random.Random, root: Path) -> list[Request]:
    cycle = golden_requests(root) + known_defects() + invalid_documents() + _random_valid(rng)
    rng.shuffle(cycle)
    return cycle


def sweep(rng: random.Random, root: Path) -> list[Request]:
    cycle = [_search(c, sha, f"gate-search {c}") for c, sha in SWEEP_CONFIGS.items()]
    rng.shuffle(cycle)
    return cycle


# (command, document without query ells, least certified prime, derivation, defect)
MIN_ELL_CASES = [
    ("rt", {"field": Q1, "query": {"g": 1, "variant": "st"}}, 17, "2^3*2 = 16", None),
    ("rt", {"field": Q1, "query": {"g": 2, "variant": "st"}}, 193, "2^5*6 = 192", None),
    ("rt", {"field": Q1, "query": {"g": 3, "variant": "st"}}, 2579, "2^7*20 = 2560", None),
    ("rt", {"field": Q1, "query": {"g": 4, "variant": "st"}}, 35851, "2^9*70 = 35840", None),
    ("rt", {"field": Q1, "query": {"g": 5, "variant": "st"}}, 516127, "2^11*252 = 516096", None),
    # the scan stops after 100k primes (below 1.3 * 10^6) and returns null (item 3)
    ("rt", {"field": Q1, "query": {"g": 6, "variant": "st"}}, 7569409, "2^13*924 = 7569408",
     "ROADMAP item 3"),
    ("ec-irred", {"field": {"d": 2, "disc": 5, "h_plus": 1}, "query": {"ell_E": 13}},
     114259, "4*13^4 = 114244", None),
    ("decide", {"field": Q1, "params": {"n": 8, "ell0": 2, "r": 1, "variant": "bullet", "w": 1},
                "query": {}}, 35851, "C1' = 2*70*2^8 = 35840", None),
    ("etale", {"field": Q1, "query": {"b_w": 2, "ell_X": 3, "w": 5}}, 236207,
     "2*2*3^10 = 236196", None),
    # Scans of similar length to rt g=4 (0.3-0.4 s a process), so the median
    # request sits among several cases, not on one case's two or three samples.
    ("etale", {"field": Q1, "query": {"b_w": 4, "ell_X": 7, "w": 1}}, 28813,
     "2*6*7^4 = 28812", None),
    ("ec-irred", {"field": FIELDS[2], "query": {"ell_E": 11}}, 58567,
     "4*11^4 = 58564 (disc 5)", None),
    ("ec-irred", {"field": FIELDS[3], "query": {"ell_E": 11}}, 58567,
     "4*11^4 = 58564 (disc 8)", None),
    ("etale", {"field": Q1, "query": {"b_w": 2, "ell_X": 5, "w": 3}}, 62501,
     "2*2*5^6 = 62500", None),
]


def _min_ell_request(rng: random.Random, case: tuple) -> Request:
    command, base, least, derivation, defect = case
    ells = _query_ell(_primes(rng, base["field"]["disc"]))
    doc = {**base, "query": {**base["query"], "ell": ells}}
    return Request(f"{command} --min-ell above {derivation}", command, doc,
                   flags=("--min-ell",), body=derived_body(command, doc, least), defect=defect)


def min_ell(rng: random.Random, root: Path) -> list[Request]:
    cycle = [_min_ell_request(rng, case) for case in MIN_ELL_CASES]
    rng.shuffle(cycle)
    return cycle


WORKLOADS = {"cli-mix": cli_mix, "sweep": sweep, "min-ell": min_ell}
