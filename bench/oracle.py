"""Output oracle: the certificate every request should produce, and the check.

Expected bodies are re-derived here from the closed forms (the same
hand-derivations as tests/golden_cases.py), never by calling the program.
Hypotheses are evaluated as facts of the input: a prime divides the
discriminant when the caller says so *or* when disc % ell == 0, so a flag
can only make a verdict more conservative.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

HEADER = ("tool", "version", "command", "input")


@dataclass(frozen=True)
class Request:
    """One CLI invocation and everything the oracle knows about its answer."""

    label: str
    command: str
    doc: object                      # the JSON document, or raw text for malformed input
    flags: tuple[str, ...] = ()
    exits: frozenset = frozenset({0})
    body: dict | None = None         # certificate minus HEADER, when the answer is derived
    golden: str | None = None        # frozen certificate text
    sha256: str | None = None        # digest of the full certificate text
    defect: str | None = None        # ROADMAP item that fixes a known wrong-at-seed answer

    def stdin(self) -> bytes:
        text = self.doc if isinstance(self.doc, str) else json.dumps(self.doc)
        return text.encode()


@contextlib.contextmanager
def no_int_digit_limit():
    """Certificates may hold integers past the default 4300-digit str limit."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def check(req: Request, code: int, out: str, err: str) -> str | None:
    """None when the output is right, else the reason it is wrong."""
    if code not in req.exits:
        return f"exit {code}, expected {sorted(req.exits)}"
    if code != 0:
        if out:
            return f"exit {code} with output on stdout"
        if not err.strip():
            return f"exit {code} without a message"
        return None
    if req.golden is not None and out != req.golden:
        return "not byte-identical to its golden certificate"
    if req.sha256 is not None and hashlib.sha256(out.encode()).hexdigest() != req.sha256:
        return "sha256 differs from the recorded instance list"
    with no_int_digit_limit():
        try:
            cert = json.loads(out)
        except json.JSONDecodeError:
            return "output is not JSON"
        if not isinstance(cert, dict) or canonical(cert) + "\n" != out:
            return "output is not canonical JSON"
    if (cert.get("tool"), cert.get("command"), cert.get("input")) != (
            "semistable-gate", req.command, req.doc) or not isinstance(cert.get("version"), str):
        return "certificate does not echo its input"
    body = {k: v for k, v in cert.items() if k not in HEADER}
    unsound = _unsound_empty(body, req.doc) if "field" in req.doc else None
    if unsound:
        return unsound
    if req.body is not None and body != req.body:
        keys = sorted(k for k in set(body) | set(req.body) if body.get(k) != req.body.get(k))
        return f"certificate differs from the derived answer in {keys}"
    return None


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


def _unsound_empty(body: dict, doc: dict) -> str | None:
    """Every hypothesis in an Empty verdict's trace must be true in fact."""
    for entry in body.get("verdicts", []):
        for v in entry.get("verdicts", [entry]):
            if v.get("conclusion") != "Empty":
                continue
            facts = _facts(doc, entry["ell"], v["threshold"])
            false = [name for name, _ in v.get("trace", []) if not facts.get(name, True)]
            if false:
                return f"Empty verdict at ell={entry['ell']} rests on {false}, false in fact"
    return None


def _facts(doc: dict, ell: int, threshold: int) -> dict[str, bool]:
    """The truth of each hypothesis name a decision trace can carry."""
    field, query, params = doc["field"], doc["query"], doc.get("params")
    divides, splits = _situation(field, query, ell)
    facts = {"ell_not_dividing_disc": not divides, "ell_does_not_split_in_K": not splits,
             "degree_odd": field["d"] % 2 == 1, "ell_gt_threshold": ell > threshold,
             "galois_odd_degree": field.get("galois_odd_degree", False)}
    if params is not None:
        w, r = params["w"], params["r"]
        facts.update(w_odd=w % 2 == 1, w_gt_2r=w > 2 * r, w_odd_or_w_gt_2r=w % 2 == 1 or w > 2 * r,
                     n_odd=params["n"] % 2 == 1, ell_ne_ell0=ell != params["ell0"])
    return facts


# ---- closed forms ---------------------------------------------------------

def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _as_list(v) -> list:
    return list(v) if isinstance(v, list) else [v]


def _constants(field: dict, params: dict) -> dict:
    d, h, n = field["d"], field["h_plus"], params["n"]
    budget = n * params["w"] if params["variant"] == "bullet" else params["w_bar"]
    M = max(Fraction(n * params["r"]), Fraction(budget, 2))
    c_n = math.comb(n, n // 2)
    eps = {"eps1": d * M, "eps2": d * d * M, "eps1p": d * h * M, "eps2p": d * d * h * M}
    out = {"M": _frac(M), "c_n": c_n, **{k: _frac(v) for k, v in eps.items()}}
    for name, key in (("C1", "eps1"), ("C2", "eps2"), ("C1p", "eps1p"), ("C2p", "eps2p")):
        out[name] = 2 * c_n * params["ell0"] ** math.ceil(eps[key])
    return out


def _situation(field: dict, query: dict, ell: int) -> tuple[bool, bool]:
    """(ell divides disc, ell splits in K); over Q neither can hold."""
    if field["d"] == 1:
        return False, False
    return (query.get("divides_disc", False) or field["disc"] % ell == 0,
            query.get("splits_in_K", False))


def _verdict(conclusion, theorem, situation, threshold, trace) -> dict:
    return {"conclusion": conclusion, "theorem": theorem, "situation": situation,
            "threshold": threshold, "trace": [[name, ok] for name, ok in trace]}


def _ladder(theorem: str, gate: list, situations: list) -> dict:
    """First situation whose gate and hypotheses all hold certifies Empty."""
    for label, hyps, threshold in situations:
        if all(ok for _, ok in gate + hyps):
            return _verdict("Empty", theorem, label, threshold, gate + hyps)
    trace = gate + [(f"{label}:{name}", ok) for label, hyps, _ in situations for name, ok in hyps]
    return _verdict("NotDecided", theorem, None, 0, trace)


def _five(theorem, ell, field, params, divides, nonsplit, small, large) -> dict:
    w, r, n, d = params["w"], params["r"], params["n"], field["d"]
    w_odd, w_big = w % 2 == 1, w > 2 * r
    gate = [("w_odd_or_w_gt_2r", w_odd or w_big)]
    if nonsplit is not None:
        gate.append(("ell_does_not_split_in_K", nonsplit))
    return _ladder(theorem, gate, [
        ("a", [("w_odd", w_odd), ("ell_not_dividing_disc", not divides),
               ("ell_gt_threshold", ell > small)], small),
        ("b", [("w_odd", w_odd), ("degree_odd", d % 2 == 1),
               ("ell_gt_threshold", ell > large)], large),
        ("c", [("w_gt_2r", w_big), ("ell_not_dividing_disc", not divides),
               ("ell_gt_threshold", ell > small)], small),
        ("d", [("w_gt_2r", w_big), ("ell_gt_threshold", ell > large)], large),
        ("e", [("w_odd", w_odd), ("n_odd", n % 2 == 1),
               ("ell_gt_threshold", ell > large)], large),
    ])


def _decide(doc: dict) -> dict:
    field, params, query = doc["field"], doc["params"], doc["query"]
    c = _constants(field, params)
    n, w, ell0 = params["n"], params["w"], params["ell0"]
    verdicts = []
    for ell in _as_list(query["ell"]):
        divides, splits = _situation(field, query, ell)
        trivial = [("n_odd", n % 2 == 1), ("w_odd", w % 2 == 1),
                   ("galois_odd_degree", field.get("galois_odd_degree", False)),
                   ("ell_ne_ell0", ell != ell0)]
        per_ell = [_verdict("Empty", "Trivial", "trivial", 0, trivial)
                   if all(ok for _, ok in trivial)
                   else _verdict("NotDecided", "Trivial", None, 0, trivial)]
        if ell != ell0:
            if params.get("cyclotomic", False):
                per_ell.append(_five("Cor1", ell, field, params, divides, None, c["C1"], c["C2"]))
            per_ell.append(_five("Cor2", ell, field, params, divides, not splits,
                                 c["C1p"], c["C2p"]))
        verdicts.append({"ell": ell, "verdicts": per_ell})
    return {"verdicts": verdicts}


def _two_situation_command(doc: dict, theorem: str, gated: bool, thr_a: int, thr_b: int) -> dict:
    field, query = doc["field"], doc["query"]
    verdicts = []
    for ell in _as_list(query["ell"]):
        divides, splits = _situation(field, query, ell)
        gate = [("ell_does_not_split_in_K", not splits)] if gated else []
        verdicts.append({"ell": ell, **_ladder(theorem, gate, [
            ("a", [("ell_not_dividing_disc", not divides), ("ell_gt_threshold", ell > thr_a)],
             thr_a),
            ("b", [("degree_odd", field["d"] % 2 == 1), ("ell_gt_threshold", ell > thr_b)],
             thr_b),
        ])})
    return {"verdicts": verdicts}


def _rt(doc: dict) -> dict:
    d, h = doc["field"]["d"], doc["field"]["h_plus"]
    g, query = doc["query"]["g"], doc["query"]
    b = math.comb(2 * g, g)
    if query["variant"] == "st":
        return _two_situation_command(doc, "RTst", False,
                                      2 ** (2 * d * g + 1) * b, 2 ** (2 * d * d * g + 1) * b)
    ell0 = query["ell0"]
    return _two_situation_command(doc, "GRTst", True, 2 * ell0 ** (2 * d * g * h) * b,
                                  2 * ell0 ** (2 * d * d * g * h) * b)


def _ec_irred(doc: dict) -> dict:
    d, h, ell_E = doc["field"]["d"], doc["field"]["h_plus"], doc["query"]["ell_E"]
    return _two_situation_command(doc, "Ell", True, 4 * ell_E ** (2 * d * h),
                                  4 * ell_E ** (2 * d * d * h))


def _etale(doc: dict) -> dict:
    d, h = doc["field"]["d"], doc["field"]["h_plus"]
    q = doc["query"]
    c = math.comb(q["b_w"], q["b_w"] // 2)
    e = q["b_w"] * d * h * q["w"]
    return _two_situation_command(doc, "Et", True, 2 * c * q["ell_X"] ** e,
                                  2 * c * q["ell_X"] ** (e * d))


def _tame(doc: dict) -> dict:
    q = doc["query"]
    (ell,), h, n_f = _as_list(q["ell"]), q["h"], q["n_f"]
    modulus = ell ** h - 1
    orbit = [n_f * ell ** i % modulus for i in range(h)]
    return {"digits": sorted(n_f // ell ** i % ell for i in range(h)),
            "canonical": min(orbit), "orbit": orbit}


DERIVED = {
    "constants": lambda doc: {"constants": _constants(doc["field"], doc["params"])},
    "decide": _decide,
    "rt": _rt,
    "ec-irred": _ec_irred,
    "etale": _etale,
    "tame-weights": _tame,
}


def derived_body(command: str, doc: dict, min_ell: int | None = None) -> dict:
    """Expected body for commands whose answer follows from the document alone;
    `min_ell` is the hand-derived least certified prime for --min-ell runs."""
    body = DERIVED[command](doc)
    if min_ell is not None:
        body["min_ell"] = min_ell
    return body


# ---- polynomials built from known factors ---------------------------------

def product(factors: list[list[int]]) -> list[int]:
    """Coefficients (lowest first) of the product of the given polynomials."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def factor_power(f: list[int], s: int) -> list[int]:
    """The factor whose roots are the s-th powers of the roots of f (degree 1
    or 2, coefficients lowest first), via the Lucas sequence of its roots."""
    if len(f) == 2:                    # T - c
        return [-((-f[0]) ** s), 1]
    b, a = f[0], -f[1]                 # T^2 - a*T + b
    v, v_next = 2, a                   # V_k = alpha^k + beta^k, from V_0 and V_1
    for _ in range(s):
        v, v_next = v_next, a * v_next - b * v
    return [b ** s, -v, 1]


def weil_body(poly: list[int], q: int, weights: list[int], valid: bool) -> dict:
    body = {"weights_valid": valid}
    if weights and len(set(weights)) == 1:
        n, w = len(poly) - 1, weights[0]
        fe = False
        if n * w % 2 == 0:
            qw = q ** w
            lhs = [poly[n - i] * qw ** (n - i) for i in range(n + 1)]
            scale = math.isqrt(q ** (n * w))
            fe = any(all(x == sign * scale * c for x, c in zip(lhs, poly)) for sign in (1, -1))
        body["functional_equation"] = fe
    return body


def gate_body(factors: list[list[int]], q: int, n: int, s: int, u: int, t: list[int],
              ells: list[int], d: int = 1, r: int = 1) -> dict:
    """Verdicts of the congruence gate on a product of weight-1 Weil quadratics."""
    ell0 = next(p for p in range(2, q + 1) if q % p == 0)
    M = max(Fraction(n * r), Fraction(n, 2))
    bound = 2 * math.comb(n, n // 2) * ell0 ** math.ceil(d * M * u)
    lhs = product([factor_power(f, s) for f in factors])
    rhs = product([[-(q ** tk), 1] for tk in t])
    verdicts = []
    for ell in ells:
        congruent = all((a - b) % ell == 0 for a, b in zip(lhs, rhs))
        if not congruent:
            outcome, matched = "NotCongruent", None
        elif ell <= bound:
            outcome, matched = "CongruentBelowBound", None
        else:
            half = Fraction(s, 2)
            outcome = "ForcedEqual"
            matched = [int(half) if half.denominator == 1 else _frac(half)] * n
        verdicts.append({"ell": ell, "outcome": outcome, "bound": bound,
                         "congruent": congruent, "matched_weights": matched})
    return {"verdicts": verdicts}
