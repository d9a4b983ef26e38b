"""Command-line front end emitting deterministic verdict certificates.

Input is a strict-schema JSON document (unknown keys rejected) read from
--input or standard input; the certificate goes to standard output as
canonical JSON: sorted keys, no floats (rationals render as "p/q"), no
timestamps.  Exit codes: 0 success (NotDecided included), 2 schema error,
3 domain precondition failure, 4 internal consistency failure or an
exhausted resource (memory, recursion depth).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple
from fractions import Fraction

from . import __version__
from .bounds import (
    FieldInvariants,
    PrimeSituation,
    RepFamilyParams,
    Setting,
    Verdict,
    cor1_setting,
    cor2_setting,
    decide,
    derived_constants,
    ec_irred_setting,
    etale_setting,
    least_empty_prime,
    rt_setting,
    trivial_setting,
)
from .errors import InternalConsistencyError, PreconditionError, SchemaError
from .gate import CongruenceInstance, counterexample_search, forced_equality
from .intpoly import IntPolynomial, power_transform
from .primes import is_prime, is_prime_power
from .tame import (
    TameCharacterExponent,
    canonical_exponent,
    digit_weights,
    frobenius_orbit,
)
from .weil import WeilDatum, functional_equation_check, validate_weights

TOOL = "semistable-gate"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        doc = _load_document(args)
        text = canonical_json(_dispatch(args.command, doc, args))
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 4
    except (PreconditionError, ValueError, OverflowError) as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return 3
    except (MemoryError, RecursionError) as exc:
        print(f"resource exhausted: {type(exc).__name__} {exc}".rstrip(), file=sys.stderr)
        return 4
    print(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description="thresholds, congruence gates and emptiness certificates",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (helptext, handler, *_) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--input", help="JSON document path (default: stdin)")
        p.add_argument("--json", action="store_true",
                       help="accepted for compatibility; output is always JSON")
        p.add_argument("--ell", type=int, action="append",
                       help="override/add a prime ell to the query (repeatable)")
        if isinstance(handler, _Decision):
            p.add_argument("--min-ell", action="store_true",
                           help="add the least prime certified Empty (null if none is)")
        if name == "gate-search":
            p.add_argument("--budget", type=int, default=10_000_000,
                           help="maximum corpus size")
    return parser


def _load_document(args: argparse.Namespace) -> dict:
    try:
        if args.input:
            with open(args.input, "r", encoding="utf-8") as fh:
                raw = fh.read()
        else:
            raw = sys.stdin.read()
        doc = json.loads(raw)
    except OSError as exc:
        raise SchemaError(f"cannot read input: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("document root must be a JSON object")
    if args.ell:
        query = doc.setdefault("query", {})
        if not isinstance(query, dict):
            raise SchemaError("query must be a JSON object")
        existing = query.get("ell")
        query["ell"] = _as_list(existing) + args.ell if existing is not None else list(args.ell)
    return doc


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _as_list(v) -> list:
    return list(v) if isinstance(v, list) else [v]


def _take(d, where: str, required: dict, optional: dict) -> dict:
    """Strict-schema field extraction: every key typed, unknown keys rejected."""
    if not isinstance(d, dict):
        raise SchemaError(f"{where} must be a JSON object")
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise SchemaError(f"unknown keys in {where}: {sorted(unknown)}")
    out = {}
    for key, typ in required.items():
        if key not in d:
            raise SchemaError(f"missing key {key!r} in {where}")
        out[key] = _coerce(d[key], typ, f"{where}.{key}")
    for key, typ in optional.items():
        if key in d:
            out[key] = _coerce(d[key], typ, f"{where}.{key}")
    return out


def _coerce(value, typ, where: str):
    if typ is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"{where} must be an integer")
        return value
    if typ is bool:
        if not isinstance(value, bool):
            raise SchemaError(f"{where} must be a boolean")
        return value
    if typ == "int_list":
        vals = _as_list(value)
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in vals):
            raise SchemaError(f"{where} must be an integer or list of integers")
        return vals
    if typ is str:
        if not isinstance(value, str):
            raise SchemaError(f"{where} must be a string")
        return value
    raise AssertionError(f"unhandled schema type {typ}")


def _require_prime(n: int, where: str) -> int:
    if not is_prime(n):
        raise SchemaError(f"{where} = {n} is not prime")
    return n


def _require_prime_power(n: int, where: str) -> int:
    if not is_prime_power(n):
        raise SchemaError(f"{where} = {n} is not a prime power")
    return n


def _parse_field(doc: dict) -> FieldInvariants:
    if "field" not in doc:
        raise SchemaError("missing 'field' section")
    f = _take(doc["field"], "field",
              {"d": int, "disc": int, "h_plus": int},
              {"galois_odd_degree": bool})
    try:
        return FieldInvariants(**f)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _parse_params(doc: dict) -> RepFamilyParams:
    if "params" not in doc:
        raise SchemaError("missing 'params' section")
    p = _take(doc["params"], "params",
              {"n": int, "ell0": int, "r": int, "variant": str},
              {"w": int, "w_bar": int, "cyclotomic": bool})
    _require_prime(p["ell0"], "params.ell0")
    try:
        return RepFamilyParams(**p)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _poly_from_query(coeffs: list[int]) -> IntPolynomial:
    try:
        return IntPolynomial(tuple(coeffs))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _verdict_body(v: Verdict) -> dict:
    return {
        "conclusion": v.conclusion,
        "theorem": v.theorem,
        "situation": v.situation,
        "threshold": v.threshold,
        "trace": [[name, ok] for name, ok in v.trace],
    }


def _dispatch(command: str, doc: dict, args: argparse.Namespace) -> dict:
    """Check the top-level sections, parse the field, params and query the
    command takes, and wrap its handler's body in the certificate."""
    _, handler, sections, schema, optional = COMMANDS[command]
    unknown = set(doc) - sections
    if unknown:
        raise SchemaError(f"unknown top-level keys: {sorted(unknown)}")
    inv = _parse_field(doc) if "field" in sections else None
    p = _parse_params(doc) if "params" in sections else None
    query = _query(doc, schema, optional) if "query" in sections else None
    return {"tool": TOOL, "version": __version__, "command": command, "input": doc,
            **handler(inv, p, query, args)}


def _query(doc: dict, required: dict, optional: dict) -> dict:
    if "query" not in doc:
        raise SchemaError("missing 'query' section")
    return _take(doc["query"], "query", required, optional)


def _ell_list(query: dict) -> list[int]:
    ells = query["ell"]
    for ell in ells:
        _require_prime(ell, "query.ell")
    return ells


def _cmd_constants(inv, p, query, args) -> dict:
    c = derived_constants(inv, p)
    return {"constants": {
        "M": _frac(c.M), "c_n": c.c_n,
        "eps1": _frac(c.eps1), "eps2": _frac(c.eps2),
        "eps1p": _frac(c.eps1p), "eps2p": _frac(c.eps2p),
        "C1": c.C1, "C2": c.C2, "C1p": c.C1p, "C2p": c.C2p,
    }}


class _Decision(namedtuple("_Decision", "check settings several", defaults=(False,))):
    """Handler of a decision command: `check` vets the parsed query, and
    `settings(inv, p, query)` gives its settings, built once.  With
    `several`, each ell lists the verdict of every setting, leaving out at
    ell0 those that refuse it (all but Trivial, which has ell != ell0 as a
    hypothesis); otherwise the entry is the one setting's verdict, and ell0
    is outside the framework."""

    __slots__ = ()

    def __call__(self, inv, p, query, args) -> dict:
        self.check(query)
        ells = _ell_list(query)
        settings = self.settings(inv, p, query)
        flags = (query.get("divides_disc", False), query.get("splits_in_K", False))
        body: dict = {"verdicts": []}
        for ell in ells:
            ps = PrimeSituation.of(inv, ell, *flags)
            verdicts = [_verdict_body(decide(s, ell, ps)) for s in settings
                        if not self.several or ell != s.ell0 or s.theorem == "Trivial"]
            entry = {"verdicts": verdicts} if self.several else verdicts[0]
            body["verdicts"].append({"ell": ell, **entry})
        if args.min_ell:
            body["min_ell"] = least_empty_prime(settings, inv, *flags)
        return body


def _check_rt(query: dict) -> None:
    variant, ell0 = query["variant"], query.get("ell0")
    if variant not in ("st", "st_with_ell0"):
        raise SchemaError(f"query.variant must be 'st' or 'st_with_ell0', got {variant!r}")
    if variant == "st_with_ell0":
        if ell0 is None:
            raise SchemaError("query.ell0 is required for variant 'st_with_ell0'")
        _require_prime(ell0, "query.ell0")
    elif ell0 is not None:
        raise SchemaError("query.ell0 is only meaningful for variant 'st_with_ell0'")


def _uniform_weight_settings(inv, p, query) -> list[Setting]:
    cor1 = [cor1_setting(inv, p)] if p.cyclotomic else []
    return [trivial_setting(inv, p), *cor1, cor2_setting(inv, p)]


def _cmd_tame_weights(inv, p, query, args) -> dict:
    (ell,) = _ell_list(query) if len(query["ell"]) == 1 else (None,)
    if ell is None:
        raise SchemaError("tame-weights takes a single prime ell")
    try:
        c = TameCharacterExponent(ell, query["h"], query["n_f"])
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    return {
        "digits": sorted(digit_weights(c).elements()),
        "canonical": canonical_exponent(c),
        "orbit": list(frobenius_orbit(c)),
    }


def _cmd_weil_check(inv, p, query, args) -> dict:
    _require_prime_power(query["q"], "query.q")
    poly = _poly_from_query(query["poly"])
    weights = query["weights"]
    if len(weights) != poly.degree:
        raise SchemaError("weights must have one entry per root")
    body: dict = {
        "weights_valid": validate_weights(poly, query["q"], weights),
    }
    uniform = len(set(weights)) <= 1
    if uniform and weights:
        body["functional_equation"] = functional_equation_check(
            poly, query["q"], weights[0])
    return body


def _cmd_power_transform(inv, p, query, args) -> dict:
    if query["s"] < 0:
        raise SchemaError("query.s must be non-negative")
    poly = _poly_from_query(query["poly"])
    out = power_transform(poly, query["s"])
    return {"result": list(out.coeffs)}


def _cmd_gate(inv, p, query, args) -> dict:
    _require_prime_power(query["q"], "query.q")
    poly = _poly_from_query(query["poly"])
    w_bar = query.get("w_bar", sum(query["weights"]))
    try:
        datum = WeilDatum(poly, query["q"], tuple(query["weights"]), w_bar)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    verdicts = []
    for ell in _ell_list(query):
        inst = CongruenceInstance(datum, query["s"], query["u"], tuple(query["t"]),
                                  ell, d=query.get("d", 1), r=query.get("r", 1))
        v = forced_equality(inst)
        verdicts.append({
            "ell": ell,
            "outcome": v.outcome.value,
            "bound": v.bound,
            "congruent": v.congruent,
            "matched_weights": _render_matched(v.matched_weights),
        })
    return {"verdicts": verdicts}


def _render_matched(matched) -> list | None:
    if matched is None:
        return None
    return [x if isinstance(x, int) else _frac(x) for x in matched]


def _cmd_gate_search(inv, p, query, args) -> dict:
    _require_prime_power(query["q"], "query.q")
    found = counterexample_search(query["q"], query["n"], query["s_max"],
                                  query["ell_max"], budget=args.budget)
    instances = [{
        "poly": list(inst.datum.poly.coeffs),
        "s": inst.s,
        "t": list(inst.t),
        "ell": inst.ell,
        "bound": inst.bound,
    } for inst in found]
    return {"count": len(instances), "instances": instances}


_FLAGS = {"divides_disc": bool, "splits_in_K": bool}

# command -> (help text, handler, top-level sections, query schema, optional
# query keys).  A handler takes the parsed field, params and query (None for
# a section the command lacks) and the arguments, and returns the body of
# the certificate.  A decision command's query always takes the two
# prime-situation flags.
COMMANDS = {
    "constants": (
        "derived threshold constants for (field, params)",
        _cmd_constants, {"field", "params"}, None, None),
    "decide": (
        "trivial-case + uniform-weight emptiness decisions",
        _Decision(lambda q: None, _uniform_weight_settings, several=True),
        {"field", "params", "query"}, {"ell": "int_list"}, _FLAGS),
    "rt": (
        "abelian-variety torsion-tower emptiness thresholds",
        _Decision(_check_rt,
                  lambda inv, p, q: [rt_setting(inv, q["g"], q["variant"], q.get("ell0"))]),
        {"field", "query"}, {"g": int, "ell": "int_list", "variant": str},
        {"ell0": int, **_FLAGS}),
    "ec-irred": (
        "elliptic-curve ell-torsion irreducibility",
        _Decision(lambda q: _require_prime(q["ell_E"], "query.ell_E"),
                  lambda inv, p, q: [ec_irred_setting(inv, q["ell_E"])]),
        {"field", "query"}, {"ell_E": int, "ell": "int_list"}, _FLAGS),
    "etale": (
        "odd-degree etale cohomology residual-Borel exclusion",
        _Decision(lambda q: _require_prime(q["ell_X"], "query.ell_X"),
                  lambda inv, p, q: [etale_setting(inv, q["b_w"], q["ell_X"], q["w"])]),
        {"field", "query"}, {"b_w": int, "ell_X": int, "w": int, "ell": "int_list"}, _FLAGS),
    "tame-weights": (
        "digit multiset / orbit of a tame character exponent",
        _cmd_tame_weights, {"query"}, {"ell": "int_list", "h": int, "n_f": int}, {}),
    "weil-check": (
        "root absolute-value and functional-equation checks",
        _cmd_weil_check, {"query"}, {"poly": "int_list", "q": int, "weights": "int_list"}, {}),
    "power-transform": (
        "roots-to-s-th-powers transform of a monic polynomial",
        _cmd_power_transform, {"query"}, {"poly": "int_list", "s": int}, {}),
    "gate": (
        "congruence-forcing verdict on one instance",
        _cmd_gate, {"query"},
        {"poly": "int_list", "q": int, "weights": "int_list",
         "s": int, "u": int, "t": "int_list", "ell": "int_list"},
        {"w_bar": int, "d": int, "r": int}),
    "gate-search": (
        "exhaustive sub-bound counterexample sweep",
        _cmd_gate_search, {"query"}, {"q": int, "n": int, "s_max": int, "ell_max": int}, {}),
}


if __name__ == "__main__":
    sys.exit(main())
