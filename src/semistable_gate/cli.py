"""Command-line front end emitting deterministic verdict certificates.

Input is a strict-schema JSON document (unknown keys rejected) read from
--input or standard input; the certificate goes to standard output as
canonical JSON: sorted keys, no floats (rationals render as "p/q"), no
timestamps.  Exit codes: 0 success (NotDecided included), 2 schema error,
3 domain precondition failure, 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import sys
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
    decide_cor1,
    decide_cor2,
    decide_ec_irred,
    decide_etale,
    decide_rt,
    decide_trivial,
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
    print(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description="thresholds, congruence gates and emptiness certificates",
    )
    sub = parser.add_subparsers(dest="command")
    for name, helptext in [
        ("constants", "derived threshold constants for (field, params)"),
        ("decide", "trivial-case + uniform-weight emptiness decisions"),
        ("rt", "abelian-variety torsion-tower emptiness thresholds"),
        ("ec-irred", "elliptic-curve ell-torsion irreducibility"),
        ("etale", "odd-degree etale cohomology residual-Borel exclusion"),
        ("tame-weights", "digit multiset / orbit of a tame character exponent"),
        ("weil-check", "root absolute-value and functional-equation checks"),
        ("power-transform", "roots-to-s-th-powers transform of a monic polynomial"),
        ("gate", "congruence-forcing verdict on one instance"),
        ("gate-search", "exhaustive sub-bound counterexample sweep"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--input", help="JSON document path (default: stdin)")
        p.add_argument("--json", action="store_true",
                       help="accepted for compatibility; output is always JSON")
        p.add_argument("--ell", type=int, action="append",
                       help="override/add a prime ell to the query (repeatable)")
        if name in DECISIONS:
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
        doc.setdefault("query", {})
        existing = doc["query"].get("ell")
        merged = _as_list(existing) + list(args.ell) if existing is not None else list(args.ell)
        doc["query"]["ell"] = merged
    return doc


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _as_list(v) -> list:
    return list(v) if isinstance(v, list) else [v]


def _take(d, where: str, required: dict, optional: dict | None = None) -> dict:
    """Strict-schema field extraction: every key typed, unknown keys rejected."""
    if not isinstance(d, dict):
        raise SchemaError(f"{where} must be a JSON object")
    optional = optional or {}
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


def _certificate(command: str, doc: dict, body: dict) -> dict:
    return {"tool": TOOL, "version": __version__, "command": command,
            "input": doc, **body}


def _dispatch(command: str, doc: dict, args: argparse.Namespace) -> dict:
    if command in DECISIONS:
        return _cmd_decision(command, doc, args)
    handler = {
        "constants": _cmd_constants,
        "tame-weights": _cmd_tame_weights,
        "weil-check": _cmd_weil_check,
        "power-transform": _cmd_power_transform,
        "gate": _cmd_gate,
        "gate-search": _cmd_gate_search,
    }[command]
    return handler(doc, args)


def _top_level(doc: dict, sections: set[str]) -> None:
    unknown = set(doc) - sections
    if unknown:
        raise SchemaError(f"unknown top-level keys: {sorted(unknown)}")


def _cmd_constants(doc: dict, args) -> dict:
    _top_level(doc, {"field", "params"})
    inv = _parse_field(doc)
    p = _parse_params(doc)
    c = derived_constants(inv, p)
    return _certificate("constants", doc, {"constants": {
        "M": _frac(c.M), "c_n": c.c_n,
        "eps1": _frac(c.eps1), "eps2": _frac(c.eps2),
        "eps1p": _frac(c.eps1p), "eps2p": _frac(c.eps2p),
        "C1": c.C1, "C2": c.C2, "C1p": c.C1p, "C2p": c.C2p,
    }})


def _query(doc: dict, required: dict, optional: dict | None = None) -> dict:
    if "query" not in doc:
        raise SchemaError("missing 'query' section")
    return _take(doc["query"], "query", required, optional)


def _ell_list(query: dict) -> list[int]:
    ells = query["ell"]
    for ell in ells:
        _require_prime(ell, "query.ell")
    return ells


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


def _uniform_weight_entry(inv, p, query, ps) -> dict:
    verdicts = [decide_trivial(inv, p, ps.ell)]
    if ps.ell != p.ell0:
        if p.cyclotomic:
            verdicts.append(decide_cor1(inv, p, ps))
        verdicts.append(decide_cor2(inv, p, ps))
    return {"verdicts": [_verdict_body(v) for v in verdicts]}


def _uniform_weight_settings(inv, p, query) -> list[Setting]:
    cor1 = [cor1_setting(inv, p)] if p.cyclotomic else []
    return [trivial_setting(inv, p), *cor1, cor2_setting(inv, p)]


# Decision commands: top-level sections, query schema and its optional keys
# (the two prime-situation flags are always optional), a check of the parsed
# query, the certificate entry at one prime, and the settings whose least
# certified prime is min_ell.
DECISIONS = {
    "decide": (
        {"field", "params", "query"}, {"ell": "int_list"}, {}, lambda q: None,
        _uniform_weight_entry, _uniform_weight_settings),
    "rt": (
        {"field", "query"}, {"g": int, "ell": "int_list", "variant": str}, {"ell0": int},
        _check_rt,
        lambda inv, p, q, ps: _verdict_body(
            decide_rt(inv, q["g"], ps.ell, ps, q["variant"], q.get("ell0"))),
        lambda inv, p, q: [rt_setting(inv, q["g"], q["variant"], q.get("ell0"))]),
    "ec-irred": (
        {"field", "query"}, {"ell_E": int, "ell": "int_list"}, {},
        lambda q: _require_prime(q["ell_E"], "query.ell_E"),
        lambda inv, p, q, ps: _verdict_body(decide_ec_irred(inv, q["ell_E"], ps.ell, ps)),
        lambda inv, p, q: [ec_irred_setting(inv, q["ell_E"])]),
    "etale": (
        {"field", "query"}, {"b_w": int, "ell_X": int, "w": int, "ell": "int_list"}, {},
        lambda q: _require_prime(q["ell_X"], "query.ell_X"),
        lambda inv, p, q, ps: _verdict_body(
            decide_etale(inv, q["b_w"], q["ell_X"], q["w"], ps.ell, ps)),
        lambda inv, p, q: [etale_setting(inv, q["b_w"], q["ell_X"], q["w"])]),
}


def _cmd_decision(command: str, doc: dict, args) -> dict:
    sections, schema, optional, check, entry, settings = DECISIONS[command]
    _top_level(doc, sections)
    inv = _parse_field(doc)
    p = _parse_params(doc) if "params" in sections else None
    query = _query(doc, schema, {**optional, "divides_disc": bool, "splits_in_K": bool})
    check(query)
    flags = (query.get("divides_disc", False), query.get("splits_in_K", False))
    body: dict = {"verdicts": [
        {"ell": ell, **entry(inv, p, query, PrimeSituation.of(inv, ell, *flags))}
        for ell in _ell_list(query)]}
    if args.min_ell:
        body["min_ell"] = least_empty_prime(settings(inv, p, query), inv, *flags)
    return _certificate(command, doc, body)


def _cmd_tame_weights(doc: dict, args) -> dict:
    _top_level(doc, {"query"})
    query = _query(doc, {"ell": "int_list", "h": int, "n_f": int})
    (ell,) = _ell_list(query) if len(query["ell"]) == 1 else (None,)
    if ell is None:
        raise SchemaError("tame-weights takes a single prime ell")
    try:
        c = TameCharacterExponent(ell, query["h"], query["n_f"])
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    return _certificate("tame-weights", doc, {
        "digits": sorted(digit_weights(c).elements()),
        "canonical": canonical_exponent(c),
        "orbit": list(frobenius_orbit(c)),
    })


def _cmd_weil_check(doc: dict, args) -> dict:
    _top_level(doc, {"query"})
    query = _query(doc, {"poly": "int_list", "q": int, "weights": "int_list"})
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
    return _certificate("weil-check", doc, body)


def _cmd_power_transform(doc: dict, args) -> dict:
    _top_level(doc, {"query"})
    query = _query(doc, {"poly": "int_list", "s": int})
    if query["s"] < 0:
        raise SchemaError("query.s must be non-negative")
    poly = _poly_from_query(query["poly"])
    out = power_transform(poly, query["s"])
    return _certificate("power-transform", doc, {"result": list(out.coeffs)})


def _cmd_gate(doc: dict, args) -> dict:
    _top_level(doc, {"query"})
    query = _query(doc,
                   {"poly": "int_list", "q": int, "weights": "int_list",
                    "s": int, "u": int, "t": "int_list", "ell": "int_list"},
                   {"w_bar": int, "d": int, "r": int})
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
    return _certificate("gate", doc, {"verdicts": verdicts})


def _render_matched(matched) -> list | None:
    if matched is None:
        return None
    return [x if isinstance(x, int) else _frac(x) for x in matched]


def _cmd_gate_search(doc: dict, args) -> dict:
    _top_level(doc, {"query"})
    query = _query(doc, {"q": int, "n": int, "s_max": int, "ell_max": int})
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
    return _certificate("gate-search", doc, {
        "count": len(instances),
        "instances": instances,
    })


if __name__ == "__main__":
    sys.exit(main())
