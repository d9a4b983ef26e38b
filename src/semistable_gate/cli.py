"""Command-line front end emitting deterministic verdict certificates.

Input is a strict-schema JSON document (unknown keys rejected) read from
--input or standard input, and it is the whole request: the certificate's
`input` is that JSON as read.  The certificate goes to standard output as
canonical JSON: sorted keys, no floats (rationals render as "p/q"), no
timestamps.  A result section is its record's own fields (`Verdict`,
`GateVerdict`, `DerivedConstants`), so no key is named here.  Exit codes:
0 success (NotDecided included), 2 schema error, 3 domain precondition
failure, 4 internal consistency failure, an exhausted resource (memory,
recursion depth) or a failed write to standard output.

`COMMANDS` is each command's whole input contract: per section (field,
params, query), the record built from it and each key's schema type, whose
shape `_SHAPES` gives.  `_section` is the one reader of a section, and it
checks every type before the prime tests; then the records and library
functions, called directly, raise the class of their exit code where they
find a fault, so a document with two faults may report either.  A setting or
a gate instance checks its own domain when built, once per document whatever
its ell list holds.  Any other ValueError or OverflowError is Python's own
(the int-to-str limit on output, say): a precondition failure.

`answer`, the in-process entry, maps argv and the input's text to (exit
code, stdout, stderr) and writes no stream; `main` only writes that triple.
A process pays only for its command: `answer` builds only the subparser of
the command argv names (all ten for help, no command or an unknown one),
and the handlers import `gate`, `weil`, `intpoly` and `tame` when they run.
Nor does it pay after its answer: `run`, the process entry point, ends with
`os._exit` once both streams are flushed, skipping interpreter teardown.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

from . import __version__
from .bounds import (
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
    rt_setting,
    trivial_setting,
)
from .errors import (DIGIT_LIMIT, InternalConsistencyError, PreconditionError, SchemaError,
                     brief, min_digits)
from .primes import is_prime, is_prime_power

TOOL = "semistable-gate"


def answer(argv: list[str], stdin) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of the command argv names, its document
    read from --input, else from `stdin` (a string or a readable stream):
    the exact text the process writes to each stream, help and usage errors
    included."""
    sys.set_int_max_str_digits(DIGIT_LIMIT)  # so no certificate depends on PYTHONINTMAXSTRDIGITS
    parser = _build_parser([argv[0]] if argv and argv[0] in COMMANDS else COMMANDS)
    try:
        with redirect_stdout(StringIO()) as out, redirect_stderr(StringIO()) as err:
            args = parser.parse_args(argv)
    except SystemExit as exc:  # help or a usage error: argparse's text, then its exit
        return exc.code, out.getvalue(), err.getvalue()
    if args.command is None:
        return 2, "", parser.format_help()
    try:
        doc = _load_document(args, stdin)
        return 0, canonical_json(_dispatch(args.command, doc, args)) + "\n", ""
    except SchemaError as exc:
        return 2, "", f"schema error: {exc}\n"
    except InternalConsistencyError as exc:
        return 4, "", f"internal consistency failure: {exc}\n"
    except (ValueError, OverflowError) as exc:
        return 3, "", f"precondition failure: {exc}\n"
    except (MemoryError, RecursionError) as exc:
        return 4, "", f"resource exhausted: {type(exc).__name__} {exc}".rstrip() + "\n"


def main(argv: list[str] | None = None) -> int:
    """Write `answer`'s triple to the process streams; return its exit code."""
    code, out, err = answer(sys.argv[1:] if argv is None else argv, sys.stdin)
    print(err, end="", file=sys.stderr)
    if not out:  # nothing to write: a refusal keeps its own exit and message
        return code
    try:
        print(out, end="", flush=True)
    except OSError as exc:
        # the write failed: send the last flush to nowhere, not a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        reason = "standard output is closed" if isinstance(exc, BrokenPipeError) else exc.strerror
        print(f"output failure: {reason}", file=sys.stderr)
        return 4
    return code


def run() -> None:
    """The process entry point (`python -m semistable_gate.cli` and the
    console script): `main`, both streams flushed, then `os._exit` with its
    code, so no interpreter teardown follows the certificate and no atexit
    handler runs.  Only an uncaught exception leaves through the normal exit."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when the process started with that descriptor closed
            stream.flush()
    os._exit(code)


def _build_parser(names) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description="thresholds, congruence gates and emptiness certificates",
    )
    # built for one command, the metavar lists all ten in the usage line;
    # built for all, the default one keeps "argument command" in errors
    metavar = "{" + ",".join(COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", metavar=metavar)
    for name in names:
        helptext, handler, _ = COMMANDS[name]
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--input", help="JSON document path (default: stdin)")
        if isinstance(handler, _Decision):
            p.add_argument("--min-ell", action="store_true",
                           help="add the least prime certified Empty (null if none is)")
        if name == "gate-search":
            p.add_argument("--budget", type=int, default=10_000_000,
                           help="maximum corpus size")
    return parser


def _load_document(args: argparse.Namespace, stdin) -> dict:
    try:
        if args.input:
            with open(args.input, "r", encoding="utf-8") as fh:
                raw = fh.read()
        else:
            raw = stdin if isinstance(stdin, str) else stdin.read()
        doc = json.loads(raw)
    except OSError as exc:
        raise SchemaError(f"cannot read input: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, too deep
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("document root must be a JSON object")
    return doc


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False, default=_ratio)


def _ratio(x) -> str:
    # json.dumps calls this only for a value JSON has no type for: a Fraction
    return f"{x.numerator}/{x.denominator}"


# A schema type's shape: the JSON type of its value (of each entry, for a
# list type, where an integer stands for a one-entry list), whether it is a
# list type, and what its refusal says the value must be.
_SHAPES = {**dict.fromkeys((int, "prime", "prime_power"), (int, False, "an integer")),
           **dict.fromkeys(("int_list", "prime_list"),
                           (int, True, "an integer or list of integers")),
           bool: (bool, False, "a boolean"), str: (str, False, "a string")}


def _section(doc: dict, where: str, make, required: dict, optional: dict):
    """The record `make` builds from the document's section `where`: unknown
    keys rejected, every key's shape checked, then the prime and prime-power
    keys tested, in schema order.  A list type gives a fresh list."""
    if where not in doc:
        raise SchemaError(f"missing {where!r} section")
    d = doc[where]
    if not isinstance(d, dict):
        raise SchemaError(f"{where} must be a JSON object")
    schema = {**required, **optional}
    unknown = set(d) - set(schema)
    if unknown:
        raise SchemaError(f"unknown keys in {where}: {sorted(unknown)}")
    out, tested = {}, []
    for key, typ in schema.items():
        if key not in d:
            if key in required:
                raise SchemaError(f"missing key {key!r} in {where}")
            continue
        kind, listed, phrase = _SHAPES[typ]
        vals = list(d[key]) if listed and isinstance(d[key], list) else [d[key]]
        if any(type(v) is not kind for v in vals):  # JSON's types: a bool is no int
            raise SchemaError(f"{where}.{key} must be {phrase}")
        out[key] = vals if listed else d[key]
        if typ in ("prime", "prime_list", "prime_power"):
            tested += [(key, typ, n) for n in vals]
    for key, typ, n in tested:
        if typ == "prime_power" and not is_prime_power(n):
            raise SchemaError(f"{where}.{key} = {brief(n)} is not a prime power")
        if typ != "prime_power" and not is_prime(n):
            raise SchemaError(f"{where}.{key} = {brief(n)} is not prime")
    return make(**out)


def _dispatch(command: str, doc: dict, args: argparse.Namespace) -> dict:
    """Check the top-level sections, read the field, params and query the
    command takes, and wrap its handler's body in the certificate."""
    _, handler, sections = COMMANDS[command]
    unknown = set(doc) - set(sections)
    if unknown:
        raise SchemaError(f"unknown top-level keys: {sorted(unknown)}")
    inv, p, query = (_section(doc, name, *sections[name]) if name in sections else None
                     for name in ("field", "params", "query"))
    return {"tool": TOOL, "version": __version__, "command": command, "input": doc,
            **handler(inv, p, query, args)}


def _cmd_constants(inv, p, query, args) -> dict:
    return {"constants": derived_constants(inv, p)._asdict()}


class _Decision(namedtuple("_Decision", "settings")):
    """Handler of a decision command: `settings(inv, p, query)` gives its
    settings, built once per document.  With several settings, each ell
    lists the verdict of every setting, leaving out those that refuse it
    (`Setting.refuses`); with one, the entry is its verdict, and a refused
    ell is a precondition failure."""

    __slots__ = ()

    def __call__(self, inv, p, query, args) -> dict:
        settings = self.settings(inv, p, query)
        several = len(settings) > 1
        flags = (query.get("divides_disc", False), query.get("splits_in_K", False))
        body: dict = {"verdicts": []}
        for ell in query["ell"]:
            verdicts = [decide(s, ell, *flags)._asdict() for s in settings
                        if not several or not s.refuses(ell)]
            entry = {"verdicts": verdicts} if several else verdicts[0]
            body["verdicts"].append({"ell": ell, **entry})
        if args.min_ell:
            body["min_ell"] = least_empty_prime(settings, *flags)
        return body


def _uniform_weight_settings(inv, p, query) -> list:
    cor1 = [cor1_setting(inv, p)] if p.cyclotomic else []
    return [trivial_setting(inv, p), *cor1, cor2_setting(inv, p)]


def _cmd_tame_weights(inv, p, query, args) -> dict:
    from .tame import TameCharacterExponent, canonical_exponent, digit_weights, frobenius_orbit
    if len(query["ell"]) != 1:
        raise SchemaError("tame-weights takes a single prime ell")
    c = TameCharacterExponent(query["ell"][0], query["h"], query["n_f"])
    return {
        "digits": sorted(digit_weights(c).elements()),
        "canonical": canonical_exponent(c),
        "orbit": list(frobenius_orbit(c)),
    }


def _cmd_weil_check(inv, p, query, args) -> dict:
    from .intpoly import IntPolynomial
    from .weil import functional_equation_check, validate_weights
    poly, weights = IntPolynomial(query["poly"]), query["weights"]
    body: dict = {"weights_valid": validate_weights(poly, query["q"], weights)}
    if len(set(weights)) == 1:
        body["functional_equation"] = functional_equation_check(
            poly, query["q"], weights[0])
    return body


def _cmd_power_transform(inv, p, query, args) -> dict:
    from .intpoly import IntPolynomial, power_transform
    poly, s = IntPolynomial(query["poly"]), query["s"]
    # the result's constant term is +-c_0^s: refused unbuilt past the digit limit
    if min_digits((abs(poly.coeffs[0]).bit_length() - 1) * s) > DIGIT_LIMIT:
        raise PreconditionError(f"query.s = {brief(s)}: c_0^s has more than {DIGIT_LIMIT} digits")
    # and so is a result that Mahler measures bound past it, tried on f itself before
    # f_16 is built: for degree n, M(g) >= |g|_inf / C(n, n//2), M(f_s) >= M(f_k)^(s//k)
    # and |f_s|_inf >= M(f_s) / sqrt(n+1)
    n, built = poly.degree, {}
    for k in (1, 16):
        if k > s or n == 0:  # f_0 is (T-1)^n, and f = 1 is its own f_s
            break
        built[k] = power_transform(poly, k)
        top = max(map(abs, built[k].coeffs))
        per_k = top.bit_length() - 1 - central_binomial(n).bit_length()  # <= log2 M(f_k)
        if min_digits((s // k) * per_k - (n + 1).bit_length()) > DIGIT_LIMIT:
            raise PreconditionError(
                f"query.s = {brief(s)}: f_s has a coefficient of more than {DIGIT_LIMIT} digits")
    # the pass's f_k is the answer at k = s
    f_s = built[s] if s in built else power_transform(poly, s)
    return {"result": list(f_s.coeffs)}


def _cmd_gate(inv, p, query, args) -> dict:
    from .gate import CongruenceInstance, forced_equality
    from .intpoly import IntPolynomial
    from .weil import WeilDatum
    datum = WeilDatum(IntPolynomial(query["poly"]), query["q"], query["weights"])
    inst = CongruenceInstance(datum, query["s"], query["u"], query["t"],
                              **{k: query[k] for k in ("d", "r", "w_bar") if k in query})
    return {"verdicts": [{"ell": ell, **forced_equality(inst, ell)._asdict()}
                         for ell in query["ell"]]}


def _cmd_gate_search(inv, p, query, args) -> dict:
    from .gate import counterexample_search
    found = counterexample_search(query["q"], query["n"], query["s_max"],
                                  query["ell_max"], budget=args.budget)
    instances = [{"poly": list(inst.datum.poly.coeffs), "s": inst.s, "t": list(inst.t),
                  "ell": ell, "bound": inst.bound} for inst, ell in found]
    return {"count": len(instances), "instances": instances}


# A section's schema: (the record built from it, required keys, optional
# keys), each key mapped to its schema type.
_FIELD = (FieldInvariants, {"d": int, "disc": int, "h_plus": int}, {"galois_odd_degree": bool})
_PARAMS = (RepFamilyParams, {"n": int, "ell0": "prime", "r": int, "variant": str},
           {"w": int, "w_bar": int, "cyclotomic": bool})
_FLAGS = {"divides_disc": bool, "splits_in_K": bool}

# command -> (help text, handler, section -> schema).  A handler takes the
# field, params and query records (None for a section the command lacks) and
# the arguments, and returns the body of the certificate.  A decision
# command's query always takes the two prime-situation flags.
COMMANDS = {
    "constants": (
        "derived threshold constants for (field, params)",
        _cmd_constants, {"field": _FIELD, "params": _PARAMS}),
    "decide": (
        "trivial-case + uniform-weight emptiness decisions",
        _Decision(_uniform_weight_settings),
        {"field": _FIELD, "params": _PARAMS, "query": (dict, {"ell": "prime_list"}, _FLAGS)}),
    "rt": (
        "abelian-variety torsion-tower emptiness thresholds",
        _Decision(lambda inv, p, q: [rt_setting(inv, q["g"], q["variant"], q.get("ell0"))]),
        {"field": _FIELD, "query": (dict, {"g": int, "ell": "prime_list", "variant": str},
                                    {"ell0": "prime", **_FLAGS})}),
    "ec-irred": (
        "elliptic-curve ell-torsion irreducibility",
        _Decision(lambda inv, p, q: [ec_irred_setting(inv, q["ell_E"])]),
        {"field": _FIELD, "query": (dict, {"ell_E": "prime", "ell": "prime_list"}, _FLAGS)}),
    "etale": (
        "odd-degree etale cohomology residual-Borel exclusion",
        _Decision(lambda inv, p, q: [etale_setting(inv, q["b_w"], q["ell_X"], q["w"])]),
        {"field": _FIELD, "query": (dict, {"b_w": int, "ell_X": "prime", "w": int,
                                           "ell": "prime_list"}, _FLAGS)}),
    "tame-weights": (
        "digit multiset / orbit of a tame character exponent",
        _cmd_tame_weights, {"query": (dict, {"ell": "prime_list", "h": int, "n_f": int}, {})}),
    "weil-check": (
        "root absolute-value and functional-equation checks",
        _cmd_weil_check,
        {"query": (dict, {"poly": "int_list", "q": "prime_power", "weights": "int_list"}, {})}),
    "power-transform": (
        "roots-to-s-th-powers transform of a monic polynomial",
        _cmd_power_transform, {"query": (dict, {"poly": "int_list", "s": int}, {})}),
    "gate": (
        "congruence-forcing verdict on one instance",
        _cmd_gate,
        {"query": (dict, {"poly": "int_list", "q": "prime_power", "weights": "int_list",
                          "s": int, "u": int, "t": "int_list", "ell": "prime_list"},
                   {"w_bar": int, "d": int, "r": int})}),
    "gate-search": (
        "exhaustive sub-bound counterexample sweep",
        _cmd_gate_search,
        {"query": (dict, {"q": "prime_power", "n": int, "s_max": int, "ell_max": int}, {})}),
}


if __name__ == "__main__":
    run()
