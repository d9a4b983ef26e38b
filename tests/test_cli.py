import json
import os
import pathlib
import resource
import subprocess
import sys
import time

import pytest

from semistable_gate import cli, gate, intpoly
from semistable_gate.intpoly import IntPolynomial, poly_mul


def run_cli(capsys, command, doc, *flags):
    import io, sys
    payload = doc if isinstance(doc, str) else json.dumps(doc)
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(payload)
    try:
        code = cli.main([command, *flags])
    finally:
        sys.stdin = old_stdin
    out = capsys.readouterr()
    return code, out.out, out.err


EC_DOC = {"field": {"d": 1, "disc": 1, "h_plus": 1},
          "query": {"ell_E": 2, "ell": 17}}


def test_ec_irred_certificate(capsys):
    code, out, _ = run_cli(capsys, "ec-irred", EC_DOC)
    assert code == 0
    cert = json.loads(out)
    v = cert["verdicts"][0]
    assert v["conclusion"] == "Empty"
    assert v["situation"] == "a"
    assert v["threshold"] == 16
    assert cert["input"] == EC_DOC


def test_determinism_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "ec-irred", EC_DOC)
    _, out2, _ = run_cli(capsys, "ec-irred", EC_DOC)
    assert out1 == out2


def test_round_trip_on_embedded_input(capsys):
    _, out1, _ = run_cli(capsys, "ec-irred", EC_DOC)
    embedded = json.loads(out1)["input"]
    _, out2, _ = run_cli(capsys, "ec-irred", embedded)
    assert out1 == out2


def test_tame_weights(capsys):
    code, out, _ = run_cli(capsys, "tame-weights", {"query": {"ell": 5, "h": 2, "n_f": 7}})
    assert code == 0
    cert = json.loads(out)
    assert cert["digits"] == [1, 2]
    assert cert["canonical"] == 7
    assert cert["orbit"] == [7, 11]


def test_gate(capsys):
    doc = {"query": {"poly": [2, 1, 1], "q": 2, "weights": [1, 1],
                     "s": 2, "u": 2, "t": [1, 1], "ell": 7}}
    code, out, _ = run_cli(capsys, "gate", doc)
    assert code == 0
    v = json.loads(out)["verdicts"][0]
    assert v["outcome"] == "CongruentBelowBound"
    assert v["bound"] == 64


def test_gate_search(capsys):
    doc = {"query": {"q": 2, "n": 2, "s_max": 2, "ell_max": 100}}
    code, out, _ = run_cli(capsys, "gate-search", doc)
    assert code == 0
    cert = json.loads(out)
    assert cert["count"] >= 1
    assert {"poly": [2, 1, 1], "s": 2, "t": [1, 1], "ell": 7,
            "bound": 64} in cert["instances"]


def test_power_transform(capsys):
    code, out, _ = run_cli(capsys, "power-transform", {"query": {"poly": [2, 1, 1], "s": 2}})
    assert code == 0
    assert json.loads(out)["result"] == [4, 3, 1]


def test_weil_check(capsys):
    doc = {"query": {"poly": [2, 1, 1], "q": 2, "weights": [1, 1]}}
    code, out, _ = run_cli(capsys, "weil-check", doc)
    assert code == 0
    cert = json.loads(out)
    assert cert["weights_valid"] is True
    assert cert["functional_equation"] is True


def test_constants(capsys):
    doc = {"field": {"d": 1, "disc": 1, "h_plus": 1},
           "params": {"n": 2, "ell0": 2, "r": 1, "variant": "bullet", "w": 1}}
    code, out, _ = run_cli(capsys, "constants", doc)
    assert code == 0
    c = json.loads(out)["constants"]
    assert c["C1"] == c["C2"] == c["C1p"] == c["C2p"] == 16
    assert c["M"] == "2/1"


def test_decide_batch_and_min_ell(capsys):
    doc = {"field": {"d": 1, "disc": 1, "h_plus": 1},
           "params": {"n": 2, "ell0": 2, "r": 1, "variant": "bullet",
                      "w": 1, "cyclotomic": True},
           "query": {"ell": [13, 17]}}
    code, out, _ = run_cli(capsys, "decide", doc, "--min-ell")
    assert code == 0
    cert = json.loads(out)
    per_ell = {v["ell"]: v["verdicts"] for v in cert["verdicts"]}
    assert any(x["conclusion"] == "Empty" for x in per_ell[17])
    assert all(x["conclusion"] == "NotDecided" for x in per_ell[13])
    assert cert["min_ell"] == 17


def test_ell_flag_appends(capsys):
    doc = {"field": {"d": 1, "disc": 1, "h_plus": 1}, "query": {"ell_E": 2, "ell": []}}
    code, out, _ = run_cli(capsys, "ec-irred", doc, "--ell", "17", "--ell", "13")
    assert code == 0
    ells = [v["ell"] for v in json.loads(out)["verdicts"]]
    assert ells == [17, 13]


def test_schema_unknown_key_exit_2(capsys):
    doc = dict(EC_DOC, extra=1)
    code, _, err = run_cli(capsys, "ec-irred", doc)
    assert code == 2 and "unknown" in err


def test_schema_bad_json_exit_2(capsys):
    import io, sys
    sys.stdin, old = io.StringIO("{not json"), sys.stdin
    try:
        assert cli.main(["ec-irred"]) == 2
    finally:
        sys.stdin = old
    capsys.readouterr()


def test_schema_non_prime_exit_2(capsys):
    doc = {"field": {"d": 1, "disc": 1, "h_plus": 1}, "query": {"ell_E": 2, "ell": 15}}
    code, _, err = run_cli(capsys, "ec-irred", doc)
    assert code == 2 and "not prime" in err


def test_bullet_with_w_bar_rejected(capsys):
    doc = {"field": {"d": 1, "disc": 1, "h_plus": 1},
           "params": {"n": 2, "ell0": 2, "r": 1, "variant": "bullet",
                      "w": 1, "w_bar": 2}}
    code, _, err = run_cli(capsys, "constants", doc)
    assert code == 2 and "w_bar" in err


def test_circle_with_w_rejected(capsys):
    doc = {"field": {"d": 1, "disc": 1, "h_plus": 1},
           "params": {"n": 2, "ell0": 2, "r": 1, "variant": "circle", "w": 1}}
    code, _, err = run_cli(capsys, "constants", doc)
    assert code == 2


def test_precondition_exit_3(capsys):
    doc = {"field": {"d": 1, "disc": 1, "h_plus": 1},
           "query": {"b_w": 2, "ell_X": 2, "w": 2, "ell": 17}}
    code, _, err = run_cli(capsys, "etale", doc)
    assert code == 3 and "odd" in err


def test_internal_consistency_exit_4(capsys, monkeypatch):
    from semistable_gate.errors import LemmaViolation

    def boom(inst):
        raise LemmaViolation("synthetic")

    # _cmd_gate imports forced_equality from gate when it runs
    monkeypatch.setattr(gate, "forced_equality", boom)
    doc = {"query": {"poly": [2, 1, 1], "q": 2, "weights": [1, 1],
                     "s": 2, "u": 2, "t": [1, 1], "ell": 7}}
    code, _, err = run_cli(capsys, "gate", doc)
    assert code == 4 and "synthetic" in err


def test_no_floats_in_certificates(capsys):
    for command, doc in [
        ("constants", {"field": {"d": 1, "disc": 1, "h_plus": 1},
                       "params": {"n": 1, "ell0": 2, "r": 1, "variant": "circle",
                                  "w_bar": 3}}),
        ("ec-irred", EC_DOC),
    ]:
        _, out, _ = run_cli(capsys, command, doc)

        def reject_float(x):
            raise AssertionError("float in certificate")

        json.loads(out, parse_float=reject_float)


def test_divides_disc_read_from_the_discriminant(capsys):
    # 1009 divides disc = 1009, so situation (a) may not fire without the flag
    doc = {"field": {"d": 2, "disc": 1009, "h_plus": 1}, "query": {"ell_E": 2, "ell": 1009}}
    code, out, _ = run_cli(capsys, "ec-irred", doc)
    assert code == 0
    v = json.loads(out)["verdicts"][0]
    assert v["conclusion"] == "NotDecided"
    assert ["a:ell_not_dividing_disc", False] in v["trace"]


def test_huge_prime_power_q_validates(capsys):
    # roots +-i*2^550 have absolute value q^(1/2), past the float range
    doc = {"query": {"poly": [2 ** 1100, 0, 1], "q": 2 ** 1100, "weights": [1, 1]}}
    code, out, _ = run_cli(capsys, "weil-check", doc)
    assert code == 0 and json.loads(out)["weights_valid"] is True


def test_oversized_certificate_exits_3(capsys):
    # C2' = 2*252*2^20000 has past 6000 digits, beyond the int-to-str limit
    doc = {"field": {"d": 10, "disc": 5, "h_plus": 10},
           "params": {"n": 10, "ell0": 2, "r": 2, "variant": "bullet", "w": 1}}
    code, out, err = run_cli(capsys, "constants", doc)
    assert code == 3 and out == "" and "precondition failure" in err


@pytest.mark.parametrize("factor,power,q,w", [
    ([-1, 1], 3, 2, 0),      # (T-1)^3
    ([2, 0, 1], 3, 2, 1),    # (T^2+2)^3, supersingular
    ([-3, 1], 4, 3, 2),      # (T-3)^4
    ([4, -2, 1], 3, 2, 2),   # (T^2-2T+4)^3
])
def test_repeated_roots_validate(capsys, factor, power, q, w):
    poly = IntPolynomial((1,))
    for _ in range(power):
        poly = poly_mul(poly, IntPolynomial(tuple(factor)))
    doc = {"query": {"poly": list(poly.coeffs), "q": q, "weights": [w] * poly.degree}}
    code, out, _ = run_cli(capsys, "weil-check", doc)
    assert code == 0 and json.loads(out)["weights_valid"] is True


def test_gate_on_repeated_roots_exits_0(capsys):
    # (T^2+2)^3: a valid datum the float root check refused
    doc = {"query": {"poly": [8, 0, 12, 0, 6, 0, 1], "q": 2, "weights": [1] * 6,
                     "s": 2, "u": 2, "t": [1] * 6, "ell": 7}}
    code, out, _ = run_cli(capsys, "gate", doc)
    assert code == 0
    assert json.loads(out)["verdicts"][0]["outcome"] == "NotCongruent"


def test_mixed_weights_with_a_double_root(capsys):
    # (T-1)^2 (T-4) at q=2: |1| = 2^0 twice and |4| = 2^(4/2) once
    doc = {"query": {"poly": [-4, 9, -6, 1], "q": 2, "weights": [0, 0, 4]}}
    code, out, _ = run_cli(capsys, "weil-check", doc)
    assert code == 0 and json.loads(out)["weights_valid"] is True
    doc["query"]["weights"] = [0, 4, 4]
    code, out, _ = run_cli(capsys, "weil-check", doc)
    assert code == 0 and json.loads(out)["weights_valid"] is False


def test_huge_weight_answers_at_once(capsys):
    doc = {"query": {"poly": [2, 1, 1], "q": 2, "weights": [10 ** 10, 10 ** 10]}}
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "weil-check", doc)
    assert time.perf_counter() - start < 1
    assert code == 0
    cert = json.loads(out)
    assert cert["weights_valid"] is False and cert["functional_equation"] is False


def test_negative_weights_are_invalid(capsys):
    doc = {"query": {"poly": [2, 1, 1], "q": 2, "weights": [-1, -1]}}
    code, out, _ = run_cli(capsys, "weil-check", doc)
    assert code == 0
    cert = json.loads(out)
    assert cert["weights_valid"] is False and cert["functional_equation"] is False


def test_integer_past_the_digit_limit_exits_2(capsys):
    raw = '{"field": {"d": 1, "disc": 1, "h_plus": 1}, "query": {"ell_E": %s, "ell": 17}}'
    code, out, err = run_cli(capsys, "ec-irred", raw % ("1" * 5000))
    assert code == 2 and out == "" and "schema error" in err


HUGE = "1" + "0" * 4298 + "1"  # 10^4299 + 1, divisible by 11


@pytest.mark.parametrize("command,raw,code,shown", [
    ("rt", '{"field": {"d": 1, "disc": 1, "h_plus": 1},'
           ' "query": {"g": 1, "variant": "st", "ell": %s}}' % HUGE, 2,
     "query.ell = 1000000000...0000000001 (4300 digits) is not prime"),
    ("etale", '{"field": {"d": 1, "disc": 1, "h_plus": 1},'
              ' "query": {"b_w": 2, "ell_X": 2, "w": %s, "ell": []}}' % (HUGE[:-1] + "0"), 3,
     "w must be odd, got 1000000000...0000000000 (4300 digits)"),
    ("tame-weights", '{"query": {"ell": 5, "h": 2, "n_f": %s}}' % HUGE, 2,
     "got 1000000000...0000000001 (4300 digits)"),
    ("gate", '{"query": {"poly": [2, 1, 1], "q": 2, "weights": [1, 1], "s": %s,'
             ' "u": 2, "t": [1, 1], "ell": 7}}' % HUGE, 3,
     "got s=1000000000...0000000001 (4300 digits), u=2"),
], ids=["rt-ell", "etale-w", "tame-weights-n_f", "gate-s"])
def test_a_huge_integer_in_a_message_is_abbreviated(capsys, command, raw, code, shown):
    got, out, err = run_cli(capsys, command, raw)
    assert got == code and out == "" and len(err.encode()) < 300
    assert shown in err


def test_gate_search_refuses_a_huge_ell_max_before_sieving(capsys):
    doc = {"query": {"q": 2, "n": 2, "s_max": 1, "ell_max": 10 ** 12}}
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "gate-search", doc)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == "" and "exceeds budget" in err


@pytest.mark.xfail(strict=True, reason="gate-search takes no field degree: it uses d = 1, so "
                   "the forcing bound ell0^(d*M*u) is too small for q = ell0^f with f > 1")
@pytest.mark.parametrize("q,ell_max", [(27, 50), (32, 50), (125, 200)])
def test_gate_search_over_a_prime_power_q_keeps_the_bound(capsys, q, ell_max):
    doc = {"query": {"q": q, "n": 2, "s_max": 1, "ell_max": ell_max}}
    code, _, err = run_cli(capsys, "gate-search", doc)
    assert code in (0, 2, 3), err


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # compared with a snapshot: site .pth files may load some of them first
    code = ("import sys; before = set(sys.modules); import semistable_gate.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & (set(sys.modules) - before)))")
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.strip() == "[]"


# every name the package exported when its __init__ imported all modules
EXPORTS = """
    DerivedConstants FieldInvariants PrimeSituation RepFamilyParams Setting Verdict
    central_binomial cor1_setting cor2_setting decide decide_cor1 decide_cor2
    decide_ec_irred decide_etale decide_rt decide_trivial derived_constants
    ec_irred_setting etale_setting least_empty_prime lemma_bound parity_obstruction
    rt_setting trivial_setting
    CongruenceInstance GateOutcome GateVerdict counterexample_search forced_equality
    symmetric_congruence
    IntPolynomial PowerSums from_power_sums from_prime_power_roots power_sums
    power_transform
    TameCharacterExponent canonical_exponent digit_weights frobenius_orbit
    WeilDatum enumerate_weil_quadratics functional_equation_check validate_weights
""".split()


def test_every_export_resolves_and_is_in_all():
    import semistable_gate

    namespace: dict = {}
    exec(f"from semistable_gate import {', '.join(EXPORTS)}, __version__", namespace)
    assert all(namespace[name] is not None for name in EXPORTS)
    assert namespace["__version__"] == "0.1.0"
    assert set(EXPORTS) <= set(semistable_gate.__all__)
    with pytest.raises(ImportError):
        exec("from semistable_gate import no_such_name", {})


def test_imports_follow_the_command():
    # compared with a snapshot: site .pth files may load some of them first
    doc = '{"field":{"d":1,"disc":1,"h_plus":1},"query":{"g":1,"variant":"st","ell":[]}}'
    code = ("import io, sys\n"
            "before = set(sys.modules)\n"
            "import semistable_gate\n"
            "print(sorted(m for m in set(sys.modules) - before if m.startswith('semistable_gate.')))\n"
            f"sys.stdin, sys.stdout = io.StringIO({doc!r}), io.StringIO()\n"
            "from semistable_gate import cli\n"
            "code = cli.main(['rt', '--min-ell'])\n"
            "out, sys.stdout = sys.stdout.getvalue(), sys.__stdout__\n"
            "unwanted = {'semistable_gate.gate', 'semistable_gate.weil', 'semistable_gate.intpoly',\n"
            "            'semistable_gate.tame', 'fractions', 'decimal'}\n"
            "print(code, '\"min_ell\": 17' in out, sorted(unwanted & (set(sys.modules) - before)))\n")
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.splitlines() == ["[]", "0 True []"]


def test_help_and_usage_errors_match_a_parser_of_all_ten_commands(capsys, monkeypatch):
    def outcome(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    monkeypatch.setenv("COLUMNS", "80")
    argvs = [[], ["-h"], ["no-such-command"]] + [
        [name, *flags] for name in cli.COMMANDS
        for flags in (["-h"], ["--bogus"], ["--ell", "x"])]
    built = [outcome(argv) for argv in argvs]
    assert "error: argument command: invalid choice: 'no-such-command'" in built[2][2]
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda names: build(cli.COMMANDS))
    for argv, got in zip(argvs, built):
        assert outcome(argv) == got, argv


def test_cli_imports_without_numpy():
    code = "import sys; sys.modules['numpy'] = None; import semistable_gate.cli"
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})


UNIFORM_DOC = {"field": {"d": 1, "disc": 1, "h_plus": 1},
               "params": {"n": 2, "ell0": 2, "r": 1, "variant": "bullet",
                          "w": 1, "cyclotomic": True}}


def test_decide_at_ell0_asks_only_trivial(capsys):
    code, out, _ = run_cli(capsys, "decide", dict(UNIFORM_DOC, query={"ell": [2, 17]}))
    assert code == 0
    per_ell = {v["ell"]: [x["theorem"] for x in v["verdicts"]]
               for v in json.loads(out)["verdicts"]}
    assert per_ell == {2: ["Trivial"], 17: ["Trivial", "Cor1", "Cor2"]}


def test_rt_with_ell0_at_ell0_exits_3(capsys):
    doc = {"field": {"d": 1, "disc": 1, "h_plus": 1},
           "query": {"g": 1, "variant": "st_with_ell0", "ell0": 3, "ell": [17, 3]}}
    code, out, err = run_cli(capsys, "rt", doc)
    assert code == 3 and out == "" and "outside the framework" in err


@pytest.mark.parametrize("command,doc", [
    ("etale", {"field": {"d": 1, "disc": 1, "h_plus": 1},
               "query": {"b_w": 2, "ell_X": 2, "w": 2, "ell": []}}),
    ("rt", {"field": {"d": 1, "disc": 1, "h_plus": 1},
            "query": {"g": 0, "variant": "st", "ell": []}}),
    ("decide", {"field": {"d": 1, "disc": 1, "h_plus": 1},
                "params": {"n": 2, "ell0": 2, "r": 1, "variant": "circle", "w_bar": 2},
                "query": {"ell": []}}),
])
def test_refused_family_with_no_ell_exits_3(capsys, command, doc):
    # the settings are built once per query, so an empty ell list is refused
    # exactly as the same document with --min-ell is
    for flags in ((), ("--min-ell",)):
        code, out, err = run_cli(capsys, command, doc, *flags)
        assert code == 3 and out == "" and "precondition failure" in err


@pytest.mark.parametrize("query", ["[1]", '"x"', "5", "null"])
def test_ell_flag_on_a_non_object_query_exits_2(capsys, query):
    code, out, err = run_cli(capsys, "rt", '{"query": %s}' % query, "--ell", "5")
    assert code == 2 and out == "" and "query must be a JSON object" in err


def _cli_process(doc: str, *argv, limit_bytes: int | None = None):
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

    src = pathlib.Path(cli.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-m", "semistable_gate.cli", *argv],
                          input=doc, capture_output=True, text=True, timeout=60,
                          preexec_fn=limit if limit_bytes else None,
                          env={**os.environ, "PYTHONPATH": str(src)})


def test_memory_error_exits_4_without_a_traceback():
    # a raised budget lets the sieve up to ell_max try to allocate ~10^12 bytes
    doc = json.dumps({"query": {"q": 2, "n": 2, "s_max": 1, "ell_max": 10 ** 12}})
    proc = _cli_process(doc, "gate-search", "--budget", str(10 ** 21), limit_bytes=2 * 10 ** 9)
    assert proc.returncode == 4 and proc.stdout == ""
    assert "MemoryError" in proc.stderr and "Traceback" not in proc.stderr


def test_deeply_nested_document_exits_2_without_a_traceback():
    proc = _cli_process('{"query": ' + "[" * 100_000 + "]" * 100_000 + "}", "rt")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "schema error: invalid JSON" in proc.stderr and "Traceback" not in proc.stderr


def test_recursion_error_exits_4_without_a_traceback(capsys, monkeypatch):
    def deep(poly, s):
        raise RecursionError("synthetic")

    monkeypatch.setattr(intpoly, "power_transform", deep)
    code, out, err = run_cli(capsys, "power-transform", {"query": {"poly": [2, 1, 1], "s": 2}})
    assert code == 4 and out == ""
    assert err == "resource exhausted: RecursionError synthetic\n"
