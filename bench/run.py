#!/usr/bin/env python3
"""Certificate benchmark for semistable-gate (stdlib only).

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 30 --trace 0

Run from the repository root.  With --trace 0 it drives the CLI as users
do: one `python -m semistable_gate.cli <command>` process per request, in a
closed loop with one client, repeating whole seeded cycles of requests for
about --seconds, and reports the end-to-end metrics.  With --trace 1
it replays the first cycle in-process, alternating untraced and traced
rounds, and reports per-layer metrics from the spans.  Every output is
checked by the oracle.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

`correct` is false when any output is wrong other than the labelled
wrong-at-seed cases; those are counted in `failed` (and in correct_ratio).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from oracle import Request, check, no_int_digit_limit
from tracing import Tracer, WRAPPED
from workloads import WORKLOADS, is_prime

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

REQUIRED = ("src/semistable_gate/cli.py", "tests/golden_cases.py", "tests/golden")
PROBE_EVERY_S = 1.0      # one set-up and one reference process per second of requests
PROBE_MIN = 5
IMPORT_REPEATS = 3

# Gated metrics are CPU-based: on a shared virtual machine, wall time swings
# with the host's steal time (2x at times) while process CPU time does not.
# CPU time still follows the host's speed, which holds for minutes at a time
# and moves every request of a run by 30-40% together.  So the gated times are
# scaled to a fixed speed: each run also times REFERENCE, a process that does
# not touch the program (interpreter start-up, standard-library imports and
# an integer loop), and multiplies its times by REFERENCE_S / the reference's
# median CPU time.  The unscaled and wall-time figures, failed_ratio and the
# p90 are printed beside them, outside the JSON line: a p90 over sweep's or
# min-ell's few requests a run falls between two cases and jumps between runs.
REFERENCE = ("import argparse, decimal, email.parser, fractions, json, statistics\n"
             "x = 0\nfor i in range(250000):\n    x = (x * 31 + i) % 1000003\n")
REFERENCE_S = 0.14         # s: the reference CPU time that gated times are scaled to
END_TO_END_UNITS = {
    "setup_s": "s",
    "request_cpu_p50_ms": "ms",
    "requests_per_cpu_s": "1/s",
    "correct_ratio": "ratio",
    "peak_rss_mb": "MB",
}
INFO_UNITS = {
    "reference_cpu_s": "s",
    "unscaled_setup_s": "s",
    "unscaled_request_cpu_p50_ms": "ms",
    "unscaled_requests_per_cpu_s": "1/s",
    "unscaled_request_cpu_p90_ms": "ms",
    "setup_wall_s": "s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "requests_per_s": "1/s",
    "failed_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {"import.cli_ms": "ms", "import.numpy_ms": "ms",
             "cli.main.self_ms": "ms", "cli.canonical_json.ms": "ms", "cli.cert_bytes": "bytes",
             "bounds.decide.calls": "count", "bounds.decide.self_ms": "ms",
             "bounds.derived_constants.calls": "count", "bounds.derived_constants.ms": "ms",
             "primes.next_prime.calls": "count", "primes.next_prime.self_ms": "ms",
             "primes.is_prime.calls": "count", "primes.is_prime.ms": "ms",
             "primes.primes_up_to.ms": "ms",
             "intpoly.power_transform.calls": "count", "intpoly.power_transform.ms": "ms",
             "intpoly.from_prime_power_roots.calls": "count",
             "intpoly.from_prime_power_roots.ms": "ms",
             "gate.counterexample_search.self_ms": "ms", "gate.forced_equality.calls": "count",
             "gate.cells": "count", "gate.instances": "count", "gate.hit_ratio": "ratio",
             "weil.validate_weights.calls": "count", "weil.validate_weights.ms": "ms",
             "weil.enumerate_weil_quadratics.ms": "ms",
             "tame.calls": "count", "tame.ms": "ms"}
    for module in WRAPPED:
        units[f"{module}.self_ms"] = "ms"
        units[f"{module}.raised"] = "count"
    units.update({"trace.requests": "count", "trace.overhead_ratio": "ratio"})
    return units


PER_LAYER_UNITS = per_layer_units()


def child_env() -> dict:
    """The program from this checkout's sources, loading cached bytecode as an
    installed package does: the warm-up import writes src/**/__pycache__.
    BLAS runs one thread: numpy's OpenBLAS pool otherwise busy-waits on the
    second core after import, adding CPU time that follows the scheduler, not
    the program (one client never has BLAS work to share out)."""
    path = str(ROOT / "src")
    if os.environ.get("PYTHONPATH"):
        path += os.pathsep + os.environ["PYTHONPATH"]
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass
class Sample:
    code: int
    out: str
    err: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int


def spawn(argv: list[str], data: bytes) -> Sample:
    """One process, timed from spawn to exit; CPU and peak RSS from wait4."""
    stdin, stdout, stderr = OUT / "stdin", OUT / "stdout", OUT / "stderr"
    stdin.write_bytes(data)
    with open(stdin, "rb") as fin, open(stdout, "w+b") as fout, open(stderr, "w+b") as ferr:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=fin, stdout=fout, stderr=ferr, env=child_env(),
                                cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        fout.seek(0)
        ferr.seek(0)
        return Sample(proc.returncode, fout.read().decode(), ferr.read().decode(errors="replace"),
                      wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def request_argv(req: Request) -> list[str]:
    return [sys.executable, "-m", "semistable_gate.cli", req.command, *req.flags]


def more_rounds(elapsed: float, rounds: int, seconds: float) -> bool:
    """Whole rounds (cycles, or traced pairs) until --seconds is nearest:
    another one runs while it would end at most half a round past it."""
    return rounds == 0 or elapsed + 0.5 * elapsed / rounds <= seconds


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


class Tally:
    """Failures by request, split into labelled known defects and the rest."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: dict[tuple, int] = {}

    def record(self, req: Request, reason: str | None) -> bool:
        self.attempted += 1
        if reason is not None:
            key = (req.defect, req.label, reason)
            self.failures[key] = self.failures.get(key, 0) + 1
        return reason is None

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def unexpected(self) -> int:
        return sum(n for (defect, _, _), n in self.failures.items() if defect is None)

    def report(self) -> list[str]:
        lines = [f"requests: {self.attempted} attempted, {self.failed} failed "
                 f"({self.failed - self.unexpected} known wrong-at-seed, "
                 f"{self.unexpected} unexpected)"]
        for (defect, label, reason), n in sorted(self.failures.items(), key=str):
            lines.append(f"  FAIL [{defect or 'UNEXPECTED'}] {label}: {reason} (x{n})")
        return lines


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, Tally, list[str]]:
    """Whole seeded cycles of request processes.  Between requests, once a
    second, a set-up process (it only imports the CLI module) and the reference
    process run, so both sample the same stretch of the host's speed as the
    requests do.  Gated times are scaled by REFERENCE_S / the reference's
    median CPU time in this run."""
    setup_argv = [sys.executable, "-c", "import semistable_gate.cli"]
    reference_argv = [sys.executable, "-I", "-c", REFERENCE]
    spawn(setup_argv, b"")      # untimed: writes the bytecode cache, as an install does
    rng = random.Random(seed)
    tally = Tally()
    setup: list[Sample] = []
    reference: list[Sample] = []
    samples: list[Sample] = []
    log = []
    correct = cycles = 0

    def probe() -> None:
        for kind, argv, out in (("set-up", setup_argv, setup),
                                ("reference", reference_argv, reference)):
            out.append(spawn(argv, b""))
            log.append((kind, cycles, out[-1].cpu_s, out[-1].wall_s))

    t_start = last_probe = time.perf_counter()
    while more_rounds(time.perf_counter() - t_start, cycles, seconds):
        for req in WORKLOADS[workload](rng, ROOT):
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probe()
                last_probe = time.perf_counter()
            s = spawn(request_argv(req), req.stdin())
            samples.append(s)
            log.append((req.label, cycles, s.cpu_s, s.wall_s))
            correct += tally.record(req, check(req, s.code, s.out, s.err))
        cycles += 1
    while len(setup) < PROBE_MIN:
        probe()
    (OUT / f"samples-{workload}-{seed}.json").write_text(json.dumps(log, indent=0))
    reference_s = statistics.median(r.cpu_s for r in reference)
    scale = REFERENCE_S / reference_s
    cpu = [s.cpu_s * 1e3 for s in samples]
    wall = [s.wall_s * 1e3 for s in samples]
    setup_cpu_s = statistics.median(s.cpu_s for s in setup)
    cpu_p50 = statistics.median(cpu)
    per_cpu_s = correct / sum(s.cpu_s for s in samples)
    metrics = {
        "setup_s": setup_cpu_s * scale,
        "request_cpu_p50_ms": cpu_p50 * scale,
        "requests_per_cpu_s": per_cpu_s / scale,
        "correct_ratio": correct / tally.attempted,
        "peak_rss_mb": max(s.maxrss_kb for s in samples) / 1024,
    }
    info = {
        "reference_cpu_s": reference_s,
        "unscaled_setup_s": setup_cpu_s,
        "unscaled_request_cpu_p50_ms": cpu_p50,
        "unscaled_requests_per_cpu_s": per_cpu_s,
        "unscaled_request_cpu_p90_ms": p90(cpu),
        "setup_wall_s": statistics.median(s.wall_s for s in setup),
        "request_p50_ms": statistics.median(wall),
        "request_p90_ms": p90(wall),
        "requests_per_s": correct / sum(s.wall_s for s in samples),
        "failed_ratio": tally.failed / tally.attempted,
    }
    notes = [f"cycles: {cycles}, requests timed: {len(samples)}, set-up and reference "
             f"processes: {len(setup)} each, samples written to "
             f"{(OUT / f'samples-{workload}-{seed}.json').relative_to(ROOT)}"]
    return metrics, info, tally, notes


# ---- traced in-process run ---------------------------------------------------

def import_times(repeats: int) -> tuple[float, float]:
    """(semistable_gate.cli, numpy) cumulative import ms from -X importtime."""
    argv = [sys.executable, "-X", "importtime", "-c", "import semistable_gate.cli"]
    spawn(argv, b"")
    cli_ms, numpy_ms = [], []
    for _ in range(repeats):
        total = numpy = 0.0
        for line in spawn(argv, b"").err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            if name.strip() == "numpy" and not numpy:
                numpy = int(cumulative) / 1e3
            if name.startswith(" semistable_gate"):      # top level, not nested
                total += int(cumulative) / 1e3
        cli_ms.append(total)
        numpy_ms.append(numpy)
    return statistics.median(cli_ms), statistics.median(numpy_ms)


def in_process(cli, requests: list[Request], tracer: Tracer | None, base: int) -> list[tuple]:
    results = []
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request_id = base + i
        stdout, stderr = io.StringIO(), io.StringIO()
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(req.stdin().decode()), stdout, stderr
        try:
            code = cli.main([req.command, *req.flags])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback: the process would exit 1
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=stderr)
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        results.append((code, stdout.getvalue(), stderr.getvalue()))
    return results


def search_cells(query: dict) -> int:
    """Cells a gate-search sweeps, by the same formula as its CorpusTooLarge
    budget: polynomials x t-multisets x primes."""
    q, n, s_max, ell_max = query["q"], query["n"], query["s_max"], query["ell_max"]
    quadratics = 2 * math.isqrt(4 * q) + 1
    polys = math.comb(quadratics + n // 2 - 1, n // 2)    # multisets of n/2 quadratics
    ell0 = next(p for p in range(2, q + 1) if q % p == 0)
    primes = sum(1 for p in range(2, ell_max + 1) if p != ell0 and is_prime(p))
    return polys * sum(math.comb(s + n, n) for s in range(1, s_max + 1)) * primes


def layer_metrics(summary: dict) -> dict:
    spans, raised, inclusive = summary["spans"], summary["raised"], summary["inclusive"]

    def pick(index: int, *names: str) -> float:
        return sum(spans.get(name, (0, 0.0, 0.0))[index] for name in names)

    decide = [f"bounds.{f}" for f in WRAPPED["bounds"] if f.startswith("decide_")]
    tame = [f"tame.{f}" for f in WRAPPED["tame"]]
    m = {
        "cli.main.self_ms": pick(2, "cli.main") * 1e3,
        "cli.canonical_json.ms": pick(1, "cli.canonical_json") * 1e3,
        "bounds.decide.calls": pick(0, *decide),
        "bounds.decide.self_ms": pick(2, *decide) * 1e3,
        "bounds.derived_constants.calls": pick(0, "bounds.derived_constants"),
        "bounds.derived_constants.ms": pick(1, "bounds.derived_constants") * 1e3,
        "primes.next_prime.calls": pick(0, "primes.next_prime"),
        "primes.next_prime.self_ms": pick(2, "primes.next_prime") * 1e3,
        "primes.is_prime.calls": pick(0, "primes.is_prime"),
        "primes.is_prime.ms": pick(1, "primes.is_prime") * 1e3,
        "primes.primes_up_to.ms": pick(1, "primes.primes_up_to") * 1e3,
        "intpoly.power_transform.calls": pick(0, "intpoly.power_transform"),
        "intpoly.power_transform.ms": pick(1, "intpoly.power_transform") * 1e3,
        "intpoly.from_prime_power_roots.calls": pick(0, "intpoly.from_prime_power_roots"),
        "intpoly.from_prime_power_roots.ms": pick(1, "intpoly.from_prime_power_roots") * 1e3,
        "gate.counterexample_search.self_ms": pick(2, "gate.counterexample_search") * 1e3,
        "gate.forced_equality.calls": pick(0, "gate.forced_equality"),
        "weil.validate_weights.calls": pick(0, "weil.validate_weights"),
        "weil.validate_weights.ms": pick(1, "weil.validate_weights") * 1e3,
        "weil.enumerate_weil_quadratics.ms": pick(1, "weil.enumerate_weil_quadratics") * 1e3,
        "tame.calls": pick(0, *tame),
        "tame.ms": inclusive.get("tame", 0.0) * 1e3,
    }
    for module, functions in WRAPPED.items():
        m[f"{module}.self_ms"] = pick(2, *(f"{module}.{f}" for f in functions)) * 1e3
        m[f"{module}.raised"] = raised.get(module, 0)
    return m


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict, Tally, list[str]]:
    """Untraced and traced in-process rounds over the first cycle's documents,
    alternating in pairs until --seconds is nearest (at least one pair)."""
    requests = WORKLOADS[workload](random.Random(seed), ROOT)
    import_cli_ms, import_numpy_ms = import_times(IMPORT_REPEATS)
    sys.path.insert(0, str(ROOT / "src"))
    import semistable_gate
    from semistable_gate import bounds, cli, gate, intpoly, primes, tame, weil
    modules = {"semistable_gate": semistable_gate, "cli": cli, "bounds": bounds, "gate": gate,
               "intpoly": intpoly, "primes": primes, "tame": tame, "weil": weil}
    tracer = Tracer()
    walls: list[tuple[float, float]] = []
    outputs = []
    identical = True
    t_start = time.perf_counter()
    while more_rounds(time.perf_counter() - t_start, len(walls), seconds):
        t0 = time.perf_counter()
        plain = in_process(cli, requests, None, 0)
        t1 = time.perf_counter()
        with tracer.installed(modules):
            t2 = time.perf_counter()
            outputs = in_process(cli, requests, tracer, len(walls) * len(requests))
            t3 = time.perf_counter()
        identical &= plain == outputs
        walls.append((t1 - t0, t3 - t2))
    tally = Tally()
    cert_bytes = cells = instances = 0
    for req, (code, out, err) in zip(requests, outputs):
        tally.record(req, check(req, code, out, err))
        cert_bytes += len(out.encode())
        if req.command == "gate-search" and code == 0:
            cells += search_cells(req.doc["query"])
            with no_int_digit_limit():
                instances += json.loads(out)["count"]
    summary = tracer.summarize(lambda request_id: request_id // len(requests))
    tracer.dump(OUT / f"spans-{workload}.bin")
    per_round = [layer_metrics(summary.get(r, {"spans": {}, "raised": {}, "inclusive": {}}))
                 for r in range(len(walls))]
    metrics = {"import.cli_ms": import_cli_ms, "import.numpy_ms": import_numpy_ms}
    for name in per_round[0]:
        values = [m[name] for m in per_round]
        metrics[name] = statistics.median(values) if name.endswith("ms") else values[0]
    metrics.update({
        "cli.cert_bytes": cert_bytes,
        "gate.cells": cells,
        "gate.instances": instances,
        "gate.hit_ratio": instances / cells if cells else 0.0,
        "trace.requests": len(requests),
        "trace.overhead_ratio": statistics.median(t / u for u, t in walls),
    })
    if not identical:
        tally.record(Request("tracing", "-", None), "traced outputs differ from untraced ones")
    untraced_ms = statistics.median(u for u, _ in walls) * 1e3
    notes = [f"rounds: {len(walls)}, spans: {len(tracer.start)}, "
             f"untraced in-process round: {untraced_ms:.1f} ms, "
             f"spans written to {(OUT / f'spans-{workload}.bin').relative_to(ROOT)}"]
    return {name: metrics[name] for name in PER_LAYER_UNITS}, {}, tally, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"error: run from a semistable-gate checkout; missing {missing}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    run = traced if args.trace else end_to_end
    metrics, info, tally, notes = run(args.workload, args.seed, args.seconds)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(f"semistable-gate benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for line in notes + tally.report():
        print(line)
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")
    for name, value in info.items():
        print(f"  {name:<40} {value:>16.6g} {INFO_UNITS[name]}  (not gated)")
    print(json.dumps({
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
