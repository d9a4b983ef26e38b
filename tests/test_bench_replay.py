"""The benchmark's traced in-process replay, as `bench/run.py --trace 1` runs
it: the first cycle of cli-mix and of min-ell runs plain, then again with
every function named in `bench/tracing.py`'s WRAPPED patched over the same
eight modules, and the two must give the same outputs, none of them an
unlabelled failure by the oracle.  So a refactor that moves or deletes a
wrapped name, or that a patched binding changes, fails here and not first in
a benchmark run.  The bench files are loaded by path and nothing is written."""

import importlib.util
import pathlib
import random
import sys

import pytest

import semistable_gate
from semistable_gate import bounds, cli, gate, intpoly, primes, tame, weil

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH_MODULES = ("oracle", "tracing", "workloads", "run")
MODULES = {"semistable_gate": semistable_gate, "cli": cli, "bounds": bounds, "gate": gate,
           "intpoly": intpoly, "primes": primes, "tame": tame, "weil": weil}


@pytest.fixture(scope="module")
def bench():
    """The four bench modules by name.  Each imports its siblings by bare
    name, so they are registered in sys.modules only while they load."""
    saved = {name: sys.modules.get(name) for name in BENCH_MODULES}
    try:
        for name in BENCH_MODULES:
            spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / f"{name}.py")
            sys.modules[name] = module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        return {name: sys.modules[name] for name in BENCH_MODULES}
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def traced_round(bench, requests, tracer=None, base=0):
    """One round over `requests` with the tracer installed over MODULES: its
    outputs and the oracle's tally of them."""
    run = bench["run"]
    tracer = tracer or bench["tracing"].Tracer()
    with tracer.installed(MODULES):
        outputs = run.in_process(cli, requests, tracer, base)
    tally = run.Tally()
    for req, (code, out, err) in zip(requests, outputs):
        tally.record(req, bench["oracle"].check(req, code, out, err))
    return outputs, tally


@pytest.mark.parametrize("workload", ["cli-mix", "min-ell"])
def test_the_traced_replay_gives_the_plain_outputs(bench, workload):
    run = bench["run"]
    requests = bench["workloads"].WORKLOADS[workload](random.Random(1), ROOT)
    plain = run.in_process(cli, requests, None, 0)
    traced, tally = traced_round(bench, requests)
    assert traced == plain
    assert tally.unexpected == 0, "\n".join(tally.report())


# as `bench/run.py --trace 1` runs it at other seeds: round after round in one
# process, so state a plain round leaves behind must not change the next one
@pytest.mark.parametrize("seed", [2, 3, 4, 5])
@pytest.mark.parametrize("workload", ["cli-mix", "min-ell"])
def test_rounds_at_other_seeds_give_the_same_outputs(bench, workload, seed):
    run = bench["run"]
    requests = bench["workloads"].WORKLOADS[workload](random.Random(seed), ROOT)
    first = run.in_process(cli, requests, None, 0)
    second = run.in_process(cli, requests, None, 0)
    traced, tally = traced_round(bench, requests)
    assert first == second == traced
    assert tally.unexpected == 0, "\n".join(tally.report())


# as `bench/run.py --trace 1` runs it at seed 0: many pairs of a plain and a
# traced round in one process, one tracer over all of them
@pytest.mark.parametrize("workload,pairs", [("cli-mix", 10), ("min-ell", 40)])
def test_many_rounds_at_seed_0_give_the_same_outputs(bench, workload, pairs):
    run = bench["run"]
    requests = bench["workloads"].WORKLOADS[workload](random.Random(0), ROOT)
    tracer = bench["tracing"].Tracer()
    first = run.in_process(cli, requests, None, 0)
    for i in range(pairs):
        plain = run.in_process(cli, requests, None, 0) if i else first
        traced, tally = traced_round(bench, requests, tracer, i * len(requests))
        assert plain == traced == first, f"round {i}"
        assert tally.unexpected == 0, "\n".join(tally.report())
