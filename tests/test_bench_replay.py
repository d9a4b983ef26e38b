"""The benchmark's traced in-process replay, as `bench/run.py --trace 1` runs
it: the first cycle of cli-mix and of min-ell (seed 1) runs plain, then again
with every function named in `bench/tracing.py`'s WRAPPED patched over the
same eight modules, and the two must give the same outputs, none of them an
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


@pytest.mark.parametrize("workload", ["cli-mix", "min-ell"])
def test_the_traced_replay_gives_the_plain_outputs(bench, workload):
    run, oracle = bench["run"], bench["oracle"]
    requests = bench["workloads"].WORKLOADS[workload](random.Random(1), ROOT)
    modules = {"semistable_gate": semistable_gate, "cli": cli, "bounds": bounds, "gate": gate,
               "intpoly": intpoly, "primes": primes, "tame": tame, "weil": weil}
    plain = run.in_process(cli, requests, None, 0)
    tracer = bench["tracing"].Tracer()
    with tracer.installed(modules):
        traced = run.in_process(cli, requests, tracer, 0)
    assert traced == plain
    tally = run.Tally()
    for req, (code, out, err) in zip(requests, traced):
        tally.record(req, oracle.check(req, code, out, err))
    assert tally.unexpected == 0, "\n".join(tally.report())


# as `bench/run.py --trace 1` runs it at other seeds: round after round in one
# process, so state a plain round leaves behind must not change the next one
@pytest.mark.parametrize("seed", [2, 3, 4, 5])
@pytest.mark.parametrize("workload", ["cli-mix", "min-ell"])
def test_rounds_at_other_seeds_give_the_same_outputs(bench, workload, seed):
    run, oracle = bench["run"], bench["oracle"]
    requests = bench["workloads"].WORKLOADS[workload](random.Random(seed), ROOT)
    modules = {"semistable_gate": semistable_gate, "cli": cli, "bounds": bounds, "gate": gate,
               "intpoly": intpoly, "primes": primes, "tame": tame, "weil": weil}
    first = run.in_process(cli, requests, None, 0)
    second = run.in_process(cli, requests, None, 0)
    tracer = bench["tracing"].Tracer()
    with tracer.installed(modules):
        traced = run.in_process(cli, requests, tracer, 0)
    assert first == second == traced
    tally = run.Tally()
    for req, (code, out, err) in zip(requests, traced):
        tally.record(req, oracle.check(req, code, out, err))
    assert tally.unexpected == 0, "\n".join(tally.report())
