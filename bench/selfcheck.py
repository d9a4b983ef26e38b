#!/usr/bin/env python3
"""Self-check for the benchmark: does the oracle catch wrong certificates,
and do the names it reports match BENCHMARK.json?

    python3 bench/selfcheck.py

For each workload a few cheap requests run as real CLI processes.  Every
certificate the oracle accepts is then corrupted twice (one result value
changed and re-dumped canonically, and the canonical layout broken) and
must be rejected; an error exit replaced by a certificate must be rejected
too.  A smoke run of each workload, in both modes, must report exactly the
metric names and units that BENCHMARK.json declares.  Exits 1 on any miss.
"""

from __future__ import annotations

import json
import random
import sys

import run
from oracle import HEADER, canonical, check, no_int_digit_limit
from workloads import WORKLOADS


def _smoke(workload: str) -> list:
    """A cheap slice of one cycle: at most one request of each kind."""
    cycle = WORKLOADS[workload](random.Random(0), run.ROOT)
    if workload == "sweep":
        return [r for r in cycle if r.doc["query"]["s_max"] == 3 and r.doc["query"]["q"] == 2]
    if workload == "min-ell":
        return [r for r in cycle if r.doc["query"].get("g") in (1, 2)] + [
            r for r in cycle if r.command == "decide"]
    picked, kinds = [], set()
    for r in cycle:
        kind = ("golden" if r.golden else "defect" if r.defect
                else "invalid" if r.exits != {0} else r.command)
        if kind not in kinds:
            kinds.add(kind)
            picked.append(r)
    return picked


def _mutate(node):
    """Change the first scalar found in sorted-key order; return True if done."""
    items = sorted(node.items()) if isinstance(node, dict) else list(enumerate(node))
    for key, value in items:
        if isinstance(value, bool):
            node[key] = not value
        elif isinstance(value, int):
            node[key] = value + 1
        elif isinstance(value, str):
            node[key] = value + "x"
        elif value is None:
            node[key] = 0
        elif not _mutate(value):
            continue
        return True
    return False


def corruptions(out: str) -> list[tuple[str, str]]:
    with no_int_digit_limit():
        cert = json.loads(out)
        body = {k: v for k, v in cert.items() if k not in HEADER}
        _mutate(body)
        changed = canonical({**cert, **body}) + "\n"
    return [("changed value", changed), ("non-canonical layout", out.replace("\n", "\n ", 1))]


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    names = [w["name"] for w in declared["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"workloads {sorted(WORKLOADS)} != declared {sorted(names)}")
    run.OUT.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        requests = _smoke(workload)
        caught = 0
        for req in requests:
            s = run.spawn(run.request_argv(req), req.stdin())
            reason = check(req, s.code, s.out, s.err)
            if reason is not None:
                if req.defect is None:
                    problems.append(f"{workload}: {req.label} failed: {reason}")
                continue
            if s.code != 0:
                bad = [("certificate on an error exit", 0, '{"tool": "semistable-gate"}\n')]
            else:
                bad = [(what, 0, text) for what, text in corruptions(s.out)]
                bad.append(("exit 1", 1, ""))
            for what, code, text in bad:
                if check(req, code, text, "") is None:
                    problems.append(f"{workload}: {req.label}: {what} not caught")
                else:
                    caught += 1
        print(f"{workload}: {len(requests)} requests, {caught} corruptions caught")
        # smoke runs of both modes over the same slice, reported names checked
        WORKLOADS[workload] = lambda rng, root, _r=requests: list(_r)
        for mode, key, units, run_mode in (("end_to_end", "end_to_end", run.END_TO_END_UNITS,
                                            run.end_to_end),
                                           ("per_layer", "per_layer", run.PER_LAYER_UNITS,
                                            run.traced)):
            metrics, _, _, _ = run_mode(workload, 0, 0)
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {name: units[name] for name in metrics}
            if got != want:
                problems.append(f"{workload} {mode}: reported {sorted(got.items())} "
                                f"!= declared {sorted(want.items())}")
    for p in problems:
        print("FAIL", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
