"""In-process spans around the public functions of each module.

Each wrapped function is replaced wherever it is bound (in `cli`, in `gate`,
and in its own module's globals), so calls between modules and calls inside
one module are both recorded.  Spans live in flat arrays in memory (name,
start, end, parent, request id) and are written out once the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array
from pathlib import Path

WRAPPED = {
    "cli": ("main", "canonical_json"),
    "bounds": ("decide_trivial", "decide_cor1", "decide_cor2", "decide_rt",
               "decide_ec_irred", "decide_etale", "derived_constants"),
    "primes": ("is_prime", "next_prime", "primes_up_to", "is_prime_power", "prime_power_base"),
    "intpoly": ("power_transform", "from_prime_power_roots"),
    "gate": ("counterexample_search", "forced_equality"),
    "weil": ("validate_weights", "enumerate_weil_quadratics", "functional_equation_check"),
    "tame": ("TameCharacterExponent", "digit_weights", "frobenius_orbit", "canonical_exponent"),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.raised: list[int] = []       # spans an exception left their module through
        self.request_id = -1
        self._stack: list[int] = []

    def wrap(self, qualified: str, fn):
        nid = len(self.names)
        self.names.append(qualified)
        module = qualified.split(".")[0]
        names, name_col, start, end = self.names, self.name, self.start, self.end
        parent, request, stack, raised = self.parent, self.request, self._stack, self.raised
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_col.append(nid)
            parent.append(stack[-1] if stack else -1)
            request.append(self.request_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                up = parent[idx]
                if up < 0 or not names[name_col[up]].startswith(module + "."):
                    raised.append(idx)
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Patch every binding of each wrapped function in `modules` (name ->
        module object, the package itself included) and restore them after."""
        patches = []
        for module_name, functions in WRAPPED.items():
            for fn_name in functions:
                original = getattr(modules[module_name], fn_name)
                wrapper = self.wrap(f"{module_name}.{fn_name}", original)
                for ns in modules.values():
                    if vars(ns).get(fn_name) is original:
                        patches.append((ns, fn_name, original))
                        setattr(ns, fn_name, wrapper)
        try:
            yield
        finally:
            for ns, fn_name, original in patches:
                setattr(ns, fn_name, original)

    def summarize(self, group_of) -> dict:
        """Per group (group_of(request id)): for each span name [calls, total s,
        self s]; for each module its inclusive time (spans entered from another
        module) and the number of exceptions raised out of it.

        Self time is a span's duration minus its children's durations; a
        child always has a higher index than its parent, so one backward pass
        has every child counted before its parent is read.
        """
        n = len(self.start)
        child = array("d", bytes(8 * n))
        out: dict = {}
        for i in range(n - 1, -1, -1):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                child[p] += dur
            group = out.setdefault(group_of(self.request[i]),
                                   {"spans": {}, "raised": {}, "inclusive": {}})
            name = self.names[self.name[i]]
            entry = group["spans"].setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child[i]
            module = name.split(".")[0]
            if p < 0 or not self.names[self.name[p]].startswith(module + "."):
                group["inclusive"][module] = group["inclusive"].get(module, 0.0) + dur
        for i in self.raised:
            raised = out[group_of(self.request[i])]["raised"]
            module = self.names[self.name[i]].split(".")[0]
            raised[module] = raised.get(module, 0) + 1
        return out

    def dump(self, path: Path) -> None:
        """Columns as raw native arrays in `path`, described by `path`.json."""
        columns = [("name", self.name), ("start", self.start), ("end", self.end),
                   ("parent", self.parent), ("request", self.request)]
        with open(path, "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        header = {"names": self.names, "count": len(self.start), "raised": self.raised,
                  "columns": [[label, col.typecode, col.itemsize] for label, col in columns]}
        path.with_name(path.name + ".json").write_text(json.dumps(header), encoding="utf-8")
