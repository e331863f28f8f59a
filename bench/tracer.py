"""Spans around every public graphfpe function, recorded from outside the program.

``Tracer.install`` replaces each binding of a public graphfpe function, in
every loaded graphfpe module namespace, with one wrapper per function. The
wrapper records a span (name, start, end, parent) and reads work counts from
the objects the function returns. A function is public when its name has no
leading underscore and, where its module defines ``__all__``, is listed
there. The layer of a span is the module that defines the function.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "graphfpe"

# counts read from returned objects: class name -> {counter: attribute}
RESULT_COUNTS = {
    "Trajectory": {"fpe_dynamics.accepted_steps": "accepted_steps", "fpe_dynamics.rejected_steps": "rejected_steps"},
    "GibbsResult": {"free_energy.gibbs_iterations": "iterations"},
    "W2Result": {"wasserstein_metric.iterations": "iterations"},
    "LsiEstimate": {"rate_analysis.lsi_samples": "samples_retained"},
}


def _in_package(module_name: str) -> bool:
    return module_name == PACKAGE or module_name.startswith(PACKAGE + ".")


def _is_public(fn) -> bool:
    if fn.__name__.startswith("_"):
        return False
    exported = getattr(sys.modules[fn.__module__], "__all__", None)
    return exported is None or fn.__name__ in exported


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: dict = defaultdict(int)
        self._stack: list[int] = []
        self._bindings: list = []

    def install(self) -> None:
        if self._bindings:
            return
        wrappers = {}
        modules = [m for name, m in list(sys.modules.items()) if _in_package(name)]
        for module in modules:
            for name, fn in list(vars(module).items()):
                if not (inspect.isfunction(fn) and _in_package(fn.__module__) and _is_public(fn)):
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn)
                self._bindings.append((module, name, fn))
                setattr(module, name, wrappers[fn])

    def uninstall(self) -> None:
        for module, name, fn in self._bindings:
            setattr(module, name, fn)
        self._bindings.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        spans, stack, counts = self.spans, self._stack, self.counts
        order_arg = fn.__name__ == "symmetric_eigen"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if order_arg:
                counts["graph_core.symmetric_eigen.order_sum"] += len(args[0] if args else kwargs["matrix"])
            for counter, attr in RESULT_COUNTS.get(type(result).__name__, {}).items():
                counts[counter] += getattr(result, attr)
            return result

        return traced

    def summary(self) -> dict:
        """Per-layer self time, per-function call count and inclusive time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        inclusive = defaultdict(float)
        cmd_s = 0.0
        main_s = 0.0
        for k, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            layer = name.split(".", 1)[0]
            self_s[layer] += dur - child[k]
            calls[name] += 1
            inclusive[name] += dur
            if name == "cli.main":
                main_s += dur
            elif name.startswith("cli.cmd_") and parent >= 0 and self.spans[parent][0] == "cli.main":
                cmd_s += dur
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "inclusive_s": dict(inclusive),
            "counts": dict(self.counts),
            "cli_setup_s": main_s - cmd_s,
        }
