"""Spans around calls into picard3's layers, recorded from outside the program.

Each traced function is rebound, in every loaded ``picard3`` module
namespace that holds it (and in module-level dicts such as
``verify.ALL_SUITES``), to a wrapper that records a span: the function, its
start, its end and the span that caused it.  Spans stay in memory until the
run ends.  Self time is a span's duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import sys
import time

# module -> traced public functions
LAYERS = {
    "linalg": ("inverse", "kernel_basis", "smith_normal_form", "det"),
    "clifford": ("clifford_mul", "reversal", "norm", "phi_rep"),
    "exterior": ("mu_matrix", "mu_tilde_matrix", "iota_inverse_matrix", "p_bases"),
    "isometries": ("h_alpha", "clifford_lift", "unit_search_even"),
    "lattice": ("signature", "represents", "in_discriminant_kernel"),
    "modular": ("delta_n", "qr_minus_one", "index_pi_g_n", "torsion_search"),
    "report": ("analyze_picard",),
    "verify": ("clifford_suite", "exterior_suite"),
    "cli": ("main",),
}
NAMES = tuple(f"{m}.{f}" for m, fs in LAYERS.items() for f in fs)
OP = -1  # function index of the root span of one operation


class Tracer:
    """Rebinds the traced functions while installed; keeps every span."""

    def __init__(self):
        # span: [function index, parent span id, start ns, end ns]
        self.spans = []
        self.missing = []
        self._stack = []
        self._sites = []  # (namespace dict, key, original, wrapper)
        originals = []
        for name in NAMES:
            mod, fn = name.split(".")
            obj = getattr(importlib.import_module(f"picard3.{mod}"), fn, None)
            if obj is None:
                self.missing.append(name)
            originals.append(obj)
        wrappers = {id(f): self._wrap(i, f) for i, f in enumerate(originals)
                    if f is not None}
        for modname, mod in list(sys.modules.items()):
            if modname != "picard3" and not modname.startswith("picard3."):
                continue
            for ns in [vars(mod)] + [v for v in vars(mod).values()
                                     if type(v) is dict]:
                for key, val in ns.items():
                    w = wrappers.get(id(val))
                    if w is not None and val is w.__wrapped__:
                        self._sites.append((ns, key, val, w))

    def _wrap(self, index, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = [index, stack[-1] if stack else None, clock(), 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def call(self, fn, arg):
        """Run one operation ``fn(arg)`` as a root span with the wrappers installed."""
        for ns, key, _, w in self._sites:
            ns[key] = w
        span = [OP, None, 0, 0]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            span[2] = time.perf_counter_ns()
            out = fn(arg)
            span[3] = time.perf_counter_ns()
        finally:
            self._stack.pop()
            for ns, key, orig, _ in self._sites:
                ns[key] = orig
        return out, (span[3] - span[2]) / 1e9

    def summary(self):
        """Per-layer metrics, per operation (the number of root spans)."""
        n = len(NAMES)
        calls, total, self_ns = [0] * n, [0] * n, [0] * n
        child = [0] * len(self.spans)
        ops, op_self = 0, 0
        for fn, parent, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        for (fn, parent, t0, t1), c in zip(self.spans, child):
            if fn == OP:
                ops += 1
                op_self += t1 - t0 - c
            else:
                calls[fn] += 1
                total[fn] += t1 - t0
                self_ns[fn] += t1 - t0 - c
        ops = max(ops, 1)
        out = {}
        module_self = {m: 0 for m in LAYERS}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls_per_op"] = (calls[i] / ops, "count")
            out[f"{name}.self_ms_per_op"] = (self_ns[i] / ops / 1e6, "ms")
            out[f"{name}.us_per_call"] = (total[i] / calls[i] / 1e3 if calls[i] else 0.0, "us")
            module_self[name.split(".")[0]] += self_ns[i]
        for m, v in module_self.items():
            out[f"{m}.self_ms_per_op"] = (v / ops / 1e6, "ms")
        out["untraced.self_ms_per_op"] = (op_self / ops / 1e6, "ms")
        return out

    def write(self, path):
        """Spans as JSON lines: name, parent span id, start and end in ns."""
        names = NAMES + ("op",)
        with open(path, "w") as f:
            for i, (fn, parent, t0, t1) in enumerate(self.spans):
                f.write(f'{{"id": {i}, "name": "{names[fn]}", "parent": '
                        f'{"null" if parent is None else parent}, '
                        f'"start_ns": {t0}, "end_ns": {t1}}}\n')
