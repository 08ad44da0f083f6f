"""In-memory span recorder wrapped around delaylab's public functions.

The benchmark installs a Tracer from its own code: every module attribute
of the ``delaylab`` package that is one of the traced functions is replaced
by a wrapper that records (name, start, end, parent) and, for a few layers,
work counts read from the call's arguments or result.  Nothing inside
``src/`` is edited, and ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


def _csv_bytes(counts, name, args, result):
    # The CLI opens each artifact fresh just before calling the writer, so
    # the stream position after the call is the number of bytes it wrote.
    counts[f"{name}.bytes"] += args[1].tell()


def _forward_work(counts, name, args, result):
    counts["sdde.path_steps"] += result.n_paths * result.n_steps


def _backward_work(counts, name, args, result):
    steps = result.y.shape[1] - 2  # regression steps k = n_steps - 1 .. 1
    counts["bsdde.regressions"] += 2 * steps  # one Z fit and one Y fit each
    counts["bsdde.regression_steps"] += steps
    counts["bsdde.degraded_steps"] += len(result.degraded_steps)


# Traced functions as "module.function", with an optional counter hook.
TRACED = {
    "sdde.brownian_increments": None,
    "sdde.simulate_forward": _forward_work,
    "bsdde.solve_backward": _backward_work,
    "sdde.write_forward_csv": _csv_bytes,
    "bsdde.write_backward_csv": _csv_bytes,
    "pmp.write_adjoint_csv": _csv_bytes,
    "cli.write_report": None,
    "pmp.simulate_q": None,
    "pmp.adjoint_from_value": None,
    "pmp.check_p3_zero": None,
    "pmp.maximum_condition_check": None,
    "pmp.convexity_spot_check": None,
    "merton.closed_form_adjoints": None,
    "merton.q_ode_oracle": None,
    "verify.relations_report": None,
    "verify.compare_controls": None,
    "verify.closed_form_cost_check": None,
    "hjb.hjb_residual_check": None,
    "hjb.x2_independence_check": None,
    "hjb.compatibility_pde_check": None,
    "hjb.generalized_hamiltonian": None,
}


class Tracer:
    """Spans and counts of one traced run, kept in memory until written."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patched = []  # (module, attribute, original)

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.counts[f"{name}.calls"] += 1
            if hook is not None:
                hook(self.counts, name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of a traced function in delaylab's modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "delaylab" or n.startswith("delaylab."))]
        for name, hook in TRACED.items():
            mod_name, fn_name = name.split(".")
            original = getattr(sys.modules[f"delaylab.{mod_name}"], fn_name)
            wrapper = self._wrap(name, original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def self_times(self, first_span: int = 0) -> Counter:
        """Summed self time per span name over spans[first_span:].

        A span's self time is its duration minus the durations of its
        direct children; children never outlive their parent here.
        """
        spans = self.spans[first_span:]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= first_span:
                child_time[parent - first_span] += end - start
        out = Counter()
        for (name, start, end, _), child in zip(spans, child_time):
            out[name] += (end - start) - child
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
