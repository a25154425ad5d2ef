"""Span tracer for the benchmark's traced run.

The tracer replaces selected bellsim functions, from outside the package, by
wrappers that record one span per call: name, start, end, the enclosing span
and an optional work count.  Spans stay in memory until the run writes them
out.  Every binding of a traced function object in a loaded bellsim module is
replaced, so calls through `from ... import` re-bindings (for example
`oracle.raman_matrix` or `gates.unitarity_defect`) are counted under the
name of the module that defines the function.  Leaving the tracer restores
every original attribute.

Each thread keeps its own span stack.  A span opened on a worker thread of
the program's own pool has no parent, and the time its caller spends waiting
for it stays in the caller's self time.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict

#: Functions timed in the traced run, keyed by the module that defines them.
#: A name missing from its module (removed by a later change) is skipped.
TARGETS = {
    "linalg": ("unitarity_defect", "elementwise_sqmod"),
    "gates": ("verify_cnot_identity", "local_matrix", "bell_matrix", "raman_matrix"),
    "motion": ("d_exact", "cap_quadrature", "axis_variance"),
    "chsh": ("s_max", "chsh_s_curve", "sweep_s", "scatter_threshold",
             "s_gg_scatter_max", "s_gg_scatter_curve", "probabilities_first_principles"),
    "protocol": ("bell_meas_fidelity", "cnot_fidelity", "bell_meas_matrix",
                 "cnot_prob_matrix"),
    "oracle": ("mc_decoherence", "mc_probabilities", "mc_f_squared", "mc_bell_measurement",
               "sample_photon_direction", "sample_dipole_direction",
               "sample_displacement", "momentum_kick"),
    # the subcommand handlers are spans so that main's self time is argument
    # parsing and dispatch only
    "cli": ("main", "build_config", "write_csv", "cmd_tcrit", "cmd_bell_sweep",
            "cmd_bell_max", "cmd_scatter", "cmd_fidelity", "cmd_validate"),
}


def _result_rows(args, kwargs):
    """Work = samples returned: rows of an array, or of the first array of a tuple."""
    return args, kwargs, lambda result: len(result[0] if isinstance(result, tuple) else result)


def _integrand_points(args, kwargs):
    """Work = integrand grid points evaluated by the quadrature."""
    func, count = args[0], [0]

    def counted(theta, phi):
        count[0] += getattr(theta, "size", 1)
        return func(theta, phi)

    return (counted, *args[1:]), kwargs, lambda result: count[0]


def _written_bytes(args, kwargs):
    """Work = size of the file written."""
    path = args[0] if args else kwargs["path"]
    return args, kwargs, lambda result: os.path.getsize(path)


#: Work counted inside a span: traced name -> (quantity name, hook).  A hook
#: takes the call's arguments and returns them, possibly rewrapped, together
#: with a function of the result that gives the work done.
WORK = {
    "oracle.sample_photon_direction": ("samples", _result_rows),
    "oracle.sample_dipole_direction": ("samples", _result_rows),
    "oracle.sample_displacement": ("samples", _result_rows),
    "motion.cap_quadrature": ("points", _integrand_points),
    "cli.write_csv": ("bytes", _written_bytes),
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "work")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.work = 0


class Tracer:
    """Context manager that traces TARGETS in the loaded bellsim modules."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "bellsim" or name.startswith("bellsim."))]
        for module_name, functions in TARGETS.items():
            home = sys.modules.get(f"bellsim.{module_name}")
            for fn_name in functions:
                original = getattr(home, fn_name, None)
                if not callable(original):
                    continue
                name = f"{module_name}.{fn_name}"
                wrapper = self._wrap(name, original, WORK.get(name, (None, None))[1])
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn, hook):
        local, spans, clock = self._local, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(name, stack[-1] if stack else None)
            spans.append(span)
            finish = None
            if hook is not None:
                args, kwargs, finish = hook(args, kwargs)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if finish is not None:
                span.work = finish(result)
            return result

        return traced

    def write(self, path) -> None:
        """Write the spans as JSON rows [name, start, end, parent index, work]."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [[s.name, s.start, s.end,
                 index.get(id(s.parent)) if s.parent is not None else None, s.work]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "work"],
                       "spans": rows}, fh)


def summarize(spans) -> dict[str, float]:
    """Per-name totals over a list of spans, as flat layer metrics.

    For each traced name: `.s` inclusive seconds, `.self_s` seconds minus the
    time covered by direct child spans, `.calls`, and the work quantity of
    WORK under its own name (`cli.write_csv` also reports `.files`).
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[id(s.parent)] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        duration = s.end - s.start
        out[f"{s.name}.s"] += duration
        out[f"{s.name}.self_s"] += duration - covered[id(s)]
        out[f"{s.name}.calls"] += 1
        if s.name in WORK:
            out[f"{s.name}.{WORK[s.name][0]}"] += s.work
    if "cli.write_csv.calls" in out:
        out["cli.write_csv.files"] = out["cli.write_csv.calls"]
    return dict(out)
