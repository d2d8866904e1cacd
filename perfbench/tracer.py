"""Span tracer for the traced benchmark run.

The tracer replaces selected public functions of the ``seaweeds``
modules with wrappers that record one span per call: function name,
start, end, parent span and the benchmark input being processed.
Modules import each other's functions by name (``sweep.index_oracle``,
``cli.seaweed_basis``, ``formulas.meander_tail``), so a function is
replaced in every ``seaweeds.*`` namespace that holds it, and the
originals are put back by ``restore``.  Spans stay in memory (flat
arrays, one slot per field) until the benchmark writes them out.

Generator functions are materialised inside their span, so the span
covers the work of producing every item; all callers in the package
consume these generators completely.

Each span has two intervals: ``start``/``end`` around the wrapped call
only, and ``outer`` around the whole wrapper (its bookkeeping and its
counter measures too).  A span's self time is its inner interval minus
the outer intervals of its children, so the wrapper's own cost is
charged to no layer instead of to the caller's.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from time import perf_counter

# Wrapped function -> the layer metric stem its self time is charged to.
WRAPPED = {
    "specs": {
        "parse_spec": "specs.parse",
        "format_spec": "specs.format",
        "validate": "specs.validate",
        "enumerate_specs": "specs.enumerate",
    },
    "meander": {
        "build_meander": "meander.build",
        "tail": "meander.build",
        "components": "meander.components",
    },
    "formulas": {
        "index_combinatorial": "formulas.combinatorial",
        "index_closed_form": "formulas.closed_form",
        "classify_frobenius": "formulas.classify",
    },
    "delta": {"delta_of_spec": "delta.delta"},
    "matrices": {
        "seaweed_basis": "matrices.basis",
        "admissible_mask": "matrices.basis",
        "bracket": "matrices.sc",
        "lie_from_structure_constants": "matrices.sc",
    },
    "oracle": {
        "kirillov_matrix": "oracle.kirillov",
        "rank_exact": "oracle.rank",
        "kernel_dimension": "oracle.rank",
        "index_oracle": "oracle.index",
        "principal_element": "oracle.principal",
        "ad_matrix": "oracle.ad_matrix",
        "ad_spectrum": "oracle.spectrum",
    },
    "sweep": {"check_spec": "sweep.check_spec", "run_sweep": "sweep.run_sweep"},
    "cli": {"main": "cli.self", "cmd_index": "cli.self", "cmd_meander": "cli.self"},
    "render": {"render_meander": "render.render"},
}

STEM_OF = {f"{short}.{name}": stem for short, table in WRAPPED.items() for name, stem in table.items()}
STEMS = sorted(set(STEM_OF.values()))

PACKAGE = "seaweeds"
MARKER = "__perfbench_span__"

# The span's value slot holds the returned kernel dimension, so that trial
# and scan outcomes can be read per call.
VALUED = "oracle.kernel_dimension"


def _structure_terms(args, lie) -> int:
    return sum(len(coeffs) for coeffs in lie.brackets.values())


# Counters summed over the calls of a wrapped function: (counter, measure).
COUNTERS = {
    "oracle.rank_exact": (("oracle.rank_order_sum", lambda args, result: len(args[0])),),
    "matrices.seaweed_basis": (
        ("matrices.basis_dim_sum", lambda args, lie: lie.dimension),
        ("matrices.bracket_terms", _structure_terms),
    ),
    "matrices.lie_from_structure_constants": (("matrices.bracket_terms", _structure_terms),),
    "render.render_meander": (("render.bytes_out", lambda args, text: len(text.encode("utf-8"))),),
}


def _package_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def wrapped_objects() -> list[tuple[str, str]]:
    """(module, attribute) pairs that currently hold a tracer wrapper."""
    return [
        (module.__name__, attr)
        for module in _package_modules()
        for attr, value in vars(module).items()
        if getattr(value, MARKER, None) is not None
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._installed: list[tuple[object, str, object]] = []
        self.input_id = -1
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counters (one traced pass starts)."""
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("d")
        self.parent = array("l")
        self.input = array("l")
        self.value = array("q")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for short, table in WRAPPED.items():
            home = sys.modules[f"{PACKAGE}.{short}"]
            for func_name in table:
                original = getattr(home, func_name)
                wrapper = self._wrap(original, f"{short}.{func_name}")
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._installed.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed = []

    def _wrap(self, fn, qualified: str):
        name_id = len(self.names)
        self.names.append(qualified)
        materialise = inspect.isgeneratorfunction(fn)
        valued = qualified == VALUED
        counters = COUNTERS.get(qualified, ())
        tracer = self

        def wrapper(*args, **kwargs):
            entered = perf_counter()
            stack = tracer._stack
            idx = len(tracer.name)
            tracer.name.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.input.append(tracer.input_id)
            tracer.value.append(-1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.outer.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if materialise:
                    result = iter(list(result))
            finally:
                end = perf_counter()
                stack.pop()
                tracer.start[idx] = start
                tracer.end[idx] = end
                tracer.outer[idx] = end - entered
            if valued:
                tracer.value[idx] = result
            for key, measure in counters:
                tracer.counters[key] = tracer.counters.get(key, 0) + measure(args, result)
            tracer.outer[idx] = perf_counter() - entered
            return result

        wrapper.__wrapped__ = fn
        setattr(wrapper, MARKER, qualified)
        return wrapper

    # -- analysis ----------------------------------------------------------

    def summary(self, wall: float) -> dict:
        """Self times per stem, call counts per function and derived counts."""
        n = len(self.name)
        start, end, outer = self.start, self.end, self.outer
        duration = [end[i] - start[i] for i in range(n)]
        child_time = [0.0] * n
        children: dict[int, list[int]] = {}
        root_time = 0.0
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                root_time += outer[i]
            else:
                child_time[p] += outer[i]
                children.setdefault(p, []).append(i)

        self_time = {stem: 0.0 for stem in STEMS}
        calls = {name: 0 for name in self.names}
        for i in range(n):
            qualified = self.names[self.name[i]]
            self_time[STEM_OF[qualified]] += duration[i] - child_time[i]
            calls[qualified] += 1

        def named(i: int) -> str:
            return self.names[self.name[i]]

        useful = trials = scans = hits = 0
        for i in range(n):
            if named(i) == "oracle.index_oracle":
                found = [self.value[c] for c in children.get(i, ()) if named(c) == VALUED]
                if found:
                    useful += found.index(min(found)) + 1
                    trials += len(found)
            elif named(i) == "oracle.ad_spectrum":
                # Kernel dimensions after the principal element are the
                # eigenvalue scans; the ones before test functionals.
                after_principal = False
                for c in children.get(i, ()):
                    if named(c) == "oracle.principal_element":
                        after_principal = True
                    elif after_principal and named(c) == VALUED:
                        scans += 1
                        hits += self.value[c] > 0
        return {
            "self_time": self_time,
            "calls": calls,
            "coverage": root_time / wall if wall > 0 else 0.0,
            "wrapper_s": sum(outer) - sum(duration),
            "spans": n,
            "counters": dict(self.counters),
            "trials_useful": useful,
            "trials_run": trials,
            "spectrum_scans": scans,
            "spectrum_hits": hits,
        }

    def write(self, path) -> None:
        """Write the recorded spans as one JSON object of parallel columns."""
        payload = {
            "fields": ["name", "start", "end", "outer", "parent", "input", "value"],
            "names": self.names,
            "name": list(self.name),
            "start": list(self.start),
            "end": list(self.end),
            "outer": list(self.outer),
            "parent": list(self.parent),
            "input": list(self.input),
            "value": list(self.value),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

