"""Outside-in tracer for the layer boundaries of toric_exc.

The program is not modified. `Tracer.install` rebinds every attribute of
every loaded toric_exc module that holds a boundary function, because
modules call each other through names bound at import time (for example
`collection.cohomology` and `simplicial.smith_normal_form`).
`Tracer.restore` puts every original back.

A "span" boundary records name, start, end, parent and an optional size
note per call; spans stay in memory until `summary` runs. A "count"
boundary only counts calls: those functions run over a million times per
command, and a timer on each call would cost more than the work it
measures. Their time stays in the enclosing span's self time.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _matrix_entries(args, result):
    matrix = args[0]
    return len(matrix) * (len(matrix[0]) if matrix else 0)


# (module, function, kind, note): note maps (args, result) to a size.
BOUNDARIES = (
    ("linalg", "smith_normal_form", "span", _matrix_entries),
    ("linalg", "rank", "span", None),
    ("simplicial", "reduced_homology", "span", None),
    ("fan", "complex_CI", "span", None),
    ("fan", "circuits", "span", lambda args, result: len(result)),
    ("picard", "ray_coefficients", "count", None),
    ("picard", "parse_F", "count", None),
    ("cohomology", "cohomology", "span", None),
    ("cones", "enumerate_forbidden", "span", lambda args, result: len(result)),
    ("cones", "certify_acyclic", "span", None),
    ("cones", "certify_higher_acyclic", "span", None),
    ("cones", "in_forbidden_cone", "count", None),
    ("cones", "lemma_acyclic_predicate", "count", None),
    ("cones", "higher_acyclic_predicate", "count", None),
    ("collection", "verify_exceptional", "span",
     lambda args, result: (result.pairs_checked, len(result.violations))),
    ("collection", "verify_stability", "span", None),
    ("windows", "build_certificate", "span", lambda args, result: len(result.walls)),
    ("windows", "verify_walls", "span", None),
    ("cli", "main", "span", None),
)

# The functions that grade one pair, one call per pair in a flat sweep.
GRADERS = ("cohomology.cohomology", "cones.certify_acyclic",
           "cones.certify_higher_acyclic", "cones.lemma_acyclic_predicate",
           "cones.higher_acyclic_predicate")


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "toric_exc" or name.startswith("toric_exc."))]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, note]
        self.counts = Counter()
        self._stack = []
        self._rebound = []  # (module, attribute, original)

    def install(self) -> None:
        importlib.import_module("toric_exc.cli")
        for module, function, kind, note in BOUNDARIES:
            # import_module, not attribute access: the package attribute
            # toric_exc.cohomology is the function, not the module.
            original = getattr(importlib.import_module(f"toric_exc.{module}"), function)
            name = f"{module}.{function}"
            wrapper = (self._span(name, original, note) if kind == "span"
                       else self._counter(name, original))
            for mod in _package_modules():
                for attribute, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attribute, wrapper)
                        self._rebound.append((mod, attribute, original))

    def restore(self) -> None:
        for mod, attribute, original in reversed(self._rebound):
            setattr(mod, attribute, original)
        self._rebound.clear()

    def _span(self, name, function, note):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), None, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        return wrapper

    def _counter(self, name, function):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    def summary(self) -> dict:
        """Self time, calls and notes per boundary, per-call cohomology times,
        and the time spent inside outermost spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter(self.counts)
        notes = defaultdict(list)
        cohomology_ms = []
        for (name, start, end, _, note), inner in zip(self.spans, child_time):
            self_s[name] += end - start - inner
            calls[name] += 1
            if note is not None:
                notes[name].append(note)
            if name == "cohomology.cohomology":
                cohomology_ms.append((end - start) * 1e3)
        root_s = sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)
        return {"self_s": dict(self_s), "calls": dict(calls), "notes": dict(notes),
                "cohomology_ms": cohomology_ms, "root_s": root_s}


def _percentile(values, q):
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(records, untraced_s: float) -> dict:
    """Per-layer metrics, {name: (value, unit)}, from traced command records.

    Each record holds one command's `summary`, its process wall time
    `wall_s` and its stdout length `output_bytes`. Self times plus
    cli.startup_s add up to the traced wall time.
    """
    self_s, calls, notes, cohomology_ms = defaultdict(float), Counter(), defaultdict(list), []
    traced_s = startup_s = output_bytes = 0
    for r in records:
        summary = r["summary"]
        for name, value in summary["self_s"].items():
            self_s[name] += value
        calls.update(summary["calls"])
        for name, values in summary["notes"].items():
            notes[name] += values
        cohomology_ms += summary["cohomology_ms"]
        traced_s += r["wall_s"]
        startup_s += r["wall_s"] - summary["root_s"]
        output_bytes += r["output_bytes"]
    sweeps = notes["collection.verify_exceptional"]
    pairs = sum(p for p, _ in sweeps)
    certify_calls = calls["cones.certify_acyclic"] + calls["cones.certify_higher_acyclic"]
    s, count, ratio = "s", "count", "ratio"
    return {
        "linalg.smith_calls": (calls["linalg.smith_normal_form"], count),
        "linalg.smith_s": (self_s["linalg.smith_normal_form"], s),
        "linalg.smith_max_entries": (max(notes["linalg.smith_normal_form"], default=0), count),
        "linalg.rank_calls": (calls["linalg.rank"], count),
        "linalg.rank_s": (self_s["linalg.rank"], s),
        "simplicial.homology_calls": (calls["simplicial.reduced_homology"], count),
        "simplicial.homology_s": (self_s["simplicial.reduced_homology"], s),
        "fan.complex_calls": (calls["fan.complex_CI"], count),
        "fan.complex_s": (self_s["fan.complex_CI"], s),
        "fan.circuit_count": (sum(notes["fan.circuits"]), count),
        "fan.circuits_s": (self_s["fan.circuits"], s),
        "picard.ray_coeff_calls": (calls["picard.ray_coefficients"], count),
        "picard.parse_calls": (calls["picard.parse_F"], count),
        "cohomology.calls": (calls["cohomology.cohomology"], count),
        "cohomology.s": (self_s["cohomology.cohomology"], s),
        "cohomology.call_p50_ms": (_percentile(cohomology_ms, 50), "ms"),
        "cohomology.call_p90_ms": (_percentile(cohomology_ms, 90), "ms"),
        "cones.enumerate_s": (self_s["cones.enumerate_forbidden"], s),
        "cones.spec_count": (max(notes["cones.enumerate_forbidden"], default=0), count),
        "cones.certify_calls": (certify_calls, count),
        "cones.certify_s": (self_s["cones.certify_acyclic"]
                            + self_s["cones.certify_higher_acyclic"], s),
        "cones.cone_tests": (calls["cones.in_forbidden_cone"], count),
        "cones.tests_per_certify": (calls["cones.in_forbidden_cone"] / certify_calls
                                    if certify_calls else 0.0, ratio),
        "collection.pairs": (pairs, count),
        "collection.calls_per_pair": (sum(calls[g] for g in GRADERS) / pairs
                                      if pairs else 0.0, ratio),
        "collection.sweep_s": (self_s["collection.verify_exceptional"], s),
        "collection.stability_s": (self_s["collection.verify_stability"], s),
        "collection.violations": (sum(v for _, v in sweeps), count),
        "windows.certificate_s": (self_s["windows.build_certificate"], s),
        "windows.walls_s": (self_s["windows.verify_walls"], s),
        "windows.wall_count": (sum(notes["windows.build_certificate"]), count),
        "cli.self_s": (self_s["cli.main"], s),
        "cli.startup_s": (startup_s, s),
        "cli.output_bytes": (output_bytes, "bytes"),
        "trace.overhead_share": (traced_s / untraced_s - 1, ratio),
    }
