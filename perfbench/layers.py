"""Import-site timing wrappers: the per-layer split of a traced run.

The benchmark never edits the program.  For a traced run it replaces
each layer's public functions *where they are looked up* (the module
attribute a caller reads at call time) with a wrapper that records a
span ``(name, start, end, parent)`` in memory.  A layer's self time is
its span durations minus the part covered by nested layer spans, so the
self times of all layers never double-count.

The program's own telemetry counters (``lp.*``, ``sampler.*``, ...) are
read separately from its ``REPRO_TRACE`` event files; see
:func:`read_program_counters`.
"""

from __future__ import annotations

import functools
import glob
import itertools
import importlib
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layer name -> import sites of its public functions.  A site is
#: ``(module, attribute)`` where the attribute is a function, a
#: ``Class.method`` or a ``DICT[key]`` entry.  Several sites per layer
#: cover every module that imported the function under its own name.
LAYERS: Dict[str, List[Tuple[str, str]]] = {
    "lang.compile": [("repro.lang", "compile_program")],
    "lang.parse": [
        ("repro.lang", "parse_program"),
        ("repro.analysis.incremental", "parse_program_ex"),
    ],
    "lang.normalize": [
        ("repro.lang", "normalize_program"),
        ("repro.lang.normalize", "normalize_program"),
    ],
    "lang.typecheck": [
        ("repro.lang", "typecheck_program"),
        ("repro.lang.types", "typecheck_program"),
    ],
    "analysis.lint": [
        ("repro.analysis.incremental", "IncrementalEngine._run_passes"),
        ("repro.analysis", "lint_source"),
        ("repro.analysis.recursion", "recursion_diagnostics"),
    ],
    "analysis.fingerprint": [("repro.analysis.incremental", "fingerprint_functions")],
    "analysis.store_load": [("repro.analysis.incremental", "ArtifactStore.load")],
    "analysis.store_write": [("repro.analysis.incremental", "ArtifactStore.store")],
    "aara.build": [
        ("repro.aara.analyze", "build_analysis"),
        ("repro.inference.hybrid", "build_analysis"),
    ],
    "lp.assemble": [("repro.lp.problem", "LPProblem.to_matrices")],
    "lp.solve": [
        ("repro.lp.solver", "solve_lexicographic"),
        ("repro.aara.analyze", "solve_lexicographic"),
        ("repro.inference.hybrid", "solve_lexicographic"),
    ],
    "inference.collect": [("repro.inference", "collect_dataset")],
    "inference.opt": [("repro.inference.hybrid", "run_opt")],
    "inference.bayeswc": [("repro.inference.hybrid", "METHODS[bayeswc]")],
    "inference.bayespc": [("repro.inference.hybrid", "METHODS[bayespc]")],
    "stats.polytope": [
        ("repro.inference.hybrid", "polytope_from_lp"),
        ("repro.inference.hybrid", "low_norm_interior_point"),
    ],
    "stats.hmc": [
        ("repro.inference.bayeswc", "hmc_sample_chains"),
        ("repro.stats.nuts", "nuts_sample_chains"),
    ],
    "stats.reflective": [("repro.inference.hybrid", "reflective_hmc_chains")],
    "evalharness.cache_load": [("repro.evalharness.runner", "ResultCache.load")],
    "evalharness.cache_store": [("repro.evalharness.runner", "ResultCache.store")],
    "evalharness.soundness": [
        ("repro.inference.posterior", "PosteriorResult.soundness_fraction")
    ],
}

#: layers whose calls also count hits (a non-None return) and misses
_HIT_COUNTED = ("evalharness.cache_load",)

#: program telemetry counter -> per-layer metric name
PROGRAM_COUNTERS = {
    "aara.constraints": "aara.constraints",
    "lp.solves": "lp.solves",
    "lp.variables": "lp.variables",
    "lp.iterations": "lp.iterations",
    "lp.infeasible": "lp.infeasible",
    "lp.fallbacks": "lp.fallbacks",
    "interp.eval_steps": "interp.eval_steps",
    "sampler.leapfrog_steps": "stats.leapfrog_steps",
    "sampler.gradient_evals": "stats.gradient_evals",
    "sampler.reflections": "stats.reflections",
    "sampler.divergences": "stats.divergences",
    "sampler.healing_restarts": "stats.healing_restarts",
    "incr.reused": "analysis.reused",
    "incr.recomputed": "analysis.recomputed",
}


class Recorder:
    """In-memory spans plus per-layer self-time totals."""

    def __init__(self) -> None:
        #: (id, name, start, end, parent id) per finished span
        self.spans: List[Tuple[int, str, float, float, Optional[int]]] = []
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYERS}
        self.calls: Dict[str, int] = {name: 0 for name in LAYERS}
        self.hits: Dict[str, int] = {name: 0 for name in _HIT_COUNTED}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def reset(self) -> None:
        """Start over in a freshly forked process (whose copy of the lock
        may have been held by a thread that does not exist there)."""
        self._lock = threading.Lock()
        self.spans.clear()
        for table in (self.self_s, self.calls, self.hits):
            for key in table:
                table[key] = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = recorder._stack()
            # [child time covered by nested layer spans, span id]
            frame = [0.0, next(recorder._ids)]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                with recorder._lock:
                    recorder.spans.append((frame[1], layer, start, end, parent))
                    recorder.self_s[layer] += max(0.0, dur - frame[0])
                    recorder.calls[layer] += 1
            if layer in recorder.hits and result is not None:
                with recorder._lock:
                    recorder.hits[layer] += 1
            return result

        return timed

    def install(self) -> int:
        """Patch every import site; returns the number of sites patched."""
        patched = 0
        for layer, sites in LAYERS.items():
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                if "[" in attr:
                    table, key = attr[:-1].split("[")
                    mapping = getattr(module, table)
                    mapping[key] = self.wrap(layer, mapping[key])
                elif "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self.wrap(layer, cls.__dict__[meth]))
                else:
                    setattr(module, attr, self.wrap(layer, getattr(module, attr)))
                patched += 1
        return patched

    def totals(self) -> Dict[str, Any]:
        """Self seconds, call counts and hit counts, JSON-ready."""
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "hits": dict(self.hits),
            }

    def dump(self, path: str) -> None:
        """Write the totals and every span (id, name, start, end, parent)."""
        doc = self.totals()
        with self._lock:
            doc["spans"] = [list(span) for span in self.spans]
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(doc, handle)
        os.replace(tmp, path)


def merge_totals(docs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum several processes' :meth:`Recorder.totals` documents."""
    merged: Dict[str, Any] = {"self_s": {}, "calls": {}, "hits": {}}
    for doc in docs:
        for section in merged:
            for key, value in doc.get(section, {}).items():
                merged[section][key] = merged[section].get(key, 0) + value
    return merged


def read_program_counters(trace_dir: str) -> Dict[str, float]:
    """Sum the program's own telemetry counters over its event files."""
    totals: Dict[str, float] = {}
    for path in glob.glob(os.path.join(trace_dir, "trace-*.jsonl")):
        with open(path, "rb") as handle:
            for raw in handle:
                if b'"counter"' not in raw:
                    continue
                try:
                    event = json.loads(raw)
                except ValueError:
                    continue  # a torn last line of a killed process
                if event.get("ev") == "counter":
                    name = event.get("name")
                    totals[name] = totals.get(name, 0.0) + float(event.get("value", 0))
    return totals


def layer_metrics(totals: Dict[str, Any], counters: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metric values shared by every workload."""
    self_s = totals.get("self_s", {})
    calls = totals.get("calls", {})
    hits = totals.get("hits", {})
    out: Dict[str, float] = {f"{layer}_s": float(self_s.get(layer, 0.0)) for layer in LAYERS}
    out["aara.builds"] = float(calls.get("aara.build", 0))
    for program_name, metric in PROGRAM_COUNTERS.items():
        out[metric] = float(counters.get(program_name, 0.0))
    attempts = out["analysis.reused"] + out["analysis.recomputed"]
    out["analysis.reuse_ratio"] = out["analysis.reused"] / attempts if attempts else 0.0
    loads = calls.get("evalharness.cache_load", 0)
    out["evalharness.cache_hits"] = float(hits.get("evalharness.cache_load", 0))
    out["evalharness.cache_misses"] = float(loads - hits.get("evalharness.cache_load", 0))
    return out
