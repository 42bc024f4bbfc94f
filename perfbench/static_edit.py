"""``static-edit``: the AARA/LP path of the editor loop, no sampler.

One cycle is a cold pass followed by a seeded edit script:

* **cold pass** — ``IncrementalEngine.analyze`` of every suite source
  (10 data-driven + 7 hybrid variants) into a fresh on-disk
  ``ArtifactStore``: every artifact is computed and written.
  MedianOfMedians runs at degree 2, every other program at degree 3
  (why: see README.md).
* **edit script** — for each program except MedianOfMedians, in seeded
  order: a whitespace no-op edit (trailing blanks on a seeded line), a
  leaf edit (one seeded ``Raml.tick`` constant changed to a seeded
  value) and the revert of that edit, each analyzed against the warm
  store.

Cycles repeat while another one fits in the run's seconds.  ``wall_s`` is the
median cold-pass time; the latency percentiles are over all edits.
"""

from __future__ import annotations

import random
import re
import shutil
import tempfile
import time
from typing import Dict, List, Optional, Tuple

from common import median, percentile, run_dir

#: degree cap of the cold pass; MedianOfMedians uses DEGREE_MOM instead
DEGREE = 3
DEGREE_MOM = 2
#: an edit answered slower than this misses the interactive limit
EDIT_LIMIT_S = 2.0
#: replacement tick constants a leaf edit draws from
TICK_VALUES = (0.25, 0.75, 1.25, 1.5, 2.0, 2.5, 3.0)
_TICK = re.compile(r"Raml\.tick\s+([0-9]+(?:\.[0-9]+)?)")

#: expected-label wording of the registry -> the harness's Table 1 label
LABELS = {"cannot-analyze": "Cannot Analyze", "wrong-degree": "Wrong Degree"}


class Program:
    def __init__(self, spec, mode: str, source: str, entry: str) -> None:
        self.spec = spec
        self.mode = mode
        self.source = source
        self.entry = entry
        self.path = f"{spec.name}/{mode}"
        self.degree = DEGREE_MOM if spec.name == "MedianOfMedians" else DEGREE


def suite_programs(names: Optional[List[str]] = None) -> List[Program]:
    from repro.suite import all_benchmarks

    programs = []
    for spec in all_benchmarks():
        if names is not None and spec.name not in names:
            continue
        programs.append(Program(spec, "data-driven", spec.data_driven_source, spec.data_driven_entry))
        if spec.hybrid_source is not None:
            programs.append(Program(spec, "hybrid", spec.hybrid_source, spec.hybrid_entry))
    return programs


def whitespace_edit(source: str, rng: random.Random) -> str:
    lines = source.split("\n")
    candidates = [i for i, line in enumerate(lines) if line.strip()]
    i = rng.choice(candidates)
    lines[i] = lines[i] + " " * rng.randint(1, 3)
    return "\n".join(lines)


def leaf_edit(source: str, rng: random.Random) -> str:
    sites = list(_TICK.finditer(source))
    site = rng.choice(sites)
    current = float(site.group(1))
    value = rng.choice([v for v in TICK_VALUES if v != current])
    return source[: site.start(1)] + repr(value) + source[site.end(1) :]


class StaticEdit:
    name = "static-edit"

    def __init__(self, seed: int, tiny: bool = False, expect: Dict[str, str] = None) -> None:
        self.seed = seed
        self.tiny = tiny
        self.expect = dict(expect or {})

    def setup(self) -> None:
        from repro.analysis.incremental import ArtifactStore, IncrementalEngine
        from repro.evalharness.runner import verdict_from_json
        from repro.evalharness.table1 import conventional_label

        self._store_cls = ArtifactStore
        self._engine_cls = IncrementalEngine
        self._verdict = verdict_from_json
        self._label = conventional_label
        self.programs = suite_programs(["Concat", "InsertionSort2"] if self.tiny else None)
        if self.tiny:
            for program in self.programs:
                program.degree = 2
        self.editable = [p for p in self.programs if p.spec.name != "MedianOfMedians"]
        self.rng = random.Random(self.seed)
        self.workdir = tempfile.mkdtemp(prefix="static-edit-", dir=run_dir())

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- gates --------------------------------------------------------------

    def _label_of(self, program: Program, doc: Dict) -> str:
        return self._label(program.spec, self._verdict(doc))

    def _expected(self, program: Program) -> str:
        label = self.expect.get(program.spec.name, program.spec.expected_conventional)
        return LABELS.get(label, label)

    def _check_entry(self, program: Program, result, what: str, failures: List[str]) -> bool:
        doc = result.bounds.get(program.entry)
        if doc is None:
            failures.append(f"{what} {program.path}: no verdict for entry {program.entry}")
            return False
        got = self._label_of(program, doc)
        if got != self._expected(program):
            failures.append(
                f"{what} {program.path}: verdict {got!r} ({doc['status']}), "
                f"expected {self._expected(program)!r}"
            )
            return False
        return True

    # -- the measured loop ----------------------------------------------------

    def _cold_pass(self, store, failures: List[str]) -> Tuple[float, Dict[str, object], int]:
        engines = {}
        results = {}
        start = time.perf_counter()
        for program in self.programs:
            engine = engines.get(program.degree)
            if engine is None:
                engine = engines[program.degree] = self._engine_cls(store, max_degree=program.degree)
            results[program.path] = engine.analyze(program.source, path=program.path, entry=program.entry)
        wall = time.perf_counter() - start
        failed = 0
        for program in self.programs:
            result = results[program.path]
            fatal = [
                d for d in result.diagnostics
                if d.severity == "error" and d.code not in ("R042", "R043")
            ]
            if fatal:
                failures.append(f"lint {program.path}: fatal [{fatal[0].code}] {fatal[0].message}")
            if not self._check_entry(program, result, "cold", failures) or fatal:
                failed += 1
        return wall, results, failed

    def run(self, seconds: float) -> Dict[str, object]:
        failures: List[str] = []
        cold_walls: List[float] = []
        edits: List[float] = []
        edits_ok = 0
        attempted = 0
        failed = 0
        sound: Optional[float] = None
        started = time.perf_counter()
        cycle = 0
        # another cycle only when it should end within the run's seconds
        while cycle == 0 or (time.perf_counter() - started) * (cycle + 1) / cycle <= seconds:
            store_dir = f"{self.workdir}/store-{cycle}"
            store = self._store_cls(store_dir)
            wall, cold, cold_failed = self._cold_pass(store, failures)
            cold_walls.append(wall)
            attempted += len(self.programs)
            failed += cold_failed
            if sound is None:
                sound = self._sound_frac(cold)
            order = list(self.editable)
            self.rng.shuffle(order)
            engines = {p.degree: self._engine_cls(store, max_degree=p.degree) for p in order}
            for program in order:
                engine = engines[program.degree]
                reference = cold[program.path].document()
                steps = (
                    ("whitespace", whitespace_edit(program.source, self.rng)),
                    ("leaf", leaf_edit(program.source, self.rng)),
                    ("revert", program.source),
                )
                for kind, source in steps:
                    start = time.perf_counter()
                    result = engine.analyze(source, path=program.path, entry=program.entry)
                    latency = time.perf_counter() - start
                    edits.append(latency)
                    attempted += 1
                    ok = self._check_entry(program, result, kind, failures)
                    if ok and kind != "leaf" and result.document() != reference:
                        failures.append(f"{kind} {program.path}: result differs from the cold pass")
                        ok = False
                    if ok and kind == "whitespace" and result.recomputed:
                        failures.append(
                            f"whitespace {program.path}: {result.recomputed} artifact(s) recomputed"
                        )
                        ok = False
                    if ok:
                        edits_ok += latency <= EDIT_LIMIT_S
                    else:
                        failed += 1
            shutil.rmtree(store_dir, ignore_errors=True)
            cycle += 1
        return {
            "metrics": {
                "wall_s": median(cold_walls),
                "latency_p50_ms": percentile(edits, 50) * 1000.0,
                "latency_p90_ms": percentile(edits, 90) * 1000.0,
                "sound_frac": sound,
                "slo_frac": edits_ok / len(edits),
            },
            "attempted": attempted,
            "failed": failed,
            "failures": failures,
            "info": {
                "cycles": cycle,
                "edits": len(edits),
                "cold_walls": cold_walls,
                "timed_s": sum(cold_walls) + sum(edits),
            },
        }

    def _sound_frac(self, cold: Dict[str, object]) -> float:
        """Share of cold-pass entry bounds that dominate the analytic truth
        at every size 1..1000 (Theorem 4.1 says all of them should)."""
        from repro.evalharness.table1 import SOUNDNESS_SIZES
        from repro.inference import PosteriorResult
        from repro.inference.serialize import bound_from_json

        fractions = []
        for program in self.programs:
            doc = cold[program.path].bounds.get(program.entry) or {}
            if doc.get("bound") is None:
                continue
            result = PosteriorResult("conventional", program.mode, [bound_from_json(doc["bound"])], 0.0)
            fractions.append(
                result.soundness_fraction(program.spec.truth, SOUNDNESS_SIZES, program.spec.shape_fn)
            )
        return sum(fractions) / len(fractions) if fractions else 0.0
