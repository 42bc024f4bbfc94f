"""``bayes-grid``: the samplers, polytope, Eq. 6.5 re-solve loop and
interpreter, with little front-end work.

The grid is the six cells {data-driven, hybrid} x {Opt, BayesWC,
BayesPC} of MapAppend and Concat plus BubbleSort's three data-driven
cells (its data collection is interpreter-heavy), run through
``EvalRunner(jobs=1)`` with no result cache and no journal, at
M = 15 posterior samples and 100 warm-up iterations per chain (why
this size: see README.md).  A run makes one grid per ``GRID_SECONDS`` of
its seconds, each from cold worker memos and with its own root seed
derived from the run's seed, so one run's medians average over several
seeds' sampler behaviour.
"""

from __future__ import annotations

import time
from typing import Dict, List

from common import median, percentile

FULL_GRID = ("MapAppend", "Concat")
DATA_DRIVEN_ONLY = ("BubbleSort",)
SAMPLES = 15
WARMUP = 100
#: a cell slower than this misses the per-cell limit
CELL_LIMIT_S = 10.0
#: one grid per this many seconds of the run (a grid takes about 10 s)
GRID_SECONDS = 10.0


class BayesGrid:
    name = "bayes-grid"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny

    def setup(self) -> None:
        from repro.config import AnalysisConfig, SamplerConfig
        from repro.evalharness import runner
        from repro.suite import get_benchmark

        self.runner = runner
        self.get_benchmark = get_benchmark
        samples, warmup = (3, 20) if self.tiny else (SAMPLES, WARMUP)
        self.config = AnalysisConfig(
            num_posterior_samples=samples,
            jobs=1,
            sampler=SamplerConfig(n_warmup=warmup),
        )
        full, dd_only = (("Concat",), ()) if self.tiny else (FULL_GRID, DATA_DRIVEN_ONLY)
        self.full = [get_benchmark(name) for name in full]
        self.dd_only = [get_benchmark(name) for name in dd_only]

    def grid(self, seed: int) -> list:
        """The analysis tasks of one grid at root seed ``seed``."""
        config = self.config.with_(seed=seed)
        tasks = self.runner.expand_grid(self.full, config=config, seed=seed)
        tasks += self.runner.expand_grid(
            self.dd_only, config=config, seed=seed, modes=("data-driven",)
        )
        return [task for task in tasks if task.kind == "analysis"]

    def close(self) -> None:
        pass

    def _cold_memos(self) -> None:
        """Forget compiled programs and datasets from an earlier grid."""
        for memo in ("_PROGRAM_CACHE", "_DATASET_CACHE", "_LINT_CACHE"):
            getattr(self.runner, memo).clear()

    def run(self, seconds: float) -> Dict[str, object]:
        walls: List[float] = []
        cells: List[float] = []
        outcomes: List[Dict] = []
        first_grid = 0
        for g in range(max(1, int(seconds // GRID_SECONDS))):
            tasks = self.grid(self.runner.derive_seed(self.seed, "perfbench-grid", g))
            self._cold_memos()
            start = time.perf_counter()
            with self.runner.EvalRunner(jobs=1) as grid_runner:
                report = grid_runner.run_tasks(tasks)
            walls.append(time.perf_counter() - start)
            cells.extend(o["metrics"]["wall_seconds"] for o in report.outcomes)
            outcomes.extend(report.outcomes)
            first_grid = first_grid or len(outcomes)
        failures = [
            f"cell {o['task']}: outcome {o['outcome']} ({o.get('error')})"
            for o in outcomes
            if o["outcome"] != "ok"
        ]
        in_limit = sum(
            1
            for o in outcomes
            if o["outcome"] == "ok" and o["metrics"]["wall_seconds"] <= CELL_LIMIT_S
        )
        return {
            "metrics": {
                "wall_s": median(walls),
                "latency_p50_ms": percentile(cells, 50) * 1000.0,
                "latency_p90_ms": percentile(cells, 90) * 1000.0,
                "sound_frac": self._sound_frac(outcomes[:first_grid]),
                "slo_frac": in_limit / len(outcomes),
            },
            "attempted": len(outcomes),
            "failed": len(failures),
            "failures": failures,
            "info": {
                "grids": len(walls),
                "grid_walls": walls,
                "cells": len(outcomes),
                "timed_s": sum(walls),
            },
        }

    def _sound_frac(self, outcomes: List[Dict]) -> float:
        """Share of the first grid's posterior bounds that dominate the
        analytic truth at every size 1..1000 (outside the timed region;
        one grid, because the check costs about a quarter of a grid's
        time)."""
        from repro.evalharness.table1 import SOUNDNESS_SIZES
        from repro.inference.serialize import result_from_json

        sound = total = 0.0
        for outcome in outcomes:
            if outcome["outcome"] != "ok":
                continue
            spec = self.get_benchmark(outcome["benchmark"])
            result = result_from_json(outcome["result"])
            fraction = result.soundness_fraction(spec.truth, SOUNDNESS_SIZES, spec.shape_fn)
            sound += fraction * result.num_bounds
            total += result.num_bounds
        return sound / total if total else 0.0
