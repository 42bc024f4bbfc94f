"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload static-edit --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Each workload runs alone in fresh child processes, one at a time:
``SETUP_REPEATS - 1`` set-up-only children and one measuring child
(``--trace 0``), or one untraced and one traced measuring child
(``--trace 1``).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the machine and software versions.  A
failed correctness gate prints its reasons on standard error and makes
the exit code 1.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

from common import ENV_RUN_DIR, OUT_ROOT, ROOT, TMP_ROOT, child_env, median, program_present, provenance, run_dir
from layers import layer_metrics, merge_totals, read_program_counters
from serve_mix import SERVER_LAYERS

WORKLOADS = ("static-edit", "bayes-grid", "serve-mix")
#: set-ups per run; setup_s is their median
SETUP_REPEATS = 3
#: a run (all of its children) must end within this many seconds
RUN_LIMIT_S = 170.0
#: traced-run gate: on these workloads the layers' self times must cover
#: at least MIN_COVERAGE of the timed region
COVERED_WORKLOADS = ("static-edit", "bayes-grid")
MIN_COVERAGE = 0.8

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "sound_frac": "fraction",
    "slo_frac": "fraction",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "fraction"
    return "count"


def must_read_zero(workload: str, name: str) -> bool:
    """Layers a workload never reaches: ``static-edit`` runs no sampler
    and no interpreter."""
    return workload == "static-edit" and (
        name.startswith("stats.") or name in ("inference.collect_s", "interp.eval_steps")
    )


def trace_gates(workload: str, metrics: Dict[str, float]) -> List[str]:
    """Failures of a traced run's per-layer metrics."""
    failures = []
    coverage = metrics["telemetry.coverage_frac"]
    if workload in COVERED_WORKLOADS and coverage < MIN_COVERAGE:
        failures.append(
            f"layer self times cover {coverage:.3f} of the timed region, want at least {MIN_COVERAGE}"
        )
    for name, value in sorted(metrics.items()):
        if must_read_zero(workload, name) and value != 0:
            failures.append(f"{name} reads {value:g} on {workload}, want 0")
    return failures


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, deadline: float, *, setup_only=False,
          trace_dir: Optional[str] = None, tiny=False, expect=()) -> Dict:
    argv = [
        sys.executable, os.path.join(ROOT, "perfbench", "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    if setup_only:
        argv.append("--setup-only")
    if trace_dir:
        argv += ["--trace-dir", trace_dir]
    if tiny:
        argv.append("--tiny")
    for item in expect:
        argv += ["--expect", item]
    argv += ["--spawn-ts", repr(time.time())]
    # its own process group, so a timeout also stops the daemon and pool
    # worker a serve-mix child started
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:  # the run limit, or a signal to stop
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise ChildFailed(f"{workload} child exceeded the run limit")
        raise
    lines = [line for line in out.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines:
        detail = json.loads(lines[-1]).get("crash", "") if lines else out[-2000:]
        raise ChildFailed(f"{workload} child exited {proc.returncode}: {detail}")
    return json.loads(lines[-1])


def run_untraced(workload: str, seed: int, seconds: float, deadline: float, tiny, expect) -> Dict:
    setups = [
        spawn(workload, seed, seconds, deadline, setup_only=True, tiny=tiny, expect=expect)["setup_s"]
        for _ in range(SETUP_REPEATS - 1)
    ]
    result = spawn(workload, seed, seconds, deadline, tiny=tiny, expect=expect)
    setups.append(result["setup_s"])
    result["metrics"]["setup_s"] = median(setups)
    result["info"]["setup_samples"] = setups
    return result


def run_traced(workload: str, seed: int, seconds: float, deadline: float, tiny, expect) -> Dict:
    base = spawn(workload, seed, seconds, deadline, tiny=tiny, expect=expect)
    trace_dir = tempfile.mkdtemp(prefix=f"trace-{workload}-", dir=run_dir())
    try:
        result = spawn(workload, seed, seconds, deadline, trace_dir=trace_dir, tiny=tiny, expect=expect)
        result["failures"] = base["failures"] + result["failures"]
        docs = []
        for path in glob.glob(os.path.join(trace_dir, "layers-*.json")):
            with open(path) as handle:
                docs.append(json.load(handle))
        totals = merge_totals(docs)
        metrics = layer_metrics(totals, read_program_counters(trace_dir))
        metrics.update({name: 0.0 for name in SERVER_LAYERS})
        metrics.update(result.get("layers", {}))
        layer_self = sum(totals["self_s"].values()) - totals["self_s"].get("evalharness.soundness", 0.0)
        metrics["telemetry.coverage_frac"] = layer_self / result["info"]["timed_s"]
        metrics["telemetry.overhead_frac"] = result["metrics"]["wall_s"] / base["metrics"]["wall_s"] - 1.0
        metrics["telemetry.spans"] = float(sum(totals["calls"].values()))
        result["layer_metrics"] = metrics
        result["failures"] += trace_gates(workload, metrics)
        os.makedirs(OUT_ROOT, exist_ok=True)
        spans = {"workload": workload, "seed": seed, "processes": docs}
        with open(os.path.join(OUT_ROOT, f"spans-{workload}-seed{seed}.json"), "w") as handle:
            json.dump(spans, handle)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    return result


def run_workload(workload: str, args) -> Dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    runner = run_traced if args.trace else run_untraced
    result = runner(workload, args.seed, args.seconds, deadline, args.tiny, args.expect)
    if args.trace:
        values = result["layer_metrics"]
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in sorted(values.items())}
    else:
        metrics = {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    return {
        "correct": not result["failures"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
        "failures": result["failures"],
        "info": result["info"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="seconds-long configuration (self-tests)")
    parser.add_argument("--expect", action="append", default=[], metavar="BENCHMARK=LABEL",
                        help="override a static-edit expected label (self-tests)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not program_present():
        print(f"error: the program (src/repro) is not in {ROOT}", file=sys.stderr)
        return 2
    os.makedirs(TMP_ROOT, exist_ok=True)
    os.environ[ENV_RUN_DIR] = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.environ.pop(ENV_RUN_DIR), ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)  # only when no other run is using it
        except OSError:
            pass
    for name, result in results.items():
        for failure in result["failures"]:
            print(f"gate failed [{name}]: {failure}", file=sys.stderr)
        if len(names) > 1:
            for metric, entry in result["metrics"].items():
                print(f"{name:12s} {metric:32s} {entry['value']:14.6g} {entry['unit']}")
    if len(names) == 1:
        final = {key: results[names[0]][key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, result in results.items()
                for metric, entry in result["metrics"].items()
            },
        }
    print(json.dumps({"provenance": provenance(), "info": {n: r["info"] for n, r in results.items()}}))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
