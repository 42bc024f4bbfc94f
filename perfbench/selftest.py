"""Self-tests of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

* a tiny configuration of each workload, untraced and traced, ends in
  seconds and prints every metric of ``BENCHMARK.json`` with its unit;
* a deliberately wrong expected label fails the ``static-edit`` gate
  (exit code 1, ``correct`` false);
* the traced-run gates fail on low layer coverage and on sampler or
  interpreter time on ``static-edit``;
* without the program next to it the benchmark exits non-zero and
  prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

from common import ROOT, TMP_ROOT, child_env
from run import trace_gates

RUN = os.path.join(ROOT, "perfbench", "run.py")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--seed", "3", "--seconds", "2", *args],
        cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=170,
    )
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    try:
        result = json.loads(last[0])
    except ValueError:
        result = None
    return proc, result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    failures = []
    checks = 0

    def check(ok: bool, what: str) -> None:
        nonlocal checks
        checks += 1
        if not ok:
            failures.append(what)
            print(f"FAIL {what}", flush=True)

    for workload in (w["name"] for w in contract["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc, result = bench("--workload", workload, "--trace", str(trace), "--tiny")
            what = f"{workload} --trace {trace}"
            check(proc.returncode == 0, f"{what}: exit {proc.returncode}: {proc.stderr[-800:]}")
            if result is None:
                check(False, f"{what}: no JSON result line")
                continue
            check(set(result) == RESULT_KEYS, f"{what}: result keys {sorted(result)}")
            check(result.get("correct") is True, f"{what}: correct is {result.get('correct')}")
            check(result.get("attempted", 0) >= 1, f"{what}: attempted {result.get('attempted')}")
            metrics = result.get("metrics", {})
            for metric in contract[section]:
                entry = metrics.get(metric["name"])
                check(
                    isinstance(entry, dict)
                    and entry.get("unit") == metric["unit"]
                    and isinstance(entry.get("value"), (int, float)),
                    f"{what}: metric {metric['name']} [{metric['unit']}] is {entry}",
                )

    proc, result = bench("--workload", "static-edit", "--tiny", "--expect", "Concat=wrong-degree")
    check(proc.returncode == 1, f"wrong expected label: exit {proc.returncode}, want 1")
    check(result is not None and result.get("correct") is False, "wrong expected label: correct is not false")
    check("gate failed" in proc.stderr, "wrong expected label: no gate message on stderr")

    healthy = {"telemetry.coverage_frac": 0.95, "stats.hmc_s": 0.0, "inference.collect_s": 0.0}
    check(not trace_gates("static-edit", healthy), "trace gates: a healthy static-edit trace fails")
    check(bool(trace_gates("bayes-grid", dict(healthy, **{"telemetry.coverage_frac": 0.1}))),
          "trace gates: 10% coverage on bayes-grid passes")
    check(bool(trace_gates("static-edit", dict(healthy, **{"stats.hmc_s": 0.5}))),
          "trace gates: sampler time on static-edit passes")
    check(bool(trace_gates("static-edit", dict(healthy, **{"inference.collect_s": 0.2}))),
          "trace gates: data collection on static-edit passes")
    check(not trace_gates("bayes-grid", dict(healthy, **{"stats.hmc_s": 3.0})),
          "trace gates: sampler time on bayes-grid fails")

    os.makedirs(TMP_ROOT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=TMP_ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
        proc = subprocess.run(
            [sys.executable, os.path.join(bare, "perfbench", "run.py"), "--workload", "static-edit"],
            cwd=bare, env=child_env(), capture_output=True, text=True, timeout=170,
        )
        check(proc.returncode != 0, f"no program: exit {proc.returncode}, want non-zero")
        check(not proc.stdout.strip(), f"no program: printed {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    if failures:
        print(f"perfbench self-test: {len(failures)} of {checks} checks failed")
        return 1
    print(f"perfbench self-test: all {checks} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
