"""Helpers shared by run.py and the workload children it starts."""

from __future__ import annotations

import glob
import os
import platform
import resource
import subprocess
import sys
from typing import Dict, List, Sequence

#: the checkout root: the benchmark lives in ``<root>/perfbench``
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: scratch space for per-run caches, stores and daemon run directories
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
#: names this run's own directory under TMP_ROOT, for the children
ENV_RUN_DIR = "PERFBENCH_RUN_DIR"
#: traced runs write their span files here
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")


def run_dir() -> str:
    """This run's scratch directory (one per ``run.py`` invocation, so
    runs sharing a checkout never delete each other's files)."""
    path = os.environ.get(ENV_RUN_DIR) or TMP_ROOT
    os.makedirs(path, exist_ok=True)
    return path


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def use_program() -> None:
    """Make the checkout's ``src/`` importable in this process."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env(extra: Dict[str, str] = None) -> Dict[str, str]:
    """Environment for a child process that imports the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_TRACE", None)
    env.pop("REPRO_CHECKPOINT", None)
    env.pop("REPRO_FAULTS", None)
    env["PYTHONHASHSEED"] = "0"
    if extra:
        env.update(extra)
    return env


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def self_peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of a live process, 0.0 when unreadable."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid: int) -> List[int]:
    """Direct children of a live process, whichever thread started them."""
    found: List[int] = []
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(path) as handle:
                found.extend(int(tok) for tok in handle.read().split())
        except OSError:
            pass
    return found


def provenance() -> Dict[str, object]:
    """Machine and software facts recorded next to every result."""
    info: Dict[str, object] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    try:
        with open("/proc/meminfo") as handle:
            for line in handle:
                if line.startswith("MemTotal:"):
                    info["ram_mb"] = round(int(line.split()[1]) / 1024.0)
    except OSError:
        pass
    for module in ("numpy", "scipy"):
        try:
            info[module] = __import__(module).__version__
        except ImportError:
            info[module] = None
    info["commit"] = _commit()
    return info


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"
