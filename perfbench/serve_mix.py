"""``serve-mix``: the daemon layers, cache reads next to cold misses.

``hybrid-aara serve`` runs with one pool worker and a fresh cache.  One
client thread drives an open loop: one arrival in each ``1/RATE`` s
slot, at a seeded offset within the slot, for the run's seconds.  Each
request is POSTed without ``wait`` and then polled on ``/status/<id>``
until terminal.  A request's latency is the daemon's ``finished_ts``
minus the time the request was *due*, so a late generator or a stall
counts against the requests it delayed.  ``latency_p50_ms`` is the
median over the answers served from the cache (the cache path),
``latency_p90_ms`` the 90th percentile over all requests, which falls
among the computed ones (the compute path).

The mix is laid out by slot, so every seed meets the same sequence of
cold misses and the queue behind them has the same shape:

* every ``FRESH_EVERY``-th slot asks for a pool entry (4 benchmarks x
  3 methods, data-driven, M = 10) not asked before, in one fixed order;
  the entries in ``DUPLICATED`` are asked a second time right after, so
  the second copy arrives while the first is still in flight;
* every ``SOURCE_EVERY``-th slot (the one before every other fresh
  entry) is a raw-source ``conventional`` submission of a suite program
  other than MedianOfMedians, in suite order;
* every ``LINT_EVERY``-th slot is a source that fails lint, where 422
  is the expected answer;
* every other slot repeats a seeded choice of the entries whose answer
  is in the cache: the ``WARM`` entries, computed at set-up, and the
  entries first asked at least ``REPEAT_AFTER`` slots earlier.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

from common import ROOT, child_env, child_pids, median, percentile, proc_peak_rss_mb, run_dir
from static_edit import LABELS

RATE = 2.0
POOL_BENCHMARKS = ("MapAppend", "Concat", "QuickSort", "InsertionSort2")
POOL_METHODS = ("opt", "bayeswc", "bayespc")
SAMPLES = 10
#: the analyses' own seed: every run computes the same pool entries,
#: so sound_frac does not swing with the data a seed draws
REQUEST_SEED = 1
#: pool entries answered at set-up, so repeats hit the cache from the
#: first slot on
WARM = (("MapAppend", "opt"), ("Concat", "opt"))
#: slot roles: a fresh pool entry every FRESH_EVERY-th slot; a raw
#: source in the slot before every other fresh entry, when the worker
#: has finished the one before; a lint failure every LINT_EVERY-th slot;
#: the other slots repeat a cached entry
FRESH_EVERY = 6
SOURCE_EVERY = 2 * FRESH_EVERY
LINT_EVERY = 20
#: positions, in the fresh order, of the entries asked twice at once
#: (two of the cheaper BayesWC entries, so the queue stays short)
DUPLICATED = (0, 6)
#: the second copy of a duplicated entry follows the first by this much
DUP_GAP_S = 0.05
#: a repeat picks among entries first asked at least this many slots
#: earlier, long enough for their answer to be in the cache
REPEAT_AFTER = 8
LATENCY_LIMIT_S = 10.0
#: how often one pending request is polled
POLL_INTERVAL_S = 0.2
#: no poll starts this close to the next due time, so arrivals are sent
#: on time
POLL_GUARD_S = 0.02
#: how long stragglers may take after the last arrival
DRAIN_S = 90.0
HTTP_TIMEOUT_S = 30.0
#: an overloaded daemon's honest refusals: terminal answers that count
#: as failed operations and SLO misses, not as wrong answers
REFUSED = (429, 503)
#: per-layer metrics only this workload measures (zero on the others)
SERVER_LAYERS = (
    "server.admit_ms",
    "server.queue_wait_s",
    "server.service_s",
    "server.queue_depth_max",
    "server.cache_hits",
    "server.admitted",
    "server.shed",
    "server.degraded",
    "server.rejected_lint",
    "server.computed",
    "server.dup_inflight_frac",
    "loadgen.lateness_max_ms",
)


def lint_failing_source(k: int) -> str:
    return (
        f"let rec walk_{k} xs =\n"
        f"  match xs with\n"
        f"  | [] -> 0\n"
        f"  | _ :: tl -> missing_{k} tl\n"
    )


class Daemon:
    """One ``serve`` process with its own cache and runs directories."""

    def __init__(self, workdir: str, trace_dir: Optional[str] = None):
        self.workdir = tempfile.mkdtemp(prefix="daemon-", dir=workdir)
        argv = [sys.executable, os.path.join(ROOT, "perfbench", "daemon.py")]
        if trace_dir:
            argv += ["--layers-out", os.path.join(trace_dir, "layers")]
        argv += [
            "serve", "--port", "0", "--jobs", "1",
            "--cache-dir", os.path.join(self.workdir, "cache"),
            "--runs-dir", os.path.join(self.workdir, "runs"),
        ]
        extra = {"REPRO_TRACE": trace_dir} if trace_dir else None
        self.log = os.path.join(self.workdir, "daemon.log")
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                argv, cwd=ROOT, env=child_env(extra), stdout=log, stderr=subprocess.STDOUT
            )
        try:
            self.port = self._wait_listening()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    def _wait_listening(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}: {self.tail()}")
            with open(self.log) as handle:
                for line in handle:
                    if '"listening"' in line:
                        return int(json.loads(line)["port"])
            time.sleep(0.01)
        raise RuntimeError(f"daemon not listening after {timeout:.0f}s: {self.tail()}")

    def tail(self) -> str:
        try:
            with open(self.log) as handle:
                return handle.read()[-2000:]
        except OSError:
            return ""

    def peak_rss_mb(self) -> float:
        """Daemon plus pool workers, each at its own peak."""
        pids = [self.proc.pid] + child_pids(self.proc.pid)
        return sum(proc_peak_rss_mb(pid) for pid in pids)

    def stop(self) -> int:
        if self.proc.poll() is None:
            workers = child_pids(self.proc.pid)
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=40)
            except subprocess.TimeoutExpired:
                for pid in [self.proc.pid] + workers:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                self.proc.wait()
        return self.proc.returncode

    def request(self, method: str, path: str, body: Optional[Dict] = None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=HTTP_TIMEOUT_S)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json", "X-Client": "perfbench"}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        try:
            doc = json.loads(raw) if raw else {}
        except ValueError:
            doc = {}
        return response.status, doc


class Request:
    def __init__(self, index: int, offset: float, kind: str, body: Dict, spec=None):
        self.index = index
        self.offset = offset
        self.kind = kind  # 'registry' | 'source' | 'lint'
        self.body = body
        self.spec = spec
        self.due = 0.0
        self.sent = 0.0
        self.admit_s = 0.0
        self.status = 0
        self.doc: Dict = {}
        self.id: Optional[str] = None
        self.finished: Optional[float] = None
        self.last_poll = 0.0

    @property
    def key(self) -> str:
        return json.dumps(self.body, sort_keys=True)


def pool_order(tiny: bool = False) -> List[tuple]:
    """The pool entries not answered at set-up, in the order first asked
    (methods interleaved across benchmarks)."""
    benchmarks = ("QuickSort",) if tiny else POOL_BENCHMARKS
    methods = ("opt",) if tiny else POOL_METHODS
    entries = [
        (benchmarks[i % len(benchmarks)], methods[(i + i // len(benchmarks)) % len(methods)])
        for i in range(len(benchmarks) * len(methods))
    ]
    return [entry for entry in entries if entry not in WARM]


def warm_entries(tiny: bool = False) -> tuple:
    return WARM[:1] if tiny else WARM


def registry_body(name: str, method: str) -> Dict:
    return {
        "benchmark": name,
        "method": method,
        "mode": "data-driven",
        "samples": SAMPLES,
        "seed": REQUEST_SEED,
    }


def build_plan(seed: int, seconds: float, tiny: bool = False) -> List[Request]:
    """The seeded arrival schedule and request bodies."""
    from repro.suite import all_benchmarks, get_benchmark

    rng = random.Random(seed)
    sources = []
    for spec in all_benchmarks():
        if spec.name == "MedianOfMedians":
            continue
        sources.append((spec, spec.data_driven_source, spec.data_driven_entry))
        if spec.hybrid_source is not None:
            sources.append((spec, spec.hybrid_source, spec.hybrid_entry))
    fresh = pool_order(tiny)
    warm = warm_entries(tiny)
    first_asked: List[tuple] = []  # (slot, entry)

    plan: List[Request] = []
    for index in range(max(1, int(RATE * seconds))):
        offset = (index + rng.random()) / RATE
        if index % LINT_EVERY == LINT_EVERY - 1 or (tiny and index == 1):
            body = {"source": lint_failing_source(rng.randrange(10**6)), "method": "conventional"}
            plan.append(Request(index, offset, "lint", body))
        elif index % SOURCE_EVERY == FRESH_EVERY - 1 or (tiny and index == 2):
            spec, source, entry = sources[(index // SOURCE_EVERY) % len(sources)]
            body = {"source": source, "entry": entry, "method": "conventional"}
            plan.append(Request(index, offset, "source", body, spec))
        elif index % FRESH_EVERY == 0 and len(first_asked) < len(fresh):
            name, method = fresh[len(first_asked)]
            copies = 2 if len(first_asked) in DUPLICATED else 1
            first_asked.append((index, (name, method)))
            for copy in range(copies):
                plan.append(Request(
                    index, offset + copy * DUP_GAP_S, "registry",
                    registry_body(name, method), get_benchmark(name),
                ))
        else:
            cached = list(warm) + [e for slot, e in first_asked if slot <= index - REPEAT_AFTER]
            name, method = rng.choice(cached)
            plan.append(Request(index, offset, "registry", registry_body(name, method), get_benchmark(name)))
    plan.sort(key=lambda req: req.offset)
    return plan


class ServeMix:
    name = "serve-mix"

    def __init__(self, seed: int, tiny: bool = False, trace_dir: Optional[str] = None) -> None:
        self.seed = seed
        self.tiny = tiny
        self.trace_dir = trace_dir
        self.daemon: Optional[Daemon] = None

    def setup(self) -> None:
        from repro.evalharness.runner import verdict_from_json
        from repro.evalharness.table1 import SOUNDNESS_SIZES, conventional_label
        from repro.inference.serialize import result_from_json

        self._verdict = verdict_from_json
        self._label = conventional_label
        self._result = result_from_json
        self._sizes = SOUNDNESS_SIZES
        # the client shares the daemon's CPU (see daemon.pin_cpus); it
        # waits on every request, so the two never run at once
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[0]})
        self.workdir = tempfile.mkdtemp(prefix="serve-mix-", dir=run_dir())
        self.daemon = Daemon(self.workdir, self.trace_dir)
        for name, method in warm_entries(self.tiny):
            status, doc = self.daemon.request("POST", "/analyze?wait=1", registry_body(name, method))
            if status != 200 or doc.get("state") != "done":
                raise RuntimeError(f"warm-up of {name}/{method}: HTTP {status}, {doc.get('error')}")

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- the open loop --------------------------------------------------------

    def _send(self, req: Request) -> None:
        req.sent = time.time()
        req.status, req.doc = self.daemon.request("POST", "/analyze", req.body)
        req.admit_s = time.time() - req.sent
        req.id = req.doc.get("id")
        if req.status == 202:
            return
        if req.status == 200:
            req.finished = req.doc.get("finished_ts") or time.time()
        else:
            req.finished = req.sent + req.admit_s

    def _poll(self, req: Request) -> None:
        req.last_poll = time.time()
        status, doc = self.daemon.request("GET", f"/status/{req.id}")
        if status == 200 and doc.get("finished_ts") is not None:
            req.status, req.doc = status, doc
            req.finished = doc["finished_ts"]

    def run(self, seconds: float) -> Dict[str, object]:
        plan = build_plan(self.seed, seconds, self.tiny)
        start = time.time() + 0.1
        for req in plan:
            req.due = start + req.offset
        pending: List[Request] = []
        lateness: List[float] = []
        i = 0
        drain_deadline = start + seconds + DRAIN_S
        while (i < len(plan) or pending) and time.time() < drain_deadline:
            now = time.time()
            if i < len(plan) and now >= plan[i].due:
                req = plan[i]
                i += 1
                lateness.append(now - req.due)
                self._send(req)
                if req.finished is None:
                    pending.append(req)
                continue
            next_due = plan[i].due if i < len(plan) else drain_deadline
            for req in list(pending):
                if time.time() >= next_due - POLL_GUARD_S:
                    break
                if time.time() - req.last_poll >= POLL_INTERVAL_S:
                    self._poll(req)
                    if req.finished is not None:
                        pending.remove(req)
            time.sleep(max(0.0, min(0.02, next_due - time.time())))
        _, health = self.daemon.request("GET", "/healthz")
        peak = self.daemon.peak_rss_mb()
        return self._summarize(plan[:i], plan[i:], pending, lateness, health, peak, start)

    # -- results --------------------------------------------------------------

    def _correct(self, req: Request) -> bool:
        if req.kind == "lint":
            return req.status == 422 and req.doc.get("error", {}).get("code") == "rejected-lint"
        if req.finished is None or req.doc.get("state") != "done":
            return False
        result = req.doc.get("result") or {}
        if not result.get("ok"):
            return False
        if req.kind == "source":
            verdict = self._verdict(result["verdict"])
            expected = LABELS[req.spec.expected_conventional]
            return self._label(req.spec, verdict) == expected
        return bool((result.get("result") or {}).get("bounds"))

    def _summarize(self, sent, unsent, pending, lateness, health, peak, start) -> Dict[str, object]:
        failures: List[str] = []
        for req in unsent:
            failures.append(f"request {req.index}: never sent")
        for req in pending:
            failures.append(f"request {req.index} ({req.kind}): no terminal answer (dropped)")
        latencies: List[float] = []
        hit_latencies: List[float] = []
        in_limit = refused = 0
        soundness: Dict[str, float] = {}
        for req in sent:
            if req.finished is None:
                continue
            latency = max(0.0, req.finished - req.due)
            latencies.append(latency)
            if req.status in REFUSED:
                refused += 1
                continue
            if not self._correct(req):
                failures.append(
                    f"request {req.index} ({req.kind}): wrong answer "
                    f"(HTTP {req.status}, state {req.doc.get('state')}, {req.doc.get('error')})"
                )
                continue
            in_limit += latency <= LATENCY_LIMIT_S
            if req.doc.get("cache_hit"):
                hit_latencies.append(latency)
            if req.kind == "registry":
                key = req.doc["result"]["task"]
                if key not in soundness:
                    result = self._result(req.doc["result"]["result"])
                    soundness[key] = result.soundness_fraction(
                        req.spec.truth, self._sizes, req.spec.shape_fn
                    )
        attempted = len(sent) + len(unsent)
        finished = [req.finished for req in sent if req.finished is not None]
        wall = max(finished) - start if finished else 0.0
        return {
            "metrics": {
                "wall_s": wall,
                "latency_p50_ms": median(hit_latencies) * 1000.0 if hit_latencies else 0.0,
                "latency_p90_ms": percentile(latencies, 90) * 1000.0 if latencies else 0.0,
                "sound_frac": sum(soundness.values()) / len(soundness) if soundness else 0.0,
                "slo_frac": in_limit / attempted,
                "peak_rss_mb": peak,
            },
            "attempted": attempted,
            "failed": len(failures) + refused,
            "failures": failures,
            "layers": self._server_layers(sent, lateness, health),
            "info": {
                "requests": attempted,
                "counters": health.get("counters", {}),
                "timed_s": wall,
            },
        }

    def _server_layers(self, sent: List[Request], lateness: List[float], health: Dict) -> Dict[str, float]:
        counters = health.get("counters", {})
        queue_wait = service = 0.0
        depth = 0
        computed = []
        for req in sent:
            started = queued = None
            for event in req.doc.get("events") or ():
                if event.get("ev") == "queued":
                    queued = queued or event["ts"]
                    depth = max(depth, int(event.get("depth") or 0))
                elif event.get("ev") == "started" and started is None:
                    started = event["ts"]
            if queued is not None and started is not None and req.finished is not None:
                queue_wait += started - queued
                service += req.finished - started
                computed.append((req.key, queued, req.finished))
        dups = 0
        for key, admitted, _ in computed:
            dups += any(
                other_key == key and other_admitted < admitted < other_finished
                for other_key, other_admitted, other_finished in computed
            )
        return {
            "server.admit_ms": median([req.admit_s for req in sent]) * 1000.0 if sent else 0.0,
            "server.queue_wait_s": queue_wait,
            "server.service_s": service,
            "server.queue_depth_max": float(depth),
            "server.cache_hits": float(counters.get("cache_hits", 0)),
            "server.admitted": float(counters.get("admitted", 0)),
            "server.shed": float(counters.get("shed", 0)),
            "server.degraded": float(counters.get("degraded", 0)),
            "server.rejected_lint": float(counters.get("rejected_lint", 0)),
            "server.computed": float(len(computed)),
            "server.dup_inflight_frac": dups / len(computed) if computed else 0.0,
            "loadgen.lateness_max_ms": max(lateness) * 1000.0 if lateness else 0.0,
        }
