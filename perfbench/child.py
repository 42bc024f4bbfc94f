"""One workload run in a fresh process; prints one JSON line.

Started by ``run.py`` with ``--spawn-ts`` (the parent's wall clock at
spawn), so ``setup_s`` covers interpreter start-up, imports and the
workload's own preparation, up to the moment it is ready to measure.
With ``--setup-only`` the child stops there.  With ``--trace 1`` the
layer wrappers are installed before the workload is built and the
program's own telemetry is switched on into ``--trace-dir``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

from common import self_peak_rss_mb, use_program


def build(args):
    if args.workload == "static-edit":
        from static_edit import StaticEdit

        expect = dict(item.split("=", 1) for item in args.expect)
        return StaticEdit(args.seed, tiny=args.tiny, expect=expect)
    if args.workload == "bayes-grid":
        from bayes_grid import BayesGrid

        return BayesGrid(args.seed, tiny=args.tiny)
    if args.workload == "serve-mix":
        from serve_mix import ServeMix

        return ServeMix(args.seed, tiny=args.tiny, trace_dir=args.trace_dir)
    raise SystemExit(f"unknown workload {args.workload!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--spawn-ts", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--expect", action="append", default=[])
    args = parser.parse_args(argv)

    use_program()
    recorder = None
    if args.trace_dir:
        from layers import Recorder
        from repro import telemetry

        telemetry.enable(args.trace_dir)
        recorder = Recorder()
        recorder.install()
    workload = build(args)
    try:
        workload.setup()
        setup_s = time.time() - args.spawn_ts
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = workload.run(args.seconds)
    except Exception:
        print(json.dumps({"crash": traceback.format_exc()}))
        return 1
    finally:
        workload.close()
    result["setup_s"] = setup_s
    result["metrics"].setdefault("peak_rss_mb", self_peak_rss_mb())
    if recorder is not None:
        recorder.dump(os.path.join(args.trace_dir, f"layers-{os.getpid()}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
