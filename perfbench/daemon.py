"""Start ``hybrid-aara serve`` for ``serve-mix``, optionally traced.

Usage: ``python3 perfbench/daemon.py [--layers-out PREFIX] serve ...``

Everything after the optional flag is handed to the program's CLI.
On a machine with two or more CPUs the daemon is pinned to the first
one and its pool workers to the second, so a worker's analysis does not
delay the daemon's answers to cache hits (see ``pin_cpus``).
With ``--layers-out`` the layer wrappers of :mod:`layers` are installed
before the daemon starts, so its forked pool workers inherit them; each
process writes its totals to ``PREFIX-<pid>.json`` (a worker after every
task, the daemon when it exits).
"""

from __future__ import annotations

import os
import sys
import threading

from common import use_program


def pin_cpus() -> None:
    """Daemon on the first allowed CPU, pool workers on the second."""
    from repro.server import work

    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return
    os.sched_setaffinity(0, {cpus[0]})
    worker_init = work.worker_init

    def pinned_worker_init():
        os.sched_setaffinity(0, {cpus[1]})
        worker_init()

    work.worker_init = pinned_worker_init


def main(argv) -> int:
    use_program()
    pin_cpus()
    prefix = None
    if argv[:1] == ["--layers-out"]:
        prefix, argv = argv[1], argv[2:]
    from repro import cli

    if prefix is None:
        return cli.main(argv)

    from layers import Recorder
    from repro import telemetry
    from repro.server import work

    # The program's telemetry sink lock is not renewed in a forked child:
    # a pool worker forked while a daemon thread held it blocks on it at
    # its first event, for ever.  Traced runs turn that telemetry on, so
    # each forked process gets a fresh lock (see README.md, findings).
    os.register_at_fork(after_in_child=lambda: setattr(telemetry, "_sink_lock", threading.Lock()))
    recorder = Recorder()
    recorder.install()
    execute_task = work.execute_task
    owner = [os.getpid()]

    def traced_task(task):
        if owner[0] != os.getpid():
            # a forked pool worker starts from a copy of the daemon's totals
            owner[0] = os.getpid()
            recorder.reset()
        try:
            return execute_task(task)
        finally:
            recorder.dump(f"{prefix}-{os.getpid()}.json")

    work.execute_task = traced_task
    try:
        return cli.main(argv)
    finally:
        recorder.dump(f"{prefix}-{os.getpid()}.json")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
