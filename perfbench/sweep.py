"""Repeated fcla sweeps in one fresh interpreter, each bracketed by a host
speed probe.

run.py starts this script several times per benchmark run:

    python3 perfbench/sweep.py --spawned-at <monotonic s> --result <file> \
        --probe-fds <request fd>,<reply fd> [--mode plain|serial|traced|pool] \
        [--seconds S] -- <fcla CLI arguments>

After its imports it asks the probe server (probe.py, a separate interpreter
that run.py started) for a probe, then calls the CLI entry point
``fcla.cli.parse_and_dispatch`` with the given arguments and asks for a probe
again, repeating sweep and probe until --seconds have passed (once when 0).

The host this runs on changes speed by up to half from one second to the
next, as other tenants load it, and a sweep lasts several seconds. So a
plain sweep, the kind whose time the benchmark reports, also stops every
PAUSE_EVERY_S for one probe: a SIGALRM handler in the main thread sends
SIGSTOP to the sweep's pool workers, waits for the probe, and sends SIGCONT.
The sweep's time is split into the segments between probes, and run.py
scales each segment by the probes on either side of it. The sweeps of a
traced run (modes serial, traced and pool) are not stopped: a pause would
land in the spans, and the untraced sweeps they are compared with must run
alike.

It writes a JSON record to --result: the set-up time up to the first call
into the sweep, each sweep's segments and probes, a digest of each
results.csv, peak resident memory, the numpy/BLAS build and, by mode, the
spans and counters of traced sweeps or the process-pool counts.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAUSE_EVERY_S = 0.5


def child_pids() -> list[int]:
    """Processes this one started and has not reaped: the pool workers."""
    pids = []
    for task in os.listdir("/proc/self/task"):
        # a thread listed above may end before it is read: the pool's
        # management and queue threads end whenever a pool shuts down
        with contextlib.suppress(FileNotFoundError, ProcessLookupError):
            with open(f"/proc/self/task/{task}/children") as f:
                pids += [int(pid) for pid in f.read().split()]
    return pids


def signal_all(pids, signum):
    for pid in pids:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signum)


class Pauses:
    """While entered, stops the process and its children every PAUSE_EVERY_S
    for one probe; marks holds (paused at, probe seconds, resumed at)."""

    def __init__(self, server):
        self.server = server
        self.marks: list = []

    def _pause(self, signum, frame):
        paused = time.monotonic()
        workers = child_pids()
        signal_all(workers, signal.SIGSTOP)
        try:
            seconds = self.server.probe()
        finally:
            signal_all(workers, signal.SIGCONT)
        self.marks.append((paused, seconds, time.monotonic()))
        signal.setitimer(signal.ITIMER_REAL, PAUSE_EVERY_S)

    def __enter__(self):
        self.marks = []
        signal.signal(signal.SIGALRM, self._pause)
        signal.setitimer(signal.ITIMER_REAL, PAUSE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        return False


def _numpy_record(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "threads_at_exit": (len(os.listdir("/proc/self/task"))
                            if os.path.isdir("/proc/self/task") else None),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before spawning")
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--probe-fds", required=True,
                        help="request and reply pipe of the probe server")
    parser.add_argument("--mode", default="plain",
                        choices=("plain", "serial", "traced", "pool"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    out = Path(cli_args[cli_args.index("--out") + 1])

    sys.path.insert(0, str(ROOT / "src"))
    # BLAS threads start at import and inherit this mask, so SIGALRM always
    # lands in the main thread
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    import numpy as np

    import fcla.cli
    import probe
    import tracing

    if not Path(fcla.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported fcla from {fcla.cli.__file__}, "
                         f"not from {ROOT / 'src'}")

    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
    probe_server = probe.Client(*(int(fd) for fd in args.probe_fds.split(",")))
    asked = time.monotonic()
    setup_probe = probe_server.probe()
    probe_wait = time.monotonic() - asked
    # per sweep: segment wall times and the probes around each segment
    sweeps: list = []
    calls: list = []
    digests: list = []
    pauses = Pauses(probe_server)
    tracer = tracing.Tracer() if args.mode == "traced" else None
    pool = tracing.PoolCounter() if args.mode == "pool" else None
    with contextlib.ExitStack() as stack:
        for instrument in (tracer, pool):
            if instrument is not None:
                stack.enter_context(instrument)
        inner = fcla.cli.run_sweep

        @functools.wraps(inner)
        def timed_run_sweep(spec):
            with contextlib.ExitStack() as paused:
                if args.mode == "plain":
                    paused.enter_context(pauses)
                start = time.monotonic()
                try:
                    return inner(spec)
                finally:
                    paused.close()
                    calls.append((start, time.monotonic()))

        fcla.cli.run_sweep = timed_run_sweep
        stack.callback(setattr, fcla.cli, "run_sweep", inner)
        deadline = time.monotonic() + args.seconds
        while True:
            rc = fcla.cli.parse_and_dispatch(cli_args)
            start, end = calls[-1]
            bounds = [start] + [t for m in pauses.marks for t in (m[0], m[2])]
            bounds.append(end)
            sweeps.append({
                "segment_s": [b - a for a, b in zip(bounds[::2], bounds[1::2])],
                "probe_s": ([sweeps[-1]["probe_s"][-1] if sweeps else setup_probe]
                            + [m[1] for m in pauses.marks]
                            + [probe_server.probe()]),
            })
            digests.append(hashlib.sha256(
                (out / "results.csv").read_bytes()).hexdigest())
            if rc != 0 or time.monotonic() >= deadline:
                break

    record = {
        "mode": args.mode,
        "env": _numpy_record(np),
        "rc": rc,
        # interpreter start to the first call into the sweep, less the wait
        # for the probe
        "setup_s": calls[0][0] - args.spawned_at - probe_wait,
        "setup_probe_s": setup_probe,
        "sweeps": sweeps,
        "csv_sha256": digests,
        "maxrss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "maxrss_largest_child_kb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        record["spans"] = tracer.spans
        record["counters"] = dict(tracer.counters)
    if pool is not None:
        record["pool"] = pool.as_dict()
    args.result.write_text(json.dumps(record))
    return rc


if __name__ == "__main__":
    sys.exit(main())
