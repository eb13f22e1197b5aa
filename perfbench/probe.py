"""Host speed probe, served from an interpreter of its own.

    python3 perfbench/probe.py --placement free|slowest-cpu
        (with OPENBLAS_NUM_THREADS=1)

run.py starts one of these per benchmark run and hands its pipes to every
sweep.py it starts. For each line read from standard input the server times a
fixed pass of numpy work of the same kind as a trial (small dense solves,
products and complex exponentials) and writes its duration in seconds as one
line to standard output. It exits at end of input.

Other tenants slow the processors unevenly, so the probe is placed the way
the timed sweep uses them. A serial sweep runs where the scheduler finds
room, and so does a free probe: when another tenant holds one processor,
both run on the other. A pooled sweep keeps every processor busy and each
sweep point waits for its slowest worker, so a slowest-cpu probe runs pinned
to each processor in turn and reports the slowest.

The probe never imports fcla and runs on one BLAS thread, so its time depends
on the host alone, not on what the code under test loads, allocates or leaves
running in its own process between sweeps.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

PLACEMENTS = ("free", "slowest-cpu")
PROBE_REPS = 15
# untimed passes first, which refill the caches the paused sweep used and
# wake an idle processor
WARMUP_REPS = 3


def make_probe():
    """A function timing one fixed pass of numpy work, in seconds."""
    rng = np.random.default_rng(0)
    H = rng.standard_normal((16, 64)) + 1j * rng.standard_normal((16, 64))
    phase = rng.standard_normal((16, 4, 144))
    eye = np.eye(16)

    def work(reps: int):
        for _ in range(reps):
            for k in range(8, 64, 4):
                Hk = H[:, :k]
                F = np.linalg.solve(Hk @ Hk.conj().T + eye, Hk).conj().T
                np.linalg.norm(eye - Hk @ F)
            (np.exp(-1j * phase) * 2.0).sum(axis=1)

    def probe() -> float:
        work(WARMUP_REPS)
        start = time.perf_counter()
        work(PROBE_REPS)
        return time.perf_counter() - start

    return probe


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--placement", choices=PLACEMENTS, required=True)
    args = parser.parse_args(argv)
    probe = make_probe()
    cpus = sorted(os.sched_getaffinity(0))
    for _ in sys.stdin:
        if args.placement == "free":
            seconds = probe()
        else:
            per_cpu = []
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                per_cpu.append(probe())
            os.sched_setaffinity(0, cpus)
            seconds = max(per_cpu)
        sys.stdout.write(f"{seconds!r}\n")
        sys.stdout.flush()
    return 0


class Client:
    """The sweep side of the pipe pair: probe() asks the server for one
    probe and returns its duration in seconds."""

    def __init__(self, request_fd: int, reply_fd: int):
        self._request = open(request_fd, "w", buffering=1, closefd=False)
        self._reply = open(reply_fd, "r", closefd=False)

    def probe(self) -> float:
        self._request.write("probe\n")
        line = self._reply.readline()
        if not line:
            raise RuntimeError("the probe server exited")
        return float(line)


if __name__ == "__main__":
    sys.exit(main())
