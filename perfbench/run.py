"""Sweep-throughput benchmark for the fcla Monte Carlo sweeps.

    python3 perfbench/run.py --workload snr-ref --seed 1 --seconds 30 --trace 0

Each workload is one ``fcla`` CLI sweep at a fixed size. The load is a closed
loop with one client: the benchmark starts a fresh interpreter
(perfbench/sweep.py) that runs the sweep over and over for CHILD_SECONDS,
waits for it, and starts the next until --seconds have passed; inside a sweep
the harness issues each trial after the previous one finishes. Every sweep of
a run uses the same inputs, made from --seed. A last, smaller sweep gives the
reported sum rates and is checked against the stored reference.

Host speed. The machine this benchmark was made on changes speed by up to
half from one second to the next as other tenants load it, which no run
length averages out. So a fixed numpy probe is timed before and after every
sweep and, by pausing the timed sweeps, twice a second within them (see
sweep.py). The probe runs in a server of its own (probe.py): another
interpreter, on one BLAS thread, that never imports fcla, so the code under
test cannot move it. It is placed as the timed sweeps use the processors:
unpinned for a serial workload, which like the probe moves to whichever
processor another tenant leaves free, and pinned to each processor in turn,
reporting the slowest, for a pooled one, whose sweep points wait for their
slowest worker. Times are reported for a host on which the probe takes
PROBE_REFERENCE_S: for trials_per_s each stretch of a sweep between two
probes is scaled by PROBE_REFERENCE_S over their mean, and each set-up time
by PROBE_REFERENCE_S over the probe that follows it. --trace 1 reports the
median probe (host.probe_ms) and the unscaled rate (host.raw_trials_per_s)
next to the per-layer metrics, so a comparison shows when the normaliser
itself moved; every raw time and probe is kept in
.bench_out/<run>/result.json.

Trials per point follow the sweeps this benchmark stands for (measured
sweeps of 30 to 60 trials per point): 30 per SNR point and 60 per grid size,
210 and 240 paired trials per sweep, so a pool started per point serves 30
trials.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: trials_per_s
over all timed sweeps of the run, the median set-up time and peak memory.
--trace 1 runs traced sweeps (spans around the calls into each module, see
tracing.py) between untraced ones and reports the per-layer metrics, each
per trial, and the tracing overhead.

The run checks its outputs: no trial failed, every rate is finite, every sweep
of a size wrote the same results.csv byte for byte (serial, pooled and traced
alike), and at a seed with a stored reference (perfbench/reference, seeds
0-10) the check sweep matches it within REL_TOL; at any other seed the
reference check is printed as SKIP. The last line of standard output is
one JSON object; the exit code is 0 only when every check passed. Files go to
.bench_out/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
# <reference>-seed<N>.csv: results.csv of the check sweep at seed N, recorded
# at the commit named in BENCH_baseline.json
REFERENCE_DIR = HERE / "reference"

# mean_sum_rate_bits and stderr may differ from a stored reference by this
# relative amount (summation order in BLAS); every other column must be equal
REL_TOL = 1e-9
PROBE_REFERENCE_S = 0.0225
CHILD_SECONDS = 5.0
CHILD_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# ROADMAP reference scale shared by every workload
REFERENCE_SCALE = ("--rings", "4", "--elements", "4", "--users", "16",
                   "--paths", "4", "--noise", "1", "--alpha", "mmse",
                   "--iters", "5")
SNR_REF = ("sweep-snr", *REFERENCE_SCALE, "--grid", "12", "--kappa", "1",
           "--methods", "ucla,fcla-j,fcla-a", "--snr=-6:2:6")
GRID_JOINT = ("sweep-grid", *REFERENCE_SCALE, "--omni",
              "--methods", "ucla,fcla-j", "--snr", "0",
              "--grid-range", "8,16,24,32")


@dataclass(frozen=True)
class Workload:
    cli: tuple
    timed_trials: int  # per sweep point, in the repeated timed sweeps
    check_trials: int  # per sweep point, in the sweep that reports sum rates
    reference: str  # name of the stored reference CSVs
    jobs: int = 1
    blas_threads: int | None = None  # None keeps the BLAS library's default
    serial_twin: str | None = None  # workload whose CSV must be identical

    @property
    def probe_placement(self) -> str:
        """How probe.py places the host speed probe for this workload."""
        return "slowest-cpu" if self.jobs > 1 else "free"


# why each workload exists is recorded in BENCHMARK.json
WORKLOADS = {
    "snr-ref": Workload(SNR_REF, timed_trials=30, check_trials=10,
                        reference="snr-ref"),
    "grid-joint": Workload(GRID_JOINT, timed_trials=60, check_trials=15,
                           reference="grid-joint"),
    # one BLAS thread per process keeps 2 workers on 2 cores
    "snr-ref-pool": Workload(SNR_REF, timed_trials=30, check_trials=10,
                             reference="snr-ref", jobs=2, blas_threads=1,
                             serial_twin="snr-ref"),
}


class BenchError(RuntimeError):
    pass


def parse_csv(data: bytes) -> list[dict]:
    rows = []
    for row in csv.DictReader(io.StringIO(data.decode())):
        rows.append({
            "method": row["method"],
            "sweep_var": row["sweep_var"],
            "sweep_value": float(row["sweep_value"]),
            "mean_sum_rate_bits": float(row["mean_sum_rate_bits"]),
            "stderr": float(row["stderr"]),
            "trials": int(row["trials"]),
        })
    return rows


@dataclass
class Child:
    """One finished sweep.py process and the sweeps it ran. kind is plain
    (timed), serial, traced, pool, check or twin."""

    kind: str
    jobs: int
    trials: int  # per sweep point
    record: dict
    csv_bytes: bytes  # results.csv of its last sweep

    def __post_init__(self):
        self.rows = parse_csv(self.csv_bytes)

    @property
    def sweeps(self) -> int:
        return len(self.record["sweeps"])

    @property
    def attempted(self) -> int:
        points = len({row["sweep_value"] for row in self.rows})
        return points * self.trials * self.sweeps

    @property
    def completed(self) -> int:
        # a failed trial drops every method of that trial
        per_point = {row["sweep_value"]: row["trials"] for row in self.rows}
        return sum(per_point.values()) * self.sweeps

    def walls(self) -> list[float]:
        """Sweep wall times, less the pauses for probes."""
        return [sum(s["segment_s"]) for s in self.record["sweeps"]]

    def scaled_walls(self) -> list[float]:
        """Sweep wall times on the reference host: each segment between two
        probes scaled by their mean."""
        walls = []
        for sweep in self.record["sweeps"]:
            p = sweep["probe_s"]
            walls.append(sum(seg * 2.0 * PROBE_REFERENCE_S / (p[i] + p[i + 1])
                             for i, seg in enumerate(sweep["segment_s"])))
        return walls

    def probes(self) -> list[float]:
        return [self.record["setup_probe_s"]] + [
            p for s in self.record["sweeps"] for p in s["probe_s"][1:]]

    @property
    def scaled_setup_s(self) -> float:
        return (self.record["setup_s"] * PROBE_REFERENCE_S
                / self.record["setup_probe_s"])

    @property
    def peak_rss_mb(self) -> float:
        """Peak RSS of the sweep process plus, per pool worker, the largest
        pool worker's peak (shared pages count in each process)."""
        workers = self.jobs if self.jobs > 1 else 0
        kb = (self.record["maxrss_self_kb"]
              + workers * self.record["maxrss_largest_child_kb"])
        return kb / 1024.0


class Runner:
    """Starts sweep.py processes for one benchmark run, and the probe server
    they share; use it as a context manager, which stops the server."""

    def __init__(self, name: str, seed: int, work: Path, trials: int | None):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.timed_trials = trials or self.workload.timed_trials
        self.check_trials = trials or self.workload.check_trials
        self.count = 0
        self.probe_server = None

    def __enter__(self):
        env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
        env.pop("PYTHONPATH", None)
        self.probe_server = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"),
             "--placement", self.workload.probe_placement], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        return self

    def __exit__(self, *exc):
        self.probe_server.stdin.close()
        try:
            self.probe_server.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.probe_server.kill()
            self.probe_server.wait()
        self.probe_server.stdout.close()
        return False

    def child(self, kind: str, trials: int, seconds: float = 0.0,
              jobs: int | None = None, workload: str | None = None) -> Child:
        w = WORKLOADS[workload or self.name]
        jobs = w.jobs if jobs is None else jobs
        self.count += 1
        out = self.work / f"{self.count:03d}-{kind}"
        out.mkdir(parents=True)
        cli = [*w.cli, "--trials", str(trials), "--seed", str(self.seed),
               "--jobs", str(jobs), "--out", str(out)]
        env = dict(os.environ, TMPDIR=str(self.work / "tmp"))
        env.pop("PYTHONPATH", None)
        if w.blas_threads is not None:
            env.update({var: str(w.blas_threads) for var in BLAS_THREAD_VARS})
        mode = kind if kind in ("serial", "traced", "pool") else "plain"
        result = out / "sweep.json"
        fds = (self.probe_server.stdin.fileno(),
               self.probe_server.stdout.fileno())
        with open(out / "log.txt", "wb") as log:
            cmd = [sys.executable, str(HERE / "sweep.py"), "--mode", mode,
                   "--seconds", repr(seconds), "--result", str(result),
                   "--probe-fds", ",".join(map(str, fds)),
                   "--spawned-at", repr(time.monotonic()), "--", *cli]
            # a session of its own, so a timeout also ends its pool workers
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                    stderr=subprocess.STDOUT, pass_fds=fds,
                                    start_new_session=True)
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
        if proc.returncode != 0:
            raise BenchError(f"{kind} sweep exited with {proc.returncode}; "
                             f"see {out / 'log.txt'}")
        return Child(kind=kind, jobs=jobs, trials=trials,
                     record=json.loads(result.read_text()),
                     csv_bytes=(out / "results.csv").read_bytes())

    def repeat(self, kinds: list[tuple], seconds: float) -> list[Child]:
        """Children of the given (kind, jobs), in rotation, each running timed
        sweeps for CHILD_SECONDS, until seconds have passed and every kind ran."""
        children = []
        deadline = time.monotonic() + seconds
        while len(children) < len(kinds) or time.monotonic() < deadline:
            kind, jobs = kinds[len(children) % len(kinds)]
            remaining = max(deadline - time.monotonic(), 0.0)
            children.append(self.child(kind, self.timed_trials, jobs=jobs,
                                       seconds=min(CHILD_SECONDS, remaining)))
        return children


# -- checks ---------------------------------------------------------------


def check_outputs(runner: Runner, children: list[Child]) -> list[tuple]:
    """(check name, PASS, FAIL or SKIP, detail) for every correctness
    condition; a SKIP names a check this run could not make."""
    def verdict(ok: bool) -> str:
        return "PASS" if ok else "FAIL"

    checks = []
    failed = sum(c.attempted - c.completed for c in children)
    checks.append(("no failed trials", verdict(failed == 0), f"{failed} failed"))
    bad = [r for c in children for r in c.rows
           if not (math.isfinite(r["mean_sum_rate_bits"])
                   and math.isfinite(r["stderr"]))]
    checks.append(("every rate finite", verdict(not bad),
                   f"{len(bad)} non-finite rows"))
    methods = {r["method"] for r in children[0].rows}
    points = {r["sweep_value"] for r in children[0].rows}
    checks.append(("one row per method and point",
                   verdict(all(len(c.rows) == len(methods) * len(points)
                               for c in children)), ""))
    for trials in sorted({c.trials for c in children}):
        group = [c for c in children if c.trials == trials]
        digests = {d for c in group for d in c.record["csv_sha256"]}
        kinds = sorted({f"{c.kind}/jobs={c.jobs}" for c in group})
        checks.append((f"every sweep of {trials} trials per point wrote the "
                       "same CSV", verdict(len(digests) == 1), ", ".join(kinds)))
    name = f"{runner.workload.reference}-seed{runner.seed}.csv"
    check = next((c for c in children if c.kind == "check"), None)
    path = REFERENCE_DIR / name
    if check is None or check.trials != runner.workload.check_trials:
        checks.append((f"matches reference/{name}", "SKIP",
                       "no check sweep at the reference size in this run"))
    elif not path.is_file():
        checks.append((f"matches reference/{name}", "SKIP",
                       f"no reference stored for seed {runner.seed}"))
    else:
        ok, detail = matches_reference(check.rows, parse_csv(path.read_bytes()))
        checks.append((f"matches reference/{name}", verdict(ok), detail))
    return checks


def matches_reference(rows: list[dict], reference: list[dict]):
    if len(rows) != len(reference):
        return False, f"{len(rows)} rows, reference has {len(reference)}"
    worst = 0.0
    for row, ref in zip(rows, reference):
        for key in ("method", "sweep_var", "sweep_value", "trials"):
            if row[key] != ref[key]:
                return False, f"{key} {row[key]!r} != {ref[key]!r}"
        for key in ("mean_sum_rate_bits", "stderr"):
            scale = max(abs(ref[key]), 1e-300)
            worst = max(worst, abs(row[key] - ref[key]) / scale)
    return (worst <= REL_TOL,
            f"worst relative difference {worst:.3g} (tolerance {REL_TOL:g})")


# -- metrics --------------------------------------------------------------


def sum_rate(rows: list[dict], methods) -> float:
    return statistics.fmean(r["mean_sum_rate_bits"] for r in rows
                            if r["method"] in methods)


def rate(children: list[Child], kind: str, scaled: bool = True) -> float:
    """Trials per second over every sweep of the given kind: all their
    trials over their summed (scaled) wall time."""
    timed = [c for c in children if c.kind == kind]
    walls = [w for c in timed for w in (c.scaled_walls() if scaled else c.walls())]
    return sum(c.attempted for c in timed) / sum(walls)


def end_to_end_metrics(children: list[Child]) -> dict:
    timed = [c for c in children if c.kind == "plain"]
    rows = next(c for c in children if c.kind == "check").rows
    flexible = {r["method"] for r in rows if r["method"].startswith("fcla")}
    return {
        "trials_per_s": rate(children, "plain"),
        "setup_s": statistics.median(c.scaled_setup_s for c in children),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in timed),
        "completed_trial_ratio": (sum(c.completed for c in children)
                                  / sum(c.attempted for c in children)),
        "sum_rate_bits.ucla": sum_rate(rows, {"ucla"}),
        "sum_rate_bits.fcla-j": sum_rate(rows, {"fcla-j"}),
        "sum_rate_bits.fcla": sum_rate(rows, flexible),
    }


def per_layer_metrics(names, children: list[Child], jobs: int) -> dict:
    def walls(kind):
        return [w for c in children if c.kind == kind for w in c.scaled_walls()]

    traced = [c for c in children if c.kind == "traced"]
    spans = [span for c in traced for span in c.record["spans"]]
    totals = tracing.span_totals(spans)
    counters: dict = {}
    for c in traced:
        for key, value in c.record["counters"].items():
            counters[key] = counters.get(key, 0) + value
    trials = totals.get("harness.run_trial", [0])[0]
    if trials == 0:
        raise BenchError("traced sweeps recorded no trials")

    pooled = [c for c in children if c.kind == "pool"]
    pool = {key: sum(c.record["pool"][key] for c in pooled)
            for key in ("starts", "tasks", "task_bytes")}
    pooled_trials = max(sum(c.attempted for c in pooled), 1)
    serial_wall = statistics.median(walls("serial"))
    derived = {
        "channel.distinct_column_ratio": (
            counters.get("channel.distinct_positions", 0)
            / max(counters.get("channel.columns_synthesized", 0), 1)),
        "joint.kept_atom_ratio": (counters.get("joint.atoms_kept", 0)
                                  / max(counters.get("joint.atoms_picked", 0), 1)),
        "harness.pool.starts": pool["starts"] / pooled_trials,
        "harness.pool.tasks": pool["tasks"] / pooled_trials,
        "harness.pool.bytes_per_task": pool["task_bytes"] / max(pool["tasks"], 1),
        # serial busy time over jobs x the pooled wall time of the same sweep
        "harness.pool.efficiency": serial_wall / (
            jobs * statistics.median(walls("pool") or [serial_wall])),
        "tracing_overhead_ratio": statistics.median(walls("traced")) / serial_wall,
        # the normaliser and the rate before scaling, to show when they move
        "host.probe_ms": 1e3 * statistics.median(
            p for c in children for p in c.probes()),
        "host.raw_trials_per_s": rate(children, "pool" if jobs > 1 else "serial",
                                      scaled=False),
    }
    metrics = {}
    for name in names:
        stem, _, stat = name.rpartition(".")
        if name in derived:
            value = derived[name]
        elif stat == "calls":
            value = totals.get(stem, [0, 0, 0])[0] / trials
        elif stat == "ms":
            value = totals.get(stem, [0, 0, 0])[1] / 1e6 / trials
        elif stat == "self_ms" and "." in stem:
            value = totals.get(stem, [0, 0, 0])[2] / 1e6 / trials
        elif stat == "self_ms":  # a whole layer
            value = sum(t[2] for n, t in totals.items()
                        if n.startswith(stem + ".")) / 1e6 / trials
        elif name in tracing.COUNTERS:
            value = counters.get(name, 0) / trials
        else:
            raise BenchError(f"no rule computes per-layer metric {name!r}")
        metrics[name] = value
    return metrics


# -- environment ----------------------------------------------------------


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fcla").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def environment(runner: Runner, children: list[Child], seconds: int) -> dict:
    child = children[0].record["env"]
    w = runner.workload
    return {
        "python": platform.python_version(),
        "numpy": child["numpy"],
        "blas": child["blas"],
        "blas_version": child["blas_version"],
        "blas_threads": (str(w.blas_threads) if w.blas_threads is not None
                         else "library default"),
        "threads_at_exit": child["threads_at_exit"],
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": runner.name,
        "seed": runner.seed,
        "jobs": w.jobs,
        "timed_trials_per_point": runner.timed_trials,
        "check_trials_per_point": runner.check_trials,
        "run_seconds": seconds,
        "probe_reference_s": PROBE_REFERENCE_S,
        "probe_placement": w.probe_placement,
    }


# -- runs -----------------------------------------------------------------


def load_metric_specs(section: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)[section]


def run(name: str, seed: int, seconds: int, trace: bool,
        trials: int | None = None) -> dict:
    """One benchmark run; returns the full result record. trials overrides
    every sweep's trials per point (for smoke tests)."""
    if not (ROOT / "src" / "fcla" / "__init__.py").is_file():
        raise BenchError(f"no fcla sources under {ROOT / 'src'}")
    work = OUT / (f"{name}-seed{seed}-trace{int(trace)}"
                  + (f"-trials{trials}" if trials is not None else ""))
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    w = WORKLOADS[name]
    with Runner(name, seed, work, trials) as runner:
        runner.child("warmup", 1)  # compiles bytecode, warms the file cache
        if trace:
            kinds = [("serial", 1), ("traced", 1)]
            if w.jobs > 1:
                kinds.append(("pool", w.jobs))
            children = runner.repeat(kinds, seconds)
        else:
            children = runner.repeat([("plain", w.jobs)], seconds)
            children.append(runner.child("check", runner.check_trials))
            if w.serial_twin:
                children.append(runner.child("twin", runner.check_trials,
                                             workload=w.serial_twin))

    specs = load_metric_specs("per_layer" if trace else "end_to_end")
    units = {m["name"]: m["unit"] for m in specs}
    metrics = (per_layer_metrics(list(units), children, w.jobs) if trace
               else end_to_end_metrics(children))
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                         "match BENCHMARK.json")

    checks = check_outputs(runner, children)
    attempted = sum(c.attempted for c in children)
    return {
        "correct": all(status != "FAIL" for _, status, _ in checks),
        "attempted": attempted,
        "failed": attempted - sum(c.completed for c in children),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
        "checks": [{"name": n, "status": st, "detail": d}
                   for n, st, d in checks],
        "env": environment(runner, children, seconds),
        "children": [{
            "kind": c.kind, "jobs": c.jobs, "trials_per_point": c.trials,
            "setup_s": c.record["setup_s"], "peak_rss_mb": c.peak_rss_mb,
            "sweeps": c.record["sweeps"],
        } for c in children],
        "work_dir": str(work.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    (ROOT / result["work_dir"] / "result.json").write_text(
        json.dumps(result, indent=1))
    print("env " + json.dumps(result["env"], sort_keys=True))
    for check in result["checks"]:
        print(f"{check['status']} {check['name']} {check['detail']}".rstrip())
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
