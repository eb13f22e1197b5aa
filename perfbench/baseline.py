"""Repeat the benchmark over seeds and write a BENCH_<label>.json record.

    python3 perfbench/baseline.py --label baseline --seeds 1-10 [--tier1]

For every seed, and every workload within a seed, this runs perfbench/run.py
untraced for BENCHMARK.json's run_seconds, then one traced run per workload at
the first seed. For each end-to-end metric it records the ten values, their
median and quartiles (statistics.quantiles, n=4) and the spread, the
interquartile distance as a share of the median, next to the metric's bound.
--tier1 also times the repository's tier-1 test command once; that wall time
is a one-off record, not a benchmark metric. The record is written to
perfbench/BENCH_<label>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# environment keys that differ between workloads or runs
WORKLOAD_ENV = ("workload", "seed", "jobs", "blas_threads", "probe_placement",
                "timed_trials_per_point", "check_trials_per_point")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def parse_seeds(text: str) -> list[int]:
    """'1-10': the seeds 1 to 10."""
    first, last = (int(part) for part in text.split("-"))
    return list(range(first, last + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{' '.join(cmd)} printed no result:\n{proc.stderr}")
    result = json.loads(lines[-1])
    env_line = next((l for l in lines if l.startswith("env ")), None)
    result["env"] = json.loads(env_line[4:]) if env_line else None
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          + " ".join(f"{k}={v['value']:.5g}" for k, v in
                     list(result["metrics"].items())[:3]), flush=True)
    return result


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "spread_below_third_of_bound": spread < bound / 3,
            "values": values}


def time_tier1() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"]
                                 if env.get("PYTHONPATH") else "")
    start = time.monotonic()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True,
                          text=True)
    wall = time.monotonic() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"command": "PYTHONPATH=src python -m pytest -q "
                       "--continue-on-collection-errors",
            "wall_s": wall, "summary": summary,
            "note": "measured once; a record, not a benchmark metric"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--tier1", action="store_true",
                        help="also time the tier-1 test command once")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict = {name: [] for name in names}
    for seed in args.seeds:
        for name in names:
            runs[name].append(bench(name, seed, seconds, 0))

    record: dict = {
        "label": args.label,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "run_seconds": seconds,
        "seeds": args.seeds,
        "env": {k: v for k, v in (runs[names[0]][0]["env"] or {}).items()
                if k not in WORKLOAD_ENV},
        "workloads": {},
    }
    for name in names:
        results = runs[name]
        entry = {
            "env": {k: results[0]["env"][k] for k in WORKLOAD_ENV
                    if k not in ("workload", "seed")},
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                metric: dict(unit=results[0]["metrics"][metric]["unit"],
                             **summarize([r["metrics"][metric]["value"]
                                          for r in results], bound))
                for metric, bound in bounds.items()
            },
        }
        traced = bench(name, args.seeds[0], seconds, 1)
        entry["per_layer"] = {"seed": args.seeds[0],
                              "correct": traced["correct"],
                              "metrics": traced["metrics"]}
        record["workloads"][name] = entry
    if args.tier1:
        record["tier1_one_off"] = time_tier1()

    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for name, entry in record["workloads"].items():
        for metric, s in entry["end_to_end"].items():
            flag = "ok" if s["spread_below_third_of_bound"] else "WIDE"
            print(f"{name:13s} {metric:24s} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.4f} bound {s['bound']} {flag}")
    print(f"wrote {out.relative_to(ROOT)}")
    correct = all(e["correct"] and e["per_layer"]["correct"]
                  for e in record["workloads"].values())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
