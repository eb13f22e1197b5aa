"""Command-line front end: experiment sweeps, single verbose solves, and a
self-check suite. Configuration comes from an optional JSON file with flag
overrides; every run writes a manifest that reproduces it exactly."""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from .channel import export_paths
from .geometry import SPEED_OF_LIGHT
from .harness import (METHODS, ExperimentSpec, draw_batch, rates, run_sweep,
                      solve_methods, write_manifest, write_results_csv)
from .oracle import exhaustive_best
from .pattern import PatternSpec, power_gain
from .precoding import normalize_columns, rzf

OUT_DIR_ENV = "FCLA_OUT_DIR"

# sweep kind -> (its command and help, its range flag, what the range lists,
# and the default range)
SWEEPS = {
    "snr": ("sweep-snr", "sum rate vs operating SNR", "--snr", "SNRs in dB",
            "-6:2:6"),
    "grid": ("sweep-grid", "sum rate vs grid size", "--grid-range",
             "grid sizes", "4:2:12"),
    "iters": ("sweep-iters", "sum rate vs alternating solver rounds",
              "--iters-range", "rounds", "1:1:10"),
}
# a value that begins with a negative number: -6:2:6, -1e-3, -inf, -nan, -.5
DASHED_VALUE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _parse_range(text: str) -> list[float]:
    """start:step:stop (inclusive) or a comma-separated list."""
    parts = text.split(":") if ":" in text else [p for p in text.split(",") if p]
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"sweep_values must be numbers, got {text!r}") from None
    if ":" not in text:
        return values
    if len(values) != 3:
        raise ValueError(f"expected start:step:stop, got {text!r}")
    start, step, stop = values
    if step <= 0:
        raise ValueError("range step must be positive")
    # the points up to stop, which a rounding error of the step still reaches
    n = math.floor((stop - start) / step + 1e-9) + 1
    if n < 1:
        raise ValueError(f"range {text!r} stops below its start")
    return [start + i * step for i in range(n)]


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="JSON config file; flags override it")
    p.add_argument("--out", type=Path, default=None,
                   help=f"output directory (default ${OUT_DIR_ENV} or '.')")
    p.add_argument("--rings", type=int, help="number of rings (default 4)")
    p.add_argument("--elements", type=int, help="antennas per ring (default 4)")
    p.add_argument("--users", type=int, help="number of users (default 16)")
    p.add_argument("--paths", type=int, help="multipath count per user (default 4)")
    p.add_argument("--freq", type=float, dest="frequency_hz",
                   help="carrier frequency in Hz (default 3e9)")
    p.add_argument("--noise", type=float, dest="noise_power",
                   help="noise power (default 1.0)")
    p.add_argument("--kappa", type=float, help="directional sharpness (default 1)")
    p.add_argument("--omni", action="store_true", help="use the omni pattern")
    p.add_argument("--grid", type=int, dest="grid_size",
                   help="angle and height slots per dimension (default 12)")
    p.add_argument("--dmin", type=float, dest="d_min",
                   help="spacing floor in meters (default half wavelength)")
    p.add_argument("--alpha", help="'mmse' or a fixed regularization value")
    p.add_argument("--iters", type=int, dest="outer_iters",
                   help="alternating solver outer rounds (default 5)")
    p.add_argument("--methods", help="comma list from: " + ",".join(METHODS))
    p.add_argument("--trials", type=int, help="trials per sweep point (default 200)")
    p.add_argument("--seed", type=int, help="base RNG seed (default 1)")
    p.add_argument("--jobs", type=int, help="worker processes (default 1)")


def _add_operating_snr(p: argparse.ArgumentParser) -> None:
    p.add_argument("--snr", dest="snr_db", help="operating SNR in dB (default 0)")


def _build_spec(args: argparse.Namespace, sweep_kind: str) -> ExperimentSpec:
    """Resolve config file < flags into a full spec for the given sweep kind.
    Each flag sets the spec field its destination names; the range flag sets
    sweep_values, and a config's sweep_values apply only to its own kind."""
    data = {}
    if args.config is not None:
        with open(args.config) as f:
            data = json.load(f)
        if not isinstance(data, dict):
            found = "null" if data is None else type(data).__name__
            raise ValueError(f"config file {args.config} must hold a JSON "
                             f"object of spec fields, got {found}")
    flags = {key: value for key, value in vars(args).items()
             if key in ExperimentSpec.__dataclass_fields__ and value is not None}
    if args.omni:
        flags["pattern_kind"] = "omni"
    elif "kappa" in flags:
        flags["pattern_kind"] = "directional"
    if "alpha" in flags:
        try:
            flags["alpha"] = float(args.alpha)
        except ValueError:  # "mmse", or a word the spec rejects by name
            pass
    if "methods" in flags:
        flags["methods"] = [m.strip() for m in args.methods.split(",") if m.strip()]
    if getattr(args, "sweep_range", None) is not None:
        flags["sweep_values"] = _parse_range(args.sweep_range)
    elif data.get("sweep_kind") != sweep_kind or "sweep_values" not in data:
        flags["sweep_values"] = _parse_range(SWEEPS[sweep_kind][-1])
    if "snr_db" in flags:
        try:
            flags["snr_db"] = float(args.snr_db)
        except ValueError:  # a range or list: only sweep-snr sweeps the SNR
            raise ValueError(f"--snr takes one SNR in dB here, "
                             f"got {args.snr_db!r}") from None
    return ExperimentSpec.from_dict({**data, **flags, "sweep_kind": sweep_kind})


def _out_dir(args: argparse.Namespace) -> Path:
    out = args.out if args.out is not None else Path(os.environ.get(OUT_DIR_ENV, "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _run_sweep_command(args: argparse.Namespace, sweep_kind: str) -> int:
    spec = _build_spec(args, sweep_kind)
    rows = run_sweep(spec)
    out = _out_dir(args)
    write_results_csv(rows, out / "results.csv")
    write_manifest(spec, out / "manifest.json")
    print(f"wrote {out / 'results.csv'} ({len(rows)} rows) and "
          f"{out / 'manifest.json'}")
    return 0


# solve-once's trace file per method: name, header, and the rows of trial 0
# of the method's Solutions of a batch
TRACE_FILES = {
    "fcla-j": ("fcla_j_trace.csv", ["iter", "selected_g", "group", "objective"],
               lambda s, batch: [
                   [i, g, g // batch.config.g_h, repr(objective)]
                   for i, g, objective in zip(
                       range(1, s.iterations[0] + 1), s.picks[0].tolist(),
                       s.pick_objectives[0].tolist())]),
    "fcla-a": ("fcla_a_trace.csv", ["i", "sum_rate"],
               lambda s, batch: [[i, repr(v)] for i, v in enumerate(rates(
                   batch, s, range(s.round_columns.shape[1]))[0]
                   .sum(axis=-1).tolist(), 1)]),
}


def _solve_once(args: argparse.Namespace) -> int:
    """Trial 0 of sweep point 0 at the spec's operating SNR, through the
    sweeps' method table, with per-method trace files and every method's
    placement in placement.json."""
    spec = _build_spec(args, "snr")
    out = _out_dir(args)
    batch = draw_batch(spec, 0, [0])
    export_paths(batch.paths, out / "paths.json")

    config = batch.config
    print(f"grid {config.g_h}x{config.g_v}, radius "
          f"{config.radius:.5f} m, snr {spec.snr_db:g} dB, "
          f"alpha {batch.alpha:g}, power {batch.power:g}")
    placements = {}
    for method, record in solve_methods(batch, spec.methods).items():
        user_rates = rates(batch, record)[0, 0]
        sum_rate = float(user_rates.sum())
        placements[method] = {
            "radius": record.radius, "heights": record.heights[0].tolist(),
            "angles": record.angles[0].tolist(),
            "objective": float(record.objective[0]),
            "rates": user_rates.tolist(), "sum_rate": sum_rate}
        line = f"{method:<7} sum rate {sum_rate:.4f} bits"
        if method in TRACE_FILES:
            name, header, rows = TRACE_FILES[method]
            with open(out / name, "w", newline="") as f:
                w = csv.writer(f)
                w.writerow(header)
                w.writerows(rows(record, batch))
            line += f" (trace in {out / name})"
        print(line)
    with open(out / "placement.json", "w") as f:
        json.dump(placements, f, indent=1)
    write_manifest(spec, out / "manifest.json")
    return 0


def _validate(args: argparse.Namespace) -> int:
    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        status = "PASS" if ok else "FAIL"
        line = f"{status} {name}"
        if detail:
            line += f" ({detail})"
        print(line)
        if not ok:
            failures += 1

    # directional pattern power integrates to the full sphere
    theta = np.linspace(0.0, np.pi, 1501)
    phi = np.linspace(-np.pi / 2.0, np.pi / 2.0, 1501)
    for kappa in (1.0, 2.0, 3.0):
        pattern = PatternSpec.directional(kappa)
        integrand = (power_gain(pattern, theta[:, None], phi[None, :])
                     * np.sin(theta)[:, None])
        total = np.trapezoid(np.trapezoid(integrand, phi, axis=1), theta)
        rel = abs(total - 4.0 * np.pi) / (4.0 * np.pi)
        report(f"pattern normalization kappa={kappa:g}", rel < 1e-3,
               f"relative error {rel:.2e}")

    # precoder family limits
    rng = np.random.default_rng(7)
    H = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    both = [rzf(H, 0.7, gram=g) for g in ("k", "n")]
    report("precoder Gram forms agree",
           bool(np.max(np.abs(both[0] - both[1])) < 1e-10))
    F_zf = rzf(H, 0.0)
    report("zero regularization inverts the channel",
           bool(np.max(np.abs(H @ F_zf - np.eye(4))) < 1e-8))
    F_big = normalize_columns(rzf(H, 1e8), 1.0)
    F_mrt = normalize_columns(H.conj().T, 1.0)
    cosine = np.abs(np.sum(F_big.conj() * F_mrt, axis=0)) / (
        np.linalg.norm(F_big, axis=0) * np.linalg.norm(F_mrt, axis=0))
    report("large regularization matches the matched filter",
           bool(np.all(cosine > 1.0 - 1e-6)))

    # greedy solvers never beat the exhaustive optima: 30 draws of 4 users
    # on 2x2 omni rings over a 4x4 grid at 0 dB (wavelength 0.1 m), one
    # batch and one oracle call
    spec = ExperimentSpec(rings=2, elements=2, users=4, paths=4, grid_size=4,
                          d_min=0.05, frequency_hz=SPEED_OF_LIGHT / 0.1,
                          pattern_kind="omni", alpha=1.0,
                          methods=("fcla-j", "fcla-a"))
    batch = draw_batch(spec, 0, range(30))
    # per draw, (objective, sum rate) at each optimum; worse is [+, -]
    best = np.array([(by_objective.objective, by_rate.sum_rate) for
                     by_objective, by_rate in
                     exhaustive_best(batch.dictionary, batch.config,
                                     batch.alpha, batch.power, batch.sigma2)])
    worse = np.array([1.0, -1.0])
    violation, gaps = 0.0, []
    for method, record in solve_methods(batch, spec.methods).items():
        got = np.concatenate([record.objective[:, None],
                              rates(batch, record).sum(axis=-1)], axis=1)
        violation = max(violation, np.max((best - got) * worse))
        gap, short = np.median((got - best) / best * worse, axis=0)
        gaps.append(f"{method} {gap:.1%} / {short:.1%}")
    report("greedy solvers dominated by exhaustive optima", violation <= 1e-9,
           f"worst violation {violation:.2e}; median objective gap / sum-rate "
           f"shortfall: {', '.join(gaps)}")

    print(f"{failures} failure(s)" if failures else "all checks passed")
    return 1 if failures else 0


def _merge_dashed_values(argv):
    """Glue each value that begins with a negative number onto the --flag
    before it, so argparse does not take it for an option."""
    merged = []
    for token in argv:
        if (merged and merged[-1].startswith("--") and "=" not in merged[-1]
                and DASHED_VALUE.match(token)):
            merged[-1] += f"={token}"
        else:
            merged.append(token)
    return merged


def parse_and_dispatch(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_dashed_values(list(argv))
    parser = argparse.ArgumentParser(
        prog="fcla",
        description="Flexible cylindrical array sum-rate experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for sweep_kind, (command, about, flag, points, default) in SWEEPS.items():
        p = sub.add_parser(command, help=about)
        _add_common_flags(p)
        p.add_argument(flag, dest="sweep_range", metavar="RANGE",
                       help=f"start:step:stop or a comma list of {points} "
                            f"(default {default})")
        if sweep_kind != "snr":
            _add_operating_snr(p)
        p.set_defaults(run=lambda args, kind=sweep_kind:
                       _run_sweep_command(args, kind))

    p_once = sub.add_parser("solve-once",
                            help="run one trial verbosely with traces")
    _add_common_flags(p_once)
    _add_operating_snr(p_once)
    p_once.set_defaults(run=_solve_once)

    p_val = sub.add_parser("validate", help="run built-in numerical self-checks")
    p_val.set_defaults(run=_validate)

    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(parse_and_dispatch())


if __name__ == "__main__":
    main()
