"""Fixed-seed sweeps whose outputs are checked in under tests/golden.

Each GOLDEN_SWEEPS entry's results.csv is kept byte for byte in
golden/<name>.csv. Its means are printed with repr, so they move with the
last bit of any dictionary entry even when no pick moves. placements.json
holds the integers behind them: each trial's placement per method on those
sweeps and on the benchmark's two CLI shapes, compared exactly, so it moves
only when a pick does. digests.json holds the sha256 of each output of
the DIGEST_RUNS command lines. Rewrite placements.json and digests.json
from the current tree with

    PYTHONPATH=src python tests/goldens.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

from fcla import cli, harness

GOLDEN = Path(__file__).parent / "golden"
PLACEMENTS = GOLDEN / "placements.json"
DIGESTS = GOLDEN / "digests.json"
# The first three run all three methods with directional elements on a
# small shape; sweep-grid-joint is the grid-joint benchmark's shape
# (reference scale, omni, ucla and fcla-j, grids up to 32x32) at 6 trials
# a grid. CHANGES.md names each regeneration of a CSV and the cells it
# moved.
GOLDEN_SHAPE = ["--rings", "3", "--elements", "2", "--users", "6", "--paths",
                "3", "--trials", "20"]
REFERENCE_SCALE = ["--rings", "4", "--elements", "4", "--users", "16",
                   "--paths", "4"]
GOLDEN_SWEEPS = {
    "sweep-snr": ["sweep-snr", "--snr", "-4,4", "--grid", "6", "--iters", "3",
                  "--seed", "11"] + GOLDEN_SHAPE,
    "sweep-grid": ["sweep-grid", "--grid-range", "6,8", "--snr", "0",
                   "--iters", "3", "--seed", "12"] + GOLDEN_SHAPE,
    "sweep-iters": ["sweep-iters", "--iters-range", "1,3", "--snr", "0",
                    "--grid", "6", "--seed", "13"] + GOLDEN_SHAPE,
    "sweep-grid-joint": ["sweep-grid", "--grid-range", "8,16,24,32", "--omni",
                         "--methods", "ucla,fcla-j", "--snr", "0",
                         "--trials", "6", "--seed", "14"] + REFERENCE_SCALE,
}
# the golden sweeps, and the benchmark's snr-ref and grid-joint sweeps
# (perfbench/run.py) at 3 trials a point
PLACEMENT_SWEEPS = {
    **GOLDEN_SWEEPS,
    "snr-ref": ["sweep-snr", "--snr=-6:2:6", "--grid", "12", "--trials", "3",
                "--seed", "1"] + REFERENCE_SCALE,
    "grid-joint": ["sweep-grid", "--grid-range", "8,16,24,32", "--omni",
                   "--methods", "ucla,fcla-j", "--snr", "0", "--trials", "3",
                   "--seed", "1"] + REFERENCE_SCALE,
}

# the benchmark's snr-ref and grid-joint sweeps as perfbench/run.py spells
# them (SNR_REF and GRID_JOINT), less --trials and --seed
BENCH_SCALE = REFERENCE_SCALE + ["--noise", "1", "--alpha", "mmse",
                                 "--iters", "5"]
SNR_REF = (["sweep-snr"] + BENCH_SCALE
           + ["--grid", "12", "--kappa", "1", "--methods",
              "ucla,fcla-j,fcla-a", "--snr=-6:2:6"])
GRID_JOINT = (["sweep-grid"] + BENCH_SCALE
              + ["--omni", "--methods", "ucla,fcla-j", "--snr", "0",
                 "--grid-range", "8,16,24,32"])
# name -> (a command line, the outputs of it whose sha256 digests.json keeps
# under the joined command line: files it writes into its output directory,
# or "stdout", what it prints)
DIGEST_RUNS = {
    "snr-ref": (SNR_REF + ["--trials", "4", "--seed", "1"], ["results.csv"]),
    "grid-joint": (GRID_JOINT + ["--trials", "3", "--seed", "1"],
                   ["results.csv"]),
    "small-alpha": (["sweep-snr", "--grid", "6", "--alpha", "0.001",
                     "--methods", "fcla-j,fcla-a", "--trials", "10",
                     "--seed", "0"], ["results.csv"]),
    "solve-once": (["solve-once", "--grid", "8"],
                   ["placement.json", "paths.json", "manifest.json"]),
    "validate": (["validate"], ["stdout"]),
}


def digests(argv, outputs, out) -> dict:
    """Output -> the sha256 hex digest of its bytes, for each of outputs of
    the CLI command line argv run with the output directory out."""
    printed = io.StringIO()
    with (mock.patch.dict(os.environ, {cli.OUT_DIR_ENV: str(out)}),
          contextlib.redirect_stdout(printed)):
        if cli.parse_and_dispatch(argv) != 0:
            raise RuntimeError(f"{argv} failed")
    return {name: hashlib.sha256(
                printed.getvalue().encode() if name == "stdout"
                else (Path(out) / name).read_bytes()).hexdigest()
            for name in outputs}


def placements(argv, out) -> dict:
    """Method -> field -> each trial's value, in sweep order, from running
    the CLI sweep argv into the directory out. The fields are "columns" and
    the traces a method keeps: fcla-j's "picks" up to its iterations, and
    fcla-a's "round_columns"."""
    found: dict = {}
    solve = harness.solve

    def recording(batch, method):
        record = solve(batch, method)
        fields = found.setdefault(method, {})
        fields.setdefault("columns", []).extend(record.columns.tolist())
        if record.picks is not None:
            fields.setdefault("picks", []).extend(
                picks[:n].tolist()
                for picks, n in zip(record.picks, record.iterations))
        if record.round_columns is not None:
            fields.setdefault("round_columns", []).extend(
                record.round_columns.tolist())
        return record

    with mock.patch.object(harness, "solve", recording):
        if cli.parse_and_dispatch(argv + ["--out", str(out)]) != 0:
            raise RuntimeError(f"sweep {argv} failed")
    return found


def write_placements(path=PLACEMENTS) -> None:
    """Run every PLACEMENT_SWEEPS entry and write its placements to path,
    one line per trial's list of columns."""
    with tempfile.TemporaryDirectory() as out:
        data = {name: placements(argv, Path(out) / name)
                for name, argv in PLACEMENT_SWEEPS.items()}
    text = json.dumps(data, indent=1)
    # each innermost list of integers on one line
    text = re.sub(r"\[[\d,\s]*\]",
                  lambda m: json.dumps(json.loads(m.group())), text)
    Path(path).write_text(text + "\n")


def write_digests(path=DIGESTS) -> None:
    """Run every DIGEST_RUNS entry and write its digests to path."""
    with tempfile.TemporaryDirectory() as out:
        data = {" ".join(argv): digests(argv, outputs, Path(out) / name)
                for name, (argv, outputs) in DIGEST_RUNS.items()}
    Path(path).write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    write_placements()
    write_digests()
