"""Fixed-seed sweeps whose outputs are checked in under tests/golden.

Each GOLDEN_SWEEPS entry's results.csv is kept byte for byte in
golden/<name>.csv. Its means are printed with repr, so they move with the
last bit of any dictionary entry even when no pick moves. placements.json
holds the integers behind them: each trial's placement per method on those
sweeps and on the benchmark's two CLI shapes, compared exactly, so it moves
only when a pick does. Rewrite placements.json from the current tree with

    PYTHONPATH=src python tests/goldens.py
"""

from __future__ import annotations

import json
import re
import tempfile
from pathlib import Path
from unittest import mock

from fcla import cli, harness

GOLDEN = Path(__file__).parent / "golden"
PLACEMENTS = GOLDEN / "placements.json"
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


if __name__ == "__main__":
    write_placements()
