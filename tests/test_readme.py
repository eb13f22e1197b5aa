"""README's code runs as written."""

import csv
import re
from pathlib import Path

from fcla import cli, harness

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text()
    block = re.search(r"^```python\n(.*?)^```$", text, re.S | re.M)
    # the first python block is the one of the "Library quick start" section
    section = text[:block.start()].rsplit("\n## ", 1)[-1]
    assert section.startswith("Library quick start")
    exec(compile(block.group(1), f"{README.name} quick start", "exec"), {})
    assert capsys.readouterr().out


def test_batch_caps_are_the_budget():
    # the caps README gives per grid size are what the harness's budget
    # allows the default spec (the reference scale)
    text = " ".join(README.read_text().split())
    sentence = re.search(r"caps a batch at [^.]*\.", text).group(0)
    caps = {int(grid): int(cap) for cap, grid in re.findall(
        r"(\d+) (?:trials )?on (?:an )?(\d+)x\2", sentence)}
    assert sorted(caps) == [8, 12, 16, 24, 32]
    for grid_size, cap in caps.items():
        for trials, n_batches in ((cap, 1), (cap + 1, 2)):
            spec = harness.ExperimentSpec(grid_size=grid_size, trials=trials)
            assert len(harness._batches(spec, [0])) == n_batches, grid_size


def test_validate_prints_readme_s_oracle_gaps(capsys):
    # the median gaps README quotes are those `fcla validate` prints
    text = " ".join(README.read_text().split())
    quoted = re.search(r"`fcla-j` ([\d.]+)% objective gap and ([\d.]+)% "
                       r"sum-rate shortfall, `fcla-a` ([\d.]+)% and ([\d.]+)%",
                       text).groups()
    assert cli.parse_and_dispatch(["validate"]) == 0
    printed = re.search(r"fcla-j ([\d.]+)% / ([\d.]+)%, "
                        r"fcla-a ([\d.]+)% / ([\d.]+)%",
                        capsys.readouterr().out).groups()
    assert printed == quoted


def test_alpha_sweep_gives_readme_s_rates(tmp_path):
    # the sum rates README quotes at three regularizations are those its
    # own sweeps print to two decimals, and fcla-a leads at every one
    text = " ".join(README.read_text().split())
    command = "fcla sweep-snr --snr 0 --seed 1 --trials 100 --alpha A"
    assert command in text
    rate = r"([\d.]+) / ([\d.]+) / ([\d.]+)"
    quoted = re.search(rf"sum rates are {rate} bits at α = σ² \(the "
                       rf"default\), {rate} at α = 4 and {rate} at α = 16",
                       text).groups()
    for i, alpha in enumerate(("mmse", "4", "16")):
        out = tmp_path / alpha
        assert cli.parse_and_dispatch(
            command.split()[1:-1] + [alpha, "--out", str(out)]) == 0
        with open(out / "results.csv") as f:
            rates = {row["method"]: float(row["mean_sum_rate_bits"])
                     for row in csv.DictReader(f)}
        printed = [f"{rates[m]:.2f}" for m in ("ucla", "fcla-j", "fcla-a")]
        assert printed == list(quoted[3 * i:3 * i + 3]), alpha
        assert max(rates, key=rates.get) == "fcla-a", alpha


def test_solve_once_writes_readme_s_placement(tmp_path):
    # README's placement.json excerpt is the file its own command writes:
    # each run of lines between "..." elisions is in the file, in order
    text = README.read_text()
    command = "fcla solve-once --methods fcla-j --grid 8 --out runs/once"
    assert command in text
    excerpt = re.search(r"^```json\n(.*?)^```$", text, re.S | re.M).group(1)
    out = tmp_path / "once"
    assert cli.parse_and_dispatch(command.split()[1:-1] + [str(out)]) == 0
    written = (out / "placement.json").read_text()
    at = 0
    for chunk in re.split(r"^ *\.\.\.\n", excerpt, flags=re.M):
        at = written.index(chunk.strip("\n"), at) + len(chunk.strip("\n"))
