import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fcla import cli, harness
from fcla.cli import _merge_dashed_values, _parse_range, parse_and_dispatch
from fcla.harness import ExperimentSpec, run_trial
from fcla.precoding import normalize_columns, rzf_objective, sinr
from goldens import (DIGEST_RUNS, DIGESTS, GOLDEN, GOLDEN_SWEEPS,
                     PLACEMENT_SWEEPS, PLACEMENTS, digests, placements)

# one small problem: solve-once solves its trial 0, a sweep 2 trials a point.
# COMMON leaves out --grid and --iters, which sweep-grid and sweep-iters do
# not take
COMMON = ["--rings", "2", "--elements", "2", "--users", "4", "--paths", "2",
          "--seed", "7"]
SHAPE = COMMON + ["--grid", "4", "--iters", "2"]
SMALL = SHAPE + ["--trials", "2"]
# what solve-once writes, and the keys of each method's placement.json object
SOLVE_ONCE_FILES = ["manifest.json", "paths.json", "placement.json"]
PLACEMENT_KEYS = ["radius", "heights", "angles", "objective", "rates",
                  "sum_rate"]
TRACE_KEYS = {"ucla": [], "fcla-j": ["picks", "pick_objectives"],
              "fcla-a": ["round_sum_rates"]}


@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEPS))
def test_results_csv_matches_golden(name, tmp_path):
    argv = GOLDEN_SWEEPS[name] + ["--out", str(tmp_path)]
    assert parse_and_dispatch(argv) == 0
    assert ((tmp_path / "results.csv").read_bytes()
            == (GOLDEN / f"{name}.csv").read_bytes())


@pytest.mark.parametrize("name", sorted(PLACEMENT_SWEEPS))
def test_placements_match_golden(name, tmp_path):
    # every trial's picks, exactly: a kernel that moves only the last bits
    # of the rates keeps them (tests/goldens.py rewrites the file)
    expected = json.loads(PLACEMENTS.read_text())[name]
    assert placements(PLACEMENT_SWEEPS[name], tmp_path) == expected


@pytest.mark.parametrize("name, jobs", [(name, []) for name in DIGEST_RUNS]
                         + [("snr-ref", ["--jobs", "2"])],
                         ids=[*DIGEST_RUNS, "snr-ref-jobs-2"])
def test_outputs_match_digests(name, jobs, tmp_path):
    # every output byte of each command line; snr-ref's 28 trials run at
    # --jobs 2 in two batches that each span SNR points, and must give the
    # bytes they give at --jobs 1 (tests/goldens.py rewrites the file)
    argv, outputs = DIGEST_RUNS[name]
    expected = json.loads(DIGESTS.read_text())[" ".join(argv)]
    assert digests(argv + jobs, outputs, tmp_path) == expected


def test_parse_range_forms():
    assert _parse_range("-6:2:6") == [-6.0, -4.0, -2.0, 0.0, 2.0, 4.0, 6.0]
    assert _parse_range("4:2:12") == [4.0, 6.0, 8.0, 10.0, 12.0]
    assert _parse_range("1,3,9") == [1.0, 3.0, 9.0]
    with pytest.raises(ValueError):
        _parse_range("1:2")
    with pytest.raises(ValueError):
        _parse_range("1:0:5")


@pytest.mark.parametrize("text, points", [
    ("8:4:15", [8.0, 12.0]),
    ("-6:4:0", [-6.0, -2.0]),
    ("0:0.3:1", [0.0, 0.3, 0.6, 0.8999999999999999]),
    ("1:1:4", [1.0, 2.0, 3.0, 4.0]),
    ("0:0.1:0.3", [0.0, 0.1, 0.2, 0.30000000000000004]),
])
def test_range_stops_at_its_stop(text, points):
    assert _parse_range(text) == points


def test_values_that_begin_with_a_negative_number_are_glued():
    argv = ["sweep-snr", "--snr", "-6:2:6", "--noise", "-1e-3", "--alpha",
            "-.5", "--kappa", "-INF", "--freq", "-nan", "--dmin=0.1", "-1",
            "--omni", "-h", "--grid", "--rings"]
    assert _merge_dashed_values(argv) == [
        "sweep-snr", "--snr=-6:2:6", "--noise=-1e-3", "--alpha=-.5",
        "--kappa=-INF", "--freq=-nan", "--dmin=0.1", "-1", "--omni", "-h",
        "--grid", "--rings"]


# a range that stops below its start, whose start, step, stop or point
# count is not finite, or whose point count is finite but far above the
# cap (0:1e-300:1 has about 1e300 points; listing them would exhaust the
# memory)
@pytest.mark.parametrize("option", [
    "--snr=4:1:0", "--snr=0:1:inf", "--snr=-inf:1:0", "--snr=0:nan:1",
    "--grid-range=-1e308:1e308:1e308", "--snr=0:1e-300:1"])
def test_range_stopping_below_its_start_is_named(option, tmp_path, capsys):
    out = tmp_path / "out"
    command = "sweep-grid" if option.startswith("--grid") else "sweep-snr"
    assert parse_and_dispatch([command, option, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "sweep_values" in err and repr(option.split("=")[1]) in err
    assert not out.exists()


def test_range_holds_at_most_the_cap():
    assert len(_parse_range(f"1:1:{cli.MAX_RANGE_POINTS}")) == cli.MAX_RANGE_POINTS
    with pytest.raises(ValueError, match=f"sweep_values range '1:1:10001' "
                                         f"holds more than 10000 points"):
        _parse_range(f"1:1:{cli.MAX_RANGE_POINTS + 1}")


def test_snr_sweep_row_count(tmp_path):
    code = parse_and_dispatch(["sweep-snr", "--out", str(tmp_path),
                               "--snr", "-6:2:6"] + SMALL)
    assert code == 0
    lines = (tmp_path / "results.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 7 * 3
    assert (tmp_path / "manifest.json").exists()


def test_manifest_round_trip_bitwise(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert parse_and_dispatch(["sweep-snr", "--out", str(first),
                               "--snr", "0:2:2"] + SMALL) == 0
    assert parse_and_dispatch(["sweep-snr", "--out", str(second),
                               "--config", str(first / "manifest.json")]) == 0
    assert ((first / "results.csv").read_bytes()
            == (second / "results.csv").read_bytes())


def test_solve_once_deterministic_traces(tmp_path):
    runs = []
    for name in ("x", "y"):
        out = tmp_path / name
        assert parse_and_dispatch(["solve-once", "--out", str(out)]
                                  + SHAPE) == 0
        runs.append(out)
    assert sorted(p.name for p in runs[0].iterdir()) == SOLVE_ONCE_FILES
    for name in SOLVE_ONCE_FILES:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
    placement = json.loads((runs[0] / "placement.json").read_text())
    assert {method: list(entry) for method, entry in placement.items()} == {
        method: PLACEMENT_KEYS + keys for method, keys in TRACE_KEYS.items()}


def test_solve_once_single_method(tmp_path):
    # a method's object holds the traces its own record keeps, and no other
    for method, keys in TRACE_KEYS.items():
        out = tmp_path / method
        assert parse_and_dispatch(["solve-once", "--methods", method,
                                   "--out", str(out)] + SHAPE) == 0
        assert sorted(p.name for p in out.iterdir()) == SOLVE_ONCE_FILES
        placement = json.loads((out / "placement.json").read_text())
        assert list(placement) == [method]
        assert list(placement[method]) == PLACEMENT_KEYS + keys


def test_grid_sweep(tmp_path):
    assert parse_and_dispatch(["sweep-grid", "--out", str(tmp_path),
                               "--grid-range", "4:2:6", "--iters", "2",
                               "--trials", "2"] + COMMON) == 0
    lines = (tmp_path / "results.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 3


def test_iters_sweep(tmp_path):
    assert parse_and_dispatch(["sweep-iters", "--out", str(tmp_path),
                               "--iters-range", "1:1:3", "--grid", "4",
                               "--methods", "fcla-a", "--trials", "2"]
                              + COMMON) == 0
    lines = (tmp_path / "results.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 3


def test_omni_flag_lands_in_manifest(tmp_path):
    assert parse_and_dispatch(["sweep-snr", "--out", str(tmp_path),
                               "--snr", "0,2", "--omni"] + SMALL) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["pattern_kind"] == "omni"


def test_invalid_grid_rejected(tmp_path, capsys):
    code = parse_and_dispatch(["sweep-snr", "--out", str(tmp_path),
                               "--rings", "4", "--elements", "4",
                               "--grid", "3", "--trials", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_zero_forcing_rejected_for_greedy_methods(tmp_path, capsys):
    code = parse_and_dispatch(["sweep-snr", "--out", str(tmp_path),
                               "--snr", "0", "--alpha", "0"] + SMALL)
    assert code == 2
    assert "alpha" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


def test_solve_once_checks_alpha_for_the_method_that_runs(tmp_path, capsys):
    out = tmp_path / "once"
    code = parse_and_dispatch(["solve-once", "--alpha", "0", "--methods",
                               "fcla-j", "--out", str(out)] + SHAPE)
    assert code == 2
    assert "alpha" in capsys.readouterr().err
    assert not out.exists()


def test_solve_once_rejects_an_snr_whose_power_overflows(tmp_path, capsys):
    out = tmp_path / "once"
    assert parse_and_dispatch(["solve-once", "--snr", "4000", "--out",
                               str(out)] + SHAPE) == 2
    assert capsys.readouterr().err.startswith("error: snr_db must be")
    assert not out.exists()


def test_solve_once_whose_trial_fails_writes_nothing(tmp_path, capsys):
    # zero forcing with one element per ring: the trial's Gram matrix is
    # singular, so the method fails after the spec has passed
    out = tmp_path / "out"
    assert parse_and_dispatch(["solve-once", "--methods", "ucla", "--alpha",
                               "0", "--elements", "1", "--users", "4",
                               "--paths", "1", "--seed", "1",
                               "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: Gram matrix is singular")
    assert not out.exists()


def test_zero_forcing_runs_for_ucla(tmp_path):
    assert parse_and_dispatch(["sweep-snr", "--out", str(tmp_path),
                               "--snr", "0", "--alpha", "0",
                               "--methods", "ucla"] + SMALL) == 0
    lines = (tmp_path / "results.csv").read_text().strip().splitlines()
    assert len(lines) == 2 and lines[1].startswith("ucla,")


def test_bad_config_file_rejected(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    out = tmp_path / "out"
    code = parse_and_dispatch(["sweep-snr", "--config", str(cfg),
                               "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"error: config file {cfg}: Expecting property name")
    assert not out.exists()


def test_config_file_repeating_a_key_rejected_by_name(tmp_path, capsys):
    # json keeps the last of a repeated key; the file is refused instead
    cfg = tmp_path / "config.json"
    cfg.write_text('{"trials": 3, "seed": 2, "trials": 4, "seed": 5}')
    out = tmp_path / "out"
    assert parse_and_dispatch(["sweep-snr", "--config", str(cfg),
                               "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: config file {cfg}: repeats key(s) 'seed', 'trials'\n")
    assert not out.exists()


@pytest.mark.parametrize("command, work", [("sweep-snr", "run_sweep"),
                                           ("solve-once", "draw_batch")])
@pytest.mark.parametrize("source", ["--out", cli.OUT_DIR_ENV])
@pytest.mark.parametrize("below", ["", "sub/dir"])
def test_output_path_blocked_by_a_file_named_before_any_work(
        command, work, source, below, tmp_path, capsys, monkeypatch):
    # a file at the output path, or on the way to it: the run fails before
    # its first trial, names where the path came from and makes nothing
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / below

    def no_work(*args):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(cli, work, no_work)
    argv = [command] + SHAPE
    if source == "--out":
        argv += ["--out", str(out)]
    else:
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(out))
    assert parse_and_dispatch(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {source} {out}")
    assert list(tmp_path.iterdir()) == [blocker]
    assert blocker.read_text() == ""


@pytest.mark.parametrize("content, found", [("[1, 2]", "list"),
                                            ("null", "null"), ('"x"', "str")])
def test_config_that_is_not_an_object_rejected_by_name(content, found,
                                                       tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(content)
    out = tmp_path / "out"
    code = parse_and_dispatch(["sweep-snr", "--config", str(cfg),
                               "--out", str(out)] + SMALL)
    assert code == 2
    assert (f"config file {cfg} must hold a JSON object of spec fields, "
            f"got {found}") in capsys.readouterr().err
    assert not out.exists()


def test_unknown_pattern_kind_in_config_rejected_by_name(tmp_path, capsys):
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({"pattern_kind": "omnii"}))
    out = tmp_path / "out"
    code = parse_and_dispatch(["sweep-snr", "--config", str(cfg),
                               "--out", str(out)] + SMALL)
    assert code == 2
    assert "pattern_kind" in capsys.readouterr().err
    assert not out.exists()


def test_validate_passes(capsys):
    assert parse_and_dispatch(["validate"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 5
    (oracle,) = [line for line in out.splitlines() if "exhaustive" in line]
    assert re.search(r"fcla-j [\d.]+% / [\d.]+%, fcla-a [\d.]+% / [\d.]+%",
                     oracle)


def test_solve_once_manifest_replays_its_snr(tmp_path, capsys):
    first, second = tmp_path / "a", tmp_path / "b"
    assert parse_and_dispatch(["solve-once", "--snr", "6", "--out", str(first)]
                              + SHAPE) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["snr_db"] == 6.0
    assert parse_and_dispatch(["solve-once", "--out", str(second), "--config",
                               str(first / "manifest.json")]) == 0
    assert capsys.readouterr().out.count("snr 6 dB") == 2
    for name in SOLVE_ONCE_FILES:
        assert (first / name).read_bytes() == (second / name).read_bytes()


@pytest.mark.parametrize("method", sorted(harness.METHOD_TABLE))
def test_solve_once_method_manifest_replays_it(method, tmp_path, capsys):
    first, second = tmp_path / "a", tmp_path / "b"
    assert parse_and_dispatch(["solve-once", "--methods", method,
                               "--out", str(first)] + SHAPE) == 0
    assert parse_and_dispatch(["solve-once", "--out", str(second), "--config",
                               str(first / "manifest.json")]) == 0
    # a header and one method line per run
    assert len(capsys.readouterr().out.splitlines()) == 4
    names = sorted(p.name for p in first.iterdir())
    assert names == SOLVE_ONCE_FILES
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


@pytest.mark.parametrize("command", ["solve-once", "sweep-grid", "sweep-iters"])
@pytest.mark.parametrize("snr", ["-6:2:6", "0,2"])
def test_operating_snr_rejects_ranges(command, snr, tmp_path, capsys):
    code = parse_and_dispatch([command, "--snr", snr, "--out", str(tmp_path)]
                              + COMMON)
    assert code == 2
    assert "--snr" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("flag, named", [(["--jobs", "0"], "jobs"),
                                         (["--jobs", "-1"], "jobs"),
                                         (["--alpha", "mmsee"], "'mmsee'")])
def test_bad_value_named_before_any_work(flag, named, tmp_path, capsys,
                                         monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
    code = parse_and_dispatch(["sweep-snr", "--snr", "0", "--out",
                               str(tmp_path)] + flag + SMALL)
    assert code == 2
    err = capsys.readouterr().err
    assert named in err and flag[0].strip("-") in err
    assert not (tmp_path / "results.csv").exists()


def test_numeric_alpha_lands_in_manifest_as_a_float(tmp_path):
    assert parse_and_dispatch(["sweep-snr", "--snr", "0", "--alpha", "2",
                               "--out", str(tmp_path)] + SMALL) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["alpha"] == 2.0 and isinstance(manifest["alpha"], float)


def test_method_choices_are_the_method_table(tmp_path, capsys):
    assert parse_and_dispatch(["solve-once", "--methods", "genie",
                               "--out", str(tmp_path)]) == 2
    listed = re.search(r"choose from \((.*)\)", capsys.readouterr().err).group(1)
    assert [m.strip("'") for m in listed.split(", ")] == list(
        harness.METHOD_TABLE)


def test_solve_once_lists_no_method_option(capsys):
    with pytest.raises(SystemExit):
        parse_and_dispatch(["solve-once", "--help"])
    help_text = capsys.readouterr().out
    assert "--methods" in help_text and not re.search(r"--method\b", help_text)


def test_solve_once_takes_no_trials_or_jobs(tmp_path, capsys):
    # it solves trial 0 in its own process; only the sweeps take --trials
    # and --jobs
    with pytest.raises(SystemExit):
        parse_and_dispatch(["solve-once", "--help"])
    help_text = capsys.readouterr().out
    assert "--trials" not in help_text and "--jobs" not in help_text
    for flag in ("--trials", "--jobs"):
        with pytest.raises(SystemExit) as exit_info:
            parse_and_dispatch(["solve-once", flag, "3", "--out",
                                str(tmp_path / "out")])
        assert exit_info.value.code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flag", [("sweep-grid", "--grid"),
                                           ("sweep-iters", "--iters")])
def test_sweep_takes_no_flag_for_the_field_it_ranges_over(command, flag,
                                                          tmp_path, capsys):
    # its range flag sets the points; a lone value would be ignored
    with pytest.raises(SystemExit):
        parse_and_dispatch([command, "--help"])
    assert f"{flag} " not in capsys.readouterr().out
    with pytest.raises(SystemExit) as exit_info:
        parse_and_dispatch([command, flag, "4", "--out",
                            str(tmp_path / "out")] + COMMON)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} 4" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, field, value", [
    ("sweep-grid", "grid_size", 9), ("sweep-iters", "outer_iters", 9)])
def test_sweep_keeps_a_config_s_field_it_ranges_over(command, field, value,
                                                     tmp_path):
    # a manifest records every spec field, so it must still load
    config = tmp_path / "config.json"
    config.write_text(json.dumps({field: value}))
    out = tmp_path / "out"
    assert parse_and_dispatch([command, "--config", str(config), "--out",
                               str(out), "--methods", "fcla-a", "--trials",
                               "1"] + COMMON) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest[field] == value


def test_solve_once_loads_a_config_s_trials_and_jobs(tmp_path):
    # they are spec fields, so the manifest keeps them for a sweep's replay
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"trials": 3, "jobs": 2}))
    assert parse_and_dispatch(["solve-once", "--config", str(config),
                               "--out", str(tmp_path / "out")] + SHAPE) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert (manifest["trials"], manifest["jobs"]) == (3, 2)


def test_validate_takes_no_options(tmp_path):
    with pytest.raises(SystemExit) as exit_info:
        parse_and_dispatch(["validate", "--out", str(tmp_path)])
    assert exit_info.value.code == 2


@pytest.mark.parametrize("method", sorted(harness.METHOD_TABLE))
def test_solve_once_rate_is_the_sweep_rate(method, tmp_path, monkeypatch):
    solved = {}

    def recording(batch, methods):
        solved.update(harness.solve_methods(batch, methods))
        return solved

    monkeypatch.setattr(cli, "solve_methods", recording)
    assert parse_and_dispatch(["solve-once", "--methods", method, "--snr", "3",
                               "--out", str(tmp_path)] + SHAPE) == 0
    record = solved[method]
    spec = ExperimentSpec.from_dict(
        json.loads((tmp_path / "manifest.json").read_text()))
    assert spec.methods == (method,)
    F = normalize_columns(record.F[0], spec.power_for_snr(spec.snr_db))
    rate = run_trial(spec, 0, [0])[0, 0, 0]
    assert rate == sinr(record.H_star[0], F, spec.noise_power).sum()
    placement = json.loads((tmp_path / "placement.json").read_text())
    assert list(placement) == [method]
    assert placement[method]["sum_rate"] == rate


def test_placement_is_each_record_s_grid_positions(tmp_path, monkeypatch):
    # placement.json holds, per method, the positions of its record's
    # columns on the dictionary it placed on, which its radius names
    solved, built = {}, []
    build = harness.build_joint_dictionary

    def recording(batch, methods):
        solved.update(harness.solve_methods(batch, methods))
        return solved

    def building(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(cli, "solve_methods", recording)
    monkeypatch.setattr(harness, "build_joint_dictionary", building)
    assert parse_and_dispatch(["solve-once", "--out", str(tmp_path)]
                              + SHAPE) == 0
    spec = ExperimentSpec.from_dict(
        json.loads((tmp_path / "manifest.json").read_text()))
    config = spec.config_for_grid(spec.grid_size)
    placement = json.loads((tmp_path / "placement.json").read_text())
    assert list(placement) == list(spec.methods)
    dictionaries = {d.config.radius: d for d in built}
    for method, entry in placement.items():
        record, d = solved[method], dictionaries[entry["radius"]]
        (columns,), (slots,) = record.columns, record.slots
        for m, slot in enumerate(slots):
            ring = [c for c in columns if c // d.config.g_h == slot]
            assert entry["heights"][m] == d.z[ring[0]]
            assert entry["angles"][m] == d.psi[ring].tolist()
        assert entry["objective"] == rzf_objective(
            record.H_star, record.F, spec.alpha_value())[0]
        assert len(entry["rates"]) == spec.users
        assert np.sum(entry["rates"]) == entry["sum_rate"]
    assert placement["fcla-j"]["radius"] == config.radius
    # the uniform array: M rings of N elements spaced 2*pi/N, on the
    # compact radius
    ucla = placement["ucla"]
    assert ucla["radius"] == harness.ucla_config(config).radius
    assert ucla["radius"] != config.radius
    angles = np.array(ucla["angles"])
    assert angles.shape == (spec.rings, spec.elements)
    assert np.allclose(np.diff(angles, axis=1), 2.0 * np.pi / spec.elements)
    assert len(set(ucla["heights"])) == spec.rings


def test_fcla_a_trace_is_the_iteration_sweep_rate(tmp_path):
    # solve-once's per-round rates and the iteration sweep's come from one
    # rating path: at the same spec with every round requested, trial 0 of
    # point 0 rates as fcla-a's round_sum_rates, the last of them its sum_rate
    assert parse_and_dispatch(["solve-once", "--snr", "3", "--out",
                               str(tmp_path)] + SHAPE) == 0
    spec = ExperimentSpec.from_dict(
        json.loads((tmp_path / "manifest.json").read_text()))
    rounds = range(1, spec.outer_iters + 1)
    point = dataclasses.replace(spec, sweep_kind="iters",
                                sweep_values=tuple(rounds))
    rates = run_trial(point, 0, [0])[0, spec.methods.index("fcla-a")]
    placement = json.loads((tmp_path / "placement.json").read_text())["fcla-a"]
    assert placement["round_sum_rates"] == rates.tolist()
    assert placement["round_sum_rates"][-1] == placement["sum_rate"]


def test_fcla_j_trace_is_the_record_s_picks(tmp_path, monkeypatch):
    # fcla-j's picks and their objectives, in pick order, up to the steps
    # its trial made
    solved = {}

    def recording(batch, methods):
        solved.update(harness.solve_methods(batch, methods))
        return solved

    monkeypatch.setattr(cli, "solve_methods", recording)
    assert parse_and_dispatch(["solve-once", "--methods", "fcla-j", "--out",
                               str(tmp_path)] + SHAPE) == 0
    record = solved["fcla-j"]
    made = record.iterations[0]
    placement = json.loads((tmp_path / "placement.json").read_text())["fcla-j"]
    assert placement["picks"] == record.picks[0, :made].tolist()
    assert placement["pick_objectives"] == (
        record.pick_objectives[0, :made].tolist())
    assert len(placement["picks"]) == made > 0


def test_unservable_user_keeps_every_ucla_trial(tmp_path, capsys):
    # one directional element: some users see no channel at all
    assert parse_and_dispatch(["sweep-snr", "--rings", "1", "--elements", "1",
                               "--users", "4", "--paths", "2", "--grid", "4",
                               "--trials", "20", "--snr", "0",
                               "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "results.csv").read_text().strip().splitlines()
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["20"] * 3
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command, flags, field", [
    ("sweep-iters", ["--methods", "ucla"], "methods"),
    ("sweep-iters", ["--iters-range", "0:1:2"], "sweep_values"),
    ("sweep-grid", ["--grid-range", "2,12"], "sweep_values"),
    ("sweep-grid", ["--grid-range", ""], "sweep_values"),
    ("sweep-iters", ["--iters-range", ""], "sweep_values"),
    ("sweep-grid", ["--grid-range", "4,b"], "sweep_values"),
    ("sweep-grid", ["--grid-range", "-4:2:12"], "sweep_values"),
    ("sweep-iters", ["--iters-range", "-1:1:3"], "sweep_values"),
], ids=["iters-without-fcla-a", "zero-rounds", "grid-too-small",
        "empty-grid-range", "empty-iters-range", "non-numeric-grid-range",
        "negative-grid-range", "negative-iters-range"])
def test_bad_sweep_point_rejected_before_output(command, flags, field,
                                                tmp_path, capsys):
    out = tmp_path / "out"
    assert parse_and_dispatch([command, "--out", str(out)] + flags) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


BAD_SPEC_VALUES = [
    (["--users", "0"], {}, "users"),
    (["--paths", "0"], {}, "paths"),
    (["--rings", "0"], {}, "rings"),
    (["--elements", "0"], {}, "elements"),
    (["--grid", "0"], {}, "grid_size"),
    (["--trials", "0"], {}, "trials"),
    (["--seed", "-1"], {}, "seed"),
    (["--iters", "0", "--methods", "fcla-a"], {}, "outer_iters"),
    (["--noise", "0", "--methods", "ucla", "--alpha", "1"], {}, "noise_power"),
    (["--freq", "0"], {}, "frequency_hz"),
    ([], {"seed": 1.5}, "seed"),
    ([], {"rings": 2.5}, "rings"),
    ([], {"trials": "5"}, "trials"),
    ([], {"trials": 2.5}, "trials"),
    ([], {"jobs": True}, "jobs"),
    ([], {"grid_size": 6.5}, "grid_size"),
    ([], {"noise_power": "1", "methods": ["ucla"]}, "noise_power"),
    (["--snr=nan"], {}, "sweep_values"),
    (["--snr=inf,0"], {}, "sweep_values"),
    (["--snr", ""], {}, "sweep_values"),
    (["--snr", "0,a"], {}, "sweep_values"),
    (["--snr", "1:x:3"], {}, "sweep_values"),
    # a repeated point, in each command's own range flag
    (["--snr", "0,0"], {}, "sweep_values"),
    (["--grid-range", "6,6"], {}, "sweep_values"),
    (["--iters-range", "3,3"], {}, "sweep_values"),
    ([], {"snr_db": float("nan")}, "snr_db"),
    ([], {"snr_db": "3"}, "snr_db"),
    (["--noise", "inf", "--methods", "ucla"], {}, "noise_power"),
    (["--freq", "inf"], {}, "frequency_hz"),
    (["--dmin", "0"], {}, "d_min"),
    ([], {"d_min": "0.05"}, "d_min"),
    (["--kappa", "0.5"], {}, "kappa"),
    ([], {"kappa": "2"}, "kappa"),
    ([], {"methods": "ucla,fcla-j"}, "methods"),
    (["--alpha", "nan", "--methods", "ucla"], {}, "alpha"),
    (["--alpha", "-1", "--methods", "ucla"], {}, "alpha"),
    (["--alpha", "inf"], {}, "alpha"),
    (["--methods", ","], {}, "methods"),
    (["--methods", ""], {}, "methods"),
    ([], {"methods": []}, "methods"),
    (["--methods", "ucla,UCLA"], {}, "methods"),
    # dashed values reach the spec, which names their field
    (["--noise", "-1e-3"], {}, "noise_power"),
    (["--freq", "-3e9"], {}, "frequency_hz"),
    (["--kappa", "-2e0"], {}, "kappa"),
    (["--alpha", "-1e-3"], {}, "alpha"),
    (["--snr", "-inf"], {}, "sweep_values"),
    (["--noise", "-nan"], {}, "noise_power"),
    # the default alpha "mmse" is the noise power, which is named first
    (["--noise", "0"], {}, "noise_power"),
    (["--noise", "-1"], {}, "noise_power"),
    # finite values whose derived values overflow: the transmit power, the
    # pattern factor 2 (kappa + 1), the wavelength, the responses' phases,
    # and the greedy state's start I / alpha
    (["--snr", "4000"], {}, "sweep_values"),
    (["--snr", "0,4000"], {}, "sweep_values"),
    (["--grid-range", "6,8", "--snr", "4000"], {}, "snr_db"),
    ([], {"snr_db": 4000}, "snr_db"),
    (["--kappa", "1e308"], {}, "kappa"),
    (["--freq", "1e-300"], {}, "frequency_hz"),
    (["--freq", "1e-299", "--grid", "24"], {}, "frequency_hz"),
    (["--dmin", "1e308"], {}, "d_min"),
    (["--grid-range", "6,24", "--dmin", "1e306"], {}, "d_min"),
    (["--alpha", "1e-320"], {}, "alpha"),
    (["--alpha", "1e-200", "--methods", "fcla-a"], {}, "alpha"),
    (["--noise", "1e-320"], {}, "noise_power"),
]


@pytest.mark.parametrize("flags, config, field", BAD_SPEC_VALUES,
                         ids=[" ".join(flags) or json.dumps(config)
                              for flags, config, _ in BAD_SPEC_VALUES])
def test_bad_spec_value_named_before_output(flags, config, field, tmp_path,
                                            capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    # the sweep whose range flag the flags set, else sweep-snr; --snr 0 is
    # sweep-snr's one point, or the other sweeps' operating SNR
    command = next((name for name, _, flag, *_ in cli.SWEEPS.values()
                    if flags[:1] == [flag]), "sweep-snr")
    assert parse_and_dispatch([command, "--snr", "0", "--config",
                               str(path), "--out", str(out)] + flags) == 2
    assert capsys.readouterr().err.startswith(f"error: {field} must be")
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--dmin", "1e300"], ["--freq", "1e-299"], ["--kappa", "1e300"],
    ["--alpha", "1e-150"], ["--snr", "3000"], ["--alpha", "1e160"]])
def test_large_finite_spec_runs(flags, tmp_path):
    # values just inside the spec's bounds run to finite rates
    out = tmp_path / "out"
    assert parse_and_dispatch(["sweep-snr", "--snr", "0", "--out", str(out)]
                              + SMALL + flags) == 0
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    assert all(np.isfinite(float(row.split(",")[3])) for row in rows)


@pytest.mark.parametrize("flags, field", [
    # |a|^2 / alpha^2 overflows for rows of |a|^2 above about 1.8
    (["--alpha", "1e-154"], "alpha"),
    # |a|^2 / alpha^2 underflows to 0
    (["--alpha", "1e200"], "alpha"),
    (["--noise", "1e200"], "noise_power"),  # alpha of the mmse rule
], ids=["alpha-1e-154", "alpha-1e200", "noise-1e200"])
def test_solve_once_names_an_alpha_whose_scores_leave_the_range(
        flags, field, tmp_path, capsys):
    # within the spec's bounds, but the greedy scores of these rows are out
    # of floating-point range; nothing is written
    out = tmp_path / "out"
    assert parse_and_dispatch(["solve-once", "--out", str(out)] + SHAPE
                              + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be") and err.count("\n") == 1
    assert not out.exists()


def test_huge_alpha_precoder_is_rated(tmp_path):
    # at alpha 1e200 the RZF precoder's entries are near 1e-200, whose
    # squares underflow; it is the matched filter as at 1e100, and rated so
    rates = {}
    for alpha in ("1e100", "1e200"):
        out = tmp_path / alpha
        assert parse_and_dispatch(["solve-once", "--methods", "ucla",
                                   "--alpha", alpha, "--out", str(out)]
                                  + SHAPE) == 0
        placement = json.loads((out / "placement.json").read_text())
        rates[alpha] = placement["ucla"]["rates"]
    assert min(rates["1e200"]) > 0.0
    assert np.allclose(rates["1e200"], rates["1e100"], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("values", [5, None])
def test_config_sweep_values_not_a_list_named_before_output(values, tmp_path,
                                                            capsys):
    # without --snr, which would replace the config's points
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"sweep_kind": "snr", "sweep_values": values}))
    out = tmp_path / "out"
    assert parse_and_dispatch(["sweep-snr", "--config", str(path),
                               "--out", str(out)]) == 2
    assert "sweep_values must be" in capsys.readouterr().err
    assert not out.exists()


def test_fractional_grid_sweep_value_named_before_output(tmp_path, capsys):
    out = tmp_path / "out"
    assert parse_and_dispatch(["sweep-grid", "--grid-range", "6.5,8",
                               "--out", str(out)]) == 2
    assert "sweep_values" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_point_with_every_trial_failed_exits_2(jobs, tmp_path, capsys):
    # zero forcing with one element per ring: every trial's Gram matrix is
    # singular, so the point has no row to write, and no output directory
    # is made
    out = tmp_path / "out"
    assert parse_and_dispatch(["sweep-snr", "--methods", "ucla", "--alpha",
                               "0", "--elements", "1", "--users", "4",
                               "--paths", "1", "--trials", "20", "--snr", "0",
                               "--seed", "1", "--jobs", jobs,
                               "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: all 20 trial(s) at snr=0 failed; the first "
                          "with SingularMatrixError(")
    assert err.count("\n") == 1
    assert not out.exists()


def sweep_rows(argv, out):
    """The bytes of results.csv from running argv into out."""
    assert parse_and_dispatch(argv + ["--out", str(out)]) == 0
    return (out / "results.csv").read_bytes()


def test_finished_fcla_j_trials_retire_alike_in_any_batch(tmp_path):
    # at --jobs 1 each grid's 12 trials run as one batch, at --jobs 2 as two
    # of 6, so trials leave their batches in other orders
    argv = ["sweep-grid", "--grid-range", "16,24", "--omni", "--methods",
            "ucla,fcla-j", "--snr", "0", "--trials", "12"]
    assert (sweep_rows(argv + ["--jobs", "1"], tmp_path / "serial")
            == sweep_rows(argv + ["--jobs", "2"], tmp_path / "pooled"))


def test_pooled_batches_spanning_points_match_serial(tmp_path):
    # at --jobs 2 the 3 SNR points' 9 trials run as batches of 5 and 4, each
    # spanning two points, so each trial is rated at its own point's power;
    # the rows must match the serial run's, one batch of 9
    argv = ["sweep-snr", "--snr=-3:3:3", "--trials", "3"] + SHAPE
    pooled = harness._batches(ExperimentSpec(
        rings=2, elements=2, users=4, paths=2, grid_size=4, trials=3,
        jobs=2), range(3))
    assert [[p for p, _ in batch] for batch in pooled] == [[0, 0, 0, 1, 1],
                                                           [1, 2, 2, 2]]
    assert (sweep_rows(argv + ["--jobs", "1"], tmp_path / "serial")
            == sweep_rows(argv + ["--jobs", "2"], tmp_path / "pooled"))


def test_fcla_a_does_not_see_fcla_j_s_retirements(tmp_path):
    # fcla-j's finished trials swap their rows in the shared dictionary until
    # its solve puts them back; fcla-a, solved after it on that dictionary,
    # must rate as it does alone. One trial a point makes each row one
    # trial's rate, so rows left swapped among trials move it; the 12
    # points' trials run as one batch, in which fcla-j retires trials at
    # different steps
    argv = ["sweep-snr", "--snr=-6:1:5", "--grid", "16", "--omni",
            "--trials", "1", "--methods"]

    def fcla_a_rows(methods):
        rows = sweep_rows(argv + [methods], tmp_path / methods)
        return [line for line in rows.splitlines(keepends=True)
                if line.startswith(b"fcla-a,")]

    assert fcla_a_rows("fcla-j,fcla-a") == fcla_a_rows("fcla-a")


def test_half_the_frequency_changes_no_result(tmp_path):
    # at the default spacing floor of lambda/2, halving the carrier
    # frequency doubles lambda, the radius and every height, which leaves
    # every phase bit for bit as it was; an absolute length or tolerance
    # anywhere in the pipeline moves the rows
    argv = ["sweep-snr", "--grid", "8", "--trials", "6", "--freq"]
    assert (sweep_rows(argv + ["3e9"], tmp_path / "3e9")
            == sweep_rows(argv + ["1.5e9"], tmp_path / "1.5e9"))


def test_one_and_two_blas_threads_agree(tmp_path):
    # the response builder's products and fcla-j's and fcla-a's score
    # carries are BLAS calls, which BLAS may split across threads; the
    # picks, and so the rows, must not move. OpenBLAS reads its thread
    # count once, when numpy loads, so each count runs in its own process
    argv = ["sweep-grid", "--grid-range", "8,24", "--omni", "--methods",
            "ucla,fcla-j,fcla-a", "--snr", "0", "--trials", "6"]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    rows = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        subprocess.run([sys.executable, "-m", "fcla.cli", *argv,
                        "--out", str(out)],
                       env={**env, "OPENBLAS_NUM_THREADS": threads},
                       check=True, capture_output=True)
        rows.append((out / "results.csv").read_bytes())
    assert rows[0] == rows[1]

