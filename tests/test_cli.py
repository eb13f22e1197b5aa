import csv
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from fcla import cli, harness
from fcla.cli import _merge_dashed_values, _parse_range, parse_and_dispatch
from fcla.harness import ExperimentSpec, run_trial
from fcla.precoding import normalize_columns, sinr

SMALL = ["--rings", "2", "--elements", "2", "--users", "4", "--paths", "2",
         "--grid", "4", "--trials", "2", "--seed", "7", "--iters", "2"]


GOLDEN = Path(__file__).parent / "golden"
# fixed-seed sweeps of all three methods with directional elements; a
# refactor keeps the expected CSVs byte-exact. The SNR and grid CSVs were
# last regenerated when responses became an angle factor times a height
# factor (last-bit changes, named in CHANGES.md); the iteration CSV was
# added later from unchanged rates
GOLDEN_SWEEPS = {
    "sweep-snr": ["--snr", "-4,4", "--grid", "6", "--seed", "11"],
    "sweep-grid": ["--grid-range", "6,8", "--snr", "0", "--seed", "12"],
    "sweep-iters": ["--iters-range", "1,3", "--snr", "0", "--grid", "6",
                    "--seed", "13"],
}
GOLDEN_SHAPE = ["--rings", "3", "--elements", "2", "--users", "6", "--paths",
                "3", "--iters", "3", "--trials", "20"]


@pytest.mark.parametrize("command", sorted(GOLDEN_SWEEPS))
def test_results_csv_matches_golden(command, tmp_path):
    argv = [command, "--out", str(tmp_path)] + GOLDEN_SWEEPS[command] + GOLDEN_SHAPE
    assert parse_and_dispatch(argv) == 0
    assert ((tmp_path / "results.csv").read_bytes()
            == (GOLDEN / f"{command}.csv").read_bytes())


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


def test_range_stopping_below_its_start_is_named(tmp_path, capsys):
    out = tmp_path / "out"
    assert parse_and_dispatch(["sweep-snr", "--snr", "4:1:0",
                               "--out", str(out)]) == 2
    assert "'4:1:0'" in capsys.readouterr().err
    assert not out.exists()


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
                                  + SMALL) == 0
        runs.append(out)
    for trace in ("fcla_j_trace.csv", "fcla_a_trace.csv", "paths.json",
                  "placement.json"):
        assert (runs[0] / trace).read_bytes() == (runs[1] / trace).read_bytes()


def test_solve_once_single_method(tmp_path):
    out = tmp_path / "j"
    assert parse_and_dispatch(["solve-once", "--methods", "fcla-j",
                               "--out", str(out)] + SMALL) == 0
    assert (out / "fcla_j_trace.csv").exists()
    assert not (out / "fcla_a_trace.csv").exists()
    header = (out / "fcla_j_trace.csv").read_text().splitlines()[0]
    assert header == "iter,selected_g,group,objective"


def test_grid_sweep(tmp_path):
    assert parse_and_dispatch(["sweep-grid", "--out", str(tmp_path),
                               "--grid-range", "4:2:6"] + SMALL) == 0
    lines = (tmp_path / "results.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 3


def test_iters_sweep(tmp_path):
    assert parse_and_dispatch(["sweep-iters", "--out", str(tmp_path),
                               "--iters-range", "1:1:3",
                               "--methods", "fcla-a"] + SMALL) == 0
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
                               "fcla-j", "--out", str(out)] + SMALL)
    assert code == 2
    assert "alpha" in capsys.readouterr().err
    assert not (out / "paths.json").exists()


def test_zero_forcing_runs_for_ucla(tmp_path):
    assert parse_and_dispatch(["sweep-snr", "--out", str(tmp_path),
                               "--snr", "0", "--alpha", "0",
                               "--methods", "ucla"] + SMALL) == 0
    lines = (tmp_path / "results.csv").read_text().strip().splitlines()
    assert len(lines) == 2 and lines[1].startswith("ucla,")


def test_bad_config_file_rejected(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code = parse_and_dispatch(["sweep-snr", "--config", str(cfg),
                               "--out", str(tmp_path)])
    assert code == 2


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
                              + SMALL) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["snr_db"] == 6.0
    assert parse_and_dispatch(["solve-once", "--out", str(second), "--config",
                               str(first / "manifest.json")]) == 0
    assert capsys.readouterr().out.count("snr 6 dB") == 2
    for name in ("paths.json", "fcla_j_trace.csv", "fcla_a_trace.csv",
                 "manifest.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


@pytest.mark.parametrize("method", sorted(harness.METHOD_TABLE))
def test_solve_once_method_manifest_replays_it(method, tmp_path, capsys):
    first, second = tmp_path / "a", tmp_path / "b"
    assert parse_and_dispatch(["solve-once", "--methods", method,
                               "--out", str(first)] + SMALL) == 0
    assert parse_and_dispatch(["solve-once", "--out", str(second), "--config",
                               str(first / "manifest.json")]) == 0
    # a header and one method line per run
    assert len(capsys.readouterr().out.splitlines()) == 4
    names = sorted(p.name for p in first.iterdir())
    assert "placement.json" in names
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


@pytest.mark.parametrize("command", ["solve-once", "sweep-grid", "sweep-iters"])
@pytest.mark.parametrize("snr", ["-6:2:6", "0,2"])
def test_operating_snr_rejects_ranges(command, snr, tmp_path, capsys):
    code = parse_and_dispatch([command, "--snr", snr, "--out", str(tmp_path)]
                              + SMALL)
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
                               "--out", str(tmp_path)] + SMALL) == 0
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
                              + SMALL) == 0
    spec = ExperimentSpec.from_dict(
        json.loads((tmp_path / "manifest.json").read_text()))
    config = spec.config_for_grid(spec.grid_size)
    placement = json.loads((tmp_path / "placement.json").read_text())
    assert list(placement) == list(spec.methods)
    dictionaries = {d.radius: d for d in built}
    for method, entry in placement.items():
        record, d = solved[method], dictionaries[entry["radius"]]
        (columns,), (slots,) = record.columns, record.slots
        for m, slot in enumerate(slots):
            ring = [c for c in columns if c // d.group_size == slot]
            assert entry["heights"][m] == d.z[ring[0]]
            assert entry["angles"][m] == d.psi[ring].tolist()
        assert entry["objective"] == record.objective[0]
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
    # point 0 rates as the trace file's rows
    assert parse_and_dispatch(["solve-once", "--snr", "3", "--out",
                               str(tmp_path)] + SMALL) == 0
    spec = ExperimentSpec.from_dict(
        json.loads((tmp_path / "manifest.json").read_text()))
    rounds = range(1, spec.outer_iters + 1)
    point = dataclasses.replace(spec, sweep_kind="iters",
                                sweep_values=tuple(rounds))
    rates = run_trial(point, 0, [0])[0, spec.methods.index("fcla-a")]
    with open(tmp_path / "fcla_a_trace.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows == [["i", "sum_rate"]] + [
        [str(i), repr(rate)] for i, rate in zip(rounds, rates.tolist())]


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
]


@pytest.mark.parametrize("flags, config, field", BAD_SPEC_VALUES,
                         ids=[" ".join(flags) or json.dumps(config)
                              for flags, config, _ in BAD_SPEC_VALUES])
def test_bad_spec_value_named_before_output(flags, config, field, tmp_path,
                                            capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert parse_and_dispatch(["sweep-snr", "--snr", "0", "--config",
                               str(path), "--out", str(out)] + flags) == 2
    assert capsys.readouterr().err.startswith(f"error: {field} must be")
    assert not out.exists()


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
