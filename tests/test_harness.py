import dataclasses
import inspect
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fcla import __version__, harness, solution
from fcla.channel import draw_paths
from fcla.precoding import normalize_columns, sinr
from fcla.harness import (METHODS, ExperimentSpec, run_sweep, run_trial,
                          ucla_baseline, ucla_config, write_manifest,
                          write_results_csv)
from spacing_oracle import check_spacing, psi_min
from test_channel import channel_entry_oracle


# (sweep kind, sweep values) of a small sweep of each kind
SWEEPS = [("snr", (-3.0, 3.0)), ("grid", (4, 6)), ("iters", (1, 2, 4))]


# the reference scale: 16 users, 4 paths, 4 rings of 4 elements
REFERENCE = dict(rings=4, elements=4, users=16, paths=4)


def trial_bytes(spec):
    """What a batch holds per trial, as fcla.harness._batches counts it: 16
    bytes per user for each dictionary column, 3 for each (K, L, G_H) entry
    and 2 for each (K, M*N) entry."""
    return 16 * spec.users * (spec.grid_size ** 2
                              + 3 * spec.paths * spec.grid_size
                              + 2 * spec.rings * spec.elements)


def small_spec(**kw):
    base = dict(rings=2, elements=2, users=6, paths=2, grid_size=6,
                pattern_kind="directional", kappa=1.0, trials=5, seed=42,
                sweep_kind="snr", sweep_values=(0.0,),
                methods=("ucla", "fcla-j", "fcla-a"), outer_iters=2)
    base.update(kw)
    return ExperimentSpec(**base)


class TestSpec:
    def test_snr_to_power(self):
        spec = small_spec(noise_power=2.0)
        assert np.isclose(spec.power_for_snr(0.0), 2.0)
        assert np.isclose(spec.power_for_snr(10.0), 20.0)

    def test_alpha_rule(self):
        assert small_spec(noise_power=3.0).alpha_value() == 3.0
        assert small_spec(alpha=0.25).alpha_value() == 0.25

    def test_half_wavelength_default_spacing(self):
        spec = small_spec()
        assert np.isclose(spec.spacing, spec.wavelength / 2.0)

    def test_real_fields_stored_as_floats(self):
        spec = small_spec(frequency_hz=3_000_000_000, noise_power=1, kappa=2,
                          d_min=1, snr_db=3, sweep_values=(-6, 0))
        for name in ("frequency_hz", "noise_power", "kappa", "d_min",
                     "snr_db"):
            assert type(getattr(spec, name)) is float, name
        assert all(type(v) is float for v in spec.sweep_values)

    def test_round_trip_dict(self):
        spec = small_spec()
        clone = ExperimentSpec.from_dict(dataclasses.asdict(spec))
        assert clone == spec

    def test_manifest_holds_every_field(self, tmp_path):
        spec = small_spec()
        assert (list(dataclasses.asdict(spec))
                == [f.name for f in dataclasses.fields(ExperimentSpec)])
        write_manifest(spec, tmp_path / "manifest.json")
        data = json.loads((tmp_path / "manifest.json").read_text())
        assert data["methods"] == list(METHODS)
        assert data["sweep_values"] == [0.0]

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            small_spec(methods=("ucla", "genie"))

    def test_rejects_unknown_sweep(self):
        with pytest.raises(ValueError):
            small_spec(sweep_kind="users")

    def test_rejects_unknown_pattern_kind(self):
        with pytest.raises(ValueError, match="pattern_kind 'omnii'"):
            small_spec(pattern_kind="omnii")

    def test_rejects_unknown_key(self):
        data = dataclasses.asdict(small_spec())
        data["trails"] = 5
        with pytest.raises(ValueError, match="trails"):
            ExperimentSpec.from_dict(data)

    @pytest.mark.parametrize("methods", [("fcla-j",), ("ucla", "fcla-a")])
    @pytest.mark.parametrize("alpha", [0.0, -0.5])
    def test_rejects_zero_forcing_for_greedy_methods(self, methods, alpha):
        with pytest.raises(ValueError, match="alpha"):
            small_spec(alpha=alpha, methods=methods)
        data = dict(dataclasses.asdict(small_spec(methods=methods)),
                    alpha=alpha)
        with pytest.raises(ValueError, match="alpha"):
            ExperimentSpec.from_dict(data)

    @pytest.mark.parametrize("methods", [("ucla",), METHODS])
    def test_rejects_alpha_that_is_not_a_number(self, methods):
        with pytest.raises(ValueError, match="alpha must be 'mmse' or"):
            small_spec(alpha="mmsee", methods=methods)

    def test_rejects_zero_mmse_regularization(self):
        with pytest.raises(ValueError, match="^noise_power must be"):
            small_spec(noise_power=0.0)

    def test_ucla_keeps_zero_forcing(self):
        spec = small_spec(alpha=0.0, methods=("ucla",), trials=3)
        rows = run_sweep(spec)
        assert rows[0].trials == 3 and np.isfinite(rows[0].mean_sum_rate)

    def test_warns_on_other_version(self):
        data = dict(dataclasses.asdict(small_spec()), version="0.0.0-other")
        with pytest.warns(UserWarning, match="0.0.0-other"):
            clone = ExperimentSpec.from_dict(data)
        assert clone == small_spec()


def baseline_placement(config):
    """The uniform baseline's (psi, z) per element of one trial, ring by
    ring."""
    record = ucla_baseline(draw_paths(6, 2, [0]), config, 1.0)
    return [(psi, z) for z, ring in zip(record.heights[0].tolist(),
                                        record.angles[0].tolist())
            for psi in ring]


class TestUclaBaseline:
    def test_single_ring_angles(self):
        spec = small_spec(rings=1, elements=4, grid_size=6)
        config = spec.config_for_grid(6)
        placement = baseline_placement(config)
        assert np.allclose([p for p, _ in placement],
                           [0.0, np.pi / 2.0, np.pi, 1.5 * np.pi])
        assert all(z == 0.0 for _, z in placement)

    def test_heights_packed_at_minimum(self):
        config = small_spec(rings=3).config_for_grid(6)
        placement = baseline_placement(config)
        heights = sorted({z for _, z in placement})
        assert np.allclose(heights, [0.0, config.d_min, 2.0 * config.d_min])

    def test_placement_is_feasible(self):
        config = small_spec(rings=4, elements=4, grid_size=12).config_for_grid(12)
        compact = ucla_config(config)
        check_spacing(baseline_placement(config), compact)

    def test_compact_radius_chord(self):
        config = small_spec(elements=4).config_for_grid(6)
        compact = ucla_config(config)
        chord = 2.0 * compact.radius * np.sin(np.pi / 4.0)
        assert np.isclose(chord, config.d_min)

    @pytest.mark.parametrize("rings, elements", [(1, 2), (2, 3), (4, 4)])
    def test_uniform_grid_is_n_angles_by_m_heights(self, rings, elements):
        config = small_spec(rings=rings, elements=elements).config_for_grid(8)
        compact = ucla_config(config)
        assert (compact.g_h, compact.g_v) == (elements, rings)
        assert psi_min(compact) == pytest.approx(2.0 * np.pi / elements)

    def test_single_element_keeps_flexible_radius(self):
        config = small_spec(rings=3, elements=1).config_for_grid(8)
        compact = ucla_config(config)
        assert compact.radius == config.radius
        assert (compact.g_h, compact.g_v) == (8, 3)
        placement = baseline_placement(config)
        assert placement == [(0.0, z) for z in compact.z]

    @pytest.mark.parametrize("elements, pattern_kind", [
        (1, "directional"), (1, "omni"), (3, "directional")])
    def test_builds_only_its_columns(self, elements, pattern_kind,
                                     monkeypatch):
        config = small_spec(rings=3, elements=elements,
                            pattern_kind=pattern_kind).config_for_grid(8)
        paths = draw_paths(6, 2, [0, 1])
        build, built = harness.build_joint_dictionary, []
        monkeypatch.setattr(harness, "build_joint_dictionary",
                            lambda *args: built.append(build(*args)) or built[-1])
        record = ucla_baseline(paths, config, 1.0)
        # one build of the uniform grid: 3 rings of N angles, or, with one
        # element a ring, 3 heights of the flexible grid's 8 angles, so a
        # ring's one column comes out of the same matrix product as the
        # whole grid's (a one-angle product takes numpy's matrix-vector
        # path, which rounds otherwise)
        compact = ucla_config(config)
        assert [d.rows.shape[1] for d in built] == [3 * compact.g_h]
        # bit for bit the columns of the whole uniform grid's dictionary
        columns = (np.arange(3)[:, None] * compact.g_h
                   + np.arange(elements)).ravel()
        rows = build(paths, compact).rows[:, columns]
        assert np.array_equal(record.H_star, np.conj(rows).swapaxes(1, 2))

    def test_rates_returned(self):
        spec = small_spec()
        config = spec.config_for_grid(6)
        paths = draw_paths(6, 2, [0])
        record = ucla_baseline(paths, config, 1.0)
        assert record.H_star.shape == (1, 6, 4)
        assert record.columns.tolist() == [[0, 1, 2, 3]]
        assert record.slots.tolist() == [[0, 1]]
        assert record.heights.tolist() == [[0.0, config.d_min]]
        assert record.angles.tolist() == [[[0.0, np.pi], [0.0, np.pi]]]
        F = normalize_columns(record.F, 1.0)
        assert abs(np.linalg.norm(F[0], "fro") ** 2 - 1.0) < 1e-12
        assert sinr(record.H_star, F, 1.0).sum(axis=-1)[0] > 0.0


class TestMethodTable:
    def test_methods_come_from_the_table(self):
        assert METHODS == tuple(harness.METHOD_TABLE) == ("ucla", "fcla-j",
                                                          "fcla-a")
        assert harness.GREEDY_METHODS == ("fcla-j", "fcla-a")

    def test_solvers_resolved_by_module_attribute(self, monkeypatch):
        calls = []
        for name in ("ucla_baseline", "solve_joint", "solve_alternating"):
            def recording(*args, _solver=getattr(harness, name), _name=name,
                          **kwargs):
                calls.append(_name)
                return _solver(*args, **kwargs)
            monkeypatch.setattr(harness, name, recording)
        run_trial(small_spec(), 0, [0, 1])
        assert calls == ["ucla_baseline", "solve_joint", "solve_alternating"]

    def test_one_solution_per_trial(self):
        spec = small_spec()
        batch = harness.draw_batch(spec, 0, [2, 0, 1])
        assert batch.dictionary.rows.shape[0] == 3
        solved = harness.solve_methods(batch, METHODS)
        assert list(solved) == list(METHODS)
        assert all(record.columns.shape[0] == 3 for record in solved.values())
        ucla_only = dataclasses.replace(spec, methods=("ucla",))
        assert harness.draw_batch(ucla_only, 0, [0]).dictionary is None


class TestRunTrial:
    def test_batch_matches_single_trials(self):
        spec = small_spec(sweep_kind="iters", sweep_values=(1, 3), outer_iters=3)
        batch = run_trial(spec, 1, [4, 0, 2])
        assert batch.shape == (3, 3, 2)
        assert np.array_equal(batch, np.concatenate(
            [run_trial(spec, 1, [t]) for t in (4, 0, 2)]))

    def test_batch_across_points_matches_each_point_alone(self):
        # trials of two SNR points in one batch, each rated at its own
        # point's power, as a run of its point spec alone rates it
        spec = small_spec(sweep_values=(-3.0, 6.0))
        points, trials = (1, 0, 1, 0), (4, 0, 2, 2)
        batch = run_trial(spec, points, trials)
        point_specs = [dataclasses.replace(spec, snr_db=v)
                       for v in spec.sweep_values]
        alone = [run_trial(point_specs[p], p, [t])
                 for p, t in zip(points, trials)]
        assert np.array_equal(batch, np.concatenate(alone))
        assert np.array_equal(harness.draw_batch(spec, points, trials).power,
                              [spec.power_for_snr(spec.sweep_values[p])
                               for p in points])

    def test_rates_take_a_power_per_trial(self):
        spec = small_spec(sweep_kind="iters", sweep_values=(1, 2),
                          outer_iters=2)
        batch = harness.draw_batch(spec, 0, [0, 1, 2])
        powers = np.array([0.5, 2.0, 8.0])
        each = dataclasses.replace(batch, power=powers)
        for method, record in harness.solve_methods(batch, METHODS).items():
            rated = harness.rates(each, record, [0, 1])
            for t, power in enumerate(powers):
                alone = harness.rates(dataclasses.replace(batch, power=power),
                                      record, [0, 1])
                assert np.array_equal(rated[t], alone[t]), method

    def test_batches_split_by_bytes_and_jobs(self):
        spec = small_spec(grid_size=12, trials=61, **REFERENCE)
        assert [len(b) for b in harness._batches(spec, [0])] == [61]
        assert 61 * trial_bytes(spec) <= harness.BATCH_BYTES
        assert harness._batches(spec, [0])[0] == [(0, t) for t in range(61)]
        pooled = harness._batches(small_spec(grid_size=12, trials=60, jobs=2,
                                             **REFERENCE), [0])
        assert [len(b) for b in pooled] == [30, 30]
        # a lone point (the iteration sweep's) splits for the workers
        pooled = harness._batches(small_spec(grid_size=12, trials=30, jobs=2,
                                             **REFERENCE), [0])
        assert [len(b) for b in pooled] == [15, 15]
        # a run of 7 points of 30 trials (the reference SNR sweep): the same
        # 4 batches of 52-53 across points alone and for 2 workers, each
        # run's (point, trial) pairs in order
        for jobs in (1, 2):
            spec = small_spec(grid_size=12, trials=30, jobs=jobs, **REFERENCE)
            run = harness._batches(spec, range(7))
            assert [len(b) for b in run] == [53, 53, 52, 52]
            assert [pair for b in run for pair in b] == [
                (p, t) for p in range(7) for t in range(30)]
        # the default budget's largest batch per grid size at reference
        # scale, which a batch may hold at any jobs
        caps = {8: 101, 12: 61, 16: 40, 24: 21, 32: 13}
        for grid_size, cap in caps.items():
            spec = small_spec(grid_size=grid_size, **REFERENCE)
            assert (cap * trial_bytes(spec) <= harness.BATCH_BYTES
                    < (cap + 1) * trial_bytes(spec))
            for jobs in (1, 2, 3):
                # one round of batches, one per worker, or two rounds
                for trials, n_batches in ((cap * jobs, jobs),
                                          (cap * jobs + 1, 2 * jobs)):
                    assert len(harness._batches(dataclasses.replace(
                        spec, trials=trials, jobs=jobs), [0])) == n_batches
        # no batch exceeds its grid's cap, and the batch count is a multiple
        # of jobs
        for jobs in (1, 2, 3):
            for grid_size in (8, 12, 32):
                spec = small_spec(grid_size=grid_size, trials=30, jobs=jobs,
                                  **REFERENCE)
                run = harness._batches(spec, range(7))
                assert max(map(len, run)) <= caps[grid_size]
                assert len(run) % jobs == 0
        # the paths, rings and elements count as well as the grid
        for shape in (dict(paths=8), dict(rings=6)):
            spec = small_spec(grid_size=12, **{**REFERENCE, **shape})
            cap = harness.BATCH_BYTES // trial_bytes(spec)
            assert cap < 61
            for trials, n_batches in ((cap, 1), (cap + 1, 2)):
                assert len(harness._batches(dataclasses.replace(
                    spec, trials=trials), [0])) == n_batches
        assert len(harness._batches(small_spec(trials=3, jobs=2), [0])) == 2
        assert len(harness._batches(small_spec(trials=1, jobs=2), [0])) == 1
        assert [len(b) for b in harness._batches(
            small_spec(users=16, grid_size=128, trials=3), [0])] == [1, 1, 1]

    @pytest.mark.parametrize("method", ["fcla-a", "ucla"])
    def test_rates_do_not_depend_on_the_methods_before(self, method):
        # at a 16x16 omni point fcla-j's trials finish at different steps
        # and leave its batch, swapping the dictionary's rows until the
        # solve puts them back: a method run after it rates as run alone
        spec = ExperimentSpec(**REFERENCE, grid_size=16, pattern_kind="omni",
                              trials=8, outer_iters=2,
                              methods=("fcla-j", method))
        trials = range(spec.trials)
        batch = harness.draw_batch(spec, 0, trials)
        iterations = harness.solve_joint(batch.dictionary,
                                         batch.alpha).iterations
        assert len(set(iterations.tolist())) > 1
        after = run_trial(spec, 0, trials)
        alone = run_trial(dataclasses.replace(spec, methods=(method,)), 0,
                          trials)
        assert np.array_equal(after[:, 1], alone[:, 0])

    def test_deterministic(self):
        spec = small_spec()
        a = run_trial(spec, 0, [3])
        b = run_trial(spec, 0, [3])
        assert np.array_equal(a, b)

    def test_methods_restricted(self):
        spec = small_spec(methods=("ucla",))
        assert run_trial(spec, 0, [0]).shape == (1, 1, 1)

    def test_trace_request(self):
        spec = small_spec(methods=("fcla-a",), sweep_kind="iters",
                          sweep_values=(1, 3), outer_iters=3)
        assert run_trial(spec, 0, [0]).shape == (1, 1, 2)

    def test_iteration_point_reads_each_round_count(self):
        spec = small_spec(sweep_kind="iters", sweep_values=(1, 2, 4),
                          outer_iters=4)
        rates = run_trial(spec, 0, [1, 3])
        assert rates.shape == (2, 3, 3)
        batch = harness.draw_batch(spec, 0, [1, 3])
        solved = harness.solve_methods(batch, spec.methods)
        power = spec.power_for_snr(spec.snr_db)

        def rated(H, F):
            return sinr(H, normalize_columns(F, power),
                        spec.noise_power).sum(axis=-1)

        for i, (method, record) in enumerate(solved.items()):
            if method == "fcla-a":  # each round's placement, refit
                want = np.stack([rated(*solution.refit(
                    batch.dictionary, record.round_columns[:, r],
                    batch.alpha)) for r in (0, 1, 3)], axis=1)
            else:  # the final rate at every round count
                want = np.repeat(rated(record.H_star, record.F)[:, None], 3,
                                 axis=1)
            assert np.array_equal(rates[:, i], want), method

    @pytest.mark.parametrize("point, fcla_a", [
        (dict(), 1),
        (dict(sweep_kind="iters", sweep_values=(1, 3), outer_iters=3), 2)])
    def test_each_rated_placement_is_refit_once(self, point, fcla_a,
                                                monkeypatch):
        # a solver refits its final placement; the rating refits only the
        # requested rounds of fcla-a before its last (round 0 at the
        # iteration point; round 2 is the final placement)
        events = []

        def logged(event, fn):
            def run(*args, **kwargs):
                events.append(event)
                return fn(*args, **kwargs)
            return run

        monkeypatch.setattr(solution, "rzf", logged("refit", solution.rzf))
        for name in ("ucla_baseline", "solve_joint", "solve_alternating"):
            monkeypatch.setattr(harness, name,
                                logged(name, getattr(harness, name)))
        run_trial(small_spec(**point), 0, [0, 1])
        refits = {}
        for event in events:
            if event == "refit":
                refits[solver] += 1
            else:
                solver, refits[event] = event, 0
        assert refits == {"ucla_baseline": 1, "solve_joint": 1,
                          "solve_alternating": fcla_a}

    def test_different_trials_differ(self):
        spec = small_spec(methods=("ucla",))
        assert not np.array_equal(run_trial(spec, 0, [0]),
                                  run_trial(spec, 0, [1]))

    def test_flexible_beats_baseline_on_average(self):
        spec = small_spec(trials=40, methods=("ucla", "fcla-a"), grid_size=8,
                          outer_iters=3)
        rates = run_trial(spec, 0, range(40))[..., 0]
        assert np.mean(rates[:, 1] - rates[:, 0]) > 0.0


class TestRunSweep:
    def test_snr_sweep_shape(self):
        spec = small_spec(trials=3, sweep_values=(-6, -4, -2, 0, 2, 4, 6))
        rows = run_sweep(spec)
        assert len(rows) == 7 * 3
        for m in spec.methods:
            assert sum(r.method == m for r in rows) == 7

    def test_paired_trials_share_channels(self):
        spec = small_spec(trials=4, methods=("ucla", "fcla-a"))
        rows = run_sweep(spec)
        # same draw: recompute one method independently and compare means
        rates = run_trial(spec, 0, range(4))[:, 0, 0]
        ucla_row = next(r for r in rows if r.method == "ucla")
        assert np.isclose(ucla_row.mean_sum_rate, np.mean(rates))

    def test_stderr_shrinks_with_trials(self):
        spec_small = small_spec(trials=40, methods=("ucla",))
        spec_big = small_spec(trials=160, methods=("ucla",))
        se_small = run_sweep(spec_small)[0].stderr
        se_big = run_sweep(spec_big)[0].stderr
        ratio = se_small / se_big
        assert 1.4 < ratio < 2.9  # expect about sqrt(160/40) = 2

    def test_grid_sweep_runs(self):
        spec = small_spec(trials=2, sweep_kind="grid", sweep_values=(4, 6))
        rows = run_sweep(spec)
        assert {r.sweep_value for r in rows} == {4.0, 6.0}

    def test_iters_sweep_reads_trace(self):
        spec = small_spec(trials=3, sweep_kind="iters",
                          sweep_values=(1, 2, 4),
                          methods=("ucla", "fcla-a"))
        rows = run_sweep(spec)
        ucla_rows = [r for r in rows if r.method == "ucla"]
        assert len({r.mean_sum_rate for r in ucla_rows}) == 1
        alt = {r.sweep_value: r.mean_sum_rate for r in rows
               if r.method == "fcla-a"}
        assert alt[4.0] >= alt[1.0] - 1e-9

    def test_batches_carry_the_spec(self, monkeypatch):
        seen = []
        work = harness._sweep_work

        def recording(args):
            seen.append(args)
            return work(args)

        monkeypatch.setattr(harness, "_sweep_work", recording)
        spec = small_spec(trials=3, sweep_values=(-3.0, 3.0))
        run_sweep(spec)
        # the SNR points are one run, and their 6 trials fit one batch: the
        # first point's spec, with each trial's (point, trial) pair
        assert seen == [(dataclasses.replace(spec, snr_db=-3.0),
                         [(p, t) for p in (0, 1) for t in range(3)])]
        # both grid sizes' trials would fit one batch, yet each size is a
        # run of its own, carrying its point's spec
        seen.clear()
        spec = small_spec(trials=3, sweep_kind="grid", sweep_values=(4, 6))
        run_sweep(spec)
        assert seen == [(dataclasses.replace(spec, grid_size=g),
                         [(p, t) for t in range(3)])
                        for p, g in enumerate((4, 6))]

    @pytest.mark.parametrize("kind, values", SWEEPS,
                             ids=[kind for kind, _ in SWEEPS])
    def test_parallel_matches_serial(self, kind, values):
        spec = small_spec(trials=4, sweep_kind=kind, sweep_values=values)
        serial = run_sweep(spec)
        parallel = run_sweep(dataclasses.replace(spec, jobs=2))
        assert serial == parallel

    @pytest.mark.parametrize("kind, values, jobs, starts", [
        ("snr", (-3.0, 0.0, 3.0), 2, 1), ("iters", (1, 2, 3), 2, 1),
        ("snr", (-3.0, 0.0, 3.0), 1, 0)], ids=["snr", "iters", "serial"])
    def test_one_pool_per_sweep(self, kind, values, jobs, starts,
                                monkeypatch):
        started = []

        class CountingPool(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        run_sweep(small_spec(trials=3, sweep_kind=kind, sweep_values=values,
                             jobs=jobs))
        assert len(started) == starts

    @pytest.mark.parametrize("failing", [
        pytest.param(False, id="healthy"),
        pytest.param(True, id="failing-batch", marks=pytest.mark.skipif(
            multiprocessing.get_start_method() != "fork",
            reason="workers see the failing builder only when forked"))])
    def test_no_pool_worker_outlives_a_sweep(self, failing, monkeypatch):
        # two pooled batches of 3; with trial 2 failing, its batch raises in
        # the worker and runs again one trial at a time there
        spec = small_spec(trials=6, jobs=2)
        if failing:
            fail_trial_2(spec, monkeypatch)
        rows = run_sweep(spec)
        assert {row.trials for row in rows} == {5 if failing else 6}
        assert multiprocessing.active_children() == []

    def test_pool_has_no_more_workers_than_tasks(self, monkeypatch):
        # a fake pool that runs the tasks here: no worker process starts
        workers = []

        class InProcessPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        spec = small_spec(trials=2, jobs=64)
        rows = run_sweep(spec)
        assert workers == [2]  # one task per trial
        assert rows == run_sweep(dataclasses.replace(spec, jobs=1))

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers inherit modules only when forked")
    def test_pool_workers_load_no_module_of_their_own(self, tmp_path):
        # a fresh interpreter, since this one has numpy.random loaded; each
        # worker lists the modules it loaded beyond those it was forked with
        script = f"""
import json, os, sys
from fcla import harness
forked = set()
os.register_at_fork(after_in_child=lambda: forked.update(sys.modules))
inner = harness.run_trial
def run_trial(*args, **kwargs):
    try:
        return inner(*args, **kwargs)
    finally:
        with open(os.path.join({str(tmp_path)!r}, str(os.getpid())), "w") as f:
            json.dump(sorted(set(sys.modules) - forked), f)
harness.run_trial = run_trial
harness.run_sweep(harness.{small_spec(trials=2, jobs=2)!r})
"""
        env = {**os.environ,
               "PYTHONPATH": str(Path(harness.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", script], env=env, check=True)
        loaded = [json.loads(f.read_text()) for f in tmp_path.iterdir()]
        # one file per worker; one worker may have run both tasks
        assert loaded and loaded == [[]] * len(loaded)

    def test_serial_sweep_loads_no_pool_module(self, tmp_path):
        # a fresh interpreter, since this one has the pool modules loaded;
        # it lists the multiprocessing and concurrent modules a serial sweep
        # through the CLI leaves loaded
        args = ["sweep-snr", "--snr", "-3,3", "--rings", "2", "--elements",
                "2", "--users", "6", "--paths", "2", "--grid", "6",
                "--trials", "3", "--jobs", "1", "--out", str(tmp_path / "out")]
        script = f"""
import json, sys
from fcla import cli
assert cli.parse_and_dispatch({args!r}) == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("multiprocessing", "concurrent"))))
"""
        env = {**os.environ,
               "PYTHONPATH": str(Path(harness.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              check=True, capture_output=True, text=True)
        assert (tmp_path / "out" / "results.csv").exists()
        assert json.loads(done.stdout.splitlines()[-1]) == []

    def test_point_with_every_trial_failed_aborts(self, monkeypatch):
        def flaky(spec, point_index, trial_indices, **kwargs):
            if 1 in point_index:
                raise FloatingPointError(f"trial {trial_indices[0]} diverged")
            return np.ones((len(trial_indices), len(spec.methods), 1))

        monkeypatch.setattr(harness, "run_trial", flaky)
        spec = small_spec(trials=3, sweep_values=(0.0, 6.0), jobs=1)
        with pytest.raises(ValueError) as info:
            run_sweep(spec)
        message = str(info.value)
        assert "snr=6" in message and "all 3 trial(s)" in message
        assert "trial 0 diverged" in message

    def test_failed_trial_in_a_batch_is_reported_alone(self, monkeypatch,
                                                       capsys):
        spec = small_spec(trials=6, jobs=1)
        want = np.concatenate([run_trial(spec, 0, [t]) for t in range(6)])
        fail_trial_2(spec, monkeypatch)
        batches = []
        run = harness.run_trial

        def recording_run(spec, point_index, trial_indices, **kwargs):
            batches.append(list(trial_indices))
            return run(spec, point_index, trial_indices, **kwargs)

        monkeypatch.setattr(harness, "run_trial", recording_run)
        rows = run_sweep(spec)
        # the batch of all six fails, then each trial runs on its own
        assert batches == [[0, 1, 2, 3, 4, 5], [0], [1], [2], [3], [4], [5]]
        kept = np.delete(want, 2, axis=0)
        for i, row in enumerate(rows):
            assert row.trials == 5
            assert row.mean_sum_rate == np.mean(kept[:, i, 0])
        printed = capsys.readouterr().err
        assert "1 trial(s) failed" in printed
        assert "trial 2: trial 2 diverged" in printed

    def test_failed_trial_in_a_batch_across_points_keeps_its_point(
            self, monkeypatch, capsys):
        spec = small_spec(trials=4, sweep_values=(0.0, 6.0), jobs=1)
        # each point's trials, run at its point spec alone
        want = [run_trial(dataclasses.replace(spec, snr_db=v), p, range(4))
                for p, v in enumerate(spec.sweep_values)]
        fail_trial_2(spec, monkeypatch, point=1)
        batches = []
        run = harness.run_trial

        def recording_run(spec, point_index, trial_indices, **kwargs):
            batches.append(list(zip(point_index, trial_indices)))
            return run(spec, point_index, trial_indices, **kwargs)

        monkeypatch.setattr(harness, "run_trial", recording_run)
        rows = run_sweep(spec)
        # the batch of both points fails, then each trial runs on its own
        pairs = [(p, t) for p in (0, 1) for t in range(4)]
        assert batches == [pairs] + [[pair] for pair in pairs]
        kept = {0.0: want[0], 6.0: np.delete(want[1], 2, axis=0)}
        for row in rows:
            method = spec.methods.index(row.method)
            column = kept[row.sweep_value][:, method, 0]
            assert row.trials == len(column)
            assert row.mean_sum_rate == np.mean(column)
        printed = capsys.readouterr().err
        assert ("1 trial(s) failed (point 6.0 trial 2: trial 2 diverged)"
                in printed)

    def test_failed_trial_of_an_iteration_sweep_is_named(self, monkeypatch,
                                                        capsys):
        spec = small_spec(trials=4, sweep_kind="iters", sweep_values=(1, 2))
        fail_trial_2(spec, monkeypatch)
        rows = run_sweep(spec)
        assert {row.trials for row in rows} == {3}
        printed = capsys.readouterr().err
        assert "1 trial(s) failed" in printed
        assert "trial 2: trial 2 diverged" in printed

    def test_every_trial_satisfies_solution_invariants(self, monkeypatch):
        drawn = []
        checked = {"ucla": 0, "fcla-j": 0, "fcla-a": 0}
        batch_sizes = []
        draw = harness.draw_batch

        def recording_draw(*args):
            drawn.append(draw(*args))
            return drawn[-1]

        def checked_solver(name, solver):
            def run(*args, **kwargs):
                batch = solver(*args, **kwargs)
                given = inspect.signature(solver).bind(*args, **kwargs).arguments
                if name == "ucla":  # the baseline's own compact cylinder
                    config = ucla_config(given["config"])
                else:
                    config = given["dictionary"].config
                # the record is of the last batch drawn, in trial order
                n_trials = len(batch.columns)
                for t in range(n_trials):
                    check_solution(drawn[-1].paths, t, batch, config,
                                   drawn[-1].power[t])
                    checked[name] += 1
                batch_sizes.append(n_trials)
                return batch
            return run

        monkeypatch.setattr(harness, "draw_batch", recording_draw)
        for name, attr in (("ucla", "ucla_baseline"), ("fcla-j", "solve_joint"),
                           ("fcla-a", "solve_alternating")):
            monkeypatch.setattr(harness, attr,
                                checked_solver(name, getattr(harness, attr)))
        spec = small_spec(trials=6, sweep_values=(-3.0, 3.0), elements=3,
                          jobs=1)
        run_sweep(spec)
        assert checked == {"ucla": 12, "fcla-j": 12, "fcla-a": 12}
        # one batch holds both points, each trial at its own point's power
        assert batch_sizes == [12] * 3
        assert np.array_equal(drawn[0].power, np.repeat(
            [spec.power_for_snr(v) for v in spec.sweep_values], 6))


# what a default batch may hold at its tracemalloc peak beyond what sizes it
# (trial_bytes per trial: the rows, whose matched filter a solver forms a
# piece at a time, the response builder's intermediates and a placement's
# channel and precoder): the paths, the solver state, its kept scores and
# their updates, a refit's temporaries and small arrays. One more full-size
# complex copy of the rows exceeds it at every shape.
MEMORY_SLACK = 384 * 1024


@pytest.mark.parametrize("shape", [
    dict(grid_size=12, pattern_kind="directional", methods=METHODS),
    dict(grid_size=32, pattern_kind="omni", methods=("ucla", "fcla-j")),
    dict(grid_size=8, pattern_kind="omni", methods=("ucla", "fcla-j")),
])
def test_default_batch_stays_within_its_working_set(shape):
    spec = small_spec(trials=1, **REFERENCE, **shape)
    spec.trials = harness.BATCH_BYTES // trial_bytes(spec)
    (batch,) = harness._batches(spec, [0])
    assert len(batch) * trial_bytes(spec) <= harness.BATCH_BYTES
    rows = len(batch) * 16 * spec.users * spec.grid_size ** 2
    assert MEMORY_SLACK < rows
    points, trials = zip(*batch)
    # first-call allocations stay out of the peak
    run_trial(spec, points, trials)
    tracemalloc.start()
    try:
        run_trial(spec, points, trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= len(batch) * trial_bytes(spec) + MEMORY_SLACK


@given(st.sampled_from([("snr", (-3.0, 3.0)), ("grid", (6, 16)),
                        ("iters", (1, 2, 4))]),
       st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_rows_do_not_depend_on_batch_size(sweep, trials, seed):
    """A sweep's rows are the same for one trial per batch, batches of an
    eighth of the default budget (13 trials at 8 users on the 16x16 grid),
    the default batches (108 trials there) and one batch per point."""
    kind, values = sweep
    spec = small_spec(users=8, grid_size=16, trials=trials, seed=seed,
                      sweep_kind=kind, sweep_values=values)
    rows = []
    for size in (1, harness.BATCH_BYTES // 8, harness.BATCH_BYTES, 1 << 30):
        with mock.patch.object(harness, "BATCH_BYTES", size):
            rows.append(run_sweep(spec))
    assert rows[0] == rows[1] == rows[2] == rows[3]


def fail_trial_2(spec, monkeypatch, point=0):
    """Make trial 2 of the sweep point raise wherever it is built: every
    response a batch of sweep trials needs comes from
    build_joint_dictionary."""
    trial_2 = draw_paths(spec.users, spec.paths,
                         [np.random.SeedSequence([spec.seed, point, 2])])
    build = harness.build_joint_dictionary

    def failing_build(paths, config, *psi):
        if any(np.array_equal(beta, trial_2.beta[0]) for beta in paths.beta):
            raise FloatingPointError("trial 2 diverged")
        return build(paths, config, *psi)

    monkeypatch.setattr(harness, "build_joint_dictionary", failing_build)


def check_solution(paths, trial, record, config, power):
    """Invariants of every solver result for one trial of paths: the rings'
    heights and angles are the positions of the placement's columns on
    config's grid, the placement keeps the physical spacing rules, H_star is
    the element-loop oracle's channel there, each served user's precoder
    column, normalized to the power budget, carries power/K, and only users
    without any channel are left unserved."""
    columns = record.columns[trial]
    placement = list(zip(config.psi[columns % config.g_h].tolist(),
                         config.z[columns // config.g_h].tolist()))
    rings = [(psi, z) for z, ring in zip(record.heights[trial].tolist(),
                                         record.angles[trial].tolist())
             for psi in ring]
    assert sorted(rings) == sorted(placement)
    check_spacing(placement, config)
    H = record.H_star[trial]
    want = [[channel_entry_oracle(paths, k, psi, z, config, trial)
             for psi, z in placement] for k in range(H.shape[0])]
    assert np.allclose(H, want, rtol=0.0, atol=1e-12)
    F = normalize_columns(record.F[trial], power)
    n_users = F.shape[1]
    zero = np.linalg.norm(F, axis=0) == 0.0
    assert np.all(np.abs(H[zero]) == 0.0)
    served = np.linalg.norm(F[:, ~zero], axis=0) ** 2
    assert np.allclose(served, power / n_users, rtol=1e-12, atol=0.0)
    total = np.linalg.norm(F, "fro") ** 2
    assert np.isclose(total, power * (n_users - zero.sum()) / n_users,
                      rtol=1e-12, atol=0.0)


class TestOutputs:
    def test_csv_columns_and_precision(self, tmp_path):
        rows = run_sweep(small_spec(trials=2))
        write_results_csv(rows, tmp_path / "results.csv")
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert lines[0] == ("method,sweep_var,sweep_value,mean_sum_rate_bits,"
                            "stderr,trials")
        assert len(lines) == 1 + len(rows)
        value = float(lines[1].split(",")[3])
        assert value == rows[0].mean_sum_rate  # repr round-trips exactly

    def test_manifest_reproduces_spec(self, tmp_path):
        spec = small_spec(trials=2)
        write_manifest(spec, tmp_path / "manifest.json")
        data = json.loads((tmp_path / "manifest.json").read_text())
        assert data["version"] == __version__
        clone = ExperimentSpec.from_dict(data)
        assert clone == spec
