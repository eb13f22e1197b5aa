"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import importlib
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import sweep  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def layer_namespaces() -> dict:
    """(module name, attribute) -> object for every layer module."""
    objects = {}
    for layer in tracing.LAYERS:
        module = importlib.import_module(f"fcla.{layer}")
        for attr, obj in vars(module).items():
            objects[(module.__name__, attr)] = obj
    return objects


def test_tracer_restores_every_patched_attribute():
    before = layer_namespaces()
    tracer = tracing.Tracer()
    with tracer:
        during = layer_namespaces()
        patched = {key for key in before if during[key] is not before[key]}
        import fcla.harness
        spec = fcla.harness.ExperimentSpec(rings=2, elements=2, users=4,
                                           paths=2, grid_size=6, trials=1)
        fcla.harness.run_trial(spec, 0, 0)
    after = layer_namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert ("fcla.alternating", "rzf") in patched
    assert ("fcla.harness", "run_trial") in patched
    assert not any(key[1] == "exhaustive_best" for key in patched)
    names = {span[2] for span in tracer.spans}
    assert {"harness.run_trial", "joint.solve_joint",
            "alternating.optimize_angles", "precoding.rzf"} <= names


def test_pool_counter_restores_the_executor():
    import fcla.harness
    original = fcla.harness.ProcessPoolExecutor
    with tracing.PoolCounter():
        assert fcla.harness.ProcessPoolExecutor is not original
    assert fcla.harness.ProcessPoolExecutor is original


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()

    def inner():
        return sum(range(20000))

    wrapped_inner = tracer.wrap(inner)

    def outer():
        return wrapped_inner() + wrapped_inner()

    tracer.wrap(outer)()
    by_name = {}
    for span_id, parent, name, start, end, self_ns, _ in tracer.spans:
        by_name.setdefault(name.rsplit(".", 1)[-1], []).append(
            (span_id, parent, end - start, self_ns))
    (outer_id, outer_parent, outer_total, outer_self), = by_name["outer"]
    assert outer_parent == -1
    assert all(parent == outer_id for _, parent, _, _ in by_name["inner"])
    children = sum(total for _, _, total, _ in by_name["inner"])
    assert outer_self == outer_total - children


def test_pauses_stop_child_processes_for_each_probe(monkeypatch):
    child = subprocess.Popen([sys.executable, "-c",
                              "while True: pass"])

    class Server:
        states = []

        def probe(self):
            # SIGSTOP lands asynchronously; a real probe lasts tens of ms
            deadline = time.monotonic() + 1.0
            while True:
                with open(f"/proc/{child.pid}/stat") as f:
                    state = f.read().rsplit(")", 1)[1].split()[0]
                if state == "T" or time.monotonic() > deadline:
                    break
            self.states.append(state)
            return 0.01

    monkeypatch.setattr(sweep, "PAUSE_EVERY_S", 0.05)
    try:
        pauses = sweep.Pauses(Server())
        with pauses:
            deadline = time.monotonic() + 0.5
            while time.monotonic() < deadline:
                pass
        time.sleep(0.05)
        with open(f"/proc/{child.pid}/stat") as f:
            after = f.read().rsplit(")", 1)[1].split()[0]
    finally:
        child.kill()
        child.wait()
    assert len(pauses.marks) >= 3
    assert all(paused < resumed for paused, _, resumed in pauses.marks)
    assert set(Server.states) == {"T"}
    assert after != "T"


def test_child_pids_skips_threads_that_ended(monkeypatch):
    # a pool's threads end at shutdown, between listing the tasks and
    # reading their children; a pause that lands there must not fail
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    listdir = sweep.os.listdir
    monkeypatch.setattr(sweep.os, "listdir",
                        lambda path: [*listdir(path), str(2**22 + 1)])
    try:
        assert child.pid in sweep.child_pids()
    finally:
        child.kill()
        child.wait()


@pytest.mark.parametrize("placement", ["free", "slowest-cpu"])
def test_probe_server_answers_each_request(placement):
    server = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), "--placement", placement],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    out, _ = server.communicate("probe\nprobe\n", timeout=60)
    assert server.returncode == 0
    assert all(float(line) > 0 for line in out.splitlines())
    assert len(out.splitlines()) == 2


def test_pooled_workloads_probe_the_slowest_cpu():
    assert {name: w.probe_placement for name, w in run.WORKLOADS.items()} == {
        "snr-ref": "free", "grid-joint": "free", "snr-ref-pool": "slowest-cpu"}


def test_each_segment_is_scaled_by_the_probes_around_it():
    ref = run.PROBE_REFERENCE_S
    record = {"sweeps": [{"segment_s": [1.0, 2.0],
                          "probe_s": [ref, ref, 2 * ref]}],
              "setup_s": 0.5, "setup_probe_s": 2 * ref}
    child = run.Child(kind="plain", jobs=1, trials=1, record=record,
                      csv_bytes=b"method,sweep_var,sweep_value,"
                                b"mean_sum_rate_bits,stderr,trials\n")
    assert child.walls() == [3.0]
    assert child.scaled_walls() == [pytest.approx(1.0 + 2.0 / 1.5)]
    assert child.scaled_setup_s == pytest.approx(0.25)


def test_metric_names_are_well_formed_and_mapped():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))
    layers = json.loads((HERE / "layers.json").read_text())
    mapped = [m for layer in layers["layers"].values() for m in layer["metrics"]]
    mapped += layers["instrumentation"]["metrics"]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    assert set(layers["layers"]) == set(tracing.LAYERS)
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run(workload, trace):
    result = run.run(workload, seed=1, seconds=1, trace=bool(trace), trials=1)
    assert result["correct"], result["checks"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    assert all(NAME.fullmatch(name) for name in result["metrics"])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace and workload == "grid-joint":
        idle = [k for k in values if k.startswith(("alternating.", "pattern.",
                "channel.build_angle_dictionary.", "channel.build_height_dictionary."))]
        assert idle and all(values[k] == 0 for k in idle)
    if trace and workload == "snr-ref-pool":
        assert values["harness.pool.tasks"] == 1.0
    if not trace:
        assert all(v > 0 for v in values.values())
    # one trial per point is not the size the references were recorded at
    statuses = {c["name"]: c["status"] for c in result["checks"]}
    assert statuses[f"matches reference/{run.WORKLOADS[workload].reference}"
                    "-seed1.csv"] == "SKIP"


@pytest.mark.parametrize("perturb", [0.0, 1e-6])
def test_reference_mismatch_fails_the_run(perturb, tmp_path, monkeypatch,
                                          capsys):
    rows = (run.REFERENCE_DIR / "grid-joint-seed0.csv").read_text().splitlines()
    header = rows[0].split(",")
    column = header.index("mean_sum_rate_bits")
    first = rows[1].split(",")
    first[column] = repr(float(first[column]) * (1 + perturb))
    rows[1] = ",".join(first)
    (tmp_path / "grid-joint-seed0.csv").write_text("\n".join(rows) + "\n")
    monkeypatch.setattr(run, "REFERENCE_DIR", tmp_path)
    rc = run.main(["--workload", "grid-joint", "--seed", "0",
                   "--seconds", "1", "--trace", "0"])
    out = capsys.readouterr().out
    verdict = "FAIL" if perturb else "PASS"
    assert f"{verdict} matches reference/grid-joint-seed0.csv" in out
    assert rc == (1 if perturb else 0)
    assert json.loads(out.splitlines()[-1])["correct"] is (not perturb)


def test_fails_without_the_sources():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "snr-ref",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
