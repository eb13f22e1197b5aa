"""Span tracing around the calls into each fcla module's public functions.

The tracer replaces, for the duration of a traced sweep, every public fcla
function that one layer module imports from another (plus a few entry points
a module calls within itself) with a wrapper that records one span per call.
A caller resolves such a function through its own module's globals, so
wrapping ``fcla.alternating.rzf`` times exactly the refits the
alternating solver makes, and ``fcla.harness.rzf`` those the harness makes.
Spans carry the trial they belong to; they stay in memory and are written out
when the sweep ends.

``oracle`` is an exhaustive reference that only the test suite runs; it is
not in LAYERS, so no span is ever taken around it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pickle
from collections import Counter
from time import perf_counter_ns

# the repository's layers, in the order a sweep descends through them
LAYERS = ("cli", "harness", "alternating", "joint", "channel", "precoding",
          "pattern", "geometry")
# calls a module makes into its own public functions that still get a span:
# the sweep's and the solvers' inner loops, and the CLI entry point
ENTRY_POINTS = {("cli", "parse_and_dispatch"), ("harness", "run_trial"),
                ("joint", "match_atom"), ("alternating", "optimize_angles"),
                ("alternating", "optimize_heights")}

# work counters reported per trial, as read at the layer boundaries below
COUNTERS = ("channel.columns_synthesized", "joint.matched_filter_columns",
            "joint.iterations", "alternating.matched_filter_columns")

_DICTIONARY_BUILDERS = ("channel.build_joint_dictionary",
                        "channel.build_angle_dictionary",
                        "channel.build_height_dictionary")


def span_name(fn) -> str:
    """'<layer>.<function>' for a function defined in fcla.<layer>."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def traceable(module_name: str, attr: str, obj) -> bool:
    """A public function of a measured layer that the module named
    module_name calls into: one defined in another layer, or one of the
    module's own entry points listed in ENTRY_POINTS."""
    if not inspect.isfunction(obj) or attr.startswith("_"):
        return False
    caller = module_name.rsplit(".", 1)[-1]
    owner = obj.__module__.split(".")
    if len(owner) != 2 or owner[0] != "fcla" or caller not in LAYERS:
        return False
    if owner[1] == caller:
        return (caller, attr) in ENTRY_POINTS
    return owner[1] in LAYERS


class Tracer:
    """Collects spans and work counters while its wrappers are installed.

    A span record is (id, parent id, name, start ns, end ns, self ns, trial);
    self time is the span's duration minus that of its direct children.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.trial = -1
        self._open: list[list[int]] = []  # [span id, child ns] per open span
        self._next_id = 0
        self._trial_positions: set = set()
        self._patched: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def wrap(self, fn):
        name = span_name(fn)
        observe = _OBSERVERS.get(name)
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "harness.run_trial":
                tracer.trial += 1
                tracer._trial_positions = set()
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._open[-1][0] if tracer._open else -1
            tracer._open.append([span_id, 0])
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                _, child_ns = tracer._open.pop()
                if tracer._open:
                    tracer._open[-1][1] += end - start
                tracer.spans.append((span_id, parent, name, start, end,
                                     end - start - child_ns, tracer.trial))
            if observe is not None:
                observed = perf_counter_ns()
                observe(tracer, signature.bind(*args, **kwargs).arguments,
                        result)
                if tracer._open:  # keep the counting out of the caller's self time
                    tracer._open[-1][1] += perf_counter_ns() - observed
            return result

        return traced

    def install(self) -> None:
        """Wrap every traceable attribute of every layer module."""
        for layer in LAYERS:
            module = importlib.import_module(f"fcla.{layer}")
            for attr, obj in list(vars(module).items()):
                if traceable(module.__name__, attr, obj):
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, self.wrap(obj))

    def uninstall(self) -> None:
        """Put back every original attribute, most recent patch first."""
        while self._patched:
            module, attr, obj = self._patched.pop()
            setattr(module, attr, obj)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- counters ---------------------------------------------------------

    def add_columns(self, config, positions: list) -> None:
        """Count synthesized columns, given as (psi, z) pairs, and remember
        their distinct positions within the trial."""
        self.counters["channel.columns_synthesized"] += len(positions)
        radius = float(config.radius)
        before = len(self._trial_positions)
        self._trial_positions.update((radius, psi, z) for psi, z in positions)
        self.counters["channel.distinct_positions"] += (
            len(self._trial_positions) - before)


def _observe_dictionary(tracer, arguments, dictionary):
    positions = list(zip(dictionary.psi.tolist(), dictionary.z.tolist()))
    tracer.add_columns(arguments["config"], positions)


def _observe_channel(tracer, arguments, channel):
    tracer.add_columns(arguments["config"], channel.positions)


def _observe_joint(tracer, arguments, solution):
    diag = solution.diagnostics
    tracer.counters["joint.matched_filter_columns"] += diag.get(
        "matched_filter_columns", 0)
    tracer.counters["joint.iterations"] += diag.get("iterations", 0)
    tracer.counters["joint.atoms_picked"] += len(diag.get("support", ()))
    tracer.counters["joint.atoms_kept"] += len(diag.get("final_support", ()))


def _observe_alternating(tracer, arguments, solution):
    tracer.counters["alternating.matched_filter_columns"] += (
        solution.diagnostics.get("matched_filter_columns", 0))


_OBSERVERS = {
    **{name: _observe_dictionary for name in _DICTIONARY_BUILDERS},
    "channel.synthesize_channel": _observe_channel,
    "joint.solve_joint": _observe_joint,
    "alternating.solve_alternating": _observe_alternating,
}


class PoolCounter:
    """Counts process-pool starts, tasks and pickled argument bytes by
    replacing the ``ProcessPoolExecutor`` that ``fcla.harness`` resolves."""

    def __init__(self):
        self.starts = 0
        self.tasks = 0
        self.task_bytes = 0
        self._module = None
        self._original = None

    def __enter__(self):
        self._module = importlib.import_module("fcla.harness")
        self._original = base = self._module.ProcessPoolExecutor
        counter = self

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                counter.starts += 1
                super().__init__(*args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                tasks = list(zip(*iterables))
                counter.tasks += len(tasks)
                counter.task_bytes += sum(len(pickle.dumps(t)) for t in tasks)
                return super().map(fn, *zip(*tasks), **kwargs)

        self._module.ProcessPoolExecutor = CountingPool
        return self

    def __exit__(self, *exc):
        self._module.ProcessPoolExecutor = self._original
        return False

    def as_dict(self) -> dict:
        return {"starts": self.starts, "tasks": self.tasks,
                "task_bytes": self.task_bytes}


def span_totals(spans) -> dict:
    """name -> [calls, total ns, self ns] over a list of span records."""
    totals: dict = {}
    for _, _, name, start, end, self_ns, _ in spans:
        entry = totals.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += self_ns
    return totals
