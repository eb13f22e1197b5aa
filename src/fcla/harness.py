"""Monte Carlo experiment engine: paired trials of the baseline and the two
placement optimizers over SNR, grid-size, or outer-iteration sweeps."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import numbers
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__
from .alternating import solve_alternating
from .channel import Dictionary, Paths, build_joint_dictionary, draw_paths
from .geometry import SPEED_OF_LIGHT, FclaConfig
from .joint import solve_joint
from .pattern import PATTERN_KINDS, PatternSpec
from .precoding import ScoreRangeError, normalize_columns, sinr
from .solution import Solutions, refit, solutions


@dataclass
class TrialBatch:
    """What every method reads for a batch of trials on one grid: the
    trials' paths and, when a greedy method runs, their joint dictionary.
    The methods read alpha but not power and sigma2, which only rate their
    placements (`rates`). power is one budget for every trial, or, when the
    batch spans points of an SNR sweep, a (B,) array of each trial's own.
    alpha_field names the spec field alpha comes from: noise_power under
    the "mmse" rule."""

    paths: Paths
    dictionary: Dictionary | None
    config: FclaConfig
    alpha: float
    power: float | np.ndarray
    sigma2: float
    n_outer: int
    alpha_field: str = "alpha"


# The solvers, and run_sweep's pool class, are looked up as this module's
# attributes at call time, so a wrapper installed on the attribute (a
# tracer, a test) sees every call.
def _ucla(batch: TrialBatch) -> Solutions:
    return ucla_baseline(batch.paths, batch.config, batch.alpha)


def _joint(batch: TrialBatch) -> Solutions:
    return solve_joint(batch.dictionary, batch.alpha)


def _alternating(batch: TrialBatch) -> Solutions:
    return solve_alternating(batch.dictionary, batch.alpha, batch.n_outer)


# method name -> (the Solutions of a TrialBatch, greedy: whether it places
# elements on the joint dictionary, which needs alpha > 0)
METHOD_TABLE = {
    "ucla": (_ucla, False),
    "fcla-j": (_joint, True),
    "fcla-a": (_alternating, True),
}
METHODS = tuple(METHOD_TABLE)
GREEDY_METHODS = tuple(m for m, (_, greedy) in METHOD_TABLE.items() if greedy)
SWEEP_KINDS = ("snr", "grid", "iters")
# bytes that one batch may hold, counted per trial as in _batches, at any
# spec.jobs; at the reference scale a batch holds up to 61 trials on 12x12
# and 13 on 32x32 (CHANGES.md has the measured curve behind it)
BATCH_BYTES = 5_000_000


# spec fields that count something, so each must be a whole number >= 1
WHOLE_FIELDS = ("rings", "elements", "users", "paths", "grid_size",
                "outer_iters", "trials", "jobs")


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _whole(name: str, value, low: int) -> int:
    """value as an int, or a ValueError naming the field unless it is a
    whole number >= low."""
    if not (_is_real(value) and float(value).is_integer() and value >= low):
        raise ValueError(f"{name} must be a whole number >= {low}, got {value!r}")
    return int(value)


def _finite(name: str, value, low: float = -math.inf,
            inclusive: bool = False, other: str = "") -> float:
    """value as a float, or a ValueError naming the field (and the other
    form it may take) unless it is a finite real number above low (or at
    least low, when inclusive)."""
    if not (_is_real(value) and math.isfinite(value)
            and (value >= low if inclusive else value > low)):
        op = ">=" if inclusive else ">"
        bound = f" {op} {low:g}" if math.isfinite(low) else ""
        raise ValueError(f"{name} must be {other}a finite number{bound}, "
                         f"got {value!r}")
    return float(value)


@dataclass
class ExperimentSpec:
    """Everything needed to reproduce one experiment."""

    rings: int = 4
    elements: int = 4
    users: int = 16
    paths: int = 4
    frequency_hz: float = 3e9
    noise_power: float = 1.0
    pattern_kind: str = "directional"
    kappa: float = 1.0
    grid_size: int = 12
    d_min: float | None = None  # None means half a wavelength
    alpha: float | str = "mmse"
    outer_iters: int = 5
    methods: tuple = METHODS
    sweep_kind: str = "snr"
    sweep_values: tuple = (-6.0, -4.0, -2.0, 0.0, 2.0, 4.0, 6.0)
    snr_db: float = 0.0  # operating SNR for grid/iters sweeps
    trials: int = 200
    seed: int = 1
    jobs: int = 1

    def __post_init__(self):
        if not (isinstance(self.methods, (list, tuple))
                and all(isinstance(m, str) for m in self.methods)):
            raise ValueError(f"methods must be a list of method names, "
                             f"got {self.methods!r}")
        self.methods = tuple(m.lower() for m in self.methods)
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
        if not self.methods or len(set(self.methods)) < len(self.methods):
            raise ValueError(f"methods must be distinct and at least one, "
                             f"got {self.methods!r}")
        if self.sweep_kind not in SWEEP_KINDS:
            raise ValueError(
                f"unknown sweep kind {self.sweep_kind!r}; choose from {SWEEP_KINDS}"
            )
        for name in WHOLE_FIELDS:
            setattr(self, name, _whole(name, getattr(self, name), 1))
        self.seed = _whole("seed", self.seed, 0)
        for name in ("noise_power", "frequency_hz"):
            setattr(self, name, _finite(name, getattr(self, name), low=0.0))
        if not math.isfinite(self.wavelength):
            raise ValueError(f"frequency_hz must be large enough for a "
                             f"finite wavelength, got {self.frequency_hz!r}")
        # "mmse" is noise_power, checked above
        if self.alpha != "mmse":
            self.alpha = _finite("alpha", self.alpha, low=0.0, inclusive=True,
                                 other="'mmse' or ")
        # the greedy solvers' inverse-Gram state exists only for alpha > 0,
        # and starts at I / alpha, scoring each candidate |a|^2 / alpha^2
        if set(self.methods) & set(GREEDY_METHODS):
            alpha, greedy = self.alpha_value(), ", ".join(GREEDY_METHODS)
            if not alpha > 0.0:
                raise ValueError(
                    f"alpha must be > 0 for {greedy} (got alpha={self.alpha!r}, "
                    f"noise_power={self.noise_power!r})")
            if not alpha * alpha * sys.float_info.max >= 1.0:
                raise ValueError(f"{self.alpha_field()} must be at least "
                                 f"1 / sqrt(max float) for {greedy}, whose "
                                 f"scores start at |a|^2 / alpha^2; got "
                                 f"alpha={alpha!r}")
        if self.d_min is not None:
            self.d_min = _finite("d_min", self.d_min, low=0.0)
        self.kappa = _finite("kappa", self.kappa, low=1.0, inclusive=True)
        if not math.isfinite(PatternSpec.directional(self.kappa).q):
            raise ValueError(f"kappa must be small enough for a finite "
                             f"pattern factor 2 (kappa + 1), got {self.kappa!r}")
        self.snr_db = _finite("snr_db", self.snr_db)
        if not (isinstance(self.sweep_values, (list, tuple))
                and self.sweep_values):
            raise ValueError(f"sweep_values must be a list of at least one "
                             f"point, got {self.sweep_values!r}")
        self.sweep_values = tuple(_finite("sweep_values", v)
                                  for v in self.sweep_values)
        if len(set(self.sweep_values)) < len(self.sweep_values):
            raise ValueError(f"sweep_values must be distinct, "
                             f"got {self.sweep_values!r}")
        self._check_points()

    def _check_points(self) -> None:
        """Reject a sweep point that cannot run, naming the field it came
        from, before any work or output."""
        if self.sweep_kind != "snr":
            for v in self.sweep_values:
                _whole(f"{self.sweep_kind} sweep_values", v, 1)
        if self.sweep_kind == "iters" and "fcla-a" not in self.methods:
            raise ValueError(f"methods of an iteration sweep must include "
                             f"fcla-a, got {self.methods}")
        self.pattern()  # a bad pattern is named as such, not as a grid size
        if self.sweep_kind == "grid":
            grids, field = [int(v) for v in self.sweep_values], "sweep_values"
        else:
            grids, field = [self.grid_size], "grid_size"
        for grid_size in grids:
            try:
                config = self.config_for_grid(grid_size)
            except ValueError as exc:
                raise ValueError(f"{field} grid size {grid_size}: {exc}") from None
            # the responses' largest phases, 2 pi / wavelength times the
            # radius and the top height
            top = (config.g_v - 1) * config.d_min
            phase = 2.0 * math.pi / config.wavelength * max(config.radius, top)
            if not math.isfinite(phase):
                name, value, bound = (
                    ("frequency_hz", self.frequency_hz, "large")
                    if self.d_min is None else ("d_min", self.d_min, "small"))
                raise ValueError(f"{name} must be {bound} enough to keep the "
                                 f"phases of the {grid_size}x{grid_size} grid "
                                 f"finite, got {value!r}")
        # every SNR a point can run at: snr_db, and an SNR sweep's values
        snrs = [("snr_db", self.snr_db)]
        if self.sweep_kind == "snr":
            snrs += [("sweep_values", v) for v in self.sweep_values]
        for name, snr in snrs:
            try:
                finite = math.isfinite(self.power_for_snr(snr))
            except OverflowError:
                finite = False
            if not finite:
                raise ValueError(f"{name} must be small enough to keep the "
                                 f"transmit power 10^(snr / 10) * noise_power "
                                 f"finite, got {snr!r}")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.frequency_hz

    @property
    def spacing(self) -> float:
        return self.d_min if self.d_min is not None else self.wavelength / 2.0

    def pattern(self) -> PatternSpec:
        if self.pattern_kind == "omni":
            return PatternSpec.omni()
        if self.pattern_kind == "directional":
            return PatternSpec.directional(self.kappa)
        raise ValueError(f"unknown pattern_kind {self.pattern_kind!r}; "
                         f"choose from {PATTERN_KINDS}")

    def config_for_grid(self, grid_size: int) -> FclaConfig:
        return FclaConfig(
            m_rings=self.rings, n_elements=self.elements,
            g_h=grid_size, g_v=grid_size,
            d_min=self.spacing, wavelength=self.wavelength,
            pattern=self.pattern(),
        )

    def alpha_value(self) -> float:
        return self.noise_power if self.alpha == "mmse" else self.alpha

    def alpha_field(self) -> str:
        """The field that alpha_value() comes from."""
        return "noise_power" if self.alpha == "mmse" else "alpha"

    def power_for_snr(self, snr_db: float) -> float:
        return 10.0 ** (snr_db / 10.0) * self.noise_power

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Spec from a dict such as a manifest. Unknown keys are rejected; a
        "version" key is accepted, with a warning when it names another
        release."""
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(data) - known - {"version"})
        if unknown:
            raise ValueError(f"unknown experiment key(s): {', '.join(unknown)}")
        version = data.get("version", __version__)
        if version != __version__:
            warnings.warn(f"spec was written by fcla {version}, "
                          f"this is {__version__}", stacklevel=2)
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class SweepRow:
    method: str
    sweep_var: str
    sweep_value: float
    mean_sum_rate: float
    stderr: float
    trials: int


def ucla_config(config: FclaConfig) -> FclaConfig:
    """The canonical uniform cylinder's grid: N angles (adjacent elements a
    chord of d_min apart) by M heights. A single-element ring keeps the
    flexible grid's angles and with them its track radius."""
    g_h = config.n_elements if config.n_elements > 1 else config.g_h
    return dataclasses.replace(config, g_h=g_h, g_v=config.m_rings)


def ucla_baseline(paths: Paths, config: FclaConfig, alpha: float) -> Solutions:
    """The uniform array's placement, channel and precoder, for each trial
    of paths.

    The baseline is fixed hardware: it keeps the compact canonical radius
    regardless of how large the flexible candidate region is. Ring m sits at
    height slot m of the uniform grid and holds its first N angles, spaced
    2*pi/N. The dictionary is that whole grid: M*N positions, or, with one
    element a ring, the M heights of the flexible grid's angles, of which
    each ring takes the first. So the baseline's rows are those of any
    build of its grid, made by the same matrix product."""
    compact = ucla_config(config)
    n_trials = len(paths)
    slots = np.tile(np.arange(config.m_rings), (n_trials, 1))
    columns = (slots[..., None] * compact.g_h
               + np.arange(config.n_elements)).reshape(n_trials, -1)
    return solutions(build_joint_dictionary(paths, compact), columns, slots,
                     alpha)


def draw_batch(spec: ExperimentSpec, point_index, trials) -> TrialBatch:
    """The paths of the given trials, and their joint dictionary when one
    of spec.methods is greedy. Trial t of sweep point p is drawn from
    SeedSequence([spec.seed, p, t]), so it draws the same paths in any
    batch.

    point_index is the trials' point, with spec its point spec, and the
    batch has one power. Or it lists one point per trial, for a batch that
    spans consecutive points of a sweep (run_sweep); each trial is then
    rated at its own point's power: at SNR spec.sweep_values[p] on an SNR
    sweep, at spec.snr_db otherwise."""
    config = spec.config_for_grid(spec.grid_size)
    if np.ndim(point_index) == 0:
        points = [point_index] * len(trials)
        power = spec.power_for_snr(spec.snr_db)
    else:
        points = point_index
        power = np.array([spec.power_for_snr(
            spec.sweep_values[p] if spec.sweep_kind == "snr" else spec.snr_db)
            for p in points])
    paths = draw_paths(spec.users, spec.paths,
                       [np.random.SeedSequence([spec.seed, p, t])
                        for p, t in zip(points, trials, strict=True)])
    dictionary = None
    if set(spec.methods) & set(GREEDY_METHODS):
        dictionary = build_joint_dictionary(paths, config)
    return TrialBatch(
        paths=paths, dictionary=dictionary, config=config,
        alpha=spec.alpha_value(), power=power, sigma2=spec.noise_power,
        n_outer=spec.outer_iters, alpha_field=spec.alpha_field())


def solve(batch: TrialBatch, method: str) -> Solutions:
    """The method's Solutions of the batch. A greedy state's rejection of
    alpha names the spec field that alpha comes from."""
    try:
        return METHOD_TABLE[method][0](batch)
    except ScoreRangeError as exc:  # its message names alpha
        raise ScoreRangeError(batch.alpha_field
                              + str(exc).removeprefix("alpha")) from None


def solve_methods(batch: TrialBatch, methods) -> dict:
    """Method name -> its Solutions of the batch."""
    return {method: solve(batch, method) for method in methods}


def run_trial(spec: ExperimentSpec, point_index, trials) -> np.ndarray:
    """Paired trials: every requested method on the same channel draws.

    trials is a sequence of B trial indices, all at point point_index or
    each at its own point (see draw_batch); every method runs them as one
    batch. Returns the (B, methods, V) sum rates, methods in spec.methods
    order. V is 1, except at the iteration sweep's point, where column v
    holds the alternating solver's rate after spec.sweep_values[v] rounds
    and every other method's rate repeated.
    """
    batch = draw_batch(spec, point_index, trials)
    rounds = ([int(v) - 1 for v in spec.sweep_values]
              if spec.sweep_kind == "iters" else None)
    out = np.empty((len(batch.paths), len(spec.methods), len(rounds or [0])))
    for i, method in enumerate(spec.methods):
        # each record is rated and dropped before the next method runs
        out[:, i] = rates(batch, solve(batch, method), rounds).sum(axis=-1)
    return out


def rates(batch: TrialBatch, record: Solutions, rounds=None) -> np.ndarray:
    """The (B, V, K) per-user rates of a method's record on the batch: with
    its precoders normalized to batch.power (each trial's own, when it
    holds one per trial), under noise batch.sigma2.

    Given rounds, a record with round_columns (fcla-a) is rated at each
    listed round's placement: the last round is the record's final one, and
    each earlier round is refit here, one at a time. Otherwise V is 1, the
    record's final placement."""
    final = (record.H_star, record.F)
    if rounds is None or record.round_columns is None:
        placements = [final]
    else:
        last = record.round_columns.shape[1] - 1
        placements = (final if r == last else
                      refit(batch.dictionary, record.round_columns[:, r],
                            batch.alpha) for r in rounds)
    return np.stack([sinr(H, normalize_columns(F, batch.power), batch.sigma2)
                     for H, F in placements], axis=1)


def _sweep_work(args):
    """The (B, methods, V) rates of one batch of (point, trial) pairs. If
    the batch raises, its trials run again through here one at a time, and
    the result is a list of each trial's (methods, V) rates or, for a trial
    that fails on its own, its exception (reported by the sweep, which
    keeps going)."""
    spec, pairs = args
    points, trials = zip(*pairs)
    try:
        return run_trial(spec, points, trials)
    except Exception as exc:
        if len(pairs) == 1:
            return [exc]
        return [outcome for pair in pairs
                for outcome in _sweep_work((spec, [pair]))]


def _batches(spec: ExperimentSpec, points) -> list[list[tuple]]:
    """The (point, trial) pairs of a run of consecutive sweep points on
    spec's grid, point by point and each point's spec.trials trials in
    order, split into batches that each fit BATCH_BYTES. A batch holds
    per trial 16 bytes per user for each dictionary column (the complex
    rows, whose matched filter the solvers form a few candidates at a
    time), for 3 of each (K, L, G_H) entry (the response builder's
    intermediates, which it holds for a piece of the batch at a time, so
    the term also covers the other temporaries) and for 2 of each
    (K, M*N) entry (the channel and precoder of a placement; run_trial
    drops each method's record once it is rated). The fewest batches that
    fit are rounded up to a multiple of spec.jobs (unless there are fewer
    pairs), so every worker gets an equal share; spec.jobs sets nothing
    else. A batch may take trials from more than one point of the run."""
    pairs = [(p, t) for p in points for t in range(spec.trials)]
    per_trial = 16 * spec.users * (spec.grid_size ** 2
                                   + 3 * spec.paths * spec.grid_size
                                   + 2 * spec.rings * spec.elements)
    size = max(1, BATCH_BYTES // per_trial)
    rounds = -(-len(pairs) // (size * spec.jobs))
    n_batches = min(len(pairs), rounds * spec.jobs)
    return [pairs[b[0]:b[-1] + 1]
            for b in np.array_split(np.arange(len(pairs)), n_batches)]


def _points(spec: ExperimentSpec) -> list[tuple[ExperimentSpec, tuple]]:
    """The spec of each sweep point, with the sweep values its rows report.
    The iteration sweep is one point run for the most rounds, whose
    per-round rates give every iteration count on the same channels."""
    if spec.sweep_kind == "snr":
        return [(dataclasses.replace(spec, snr_db=v), (v,))
                for v in spec.sweep_values]
    if spec.sweep_kind == "grid":
        return [(dataclasses.replace(spec, grid_size=int(v)), (v,))
                for v in spec.sweep_values]
    return [(dataclasses.replace(spec, outer_iters=int(max(spec.sweep_values))),
             spec.sweep_values)]


def _mean_stderr(values: np.ndarray):
    mean = float(values.mean())
    if len(values) > 1:
        stderr = float(values.std(ddof=1) / np.sqrt(len(values)))
    else:
        stderr = 0.0
    return mean, stderr


def _point_rows(spec: ExperimentSpec, values: tuple,
                rates: np.ndarray) -> list:
    """Rows of one sweep point, from the (trials, methods, V) rates of its
    completed trials (see run_trial): one per method and column, column j
    reporting values[j]."""
    rows = []
    for i, m in enumerate(spec.methods):
        for j, v in enumerate(values):
            # a contiguous copy, so numpy sums it exactly as a list of floats
            column = np.ascontiguousarray(rates[:, i, j])
            mean, stderr = _mean_stderr(column)
            rows.append(SweepRow(method=m, sweep_var=spec.sweep_kind,
                                 sweep_value=v, mean_sum_rate=mean,
                                 stderr=stderr, trials=len(column)))
    return rows


def __getattr__(name: str):
    # the pool class is imported on first use, so a serial sweep loads
    # neither concurrent.futures nor multiprocessing (2 MB resident)
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run_sweep(spec: ExperimentSpec) -> list[SweepRow]:
    """Paired-trial means and standard errors per (method, sweep point).

    SNR and grid sweeps reseed channels per point. The iteration sweep holds
    the channel set fixed across points and reads the alternating solver's
    convergence trace, so the comparison across iteration counts is paired;
    methods that ignore the iteration count appear as constant rows.

    The points fall into runs of consecutive points that share a grid and
    differ at most in power: the whole of an SNR sweep, each grid size, the
    iteration sweep's one point. Each run's trials are split into batches
    (_batches), which may span its points, and every batch is one task; the
    tasks run in order, or on one process pool of at most spec.jobs
    workers, and no more workers than tasks, when spec.jobs > 1. A batch
    has the same byte budget either way: the pool only places the batches.
    """
    points = _points(spec)
    runs = ([(points[0][0], range(len(points)))] if spec.sweep_kind == "snr"
            else [(point, [index]) for index, (point, _) in enumerate(points)])
    tasks = [(point, pairs) for point, run in runs
             for pairs in _batches(point, run)]
    if spec.jobs > 1:
        # numpy loads numpy.random on first use, and this process draws no
        # trial: loaded here, the workers fork with it instead of each
        # importing it on its first draw (tens of ms); at import time it
        # would slow every start instead
        import numpy.random  # noqa: F401
        # no more workers than tasks: a fork start forks them all at once
        workers = min(spec.jobs, len(tasks))
        pool_class = sys.modules[__name__].ProcessPoolExecutor
        with pool_class(max_workers=workers) as pool:
            done = list(pool.map(_sweep_work, tasks))
    else:
        done = [_sweep_work(task) for task in tasks]
    # the tasks hold the runs in point order and each run point by point,
    # so each point's trials are a slice of the outcomes, in trial order
    outcomes = [trial for batch in done for trial in batch]

    rows: list[SweepRow] = []
    failures: list[tuple] = []
    for index, (_, values) in enumerate(points):
        value = max(values)
        trials = outcomes[index * spec.trials:(index + 1) * spec.trials]
        rates = [r for r in trials if not isinstance(r, Exception)]
        point_failures = [(value, t, r) for t, r in enumerate(trials)
                          if isinstance(r, Exception)]
        if not rates:  # the point's spec cannot produce a row
            raise ValueError(
                f"all {spec.trials} trial(s) at {spec.sweep_kind}={value:g} "
                f"failed; the first with {point_failures[0][2]!r}"
            )
        failures.extend(point_failures)
        rows.extend(_point_rows(spec, values, np.stack(rates)))
    if failures:
        rows_failed = ", ".join(f"point {v} trial {t}: {e}" for v, t, e in failures)
        print(f"warning: {len(failures)} trial(s) failed ({rows_failed})",
              file=sys.stderr)
    return rows


def write_results_csv(rows: list[SweepRow], path) -> None:
    """CSV with one row per (method, sweep point); floats keep full precision."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["method", "sweep_var", "sweep_value",
                         "mean_sum_rate_bits", "stderr", "trials"])
        for row in rows:
            writer.writerow([row.method, row.sweep_var, repr(row.sweep_value),
                             repr(row.mean_sum_rate), repr(row.stderr),
                             row.trials])


def write_manifest(spec: ExperimentSpec, path) -> None:
    """JSON echo of the experiment parameters plus the code version;
    re-usable as a config file."""
    with open(path, "w", newline="") as f:
        json.dump({**dataclasses.asdict(spec), "version": __version__}, f,
                  indent=1, sort_keys=True)
