"""Acceptance suite: full-scale Monte Carlo reproduction checks plus the
numerical and structural property gates, one printed pass/fail line each.

Heavy runs are shared across criteria through module-level caches. The
reference scale is 4 rings of 4 elements serving 16 users with 4 paths each,
a 12x12 candidate grid, unit noise, and the noise-matched regularizer.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from fcla.alternating import solve_alternating
from fcla.channel import Dictionary, build_joint_dictionary, draw_paths
from fcla.geometry import FclaConfig
from fcla.harness import ExperimentSpec, run_sweep, run_trial, ucla_baseline
from fcla.joint import solve_joint
from fcla.oracle import exhaustive_best
from fcla.pattern import PatternSpec, power_gain
from fcla.precoding import normalize_columns, rzf, sinr
from spacing_oracle import check_spacing

TRIALS = 200
SWEEP_TRIALS = 100
SEED = 1


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    return ok


def reference_scale_spec(pattern_kind, **kw):
    base = dict(rings=4, elements=4, users=16, paths=4, grid_size=12,
                pattern_kind=pattern_kind, kappa=1.0, noise_power=1.0,
                alpha="mmse", outer_iters=5, trials=TRIALS, seed=SEED,
                sweep_kind="snr", sweep_values=(0.0,))
    base.update(kw)
    return ExperimentSpec(**base)


class ReferenceRuns(NamedTuple):
    mean: dict    # name -> mean over the paired trials
    trials: dict  # name -> per-trial values, trial index aligned across runs


@functools.lru_cache(maxsize=None)
def reference_runs(pattern_kind):
    """Paired trials at the reference scale, all methods, with the
    alternating solver run for 10 rounds so both the round-5 and round-10
    values come from one deterministic run.

    Besides the sum rates it records "ucla-gain", the mean |h|^2 over the
    entries of the uniform baseline's channel, drawn from the same paths.
    Trial t uses the same channel draw for every pattern kind, so values
    of one name pair up across the omni and directional runs."""
    spec = reference_scale_spec(pattern_kind, sweep_kind="iters",
                                sweep_values=(5, 10), outer_iters=10)
    config = spec.config_for_grid(spec.grid_size)
    # per method in spec.methods order, the (rounds 5 and 10, trials) rates
    ucla, joint, alt = run_trial(spec, 0, range(TRIALS)).transpose(1, 2, 0)
    paths = draw_paths(spec.users, spec.paths,
                       [np.random.SeedSequence([spec.seed, 0, t])
                        for t in range(TRIALS)])
    ucla_channels = ucla_baseline(paths, config, spec.alpha_value()).H_star
    gain = np.mean(np.abs(ucla_channels) ** 2, axis=(1, 2))
    trials = {k: np.array(v)
              for k, v in [("ucla", ucla[0]), ("fcla-j", joint[0]),
                           ("fcla-a", alt[0]), ("fcla-a-10", alt[1]),
                           ("ucla-gain", gain)]}
    return ReferenceRuns({k: float(np.mean(v)) for k, v in trials.items()},
                         trials)


def ratio_of_means(a, b):
    """mean(a) / mean(b) over paired trials and its delta-method standard
    error, from the per-trial residuals a - r * b."""
    r = a.mean() / b.mean()
    return r, float(np.std(a - r * b, ddof=1) / math.sqrt(len(a)) / b.mean())


def paired_z(a, b):
    """Mean of the paired differences a - b over its standard error."""
    d = a - b
    return float(d.mean() / (d.std(ddof=1) / math.sqrt(len(d))))


@functools.lru_cache(maxsize=None)
def snr_sweep_rows():
    spec = reference_scale_spec("directional", trials=SWEEP_TRIALS,
                            sweep_values=(-6, -4, -2, 0, 2, 4, 6))
    return run_sweep(spec)


@functools.lru_cache(maxsize=None)
def grid_sweep_rows():
    spec = reference_scale_spec("directional", trials=SWEEP_TRIALS,
                            sweep_kind="grid", sweep_values=(4, 6, 8, 10, 12))
    return run_sweep(spec)


def method_series(rows, method):
    mine = sorted((r for r in rows if r.method == method),
                  key=lambda r: r.sweep_value)
    return ([r.sweep_value for r in mine], [r.mean_sum_rate for r in mine],
            [r.stderr for r in mine])


def test_criterion_1_directional_gains():
    """FCLA over UCLA with directional elements, the comparison behind the
    abstract's headline: "FCLA-J and FCLA-A achieve substantial performance
    improvements of 43.32% and 25.42%, respectively".

    The thresholds (alternating >= +30%, joint >= +15%, alternating ahead
    of joint) have no source in the repository beyond that sentence, and
    the asserted order is the reverse of it: the abstract puts the joint
    method ahead of the alternating one. The gate is kept as written until
    the paper's simulation section, which would settle the setup behind
    the abstract's numbers, is in the repository."""
    runs = reference_runs("directional").mean
    gain_a = runs["fcla-a"] / runs["ucla"] - 1.0
    gain_j = runs["fcla-j"] / runs["ucla"] - 1.0
    ok = gain_a >= 0.30 and gain_j >= 0.15 and runs["fcla-a"] > runs["fcla-j"]
    report(1, ok,
           f"directional gains over the uniform baseline: alternating "
           f"{gain_a:+.1%}, joint {gain_j:+.1%} "
           f"(means {runs['ucla']:.3f} / {runs['fcla-j']:.3f} / "
           f"{runs['fcla-a']:.3f} bits, {TRIALS} paired trials)")
    assert ok


def test_criterion_2_omni_gains():
    """FCLA over UCLA with omni elements. The abstract reports gains only
    for directional patterns; these thresholds restate criterion 1's for
    the omni element and have no other source in the repository."""
    runs = reference_runs("omni").mean
    gain_a = runs["fcla-a"] / runs["ucla"] - 1.0
    gain_j = runs["fcla-j"] / runs["ucla"] - 1.0
    ok = gain_a >= 0.30 and gain_j >= 0.15
    report(2, ok,
           f"omni gains over the uniform baseline: alternating "
           f"{gain_a:+.1%}, joint {gain_j:+.1%} "
           f"(means {runs['ucla']:.3f} / {runs['fcla-j']:.3f} / "
           f"{runs['fcla-a']:.3f} bits, {TRIALS} paired trials)")
    assert ok


def test_criterion_3_directional_uplift_over_omni():
    """Directional elements lift the sum rate over omni ones, both on fixed
    hardware (the uniform baseline) and under the revolving optimizer.

    The paper adopts directional patterns because "horizontal revolving can
    change the antenna orientation"; it gives no size for the uplift over
    omni. The size follows from the model documented in fcla.pattern and
    fcla.channel:

    - the directional power pattern Q sin(theta)^k cos+(phi)^k, with
      Q = 2(k+1), integrates to 4*pi, so it re-weights the radiated energy
      of an omni element and adds none (criterion 7 checks the quadrature);
    - path elevations are uniform on [pi/6, 5*pi/6] and the azimuth relative
      to a uniform-array element is uniform on the circle, independent of
      the unit-variance path gains.

    For k = 1 the expected per-entry channel gain over omni is therefore
    Q E[sin theta] E[cos+ phi] = 4 * (3*sqrt(3) / (2*pi)) * (1/pi)
    = 6*sqrt(3)/pi^2 ~ 1.053, above one only because no path arrives near
    the axis, where the pattern is weak. That few percent of extra channel
    energy cannot carry a sum-rate uplift of a fixed large share (the +30%
    once asserted here had no source); the criterion checks instead that

    (a) on the uniform placement, mean |h|^2 directional over mean |h|^2
        omni equals 6*sqrt(3)/pi^2 within 4 paired standard errors, either
        side (this pins the pattern's normalization, its front-lobe
        clipping and its use as a power, not an amplitude, gain);
    (b) the paired sum-rate uplift is positive with z >= 3 for both the
        uniform baseline and the alternating solver;
    (c) the alternating solver's relative uplift is at least the uniform
        baseline's, since revolving turns the elements toward the users.
    """
    directional = reference_runs("directional")
    omni = reference_runs("omni")

    expected_gain = 6.0 * math.sqrt(3.0) / math.pi ** 2
    gain, gain_se = ratio_of_means(directional.trials["ucla-gain"],
                                   omni.trials["ucla-gain"])
    gain_dev = (gain - expected_gain) / gain_se
    gain_ok = abs(gain_dev) <= 4.0

    uplift = {m: directional.mean[m] / omni.mean[m] - 1.0
              for m in ("ucla", "fcla-a")}
    z = {m: paired_z(directional.trials[m], omni.trials[m])
         for m in ("ucla", "fcla-a")}
    real_ok = all(uplift[m] > 0.0 and z[m] >= 3.0 for m in uplift)
    revolve_ok = uplift["fcla-a"] >= uplift["ucla"]

    ok = gain_ok and real_ok and revolve_ok
    report(3, ok,
           f"directional-vs-omni uniform-array channel gain {gain:.4f} "
           f"+- {gain_se:.4f}, expected {expected_gain:.4f} "
           f"({gain_dev:+.1f} se, limit 4); sum-rate uplift: uniform "
           f"baseline {uplift['ucla']:+.1%} (z {z['ucla']:.1f}), alternating "
           f"solver {uplift['fcla-a']:+.1%} (z {z['fcla-a']:.1f}), "
           f"need z >= 3 each and alternating >= uniform "
           f"({TRIALS} paired trials)")
    assert ok


def test_criterion_4_alternating_convergence():
    """Five alternating rounds, the default, are enough. The 2% tolerance
    on the round-5 to round-10 change has no source in the repository
    beyond that default."""
    runs = reference_runs("directional").mean
    change = abs(runs["fcla-a-10"] - runs["fcla-a"]) / runs["fcla-a"]
    ok = change < 0.02
    report(4, ok,
           f"alternating solver mean changes {change:.2%} between round 5 "
           f"and round 10 (threshold 2%)")
    assert ok


def test_criterion_5_snr_and_grid_trends():
    """Sum rate does not fall with SNR or with a finer candidate grid, and
    the grid's returns diminish. The abstract states no trend; the slack
    of 2 combined standard errors is a statistical tolerance, not a
    figure of the paper."""
    ok = True
    details = []

    for method in ("ucla", "fcla-j", "fcla-a"):
        _, means, errs = method_series(snr_sweep_rows(), method)
        for i in range(len(means) - 1):
            slack = 2.0 * math.hypot(errs[i], errs[i + 1])
            if means[i + 1] < means[i] - slack:
                ok = False
                details.append(f"{method} decreases at point {i}")
    details.append("sum rate non-decreasing in SNR for every method")

    for method in ("fcla-j", "fcla-a"):
        values, means, errs = method_series(grid_sweep_rows(), method)
        for i in range(len(means) - 1):
            slack = 2.0 * math.hypot(errs[i], errs[i + 1])
            if means[i + 1] < means[i] - slack:
                ok = False
                details.append(f"{method} decreases at grid {values[i + 1]}")
        first = means[1] - means[0]
        last = means[-1] - means[-2]
        slack = 2.0 * math.hypot(errs[0], errs[1], errs[-2], errs[-1])
        if last > first + slack:
            ok = False
            details.append(f"{method} increments do not diminish")
        else:
            details.append(f"{method} grid increments diminish "
                           f"({first:.2f} down to {last:.2f} bits)")

    report(5, ok, "; ".join(details))
    assert ok


def test_criterion_6_solvers_dominated_by_oracle():
    """No greedy solution beats the exhaustive optimum, which holds by
    construction; 1e-9 is the floating-point slack on the objective."""
    rng = np.random.default_rng(2024)
    gaps = []
    feasible = True
    dominated = True
    for i in range(100):
        m = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        g_v = int(rng.integers(max(m, 2), 5))
        g_h = int(rng.integers(max(n, 2), 5))
        pattern = PatternSpec.directional(1.0) if i % 2 else PatternSpec.omni()
        config = FclaConfig(m, n, g_h, g_v, d_min=0.05, wavelength=0.1,
                            pattern=pattern)
        paths = draw_paths(4, 2, [np.random.SeedSequence([77, i])])
        dictionary = build_joint_dictionary(paths, config)
        ((best, _),) = exhaustive_best(dictionary, alpha=1.0)
        for sol in (solve_joint(dictionary, alpha=1.0),
                    solve_alternating(dictionary, 1.0, 3)):
            (columns,) = sol.columns
            try:
                check_spacing(list(zip(dictionary.psi[columns],
                                       dictionary.z[columns])), config)
            except ValueError:
                feasible = False
            gap = sol.objective[0] - best.objective
            if gap < -1e-9:
                dominated = False
            gaps.append(gap / best.objective)
    ok = feasible and dominated
    report(6, ok,
           f"100 tiny instances: feasible={feasible}, "
           f"oracle dominated={dominated}, median relative objective gap "
           f"{np.median(gaps):.4f}, worst {np.max(gaps):.4f}")
    assert ok


def test_criterion_7_numerical_properties():
    """Identities of the model (the pattern's power integrates to 4*pi,
    RZF against independent solvers and its zero-forcing and
    matched-filter limits, exact power normalization, SINR against a
    scalar loop); each tolerance is floating-point or quadrature error."""
    ok = True
    details = []

    # pattern power integrates to the full sphere
    theta = np.linspace(0.0, np.pi, 2001)
    phi = np.linspace(-np.pi / 2.0, np.pi / 2.0, 2001)
    worst = 0.0
    for kappa in (1.0, 2.0, 3.0):
        spec = PatternSpec.directional(kappa)
        integrand = (power_gain(spec, theta[:, None], phi[None, :])
                     * np.sin(theta)[:, None])
        total = np.trapezoid(np.trapezoid(integrand, phi, axis=1), theta)
        worst = max(worst, abs(total - 4.0 * np.pi) / (4.0 * np.pi))
    ok &= worst < 1e-3
    details.append(f"pattern quadrature rel err {worst:.1e}")

    # precoder against an independent elimination oracle, in each Gram form
    from test_precoding import rzf_oracle
    rng = np.random.default_rng(5)
    H = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
    F = rzf(H, 0.7)
    err_oracle = float(np.max(np.abs(F - rzf_oracle(H, 0.7))))
    # the users' form on this wide channel, the antennas' on its transpose
    err_gram = float(np.max(np.abs(rzf(H.T, 0.7) - rzf_oracle(H.T, 0.7))))
    ok &= err_oracle < 1e-10 and err_gram < 1e-10
    details.append(f"solver vs elimination oracle {err_oracle:.1e}, "
                   f"gram forms {err_gram:.1e}")

    # normalization is exact
    power_err = abs(np.linalg.norm(normalize_columns(F, 3.0), "fro") ** 2 - 3.0)
    ok &= power_err < 1e-12
    details.append(f"power normalization error {power_err:.1e}")

    # family limits
    zf_err = float(np.max(np.abs(H @ rzf(H, 0.0) - np.eye(4))))
    F_big = rzf(H, 1e8)
    F_mrt = H.conj().T
    cosine = np.abs(np.sum(F_big.conj() * F_mrt, axis=0)) / (
        np.linalg.norm(F_big, axis=0) * np.linalg.norm(F_mrt, axis=0))
    ok &= zf_err < 1e-8 and bool(np.all(cosine > 1.0 - 1e-6))
    details.append(f"zero-reg inversion {zf_err:.1e}, "
                   f"matched-filter cosine {float(cosine.min()):.8f}")

    # link quality against the scalar loop
    from test_precoding import sinr_oracle
    G = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    W = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    sinr_err = float(np.max(np.abs(sinr(G, W, 0.9)
                                   - np.log2(1.0 + sinr_oracle(G, W, 0.9)))))
    ok &= sinr_err < 1e-12
    details.append(f"link-quality vs scalar oracle {sinr_err:.1e}")

    report(7, ok, "; ".join(details))
    assert ok


def test_criterion_8_structural_properties():
    """Properties of the greedy solvers' construction: the joint solver
    makes at least one pick per antenna (4 x 4) and at most one per
    candidate (12 x 12), refits never raise the objective, and runs repeat
    exactly."""
    ok = True
    details = []

    # crafted instance: a pick in a never-completed height group is dropped
    rows = np.array([[10.0, 0.0], [0.0, 3.0], [0.0, 4.0], [0.1, 0.1]],
                    dtype=complex)
    crafted = Dictionary(rows[None],
                         FclaConfig(1, 2, 2, 2, d_min=0.05, wavelength=0.1))
    sol = solve_joint(crafted, alpha=1.0)
    trace_ok = (sol.picks[0, :sol.iterations[0]].tolist() == [0, 2, 1]
                and sol.columns.tolist() == [[0, 1]])
    ok &= trace_ok
    details.append(f"over-matching trace reproduced={trace_ok}")

    # reference-scale structure: iteration bounds, monotone refits, determinism
    spec = reference_scale_spec("directional", trials=1)
    config = spec.config_for_grid(12)
    paths = draw_paths(16, 4, [np.random.SeedSequence([SEED, 0, 0])])
    dictionary = build_joint_dictionary(paths, config)
    a = solve_joint(dictionary, alpha=1.0)
    b = solve_joint(dictionary, alpha=1.0)
    iters = int(a.iterations[0])
    bounds_ok = 16 <= iters <= 144
    ok &= bounds_ok
    details.append(f"joint iterations {iters} within [16, 144]")

    joint_trace = a.pick_objectives[0, :iters].tolist()
    mono_joint = all(y <= x + 1e-9 * max(1.0, abs(x))
                     for x, y in zip(joint_trace, joint_trace[1:]))
    alt = solve_alternating(dictionary, 1.0, 5)
    ok &= mono_joint
    details.append(f"per-step objectives monotone: joint={mono_joint}")

    deterministic = (np.array_equal(a.picks, b.picks)
                     and np.array_equal(a.F, b.F)
                     and np.array_equal(run_trial(spec, 0, [0]),
                                        run_trial(spec, 0, [0])))
    ok &= deterministic
    details.append(f"deterministic under fixed seeds={deterministic}")

    support_ok = a.columns.shape == (1, 16)
    for sol in (a, alt):
        (columns,) = sol.columns
        check_spacing(list(zip(dictionary.psi[columns], dictionary.z[columns])),
                      config)
    ok &= support_ok
    details.append(f"final support size 16={support_ok}, placements feasible")

    report(8, ok, "; ".join(details))
    assert ok
