"""Acceptance suite: the project's exit criteria, one test per criterion.

Each test prints a single machine-readable PASS line on success (pytest -s
shows them); tolerances and golden values are pinned here, not configurable.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import bilevelbench as bb
from bilevelbench.harness import (RunConfig, run_experiment, sweep_eps,
                                  tracking_report, warmstart_report)
from bilevelbench.synthetic import hyperclean_weight_report
from bilevelbench.trace import trace_to_csv
from bilevelbench.verify import (SolverSettings, check_bias_decomposition,
                                 finite_diff_hypergrad, inner_solve_exact)

GOLDEN = Path(__file__).parent / "golden"

# pinned on first build (hyperclean weight-separation margins, seed 7)
GOLDEN_MARGIN_P02 = 0.7869437424378782
GOLDEN_MARGIN_P04 = 0.8285948349603466


def _report(num, detail):
    print(f"ACCEPTANCE {num:02d} PASS: {detail}")


def pinned_schedule(T=2000, T0=50):
    return bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                  "eta": 0.01, "T": T, "T0": T0})


def test_01_hypergradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(20240501)
    worst = 0.0
    for k in range(20):
        dx = int(rng.integers(1, 6))
        dy = int(rng.integers(1, 6))
        prob = bb.random_quadratic(dx, dy, seed=900 + k)
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, dx)
            exact = prob.solve(x)[2]
            fd = finite_diff_hypergrad(prob, x, h=1e-5)
            rel = (np.linalg.norm(fd - exact)
                   / max(1e-30, np.linalg.norm(exact)))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-4
    assert elapsed < 5.0
    _report(1, f"max rel error {worst:.3e} over 200 points in {elapsed:.2f}s")


def test_02_fixed_point_consistency():
    from bilevelbench.samples import Sample, Stream

    instances = [
        bb.make_q2(),
        bb.make_unbounded_smooth(bb.UnboundedSmoothSpec(a=1.0,
                                                        core=bb.q2_spec())),
        bb.make_hyperclean(bb.HypercleanSpec(n_train=60, n_val=60,
                                             feature_dim=4,
                                             corruption_rate=0.2, seed=3)),
    ]
    worst = 0.0
    for prob in instances:
        for j in range(5):
            x = np.random.default_rng(50 + j).uniform(-0.5, 0.5, prob.dim_x)
            est = bb.hypergrad_estimate(
                x, prob.solve(x)[0], prob.solve(x)[1],
                Sample(Stream.XI_PRIME, j, 1), Sample(Stream.ZETA_PRIME, j, 1),
                prob.oracle)
            worst = max(worst, float(np.linalg.norm(
                est - prob.solve(x)[2])))
    assert worst <= 1e-10
    _report(2, f"max deviation {worst:.3e} across all shipped instances")


def test_03_step_normalization():
    prob = bb.make_q2(bb.NoiseModel.gaussian(0.1, 0.1, 0.1))
    eta = 0.01
    sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                   "eta": eta, "T": 10000, "T0": 10})
    xs = []

    def record_x(ts, x, y, z, m):
        xs.extend(x)
        return (None,) * 5

    _, trace = bb.slip_run(prob, sched, np.zeros(2), np.ones(2), np.zeros(2),
                           seed=0, metrics=record_x)
    skipped = set(trace.skipped_steps)
    worst = 0.0
    for t in range(len(xs) - 1):
        if t in skipped:
            continue
        worst = max(worst, abs(float(np.linalg.norm(xs[t + 1] - xs[t])) - eta))
    assert worst <= 1e-12 * eta
    _report(3, f"max |step - eta| = {worst:.3e} over 10k iterations")


def test_04_oracle_accounting():
    prob = bb.make_q2(bb.NoiseModel.gaussian(0.05, 0.05, 0.05))
    t0, t = 17, 203
    sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                   "eta": 0.01, "T": t, "T0": t0})
    state, _ = bb.slip_run(prob, sched, np.zeros(2), np.ones(2), np.zeros(2),
                           seed=0)
    assert state.calls.as_tuple() == (t, t, t0 + t, t, t)
    state2, _ = bb.double_loop_run(prob, sched, 2, 3, np.zeros(2), np.ones(2),
                                   np.zeros(2), seed=0)
    assert state2.calls.as_tuple() == (t, t, t0 + t + 3 * (t // 2), t, t)
    _report(4, f"counters {state.calls.as_tuple()} and "
               f"{state2.calls.as_tuple()} match the closed forms")


def test_05_warm_start_bound():
    # the ensemble of `verify --suite warmstart`, whose step must be this one
    start = time.perf_counter()
    delta, sigma = 0.05, 0.1
    c = bb.make_q2(bb.NoiseModel.gaussian(0.0, sigma, 0.0)).constants
    alpha_init = min(1.0 / (2.0 * c.l_g1),
                     c.mu / (2048.0 * c.L1 ** 2 * sigma ** 2
                             * math.log(math.e / delta)))
    report, suite_alpha, t0 = warmstart_report()
    assert suite_alpha == alpha_init
    assert t0 == bb.warm_start_T0(alpha_init, c.mu, c.L1, dist0=math.sqrt(2.0))
    assert report.n_seeds == 200
    elapsed = time.perf_counter() - start
    bound = delta + 2.0 * math.sqrt(delta * (1 - delta) / 200)
    assert bound == pytest.approx(0.0808, abs=2e-4)
    assert report.pass_rate_bound == pytest.approx(bound)
    assert report.violation_rate <= bound
    assert elapsed < 30.0
    _report(5, f"violation rate {report.violation_rate:.4f} <= {bound:.4f} "
               f"(T0={t0}) in {elapsed:.1f}s")


def test_06_tracking_bound():
    # the ensemble of `verify --suite tracking`
    report = tracking_report()
    assert report.n_seeds == 200
    assert report.pass_rate_bound == pytest.approx(0.0808, abs=2e-4)
    assert report.violation_rate <= report.pass_rate_bound
    _report(6, f"violation rate {report.violation_rate:.4f} <= "
               f"{report.pass_rate_bound:.4f} over 200 seeds")


def test_07_benchmark_convergence_golden_trace():
    start = time.perf_counter()
    prob = bb.make_q2()
    state, trace = bb.slip_run(prob, pinned_schedule(), np.zeros(2),
                               np.ones(2), np.zeros(2), seed=0)
    elapsed = time.perf_counter() - start
    grad_norm = float(np.linalg.norm(prob.solve(state.x)[2]))
    assert grad_norm <= 0.02
    assert elapsed < 2.0
    golden = (GOLDEN / "q2_slip_practical_seed0.csv").read_text()
    assert trace_to_csv(trace) == golden
    _report(7, f"final grad norm {grad_norm:.6f} <= 0.02 in {elapsed:.2f}s, "
               f"trace matches golden fixture byte-exactly")


def test_08_hypercleaning_weight_separation():
    start = time.perf_counter()
    margins = {}
    for p, golden_margin in ((0.2, GOLDEN_MARGIN_P02),
                             (0.4, GOLDEN_MARGIN_P04)):
        spec = bb.HypercleanSpec(n_train=200, n_val=200, feature_dim=5,
                                 corruption_rate=p, reg=0.1, seed=7)
        prob = bb.make_hyperclean(spec)
        sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9,
                                       "gamma": 0.1, "eta": 0.05,
                                       "T": 2000, "T0": 100})
        state, _ = bb.slip_run(prob, sched, np.ones(200), np.zeros(5),
                               np.zeros(5), seed=7)
        rep = hyperclean_weight_report(state.x,
                                       prob.metadata["corrupted_indices"])
        assert rep.mean_sigma_corrupted < rep.mean_sigma_clean
        margin = rep.mean_sigma_clean - rep.mean_sigma_corrupted
        assert margin == pytest.approx(golden_margin, abs=1e-9)
        margins[p] = margin
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(8, f"margins {margins[0.2]:.4f} (p=0.2), {margins[0.4]:.4f} "
               f"(p=0.4) in {elapsed:.1f}s")


def test_09_schedule_identities():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 100:
        c = bb.SmoothnessConstants(
            mu=rng.uniform(0.2, 3.0), l_g1=rng.uniform(0.5, 6.0),
            l_g2=rng.uniform(0.0, 1.0), l_f0=rng.uniform(0.0, 3.0),
            L_x0=rng.uniform(0.1, 3.0), L_x1=rng.uniform(0.01, 2.0),
            L_y0=rng.uniform(0.0, 2.0), L_y1=rng.uniform(0.0, 1.0),
            sigma_f1=rng.uniform(0.0, 1.0), sigma_g1=rng.uniform(0.05, 1.0),
            sigma_g2=rng.uniform(0.0, 1.0), sigma_z=rng.uniform(0.0, 1.0))
        if c.l_g1 < c.mu:
            continue
        d0, dy0, dz0 = rng.uniform(0.1, 5.0, size=3)
        delta = rng.uniform(0.01, 0.5)
        try:
            bb.schedule_theorem41(1e12, delta, c, d0, dy0, dz0)
            continue
        except bb.SchedulingError as exc:
            eps = exc.ceiling * rng.uniform(0.05, 1.0)
        try:
            s41 = bb.schedule_theorem41(eps, delta, c, d0, dy0, dz0)
            s42 = bb.schedule_theorem42(min(eps, s41.eps_ceiling), delta, c,
                                        d0, dy0, dz0)
        except bb.SchedulingError:
            continue
        omb41 = 1.0 - s41.beta
        assert s41.gamma * c.mu == pytest.approx(omb41, rel=1e-13)
        assert s41.alpha == pytest.approx(8.0 * omb41 / c.mu, rel=1e-13)
        assert (s41.eta * 8.0 * c.l_g1 * c.L0 * s41.log_A
                == pytest.approx(c.mu * s41.eps * omb41, rel=1e-13))
        omb42 = 1.0 - s42.beta
        assert s42.gamma == pytest.approx(16.0 * omb42 / c.mu, rel=1e-13)
        assert (s42.eta * 8.0 * c.l_g1 * c.L0 * s42.log_A
                == pytest.approx(c.mu * s42.eps * omb42, rel=1e-13))
        checked += 1
    _report(9, f"relational identities hold at machine precision on "
               f"{checked} random admissible inputs")


def test_10_complexity_trend():
    start = time.perf_counter()
    cfg = RunConfig(
        problem_kind="quadratic", problem_params={"preset": "q2"},
        noise=bb.NoiseModel.gaussian(0.1, 0.1, 0.1), algorithm="slip",
        schedule={"mode": "theorem41", "eps": 0.1, "delta": 0.1,
                  "delta0": 1.0, "delta_y0": 1.0, "delta_z0": 1.0},
        seeds=[1])
    summary = sweep_eps(cfg, [0.2, 0.1, 0.05, 0.025])
    elapsed = time.perf_counter() - start
    assert all(r.status == "OK" for r in summary.rows)
    assert 3.0 <= summary.slope <= 5.0
    assert elapsed < 1.0
    _report(10, f"log T vs log(1/eps) slope {summary.slope:.3f} in [3, 5] "
                f"({elapsed:.3f}s, closed form)")


def test_11_determinism(tmp_path):
    import dataclasses

    cfg = RunConfig(
        problem_kind="quadratic", problem_params={"preset": "q2"},
        noise=bb.NoiseModel.gaussian(0.05, 0.05, 0.05), algorithm="slip",
        schedule=pinned_schedule(T=150, T0=10), seeds=[1, 2, 3])
    blobs = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 4)):
        res = run_experiment(dataclasses.replace(cfg, workers=workers),
                             tmp_path / tag / "exp")
        blobs.append(tuple(p.read_bytes() for p in res.trace_paths))
    assert blobs[0] == blobs[1] == blobs[2]
    _report(11, "trace files byte-identical across three reruns "
                "(workers = 1, 1 and 4; seeds run in order either way)")


def test_12_bias_inequality():
    prob = bb.make_q2()
    points = []

    def record_point(ts, x, y, z, m):
        points.extend(zip(x, y, z))
        return (None,) * 5

    bb.slip_run(prob, pinned_schedule(T=1000, T0=50), np.zeros(2), np.ones(2),
                np.zeros(2), seed=0, metrics=record_point)
    report = check_bias_decomposition(prob, points)
    assert report.max_ratio <= 1.0
    _report(12, f"pointwise bias ratio max {report.max_ratio:.4f} <= 1 over "
                f"{report.n_points} iterations")


def test_hyperclean_inner_solver_budget():
    # supporting pin for the solver-backed ground truth used above
    prob = bb.make_hyperclean(bb.HypercleanSpec(
        n_train=200, n_val=200, feature_dim=5, corruption_rate=0.2, reg=0.1,
        seed=7))
    y = inner_solve_exact(prob, np.ones(200),
                          SolverSettings(tol=1e-10, max_iters=30)).y
    assert np.linalg.norm(prob.det.grad_y_g(np.ones(200), y)) <= 1e-10
