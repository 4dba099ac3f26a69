import math

import numpy as np
import pytest

import bilevelbench as bb
from bilevelbench.harness import run_suite
from bilevelbench.verify import (SolverError, SolverSettings,
                                 check_bias_decomposition, check_warm_start,
                                 finite_diff_hypergrad, inner_solve_exact,
                                 solve_linear_system_exact)


class TestInnerSolve:
    def test_q2_origin(self, q2):
        y = inner_solve_exact(q2, np.zeros(2))
        np.testing.assert_allclose(y, np.zeros(2), atol=1e-10)

    def test_q2_at_two_two(self, q2):
        y = inner_solve_exact(q2, np.array([2.0, 2.0]))
        np.testing.assert_allclose(y, [1.0, 1.0], atol=1e-10)

    def test_hyperclean_newton_budget(self):
        prob = bb.make_hyperclean(bb.HypercleanSpec(
            n_train=100, n_val=100, feature_dim=5, corruption_rate=0.2,
            reg=0.1, seed=11))
        y = inner_solve_exact(prob, np.ones(100),
                              SolverSettings(tol=1e-10, max_iters=30))
        assert np.linalg.norm(prob.det.grad_y_g(np.ones(100), y)) <= 1e-10

    def test_budget_exhaustion_reports_residual(self):
        # logistic lower level: one Newton step from zero cannot reach 1e-14
        prob = bb.make_hyperclean(bb.HypercleanSpec(
            n_train=30, n_val=30, feature_dim=3, corruption_rate=0.2,
            reg=0.1, seed=5))
        with pytest.raises(SolverError) as exc_info:
            inner_solve_exact(prob, np.ones(30),
                              SolverSettings(tol=1e-14, max_iters=1))
        assert exc_info.value.residual > 1e-14


class TestLinearSystem:
    def test_q2_at_optimum(self, q2):
        x = np.zeros(2)
        y = q2.analytic.y_star(x)
        z = solve_linear_system_exact(q2, x, y)
        np.testing.assert_allclose(z, [-0.5, -0.5], atol=1e-10)

    def test_zero_rhs(self, q2):
        # at y = e the upper-level y-gradient vanishes, so z* = 0
        z = solve_linear_system_exact(q2, np.zeros(2), np.ones(2))
        np.testing.assert_allclose(z, np.zeros(2), atol=1e-12)

    def test_residual_postcondition(self, q2):
        settings = SolverSettings(tol=1e-10)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.uniform(-2, 2, 2)
            y = rng.uniform(-2, 2, 2)
            z = solve_linear_system_exact(q2, x, y, settings)
            res = q2.det.hvp_yy_g(x, y, z) - q2.det.grad_y_f(x, y)
            assert np.linalg.norm(res) <= settings.tol


class TestFiniteDiff:
    def test_q2_origin(self, q2):
        fd = finite_diff_hypergrad(q2, np.zeros(2), h=1e-5)
        np.testing.assert_allclose(fd, [-0.5, -0.5], atol=1e-6)

    def test_exact_on_constant_objective(self):
        # decoupled lower level (B = 0) with no upper x-term: the composed
        # objective is constant, so central differences are exact at any h
        spec = bb.QuadraticSpec(A=np.eye(2), B=np.zeros((2, 2)),
                                c=np.array([0.3, -0.4]), e=np.zeros(2), r=0.0)
        prob = bb.make_quadratic(spec)
        for h in (1e-2, 1e-4):
            fd = finite_diff_hypergrad(prob, np.array([0.8, -0.3]), h=h,
                                       settings=SolverSettings(tol=1e-12))
            np.testing.assert_allclose(fd, np.zeros(2), atol=1e-9)

    def test_richardson_halving(self):
        # on the cosh upper level the truncation error is O(h^2): halving h
        # shrinks the error by about 4
        prob = bb.make_unbounded_smooth(
            bb.UnboundedSmoothSpec(a=1.0, core=bb.q2_spec()))
        x = np.array([0.9, 0.4])
        exact = prob.analytic.hypergrad(x)
        errs = []
        for h in (2e-3, 1e-3):
            fd = finite_diff_hypergrad(prob, x, h=h,
                                       settings=SolverSettings(tol=1e-12))
            errs.append(np.linalg.norm(fd - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.6)

    def test_loose_inner_tolerance_rejected(self, q2):
        with pytest.raises(bb.ConfigurationError, match="tol"):
            finite_diff_hypergrad(q2, np.zeros(2), h=1e-6,
                                  settings=SolverSettings(tol=1e-11))

    def test_bad_h_rejected(self, q2):
        with pytest.raises(bb.ConfigurationError):
            finite_diff_hypergrad(q2, np.zeros(2), h=0.0)


class TestWarmStartCheck:
    def test_noiseless_no_violations(self, q2):
        c = q2.constants
        alpha_init = 1.0 / (2.0 * c.l_g1)
        t0 = bb.warm_start_T0(alpha_init, c.mu, c.L1, dist0=math.sqrt(2.0))
        report = check_warm_start(q2, alpha_init, t0, c.L1, n_seeds=100,
                                  delta=0.05)
        assert report.n_violations == 0
        assert report.passed

    def test_vacuous_when_already_close(self, q2):
        c = q2.constants
        # dist0 below the target: T0 = 0 and the check passes trivially
        dist0 = 1.0 / (16.0 * math.sqrt(2.0) * c.L1)
        t0 = bb.warm_start_T0(0.1, c.mu, c.L1, dist0=dist0)
        assert t0 == 0
        report = check_warm_start(q2, 0.1, t0, c.L1, n_seeds=100, delta=0.05,
                                  y0_init=np.full(2, dist0 / math.sqrt(2.0)))
        assert report.n_violations == 0

    def test_seed_minimum(self, q2):
        with pytest.raises(bb.ConfigurationError):
            check_warm_start(q2, 0.1, 1, 1.0, n_seeds=10, delta=0.05)

    def test_delta_one_always_passes(self):
        # with delta -> 1 the pass bound exceeds any violation rate
        prob = bb.make_q2(bb.NoiseModel.gaussian(0.0, 2.0, 0.0))
        report = check_warm_start(prob, 0.01, 1, prob.constants.L1,
                                  n_seeds=100, delta=0.999)
        assert report.passed

    def test_delta_zero_passes_only_without_violations(self, q2):
        c = q2.constants
        alpha_init = 1.0 / (2.0 * c.l_g1)
        t0 = bb.warm_start_T0(alpha_init, c.mu, c.L1, dist0=math.sqrt(2.0))
        report = check_warm_start(q2, alpha_init, t0, c.L1, n_seeds=100,
                                  delta=0.0)
        assert report.pass_rate_bound == 0.0
        assert report.passed  # noiseless: zero violations


class TestBiasCheck:
    def run_records(self, prob, T=200):
        sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                       "eta": 0.01, "T": T, "T0": 20})
        points = []

        def record_point(t, x, y, z, m):
            points.append((x, y, z))
            return (None,) * 5

        bb.slip_run(prob, sched, np.zeros(2), np.ones(2), np.zeros(2), seed=0,
                    metrics=record_point)
        return points

    def test_trivial_at_exact_solution(self, q2):
        x = np.array([0.2, -0.1])
        point = (x, q2.analytic.y_star(x), q2.analytic.solve(x)[1])
        report = check_bias_decomposition(q2, [point])
        assert report.max_ratio == 0.0
        assert report.passed

    def test_noiseless_trace_within_bound(self, q2):
        report = check_bias_decomposition(q2, self.run_records(q2))
        assert report.passed
        assert report.max_ratio <= 1.0

    def test_inflating_constants_decreases_ratio(self, q2):
        import dataclasses

        points = self.run_records(q2)
        base = check_bias_decomposition(q2, points)
        fat = dataclasses.replace(q2, constants=dataclasses.replace(
            q2.constants, l_g1=2.0 * q2.constants.l_g1))
        inflated = check_bias_decomposition(fat, points)
        assert inflated.max_ratio < base.max_ratio

    def test_noisy_run_rejected(self, q2_gauss):
        with pytest.raises(bb.ConfigurationError, match="noiseless"):
            check_bias_decomposition(q2_gauss, [])


class TestSuites:
    def test_fast_suites_pass(self):
        for name in ("oracles", "counts", "bias", "determinism"):
            results, ok = run_suite(name)
            assert ok, (name, [r for r in results if not r.passed])

    def test_unknown_suite(self):
        with pytest.raises(bb.ConfigurationError):
            run_suite("bogus")
