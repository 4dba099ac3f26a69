import math

import numpy as np
import pytest

import bilevelbench as bb
from bilevelbench import harness
from bilevelbench.harness import run_suite
from bilevelbench.verify import (SolverError, SolverSettings, TrackingReport,
                                 WarmStartReport, check_bias_decomposition,
                                 check_warm_start, finite_diff_hypergrad,
                                 inner_solve_exact, solve_linear_system_exact)


class TestInnerSolve:
    def test_q2_origin(self, q2):
        y = inner_solve_exact(q2, np.zeros(2)).y
        np.testing.assert_allclose(y, np.zeros(2), atol=1e-10)

    def test_q2_at_two_two(self, q2):
        y = inner_solve_exact(q2, np.array([2.0, 2.0])).y
        np.testing.assert_allclose(y, [1.0, 1.0], atol=1e-10)

    def test_hyperclean_newton_budget(self):
        prob = bb.make_hyperclean(bb.HypercleanSpec(
            n_train=100, n_val=100, feature_dim=5, corruption_rate=0.2,
            reg=0.1, seed=11))
        y = inner_solve_exact(prob, np.ones(100),
                              SolverSettings(tol=1e-10, max_iters=30)).y
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
        y = q2.solve(x)[0]
        z = solve_linear_system_exact(q2, x, q2.det.lower_at(x)(y))
        np.testing.assert_allclose(z, [-0.5, -0.5], atol=1e-10)

    def test_zero_rhs(self, q2):
        # at y = e the upper-level y-gradient vanishes, so z* = 0
        x = np.zeros(2)
        z = solve_linear_system_exact(q2, x, q2.det.lower_at(x)(np.ones(2)))
        np.testing.assert_allclose(z, np.zeros(2), atol=1e-12)

    def test_residual_postcondition(self, q2):
        settings = SolverSettings(tol=1e-10)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.uniform(-2, 2, 2)
            y = rng.uniform(-2, 2, 2)
            z = solve_linear_system_exact(q2, x, q2.det.lower_at(x)(y),
                                          settings)
            res = q2.det.hvp_yy_g(x, y, z) - q2.det.grad_y_f(x, y)
            assert np.linalg.norm(res) <= settings.tol


# the hyperclean instance of configs/hyperclean_slip.cfg
SHIPPED_HYPERCLEAN = bb.HypercleanSpec(
    n_train=200, n_val=200, feature_dim=5, corruption_rate=0.2, reg=0.1, seed=7)


class TestStackedSolves:
    """A stack of points is solved row by row bit for bit as each row alone,
    each row stopping at its own Newton step."""

    @staticmethod
    def stack():
        # weights near 0 make the lower level nearly quadratic: rows about -9
        # take one Newton step, rows about -3 two, and row 45 (weights 1/2)
        # three; 70 rows cross the 32-row slices of the stacked Hessian
        rng = np.random.default_rng(5)
        x = (np.where(np.arange(70)[:, None] % 2 == 0, -9.0, -3.0)
             + rng.uniform(-0.5, 0.5, (70, 200)))
        x[45] = rng.uniform(-0.5, 0.5, 200)
        return x

    @staticmethod
    def steps(prob, x):
        """Newton steps the 1-D solve at ``x`` takes."""
        for k in range(1, 10):
            try:
                inner_solve_exact(prob, x, SolverSettings(max_iters=k))
                return k
            except SolverError:
                pass

    def test_every_row_is_its_one_point_result(self):
        prob = bb.make_hyperclean(SHIPPED_HYPERCLEAN)
        x = self.stack()
        assert {self.steps(prob, row) for row in x} == {1, 2, 3}
        y = np.random.default_rng(6).standard_normal((70, prob.dim_y))
        point = inner_solve_exact(prob, x)
        z = solve_linear_system_exact(prob, x, point)
        solved = prob.solve(x)
        values = prob.upper(x, y)
        for i, xi in enumerate(x):
            alone = inner_solve_exact(prob, xi)
            np.testing.assert_array_equal(point.y[i], alone.y)
            np.testing.assert_array_equal(
                z[i], solve_linear_system_exact(prob, xi, alone))
            for got, want in zip(solved, prob.solve(xi)):
                np.testing.assert_array_equal(got[i], want)
            assert values[i] == prob.upper(xi, y[i])

    @pytest.mark.parametrize("max_iters", [1, 2])
    def test_a_row_over_budget_fails_with_its_own_residual(self, max_iters):
        # two steps leave row 45 alone above tol; one step also the
        # two-step rows, and the stack reports the largest residual
        prob = bb.make_hyperclean(SHIPPED_HYPERCLEAN)
        x = self.stack()
        settings = SolverSettings(max_iters=max_iters)
        residuals = []
        for row in x:
            try:
                inner_solve_exact(prob, row, settings)
            except SolverError as exc:
                residuals.append(exc.residual)
        assert len(residuals) == (1 if max_iters == 2 else 35)
        with pytest.raises(SolverError) as exc_info:
            inner_solve_exact(prob, x, settings)
        assert exc_info.value.residual == max(residuals)

    def test_refinement_stops_for_each_row_at_its_own_tolerance(self):
        # at tol 1e-16 some rows refine their direct solve and a few still
        # miss it: the stack fails with the largest of their residuals, and
        # the rows that meet it are each their one-point result
        prob = bb.make_hyperclean(SHIPPED_HYPERCLEAN)
        x = self.stack()
        settings = SolverSettings(tol=1e-16)
        alone, residuals = {}, []
        for i, row in enumerate(x):
            try:
                alone[i] = solve_linear_system_exact(
                    prob, row, inner_solve_exact(prob, row), settings)
            except SolverError as exc:
                residuals.append(exc.residual)
        assert residuals and alone
        with pytest.raises(SolverError) as exc_info:
            solve_linear_system_exact(prob, x, inner_solve_exact(prob, x),
                                      settings)
        assert exc_info.value.residual == max(residuals)
        rows = sorted(alone)
        z = solve_linear_system_exact(prob, x[rows],
                                      inner_solve_exact(prob, x[rows]), settings)
        for k, i in enumerate(rows):
            np.testing.assert_array_equal(z[k], alone[i])

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
        exact = prob.solve(x)[2]
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
        report = check_warm_start(q2, alpha_init, t0, n_seeds=100, delta=0.05)
        assert report.n_violations == 0
        assert report.passed

    def test_vacuous_when_already_close(self, q2):
        c = q2.constants
        # dist0 below the target: T0 = 0 and the check passes trivially
        dist0 = 1.0 / (16.0 * math.sqrt(2.0) * c.L1)
        t0 = bb.warm_start_T0(0.1, c.mu, c.L1, dist0=dist0)
        assert t0 == 0
        report = check_warm_start(q2, 0.1, t0, n_seeds=100, delta=0.05,
                                  y0_init=np.full(2, dist0 / math.sqrt(2.0)))
        assert report.n_violations == 0

    def test_seed_minimum(self, q2):
        with pytest.raises(bb.ConfigurationError):
            check_warm_start(q2, 0.1, 1, n_seeds=10, delta=0.05)

    def test_delta_one_always_passes(self):
        # with delta -> 1 the pass bound exceeds any violation rate
        prob = bb.make_q2(bb.NoiseModel.gaussian(0.0, 2.0, 0.0))
        report = check_warm_start(prob, 0.01, 1, n_seeds=100, delta=0.999)
        assert report.passed

    def test_delta_zero_passes_only_without_violations(self, q2):
        c = q2.constants
        alpha_init = 1.0 / (2.0 * c.l_g1)
        t0 = bb.warm_start_T0(alpha_init, c.mu, c.L1, dist0=math.sqrt(2.0))
        report = check_warm_start(q2, alpha_init, t0, n_seeds=100, delta=0.0)
        assert report.pass_rate_bound == 0.0
        assert report.passed  # noiseless: zero violations


class TestBiasCheck:
    def run_records(self, prob, T=200):
        sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                       "eta": 0.01, "T": T, "T0": 20})
        points = []

        def record_point(ts, x, y, z, m):
            points.extend(zip(x, y, z))
            return (None,) * 5

        bb.slip_run(prob, sched, np.zeros(2), np.ones(2), np.zeros(2), seed=0,
                    metrics=record_point)
        return points

    def test_trivial_at_exact_solution(self, q2):
        x = np.array([0.2, -0.1])
        point = (x, q2.solve(x)[0], q2.solve(x)[1])
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


# the suites tier-1 runs here; the two 200-seed ensembles run in acceptance
# tests 05 and 06, through the report functions their suites read
FAST_SUITES = ("oracles", "counts", "bias", "determinism")
ENSEMBLE_SUITES = ("warmstart", "tracking")


class TestSuites:
    def test_fast_suites_pass(self):
        for name in FAST_SUITES:
            results, ok = run_suite(name)
            assert ok, (name, [r for r in results if not r.passed])

    def test_every_suite_runs_in_tier1(self, monkeypatch):
        assert set(harness.SUITES) == {*FAST_SUITES, *ENSEMBLE_SUITES}
        for violations, passed in ((0, True), (40, False)):
            monkeypatch.setattr(harness, "warmstart_report", lambda: (
                WarmStartReport(200, violations, 0.0625, 0.0808), 0.01, 564))
            monkeypatch.setattr(harness, "tracking_report",
                                lambda: TrackingReport(200, violations, 0.0808))
            rate = f"{violations / 200:.4f}"
            results, ok = run_suite("warmstart")
            assert ok is passed
            assert results[0].detail == (
                f"violation rate {rate} <= 0.0808 (threshold 0.0625, T0 = 564)")
            results, ok = run_suite("tracking")
            assert ok is passed
            assert results[0].detail == f"violation rate {rate} <= 0.0808"

    @pytest.mark.parametrize("b_passed", [True, False])
    def test_all_runs_every_suite_once_in_order(self, monkeypatch, b_passed):
        calls = []

        def stub(name, passed):
            def suite():
                calls.append(name)
                return [harness.CheckResult(name, passed, "")]
            return suite

        monkeypatch.setattr(harness, "SUITES", {"a": stub("a", True),
                                                "b": stub("b", b_passed)})
        results, ok = run_suite("all")
        assert calls == ["a", "b"]
        assert [(r.name, r.passed) for r in results] == [("a", True),
                                                        ("b", b_passed)]
        assert ok is b_passed

    def test_unknown_suite(self):
        with pytest.raises(bb.ConfigurationError):
            run_suite("bogus")
