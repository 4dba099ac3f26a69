import hashlib
from dataclasses import replace

import numpy as np
import pytest

import bilevelbench as bb
from bilevelbench.algorithms import update_z
from bilevelbench.problem import (AnalyticOracle, DeterministicOracle,
                                  StochasticOracle)
from bilevelbench.samples import Sample, Stream
from bilevelbench.trace import trace_to_csv


def constant_ghat_problem(gx, dim_x=2, dim_y=2):
    """Stub problem whose hypergradient estimate is the constant ``gx``."""
    gx = np.asarray(gx, dtype=float)
    det = DeterministicOracle(
        grad_x_f=lambda x, y: gx.copy(),
        grad_y_f=lambda x, y: np.zeros(dim_y),
        grad_y_g=lambda x, y: np.zeros(dim_y),
        hvp_xy_g=lambda x, y, z: np.zeros(dim_x),
        hvp_yy_g=lambda x, y, z: np.zeros(dim_y),
        hess_yy_g=lambda x, y: np.zeros((dim_y, dim_y)),
    )
    # the lower level is flat: every y is a minimizer, and z* = 0
    analytic = AnalyticOracle(y_star=lambda x: np.zeros(dim_y),
                              z_star=lambda x: np.zeros(dim_y),
                              hypergrad=lambda x: gx.copy())
    return bb.BilevelProblem(
        dim_x=dim_x, dim_y=dim_y,
        upper=lambda x, y: 0.0, lower=lambda x, y: 0.0,
        det=det, oracle=StochasticOracle(det, bb.NoiseModel.noiseless()),
        analytic=analytic, constants=bb.SmoothnessConstants(mu=0.0, l_g1=0.0),
        name="stub")


class TestSgdDD:
    def test_hand_iteration(self, q2):
        y = bb.sgd_dd(q2, np.zeros(2), np.ones(2), alpha=0.25,
                      n_steps=3, seed=0)
        assert y.shape == (2,)
        np.testing.assert_allclose(y, [0.125, 0.125], atol=1e-15)

    def test_zero_steps(self, q2):
        y0 = np.array([0.7, -0.2])
        y = bb.sgd_dd(q2, np.zeros(2), y0, alpha=0.25, n_steps=0, seed=0)
        assert y.shape == (2,)
        np.testing.assert_array_equal(y, y0)

    def test_noiseless_contraction(self, q2):
        # distance trace obeys the squared contraction with rate 1 - mu*alpha/2
        alpha = 0.25
        x = np.zeros(2)
        ystar = q2.analytic.y_star(x)
        y = np.ones(2)
        dist = [float(np.linalg.norm(y - ystar))]
        for t in range(20):
            y = bb.sgd_dd(q2, x, y, alpha=alpha, n_steps=1, seed=0,
                          counter_start=t)
            dist.append(float(np.linalg.norm(y - ystar)))
        mu = q2.constants.mu
        rate = 1.0 - mu * alpha / 2.0
        for t, d in enumerate(dist):
            assert d ** 2 <= rate ** t * dist[0] ** 2 + 1e-15
        # this instance actually contracts at 0.25 per squared step
        assert dist[1] ** 2 == pytest.approx(0.25 * dist[0] ** 2, rel=1e-12)

    def test_large_alpha_warns(self, q2):
        with pytest.warns(UserWarning, match="tracking"):
            bb.sgd_dd(q2, np.zeros(2), np.ones(2), alpha=1.0, n_steps=1, seed=0)

    def test_never_reads_ground_truth(self, q2_gauss):
        def unreachable(x):
            raise AssertionError("sgd_dd read the analytic oracle")

        blind = replace(q2_gauss, analytic=AnalyticOracle(
            unreachable, unreachable, unreachable))
        args = (np.array([0.3, -0.2]), np.ones(2), 0.25, 7, 3)
        np.testing.assert_array_equal(bb.sgd_dd(blind, *args),
                                      bb.sgd_dd(q2_gauss, *args))


class TestUpdateZ:
    def test_fixed_point(self, q2):
        x = np.zeros(2)
        y = q2.analytic.y_star(x)
        zstar = q2.analytic.z_star(x)
        np.testing.assert_allclose(zstar, [-0.5, -0.5], atol=1e-15)
        z1 = update_z(zstar, x, y, 0.3, Sample(Stream.ZETA, 0, 0),
                      Sample(Stream.XI, 0, 0), q2)
        np.testing.assert_allclose(z1, zstar, atol=1e-15)

    def test_zero_gamma(self, q2):
        z = np.array([0.4, -0.9])
        z1 = update_z(z, np.zeros(2), np.zeros(2), 0.0,
                      Sample(Stream.ZETA, 0, 0), Sample(Stream.XI, 0, 0), q2)
        np.testing.assert_array_equal(z1, z)

    def test_one_step_from_zero(self, q2):
        # z1 = -gamma * (0 - grad_y f) = gamma * (y - e)
        gamma = 0.25
        x, y = np.zeros(2), np.zeros(2)
        z1 = update_z(np.zeros(2), x, y, gamma, Sample(Stream.ZETA, 0, 0),
                      Sample(Stream.XI, 0, 0), q2)
        np.testing.assert_allclose(z1, gamma * (y - np.ones(2)), atol=1e-15)


class TestSlip:
    def test_momentum_convex_combination(self):
        prob = constant_ghat_problem([1.0, 0.0])
        sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                       "eta": 0.5, "T": 1, "T0": 0})
        views = []
        state, _ = bb.slip_run(prob, sched, np.zeros(2), np.zeros(2),
                               np.zeros(2), seed=0, hooks=views.append)
        np.testing.assert_allclose(state.m, [0.1, 0.0], atol=1e-15)
        np.testing.assert_allclose(views[0].ghat, [1.0, 0.0], atol=1e-15)

    def test_normalized_step_arithmetic(self):
        # after one step m = (1-beta) * ghat = (3, 4); step length exactly eta
        prob = constant_ghat_problem([30.0, 40.0])
        sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                       "eta": 0.1, "T": 1, "T0": 0})
        state, _ = bb.slip_run(prob, sched, np.zeros(2), np.zeros(2),
                               np.zeros(2), seed=0)
        np.testing.assert_allclose(state.m, [3.0, 4.0], rtol=1e-12)
        np.testing.assert_allclose(state.x, [-0.06, -0.08], atol=1e-15)
        assert np.linalg.norm(state.x) == pytest.approx(0.1, rel=1e-14)

    def test_pinned_convergence(self, q2, practical_pinned):
        state, trace = bb.slip_run(q2, practical_pinned, np.zeros(2),
                                   np.ones(2), np.zeros(2), seed=0)
        assert np.linalg.norm(q2.analytic.hypergrad(state.x)) <= 0.02
        assert np.linalg.norm(state.x - 0.4) <= 0.05
        assert trace.records[-1].grad_norm <= 0.02

    def test_step_normalization_along_trace(self, q2_gauss):
        sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                       "eta": 0.01, "T": 400, "T0": 10})
        xs = []
        bb.slip_run(q2_gauss, sched, np.zeros(2), np.ones(2), np.zeros(2),
                    seed=3, hooks=lambda v: xs.append(v.x))
        steps = [np.linalg.norm(xs[i + 1] - xs[i]) for i in range(len(xs) - 1)]
        assert max(abs(s - 0.01) for s in steps) <= 1e-12 * 0.01

    def test_oracle_counts(self, q2_gauss):
        t0, t = 13, 57
        sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                       "eta": 0.01, "T": t, "T0": t0})
        state, _ = bb.slip_run(q2_gauss, sched, np.zeros(2), np.ones(2),
                               np.zeros(2), seed=0)
        assert state.calls.as_tuple() == (t, t, t0 + t, t, t)

    def test_momentum_unrolling(self, q2_gauss):
        beta = 0.9
        sched = bb.schedule_practical({"alpha": 0.1, "beta": beta, "gamma": 0.1,
                                       "eta": 0.01, "T": 300, "T0": 5})
        ghats, ms = [], []
        bb.slip_run(q2_gauss, sched, np.zeros(2), np.ones(2), np.zeros(2),
                    seed=1, hooks=lambda v: (ghats.append(v.ghat),
                                             ms.append(v.m)))
        t = len(ghats) - 1
        unrolled = sum(((1 - beta) * beta ** (t - i)) * ghats[i]
                       for i in range(t + 1))
        rel = (np.linalg.norm(ms[-1] - unrolled)
               / max(1e-300, np.linalg.norm(ms[-1])))
        assert rel <= 1e-10

    def test_zero_momentum_skips_step(self):
        prob = constant_ghat_problem([0.0, 0.0])
        sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                       "eta": 0.1, "T": 5, "T0": 0})
        x0 = np.array([0.3, 0.4])
        state, trace = bb.slip_run(prob, sched, x0, np.zeros(2), np.zeros(2),
                                   seed=0)
        np.testing.assert_array_equal(state.x, x0)
        assert trace.skipped_steps == [0, 1, 2, 3, 4]

    def test_seed_determinism(self, q2_gauss):
        sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                       "eta": 0.01, "T": 100, "T0": 10})
        runs = [bb.slip_run(q2_gauss, sched, np.zeros(2), np.ones(2),
                            np.zeros(2), seed=5) for _ in range(2)]
        assert trace_to_csv(runs[0][1]) == trace_to_csv(runs[1][1])
        assert np.array_equal(runs[0][0].x, runs[1][0].x)

    def test_nan_abort_reports_row(self, q2_gauss):
        sched = bb.schedule_practical({"alpha": 5.0, "beta": 0.9, "gamma": 5.0,
                                       "eta": 0.1, "T": 500, "T0": 0})
        with pytest.raises(bb.NumericalDivergenceError) as exc_info:
            bb.slip_run(q2_gauss, sched, np.zeros(2), np.ones(2), np.zeros(2),
                        seed=0)
        err = exc_info.value
        assert err.trace.aborted_at == err.t
        assert len(err.trace.records) == err.t + 1

    def test_init_shape_validation(self, q2):
        sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                       "eta": 0.01, "T": 5, "T0": 0})
        with pytest.raises(bb.ConfigurationError):
            bb.slip_run(q2, sched, np.zeros(3), np.ones(2), np.zeros(2), seed=0)

    # sha256 of noiseless trace CSVs: the solver-backed ground truth of
    # hypercleaning and the closed-form one of the cosh upper level
    PINNED_SHA256 = {
        "hyperclean": "9cec28beecdada0e71faf93351089e3f7ff99dc055f6bfb6bd6c39051d63cab9",
        "unbounded": "46ee749cfb734310a534725e9b2a778f0b983ca2701e1ab79b45fdd4a6287979",
    }

    @pytest.mark.parametrize("kind", sorted(PINNED_SHA256))
    def test_trace_bytes_pinned(self, kind):
        if kind == "hyperclean":
            prob = bb.make_hyperclean(bb.HypercleanSpec(
                n_train=30, n_val=30, feature_dim=3, corruption_rate=0.2,
                reg=0.1, seed=5))
            sched = {"eta": 0.05, "T": 60, "T0": 10}
            inits = (np.ones(30), np.zeros(3), np.zeros(3))
        else:
            prob = bb.make_unbounded_smooth(
                bb.UnboundedSmoothSpec(a=1.0, core=bb.q2_spec()))
            sched = {"eta": 0.01, "T": 300, "T0": 20}
            inits = (np.zeros(2), np.ones(2), np.zeros(2))
        sched = bb.schedule_practical(
            {"alpha": 0.1, "beta": 0.9, "gamma": 0.1, **sched})
        _, trace = bb.slip_run(prob, sched, *inits, seed=0)
        digest = hashlib.sha256(trace_to_csv(trace).encode()).hexdigest()
        assert digest == self.PINNED_SHA256[kind]


class TestBaselines:
    def test_masoba_unnormalized_step(self):
        prob = constant_ghat_problem([30.0, 40.0])
        sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                       "eta": 0.1, "T": 1, "T0": 0})
        state, _ = bb.masoba_run(prob, sched, np.zeros(2), np.zeros(2),
                                 np.zeros(2), seed=0)
        # x moves by eta * m, not eta * m/||m||
        np.testing.assert_allclose(state.x, [-0.3, -0.4], rtol=1e-12)

    def test_masoba_zero_momentum_zero_step(self):
        prob = constant_ghat_problem([0.0, 0.0])
        sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                       "eta": 0.1, "T": 3, "T0": 0})
        x0 = np.array([1.0, -1.0])
        state, _ = bb.masoba_run(prob, sched, x0, np.zeros(2), np.zeros(2),
                                 seed=0)
        np.testing.assert_array_equal(state.x, x0)

    def test_masoba_converges_on_q2(self, q2):
        sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                       "eta": 0.1, "T": 2000, "T0": 50})
        state, _ = bb.masoba_run(q2, sched, np.zeros(2), np.ones(2),
                                 np.zeros(2), seed=0)
        assert np.linalg.norm(q2.analytic.hypergrad(state.x)) <= 1e-6

    def test_doubleloop_reduces_to_slip(self, q2_gauss):
        sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                       "eta": 0.01, "T": 80, "T0": 10})
        _, t_slip = bb.slip_run(q2_gauss, sched, np.zeros(2), np.ones(2),
                                np.zeros(2), seed=4)
        _, t_dl = bb.double_loop_run(q2_gauss, sched, 1, 0, np.zeros(2),
                                     np.ones(2), np.zeros(2), seed=4)
        assert trace_to_csv(t_slip) == trace_to_csv(t_dl)

    def test_doubleloop_counts(self, q2_gauss):
        t0, t, interval, extra = 6, 41, 2, 3
        sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                       "eta": 0.01, "T": t, "T0": t0})
        state, _ = bb.double_loop_run(q2_gauss, sched, interval, extra,
                                      np.zeros(2), np.ones(2), np.zeros(2),
                                      seed=0)
        expected_gyg = t0 + t + extra * (t // interval)
        assert state.calls.as_tuple() == (t, t, expected_gyg, t, t)

    def test_ttsa_step_decay(self):
        prob = constant_ghat_problem([1.0, 0.0])
        sched = bb.schedule_practical({"alpha": 0.2, "beta": 0.0, "gamma": 0.2,
                                       "eta": 0.1, "T": 6, "T0": 0})
        xs = []
        bb.ttsa_run(prob, sched, np.zeros(2), np.zeros(2), np.zeros(2),
                    seed=0, hooks=lambda v: xs.append(v.x))
        # hooks see pre-update x, so consecutive diffs are per-iteration steps
        steps = [np.linalg.norm(xs[i + 1] - xs[i]) for i in range(len(xs) - 1)]
        assert steps[0] == pytest.approx(0.1, rel=1e-12)
        assert steps[1] == pytest.approx(0.1 * 2 ** -0.6, rel=1e-12)
        assert all(steps[i + 1] < steps[i] for i in range(len(steps) - 1))

    def test_ttsa_first_step_is_base(self):
        prob = constant_ghat_problem([1.0, 0.0])
        sched = bb.schedule_practical({"alpha": 0.2, "beta": 0.0, "gamma": 0.2,
                                       "eta": 0.1, "T": 1, "T0": 0})
        state, _ = bb.ttsa_run(prob, sched, np.zeros(2), np.zeros(2),
                               np.zeros(2), seed=0)
        # (t+1)^-exponent = 1 at the first iteration
        np.testing.assert_allclose(state.x, [-0.1, 0.0], atol=1e-15)

    def test_ttsa_converges_on_q2(self, q2):
        sched = bb.schedule_practical({"alpha": 0.2, "beta": 0.0, "gamma": 0.2,
                                       "eta": 0.1, "T": 3000, "T0": 0})
        state, trace = bb.ttsa_run(q2, sched, np.zeros(2), np.ones(2),
                                   np.zeros(2), seed=0)
        assert np.linalg.norm(q2.analytic.hypergrad(state.x)) <= 0.05
        assert state.calls.as_tuple() == (3000, 3000, 3000, 3000, 3000)

    # sha256 of the noiseless Q2 trace CSVs; noiseless, so they do not
    # depend on how oracle draws are laid out
    PINNED_SHA256 = {
        "masoba": "3fb9afd212eef4d4b1bf40568a0b9b436017e3f3b5f3401491b17dec33c4cd39",
        "doubleloop": "0691610adbe1e16c99e2b2cf8b39f6f0dc8e879d7b2b5d30af66cf7da6144dc2",
        "ttsa": "ee88072b43e6d75af83c2ecda18e2e5446af780ce91739afb73b75403ec4be61",
    }

    @pytest.mark.parametrize("name", sorted(PINNED_SHA256))
    def test_trace_bytes_pinned(self, q2, name):
        sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                       "eta": 0.01, "T": 300, "T0": 20})
        inits = (np.zeros(2), np.ones(2), np.zeros(2))
        if name == "masoba":
            _, trace = bb.masoba_run(q2, sched, *inits, seed=0)
        elif name == "doubleloop":
            _, trace = bb.double_loop_run(q2, sched, 2, 3, *inits, seed=0)
        else:
            _, trace = bb.ttsa_run(q2, sched, *inits, seed=0)
        digest = hashlib.sha256(trace_to_csv(trace).encode()).hexdigest()
        assert digest == self.PINNED_SHA256[name]

    def test_refine_interval_validation(self, q2):
        sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                       "eta": 0.01, "T": 5, "T0": 0})
        with pytest.raises(bb.ConfigurationError):
            bb.double_loop_run(q2, sched, 0, 3, np.zeros(2), np.ones(2),
                               np.zeros(2), seed=0)
