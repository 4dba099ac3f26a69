import hashlib
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bilevelbench as bb
from bilevelbench import harness
from bilevelbench.algorithms import update_z
from bilevelbench.problem import (AnalyticOracle, DeterministicOracle,
                                  LowerPoint, StochasticOracle)
from bilevelbench.samples import Sample, Stream
from bilevelbench.synthetic import random_quadratic_spec
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
        lower_at=lambda x: lambda y: LowerPoint(
            grad=lambda: np.zeros(dim_y), hess=lambda: np.zeros((dim_y, dim_y))),
    )
    # the lower level is flat: every y is a minimizer, and z* = 0
    analytic = AnalyticOracle(
        solve=lambda x: (np.zeros(dim_y), np.zeros(dim_y), gx.copy()))
    return bb.BilevelProblem(
        dim_x=dim_x, dim_y=dim_y,
        upper=lambda x, y: 0.0, lower=lambda x, y: 0.0,
        det=det, oracle=StochasticOracle(det, bb.NoiseModel.noiseless()),
        analytic=analytic, constants=bb.SmoothnessConstants(mu=0.0, l_g1=0.0),
        name="stub")


def recorder(rows):
    """A metric callable that saves each row's ``(x, y, z, m)`` and
    computes no metric."""
    def metrics(t, x, y, z, m):
        rows.append((x, y, z, m))
        return (None,) * 5
    return metrics


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

        blind = replace(q2_gauss, analytic=AnalyticOracle(unreachable))
        args = (np.array([0.3, -0.2]), np.ones(2), 0.25, 7, 3)
        np.testing.assert_array_equal(bb.sgd_dd(blind, *args),
                                      bb.sgd_dd(q2_gauss, *args))


class TestUpdateZ:
    def test_fixed_point(self, q2):
        x = np.zeros(2)
        y = q2.analytic.y_star(x)
        zstar = q2.analytic.solve(x)[1]
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
        rows = []
        state, _ = bb.slip_run(prob, sched, np.zeros(2), np.zeros(2),
                               np.zeros(2), seed=0, metrics=recorder(rows))
        np.testing.assert_allclose(state.m, [0.1, 0.0], atol=1e-15)
        x, y, z, _ = rows[0]
        ghat = bb.hypergrad_estimate(x, y, z, Sample(Stream.XI_PRIME, 0, 0),
                                     Sample(Stream.ZETA_PRIME, 0, 0), prob.oracle)
        np.testing.assert_allclose(ghat, [1.0, 0.0], atol=1e-15)

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
        rows = []
        bb.slip_run(q2_gauss, sched, np.zeros(2), np.ones(2), np.zeros(2),
                    seed=3, metrics=recorder(rows))
        xs = [x for x, *_ in rows]
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
        rows = []
        bb.slip_run(q2_gauss, sched, np.zeros(2), np.ones(2), np.zeros(2),
                    seed=1, metrics=recorder(rows))
        # the loop's estimate at row t, from the loop's samples at counter t
        ghats = [bb.hypergrad_estimate(x, y, z, Sample(Stream.XI_PRIME, t, 1),
                                       Sample(Stream.ZETA_PRIME, t, 1),
                                       q2_gauss.oracle)
                 for t, (x, y, z, _) in enumerate(rows)]
        ms = [m for *_, m in rows]
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

    def test_past_deadline_stops_after_first_row(self, q2):
        sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                       "eta": 0.01, "T": 50, "T0": 0})
        with pytest.raises(bb.RunAborted) as exc_info:
            bb.slip_run(q2, sched, np.zeros(2), np.ones(2), np.zeros(2),
                        seed=0, deadline=time.monotonic() - 1)
        err = exc_info.value
        assert not isinstance(err, bb.NumericalDivergenceError)
        assert err.t == 0
        assert err.trace.aborted_at == 0
        assert len(err.trace.records) == 1

    def test_default_metrics_solve_once_per_row(self):
        prob = constant_ghat_problem([1.0, 0.0])
        solved = []

        def counting_solve(x):
            solved.append(x)
            return prob.analytic.solve(x)

        counted = replace(prob, analytic=AnalyticOracle(counting_solve))
        sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                       "eta": 0.1, "T": 7, "T0": 0})
        _, trace = bb.slip_run(counted, sched, np.zeros(2), np.zeros(2),
                               np.zeros(2), seed=0)
        assert len(trace) == 7
        assert len(solved) == 7

    def test_init_shape_validation(self, q2):
        sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                       "eta": 0.01, "T": 5, "T0": 0})
        with pytest.raises(bb.ConfigurationError):
            bb.slip_run(q2, sched, np.zeros(3), np.ones(2), np.zeros(2), seed=0)

    # sha256 of noiseless trace CSVs: the solver-backed ground truth of
    # hypercleaning (a 30x3 instance, and the first 100 rows of the shipped
    # 200x5 config) and the closed-form one of the cosh upper level
    PINNED_SHA256 = {
        "hyperclean": "9cec28beecdada0e71faf93351089e3f7ff99dc055f6bfb6bd6c39051d63cab9",
        "hyperclean-cfg": "fcfb6ef118c3ae0314d23e662254462f38266aebb6c73e03555a626f6ae4e11d",
        "unbounded": "46ee749cfb734310a534725e9b2a778f0b983ca2701e1ab79b45fdd4a6287979",
    }

    @pytest.mark.parametrize("kind", sorted(PINNED_SHA256))
    def test_trace_bytes_pinned(self, kind):
        if kind == "hyperclean-cfg":
            cfg = harness.parse_config(
                Path(__file__).resolve().parents[1] / "configs" / "hyperclean_slip.cfg")
            prob = harness.build_problem(cfg)
            # a shorter horizon leaves the first rows of the full run as they are
            _, trace = bb.slip_run(prob, replace(cfg.schedule, T=100),
                                   np.ones(200), np.zeros(5), np.zeros(5),
                                   seed=cfg.seeds[0])
            digest = hashlib.sha256(trace_to_csv(trace).encode()).hexdigest()
            assert digest == self.PINNED_SHA256[kind]
            return
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


class InjectingOracle:
    """Noiseless stub oracles: ``grad_x_F`` is the constant (1, 0), the rest
    are zero, except that the oracle feeding ``target`` returns ``value`` in
    its first coordinate at sample counter ``at``."""

    def __init__(self, target=None, value=0.0, at=0):
        self.target, self.value, self.at = target, value, at

    def _out(self, target, sample, base):
        out = np.array(base, dtype=float)
        if target == self.target and sample.counter == self.at:
            out[0] = self.value
        return out

    def grad_x_F(self, x, y, sample):
        return self._out("m", sample, [1.0, 0.0])

    def grad_y_F(self, x, y, sample):
        return np.zeros(2)

    def grad_y_G(self, x, y, sample):
        return self._out("y", sample, [0.0, 0.0])

    def hvp_xy_G(self, x, y, z, sample):
        return np.zeros(2)

    def hvp_yy_G(self, x, y, z, sample):
        return self._out("z", sample, [0.0, 0.0])


class TestFiniteCheck:
    """The loop aborts at the first row whose updated x, y, z or m holds a
    NaN or an inf, and never on finite iterates, however large."""

    SCHED = {"alpha": 0.1, "beta": 0.9, "gamma": 0.1, "eta": 0.01,
             "T": 8, "T0": 0}

    def run(self, oracle, x0=(0.0, 0.0), y0=(1.0, 1.0), z0=(0.0, 0.0)):
        prob = replace(constant_ghat_problem([1.0, 0.0]), oracle=oracle)
        return bb.slip_run(prob, bb.schedule_practical(self.SCHED),
                           np.array(x0), np.array(y0), np.array(z0), seed=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                             ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("target", ["x", "y", "z", "m"])
    def test_non_finite_aborts_at_its_row(self, target, value):
        if target == "x":
            # slip's step of length eta cannot make a finite x alone
            # non-finite: start there
            oracle, x0, row = InjectingOracle(), (value, 0.0), 0
        else:
            oracle, x0, row = InjectingOracle(target, value, at=3), (0.0, 0.0), 3
        with pytest.raises(bb.NumericalDivergenceError) as exc_info:
            self.run(oracle, x0=x0)
        err = exc_info.value
        assert err.t == row
        assert err.trace.aborted_at == row
        assert len(err.trace.records) == row + 1
        assert "non-finite iterate" in str(err)

    def test_huge_finite_iterates_do_not_abort(self):
        # every square overflows: a sum-of-squares test would abort at row 0
        oracle = InjectingOracle("m", 1e300, at=0)
        _, trace = self.run(oracle, x0=(1e300, -1e300), y0=(1e300, 1e300),
                            z0=(-1e300, 1e300))
        assert trace.aborted_at is None
        assert len(trace) == self.SCHED["T"]
        assert trace.column("eps_err")[0] == math.inf


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
        rows = []
        bb.ttsa_run(prob, sched, np.zeros(2), np.zeros(2), np.zeros(2),
                    seed=0, metrics=recorder(rows))
        # metrics see pre-update x, so consecutive diffs are per-iteration steps
        xs = [x for x, *_ in rows]
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


# sha256 of noisy trace CSVs.  They pin the draw path (the Philox word layout
# and the per-thread rewind) along with the loop: slip on Q2 under Gaussian
# noise and under bounded noise (the radial clip), and the baselines on a
# 6-dimensional cosh instance, whose noise vectors are wider than one block.
NOISY_SHA256 = {
    "slip": "b6fa4319cc22b7deec7fb023074762de17553417658e4b7a69a4dfe8c1dee807",
    "slip-bounded": "a9e10d487b27314d2b27aaa171339a97c1b236357c6bd9aa33fb19d5652724ae",
    "masoba": "4529b773376733a3fc7eb6cd4cbf34267f67870d41b079a52230f740f7fc721b",
    "doubleloop": "da116e9efe0d627027bb1d07d01cad6b1c4195e5d805a4f59437a7748d45c090",
    "ttsa": "d936694bd24170d0ce2558d92bd8b3d54ba8f99ea4236af278f03ba46f381691",
}


def noisy_pinned_trace(name):
    sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                   "eta": 0.01, "T": 200, "T0": 20})
    if name.startswith("slip"):
        noise = (bb.NoiseModel.bounded(0.05, 0.05, 0.05, 0.05)
                 if name == "slip-bounded" else bb.NoiseModel.gaussian(0.05, 0.05, 0.05))
        return bb.slip_run(bb.make_q2(noise), sched, np.zeros(2), np.ones(2),
                           np.zeros(2), seed=3)[1]
    prob = bb.make_unbounded_smooth(
        bb.UnboundedSmoothSpec(a=1.0, core=random_quadratic_spec(6, 6, 11, r=0.0)),
        bb.NoiseModel.gaussian(0.05, 0.05, 0.05))
    inits = (np.zeros(6), np.ones(6), np.zeros(6))
    if name == "masoba":
        return bb.masoba_run(prob, sched, *inits, seed=3)[1]
    if name == "doubleloop":
        return bb.double_loop_run(prob, sched, 2, 3, *inits, seed=3)[1]
    return bb.ttsa_run(prob, sched, *inits, seed=3)[1]


@pytest.mark.parametrize("name", sorted(NOISY_SHA256))
def test_noisy_trace_bytes_pinned(name):
    trace = noisy_pinned_trace(name)
    assert trace.aborted_at is None
    digest = hashlib.sha256(trace_to_csv(trace).encode()).hexdigest()
    assert digest == NOISY_SHA256[name]
