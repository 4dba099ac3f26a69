import collections
import contextlib
import hashlib
import itertools
import math
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bilevelbench as bb
from bilevelbench import algorithms, harness, synthetic, verify
from bilevelbench.algorithms import METRIC_BLOCK, default_metrics
from bilevelbench.problem import (DeterministicOracle, LowerPoint,
                                  StochasticOracle, _norm)
from bilevelbench.samples import Sample, Stream
from bilevelbench.synthetic import random_quadratic_spec
from bilevelbench.trace import Trace, trace_to_csv


def constant_ghat_problem(gx, dim_x=2, dim_y=2):
    """Stub problem whose hypergradient estimate is the constant ``gx``."""
    gx = np.asarray(gx, dtype=float)
    det = DeterministicOracle(
        grad_x_f=lambda x, y: gx.copy(),
        grad_y_f=lambda x, y: np.zeros(dim_y),
        lower_at=lambda x: lambda y: LowerPoint(
            y, grad=lambda: np.zeros(dim_y), hess=lambda: np.zeros((dim_y, dim_y)),
            hvp_yy=lambda z: np.zeros(dim_y), hvp_xy=lambda z: np.zeros(dim_x)),
    )

    def solve(x):
        # one point, or a stack of them along a leading axis; the lower
        # level is flat: every y is a minimizer, and z* = 0
        zeros = np.zeros((*x.shape[:-1], dim_y))
        return zeros, zeros.copy(), np.broadcast_to(gx, x.shape).copy()

    return bb.BilevelProblem(
        dim_x=dim_x, dim_y=dim_y,
        upper=lambda x, y: np.zeros(x.shape[:-1]), lower=lambda x, y: 0.0,
        det=det, oracle=StochasticOracle(det, bb.NoiseModel.noiseless()),
        solve=solve,
        constants=bb.SmoothnessConstants(mu=0.0, l_g1=0.0),
        name="stub")


def recorder(rows):
    """A metric callable that saves each row's ``(x, y, z, m)`` and
    computes no metric."""
    def metrics(ts, x, y, z, m):
        rows.extend(zip(x, y, z, m))
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
        ystar = q2.solve(x)[0]
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

    @pytest.mark.parametrize("counter_start,n_steps", [(0, -1), (2**64 - 1, 2)])
    def test_bad_range_is_a_configuration_error(self, q2, counter_start, n_steps):
        with pytest.raises(bb.ConfigurationError):
            bb.sgd_dd(q2, np.zeros(2), np.ones(2), 0.25, n_steps, 0,
                      counter_start=counter_start)

    def test_large_alpha_warns(self, q2):
        with pytest.warns(UserWarning, match="tracking"):
            bb.sgd_dd(q2, np.zeros(2), np.ones(2), alpha=1.0, n_steps=1, seed=0)

    def test_refinement_warns_as_for_a_float_alpha(self, q2):
        # the loop binds alpha as a 0-d array and hands it to the refinement
        alpha = 0.3141592653589793   # above 1/(2*l_g1) = 0.25 on Q2
        sched = bb.schedule_practical({"alpha": alpha, "beta": 0.9, "gamma": 0.1,
                                       "eta": 0.01, "T": 2, "T0": 0})
        with pytest.warns(UserWarning) as in_loop:
            bb.double_loop_run(q2, sched, 1, 2, np.zeros(2), np.ones(2),
                               np.zeros(2), seed=0)
        with pytest.warns(UserWarning) as alone:
            bb.sgd_dd(q2, np.zeros(2), np.ones(2), alpha, n_steps=1, seed=0)
        want = [str(w.message) for w in alone]
        assert want == ["alpha=0.314159 exceeds 1/(2*l_g1)=0.25; "
                        "the tracking guarantees assume the smaller step"]
        assert [str(w.message) for w in in_loop] == want * 2

    def test_never_reads_ground_truth(self, q2_gauss):
        def unreachable(x):
            raise AssertionError("sgd_dd read the ground truth")

        blind = replace(q2_gauss, solve=unreachable)
        args = (np.array([0.3, -0.2]), np.ones(2), 0.25, 7, 3)
        np.testing.assert_array_equal(bb.sgd_dd(blind, *args),
                                      bb.sgd_dd(q2_gauss, *args))


class TestZStep:
    """The loop's z-step, ``z - gamma * (hvp_yy_G - grad_y_F)``, read from
    the state of a one-iteration noiseless run."""

    def one_step(self, q2, gamma, y0, z0):
        sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": gamma,
                                       "eta": 0.01, "T": 1, "T0": 0})
        state, _ = bb.slip_run(q2, sched, np.zeros(2), y0, z0, seed=0)
        return state.z

    def test_fixed_point(self, q2):
        ys, zstar, _ = q2.solve(np.zeros(2))
        np.testing.assert_allclose(zstar, [-0.5, -0.5], atol=1e-15)
        z1 = self.one_step(q2, 0.3, ys, zstar)
        np.testing.assert_allclose(z1, zstar, atol=1e-15)

    def test_one_step_from_zero(self, q2):
        # z1 = -gamma * (0 - grad_y f) = gamma * (y - e)
        gamma = 0.25
        y = np.zeros(2)
        z1 = self.one_step(q2, gamma, y, np.zeros(2))
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
        assert np.linalg.norm(q2.solve(state.x)[2]) <= 0.02
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
        assert len(err.trace.records) == 1

    def test_default_metrics_solve_once_per_row(self):
        prob = constant_ghat_problem([1.0, 0.0])
        solved = []

        def counting_solve(x):
            solved.append(x)
            return prob.solve(x)

        counted = replace(prob, solve=counting_solve)
        T = METRIC_BLOCK + 7
        sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                       "eta": 0.1, "T": T, "T0": 0})
        _, trace = bb.slip_run(counted, sched, np.zeros(2), np.zeros(2),
                               np.zeros(2), seed=0)
        assert len(trace) == T
        # one call per block, and every row's x once, in order: each step
        # moves x by eta along the constant hypergradient's direction
        assert [len(x) for x in solved] == [METRIC_BLOCK, 7]
        np.testing.assert_allclose(np.concatenate(solved),
                                   np.outer(-0.1 * np.arange(T), [1.0, 0.0]),
                                   atol=1e-12)

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

    def grad_y_G(self, x, y, sample, point=None):
        return self._out("y", sample, [0.0, 0.0])

    def hvp_xy_G(self, x, y, z, sample, point=None):
        return np.zeros(2)

    def hvp_yy_G(self, x, y, z, sample, point=None):
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
        assert len(err.trace.records) == row + 1
        assert "non-finite iterate" in str(err)

    def test_huge_finite_iterates_do_not_abort(self):
        # every square overflows: a sum-of-squares test would abort at row 0
        oracle = InjectingOracle("m", 1e300, at=0)
        _, trace = self.run(oracle, x0=(1e300, -1e300), y0=(1e300, 1e300),
                            z0=(-1e300, 1e300))
        assert len(trace) == self.SCHED["T"]
        assert trace.column("eps_err")[0] == math.inf

    # The warm start runs under the loop's np.errstate: a seed's status does
    # not depend on the warnings filter.
    def test_warm_start_overflow_is_a_divergence(self, q2_gauss):
        sched = bb.schedule_practical({**self.SCHED, "alpha": 1e300, "T0": 50})
        with pytest.warns(UserWarning, match="exceeds"), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(bb.NumericalDivergenceError,
                               match="non-finite iterate at iteration 0") as exc_info:
                bb.slip_run(q2_gauss, sched, np.zeros(2), np.ones(2), np.zeros(2),
                            seed=1)
        assert exc_info.value.t == 0

    def test_warm_start_exact_overflowing_sigmoid_runs(self):
        # sigmoid(-800) is exactly 0, through exp(800) = inf
        prob = bb.make_hyperclean(bb.HypercleanSpec(
            n_train=30, n_val=30, feature_dim=3, corruption_rate=0.2, seed=5))
        sched = bb.schedule_practical({**self.SCHED, "T0": 10})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, trace = bb.slip_run(prob, sched, np.full(30, -800.0), np.zeros(3),
                                   np.zeros(3), seed=0)
        assert len(trace) == self.SCHED["T"]


class TestMetricBlocks:
    """The loop evaluates the metrics of METRIC_BLOCK rows in one call.  A
    run whose metrics fail at row k ends as a row-by-row evaluation would:
    at row k, with the same cause, the rows before k and row k's state."""

    SCHED = {"alpha": 0.1, "beta": 0.9, "gamma": 0.1, "eta": 0.01,
             "T": 200, "T0": 10}

    def run(self, prob, metrics, deadline=math.inf):
        return bb.slip_run(prob, bb.schedule_practical(self.SCHED), np.zeros(2),
                           np.ones(2), np.zeros(2), seed=2, deadline=deadline,
                           metrics=metrics)

    def full_run(self, prob):
        """Each row's ``(x, y, z, m)`` and the trace of a run that does
        not fail."""
        rows = []
        base = default_metrics(prob)

        def recording(ts, *iterates):
            rows.extend(zip(*iterates))
            return base(ts, *iterates)

        return rows, self.run(prob, recording)[1]

    def failing_at(self, prob, k, failure):
        base = default_metrics(prob)

        def metrics(ts, *iterates):
            cols = base(ts, *iterates)
            if k not in ts:
                return cols
            if failure == "negative":
                # Trace.append rejects the row
                return (cols[0], np.where(ts == k, -1.0, cols[1]), *cols[2:])
            raise failure(f"metrics of row {k}")
        return metrics

    # row 0 starts the first block, 128 the second, 130 is inside it and
    # 199 ends the partial last block
    @pytest.mark.parametrize("k", [0, 128, 130, 199])
    @pytest.mark.parametrize("failure, status", [
        (KeyError, "ERROR"), (OverflowError, "FAILED"), ("negative", "ERROR")],
        ids=["raise", "overflow", "rejected"])
    def test_metric_failure_ends_run_at_its_row(self, q2_gauss, k, failure,
                                                status):
        rows, full = self.full_run(q2_gauss)
        with pytest.raises(bb.RunAborted) as exc_info:
            self.run(q2_gauss, self.failing_at(q2_gauss, k, failure))
        err = exc_info.value
        assert err.status == status
        assert err.t == k
        cause = err.__cause__
        if failure == "negative":
            assert type(cause) is ValueError
            assert str(cause) == "y_err must be non-negative, got -1.0"
        else:
            assert type(cause) is failure
        assert trace_to_csv(err.trace) == trace_to_csv(Trace(full.records[:k]))
        state = err.state
        assert state.t == k
        for got, want in zip((state.x, state.y, state.z, state.m), rows[k]):
            np.testing.assert_array_equal(got, want)
        assert state.calls.as_tuple() == full.records[k][6:]

    def test_skips_after_the_failing_row_are_dropped(self):
        # every x-step is skipped: the failure at row 130 keeps skips 0-130
        prob = constant_ghat_problem([0.0, 0.0])
        with pytest.raises(bb.RunError) as exc_info:
            self.run(prob, self.failing_at(prob, 130, KeyError))
        assert exc_info.value.trace.skipped_steps == list(range(131))

    @pytest.mark.parametrize("metric_row", [None, 5])
    def test_oracle_failure_keeps_the_rows_before_it(self, q2_gauss,
                                                     metric_row):
        # an oracle raises while computing row 130; a metric failure at an
        # earlier row ends the run there instead
        class FailingAt130(StochasticOracle):
            def grad_x_F(self, x, y, sample):
                if sample.counter == 130:
                    raise KeyError("oracle at row 130")
                return super().grad_x_F(x, y, sample)

        rows, full = self.full_run(q2_gauss)
        prob = replace(q2_gauss, oracle=FailingAt130(q2_gauss.det,
                                                     q2_gauss.oracle.noise))
        metrics = (default_metrics(prob) if metric_row is None
                   else self.failing_at(prob, metric_row, OverflowError))
        with pytest.raises(bb.RunAborted) as exc_info:
            self.run(prob, metrics)
        err = exc_info.value
        k = 130 if metric_row is None else metric_row
        assert err.t == k
        assert type(err.__cause__) is (KeyError if metric_row is None
                                       else OverflowError)
        assert trace_to_csv(err.trace) == trace_to_csv(Trace(full.records[:k]))
        np.testing.assert_array_equal(err.state.x, rows[k][0])

    # the warm start's third step raises, or row 0's first oracle call:
    # the run ends with no row pending
    @pytest.mark.parametrize("stream, counter, warm_calls", [
        (Stream.PI_TILDE, 2, 2), (Stream.PI, 0, 10)], ids=["warm-start", "row-0"])
    def test_oracle_failure_before_row_0(self, q2_gauss, stream, counter,
                                         warm_calls):
        class Failing(StochasticOracle):
            def grad_y_G(self, x, y, sample, point=None):
                if (sample.stream, sample.counter) == (stream, counter):
                    raise KeyError("oracle before row 0")
                return super().grad_y_G(x, y, sample, point)

        rows, _ = self.full_run(q2_gauss)
        prob = replace(q2_gauss, oracle=Failing(q2_gauss.det,
                                                q2_gauss.oracle.noise))
        with pytest.raises(bb.RunError) as exc_info:
            self.run(prob, None)
        err = exc_info.value
        assert err.t == 0
        assert type(err.__cause__) is KeyError
        assert len(err.trace) == 0 and err.trace.skipped_steps == []
        # the warm start returns only its final iterate: y is y0 until then
        y = np.ones(2) if stream is Stream.PI_TILDE else rows[0][1]
        np.testing.assert_array_equal(err.state.y, y)
        assert err.state.calls.as_tuple() == (0, 0, warm_calls, 0, 0)

    # one of row 0's oracles after grad_y_G raises: the state counts the
    # warm start, row 0's grad_y_G, and a pair of oracles (the z-step's, the
    # hypergradient's) only once both returned
    @pytest.mark.parametrize("method, calls", [
        ("hvp_yy_G", (0, 0, 11, 0, 0)), ("grad_y_F", (0, 0, 11, 0, 0)),
        ("grad_x_F", (0, 1, 11, 0, 1)), ("hvp_xy_G", (0, 1, 11, 0, 1))])
    def test_oracle_failure_in_row_0_counts(self, q2_gauss, method, calls):
        def failing(oracle, *args):
            if next(a for a in args if isinstance(a, Sample)).counter == 0:
                raise KeyError(f"{method} at row 0")
            return getattr(StochasticOracle, method)(oracle, *args)

        failing_oracle = type("Failing", (StochasticOracle,), {method: failing})
        prob = replace(q2_gauss, oracle=failing_oracle(q2_gauss.det,
                                                       q2_gauss.oracle.noise))
        with pytest.raises(bb.RunError) as exc_info:
            self.run(prob, None)
        err = exc_info.value
        assert (err.t, len(err.trace)) == (0, 0)
        assert str(err.__cause__) == repr(f"{method} at row 0")
        assert err.state.calls.as_tuple() == calls

    # row 130 is recorded, with one block evaluated and one pending, before
    # the abort
    def test_non_finite_update_after_a_full_block(self, q2_gauss):
        class NanAt130(StochasticOracle):
            def grad_y_G(self, x, y, sample, point=None):
                g = super().grad_y_G(x, y, sample, point)
                if sample.stream is Stream.PI and sample.counter == 130:
                    return np.full_like(g, np.nan)
                return g

        rows, full = self.full_run(q2_gauss)
        prob = replace(q2_gauss, oracle=NanAt130(q2_gauss.det,
                                                 q2_gauss.oracle.noise))
        with pytest.raises(bb.NumericalDivergenceError) as exc_info:
            self.run(prob, None)
        err = exc_info.value
        assert err.t == 130
        assert trace_to_csv(err.trace) == trace_to_csv(Trace(full.records[:131]))
        # the state holds row 130's updates: a nan y, and x and z as row 131
        # of the full run read them
        state = err.state
        assert state.t == 130
        assert np.isnan(state.y).all()
        for got, want in zip((state.x, state.z, state.m),
                             (rows[131][0], rows[131][2], rows[130][3])):
            np.testing.assert_array_equal(got, want)
        assert state.calls.as_tuple() == full.records[130][6:]

    def test_deadline_after_a_full_block(self, q2_gauss, monkeypatch):
        rows, full = self.full_run(q2_gauss)
        # the loop reads the clock once per row: past the deadline at row 130
        clock = itertools.chain([0.0] * 130, itertools.repeat(2.0))
        monkeypatch.setattr(algorithms.time, "monotonic", lambda: next(clock))
        with pytest.raises(bb.RunAborted) as exc_info:
            self.run(q2_gauss, None, deadline=1.0)
        err = exc_info.value
        assert err.status == "TIMEOUT"
        assert err.t == 130
        assert trace_to_csv(err.trace) == trace_to_csv(Trace(full.records[:131]))
        state = err.state
        assert state.t == 130
        for got, want in zip((state.x, state.y, state.z, state.m), rows[130]):
            np.testing.assert_array_equal(got, want)
        assert state.calls.as_tuple() == full.records[130][6:]

    def test_block_arrays_are_not_reused(self, q2):
        blocks = []

        def keeping(ts, *iterates):
            blocks.append((ts, iterates))
            return (None,) * 5

        self.run(q2, keeping)
        assert [b[0].tolist() for b in blocks] == [list(range(128)),
                                                   list(range(128, 200))]
        assert all(b[0].dtype == np.int64 for b in blocks)
        assert not np.shares_memory(blocks[0][1][0], blocks[1][1][0])
        np.testing.assert_array_equal(blocks[0][1][0][0], np.zeros(2))


def row_metrics(prob, x, y, z, m):
    """One row's metrics by the row-at-a-time formula."""
    ys, zs, gphi = prob.solve(x)
    return (_norm(gphi), _norm(y - ys), _norm(z - zs), _norm(m - gphi),
            float(prob.upper(x, ys)))


BLOCK_PROBLEMS = {
    "q2": bb.make_q2,
    "random": lambda: bb.random_quadratic(3, 5, seed=4),
    "cosh": lambda: bb.make_unbounded_smooth(bb.UnboundedSmoothSpec(
        a=1.0, core=random_quadratic_spec(16, 16, 7, r=0.0))),
    "hyperclean": lambda: bb.make_hyperclean(bb.HypercleanSpec(
        n_train=30, n_val=30, feature_dim=3, corruption_rate=0.2, seed=5)),
}


@pytest.mark.parametrize("n", [1, 7, 128])
@pytest.mark.parametrize("kind", sorted(BLOCK_PROBLEMS))
def test_block_metrics_equal_row_metrics(kind, n):
    prob = BLOCK_PROBLEMS[kind]()
    rng = np.random.default_rng(n)
    x, m = rng.standard_normal((2, n, prob.dim_x))
    y, z = rng.standard_normal((2, n, prob.dim_y))
    cols = default_metrics(prob)(np.arange(n), x, y, z, m)
    block = list(zip(*(np.asarray(c).tolist() for c in cols)))
    assert block == [row_metrics(prob, *row) for row in zip(x, y, z, m)]


def test_solver_failure_inside_a_block_ends_the_run_at_its_row(monkeypatch):
    # the inner solve fails on any stack that holds row 130's x: the block of
    # rows 128-199 fails, and its row-by-row retry ends the run at row 130
    prob = BLOCK_PROBLEMS["hyperclean"]()
    sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                   "eta": 0.05, "T": 200, "T0": 10})
    inits = (np.ones(prob.dim_x), np.zeros(prob.dim_y), np.zeros(prob.dim_y))
    rows = []
    base = default_metrics(prob)

    def recording(ts, *iterates):
        rows.extend(zip(*iterates))
        return base(ts, *iterates)

    _, full = bb.slip_run(prob, sched, *inits, seed=2, metrics=recording)
    x_130 = rows[130][0]
    solve = verify.inner_solve_exact

    def failing(problem, x, *args, **kwargs):
        if (x == x_130).all(axis=-1).any():
            raise verify.SolverError("inner solve exhausted max_iters", 1.0)
        return solve(problem, x, *args, **kwargs)

    monkeypatch.setattr(verify, "inner_solve_exact", failing)
    with pytest.raises(bb.RunError) as exc_info:
        bb.slip_run(prob, sched, *inits, seed=2)
    err = exc_info.value
    assert err.t == 130
    assert type(err.__cause__) is verify.SolverError
    assert trace_to_csv(err.trace) == trace_to_csv(Trace(full.records[:130]))
    state = err.state
    assert state.t == 130
    for got, want in zip((state.x, state.y, state.z, state.m), rows[130]):
        np.testing.assert_array_equal(got, want)
    assert state.calls.as_tuple() == full.records[130][6:]


def test_run_reads_layers_as_patched_before_it_starts(monkeypatch):
    # a run binds its oracle methods once, at its start: a wrapper put on
    # the class before then sees every oracle call, and every draw goes
    # through Sample.generator
    counts = collections.Counter()

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    oracles = ("grad_x_F", "grad_y_F", "grad_y_G", "hvp_xy_G", "hvp_yy_G")
    for name in oracles:
        monkeypatch.setattr(StochasticOracle, name,
                            counted(name, getattr(StochasticOracle, name)))
    monkeypatch.setattr(Sample, "generator", counted("draw", Sample.generator))
    prob = bb.make_q2(bb.NoiseModel.gaussian(0.05, 0.05, 0.05))
    t = 20
    sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                   "eta": 0.01, "T": t, "T0": 5})
    x0, y0, z0 = np.zeros(2), np.ones(2), np.zeros(2)
    # grad_y_G: T0 + T, plus 3 refinement steps after every 2nd iteration
    for run, gyg in ((lambda: bb.slip_run(prob, sched, x0, y0, z0, seed=1), 25),
                     (lambda: bb.double_loop_run(prob, sched, 2, 3, x0, y0, z0,
                                                 seed=1), 55)):
        counts.clear()
        run()
        # with z0 = 0 both z-scaled products at t = 0 have noise scale 0
        # and draw nothing: 103 draws for 105 calls, 133 for 135
        assert counts == {"grad_x_F": t, "grad_y_F": t, "grad_y_G": gyg,
                          "hvp_xy_G": t, "hvp_yy_G": t, "draw": 4 * t + gyg - 2}


class TestBaselines:
    @pytest.mark.parametrize("name", ["slip", "masoba", "doubleloop", "ttsa"])
    def test_state_iterates_are_float64_vectors(self, q2_gauss, name):
        # the loop's undecayed steps are 0-d arrays; the iterates stay vectors
        run = {"slip": bb.slip_run, "masoba": bb.masoba_run, "ttsa": bb.ttsa_run,
               "doubleloop": lambda p, s, *args, **kw: bb.double_loop_run(
                   p, s, 2, 3, *args, **kw)}[name]
        sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                       "eta": 0.01, "T": 5, "T0": 3})
        state, _ = run(q2_gauss, sched, np.zeros(2), np.ones(2), np.zeros(2),
                       seed=1)
        for v in (state.x, state.y, state.z, state.m):
            assert type(v) is np.ndarray
            assert v.dtype == np.float64 and v.shape == (2,)

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
        assert np.linalg.norm(q2.solve(state.x)[2]) <= 1e-6

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
        assert np.linalg.norm(q2.solve(state.x)[2]) <= 0.05
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

    @pytest.mark.parametrize("run", ["doubleloop-refinement", "slip-seed"])
    def test_unrunnable_schedule_rejected_before_any_oracle_call(
            self, q2, monkeypatch, run):
        def oracle_called(*args):
            raise AssertionError("an oracle was called")

        for name in ("grad_x_F", "grad_y_F", "grad_y_G", "hvp_xy_G", "hvp_yy_G"):
            monkeypatch.setattr(StochasticOracle, name, oracle_called)
        sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                       "eta": 0.01, "T": 2, "T0": 0})
        inits = (np.zeros(2), np.ones(2), np.zeros(2))
        with pytest.raises(bb.ConfigurationError, match="cannot run"):
            if run == "slip-seed":
                bb.slip_run(q2, sched, *inits, seed=2**64)
            else:
                # the warm start uses counters up to 2**64 - 2, and the two
                # refinement steps 2**64 - 1 and 2**64
                bb.double_loop_run(q2, replace(sched, T0=2**64 - 1), 1, 1,
                                   *inits, seed=0)

    @pytest.mark.parametrize("T0,runs", [(2**64 - 2, True), (2**64 - 1, False)])
    def test_refinement_counters_end_below_2_64(self, T0, runs):
        # PI_TILDE holds T0 warm-start steps, then 1 step after each of T = 2
        # iterations: counters 0 .. T0 + 1
        sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                       "eta": 0.01, "T": 2, "T0": 0})
        with (contextlib.nullcontext() if runs else
              pytest.raises(bb.ConfigurationError, match="cannot run")):
            algorithms.check_schedule_runs(replace(sched, T0=T0), (1, 1))


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
    digest = hashlib.sha256(trace_to_csv(trace).encode()).hexdigest()
    assert digest == NOISY_SHA256[name]


# sha256 of short noisy traces of the three baselines on a 16-dimensional
# cosh instance, the benchmark's cosh16 shape
COSH16_SHA256 = {
    "masoba": "9d88c9731fbbae592d036821301475f0b6fd0f15f444a889209b00f4ea4b0090",
    "doubleloop": "d5e6aeb1c2f09458204faabfbdbab7fd5868d64f779d1f0ad0a62dbced8251c0",
    "ttsa": "bc9037f19f3f426039166c51eca6828c36d2378e74d2bf7e814f3cac6d9846f1",
}


@pytest.mark.parametrize("name", sorted(COSH16_SHA256))
def test_cosh16_trace_bytes_pinned(name):
    prob = bb.make_unbounded_smooth(
        bb.UnboundedSmoothSpec(a=1.0, core=random_quadratic_spec(16, 16, 7, r=0.0)),
        bb.NoiseModel.gaussian(0.05, 0.05, 0.05))
    sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                   "eta": 0.01, "T": 60, "T0": 50})
    inits = (np.zeros(16), np.ones(16), np.zeros(16))
    if name == "masoba":
        trace = bb.masoba_run(prob, sched, *inits, seed=3)[1]
    elif name == "doubleloop":
        trace = bb.double_loop_run(prob, sched, 2, 3, *inits, seed=3)[1]
    else:
        trace = bb.ttsa_run(prob, sched, *inits, seed=3)[1]
    assert len(trace) == 60
    digest = hashlib.sha256(trace_to_csv(trace).encode()).hexdigest()
    assert digest == COSH16_SHA256[name]


class TestOneLowerPoint:
    """The loop builds the lower level's point once per iteration and the
    frozen-x SGD once per call; the three lower-level oracles read it."""

    SCHED = {"alpha": 0.1, "beta": 0.9, "gamma": 0.1, "eta": 0.01,
             "T": 20, "T0": 5}

    @pytest.mark.parametrize("name,calls", [
        ("slip", 21),         # 20 iterations and the warm start
        ("doubleloop", 31),   # and 10 refinements, after every 2nd iteration
        ("ttsa", 20),         # no warm start
    ])
    def test_lower_at_calls(self, q2_gauss, name, calls):
        made = []

        def lower_at(x):
            made.append(x)
            return q2_gauss.det.lower_at(x)

        prob = replace(q2_gauss, det=replace(q2_gauss.det, lower_at=lower_at))
        sched = bb.schedule_practical(self.SCHED)
        inits = (np.zeros(2), np.ones(2), np.zeros(2))
        if name == "slip":
            _, trace = bb.slip_run(prob, sched, *inits, seed=2)
        elif name == "doubleloop":
            _, trace = bb.double_loop_run(prob, sched, 2, 3, *inits, seed=2)
        else:
            _, trace = bb.ttsa_run(prob, sched, *inits, seed=2)
        assert len(made) == calls
        assert len(trace) == 20

    def test_hyperclean_sigmoid_calls(self, monkeypatch):
        prob = bb.make_hyperclean(bb.HypercleanSpec(
            n_train=20, n_val=10, feature_dim=3, corruption_rate=0.1, seed=5))
        sched = bb.schedule_practical({**self.SCHED, "T": 5, "T0": 0})
        calls = []
        logistic = synthetic._sigmoid_neg

        def counted(u):
            calls.append(1)
            return logistic(u)

        # every logistic evaluation, sigmoid(v) = _sigmoid_neg(-v) among them
        monkeypatch.setattr(synthetic, "_sigmoid_neg", counted)
        bb.slip_run(prob, sched, np.ones(20), np.zeros(3), np.zeros(3), seed=0,
                    metrics=lambda *rows: (None,) * 5)
        # per iteration: sigmoid(x) and sigmoid(+-margins) for the point,
        # one for grad_y_f
        assert len(calls) == 4 * 5
