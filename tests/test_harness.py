import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

import bilevelbench as bb
from bilevelbench import harness
from bilevelbench.harness import (RunConfig, build_problem, parse_config,
                                  resolve_schedule, run_experiment, sweep_eps)
from bilevelbench.problem import ConfigurationError
from bilevelbench.trace import (Trace, TraceRecord, trace_from_csv,
                                trace_to_csv, write_trace)
from bilevelbench.verify import bound_check_tracking, tracking_bound

CFG_TEXT = """\
[problem]
kind = quadratic
preset = q2
noise = gaussian
sigma_f1 = 0.05
sigma_g1 = 0.05
sigma_g2 = 0.05

[algorithm]
name = slip

[schedule]
mode = practical
alpha = 0.1
beta = 0.9
gamma = 0.1
eta = 0.01
T = 120
T0 = 10

[run]
seeds = 1, 2, 3
out = runs/q2
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "q2.cfg"
    path.write_text(CFG_TEXT)
    return path


class TestTrackingBoundCheck:
    def make_traces(self, noise_sigma, n_seeds, T=120):
        prob = bb.make_q2(bb.NoiseModel.gaussian(0.0, noise_sigma, 0.0)
                          if noise_sigma else bb.NoiseModel.noiseless())
        sched = bb.schedule_practical({"alpha": 0.25, "beta": 0.9,
                                       "gamma": 0.1, "eta": 0.005,
                                       "T": T, "T0": 30, "alpha_init": 0.25})
        traces = [
            bb.slip_run(prob, sched, np.zeros(2), np.ones(2), np.zeros(2),
                        seed=s)[1]
            for s in range(n_seeds)
        ]
        return prob, sched, traces

    def test_noiseless_never_violates(self):
        prob, sched, traces = self.make_traces(0.0, 50, T=80)
        report = bound_check_tracking(traces, sched, prob.constants, 0.05)
        assert report.n_violations == 0

    def test_r_zero_reduces_to_static_bound(self):
        # with no drift the bound is the frozen-x tracking bound
        c = bb.SmoothnessConstants(mu=2.0, l_g1=2.0, sigma_g1=0.1, L_x1=1.0)
        got = tracking_bound(7, 0.5, 0.1, 0.0, c, horizon=100, delta=0.05)
        static = ((1 - c.mu * 0.1 / 2) ** 7 * 0.5
                  + (8 * 0.1 * c.sigma_g1 ** 2 / c.mu)
                  * math.log(math.e * 100 / 0.05))
        assert got == pytest.approx(static, rel=1e-15)

    @pytest.mark.parametrize("delta", [0.0, -0.5, 1.5, math.nan])
    def test_bound_rejects_delta_outside_half_open_unit_interval(self, delta):
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"delta must lie in (0, 1], got {delta}")):
            tracking_bound(1, 1.0, 0.1, 0.0, bb.make_q2().constants, 10, delta)

    def test_requires_50_seeds(self):
        prob, sched, traces = self.make_traces(0.0, 3, T=10)
        with pytest.raises(ConfigurationError):
            bound_check_tracking(traces, sched, prob.constants, 0.05)

    def test_missing_y_err_raises(self):
        sched = bb.schedule_practical({"alpha": 0.25, "beta": 0.9,
                                       "gamma": 0.1, "eta": 0.005, "T": 5})
        c = bb.SmoothnessConstants(mu=1.0, l_g1=1.0)
        no_metrics = Trace()
        no_metrics.append(
            TraceRecord(0, None, None, None, None, None, 1, 1, 1, 1, 1))
        for tr in (Trace(), no_metrics):
            with pytest.raises(ConfigurationError, match="y_err"):
                bound_check_tracking([tr] * 50, sched, c, 0.05)

    @pytest.mark.parametrize("delta", [0.0, -0.1, 1.5, math.nan])
    def test_delta_outside_half_open_unit_interval_rejected(self, delta):
        prob, sched, traces = self.make_traces(0.0, 50, T=10)
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"delta must lie in (0, 1], got {delta}")):
            bound_check_tracking(traces, sched, prob.constants, delta)


class TestTraceCsv:
    def test_round_trip_bytes(self, q2_gauss):
        sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                       "eta": 0.01, "T": 40, "T0": 5})
        _, trace = bb.slip_run(q2_gauss, sched, np.zeros(2), np.ones(2),
                               np.zeros(2), seed=9)
        text = trace_to_csv(trace)
        assert trace_to_csv(trace_from_csv(text)) == text

    @hyp_settings(max_examples=40, deadline=None)
    @given(rows=st.lists(
        st.tuples(st.floats(min_value=0, max_value=1e6),
                  st.one_of(st.none(),
                            st.floats(min_value=0, max_value=1e9))),
        min_size=1, max_size=20))
    def test_round_trip_random_rows(self, rows):
        tr = Trace()
        for i, (gn, ye) in enumerate(rows):
            tr.append(TraceRecord(i, gn, ye, None, 0.0, -1.5, i, i, i, i, i))
        text = trace_to_csv(tr)
        assert trace_to_csv(trace_from_csv(text)) == text

    def test_blank_lines_skipped(self, q2_gauss):
        sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                       "eta": 0.01, "T": 4, "T0": 1})
        _, trace = bb.slip_run(q2_gauss, sched, np.zeros(2), np.ones(2),
                               np.zeros(2), seed=9)
        header, *rows = trace_to_csv(trace).splitlines()
        text = "\n".join([header, "", rows[0], "", "", *rows[1:], "", ""])
        assert trace_from_csv(text).records == trace.records

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "exp_seed0.csv"
        good = Trace()
        good.append(TraceRecord(0, 1.0, 0.5, 0.25, 0.0, 2.0, 1, 1, 1, 1, 1))
        write_trace(path, good)
        before = path.read_bytes()
        bad = Trace()  # a bool is not a trace value: encoding raises
        bad.append(TraceRecord(0, 1.0, 0.5, 0.25, 0.0, 2.0, True, 1, 1, 1, 1))
        with pytest.raises(TypeError):
            write_trace(path, bad)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr("bilevelbench.trace.os.replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            write_trace(path, Trace())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    # rows as the metric evaluator, a custom metric function and a parsed
    # file give them, with the exact text each encodes to
    ENCODED_ROWS = [
        (TraceRecord(0, np.float64(0.1), -0.0, 5e-324, 1e16, None,
                     1, 1, 2, 1, 1),
         "0,0.1,-0.0,5e-324,1e+16,,1,1,2,1,1"),
        (TraceRecord(1, math.inf, None, None, None, np.float64(-2.5),
                     2, 2, 4, 2, 2),
         "1,inf,,,,-2.5,2,2,4,2,2"),
        (TraceRecord(7, 1.5, 0.25, np.float64(1e-05), 0.0, -1e300,
                     3, 3, 6, 3, 3),
         "7,1.5,0.25,1e-05,0.0,-1e+300,3,3,6,3,3"),
    ]

    def test_encoding_pinned(self):
        tr = Trace()
        for rec, _ in self.ENCODED_ROWS:
            tr.append(rec)
        text = trace_to_csv(tr)
        assert text == "\n".join(
            [bb.CSV_HEADER, *(line for _, line in self.ENCODED_ROWS), ""])
        # read, then write: the same bytes
        assert trace_to_csv(trace_from_csv(text)) == text

    @pytest.mark.parametrize("int_type", [np.int64, np.uint64, np.int32])
    def test_numpy_integers_round_trip(self, int_type):
        # t and the call counts of any integer type are written as plain
        # digits, the bytes of the same row with Python ints
        plain = TraceRecord(3, 0.5, None, 0.25, 0.0, 1.5, 3, 3, 7, 3, 3)
        numpy_ints = plain._replace(
            t=int_type(3), **{c: int_type(getattr(plain, c))
                              for c in TraceRecord._fields[6:]})
        text = trace_to_csv(Trace(records=[numpy_ints]))
        assert text == trace_to_csv(Trace(records=[plain]))
        assert text.splitlines()[1] == "3,0.5,,0.25,0.0,1.5,3,3,7,3,3"
        assert trace_from_csv(text).records == [plain]

    def test_empty_trace_is_header_only(self):
        assert trace_to_csv(Trace()) == bb.CSV_HEADER + "\n"

    def test_bool_metric_rejected(self):
        # a bool count: see test_failed_write_keeps_old_file
        tr = Trace()
        tr.append(TraceRecord(0, True, 0.5, 0.25, 0.0, 2.0, 1, 1, 1, 1, 1))
        with pytest.raises(TypeError, match="bool"):
            trace_to_csv(tr)

    @pytest.mark.parametrize("column", [1, 2, 3, 4],
                             ids=["grad_norm", "y_err", "z_err", "eps_err"])
    def test_negative_metric_rejected_at_append(self, column):
        name = TraceRecord._fields[column]
        row = [0, 1.0, 0.5, 0.25, 0.0, -2.0, 1, 1, 1, 1, 1]  # phi may be < 0
        row[column] = -1e-300
        rec = TraceRecord(*row)   # building a row does not check it
        tr = Trace()
        with pytest.raises(ValueError, match=f"{name} must be non-negative"):
            tr.append(rec)
        assert len(tr) == 0
        # so do the rows given to the constructor
        with pytest.raises(ValueError, match=f"{name} must be non-negative"):
            Trace(records=[rec])
        # every parsed row passes through append as well
        text = bb.CSV_HEADER + "\n" + ",".join(map(str, row)) + "\n"
        with pytest.raises(ValueError, match=f"{name} must be non-negative"):
            trace_from_csv(text)

    def test_constructor_checks_row_order(self):
        rec = TraceRecord(3, 1.0, 0.5, 0.25, 0.0, 2.0, 1, 1, 1, 1, 1)
        with pytest.raises(ValueError, match="strictly increasing"):
            Trace(records=[rec, rec])
        assert Trace(records=[rec]).records == [rec]

    ROWS = [TraceRecord(t, 1.0, 0.5, 0.25, 0.0, -2.0, t, t, t, t, t)
            for t in range(1, 5)]

    @pytest.mark.parametrize("bad", [
        {0: {"t": 0}},                                  # not after the trace's row
        {2: {"t": 2}, 3: {"y_err": -1.0}},              # a repeated t comes first
        {1: {"z_err": -1.0}, 3: {"grad_norm": -2.0}},   # the first negative metric
        {3: {"eps_err": -5e-324}},
    ], ids=["t-after-trace", "t-repeat", "z_err", "eps_err"])
    def test_extend_keeps_none_of_a_failing_list(self, bad):
        rows = [r._replace(**bad.get(i, {})) for i, r in enumerate(self.ROWS)]
        first = TraceRecord(0, 1.0, 0.5, 0.25, 0.0, 2.0, 0, 0, 0, 0, 0)
        by_append = Trace(records=[first])
        with pytest.raises(ValueError) as appended:
            for r in rows:
                by_append.append(r)
        tr = Trace(records=[first])
        with pytest.raises(ValueError) as extended:
            tr.extend(rows)
        assert str(extended.value) == str(appended.value)
        assert tr.records == [first]

    def test_extend_keeps_rows_append_keeps(self):
        # None, nan and -0.0 pass append's checks, as do zeros
        rows = [self.ROWS[0]._replace(grad_norm=math.nan, y_err=None),
                self.ROWS[1]._replace(z_err=-0.0, eps_err=0.0)]
        tr = Trace()
        tr.extend(rows)
        tr.extend([])
        assert tr.records == rows
        tr.extend(self.ROWS[2:])
        assert tr.records == [*rows, *self.ROWS[2:]]

    def test_header_pinned(self):
        assert bb.CSV_HEADER == ("t,grad_norm,y_err,z_err,eps_err,phi,"
                                 "calls_gxF,calls_gyF,calls_gyG,calls_hxy,"
                                 "calls_hyy")


# a theorem-mode schedule as a config built in code gives it
THEOREM = {"mode": "theorem41", "eps": 0.1, "delta": 0.1, "delta0": 1.0,
           "delta_y0": 1.0, "delta_z0": 1.0}


class TestConfig:
    def test_parse_round_trip(self, cfg_file):
        cfg = parse_config(cfg_file)
        assert cfg.problem_kind == "quadratic"
        assert cfg.algorithm == "slip"
        assert cfg.seeds == [1, 2, 3]
        assert cfg.schedule.T == 120
        assert cfg.noise.sigma_g1 == 0.05

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(CFG_TEXT.replace("[run]", "[run]\nbogus_key = 1"))
        with pytest.raises(ConfigurationError, match="bogus_key"):
            parse_config(path)

    def test_unknown_problem_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(CFG_TEXT.replace("preset = q2",
                                         "preset = q2\nwhatever = 3"))
        with pytest.raises(ConfigurationError, match="whatever"):
            parse_config(path)

    def test_missing_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(CFG_TEXT.replace("[algorithm]\nname = slip\n", ""))
        with pytest.raises(ConfigurationError, match="sections"):
            parse_config(path)

    def test_bad_type_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(CFG_TEXT.replace("T = 120", "T = twelve"))
        with pytest.raises(ConfigurationError):
            parse_config(path)

    def test_build_problem_kinds(self):
        for kind, params in (
                ("quadratic", {"preset": "q2"}),
                ("quadratic", {"dim_x": 2, "dim_y": 3, "seed": 1}),
                ("unbounded", {"preset": "q2"}),
                ("unbounded", {"preset": "q2", "a": 2.0}),
                ("unbounded", {"a": 1.0, "dim_x": 2, "dim_y": 2, "seed": 1}),
                ("hyperclean", {"n_train": 20, "n_val": 20, "feature_dim": 2,
                                "corruption_rate": 0.1, "seed": 1})):
            cfg = RunConfig(problem_kind=kind, problem_params=params,
                            noise=bb.NoiseModel.noiseless(), algorithm="slip",
                            schedule=bb.schedule_practical(
                                {"alpha": 0.1, "beta": 0.5, "gamma": 0.1,
                                 "eta": 0.01, "T": 5}))
            prob = build_problem(cfg)
            assert prob.dim_x >= 1
            # the harness computes every metric row from this oracle
            assert prob.solve is not None

    @pytest.mark.parametrize("change", [
        {"algorithm": "ttsa", "algo_params": {"eta_exponent": 0.6}},
        {"algo_params": {"refine_steps": 3}},
        {"problem_params": {"preset": "q2", "whatever": 3}},
        {"problem_kind": "hyperclean", "problem_params": {"a": 1.0}},
        {"problem_kind": "cubic"},
        # "theorem4.1" ran the Theorem 4.2 schedule; Delta_z was dropped
        {"schedule": {**THEOREM, "mode": "theorem4.1"}},
        {"schedule": {**THEOREM, "Delta_z": 5.0}},
    ], ids=["ttsa-rate", "slip-refine", "q2-key", "hyperclean-a", "kind",
            "schedule-mode", "schedule-key"])
    def test_programmatic_unknown_key_rejected(self, change):
        fields = {"problem_kind": "quadratic", "problem_params": {"preset": "q2"},
                  "noise": bb.NoiseModel.noiseless(), "algorithm": "slip",
                  "schedule": bb.schedule_practical(
                      {"alpha": 0.1, "beta": 0.5, "gamma": 0.1, "eta": 0.01,
                       "T": 5})}
        with pytest.raises(ConfigurationError, match="unknown"):
            RunConfig(**(fields | change))

    @pytest.mark.parametrize("mode", list(bb.ScheduleMode), ids=str)
    def test_schedule_mode_member_reads_as_its_value(self, mode):
        # a member raised "unknown schedule mode <ScheduleMode.THEOREM41: ...>"
        keys = ({"alpha": 0.1, "beta": 0.5, "gamma": 0.1, "eta": 0.01, "T": 5}
                if mode is bb.ScheduleMode.PRACTICAL else THEOREM)
        fields = {"problem_kind": "quadratic", "problem_params": {"preset": "q2"},
                  "noise": bb.NoiseModel.gaussian(0.1, 0.1, 0.1),
                  "algorithm": "slip"}
        by_member = RunConfig(**fields, schedule={**keys, "mode": mode})
        by_value = RunConfig(**fields, schedule={**keys, "mode": mode.value})
        assert by_member == by_value
        if mode is not bb.ScheduleMode.PRACTICAL:
            assert type(by_member.schedule["mode"]) is str
        assert resolve_schedule(by_member, build_problem(by_member)).mode is mode
        with pytest.raises(ConfigurationError,
                           match=r"^unknown schedule mode 'Theorem41'$"):
            RunConfig(**fields, schedule={**keys, "mode": "Theorem41"})

    def test_algorithm_defaults_filled(self):
        cfg = RunConfig(problem_kind="quadratic", problem_params={"preset": "q2"},
                        noise=bb.NoiseModel.noiseless(), algorithm="doubleloop",
                        algo_params={"refine_steps": 5},
                        schedule=bb.schedule_practical(
                            {"alpha": 0.1, "beta": 0.5, "gamma": 0.1,
                             "eta": 0.01, "T": 5}))
        assert cfg.algo_params == {"refine_interval": 2, "refine_steps": 5}

    @pytest.mark.parametrize("kind,params,key", [
        ("quadratic", {"dim_y": 2, "seed": 1}, "dim_x"),
        ("unbounded", {"dim_x": 2, "seed": 1}, "dim_y"),
        ("hyperclean", {"n_train": 20, "n_val": 20, "corruption_rate": 0.1},
         "feature_dim"),
    ])
    def test_missing_problem_key_named(self, kind, params, key):
        cfg = RunConfig(problem_kind=kind, problem_params=params,
                        noise=bb.NoiseModel.noiseless(), algorithm="slip",
                        schedule=bb.schedule_practical(
                            {"alpha": 0.1, "beta": 0.5, "gamma": 0.1,
                             "eta": 0.01, "T": 5}))
        with pytest.raises(ConfigurationError, match=key):
            build_problem(cfg)

    @pytest.mark.parametrize("kind,params,message", [
        ("quadratic", {"dim_x": 2, "dim_y": 2},
         "[problem] kind = quadratic needs seed (or preset = q2)"),
        ("unbounded", {"a": 2.0},
         "[problem] kind = unbounded needs dim_x, dim_y, seed (or preset = q2)"),
        ("hyperclean", {"reg": 0.2}, "[problem] kind = hyperclean needs "
         "n_train, n_val, feature_dim, corruption_rate"),
    ], ids=["quadratic", "unbounded", "hyperclean"])
    def test_missing_problem_keys_listed(self, kind, params, message):
        # by their config names, not by a Python signature
        cfg = RunConfig(**(self._FIELDS | {"problem_kind": kind,
                                           "problem_params": params}))
        with pytest.raises(ConfigurationError) as exc_info:
            build_problem(cfg)
        assert str(exc_info.value) == message

    @pytest.mark.parametrize("kind,params,match", [
        # escaped as OverflowError from numpy's uniform draw and from a ** 2
        ("quadratic", {"dim_x": 2, "dim_y": 3, "seed": 1, "l_g1": math.inf},
         r"need 0 < mu <= l_g1 < inf, got \(1.0, inf\)"),
        ("unbounded", {"preset": "q2", "a": 1e300},
         r"the \[problem\] values overflow \(OverflowError"),
        # NaN passed each range check and failed the run at row 0
        ("unbounded", {"preset": "q2", "a": math.nan},
         "growth rate a must be positive and finite, got nan"),
        ("quadratic", {"dim_x": 2, "dim_y": 3, "seed": 1, "r": math.nan},
         "r must be non-negative and finite, got nan"),
        ("hyperclean", {"n_train": 10, "n_val": 10, "feature_dim": 2,
                        "corruption_rate": 0.2, "reg": math.nan},
         "reg must be positive and finite, got nan"),
    ], ids=["l_g1-inf", "a-huge", "a-nan", "r-nan", "reg-nan"])
    def test_overflowing_problem_value_rejected(self, kind, params, match):
        cfg = RunConfig(**(self._FIELDS | {"problem_kind": kind,
                                           "problem_params": params}))
        with pytest.raises(ConfigurationError, match=match):
            build_problem(cfg)

    @pytest.mark.parametrize("kind,params,key", [
        ("quadratic", {"dim_x": 5}, "dim_x"),
        ("quadratic", {"r": 2.0}, "r"),
        ("unbounded", {"a": 2.0, "seed": 9}, "seed"),
    ])
    def test_preset_rejects_instance_keys(self, kind, params, key):
        cfg = RunConfig(problem_kind=kind,
                        problem_params={"preset": "q2", **params},
                        noise=bb.NoiseModel.noiseless(), algorithm="slip",
                        schedule=bb.schedule_practical(
                            {"alpha": 0.1, "beta": 0.5, "gamma": 0.1,
                             "eta": 0.01, "T": 5}))
        with pytest.raises(ConfigurationError, match=key):
            build_problem(cfg)

    def test_values_typed_alike_from_file_and_code(self, tmp_path):
        path = tmp_path / "dl.cfg"
        path.write_text(CFG_TEXT.replace("preset = q2", "dim_x = 3\ndim_y = 2\nseed = 4")
                        .replace("name = slip", "name = doubleloop\nrefine_steps = 4"))
        from_file = parse_config(path)
        from_code = RunConfig(problem_kind="quadratic",
                              problem_params={"dim_x": 3.0, "dim_y": "2", "seed": 4},
                              noise=from_file.noise, algorithm="doubleloop",
                              algo_params={"refine_steps": 4.0},
                              schedule=from_file.schedule)
        for cfg in (from_file, from_code):
            assert cfg.problem_params == {"dim_x": 3, "dim_y": 2, "seed": 4}
            assert cfg.algo_params == {"refine_interval": 2, "refine_steps": 4}
            assert all(type(v) is int for v in
                       [*cfg.problem_params.values(), *cfg.algo_params.values()])

    def test_theorem_config_typed_alike_from_file_and_code(self, tmp_path):
        path = tmp_path / "th.cfg"
        path.write_text(CFG_TEXT.replace(
            "mode = practical\nalpha = 0.1\nbeta = 0.9\ngamma = 0.1\n"
            "eta = 0.01\nT = 120\nT0 = 10",
            "mode = theorem42\neps = 0.1\ndelta = 0.1\ndelta0 = 1\n"
            "delta_y0 = 1.0\ndelta_z0 = 2.0\ngrad_phi_x0 = 0.5")
            .replace("sigma_g1 = 0.05", "sigma_g1 = 0.1")
            .replace("seeds = 1, 2, 3", "seeds = 1 2 3\nx0 = 0.5\ny0 = 1, 2"))
        from_file = parse_config(path)
        from_code = RunConfig(
            problem_kind="quadratic", problem_params={"preset": "q2"},
            noise=from_file.noise, algorithm="slip",
            schedule={"mode": "theorem42", "eps": "0.1", "delta": 0.1,
                      "delta0": 1, "delta_y0": "1", "delta_z0": 2.0,
                      "grad_phi_x0": np.float64(0.5)},
            seeds=(1, "2", 3.0), out="runs/q2",
            inits={"x0": [0.5], "y0": np.array([1, 2])})
        assert from_code == from_file
        assert from_file.schedule == {
            "mode": "theorem42", "eps": 0.1, "delta": 0.1, "delta0": 1.0,
            "delta_y0": 1.0, "delta_z0": 2.0, "grad_phi_x0": 0.5}
        assert from_file.inits == {"x0": 0.5, "y0": (1.0, 2.0)}
        assert all(type(v) is float for v in [
            *list(from_code.schedule.values())[1:], from_code.inits["x0"],
            *from_code.inits["y0"]])
        # the schedule is built from the constants, the same from either
        assert (resolve_schedule(from_code, build_problem(from_code))
                == resolve_schedule(from_file, build_problem(from_file)))
        # schedule is the only schedule field: run and sweep read the same one
        with pytest.raises(TypeError, match="schedule_spec"):
            RunConfig(**(self._FIELDS | {"schedule_spec": from_file.schedule}))

    _FIELDS = {"problem_kind": "quadratic", "problem_params": {"preset": "q2"},
               "noise": bb.NoiseModel.noiseless(), "algorithm": "slip",
               "schedule": bb.schedule_practical(
                   {"alpha": 0.1, "beta": 0.5, "gamma": 0.1, "eta": 0.01,
                    "T": 5})}

    @pytest.mark.parametrize("change,key", [
        ({"problem_params": {"dim_x": 2.7, "dim_y": 2, "seed": 1}}, "dim_x"),
        ({"algorithm": "doubleloop", "algo_params": {"refine_interval": 2.5}},
         "refine_interval"),
        ({"seeds": [1.5]}, "seeds"),
        ({"seeds": [2, np.float64(1.9)]}, "seeds"),
        ({"workers": 2.5}, "workers"),
    ], ids=["problem", "algorithm", "seed", "numpy-seed", "workers"])
    def test_fractional_integer_rejected(self, change, key):
        # int() would truncate it: dim_x = 2.7 used to build a 2-dim problem,
        # and seed 1.5 ran as seed 1
        with pytest.raises(ConfigurationError, match=f"{key}.*whole number"):
            RunConfig(**(self._FIELDS | change))

    @pytest.mark.parametrize("change,key", [
        ({"seeds": [True]}, "seeds"),
        ({"problem_params": {"dim_x": True, "dim_y": 2, "seed": 1}}, "dim_x"),
        ({"workers": True}, "workers"),
    ], ids=["seed", "problem", "workers"])
    def test_bool_integer_rejected(self, change, key):
        with pytest.raises(ConfigurationError, match=f"{key}.*not a valid int"):
            RunConfig(**(self._FIELDS | change))

    @pytest.mark.parametrize("change,match", [
        ({"max_wall_seconds": math.nan}, "max_wall_seconds must be >= 0"),
        ({"max_wall_seconds": -1.0}, "max_wall_seconds must be >= 0"),
        ({"max_wall_seconds": "soon"}, "max_wall_seconds.*not a valid float"),
        ({"inits": {"x0": 1.0, "w0": 3.0}}, r"unknown inits keys: \['w0'\]"),
        ({"inits": {"x0": "abc"}}, r"key 'x0' is not a valid float: 'abc'"),
        ({"inits": {"x0": [[1.0, 2.0]]}},
         r"key 'x0' is not a valid float: \[1.0, 2.0\]"),
        ({"schedule": {"mode": "theorem41"}},
         r"missing \[schedule\] keys for mode=theorem41: \['delta', 'delta0', "
         r"'delta_y0', 'delta_z0', 'eps'\]"),
        ({"schedule": {**THEOREM, "eps": "tenth"}}, "'eps' is not a valid float"),
        ({"schedule": {**THEOREM, "grad_phi_x0": None}},
         "'grad_phi_x0' is not a valid float"),
        ({"schedule": None}, "schedule must be a ParamSchedule or a mapping"),
    ], ids=["wall-nan", "wall-negative", "wall-text", "init-key", "init-text",
            "init-nested", "schedule-missing", "schedule-text",
            "grad-phi-none", "no-schedule"])
    def test_bad_run_value_rejected(self, change, match):
        # nan turned the deadline off, -1 ended every seed TIMEOUT at row 0,
        # and w0 was ignored; the init and schedule values escaped later as
        # ValueError, "length 1", KeyError or TypeError, or not at all
        with pytest.raises(ConfigurationError, match=match):
            RunConfig(**(self._FIELDS | change))

    def test_run_values_typed(self):
        cfg = RunConfig(**(self._FIELDS | {"workers": np.int64(2),
                                           "max_wall_seconds": 0}))
        assert (type(cfg.workers), cfg.workers) == (int, 2)
        assert (type(cfg.max_wall_seconds), cfg.max_wall_seconds) == (float, 0.0)

    def test_whole_seeds_typed_as_int(self):
        cfg = RunConfig(**(self._FIELDS | {"seeds": (np.int64(3), 4.0, "5")}))
        assert cfg.seeds == [3, 4, 5]
        assert all(type(s) is int for s in cfg.seeds)

    _LINES = CFG_TEXT.splitlines()

    @hyp_settings(max_examples=150, deadline=None)
    @given(line=st.integers(min_value=0, max_value=len(_LINES)),
           text=st.text(st.characters(blacklist_categories=("Cs",)),
                        max_size=30),
           replace_value=st.booleans())
    def test_mutated_config_fails_only_as_config_error(self, tmp_path_factory,
                                                       line, text,
                                                       replace_value):
        # one line's value replaced, or one arbitrary line inserted: the
        # parse, build and resolve path either succeeds or raises one of the
        # two configuration errors the CLI turns into exit code 1
        lines = list(self._LINES)
        if replace_value and line < len(lines) and "=" in lines[line]:
            lines[line] = lines[line].split("=")[0] + "= " + text
        else:
            lines.insert(line, text)
        path = tmp_path_factory.mktemp("fuzz") / "cfg.cfg"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            cfg = parse_config(path)
            resolve_schedule(cfg, build_problem(cfg))
        except ConfigurationError:
            pass

    # valid configs built in code, one per schedule kind and builder, that
    # the property test below changes one value of
    _CODE_CONFIGS = [
        {"problem_kind": "quadratic",
         "problem_params": {"dim_x": 2, "dim_y": 2, "seed": 1, "mu": 1.0,
                            "l_g1": 2.0, "r": 1.0},
         "noise": bb.NoiseModel.gaussian(0.05, 0.05, 0.05),
         "algorithm": "doubleloop",
         "algo_params": {"refine_interval": 2, "refine_steps": 3},
         "schedule": {"mode": "practical", "alpha": 0.1, "beta": 0.9,
                      "gamma": 0.1, "eta": 0.01, "T": 20, "T0": 5,
                      "alpha_init": 0.1},
         "seeds": [1, 2], "inits": {"x0": 0.5, "y0": [1.0, 1.0], "z0": 0.0},
         "max_wall_seconds": 10.0, "workers": 1},
        {"problem_kind": "unbounded", "problem_params": {"preset": "q2", "a": 1.0},
         "noise": bb.NoiseModel.gaussian(0.1, 0.1, 0.1), "algorithm": "slip",
         "schedule": THEOREM | {"grad_phi_x0": 1.0}, "seeds": [3],
         "inits": {"x0": 0.0, "y0": "1, 1", "z0": (0.0, 0.0)},
         "max_wall_seconds": math.inf, "workers": 2},
        {"problem_kind": "quadratic",
         "problem_params": {"dim_x": 2, "dim_y": 3, "seed": 2, "mu": 0.5,
                            "l_g1": 1.0},
         "noise": bb.NoiseModel.bounded(0.1, 0.1, 0.1, 0.1),
         "algorithm": "masoba",
         "schedule": THEOREM | {"mode": "theorem42", "eps": 0.1},
         "seeds": [4, 5], "inits": {"y0": 1.0}},
    ]
    _PLACES = [(i, name, key)
               for i, fields in enumerate(_CODE_CONFIGS)
               for name in ("problem_params", "algo_params", "schedule",
                            "seeds", "inits", "max_wall_seconds", "workers")
               if name in fields
               for key in (fields[name] if isinstance(fields[name], dict)
                           else range(len(fields[name])) if name == "seeds"
                           else [None])]
    # no decimal digits in the text, so no text is a dimension large enough
    # to allocate a big problem
    _VALUES = st.one_of(
        st.text(st.characters(blacklist_categories=("Cs", "Nd")), max_size=10),
        st.floats(-4, 4),
        st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308]),
        st.integers(-4, 4), st.sampled_from([2**64, 10**400]),
        st.booleans(), st.none(),
        st.lists(st.floats(-4, 4), max_size=3),
        st.lists(st.lists(st.floats(-4, 4), max_size=2), max_size=2))

    @pytest.mark.parametrize("refine,match", [
        ({"refine_interval": 0}, "got 0 and 3"),
        ({"refine_steps": -1}, "got 2 and -1"),
        ({"refine_steps": 2**64}, "cannot run"),
    ], ids=["interval-0", "steps-negative", "steps-past-counters"])
    def test_unrunnable_refinement_rejected_when_resolved(self, refine, match):
        # each was found only by the runner; interval 0 is rejected before
        # T is divided by it
        fields = self._CODE_CONFIGS[0]
        cfg = RunConfig(**(fields | {"algo_params": fields["algo_params"] | refine}))
        with pytest.raises(ConfigurationError, match=match):
            resolve_schedule(cfg, build_problem(cfg))

    def test_code_configs_are_valid(self):
        for fields in self._CODE_CONFIGS:
            cfg = RunConfig(**fields)
            resolve_schedule(cfg, build_problem(cfg))

    @hyp_settings(max_examples=300, deadline=None)
    @given(place=st.sampled_from(_PLACES), value=_VALUES)
    def test_mutated_code_config_fails_only_as_config_error(self, place, value):
        # one value of a config built in code replaced: construction, build
        # and resolve either succeed or raise ConfigurationError
        i, name, key = place
        fields = dict(self._CODE_CONFIGS[i])
        if name == "seeds":
            fields["seeds"] = [*fields["seeds"][:key], value,
                               *fields["seeds"][key + 1:]]
        elif key is None:
            fields[name] = value
        else:
            fields[name] = {**fields[name], key: value}
        try:
            cfg = RunConfig(**fields)
            resolve_schedule(cfg, build_problem(cfg))
        except ConfigurationError:
            pass


class TestRunExperiment:
    def test_three_seeds_three_files(self, cfg_file, tmp_path):
        cfg = parse_config(cfg_file)
        res = run_experiment(cfg, tmp_path / "out" / "exp")
        assert len(res.trace_paths) == 3
        assert all(p.exists() for p in res.trace_paths)
        meta = json.loads(res.metadata_path.read_text())
        assert [s["seed"] for s in meta["seeds"]] == [1, 2, 3]
        assert all(s["status"] == "OK" for s in meta["seeds"])

    def test_rerun_byte_identical(self, cfg_file, tmp_path):
        cfg = parse_config(cfg_file)
        r1 = run_experiment(cfg, tmp_path / "a" / "exp")
        r2 = run_experiment(cfg, tmp_path / "b" / "exp")
        for p1, p2 in zip(r1.trace_paths, r2.trace_paths):
            assert p1.read_bytes() == p2.read_bytes()

    def test_worker_pool_byte_identical(self, cfg_file, tmp_path):
        cfg = parse_config(cfg_file)
        r1 = run_experiment(cfg, tmp_path / "w1" / "exp")
        r4 = run_experiment(dataclasses.replace(cfg, workers=4),
                            tmp_path / "w4" / "exp")
        for p1, p4 in zip(r1.trace_paths, r4.trace_paths):
            assert p1.read_bytes() == p4.read_bytes()

    def test_divergence_marked_failed(self, tmp_path):
        cfg = RunConfig(
            problem_kind="quadratic", problem_params={"preset": "q2"},
            noise=bb.NoiseModel.gaussian(0.05, 0.05, 0.05), algorithm="slip",
            schedule=bb.schedule_practical({"alpha": 5.0, "beta": 0.9,
                                            "gamma": 5.0, "eta": 0.1,
                                            "T": 400, "T0": 0}),
            seeds=[0])
        res = run_experiment(cfg, tmp_path / "exp")
        info = res.metadata["seeds"][0]
        assert info["status"] == "FAILED"
        assert info["aborted_at"] is not None
        assert info["reason"] == ("FloatingPointError: non-finite iterate at "
                                  f"iteration {info['aborted_at']}")
        assert res.failed
        # partial trace flushed up to the diagnostic row
        text = res.trace_paths[0].read_text()
        assert len(text.splitlines()) == info["aborted_at"] + 2

    def test_crash_keeps_finished_seeds_metadata(self, cfg_file, tmp_path,
                                                 monkeypatch):
        # an exception the loop has no status of its own for, raised while
        # seed 2 computes row 4: the seed ends ERROR, and seed 3 still runs
        run = harness.slip_run

        def crash_on_seed_2(*args, **kwargs):
            if args[5] == 2:
                metrics = kwargs["metrics"]

                def crash_at_row_4(t, *iterates):
                    if t == 4:
                        raise KeyError("not a RunAborted")
                    return metrics(t, *iterates)

                kwargs["metrics"] = crash_at_row_4
            return run(*args, **kwargs)

        monkeypatch.setattr(harness, "slip_run", crash_on_seed_2)
        res = run_experiment(parse_config(cfg_file), tmp_path / "exp")
        assert res.failed
        meta = json.loads((tmp_path / "exp_meta.json").read_text())
        assert [s["seed"] for s in meta["seeds"]] == [1, 2, 3]
        assert [s["status"] for s in meta["seeds"]] == ["OK", "ERROR", "OK"]
        crashed = meta["seeds"][1]
        assert crashed["aborted_at"] == 4
        assert crashed["reason"] == "KeyError: 'not a RunAborted'"
        assert crashed["final"]["t"] == 3
        assert "reason" not in meta["seeds"][0]
        # rows 0-3 are kept; row 4 failed while its metrics were computed
        rows = (tmp_path / "exp_seed2.csv").read_text().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == [0, 1, 2, 3]
        assert (tmp_path / "exp_seed3.csv").exists()

    @pytest.mark.parametrize("where", ["trace-write", "before-loop"])
    def test_escaping_exception_keeps_finished_seeds_metadata(
            self, where, cfg_file, tmp_path, monkeypatch):
        # exceptions that no seed status covers escape run_experiment; the
        # metadata written after seeds 1 and 2 is left on disk
        if where == "trace-write":
            write = harness.write_trace

            def refuse_seed_3(path, trace):
                if path.name.endswith("_seed3.csv"):
                    raise OSError("disk full")
                write(path, trace)

            monkeypatch.setattr(harness, "write_trace", refuse_seed_3)
            expected = OSError
        else:
            run = harness.slip_run

            def crash_on_seed_3(*args, **kwargs):
                if args[5] == 3:
                    raise KeyError("not a RunAborted")
                return run(*args, **kwargs)

            monkeypatch.setattr(harness, "slip_run", crash_on_seed_3)
            expected = KeyError
        with pytest.raises(expected):
            run_experiment(parse_config(cfg_file), tmp_path / "exp")
        meta = json.loads((tmp_path / "exp_meta.json").read_text())
        assert [s["seed"] for s in meta["seeds"]] == [1, 2]
        assert all(s["status"] == "OK" for s in meta["seeds"])
        assert (tmp_path / "exp_seed2.csv").exists()
        assert not (tmp_path / "exp_seed3.csv").exists()

    def test_negative_metric_marked_error(self, cfg_file, tmp_path,
                                          monkeypatch):
        make = harness.default_metrics

        def negative_y_err_at_row_2(problem):
            metrics = make(problem)

            def evaluate(t, *iterates):
                row = metrics(t, *iterates)
                return row if t != 2 else (row[0], -1.0, *row[2:])
            return evaluate

        monkeypatch.setattr(harness, "default_metrics", negative_y_err_at_row_2)
        res = run_experiment(parse_config(cfg_file), tmp_path / "exp")
        for info, path in zip(res.metadata["seeds"], res.trace_paths):
            assert info["status"] == "ERROR"
            assert info["aborted_at"] == 2
            assert info["reason"] == ("ValueError: y_err must be "
                                      "non-negative, got -1.0")
            assert len(path.read_text().splitlines()) == 1 + 2

    # the arguments each runner takes between the schedule and (x0, y0, z0)
    _RUNNERS = {"slip": (bb.slip_run, ()), "masoba": (bb.masoba_run, ()),
                "doubleloop": (bb.double_loop_run, (2, 3)),
                "ttsa": (bb.ttsa_run, ())}

    @pytest.mark.parametrize("name", harness.ALGORITHMS)
    def test_config_path_matches_direct_runner(self, name, tmp_path):
        keys = ("\nrefine_interval = 2\nrefine_steps = 3"
                if name == "doubleloop" else "")
        path = tmp_path / "algo.cfg"
        path.write_text(CFG_TEXT.replace("name = slip", f"name = {name}{keys}")
                        .replace("seeds = 1, 2, 3", "seeds = 2"))
        cfg = parse_config(path)
        res = run_experiment(cfg, tmp_path / "exp")
        problem = build_problem(cfg)
        runner, extra = self._RUNNERS[name]
        _, trace = runner(problem, resolve_schedule(cfg, problem), *extra,
                          np.zeros(2), np.ones(2), np.zeros(2), 2)
        assert res.trace_paths[0].read_bytes() == trace_to_csv(trace).encode()
        assert res.metadata["algorithm"] == {"name": name, **cfg.algo_params}

    def test_ttsa_metadata_records_the_schedule_run(self, tmp_path):
        # ttsa_run has no warm start and no momentum, whatever the config
        path = tmp_path / "ttsa.cfg"
        path.write_text(CFG_TEXT.replace("name = slip", "name = ttsa")
                        .replace("seeds = 1, 2, 3", "seeds = 2"))
        res = run_experiment(parse_config(path), tmp_path / "exp")
        recorded = json.loads(res.metadata_path.read_text())["schedule"]
        assert (recorded["beta"], recorded["T0"]) == (0.0, 0)

    def test_ttsa_ignores_an_unrunnable_T0(self, tmp_path):
        # T0 = 10**20 would put the warm-start counters past 2**64, but ttsa
        # runs no warm start: its schedule resolves with T0 = 0 and runs
        path = tmp_path / "ttsa.cfg"
        path.write_text(CFG_TEXT.replace("name = slip", "name = ttsa")
                        .replace("T0 = 10", "T0 = 100000000000000000000")
                        .replace("seeds = 1, 2, 3", "seeds = 2"))
        cfg = parse_config(path)
        assert resolve_schedule(cfg, build_problem(cfg)).T0 == 0
        res = run_experiment(cfg, tmp_path / "exp")
        assert [s["status"] for s in res.metadata["seeds"]] == ["OK"]
        assert res.metadata["schedule"]["T0"] == 0

    def test_metadata_records_sigmas_and_skipped_steps(self, cfg_file, tmp_path):
        res = run_experiment(parse_config(cfg_file), tmp_path / "noisy")
        meta = json.loads(res.metadata_path.read_text())
        assert meta["problem"] | {"params": None} == {
            "kind": "quadratic", "name": "q2", "params": None,
            "noise": "gaussian", "sigma_f1": 0.05, "sigma_g1": 0.05,
            "sigma_g2": 0.05, "sigma_z": 0.0}
        assert [s["skipped_steps"] for s in meta["seeds"]] == [0, 0, 0]
        # noiseless from x0 = z0 = 0: the first estimate, x + z, is exactly
        # zero, so row 0 skips its x-step and no later row does
        path = tmp_path / "quiet.cfg"
        path.write_text(CFG_TEXT.replace("noise = gaussian", "noise = noiseless")
                        .replace("sigma_f1 = 0.05\nsigma_g1 = 0.05\nsigma_g2 = 0.05\n", ""))
        res = run_experiment(parse_config(path), tmp_path / "quiet")
        assert [s["skipped_steps"] for s in res.metadata["seeds"]] == [1, 1, 1]
        assert res.metadata["problem"]["sigma_g1"] == 0.0

    def test_numpy_sigma_written_as_strict_json_float(self, tmp_path):
        # json.dumps hands a numpy float32 to _json_default
        cfg = RunConfig(problem_kind="quadratic", problem_params={"preset": "q2"},
                        noise=bb.NoiseModel.gaussian(np.float32(0.05), 0.05, 0.05),
                        algorithm="slip", schedule={"mode": "practical", "alpha": 0.1,
                                                    "beta": 0.5, "gamma": 0.1,
                                                    "eta": 0.01, "T": 5})

        def refuse(name):
            raise ValueError(f"not strict JSON: {name}")

        res = run_experiment(cfg, tmp_path / "f32")
        meta = json.loads(res.metadata_path.read_text(), parse_constant=refuse)
        sigma = meta["problem"]["sigma_f1"]
        assert type(sigma) is float and sigma == float(np.float32(0.05))

    @pytest.mark.parametrize("x0", [np.int64(1), np.array(1.0)],
                             ids=["int64", "0-d-array"])
    def test_zero_d_init_is_a_scalar(self, cfg_file, tmp_path, x0):
        # np.int64(1) escaped as IndexError from the length check
        cfg = parse_config(cfg_file)
        want = run_experiment(dataclasses.replace(cfg, inits={"x0": 1.0}),
                              tmp_path / "float" / "exp")
        got = run_experiment(dataclasses.replace(cfg, inits={"x0": x0}),
                             tmp_path / "scalar" / "exp")
        for p_want, p_got in zip(want.trace_paths, got.trace_paths):
            assert p_got.read_bytes() == p_want.read_bytes()

    def test_timeout_keeps_partial_trace(self, cfg_file, tmp_path):
        cfg = dataclasses.replace(parse_config(cfg_file), max_wall_seconds=0.0)
        res = run_experiment(cfg, tmp_path / "exp")
        assert res.failed
        for info, path in zip(res.metadata["seeds"], res.trace_paths):
            assert info["status"] == "TIMEOUT"
            assert info["aborted_at"] is not None
            assert info["reason"] == ("TimeoutError: deadline passed at "
                                      f"iteration {info['aborted_at']}")
            rows = path.read_text().splitlines()[1:]
            assert len(rows) == info["aborted_at"] + 1
            assert info["final"]["t"] == info["aborted_at"]


class TestSweep:
    def sweep_cfg(self):
        return RunConfig(
            problem_kind="quadratic", problem_params={"preset": "q2"},
            noise=bb.NoiseModel.gaussian(0.1, 0.1, 0.1), algorithm="slip",
            schedule={"mode": "theorem41", "eps": 0.1, "delta": 0.1,
                      "delta0": 1.0, "delta_y0": 1.0, "delta_z0": 1.0},
            seeds=[1])

    def test_doubling_eps_ratio(self):
        summary = sweep_eps(self.sweep_cfg(), [0.2, 0.1])
        t_by_eps = {r.eps: r.T for r in summary.rows}
        assert t_by_eps[0.1] / t_by_eps[0.2] >= 8.0

    def test_slope_in_range(self):
        summary = sweep_eps(self.sweep_cfg(), [0.2, 0.1, 0.05, 0.025])
        assert 3.0 <= summary.slope <= 5.0

    def test_empty_list(self):
        summary = sweep_eps(self.sweep_cfg(), [])
        assert summary.rows == []
        assert summary.slope is None

    def test_inadmissible_marked_skipped(self):
        summary = sweep_eps(self.sweep_cfg(), [1e9, 0.1])
        assert summary.rows[0].status == "SKIPPED"
        assert summary.rows[0].binding_term is not None
        assert summary.rows[1].status == "OK"

    def test_T_past_int64_reported(self):
        # the slope's np.log raised TypeError on a Python int T past 2**63;
        # at eps 0.01 the sample counters pass 2**64, so that eps cannot run
        summary = sweep_eps(self.sweep_cfg(), [0.2, 0.02, 0.01])
        assert [r.status for r in summary.rows] == ["OK", "OK", "SKIPPED"]
        assert 2**63 < summary.rows[1].T < 2**64
        assert 3.0 <= summary.slope <= 5.0

    def test_execute_averages_only_ok_seeds(self):
        # T is about 3.8e14 at eps 0.2: both seeds end TIMEOUT
        cfg = dataclasses.replace(self.sweep_cfg(), seeds=[1, 2],
                                  max_wall_seconds=0.05)
        row, = sweep_eps(cfg, [0.2], execute=True).rows
        assert row.status == "OK"
        assert row.avg_grad_norm is None

    @pytest.mark.parametrize("algorithm", ["doubleloop", "ttsa"])
    def test_closed_form_only_for_slip_and_masoba(self, algorithm):
        cfg = dataclasses.replace(self.sweep_cfg(), algorithm=algorithm)
        with pytest.raises(ConfigurationError, match=algorithm):
            sweep_eps(cfg, [0.2])

    def test_csv_shape(self):
        text = sweep_eps(self.sweep_cfg(), [0.2, 1e9]).to_csv()
        lines = text.splitlines()
        assert lines[0].startswith("eps,status,T,")
        # header + 2 rows; a single OK row cannot fit a slope comment
        assert len(lines) == 3
        assert not any(line.startswith("#") for line in lines)
        two_ok = sweep_eps(self.sweep_cfg(), [0.2, 0.1]).to_csv()
        assert two_ok.splitlines()[-1].startswith("# slope")

