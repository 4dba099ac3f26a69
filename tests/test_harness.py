import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

import bilevelbench as bb
from bilevelbench.harness import (ConfigError, RunConfig, bound_check_tracking,
                                  build_problem, hyperclean_weight_report,
                                  parse_config, resolve_schedule,
                                  run_experiment, sweep_eps,
                                  tracking_bound, weighted_tracking_average)
from bilevelbench.trace import (Trace, TraceRecord, trace_from_csv,
                                trace_to_csv)

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


class TestWeightedTrackingAverage:
    def test_all_zero(self):
        assert weighted_tracking_average([0.0] * 7, beta=0.5) == 0.0

    def test_beta_zero_is_plain_mean(self):
        vals = [1.0, 2.0, 4.0]
        assert weighted_tracking_average(vals, beta=0.0) == pytest.approx(
            np.mean(vals), rel=1e-15)

    def test_hand_expanded(self):
        # (0.5/3) * (1 + 1.5 + 1.75)
        got = weighted_tracking_average([1.0, 1.0, 1.0], beta=0.5)
        assert got == pytest.approx(17.0 / 24.0, rel=1e-14)
        assert got == pytest.approx(0.7083333, abs=1e-6)

    @hyp_settings(max_examples=60, deadline=None)
    @given(vals=st.lists(st.floats(min_value=0.0, max_value=10.0),
                         min_size=1, max_size=40),
           beta=st.floats(min_value=0.0, max_value=0.99))
    def test_matches_naive_double_sum(self, vals, beta):
        naive = sum(
            (1 - beta) * sum(beta ** (t - i) * vals[i] for i in range(t + 1))
            for t in range(len(vals))
        ) / len(vals)
        fast = weighted_tracking_average(vals, beta)
        assert fast == pytest.approx(naive, rel=1e-9, abs=1e-12)


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
        assert report.available
        assert report.n_violations == 0

    def test_inflating_bound_is_monotone(self):
        prob, sched, traces = self.make_traces(0.1, 60, T=80)
        base = bound_check_tracking(traces, sched, prob.constants, 0.05)
        fat = bound_check_tracking(traces, sched, prob.constants, 0.05,
                                   bound_scale=10.0)
        assert fat.n_violations <= base.n_violations

    def test_r_zero_reduces_to_static_bound(self):
        # with no drift the bound is the frozen-x tracking bound
        c = bb.derive_constants(bb.SmoothnessConstants(
            mu=2.0, l_g1=2.0, sigma_g1=0.1, L_x1=1.0))
        got = tracking_bound(7, 0.5, 0.1, 0.0, c, horizon=100, delta=0.05)
        static = ((1 - c.mu * 0.1 / 2) ** 7 * 0.5
                  + (8 * 0.1 * c.sigma_g1 ** 2 / c.mu)
                  * math.log(math.e * 100 / 0.05))
        assert got == pytest.approx(static, rel=1e-15)

    def test_requires_50_seeds(self):
        prob, sched, traces = self.make_traces(0.0, 3, T=10)
        with pytest.raises(ConfigError):
            bound_check_tracking(traces, sched, prob.constants, 0.05)

    def test_missing_y_err_reported_unavailable(self):
        sched = bb.schedule_practical({"alpha": 0.25, "beta": 0.9,
                                       "gamma": 0.1, "eta": 0.005, "T": 5})
        tr = Trace()
        tr.append(TraceRecord(0, None, None, None, None, None, 1, 1, 1, 1, 1))
        c = bb.derive_constants(bb.SmoothnessConstants(mu=1.0, l_g1=1.0))
        report = bound_check_tracking([tr] * 50, sched, c, 0.05)
        assert not report.available
        assert not report.passed


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

    def test_header_pinned(self):
        assert bb.CSV_HEADER == ("t,grad_norm,y_err,z_err,eps_err,phi,"
                                 "calls_gxF,calls_gyF,calls_gyG,calls_hxy,"
                                 "calls_hyy")


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
        with pytest.raises(ConfigError, match="bogus_key"):
            parse_config(path)

    def test_unknown_problem_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(CFG_TEXT.replace("preset = q2",
                                         "preset = q2\nwhatever = 3"))
        with pytest.raises(ConfigError, match="whatever"):
            parse_config(path)

    def test_missing_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(CFG_TEXT.replace("[algorithm]\nname = slip\n", ""))
        with pytest.raises(ConfigError, match="sections"):
            parse_config(path)

    def test_bad_type_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(CFG_TEXT.replace("T = 120", "T = twelve"))
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_build_problem_kinds(self):
        for kind, params in (
                ("quadratic", {"preset": "q2"}),
                ("quadratic", {"dim_x": 2, "dim_y": 3, "seed": 1}),
                ("unbounded", {"preset": "q2"}),
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
            assert prob.analytic is not None

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
        except (ConfigError, bb.ConfigurationError):
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
        assert res.failed
        # partial trace flushed up to the diagnostic row
        text = res.trace_paths[0].read_text()
        assert len(text.splitlines()) == info["aborted_at"] + 2

    def test_timeout_keeps_partial_trace(self, cfg_file, tmp_path):
        cfg = dataclasses.replace(parse_config(cfg_file), max_wall_seconds=0.0)
        res = run_experiment(cfg, tmp_path / "exp")
        assert res.failed
        for info, path in zip(res.metadata["seeds"], res.trace_paths):
            assert info["status"] == "TIMEOUT"
            assert info["aborted_at"] is not None
            rows = path.read_text().splitlines()[1:]
            assert len(rows) == info["aborted_at"] + 1
            assert info["final"]["t"] == info["aborted_at"]


class TestSweep:
    def sweep_cfg(self):
        return RunConfig(
            problem_kind="quadratic", problem_params={"preset": "q2"},
            noise=bb.NoiseModel.gaussian(0.1, 0.1, 0.1), algorithm="slip",
            schedule_spec={"mode": "theorem41", "eps": 0.1, "delta": 0.1,
                           "Delta0": 1.0, "Delta_y0": 1.0, "Delta_z0": 1.0,
                           "grad_phi_x0": None},
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

    def test_csv_shape(self):
        text = sweep_eps(self.sweep_cfg(), [0.2, 1e9]).to_csv()
        lines = text.splitlines()
        assert lines[0].startswith("eps,status,T,")
        # header + 2 rows; a single OK row cannot fit a slope comment
        assert len(lines) == 3
        assert not any(line.startswith("#") for line in lines)
        two_ok = sweep_eps(self.sweep_cfg(), [0.2, 0.1]).to_csv()
        assert two_ok.splitlines()[-1].startswith("# slope")


class TestWeightReport:
    def test_uniform_weights(self):
        rep = hyperclean_weight_report(np.ones(10), [2, 5])
        assert rep.mean_sigma_clean == pytest.approx(rep.mean_sigma_corrupted)

    def test_empty_corrupted(self):
        rep = hyperclean_weight_report(np.ones(10), [])
        assert rep.mean_sigma_corrupted is None
        assert not rep.separated

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            hyperclean_weight_report(np.ones(5), [7])
