"""The per-layer benchmark in ``perfbench/`` patches library attributes by
name; this pins the names it relies on.  ``perfbench/`` is only imported."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import bilevelbench as bb
from bilevelbench import harness, verify
from bilevelbench.harness import RunConfig
from bilevelbench.trace import trace_to_csv

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    return _load(_TRACING)


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up by name while the class is made
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("seed", [1, 901])
def test_benchmark_inputs_build(tmp_path, seed):
    # every config the benchmark renders goes through the set-up it runs, so
    # a builder change that breaks one of them fails here
    workloads = _load(_TRACING.with_name("workloads.py"))
    for wl in workloads.WORKLOADS.values():
        for i, (label, text) in enumerate(workloads.render_configs(wl, seed)):
            path = tmp_path / f"{wl.name}-{label}.cfg"
            path.write_text(text)
            cfg = harness.parse_config(path)
            problem = harness.build_problem(cfg)
            schedule = harness.resolve_schedule(cfg, problem)
            assert problem.metadata["kind"] == cfg.problem_kind
            assert schedule.T > 0
            if i == 0:
                _check_probe_call_forms(cfg, problem)


def _check_probe_call_forms(cfg, problem):
    """The per-layer probes call the pointwise map and the oracle without a
    point, on a workload's first instance at its start point: both must read
    the lower level's point bit for bit."""
    meta = problem.metadata
    x = np.full(problem.dim_x, float(cfg.inits.get("x0", meta.get("x0_default", 0.0))))
    y = np.full(problem.dim_y, float(cfg.inits.get("y0", meta.get("y0_default", 1.0))))
    point = problem.det.lower_at(x)(y)
    np.testing.assert_array_equal(problem.det.grad_y_g(x, y), point.grad())
    sample = bb.Sample(bb.Stream.PI, 0, cfg.seeds[0])
    np.testing.assert_array_equal(problem.oracle.grad_y_G(x, y, sample),
                                  problem.oracle.grad_y_G(x, y, sample, point))


def test_tracer_records_every_layer(tmp_path):
    tracing = _load_tracing()
    cfg = RunConfig(
        problem_kind="quadratic", problem_params={"preset": "q2"},
        noise=bb.NoiseModel.gaussian(0.05, 0.05, 0.05), algorithm="slip",
        schedule=bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                        "eta": 0.01, "T": 20, "T0": 5}),
        seeds=[1, 2])
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        res = harness.run_experiment(dataclasses.replace(cfg, workers=2),
                                     tmp_path / "exp")
    assert not res.failed
    cols = tracer.columns()
    spans = {name: cols["name"] == i for i, name in enumerate(tracer.names)}
    assert {"algorithms.run", "algorithms.metrics", "algorithms.sgd_dd",
            "samples.draw", "trace.encode", "trace.write",
            *(f"problem.{name}" for name in tracing.ORACLES)} <= set(spans)
    # every oracle call is one span: 20 iterations and 5 warm-start steps
    # per seed
    for name in tracing.ORACLES:
        per_seed = 25 if name == "grad_y_G" else 20
        assert spans[f"problem.{name}"].sum() == 2 * per_seed, name
    # trace.encode_us_per_row divides by this work: the row count
    assert cols["work"][spans["trace.encode"]].tolist() == [20, 20]
    assert [len(meta["seeds"]) for meta in tracer.metadata] == [2]


def test_tracer_records_hyperclean_solves():
    # the hyperclean ground truth must look the solvers up on the verify
    # module at each call, or the per-layer solver numbers read zero; the
    # problem is built before the tracer is installed, so a solver bound
    # by name at build time is caught too
    tracing = _load_tracing()
    cfg = RunConfig(
        problem_kind="hyperclean",
        problem_params={"n_train": 30, "n_val": 30, "feature_dim": 3,
                        "corruption_rate": 0.2},
        noise=bb.NoiseModel.noiseless(), algorithm="slip",
        schedule=bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                        "eta": 0.05, "T": 5, "T0": 2}),
        seeds=[1])
    problem = harness.build_problem(cfg)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        _, trace = bb.slip_run(problem, cfg.schedule, np.ones(30), np.zeros(3),
                               np.zeros(3), seed=1)
    assert len(trace) == 5
    recorded = {tracer.names[i] for i in np.unique(tracer.columns()["name"])}
    assert {"verify.inner_solve", "verify.linear_solve",
            "problem.grad_y_G"} <= recorded


@pytest.mark.parametrize("problem", [
    bb.make_q2(),
    bb.make_hyperclean(bb.HypercleanSpec(n_train=30, n_val=30, feature_dim=3,
                                         corruption_rate=0.2)),
], ids=lambda problem: problem.name)
def test_inner_solve_feeds_the_linear_solve(problem):
    # the per-layer probes hand the inner solve's return straight to the
    # linear solve
    x = np.ones(problem.dim_x)
    z = verify.solve_linear_system_exact(problem, x,
                                         verify.inner_solve_exact(problem, x))
    assert z.shape == (problem.dim_y,)
    assert np.isfinite(z).all()


def test_no_op_metrics_write_empty_metric_fields(tmp_path, monkeypatch):
    # the loop timing without metrics installs this callable, directly and
    # as harness.default_metrics; the rows keep their call counts
    no_op = lambda *a: (None,) * 5  # noqa: E731
    sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                   "eta": 0.01, "T": 130, "T0": 5})
    _, trace = bb.slip_run(bb.make_q2(), sched, np.zeros(2), np.ones(2),
                           np.zeros(2), seed=1, metrics=no_op)
    monkeypatch.setattr(harness, "default_metrics", lambda problem: no_op)
    cfg = RunConfig(problem_kind="quadratic", problem_params={"preset": "q2"},
                    noise=bb.NoiseModel.noiseless(), algorithm="slip",
                    schedule=sched, seeds=[1])
    res = harness.run_experiment(cfg, tmp_path / "exp")
    assert not res.failed
    for text in (trace_to_csv(trace), res.trace_paths[0].read_text()):
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(130))
        assert all(r[1:6] == [""] * 5 for r in rows)
        assert rows[-1][6:] == ["130", "130", "135", "130", "130"]
