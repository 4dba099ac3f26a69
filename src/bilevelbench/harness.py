"""Experiment runner: config files, multi-seed runs, sweeps, named suites.

Config files are INI-style with sections ``[problem]``, ``[algorithm]``,
``[schedule]`` and ``[run]``; every key is typed and unknown keys are
rejected with :class:`~bilevelbench.problem.ConfigurationError`.  The seeds
run in order in the calling thread; one CSV trace is written per seed plus
a single JSON metadata record, and identical configs reproduce the trace
files byte for byte.  The ``[run] workers`` key is accepted and validated
but has no effect.

The named verification suites behind ``bilevelbench verify --suite`` are
fixed runs, so they live here beside :func:`run_experiment` and
:func:`sweep_eps`; each runs checkers of :mod:`bilevelbench.verify` on the
shipped instances and returns :class:`CheckResult` lines.
"""

from __future__ import annotations

import configparser
import json
import logging
import math
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .algorithms import (NumericalDivergenceError, RunAborted, RunError,
                         double_loop_run, default_metrics, masoba_run,
                         slip_run, ttsa_run)
from .constants import (ParamSchedule, SchedulingError, schedule_practical,
                        schedule_theorem41, schedule_theorem42, warm_start_T0)
from .problem import (BilevelProblem, ConfigurationError, NoiseModel,
                      hypergrad_estimate)
from .samples import Sample, Stream, check_range
from .synthetic import (HypercleanSpec, UnboundedSmoothSpec, make_hyperclean,
                        make_q2, make_quadratic, make_unbounded_smooth,
                        q2_spec, random_quadratic, random_quadratic_spec)
from .trace import Trace, write_atomic, write_trace
from .verify import (SolverSettings, bound_check_tracking,
                     check_bias_decomposition, check_warm_start,
                     finite_diff_hypergrad, inner_solve_exact,
                     probe_strong_convexity)

logger = logging.getLogger(__name__)

Vec = np.ndarray


@dataclass(frozen=True)
class RunConfig:
    """One experiment: a problem, an algorithm, a schedule, and seeds.

    ``workers`` is validated but has no effect: seeds always run in order.
    """

    problem_kind: str
    problem_params: dict
    noise: NoiseModel
    algorithm: str
    schedule: ParamSchedule | None = None
    schedule_spec: dict | None = None
    algo_params: dict = field(default_factory=dict)
    seeds: Sequence[int] = (0,)
    max_wall_seconds: float = math.inf
    out: str | None = None
    inits: dict = field(default_factory=dict)
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ConfigurationError("seeds must be nonempty")
        for s in self.seeds:
            try:
                check_range(s, 0, -1)   # the seed alone: no counters
            except ValueError as exc:
                raise ConfigurationError(str(exc)) from exc
        if len(set(self.seeds)) != len(self.seeds):
            # a repeat would run twice into one trace file
            raise ConfigurationError(f"seeds must be distinct, got {list(self.seeds)}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(f"unknown algorithm {self.algorithm!r}; "
                              f"choose from {sorted(ALGORITHMS)}")
        if self.schedule is None and self.schedule_spec is None:
            raise ConfigurationError("a schedule (or schedule spec) is required")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")


# ---------------------------------------------------------------- config IO

_NOISE_KEYS = ("noise", "sigma_f1", "sigma_g1", "sigma_g2", "sigma_z")
_PROBLEM_KEYS = {
    "quadratic": {"kind", "preset", "dim_x", "dim_y", "seed", "mu", "l_g1", "r",
                  *_NOISE_KEYS},
    "unbounded": {"kind", "a", "preset", "dim_x", "dim_y", "seed", "mu", "l_g1",
                  *_NOISE_KEYS},
    "hyperclean": {"kind", "n_train", "n_val", "feature_dim", "corruption_rate",
                   "reg", "seed", *_NOISE_KEYS},
}
_ALGO_KEYS = {
    "slip": {"name"},
    "masoba": {"name"},
    "doubleloop": {"name", "refine_interval", "refine_steps"},
    "ttsa": {"name", "eta_exponent", "alpha_exponent"},
}
_SCHEDULE_KEYS = {
    "practical": {"mode", "alpha", "beta", "gamma", "eta", "T", "T0", "alpha_init"},
    "theorem41": {"mode", "eps", "delta", "delta0", "delta_y0", "delta_z0",
                  "grad_phi_x0"},
    "theorem42": {"mode", "eps", "delta", "delta0", "delta_y0", "delta_z0",
                  "grad_phi_x0"},
}
_RUN_KEYS = {"seeds", "out", "max_wall_seconds", "x0", "y0", "z0", "workers"}


def _typed(section: dict, key: str, kind, default=None):
    if key not in section:
        if default is None:
            raise ConfigurationError(f"missing required key {key!r}")
        return default
    raw = section[key]
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigurationError(f"key {key!r} is not a valid {kind.__name__}: {raw!r}") \
            from exc


def _parse_noise(section: dict) -> NoiseModel:
    kind = section.get("noise", "noiseless")
    sig = {k: _typed(section, k, float, 0.0)
           for k in ("sigma_f1", "sigma_g1", "sigma_g2", "sigma_z")}
    if kind == "noiseless":
        if any(v != 0.0 for v in sig.values()):
            raise ConfigurationError("noiseless model cannot declare sigmas")
        return NoiseModel.noiseless()
    if kind == "gaussian":
        if sig["sigma_z"] != 0.0:
            raise ConfigurationError("sigma_z applies to the bounded model only")
        return NoiseModel.gaussian(sig["sigma_f1"], sig["sigma_g1"], sig["sigma_g2"])
    if kind == "bounded":
        return NoiseModel.bounded(sig["sigma_f1"], sig["sigma_g1"],
                                  sig["sigma_g2"], sig["sigma_z"])
    raise ConfigurationError(f"unknown noise model {kind!r}")


def _parse_init(key: str, raw: str) -> float | list[float]:
    try:
        vals = [float(p) for p in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigurationError(f"key {key!r} is not a list of floats: {raw!r}") from exc
    return vals[0] if len(vals) == 1 else vals


def parse_config(path) -> RunConfig:
    """Parse and validate a run configuration file."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ConfigurationError(f"cannot read config file {path}")
    required = {"problem", "algorithm", "schedule", "run"}
    present = set(parser.sections())
    if present != required:
        raise ConfigurationError(f"config must have exactly the sections "
                          f"{sorted(required)}, got {sorted(present)}")

    prob = dict(parser["problem"])
    kind = prob.get("kind")
    if kind not in _PROBLEM_KEYS:
        raise ConfigurationError(f"unknown problem kind {kind!r}; "
                          f"choose from {sorted(_PROBLEM_KEYS)}")
    unknown = set(prob) - _PROBLEM_KEYS[kind]
    if unknown:
        raise ConfigurationError(
            f"unknown [problem] keys for kind={kind}: {sorted(unknown)}")
    noise = _parse_noise(prob)
    params = {k: v for k, v in prob.items()
              if k not in ("kind", *_NOISE_KEYS)}

    algo = dict(parser["algorithm"])
    name = algo.get("name")
    if name not in _ALGO_KEYS:
        raise ConfigurationError(f"unknown algorithm {name!r}")
    unknown = set(algo) - _ALGO_KEYS[name]
    if unknown:
        raise ConfigurationError(
            f"unknown [algorithm] keys for {name}: {sorted(unknown)}")
    algo_params: dict = {}
    if name == "doubleloop":
        algo_params["refine_interval"] = _typed(algo, "refine_interval", int, 2)
        algo_params["refine_steps"] = _typed(algo, "refine_steps", int, 3)
    if name == "ttsa":
        algo_params["eta_exponent"] = _typed(algo, "eta_exponent", float, 0.6)
        algo_params["alpha_exponent"] = _typed(algo, "alpha_exponent", float, 0.4)

    sched = dict(parser["schedule"])
    mode = sched.get("mode")
    if mode not in _SCHEDULE_KEYS:
        raise ConfigurationError(f"unknown schedule mode {mode!r}")
    unknown = set(sched) - _SCHEDULE_KEYS[mode]
    if unknown:
        raise ConfigurationError(
            f"unknown [schedule] keys for mode={mode}: {sorted(unknown)}")
    schedule = None
    schedule_spec = None
    try:
        if mode == "practical":
            schedule = schedule_practical(
                {k: _typed(sched, k, float) for k in sched if k != "mode"})
        else:
            schedule_spec = {
                "mode": mode,
                "eps": _typed(sched, "eps", float),
                "delta": _typed(sched, "delta", float),
                "Delta0": _typed(sched, "delta0", float),
                "Delta_y0": _typed(sched, "delta_y0", float),
                "Delta_z0": _typed(sched, "delta_z0", float),
                "grad_phi_x0": (_typed(sched, "grad_phi_x0", float)
                                if "grad_phi_x0" in sched else None),
            }
    except SchedulingError as exc:
        raise ConfigurationError(f"invalid schedule: {exc}") from exc

    run = dict(parser["run"])
    unknown = set(run) - _RUN_KEYS
    if unknown:
        raise ConfigurationError(f"unknown [run] keys: {sorted(unknown)}")
    if "seeds" not in run:
        raise ConfigurationError("[run] seeds is required")
    try:
        seeds = [int(s) for s in run["seeds"].replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigurationError(f"bad seeds list: {run['seeds']!r}") from exc
    inits = {k: _parse_init(k, run[k]) for k in ("x0", "y0", "z0") if k in run}

    return RunConfig(
        problem_kind=kind, problem_params=params, noise=noise,
        algorithm=name, schedule=schedule, schedule_spec=schedule_spec,
        algo_params=algo_params, seeds=seeds,
        max_wall_seconds=_typed(run, "max_wall_seconds", float, math.inf),
        out=run.get("out"),
        inits=inits,
        workers=_typed(run, "workers", int, 1),
    )


def build_problem(cfg: RunConfig) -> BilevelProblem:
    """Instantiate the problem named by a config."""
    p = cfg.problem_params
    try:
        if cfg.problem_kind == "quadratic":
            if p.get("preset") == "q2":
                return make_q2(cfg.noise)
            if "preset" in p:
                raise ConfigurationError(f"unknown quadratic preset {p['preset']!r}")
            spec = random_quadratic_spec(
                _typed(p, "dim_x", int), _typed(p, "dim_y", int),
                _typed(p, "seed", int),
                mu=_typed(p, "mu", float, 1.0), l_g1=_typed(p, "l_g1", float, 2.0),
                r=_typed(p, "r", float, 1.0))
            return make_quadratic(spec, cfg.noise)
        if cfg.problem_kind == "unbounded":
            if p.get("preset") == "q2":
                core = q2_spec()
            else:
                if "preset" in p:
                    raise ConfigurationError(f"unknown unbounded preset {p['preset']!r}")
                core = random_quadratic_spec(
                    _typed(p, "dim_x", int), _typed(p, "dim_y", int),
                    _typed(p, "seed", int),
                    mu=_typed(p, "mu", float, 1.0),
                    l_g1=_typed(p, "l_g1", float, 2.0), r=0.0)
            return make_unbounded_smooth(
                UnboundedSmoothSpec(a=_typed(p, "a", float, 1.0), core=core),
                cfg.noise)
        if cfg.problem_kind == "hyperclean":
            spec = HypercleanSpec(
                n_train=_typed(p, "n_train", int),
                n_val=_typed(p, "n_val", int),
                feature_dim=_typed(p, "feature_dim", int),
                corruption_rate=_typed(p, "corruption_rate", float),
                reg=_typed(p, "reg", float, 0.1),
                seed=_typed(p, "seed", int, 0))
            return make_hyperclean(spec, cfg.noise)
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(str(exc)) from exc
    raise ConfigurationError(f"unknown problem kind {cfg.problem_kind!r}")


def resolve_schedule(cfg: RunConfig, problem: BilevelProblem) -> ParamSchedule:
    if cfg.schedule is not None:
        return cfg.schedule
    spec = dict(cfg.schedule_spec)
    mode = spec.pop("mode")
    builder = schedule_theorem41 if mode == "theorem41" else schedule_theorem42
    try:
        return builder(spec["eps"], spec["delta"], problem.constants,
                       spec["Delta0"], spec["Delta_y0"], spec["Delta_z0"],
                       grad_phi_x0=spec["grad_phi_x0"])
    except SchedulingError as exc:
        raise ConfigurationError(f"schedule rejected: {exc}") from exc


def _broadcast(v, dim: int, default: float) -> Vec:
    if v is None:
        return np.full(dim, default)
    if isinstance(v, (int, float)):
        return np.full(dim, float(v))
    arr = np.asarray(v, dtype=float)
    if arr.shape != (dim,):
        raise ConfigurationError(f"init vector has length {arr.shape[0]}, expected {dim}")
    return arr


ALGORITHMS = ("slip", "masoba", "doubleloop", "ttsa")


def _run_single(problem: BilevelProblem, schedule: ParamSchedule,
                cfg: RunConfig, seed: int) -> tuple[Trace, dict]:
    meta = problem.metadata
    x0 = _broadcast(cfg.inits.get("x0"), problem.dim_x,
                    meta.get("x0_default", 0.0))
    y0 = _broadcast(cfg.inits.get("y0"), problem.dim_y,
                    meta.get("y0_default", 1.0))
    z0 = _broadcast(cfg.inits.get("z0"), problem.dim_y,
                    meta.get("z0_default", 0.0))
    metrics = default_metrics(problem)
    t_start = time.monotonic()
    deadline = t_start + cfg.max_wall_seconds
    runner = {
        "slip": lambda: slip_run(problem, schedule, x0, y0, z0, seed,
                                 deadline=deadline, metrics=metrics),
        "masoba": lambda: masoba_run(problem, schedule, x0, y0, z0, seed,
                                     deadline=deadline, metrics=metrics),
        "doubleloop": lambda: double_loop_run(
            problem, schedule, cfg.algo_params.get("refine_interval", 2),
            cfg.algo_params.get("refine_steps", 3), x0, y0, z0, seed,
            deadline=deadline, metrics=metrics),
        "ttsa": lambda: ttsa_run(
            problem, schedule, x0, y0, z0, seed,
            eta_exponent=cfg.algo_params.get("eta_exponent", 0.6),
            alpha_exponent=cfg.algo_params.get("alpha_exponent", 0.4),
            deadline=deadline, metrics=metrics),
    }[cfg.algorithm]
    info: dict = {"seed": seed, "status": "OK", "aborted_at": None}
    try:
        state, trace = runner()
    except RunAborted as exc:
        trace = exc.trace
        info["aborted_at"] = exc.t
        cause = exc.__cause__   # the exception that stopped the run
        info["reason"] = f"{type(cause).__name__}: {cause}"
        if isinstance(exc, NumericalDivergenceError):
            info["status"] = "FAILED"
        elif isinstance(exc, RunError):
            info["status"] = "ERROR"
            logger.error("seed %d ended ERROR at iteration %d: %s", seed,
                         exc.t, info["reason"], exc_info=cause)
        else:
            info["status"] = "TIMEOUT"
    info["wall_seconds"] = time.monotonic() - t_start
    if trace.records:
        last = trace.records[-1]
        info["final"] = {c: getattr(last, c)
                         for c in ("t", "grad_norm", "y_err", "z_err",
                                   "eps_err", "phi")}
        info["calls"] = {c: getattr(last, c)
                         for c in ("calls_gxF", "calls_gyF", "calls_gyG",
                                   "calls_hxy", "calls_hyy")}
    return trace, info


@dataclass(frozen=True)
class RunResult:
    trace_paths: list[Path]
    metadata_path: Path
    metadata: dict

    @property
    def failed(self) -> bool:
        return any(s["status"] != "OK" for s in self.metadata["seeds"])


def run_experiment(cfg: RunConfig, out_prefix) -> RunResult:
    """Execute every seed of a config; write one CSV per seed plus metadata.

    Seeds run in order in the calling thread, each writing its trace file
    as it finishes; ``cfg.workers`` has no effect.  Every file is written
    through a temporary file and renamed into place.  A seed that fails
    (``FAILED``), times out (``TIMEOUT``) or raises anything else once its
    run has started (``ERROR``) keeps its partial trace and does not stop
    the others; its ``reason`` is ``"<Class>: <message>"`` of the exception
    that stopped it, and an ``ERROR`` seed's exception is also logged with
    its traceback.  The metadata record is rewritten after every seed, so
    an exception that escapes a later seed (say, an ``OSError`` from writing
    its trace file) still leaves the finished seeds' records.  Each seed's
    ``calls`` are the counts of its last trace row, so for ``doubleloop``
    they leave out the refinement that runs after that row.
    """
    out_prefix = Path(out_prefix)
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    problem = build_problem(cfg)
    schedule = resolve_schedule(cfg, problem)

    def job(seed: int):
        # the trace is dropped on return, so one seed's rows are alive at a time
        trace, info = _run_single(problem, schedule, cfg, seed)
        path = Path(f"{out_prefix}_seed{seed}.csv")
        write_trace(path, trace)
        return path, info

    metadata = {
        "problem": {"kind": cfg.problem_kind, "name": problem.name,
                    "params": cfg.problem_params,
                    "noise": cfg.noise.kind.value},
        "algorithm": {"name": cfg.algorithm, **cfg.algo_params},
        "schedule": schedule.diagnostics() | {
            "alpha_init": schedule.alpha_init, "T0": schedule.T0,
            "alpha": schedule.alpha, "beta": schedule.beta,
            "gamma": schedule.gamma, "eta": schedule.eta, "T": schedule.T},
        "seeds": [],
    }
    meta_path = Path(f"{out_prefix}_meta.json")
    trace_paths = []
    for seed in cfg.seeds:
        path, info = job(seed)
        trace_paths.append(path)
        metadata["seeds"].append(info)
        write_atomic(meta_path,
                     json.dumps(metadata, indent=2, default=_json_default) + "\n")
    return RunResult(trace_paths=trace_paths, metadata_path=meta_path,
                     metadata=metadata)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


# ------------------------------------------------------------- sweeps


SWEEP_HEADER = "eps,status,T,T0,total_oracle_calls,avg_grad_norm,binding_term"


@dataclass(frozen=True)
class SweepRow:
    eps: float
    status: str
    T: int | None
    T0: int | None
    total_calls: int | None
    avg_grad_norm: float | None
    binding_term: str | None


@dataclass(frozen=True)
class SweepSummary:
    rows: list[SweepRow]
    slope: float | None

    def to_csv(self) -> str:
        lines = [SWEEP_HEADER]
        for r in self.rows:
            lines.append(",".join([
                repr(r.eps), r.status,
                "" if r.T is None else str(r.T),
                "" if r.T0 is None else str(r.T0),
                "" if r.total_calls is None else str(r.total_calls),
                "" if r.avg_grad_norm is None else repr(r.avg_grad_norm),
                r.binding_term or "",
            ]))
        if self.slope is not None:
            lines.append(f"# slope of log T vs log(1/eps): {self.slope!r}")
        return "\n".join(lines) + "\n"


def sweep_eps(cfg: RunConfig, eps_list: Sequence[float], *,
              execute: bool = False) -> SweepSummary:
    """Evaluate the theorem-mode schedule over a list of target accuracies.

    Closed-form by default (no optimization runs): reports the scheduled
    iteration count and total oracle calls per eps, marks inadmissible
    entries SKIPPED with the binding ceiling term, and fits the slope of
    ``log T`` against ``log(1/eps)``.  With ``execute=True`` each admissible
    eps is actually run and the average final gradient norm recorded.
    """
    if cfg.schedule_spec is None:
        raise ConfigurationError("sweep requires a theorem-mode schedule")
    problem = build_problem(cfg)
    rows: list[SweepRow] = []
    for eps in eps_list:
        spec = dict(cfg.schedule_spec)
        spec["eps"] = eps
        sub = replace(cfg, schedule=None, schedule_spec=spec)
        try:
            schedule = resolve_schedule(sub, problem)
        except ConfigurationError as exc:
            binding = None
            cause = exc.__cause__
            if isinstance(cause, SchedulingError):
                binding = cause.binding_term
            rows.append(SweepRow(eps, "SKIPPED", None, None, None, None, binding))
            continue
        total = schedule.T0 + 5 * schedule.T
        avg_gn = None
        if execute:
            norms = []
            for seed in cfg.seeds:
                _, info = _run_single(problem, schedule, sub, seed)
                if info.get("final", {}).get("grad_norm") is not None:
                    norms.append(info["final"]["grad_norm"])
            avg_gn = float(np.mean(norms)) if norms else None
        rows.append(SweepRow(eps, "OK", schedule.T, schedule.T0, total,
                             avg_gn, schedule.binding_eps_term))
    ok = [(r.eps, r.T) for r in rows if r.status == "OK"]
    slope = None
    if len(ok) >= 2:
        xs = np.log([1.0 / e for e, _ in ok])
        ys = np.log([t for _, t in ok])
        slope = float(np.polyfit(xs, ys, 1)[0])
    return SweepSummary(rows=rows, slope=slope)


# ------------------------------------------------------------- suites


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def suite_oracles() -> list[CheckResult]:
    """Ground-truth consistency: analytic vs finite differences, fixed points."""
    results = []
    rng = np.random.default_rng(20240501)
    worst_fd = 0.0
    worst_inner = 0.0
    for k in range(20):
        dx = int(rng.integers(1, 6))
        dy = int(rng.integers(1, 6))
        prob = random_quadratic(dx, dy, seed=1000 + k)
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, size=dx)
            exact = prob.analytic.hypergrad(x)
            fd = finite_diff_hypergrad(prob, x)
            rel = float(np.linalg.norm(fd - exact)) / max(1e-30,
                                                          float(np.linalg.norm(exact)))
            worst_fd = max(worst_fd, rel)
        x = rng.uniform(-1.0, 1.0, size=dx)
        ys = inner_solve_exact(prob, x, SolverSettings(tol=1e-12))
        worst_inner = max(worst_inner, float(np.linalg.norm(
            ys - prob.analytic.y_star(x))))
    results.append(_result(
        "hypergrad-finite-difference",
        worst_fd <= 1e-4,
        f"max relative error {worst_fd:.3e} over 20 instances x 10 points"))
    results.append(_result(
        "inner-solve-vs-closed-form", worst_inner <= 1e-8,
        f"max deviation {worst_inner:.3e}"))

    worst_fix = 0.0
    for prob in _shipped_instances():
        for j in range(5):
            x = np.random.default_rng(77 + j).uniform(-0.5, 0.5, size=prob.dim_x)
            ys, zs, gphi = prob.analytic.solve(x)
            est = hypergrad_estimate(
                x, ys, zs, Sample(Stream.XI_PRIME, j, 3), Sample(Stream.ZETA_PRIME, j, 3),
                prob.oracle)
            worst_fix = max(worst_fix, float(np.linalg.norm(est - gphi)))
    results.append(_result(
        "fixed-point-consistency", worst_fix <= 1e-10,
        f"max deviation {worst_fix:.3e} at (y*, z*) under noiseless oracles"))

    convexity = max(
        probe_strong_convexity(p, p.constants.mu, 1000, seed=5)
        for p in _shipped_instances())
    results.append(_result(
        "strong-convexity-probe", convexity <= 1e-9,
        f"worst relative violation {convexity:.3e} over 1000 probes/instance"))
    return results


def _shipped_instances() -> list[BilevelProblem]:
    return [
        make_q2(),
        make_unbounded_smooth(UnboundedSmoothSpec(a=1.0, core=q2_spec())),
        make_hyperclean(HypercleanSpec(n_train=60, n_val=60, feature_dim=4,
                                       corruption_rate=0.2, reg=0.1, seed=3)),
    ]


def _q2_warmstart_setup():
    """Noisy Q2 (``sigma_g1 = 0.1``), the warm-start step capped for
    ``delta = 0.05``, and the ``T0`` that step needs from ``y0_init = 1``."""
    sigma_g1, delta = 0.1, 0.05
    prob = make_q2(NoiseModel.gaussian(0.0, sigma_g1, 0.0))
    c = prob.constants
    cap = c.mu / (2048.0 * c.L1 ** 2 * sigma_g1 ** 2 * math.log(math.e / delta))
    alpha_init = min(1.0 / (2.0 * c.l_g1), cap)
    dist0 = math.sqrt(2.0)  # ||y0_init - y*(x0)|| for y0_init = 1, x0 = 0
    t0 = warm_start_T0(alpha_init, c.mu, c.L1, dist0)
    return prob, alpha_init, t0, c


def suite_warmstart() -> list[CheckResult]:
    """Warm-start tail bound on the noisy pinned quadratic instance, 200
    seeds at ``delta = 0.05``."""
    prob, alpha_init, t0, c = _q2_warmstart_setup()
    report = check_warm_start(prob, alpha_init, t0, c.L1, 200, 0.05)
    return [_result(
        "warm-start-bound",
        report.passed,
        f"violation rate {report.violation_rate:.4f} <= {report.pass_rate_bound:.4f} "
        f"(threshold {report.threshold:.4f}, T0 ={t0})")]


def suite_tracking() -> list[CheckResult]:
    """Main-loop tracking bound with drift radius equal to the step length,
    200 seeds at ``delta = 0.05``."""
    prob = make_q2(NoiseModel.gaussian(0.0, 0.1, 0.0))
    schedule = schedule_practical(
        {"alpha": 0.25, "beta": 0.9, "gamma": 0.1, "eta": 0.005, "T": 300,
         "T0": 50, "alpha_init": 0.25})
    traces = []
    for s in range(200):
        _, tr = slip_run(prob, schedule, np.zeros(2), np.ones(2), np.zeros(2),
                         seed=s)
        traces.append(tr)
    report = bound_check_tracking(traces, schedule, prob.constants, 0.05)
    return [_result(
        "tracking-bound",
        report.passed,
        f"violation rate {report.violation_rate:.4f} <= {report.pass_rate_bound:.4f}")]


def suite_bias() -> list[CheckResult]:
    """Pointwise hypergradient bias inequality on a noiseless pinned run."""
    prob = make_q2()
    schedule = schedule_practical(
        {"alpha": 0.1, "beta": 0.9, "gamma": 0.1, "eta": 0.01, "T": 500,
         "T0": 50})
    points: list[tuple[Vec, Vec, Vec]] = []

    def record(t, x, y, z, m):
        points.append((x, y, z))
        return (None,) * 5

    slip_run(prob, schedule, np.zeros(2), np.ones(2), np.zeros(2), seed=0,
             metrics=record)
    report = check_bias_decomposition(prob, points)
    return [_result("bias-inequality", report.passed,
                    f"max LHS/RHS ratio {report.max_ratio:.4f} over "
                    f"{report.n_points} iterations")]


def suite_counts() -> list[CheckResult]:
    """Closed-form oracle accounting for the main loop and the refinement baseline."""
    prob = make_q2(NoiseModel.gaussian(0.05, 0.05, 0.05))
    t0, t = 7, 40
    schedule = schedule_practical(
        {"alpha": 0.1, "beta": 0.9, "gamma": 0.1, "eta": 0.01, "T": t, "T0": t0})
    state, _ = slip_run(prob, schedule, np.zeros(2), np.ones(2), np.zeros(2), seed=1)
    expected = (t, t, t0 + t, t, t)
    ok1 = state.calls.as_tuple() == expected
    interval, extra = 2, 3
    state2, _ = double_loop_run(prob, schedule, interval, extra, np.zeros(2),
                                np.ones(2), np.zeros(2), seed=1)
    expected2 = (t, t, t0 + t + extra * (t // interval), t, t)
    ok2 = state2.calls.as_tuple() == expected2
    return [
        _result("oracle-counts-main", ok1,
                f"{state.calls.as_tuple()} == {expected}"),
        _result("oracle-counts-refinement", ok2,
                f"{state2.calls.as_tuple()} == {expected2}"),
    ]


def suite_determinism() -> list[CheckResult]:
    """Byte-identical traces across two repeats of one config."""
    cfg = RunConfig(
        problem_kind="quadratic", problem_params={"preset": "q2"},
        noise=NoiseModel.gaussian(0.05, 0.05, 0.05),
        algorithm="slip",
        schedule=schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                     "eta": 0.01, "T": 60, "T0": 5}),
        seeds=[1, 2, 3],
    )
    blobs = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as td:
            res = run_experiment(cfg, Path(td) / "run")
            blobs.append(tuple(p.read_bytes() for p in res.trace_paths))
    ok = blobs[0] == blobs[1]
    return [_result("determinism-across-repeats", ok,
                    f"{len(blobs[0])} traces compared across two repeats")]


SUITES = {
    "oracles": suite_oracles,
    "warmstart": suite_warmstart,
    "tracking": suite_tracking,
    "bias": suite_bias,
    "counts": suite_counts,
    "determinism": suite_determinism,
}


def run_suite(name: str) -> tuple[list[CheckResult], bool]:
    """Run one named suite (or ``all``); returns results and overall pass."""
    if name == "all":
        results: list[CheckResult] = []
        for fn in SUITES.values():
            results.extend(fn())
    elif name in SUITES:
        results = SUITES[name]()
    else:
        raise ConfigurationError(
            f"unknown suite {name!r}; available: {', '.join([*SUITES, 'all'])}")
    return results, all(r.passed for r in results)
