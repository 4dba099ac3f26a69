"""Experiment runner: config files, multi-seed runs, trace files, checkers.

Config files are INI-style with sections ``[problem]``, ``[algorithm]``,
``[schedule]`` and ``[run]``; every key is typed and unknown keys are
rejected.  The seeds run in order in the calling thread; one CSV trace is
written per seed plus a single JSON metadata record, and identical configs
reproduce the trace files byte for byte.  The ``[run] workers`` key is
accepted and validated but has no effect.
"""

from __future__ import annotations

import configparser
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import verify
from .algorithms import (NumericalDivergenceError, RunAborted, double_loop_run,
                         default_metrics, masoba_run, slip_run, ttsa_run)
from .constants import (ParamSchedule, SchedulingError,
                        SmoothnessConstants, schedule_practical,
                        schedule_theorem41, schedule_theorem42)
from .problem import BilevelProblem, NoiseModel
from .synthetic import (HypercleanSpec, UnboundedSmoothSpec, make_hyperclean,
                        make_q2, make_quadratic, make_unbounded_smooth,
                        q2_spec, random_quadratic_spec, sigmoid)
from .trace import Trace, write_trace

Vec = np.ndarray


class ConfigError(ValueError):
    """Invalid or unknown configuration content (CLI exit code 1)."""


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
            raise ConfigError("seeds must be nonempty")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}; "
                              f"choose from {sorted(ALGORITHMS)}")
        if self.schedule is None and self.schedule_spec is None:
            raise ConfigError("a schedule (or schedule spec) is required")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")


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
            raise ConfigError(f"missing required key {key!r}")
        return default
    raw = section[key]
    try:
        if kind is bool:
            return raw.strip().lower() in ("1", "true", "yes")
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r} is not a valid {kind.__name__}: {raw!r}") \
            from exc


def _parse_noise(section: dict) -> NoiseModel:
    kind = section.get("noise", "noiseless")
    sig = {k: _typed(section, k, float, 0.0)
           for k in ("sigma_f1", "sigma_g1", "sigma_g2", "sigma_z")}
    if kind == "noiseless":
        if any(v != 0.0 for v in sig.values()):
            raise ConfigError("noiseless model cannot declare sigmas")
        return NoiseModel.noiseless()
    if kind == "gaussian":
        if sig["sigma_z"] != 0.0:
            raise ConfigError("sigma_z applies to the bounded model only")
        return NoiseModel.gaussian(sig["sigma_f1"], sig["sigma_g1"], sig["sigma_g2"])
    if kind == "bounded":
        return NoiseModel.bounded(sig["sigma_f1"], sig["sigma_g1"],
                                  sig["sigma_g2"], sig["sigma_z"])
    raise ConfigError(f"unknown noise model {kind!r}")


def _parse_init(key: str, raw: str) -> float | list[float]:
    try:
        vals = [float(p) for p in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"key {key!r} is not a list of floats: {raw!r}") from exc
    return vals[0] if len(vals) == 1 else vals


def parse_config(path) -> RunConfig:
    """Parse and validate a run configuration file."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    required = {"problem", "algorithm", "schedule", "run"}
    present = set(parser.sections())
    if present != required:
        raise ConfigError(f"config must have exactly the sections "
                          f"{sorted(required)}, got {sorted(present)}")

    prob = dict(parser["problem"])
    kind = prob.get("kind")
    if kind not in _PROBLEM_KEYS:
        raise ConfigError(f"unknown problem kind {kind!r}; "
                          f"choose from {sorted(_PROBLEM_KEYS)}")
    unknown = set(prob) - _PROBLEM_KEYS[kind]
    if unknown:
        raise ConfigError(f"unknown [problem] keys for kind={kind}: {sorted(unknown)}")
    noise = _parse_noise(prob)
    params = {k: v for k, v in prob.items()
              if k not in ("kind", *_NOISE_KEYS)}

    algo = dict(parser["algorithm"])
    name = algo.get("name")
    if name not in _ALGO_KEYS:
        raise ConfigError(f"unknown algorithm {name!r}")
    unknown = set(algo) - _ALGO_KEYS[name]
    if unknown:
        raise ConfigError(f"unknown [algorithm] keys for {name}: {sorted(unknown)}")
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
        raise ConfigError(f"unknown schedule mode {mode!r}")
    unknown = set(sched) - _SCHEDULE_KEYS[mode]
    if unknown:
        raise ConfigError(f"unknown [schedule] keys for mode={mode}: {sorted(unknown)}")
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
        raise ConfigError(f"invalid schedule: {exc}") from exc

    run = dict(parser["run"])
    unknown = set(run) - _RUN_KEYS
    if unknown:
        raise ConfigError(f"unknown [run] keys: {sorted(unknown)}")
    if "seeds" not in run:
        raise ConfigError("[run] seeds is required")
    try:
        seeds = [int(s) for s in run["seeds"].replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"bad seeds list: {run['seeds']!r}") from exc
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
                raise ConfigError(f"unknown quadratic preset {p['preset']!r}")
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
                    raise ConfigError(f"unknown unbounded preset {p['preset']!r}")
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
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown problem kind {cfg.problem_kind!r}")


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
        raise ConfigError(f"schedule rejected: {exc}") from exc


def _broadcast(v, dim: int, default: float) -> Vec:
    if v is None:
        return np.full(dim, default)
    if isinstance(v, (int, float)):
        return np.full(dim, float(v))
    arr = np.asarray(v, dtype=float)
    if arr.shape != (dim,):
        raise ConfigError(f"init vector has length {arr.shape[0]}, expected {dim}")
    return arr


ALGORITHMS = ("slip", "masoba", "doubleloop", "ttsa")


class _Deadline:
    def __init__(self, seconds: float):
        self.t_end = time.monotonic() + seconds

    def __call__(self, view) -> None:
        if time.monotonic() > self.t_end:
            raise TimeoutError("run exceeded max_wall_seconds")


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
    hooks = []
    if math.isfinite(cfg.max_wall_seconds):
        hooks.append(_Deadline(cfg.max_wall_seconds))
    runner = {
        "slip": lambda: slip_run(problem, schedule, x0, y0, z0, seed,
                                 hooks=hooks, metrics=metrics),
        "masoba": lambda: masoba_run(problem, schedule, x0, y0, z0, seed,
                                     hooks=hooks, metrics=metrics),
        "doubleloop": lambda: double_loop_run(
            problem, schedule, cfg.algo_params.get("refine_interval", 2),
            cfg.algo_params.get("refine_steps", 3), x0, y0, z0, seed,
            hooks=hooks, metrics=metrics),
        "ttsa": lambda: ttsa_run(
            problem, schedule, x0, y0, z0, seed,
            eta_exponent=cfg.algo_params.get("eta_exponent", 0.6),
            alpha_exponent=cfg.algo_params.get("alpha_exponent", 0.4),
            hooks=hooks, metrics=metrics),
    }[cfg.algorithm]
    t_start = time.monotonic()
    info: dict = {"seed": seed, "status": "OK", "aborted_at": None}
    try:
        state, trace = runner()
    except RunAborted as exc:
        trace = exc.trace
        info["status"] = ("FAILED" if isinstance(exc, NumericalDivergenceError)
                          else "TIMEOUT")
        info["aborted_at"] = exc.t
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
    as it finishes; ``cfg.workers`` has no effect.  A seed that fails or
    times out keeps its partial trace and does not stop the others.  The
    metadata record is written once, after the last seed; each seed's
    ``calls`` are the counts of its last trace row, so for ``doubleloop``
    they leave out the refinement that runs after that row.
    """
    out_prefix = Path(out_prefix)
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    problem = build_problem(cfg)
    schedule = resolve_schedule(cfg, problem)

    def job(seed: int):
        trace, info = _run_single(problem, schedule, cfg, seed)
        path = Path(f"{out_prefix}_seed{seed}.csv")
        write_trace(path, trace)
        return path, info

    results = [job(s) for s in cfg.seeds]

    metadata = {
        "problem": {"kind": cfg.problem_kind, "name": problem.name,
                    "params": cfg.problem_params,
                    "noise": cfg.noise.kind.value},
        "algorithm": {"name": cfg.algorithm, **cfg.algo_params},
        "schedule": schedule.diagnostics() | {
            "alpha_init": schedule.alpha_init, "T0": schedule.T0,
            "alpha": schedule.alpha, "beta": schedule.beta,
            "gamma": schedule.gamma, "eta": schedule.eta, "T": schedule.T},
        "seeds": [info for _, info in results],
    }
    meta_path = Path(f"{out_prefix}_meta.json")
    with open(meta_path, "w") as fh:
        json.dump(metadata, fh, indent=2, default=_json_default)
        fh.write("\n")
    return RunResult(trace_paths=[p for p, _ in results],
                     metadata_path=meta_path, metadata=metadata)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


# ------------------------------------------------------------- checkers


def weighted_tracking_average(y_err: Sequence[float] | Trace, beta: float) -> float:
    """Momentum-weighted average of the lower-level tracking error.

    Computes ``(1-beta)/T * sum_t sum_{i<=t} beta^(t-i) * y_err[i]`` by the
    single-pass recurrence ``S_t = beta * S_{t-1} + y_err[t]``.
    """
    if isinstance(y_err, Trace):
        vals = y_err.column("y_err")
        if any(v is None for v in vals):
            raise ConfigError("trace lacks the y_err column")
        y_err = vals
    if not 0.0 <= beta < 1.0:
        raise ConfigError(f"beta must lie in [0, 1), got {beta}")
    if len(y_err) == 0:
        return 0.0
    s = 0.0
    total = 0.0
    for v in y_err:
        s = beta * s + v
        total += (1.0 - beta) * s
    return total / len(y_err)


def tracking_bound(t: int, dist0_sq: float, alpha: float, drift_radius: float,
                   c: SmoothnessConstants, horizon: int, delta: float) -> float:
    """All-iterations high-probability tracking bound at iteration ``t``."""
    noise_term = 8.0 * alpha * c.sigma_g1 ** 2 / c.mu
    drift_term = (4.0 * drift_radius ** 2 * c.l_g1 ** 2
                  / (c.mu ** 4 * alpha ** 2))
    log_factor = math.log(math.e * max(horizon, 1) / delta)
    return ((1.0 - c.mu * alpha / 2.0) ** t * dist0_sq
            + (noise_term + drift_term) * log_factor)


@dataclass(frozen=True)
class TrackingReport:
    available: bool
    n_seeds: int
    n_violations: int
    pass_rate_bound: float

    @property
    def violation_rate(self) -> float:
        return self.n_violations / self.n_seeds if self.n_seeds else 0.0

    @property
    def passed(self) -> bool:
        return self.available and self.violation_rate <= self.pass_rate_bound


def bound_check_tracking(traces: Sequence[Trace | Sequence[float]],
                         schedule: ParamSchedule, c: SmoothnessConstants,
                         delta: float, *,
                         drift_radius: float | None = None,
                         bound_scale: float = 1.0) -> TrackingReport:
    """Check the all-iterations tracking bound across a seed ensemble.

    A seed violates when any of its iterations exceeds the bound; PASS when
    the violating fraction stays within ``delta`` plus a two-sigma binomial
    margin.  ``drift_radius`` defaults to the upper-level step length.
    ``bound_scale`` inflates the bound (used by monotonicity tests).
    """
    if len(traces) < 50:
        raise ConfigError(f"need at least 50 seeds, got {len(traces)}")
    if drift_radius is None:
        drift_radius = schedule.eta
    n_viol = 0
    for tr in traces:
        if isinstance(tr, Trace):
            vals = tr.column("y_err")
            if not vals or any(v is None for v in vals):
                return TrackingReport(available=False, n_seeds=len(traces),
                                      n_violations=0, pass_rate_bound=0.0)
        else:
            vals = list(tr)
        d0_sq = vals[0] ** 2
        horizon = len(vals)
        violated = any(
            vals[t] ** 2 > bound_scale * tracking_bound(
                t, d0_sq, schedule.alpha, drift_radius, c, horizon, delta)
            for t in range(horizon))
        n_viol += violated
    return TrackingReport(available=True, n_seeds=len(traces),
                          n_violations=n_viol,
                          pass_rate_bound=verify.binomial_margin(delta, len(traces)))


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
        raise ConfigError("sweep requires a theorem-mode schedule")
    problem = build_problem(cfg)
    rows: list[SweepRow] = []
    for eps in eps_list:
        spec = dict(cfg.schedule_spec)
        spec["eps"] = eps
        sub = replace(cfg, schedule=None, schedule_spec=spec)
        try:
            schedule = resolve_schedule(sub, problem)
        except ConfigError as exc:
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


# ------------------------------------------------------------- reports


@dataclass(frozen=True)
class WeightReport:
    mean_sigma_clean: float
    mean_sigma_corrupted: float | None

    @property
    def separated(self) -> bool:
        return (self.mean_sigma_corrupted is not None
                and self.mean_sigma_corrupted < self.mean_sigma_clean)


def hyperclean_weight_report(x: Vec, corrupted_indices: Sequence[int]) -> WeightReport:
    """Mean learned weight ``sigmoid(x_i)`` over clean vs corrupted samples."""
    x = np.asarray(x, dtype=float)
    corrupted = np.asarray(corrupted_indices, dtype=int)
    if corrupted.size and (corrupted.min() < 0 or corrupted.max() >= x.shape[0]):
        raise ConfigError("corrupted indices out of range for the weight vector")
    mask = np.zeros(x.shape[0], dtype=bool)
    mask[corrupted] = True
    sig = sigmoid(x)
    clean_mean = float(sig[~mask].mean()) if (~mask).any() else float("nan")
    corr_mean = float(sig[mask].mean()) if mask.any() else None
    return WeightReport(mean_sigma_clean=clean_mean, mean_sigma_corrupted=corr_mean)
