"""Experiment runner: config files, multi-seed runs, sweeps, named suites.

Config files are INI-style with sections ``[problem]``, ``[algorithm]``,
``[schedule]`` and ``[run]``; every key is typed and unknown keys are
rejected with :class:`~bilevelbench.problem.ConfigurationError`.  Every
key but the noise keys is checked and typed by :class:`RunConfig` itself,
so a config built in code is held to the same keys and types as a
file.  The seeds run in order in the calling thread; one CSV trace is
written per seed plus a single JSON metadata record, and identical configs
reproduce the trace files byte for byte.  The ``[run] workers`` key is
accepted and validated but has no effect.

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
from dataclasses import asdict, astuple, dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .algorithms import (RunAborted, check_schedule_runs, double_loop_run,
                         default_metrics, masoba_run, slip_run, ttsa_run,
                         ttsa_schedule)
from .constants import (ParamSchedule, schedule_practical, schedule_theorem41,
                        schedule_theorem42, warm_start_alpha, warm_start_T0)
from .problem import (SIGMAS, BilevelProblem, ConfigurationError, NoiseKind,
                      NoiseModel, hypergrad_estimate)
from .samples import Sample, Stream, check_range
from .synthetic import (HypercleanSpec, UnboundedSmoothSpec, make_hyperclean,
                        make_q2, make_quadratic, make_unbounded_smooth,
                        q2_spec, random_quadratic, random_quadratic_spec)
from .trace import COLUMNS, Trace, write_atomic, write_trace
from .verify import (SolverSettings, TrackingReport, WarmStartReport,
                     bound_check_tracking, check_bias_decomposition,
                     check_warm_start, finite_diff_hypergrad,
                     inner_solve_exact, probe_strong_convexity)

logger = logging.getLogger(__name__)

Vec = np.ndarray

# Each algorithm's [algorithm] keys besides ``name``, with their defaults;
# RunConfig types a given value as its default.
ALGORITHMS = {
    "slip": {},
    "masoba": {},
    "doubleloop": {"refine_interval": 2, "refine_steps": 3},
    "ttsa": {},
}

# Each problem kind's [problem] keys besides ``kind`` and the noise keys,
# with the types RunConfig gives them; build_problem passes them on by name.
_PROBLEM_KEYS = {
    "quadratic": {"preset": str, "dim_x": int, "dim_y": int, "seed": int,
                  "mu": float, "l_g1": float, "r": float},
    "unbounded": {"a": float, "preset": str, "dim_x": int, "dim_y": int,
                  "seed": int, "mu": float, "l_g1": float},
    "hyperclean": {"n_train": int, "n_val": int, "feature_dim": int,
                   "corruption_rate": float, "reg": float, "seed": int},
}


@dataclass(frozen=True)
class RunConfig:
    """One experiment: a problem, an algorithm, a schedule, and seeds.

    Construction checks and types every field, so a config built in code
    takes a file's keys and values, strings included.  It rejects an
    unknown problem kind, algorithm or schedule mode and any key the kind,
    algorithm or mode does not take, fills ``algo_params`` with the
    defaults of :data:`ALGORITHMS`, and types a problem value by
    ``_PROBLEM_KEYS``, an algorithm value as its default, a seed or
    ``workers`` as an int (a fractional number or a bool is rejected) and a
    schedule value or an init as a float.  ``seeds`` and an init (``x0``,
    ``y0``, ``z0``) take a comma- or space-separated string, a sequence or
    one value; an init of one number is a float, else a tuple, all finite.
    ``schedule`` is a :class:`ParamSchedule` or a mapping of ``mode`` and
    the ``[schedule]`` keys: a practical one becomes its
    :class:`ParamSchedule`, a theorem one stays a mapping for
    :func:`resolve_schedule`.  ``max_wall_seconds`` is a float ``>= 0``
    (``inf``, the default, sets no deadline).  ``workers`` has no effect:
    seeds always run in order.
    """

    problem_kind: str
    problem_params: dict
    noise: NoiseModel
    algorithm: str
    schedule: ParamSchedule | Mapping
    algo_params: dict = field(default_factory=dict)
    seeds: Sequence[int] | str = (0,)
    max_wall_seconds: float = math.inf
    out: str | None = None
    inits: dict = field(default_factory=dict)
    workers: int = 1

    def __post_init__(self) -> None:
        seeds = [_converted(s, "seeds", int) for s in _items(self.seeds)]
        if not seeds:
            raise ConfigurationError("seeds must be nonempty")
        object.__setattr__(self, "seeds", seeds)
        for s in self.seeds:
            check_range(s, 0, -1)   # the seed alone: no counters
        if len(set(self.seeds)) != len(self.seeds):
            # a repeat would run twice into one trace file
            raise ConfigurationError(f"seeds must be distinct, got {list(self.seeds)}")
        if self.problem_kind not in _PROBLEM_KEYS:
            raise ConfigurationError(f"unknown problem kind {self.problem_kind!r}; "
                                     f"choose from {sorted(_PROBLEM_KEYS)}")
        key_types = _PROBLEM_KEYS[self.problem_kind]
        unknown = set(self.problem_params) - set(key_types)
        if unknown:
            raise ConfigurationError(f"unknown [problem] keys for "
                                     f"kind={self.problem_kind}: {sorted(unknown)}")
        object.__setattr__(self, "problem_params", {
            k: _converted(v, k, key_types[k]) for k, v in self.problem_params.items()})
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(f"unknown algorithm {self.algorithm!r}; "
                              f"choose from {sorted(ALGORITHMS)}")
        defaults = ALGORITHMS[self.algorithm]
        unknown = set(self.algo_params) - set(defaults)
        if unknown:
            raise ConfigurationError(f"unknown [algorithm] keys for "
                                     f"{self.algorithm}: {sorted(unknown)}")
        params = {**defaults, **self.algo_params}
        object.__setattr__(self, "algo_params", {
            k: _converted(params[k], k, type(v)) for k, v in defaults.items()})
        if not isinstance(self.schedule, ParamSchedule):
            if not isinstance(self.schedule, Mapping):
                raise ConfigurationError(f"schedule must be a ParamSchedule or a "
                                         f"mapping, got {self.schedule!r}")
            values = dict(self.schedule)
            mode = values.pop("mode", None)
            if mode not in ("practical", "theorem41", "theorem42"):
                raise ConfigurationError(f"unknown schedule mode {mode!r}")
            if mode != "practical":   # schedule_practical checks its own keys
                unknown = set(values) - _THEOREM_KEYS
                if unknown:
                    raise ConfigurationError(f"unknown [schedule] keys for mode="
                                             f"{mode}: {sorted(unknown, key=str)}")
                missing = _THEOREM_KEYS - {"grad_phi_x0"} - set(values)
                if missing:
                    raise ConfigurationError(f"missing [schedule] keys for mode="
                                             f"{mode}: {sorted(missing)}")
            values = {k: _converted(v, k, float) for k, v in values.items()}
            object.__setattr__(self, "schedule", schedule_practical(values)
                               if mode == "practical" else {"mode": mode, **values})
        object.__setattr__(self, "workers",
                           _converted(self.workers, "workers", int))
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        wall = _converted(self.max_wall_seconds, "max_wall_seconds", float)
        if not wall >= 0.0:   # nan fails too
            raise ConfigurationError(f"max_wall_seconds must be >= 0, got {wall!r}")
        object.__setattr__(self, "max_wall_seconds", wall)
        unknown = set(self.inits) - set(_INITS)
        if unknown:
            raise ConfigurationError(f"unknown inits keys: {sorted(unknown, key=str)}")
        inits = {}
        for k, raw in self.inits.items():
            vals = tuple(_converted(v, k, float) for v in _items(raw))
            if not all(map(math.isfinite, vals)):
                raise ConfigurationError(f"{k} must be finite, got {raw!r}")
            inits[k] = vals[0] if len(vals) == 1 else vals
        object.__setattr__(self, "inits", inits)


# ---------------------------------------------------------------- config IO

# the keys of both theorem modes; schedule_practical checks its own
_THEOREM_KEYS = {"eps", "delta", "delta0", "delta_y0", "delta_z0", "grad_phi_x0"}
_INITS = ("x0", "y0", "z0")
_RUN_KEYS = {"seeds", "out", "max_wall_seconds", "workers", *_INITS}


def _items(raw) -> list:
    """A file's comma- or space-separated list, a sequence's items, or one value."""
    if isinstance(raw, str):
        return raw.replace(",", " ").split()
    try:
        return list(raw)
    except TypeError:   # not a sequence: one value
        return [raw]


def _converted(raw, key: str, kind):
    """``raw`` as ``kind``; an int key takes no bool and no fractional
    number, both of which ``int()`` would accept."""
    if kind is int and isinstance(raw, bool):
        raise ConfigurationError(f"key {key!r} is not a valid int: {raw!r}")
    try:
        value = kind(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"key {key!r} is not a valid {kind.__name__}: {raw!r}") \
            from exc
    if kind is int and isinstance(raw, float) and not raw.is_integer():
        # int() would truncate it
        raise ConfigurationError(f"key {key!r} is not a whole number: {raw!r}")
    return value


def _parse_noise(section: dict) -> NoiseModel:
    """The ``noise`` kind and its sigmas; :class:`NoiseModel` checks them."""
    try:
        kind = NoiseKind(section.get("noise", "noiseless"))
    except ValueError as exc:
        raise ConfigurationError(f"unknown noise model {section['noise']!r}") from exc
    return NoiseModel(kind, **{k: _converted(section[k], k, float)
                               for k in SIGMAS if k in section})


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
    noise = _parse_noise(prob)
    params = {k: v for k, v in prob.items()
              if k not in ("kind", "noise", *SIGMAS)}

    # RunConfig rejects an unknown name, key or mode and types the values
    # of every section but the noise keys
    algo_params = dict(parser["algorithm"])
    name = algo_params.pop("name", None)

    run = dict(parser["run"])
    unknown = set(run) - _RUN_KEYS
    if unknown:
        raise ConfigurationError(f"unknown [run] keys: {sorted(unknown)}")
    if "seeds" not in run:
        raise ConfigurationError("[run] seeds is required")

    return RunConfig(
        problem_kind=prob.get("kind"), problem_params=params, noise=noise,
        algorithm=name, schedule=dict(parser["schedule"]),
        algo_params=algo_params, seeds=run["seeds"],
        max_wall_seconds=run.get("max_wall_seconds", math.inf),
        out=run.get("out"),
        inits={k: run[k] for k in _INITS if k in run},
        workers=run.get("workers", 1),
    )


def build_problem(cfg: RunConfig) -> BilevelProblem:
    """Instantiate the problem named by a config.

    The parameters present, typed by :class:`RunConfig`, are passed by name
    to ``random_quadratic_spec`` or ``HypercleanSpec``, so one left out takes
    its default there.  ``preset = q2`` fixes the lower level, so beside
    it only ``unbounded``'s ``a`` may be set; ``unbounded`` fixes ``r = 0``.
    Bad input raises ``ConfigurationError``.
    """
    kind = cfg.problem_kind
    p = dict(cfg.problem_params)
    preset = p.pop("preset", None)
    if preset not in (None, "q2"):
        raise ConfigurationError(f"unknown {kind} preset {preset!r}")
    fixed = sorted(set(p) - {"a"}) if preset == "q2" else []
    if fixed:
        raise ConfigurationError(f"preset = q2 fixes the instance; "
                                 f"remove the [problem] keys {fixed}")
    need = {"hyperclean": ("n_train", "n_val", "feature_dim", "corruption_rate")}.get(
        kind, () if preset else ("dim_x", "dim_y", "seed"))
    missing = [k for k in need if k not in p]
    if missing:
        raise ConfigurationError(f"[problem] kind = {kind} needs {', '.join(missing)}"
                                 + ("" if kind == "hyperclean" else " (or preset = q2)"))
    try:
        if kind == "hyperclean":
            return make_hyperclean(HypercleanSpec(**p), cfg.noise)
        if kind == "quadratic":
            if preset == "q2":
                return make_q2(cfg.noise)
            return make_quadratic(random_quadratic_spec(**p), cfg.noise)
        a = p.pop("a", 1.0)   # the one kind left: unbounded
        core = q2_spec() if preset == "q2" else random_quadratic_spec(**p, r=0.0)
        return make_unbounded_smooth(UnboundedSmoothSpec(a=a, core=core), cfg.noise)
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(str(exc)) from exc
    except ArithmeticError as exc:   # say, a squared a past 1e308
        raise ConfigurationError(f"the [problem] values overflow "
                                 f"({type(exc).__name__}: {exc})") from exc


def resolve_schedule(cfg: RunConfig, problem: BilevelProblem) -> ParamSchedule:
    """The schedule the runner follows (``ttsa``'s by :func:`ttsa_schedule`,
    a theorem mode's from the problem's constants).  One that cannot be
    built or run (:func:`check_schedule_runs`) raises ConfigurationError."""
    s = cfg.schedule
    if not isinstance(s, ParamSchedule):
        builder = schedule_theorem41 if s["mode"] == "theorem41" else schedule_theorem42
        try:
            s = builder(s["eps"], s["delta"], problem.constants, s["delta0"],
                        s["delta_y0"], s["delta_z0"], s.get("grad_phi_x0"))
        except ArithmeticError as exc:   # say, a squared Delta_y0 past 1e308
            raise ConfigurationError(f"the schedule's closed forms overflow "
                                     f"({type(exc).__name__}: {exc})") from exc
    s = ttsa_schedule(s) if cfg.algorithm == "ttsa" else s
    p = cfg.algo_params
    check_schedule_runs(s, (p.get("refine_interval", 1), p.get("refine_steps", 0)))
    return s


def _broadcast(v: float | tuple[float, ...], dim: int) -> Vec:
    # one number for every coordinate, or a vector whose shape the run checks
    return np.array(v) if isinstance(v, tuple) else np.full(dim, v)


def _run_single(problem: BilevelProblem, schedule: ParamSchedule,
                cfg: RunConfig, seed: int) -> tuple[Trace, dict]:
    meta = problem.metadata
    x0 = _broadcast(cfg.inits.get("x0", meta.get("x0_default", 0.0)), problem.dim_x)
    y0 = _broadcast(cfg.inits.get("y0", meta.get("y0_default", 1.0)), problem.dim_y)
    z0 = _broadcast(cfg.inits.get("z0", 0.0), problem.dim_y)
    metrics = default_metrics(problem)
    t_start = time.monotonic()
    deadline = t_start + cfg.max_wall_seconds
    # looked up at each run, so a runner patched onto this module is used;
    # an algorithm's keys go in as positional arguments after the schedule
    runner = {"slip": slip_run, "masoba": masoba_run,
              "doubleloop": double_loop_run, "ttsa": ttsa_run}[cfg.algorithm]
    info: dict = {"seed": seed, "status": "OK", "aborted_at": None}
    try:
        _, trace = runner(problem, schedule, *cfg.algo_params.values(),
                          x0, y0, z0, seed, deadline=deadline, metrics=metrics)
    except RunAborted as exc:
        trace = exc.trace
        info["status"] = exc.status
        info["aborted_at"] = exc.t
        cause = exc.__cause__   # the exception that stopped the run
        info["reason"] = f"{type(cause).__name__}: {cause}"
        if exc.status == "ERROR":
            logger.error("seed %d ended ERROR at iteration %d: %s", seed,
                         exc.t, info["reason"], exc_info=cause)
    info["wall_seconds"] = time.monotonic() - t_start
    info["skipped_steps"] = len(trace.skipped_steps)
    if trace.records:
        final = {c: v if v is None or math.isfinite(v) else None   # strict JSON
                 for c, v in zip(COLUMNS, trace.records[-1])}
        calls = {c: final.pop(c) for c in COLUMNS if c.startswith("calls_")}
        info["final"], info["calls"] = final, calls
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

    Seeds run in order in the calling thread, each writing its trace file as
    it finishes; ``cfg.workers`` has no effect.  Every file is written
    through a temporary file and renamed into place; the directory is made
    at the first write, so a config rejected before it leaves none.  The
    metadata records the schedule :func:`resolve_schedule` returns.  A seed
    that fails (``FAILED``), times out (``TIMEOUT``) or raises anything else
    once its run has started (``ERROR``) keeps its partial trace and does
    not stop the others; its ``reason`` is ``"<Class>: <message>"`` of the
    exception that stopped it, and an ``ERROR`` seed's exception is also
    logged with its traceback.  The metadata record is rewritten after every
    seed, so an exception that escapes a later seed (say, an ``OSError``
    from writing its trace file) still leaves the finished seeds' records.
    Each seed's ``final`` (a non-finite metric as ``None``) and ``calls`` are
    its last trace row, so for ``doubleloop`` they leave out the refinement.
    """
    out_prefix = Path(out_prefix)
    problem = build_problem(cfg)
    schedule = resolve_schedule(cfg, problem)

    def job(seed: int):
        # the trace is dropped on return, so one seed's rows are alive at a time
        trace, info = _run_single(problem, schedule, cfg, seed)
        path = Path(f"{out_prefix}_seed{seed}.csv")
        path.parent.mkdir(parents=True, exist_ok=True)
        write_trace(path, trace)
        return path, info

    metadata = {
        "problem": {"kind": cfg.problem_kind, "name": problem.name,
                    "params": cfg.problem_params,
                    "noise": cfg.noise.kind.value,
                    **{s: getattr(cfg.noise, s) for s in SIGMAS}},
        "algorithm": {"name": cfg.algorithm, **cfg.algo_params},
        "schedule": asdict(schedule) | {"mode": schedule.mode.value},
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
    reason: str | None = None   # why a SKIPPED eps cannot run; not in the CSV


@dataclass(frozen=True)
class SweepSummary:
    rows: list[SweepRow]
    slope: float | None

    def to_csv(self) -> str:
        def cell(v) -> str:
            return "" if v is None else v if isinstance(v, str) else repr(v)

        lines = [SWEEP_HEADER,
                 *(",".join(map(cell, astuple(r)[:-1])) for r in self.rows)]
        if self.slope is not None:
            lines.append(f"# slope of log T vs log(1/eps): {self.slope!r}")
        return "\n".join(lines) + "\n"


def sweep_eps(cfg: RunConfig, eps_list: Sequence[float], *,
              execute: bool = False) -> SweepSummary:
    """Evaluate the theorem-mode schedule over a list of target accuracies.

    Closed-form by default (no optimization runs): reports the scheduled
    iteration count and total oracle calls per eps, marks inadmissible
    entries SKIPPED with the binding ceiling term, and fits the slope of
    ``log T`` against ``log(1/eps)``.  The total is ``T0 + 5T``, the count
    of ``slip`` and ``masoba``; any other algorithm is rejected.  With
    ``execute=True`` each eps that :func:`resolve_schedule` accepts, as
    ``run`` does, is run and the final gradient norm averaged over the seeds
    that ended ``OK`` (left empty when none did); one it rejects is SKIPPED.
    ``execute`` needs a finite ``cfg.max_wall_seconds`` to bound each run.
    """
    if isinstance(cfg.schedule, ParamSchedule):
        raise ConfigurationError("sweep requires a theorem-mode schedule")
    if cfg.algorithm not in ("slip", "masoba"):
        raise ConfigurationError(
            f"sweep counts oracle calls as T0 + 5T, which holds for slip and "
            f"masoba only, not {cfg.algorithm}")
    if execute and math.isinf(cfg.max_wall_seconds):
        raise ConfigurationError("sweep --execute needs a finite max_wall_seconds")
    problem = build_problem(cfg)
    rows: list[SweepRow] = []
    for eps in eps_list:
        sub = replace(cfg, schedule={**cfg.schedule, "eps": eps})
        try:
            schedule = resolve_schedule(sub, problem)
        except ConfigurationError as exc:
            binding = getattr(exc, "binding_term", None)
            rows.append(SweepRow(eps, "SKIPPED", None, None, None, None, binding,
                                 str(exc)))
            continue
        infos = [_run_single(problem, schedule, sub, seed)[1]
                 for seed in cfg.seeds] if execute else []
        total = schedule.T0 + 5 * schedule.T
        norms = [i["final"]["grad_norm"] for i in infos if i["status"] == "OK"]
        avg_gn = float(np.mean(norms)) if norms else None
        rows.append(SweepRow(eps, "OK", schedule.T, schedule.T0, total,
                             avg_gn, schedule.binding_eps_term))
    ok = [(r.eps, r.T) for r in rows if r.status == "OK"]
    slope = None
    if len(ok) >= 2:
        xs = np.log([1.0 / e for e, _ in ok])
        # float: a T past 2**63 would make an object array that np.log rejects
        ys = np.log([float(t) for _, t in ok])
        slope = float(np.polyfit(xs, ys, 1)[0])
    return SweepSummary(rows=rows, slope=slope)


# ------------------------------------------------------------- suites


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def suite_oracles() -> list[CheckResult]:
    """Ground-truth consistency: ``solve`` vs finite differences, fixed points."""
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
            exact = prob.solve(x)[2]
            fd = finite_diff_hypergrad(prob, x)
            rel = float(np.linalg.norm(fd - exact)) / max(1e-30,
                                                          float(np.linalg.norm(exact)))
            worst_fd = max(worst_fd, rel)
        x = rng.uniform(-1.0, 1.0, size=dx)
        ys = inner_solve_exact(prob, x, SolverSettings(tol=1e-12)).y
        worst_inner = max(worst_inner, float(np.linalg.norm(
            ys - prob.solve(x)[0])))
    results.append(CheckResult(
        "hypergrad-finite-difference",
        worst_fd <= 1e-4,
        f"max relative error {worst_fd:.3e} over 20 instances x 10 points"))
    results.append(CheckResult(
        "inner-solve-vs-closed-form", worst_inner <= 1e-8,
        f"max deviation {worst_inner:.3e}"))

    worst_fix = 0.0
    for prob in _shipped_instances():
        for j in range(5):
            x = np.random.default_rng(77 + j).uniform(-0.5, 0.5, size=prob.dim_x)
            ys, zs, gphi = prob.solve(x)
            est = hypergrad_estimate(
                x, ys, zs, Sample(Stream.XI_PRIME, j, 3), Sample(Stream.ZETA_PRIME, j, 3),
                prob.oracle)
            worst_fix = max(worst_fix, float(np.linalg.norm(est - gphi)))
    results.append(CheckResult(
        "fixed-point-consistency", worst_fix <= 1e-10,
        f"max deviation {worst_fix:.3e} at (y*, z*) under noiseless oracles"))

    convexity = max(
        probe_strong_convexity(p, 1000, seed=5)
        for p in _shipped_instances())
    results.append(CheckResult(
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


def warmstart_report() -> tuple[WarmStartReport, float, int]:
    """Warm-start tail bound on the noisy pinned quadratic instance
    (``sigma_g1 = 0.1``), 200 seeds at ``delta = 0.05``, with the warm-start
    step capped for that ``delta`` and the ``T0`` it needs from ``y0 = 1``.
    Returns the report, that step and ``T0``."""
    prob = make_q2(NoiseModel.gaussian(0.0, 0.1, 0.0))
    c = prob.constants
    alpha_init = warm_start_alpha(c, 0.05)
    # dist0 = ||y0_init - y*(x0)|| = sqrt(2) for y0_init = 1, x0 = 0
    t0 = warm_start_T0(alpha_init, c.mu, c.L1, math.sqrt(2.0))
    return check_warm_start(prob, alpha_init, t0, 200, 0.05), alpha_init, t0


def suite_warmstart() -> list[CheckResult]:
    """The ensemble of :func:`warmstart_report`."""
    report, _, t0 = warmstart_report()
    return [CheckResult(
        "warm-start-bound", report.passed,
        f"violation rate {report.violation_rate:.4f} <= {report.pass_rate_bound:.4f} "
        f"(threshold {report.threshold:.4f}, T0 = {t0})")]


def tracking_report() -> TrackingReport:
    """Main-loop tracking bound with drift radius equal to the step length,
    200 seeds at ``delta = 0.05``."""
    prob = make_q2(NoiseModel.gaussian(0.0, 0.1, 0.0))
    schedule = schedule_practical(
        {"alpha": 0.25, "beta": 0.9, "gamma": 0.1, "eta": 0.005, "T": 300,
         "T0": 50, "alpha_init": 0.25})
    traces = [slip_run(prob, schedule, np.zeros(2), np.ones(2), np.zeros(2),
                       seed=s)[1]
              for s in range(200)]
    return bound_check_tracking(traces, schedule, prob.constants, 0.05)


def suite_tracking() -> list[CheckResult]:
    """The ensemble of :func:`tracking_report`."""
    report = tracking_report()
    return [CheckResult(
        "tracking-bound", report.passed,
        f"violation rate {report.violation_rate:.4f} <= {report.pass_rate_bound:.4f}")]


def suite_bias() -> list[CheckResult]:
    """Pointwise hypergradient bias inequality on a noiseless pinned run."""
    prob = make_q2()
    schedule = schedule_practical(
        {"alpha": 0.1, "beta": 0.9, "gamma": 0.1, "eta": 0.01, "T": 500,
         "T0": 50})
    points: list[tuple[Vec, Vec, Vec]] = []
    metrics = default_metrics(prob)

    def record(ts, x, y, z, m):
        points.extend(zip(x, y, z))
        return metrics(ts, x, y, z, m)

    slip_run(prob, schedule, np.zeros(2), np.ones(2), np.zeros(2), seed=0,
             metrics=record)
    report = check_bias_decomposition(prob, points)
    return [CheckResult("bias-inequality", report.passed,
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
        CheckResult("oracle-counts-main", ok1,
                    f"{state.calls.as_tuple()} == {expected}"),
        CheckResult("oracle-counts-refinement", ok2,
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
    return [CheckResult("determinism-across-repeats", ok,
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
