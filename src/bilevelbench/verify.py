"""Independent oracles and the verification suite.

High-precision deterministic solvers for the lower-level minimizer and the
linear system, finite-difference hypergradients, empirical checkers for the
warm-start / tracking / bias guarantees, and the named suites behind the
``verify --suite`` command.  Both solvers are Newton on the materialized
lower-level Hessian ``det.hess_yy_g``, which every problem carries.  They are
deliberately independent of the optimizers: they only consume the
deterministic maps of a problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algorithms import double_loop_run, sgd_dd, slip_run
from .constants import schedule_practical
from .problem import (BilevelProblem, ConfigurationError, NoiseKind,
                      NoiseModel, _norm, hypergrad_estimate)
from .samples import Sample, Stream
from . import synthetic

Vec = np.ndarray


class SolverError(RuntimeError):
    """Solver did not reach its tolerance; carries the final residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class SolverSettings:
    """Stopping threshold on the gradient/residual norm, and the step budget.

    Both solvers are Newton on the problem's materialized Hessian
    ``det.hess_yy_g``.
    """

    tol: float = 1e-10
    max_iters: int = 500

    def __post_init__(self) -> None:
        if self.tol <= 0:
            raise ConfigurationError(f"tol must be positive, got {self.tol}")
        if self.max_iters < 1:
            raise ConfigurationError(f"max_iters must be >= 1, got {self.max_iters}")


def inner_solve_exact(problem: BilevelProblem, x: Vec,
                      settings: SolverSettings = SolverSettings(),
                      y0: Vec | None = None) -> Vec:
    """Solve the lower-level problem to ``||grad_y g(x, y)|| <= tol``.

    Requires a strongly convex lower level.  Runs at most
    ``settings.max_iters`` Newton steps, each a direct solve with the
    materialized Hessian.
    """
    det = problem.det
    y = np.zeros(problem.dim_y) if y0 is None else np.asarray(y0, dtype=float).copy()
    g = det.grad_y_g(x, y)
    for _ in range(settings.max_iters):
        if _norm(g) <= settings.tol:
            return y
        y = y - np.linalg.solve(det.hess_yy_g(x, y), g)
        g = det.grad_y_g(x, y)
    gnorm = _norm(g)
    if gnorm <= settings.tol:
        return y
    raise SolverError("inner solve exhausted max_iters", gnorm)


def solve_linear_system_exact(problem: BilevelProblem, x: Vec, y: Vec,
                              settings: SolverSettings = SolverSettings()) -> Vec:
    """Solve ``hess_yy g(x, y) z = grad_y f(x, y)`` to residual ``tol``.

    A direct solve with the materialized Hessian plus up to three steps of
    iterative refinement.  The returned iterate always satisfies the
    residual tolerance, re-checked on the Hessian-vector product before
    returning.
    """
    det = problem.det
    b = det.grad_y_f(x, y)
    h = det.hess_yy_g(x, y)
    z = np.linalg.solve(h, b)
    for _ in range(3):  # iterative refinement against the tolerance
        r = b - h @ z
        if _norm(r) <= settings.tol:
            break
        z = z + np.linalg.solve(h, r)
    residual = _norm(det.hvp_yy_g(x, y, z) - b)
    if residual > settings.tol:
        raise SolverError("linear solve missed its tolerance", residual)
    return z


def finite_diff_hypergrad(problem: BilevelProblem, x: Vec, h: float = 1e-5,
                          settings: SolverSettings | None = None) -> Vec:
    """Central finite differences of ``x -> f(x, y*(x))``, coordinate-wise.

    The inner solves must be tighter than the truncation error:
    ``settings.tol <= h**2`` is enforced.
    """
    if h <= 0:
        raise ConfigurationError(f"h must be positive, got {h}")
    if settings is None:
        settings = SolverSettings(tol=1e-11, max_iters=500)
    if settings.tol > h * h:
        raise ConfigurationError(
            f"inner tolerance {settings.tol:g} too loose for step {h:g}; "
            f"need tol <= h^2 = {h * h:g}")
    x = np.asarray(x, dtype=float)
    center = inner_solve_exact(problem, x, settings)

    def phi(xq: Vec) -> float:
        yq = inner_solve_exact(problem, xq, settings, y0=center)
        return float(problem.upper(xq, yq))

    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        step = np.zeros_like(x)
        step[i] = h
        out[i] = (phi(x + step) - phi(x - step)) / (2.0 * h)
    return out


def binomial_margin(delta: float, n: int) -> float:
    return delta + 2.0 * math.sqrt(delta * (1.0 - delta) / n)


@dataclass(frozen=True)
class WarmStartReport:
    n_seeds: int
    n_violations: int
    threshold: float
    pass_rate_bound: float

    @property
    def violation_rate(self) -> float:
        return self.n_violations / self.n_seeds

    @property
    def passed(self) -> bool:
        return self.violation_rate <= self.pass_rate_bound


def check_warm_start(problem: BilevelProblem, alpha_init: float, T0: int,
                     L1: float, n_seeds: int, delta: float, *,
                     x0: Vec | None = None, y0_init: Vec | None = None,
                     base_seed: int = 0) -> WarmStartReport:
    """Empirical check of the warm-start guarantee.

    Runs the frozen-x lower-level SGD for ``T0`` steps per seed and reports
    the fraction of seeds whose final distance to the minimizer exceeds
    ``1/(8*sqrt(2)*L1)``; PASS when the fraction stays within ``delta`` plus
    a two-sigma binomial margin.
    """
    if n_seeds < 100:
        raise ConfigurationError(f"need at least 100 seeds, got {n_seeds}")
    x0 = np.zeros(problem.dim_x) if x0 is None else np.asarray(x0, dtype=float)
    y0_init = (np.ones(problem.dim_y) if y0_init is None
               else np.asarray(y0_init, dtype=float))
    ystar = problem.analytic.y_star(x0)
    threshold = math.inf if L1 == 0 else 1.0 / (8.0 * math.sqrt(2.0) * L1)
    violations = 0
    for s in range(n_seeds):
        y_end = sgd_dd(problem, x0, y0_init, alpha_init, T0, base_seed + s)
        if float(np.linalg.norm(y_end - ystar)) > threshold:
            violations += 1
    return WarmStartReport(n_seeds=n_seeds, n_violations=violations,
                           threshold=threshold,
                           pass_rate_bound=binomial_margin(delta, n_seeds))


@dataclass(frozen=True)
class BiasReport:
    n_points: int
    max_ratio: float

    @property
    def passed(self) -> bool:
        return self.max_ratio <= 1.0


def check_bias_decomposition(problem: BilevelProblem,
                             points: list[tuple[Vec, Vec, Vec]]) -> BiasReport:
    """Pointwise check of the hypergradient bias inequality on a noiseless run.

    ``points`` are the ``(x, y, z)`` iterates a run's metric callable saw.
    At each, the noiseless estimate ``grad_x f(x, y) - hvp_xy g(x, y, z)``
    must deviate from the true hypergradient by at most
    ``L_x1*||y-y*||*||gradPhi|| + (L_x0 + L_x1*l_g1*l_f0/mu + l_g2*l_f0/mu)
    * ||y-y*|| + l_g1*||z-z*||`` with the instance's declared constants.
    Only noiseless problems are accepted: with noise the estimate the run
    used is not its own conditional expectation.
    """
    if problem.oracle.noise.kind is not NoiseKind.NOISELESS:
        raise ConfigurationError(
            "bias decomposition needs a noiseless run; the per-sample "
            "estimate does not reveal its conditional expectation under noise")
    c = problem.constants
    coeff = c.L_x0 + c.L_x1 * c.l_g1 * c.l_f0 / c.mu + c.l_g2 * c.l_f0 / c.mu
    det = problem.det
    max_ratio = 0.0
    for x, y, z in points:
        ys, zs, gphi = problem.analytic.solve(x)
        y_err = float(np.linalg.norm(y - ys))
        z_err = float(np.linalg.norm(z - zs))
        ghat = det.grad_x_f(x, y) - det.hvp_xy_g(x, y, z)
        lhs = float(np.linalg.norm(ghat - gphi))
        rhs = (c.L_x1 * y_err * float(np.linalg.norm(gphi))
               + coeff * y_err + c.l_g1 * z_err)
        if lhs == 0.0:
            continue
        ratio = math.inf if rhs == 0.0 else lhs / rhs
        max_ratio = max(max_ratio, ratio)
    return BiasReport(n_points=len(points), max_ratio=max_ratio)


def probe_strong_convexity(problem: BilevelProblem, mu: float, n_probes: int,
                           seed: int, rel_tol: float = 1e-9) -> float:
    """Largest relative violation of the three-point strong-convexity bound.

    Probes ``g(x, y2) >= g(x, y1) + <grad_y g(x, y1), y2 - y1> +
    mu/2 * ||y2 - y1||^2`` at random points; returns the worst normalized
    slack deficiency (0.0 when the inequality always holds).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_probes):
        x = rng.standard_normal(problem.dim_x)
        y1 = rng.standard_normal(problem.dim_y)
        y2 = rng.standard_normal(problem.dim_y)
        lhs = problem.lower(x, y2)
        rhs = (problem.lower(x, y1)
               + float(problem.det.grad_y_g(x, y1) @ (y2 - y1))
               + 0.5 * mu * float(np.sum((y2 - y1) ** 2)))
        scale = max(1.0, abs(lhs), abs(rhs))
        worst = max(worst, (rhs - lhs) / scale)
    return max(worst, 0.0)


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
        prob = synthetic.random_quadratic(dx, dy, seed=1000 + k)
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
    core = synthetic.q2_spec()
    return [
        synthetic.make_q2(),
        synthetic.make_unbounded_smooth(
            synthetic.UnboundedSmoothSpec(a=1.0, core=core)),
        synthetic.make_hyperclean(
            synthetic.HypercleanSpec(n_train=60, n_val=60, feature_dim=4,
                                     corruption_rate=0.2, reg=0.1, seed=3)),
    ]


def _q2_warmstart_setup(sigma_g1: float = 0.1, delta: float = 0.05):
    from .constants import warm_start_T0

    noise = NoiseModel.gaussian(0.0, sigma_g1, 0.0)
    prob = synthetic.make_q2(noise)
    c = prob.constants
    cap = c.mu / (2048.0 * c.L1 ** 2 * sigma_g1 ** 2 * math.log(math.e / delta))
    alpha_init = min(1.0 / (2.0 * c.l_g1), cap)
    dist0 = math.sqrt(2.0)  # ||y0_init - y*(x0)|| for y0_init = 1, x0 = 0
    t0 = warm_start_T0(alpha_init, c.mu, c.L1, dist0)
    return prob, alpha_init, t0, c


def suite_warmstart(n_seeds: int = 200, delta: float = 0.05) -> list[CheckResult]:
    """Warm-start tail bound on the noisy pinned quadratic instance."""
    prob, alpha_init, t0, c = _q2_warmstart_setup(delta=delta)
    report = check_warm_start(prob, alpha_init, t0, c.L1, n_seeds, delta)
    return [_result(
        "warm-start-bound",
        report.passed,
        f"violation rate {report.violation_rate:.4f} <= {report.pass_rate_bound:.4f} "
        f"(threshold {report.threshold:.4f}, T0 ={t0})")]


def suite_tracking(n_seeds: int = 200, delta: float = 0.05) -> list[CheckResult]:
    """Main-loop tracking bound with drift radius equal to the step length."""
    from .harness import bound_check_tracking

    noise = NoiseModel.gaussian(0.0, 0.1, 0.0)
    prob = synthetic.make_q2(noise)
    schedule = schedule_practical(
        {"alpha": 0.25, "beta": 0.9, "gamma": 0.1, "eta": 0.005, "T": 300,
         "T0": 50, "alpha_init": 0.25})
    traces = []
    for s in range(n_seeds):
        _, tr = slip_run(prob, schedule, np.zeros(2), np.ones(2), np.zeros(2),
                         seed=s)
        traces.append(tr)
    report = bound_check_tracking(traces, schedule, prob.constants, delta)
    return [_result(
        "tracking-bound",
        report.passed,
        f"violation rate {report.violation_rate:.4f} <= {report.pass_rate_bound:.4f}")]


def suite_bias() -> list[CheckResult]:
    """Pointwise hypergradient bias inequality on a noiseless pinned run."""
    prob = synthetic.make_q2()
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
    prob = synthetic.make_q2(NoiseModel.gaussian(0.05, 0.05, 0.05))
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
    import tempfile
    from pathlib import Path

    from .harness import RunConfig, run_experiment

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
