"""Independent ground truth and the checkers of the paper's guarantees.

High-precision deterministic solvers for the lower-level minimizer and the
linear system, finite-difference hypergradients, and one empirical checker
per guarantee: the warm-start tail bound (:func:`check_warm_start`), the
drift-aware tracking bound (:func:`bound_check_tracking`), the pointwise
hypergradient bias inequality (:func:`check_bias_decomposition`),
lower-level strong convexity (:func:`probe_strong_convexity`) and oracle
unbiasedness (:func:`empirical_unbiasedness_check`).  The two seed-ensemble
checks share one report, :class:`EnsembleReport`, which derives its pass
bound from ``delta``.  Both solvers are Newton on the materialized
lower-level Hessian, read through the x-bound view ``det.lower_at(x)`` that
every problem carries: the inner solve returns its converged
``LowerPoint``, which the linear solve takes in place of ``y``.  Both take
a stack of points wherever ``lower_at`` does, through the one code path of
a single point.  The module is independent of the optimizers: it reads
only what a problem states and what a run produced, and runs nothing.  The
named suites, which run the optimizers for these checkers, live in
:mod:`bilevelbench.harness`, which, like the instances of
:mod:`bilevelbench.synthetic`, builds on this module and never the reverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import ParamSchedule, SmoothnessConstants
from .problem import (SIGMAS, BilevelProblem, ConfigurationError, LowerPoint,
                      NoiseKind, _mv, _norms)
from .samples import Sample, Stream
from .trace import Trace

Vec = np.ndarray


class SolverError(RuntimeError):
    """Solver did not reach its tolerance; carries the final residual, a
    stack's largest."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class SolverSettings:
    """Stopping threshold on the gradient/residual norm, and the step budget.

    Both solvers are Newton on the problem's materialized Hessian, read
    through ``det.lower_at``.
    """

    tol: float = 1e-10
    max_iters: int = 500

    def __post_init__(self) -> None:
        if not self.tol > 0:   # nan fails too
            raise ConfigurationError(f"tol must be positive, got {self.tol}")
        if self.max_iters < 1:
            raise ConfigurationError(f"max_iters must be >= 1, got {self.max_iters}")


def inner_solve_exact(problem: BilevelProblem, x: Vec,
                      settings: SolverSettings = SolverSettings(),
                      y0: Vec | None = None) -> LowerPoint:
    """Solve the lower-level problem to ``||grad_y g(x, y)|| <= tol``.

    Requires a strongly convex lower level.  ``x`` is one point or, where
    ``det.lower_at`` takes one, a stack, each row bit for bit as alone.
    Runs at most ``settings.max_iters`` Newton steps, each a direct solve
    with the materialized Hessian, on the rows still above ``tol``; a
    converged row keeps its ``y``.  ``x`` is bound once through
    ``det.lower_at(x)``; each iterate's gradient and Hessian share one
    evaluation at that iterate.  Returns the converged ``LowerPoint``, whose
    ``y`` is the minimizer, for :func:`solve_linear_system_exact` and the
    hypergradient to read without evaluating the lower level again.
    """
    lower = problem.det.lower_at(x)
    point = lower(np.zeros(np.shape(x)[:-1] + (problem.dim_y,)) if y0 is None
                  else np.asarray(y0, dtype=float).copy())
    g = point.grad()
    for _ in range(settings.max_iters):
        # a nan norm stays active, as it fails the test
        active = ~(_norms(g) <= settings.tol)
        if not active.any():
            return point
        y = point.y.copy()
        y[active] = y[active] - np.linalg.solve(
            point.hess()[active], g[active][..., None])[..., 0]
        point = lower(y)
        g = point.grad()
    gnorms = _norms(g)   # above tol, the largest is a failing row's
    if not (gnorms <= settings.tol).all():
        raise SolverError("inner solve exhausted max_iters", float(gnorms.max()))
    return point


def solve_linear_system_exact(problem: BilevelProblem, x: Vec, point: LowerPoint,
                              settings: SolverSettings = SolverSettings()) -> Vec:
    """Solve ``hess_yy g(x, y) z = grad_y f(x, y)`` to residual ``tol`` at
    ``y = point.y``.

    ``point`` is ``det.lower_at(x)(y)``, such as the return of
    :func:`inner_solve_exact`, for one point or a stack.  A direct solve
    with the point's materialized Hessian (its gradient is never computed)
    plus up to three steps of iterative refinement, which each row stops at
    its own tolerance.  The returned iterate always satisfies the residual
    tolerance, re-checked on every row through the point's Hessian-vector
    product ``point.hvp_yy``, independently of the materialized Hessian,
    before returning.
    """
    b = problem.det.grad_y_f(x, point.y)
    h = point.hess()
    z = np.linalg.solve(h, b[..., None])[..., 0]
    for _ in range(3):  # iterative refinement against the tolerance
        r = b - _mv(h, z)
        active = ~(_norms(r) <= settings.tol)
        if not active.any():
            break
        z[active] = z[active] + np.linalg.solve(
            h[active], r[active][..., None])[..., 0]
    residual = _norms(point.hvp_yy(z) - b)
    if (residual > settings.tol).any():
        raise SolverError("linear solve missed its tolerance", float(residual.max()))
    return z


def finite_diff_hypergrad(problem: BilevelProblem, x: Vec, h: float = 1e-5,
                          settings: SolverSettings | None = None) -> Vec:
    """Central finite differences of ``x -> f(x, y*(x))``, coordinate-wise.

    ``y*`` is the ``y`` of each inner solve's converged point; the solves
    at ``x +- h e_i`` start from the one at ``x``.  The inner solves must be
    tighter than the truncation error: ``settings.tol <= h**2`` is
    enforced.
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
    center = inner_solve_exact(problem, x, settings).y

    def phi(xq: Vec) -> float:
        yq = inner_solve_exact(problem, xq, settings, y0=center).y
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
class EnsembleReport:
    """A seed ensemble's verdict: PASS when the violating fraction stays within
    ``delta`` plus a two-sigma binomial margin, :attr:`pass_rate_bound`.
    ``threshold`` is the warm start's distance bound, ``None`` for tracking.
    Construction rejects ``delta`` outside [0, 1] and fewer than one seed."""

    n_seeds: int
    n_violations: int
    delta: float
    threshold: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta <= 1.0:   # nan fails too
            raise ConfigurationError(f"delta must lie in [0, 1], got {self.delta}")
        if self.n_seeds < 1:
            raise ConfigurationError(f"need at least 1 seed, got {self.n_seeds}")

    @property
    def pass_rate_bound(self) -> float:
        return binomial_margin(self.delta, self.n_seeds)

    @property
    def violation_rate(self) -> float:
        return self.n_violations / self.n_seeds

    @property
    def passed(self) -> bool:
        return self.violation_rate <= self.pass_rate_bound

    @property
    def summary(self) -> str:
        """``violation rate <rate> <= <bound>``, the line both suites print."""
        return (f"violation rate {self.violation_rate:.4f} <= "
                f"{self.pass_rate_bound:.4f}")


def check_warm_start(problem: BilevelProblem, x: Vec, y_ends: Sequence[Vec],
                     delta: float) -> EnsembleReport:
    """Empirical check of the warm-start guarantee on ``y_ends``, the end
    iterates of one frozen-x lower-level SGD run per seed at ``x``: a seed
    violates when its end iterate lies farther from ``solve(x)[0]`` than the
    report's ``threshold``, ``1/(8*sqrt(2)*L1)`` with ``L1`` the problem's own.
    """
    if not 0.0 <= delta <= 1.0:   # nan fails too
        raise ConfigurationError(f"delta must lie in [0, 1], got {delta}")
    if len(y_ends) < 100:
        raise ConfigurationError(f"need at least 100 seeds, got {len(y_ends)}")
    ystar = problem.solve(x)[0]
    L1 = problem.constants.L1
    threshold = math.inf if L1 == 0 else 1.0 / (8.0 * math.sqrt(2.0) * L1)
    violations = sum(float(np.linalg.norm(y - ystar)) > threshold for y in y_ends)
    return EnsembleReport(len(y_ends), violations, delta, threshold)


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
    Only noiseless problems and at least one point are accepted: with noise
    the estimate the run used is not its own conditional expectation.
    """
    if problem.oracle.noise.kind is not NoiseKind.NOISELESS:
        raise ConfigurationError(
            "bias decomposition needs a noiseless run; the per-sample "
            "estimate does not reveal its conditional expectation under noise")
    if not points:
        raise ConfigurationError("bias decomposition needs at least one point")
    c = problem.constants
    coeff = c.L_x0 + c.L_x1 * c.l_g1 * c.l_f0 / c.mu + c.l_g2 * c.l_f0 / c.mu
    det = problem.det
    max_ratio = 0.0
    for x, y, z in points:
        ys, zs, gphi = problem.solve(x)
        y_err = float(np.linalg.norm(y - ys))
        z_err = float(np.linalg.norm(z - zs))
        ghat = det.grad_x_f(x, y) - det.lower_at(x)(y).hvp_xy(z)
        lhs = float(np.linalg.norm(ghat - gphi))
        rhs = (c.L_x1 * y_err * float(np.linalg.norm(gphi))
               + coeff * y_err + c.l_g1 * z_err)
        if lhs == 0.0:
            continue
        ratio = math.inf if rhs == 0.0 else lhs / rhs
        max_ratio = max(max_ratio, ratio)
    return BiasReport(n_points=len(points), max_ratio=max_ratio)


def probe_strong_convexity(problem: BilevelProblem, n_probes: int,
                           seed: int) -> float:
    """Largest relative violation of the three-point strong-convexity bound.

    Probes ``g(x, y2) >= g(x, y1) + <grad_y g(x, y1), y2 - y1> +
    mu/2 * ||y2 - y1||^2`` at random points, ``mu`` the problem's own;
    returns the worst normalized slack deficiency (0.0 when it always holds).
    """
    if n_probes < 1:
        raise ConfigurationError(f"need at least one probe, got {n_probes}")
    mu = problem.constants.mu
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_probes):
        x = rng.standard_normal(problem.dim_x)
        y1 = rng.standard_normal(problem.dim_y)
        y2 = rng.standard_normal(problem.dim_y)
        lhs = problem.lower(x, y2)
        rhs = (problem.lower(x, y1)
               + float(problem.det.lower_at(x)(y1).grad() @ (y2 - y1))
               + 0.5 * mu * float(np.sum((y2 - y1) ** 2)))
        scale = max(1.0, abs(lhs), abs(rhs))
        worst = max(worst, (rhs - lhs) / scale)
    return max(worst, 0.0)


def tracking_bound(t: int, dist0_sq: float, alpha: float, drift_radius: float,
                   c: SmoothnessConstants, horizon: int, delta: float) -> float:
    """All-iterations high-probability tracking bound at iteration ``t``;
    ``delta`` must lie in (0, 1]."""
    if not 0.0 < delta <= 1.0:   # nan fails too
        raise ConfigurationError(f"delta must lie in (0, 1], got {delta}")
    noise_term = 8.0 * alpha * c.sigma_g1 ** 2 / c.mu
    drift_term = (4.0 * drift_radius ** 2 * c.l_g1 ** 2
                  / (c.mu ** 4 * alpha ** 2))
    log_factor = math.log(math.e * max(horizon, 1) / delta)
    return ((1.0 - c.mu * alpha / 2.0) ** t * dist0_sq
            + (noise_term + drift_term) * log_factor)


def bound_check_tracking(traces: Sequence[Trace],
                         schedule: ParamSchedule, c: SmoothnessConstants,
                         delta: float) -> EnsembleReport:
    """Check the all-iterations tracking bound across a seed ensemble.

    A seed violates when any of its iterations exceeds the bound.  The drift
    radius is the upper-level step length ``schedule.eta``.  A trace with no
    rows or an empty ``y_err`` column raises ``ConfigurationError``.
    """
    if not 0.0 < delta <= 1.0:   # nan fails too
        raise ConfigurationError(f"delta must lie in (0, 1], got {delta}")
    if len(traces) < 50:
        raise ConfigurationError(f"need at least 50 seeds, got {len(traces)}")
    n_viol = 0
    for tr in traces:
        vals = tr.column("y_err")
        if not vals or any(v is None for v in vals):
            raise ConfigurationError("trace lacks the y_err column")
        d0_sq = vals[0] ** 2
        horizon = len(vals)
        violated = any(
            vals[t] ** 2 > tracking_bound(
                t, d0_sq, schedule.alpha, schedule.eta, c, horizon, delta)
            for t in range(horizon))
        n_viol += violated
    return EnsembleReport(len(traces), n_viol, delta)


@dataclass(frozen=True)
class UnbiasednessReport:
    """Deviation of empirical oracle means from the deterministic values.

    Deviations are in units of ``sigma / sqrt(n)``; a maximum of at most 4
    is the PASS threshold.
    """

    n: int
    deviations: dict[str, float]

    @property
    def max_deviation_in_sigmas(self) -> float:
        return max(self.deviations.values())

    @property
    def passed(self) -> bool:
        return self.max_deviation_in_sigmas <= 4.0


def empirical_unbiasedness_check(problem: BilevelProblem, x: Vec, y: Vec, n: int,
                                 rng_seed: int) -> UnbiasednessReport:
    """Average n independent draws of each oracle against its exact value,
    the lower-level ones at one point ``det.lower_at(x)(y)``."""
    oracle = problem.oracle
    noise = oracle.noise
    names = ("grad_x_F", "grad_y_F", "grad_y_G", "hvp_xy_G", "hvp_yy_G")
    if noise.kind is NoiseKind.NOISELESS or all(
            getattr(noise, s) == 0.0 for s in SIGMAS):
        return UnbiasednessReport(n=n, deviations={k: 0.0 for k in names})
    if n < 100:
        raise ConfigurationError(f"need at least 100 draws, got {n}")

    z = np.random.default_rng(rng_seed).standard_normal(problem.dim_y)
    znorm = float(np.linalg.norm(z))
    point = problem.det.lower_at(x)(y)
    plans = {
        "grad_x_F": (Stream.XI_PRIME, noise.sigma_f1,
                     lambda s: oracle.grad_x_F(x, y, s), problem.det.grad_x_f(x, y)),
        "grad_y_F": (Stream.XI, noise.sigma_f1,
                     lambda s: oracle.grad_y_F(x, y, s), problem.det.grad_y_f(x, y)),
        "grad_y_G": (Stream.PI, noise.sigma_g1,
                     lambda s: oracle.grad_y_G(x, y, s, point), point.grad()),
        "hvp_xy_G": (Stream.ZETA_PRIME, noise.sigma_g2 * znorm,
                     lambda s: oracle.hvp_xy_G(x, y, z, s, point), point.hvp_xy(z)),
        "hvp_yy_G": (Stream.ZETA,
                     noise.sigma_z if noise.kind is NoiseKind.BOUNDED
                     else noise.sigma_g2 * znorm,
                     lambda s: oracle.hvp_yy_G(x, y, z, s, point), point.hvp_yy(z)),
    }
    deviations: dict[str, float] = {}
    for key, (stream, sigma, draw, exact) in plans.items():
        acc = np.zeros_like(exact)
        for i in range(n):
            acc += draw(Sample(stream, i, rng_seed))
        dev = float(np.linalg.norm(acc / n - exact))
        if sigma == 0.0:
            deviations[key] = 0.0 if dev <= 1e-12 else math.inf
        else:
            deviations[key] = dev / (sigma / math.sqrt(n))
    return UnbiasednessReport(n=n, deviations=deviations)
