"""Optimizers: the single-loop bilevel method and three simplified baselines.

The main optimizer (``slip_run``) warm-starts the lower-level variable by
plain SGD at frozen x, then per iteration updates, in order: the lower-level
variable by SGD, the linear-system variable by SGD on its quadratic
surrogate, the momentum buffer by an exponential moving average of the
single-sample hypergradient estimate, and the upper-level variable by a
normalized momentum step of exact length eta.

The baselines are deliberately simplified re-implementations kept for
oracle-count and convergence-shape comparison, not faithful reproductions of
the methods they are named after:

* ``masoba_run``  - identical loop, but the upper-level step is the plain
  unnormalized momentum step.
* ``double_loop_run`` - the main loop plus periodic extra lower-level SGD
  refinement at frozen x (every ``refine_interval`` upper steps, run
  ``refine_steps`` extra updates).
* ``ttsa_run`` - momentum-free, unnormalized, with polynomially decaying
  two-timescale step sizes and a single sample per oracle per iteration.

The frozen-x SGD (``sgd_dd``, used for the warm start and the refinement)
returns only the final lower-level iterate; the ground truth is read only by
the metric evaluator (``default_metrics``).

A run is strictly sequential; runs with distinct seeds share no mutable
state and may execute concurrently.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .constants import ParamSchedule
from .problem import BilevelProblem, ConfigurationError
from .samples import Sample, Stream
from .trace import Trace, TraceRecord

logger = logging.getLogger(__name__)

Vec = np.ndarray


class RunAborted(RuntimeError):
    """A run stopped before its last iteration.

    Carries the iteration ``t`` that stopped it, the partial trace (its
    ``aborted_at`` set to ``t``) and the state at that point; ``__cause__``
    is the exception that stopped it.  Row ``t`` is in the trace when it was
    recorded before the abort (a non-finite update, a hook) and missing when
    an oracle failed while computing it.  Raised as is when a hook raises
    ``TimeoutError``.
    """

    def __init__(self, message: str, t: int, trace: Trace, state: "SlipState"):
        super().__init__(message)
        self.t = t
        self.trace = trace
        self.state = state


class NumericalDivergenceError(RunAborted):
    """An iterate became NaN/Inf, or an oracle overflowed or raised a
    floating-point error."""


@dataclass
class OracleCounter:
    """Cumulative stochastic-oracle call counts (the complexity currency)."""

    n_grad_x_F: int = 0
    n_grad_y_F: int = 0
    n_grad_y_G: int = 0
    n_hvp_xy: int = 0
    n_hvp_yy: int = 0

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.n_grad_x_F, self.n_grad_y_F, self.n_grad_y_G,
                self.n_hvp_xy, self.n_hvp_yy)

    def copy(self) -> "OracleCounter":
        return replace(self)


@dataclass
class SlipState:
    """The iterate tuple plus iteration index and call counters."""

    x: Vec
    y: Vec
    z: Vec
    m: Vec
    t: int
    calls: OracleCounter


@dataclass(frozen=True)
class IterationView:
    """Read-only per-iteration snapshot handed to metric callbacks.

    ``x``/``y``/``z`` are the values the iteration read (pre-update), ``m``
    the freshly updated momentum buffer, ``ghat`` the hypergradient estimate
    consumed by the momentum update.  Callbacks must not mutate anything.
    """

    t: int
    x: Vec
    y: Vec
    z: Vec
    m: Vec
    ghat: Vec


MetricFn = Callable[[int, Vec, Vec, Vec, Vec],
                    tuple[float | None, float | None, float | None,
                          float | None, float | None]]
HookFn = Callable[[IterationView], None]


def default_metrics(problem: BilevelProblem) -> MetricFn:
    """Metric evaluator against the problem's analytic ground truth."""
    analytic = problem.analytic

    def metrics(t: int, x: Vec, y: Vec, z: Vec, m_next: Vec):
        ys = analytic.y_star(x)
        zs = analytic.z_star(x)
        gphi = analytic.hypergrad(x)
        return (
            float(np.linalg.norm(gphi)),
            float(np.linalg.norm(y - ys)),
            float(np.linalg.norm(z - zs)),
            float(np.linalg.norm(m_next - gphi)),
            float(problem.upper(x, ys)),
        )

    return metrics


def sgd_dd(problem: BilevelProblem, x: Vec, y0: Vec, alpha: float,
           n_steps: int, seed: int, *, counter_start: int = 0,
           calls: OracleCounter | None = None) -> Vec:
    """Lower-level SGD at a frozen upper-level point ``x``.

    Performs exactly ``n_steps`` updates ``y - alpha * grad_y_G(x, y)``,
    consuming the warm-start stream at counters ``counter_start ..
    counter_start + n_steps - 1``, and returns the final iterate.  Never
    reads the ground truth.
    """
    if n_steps < 0:
        raise ConfigurationError(f"n_steps must be non-negative, got {n_steps}")
    l_g1 = problem.constants.l_g1
    if l_g1 > 0 and alpha > 1.0 / (2.0 * l_g1):
        warnings.warn(
            f"alpha={alpha:g} exceeds 1/(2*l_g1)={1.0 / (2.0 * l_g1):g}; "
            "the tracking guarantees assume the smaller step", stacklevel=2)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y0, dtype=float).copy()
    for t in range(n_steps):
        g = problem.oracle.grad_y_G(x, y, Sample(Stream.PI_TILDE,
                                                 counter_start + t, seed))
        if calls is not None:
            calls.n_grad_y_G += 1
        y = y - alpha * g
    return y


def update_z(z: Vec, x: Vec, y: Vec, gamma: float, s_zeta: Sample, s_xi: Sample,
             problem: BilevelProblem,
             calls: OracleCounter | None = None) -> Vec:
    """One SGD step on the quadratic surrogate whose minimizer is z*(x).

    ``z - gamma * (hvp_yy_G(x, y, z) - grad_y_F(x, y))`` with independent
    samples for the two oracles.
    """
    hz = problem.oracle.hvp_yy_G(x, y, z, s_zeta)
    gf = problem.oracle.grad_y_F(x, y, s_xi)
    if calls is not None:
        calls.n_hvp_yy += 1
        calls.n_grad_y_F += 1
    return z - gamma * (hz - gf)


def _finite(*arrays: Vec) -> bool:
    return all(np.all(np.isfinite(a)) for a in arrays)


def _run_loop(problem: BilevelProblem, schedule: ParamSchedule, x0: Vec,
              y0_init: Vec, z0: Vec, seed: int, *,
              normalize: bool,
              decay: tuple[float, float] | None = None,
              refine: tuple[int, int] = (1, 0),
              hooks: Sequence[HookFn] | HookFn | None = None,
              metrics: MetricFn | None = None) -> tuple[SlipState, Trace]:
    """Shared driver for the main optimizer and its baselines.

    ``decay = (eta_exponent, alpha_exponent)`` scales ``eta`` by
    ``(t+1)^-eta_exponent`` and ``alpha``/``gamma`` by
    ``(t+1)^-alpha_exponent`` at iteration ``t``.  ``refine = (interval,
    extra)`` runs ``extra`` lower-level SGD steps at frozen x after every
    ``interval``-th iteration.  Any abort raises :class:`RunAborted`.
    """
    x = np.asarray(x0, dtype=float).copy()
    y = np.asarray(y0_init, dtype=float).copy()
    z = np.asarray(z0, dtype=float).copy()
    if x.shape != (problem.dim_x,):
        raise ConfigurationError(
            f"x0 has shape {x.shape}, expected ({problem.dim_x},)")
    if y.shape != (problem.dim_y,) or z.shape != (problem.dim_y,):
        raise ConfigurationError(
            f"y0/z0 must have shape ({problem.dim_y},), got {y.shape}/{z.shape}")
    if callable(hooks):
        hooks = [hooks]
    hooks = list(hooks or [])
    if metrics is None:
        metrics = default_metrics(problem)
    interval, extra = refine
    warm_counter = schedule.T0

    calls = OracleCounter()
    m = np.zeros(problem.dim_x)
    beta = schedule.beta
    trace = Trace()
    t = 0
    try:
        if schedule.T0 > 0:
            y = sgd_dd(problem, x, y, schedule.alpha_init, schedule.T0, seed,
                       calls=calls)

        for t in range(schedule.T):
            alpha, gamma, eta = schedule.alpha, schedule.gamma, schedule.eta
            if decay is not None:
                eta = eta * (t + 1) ** (-decay[0])
                alpha = alpha * (t + 1) ** (-decay[1])
                gamma = gamma * (t + 1) ** (-decay[1])

            s_pi = Sample(Stream.PI, t, seed)
            s_zeta = Sample(Stream.ZETA, t, seed)
            s_xi = Sample(Stream.XI, t, seed)
            s_xi_p = Sample(Stream.XI_PRIME, t, seed)
            s_zeta_p = Sample(Stream.ZETA_PRIME, t, seed)

            # updates read the current (x_t, y_t, z_t); z feeds the momentum
            # update before its own refresh
            with np.errstate(over="ignore", invalid="ignore"):
                gy = problem.oracle.grad_y_G(x, y, s_pi)
                calls.n_grad_y_G += 1
                y_next = y - alpha * gy
                z_next = update_z(z, x, y, gamma, s_zeta, s_xi, problem, calls)
                gx = problem.oracle.grad_x_F(x, y, s_xi_p)
                hxy = problem.oracle.hvp_xy_G(x, y, z, s_zeta_p)
                calls.n_grad_x_F += 1
                calls.n_hvp_xy += 1
                ghat = gx - hxy
                m = beta * m + (1.0 - beta) * ghat

                norm_m = float(np.linalg.norm(m))
                if normalize:
                    if norm_m == 0.0:
                        logger.info("iteration %d: zero momentum, skipping x-step", t)
                        trace.skipped_steps.append(t)
                        x_next = x
                    else:
                        x_next = x - eta * (m / norm_m)
                else:
                    x_next = x - eta * m

                # inside the block: the norms of a diverging run overflow
                row_metrics = metrics(t, x, y, z, m)
            trace.append(TraceRecord(t, *row_metrics, *calls.as_tuple()))
            for hook in hooks:
                hook(IterationView(t=t, x=x.copy(), y=y.copy(), z=z.copy(),
                                   m=m.copy(), ghat=ghat.copy()))

            finite = _finite(x_next, y_next, z_next, m)
            x, y, z = x_next, y_next, z_next
            if not finite:
                raise FloatingPointError(f"non-finite iterate at iteration {t}")

            if extra > 0 and (t + 1) % interval == 0:
                y = sgd_dd(problem, x, y, alpha, extra, seed,
                           counter_start=warm_counter, calls=calls)
                warm_counter += extra
    except (FloatingPointError, OverflowError, TimeoutError) as exc:
        trace.aborted_at = t
        error = RunAborted if isinstance(exc, TimeoutError) else NumericalDivergenceError
        state = SlipState(x=x, y=y, z=z, m=m, t=t, calls=calls)
        raise error(str(exc), t, trace, state) from exc

    return SlipState(x=x, y=y, z=z, m=m, t=schedule.T, calls=calls), trace


def slip_run(problem: BilevelProblem, schedule: ParamSchedule, x0: Vec,
             y0_init: Vec, z0: Vec, seed: int,
             hooks: Sequence[HookFn] | HookFn | None = None,
             metrics: MetricFn | None = None) -> tuple[SlipState, Trace]:
    """Run the single-loop optimizer with normalized momentum upper steps.

    Every non-skipped upper-level step has length exactly ``schedule.eta``.
    Raises :class:`NumericalDivergenceError` on NaN/Inf iterates.
    """
    return _run_loop(problem, schedule, x0, y0_init, z0, seed,
                     normalize=True, hooks=hooks, metrics=metrics)


def masoba_run(problem: BilevelProblem, schedule: ParamSchedule, x0: Vec,
               y0_init: Vec, z0: Vec, seed: int,
               hooks: Sequence[HookFn] | HookFn | None = None,
               metrics: MetricFn | None = None) -> tuple[SlipState, Trace]:
    """Baseline: identical loop, unnormalized upper step ``x - eta * m``."""
    return _run_loop(problem, schedule, x0, y0_init, z0, seed,
                     normalize=False, hooks=hooks, metrics=metrics)


def double_loop_run(problem: BilevelProblem, schedule: ParamSchedule,
                    refine_interval: int, refine_steps: int, x0: Vec,
                    y0_init: Vec, z0: Vec, seed: int,
                    hooks: Sequence[HookFn] | HookFn | None = None,
                    metrics: MetricFn | None = None) -> tuple[SlipState, Trace]:
    """Baseline: periodic lower-level refinement at frozen x.

    Every ``refine_interval`` upper steps, runs ``refine_steps`` extra
    lower-level SGD updates.  With interval 1 and 0 extra steps the run is
    trace-identical to ``slip_run`` under the same seed discipline.
    """
    if refine_interval < 1:
        raise ConfigurationError(
            f"refine_interval must be >= 1, got {refine_interval}")
    if refine_steps < 0:
        raise ConfigurationError(
            f"refine_steps must be >= 0, got {refine_steps}")
    return _run_loop(problem, schedule, x0, y0_init, z0, seed,
                     normalize=True, refine=(refine_interval, refine_steps),
                     hooks=hooks, metrics=metrics)


def ttsa_run(problem: BilevelProblem, schedule: ParamSchedule, x0: Vec,
             y0_init: Vec, z0: Vec, seed: int, *,
             eta_exponent: float = 0.6, alpha_exponent: float = 0.4,
             hooks: Sequence[HookFn] | HookFn | None = None,
             metrics: MetricFn | None = None) -> tuple[SlipState, Trace]:
    """Baseline: two-timescale single-sample method.

    Momentum-free, unnormalized upper step with ``eta_t = eta * (t+1)^-0.6``;
    lower-level and linear-system steps decay as ``(t+1)^-0.4`` from
    ``schedule.alpha`` and ``schedule.gamma``.  No warm-start phase.
    """
    return _run_loop(problem, replace(schedule, beta=0.0, T0=0), x0, y0_init,
                     z0, seed, normalize=False,
                     decay=(eta_exponent, alpha_exponent),
                     hooks=hooks, metrics=metrics)
