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

Each iteration hands one lower-level point, ``problem.det.lower_at(x)(y)``,
to the three lower-level oracles.  The frozen-x SGD (``sgd_dd``, used for the
warm start and the refinement) binds ``lower_at(x)`` once per call and
returns only the final lower-level iterate; the ground truth is read only by
the metric evaluator (``default_metrics``), the loop's one metric callback.
The loop appends each row's index, iterates and call counts to one list (no
update changes an array in place) and evaluates :data:`METRIC_BLOCK` pending
rows in one call, stacked into fresh arrays: one ``problem.solve`` call per
block, each row bit for bit what a call for that row alone gives.  The
pending rows are also evaluated when the loop ends, however it ends, so a
trace holds the same rows as one evaluated row by row.  A block whose
evaluation raises, or rejects a row, is evaluated again one row at a time,
and the run ends at the first row that fails, as it would have row by row.

A run is strictly sequential; runs with distinct seeds share no mutable
state and may execute concurrently in separate threads: no problem keeps
any, and the only generator a draw uses is its thread's own, rewound to the
draw's position (see :mod:`bilevelbench.samples`).

The loop's fixed cost per iteration is kept small: the seed and the counter
range are checked once per run (:func:`check_schedule_runs`), not once per
sample; the oracle methods, streams and undecayed steps are bound once per
run (a method patched on its class before the run is the one bound); and
``np.errstate`` is entered once around the warm start and the main loop, so
an overflow in the warm start or the in-loop refinement gives ``inf``
without a warning, as one in the main update does, and ends the run at the
next finiteness check.
"""

from __future__ import annotations

import logging
import math
import time
import warnings
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Callable

import numpy as np

from .constants import ParamSchedule
from .problem import BilevelProblem, ConfigurationError, _norm, _norms
from .samples import Stream, check_range, unchecked_sample
from .trace import Trace, TraceRecord

logger = logging.getLogger(__name__)

Vec = np.ndarray


class RunAborted(RuntimeError):
    """A run stopped before its last iteration.

    Carries the iteration ``t`` that stopped it, the partial trace and the
    state at that point; ``__cause__`` is the exception that stopped it.
    Row ``t`` is in the trace when it was recorded before the abort (a
    non-finite update, the deadline) and missing when an oracle or its
    metrics failed.  Raised as is when the run passes its wall-clock
    ``deadline``.  ``status`` is the seed status the harness records for
    the abort: ``TIMEOUT`` here, ``FAILED`` and ``ERROR`` on the two
    subclasses.
    """

    status = "TIMEOUT"

    def __init__(self, message: str, t: int, trace: Trace, state: "SlipState"):
        super().__init__(message)
        self.t = t
        self.trace = trace
        self.state = state


class NumericalDivergenceError(RunAborted):
    """An iterate became NaN/Inf, or an oracle overflowed or raised a
    floating-point error."""

    status = "FAILED"


class RunError(RunAborted):
    """Any other exception stopped the run once it had started: a solver
    failure, a negative metric, a bug in an oracle."""

    status = "ERROR"


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


@dataclass
class SlipState:
    """The iterate tuple plus iteration index and call counters."""

    x: Vec
    y: Vec
    z: Vec
    m: Vec
    t: int
    calls: OracleCounter


# rows whose metrics are evaluated in one call
METRIC_BLOCK = 128

# metrics(ts, X, Y, Z, M) evaluates a block of rows: ts holds their
# iteration indices, and row i of X, Y, Z and M the iterates row ts[i] read
# (pre-update) and its updated momentum.  It returns five columns in
# TraceRecord order, each with one value per row, or None for a metric it
# does not compute.  It mutates nothing; the arrays are not reused, so it
# may keep them.
MetricFn = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                     np.ndarray], tuple]


def default_metrics(problem: BilevelProblem) -> MetricFn:
    """Metric evaluator against the problem's ground truth ``solve``, one
    call for the block."""
    solve = problem.solve

    def metrics(ts: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray,
                m_next: np.ndarray):
        ys, zs, gphi = solve(x)
        return (
            _norms(gphi),
            _norms(y - ys),
            _norms(z - zs),
            _norms(m_next - gphi),
            problem.upper(x, ys),
        )

    return metrics


def sgd_dd(problem: BilevelProblem, x: Vec, y0: Vec, alpha: float,
           n_steps: int, seed: int, *, counter_start: int = 0,
           calls: OracleCounter | None = None) -> Vec:
    """Lower-level SGD at a frozen upper-level point ``x``.

    Performs exactly ``n_steps`` updates ``y - alpha * grad_y_G(x, y)``,
    consuming the warm-start stream at counters ``counter_start ..
    counter_start + n_steps - 1``, and returns the final iterate, with
    ``lower_at(x)`` and ``grad_y_G`` bound once.  Never reads the ground truth.
    """
    if n_steps < 0:
        raise ConfigurationError(f"n_steps must be non-negative, got {n_steps}")
    check_range(seed, counter_start, counter_start + n_steps - 1)
    l_g1 = problem.constants.l_g1
    if l_g1 > 0 and alpha > 1.0 / (2.0 * l_g1):
        warnings.warn(
            f"alpha={alpha:g} exceeds 1/(2*l_g1)={1.0 / (2.0 * l_g1):g}; "
            "the tracking guarantees assume the smaller step", stacklevel=2)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y0, dtype=float).copy()
    lower = problem.det.lower_at(x)
    grad_y_G = problem.oracle.grad_y_G
    PI_TILDE = Stream.PI_TILDE
    for t in range(n_steps):
        g = grad_y_G(x, y, unchecked_sample(PI_TILDE, counter_start + t, seed),
                     lower(y))
        if calls is not None:
            calls.n_grad_y_G += 1
        y = y - alpha * g
    return y


def check_schedule_runs(schedule: ParamSchedule,
                        refine: tuple[int, int] = (1, 0), seed: int = 0) -> None:
    """Raise ``ConfigurationError`` unless ``schedule`` can run with
    ``refine = (interval, extra)`` and ``seed``: ``interval >= 1``,
    ``extra >= 0``, and the seed and every counter in ``[0, 2**64)``
    (:func:`check_range`), ``T`` on each main-loop stream and
    ``T0 + extra * (T // interval)`` on the warm start's ``PI_TILDE``."""
    interval, extra = refine
    if interval < 1 or extra < 0:
        raise ConfigurationError(f"refine_interval must be >= 1 and refine_steps "
                                 f">= 0, got {interval} and {extra}")
    try:
        check_range(seed, 0, max(schedule.T, schedule.T0
                                 + extra * (schedule.T // interval)) - 1)
    except ConfigurationError as exc:
        raise ConfigurationError(f"the schedule cannot run: {exc}") from exc


def _run_loop(problem: BilevelProblem, schedule: ParamSchedule, x0: Vec,
              y0_init: Vec, z0: Vec, seed: int, *,
              normalize: bool,
              decay: tuple[float, float] | None = None,
              refine: tuple[int, int] = (1, 0),
              deadline: float = math.inf,
              metrics: MetricFn | None = None) -> tuple[SlipState, Trace]:
    """Shared driver for the main optimizer and its baselines.

    ``decay = (eta_exponent, alpha_exponent)`` scales ``eta`` by
    ``(t+1)^-eta_exponent`` and ``alpha``/``gamma`` by
    ``(t+1)^-alpha_exponent`` at iteration ``t``.  ``refine = (interval,
    extra)`` runs ``extra`` lower-level SGD steps at frozen x after every
    ``interval``-th iteration.  Once ``time.monotonic()`` passes
    ``deadline``, the run stops after recording the current row.  Any
    exception once the warm start has begun ends the run with a
    :class:`RunAborted`: :class:`NumericalDivergenceError` for overflow and
    non-finite iterates, :class:`RunError` for anything but the deadline; an
    init of the wrong shape and what :func:`check_schedule_runs` rejects
    raise ConfigurationError first.
    Rows wait in one list and are evaluated in one call once
    :data:`METRIC_BLOCK` are pending and when the loop ends; a row whose
    metrics fail ends the run there, with its iterates and call counts as
    the state, before any later failure.
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
    if metrics is None:
        metrics = default_metrics(problem)
    check_schedule_runs(schedule, refine, seed)
    interval, extra = refine
    warm_counter = schedule.T0

    calls = OracleCounter()
    m = np.zeros(problem.dim_x)
    # the undecayed steps as 0-d arrays, which numpy applies to an array
    # faster than a Python float of the same value
    alpha, gamma, eta, beta, beta_c = (np.array(v, dtype=float) for v in (
        schedule.alpha, schedule.gamma, schedule.eta, schedule.beta,
        1.0 - schedule.beta))
    lower_at = problem.det.lower_at
    oracle = problem.oracle
    grad_y_G, hvp_yy_G, grad_y_F = oracle.grad_y_G, oracle.hvp_yy_G, oracle.grad_y_F
    grad_x_F, hvp_xy_G = oracle.grad_x_F, oracle.hvp_xy_G
    PI, ZETA, XI = Stream.PI, Stream.ZETA, Stream.XI
    XI_PRIME, ZETA_PRIME = Stream.XI_PRIME, Stream.ZETA_PRIME
    # v.dot(0) is 0 for a finite v and nan once v holds a nan or an inf, and
    # unlike v.dot(v) it cannot overflow on a finite v
    zero_x, zero_y = np.zeros(problem.dim_x), np.zeros(problem.dim_y)
    trace = Trace()
    # the pending rows, one (t, x, y, z, m, call counts) tuple per iteration;
    # every update binds a new array, so a row's arrays stay as it read them
    rows: list[tuple] = []
    failed: SlipState | None = None   # the row whose metrics failed

    def flush() -> None:
        # evaluates the pending rows and appends them to the trace; if that
        # fails, evaluates them one at a time, appends those before the first
        # that fails, keeps its state in ``failed`` and re-raises its exception
        nonlocal rows, failed
        pending, rows = rows, []

        def record(block: list[tuple]) -> None:
            ts, *iterates, row_calls = zip(*block)
            cols = [[None] * len(ts) if c is None
                    else np.asarray(c).reshape(len(ts)).tolist()
                    for c in metrics(np.array(ts), *map(np.array, iterates))]
            # TraceRecord._make's tuple.__new__, without a frame per row
            trace.extend(list(map(tuple.__new__, repeat(TraceRecord),
                                  zip(ts, *cols, *zip(*row_calls)))))

        try:
            record(pending)
            return
        except Exception:
            pass   # the trace kept none of the block
        for row in pending:
            try:
                record([row])
            except Exception:
                t, *iterates, c = row
                # a row-by-row run stops at t: drop the later rows' skips
                trace.skipped_steps[:] = [s for s in trace.skipped_steps if s <= t]
                failed = SlipState(*iterates, t=t, calls=OracleCounter(*c))
                raise

    t = 0
    try:
        # updates and metrics of a diverging run overflow, the warm start's
        # too: the finiteness check below decides
        with np.errstate(over="ignore", invalid="ignore"):
            if schedule.T0 > 0:
                y = sgd_dd(problem, x, y, schedule.alpha_init, schedule.T0, seed,
                           calls=calls)
            try:
                for t in range(schedule.T):
                    if decay is not None:
                        eta = schedule.eta * (t + 1) ** (-decay[0])
                        alpha = schedule.alpha * (t + 1) ** (-decay[1])
                        gamma = schedule.gamma * (t + 1) ** (-decay[1])

                    s_pi = unchecked_sample(PI, t, seed)
                    s_zeta = unchecked_sample(ZETA, t, seed)
                    s_xi = unchecked_sample(XI, t, seed)
                    s_xi_p = unchecked_sample(XI_PRIME, t, seed)
                    s_zeta_p = unchecked_sample(ZETA_PRIME, t, seed)

                    # updates read the current (x_t, y_t, z_t); z feeds the
                    # momentum update before its own refresh
                    point = lower_at(x)(y)
                    gy = grad_y_G(x, y, s_pi, point)
                    calls.n_grad_y_G += 1
                    y_next = y - alpha * gy
                    # each pair of oracles is counted once both return
                    hz = hvp_yy_G(x, y, z, s_zeta, point)
                    gf = grad_y_F(x, y, s_xi)
                    calls.n_hvp_yy += 1
                    calls.n_grad_y_F += 1
                    z_next = z - gamma * (hz - gf)
                    gx = grad_x_F(x, y, s_xi_p)
                    hxy = hvp_xy_G(x, y, z, s_zeta_p, point)
                    calls.n_grad_x_F += 1
                    calls.n_hvp_xy += 1
                    ghat = gx - hxy
                    m = beta * m + beta_c * ghat

                    norm_m = _norm(m)
                    if normalize:
                        if norm_m == 0.0:
                            logger.info("iteration %d: zero momentum, skipping x-step", t)
                            trace.skipped_steps.append(t)
                            x_next = x
                        else:
                            x_next = x - eta * (m / norm_m)
                    else:
                        x_next = x - eta * m

                    rows.append((t, x, y, z, m, calls.as_tuple()))
                    if len(rows) == METRIC_BLOCK:
                        flush()
                    if time.monotonic() > deadline:
                        raise TimeoutError(f"deadline passed at iteration {t}")

                    finite = (x_next.dot(zero_x) + y_next.dot(zero_y)
                              + z_next.dot(zero_y) + m.dot(zero_x)) == 0.0
                    x, y, z = x_next, y_next, z_next
                    if not finite:
                        raise FloatingPointError(f"non-finite iterate at iteration {t}")

                    if extra > 0 and (t + 1) % interval == 0:
                        y = sgd_dd(problem, x, y, alpha, extra, seed,
                                   counter_start=warm_counter, calls=calls)
                        warm_counter += extra
            finally:
                # the pending rows are evaluated however the loop ends
                if rows:
                    flush()
    except Exception as exc:
        state = failed or SlipState(x=x, y=y, z=z, m=m, t=t, calls=calls)
        t = state.t
        if isinstance(exc, (FloatingPointError, OverflowError)):
            raise NumericalDivergenceError(str(exc), t, trace, state) from exc
        if isinstance(exc, TimeoutError):
            raise RunAborted(str(exc), t, trace, state) from exc
        raise RunError(f"{type(exc).__name__}: {exc}", t, trace, state) from exc

    return SlipState(x=x, y=y, z=z, m=m, t=schedule.T, calls=calls), trace


def slip_run(problem: BilevelProblem, schedule: ParamSchedule, x0: Vec,
             y0_init: Vec, z0: Vec, seed: int,
             deadline: float = math.inf,
             metrics: MetricFn | None = None) -> tuple[SlipState, Trace]:
    """Run the single-loop optimizer with normalized momentum upper steps.

    Every non-skipped upper-level step has length exactly ``schedule.eta``.
    Raises :class:`NumericalDivergenceError` on NaN/Inf iterates.
    """
    return _run_loop(problem, schedule, x0, y0_init, z0, seed,
                     normalize=True, deadline=deadline, metrics=metrics)


def masoba_run(problem: BilevelProblem, schedule: ParamSchedule, x0: Vec,
               y0_init: Vec, z0: Vec, seed: int,
               deadline: float = math.inf,
               metrics: MetricFn | None = None) -> tuple[SlipState, Trace]:
    """Baseline: identical loop, unnormalized upper step ``x - eta * m``."""
    return _run_loop(problem, schedule, x0, y0_init, z0, seed,
                     normalize=False, deadline=deadline, metrics=metrics)


def double_loop_run(problem: BilevelProblem, schedule: ParamSchedule,
                    refine_interval: int, refine_steps: int, x0: Vec,
                    y0_init: Vec, z0: Vec, seed: int,
                    deadline: float = math.inf,
                    metrics: MetricFn | None = None) -> tuple[SlipState, Trace]:
    """Baseline: periodic lower-level refinement at frozen x.

    Every ``refine_interval`` upper steps, runs ``refine_steps`` extra
    lower-level SGD updates.  With interval 1 and 0 extra steps the run is
    trace-identical to ``slip_run`` under the same seed discipline.
    :func:`check_schedule_runs` checks both values before any oracle call.
    """
    return _run_loop(problem, schedule, x0, y0_init, z0, seed,
                     normalize=True, refine=(refine_interval, refine_steps),
                     deadline=deadline, metrics=metrics)


def ttsa_run(problem: BilevelProblem, schedule: ParamSchedule, x0: Vec,
             y0_init: Vec, z0: Vec, seed: int,
             deadline: float = math.inf,
             metrics: MetricFn | None = None) -> tuple[SlipState, Trace]:
    """Baseline: two-timescale single-sample method.

    Momentum-free, unnormalized upper step with ``eta_t = eta * (t+1)^-0.6``;
    lower-level and linear-system steps decay as ``(t+1)^-0.4`` from
    ``schedule.alpha`` and ``schedule.gamma``.  The two rates are fixed.
    No warm-start phase and no momentum: the run follows
    :func:`ttsa_schedule`.
    """
    return _run_loop(problem, ttsa_schedule(schedule), x0, y0_init, z0, seed,
                     normalize=False, decay=(0.6, 0.4), deadline=deadline,
                     metrics=metrics)


def ttsa_schedule(schedule: ParamSchedule) -> ParamSchedule:
    """The schedule :func:`ttsa_run` runs for ``schedule``: its
    ``beta`` and ``T0`` replaced by 0."""
    return replace(schedule, beta=0.0, T0=0)
