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
the metric evaluator (``default_metrics``), the loop's one metric callback.
The loop writes each row's iterates into a block of :data:`METRIC_BLOCK`
rows, fresh arrays per block, and evaluates a full block's metrics in one
call: one ``problem.solve`` call per block, each of its rows bit for bit
what a call for that row alone gives.  The pending rows are also evaluated
when the loop ends, however it ends, so a trace holds the same rows as one
evaluated row by row.  When a block's evaluation raises, or one of its rows
is rejected, the block is evaluated again one row at a time, and the run
ends at the first row that fails, as it would have row by row.

A run is strictly sequential; runs with distinct seeds share no mutable
state and may execute concurrently in separate threads: no problem keeps
any, and the only generator a draw uses is its thread's own, rewound to the
draw's position (see :mod:`bilevelbench.samples`).

The loop's fixed cost per iteration is kept small: the seed and the counter
range are checked once per run (:func:`~bilevelbench.samples.check_range`),
not once per sample, and ``np.errstate`` is entered once around the main
loop, so an overflow in the in-loop refinement gives ``inf`` without a
warning, as one in the main update does, and ends the run at the next
finiteness check.
"""

from __future__ import annotations

import logging
import math
import time
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .constants import ParamSchedule
from .problem import BilevelProblem, ConfigurationError, _norm, _norms
from .samples import Sample, Stream, check_range, unchecked_sample
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
    counter_start + n_steps - 1``, and returns the final iterate.  Never
    reads the ground truth.
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
    for t in range(n_steps):
        g = problem.oracle.grad_y_G(
            x, y, unchecked_sample(Stream.PI_TILDE, counter_start + t, seed))
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
    non-finite iterates, :class:`RunError` for anything but the deadline;
    sample counters past ``2**64`` raise ``ConfigurationError`` before it.
    The pending rows' metrics are also evaluated when the loop ends; a row
    whose metrics fail ends the run there, with its iterates and call
    counts as the state, before any later failure.
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
    interval, extra = refine
    try:   # every counter: the main loop's, the warm start's, the refinement's
        check_range(seed, 0, max(schedule.T, schedule.T0
                                 + extra * (schedule.T // interval)) - 1)
    except ValueError as exc:
        raise ConfigurationError(f"the schedule cannot run: {exc}") from exc
    warm_counter = schedule.T0

    calls = OracleCounter()
    m = np.zeros(problem.dim_x)
    beta = schedule.beta
    # v.dot(0) is 0 for a finite v and nan once v holds a nan or an inf, and
    # unlike v.dot(v) it cannot overflow on a finite v
    zero_x, zero_y = np.zeros(problem.dim_x), np.zeros(problem.dim_y)
    trace = Trace()
    # the pending rows: the block's t, x, y, z and m, one array each with a
    # row per iteration, and each row's call counts
    block: list[np.ndarray] = []
    block_calls: list[tuple[int, ...]] = []
    failed: SlipState | None = None   # the row whose metrics failed

    def flush() -> None:
        # evaluates the pending rows and appends them to the trace; if that
        # fails, evaluates them one at a time, appends those before the first
        # that fails, keeps its state in ``failed`` and re-raises its exception
        nonlocal block, block_calls, failed
        n = len(block_calls)
        if n == 0:
            return
        pending, row_calls = [b[:n] for b in block], block_calls
        block, block_calls = [], []

        def record(rows: slice) -> None:
            ts = pending[0][rows]
            cols = [[None] * len(ts) if c is None
                    else np.asarray(c).reshape(len(ts)).tolist()
                    for c in metrics(*(b[rows] for b in pending))]
            for *row, c in zip(ts.tolist(), *cols, row_calls[rows]):
                trace.append(TraceRecord(*row, *c))

        start = len(trace.records)
        try:
            record(slice(0, n))
            return
        except Exception:
            del trace.records[start:]
        for k in range(n):
            try:
                record(slice(k, k + 1))
            except Exception:
                t = int(pending[0][k])
                # a row-by-row run stops at t: drop the later rows' skips
                trace.skipped_steps[:] = [
                    s for s in trace.skipped_steps if s <= t]
                failed = SlipState(*(b[k] for b in pending[1:]), t=t,
                                   calls=OracleCounter(*row_calls[k]))
                raise

    t = 0
    try:
        if schedule.T0 > 0:
            y = sgd_dd(problem, x, y, schedule.alpha_init, schedule.T0, seed,
                       calls=calls)

        # updates and metrics of a diverging run overflow: the finiteness
        # check below decides
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                for t in range(schedule.T):
                    alpha, gamma, eta = schedule.alpha, schedule.gamma, schedule.eta
                    if decay is not None:
                        eta = eta * (t + 1) ** (-decay[0])
                        alpha = alpha * (t + 1) ** (-decay[1])
                        gamma = gamma * (t + 1) ** (-decay[1])

                    s_pi = unchecked_sample(Stream.PI, t, seed)
                    s_zeta = unchecked_sample(Stream.ZETA, t, seed)
                    s_xi = unchecked_sample(Stream.XI, t, seed)
                    s_xi_p = unchecked_sample(Stream.XI_PRIME, t, seed)
                    s_zeta_p = unchecked_sample(Stream.ZETA_PRIME, t, seed)

                    # updates read the current (x_t, y_t, z_t); z feeds the
                    # momentum update before its own refresh
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

                    i = t % METRIC_BLOCK
                    if i == 0:
                        # fresh arrays, allocated once the last block is
                        # evaluated: the metric callable may keep those
                        block = [np.arange(t, t + METRIC_BLOCK), *(
                            np.empty((METRIC_BLOCK, v.size)) for v in (x, y, z, m))]
                    _, bx, by, bz, bm = block
                    bx[i], by[i], bz[i], bm[i] = x, y, z, m
                    block_calls.append(calls.as_tuple())
                    if i == METRIC_BLOCK - 1:
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
    """
    if refine_interval < 1:
        raise ConfigurationError(
            f"refine_interval must be >= 1, got {refine_interval}")
    if refine_steps < 0:
        raise ConfigurationError(
            f"refine_steps must be >= 0, got {refine_steps}")
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
