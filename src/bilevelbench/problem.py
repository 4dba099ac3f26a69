"""Bilevel problem abstraction: objectives, stochastic oracles, ground truth.

A :class:`BilevelProblem` bundles the two deterministic objectives, their
deterministic first/second-order maps (the lower level's stated once, as
an x-bound view that materializes its Hessian, which the pointwise maps
read), the five stochastic oracles built from them by an additive noise
model (the lower-level ones also from that view's point), the ground
truth ``solve`` (exact lower-level minimizer, linear-system solution and
hypergradient from one call) used only for verification and metrics, and
the declared smoothness constants.  Every problem carries all three:
there is no path for a problem without them.  The checkers that test a
problem's oracles against these maps live in :mod:`bilevelbench.verify`.

For one point, ``solve`` returns three 1-D arrays (``y*`` and ``z*`` of
length ``dim_y``, the hypergradient of length ``dim_x``) and ``upper`` a
Python float.  Both also take a stack of points (a leading axis) and
return one result per row, so that the metric evaluator reads the ground
truth of a block of rows in one call.

All oracle and ground-truth evaluations are pure functions of (point,
sample) or of the point: no problem keeps shared mutable state, and each
noise draw uses its thread's own generator, so every one is safe to call
concurrently.  Bad input raises :class:`ConfigurationError`, imported from
:mod:`bilevelbench.samples`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .constants import SmoothnessConstants
from .samples import ConfigurationError, OracleTag, Sample, Stream

Array = np.ndarray
Vec = np.ndarray


# the four noise levels of a NoiseModel, in field order
SIGMAS = ("sigma_f1", "sigma_g1", "sigma_g2", "sigma_z")


class NoiseKind(enum.Enum):
    NOISELESS = "noiseless"
    GAUSSIAN = "gaussian"          # bounded variance, light-tailed
    BOUNDED = "bounded"            # almost-surely bounded draws


@dataclass(frozen=True)
class NoiseModel:
    """Additive oracle noise specification.

    ``gaussian`` adds isotropic Gaussian noise whose total variance equals
    the declared sigma squared.  ``bounded`` additionally clips each draw so
    the stated norm bound holds almost surely: ``sigma_f1`` bounds the two
    upper-level gradient oracles, the mixed second-order product is clipped
    at ``sigma_g2 * ||z||``, and the yy-block product at the constant
    ``sigma_z`` (the noise enters after multiplication by ``z``).  The
    lower-level gradient keeps Gaussian noise in both models: its contract
    is a sub-Gaussian tail, which the Gaussian satisfies exactly.
    Construction rejects a negative or non-finite sigma, any nonzero sigma
    under ``noiseless`` and a nonzero ``sigma_z`` under ``gaussian``.
    """

    kind: NoiseKind = NoiseKind.NOISELESS
    sigma_f1: float = 0.0
    sigma_g1: float = 0.0
    sigma_g2: float = 0.0
    sigma_z: float = 0.0

    @staticmethod
    def noiseless() -> "NoiseModel":
        return NoiseModel(NoiseKind.NOISELESS)

    @staticmethod
    def gaussian(sigma_f1: float, sigma_g1: float, sigma_g2: float) -> "NoiseModel":
        return NoiseModel(NoiseKind.GAUSSIAN, sigma_f1, sigma_g1, sigma_g2)

    @staticmethod
    def bounded(sigma_f1: float, sigma_g1: float, sigma_g2: float,
                sigma_z: float) -> "NoiseModel":
        return NoiseModel(NoiseKind.BOUNDED, sigma_f1, sigma_g1, sigma_g2, sigma_z)

    def __post_init__(self) -> None:
        for name in SIGMAS:
            if not 0 <= getattr(self, name) < math.inf:   # nan fails too
                raise ConfigurationError(f"{name} must be non-negative and finite")
        if self.kind is NoiseKind.NOISELESS and any(
                getattr(self, n) != 0 for n in SIGMAS):
            raise ConfigurationError("noiseless model must have all sigmas zero")
        if self.kind is NoiseKind.GAUSSIAN and self.sigma_z != 0:
            raise ConfigurationError("sigma_z applies to the bounded model only")


class LowerPoint(NamedTuple):
    """The lower level ``g(x, .)`` at one ``y``, for one bound ``x``.

    ``grad()`` is ``grad_y g(x, y)``, ``hess()`` the materialized yy block
    of its Hessian, ``hvp_yy(z)`` that block applied to ``z`` (length
    ``dim_y``) and ``hvp_xy(z)`` the mixed xy block applied to ``z`` (a
    length-``dim_x`` result).  Each is computed only when called, from the
    pieces they share at ``y``, computed once.  For a stack of ``x``, ``y``
    and ``z`` are stacks too, with one result per row.  The inner Newton
    solve returns its converged point; the run loop hands one per iteration
    to the three lower-level oracles.
    """

    y: Vec
    grad: Callable[[], Vec]
    hess: Callable[[], Array]
    hvp_yy: Callable[[Vec], Vec]
    hvp_xy: Callable[[Vec], Vec]


@dataclass(frozen=True)
class DeterministicOracle:
    """Exact first/second-order maps of one problem instance.

    ``lower_at(x)`` evaluates what depends on ``x`` alone once and returns
    the map ``y -> LowerPoint``, the one place a family states its
    lower-level derivatives.  The Newton solves of :mod:`bilevelbench.verify`,
    the run loop and the frozen-x SGD evaluate the lower level through it,
    and the pointwise maps below read one point per call.  Hypercleaning's
    ``lower_at`` and ``grad_y_f`` also take a stack, row by row bit for bit,
    for its stacked solves.
    """

    grad_x_f: Callable[[Vec, Vec], Vec]
    grad_y_f: Callable[[Vec, Vec], Vec]
    lower_at: Callable[[Vec], Callable[[Vec], LowerPoint]]

    def grad_y_g(self, x: Vec, y: Vec) -> Vec:
        return self.lower_at(x)(y).grad()

    def hvp_xy_g(self, x: Vec, y: Vec, z: Vec) -> Vec:
        return self.lower_at(x)(y).hvp_xy(z)

    def hvp_yy_g(self, x: Vec, y: Vec, z: Vec) -> Vec:
        return self.lower_at(x)(y).hvp_yy(z)


def _norm(v: Vec) -> float:
    """Euclidean norm of a 1-D float array, bit for bit ``np.linalg.norm``
    (which computes ``sqrt(v.dot(v))`` for it) without that call's overhead."""
    return math.sqrt(v.dot(v))


def _norms(v: Array) -> Array:
    """Euclidean norm of each row of a float array (a 0-d array for a 1-D
    one), bit for bit :func:`_norm` of the row: ``matmul`` takes one
    ``dot`` per row."""
    return np.sqrt(np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0])


def _mv(a: Array, v: Array) -> Array:
    """``a @ v`` for one vector ``v`` or for each row of a stack of them (and
    of ``a``, if a stack of matrices).

    One matrix and one vector take ``a.dot(v)``, a third of ``matmul``'s
    call cost; a stack takes ``matmul``, one matrix-vector product per row.
    Each row is bit for bit the one-vector result (a single matrix product
    ``v @ a.T`` is not): both paths make the same BLAS matrix-vector call,
    and ``test_problem`` pins their equality on every shape the families use.
    """
    if a.ndim == 2 and v.ndim == 1:
        return a.dot(v)
    return np.matmul(a, v[..., None])[..., 0]


# the enum members the oracles read, bound once: an enum attribute takes
# about 0.1 us to look up
_NOISELESS, _BOUNDED = NoiseKind.NOISELESS, NoiseKind.BOUNDED
_GRAD_X_F, _GRAD_Y_F, _GRAD_Y_G = OracleTag.GRAD_X_F, OracleTag.GRAD_Y_F, OracleTag.GRAD_Y_G
_HVP_XY_G, _HVP_YY_G = OracleTag.HVP_XY_G, OracleTag.HVP_YY_G


class StochasticOracle:
    """The five stochastic oracles, realized as deterministic map + noise.

    Each method evaluates its deterministic map, or reads it from ``point``
    (``det.lower_at(x)(y)``, which an oracle the run loop calls must accept
    on the three lower-level methods), and states its noise scale and whether
    the bounded model clips it; one noise path (:meth:`_noisy`) adds the
    draw.  Each is a pure function of its arguments, bit-identical per sample.
    """

    def __init__(self, det: DeterministicOracle, noise: NoiseModel):
        self.det = det
        self.noise = noise

    def _noisy(self, g: Vec, sample: Sample, tag: OracleTag, scale: float,
               clip: bool, z: Vec | None = None) -> Vec:
        """``g`` plus the mean-zero draw of ``tag``, whose total std is
        ``scale`` (times ``||z||`` when ``z`` is given): ``scale / sqrt(dim)``
        per coordinate.  When ``clip``, the bounded model clips the draw
        radially at that std, which keeps it mean-zero.  A noiseless model
        returns ``g`` before any of this is computed.

        The draw is scaled, clipped and summed with ``g`` in its own array,
        which is returned; ``g`` is never written.  Float multiplication and
        addition commute, so the result is bit for bit
        ``g + (scale / sqrt(dim)) * draw``."""
        kind = self.noise.kind
        if kind is _NOISELESS:
            return g
        if z is not None:
            scale = scale * math.sqrt(z.dot(z))   # _norm(z), inline
        dim = g.shape[0]
        if scale == 0.0:
            return g + np.zeros(dim)   # no draw; the sum turns -0.0 into 0.0
        v = sample.generator(tag).standard_normal(dim)
        v *= scale / math.sqrt(dim)
        if clip and kind is _BOUNDED:
            n = _norm(v)
            if n > scale:
                # shave slightly below the bound: the almost-sure contract must
                # survive the add-then-subtract round trip in float arithmetic
                v *= (scale / n) * (1.0 - 1e-10)
        v += g
        return v

    def grad_x_F(self, x: Vec, y: Vec, sample: Sample) -> Vec:
        return self._noisy(self.det.grad_x_f(x, y), sample, _GRAD_X_F,
                           self.noise.sigma_f1, True)

    def grad_y_F(self, x: Vec, y: Vec, sample: Sample) -> Vec:
        return self._noisy(self.det.grad_y_f(x, y), sample, _GRAD_Y_F,
                           self.noise.sigma_f1, True)

    def grad_y_G(self, x: Vec, y: Vec, sample: Sample, point=None) -> Vec:
        g = self.det.grad_y_g(x, y) if point is None else point.grad()
        # light-tailed in both noise models, never clipped
        return self._noisy(g, sample, _GRAD_Y_G, self.noise.sigma_g1, False)

    def hvp_xy_G(self, x: Vec, y: Vec, z: Vec, sample: Sample, point=None) -> Vec:
        g = self.det.hvp_xy_g(x, y, z) if point is None else point.hvp_xy(z)
        return self._noisy(g, sample, _HVP_XY_G, self.noise.sigma_g2, True, z)

    def hvp_yy_G(self, x: Vec, y: Vec, z: Vec, sample: Sample, point=None) -> Vec:
        g = self.det.hvp_yy_g(x, y, z) if point is None else point.hvp_yy(z)
        if self.noise.kind is _BOUNDED:
            return self._noisy(g, sample, _HVP_YY_G, self.noise.sigma_z, True)
        return self._noisy(g, sample, _HVP_YY_G, self.noise.sigma_g2, False, z)


@dataclass(frozen=True)
class BilevelProblem:
    """One problem instance.

    ``upper``/``lower`` are the deterministic objectives f and g; ``det``
    their exact derivative maps; ``oracle`` the stochastic view used by the
    optimizers; ``solve(x)`` the ground truth ``(y*(x), z*(x), grad Phi(x))``
    from one computation; ``constants`` the declared smoothness constants
    of the instance.  ``solve`` and ``upper`` also take a stack: given
    ``(n, dim_x)`` points (and ``(n, dim_y)`` lower-level points for
    ``upper``) they return three ``(n, .)`` arrays and ``n`` values, each
    row bit for bit the result for that row alone.
    """

    dim_x: int
    dim_y: int
    upper: Callable[[Array, Array], float | Array]
    lower: Callable[[Vec, Vec], float]
    det: DeterministicOracle
    oracle: StochasticOracle
    solve: Callable[[Array], tuple[Array, Array, Array]]
    constants: SmoothnessConstants
    name: str = "problem"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.dim_x < 1 or self.dim_y < 1:
            raise ConfigurationError(
                f"dimensions must be positive, got ({self.dim_x}, {self.dim_y})")


def hypergrad_estimate(x: Vec, y: Vec, z: Vec, s1: Sample, s2: Sample,
                       oracle: StochasticOracle) -> Vec:
    """Single-sample hypergradient estimator.

    Returns ``grad_x_F(x, y; s1) - hvp_xy_G(x, y, z; s2)``.  ``s1`` must sit
    on the x-gradient stream and ``s2`` on the mixed second-order stream so
    the two draws are independent.

    The run loop computes the same ``gx - hxy`` inline, unchecked: its
    samples come from a range ``check_schedule_runs`` has checked, while this
    function checks the streams and shapes of input from outside the
    program, which needs the two oracle outputs apart.
    ``test_momentum_unrolling`` pins that the two agree.
    """
    if s1.stream is not Stream.XI_PRIME:
        raise ConfigurationError(
            f"s1 must be on stream XI_PRIME, got {s1.stream.name}")
    if s2.stream is not Stream.ZETA_PRIME:
        raise ConfigurationError(
            f"s2 must be on stream ZETA_PRIME, got {s2.stream.name}")
    if y.shape != z.shape:
        raise ConfigurationError(
            f"y and z must share the lower-level dimension, got {y.shape} vs {z.shape}")
    g = oracle.grad_x_F(x, y, s1)
    h = oracle.hvp_xy_G(x, y, z, s2)
    if g.shape != h.shape:
        raise ConfigurationError(
            f"oracle outputs disagree on the upper-level dimension: "
            f"{g.shape} vs {h.shape}")
    return g - h
