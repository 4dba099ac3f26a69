"""Bilevel problem abstraction: objectives, stochastic oracles, ground truth.

A :class:`BilevelProblem` bundles the two deterministic objectives, their
deterministic first/second-order maps (including the materialized
lower-level Hessian), the five stochastic oracles built from them by an
additive noise model, the ground truth (exact lower-level minimizer,
linear-system solution and hypergradient) used only for verification and
metrics, and the declared smoothness constants.  Every problem carries all
three: there is no path for a problem without them.

All oracle and ground-truth evaluations are pure functions of (point,
sample) or of the point: no problem keeps shared mutable state, and each
noise draw uses its thread's own generator, so every one is safe to call
concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .constants import SmoothnessConstants
from .samples import OracleTag, Sample, Stream

Array = np.ndarray
Vec = np.ndarray


class ConfigurationError(ValueError):
    """Fatal mis-configuration: wrong dimensions, wrong stream, bad enum."""


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
        for name in ("sigma_f1", "sigma_g1", "sigma_g2", "sigma_z"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.kind is NoiseKind.NOISELESS and any(
                getattr(self, n) != 0 for n in
                ("sigma_f1", "sigma_g1", "sigma_g2", "sigma_z")):
            raise ConfigurationError("noiseless model must have all sigmas zero")


@dataclass(frozen=True)
class DeterministicOracle:
    """Exact first/second-order maps of one problem instance.

    ``hvp_xy_g(x, y, z)`` is the mixed second-derivative block applied to
    ``z`` (a length-``dim_x`` vector); ``hvp_yy_g`` the yy block applied to
    ``z`` (length ``dim_y``).  ``hess_yy_g`` materializes the yy block for
    the Newton solves of :mod:`bilevelbench.verify`.
    """

    grad_x_f: Callable[[Vec, Vec], Vec]
    grad_y_f: Callable[[Vec, Vec], Vec]
    grad_y_g: Callable[[Vec, Vec], Vec]
    hvp_xy_g: Callable[[Vec, Vec, Vec], Vec]
    hvp_yy_g: Callable[[Vec, Vec, Vec], Vec]
    hess_yy_g: Callable[[Vec, Vec], Array]


def _norm(v: Vec) -> float:
    """Euclidean norm of a 1-D float array, bit for bit ``np.linalg.norm``
    (which computes ``sqrt(v.dot(v))`` for it) without that call's overhead."""
    return math.sqrt(v.dot(v))


def _noise_vec(sample: Sample, tag: OracleTag, dim: int, scale: float,
               clip: float | None = None) -> Vec:
    """Mean-zero noise with total standard deviation ``scale``.

    Per-coordinate std is ``scale / sqrt(dim)`` so the expected squared norm
    equals ``scale**2``.  Radial clipping keeps the draw mean-zero.
    """
    if scale == 0.0:
        return np.zeros(dim)
    v = (scale / math.sqrt(dim)) * sample.generator(tag).standard_normal(dim)
    if clip is not None:
        n = _norm(v)
        if n > clip:
            # shave slightly below the bound: the almost-sure contract must
            # survive the add-then-subtract round trip in float arithmetic
            v *= (clip / n) * (1.0 - 1e-10)
    return v


class StochasticOracle:
    """The five stochastic oracles, realized as deterministic map + noise.

    Each method is a pure function of its arguments; identical samples give
    bit-identical outputs.
    """

    def __init__(self, det: DeterministicOracle, noise: NoiseModel):
        self.det = det
        self.noise = noise

    def _bounded(self) -> bool:
        return self.noise.kind is NoiseKind.BOUNDED

    def grad_x_F(self, x: Vec, y: Vec, sample: Sample) -> Vec:
        g = self.det.grad_x_f(x, y)
        if self.noise.kind is NoiseKind.NOISELESS:
            return g
        clip = self.noise.sigma_f1 if self._bounded() else None
        return g + _noise_vec(sample, OracleTag.GRAD_X_F, g.shape[0],
                              self.noise.sigma_f1, clip)

    def grad_y_F(self, x: Vec, y: Vec, sample: Sample) -> Vec:
        g = self.det.grad_y_f(x, y)
        if self.noise.kind is NoiseKind.NOISELESS:
            return g
        clip = self.noise.sigma_f1 if self._bounded() else None
        return g + _noise_vec(sample, OracleTag.GRAD_Y_F, g.shape[0],
                              self.noise.sigma_f1, clip)

    def grad_y_G(self, x: Vec, y: Vec, sample: Sample) -> Vec:
        g = self.det.grad_y_g(x, y)
        if self.noise.kind is NoiseKind.NOISELESS:
            return g
        # light-tailed in both noise models, never clipped
        return g + _noise_vec(sample, OracleTag.GRAD_Y_G, g.shape[0],
                              self.noise.sigma_g1)

    def hvp_xy_G(self, x: Vec, y: Vec, z: Vec, sample: Sample) -> Vec:
        g = self.det.hvp_xy_g(x, y, z)
        if self.noise.kind is NoiseKind.NOISELESS:
            return g
        scale = self.noise.sigma_g2 * _norm(z)
        clip = scale if self._bounded() else None
        return g + _noise_vec(sample, OracleTag.HVP_XY_G, g.shape[0], scale, clip)

    def hvp_yy_G(self, x: Vec, y: Vec, z: Vec, sample: Sample) -> Vec:
        g = self.det.hvp_yy_g(x, y, z)
        if self.noise.kind is NoiseKind.NOISELESS:
            return g
        if self._bounded():
            return g + _noise_vec(sample, OracleTag.HVP_YY_G, g.shape[0],
                                  self.noise.sigma_z, self.noise.sigma_z)
        scale = self.noise.sigma_g2 * _norm(z)
        return g + _noise_vec(sample, OracleTag.HVP_YY_G, g.shape[0], scale)


@dataclass(frozen=True)
class AnalyticOracle:
    """Exact ground truth for verification.

    ``solve(x)`` returns ``(y*(x), z*(x), grad Phi(x))`` from one
    computation; the three accessors below each return one of them.
    """

    solve: Callable[[Vec], tuple[Vec, Vec, Vec]]

    def y_star(self, x: Vec) -> Vec:
        return self.solve(x)[0]

    def z_star(self, x: Vec) -> Vec:
        return self.solve(x)[1]

    def hypergrad(self, x: Vec) -> Vec:
        return self.solve(x)[2]


@dataclass(frozen=True)
class BilevelProblem:
    """One problem instance.

    ``upper``/``lower`` are the deterministic objectives f and g; ``det``
    their exact derivative maps; ``oracle`` the stochastic view used by the
    optimizers; ``analytic`` the ground truth; ``constants`` the declared
    smoothness constants of the instance.
    """

    dim_x: int
    dim_y: int
    upper: Callable[[Vec, Vec], float]
    lower: Callable[[Vec, Vec], float]
    det: DeterministicOracle
    oracle: StochasticOracle
    analytic: AnalyticOracle
    constants: SmoothnessConstants
    name: str = "problem"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.dim_x < 1 or self.dim_y < 1:
            raise ConfigurationError(
                f"dimensions must be positive, got ({self.dim_x}, {self.dim_y})")

    def phi(self, x: Vec) -> float:
        """Composed objective f(x, y*(x))."""
        return float(self.upper(x, self.analytic.y_star(x)))


def hypergrad_estimate(x: Vec, y: Vec, z: Vec, s1: Sample, s2: Sample,
                       oracle: StochasticOracle) -> Vec:
    """Single-sample hypergradient estimator.

    Returns ``grad_x_F(x, y; s1) - hvp_xy_G(x, y, z; s2)``.  ``s1`` must sit
    on the x-gradient stream and ``s2`` on the mixed second-order stream so
    the two draws are independent.
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


def empirical_unbiasedness_check(oracle: StochasticOracle, problem: BilevelProblem,
                                 x: Vec, y: Vec, n: int,
                                 rng_seed: int) -> UnbiasednessReport:
    """Average n independent draws of each oracle against its exact value."""
    noise = oracle.noise
    names = ("grad_x_F", "grad_y_F", "grad_y_G", "hvp_xy_G", "hvp_yy_G")
    if noise.kind is NoiseKind.NOISELESS or all(
            getattr(noise, s) == 0.0
            for s in ("sigma_f1", "sigma_g1", "sigma_g2", "sigma_z")):
        return UnbiasednessReport(n=n, deviations={k: 0.0 for k in names})
    if n < 100:
        raise ConfigurationError(f"need at least 100 draws, got {n}")

    z = np.random.default_rng(rng_seed).standard_normal(problem.dim_y)
    znorm = float(np.linalg.norm(z))
    plans = {
        "grad_x_F": (Stream.XI_PRIME, noise.sigma_f1,
                     lambda s: oracle.grad_x_F(x, y, s), problem.det.grad_x_f(x, y)),
        "grad_y_F": (Stream.XI, noise.sigma_f1,
                     lambda s: oracle.grad_y_F(x, y, s), problem.det.grad_y_f(x, y)),
        "grad_y_G": (Stream.PI, noise.sigma_g1,
                     lambda s: oracle.grad_y_G(x, y, s), problem.det.grad_y_g(x, y)),
        "hvp_xy_G": (Stream.ZETA_PRIME, noise.sigma_g2 * znorm,
                     lambda s: oracle.hvp_xy_G(x, y, z, s),
                     problem.det.hvp_xy_g(x, y, z)),
        "hvp_yy_G": (Stream.ZETA,
                     noise.sigma_z if noise.kind is NoiseKind.BOUNDED
                     else noise.sigma_g2 * znorm,
                     lambda s: oracle.hvp_yy_G(x, y, z, s),
                     problem.det.hvp_yy_g(x, y, z)),
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
