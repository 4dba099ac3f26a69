"""Synthetic problem instances with known constants and analytic ground truth.

Three families:

* a strongly-convex quadratic lower level with quadratic upper level, fully
  closed form (the workhorse for verification),
* the same lower level under a ``cosh`` upper level whose curvature grows
  with the gradient norm (a relaxed-smoothness stress case),
* a data-hypercleaning instance: per-sample weights on a corrupted logistic
  training set, scored on a clean validation set, with the report of how the
  learned weights separate clean from corrupted samples
  (:func:`hyperclean_weight_report`).

Hypercleaning has no closed-form ground truth: it calls the Newton solvers
of :mod:`bilevelbench.verify`, which imports nothing from this module.

Each family's ``solve`` and ``upper`` take one point or a stack of points
(see :class:`~bilevelbench.problem.BilevelProblem`).  The closed forms
evaluate a stack at once, through :func:`_mv` and ``.sum(axis=-1)``;
hypercleaning solves its rows one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import verify
from .constants import SmoothnessConstants, derive_constants
from .problem import (SIGMAS, BilevelProblem, ConfigurationError,
                      DeterministicOracle, LowerPoint, NoiseModel,
                      StochasticOracle)

Vec = np.ndarray


@dataclass(frozen=True)
class QuadraticSpec:
    """g(x,y) = y'Ay/2 - y'(Bx + c),  f(x,y) = ||y - e||^2/2 + r*||x||^2/2.

    ``A`` must be symmetric positive definite.  The bound on
    ``||grad_y f||`` at the lower-level optimum is reported over the box
    ``[-1, 1]^dim_x`` (the global supremum is infinite).
    """

    A: np.ndarray
    B: np.ndarray
    c: np.ndarray
    e: np.ndarray
    r: float = 0.0

    def __post_init__(self) -> None:
        if self.r < 0:
            raise ConfigurationError(f"r must be non-negative, got {self.r}")

    @property
    def dim_y(self) -> int:
        return self.A.shape[0]

    @property
    def dim_x(self) -> int:
        return self.B.shape[1]


def _mv(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``a @ v`` for one vector ``v`` or for each row of a stack of them.

    ``matmul`` takes one matrix-vector product per row, so each row is bit
    for bit ``a @ row`` (a single matrix product ``v @ a.T`` is not).
    """
    return np.matmul(a, v[..., None])[..., 0]


def _value(v):
    """A Python float for one point's value; the array of a stack's."""
    return float(v) if np.ndim(v) == 0 else v


def _check_spd(a: np.ndarray) -> np.ndarray:
    """Return the eigenvalues of a symmetric positive-definite matrix."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigurationError(f"A must be square, got shape {a.shape}")
    if not np.allclose(a, a.T, atol=1e-12):
        raise ConfigurationError("A must be symmetric")
    eigs = np.linalg.eigvalsh(a)
    if eigs[0] <= 0:
        raise ConfigurationError(
            f"A must be positive definite; eigenvalues {np.array2string(eigs, precision=6)}")
    return eigs


def _quadratic_constants(spec: QuadraticSpec, noise: NoiseModel,
                         L_x0: float, L_x1: float) -> SmoothnessConstants:
    eigs = _check_spd(spec.A)
    mu, l_g1 = float(eigs[0]), float(eigs[-1])
    b_norm = float(np.linalg.norm(spec.B, 2))
    if b_norm > l_g1 + 1e-12:
        raise ConfigurationError(
            f"||B|| = {b_norm:g} exceeds the declared lower-level smoothness "
            f"l_g1 = {l_g1:g}; rescale the coupling")
    a_inv = np.linalg.inv(spec.A)
    # sup over [-1, 1]^dim_x of ||y*(x) - e||, via the operator-norm bound
    l_f0 = (float(np.linalg.norm(a_inv @ spec.B, 2)) * math.sqrt(spec.dim_x)
            + float(np.linalg.norm(a_inv @ spec.c - spec.e)))
    return derive_constants(SmoothnessConstants(
        mu=mu, l_g1=l_g1, l_g2=0.0, l_f0=l_f0,
        L_x0=L_x0, L_x1=L_x1, L_y0=1.0, L_y1=0.0,
        **{s: getattr(noise, s) for s in SIGMAS},
    ))


def _quadratic_lower_parts(spec: QuadraticSpec):
    a, b, c = spec.A, spec.B, spec.c
    a_inv = np.linalg.inv(a)

    def lower(x: Vec, y: Vec) -> float:
        return float(0.5 * y @ (a @ y) - y @ (b @ x + c))

    def grad_y_g(x: Vec, y: Vec) -> Vec:
        return a @ y - (b @ x + c)

    def hvp_yy_g(x: Vec, y: Vec, z: Vec) -> Vec:
        return a @ z

    def hvp_xy_g(x: Vec, y: Vec, z: Vec) -> Vec:
        return -(b.T @ z)

    def lower_at(x: Vec):
        shift = b @ x + c
        return lambda y: LowerPoint(
            y, grad=lambda: a @ y - shift, hess=a.copy,
            hvp_yy=lambda z: hvp_yy_g(x, y, z),
            hvp_xy=lambda z: hvp_xy_g(x, y, z))

    def lower_solve(x: Vec) -> tuple[Vec, Vec]:
        ys = _mv(a_inv, _mv(b, x) + c)
        return ys, _mv(a_inv, ys - spec.e)

    return lower, grad_y_g, hvp_yy_g, hvp_xy_g, lower_at, lower_solve


def make_quadratic(spec: QuadraticSpec, noise: NoiseModel = NoiseModel.noiseless(),
                   *, declared_L_x1: float = 0.0,
                   name: str = "quadratic") -> BilevelProblem:
    """Build the quadratic instance with full analytic ground truth.

    Closed forms: ``y*(x) = A^-1 (Bx + c)``, ``z*(x) = A^-1 (y*(x) - e)``,
    hypergradient ``r x + B' z*(x)``.  Declared constants: ``mu`` and
    ``l_g1`` are the extreme eigenvalues of A.  ``declared_L_x1`` may be set
    above the true value 0 to certify the instance under a nonzero
    gradient-growth coefficient (any such value is a valid upper bound); the
    warm-start thresholds are finite only then.
    """
    lower, grad_y_g, hvp_yy_g, hvp_xy_g, lower_at, lower_solve = (
        _quadratic_lower_parts(spec))
    consts = _quadratic_constants(spec, noise, L_x0=spec.r, L_x1=declared_L_x1)
    e, r, b = spec.e, spec.r, spec.B

    def upper(x: Vec, y: Vec) -> float:
        return _value(0.5 * ((y - e) ** 2).sum(axis=-1)
                      + 0.5 * r * (x ** 2).sum(axis=-1))

    def grad_x_f(x: Vec, y: Vec) -> Vec:
        return r * x

    def grad_y_f(x: Vec, y: Vec) -> Vec:
        return y - e

    def solve(x: Vec) -> tuple[Vec, Vec, Vec]:
        ys, zs = lower_solve(x)
        return ys, zs, r * x + _mv(b.T, zs)

    det = DeterministicOracle(grad_x_f, grad_y_f, grad_y_g, hvp_xy_g,
                              hvp_yy_g, lower_at)
    return BilevelProblem(
        dim_x=spec.dim_x, dim_y=spec.dim_y, upper=upper, lower=lower,
        det=det, oracle=StochasticOracle(det, noise),
        solve=solve,
        constants=consts, name=name,
        metadata={"kind": "quadratic"},
    )


def q2_spec() -> QuadraticSpec:
    """The pinned 2x2 benchmark instance: A = 2I, B = I, c = 0, e = 1, r = 1."""
    return QuadraticSpec(A=2.0 * np.eye(2), B=np.eye(2), c=np.zeros(2),
                         e=np.ones(2), r=1.0)


def make_q2(noise: NoiseModel = NoiseModel.noiseless()) -> BilevelProblem:
    """The shipped Q2 instance; declares L_x1 = 1 so warm-start bounds bite."""
    return make_quadratic(q2_spec(), noise, declared_L_x1=1.0, name="q2")


def random_quadratic_spec(dim_x: int, dim_y: int, seed: int, *,
                          mu: float = 1.0, l_g1: float = 2.0,
                          r: float = 1.0) -> QuadraticSpec:
    """A random spec with lower-level eigenvalues spread over [mu, l_g1]."""
    if not 0 < mu <= l_g1 < math.inf:
        raise ConfigurationError(f"need 0 < mu <= l_g1 < inf, got ({mu}, {l_g1})")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim_y, dim_y)))
    if dim_y == 1:
        eigs = np.array([mu])
    else:
        eigs = np.concatenate([[mu], rng.uniform(mu, l_g1, size=dim_y - 2), [l_g1]]) \
            if dim_y > 2 else np.array([mu, l_g1])
    a = q @ np.diag(eigs) @ q.T
    a = 0.5 * (a + a.T)
    b = rng.standard_normal((dim_y, dim_x))
    bn = np.linalg.norm(b, 2)
    if bn > 0:
        b *= 0.5 * l_g1 / bn
    return QuadraticSpec(A=a, B=b, c=rng.standard_normal(dim_y),
                         e=rng.standard_normal(dim_y), r=r)


def random_quadratic(dim_x: int, dim_y: int, seed: int, *,
                     noise: NoiseModel = NoiseModel.noiseless()) -> BilevelProblem:
    """The quadratic instance of :func:`random_quadratic_spec` at its default
    ``mu``, ``l_g1`` and ``r``."""
    spec = random_quadratic_spec(dim_x, dim_y, seed)
    return make_quadratic(spec, noise, name=f"quadratic-{seed}")


@dataclass(frozen=True)
class UnboundedSmoothSpec:
    """Upper level sum_i cosh(a*x_i) - dim_x + ||y - e||^2/2 over a quadratic core.

    The upper-level curvature grows linearly with the gradient norm, so the
    instance exercises the relaxed-smoothness regime.
    """

    a: float
    core: QuadraticSpec

    def __post_init__(self) -> None:
        if self.a <= 0:
            raise ConfigurationError(f"growth rate a must be positive, got {self.a}")


def make_unbounded_smooth(spec: UnboundedSmoothSpec,
                          noise: NoiseModel = NoiseModel.noiseless()
                          ) -> BilevelProblem:
    """Build the cosh-upper-level instance with analytic ground truth.

    Evaluations with ``max|x_i| > 700/a`` raise OverflowError before cosh
    overflows double precision; for a stack, ``solve`` and ``upper`` check
    the whole stack once.
    """
    core = spec.core
    lower, grad_y_g, hvp_yy_g, hvp_xy_g, lower_at, lower_solve = (
        _quadratic_lower_parts(core))
    a_rate = spec.a
    x_max = 700.0 / a_rate
    e, b = core.e, core.B

    def _guard(x: Vec) -> None:
        m = float(np.abs(x).max()) if x.size else 0.0
        if m > x_max:
            raise OverflowError(
                f"|x| up to {m:g} exceeds the cosh evaluation range {x_max:g}")

    def upper(x: Vec, y: Vec) -> float:
        _guard(x)
        return _value(np.cosh(a_rate * x).sum(axis=-1) - x.shape[-1]
                      + 0.5 * ((y - e) ** 2).sum(axis=-1))

    def grad_x_f(x: Vec, y: Vec) -> Vec:
        _guard(x)
        return a_rate * np.sinh(a_rate * x)

    def grad_y_f(x: Vec, y: Vec) -> Vec:
        return y - e

    def solve(x: Vec) -> tuple[Vec, Vec, Vec]:
        _guard(x)
        ys, zs = lower_solve(x)
        return ys, zs, a_rate * np.sinh(a_rate * x) + _mv(b.T, zs)

    base = _quadratic_constants(core, noise, L_x0=a_rate ** 2, L_x1=a_rate)
    det = DeterministicOracle(grad_x_f, grad_y_f, grad_y_g, hvp_xy_g,
                              hvp_yy_g, lower_at)
    return BilevelProblem(
        dim_x=core.dim_x, dim_y=core.dim_y, upper=upper, lower=lower,
        det=det, oracle=StochasticOracle(det, noise),
        solve=solve,
        constants=base, name="unbounded",
        metadata={"kind": "unbounded", "a": a_rate, "x_max": x_max},
    )


def sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


@dataclass(frozen=True)
class HypercleanSpec:
    """Synthetic data-hypercleaning instance.

    Draws near-separable logistic data, flips exactly
    ``floor(corruption_rate * n_train)`` training labels chosen by a seeded
    shuffle, and weighs each training sample by ``sigmoid(x_i)`` in the
    regularized lower-level loss.  The upper level is the unweighted loss on
    the clean validation set.
    """

    n_train: int
    n_val: int
    feature_dim: int
    corruption_rate: float
    reg: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.corruption_rate <= 1.0:
            raise ConfigurationError(
                f"corruption_rate must lie in [0, 1], got {self.corruption_rate}")
        if self.reg <= 0:
            raise ConfigurationError(f"reg must be positive, got {self.reg}")
        if min(self.n_train, self.n_val, self.feature_dim) < 1:
            raise ConfigurationError("n_train, n_val and feature_dim must be positive")


def _hyperclean_data(spec: HypercleanSpec):
    rng = np.random.default_rng(spec.seed)
    w = rng.standard_normal(spec.feature_dim)
    w /= np.linalg.norm(w)
    feats_tr = rng.standard_normal((spec.n_train, spec.feature_dim))
    feats_val = rng.standard_normal((spec.n_val, spec.feature_dim))
    lab_tr = np.where(feats_tr @ w + 0.1 * rng.standard_normal(spec.n_train) > 0,
                      1.0, -1.0)
    lab_val = np.where(feats_val @ w + 0.1 * rng.standard_normal(spec.n_val) > 0,
                       1.0, -1.0)
    # floor(p * n) flips; the epsilon shields exact products from FP dust
    n_flip = int(spec.corruption_rate * spec.n_train + 1e-9)
    corrupted = np.sort(rng.permutation(spec.n_train)[:n_flip])
    lab_tr[corrupted] *= -1.0
    return feats_tr, lab_tr, feats_val, lab_val, corrupted


def make_hyperclean(spec: HypercleanSpec,
                    noise: NoiseModel = NoiseModel.noiseless()
                    ) -> BilevelProblem:
    """Build the hypercleaning instance.

    There is no closed-form lower-level minimizer; the problem's ``solve``
    is backed by the Newton solvers of :mod:`bilevelbench.verify` (tolerance
    1e-10), one inner and one linear solve per point, uncached.  The solvers
    iterate through ``lower_at(x)``, which evaluates ``sigmoid(x)`` and
    ``sigmoid(x) * lab_tr`` once; at each ``y`` it computes the margins,
    ``sigmoid(-margins)`` and ``sigmoid(margins)`` once for the gradient,
    the Hessian and the two Hessian-vector products.  The inner solve's
    converged point serves the linear solve (its Hessian and residual
    check) and the hypergradient's mixed product, so one point's solve
    evaluates ``sigmoid(x)`` once.  ``solve`` and ``upper`` take a stack
    of points one row at a time.  The per-sample weights live in dimension
    ``n_train`` and are meant to be initialized at 1.0.
    """
    feats_tr, lab_tr, feats_val, lab_val, corrupted = _hyperclean_data(spec)
    n_tr, lam = spec.n_train, spec.reg
    reg_hess = 2.0 * lam * np.eye(spec.feature_dim)

    def _margins(y: Vec) -> Vec:
        return lab_tr * (feats_tr @ y)

    # The lower-level derivatives from their shared pieces: ``sx =
    # sigmoid(x)``, ``sx_lab = sx * lab_tr``, and at y the margins ``m``,
    # ``s = sigmoid(-m)`` and ``sp = sigmoid(m)``.
    def _grad(sx_lab: Vec, s: Vec, y: Vec) -> Vec:
        return -(feats_tr.T @ (sx_lab * s)) / n_tr + 2.0 * lam * y

    def _hess(sx: Vec, sp: Vec, s: Vec) -> np.ndarray:
        return (feats_tr.T * (sx * sp * s)) @ feats_tr / n_tr + reg_hess

    def _hvp_yy(sx: Vec, sp: Vec, s: Vec, z: Vec) -> Vec:
        return (feats_tr.T @ (sx * (sp * s) * (feats_tr @ z))) / n_tr + 2.0 * lam * z

    def _hvp_xy(sx: Vec, s: Vec, z: Vec) -> Vec:
        return sx * (1.0 - sx) * (-(lab_tr * s) * (feats_tr @ z)) / n_tr

    def lower(x: Vec, y: Vec) -> float:
        losses = np.logaddexp(0.0, -_margins(y))
        return float(sigmoid(x) @ losses / n_tr + lam * np.sum(y ** 2))

    def upper(x: Vec, y: Vec) -> float:
        if x.ndim > 1:
            return np.array([upper(xi, yi) for xi, yi in zip(x, y)])
        return float(np.logaddexp(0.0, -lab_val * (feats_val @ y)).mean())

    def grad_y_g(x: Vec, y: Vec) -> Vec:
        return _grad(sigmoid(x) * lab_tr, sigmoid(-_margins(y)), y)

    def lower_at(x: Vec):
        sx = sigmoid(x)
        sx_lab = sx * lab_tr

        def at(y: Vec) -> LowerPoint:
            m = _margins(y)
            s = sigmoid(-m)
            sp = sigmoid(m)
            return LowerPoint(y, grad=lambda: _grad(sx_lab, s, y),
                              hess=lambda: _hess(sx, sp, s),
                              hvp_yy=lambda z: _hvp_yy(sx, sp, s, z),
                              hvp_xy=lambda z: _hvp_xy(sx, s, z))
        return at

    def hvp_yy_g(x: Vec, y: Vec, z: Vec) -> Vec:
        m = _margins(y)
        return _hvp_yy(sigmoid(x), sigmoid(m), sigmoid(-m), z)

    def hvp_xy_g(x: Vec, y: Vec, z: Vec) -> Vec:
        return _hvp_xy(sigmoid(x), sigmoid(-_margins(y)), z)

    def grad_x_f(x: Vec, y: Vec) -> Vec:
        return np.zeros(n_tr)

    def grad_y_f(x: Vec, y: Vec) -> Vec:
        s = sigmoid(-lab_val * (feats_val @ y))
        return -(feats_val.T @ (lab_val * s)) / spec.n_val

    tr_norms = np.linalg.norm(feats_tr, axis=1)
    val_norms = np.linalg.norm(feats_val, axis=1)
    consts = derive_constants(SmoothnessConstants(
        mu=2.0 * lam,
        l_g1=0.25 * float(np.mean(tr_norms ** 2)) + 2.0 * lam,
        # third-derivative bound of the logistic loss is 1/(6*sqrt(3))
        l_g2=float(np.mean(tr_norms ** 3)) / (6.0 * math.sqrt(3.0))
        + 0.0625 * float(np.mean(tr_norms ** 2)),
        l_f0=float(np.mean(val_norms)),
        L_x0=0.0, L_x1=0.0,
        L_y0=0.25 * float(np.mean(val_norms ** 2)), L_y1=0.0,
        **{s: getattr(noise, s) for s in SIGMAS},
    ))

    # The ground truth from the deterministic solvers, read as module
    # attributes at each call so that a wrapper patched onto them sees every
    # solve.
    settings = verify.SolverSettings(tol=1e-10, max_iters=200)

    def solve(x: Vec) -> tuple[Vec, Vec, Vec]:
        if x.ndim > 1:
            # a stack: one Newton solve per row
            return tuple(map(np.array, zip(*map(solve, x))))
        point = verify.inner_solve_exact(problem, x, settings)
        zs = verify.solve_linear_system_exact(problem, x, point, settings)
        return point.y, zs, grad_x_f(x, point.y) - point.hvp_xy(zs)

    det = DeterministicOracle(grad_x_f, grad_y_f, grad_y_g, hvp_xy_g,
                              hvp_yy_g, lower_at)
    problem = BilevelProblem(
        dim_x=n_tr, dim_y=spec.feature_dim, upper=upper, lower=lower,
        det=det, oracle=StochasticOracle(det, noise),
        solve=solve,
        constants=consts, name="hyperclean",
        # per-sample weights start at 1.0; model parameters at zero
        metadata={"kind": "hyperclean", "corrupted_indices": corrupted,
                  "x0_default": 1.0, "y0_default": 0.0},
    )
    return problem


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
        raise ConfigurationError("corrupted indices out of range for the weight vector")
    mask = np.zeros(x.shape[0], dtype=bool)
    mask[corrupted] = True
    sig = sigmoid(x)
    clean_mean = float(sig[~mask].mean()) if (~mask).any() else float("nan")
    corr_mean = float(sig[mask].mean()) if mask.any() else None
    return WeightReport(mean_sigma_clean=clean_mean, mean_sigma_corrupted=corr_mean)
