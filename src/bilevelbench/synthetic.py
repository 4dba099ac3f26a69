"""Synthetic problem instances with known constants and analytic ground truth.

Three families:

* a strongly-convex quadratic lower level with quadratic upper level, fully
  closed form (the workhorse for verification),
* the same lower level under a ``cosh`` upper level whose curvature grows
  with the gradient norm (a relaxed-smoothness stress case),
* a data-hypercleaning instance: per-sample weights on a corrupted logistic
  training set, scored on a clean validation set.

The first two differ only in the upper level's x-part: one builder,
:func:`_quadratic_problem`, states their lower level, closed forms and
constants.  Hypercleaning has no closed-form ground truth: it calls the
Newton solvers of :mod:`bilevelbench.verify`, which imports nothing from
this module.

Each family's ``solve`` and ``upper`` take one point or a stack of points
(see :class:`~bilevelbench.problem.BilevelProblem`).  The closed forms
evaluate a stack at once, through ``_mv`` and ``.sum(axis=-1)``;
hypercleaning's Newton solves run on a stack through its stacked ``lower_at``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import verify
from .constants import SmoothnessConstants
from .problem import (SIGMAS, BilevelProblem, ConfigurationError,
                      DeterministicOracle, LowerPoint, NoiseModel,
                      StochasticOracle, _mv)

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
        if not 0 <= self.r < math.inf:   # nan fails too
            raise ConfigurationError(f"r must be non-negative and finite, got {self.r}")

    @property
    def dim_y(self) -> int:
        return self.A.shape[0]

    @property
    def dim_x(self) -> int:
        return self.B.shape[1]


def _quadratic_problem(core: QuadraticSpec, noise: NoiseModel,
                       upper_x: Callable[[Vec], Vec],
                       grad_x_f: Callable[[Vec, Vec], Vec], *,
                       L_x0: float, L_x1: float, name: str,
                       metadata: dict) -> BilevelProblem:
    """The problem over the lower level of ``core`` with the upper level
    ``upper_x(x) + ||y - e||^2/2``, whose x-gradient ``grad_x_f`` ignores y.

    Both take one point or a stack.  Closed forms: ``y*(x) = A^-1 (Bx + c)``,
    ``z*(x) = A^-1 (y*(x) - e)``, hypergradient ``grad_x_f(x, y*) + B' z*``.
    Declared constants: ``mu`` and ``l_g1`` are the extreme eigenvalues of A.
    """
    a, b, c, e = core.A, core.B, core.c, core.e
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigurationError(f"A must be square, got shape {a.shape}")
    if not np.allclose(a, a.T, atol=1e-12):
        raise ConfigurationError("A must be symmetric")
    eigs = np.linalg.eigvalsh(a)
    if eigs[0] <= 0:
        raise ConfigurationError(
            f"A must be positive definite; eigenvalues {np.array2string(eigs, precision=6)}")
    mu, l_g1 = float(eigs[0]), float(eigs[-1])
    b_norm = float(np.linalg.norm(b, 2))
    if b_norm > l_g1 + 1e-12:
        raise ConfigurationError(
            f"||B|| = {b_norm:g} exceeds the declared lower-level smoothness "
            f"l_g1 = {l_g1:g}; rescale the coupling")
    a_inv = np.linalg.inv(a)
    # sup over [-1, 1]^dim_x of ||y*(x) - e||, via the operator-norm bound
    l_f0 = (float(np.linalg.norm(a_inv @ b, 2)) * math.sqrt(core.dim_x)
            + float(np.linalg.norm(a_inv @ c - e)))
    consts = SmoothnessConstants(
        mu=mu, l_g1=l_g1, l_g2=0.0, l_f0=l_f0,
        L_x0=L_x0, L_x1=L_x1, L_y0=1.0, L_y1=0.0,
        **{s: getattr(noise, s) for s in SIGMAS},
    )

    def lower(x: Vec, y: Vec) -> float:
        return float(0.5 * y @ (a @ y) - y @ (b @ x + c))

    def upper(x: Vec, y: Vec) -> float:
        v = upper_x(x) + 0.5 * ((y - e) ** 2).sum(axis=-1)
        # a Python float for one point; the array of a stack's values
        return float(v) if np.ndim(v) == 0 else v

    def grad_y_f(x: Vec, y: Vec) -> Vec:
        return y - e

    # the curvature is constant: every point shares its Hessian and products
    b_t, hess, hvp_yy = b.T, a.copy, a.dot

    def hvp_xy(z: Vec) -> Vec:
        return -b_t.dot(z)

    def lower_at(x: Vec):
        shift = b.dot(x) + c
        # LowerPoint._make without its length check: a point per iteration
        return lambda y: tuple.__new__(
            LowerPoint, (y, lambda: a.dot(y) - shift, hess, hvp_yy, hvp_xy))

    def solve(x: Vec) -> tuple[Vec, Vec, Vec]:
        ys = _mv(a_inv, _mv(b, x) + c)
        zs = _mv(a_inv, ys - e)
        return ys, zs, grad_x_f(x, ys) + _mv(b.T, zs)

    det = DeterministicOracle(grad_x_f, grad_y_f, lower_at)
    return BilevelProblem(
        dim_x=core.dim_x, dim_y=core.dim_y, upper=upper, lower=lower,
        det=det, oracle=StochasticOracle(det, noise),
        solve=solve,
        constants=consts, name=name, metadata=metadata,
    )


def make_quadratic(spec: QuadraticSpec, noise: NoiseModel = NoiseModel.noiseless(),
                   *, declared_L_x1: float = 0.0,
                   name: str = "quadratic") -> BilevelProblem:
    """Build the quadratic instance with full analytic ground truth.

    The upper level's x-part is ``r*||x||^2/2``, so the hypergradient is
    ``r x + B' z*(x)``.  ``declared_L_x1`` may be set above the true value
    0 to certify the instance under a nonzero gradient-growth coefficient
    (any such value is a valid upper bound); the warm-start thresholds are
    finite only then.
    """
    r = spec.r

    def grad_x_f(x: Vec, y: Vec) -> Vec:
        return r * x

    return _quadratic_problem(
        spec, noise, lambda x: 0.5 * r * (x ** 2).sum(axis=-1), grad_x_f,
        L_x0=r, L_x1=declared_L_x1, name=name, metadata={"kind": "quadratic"})


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
    # mu, then l_g1 and dim_y - 2 uniform draws between them when dim_y > 1
    eigs = np.array([mu]) if dim_y == 1 else np.concatenate(
        [[mu], rng.uniform(mu, l_g1, size=dim_y - 2), [l_g1]])
    a = q @ np.diag(eigs) @ q.T
    a = 0.5 * (a + a.T)
    b = rng.standard_normal((dim_y, dim_x))
    bn = np.linalg.norm(b, 2)
    if bn > 0:
        b *= 0.5 * l_g1 / bn
    return QuadraticSpec(A=a, B=b, c=rng.standard_normal(dim_y),
                         e=rng.standard_normal(dim_y), r=r)


def random_quadratic(dim_x: int, dim_y: int, seed: int) -> BilevelProblem:
    """The noiseless quadratic instance of :func:`random_quadratic_spec` at
    its default ``mu``, ``l_g1`` and ``r``."""
    spec = random_quadratic_spec(dim_x, dim_y, seed)
    return make_quadratic(spec, name=f"quadratic-{seed}")


@dataclass(frozen=True)
class UnboundedSmoothSpec:
    """Upper level sum_i cosh(a*x_i) - dim_x + ||y - e||^2/2 over a quadratic core.

    The upper-level curvature grows linearly with the gradient norm, so the
    instance exercises the relaxed-smoothness regime.
    """

    a: float
    core: QuadraticSpec

    def __post_init__(self) -> None:
        if not 0 < self.a < math.inf:   # nan fails too
            raise ConfigurationError(f"growth rate a must be positive and finite, got {self.a}")


def make_unbounded_smooth(spec: UnboundedSmoothSpec,
                          noise: NoiseModel = NoiseModel.noiseless()
                          ) -> BilevelProblem:
    """Build the cosh-upper-level instance with analytic ground truth.

    Evaluations with ``max|x_i| > 700/a`` raise OverflowError before cosh
    overflows double precision, and the check itself never overflows; for a
    stack, ``solve`` and ``upper`` check the whole stack once.
    """
    a_rate = spec.a
    x_max = 700.0 / a_rate

    def _guard(x: Vec) -> None:
        # hypot never overflows and is never below max|x_i|, so it clears a
        # short 1-D x only when every |x_i| < x_max (strict); past 16
        # coordinates, at about 20 ns each, the exact test is cheaper
        if x.ndim == 1 and x.size <= 16 and math.hypot(*x.tolist()) < x_max:
            return
        m = float(np.abs(x).max()) if x.size else 0.0
        if m > x_max:
            raise OverflowError(
                f"|x| up to {m:g} exceeds the cosh evaluation range {x_max:g}")

    def upper_x(x: Vec) -> Vec:
        _guard(x)
        return np.cosh(a_rate * x).sum(axis=-1) - x.shape[-1]

    def grad_x_f(x: Vec, y: Vec) -> Vec:
        _guard(x)
        return a_rate * np.sinh(a_rate * x)

    return _quadratic_problem(
        spec.core, noise, upper_x, grad_x_f, L_x0=a_rate ** 2, L_x1=a_rate,
        name="unbounded",
        metadata={"kind": "unbounded", "a": a_rate, "x_max": x_max})


# rows per slice of the stacked Hessian's (rows, n_train, feature_dim) product
_HESS_ROWS = 32
_ONE = np.array(1.0)


def _sigmoid_neg(u):
    """``sigmoid(-u) = 1 / (1 + exp(u))`` of an array, with one temporary."""
    e = np.exp(u)
    e += _ONE
    return np.divide(_ONE, e, out=e)


def sigmoid(v):
    return _sigmoid_neg(-v)


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
        if not 0 < self.reg < math.inf:   # nan fails too
            raise ConfigurationError(f"reg must be positive and finite, got {self.reg}")
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
    1e-10), one inner and one linear solve per point or per stack,
    uncached.  The lower level's derivatives are stated once, in
    ``lower_at(x)``, which evaluates ``sigmoid(x)`` and ``sigmoid(x) *
    lab_tr`` once; at each ``y`` it computes the margins,
    ``sigmoid(-margins)`` and ``sigmoid(margins)`` once for the gradient,
    the Hessian and the two Hessian-vector products.  The solvers iterate
    through it, the run loop's lower-level oracles read one point per
    iteration, and the pointwise maps of ``det`` read one point per call.
    ``lower_at``, its points, ``grad_y_f`` and ``upper`` take one point or
    a stack.  The inner solve's converged point serves the linear solve
    (its Hessian and residual check) and the hypergradient's mixed product,
    so one solve evaluates ``sigmoid(x)`` once.  The per-sample weights live
    in dimension ``n_train`` and are meant to be initialized at 1.0.
    """
    feats_tr, lab_tr, feats_val, lab_val, corrupted = _hyperclean_data(spec)
    lam = spec.reg
    # 0-d arrays: numpy applies them to an array faster than a Python float
    n_tr, n_val, two_lam = map(np.array, (float(spec.n_train), float(spec.n_val),
                                          2.0 * lam))
    reg_hess = two_lam * np.eye(spec.feature_dim)
    feats_tr_T = np.ascontiguousarray(feats_tr.T)

    def _margins(y: Vec) -> Vec:
        return lab_tr * _mv(feats_tr, y)

    # The lower-level derivatives from their shared pieces: ``sx =
    # sigmoid(x)``, ``sx_lab = sx * lab_tr``, and at y the margins ``m``,
    # ``s = sigmoid(-m)`` and ``sp = sigmoid(m)``.
    def _grad(sx_lab: Vec, s: Vec, y: Vec) -> Vec:
        return -_mv(feats_tr.T, sx_lab * s) / n_tr + two_lam * y

    def _hess(sx: Vec, sp: Vec, s: Vec) -> np.ndarray:
        # per row bit for bit (feats_tr.T * w) @ feats_tr, _HESS_ROWS rows at a
        # time: feats_tr * w is formed along n_train, the long axis, into one
        # C-ordered buffer, and matmul reads its transposed view, the layout
        # each row's BLAS call (and so its bits) depends on
        w = sx * sp * s
        rows = w.reshape(-1, 1, spec.n_train)
        h = np.empty((len(rows),) + reg_hess.shape)
        buf = np.empty((min(len(rows), _HESS_ROWS),) + feats_tr.shape)
        for i in range(0, len(rows), _HESS_ROWS):
            wi = rows[i:i + _HESS_ROWS]
            prod = np.multiply(feats_tr_T, wi, out=np.swapaxes(buf[:len(wi)], -1, -2))
            np.matmul(prod, feats_tr, out=h[i:i + _HESS_ROWS])
        return h.reshape(w.shape[:-1] + reg_hess.shape) / n_tr + reg_hess

    def _hvp_yy(sx: Vec, sp: Vec, s: Vec, z: Vec) -> Vec:
        return (_mv(feats_tr.T, sx * (sp * s) * _mv(feats_tr, z)) / n_tr
                + two_lam * z)

    def _hvp_xy(sx: Vec, s: Vec, z: Vec) -> Vec:
        return sx * (_ONE - sx) * (-(lab_tr * s) * _mv(feats_tr, z)) / n_tr

    def lower(x: Vec, y: Vec) -> float:
        losses = np.logaddexp(0.0, -_margins(y))
        return float(sigmoid(x) @ losses / n_tr + lam * np.sum(y ** 2))

    def upper(x: Vec, y: Vec) -> float:
        v = np.logaddexp(0.0, -lab_val * _mv(feats_val, y)).mean(axis=-1)
        return float(v) if v.ndim == 0 else v

    def lower_at(x: Vec):
        sx = sigmoid(x)
        sx_lab = sx * lab_tr

        def at(y: Vec) -> LowerPoint:
            m = _margins(y)
            s = _sigmoid_neg(m)
            sp = sigmoid(m)
            return LowerPoint(y, grad=lambda: _grad(sx_lab, s, y),
                              hess=lambda: _hess(sx, sp, s),
                              hvp_yy=lambda z: _hvp_yy(sx, sp, s, z),
                              hvp_xy=lambda z: _hvp_xy(sx, s, z))
        return at

    def grad_x_f(x: Vec, y: Vec) -> Vec:
        return np.zeros(spec.n_train)

    def grad_y_f(x: Vec, y: Vec) -> Vec:
        s = _sigmoid_neg(lab_val * _mv(feats_val, y))
        return -_mv(feats_val.T, lab_val * s) / n_val

    tr_norms = np.linalg.norm(feats_tr, axis=1)
    val_norms = np.linalg.norm(feats_val, axis=1)
    consts = SmoothnessConstants(
        mu=2.0 * lam,
        l_g1=0.25 * float(np.mean(tr_norms ** 2)) + 2.0 * lam,
        # third-derivative bound of the logistic loss is 1/(6*sqrt(3))
        l_g2=float(np.mean(tr_norms ** 3)) / (6.0 * math.sqrt(3.0))
        + 0.0625 * float(np.mean(tr_norms ** 2)),
        l_f0=float(np.mean(val_norms)),
        L_x0=0.0, L_x1=0.0,
        L_y0=0.25 * float(np.mean(val_norms ** 2)), L_y1=0.0,
        **{s: getattr(noise, s) for s in SIGMAS},
    )

    # The ground truth from the deterministic solvers, read as module
    # attributes at each call so that a wrapper patched onto them sees every
    # solve.
    settings = verify.SolverSettings(tol=1e-10, max_iters=200)

    def solve(x: Vec) -> tuple[Vec, Vec, Vec]:
        point = verify.inner_solve_exact(problem, x, settings)
        zs = verify.solve_linear_system_exact(problem, x, point, settings)
        return point.y, zs, grad_x_f(x, point.y) - point.hvp_xy(zs)

    det = DeterministicOracle(grad_x_f, grad_y_f, lower_at)
    problem = BilevelProblem(
        dim_x=spec.n_train, dim_y=spec.feature_dim, upper=upper, lower=lower,
        det=det, oracle=StochasticOracle(det, noise),
        solve=solve,
        constants=consts, name="hyperclean",
        # per-sample weights start at 1.0; model parameters at zero
        metadata={"kind": "hyperclean", "corrupted_indices": corrupted,
                  "x0_default": 1.0, "y0_default": 0.0},
    )
    return problem

