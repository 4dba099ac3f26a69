import math

import numpy as np
import pytest

import bilevelbench as bb
from bilevelbench import synthetic
from bilevelbench.synthetic import random_quadratic_spec, sigmoid
from bilevelbench.verify import SolverSettings, finite_diff_hypergrad


class TestQuadratic:
    def test_q2_y_star_at_origin(self, q2):
        np.testing.assert_allclose(q2.analytic.y_star(np.zeros(2)),
                                   np.zeros(2), atol=1e-15)

    def test_q2_hypergrad_formula(self, q2):
        # hand-derived closed form for this instance: (5/4) x - e/2
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.uniform(-2, 2, 2)
            np.testing.assert_allclose(q2.analytic.hypergrad(x),
                                       1.25 * x - 0.5, atol=1e-14)
        np.testing.assert_allclose(q2.analytic.hypergrad(np.zeros(2)),
                                   [-0.5, -0.5], atol=1e-15)

    def test_q2_minimizer(self, q2):
        xstar = np.array([0.4, 0.4])
        np.testing.assert_allclose(q2.analytic.hypergrad(xstar), np.zeros(2),
                                   atol=1e-14)

    def test_declared_constants(self, q2):
        c = q2.constants
        assert c.mu == 2.0 and c.l_g1 == 2.0 and c.l_g2 == 0.0
        assert c.L_x0 == 1.0 and c.L_y0 == 1.0

    def test_non_spd_rejected(self):
        spec = bb.QuadraticSpec(A=np.array([[1.0, 0.0], [0.0, -1.0]]),
                                B=np.eye(2), c=np.zeros(2), e=np.zeros(2))
        with pytest.raises(bb.ConfigurationError, match="eigenvalues"):
            bb.make_quadratic(spec)

    def test_asymmetric_rejected(self):
        spec = bb.QuadraticSpec(A=np.array([[1.0, 0.5], [0.0, 1.0]]),
                                B=np.eye(2), c=np.zeros(2), e=np.zeros(2))
        with pytest.raises(bb.ConfigurationError, match="symmetric"):
            bb.make_quadratic(spec)

    def test_grad_at_y_star_vanishes(self):
        for seed in range(5):
            prob = bb.random_quadratic(3, 4, seed=seed)
            rng = np.random.default_rng(seed + 100)
            for _ in range(20):
                x = rng.uniform(-2, 2, 3)
                g = prob.det.grad_y_g(x, prob.analytic.y_star(x))
                assert np.linalg.norm(g) <= 1e-9

    def test_finite_diff_matches_analytic(self):
        rng = np.random.default_rng(11)
        for seed in (0, 1):
            prob = bb.random_quadratic(2, 3, seed=seed)
            for _ in range(5):
                x = rng.uniform(-1, 1, 2)
                fd = finite_diff_hypergrad(prob, x, h=1e-5)
                exact = prob.analytic.hypergrad(x)
                denom = max(1e-12, np.linalg.norm(exact))
                assert np.linalg.norm(fd - exact) / denom <= 1e-4


class TestUnboundedSmooth:
    def make(self, a=1.0):
        return bb.make_unbounded_smooth(
            bb.UnboundedSmoothSpec(a=a, core=bb.q2_spec()))

    def test_cosh_vanishes_at_origin(self):
        prob = self.make()
        y = np.array([0.3, -0.4])
        # upper(0, y) reduces to the pure tracking term
        assert prob.upper(np.zeros(2), y) == pytest.approx(
            0.5 * np.sum((y - 1.0) ** 2), abs=1e-15)
        np.testing.assert_array_equal(prob.det.grad_x_f(np.zeros(2), y),
                                      np.zeros(2))

    def test_sinh_value(self):
        prob = self.make()
        g = prob.det.grad_x_f(np.array([1.0, 0.0]), np.zeros(2))
        assert g[0] == pytest.approx(math.sinh(1.0), abs=1e-12)
        assert g[0] == pytest.approx(1.17520, abs=1e-5)

    def test_local_smoothness_ratio_bounded(self):
        # second derivative a^2 cosh(ax) vs a^2 + a * |gradient| on a grid
        a = 1.5
        for xv in np.linspace(-5, 5, 201):
            hess = a * a * math.cosh(a * xv)
            grad = a * math.sinh(a * xv)
            assert hess <= a * a + a * abs(grad) + 1e-12

    def test_overflow_guard(self):
        prob = self.make(a=1.0)
        bad = np.array([701.0, 0.0])
        with pytest.raises(OverflowError):
            prob.upper(bad, np.zeros(2))
        with pytest.raises(OverflowError):
            prob.det.grad_x_f(bad, np.zeros(2))
        prob2 = self.make(a=2.0)
        with pytest.raises(OverflowError):
            prob2.upper(np.array([351.0, 0.0]), np.zeros(2))

    def test_finite_diff_matches_analytic(self):
        prob = self.make(a=1.3)
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, 2)
            fd = finite_diff_hypergrad(prob, x, h=1e-5)
            exact = prob.analytic.hypergrad(x)
            assert (np.linalg.norm(fd - exact)
                    / max(1e-12, np.linalg.norm(exact))) <= 1e-4


class TestHyperclean:
    def test_no_corruption(self):
        prob = bb.make_hyperclean(bb.HypercleanSpec(
            n_train=50, n_val=30, feature_dim=3, corruption_rate=0.0, seed=1))
        assert len(prob.metadata["corrupted_indices"]) == 0

    def test_exact_flip_count(self):
        prob = bb.make_hyperclean(bb.HypercleanSpec(
            n_train=200, n_val=50, feature_dim=3, corruption_rate=0.2, seed=7))
        assert len(prob.metadata["corrupted_indices"]) == 40

    def test_sigmoid_value(self):
        assert sigmoid(1.0) == pytest.approx(0.7310585786300049, abs=1e-15)

    def test_rate_out_of_range(self):
        with pytest.raises(bb.ConfigurationError):
            bb.HypercleanSpec(n_train=10, n_val=10, feature_dim=2,
                              corruption_rate=1.5, seed=0)

    def test_strong_convexity_with_2lambda(self):
        from bilevelbench.verify import probe_strong_convexity

        lam = 0.1
        prob = bb.make_hyperclean(bb.HypercleanSpec(
            n_train=40, n_val=40, feature_dim=3, corruption_rate=0.2,
            reg=lam, seed=2))
        assert prob.constants.mu == pytest.approx(2 * lam)
        assert probe_strong_convexity(prob, 2 * lam, 300, seed=0) <= 1e-9

    def test_solver_backed_ground_truth(self):
        prob = bb.make_hyperclean(bb.HypercleanSpec(
            n_train=30, n_val=30, feature_dim=3, corruption_rate=0.1, seed=4))
        x = np.ones(30)
        ys = prob.analytic.y_star(x)
        assert np.linalg.norm(prob.det.grad_y_g(x, ys)) <= 1e-10
        zs = prob.analytic.solve(x)[1]
        res = prob.det.hvp_yy_g(x, ys, zs) - prob.det.grad_y_f(x, ys)
        assert np.linalg.norm(res) <= 1e-10
        fd = finite_diff_hypergrad(prob, x, h=1e-4,
                                   settings=SolverSettings(tol=1e-11))
        exact = prob.analytic.hypergrad(x)
        assert (np.linalg.norm(fd - exact)
                / max(1e-12, np.linalg.norm(exact))) <= 1e-3


def test_strong_convexity_probe_all_instances():
    from bilevelbench.verify import probe_strong_convexity

    core = bb.q2_spec()
    instances = [
        bb.make_q2(),
        bb.make_unbounded_smooth(bb.UnboundedSmoothSpec(a=1.0, core=core)),
        bb.make_hyperclean(bb.HypercleanSpec(n_train=40, n_val=40,
                                             feature_dim=3,
                                             corruption_rate=0.25, seed=3)),
    ]
    for prob in instances:
        worst = probe_strong_convexity(prob, prob.constants.mu, 1000, seed=17)
        assert worst <= 1e-9, (prob.name, worst)


# the hyperclean instance of configs/hyperclean_slip.cfg
SHIPPED_HYPERCLEAN = bb.HypercleanSpec(
    n_train=200, n_val=200, feature_dim=5, corruption_rate=0.2, reg=0.1, seed=7)


@pytest.mark.parametrize("prob", [
    bb.make_q2(),
    bb.random_quadratic(3, 4, seed=2),
    bb.make_unbounded_smooth(bb.UnboundedSmoothSpec(
        a=1.0, core=random_quadratic_spec(3, 4, seed=5, r=0.0))),
    bb.make_hyperclean(SHIPPED_HYPERCLEAN),
], ids=lambda prob: prob.name)
def test_lower_at_agrees_with_the_pointwise_maps(prob):
    rng = np.random.default_rng(23)
    for _ in range(4):
        x = rng.uniform(-2, 2, prob.dim_x)
        lower = prob.det.lower_at(x)
        for _ in range(3):
            y = rng.standard_normal(prob.dim_y)
            z = rng.standard_normal(prob.dim_y)
            point = lower(y)
            np.testing.assert_array_equal(point.grad(), prob.det.grad_y_g(x, y))
            h = point.hess()
            hz = prob.det.hvp_yy_g(x, y, z)
            assert np.linalg.norm(h @ z - hz) <= 1e-12 * np.linalg.norm(hz)
            assert np.abs(h - h.T).max() <= 1e-12 * np.abs(h).max()


def test_hyperclean_solve_evaluates_sigmoid_x_once_per_solver(monkeypatch):
    """One ``analytic.solve`` binds ``x`` once in each Newton solver; the
    residual check (``hvp_yy_g``) and the hypergradient (``hvp_xy_g``) take
    one evaluation each.  The inner solve takes three Newton steps here, so
    one evaluation per gradient and per Hessian would make 10."""
    prob = bb.make_hyperclean(SHIPPED_HYPERCLEAN)
    x = np.ones(prob.dim_x)
    on_x = []

    def counting(v):
        on_x.append(v is x)
        return sigmoid(v)

    monkeypatch.setattr(synthetic, "sigmoid", counting)
    prob.analytic.solve(x)
    assert sum(on_x) == 4
