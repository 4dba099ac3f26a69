import hashlib
import math

import numpy as np
import pytest

import bilevelbench as bb
from bilevelbench import synthetic, verify
from bilevelbench.synthetic import random_quadratic_spec, sigmoid
from bilevelbench.verify import SolverSettings, finite_diff_hypergrad


class TestQuadratic:
    def test_q2_y_star_at_origin(self, q2):
        np.testing.assert_allclose(q2.solve(np.zeros(2))[0],
                                   np.zeros(2), atol=1e-15)

    def test_q2_hypergrad_formula(self, q2):
        # hand-derived closed form for this instance: (5/4) x - e/2
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.uniform(-2, 2, 2)
            np.testing.assert_allclose(q2.solve(x)[2],
                                       1.25 * x - 0.5, atol=1e-14)
        np.testing.assert_allclose(q2.solve(np.zeros(2))[2],
                                   [-0.5, -0.5], atol=1e-15)

    def test_q2_minimizer(self, q2):
        xstar = np.array([0.4, 0.4])
        np.testing.assert_allclose(q2.solve(xstar)[2], np.zeros(2),
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
                g = prob.det.grad_y_g(x, prob.solve(x)[0])
                assert np.linalg.norm(g) <= 1e-9

    def test_finite_diff_matches_analytic(self):
        rng = np.random.default_rng(11)
        for seed in (0, 1):
            prob = bb.random_quadratic(2, 3, seed=seed)
            for _ in range(5):
                x = rng.uniform(-1, 1, 2)
                fd = finite_diff_hypergrad(prob, x, h=1e-5)
                exact = prob.solve(x)[2]
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

    def test_overflow_guard_edges(self):
        # the math.hypot shortcut clears a point only strictly inside the bound
        prob = self.make(a=1.0)
        x_max = prob.metadata["x_max"]
        prob.det.grad_x_f(np.array([x_max, 0.0]), np.zeros(2))
        for v in (np.nextafter(x_max, np.inf), -np.nextafter(x_max, np.inf), np.inf):
            with pytest.raises(OverflowError, match="exceeds the cosh evaluation range"):
                prob.det.grad_x_f(np.array([0.0, v]), np.zeros(2))
        assert np.isnan(prob.det.grad_x_f(np.array([np.nan, 0.0]), np.zeros(2))[0])

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

    @pytest.mark.parametrize("dim", [2, 16, 64])
    @pytest.mark.parametrize("call", ["grad_x_f", "upper"])
    def test_overflow_guard_never_overflows_itself(self, dim, call):
        # a coordinate whose square overflows still gets the guard's own
        # OverflowError, not a numpy overflow warning (an error under the
        # warnings filter the tests run with)
        prob = bb.make_unbounded_smooth(bb.UnboundedSmoothSpec(
            a=1.0, core=random_quadratic_spec(dim, dim, seed=3)))
        fn = prob.det.grad_x_f if call == "grad_x_f" else prob.upper
        x_max = prob.metadata["x_max"]
        for v in (1e200, -1e200, np.finfo(float).max, np.nextafter(x_max, np.inf)):
            x = np.full(dim, 1.0)
            x[dim // 2] = v
            with pytest.raises(OverflowError, match="exceeds the cosh evaluation range"):
                fn(x, np.zeros(dim))
        x = np.zeros(dim)
        x[dim // 2] = x_max
        fn(x, np.zeros(dim))   # on the bound: no raise

    def test_finite_diff_matches_analytic(self):
        prob = self.make(a=1.3)
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, 2)
            fd = finite_diff_hypergrad(prob, x, h=1e-5)
            exact = prob.solve(x)[2]
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
        assert sigmoid(np.array([1.0]))[0] == pytest.approx(0.7310585786300049,
                                                            abs=1e-15)

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
        assert probe_strong_convexity(prob, 300, seed=0) <= 1e-9

    def test_solver_backed_ground_truth(self):
        prob = bb.make_hyperclean(bb.HypercleanSpec(
            n_train=30, n_val=30, feature_dim=3, corruption_rate=0.1, seed=4))
        x = np.ones(30)
        ys = prob.solve(x)[0]
        assert np.linalg.norm(prob.det.grad_y_g(x, ys)) <= 1e-10
        zs = prob.solve(x)[1]
        res = prob.det.lower_at(x)(ys).hvp_yy(zs) - prob.det.grad_y_f(x, ys)
        assert np.linalg.norm(res) <= 1e-10
        fd = finite_diff_hypergrad(prob, x, h=1e-4,
                                   settings=SolverSettings(tol=1e-11))
        exact = prob.solve(x)[2]
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
        worst = probe_strong_convexity(prob, 1000, seed=17)
        assert worst <= 1e-9, (prob.name, worst)


# the hyperclean instance of configs/hyperclean_slip.cfg
SHIPPED_HYPERCLEAN = bb.HypercleanSpec(
    n_train=200, n_val=200, feature_dim=5, corruption_rate=0.2, reg=0.1, seed=7)


def _central_diff(f, v, h=1e-5):
    """Central differences of ``f`` at ``v``, one row per coordinate of ``v``."""
    return np.array([(f(v + d) - f(v - d)) / (2 * h) for d in h * np.eye(len(v))])


@pytest.mark.parametrize("prob", [
    bb.make_q2(),
    bb.random_quadratic(3, 4, seed=2),
    bb.make_unbounded_smooth(bb.UnboundedSmoothSpec(
        a=1.0, core=random_quadratic_spec(3, 4, seed=5, r=0.0))),
    bb.make_hyperclean(SHIPPED_HYPERCLEAN),
], ids=lambda prob: prob.name)
def test_lower_at_matches_finite_differences(prob):
    # each family states its lower-level derivatives once, in lower_at: check
    # them against differences of the objective g and of the gradient itself
    rng = np.random.default_rng(23)
    for _ in range(4):
        x = rng.uniform(-2, 2, prob.dim_x)
        lower = prob.det.lower_at(x)
        for _ in range(3):
            y = rng.standard_normal(prob.dim_y)
            z = rng.standard_normal(prob.dim_y)
            point = lower(y)
            assert point.y is y
            g = point.grad()
            fd_g = _central_diff(lambda w: prob.lower(x, w), y)
            assert np.linalg.norm(g - fd_g) <= 1e-8 * max(1.0, np.linalg.norm(g))
            h = point.hess()
            assert np.abs(h - h.T).max() <= 1e-12 * np.abs(h).max()
            fd_h = _central_diff(lambda w: lower(w).grad(), y)
            assert np.abs(h - fd_h).max() <= 1e-8 * np.abs(h).max()
            hz = point.hvp_yy(z)
            assert np.linalg.norm(h @ z - hz) <= 1e-12 * np.linalg.norm(hz)
            # the mixed block: d/dx <grad_y g(x, y), z>
            hxy = point.hvp_xy(z)
            fd_xy = _central_diff(lambda v: prob.det.lower_at(v)(y).grad(), x) @ z
            assert np.linalg.norm(hxy - fd_xy) <= 1e-8 * max(1.0, np.linalg.norm(hxy))


def test_hyperclean_solve_evaluates_sigmoid_x_once(monkeypatch):
    """One ``problem.solve`` binds ``x`` once, in the inner solve, whose
    converged point serves the linear solve and the hypergradient.  The
    inner solve takes three Newton steps here, so its four points make
    eight calls on the margins; with the one on ``x`` and the one in the
    validation gradient that is 10."""
    prob = bb.make_hyperclean(SHIPPED_HYPERCLEAN)
    x = np.ones(prob.dim_x)
    on_x, evaluations = [], []
    logistic = synthetic._sigmoid_neg

    def counting(v):
        on_x.append(v is x)
        return sigmoid(v)

    def counting_all(u):
        evaluations.append(1)
        return logistic(u)

    monkeypatch.setattr(synthetic, "sigmoid", counting)
    # every logistic evaluation, sigmoid(v) = _sigmoid_neg(-v) among them
    monkeypatch.setattr(synthetic, "_sigmoid_neg", counting_all)
    prob.solve(x)
    assert sum(on_x) == 1
    assert len(evaluations) == 10


@pytest.mark.parametrize("shape", [(7,), (3, 7)], ids=["1-D", "stack"])
def test_sigmoid_is_the_plain_formula(shape):
    """``sigmoid`` and ``_sigmoid_neg``, which make one temporary, give bit
    for bit the textbook expression, types included."""
    values = [800.0, -800.0, 0.0, -0.0, np.inf, -np.inf, np.nan, 3.5, -1e-300]
    size = math.prod(shape)
    points = [np.resize(np.roll(values, i), size).reshape(shape)
              for i in range(len(values))]
    with np.errstate(over="ignore"):
        for v in points:
            want = 1.0 / (1.0 + np.exp(-v))
            for got in (sigmoid(v), synthetic._sigmoid_neg(-v)):
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("kind", ["q2", "random", "cosh"])
def test_closed_forms_of_one_point_are_the_matrix_products(kind):
    """For one point, ``solve`` and ``upper`` give bit for bit the closed
    forms written with ``@`` and whole-vector sums; the stacked path goes
    through ``matmul`` over a leading axis and ``.sum(axis=-1)``."""
    a_rate = 1.0 if kind == "cosh" else None
    spec = {"q2": bb.q2_spec, "random": lambda: random_quadratic_spec(3, 5, 4),
            "cosh": lambda: random_quadratic_spec(16, 16, 7, r=0.0)}[kind]()
    prob = (bb.make_unbounded_smooth(bb.UnboundedSmoothSpec(a=a_rate, core=spec))
            if a_rate else bb.make_quadratic(spec))
    a_inv = np.linalg.inv(spec.A)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(spec.dim_x)
        y = rng.standard_normal(spec.dim_y)
        ys = a_inv @ (spec.B @ x + spec.c)
        zs = a_inv @ (ys - spec.e)
        if a_rate:
            gphi = a_rate * np.sinh(a_rate * x) + spec.B.T @ zs
            phi = float(np.cosh(a_rate * x).sum() - x.shape[0]
                        + 0.5 * ((y - spec.e) ** 2).sum())
        else:
            gphi = spec.r * x + spec.B.T @ zs
            phi = float(0.5 * ((y - spec.e) ** 2).sum()
                        + 0.5 * spec.r * (x ** 2).sum())
        for got, want in zip(prob.solve(x), (ys, zs, gphi)):
            np.testing.assert_array_equal(got, want)
        value = prob.upper(x, y)
        assert type(value) is float and value == phi


def test_hyperclean_stack_is_solved_row_by_row():
    prob = bb.make_hyperclean(bb.HypercleanSpec(
        n_train=30, n_val=30, feature_dim=3, corruption_rate=0.2, seed=5))
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, prob.dim_x))
    y = rng.standard_normal((3, prob.dim_y))
    stacked = prob.solve(x)
    assert [a.shape for a in stacked] == [(3, 3), (3, 3), (3, 30)]
    for i in range(3):
        for got, want in zip(stacked, prob.solve(x[i])):
            np.testing.assert_array_equal(got[i], want)
    assert prob.upper(x, y).tolist() == [prob.upper(*row) for row in zip(x, y)]


@pytest.mark.parametrize("spec", [
    SHIPPED_HYPERCLEAN,
    bb.HypercleanSpec(n_train=30, n_val=30, feature_dim=3, corruption_rate=0.2,
                      seed=5)], ids=["200x5", "30x3"])
def test_hyperclean_long_stacks_are_row_by_row(spec):
    """One Newton stack of 200 rows, and a 70-row Hessian formed 32 rows at
    a time, give each row's bytes alone."""
    prob = bb.make_hyperclean(spec)
    rng = np.random.default_rng(8)
    x = rng.uniform(-2.0, 2.0, (200, prob.dim_x))
    stacked = prob.solve(x)
    for i in range(len(x)):
        for got, want in zip(stacked, prob.solve(x[i])):
            assert got[i].tobytes() == want.tobytes()
    y = rng.standard_normal((70, prob.dim_y))
    hess = prob.det.lower_at(x[:70])(y).hess()
    assert hess.shape == (70, prob.dim_y, prob.dim_y)
    for i in range(70):
        assert hess[i].tobytes() == prob.det.lower_at(x[i])(y[i]).hess().tobytes()


@pytest.mark.parametrize("height", [1, 31, 32, 33, 80, 128])
def test_hyperclean_stacked_hessian_is_each_rows_own(height):
    """A stacked ``hess()`` reuses one buffer per 32-row slice and ends on a
    partial slice; each row still has the bytes of its own single-row
    Hessian."""
    prob = bb.make_hyperclean(SHIPPED_HYPERCLEAN)
    rng = np.random.default_rng(height)
    x = rng.uniform(-2.0, 2.0, (height, prob.dim_x))
    y = rng.standard_normal((height, prob.dim_y))
    hess = prob.det.lower_at(x)(y).hess()
    assert hess.shape == (height, prob.dim_y, prob.dim_y)
    for i in range(height):
        alone = prob.det.lower_at(x[i])(y[i]).hess()
        assert alone.shape == (prob.dim_y, prob.dim_y)
        assert hess[i].tobytes() == alone.tobytes()


def test_hyperclean_block_is_one_solve(monkeypatch):
    # a 128-row block takes one solve of each kind, not 128
    prob = bb.make_hyperclean(SHIPPED_HYPERCLEAN)
    calls = {"inner_solve_exact": 0, "solve_linear_system_exact": 0}

    def counting(name):
        solver = getattr(verify, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return solver(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(verify, name, counting(name))
    x = np.random.default_rng(3).uniform(-2.0, 2.0, (128, prob.dim_x))
    assert [a.shape[0] for a in prob.solve(x)] == [128, 128, 128]
    assert calls == {"inner_solve_exact": 1, "solve_linear_system_exact": 1}


# sha256 digests of each instance family's oracle outputs and ground truth,
# pinned bit for bit.  Per noise model: the five stochastic oracles at five
# fixed ``(x, y, z, Sample)`` points, drawn so that the bounded model both
# clips and keeps draws.  "truth": ``solve`` and ``upper`` on a stack of
# the five points, ``lower`` and the ``lower_at`` view at each of them.
_PIN_INSTANCES = {
    "q2": lambda noise: bb.make_q2(noise),
    "quadratic-r1": lambda noise: bb.make_quadratic(
        random_quadratic_spec(3, 4, seed=21, r=1.0), noise),
    "cosh": lambda noise: bb.make_unbounded_smooth(bb.UnboundedSmoothSpec(
        a=0.8, core=random_quadratic_spec(4, 3, seed=22)), noise),
    "hyperclean": lambda noise: bb.make_hyperclean(bb.HypercleanSpec(
        n_train=30, n_val=30, feature_dim=3, corruption_rate=0.2, seed=23),
        noise),
}
_PIN_NOISE = {
    "gaussian": bb.NoiseModel.gaussian(0.3, 0.2, 0.4),
    "bounded": bb.NoiseModel.bounded(0.3, 0.2, 0.4, 0.25),
}
_PIN_DIGESTS = {
    "q2": {
        "gaussian": "9ea060a790faf5672b776895784603432bf93da39a02518c2ce67bf67a806e8a",
        "bounded": "c2a10f464001da81ac07ed12b05ef26a7d4390e6febb3b2c6bef1757000d2b6d",
        "truth": "25dfa2bf270e1d150b6347a189d8985d6fdc18c999b75b913f258d4b9f39828e",
    },
    "quadratic-r1": {
        "gaussian": "282014792ee17d41e836a78aa7d15fea75081db3e95b77ef323a4f088a8c71bb",
        "bounded": "87a5bb2a1af9c6d00c1176ada8177aef0b7bfa29433063cfa8b55e4661235165",
        "truth": "bb1966516170fd2cef23b29e00721474ead080f48aea06c468b85488bd6c654b",
    },
    "cosh": {
        "gaussian": "24addb698c6e2d39c20c027bcadd6099c09ea432af1a9f0299f76d542c0cad7c",
        "bounded": "805303d92f677e38bae1a5f1c014cdb5d09cb1d8a9bb8301821cad81af4bb297",
        "truth": "6a2254101ce5aa1ccc48c0a028154436f0f29af8d9a1acca314453271066a3b0",
    },
    "hyperclean": {
        "gaussian": "b24a98815a5957662caa6740d8b11605654182a1636ef0b0bcaaaa420e5bbb21",
        "bounded": "54bf396653b98383618eec7611c8d858ae21e7876eb0110a7777782cc9ab7091",
        "truth": "44ce1414a79c20c8c8f1ca579125eb527947a17ba6ab6e3a9bde388486fc3580",
    },
}


def _pin_points(prob):
    rng = np.random.default_rng(24)
    x = rng.uniform(-1.0, 1.0, (5, prob.dim_x))
    y = rng.standard_normal((5, prob.dim_y))
    z = rng.standard_normal((5, prob.dim_y))
    return x, y, z


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype=float).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(_PIN_INSTANCES))
def test_problem_layer_is_pinned_bit_for_bit(name):
    got = {}
    for kind, noise in _PIN_NOISE.items():
        prob = _PIN_INSTANCES[name](noise)
        o = prob.oracle
        # the lower-level oracles from their maps, and from the loop's point
        out, via_point = [], []
        for k, (x, y, z) in enumerate(zip(*_pin_points(prob))):
            s = bb.Sample(bb.Stream.PI, k, 31)
            point = prob.det.lower_at(x)(y)
            for dest, p in ((out, None), (via_point, point)):
                # without a point, grad_y_G reads its own; the products
                # always take one, here a fresh one
                q = prob.det.lower_at(x)(y) if p is None else p
                dest += [o.grad_x_F(x, y, s), o.grad_y_F(x, y, s),
                         o.grad_y_G(x, y, s, p), o.hvp_xy_G(x, y, z, s, q),
                         o.hvp_yy_G(x, y, z, s, q)]
        got[kind] = _digest(out)
        assert _digest(via_point) == got[kind], kind
    prob = _PIN_INSTANCES[name](bb.NoiseModel.noiseless())
    x, y, z = _pin_points(prob)
    out = [*prob.solve(x), prob.upper(x, y)]
    for xi, yi, zi in zip(x, y, z):
        point = prob.det.lower_at(xi)(yi)
        out += [prob.lower(xi, yi), prob.upper(xi, yi), point.grad(),
                point.hess(), point.hvp_yy(zi), point.hvp_xy(zi)]
    got["truth"] = _digest(out)
    assert got == _PIN_DIGESTS[name]
