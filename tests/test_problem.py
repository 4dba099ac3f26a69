import math

import numpy as np
import pytest

import bilevelbench as bb
from bilevelbench.problem import DeterministicOracle, LowerPoint, _mv
from bilevelbench.synthetic import _hyperclean_data, random_quadratic_spec
from bilevelbench.verify import empirical_unbiasedness_check
from bilevelbench.samples import Sample, Stream


def s_xi_prime(counter=0, seed=0):
    return Sample(Stream.XI_PRIME, counter, seed)


def s_zeta_prime(counter=0, seed=0):
    return Sample(Stream.ZETA_PRIME, counter, seed)


class TestHypergradEstimate:
    def test_at_exact_solution(self, q2):
        # chain-rule oracle, written out: r*x + B' A^-1 (A^-1 (Bx+c) - e)
        spec = bb.q2_spec()
        x = np.zeros(2)
        a_inv = np.linalg.inv(spec.A)
        ystar = a_inv @ (spec.B @ x + spec.c)
        zstar = a_inv @ (ystar - spec.e)
        expected = spec.r * x + spec.B.T @ zstar
        np.testing.assert_allclose(expected, [-0.5, -0.5], atol=1e-15)
        est = bb.hypergrad_estimate(x, ystar, zstar, s_xi_prime(),
                                    s_zeta_prime(), q2.oracle)
        np.testing.assert_allclose(est, expected, atol=1e-15)

    def test_zero_z_gives_grad_x(self, q2):
        x = np.array([0.3, -0.7])
        y = np.array([0.2, 0.5])
        est = bb.hypergrad_estimate(x, y, np.zeros(2), s_xi_prime(),
                                    s_zeta_prime(), q2.oracle)
        np.testing.assert_array_equal(est, q2.det.grad_x_f(x, y))

    def test_off_solution_point(self, q2):
        # evaluate the two oracle terms independently: grad_x f(0,(1,1)) = 0
        # and the mixed product (-I)z, so the estimate is 0 - (-I)z = z... with
        # the sign of the subtraction: 0 - (0.5, 0.5)
        x = np.zeros(2)
        y = np.ones(2)
        z = np.array([-0.5, -0.5])
        term1 = q2.det.grad_x_f(x, y)
        term2 = q2.det.hvp_xy_g(x, y, z)
        np.testing.assert_array_equal(term1, [0.0, 0.0])
        np.testing.assert_array_equal(term2, [0.5, 0.5])
        est = bb.hypergrad_estimate(x, y, z, s_xi_prime(), s_zeta_prime(),
                                    q2.oracle)
        np.testing.assert_allclose(est, term1 - term2, atol=1e-15)
        np.testing.assert_allclose(est, [-0.5, -0.5], atol=1e-15)

    def test_wrong_stream_rejected(self, q2):
        with pytest.raises(bb.ConfigurationError):
            bb.hypergrad_estimate(np.zeros(2), np.zeros(2), np.zeros(2),
                                  Sample(Stream.XI, 0, 0), s_zeta_prime(),
                                  q2.oracle)
        with pytest.raises(bb.ConfigurationError):
            bb.hypergrad_estimate(np.zeros(2), np.zeros(2), np.zeros(2),
                                  s_xi_prime(), Sample(Stream.ZETA, 0, 0),
                                  q2.oracle)

    def test_dimension_mismatch_rejected(self, q2):
        with pytest.raises(bb.ConfigurationError):
            bb.hypergrad_estimate(np.zeros(2), np.zeros(3), np.zeros(2),
                                  s_xi_prime(), s_zeta_prime(), q2.oracle)

    def test_oracle_output_shapes_must_agree(self, q2):
        class Short(bb.StochasticOracle):
            def hvp_xy_G(self, x, y, z, sample, point=None):
                return super().hvp_xy_G(x, y, z, sample, point)[:-1]

        with pytest.raises(bb.ConfigurationError, match=r"\(2,\) vs \(1,\)"):
            bb.hypergrad_estimate(np.zeros(2), np.zeros(2), np.zeros(2),
                                  s_xi_prime(), s_zeta_prime(),
                                  Short(q2.det, q2.oracle.noise))


class TestPurity:
    def test_noisy_oracles_pure(self, q2_gauss):
        x, y, z = np.array([0.1, 0.2]), np.array([-0.3, 0.4]), np.array([1.0, -1.0])
        s = Sample(Stream.PI, 5, 99)
        a = q2_gauss.oracle.grad_y_G(x, y, s)
        b = q2_gauss.oracle.grad_y_G(x, y, s)
        assert np.array_equal(a, b)
        s2 = Sample(Stream.ZETA, 5, 99)
        assert np.array_equal(q2_gauss.oracle.hvp_yy_G(x, y, z, s2),
                              q2_gauss.oracle.hvp_yy_G(x, y, z, s2))

    def test_distinct_counters_differ(self, q2_gauss):
        x, y = np.zeros(2), np.zeros(2)
        a = q2_gauss.oracle.grad_y_G(x, y, Sample(Stream.PI, 0, 99))
        b = q2_gauss.oracle.grad_y_G(x, y, Sample(Stream.PI, 1, 99))
        assert not np.array_equal(a, b)


class TestNoiseModels:
    def test_gaussian_variance_calibration(self):
        prob = bb.make_q2(bb.NoiseModel.gaussian(0.0, 0.5, 0.0))
        x, y = np.zeros(2), np.zeros(2)
        det = prob.det.grad_y_g(x, y)
        sq = [
            float(np.sum((prob.oracle.grad_y_G(x, y, Sample(Stream.PI, i, 4))
                          - det) ** 2))
            for i in range(4000)
        ]
        # E||noise||^2 should equal sigma^2 = 0.25
        assert abs(np.mean(sq) - 0.25) < 0.02

    def test_bounded_draws_respect_bounds(self):
        prob = bb.make_q2(bb.NoiseModel.bounded(0.2, 0.2, 0.2, 0.3))
        x, y = np.array([0.3, -0.2]), np.array([0.1, 0.5])
        z = np.array([1.0, -2.0])
        zn = np.linalg.norm(z)
        for i in range(500):
            dev_f = np.linalg.norm(
                prob.oracle.grad_x_F(x, y, Sample(Stream.XI_PRIME, i, 9))
                - prob.det.grad_x_f(x, y))
            dev_yy = np.linalg.norm(
                prob.oracle.hvp_yy_G(x, y, z, Sample(Stream.ZETA, i, 9))
                - prob.det.hvp_yy_g(x, y, z))
            dev_xy = np.linalg.norm(
                prob.oracle.hvp_xy_G(x, y, z, Sample(Stream.ZETA_PRIME, i, 9))
                - prob.det.hvp_xy_g(x, y, z))
            assert dev_f <= 0.2
            assert dev_yy <= 0.3
            assert dev_xy <= 0.2 * zn

    def test_noiseless_with_sigmas_rejected(self):
        with pytest.raises(bb.ConfigurationError):
            bb.NoiseModel(bb.NoiseKind.NOISELESS, sigma_g1=0.1)

    def test_gaussian_with_sigma_z_rejected(self):
        # sigma_z bounds the bounded model's yy product; gaussian has no use for it
        with pytest.raises(bb.ConfigurationError,
                           match="sigma_z applies to the bounded model only"):
            bb.NoiseModel(bb.NoiseKind.GAUSSIAN, 0.1, 0.1, 0.1, sigma_z=5.0)


class TestUnbiasedness:
    def test_noiseless_trivial(self, q2):
        rep = empirical_unbiasedness_check(q2, np.zeros(2), np.zeros(2), 100,
                                           rng_seed=0)
        assert rep.max_deviation_in_sigmas == 0.0
        assert rep.passed

    def test_gaussian_pinned(self, q2_gauss):
        rep = empirical_unbiasedness_check(
            q2_gauss, np.array([0.3, -0.2]), np.array([0.1, 0.5]), 10000,
            rng_seed=42)
        assert rep.max_deviation_in_sigmas <= 4.0
        # pinned seed: the observed worst deviation stays stable
        assert rep.max_deviation_in_sigmas == pytest.approx(1.196, abs=0.02)

    def test_zero_sigma_gaussian_small_n(self, q2):
        prob = bb.make_q2(bb.NoiseModel.gaussian(0.0, 0.0, 0.0))
        rep = empirical_unbiasedness_check(prob, np.zeros(2), np.zeros(2), 10,
                                           rng_seed=0)
        assert rep.max_deviation_in_sigmas == 0.0

    def test_zero_sigma_oracles_under_noise(self):
        # only grad_x_F and grad_y_F are noisy: the other three average to
        # their exact values and read exactly 0
        prob = bb.make_q2(bb.NoiseModel.gaussian(0.1, 0.0, 0.0))
        rep = empirical_unbiasedness_check(prob, np.array([0.3, -0.2]),
                                           np.array([0.1, 0.5]), 200, rng_seed=3)
        for key in ("grad_y_G", "hvp_xy_G", "hvp_yy_G"):
            assert rep.deviations[key] == 0.0
        assert rep.deviations["grad_x_F"] > 0.0
        assert rep.passed

    def test_small_n_rejected_under_noise(self, q2_gauss):
        with pytest.raises(bb.ConfigurationError):
            empirical_unbiasedness_check(q2_gauss, np.zeros(2), np.zeros(2),
                                         99, rng_seed=0)


def test_consistency_at_optimum_all_instances():
    core = bb.q2_spec()
    instances = [
        bb.make_q2(),
        bb.make_unbounded_smooth(bb.UnboundedSmoothSpec(a=1.0, core=core)),
        bb.make_hyperclean(bb.HypercleanSpec(n_train=50, n_val=50,
                                             feature_dim=3,
                                             corruption_rate=0.2, seed=1)),
    ]
    for prob in instances:
        for j in range(3):
            x = np.random.default_rng(j).uniform(-0.5, 0.5, prob.dim_x)
            ys = prob.solve(x)[0]
            zs = prob.solve(x)[1]
            est = bb.hypergrad_estimate(x, ys, zs, s_xi_prime(j),
                                        s_zeta_prime(j), prob.oracle)
            dev = np.linalg.norm(est - prob.solve(x)[2])
            assert dev <= 1e-10, (prob.name, dev)


def test_phi_requires_analytic():
    prob = bb.make_hyperclean(bb.HypercleanSpec(
        n_train=20, n_val=20, feature_dim=2, corruption_rate=0.0, seed=0))
    # the solver-backed ground truth is present; phi = f(x, y*(x)) evaluates
    x = np.ones(20)
    assert math.isfinite(prob.upper(x, prob.solve(x)[0]))


def _family_matrices():
    """The matrices the families hand to ``_mv`` and to ``.dot``: Q2's and
    the cosh16 core's ``A``, ``B`` and ``B.T``, and hypercleaning's feature
    matrices and their (F-ordered) transposes at the shipped config."""
    q2, cosh = bb.q2_spec(), random_quadratic_spec(16, 16, 0, r=0.0)
    feats_tr, _, feats_val, _, _ = _hyperclean_data(bb.HypercleanSpec(
        n_train=200, n_val=200, feature_dim=5, corruption_rate=0.2, seed=7))
    return {"q2.A": q2.A, "q2.B": q2.B, "q2.B.T": q2.B.T,
            "cosh16.A": cosh.A, "cosh16.B": cosh.B, "cosh16.B.T": cosh.B.T,
            "feats_tr": feats_tr, "feats_tr.T": feats_tr.T,
            "feats_val": feats_val, "feats_val.T": feats_val.T}


_MATRICES = _family_matrices()


@pytest.mark.parametrize("name", list(_MATRICES))
def test_one_vector_product_is_the_stacked_product(name):
    # _mv takes ndarray.dot for one vector and matmul for a stack; the two
    # must agree bit for bit, or traces would change with the BLAS
    a = _MATRICES[name]
    rng = np.random.default_rng(11)
    vs = rng.standard_normal((300, a.shape[1]))
    stacked = _mv(a, vs)
    for v, row in zip(vs, stacked):
        one = _mv(a, v)
        assert one.tobytes() == np.matmul(a, v[..., None])[..., 0].tobytes()
        assert one.tobytes() == row.tobytes()


def _recording(det, returned):
    """``det`` with every map's output appended to ``returned``, with a copy."""
    def rec(f):
        def wrapped(*args):
            out = f(*args)
            returned.append((out, out.copy()))
            return out
        return wrapped

    def lower_at(x):
        at = det.lower_at(x)

        def point(y):
            p = at(y)
            return LowerPoint(p.y, rec(p.grad), p.hess, rec(p.hvp_yy),
                              rec(p.hvp_xy))
        return point
    return DeterministicOracle(rec(det.grad_x_f), rec(det.grad_y_f), lower_at)


_NOISES = {"noiseless": bb.NoiseModel.noiseless(),
           "gaussian": bb.NoiseModel.gaussian(0.1, 0.1, 0.1),
           "bounded": bb.NoiseModel.bounded(0.1, 0.1, 0.1, 0.1)}


@pytest.mark.parametrize("with_point", [False, True])
@pytest.mark.parametrize("noise", list(_NOISES))
@pytest.mark.parametrize("family", ["q2", "hyperclean"])
def test_noise_is_added_into_its_own_draw(family, noise, with_point):
    # the draw is scaled, clipped and summed in place: no input, and no
    # array a deterministic map returned, may be written
    model = _NOISES[noise]
    prob = (bb.make_q2(model) if family == "q2" else bb.make_hyperclean(
        bb.HypercleanSpec(n_train=20, n_val=10, feature_dim=3,
                          corruption_rate=0.2, seed=1), model))
    returned = []
    oracle = bb.StochasticOracle(_recording(prob.det, returned), model)
    rng = np.random.default_rng(5)
    x, y, z = (rng.standard_normal(n) for n in (prob.dim_x, prob.dim_y, prob.dim_y))
    inputs = [a.copy() for a in (x, y, z)]
    calls = {
        Stream.XI_PRIME: lambda s, pt: oracle.grad_x_F(x, y, s),
        Stream.XI: lambda s, pt: oracle.grad_y_F(x, y, s),
        Stream.PI: lambda s, pt: oracle.grad_y_G(x, y, s, pt),
        Stream.ZETA_PRIME: lambda s, pt: oracle.hvp_xy_G(x, y, z, s, pt),
        Stream.ZETA: lambda s, pt: oracle.hvp_yy_G(x, y, z, s, pt),
    }
    for stream, call in calls.items():
        # at seed 3, counters 0 to 5 give each bounded oracle of both
        # families a clipped and an unclipped draw
        for counter in range(6):
            s = Sample(stream, counter, 3)
            del returned[:]
            point = oracle.det.lower_at(x)(y) if with_point else None
            first = call(s, point)
            assert np.array_equal(first, call(s, point))
            for out, copy in returned:
                assert out.tobytes() == copy.tobytes()
                if noise != "noiseless":
                    assert first is not out
            for a, before in zip((x, y, z), inputs):
                assert a.tobytes() == before.tobytes()
