import math

import numpy as np
import pytest

import bilevelbench as bb
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


class TestUnbiasedness:
    def test_noiseless_trivial(self, q2):
        rep = empirical_unbiasedness_check(q2.oracle, q2, np.zeros(2),
                                           np.zeros(2), 100, rng_seed=0)
        assert rep.max_deviation_in_sigmas == 0.0
        assert rep.passed

    def test_gaussian_pinned(self, q2_gauss):
        rep = empirical_unbiasedness_check(
            q2_gauss.oracle, q2_gauss, np.array([0.3, -0.2]),
            np.array([0.1, 0.5]), 10000, rng_seed=42)
        assert rep.max_deviation_in_sigmas <= 4.0
        # pinned seed: the observed worst deviation stays stable
        assert rep.max_deviation_in_sigmas == pytest.approx(1.196, abs=0.02)

    def test_zero_sigma_gaussian_small_n(self, q2):
        prob = bb.make_q2(bb.NoiseModel.gaussian(0.0, 0.0, 0.0))
        rep = empirical_unbiasedness_check(prob.oracle, prob, np.zeros(2),
                                           np.zeros(2), 10, rng_seed=0)
        assert rep.max_deviation_in_sigmas == 0.0

    def test_small_n_rejected_under_noise(self, q2_gauss):
        with pytest.raises(bb.ConfigurationError):
            empirical_unbiasedness_check(q2_gauss.oracle, q2_gauss,
                                         np.zeros(2), np.zeros(2), 99,
                                         rng_seed=0)


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
            ys = prob.analytic.y_star(x)
            zs = prob.analytic.solve(x)[1]
            est = bb.hypergrad_estimate(x, ys, zs, s_xi_prime(j),
                                        s_zeta_prime(j), prob.oracle)
            dev = np.linalg.norm(est - prob.analytic.hypergrad(x))
            assert dev <= 1e-10, (prob.name, dev)


def test_phi_requires_analytic():
    prob = bb.make_hyperclean(bb.HypercleanSpec(
        n_train=20, n_val=20, feature_dim=2, corruption_rate=0.0, seed=0))
    # solver-backed analytic is present; phi evaluates
    assert math.isfinite(prob.phi(np.ones(20)))
