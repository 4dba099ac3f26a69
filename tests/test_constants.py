import dataclasses
import math

import numpy as np
import pytest

import bilevelbench as bb
from bilevelbench.constants import ScheduleMode


def paper_scale_constants():
    """Unit constants with the derived fields pinned directly."""
    return bb.SmoothnessConstants(
        mu=1.0, l_g1=1.0, l_g2=0.0, l_f0=0.0, L_x0=1.0, L_x1=1.0,
        L_y0=0.0, L_y1=0.0, sigma_f1=1.0, sigma_g1=1.0, sigma_g2=1.0,
        sigma_z=1.0, L0=1.0, L1=1.0, l_zstar=1.0)


def random_constants(rng):
    c = bb.SmoothnessConstants(
        mu=rng.uniform(0.2, 3.0),
        l_g1=0.0,
        l_g2=rng.uniform(0.0, 1.0),
        l_f0=rng.uniform(0.0, 3.0),
        L_x0=rng.uniform(0.1, 3.0),
        L_x1=rng.uniform(0.01, 2.0),
        L_y0=rng.uniform(0.0, 2.0),
        L_y1=rng.uniform(0.0, 1.0),
        sigma_f1=rng.uniform(0.0, 1.0),
        sigma_g1=rng.uniform(0.05, 1.0),
        sigma_g2=rng.uniform(0.0, 1.0),
        sigma_z=rng.uniform(0.0, 1.0))
    return bb.derive_constants(
        dataclasses.replace(c, l_g1=c.mu * rng.uniform(1.0, 4.0)))


class TestDeriveConstants:
    def test_l1_no_coupling(self):
        c = bb.derive_constants(bb.SmoothnessConstants(mu=1.0, l_g1=0.0, L_x1=3.0))
        assert c.L1 == 3.0

    def test_l1_sqrt2(self):
        c = bb.derive_constants(bb.SmoothnessConstants(mu=1.0, l_g1=1.0, L_x1=1.0))
        assert c.L1 == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert c.L1 == pytest.approx(1.41421, abs=1e-5)

    def test_l_zstar(self):
        c = bb.derive_constants(bb.SmoothnessConstants(
            mu=1.0, l_g1=1.0, l_g2=0.0, l_f0=0.0, L_y0=2.0, L_y1=0.0))
        assert c.l_zstar == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)

    def test_idempotent(self):
        c1 = bb.derive_constants(bb.SmoothnessConstants(
            mu=0.7, l_g1=2.0, l_g2=0.3, l_f0=1.1, L_x0=0.5, L_x1=0.9,
            L_y0=0.4, L_y1=0.2))
        c2 = bb.derive_constants(c1)
        assert (c1.L0, c1.L1, c1.l_zstar) == (c2.L0, c2.L1, c2.l_zstar)

    def test_zero_mu_rejected(self):
        with pytest.raises(ValueError, match="mu"):
            bb.derive_constants(bb.SmoothnessConstants(mu=0.0, l_g1=1.0))

    def test_monotone_in_raw_constants(self):
        # increasing any raw constant other than the strong-convexity modulus
        # never decreases L0 or L1 (a larger modulus improves conditioning,
        # so it legitimately decreases both)
        rng = np.random.default_rng(0)
        fields = ("l_g1", "l_g2", "l_f0", "L_x0", "L_x1", "L_y0", "L_y1")
        for _ in range(50):
            base = random_constants(rng)
            name = fields[rng.integers(len(fields))]
            bumped = bb.derive_constants(dataclasses.replace(
                base, **{name: getattr(base, name) + rng.uniform(0.01, 1.0)}))
            assert bumped.L0 >= base.L0 - 1e-12
            assert bumped.L1 >= base.L1 - 1e-12


class TestWarmStartT0:
    def test_zero_when_already_close(self):
        # 256 * L1^2 * dist0^2 = 1
        assert bb.warm_start_T0(0.1, 1.0, 1.0, dist0=1.0 / 16.0) == 0

    def test_pinned_value(self):
        t0 = bb.warm_start_T0(0.25, 1.0, 1.0, dist0=1.0)
        assert t0 == 42
        exact = math.log(256.0) / math.log(2.0 / 1.75)
        assert exact == pytest.approx(41.52, abs=0.01)

    def test_doubling_dist0(self):
        for alpha, mu in ((0.25, 1.0), (0.1, 0.5)):
            t1 = bb.warm_start_T0(alpha, mu, 1.0, dist0=1.0)
            t2 = bb.warm_start_T0(alpha, mu, 1.0, dist0=2.0)
            inc = 2.0 * math.log(2.0) / math.log(2.0 / (2.0 - mu * alpha))
            assert t2 - t1 in (math.ceil(inc), math.ceil(inc) - 1)

    def test_step_too_large_rejected(self):
        with pytest.raises(bb.SchedulingError):
            bb.warm_start_T0(2.5, 1.0, 1.0, dist0=1.0)


def admissible_eps(c, delta, d0, dy0, dz0, rng, builder=bb.schedule_theorem41):
    try:
        builder(1e12, delta, c, d0, dy0, dz0)
    except bb.SchedulingError as exc:
        return exc.ceiling * rng.uniform(0.05, 1.0)
    raise AssertionError("ceiling should be finite")


class TestTheoremSchedules:
    def test_relational_identities_100_random(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 100:
            c = random_constants(rng)
            d0, dy0, dz0 = rng.uniform(0.1, 5.0, size=3)
            delta = rng.uniform(0.01, 0.5)
            eps = admissible_eps(c, delta, d0, dy0, dz0, rng)
            try:
                s = bb.schedule_theorem41(eps, delta, c, d0, dy0, dz0)
            except bb.SchedulingError:
                continue  # beta under float resolution
            omb = 1.0 - s.beta
            assert s.gamma * c.mu == pytest.approx(omb, rel=1e-13)
            assert s.alpha == pytest.approx(8.0 * omb / c.mu, rel=1e-13)
            lhs = s.eta * 8.0 * c.l_g1 * c.L0 * s.log_A
            assert lhs == pytest.approx(c.mu * eps * omb, rel=1e-13)
            checked += 1

    def test_theorem42_gamma_scaling(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 20:
            c = random_constants(rng)
            d0, dy0, dz0 = rng.uniform(0.1, 5.0, size=3)
            eps = admissible_eps(c, 0.1, d0, dy0, dz0, rng,
                                 builder=bb.schedule_theorem42)
            try:
                s42 = bb.schedule_theorem42(eps, 0.1, c, d0, dy0, dz0)
                s41 = bb.schedule_theorem41(eps, 0.1, c, d0, dy0, dz0)
            except bb.SchedulingError:
                continue
            assert s42.gamma == pytest.approx(16.0 * (1 - s42.beta) / c.mu,
                                              rel=1e-13)
            assert s42.gamma / s41.gamma == pytest.approx(16.0, rel=1e-12)
            assert s42.beta == s41.beta
            assert s42.eta == s41.eta
            assert s42.alpha_init == s41.alpha_init
            assert s42.T0 == s41.T0
            checked += 1

    def test_golden_values(self):
        # frozen on first build at the unit-constants evaluation point
        c = paper_scale_constants()
        try:
            bb.schedule_theorem41(1e9, 0.1, c, 1.0, 1.0, 1.0)
        except bb.SchedulingError as exc:
            ceiling = exc.ceiling
        assert ceiling == 1.0
        s = bb.schedule_theorem41(ceiling, 0.1, c, 1.0, 1.0, 1.0)
        assert s.beta == pytest.approx(0.9999999970097908, abs=1e-15)
        assert s.eta == pytest.approx(7.080101173217576e-12, rel=1e-12)
        assert s.T == 564963678081
        assert s.T0 == 75009
        assert s.alpha_init == pytest.approx(0.00014784819656450874, rel=1e-14)
        assert s.A == pytest.approx(8.462248533158638e+22, rel=1e-10)
        assert s.B == pytest.approx(1.0560818124521871e+31, rel=1e-10)

    def test_halving_eps_multiplies_T(self):
        c = paper_scale_constants()
        s1 = bb.schedule_theorem41(0.5, 0.1, c, 1.0, 1.0, 1.0)
        s2 = bb.schedule_theorem41(0.25, 0.1, c, 1.0, 1.0, 1.0)
        assert s2.T / s1.T >= 8.0

    def test_eps_above_ceiling_rejected(self):
        c = paper_scale_constants()
        with pytest.raises(bb.SchedulingError) as exc_info:
            bb.schedule_theorem41(2.0, 0.1, c, 1.0, 1.0, 1.0)
        assert exc_info.value.ceiling == 1.0
        assert exc_info.value.binding_term == "L0/L1"

    def test_noiseless_degenerate(self):
        c = dataclasses.replace(paper_scale_constants(), sigma_g1=0.0)
        with pytest.raises(bb.SchedulingError, match="[Pp]ractical"):
            bb.schedule_theorem41(0.1, 0.1, c, 1.0, 1.0, 1.0)

    def test_grad_phi_x0_term_binds(self):
        c = paper_scale_constants()
        # a huge initial gradient norm makes its ceiling term the binding one
        with pytest.raises(bb.SchedulingError) as exc_info:
            bb.schedule_theorem41(0.5, 0.1, c, 1.0, 1.0, 1.0,
                                  grad_phi_x0=1e9)
        assert "gradPhi" in exc_info.value.binding_term

    @pytest.mark.parametrize("change,match", [
        ({"eps": math.nan}, "eps must be strictly positive, got nan"),
        ({"Delta0": math.nan}, "Delta0 must be strictly positive and finite"),
        ({"Delta_y0": math.inf}, "Delta_y0 must be strictly positive and finite"),
        ({"grad_phi_x0": math.nan}, "grad_phi_x0 must be non-negative"),
        ({"Delta0": 1e308}, "non-finite iteration count T"),
    ], ids=["eps-nan", "Delta0-nan", "Delta_y0-inf", "grad_phi_x0-nan",
            "T-inf"])
    def test_non_finite_input_or_T_rejected(self, change, match):
        # nan escaped as ValueError from math.ceil, the T = inf of a huge
        # Delta0 as OverflowError, and a nan grad_phi_x0 made a nan ceiling
        args = {"eps": 0.5, "delta": 0.1, "c": paper_scale_constants(),
                "Delta0": 1.0, "Delta_y0": 1.0, "Delta_z0": 1.0} | change
        with pytest.raises(bb.SchedulingError, match=match):
            bb.schedule_theorem41(**args)

    def test_schedule_pure(self):
        c = paper_scale_constants()
        a = bb.schedule_theorem41(0.5, 0.1, c, 1.0, 1.0, 1.0)
        b = bb.schedule_theorem41(0.5, 0.1, c, 1.0, 1.0, 1.0)
        assert a == b

    def test_closed_form_equals_min_form(self):
        # independent oracle: evaluate the full min expressions for the
        # momentum and step-size choices; for admissible eps they collapse
        # to the closed forms (up to the float quantization of beta near 1)
        rng = np.random.default_rng(123)
        checked = 0
        while checked < 40:
            c = random_constants(rng)
            d0, dy0, dz0 = rng.uniform(0.1, 5.0, size=3)
            eps = admissible_eps(c, 0.3, d0, dy0, dz0, rng)
            try:
                s = bb.schedule_theorem41(eps, 0.3, c, d0, dy0, dz0)
            except bb.SchedulingError:
                continue
            omb = 1.0 - s.beta
            inf = math.inf
            mu, l1, L0 = c.mu, c.l_g1, c.L0
            beta_terms = [
                1.0,
                mu / (16 * l1),
                16 * math.e * l1 * d0 * L0 / (mu * 0.3 * eps ** 2),
                mu ** 2 * eps ** 2 / (64 * 1024 * L0 ** 2
                                      * c.sigma_g1 ** 2 * s.log_B ** 2),
                (min(1.0, mu ** 2 / (32 * l1 ** 2))
                 / (c.sigma_f1 ** 2 + 2 * c.l_f0 ** 2 * c.sigma_g2 ** 2 / mu ** 2)
                 * eps ** 2)
                if (c.sigma_f1 or (c.l_f0 and c.sigma_g2)) else inf,
                l1 ** 2 / (8 * c.sigma_g2 ** 2) if c.sigma_g2 else inf,
                mu ** 2 / (16 * c.sigma_g2 ** 2) if c.sigma_g2 else inf,
                32 * math.e * l1 * d0 * L0
                / (mu * 0.3 * eps ** 2 * math.exp(mu / (2 * l1))),
                32 * math.e * l1 * d0 * L0
                / (mu * 0.3 * eps ** 2 * math.exp(mu * l1 * dz0 ** 2 / (2 * d0 * L0))),
                32 * math.e * l1 * d0 * L0
                / (mu * 0.3 * eps ** 2 * math.exp(mu * dy0 ** 2 * L0 / (2 * l1 * d0))),
            ]
            assert min(beta_terms) == pytest.approx(omb, rel=1e-9, abs=2e-16)
            root = math.sqrt(2 * (1 + (l1 / mu) ** 2)
                             * (c.L_x1 ** 2 + c.L_y1 ** 2))
            eta_inner = min(
                1.0 / c.L1 if c.L1 else inf,
                eps / L0,
                eps * d0 / (dy0 ** 2 * L0 ** 2),
                eps * d0 / (l1 ** 2 * dz0 ** 2),
                mu * eps / (l1 * L0 * s.log_A),
            )
            eta_full = min(0.125 * eta_inner * omb,
                           1.0 / root if root else inf)
            assert eta_full == pytest.approx(s.eta, rel=1e-9)
            checked += 1


class TestPracticalSchedule:
    def test_accepted_verbatim(self):
        s = bb.schedule_practical({"alpha": 0.01, "beta": 0.9, "gamma": 0.01,
                                   "eta": 0.05, "T": 5000, "T0": 3})
        assert (s.alpha, s.beta, s.gamma, s.eta, s.T, s.T0) == (
            0.01, 0.9, 0.01, 0.05, 5000, 3)
        assert s.mode is ScheduleMode.PRACTICAL
        assert s.alpha_init == 0.01

    def test_beta_one_rejected(self):
        with pytest.raises(bb.SchedulingError):
            bb.schedule_practical({"alpha": 0.1, "beta": 1.0, "gamma": 0.1,
                                   "eta": 0.1, "T": 10})

    def test_zero_eta_rejected(self):
        with pytest.raises(bb.SchedulingError):
            bb.schedule_practical({"alpha": 0.1, "beta": 0.5, "gamma": 0.1,
                                   "eta": 0.0, "T": 10})

    def test_unknown_key_rejected(self):
        with pytest.raises(bb.SchedulingError, match="unknown"):
            bb.schedule_practical({"alpha": 0.1, "beta": 0.5, "gamma": 0.1,
                                   "eta": 0.1, "T": 10, "bogus": 1.0})

    def test_missing_key_rejected(self):
        with pytest.raises(bb.SchedulingError, match="missing"):
            bb.schedule_practical({"alpha": 0.1, "beta": 0.5, "eta": 0.1,
                                   "T": 10})

    def test_fractional_T_rejected(self):
        with pytest.raises(bb.SchedulingError):
            bb.schedule_practical({"alpha": 0.1, "beta": 0.5, "gamma": 0.1,
                                   "eta": 0.1, "T": 10.5})
