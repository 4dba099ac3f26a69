"""Smoothness-constant algebra and step-size schedules.

Holds the constant vocabulary of the analysis (strong convexity ``mu``,
lower-level smoothness ``l_g1``/``l_g2``, relaxed-smoothness constants of the
upper level, noise levels), whose read-only properties ``L0``, ``L1`` and
``l_zstar`` derive the constants of the composed objective from them on each
read, and produces the two analysis-driven step-size schedules as well as a
pass-through "practical" schedule for hand-tuned runs.  Bad input raises
:class:`~bilevelbench.samples.ConfigurationError` or its subclass
:class:`SchedulingError`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from typing import Mapping

from .samples import ConfigurationError


class SchedulingError(ConfigurationError):
    """Raised when a schedule request is infeasible or ill-posed.

    Carries the computed admissibility ceiling (and the name of the binding
    term) when the target accuracy was too large.
    """

    def __init__(self, message: str, *, ceiling: float | None = None,
                 binding_term: str | None = None):
        super().__init__(message)
        self.ceiling = ceiling
        self.binding_term = binding_term


@dataclass(frozen=True)
class SmoothnessConstants:
    """Declared upper bounds for one problem instance, each non-negative.

    ``L0``, ``L1`` and ``l_zstar`` are derived from them on each read, so a
    copy made with ``dataclasses.replace`` never carries stale values;
    reading one with ``mu <= 0`` raises.
    """

    mu: float
    l_g1: float
    l_g2: float = 0.0
    l_f0: float = 0.0
    L_x0: float = 0.0
    L_x1: float = 0.0
    L_y0: float = 0.0
    L_y1: float = 0.0
    sigma_f1: float = 0.0
    sigma_g1: float = 0.0
    sigma_g2: float = 0.0
    sigma_z: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not v >= 0:   # nan fails too
                raise ConfigurationError(f"constant {f.name} must be non-negative, got {v}")

    @property
    def _kappa(self) -> float:
        if self.mu <= 0:
            raise ConfigurationError("mu must be strictly positive to derive constants "
                                     f"(got mu={self.mu}); a zero mu divides by zero")
        return math.sqrt(1.0 + (self.l_g1 / self.mu) ** 2)

    @property
    def L1(self) -> float:
        """The gradient-growth coefficient of ``x -> f(x, y*(x))``."""
        return self._kappa * self.L_x1

    @property
    def L0(self) -> float:
        """The constant term of the relaxed smoothness of ``x -> f(x, y*(x))``."""
        mu, l1, l_f0 = self.mu, self.l_g1, self.l_f0
        return self._kappa * (
            self.L_x0
            + self.L_x1 * l1 * l_f0 / mu
            + (l1 / mu) * (self.L_y0 + self.L_y1 * l_f0)
            + l_f0 * (l1 * self.l_g2 + self.l_g2 * mu) / mu ** 2
        )

    @property
    def l_zstar(self) -> float:
        """The Lipschitz constant of the linear-system solution ``z*(x)``."""
        return self._kappa * (self.l_g2 * self.l_f0 / self.mu ** 2
                              + (self.L_y0 + self.L_y1 * self.l_f0) / self.mu)


class ScheduleMode(enum.Enum):
    THEOREM41 = "theorem41"
    THEOREM42 = "theorem42"
    PRACTICAL = "practical"


@dataclass(frozen=True)
class ParamSchedule:
    """All run-time hyperparameters plus provenance diagnostics.

    ``alpha_init``/``T0`` drive the warm-start phase, ``alpha``/``beta``/
    ``gamma``/``eta`` the main loop, ``T`` the iteration budget.  The
    diagnostic fields are populated only by the theorem modes.
    """

    mode: ScheduleMode
    alpha_init: float
    T0: int
    alpha: float
    beta: float
    gamma: float
    eta: float
    T: int
    eps: float | None = None
    delta: float | None = None
    A: float | None = None
    B: float | None = None
    log_A: float | None = None
    log_B: float | None = None
    Delta0: float | None = None
    Delta_y0: float | None = None
    Delta_z0: float | None = None
    eps_ceiling: float | None = None
    binding_eps_term: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta < 1.0:
            raise SchedulingError(f"beta must lie in [0, 1), got {self.beta}")
        for name in ("alpha", "gamma", "eta", "alpha_init"):
            v = getattr(self, name)
            if not 0 < v < math.inf:   # nan fails too
                raise SchedulingError(f"{name} must be strictly positive and finite, got {v}")
        if self.T < 1:
            raise SchedulingError(f"T must be a positive integer, got {self.T}")
        if self.T0 < 0:
            raise SchedulingError(f"T0 must be non-negative, got {self.T0}")


def warm_start_T0(alpha_init: float, mu: float, L1: float, dist0: float) -> int:
    """Iteration count bringing the frozen-x lower-level error below 1/(8*sqrt(2)*L1).

    Evaluates ``log(256 * L1^2 * dist0^2) / log(2 / (2 - mu*alpha_init))``,
    rounded up and clamped below at zero.  ``dist0`` is the initial distance
    to the minimizer (or an upper bound on it).
    """
    if dist0 <= 0:
        raise SchedulingError(f"dist0 must be strictly positive, got {dist0}")
    if not 0.0 < mu * alpha_init < 2.0:
        raise SchedulingError(
            f"warm start requires 0 < mu*alpha_init < 2, got {mu * alpha_init}")
    target = 256.0 * L1 ** 2 * dist0 ** 2
    if target <= 1.0:
        return 0
    return math.ceil(math.log(target) / math.log(2.0 / (2.0 - mu * alpha_init)))


def _safe_div(num: float, den: float) -> float:
    return math.inf if den == 0 else num / den


def _eps_ceiling_terms(c: SmoothnessConstants, delta: float, Delta0: float,
                       Delta_y0: float, Delta_z0: float,
                       grad_phi_x0: float | None) -> dict[str, float]:
    """The admissibility ceiling of the in-expectation schedule, term by term."""
    mu, l1 = c.mu, c.l_g1
    L0, L1 = c.L0, c.L1
    root = math.sqrt(2.0 * (1.0 + (l1 / mu) ** 2) * (c.L_x1 ** 2 + c.L_y1 ** 2))
    base32 = 32.0 * math.e * l1 * Delta0 * L0 / (mu * delta)
    quarter = (math.e * l1 * Delta0 * L0 ** 3 * c.sigma_g1 ** 2 / (mu ** 3 * delta)) ** 0.25
    terms = {
        "L0/L1": _safe_div(L0, L1),
        "Delta_y0*L0": Delta_y0 * L0,
        "8*l_g1*L0/(mu*sqrt(..))": _safe_div(8.0 * l1 * L0, mu * root),
        "sqrt(16e*l_g1*Delta0*L0/(mu*delta))": math.sqrt(
            16.0 * math.e * l1 * Delta0 * L0 / (mu * delta)),
        "4*(e*l_g1*Delta0*L0^3*sg1^2/(mu^3*delta))^(1/4)": 4.0 * quarter,
        "exp-term(mu/(2*l_g1))": math.sqrt(base32) * math.exp(-mu / (4.0 * l1)),
        "exp-term(mu*l_g1*Delta_z0/(2*Delta0*L0))": math.sqrt(base32) * math.exp(
            -_safe_div(mu * l1 * Delta_z0, 4.0 * Delta0 * L0)),
        "exp-term(mu*Delta_y0^2*L0/(2*l_g1*Delta0))": math.sqrt(base32) * math.exp(
            -_safe_div(mu * Delta_y0 ** 2 * L0, 4.0 * l1 * Delta0)),
        "Delta0*L0/||gradPhi(x0)||": (
            math.inf if grad_phi_x0 is None else _safe_div(Delta0 * L0, grad_phi_x0)),
        "L0*sg1/sg2": _safe_div(L0 * c.sigma_g1, c.sigma_g2),
        "L0*sg1/sqrt(mu*l_g1)": _safe_div(L0 * c.sigma_g1, math.sqrt(mu * l1)),
        "2^21-term*exp(-l_g1*sqrt(..)/(512*L0*sg1))": (
            (2.0 ** 21) ** 0.25 * quarter * math.exp(
                -_safe_div(l1 * math.sqrt(c.sigma_f1 ** 2
                                          + 2.0 * c.l_f0 ** 2 * c.sigma_g2 ** 2 / mu ** 2),
                           512.0 * L0 * c.sigma_g1))),
    }
    return terms


def _highprob_extra(c: SmoothnessConstants, Delta0: float,
                    Delta_z0: float) -> tuple[dict[str, float], float]:
    """Extra ceiling terms of the high-probability schedule, and the rescale G."""
    mu, l1 = c.mu, c.l_g1
    L0, L1 = c.L0, c.L1
    sigma_bar = c.sigma_z + c.sigma_f1
    big_e = max(
        _safe_div(4.0 * sigma_bar ** 2, c.sigma_g1 ** 2),
        _safe_div(c.l_g2 ** 2 * c.l_f0 ** 2, 8.0 * mu ** 2 * c.sigma_g1 ** 2 * L1 ** 2),
        _safe_div(L0 ** 2, 16.0 * c.sigma_g1 ** 2 * L1 ** 2),
    )
    big_g = (
        mu / (16.0 * c.sigma_g1 * L0)
        * (c.sigma_f1 + c.l_f0 * c.sigma_g2 / mu + 2.0 * c.sigma_g2 * Delta_z0)
        + (1.0 + math.sqrt(big_e + c.l_zstar ** 2 / (4.0 * l1 ** 2))) * l1 / (8.0 * L0)
        + 13.0 / 8.0
    )
    extra = {
        "64*l_g1*Delta_z0*L0/sqrt(4E*l_g1^2+l_zstar^2)": _safe_div(
            64.0 * l1 * Delta_z0 * L0,
            math.sqrt(4.0 * big_e * l1 ** 2 + c.l_zstar ** 2)),
        "sg1*L0*L1/l_g2": _safe_div(c.sigma_g1 * L0 * L1, c.l_g2),
        "Delta0/Delta_z0": _safe_div(Delta0, Delta_z0),
    }
    return extra, big_g


def warm_start_alpha(c: SmoothnessConstants, delta: float) -> float:
    """Warm-start step of the theorem schedules at confidence ``delta``:
    ``min(1/(2*l_g1), mu / (2048 * L1^2 * sigma_g1^2 * log(e/delta)))``."""
    cap = _safe_div(c.mu,
                    2048.0 * c.L1 ** 2 * c.sigma_g1 ** 2 * math.log(math.e / delta))
    return min(1.0 / (2.0 * c.l_g1), cap)


def _theorem_schedule(eps: float, delta: float, c: SmoothnessConstants,
                      Delta0: float, Delta_y0: float, Delta_z0: float,
                      grad_phi_x0: float | None,
                      mode: ScheduleMode) -> ParamSchedule:
    mu, l1, L0 = c.mu, c.l_g1, c.L0   # raises first when mu <= 0
    if not 0.0 < delta < 1.0:
        raise SchedulingError(f"delta must lie in (0, 1), got {delta}")
    # written so that nan fails each check
    if not eps > 0:
        raise SchedulingError(f"eps must be strictly positive, got {eps}")
    for name, v in (("Delta0", Delta0), ("Delta_y0", Delta_y0), ("Delta_z0", Delta_z0)):
        if not 0 < v < math.inf:
            raise SchedulingError(f"{name} must be strictly positive and finite, got {v}")
    if grad_phi_x0 is not None and not grad_phi_x0 >= 0:
        raise SchedulingError(f"grad_phi_x0 must be non-negative, got {grad_phi_x0}")
    if c.sigma_g1 == 0:
        raise SchedulingError(
            "sigma_g1 = 0 makes the analysis-driven step sizes degenerate "
            "(the momentum and warm-start formulas divide by sigma_g1^2); "
            "use the practical schedule for noiseless runs")
    if l1 <= 0 or L0 <= 0:
        raise SchedulingError(
            f"theorem schedules need l_g1 > 0 and L0 > 0 (got l_g1={l1}, "
            f"L0={L0})")

    terms = _eps_ceiling_terms(c, delta, Delta0, Delta_y0, Delta_z0, grad_phi_x0)
    scale = 1.0
    if mode is ScheduleMode.THEOREM42:
        extra, big_g = _highprob_extra(c, Delta0, Delta_z0)
        terms = {**terms, **extra}
        scale = big_g  # ceiling applies to eps / G
    binding = min(terms, key=terms.get)
    ceiling = terms[binding] * scale
    if eps > ceiling:
        raise SchedulingError(
            f"eps={eps:g} exceeds the admissibility ceiling {ceiling:g} "
            f"(binding term: {binding})",
            ceiling=ceiling, binding_term=binding)

    # Work in log space: B itself overflows for small eps.
    log_b = 4.0 * (21.0 * math.log(2.0) + 1.0 + math.log(l1) + math.log(Delta0)
                   + 3.0 * math.log(L0) + 2.0 * math.log(c.sigma_g1)
                   - 3.0 * math.log(mu) - math.log(delta) - 4.0 * math.log(eps))
    one_minus_beta = mu ** 2 * eps ** 2 / (64.0 * 1024.0 * L0 ** 2
                                           * c.sigma_g1 ** 2 * log_b ** 2)
    beta = 1.0 - one_minus_beta
    if beta >= 1.0:
        raise SchedulingError(
            f"eps={eps:g} yields 1-beta={one_minus_beta:g}, below float64 "
            "resolution of the momentum parameter")
    # Re-derive 1-beta from the representable beta so the downstream
    # relational identities (gamma*mu = 1-beta, alpha = 8*(1-beta)/mu, the
    # eta closed form) hold at machine precision against the stored fields.
    one_minus_beta = 1.0 - beta
    log_a = 2.0 * (math.log(32.0) + 1.0 + math.log(l1) + math.log(Delta0)
                   + math.log(L0) - math.log(mu) - math.log(delta)
                   - 2.0 * math.log(eps) - math.log(one_minus_beta))
    eta = mu * eps * one_minus_beta / (8.0 * l1 * L0 * log_a)
    if mode is ScheduleMode.THEOREM41:
        gamma = one_minus_beta / mu
    else:
        gamma = 16.0 * one_minus_beta / mu
    alpha = 8.0 * one_minus_beta / mu
    t_real = 4.0 * Delta0 / (eta * eps)
    if not t_real < math.inf:   # nan fails too
        raise SchedulingError(f"eps={eps:g} gives a non-finite iteration count "
                              f"T = 4*Delta0/(eta*eps) = {t_real}")
    big_t = math.ceil(t_real)
    alpha_init = warm_start_alpha(c, delta)
    t0 = warm_start_T0(alpha_init, mu, c.L1, Delta_y0)

    def _exp_or_inf(v: float) -> float:
        try:
            return math.exp(v)
        except OverflowError:
            return math.inf

    return ParamSchedule(
        mode=mode, alpha_init=alpha_init, T0=t0,
        alpha=alpha, beta=beta, gamma=gamma, eta=eta, T=big_t,
        eps=eps, delta=delta,
        A=_exp_or_inf(log_a), B=_exp_or_inf(log_b), log_A=log_a, log_B=log_b,
        Delta0=Delta0, Delta_y0=Delta_y0, Delta_z0=Delta_z0,
        eps_ceiling=ceiling, binding_eps_term=binding,
    )


def schedule_theorem41(eps: float, delta: float, c: SmoothnessConstants,
                       Delta0: float, Delta_y0: float, Delta_z0: float,
                       grad_phi_x0: float | None = None) -> ParamSchedule:
    """In-expectation schedule: gamma = (1-beta)/mu, alpha = 8*(1-beta)/mu.

    ``eps`` must fall below the admissibility ceiling (the minimum over the
    closed-form terms; every term is evaluated and the binding one is
    reported).  ``Delta0`` is the initial objective gap, ``Delta_y0`` /
    ``Delta_z0`` bound the initial lower-level / linear-system distances;
    ``grad_phi_x0`` optionally supplies the initial hypergradient norm for
    the one ceiling term that needs it (skipped when unknown).
    """
    return _theorem_schedule(eps, delta, c, Delta0, Delta_y0, Delta_z0,
                             grad_phi_x0, ScheduleMode.THEOREM41)


def schedule_theorem42(eps: float, delta: float, c: SmoothnessConstants,
                       Delta0: float, Delta_y0: float, Delta_z0: float,
                       grad_phi_x0: float | None = None) -> ParamSchedule:
    """High-probability schedule: same as theorem41 except gamma = 16*(1-beta)/mu.

    The admissibility ceiling is stricter (extra terms, and a rescale by the
    constant G of the high-probability analysis).
    """
    return _theorem_schedule(eps, delta, c, Delta0, Delta_y0, Delta_z0,
                             grad_phi_x0, ScheduleMode.THEOREM42)


_PRACTICAL_KEYS = {"alpha", "beta", "gamma", "eta", "T", "T0", "alpha_init"}


def schedule_practical(cfg: Mapping[str, float]) -> ParamSchedule:
    """Pass user-supplied step sizes through with range validation only.

    Required keys: ``alpha, beta, gamma, eta, T``.  Optional: ``T0``
    (default 0) and ``alpha_init`` (defaults to ``alpha``).
    """
    unknown = set(cfg) - _PRACTICAL_KEYS
    if unknown:
        raise SchedulingError(f"unknown practical-schedule keys: {sorted(unknown)}")
    missing = {"alpha", "beta", "gamma", "eta", "T"} - set(cfg)
    if missing:
        raise SchedulingError(f"missing practical-schedule keys: {sorted(missing)}")
    if not all(math.isfinite(cfg.get(k, 0)) for k in ("T", "T0")):
        raise SchedulingError("T and T0 must be finite")
    t = int(cfg["T"])
    t0 = int(cfg.get("T0", 0))
    if cfg["T"] != t or cfg.get("T0", 0) != t0:
        raise SchedulingError("T and T0 must be integers")
    alpha = float(cfg["alpha"])
    return ParamSchedule(
        mode=ScheduleMode.PRACTICAL,
        alpha_init=float(cfg.get("alpha_init", alpha)),
        T0=t0, alpha=alpha, beta=float(cfg["beta"]),
        gamma=float(cfg["gamma"]), eta=float(cfg["eta"]), T=t,
    )
