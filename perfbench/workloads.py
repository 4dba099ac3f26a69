"""The benchmark's workloads: configs, seed derivation and the correctness gate.

A workload is one or more INI configs, parsed and run through
``bilevelbench.harness`` exactly as ``bilevelbench run`` does.  Every seed
list and instance seed comes from the workload seed, so the same seed gives
the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The Q2 practical schedule of configs/q2_slip.cfg.
_Q2_SCHEDULE = """[schedule]
mode = practical
alpha = 0.1
beta = 0.9
gamma = 0.1
eta = 0.01
T = 2000
T0 = 50
"""

_Q2_NOISY = """[problem]
kind = quadratic
preset = q2
noise = gaussian
sigma_f1 = 0.05
sigma_g1 = 0.05
sigma_g2 = 0.05

[algorithm]
name = slip

""" + _Q2_SCHEDULE + """
[run]
seeds = {seeds}
workers = 1
"""

# configs/hyperclean_slip.cfg as shipped, with the run seed drawn.  The data
# set stays the shipped one: the Newton solves behind every metric row take
# a data-dependent number of steps, so a drawn data set would change the
# amount of work from one benchmark seed to the next.
_HYPERCLEAN = """[problem]
kind = hyperclean
n_train = 200
n_val = 200
feature_dim = 5
corruption_rate = 0.2
reg = 0.1
seed = 7

[algorithm]
name = slip

[schedule]
mode = practical
alpha = 0.1
beta = 0.9
gamma = 0.1
eta = 0.05
T = 2000
T0 = 100

[run]
seeds = {seeds}
x0 = 1.0
y0 = 0.0
z0 = 0.0
"""

_COSH16 = """[problem]
kind = unbounded
a = 1.0
dim_x = 16
dim_y = 16
seed = {instance_seed}
noise = gaussian
sigma_f1 = 0.05
sigma_g1 = 0.05
sigma_g2 = 0.05

[algorithm]
{algorithm}

""" + _Q2_SCHEDULE + """
[run]
seeds = {seeds}
"""

@dataclass(frozen=True)
class Workload:
    """``configs`` are ``(label, template)`` pairs run in order as one
    operation; ``ceilings`` bound the final ``grad_norm`` per algorithm."""

    name: str
    configs: tuple[tuple[str, str], ...]
    n_seeds: int
    ceilings: dict


WORKLOADS = {w.name: w for w in (
    # The paper's headline instance.  At dimension 2 an iteration is Python
    # overhead plus five Philox constructions: samples, problem and the loop.
    Workload(
        "q2-noisy-slip",
        (("slip", _Q2_NOISY),), n_seeds=3, ceilings={"slip": 0.2}),
    # Noiseless, so it makes no random draws; the solver-backed metric rows
    # (a cold Newton solve and a linear solve each) do most of the work.
    Workload(
        "hyperclean-slip",
        (("slip", _HYPERCLEAN),), n_seeds=1, ceilings={"slip": 1e-3}),
    # The only workload on the baseline step rules (in-loop refinement,
    # decaying and unnormalized steps) and on noise vectors wider than four.
    Workload(
        "cosh16-baselines",
        (("masoba", _COSH16.replace("{algorithm}", "name = masoba")),
         ("doubleloop", _COSH16.replace(
             "{algorithm}",
             "name = doubleloop\nrefine_interval = 2\nrefine_steps = 3")),
         ("ttsa", _COSH16.replace("{algorithm}", "name = ttsa"))),
        n_seeds=2, ceilings={"masoba": 0.1, "doubleloop": 0.3, "ttsa": 3.0}),
)}


def derive_inputs(workload: Workload, seed: int) -> tuple[list[int], int]:
    """Run seeds and instance seed of one benchmark invocation."""
    rng = random.Random(f"{workload.name}/{seed}")
    seeds = rng.sample(range(1, 1 << 30), workload.n_seeds)
    return seeds, rng.randrange(1, 1 << 30)


def render_configs(workload: Workload, seed: int) -> list[tuple[str, str]]:
    seeds, instance_seed = derive_inputs(workload, seed)
    text = ", ".join(map(str, seeds))
    return [(label, template.format(seeds=text, instance_seed=instance_seed))
            for label, template in workload.configs]


def expected_calls(cfg, schedule) -> tuple[int, int, int, int, int]:
    """Oracle counts of the last trace row, in closed form.

    For ``doubleloop`` the last row is written before the final refinement,
    so it counts ``floor((T-1)/interval)`` refinements, not ``T/interval``.
    """
    t, t0 = schedule.T, schedule.T0
    if cfg.algorithm == "ttsa":
        return (t, t, t, t, t)
    gyg = t0 + t
    if cfg.algorithm == "doubleloop":
        gyg += (cfg.algo_params["refine_steps"]
                * ((t - 1) // cfg.algo_params["refine_interval"]))
    return (t, t, gyg, t, t)


def seed_failures(cfg, schedule, ceiling: float, info: dict) -> list[str]:
    """Reasons one seed's metadata fails the gate; empty when it passes."""
    if info["status"] != "OK":
        return [f"status {info['status']}"]
    reasons = []
    calls = tuple(info["calls"][c] for c in
                  ("calls_gxF", "calls_gyF", "calls_gyG", "calls_hxy", "calls_hyy"))
    want = expected_calls(cfg, schedule)
    if calls != want:
        reasons.append(f"calls {calls} != closed form {want}")
    grad_norm = info["final"]["grad_norm"]
    if grad_norm is None or not grad_norm <= ceiling:
        reasons.append(f"final grad_norm {grad_norm} above ceiling {ceiling}")
    return reasons
