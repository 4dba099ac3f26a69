"""Input checks no other test reaches: each rejects its bad input with its
own message before any work is done."""

import dataclasses

import numpy as np
import pytest

import bilevelbench as bb
from bilevelbench.harness import RunConfig, parse_config, sweep_eps
from bilevelbench.verify import SolverSettings

PRACTICAL = {"alpha": 0.1, "beta": 0.5, "gamma": 0.1, "eta": 0.01, "T": 5}
CONFIG = {"problem_kind": "quadratic", "problem_params": {"preset": "q2"},
          "noise": bb.NoiseModel.noiseless(), "algorithm": "slip",
          "schedule": {"mode": "practical", **PRACTICAL}}
NO_SEEDS = """\
[problem]
kind = quadratic
preset = q2

[algorithm]
name = slip

[schedule]
mode = practical
alpha = 0.1
beta = 0.5
gamma = 0.1
eta = 0.01
T = 5

[run]
x0 = 0.0
"""


def _spec(a, b):
    return bb.QuadraticSpec(A=a, B=b, c=np.zeros(2), e=np.ones(2))


def _no_seeds_file(tmp_path):
    path = tmp_path / "no_seeds.cfg"
    path.write_text(NO_SEEDS)
    parse_config(path)


CASES = {
    "run-z0-shape": (
        lambda _: bb.slip_run(bb.make_q2(), bb.schedule_practical(PRACTICAL),
                              np.zeros(2), np.ones(2), np.zeros(3), seed=0),
        bb.ConfigurationError, r"y0/z0 must have shape \(2,\)"),
    "config-no-seeds": (
        lambda _: RunConfig(**CONFIG, seeds=[]),
        bb.ConfigurationError, "seeds must be nonempty"),
    "file-no-seeds": (
        _no_seeds_file, bb.ConfigurationError, r"\[run\] seeds is required"),
    "sweep-practical": (
        lambda _: sweep_eps(RunConfig(**CONFIG), [0.1]),
        bb.ConfigurationError, "sweep requires a theorem-mode schedule"),
    "problem-dim-x-0": (
        lambda _: dataclasses.replace(bb.make_q2(), dim_x=0),
        bb.ConfigurationError, r"dimensions must be positive, got \(0, 2\)"),
    "solver-tol-0": (
        lambda _: SolverSettings(tol=0.0),
        bb.ConfigurationError, "tol must be positive, got 0.0"),
    "solver-max-iters-0": (
        lambda _: SolverSettings(max_iters=0),
        bb.ConfigurationError, "max_iters must be >= 1, got 0"),
    "quadratic-A-not-square": (
        lambda _: bb.make_quadratic(_spec(np.ones((2, 3)), np.eye(2))),
        bb.ConfigurationError, r"A must be square, got shape \(2, 3\)"),
    "quadratic-B-above-l_g1": (
        lambda _: bb.make_quadratic(_spec(np.eye(2), 3.0 * np.eye(2))),
        bb.ConfigurationError, "exceeds the declared lower-level smoothness"),
    "hyperclean-n-train-0": (
        lambda _: bb.HypercleanSpec(n_train=0, n_val=10, feature_dim=2,
                                    corruption_rate=0.2),
        bb.ConfigurationError, "n_train, n_val and feature_dim must be positive"),
    "theorem-L0-0": (
        lambda _: bb.schedule_theorem41(
            0.1, 0.1, bb.SmoothnessConstants(mu=1.0, l_g1=1.0, sigma_g1=1.0),
            1.0, 1.0, 1.0),
        bb.SchedulingError, r"need l_g1 > 0 and L0 > 0 \(got l_g1=1.0, L0=0.0\)"),
    "trace-unknown-column": (
        lambda _: bb.Trace().column("nope"), KeyError, "nope"),
}


@pytest.mark.parametrize("case", CASES)
def test_bad_input_rejected(case, tmp_path):
    call, error, match = CASES[case]
    with pytest.raises(error, match=match):
        call(tmp_path)
