"""Counter-based random samples.

Every stochastic oracle draw is a pure function of a :class:`Sample`, which
names a stream, a counter position within that stream, and a run seed.  The
underlying bit generator is Philox, keyed by ``(seed, stream)`` with the
counter placed in the counter block, so distinct streams are statistically
independent and any draw can be replayed (or evaluated in parallel) without
generator state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


class Stream(enum.IntEnum):
    """Named independent randomness streams consumed by the optimizers."""

    XI = 0          # upper-level gradient w.r.t. y (linear-system update)
    XI_PRIME = 1    # upper-level gradient w.r.t. x (momentum update)
    PI = 2          # lower-level gradient (main loop)
    ZETA = 3        # second-order product, yy block
    ZETA_PRIME = 4  # second-order product, xy block
    PI_TILDE = 5    # lower-level gradient (warm start / refinement)


# Distinguishes consumers that share one logical sample, e.g. noise added to
# two different oracle outputs evaluated at the same draw.
class OracleTag(enum.IntEnum):
    GENERIC = 0
    GRAD_X_F = 1
    GRAD_Y_F = 2
    GRAD_Y_G = 3
    HVP_XY_G = 4
    HVP_YY_G = 5


@dataclass(frozen=True)
class Sample:
    """One addressable random draw: ``(seed, stream, counter)``.

    Two samples with equal fields always reproduce bit-identical oracle
    outputs.
    """

    stream: Stream
    counter: int
    seed: int

    def __post_init__(self) -> None:
        if self.counter < 0:
            raise ValueError(f"sample counter must be non-negative, got {self.counter}")

    def generator(self, tag: OracleTag = OracleTag.GENERIC) -> np.random.Generator:
        """Return a fresh generator deterministic in (seed, stream, counter, tag)."""
        key = np.array([self.seed & _MASK64, int(self.stream)], dtype=np.uint64)
        counter = np.array([self.counter & _MASK64, int(tag), 0, 0], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(counter=counter, key=key))
