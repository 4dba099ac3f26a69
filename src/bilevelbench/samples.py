"""Counter-based random samples.

Every stochastic oracle draw is a pure function of a :class:`Sample`, which
names a stream, a counter position within that stream, and a run seed, and
of an :class:`OracleTag`.  The bit generator is Philox4x64: its key words
are ``(seed, stream)`` and its four counter words ``(0, 0, tag, counter)``.
Philox advances the counter from word 0, carrying into word 1, so a draw
of any length walks words 0 and 1 and never reaches the words that hold
the tag and the counter: distinct ``(seed, stream)`` use distinct keys,
distinct ``(tag, counter)`` disjoint blocks, and any draw can be replayed
without generator state.  Seeds and counters must lie in ``[0, 2**64)``,
because each fills one 64-bit word.

No generator and no state dict is built per draw: each thread keeps one
Philox generator and one state dict for it, and :meth:`Sample.generator`
writes the draw's counter and key words into that dict and assigns it, which
rewinds the generator.

Constructing a :class:`Sample` checks both ranges with :func:`check_range`.
A run calls :func:`check_range` once for its seed and whole counter range,
and then builds its per-iteration samples with :func:`unchecked_sample`.
This module, below every other, defines :class:`ConfigurationError`, the
package's one exception for bad input, raised where a value is checked.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass

import numpy as np

_WORD = 1 << 64

# per thread: a generator, its state dict and that dict's counter and key
# words, which Sample.generator rewrites; never shared between threads
_local = threading.local()


class ConfigurationError(ValueError):
    """Bad input: wrong dimensions, wrong stream, an invalid or unknown
    config key or value (CLI exit code 1)."""


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
        check_range(self.seed, self.counter, self.counter)

    def generator(self, tag: OracleTag = OracleTag.GENERIC) -> np.random.Generator:
        """Return a generator positioned at (seed, stream, counter, tag).

        The generator is this thread's one Philox generator, rewound to the
        draw's position by assigning this thread's one state dict, with only
        its counter and key words rewritten; the buffer fields stay empty, so
        the draw starts a fresh block.  The generator stays valid until the
        next ``generator()`` call on the same thread.
        """
        try:
            gen, state, words = _local.philox
        except AttributeError:
            gen, words = np.random.Generator(np.random.Philox()), {}
            state = {"bit_generator": "Philox", "state": words,
                     "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                     "has_uint32": 0, "uinteger": 0}
            _local.philox = gen, state, words
        words["counter"] = (0, 0, tag, self.counter)
        words["key"] = (self.seed, self.stream)
        gen.bit_generator.state = state
        return gen


def check_range(seed: int, first: int, last: int) -> None:
    """Raise :class:`ConfigurationError` unless ``seed`` and every counter
    from ``first`` to ``last`` lie in ``[0, 2**64)``.

    Each fills one 64-bit Philox word; wrapping would alias two draws.
    """
    if first <= last and not (0 <= first and last < _WORD):
        raise ConfigurationError("sample counters must lie in [0, 2**64), "
                                 f"got {first}..{last}")
    if not 0 <= seed < _WORD:
        raise ConfigurationError(f"seed must lie in [0, 2**64), got {seed}")


_new = object.__new__


def unchecked_sample(stream: Stream, counter: int, seed: int) -> Sample:
    """The :class:`Sample` ``Sample(stream, counter, seed)``, built without
    its range check, for a caller that has passed the seed and the counter
    through :func:`check_range` already.

    It fills the frozen dataclass's fields directly; ``test_samples`` pins
    that the result equals the checked ``Sample``, so a change to the
    dataclass's layout fails there.  It takes less than half the time of a
    checked ``Sample``, and the run loop builds five per iteration.
    """
    s = _new(Sample)
    fields = s.__dict__   # frozen: its __setattr__ refuses every write
    fields["stream"] = stream
    fields["counter"] = counter
    fields["seed"] = seed
    return s
