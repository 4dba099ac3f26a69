import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bilevelbench import samples
from bilevelbench.samples import (ConfigurationError, OracleTag, Sample,
                                  Stream, check_range, unchecked_sample)


def fresh_normals(sample, tag, d):
    """The draw built from scratch with the documented Philox word layout:
    key ``(seed, stream)``, counter ``(0, 0, tag, counter)``."""
    bits = np.random.Philox(
        counter=np.array([0, 0, int(tag), sample.counter], dtype=np.uint64),
        key=np.array([sample.seed, int(sample.stream)], dtype=np.uint64))
    return np.random.Generator(bits).standard_normal(d)


def test_same_sample_bit_identical():
    s = Sample(Stream.PI, 17, 123456789)
    a = s.generator().standard_normal(8)
    b = s.generator().standard_normal(8)
    assert np.array_equal(a, b)


def test_streams_are_distinct():
    draws = {
        stream: Sample(stream, 0, 7).generator().standard_normal(4).tobytes()
        for stream in Stream
    }
    assert len(set(draws.values())) == len(Stream)


def test_counters_are_distinct():
    a = Sample(Stream.XI, 0, 7).generator().standard_normal(4)
    b = Sample(Stream.XI, 1, 7).generator().standard_normal(4)
    assert not np.array_equal(a, b)


def test_tags_split_one_sample():
    s = Sample(Stream.ZETA, 3, 7)
    a = s.generator(OracleTag.HVP_YY_G).standard_normal(4)
    b = s.generator(OracleTag.HVP_XY_G).standard_normal(4)
    assert not np.array_equal(a, b)


def test_negative_counter_rejected():
    with pytest.raises(ValueError):
        Sample(Stream.XI, -1, 0)


@pytest.mark.parametrize("counter,seed", [
    (2**64, 0),               # a wrapped counter would replay counter 0
    (0, -1), (0, 2**64),      # a wrapped seed would replay seed 2**64 - 1 or 0
])
def test_out_of_range_rejected(counter, seed):
    with pytest.raises(ValueError):
        Sample(Stream.XI, counter, seed)


def test_range_error_is_a_configuration_error():
    # the one exception for bad input, which the CLI turns into exit 1
    with pytest.raises(ConfigurationError, match="must lie in"):
        Sample(Stream.PI, 2**64, 0)


@pytest.mark.parametrize("seed,first,last,ok", [
    (0, 0, -1, True), (0, -5, -6, True),        # no counters
    (2**64 - 1, 0, 2**64 - 1, True),
    (-1, 0, -1, False), (2**64, 0, 2, False),
    (0, -1, 2, False), (0, 5, 2**64, False),
])
def test_check_range(seed, first, last, ok):
    if ok:
        check_range(seed, first, last)
    else:
        with pytest.raises(ValueError, match="must lie in"):
            check_range(seed, first, last)


def test_unchecked_sample_is_the_checked_sample():
    # unchecked_sample fills the dataclass's fields itself: a new field, a
    # default or slots would make it differ from Sample(...) and fail here
    for stream in Stream:
        for counter, seed in ((0, 0), (17, 123456789), (2**64 - 1, 2**64 - 1)):
            a, b = Sample(stream, counter, seed), unchecked_sample(stream, counter, seed)
            assert type(b) is Sample and a == b and hash(a) == hash(b)
            assert vars(b) == {f.name: getattr(a, f.name)
                               for f in dataclasses.fields(Sample)}
            assert np.array_equal(a.generator().standard_normal(3),
                                  b.generator().standard_normal(3))


@pytest.mark.parametrize("tag", list(OracleTag))
def test_rewind_matches_fresh_generator(tag):
    # d up to 300 includes ziggurat rejections that spill into the next block
    for seed in (0, 7, 2**63 + 5, 2**64 - 1):
        for counter in (0, 1, 2**64 - 1):
            for stream in Stream:
                s = Sample(stream, counter, seed)
                for d in range(1, 301, 1 if stream is Stream.XI else 37):
                    assert np.array_equal(s.generator(tag).standard_normal(d),
                                          fresh_normals(s, tag, d))


@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       counter=st.integers(min_value=0, max_value=2**32),
       stream=st.sampled_from(list(Stream)))
def test_determinism_property(seed, counter, stream):
    s1 = Sample(stream, counter, seed)
    s2 = Sample(stream, counter, seed)
    assert np.array_equal(s1.generator().standard_normal(3),
                          s2.generator().standard_normal(3))


def test_interleaved_calls_match_lone_calls():
    a, b = Sample(Stream.PI, 3, 11), Sample(Stream.ZETA, 4, 12)
    alone_a = a.generator(OracleTag.GRAD_Y_G).standard_normal(50)
    alone_b = b.generator(OracleTag.HVP_YY_G).standard_normal(7)
    for _ in range(3):
        # a draw that leaves a half-used 64-bit word must not leak into the next
        b.generator().integers(0, 2**32, size=3, dtype=np.uint32)
        got_a = a.generator(OracleTag.GRAD_Y_G).standard_normal(50)
        got_b = b.generator(OracleTag.HVP_YY_G).standard_normal(7)
        assert np.array_equal(got_a, alone_a)
        assert np.array_equal(got_b, alone_b)


def test_threads_draw_as_one_thread_does():
    samples = [Sample(stream, t, 5) for t in range(200) for stream in Stream]
    expected = [s.generator(OracleTag.HVP_XY_G).standard_normal(9) for s in samples]
    n_threads = 4
    got: list = [None] * n_threads
    start = threading.Barrier(n_threads)

    def work(i):
        start.wait(timeout=30)
        got[i] = [s.generator(OracleTag.HVP_XY_G).standard_normal(9)
                  for s in samples]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for draws in got:
        assert draws is not None
        assert all(np.array_equal(g, e) for g, e in zip(draws, expected, strict=True))


def test_each_thread_keeps_one_generator():
    # one generator per thread, rewound per draw, and never another thread's
    a = Sample(Stream.PI, 3, 11).generator(OracleTag.GRAD_Y_G)
    b = Sample(Stream.ZETA, 4, 12).generator(OracleTag.HVP_YY_G)
    assert a is b and samples._local.philox[0] is a
    other = []
    th = threading.Thread(target=lambda: other.append(
        Sample(Stream.PI, 3, 11).generator(OracleTag.GRAD_Y_G)))
    th.start()
    th.join(timeout=30)
    assert len(other) == 1 and other[0] is not a


@pytest.mark.parametrize("stream", list(Stream))
def test_consecutive_counters_share_no_values(stream):
    # Philox advances its counter from word 0; a draw at t + 1 must not
    # reuse the blocks of the draw at t, whatever its length.  Each dim gets
    # its own pair of counters, so the pooled values below are independent.
    firsts, seconds = [], []
    for i, d in enumerate(range(5, 257)):
        for tag in OracleTag:
            a = Sample(stream, 2 * i, 7).generator(tag).standard_normal(d)
            b = Sample(stream, 2 * i + 1, 7).generator(tag).standard_normal(d)
            assert not set(a.tolist()) & set(b.tolist()), (d, tag)
            firsts.append(a)
            seconds.append(b)
    # about 2e5 pairs, so an independent correlation has std about 0.002;
    # the old layout shifted each block by four values (lag 4)
    for lag in range(5):
        x = np.concatenate([a[lag:] for a in firsts])
        y = np.concatenate([b[:b.size - lag] for b in seconds])
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.02, lag
