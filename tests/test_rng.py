"""Re-seekable substreams draw exactly what fresh substreams draw."""

import numpy as np
import pytest

from loopsoup.rng import Substreams, _philox_key, substream

INDICES = [0, 1, 12345, 2**40 + 3]

DRAWS = {
    "random": lambda rng: rng.random(7),
    "poisson": lambda rng: rng.poisson(2.5, 7),
    "gamma": lambda rng: rng.gamma(np.array([0.0, 0.3, 1.0, 2.0, 7.5])),
    "standard_normal": lambda rng: rng.standard_normal(7),
}


def _same(a, b):
    np.testing.assert_array_equal(a, b, strict=True)


class TestSubstreams:
    @pytest.mark.parametrize("seed", [0, 21, 2**40])
    @pytest.mark.parametrize("index", INDICES)
    @pytest.mark.parametrize("kind", sorted(DRAWS))
    def test_matches_fresh_substream(self, seed, index, kind):
        draw = DRAWS[kind]
        _same(draw(Substreams(seed)(index)), draw(substream(seed, index)))

    def test_seeking_back_restarts_the_stream(self):
        streams = Substreams(7)
        first = streams(12345).random(5)
        streams(2**40 + 3).standard_normal(3)
        streams(0).gamma(2.0)
        _same(streams(12345).random(5), first)
        _same(first, substream(7, 12345).random(5))

    def test_each_call_returns_the_same_generator(self):
        streams = Substreams(7)
        assert streams(1) is streams(2)

    @pytest.mark.parametrize("index", INDICES)
    def test_pending_half_word_is_dropped(self, index):
        # a float32 draw uses half a 64-bit word and keeps the other half
        # for the next 32-bit draw; seeking must forget it
        streams = Substreams(11)
        rng = streams(index + 1)
        rng.random(dtype=np.float32)
        assert rng.bit_generator.state["has_uint32"] == 1
        rng = streams(index)
        fresh = substream(11, index)
        _same(rng.random(3, dtype=np.float32), fresh.random(3, dtype=np.float32))
        _same(rng.random(3), fresh.random(3))

    def test_partly_read_buffer_is_dropped(self):
        streams = Substreams(11)
        streams(5).random(3)  # leaves one of four buffered words unread
        _same(streams(4).random(6), substream(11, 4).random(6))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            Substreams(3)(-1)
        with pytest.raises(ValueError):
            substream(3, -1)

    def test_index_past_the_counter_rejected(self):
        streams = Substreams(3)
        _same(streams(2**64 - 1).random(2), substream(3, 2**64 - 1).random(2))
        with pytest.raises(ValueError, match="below 2\\*\\*64"):
            streams(2**64)

    @pytest.mark.parametrize(
        "indices",
        [range(5), range(2**40, 2**40 + 4), range(10, 0, -3), range(2**64 - 2, 2**64)],
        ids=["from-zero", "far", "descending", "top"],
    )
    def test_over_a_range_matches_fresh_substreams(self, indices):
        # one stream per record in turn, as a dump takes them; a stream
        # left half read must not leak into the next
        drawn = [rng.random(3) for rng in map(Substreams(11), indices)]
        assert len(drawn) == len(indices)
        for index, values in zip(indices, drawn):
            _same(values, substream(11, index).random(3))


class TestPhiloxKey:
    @pytest.mark.parametrize("seed", [0, 3, 21, 42, 2**40])
    def test_key_is_float64_rounded_seed_state(self, seed):
        # every record depends on this rounding; a numpy change to it shows here
        key = substream(seed, 0).bit_generator.state["state"]["key"]
        _same(key, np.asarray(_philox_key(seed)).astype(np.uint64))
