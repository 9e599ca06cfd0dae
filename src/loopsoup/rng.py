"""Reproducible random streams.

All samplers in this package take an explicit ``numpy.random.Generator``.
Streams are built on the counter-based Philox generator so that substream
``(seed, index)`` is independent of substream ``(seed, index')`` and samples
may be drawn concurrently without coordination: each index owns a disjoint
block of 2**192 values of the counter.

Because a Philox stream is its key plus a counter, a loop that draws one
row per index need not build a new generator per row: ``Substreams(seed)``
moves one generator to the start of substream ``(seed, index)`` by setting
its counter (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC 2011).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["substream", "Substreams", "SEED_ENV_VAR"]

SEED_ENV_VAR = "LOOPSOUP_SEED"


@lru_cache(maxsize=None)
def _philox_key(seed: int) -> tuple[int, int]:
    state = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    return int(state[0]), int(state[1])


def substream(seed: int, index: int = 0) -> np.random.Generator:
    """Generator for the ``index``-th independent stream of ``seed``.

    The Philox key in use is not ``_philox_key(seed)`` itself: ``Philox``
    passes the key through ``np.asarray``, which turns the two 64-bit
    integers into float64 and rounds away their low bits.  The key is
    therefore the float64-rounded ``SeedSequence`` state.  It stays that way
    on purpose, since an exact key would change every record drawn so far.
    """
    if index < 0:
        raise ValueError("stream index must be nonnegative")
    bitgen = np.random.Philox(key=_philox_key(seed), counter=index << 192)
    return np.random.Generator(bitgen)


class Substreams:
    """All substreams of one seed through one re-seekable generator.

    ``streams(index)`` moves the generator to the state that
    ``substream(seed, index)`` starts in and returns it, so its draws are
    bit-identical to a fresh substream's.  Every call returns the same
    ``Generator`` object: a stream is valid until the next call re-seeks it.
    """

    def __init__(self, seed: int) -> None:
        self._generator = substream(seed, 0)
        self._bitgen = self._generator.bit_generator
        # the key actually in use (see ``substream``), not _philox_key(seed)
        key = tuple(int(k) for k in self._bitgen.state["state"]["key"])
        self._inner = {"counter": (0, 0, 0, 0), "key": key}
        self._state = {
            "bit_generator": "Philox",
            "state": self._inner,
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,  # buffer empty: the next draw starts the counter
            "has_uint32": 0,
            "uinteger": 0,
        }

    def __call__(self, index: int) -> np.random.Generator:
        if not 0 <= index < 1 << 64:
            raise ValueError("stream index must be nonnegative and below 2**64")
        self._inner["counter"] = (0, 0, 0, index)
        self._bitgen.state = self._state
        return self._generator
