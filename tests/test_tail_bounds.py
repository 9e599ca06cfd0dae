"""Certified truncation tails hold on adversarial acceptable matrices.

Three families that the fixtures do not cover: upper-triangular |Q| far
from normal (off-diagonal entries up to 100, diagonals sometimes tied),
reducible block-diagonal supports and periodic supports (a scaled cyclic
permutation).  The last two and the tied diagonals send the acceptability
gate to its eigenvalue fallback, so examples are few and unhurried.
"""

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsoup import loops as lp
from loopsoup import matrices as mx

RADII = st.floats(0.05, 0.95)


def _entries(size: int, lo: float, hi: float):
    return st.lists(st.floats(lo, hi), min_size=size, max_size=size)


@st.composite
def non_normal_triangular(draw):
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):
        diag = [draw(st.floats(-0.95, 0.95))] * n
    else:
        diag = draw(_entries(n, -0.95, 0.95))
    a = np.diag(diag)
    a[np.triu_indices(n, 1)] = draw(_entries(n * (n - 1) // 2, -100.0, 100.0))
    return a


@st.composite
def reducible_blocks(draw):
    blocks = []
    for k in draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)):
        b = np.array(draw(_entries(k * k, -1.0, 1.0))).reshape(k, k)
        # entries stay within [-1, 1] and rho(|block|) below the drawn radius
        r = np.max(np.abs(np.linalg.eigvals(np.abs(b))))
        blocks.append(b * draw(RADII) / max(r, 1.0))
    return scipy.linalg.block_diag(*blocks)


@st.composite
def periodic_cycles(draw):
    n = draw(st.integers(2, 6))
    steps = st.floats(0.2, 1.0) | st.floats(-1.0, -0.2)
    w = np.array(draw(st.lists(steps, min_size=n, max_size=n)))
    w *= draw(RADII) / np.prod(np.abs(w)) ** (1.0 / n)
    return np.roll(np.diag(w), 1, axis=1)  # site i steps only to i + 1 mod n


ADVERSARIAL = st.one_of(non_normal_triangular(), reducible_blocks(), periodic_cycles())


def _weights(a: np.ndarray) -> mx.WeightMatrix:
    return mx.WeightMatrix.from_entries([f"s{i}" for i in range(len(a))], a)


def _rounding(g: np.ndarray) -> float:
    # the partial sums and the reference inverse both round at the scale of G
    return 8 * np.finfo(float).eps * np.max(np.abs(g))


@settings(max_examples=45, deadline=None)
@given(ADVERSARIAL, st.integers(0, 60))
def test_greens_series_error_within_tail(a, length):
    q = _weights(a)
    exact = mx.greens_exact(q).entries
    approx = mx.greens_series(q, length)
    err = np.max(np.abs(approx.entries - exact))
    assert err <= approx.tail_bound + _rounding(exact)


@settings(max_examples=45, deadline=None)
@given(ADVERSARIAL, st.integers(1, 60))
def test_loop_mass_error_within_tail(a, max_len):
    q = _weights(a)
    mass = lp.loop_mass_truncated(q, max_len)
    # real acceptable Q: det(I - Q) > 0 and the total mass is -log det(I - Q)
    sign, logdet = np.linalg.slogdet(np.eye(len(a)) - a)
    assert sign > 0
    err = abs(mass.value + logdet)
    assert err <= mass.tail_bound + _rounding(mx.greens_exact(q).entries)
