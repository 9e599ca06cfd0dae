"""Certified truncation tails hold on adversarial acceptable matrices.

Three families that the fixtures do not cover: upper-triangular |Q| far
from normal (off-diagonal entries up to 100, diagonals sometimes tied),
reducible block-diagonal supports and periodic supports (a scaled cyclic
permutation).  The last two and the tied diagonals send the acceptability
gate to its eigenvalue fallback, so examples are few and unhurried.  On
the suite's fixed fixtures, each exact |Q| remainder is also checked
against the rho(|Q|) envelope n rho^(L+1) / (1 - rho) that it replaced.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsoup import checks
from loopsoup import fixtures as fx
from loopsoup import loops as lp
from loopsoup import matrices as mx
from oracles import neumann_partial

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
    exact = mx.greens_exact(q)
    tail = np.max(mx.abs_resolvent_tail(np.abs(a), length + 1, np.eye(len(a))))
    err = np.max(np.abs(neumann_partial(q.entries, length) - exact))
    assert err <= tail + _rounding(exact)


@settings(max_examples=45, deadline=None)
@given(ADVERSARIAL, st.integers(1, 60))
def test_loop_mass_error_within_tail(a, max_len):
    q = _weights(a)
    mass = lp.meeting_mass_truncated(q, q.space.labels, max_len)
    # real acceptable Q: det(I - Q) > 0 and the total mass is -log det(I - Q)
    sign, logdet = np.linalg.slogdet(np.eye(len(a)) - a)
    assert sign > 0
    err = abs(mass.value + logdet)
    assert err <= mass.tail_bound + _rounding(mx.greens_exact(q))


@settings(max_examples=45, deadline=None)
@given(ADVERSARIAL, st.integers(1, 60), st.data())
def test_meeting_mass_error_within_tail(a, max_len, data):
    q = _weights(a)
    n = len(a)
    sites = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    labels = [f"s{i}" for i in sites]
    mass = lp.meeting_mass_truncated(q, labels, max_len)
    # the mass of loops meeting ``sites`` is log det(I - Q_rest) - log det(I - Q)
    rest = [i for i in range(n) if i not in sites]
    sign, logdet = np.linalg.slogdet(np.eye(n) - a)
    sign_rest, logdet_rest = np.linalg.slogdet(np.eye(len(rest)) - a[np.ix_(rest, rest)])
    assert sign > 0 and sign_rest > 0
    err = abs(mass.value - (logdet_rest - logdet))
    assert err <= mass.tail_bound + _rounding(mx.greens_exact(q))


@settings(max_examples=45, deadline=None)
@given(ADVERSARIAL, st.integers(1, 60), st.data())
def test_first_return_error_within_tail(a, length, data):
    q = _weights(a)
    site = f"s{data.draw(st.integers(0, len(a) - 1))}"
    exact = mx.first_return_weight(q, site)
    partial, tail = checks._first_return_series(q, site, length=length)
    assert abs(partial - exact) <= tail + _rounding(mx.greens_exact(q))


FIXED = {
    "two-state": fx.two_state(),
    "cpx4": fx.random_acceptable(4, 0.6, seed=904, complex_entries=True),
    "cpx3": fx.random_acceptable(3, 0.5, seed=301, complex_entries=True),
    "herm2": fx.hermitian_pair(),
    "herm3": fx.random_hermitian(3, 0.55, seed=411),
}


def _envelope(q: mx.WeightMatrix, length: int) -> float:
    # sum_{k > length} n rho^k, rho = rho(|Q|) from its eigenvalues: the
    # bound every trace and first-return tail had before the exact remainder
    rho = mx.spectral_radius_abs(q)
    return q.n * rho ** (length + 1) / (1.0 - rho)


@pytest.mark.parametrize("name", sorted(FIXED))
@pytest.mark.parametrize("length", [1, 10, 14, 60])
def test_exact_tails_within_envelopes(name, length):
    q = FIXED[name]
    envelope = _envelope(q, length) * (1 + 1e-12)
    half = list(q.space.labels[: max(1, q.n // 2)])
    per_length = envelope / (length + 1)
    assert lp.meeting_mass_truncated(q, q.space.labels, length).tail_bound <= per_length
    assert lp.meeting_mass_truncated(q, half, length).tail_bound <= per_length
    for site in q.space.labels:
        _, tail = checks._first_return_series(q, site, length=length)
        assert tail <= envelope
