"""The lowest-site loop walk, rotation classes, and the three mass computations."""

import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsoup import loops as lp
from loopsoup import matrices as mx
from loopsoup import soup as sp
from loopsoup.errors import InvalidPath, TooLarge, UnknownSite
from loopsoup.fixtures import one_point, random_acceptable, two_state
from oracles import block_weights, loop_blocks


def _walk_paths(support, max_len):
    """The chunks of lp.prefix_walk, each with its paths' sites as the
    columns of a (d + 1, k) array."""

    def start(root):
        return (np.array([[root]]),)

    def extend(root, carried, parent, edge, sites):
        return (np.vstack((carried[0][:, parent], sites)),)

    for root, _, sites, (path,) in lp.prefix_walk(support, max_len, start, extend):
        yield root, sites, path


def _closing_paths(support, max_len):
    """The paths of the walk that step back to their root, as site tuples."""
    support = np.asarray(support, dtype=bool)
    return [
        tuple(row)
        for root, sites, path in _walk_paths(support, max_len)
        for row in path.T[support[sites, root]].tolist()
    ]


def _fewest_steps_back(support, root, max_len):
    """Fewest steps k >= 1 from each site x >= root back to the root over
    the sites >= root, indexed by x - root; max_len + 1 past max_len."""
    sub = support[root:, root:].astype(np.int64)
    reach = np.eye(len(sub), dtype=np.int64)
    out = np.full(len(sub), max_len + 1)
    for k in range(1, max_len + 1):
        reach = np.minimum(sub @ reach, 1)
        out[(reach[:, 0] > 0) & (out > max_len)] = k
    return out


def _literal_loops(support, max_len):
    return [tuple(row) for block in loop_blocks(support, max_len) for row in block.tolist()]


def _class_weight(sites):
    """The walk's weights n/k, k the visits to the root, summed over its
    closing paths that are rotations of ``sites``, on the support of the
    loop's own steps."""
    n = len(sites)
    support = np.zeros((max(sites) + 1,) * 2, dtype=bool)
    support[list(sites), list(sites[1:] + sites[:1])] = True
    rotations = {sites[k:] + sites[:k] for k in range(n)}
    return sum(n / p.count(p[0]) for p in _closing_paths(support, n) if p in rotations)


class TestRotationClasses:
    # the walk reaches a class once per rooting at its lowest site and
    # weighs each n/k, so the class weighs its number of distinct rotations,
    # the minimal cyclic period of its sites
    @pytest.mark.parametrize(
        "sites, period",
        [
            ((0,), 1),
            ((0, 0, 0), 1),
            ((0, 1), 2),
            ((0, 1, 0, 1), 2),
            ((0, 1, 2, 0, 1), 5),
            # ten steps built from a five-step motif: five distinct rotations
            ((0, 1, 2, 0, 1, 0, 1, 2, 0, 1), 5),
        ],
    )
    def test_minimal_period(self, sites, period):
        assert _class_weight(sites) == period

    def test_canonical_is_least_rotation(self):
        # a 3-cycle entered at 2 is walked from 0 only
        support = np.zeros((3, 3), dtype=bool)
        support[[2, 0, 1], [0, 1, 2]] = True
        assert _closing_paths(support, 3) == [(0, 1, 2)]

    def test_all_rotations_share_class(self):
        # every literal loop is a rotation of a path the walk closes
        sites = (1, 0, 2, 0)
        support = np.zeros((3, 3), dtype=bool)
        support[list(sites), list(sites[1:] + sites[:1])] = True
        closing = _closing_paths(support, 4)
        assert all(p[0] == min(p) for p in closing)
        rotations = {p[k:] + p[:k] for p in closing for k in range(len(p))}
        assert sites in rotations
        assert rotations == set(_literal_loops(support, 4))

    @given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_rotation_count_is_number_of_distinct_rotations(self, sites):
        sites = tuple(sites)
        n = len(sites)
        distinct = {sites[k:] + sites[:k] for k in range(n)}
        assert _class_weight(sites) == pytest.approx(len(distinct), rel=1e-13)

    def test_unrooted_measure_sums_rooted_measures(self):
        # classes summed from their lowest site give the rooted loop sums
        q = random_acceptable(3, 0.6, seed=31, complex_entries=True)
        unrooted_total = lp.loop_prefix_sums(q, 6, np.ones(q.n))[0] @ (1 / np.arange(1, 7))
        rooted_total = _mass_enumerated(q, max_len=6)
        assert unrooted_total == pytest.approx(rooted_total, rel=1e-12)


class TestEnumeration:
    def test_full_support_counts(self):
        support = np.ones((2, 2))
        q = mx.WeightMatrix.from_entries(("a", "b"), support)
        # 2^n tuples per length n
        assert [len(b) for b in loop_blocks(support, 4)] == [2, 4, 8, 16]
        sums = lp.loop_prefix_sums(q, 4, np.ones(2))
        np.testing.assert_allclose(sums[0], [2, 4, 8, 16], rtol=1e-13)

    def test_support_pruning(self):
        loops = _closing_paths(two_state().support(), 4)
        # no self-loops: only even lengths, each class rooted at site 0
        assert sorted(loops) == [(0, 1), (0, 1, 0, 1)]

    def test_order_repeats(self):
        q = random_acceptable(3, 0.6, seed=37, complex_entries=True)
        first, second = _walk_paths(q.support(), 5), _walk_paths(q.support(), 5)
        for a, b in zip(first, second, strict=True):
            assert a[0] == b[0]
            np.testing.assert_array_equal(a[1], b[1])
            np.testing.assert_array_equal(a[2], b[2])

    def test_budget_enforced(self):
        q = mx.WeightMatrix.from_entries(
            ("a", "b", "c"), np.full((3, 3), 0.1)
        )
        # 3^n loops of each length n pass the 10^7 budget at n = 15
        with pytest.raises(TooLarge):
            _closing_paths(q.support(), 60)


@st.composite
def _supported_matrices(draw):
    """Complex matrices on 1-4 sites with an arbitrary support pattern."""
    n = draw(st.integers(min_value=1, max_value=4))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    values = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
    return mx.WeightMatrix.from_entries(
        [f"s{i}" for i in range(n)], values * mask.reshape(n, n)
    )


_SUPPORT_CASES = pytest.mark.parametrize(
    "entries, max_len",
    [
        (np.full((3, 3), 0.2), 7),
        ([[0, 0.3, 0, 0], [0, 0, 0.3, 0.1], [0.3, 0, 0, 0], [0, 0, 0.2, 0]], 9),
        ([[0.3, 0.2], [0.1, 0.0]], 8),
        ([[0.2, 0.3, 0.0], [0.0, 0.0, 0.0], [0.2, 0.1, 0.3]], 7),
        ([[0.4]], 6),
        # two cycles and a self-loop through site 0: loops such as 0 1 0 2
        # and 0 0 0 visit their lowest site k > 1 times
        ([[0.2, 0.3, 0.3], [0.3, 0.0, 0.0], [0.3, 0.0, 0.1]], 8),
        # a directed 3-cycle: every loop repeats one motif 1, 2 or 3 times
        ([[0, 0.4, 0], [0, 0, 0.4], [0.4, 0, 0]], 9),
        # every loop passes site 0, so the roots above it close no loop
        ([[0, 0.4, 0, 0], [0, 0, 0.4, 0], [0.3, 0, 0, 0.3], [0.4, 0, 0, 0]], 10),
        # 2 1 2 1 revisits its lowest site, which is not site 0
        ([[0.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.5, 0.2]], 8),
        (np.full((5, 5), 0.1), 5),
        # a 2-cycle with a self-loop feeding a 3-cycle that never returns
        ([[0.2, 0.3, 0.1, 0.0, 0.0], [0.3, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.3, 0.0],
          [0.0, 0.0, 0.0, 0.0, 0.3], [0.0, 0.0, 0.3, 0.0, 0.0]], 9),
    ],
    ids=[
        "dense", "sparse", "self-loop", "zero-row", "one-site",
        "lowest-revisited", "periodic", "roots-without-loops", "lowest-above-zero",
        "dense-five", "reducible-five",
    ],
)

# loops of each length on two large supports, and the traced peak allowed
_LARGE_SUPPORTS = pytest.mark.parametrize(
    "support, per_length, peak_mb",
    [
        # 300 self-loops and 300^2 two-step loops
        (np.ones((300, 300)), [300, 300**2], 16),
        # a 200-site cycle, both directions: binom(n, n/2) per even n
        (np.eye(200, k=1) + np.eye(200, k=-1) + np.eye(200, k=199)
         + np.eye(200, k=-199), [0, 200 * 2, 0, 200 * 6, 0, 200 * 20, 0, 200 * 70], 4),
    ],
    ids=["dense-300", "cycle-200"],
)


class TestLoopBlocks:
    """The paths of the prefix walk, against the literal loop blocks."""

    @_SUPPORT_CASES
    def test_rows_match_reference_order(self, entries, max_len):
        # the closing paths are the literal loops whose first site is their
        # lowest, each once, in chunks of at most 1024
        support = np.asarray(entries) != 0
        assert all(1 <= path.shape[1] <= 1024 for _, _, path in _walk_paths(support, max_len))
        closing = _closing_paths(support, max_len)
        assert len(set(closing)) == len(closing)
        want = [p for p in _literal_loops(support, max_len) if p[0] == min(p)]
        assert sorted(closing) == sorted(want)

    @_SUPPORT_CASES
    def test_every_path_can_still_close(self, entries, max_len):
        # a path of d steps is yielded only if it can step back to its root
        # within max_len - d more steps without going below the root
        support = np.asarray(entries) != 0
        roots = set()
        for root, depth, sites, _ in lp.prefix_walk(
            support, max_len, lambda root: (), lambda *args: ()
        ):
            back = _fewest_steps_back(support, root, max_len)
            assert np.all(depth + back[sites - root] <= max_len)
            roots.add(int(root))
        n = len(support)
        assert roots == {
            r for r in range(n) if _fewest_steps_back(support, r, max_len)[0] <= max_len
        }

    def test_roots_that_close_only_through_lower_sites_are_skipped(self):
        # on roots-without-loops every loop passes site 0: roots 1-3 reach
        # themselves only through it, so they yield no chunk at all
        support = np.array(
            [[0, 0.4, 0, 0], [0, 0, 0.4, 0], [0.3, 0, 0, 0.3], [0.4, 0, 0, 0]]
        ) != 0
        roots = [root for root, *_ in _walk_paths(support, 12)]
        assert set(roots) == {0}

    def test_budget_refused_before_any_block(self):
        q = mx.WeightMatrix.from_entries(("a", "b", "c"), np.full((3, 3), 0.1))
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                next(_walk_paths(q.support(), max_len=60))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a single chunk of length-60 paths takes 1024 * 60 * 8 bytes
        assert peak < 64 * 1024

    @_LARGE_SUPPORTS
    def test_memory_scales_with_one_root(self, support, per_length, peak_mb):
        # each closing path of n steps stands for n/k rooted loops, k its
        # visits to the root
        support = support != 0
        tracemalloc.start()
        try:
            rows = np.zeros(len(per_length))
            for root, sites, path in _walk_paths(support, len(per_length)):
                path = path[:, support[sites, root]]
                if path.size:
                    assert support[path, np.roll(path, -1, axis=0)].all()
                    rows[len(path) - 1] += np.sum(len(path) / (path == root).sum(axis=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_allclose(rows, per_length, rtol=1e-13)
        # tables for all roots at once would take about 1.3 GB on dense-300
        assert peak < peak_mb * 2**20

    @given(_supported_matrices(), st.integers(min_value=1, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_per_length_sums_match_traces(self, q, max_len):
        summed = np.zeros(max_len, dtype=np.complex128)
        scale = np.zeros(max_len)
        for block in loop_blocks(q.support(), max_len):
            measure = block_weights(q.entries, block) / block.shape[1]
            summed[block.shape[1] - 1] += measure.sum()
            scale[block.shape[1] - 1] += np.abs(measure).sum()
        traced = lp.loop_mass_per_length(q, max_len)
        assert np.all(np.abs(summed - traced) <= 1e-12 * scale)


def _reference_prefix_sums(q, max_len, factor):
    """The four per-length sums of loop_prefix_sums over the literal loop
    blocks, and the per-length sums of the terms' moduli."""
    sums = np.zeros((4, max_len), dtype=np.complex128)
    scale = np.zeros((4, max_len))
    for block in loop_blocks(q.support(), max_len):
        disc = np.prod(factor[block], axis=1)
        plain = block_weights(q.entries, block)
        back = block_weights(q.entries, block, reverse=True)
        for k, terms in enumerate((plain, plain * disc, back, back * disc)):
            sums[k, block.shape[1] - 1] += terms.sum()
            scale[k, block.shape[1] - 1] += np.abs(terms).sum()
    return sums, scale


@st.composite
def _prefix_walk_inputs(draw):
    """Complex weights on 1-6 sites with 0-80% zeros, sometimes a zero row,
    a length cap up to 9 that keeps the reference within 20 000 loops, and a
    complex factor per site."""
    n = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    values = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
    values[rng.uniform(size=(n, n)) < draw(st.floats(min_value=0.0, max_value=0.8))] = 0.0
    if draw(st.booleans()):
        values[rng.integers(n)] = 0.0
    support = (values != 0).astype(np.int64)
    counts = np.cumsum(
        [np.trace(np.linalg.matrix_power(support, k)) for k in range(1, 10)]
    )
    max_len = draw(st.integers(min_value=1, max_value=int(np.sum(counts <= 20_000))))
    factor = rng.uniform(-1.5, 1.5, n) + 1j * rng.uniform(-1.5, 1.5, n)
    q = mx.WeightMatrix.from_entries([f"s{i}" for i in range(n)], values)
    return q, max_len, factor


class TestLoopPrefixSums:
    @staticmethod
    def _assert_matches_reference(q, max_len, factor):
        want, scale = _reference_prefix_sums(q, max_len, factor)
        got = lp.loop_prefix_sums(q, max_len, factor, reverse=True)
        assert got.shape == (4, max_len)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
        got = lp.loop_prefix_sums(q, max_len, factor)
        assert got.shape == (2, max_len)
        assert np.all(np.abs(got - want[:2]) <= 1e-12 * scale[:2])

    @_SUPPORT_CASES
    def test_fixed_supports_match_loop_blocks(self, entries, max_len):
        q = mx.WeightMatrix.from_entries([f"s{i}" for i in range(len(entries))], entries)
        factor = np.linspace(0.5, 1.5, q.n) * np.exp(0.3j * np.arange(q.n))
        self._assert_matches_reference(q, max_len, factor)

    @_SUPPORT_CASES
    def test_fixed_supports_count_every_rooted_loop(self, entries, max_len):
        # on a 0/1 copy of the support every rooted loop weighs one, and
        # walked backwards one when its reversal is supported too; the walk's
        # weights n/k round, so the counts hold to a few units in the last bit
        support = (np.asarray(entries) != 0).astype(float)
        q = mx.WeightMatrix.from_entries([f"s{i}" for i in range(len(support))], support)

        def counts(m):
            return [np.trace(np.linalg.matrix_power(m, n)) for n in range(1, max_len + 1)]

        sums = lp.loop_prefix_sums(q, max_len, np.ones(q.n), reverse=True)
        forward, both = counts(support), counts(support * support.T)
        np.testing.assert_allclose(sums.real, [forward, forward, both, both], rtol=1e-13)
        assert not sums.imag.any()

    @given(_prefix_walk_inputs())
    @settings(max_examples=80, deadline=None)
    def test_per_length_sums_match_loop_blocks(self, inputs):
        self._assert_matches_reference(*inputs)

    def test_budget_refused_before_any_work(self):
        q = mx.WeightMatrix.from_entries(("a", "b", "c"), np.full((3, 3), 0.1))
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                lp.loop_prefix_sums(q, 60, np.ones(3), reverse=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @_LARGE_SUPPORTS
    def test_counts_and_memory_on_large_supports(self, support, per_length, peak_mb):
        # on a 0/1 copy of the support every loop weighs one
        labels = [f"s{i}" for i in range(len(support))]
        q = mx.WeightMatrix.from_entries(labels, support)
        tracemalloc.start()
        try:
            sums = lp.loop_prefix_sums(q, len(per_length), np.ones(q.n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(sums, [per_length, per_length])
        assert peak < peak_mb * 2**20


def _walked_prefix_sums(q, max_len, factor):
    """The four rows of loop_prefix_sums summed over the closing paths of
    the full walk, every level walked, and the sums of the terms' moduli."""
    sums = np.zeros((4, max_len), dtype=np.complex128)
    scale = np.zeros((4, max_len))
    for path in _closing_paths(q.support(), max_len):
        n = len(path)
        ahead = path[1:] + path[:1]
        plain = np.prod(q.entries[path, ahead]) * n / path.count(path[0])
        back = np.prod(q.entries[ahead, path]) * n / path.count(path[0])
        disc = np.prod(factor[list(path)])
        for k, term in enumerate((plain, plain * disc, back, back * disc)):
            sums[k, n - 1] += term
            scale[k, n - 1] += abs(term)
    return sums, scale


class TestLastTwoSteps:
    """loop_prefix_sums adds the longest loops from the paths two steps
    short of them, against the walk that yields every level."""

    @pytest.mark.parametrize("max_len", [1, 2, 3, 6])
    @pytest.mark.parametrize(
        "entries",
        [
            # self-loops at sites 0 and 2 and two cycles through site 0: the
            # last free site may be the root itself
            [[0.2, 0.3, 0.3], [0.3, 0.0, 0.0], [0.3, 0.0, 0.1]],
            # a directed 3-cycle: loops of length 3 and 6 only
            [[0, 0.4, 0], [0, 0, 0.4], [0.4, 0, 0]],
            # a 2-cycle with a self-loop feeding a 3-cycle that never returns
            [[0.2, 0.3, 0.1, 0.0, 0.0], [0.3, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.3, 0.0],
             [0.0, 0.0, 0.0, 0.0, 0.3], [0.0, 0.0, 0.3, 0.0, 0.0]],
        ],
        ids=["self-loop-at-root", "periodic", "reducible"],
    )
    def test_matches_full_walk(self, entries, max_len, monkeypatch):
        rng = np.random.default_rng(max_len)
        entries = np.asarray(entries) * np.exp(1j * rng.uniform(0, 2 * np.pi, np.shape(entries)))
        q = mx.WeightMatrix.from_entries([f"s{i}" for i in range(len(entries))], entries)
        factor = np.linspace(0.5, 1.5, q.n) * np.exp(0.3j * np.arange(q.n))
        want, scale = _walked_prefix_sums(q, max_len, factor)
        full = {
            depth
            for _, depth, _, _ in lp.prefix_walk(
                q.support(), max_len, lambda root: (), lambda *args: ()
            )
        }
        depths = []
        walk = lp.prefix_walk

        def recorded(*args, **kwargs):
            for chunk in walk(*args, **kwargs):
                depths.append(chunk[1])
                yield chunk

        monkeypatch.setattr(lp, "prefix_walk", recorded)
        got = lp.loop_prefix_sums(q, max_len, factor, reverse=True)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
        # the same walk, cut before its deepest level once there are two
        assert set(depths) == {d for d in full if d <= max(max_len - 2, 0)}


def _restricted(q, sites):
    """q kept only on the steps of the loop ``sites``, closing step included."""
    mask = np.zeros((q.n, q.n), dtype=bool)
    mask[list(sites), list(sites[1:] + sites[:1])] = True
    return mx.WeightMatrix(q.space, q.entries * mask)


class TestLoopWeight:
    def test_includes_closing_step(self):
        # on a 3-cycle the walk closes one path per class, booked for the
        # three rotations of the cycle
        q = _restricted(random_acceptable(3, 0.5, seed=41, complex_entries=True), (0, 2, 1))
        expect = q.entries[0, 2] * q.entries[2, 1] * q.entries[1, 0]
        sums = lp.loop_prefix_sums(q, 3, np.ones(3))[0]
        np.testing.assert_allclose(sums, [0, 0, 3 * expect], rtol=1e-14, atol=0)

    def test_rotation_invariant(self):
        # the walk books each class at its lowest-site rootings only; that
        # is the literal sum because every rotation has the same weight
        q = _restricted(random_acceptable(3, 0.5, seed=43, complex_entries=True), (0, 1, 2, 1))
        block = next(b for b in loop_blocks(q.support(), 4) if b.shape[1] == 4)
        assert {(1, 2, 1, 0), (2, 1, 0, 1)} <= set(map(tuple, block.tolist()))
        want = block_weights(q.entries, block).sum()
        assert lp.loop_prefix_sums(q, 4, np.ones(3))[0, 3] == pytest.approx(want, rel=1e-12)

    def test_local_times_count_steps(self):
        soup = (lp.RootedLoop((0, 2, 0, 1)),)
        np.testing.assert_array_equal(sp.discrete_occupation(soup, 4), [2, 1, 1, 0])


def _mass_enumerated(q, max_len, meeting=None):
    """Literal sum of m(loop) over the literal loop blocks; oracle for the
    traces.

    With ``meeting`` given, only loops visiting at least one listed site
    contribute.
    """
    targets = q.space.indices(meeting) if meeting is not None else None
    total = 0.0 + 0.0j
    for block in loop_blocks(q.support(), max_len):
        weights = block_weights(q.entries, block)
        if targets is not None:
            weights = weights[np.isin(block, targets).any(axis=1)]
        total += weights.sum() / block.shape[1]
    return complex(total)


class TestMasses:
    def test_one_point_log_series(self):
        # mass of all loops at a single q-site is -log(1 - q)
        q = one_point(0.5)
        mass = lp.meeting_mass_truncated(q, q.space.labels, max_len=60)
        assert mass.value == pytest.approx(-math.log(0.5), abs=1e-15 + mass.tail_bound)

    def test_trace_route_matches_enumeration(self):
        q = random_acceptable(3, 0.6, seed=47, complex_entries=True)
        lit = _mass_enumerated(q, max_len=8)
        tr = lp.meeting_mass_truncated(q, q.space.labels, max_len=8)
        assert lit == pytest.approx(tr.value, rel=1e-10)

    def test_meeting_trace_matches_enumeration(self):
        q = random_acceptable(3, 0.6, seed=53, complex_entries=True)
        lit = _mass_enumerated(q, max_len=8, meeting=["s0", "s2"])
        tr = lp.meeting_mass_truncated(q, ["s0", "s2"], max_len=8)
        assert lit == pytest.approx(tr.value, rel=1e-10)

    def test_tail_bound_covers_rest(self):
        q = random_acceptable(4, 0.7, seed=59, complex_entries=True)
        short = lp.meeting_mass_truncated(q, q.space.labels, max_len=10)
        long = lp.meeting_mass_truncated(q, q.space.labels, max_len=200)
        assert abs(long.value - short.value) <= short.tail_bound

    def test_meeting_empty_is_zero(self):
        q = two_state()
        assert lp.meeting_mass_truncated(q, [], max_len=6).value == 0


class TestExpIdentities:
    def test_exp_total_equals_inverse_det(self):
        q = random_acceptable(4, 0.6, seed=67, complex_entries=True)
        mass = lp.meeting_mass_truncated(q, q.space.labels, max_len=80)
        approx, bound = lp.exp_truncated(mass)
        assert abs(approx - 1.0 / mx.det_laplacian(q)) <= bound + 1e-12

    def test_exp_meeting_equals_greens_product(self):
        q = random_acceptable(4, 0.6, seed=71, complex_entries=True)
        subset = ["s1", "s3"]
        mass = lp.meeting_mass_truncated(q, subset, max_len=80)
        approx, bound = lp.exp_truncated(mass)
        assert abs(approx - lp.exp_meeting_mass_greens(q, subset)) <= bound + 1e-12

    def test_greens_product_order_independent(self):
        q = random_acceptable(4, 0.7, seed=73, complex_entries=True)
        a = lp.exp_meeting_mass_greens(q, ["s0", "s2", "s3"])
        b = lp.exp_meeting_mass_greens(q, ["s3", "s0", "s2"])
        c = lp.exp_meeting_mass_greens(q, ["s2", "s3", "s0"])
        assert a == pytest.approx(b, rel=1e-10)
        assert a == pytest.approx(c, rel=1e-10)

    def test_greens_product_all_sites_is_det_formula(self):
        q = random_acceptable(3, 0.6, seed=79, complex_entries=True)
        full = lp.exp_meeting_mass_greens(q, list(q.space.labels))
        assert full == pytest.approx(1.0 / mx.det_laplacian(q), rel=1e-10)

    def test_single_site_meeting_is_greens_diagonal(self):
        # loops through one site exponentiate to G(x, x)
        q = random_acceptable(4, 0.6, seed=83, complex_entries=True)
        g = mx.greens_exact(q)[2, 2]
        assert lp.exp_meeting_mass_greens(q, ["s2"]) == g

    def test_one_point_greens(self):
        q = one_point(0.4)
        assert 1.0 / mx.det_laplacian(q) == pytest.approx(1 / 0.6, rel=1e-12)

    def test_repeated_site_rejected(self):
        with pytest.raises(InvalidPath):
            lp.exp_meeting_mass_greens(two_state(), ["x", "x"])

    def test_unknown_site_rejected(self):
        with pytest.raises(UnknownSite):
            lp.exp_meeting_mass_greens(two_state(), ["x", "nowhere"])

    def test_peel_gates_once_and_factors_once(self, monkeypatch):
        # one G from greens_exact, then a Schur downdate per peeled site
        q = random_acceptable(6, 0.7, seed=97, complex_entries=True)
        calls = {"spectral_radius_abs": 0, "greens_exact": 0, "_lu_factor": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            mx, "spectral_radius_abs", counted("spectral_radius_abs", mx.spectral_radius_abs)
        )
        greens = counted("greens_exact", mx.greens_exact)
        monkeypatch.setattr(mx, "greens_exact", greens)
        monkeypatch.setattr(lp, "greens_exact", greens)
        monkeypatch.setattr(mx, "_lu_factor", counted("_lu_factor", mx._lu_factor))
        full = lp.exp_meeting_mass_greens(q, ["s4", "s0", "s5", "s2", "s1", "s3"])
        assert calls == {"spectral_radius_abs": 1, "greens_exact": 1, "_lu_factor": 1}
        assert full == pytest.approx(1.0 / mx.det_laplacian(q), rel=1e-12)

    def test_orderings_share_one_factorization(self, monkeypatch):
        # G is kept on q, so every ordering peels the same inverse
        q = random_acceptable(5, 0.7, seed=101, complex_entries=True)
        factored = []
        factor = mx._lu_factor
        monkeypatch.setattr(mx, "_lu_factor", lambda arr: factored.append(arr) or factor(arr))
        rng = np.random.default_rng(101)
        products = [
            lp.exp_meeting_mass_greens(q, list(rng.permutation(q.space.labels)))
            for _ in range(4)
        ]
        assert len(factored) == 1
        assert products == pytest.approx([products[0]] * 4, rel=1e-12)


def _column_solve_peel(q, sites):
    """The nested Green's-diagonal product with one column solve of I - Q
    on the not-yet-peeled block per site."""
    remaining = list(range(q.n))
    product = 1.0 + 0.0j
    for x in q.space.indices(sites):
        at = remaining.index(x)
        block = np.eye(len(remaining)) - q.entries[np.ix_(remaining, remaining)]
        product *= np.linalg.solve(block, np.eye(len(remaining))[:, at])[at]
        remaining.remove(x)
    return product


_DENSE32 = Path(__file__).parent / "data" / "dense32.json"


class TestPeelDowndates:
    @given(
        st.integers(min_value=1, max_value=8),
        st.sampled_from([0.3, 0.7, 0.95]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_column_solves(self, n, rho, seed):
        q = random_acceptable(n, rho, seed=seed % 10_000, complex_entries=True)
        rng = np.random.default_rng(seed)
        sites = list(rng.permutation(q.space.labels)[: rng.integers(1, n + 1)])
        want = _column_solve_peel(q, sites)
        assert abs(lp.exp_meeting_mass_greens(q, sites) - want) <= 1e-12 * abs(want)

    def test_dense32_orderings_and_subsets(self):
        q = mx.WeightMatrix.from_json_file(_DENSE32)
        rng = np.random.default_rng(32)
        for size in (32, 32, 32, 32, 16, 5, 1):
            sites = list(rng.permutation(q.space.labels)[:size])
            want = _column_solve_peel(q, sites)
            assert abs(lp.exp_meeting_mass_greens(q, sites) - want) <= 1e-12 * abs(want)


class TestPerturbedMeasure:
    def test_matches_measure_of_rescaled_matrix(self):
        # m_f discounts each visit to x by 1 / (1 + f(x)): the measure of the
        # row-rescaled matrix
        q = random_acceptable(3, 0.6, seed=89, complex_entries=True)
        f = np.array([0.5, 0.25, 1.0])
        qf = mx.perturb(q, f)
        for block in loop_blocks(q.support(), 5):
            direct = block_weights(q.entries, block) * np.prod(1.0 / (1.0 + f[block]), axis=1)
            via_matrix = block_weights(qf.entries, block)
            np.testing.assert_allclose(via_matrix, direct, rtol=1e-12)

    def test_zero_f_is_plain_measure(self):
        q = two_state()
        np.testing.assert_array_equal(mx.perturb(q, [0, 0]).entries, q.entries)


def _rounds_apart():
    """A complex value whose built-in abs and np.abs in an array differ, or
    None on a platform where they never do."""
    rng = np.random.default_rng(7)
    for z in rng.normal(size=1000) + 1j * rng.normal(size=1000):
        z = complex(z)
        if abs(z) != np.abs(np.array([z]))[0]:
            return z
    return None


class TestComparison:
    def test_scalar_sides_use_builtin_abs_and_array_sides_np_abs(self):
        z = _rounds_apart()
        if z is None:
            pytest.skip("abs and np.abs round alike here")
        assert lp.Comparison(z, 0.0).error == abs(z)
        assert lp.Comparison(np.complex128(z), 0.0).error == abs(z)
        assert lp.Comparison(np.array([z]), 0.0).error == np.abs(np.array([z]))[0]
        assert lp.Comparison(np.array([z]), 0.0).error != abs(z)
        assert lp.Comparison(np.array([0.5, z]), np.zeros(2)).error == np.max(
            np.abs(np.array([0.5, z]))
        )

    @pytest.mark.parametrize(
        "lhs, rhs, scale",
        [
            (1.0, 2.0, 0.0),
            (1.0, 1.0, 0.0),
            (np.float64(1.0), np.float64(2.0), np.float64(0.0)),
            (np.float64(1.0), np.float64(1.0), np.float64(0.0)),
            (np.complex128(1 + 1j), np.complex128(1.0), np.float64(0.0)),
            (np.ones(2), np.zeros(2), 0.0),
        ],
    )
    def test_zero_scale_is_infinite_without_warning(self, lhs, rhs, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lp.Comparison(lhs, rhs, scale).error == math.inf

    def test_scale_divides_and_slack_is_subtracted(self):
        assert lp.Comparison(3.0, 1.0).error == 2.0
        assert lp.Comparison(3.0, 1.0, scale=4.0).error == 0.5
        assert lp.Comparison(3.0, 1.0, scale=4.0, slack=0.125).error == 0.375
        assert lp.Comparison(1.0, 1.0, slack=0.5).error == -0.5
        assert lp.Comparison(1.0 + 1.0j, 1.0, slack=math.inf).error == -math.inf
