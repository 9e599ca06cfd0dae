"""Complex Poisson laws, exact soup sampling, occupation transforms."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loopsoup import loops as lp
from loopsoup import matrices as mx
from loopsoup import soup as sp
from loopsoup.errors import (
    BranchError,
    InvalidShape,
    NotAcceptable,
    NotPositive,
    NumericalFailure,
    NumericallySingular,
    TooLarge,
)
from loopsoup.fixtures import (
    hermitian_pair,
    one_point,
    random_acceptable,
    two_state,
)
from loopsoup.matrices import (
    WeightMatrix,
    det_laplacian,
    greens_exact,
    lu_det,
    perturb,
    require_acceptable,
)
from loopsoup.rng import substream
from oracles import batch_occupations, block_weights, loop_blocks


class TestComplexPoisson:
    def test_real_rate_matches_reference_pmf(self):
        lam = 2.3
        w = sp.complex_poisson_weights(lam, kmax=20)
        ref = scipy.stats.poisson.pmf(np.arange(21), lam)
        np.testing.assert_allclose(w.real, ref, rtol=1e-12)
        assert np.max(np.abs(w.imag)) == 0

    @pytest.mark.parametrize("lam", [0.7, 1.5 + 2.0j, -0.4 + 0.9j, 3.0j])
    def test_sums_to_one(self, lam):
        w = sp.complex_poisson_weights(lam)
        assert w.sum() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("lam", [0.5, 1.0 + 1.0j, -0.2 + 0.3j])
    def test_mean_is_rate(self, lam):
        w = sp.complex_poisson_weights(lam)
        k = np.arange(len(w))
        assert (k * w).sum() == pytest.approx(lam, abs=1e-10)

    def test_convolution_adds_rates(self):
        l1, l2 = 0.8 + 0.5j, 0.3 - 0.2j
        w1 = sp.complex_poisson_weights(l1, kmax=60)
        w2 = sp.complex_poisson_weights(l2, kmax=60)
        conv = np.convolve(w1, w2)[:40]
        expect = sp.complex_poisson_weights(l1 + l2, kmax=39)
        np.testing.assert_allclose(conv, expect, atol=1e-12)

    @pytest.mark.parametrize("lam", [1.2, 0.5 + 1.5j, -0.3 + 0.4j])
    def test_variation_norm_closed_form(self, lam):
        w = sp.complex_poisson_weights(lam)
        assert np.abs(w).sum() == pytest.approx(
            sp.complex_poisson_variation(lam), abs=1e-10
        )
        assert sp.complex_poisson_variation(lam) >= 1.0

    def test_exponential_moment(self):
        lam, alpha = 0.9 + 0.4j, 0.3
        w = sp.complex_poisson_weights(lam, kmax=80)
        k = np.arange(81)
        lhs = (w * np.exp(alpha * k)).sum()
        assert lhs == pytest.approx(np.exp(lam * (math.exp(alpha) - 1)), abs=1e-10)

    def test_zero_rate(self):
        w = sp.complex_poisson_weights(0.0, kmax=3)
        np.testing.assert_array_equal(w, [1, 0, 0, 0])

    @pytest.mark.parametrize("lam", [800.0, 744.0])
    def test_underflowing_head_is_refused(self, lam):
        # e^-800 underflows to zero, which made every weight zero; e^-744 is
        # subnormal and its few digits made the weights sum to 1.29
        with pytest.raises(NumericalFailure):
            sp.complex_poisson_weights(lam)

    @pytest.mark.parametrize("kmax", [None, 10])
    def test_overflowing_head_is_refused(self, kmax):
        with pytest.raises(NumericalFailure):
            sp.complex_poisson_weights(-800.0, kmax=kmax)

    def test_overflowing_weight_is_refused(self):
        # |e^-lam| = 1 but 800^k / k! overflows on the way to k = 2000
        with pytest.raises(NumericalFailure):
            sp.complex_poisson_weights(800j, kmax=2000)

    def test_term_cap_is_refused(self):
        with pytest.raises(TooLarge):
            sp.complex_poisson_weights(800j)


def asym_two_site() -> WeightMatrix:
    return WeightMatrix.from_entries(("a", "b"), [[0.15, 0.4], [0.3, 0.1]])


def _reference_sample_loop(sampler: sp.SoupSampler, rng) -> lp.RootedLoop:
    # the bridge walk as one numpy pass per step, with nothing memoized
    n = sampler._draw_length(float(rng.random()))
    while len(sampler._powers) <= n:
        sampler._extend_tables()
    root_cum = np.asarray(sampler._root_cum[n - 1])
    root = int(np.searchsorted(root_cum, rng.random(), side="left"))
    root = min(root, sampler.n_sites - 1)
    sites = [root]
    current = root
    for j in range(1, n):
        back = sampler._powers[n - j][:, root]
        probs = sampler.entries[current] * back
        u = rng.random() * probs.sum()
        nxt = int(np.searchsorted(np.cumsum(probs), u, side="left"))
        nxt = min(nxt, sampler.n_sites - 1)
        sites.append(nxt)
        current = nxt
    return lp.RootedLoop(tuple(sites))


def _sparse_matrix(n, rho, seed, sparsity, acyclic=False) -> WeightMatrix:
    # |random_acceptable| with off-diagonal entries cut at the given rate, or
    # only its strict lower triangle, which has no cycle and no loop mass
    base = np.abs(random_acceptable(n, rho, seed).entries.real)
    cut = substream(seed, 1).random((n, n)) < sparsity
    np.fill_diagonal(cut, False)
    entries = np.tril(base, -1) if acyclic else np.where(cut, 0.0, base)
    return WeightMatrix.from_entries(tuple(f"s{i}" for i in range(n)), entries)


class TestSoupSampler:
    def test_rejects_signed_weights(self):
        with pytest.raises(NotPositive):
            sp.SoupSampler(hermitian_pair(), 1.0)
        with pytest.raises(NotPositive):
            sp.SoupSampler(WeightMatrix.from_entries(("a",), [[-0.3]]), 1.0)

    def test_rejects_bad_intensity(self):
        with pytest.raises(ValueError):
            sp.SoupSampler(two_state(), 0.0)

    @pytest.mark.parametrize("intensity", [-1.0, math.nan, math.inf])
    def test_rejects_bad_intensity_before_building_tables(self, intensity, monkeypatch):
        # caught up front, not later inside numpy's Poisson draw
        monkeypatch.setattr(sp, "det_laplacian", None)  # building tables would fail here
        with pytest.raises(ValueError, match=f"intensity .*got {intensity}"):
            sp.SoupSampler(two_state(), intensity)

    def test_deterministic_given_stream(self):
        q = asym_two_site()
        s1 = sp.SoupSampler(q, 1.0).sample(substream(77, 3))
        s2 = sp.SoupSampler(q, 1.0).sample(substream(77, 3))
        assert s1 == s2

    def test_loop_statistics_match_measure(self):
        # loops arrive iid with chance m(loop)/mass; screen counts at 4 sigma
        q = asym_two_site()
        t = 1.0
        sampler = sp.SoupSampler(q, t)
        mass = sampler.total_mass
        n_soups = 20_000
        counts: dict[tuple[int, ...], int] = {}
        total_loops = 0
        total_count_sq = 0
        ell = np.zeros(2)
        for i in range(n_soups):
            rng = substream(90210, i)
            soup = sampler.sample(rng)
            total_loops += len(soup)
            total_count_sq += len(soup) ** 2
            ell += sp.discrete_occupation(soup, 2)
            for loop in soup:
                if loop.length <= 2:
                    counts[loop.sites] = counts.get(loop.sites, 0) + 1
        # Poisson count: mean and variance both t * mass
        lam = t * mass
        mean_k = total_loops / n_soups
        assert abs(mean_k - lam) < 4 * math.sqrt(lam / n_soups)
        var_k = total_count_sq / n_soups - mean_k**2
        assert abs(var_k - lam) < 5 * math.sqrt(2 * lam**2 / n_soups) + 0.05
        # per-loop law for every short rooted loop
        for block in loop_blocks(q.support(), 2):
            for sites, m in zip(block.tolist(), block_weights(q.entries, block) / block.shape[1]):
                p = (m / mass).real
                seen = counts.get(tuple(sites), 0)
                sigma = math.sqrt(total_loops * p * (1 - p))
                assert abs(seen - total_loops * p) < 4 * sigma + 1e-9
        # mean discrete occupation is t * (G(x,x) - 1)
        g = greens_exact(q)
        for j, label in enumerate(q.space.labels):
            expect = t * (g[j, j].real - 1.0)
            sigma = ell[j] / n_soups / math.sqrt(n_soups)  # crude scale
            assert abs(ell[j] / n_soups - expect) < 6 * max(sigma, 1e-3)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        rho=st.sampled_from([0.2, 0.6, 0.9, 0.97]),
        seed=st.integers(0, 2**20),
        sparsity=st.sampled_from([0.0, 0.5, 0.8]),
        index=st.integers(0, 2**40),
    )
    def test_bridge_matches_uncached_numpy_step(self, n, rho, seed, sparsity, index):
        # off-diagonal zeros make some bridge steps impossible; the diagonal
        # stays, so every matrix carries loop mass
        q = _sparse_matrix(n, rho, seed, sparsity)
        sampler, reference = sp.SoupSampler(q, 1.0), sp.SoupSampler(q, 1.0)
        a, b = substream(seed, index), substream(seed, index)
        for _ in range(40):
            assert sampler.sample_loop(a) == _reference_sample_loop(reference, b)
        assert a.random() == b.random()  # same stream position after

    def test_full_memo_keeps_the_bridge_law(self, monkeypatch):
        # past its cap the memo stops growing and new rows are used once
        monkeypatch.setattr(sp, "_BRIDGE_MEMO_FLOATS", 20)
        entries = np.abs(random_acceptable(4, 0.95, 21).entries.real)
        q = WeightMatrix.from_entries(tuple("abcd"), entries)
        sampler, reference = sp.SoupSampler(q, 1.0), sp.SoupSampler(q, 1.0)
        a, b = substream(22), substream(22)
        for _ in range(300):
            assert sampler.sample_loop(a) == _reference_sample_loop(reference, b)
        assert a.random() == b.random()
        assert sum(len(rows) for rows in sampler._bridge) == 4  # 20 floats // 5

    def test_length_clamp_never_overruns(self):
        # drive the sampler hard; lengths stay finite and tables consistent
        q = one_point(0.9)
        sampler = sp.SoupSampler(q, 2.0)
        rng = substream(5150)
        for _ in range(2000):
            loop = sampler.sample_loop(rng)
            assert loop.sites == tuple([0] * loop.length)


class _TopUniforms:
    """Two loops a soup, and every uniform the largest double below 1."""

    def __init__(self, rng):
        self._rng = rng

    def poisson(self, rate, size=None):
        return 2 if size is None else np.full(size, 2)

    def random(self, size=None):
        top = np.nextafter(1.0, 0.0)
        return top if size is None else np.full(size, top)

    def gamma(self, shape):
        return self._rng.gamma(shape)


class TestFusedOccupation:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 6),
        rho=st.sampled_from([0.2, 0.6, 0.9, 0.97]),
        seed=st.integers(0, 2**20),
        sparsity=st.sampled_from([0.0, 0.5, 0.8]),
        acyclic=st.booleans(),
        intensity=st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.5]),
        trivial=st.booleans(),
        index=st.integers(0, 2**40),
    )
    def test_matches_soup_then_occupations(
        self, n, rho, seed, sparsity, acyclic, intensity, trivial, index
    ):
        q = _sparse_matrix(n, rho, seed, sparsity, acyclic)
        shape = intensity if trivial else 0.0
        sampler, reference = sp.SoupSampler(q, intensity), sp.SoupSampler(q, intensity)
        a, b = substream(seed, index), substream(seed, index)
        for _ in range(8):
            counts, values = sampler.occupation(a, shape)
            expected = sp.discrete_occupation(reference.sample(b), n)
            assert counts == expected.tolist()
            drawn = sp.continuous_occupation(expected, shape, b)
            assert np.array(values).tobytes() == drawn.tobytes()
        assert a.random() == b.random()  # same stream position after

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 6),
        rho=st.sampled_from([0.2, 0.6, 0.9, 0.97]),
        seed=st.integers(0, 2**20),
        sparsity=st.sampled_from([0.0, 0.5, 0.8]),
        acyclic=st.booleans(),
        intensity=st.sampled_from([0.25, 1.0, 3.5]),
        trivial=st.booleans(),
        count=st.integers(0, 40),
        index=st.integers(0, 2**40),
    )
    def test_batch_matches_scalar_replay(
        self, n, rho, seed, sparsity, acyclic, intensity, trivial, count, index
    ):
        q = _sparse_matrix(n, rho, seed, sparsity, acyclic)
        shape = intensity if trivial else 0.0
        a, b = substream(seed, index), substream(seed, index)
        counts, values = sp.SoupSampler(q, intensity).occupations(a, count, shape)
        expected = batch_occupations(sp.SoupSampler(q, intensity), b, count, shape)
        assert counts.dtype == np.int64 and values.dtype == np.float64
        assert counts.shape == values.shape == (count, n)
        assert counts.tobytes() == expected[0].tobytes()
        assert values.tobytes() == expected[1].tobytes()
        assert a.random() == b.random()  # same stream position after

    def test_batch_visits_match_single_soups(self):
        # the batch and the soup-by-soup draw have the same mean visit counts
        # (about 9 visits a soup), and both sit near the exact G(x, x) - 1
        entries = np.abs(random_acceptable(4, 0.9, 23).entries.real)
        q = WeightMatrix.from_entries(tuple("abcd"), entries)
        sampler = sp.SoupSampler(q, 1.0)
        n_soups = 20_000
        batch, _ = sampler.occupations(substream(24), n_soups, 0.0)
        single = np.array([sampler.occupation(substream(25, i), 0.0)[0] for i in range(n_soups)])
        spread = np.sqrt((batch.var(axis=0) + single.var(axis=0)) / n_soups)
        assert np.all(np.abs(batch.mean(axis=0) - single.mean(axis=0)) < 4 * spread)
        exact = greens_exact(q).real.diagonal() - 1.0
        assert np.all(np.abs(batch.mean(axis=0) - exact) < 4 * batch.std(axis=0) / math.sqrt(n_soups))

    def test_batch_clamps_lengths_in_the_far_tail(self):
        # at q = 0.9 the length law sums to 0.9999999999999998, below the top
        # uniform, so each length is clamped where the tail bound vanishes
        q = one_point(0.9)
        counts, values = sp.SoupSampler(q, 1.0).occupations(_TopUniforms(substream(26)), 3, 0.0)
        expected = batch_occupations(sp.SoupSampler(q, 1.0), _TopUniforms(substream(26)), 3, 0.0)
        assert counts.tobytes() == expected[0].tobytes()
        assert values.tobytes() == expected[1].tobytes()
        clamped = sp.SoupSampler(q, 1.0)._draw_length(np.nextafter(1.0, 0.0))
        np.testing.assert_array_equal(counts, 2 * clamped)

    def test_batch_rejects_bad_count_and_shape(self):
        sampler = sp.SoupSampler(two_state(), 1.0)
        with pytest.raises(ValueError, match="count"):
            sampler.occupations(substream(3), -1, 0.0)
        with pytest.raises(InvalidShape, match="trivial shape"):
            sampler.occupations(substream(3), 5, math.nan)

    @pytest.mark.parametrize(
        "q, intensity, trivial",
        [
            # the four (matrix, intensity, trivial part) configurations of mc
            (one_point(0.5), 1.0, False),
            (two_state(), 1.0, False),
            (two_state(), 0.5, True),
            (one_point(0.5), 0.5, True),
        ],
        ids=["transform-one-point", "transform-two-state", "isomorphism", "moments"],
    )
    def test_fields_match_per_row_loop(self, q, intensity, trivial):
        # the batch the suite draws, against the oracle's scalar replay
        shape = intensity if trivial else 0.0
        fields = sp.sample_occupation_fields(
            q, intensity, 400, seed=42, trivial=trivial, start_index=5 * 10**6
        )
        _, expected = batch_occupations(
            sp.SoupSampler(q, intensity), substream(42, 5 * 10**6), 400, shape
        )
        assert fields.shape == expected.shape and fields.dtype == expected.dtype
        assert fields.tobytes() == expected.tobytes()

    def test_no_samples_gives_an_empty_batch(self):
        assert sp.sample_occupation_fields(two_state(), 1.0, 0, seed=1).shape == (0, 2)
        with pytest.raises(ValueError, match="n_samples"):
            sp.sample_occupation_fields(two_state(), 1.0, -1, seed=1)

    @pytest.mark.parametrize("shape", [-0.5, math.nan, math.inf])
    def test_bad_trivial_shape_rejected(self, shape):
        with pytest.raises(InvalidShape, match="trivial shape"):
            sp.SoupSampler(two_state(), 1.0).occupation(substream(3), shape)


class TestOccupation:
    def test_discrete_counts_loop_visits(self):
        soup = (lp.RootedLoop((0, 1)), lp.RootedLoop((1,)))
        np.testing.assert_array_equal(sp.discrete_occupation(soup, 3), [1, 2, 0])

    def test_discrete_occupation_matches_local_times(self):
        entries = np.abs(random_acceptable(5, 0.9, 11).entries.real)
        sampler = sp.SoupSampler(WeightMatrix.from_entries(tuple("abcde"), entries), 2.0)
        for i in range(50):
            soup = sampler.sample(substream(12, i))
            counts = sp.discrete_occupation(soup, 5)
            # one visit per step of each loop
            expected = np.zeros(5, dtype=np.int64)
            for loop in soup:
                expected += np.bincount(loop.sites, minlength=5)
            np.testing.assert_array_equal(counts, expected, strict=True)

    @pytest.mark.parametrize("sites", [(0, -1), (3, 1)])
    def test_discrete_rejects_sites_out_of_range(self, sites):
        soup = (lp.RootedLoop((1,)), lp.RootedLoop(sites))
        with pytest.raises(ValueError):
            sp.discrete_occupation(soup, 3)

    def test_continuous_zero_counts_stay_zero(self):
        rng = substream(1)
        out = sp.continuous_occupation(np.array([0, 3]), 0.0, rng)
        assert out[0] == 0.0
        assert out[1] > 0.0

    def test_trivial_shape_adds_everywhere(self):
        rng = substream(2)
        out = sp.continuous_occupation(np.array([0, 0]), 1.5, rng)
        assert np.all(out > 0)

    @settings(max_examples=200, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 6), min_size=1, max_size=12),
        trivial=st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.75]),
        index=st.integers(0, 2**40),
    )
    def test_scalar_draws_match_one_array_call(self, counts, trivial, index):
        # zero counts, with and without a fractional trivial part, included
        counts = np.array(counts)
        rng = substream(31, index)
        out = sp.continuous_occupation(counts, trivial, rng)
        fresh = substream(31, index)
        np.testing.assert_array_equal(out, fresh.gamma(counts + trivial), strict=True)
        assert rng.random() == fresh.random()  # same stream position after

    def test_negative_shape_rejected(self):
        with pytest.raises(InvalidShape):
            sp.continuous_occupation(np.array([0]), -0.5, substream(3))

    @pytest.mark.parametrize("counts, trivial", [([-1, 2], 1.5), ([0, -1], 0.0)])
    def test_negative_count_rejected(self, counts, trivial):
        # a trivial part large enough to lift the shape above zero still fails
        with pytest.raises(InvalidShape, match="negative visit count"):
            sp.continuous_occupation(np.array(counts), trivial, substream(3))

    @pytest.mark.parametrize("counts", [[math.nan], [1, math.inf], [1.5, 0], [2, 0.25]])
    def test_non_integer_count_rejected(self, counts):
        # numpy would return nan or inf, or draw a fractional Gamma shape
        with pytest.raises(InvalidShape, match="finite whole numbers"):
            sp.continuous_occupation(np.array(counts), 0.0, substream(3))

    @pytest.mark.parametrize("trivial", [math.nan, math.inf])
    def test_non_finite_shape_rejected(self, trivial):
        with pytest.raises(InvalidShape, match="trivial shape"):
            sp.continuous_occupation(np.array([1, 0]), trivial, substream(3))

    @pytest.mark.parametrize(
        "entries",
        [
            [[0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.5], [0.0, 0.0]],
            # pivoting rounds -log det(I - Q) to -2.2e-16 here
            [[0.0, 0.0, 0.0], [1.1489244622311157, 0.0, 0.0], [0.7, 0.4251020510255128, 0.0]],
        ],
    )
    def test_loop_free_matrix_gives_trivial_fields(self, entries):
        # no cycle in the support: zero loop mass, so only the trivial part
        q = WeightMatrix.from_entries([f"s{i}" for i in range(len(entries))], entries)
        assert sp.SoupSampler(q, 1.0).total_mass == 0.0
        np.testing.assert_array_equal(sp.sample_occupation_fields(q, 1.0, 4, seed=3), 0.0)
        fields = sp.sample_occupation_fields(q, 1.0, 4, seed=3, trivial=True)
        assert np.all(fields > 0.0)

    def test_batch_shape_and_determinism(self):
        q = two_state()
        a = sp.sample_occupation_fields(q, 1.0, 50, seed=42)
        b = sp.sample_occupation_fields(q, 1.0, 50, seed=42)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (50, 2)


class TestClosedTransforms:
    def test_one_point_hand_value(self):
        # q = 1/2, f = 1, t = 1: ratio of dets is (1/2)/(1 - 1/4) = 2/3
        val = sp.nu_transform_closed(one_point(0.5), [1.0], 1.0)
        assert val == pytest.approx(2 / 3, rel=1e-12)

    def test_matches_loop_sum(self):
        q = random_acceptable(3, 0.5, seed=301, complex_entries=True)
        f = np.array([0.2, 0.1 + 0.05j, 0.3])
        t = 0.8
        max_len = 40
        exponent = 0.0 + 0.0j
        for block in loop_blocks(q.support(), 12):
            # m_f discounts m by prod 1 / (1 + f) over the visited sites
            w = block_weights(q.entries, block)
            discount = np.prod(1.0 / (1.0 + f[block]), axis=1)
            exponent += np.sum(w * discount - w) / block.shape[1]
        rho = require_acceptable(q)
        rho_f = require_acceptable(perturb(q, f))
        env = sum(
            2 * q.n * r**13 / (13 * (1 - r)) for r in (rho, rho_f)
        )
        closed = sp.nu_transform_closed(q, f, t)
        summed = np.exp(t * exponent)
        assert abs(closed - summed) <= abs(summed) * math.expm1(t * env) + 1e-12

    def test_integer_power_needs_no_branch(self):
        q = random_acceptable(3, 0.6, seed=303, complex_entries=True)
        f = [0.1, 0.4, 0.2]
        one = sp.nu_transform_closed(q, f, 1)
        two = sp.nu_transform_closed(q, f, 2)
        assert two == pytest.approx(one * one, rel=1e-10)

    def test_trivial_transform_product(self):
        f = np.array([0.5, 1.0, 0.25])
        t = 0.5
        expect = np.prod((1 + f) ** (-t))
        assert sp.trivial_transform_closed(f, t) == pytest.approx(expect, rel=1e-12)

    def test_rho_factorizes(self):
        q = two_state()
        f = [0.3, 0.7]
        t = 0.5
        lhs = sp.rho_transform_closed(q, f, t)
        rhs = sp.nu_transform_closed(q, f, t) * sp.trivial_transform_closed(f, t)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_branch_error_on_pole_crossing(self):
        # the segment s * f passes through 1 + s*f = 0 inside (0, 1)
        with pytest.raises(BranchError):
            sp.nu_transform_closed(one_point(0.5), [-1.2], 0.5)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            sp.trivial_transform_closed([-1.0], 0.5)
        with pytest.raises(ZeroDivisionError):
            sp.nu_transform_closed(one_point(0.3), [-1.0], 1.0)


def _grid_transform(q, f, t):
    """[det(I - Q) / det(I - Q_sf)]^t with the branch followed on a grid of
    s in [0, 1], refined until no step turns the ratio by pi/4 or more, up
    to 4096 steps.  Only trusted on paths kept clear of zeros and poles."""
    vec = np.asarray(f, dtype=np.complex128)
    base = det_laplacian(q)

    def ratio_at(s):
        return base / lu_det(np.eye(q.n) - perturb(q, s * vec).entries)

    steps = 8
    while steps <= 4096:
        values = np.array([ratio_at(s) for s in np.linspace(0.0, 1.0, steps + 1)])
        jumps = np.angle(values[1:] / values[:-1])
        if np.max(np.abs(jumps)) < math.pi / 4:
            log_ratio = math.log(abs(values[-1])) + 1j * float(np.sum(jumps))
            return complex(np.exp(t * log_ratio))
        steps *= 2
    raise AssertionError("the grid did not resolve the branch")


def _segment_clearance(q, f):
    """Least distance from 0 of the segments [1, 1 + z] over z = f(x) and
    the eigenvalues of G diag(f)."""
    vec = np.asarray(f, dtype=np.complex128)
    nu = np.linalg.eigvals(np.linalg.solve(np.eye(q.n) - q.entries, np.diag(vec)))
    z = np.concatenate((vec, nu))
    s = np.linspace(0.0, 1.0, 2001)[:, None]
    return float(np.min(np.abs(1.0 + s * z)))


@st.composite
def _branch_inputs(draw):
    """Dense complex, non-normal triangular (off-diagonal x20) or 60%-sparse
    Q on 1-6 sites with rho(|Q|) in [0.2, 0.9], a complex f, and t."""
    kind = draw(st.sampled_from(["dense", "triangular", "sparse"]))
    n = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    m = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
    if kind == "triangular":
        m = 20.0 * np.triu(m, k=1) + np.diag(np.diag(m))
    elif kind == "sparse":
        m[rng.uniform(size=(n, n)) < 0.6] = 0.0
    radius = np.max(np.abs(np.linalg.eigvals(np.abs(m))))
    if radius > 0:
        m *= rng.uniform(0.2, 0.9) / radius
    q = WeightMatrix.from_entries([f"s{i}" for i in range(n)], m)
    f = rng.uniform(-1.5, 2.0, n) + 1j * rng.uniform(-1.5, 1.5, n)
    t = draw(st.sampled_from([0.5, 0.7, 1.3, 2.5, 0.25 + 0.5j]))
    return q, f, t


class TestTransformBranch:
    # real f(x) < -1 at a site on a loop: the path s * f crosses a zero of
    # the ratio (and here a pole), both inside one step of an 8-step grid
    @pytest.mark.parametrize(
        "q, f",
        [
            (one_point(0.12), [-1.34]),
            (random_acceptable(4, 0.6, seed=0), [-2.64, 0.13, 0.02, 0.01]),
            (random_acceptable(5, 0.6, seed=4), [-1.78, 0.26, 0.49, 0.04, 0.3]),
            (random_acceptable(6, 0.6, seed=2), [-1.42, 0.15, 0.41, 0.05, 0.3, 0.36]),
        ],
        ids=["one-point", "dense4", "dense5", "dense6"],
    )
    def test_crossing_between_grid_points_is_refused(self, q, f):
        with pytest.raises(BranchError):
            sp.nu_transform_closed(q, f, 0.5)

    def test_loop_free_site_does_not_move_the_value(self):
        # no step enters site c, so no loop visits it
        q = WeightMatrix.from_entries(
            ["a", "b", "c"], [[0.3, 0.2, 0.0], [0.2, 0.1, 0.0], [0.3, 0.1, 0.0]]
        )
        # 1 + f(c) = 0 is no pole there, at integer and non-integer t
        for t in (1.0, 0.5):
            want = sp.nu_transform_closed(q, [0.2, 0.1 + 0.05j, 0.0], t)
            for fc in (0.3, -1.0, -0.999999, -2.0, -2.5, 5.0 - 1.0j):
                assert sp.nu_transform_closed(q, [0.2, 0.1 + 0.05j, fc], t) == want

    @given(_branch_inputs())
    @settings(max_examples=150, deadline=None)
    def test_matches_grid_on_clear_paths(self, inputs):
        q, f, t = inputs
        assume(_segment_clearance(q, f) > 0.05)
        want = _grid_transform(q, f, t)
        assert abs(sp.nu_transform_closed(q, f, t) - want) <= 1e-12 * abs(want)


def _every_site_on_a_loop(q):
    # x is on a loop when some walk of 1..n steps on the support returns to it
    steps = q.support().astype(float)
    walks = sum(np.linalg.matrix_power(steps, k) for k in range(1, q.n + 1))
    return bool(np.all(walks.diagonal() > 0))


class TestTransformFromGreens:
    @given(_branch_inputs(), st.sampled_from([1, 2, 3]))
    @settings(max_examples=150, deadline=None)
    def test_integer_power_is_the_determinant_ratio(self, inputs, t):
        q, f, _ = inputs
        assume(_every_site_on_a_loop(q))
        nu = np.linalg.eigvals(np.linalg.solve(np.eye(q.n) - q.entries, np.diag(f)))
        assume(np.min(np.abs(1.0 + nu)) >= 1e-6)
        want = (det_laplacian(q) / lu_det(np.eye(q.n) - perturb(q, f).entries)) ** t
        assert abs(sp.nu_transform_closed(q, f, t) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("f", [-0.5, -0.5 + 1e-11], ids=["on", "near"])
    @pytest.mark.parametrize("t", [1.0, 0.5])
    def test_pole_is_numerically_singular(self, f, t):
        # G = 2 on one_point(0.5), so nu = 2 f and 1 + nu vanishes at f = -1/2
        with pytest.raises(NumericallySingular):
            sp.nu_transform_closed(one_point(0.5), [f], t)

    @pytest.mark.parametrize("t", [1.0, 0.5])
    def test_unacceptable_q_is_refused(self, t):
        with pytest.raises(NotAcceptable):
            sp.nu_transform_closed(one_point(1.2), [0.3], t)

    @pytest.mark.parametrize("t", [1.0, 0.7])
    def test_one_greens_call_and_no_determinant(self, t, monkeypatch):
        q = random_acceptable(3, 0.5, seed=301, complex_entries=True)
        calls = dict.fromkeys(("greens_exact", "lu_det", "det_laplacian", "perturb"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            wrapper = counted(name, getattr(mx, name))
            for module in (mx, sp):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        sp.nu_transform_closed(q, [0.2, 0.1 + 0.05j, 0.3], t)
        assert calls == {"greens_exact": 1, "lu_det": 0, "det_laplacian": 0, "perturb": 0}


class TestEmpiricalTransform:
    def test_against_closed_value(self):
        q = two_state()
        t = 1.0
        fields = sp.sample_occupation_fields(q, t, 20_000, seed=99)
        for f in ([0.2, 0.2], [0.5, 0.1], [1.0, 1.0]):
            est = sp.empirical_transform(fields, f)
            closed = sp.nu_transform_closed(q, f, t)
            assert abs(est.value - closed) < 4 * est.stderr

    def test_with_trivial_part(self):
        q = one_point(0.4)
        t = 0.5
        fields = sp.sample_occupation_fields(q, t, 20_000, seed=101, trivial=True)
        f = [0.8]
        est = sp.empirical_transform(fields, f)
        closed = sp.rho_transform_closed(q, f, t)
        assert abs(est.value - closed) < 4 * est.stderr

    def test_stderr_scales(self):
        rng = substream(7)
        fields = rng.exponential(size=(10_000, 1))
        small = sp.empirical_transform(fields[:100], [0.5])
        big = sp.empirical_transform(fields, [0.5])
        assert big.stderr < small.stderr

    def test_matches_the_matrix_product(self):
        fields = substream(8).exponential(size=(6000, 3))
        f = np.array([0.2, 0.5 + 0.1j, 1.0])
        values = np.exp(-(fields @ f))
        est = sp.empirical_transform(fields, f)
        assert abs(est.value - values.mean()) <= 1e-15 * np.abs(values).mean()

    @pytest.mark.parametrize("fields", [np.ones(5), np.ones((2, 3, 2))], ids=["1-D", "3-D"])
    def test_refuses_fields_that_are_not_2d(self, fields):
        with pytest.raises(ValueError, match="2-D"):
            sp.empirical_transform(fields, [0.5, 0.5])

    def test_refuses_fields_without_rows(self):
        with pytest.raises(ValueError, match="no rows"):
            sp.empirical_transform(np.empty((0, 2)), [0.5, 0.5])

    @pytest.mark.parametrize("f", [[0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]]])
    def test_refuses_f_of_the_wrong_length(self, f):
        with pytest.raises(ValueError, match=r"one value per column of fields \(2\)"):
            sp.empirical_transform(np.ones((4, 2)), f)


    def test_loop_check_holds(self):
        q = random_acceptable(3, 0.5, seed=301, complex_entries=True)
        f = np.array([0.2, 0.1 + 0.05j, 0.3])
        chk = sp.occupation_transform_loop_check(q, f, intensity=0.8, max_len=12)
        assert chk.lhs == sp.nu_transform_closed(q, f, 0.8)
        assert abs(chk.lhs - chk.rhs) <= chk.slack + 1e-12
        # the slack is no wider than the truncation it covers
        assert chk.slack < 1e-3


def _variation_alpha(q, intensity, max_len):
    """exp(t * sum over loops up to max_len of (|m| - Re m)): the total
    variation of the complex soup law relative to the soup of |Q|."""
    abs_mass = lp.loop_mass_per_length(WeightMatrix(q.space, np.abs(q.entries)), max_len)
    exponent = (abs_mass - lp.loop_mass_per_length(q, max_len)).real.sum()
    return math.exp(intensity * exponent)


class TestVariationAlpha:
    # the traces of |Q| dominate those of Q loop by loop, as mass_tail
    # assumes: sum |m| >= sum Re m, with equality for nonnegative weights
    def test_positive_weights_give_one(self):
        assert _variation_alpha(two_state(), 1.0, max_len=20) == 1.0

    def test_matches_literal_enumeration(self):
        q = random_acceptable(3, 0.5, seed=311, complex_entries=True)
        max_len = 8
        exponent = 0.0
        for block in loop_blocks(q.support(), max_len):
            measure = block_weights(q.entries, block) / block.shape[1]
            exponent += np.sum(np.abs(measure) - measure.real)
        alpha = _variation_alpha(q, 1.5, max_len)
        assert alpha == pytest.approx(math.exp(1.5 * exponent), rel=1e-10)

    def test_at_least_one(self):
        for seed in (1, 2, 3):
            q = random_acceptable(4, 0.6, seed=seed, complex_entries=True)
            assert _variation_alpha(q, 0.7, max_len=30) >= 1.0


class TestReversal:
    def test_hermitian_two_site(self):
        check = sp.reversal_symmetrization_check(
            hermitian_pair(), [0.3, 0.3], intensity=0.5, max_len=14
        )
        assert abs(check.lhs - check.rhs) <= check.slack + 1e-12

    def test_complex_non_hermitian(self):
        q = random_acceptable(3, 0.5, seed=313, complex_entries=True)
        f = [0.2, 0.05 + 0.1j, 0.15]
        for t in (1.0, 0.7):
            check = sp.reversal_symmetrization_check(q, f, intensity=t, max_len=10)
            assert abs(check.lhs - check.rhs) <= check.slack + 1e-12

    def test_doubling_matches_two_t_directly(self):
        q = hermitian_pair()
        f = [0.4, 0.1]
        lhs = sp.nu_transform_closed(q, f, 2 * 0.3)
        check = sp.reversal_symmetrization_check(q, f, intensity=0.3, max_len=12)
        assert check.lhs == pytest.approx(lhs, rel=1e-12)
