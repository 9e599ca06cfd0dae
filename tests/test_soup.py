"""Complex Poisson laws, exact soup sampling, occupation transforms."""

import math

import numpy as np
import pytest
import scipy.stats

from loopsoup import loops as lp
from loopsoup import soup as sp
from loopsoup.errors import (
    BranchError,
    InvalidShape,
    NotPositive,
    NumericalFailure,
    TooLarge,
)
from loopsoup.fixtures import (
    hermitian_pair,
    one_point,
    random_acceptable,
    two_state,
)
from loopsoup.matrices import WeightMatrix, greens_exact, perturb, require_acceptable
from loopsoup.rng import substream


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


class TestSoupSampler:
    def test_rejects_signed_weights(self):
        with pytest.raises(NotPositive):
            sp.SoupSampler(hermitian_pair(), 1.0)
        with pytest.raises(NotPositive):
            sp.SoupSampler(WeightMatrix.from_entries(("a",), [[-0.3]]), 1.0)

    def test_rejects_bad_intensity(self):
        with pytest.raises(ValueError):
            sp.SoupSampler(two_state(), 0.0)

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
            total_loops += len(soup.loops)
            total_count_sq += len(soup.loops) ** 2
            ell += sp.discrete_occupation(soup, 2)
            for loop in soup.loops:
                if loop.length <= 2:
                    counts[loop.sites] = counts.get(loop.sites, 0) + 1
        # Poisson count: mean and variance both t * mass
        lam = t * mass
        mean_k = total_loops / n_soups
        assert abs(mean_k - lam) < 4 * math.sqrt(lam / n_soups)
        var_k = total_count_sq / n_soups - mean_k**2
        assert abs(var_k - lam) < 5 * math.sqrt(2 * lam**2 / n_soups) + 0.05
        # per-loop law for every short rooted loop
        for loop in lp.enumerate_rooted_loops(q, max_len=2):
            p = (lp.loop_measure(q, loop) / mass).real
            seen = counts.get(loop.sites, 0)
            sigma = math.sqrt(total_loops * p * (1 - p))
            assert abs(seen - total_loops * p) < 4 * sigma + 1e-9
        # mean discrete occupation is t * (G(x,x) - 1)
        g = greens_exact(q)
        for j, label in enumerate(q.space.labels):
            expect = t * (g.diagonal(label).real - 1.0)
            sigma = ell[j] / n_soups / math.sqrt(n_soups)  # crude scale
            assert abs(ell[j] / n_soups - expect) < 6 * max(sigma, 1e-3)

    def test_length_clamp_never_overruns(self):
        # drive the sampler hard; lengths stay finite and tables consistent
        q = one_point(0.9)
        sampler = sp.SoupSampler(q, 2.0)
        rng = substream(5150)
        for _ in range(2000):
            loop = sampler.sample_loop(rng)
            assert loop.sites == tuple([0] * loop.length)


class TestOccupation:
    def test_discrete_counts_loop_visits(self):
        soup = sp.LoopSoup(1.0, (lp.RootedLoop((0, 1)), lp.RootedLoop((1,))))
        np.testing.assert_array_equal(sp.discrete_occupation(soup, 3), [1, 2, 0])

    def test_continuous_zero_counts_stay_zero(self):
        rng = substream(1)
        out = sp.continuous_occupation(np.array([0, 3]), 0.0, rng)
        assert out[0] == 0.0
        assert out[1] > 0.0

    def test_trivial_shape_adds_everywhere(self):
        rng = substream(2)
        out = sp.continuous_occupation(np.array([0, 0]), 1.5, rng)
        assert np.all(out > 0)

    def test_negative_shape_rejected(self):
        with pytest.raises(InvalidShape):
            sp.continuous_occupation(np.array([0]), -0.5, substream(3))

    def test_batch_shape_and_determinism(self):
        q = two_state()
        a = sp.sample_occupation_fields(q, 1.0, 50, seed=42)
        b = sp.sample_occupation_fields(q, 1.0, 50, seed=42)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (50, 2)
        tail = sp.sample_occupation_fields(q, 1.0, 20, seed=42, start_index=30)
        np.testing.assert_array_equal(a[30:], tail)


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
        for loop in lp.enumerate_rooted_loops(q, max_len=12):
            exponent += lp.perturbed_loop_measure(q, f, loop) - lp.loop_measure(q, loop)
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


class TestVariationAlpha:
    def test_positive_weights_give_one(self):
        alpha, slack = sp.variation_bound_alpha(two_state(), 1.0, max_len=20)
        assert alpha == 1.0
        assert slack < 1e-3

    def test_matches_literal_enumeration(self):
        q = random_acceptable(3, 0.5, seed=311, complex_entries=True)
        max_len = 8
        exponent = sum(
            abs(lp.loop_measure(q, loop)) - lp.loop_measure(q, loop).real
            for loop in lp.enumerate_rooted_loops(q, max_len)
        )
        alpha, _ = sp.variation_bound_alpha(q, 1.5, max_len)
        assert alpha == pytest.approx(math.exp(1.5 * exponent), rel=1e-10)

    def test_at_least_one(self):
        for seed in (1, 2, 3):
            q = random_acceptable(4, 0.6, seed=seed, complex_entries=True)
            alpha, _ = sp.variation_bound_alpha(q, 0.7, max_len=30)
            assert alpha >= 1.0


class TestReversal:
    def test_hermitian_two_site(self):
        check = sp.reversal_symmetrization_check(
            hermitian_pair(), [0.3, 0.3], intensity=0.5, max_len=14
        )
        assert abs(check.closed - check.summed) <= check.slack + 1e-12

    def test_complex_non_hermitian(self):
        q = random_acceptable(3, 0.5, seed=313, complex_entries=True)
        f = [0.2, 0.05 + 0.1j, 0.15]
        for t in (1.0, 0.7):
            check = sp.reversal_symmetrization_check(q, f, intensity=t, max_len=10)
            assert abs(check.closed - check.summed) <= check.slack + 1e-12

    def test_doubling_matches_two_t_directly(self):
        q = hermitian_pair()
        f = [0.4, 0.1]
        lhs = sp.nu_transform_closed(q, f, 2 * 0.3)
        check = sp.reversal_symmetrization_check(q, f, intensity=0.3, max_len=12)
        assert check.closed == pytest.approx(lhs, rel=1e-12)
