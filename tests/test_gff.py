"""Gaussian fields, the squared-field isomorphism, and complex doubling."""

import math

import numpy as np
import pytest

from loopsoup import gff
from loopsoup import soup as sp
from loopsoup.errors import (
    AcceptabilityWarning,
    InvalidMatrix,
    NotPositive,
    OutOfDomain,
)
from loopsoup.fixtures import (
    hermitian_pair,
    one_point,
    random_hermitian,
    random_symmetric_positive,
    two_state,
)
from loopsoup.matrices import WeightMatrix, greens_exact, lu_det
from loopsoup.rng import substream


class TestGFFModel:
    def test_requires_real_symmetric(self):
        with pytest.raises(InvalidMatrix):
            gff.GFFModel.from_weights(hermitian_pair())
        asym = WeightMatrix.from_entries(("a", "b"), [[0.0, 0.4], [0.1, 0.0]])
        with pytest.raises(InvalidMatrix):
            gff.GFFModel.from_weights(asym)

    def test_cholesky_reconstructs_covariance(self):
        q = random_symmetric_positive(4, 0.7, seed=401)
        model = gff.GFFModel.from_weights(q)
        np.testing.assert_allclose(
            model.cholesky @ model.cholesky.T, model.covariance, atol=1e-12
        )

    def test_sample_covariance(self):
        q = two_state()
        model = gff.GFFModel.from_weights(q)
        phi = gff.gff_sample(model, 40_000, substream(402))
        emp = phi.T @ phi / len(phi)
        # 4-sigma envelope with Var(xy) <= 2 max(G)^2 for Gaussians
        bound = 4 * math.sqrt(2) * np.max(np.abs(model.covariance)) / math.sqrt(len(phi))
        assert np.max(np.abs(emp - model.covariance)) < bound

    def test_negative_weights_allowed(self):
        # positivity is a soup constraint, not a Gaussian one
        q = WeightMatrix.from_entries(("a", "b"), [[0.0, -0.4], [-0.4, 0.0]])
        model = gff.GFFModel.from_weights(q)
        assert model.covariance[0, 1] < 0
        with pytest.raises(NotPositive):
            sp.SoupSampler(q, 1.0)


class TestGaussianTransform:
    def test_one_point_closed_form(self):
        q, f = 0.5, 0.8
        val = gff.gff_transform_closed(one_point(q), [f])
        assert val == pytest.approx(math.sqrt((1 - q) / (1 - q + f)), rel=1e-12)

    def test_against_sampling(self):
        q = two_state()
        model = gff.GFFModel.from_weights(q)
        phi = gff.gff_sample(model, 30_000, substream(403))
        f = np.array([0.4, 0.25])
        est = sp.empirical_transform(0.5 * phi**2, f)
        closed = gff.gff_transform_closed(q, f)
        assert abs(est.value - closed) < 4 * est.stderr

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            gff.gff_transform_closed(one_point(0.5), [-0.6])

    def test_zero_f_is_one(self):
        q = random_symmetric_positive(3, 0.5, seed=405)
        assert gff.gff_transform_closed(q, [0, 0, 0]) == pytest.approx(1.0, rel=1e-12)


class TestIsomorphism:
    @pytest.mark.parametrize(
        "q",
        [
            one_point(0.3),
            two_state(),
            random_symmetric_positive(4, 0.6, seed=20240601),
        ],
        ids=["one_point", "two_state", "sym4"],
    )
    def test_identity_exact(self, q):
        rng = substream(406)
        grid = [np.full(q.n, s) for s in (0.1, 0.2, 0.5)]
        grid.append(rng.uniform(0.0, 1.0, q.n))
        for f in grid:
            check = gff.isomorphism_identity_check(q, f)
            assert check.error < 1e-12

    def test_mc_both_sides(self):
        q = two_state()
        res = gff.isomorphism_mc_check(
            q, [0.3, 0.2], 20_000, substream(407), soup_seed=408
        )
        assert abs(res.gaussian_value - res.closed) < 4 * res.gaussian_stderr
        assert abs(res.soup_value - res.closed) < 4 * res.soup_stderr

    def test_moment_decomposition_one_site(self):
        res = gff.chi_square_moment_check(
            one_point(0.5), 30_000, substream(409), soup_seed=410
        )
        assert res.closed_mean == pytest.approx(1.0)  # g = 2, mean g/2
        assert res.closed_second == pytest.approx(3.0)
        assert res.max_sigmas() < 4.0

    def test_moment_check_rejects_multisite(self):
        with pytest.raises(InvalidMatrix):
            gff.chi_square_moment_check(two_state(), 10, substream(1), soup_seed=2)


class TestDoubling:
    def test_block_structure_and_labels(self):
        q = hermitian_pair()
        d = gff.double_weights(q)
        assert d.space.labels == ("x", "y", "x*", "y*")
        assert d.real and d.symmetric
        np.testing.assert_array_equal(d.entries.real[:2, :2], q.entries.real)
        np.testing.assert_array_equal(d.entries.real[:2, 2:], -q.entries.imag)
        np.testing.assert_array_equal(d.entries.real[2:, :2], q.entries.imag)

    def test_doubling_can_lose_acceptability(self):
        # modulus mixes the parts; the doubled blocks add them instead
        q = WeightMatrix.from_entries(
            ("x", "y"), [[0, (1 + 1j) / 2], [(1 - 1j) / 2, 0]]
        )
        with pytest.warns(AcceptabilityWarning):
            gff.double_weights(q)

    def test_doubled_greens_blocks(self):
        q = random_hermitian(3, 0.55, seed=411)
        g_complex = greens_exact(q).entries
        g_doubled = greens_exact(gff.double_weights(q)).entries.real
        np.testing.assert_allclose(g_doubled[:3, :3], g_complex.real, atol=1e-12)
        np.testing.assert_allclose(g_doubled[:3, 3:], -g_complex.imag, atol=1e-12)
        np.testing.assert_allclose(g_doubled[3:, :3], g_complex.imag, atol=1e-12)
        np.testing.assert_allclose(g_doubled[3:, 3:], g_complex.real, atol=1e-12)

    def test_determinant_squares(self):
        for seed in (412, 413):
            q = random_hermitian(3, 0.6, seed=seed)
            det_doubled = lu_det(greens_exact(gff.double_weights(q)).entries)
            det_complex = lu_det(greens_exact(q).entries)
            assert det_doubled.real == pytest.approx(
                abs(det_complex) ** 2, rel=1e-9
            )
            assert abs(det_doubled.imag) < 1e-9

    def test_eigenvalues_double(self):
        q = random_hermitian(3, 0.6, seed=414)
        base = np.sort(np.linalg.eigvalsh(q.entries))
        doubled = np.sort(np.linalg.eigvalsh(gff.double_weights(q).entries.real))
        np.testing.assert_allclose(doubled, np.repeat(base, 2), atol=1e-10)

    def test_negative_entries_are_expected(self):
        # doubled hermitian weights are generally signed: fine for Gaussian
        # modelling, refused by the soup sampler
        d = gff.double_weights(hermitian_pair())
        assert np.min(d.entries.real) < 0
        gff.GFFModel.from_weights(d)
        with pytest.raises(NotPositive):
            sp.SoupSampler(d, 1.0)


class TestComplexField:
    def test_requires_hermitian(self):
        q = WeightMatrix.from_entries(("a", "b"), [[0, 0.5j], [0.5j, 0]])
        with pytest.raises(InvalidMatrix):
            gff.ComplexGFFModel.from_weights(q)

    def test_covariance_conventions(self):
        q = hermitian_pair()
        model = gff.ComplexGFFModel.from_weights(q)
        n = 50_000
        psi = gff.complex_gff_sample(model, n, substream(415))
        # E[psi(x) conj(psi(y))] at entry (x, y)
        cov = psi.T @ psi.conj() / n
        scale = 4 * 2 * np.max(np.abs(model.greens)) * 2 / math.sqrt(n)
        assert np.max(np.abs(cov - 2 * model.greens)) < scale
        pseudo = psi.T @ psi / n
        assert np.max(np.abs(pseudo)) < scale


class TestPushforward:
    @pytest.mark.parametrize("seed", [418, 419])
    def test_per_loop_identity_random_hermitian(self, seed):
        q = random_hermitian(3, 0.6, seed=seed)
        assert gff.pushforward_loop_check(q, max_len=6) < 1e-10

    def test_per_loop_identity_fixture(self):
        assert gff.pushforward_loop_check(hermitian_pair(), max_len=8) < 1e-12

    def test_transform_identity(self):
        for q in (hermitian_pair(), random_hermitian(3, 0.55, seed=420)):
            for s in (0.1, 0.4):
                check = gff.doubled_transform_identity_check(q, np.full(q.n, s))
                assert check.error < 1e-10
