"""Matrix core: acceptability, Green's functions, restriction, perturbation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsoup import matrices as mx
from loopsoup.errors import (
    InvalidMatrix,
    NotAcceptable,
    NumericallySingular,
    UnknownSite,
)
from loopsoup.fixtures import (
    hermitian_pair,
    one_point,
    random_acceptable,
    two_state,
)
from oracles import neumann_partial


class TestStateSpace:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(InvalidMatrix):
            mx.StateSpace(("a", "a"))

    def test_rejects_empty(self):
        with pytest.raises(InvalidMatrix):
            mx.StateSpace(())

    def test_unknown_site(self):
        space = mx.StateSpace(("a", "b"))
        with pytest.raises(UnknownSite):
            space.index("c")


class TestWeightMatrix:
    def test_flags_are_computed(self):
        q = two_state()
        assert q.real and q.positive and q.symmetric and q.hermitian

    def test_hermitian_not_symmetric(self):
        q = hermitian_pair()
        assert q.hermitian and not q.symmetric
        assert not q.real and not q.positive

    def test_negative_real_not_positive(self):
        q = mx.WeightMatrix.from_entries(("a",), [[-0.5]])
        assert q.real and not q.positive

    def test_shape_mismatch(self):
        with pytest.raises(InvalidMatrix):
            mx.WeightMatrix.from_entries(("a", "b"), [[0.1]])

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidMatrix):
            mx.WeightMatrix.from_entries(("a",), [[np.nan]])

    def test_json_round_trip(self, tmp_path):
        q = random_acceptable(3, 0.5, seed=7, complex_entries=True)
        doc = q.to_json_dict()
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        back = mx.WeightMatrix.from_json_file(path)
        assert back.space == q.space
        np.testing.assert_array_equal(back.entries, q.entries)

    def test_json_malformed(self):
        with pytest.raises(InvalidMatrix):
            mx.WeightMatrix.from_json_dict({"labels": ["a"]})
        with pytest.raises(InvalidMatrix):
            mx.WeightMatrix.from_json_dict({"labels": ["a"], "entries": [[0.3]]})


class TestSpectralRadius:
    def test_one_point(self):
        assert mx.spectral_radius_abs(one_point(0.3)) == pytest.approx(0.3)
        # the radius sees |q|, not q
        assert mx.spectral_radius_abs(one_point(-0.3)) == pytest.approx(0.3)
        assert mx.spectral_radius_abs(one_point(0.3j)) == pytest.approx(0.3)

    def test_two_state(self):
        assert mx.spectral_radius_abs(two_state()) == pytest.approx(0.5)

    def test_zero_matrix(self):
        q = mx.WeightMatrix.from_entries(("a", "b"), np.zeros((2, 2)))
        assert mx.spectral_radius_abs(q) == 0.0

    def test_empty_array(self):
        assert mx.spectral_radius_abs(np.zeros((0, 0))) == 0.0

    def test_periodic_three_cycle(self):
        # 3-cycle with weight c: |Q| has eigenvalues c, c*omega, c*omega^2
        c = 0.4
        q = np.array([[0, c, 0], [0, 0, c], [c, 0, 0]])
        assert mx.spectral_radius_abs(q) == pytest.approx(c, rel=1e-9)

    def test_tied_diagonal_non_normal_triangular(self):
        # |Q| is upper triangular, so its eigenvalues are the diagonal
        # moduli; the top one is tied and the off-diagonal part outweighs it
        moduli = np.array([0.6, 0.6, 0.45, 0.3, 0.15])
        phases = np.exp(2j * np.pi * np.array([0.1, 0.7, 0.3, 0.9, 0.5]))
        rng = np.random.default_rng(5)
        q = np.triu(2.0 * rng.uniform(-1, 1, (5, 5)), k=1) + np.diag(moduli * phases)
        assert mx.spectral_radius_abs(q) == pytest.approx(0.6, rel=1e-12)

    def test_weighted_directed_five_cycle(self):
        # (|Q|^5) = prod(w) I, so every eigenvalue has modulus prod(w)^(1/5)
        weights = np.array([0.9, 0.5, 0.7, 0.8, 0.6])
        phases = np.exp(2j * np.pi * np.array([0.2, 0.4, 0.1, 0.8, 0.6]))
        q = np.zeros((5, 5), dtype=np.complex128)
        q[np.arange(5), (np.arange(5) + 1) % 5] = weights * phases
        expected = float(np.prod(weights)) ** (1 / 5)
        assert mx.spectral_radius_abs(q) == pytest.approx(expected, rel=1e-12)

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_eigvals_on_random(self, n, seed):
        rng = np.random.default_rng(seed)
        m = rng.uniform(-1, 1, size=(n, n)) + 1j * rng.uniform(-1, 1, size=(n, n))
        expected = np.max(np.abs(np.linalg.eigvals(np.abs(m))))
        assert mx.spectral_radius_abs(m) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    @given(
        st.integers(min_value=1, max_value=6),
        st.sampled_from([0.0, 0.5, 0.8]),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_collatz_wielandt_bracket(self, n, zero_fraction, seed):
        # for nonnegative M and positive v, rho(M) lies between the least
        # and the greatest (Mv)_i / v_i; zeros make reducible supports
        rng = np.random.default_rng(seed)
        q = rng.uniform(-1, 1, size=(n, n)) + 1j * rng.uniform(-1, 1, size=(n, n))
        q[rng.uniform(size=(n, n)) < zero_fraction] = 0.0
        m = np.abs(q)
        rho = mx.spectral_radius_abs(q)
        for v in (np.ones(n), m @ np.ones(n) + 1.0):
            ratios = (m @ v) / v
            assert ratios.min() * (1 - 1e-12) <= rho <= ratios.max() * (1 + 1e-12)


class TestAcceptability:
    def test_margin(self):
        cert = mx.acceptability(one_point(0.3))
        assert cert.acceptable
        assert cert.margin == pytest.approx(0.7)

    def test_boundary_rejected(self):
        cert = mx.acceptability(one_point(1.0))
        assert not cert.acceptable

    def test_just_under_threshold_rejected(self):
        cert = mx.acceptability(one_point(1.0 - 1e-12))
        assert not cert.acceptable

    def test_gated_once_per_matrix_object(self, monkeypatch):
        gated = []
        radius = mx.spectral_radius_abs
        monkeypatch.setattr(
            mx, "spectral_radius_abs", lambda q: gated.append(q) or radius(q)
        )
        q = two_state()
        first = mx.acceptability(q)
        assert mx.require_acceptable(q) == first.spectral_radius_abs
        assert mx.acceptability(q) is first
        assert gated == [q]
        # another object with the same entries is gated afresh
        twin = mx.WeightMatrix(q.space, q.entries)
        assert mx.acceptability(twin) == first
        assert len(gated) == 2


def _series_tail(q, length):
    return np.max(mx.abs_resolvent_tail(np.abs(q.entries), length + 1, np.eye(q.n)))


class TestGreens:
    def test_one_point_value(self):
        g = mx.greens_exact(one_point(0.4))
        assert g.diagonal("x") == pytest.approx(1.0 / 0.6)

    def test_two_state_values(self):
        g = mx.greens_exact(two_state())
        expect = np.array([[4 / 3, 2 / 3], [2 / 3, 4 / 3]])
        np.testing.assert_allclose(g.entries, expect, rtol=1e-12)

    def test_inverse_residual(self):
        q = random_acceptable(5, 0.8, seed=11, complex_entries=True)
        g = mx.greens_exact(q)
        residual = (np.eye(5) - q.entries) @ g.entries - np.eye(5)
        assert np.max(np.abs(residual)) <= 1e-10

    def test_not_acceptable_raises(self):
        with pytest.raises(NotAcceptable):
            mx.greens_exact(one_point(1.2))

    # the partial Neumann sums of G are within the largest entry of the
    # exact |Q| remainder, abs_resolvent_tail(|Q|, L + 1, I)
    def test_series_converges_within_bound(self):
        q = random_acceptable(4, 0.6, seed=3, complex_entries=True)
        exact = mx.greens_exact(q).entries
        for length in (0, 3, 10, 40):
            err = np.max(np.abs(neumann_partial(q.entries, length) - exact))
            assert err <= _series_tail(q, length) + 1e-15

    @pytest.mark.parametrize("length", [5, 40])
    def test_series_tail_bounds_non_normal_q(self, length):
        # |Q| far from normal: n rho^(L+1) / (1 - rho) claimed 0.0625 at L=5
        # against a true error of 43.75
        q = mx.WeightMatrix.from_entries(("a", "b"), [[0.5, 100.0], [0.0, 0.5]])
        exact = mx.greens_exact(q).entries
        err = np.max(np.abs(neumann_partial(q.entries, length) - exact))
        # the bound is the exact remainder here, so allow a few ulps
        assert err <= _series_tail(q, length) + 4 * np.spacing(np.max(np.abs(exact)))

    def test_series_tail_decreases(self):
        q = random_acceptable(3, 0.5, seed=9)
        assert _series_tail(q, 20) < _series_tail(q, 5)

    def test_nonnegative_entries_for_positive_q(self):
        q = two_state()
        g = mx.greens_exact(q)
        assert np.all(g.entries.real >= 0)
        assert np.max(np.abs(g.entries.imag)) <= 1e-14


class TestDetLaplacian:
    def test_one_point(self):
        assert mx.det_laplacian(one_point(0.25)) == pytest.approx(0.75)

    def test_matches_numpy(self):
        q = random_acceptable(5, 0.7, seed=21, complex_entries=True)
        expected = np.linalg.det(np.eye(5) - q.entries)
        assert mx.det_laplacian(q) == pytest.approx(expected, rel=1e-10)

    def test_singular_raises(self):
        with pytest.raises(NumericallySingular):
            mx.lu_det(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_singular_solve_raises(self):
        # the solve is numpy's, which raises its own LinAlgError here and
        # solves a nearly singular system without complaint; the pivot
        # check runs first and raises the package's error
        with pytest.raises(NumericallySingular):
            mx._lu_solve(np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex), np.eye(2))


class TestRestrict:
    def test_preserves_order(self):
        q = random_acceptable(4, 0.5, seed=2)
        sub = mx.restrict(q, ["s2", "s0"])
        assert sub.space.labels == ("s2", "s0")
        assert sub.entries[0, 1] == q.entries[2, 0]

    def test_unknown_label(self):
        with pytest.raises(UnknownSite):
            mx.restrict(two_state(), ["x", "z"])

    def test_empty_rejected(self):
        with pytest.raises(UnknownSite):
            mx.restrict(two_state(), [])


class TestFirstReturn:
    def test_one_point_is_q(self):
        # at a single site every first return is the self-loop itself
        assert mx.first_return_weight(one_point(0.35), "x") == pytest.approx(0.35)

    def test_two_state_value(self):
        # x -> y -> x is the only first-return shape: weights (1/2)(1/2) summed
        # over y-excursions give 1/4 / (1 - 0) ... = 1 - 1/(4/3) = 1/4
        assert mx.first_return_weight(two_state(), "x") == pytest.approx(0.25)

    def test_renewal_identity(self):
        # the complement solve against the renewal oracle 1 - 1/G(x, x),
        # which reads G from a solve on the whole space
        q = random_acceptable(4, 0.7, seed=5, complex_entries=True)
        g = mx.greens_exact(q)
        for label in q.space.labels:
            f = mx.first_return_weight(q, label)
            assert f == pytest.approx(1 - 1 / g.diagonal(label), rel=1e-10)
            assert g.diagonal(label) * (1 - f) == pytest.approx(1.0, rel=1e-10)

    def test_brute_force_agrees(self):
        q = random_acceptable(4, 0.6, seed=6, complex_entries=True)
        exact = mx.first_return_weight(q, "s1")
        partial, tail = mx.first_return_weight(q, "s1", mode="brute_force", length=60)
        assert abs(partial - exact) <= tail + 1e-14

    def test_hermitian_first_return_is_real(self):
        f = mx.first_return_weight(hermitian_pair(), "x")
        assert abs(f.imag) <= 1e-10


class TestPerturb:
    def test_rescales_rows(self):
        q = two_state()
        p = mx.perturb(q, [1.0, 0.0])
        np.testing.assert_allclose(p.entries[0], q.entries[0] / 2.0)
        np.testing.assert_allclose(p.entries[1], q.entries[1])

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            mx.perturb(two_state(), [-1.0, 0.0])

    def test_zero_f_is_identity(self):
        q = random_acceptable(3, 0.5, seed=8)
        p = mx.perturb(q, [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(p.entries, q.entries)

    def test_nonnegative_f_preserves_acceptability(self):
        q = random_acceptable(3, 0.9, seed=13)
        p = mx.perturb(q, [0.5, 0.1, 2.0])
        assert mx.acceptability(p).acceptable

