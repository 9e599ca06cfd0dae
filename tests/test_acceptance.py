"""End-to-end acceptance checks, one test per criterion.

Each test carries a runtime budget asserted at the end; the conftest hook
prints a PASS/FAIL line per criterion after the run.
"""

import itertools
import time

import numpy as np
import scipy.stats

from loopsoup import fixtures as fx
from loopsoup import checks, gff, lerw, loops, soup, spanning
from loopsoup.matrices import (
    det_laplacian,
    greens_exact,
    lu_det,
)
from loopsoup.rng import substream


def criterion(label):
    def deco(fn):
        fn._criterion = label
        return fn

    return deco


def random_matrices():
    # 10 real and 10 complex, sizes 2..4, spectral radii 0.30..0.66
    out = []
    for i in range(10):
        n = 2 + i % 3
        rho = 0.3 + 0.04 * i
        out.append(fx.random_acceptable(n, rho, seed=1000 + i, complex_entries=False))
        out.append(fx.random_acceptable(n, rho, seed=2000 + i, complex_entries=True))
    return out


@criterion("criterion 1: truncated loop mass exponentiates to 1/det(I-Q)")
def test_c1_loop_mass_determinant():
    started = time.perf_counter()
    for q in random_matrices():
        mass = loops.meeting_mass_truncated(q, q.space.labels, max_len=14)
        approx, bound = loops.exp_truncated(mass)
        inv_det = 1.0 / det_laplacian(q)
        assert abs(approx - inv_det) <= bound
        for ordering in itertools.permutations(q.space.labels):
            prod = loops.exp_meeting_mass_greens(q, ordering)
            assert abs(prod - inv_det) <= 1e-9 * abs(inv_det)
    assert time.perf_counter() - started < 10.0


@criterion("criterion 2: mass of loops meeting a site exponentiates to G(x,x)")
def test_c2_meeting_one_site():
    started = time.perf_counter()
    for q in random_matrices():
        g = greens_exact(q)
        for i, label in enumerate(q.space.labels):
            mass = loops.meeting_mass_truncated(q, [label], max_len=14)
            approx, bound = loops.exp_truncated(mass)
            assert abs(approx - g[i, i]) <= bound
    assert time.perf_counter() - started < 10.0


@criterion("criterion 3: erased-walk formula matches the exhaustive walk sweep")
def test_c3_lerw_formula_vs_bruteforce():
    started = time.perf_counter()
    for problem in fx.boundary_problems().values():
        for start in problem.interior:
            brute = lerw.lerw_weights_bruteforce(problem, start, max_steps=12)
            for eta in lerw.self_avoiding_paths(problem, start):
                formula = lerw.lerw_weight_formula(problem, eta)
                assert abs(formula - brute.weights.get(eta, 0.0)) <= brute.tail_bound
    assert time.perf_counter() - started < 30.0


@criterion("criterion 4: Laplacian cofactor counts spanning trees")
def test_c4_matrix_tree_counts():
    started = time.perf_counter()
    known = [
        (fx.complete_graph(3), 3),
        (fx.cycle_graph(4), 4),
        (fx.complete_graph(4), 16),
    ]
    for doc, expected in known:
        g = spanning.SimpleGraph.from_json_dict(doc)
        assert spanning.tree_count_det(g) == expected
        assert len(spanning.enumerate_spanning_trees(g)) == expected
    shapes = [(4, 2), (5, 3), (5, 4), (6, 5), (6, 7)]
    for k, (n, extra) in enumerate(shapes):
        g = spanning.SimpleGraph.from_json_dict(
            fx.random_connected_graph(n, extra, seed=11 + k)
        )
        assert spanning.tree_count_det(g) == len(spanning.enumerate_spanning_trees(g))
    assert time.perf_counter() - started < 10.0


@criterion("criterion 5: Wilson-sampled spanning trees are uniform (chi-square)")
def test_c5_wilson_uniformity():
    started = time.perf_counter()
    for doc in (fx.complete_graph(3), fx.complete_graph(4)):
        g = spanning.SimpleGraph.from_json_dict(doc)
        trees = spanning.enumerate_spanning_trees(g)
        index = {t: i for i, t in enumerate(trees)}
        wilson = spanning.WilsonSampler(g)
        for seed in (42, 43, 44, 45, 46):
            rng = substream(seed)
            counts = np.zeros(len(trees))
            for _ in range(100_000):
                counts[index[wilson.sample(rng)]] += 1
            assert scipy.stats.chisquare(counts).pvalue > 0.001
    assert time.perf_counter() - started < 60.0


@criterion("criterion 6: sampled occupation transform matches determinant ratio")
def test_c6_occupation_transform_mc():
    started = time.perf_counter()
    for k, (name, q) in enumerate(fx.mc_fixtures().items()):
        fields = soup.sample_occupation_fields(q, 1.0, 100_000, seed=9000 + k)
        for scale in (0.2, 0.5, 1.0):
            f = np.full(q.n, scale)
            closed = soup.nu_transform_closed(q, f, 1.0)
            if name == "one_point_q0.5" and scale == 1.0:
                assert abs(closed - 2.0 / 3.0) < 1e-12
            est = soup.empirical_transform(fields, f)
            assert abs(est.value - closed) <= 4.0 * est.stderr
    assert time.perf_counter() - started < 120.0


@criterion("criterion 7: squared Gaussian field is the intensity-1/2 occupation")
def test_c7_isomorphism():
    started = time.perf_counter()
    # (a) exact transform identity on every symmetric fixture and grid point
    for q in fx.mc_fixtures().values():
        for combo in itertools.product((0.0, 0.1, 0.2, 0.5), repeat=q.n):
            f = np.array(combo)
            closed = gff.gff_transform_closed(q, f)
            assert abs(closed - soup.rho_transform_closed(q, f, 0.5)) < 1e-9
    # (b) both empirical transforms against the shared closed value
    sides = checks._isomorphism_sides(
        fx.two_state(), [0.3, 0.2], 100_000, substream(777), soup_seed=778
    )
    assert max(c.error for c in sides) <= 4.0
    # (c) one-site moment decomposition
    sides = checks._moment_sides(
        fx.one_point(0.5), 100_000, substream(779), soup_seed=780
    )
    assert max(c.error for c in sides) < 4.0
    assert time.perf_counter() - started < 120.0


@criterion("criterion 8: doubled intensity equals reversal symmetrization")
def test_c8_reversal_identity():
    started = time.perf_counter()
    q = fx.hermitian_pair()
    for f, t in (([0.3, 0.2], 0.6), ([0.5, 0.1], 1.2)):
        chk = soup.reversal_symmetrization_check(q, f, intensity=t, max_len=14)
        assert abs(chk.lhs - chk.rhs) <= chk.slack
    assert time.perf_counter() - started < 10.0


@criterion("criterion 9: two-sheet doubling of Hermitian weights")
def test_c9_complex_doubling():
    started = time.perf_counter()
    herm2 = fx.hermitian_pair()
    herm3 = fx.random_hermitian(3, 0.55, seed=411)
    for q in (herm2, herm3):
        det_c = lu_det(greens_exact(q))
        det_d = lu_det(greens_exact(gff.double_weights(q)))
        assert abs(det_d - abs(det_c) ** 2) <= 1e-9 * abs(det_c) ** 2
        assert gff.pushforward_loop_check(q, max_len=8) <= 1e-10
    # complex field covariance 2G and vanishing pseudo-covariance
    model = gff.ComplexGFFModel.from_weights(herm2)
    n = 100_000
    psi = gff.complex_gff_sample(model, n, substream(991))
    for i in range(herm2.n):
        for j in range(herm2.n):
            prod = psi[:, i] * psi[:, j].conj()
            mean = prod.mean()
            se = np.sqrt(np.mean(np.abs(prod - mean) ** 2) / n)
            assert abs(mean - 2.0 * model.greens[i, j]) <= 4.0 * se
            pseudo = psi[:, i] * psi[:, j]
            pmean = pseudo.mean()
            pse = np.sqrt(np.mean(np.abs(pseudo - pmean) ** 2) / n)
            assert abs(pmean) <= 4.0 * pse
    assert time.perf_counter() - started < 60.0
