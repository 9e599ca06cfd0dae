"""Chronological erasure and the two loop-erased walk computations."""

import time
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsoup import lerw
from loopsoup.errors import InvalidPath, NotAcceptable, TooLarge
from loopsoup.fixtures import boundary_problems, one_point
from loopsoup.matrices import (
    WeightMatrix,
    acceptability,
    greens_exact,
    spectral_radius_abs,
)
from loopsoup.rng import substream
from oracles import loop_erase


def recursive_bruteforce(problem, start, max_steps):
    """Oracle: one recursive call per stopped walk, erasing as it goes.

    Returns the walk weight summed per erased path and, per erased path,
    the summed modulus of its walks' weights.
    """
    space = problem.weights.space
    ent = problem.weights.entries
    int_idx = space.indices(problem.interior)
    bnd_idx = space.indices(problem.boundary)
    acc = defaultdict(complex)
    mass = defaultdict(float)
    kept = [space.index(start)]
    position = {kept[0]: 0}

    def explore(z, used, weight):
        for b in bnd_idx:
            if ent[z, b] != 0:
                acc[tuple(kept) + (b,)] += weight * ent[z, b]
                mass[tuple(kept) + (b,)] += abs(weight * ent[z, b])
        if used + 1 > max_steps - 1:
            return
        for y in int_idx:
            if ent[z, y] == 0:
                continue
            if y in position:
                cut = position[y] + 1
                removed = kept[cut:]
                del kept[cut:]
                for site in removed:
                    del position[site]
                explore(y, used + 1, weight * ent[z, y])
                for site in removed:
                    position[site] = len(kept)
                    kept.append(site)
            else:
                position[y] = len(kept)
                kept.append(y)
                explore(y, used + 1, weight * ent[z, y])
                del position[kept.pop()]

    explore(kept[0], 0, 1.0 + 0.0j)
    labels = space.labels
    return tuple(
        {tuple(labels[i] for i in key): val for key, val in sums.items()}
        for sums in (acc, mass)
    )


def random_boundary_problem(n_int, n_bnd, zeros, rho, seed):
    """Complex weights with a share ``zeros`` of absent steps and the
    interior block rescaled to rho(|Q_A|) = rho."""
    rng = substream(seed)
    n = n_int + n_bnd
    mat = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
    mat[rng.uniform(size=(n, n)) < zeros] = 0.0
    radius = spectral_radius_abs(mat[:n_int, :n_int])
    if radius > 0:
        mat[:n_int, :n_int] *= rho / radius
    labels = [f"a{i}" for i in range(n_int)] + [f"b{i}" for i in range(n_bnd)]
    q = WeightMatrix.from_entries(labels, mat)
    return lerw.BoundaryProblem(q, tuple(labels[:n_int]), tuple(labels[n_int:]))


class TestLoopErase:
    """The erasure that test_spanning's reference Wilson sampler applies."""

    def test_empty_rejected(self):
        with pytest.raises(InvalidPath):
            loop_erase([])

    def test_self_avoiding_fixed(self):
        assert loop_erase(["a", "b", "c"]) == ("a", "b", "c")

    def test_immediate_return(self):
        assert loop_erase(["a", "b", "a"]) == ("a",)

    def test_erases_in_chronological_order(self):
        assert loop_erase(["a", "b", "c", "b", "d"]) == ("a", "b", "d")
        assert loop_erase([0, 1, 2, 0, 2, 3]) == (0, 2, 3)

    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_result_is_self_avoiding_subpath(self, path):
        out = loop_erase(path)
        assert len(set(out)) == len(out)
        assert out[0] == path[0]
        assert out[-1] == path[-1]
        assert set(out) <= set(path)
        assert loop_erase(out) == out


class TestPathWeight:
    def test_product_of_steps(self):
        q = WeightMatrix.from_entries(("a", "b"), [[0.1, 0.2], [0.3, 0.4]])
        assert lerw.path_weight(q, ["a", "b", "b", "a"]) == pytest.approx(
            0.2 * 0.4 * 0.3
        )

    def test_single_site_rejected(self):
        q = one_point(0.5)
        with pytest.raises(InvalidPath):
            lerw.path_weight(q, ["x"])


class TestBoundaryProblem:
    def test_partition_enforced(self):
        problems = boundary_problems()
        q = problems["srw_path5"].weights
        with pytest.raises(InvalidPath):
            lerw.BoundaryProblem(q, ("v1", "v2"), ("v0", "v4"))  # v3 missing
        with pytest.raises(InvalidPath):
            lerw.BoundaryProblem(q, ("v1", "v2", "v3"), ("v0", "v3", "v4"))

    def test_stochastic_matrix_ok_when_interior_shrinks(self):
        # the full walk matrix has spectral radius one, yet the problem is
        # fine because walks only use interior rows before stopping
        problem = boundary_problems()["srw_path5"]
        with pytest.raises(NotAcceptable):
            greens_exact(problem.weights)
        assert acceptability(problem.interior_weights).acceptable

    def test_unacceptable_interior_rejected(self):
        q = WeightMatrix.from_entries(("a", "b"), [[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(NotAcceptable):
            lerw.BoundaryProblem(q, ("a",), ("b",))


class TestFormulaOnSimpleWalk:
    def test_gamblers_ruin_values(self):
        # on the 5-path with absorbing ends, the erased path determines the
        # exit side, so the formula must reproduce exit probabilities
        problem = boundary_problems()["srw_path5"]
        w = lerw.lerw_weight_formula(problem, ["v1", "v0"])
        assert w == pytest.approx(3 / 4, rel=1e-12)
        w = lerw.lerw_weight_formula(problem, ["v2", "v1", "v0"])
        assert w == pytest.approx(1 / 2, rel=1e-12)
        w = lerw.lerw_weight_formula(problem, ["v3", "v2", "v1", "v0"])
        assert w == pytest.approx(1 / 4, rel=1e-12)

    def test_total_weight_is_one_for_stochastic(self):
        problem = boundary_problems()["srw_path5"]
        for start in problem.interior:
            total = sum(
                lerw.lerw_weight_formula(problem, eta)
                for eta in lerw.self_avoiding_paths(problem, start)
            )
            assert total == pytest.approx(1.0, rel=1e-12)

    def test_path_validation(self):
        problem = boundary_problems()["srw_path5"]
        with pytest.raises(InvalidPath):
            lerw.lerw_weight_formula(problem, ["v1", "v2", "v1", "v0"])
        with pytest.raises(InvalidPath):
            lerw.lerw_weight_formula(problem, ["v1", "v2"])  # no boundary end
        with pytest.raises(InvalidPath):
            lerw.lerw_weight_formula(problem, ["v0", "v4"])  # boundary start


class TestBruteForceAgreement:
    @pytest.mark.parametrize("name", ["srw_path5", "real5", "complex5"])
    def test_formula_within_tail(self, name):
        problem = boundary_problems()[name]
        start = problem.interior[0]
        brute = lerw.lerw_weights_bruteforce(problem, start, max_steps=10)
        for eta in lerw.self_avoiding_paths(problem, start):
            formula = lerw.lerw_weight_formula(problem, eta)
            partial = brute.weights.get(eta, 0.0)
            assert abs(formula - partial) <= brute.tail_bound + 1e-13

    def test_tail_shrinks_with_cap(self):
        problem = boundary_problems()["complex5"]
        b1 = lerw.lerw_weights_bruteforce(problem, "s1", max_steps=6)
        b2 = lerw.lerw_weights_bruteforce(problem, "s1", max_steps=12)
        assert b2.tail_bound < b1.tail_bound
        eta = max(b1.weights, key=lambda k: abs(b1.weights[k]))
        exact = lerw.lerw_weight_formula(problem, eta)
        assert abs(b2.weights[eta] - exact) <= b2.tail_bound
        assert abs(b2.weights[eta] - exact) <= abs(b1.weights[eta] - exact) + 1e-13

    def test_erased_keys_are_self_avoiding(self):
        problem = boundary_problems()["real5"]
        brute = lerw.lerw_weights_bruteforce(problem, "s0", max_steps=8)
        for eta in brute.weights:
            assert len(set(eta)) == len(eta)
            assert eta[0] == "s0"
            assert eta[-1] in problem.boundary

    def test_start_validation(self):
        problem = boundary_problems()["srw_path5"]
        with pytest.raises(InvalidPath):
            lerw.lerw_weights_bruteforce(problem, "v0", max_steps=5)

    @given(
        n_int=st.integers(min_value=1, max_value=5),
        n_bnd=st.integers(min_value=1, max_value=3),
        zeros=st.floats(min_value=0.0, max_value=0.6),
        rho=st.floats(min_value=0.05, max_value=0.95),
        max_steps=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_state_sweep_matches_walk_recursion(
        self, n_int, n_bnd, zeros, rho, max_steps, seed
    ):
        problem = random_boundary_problem(n_int, n_bnd, zeros, rho, seed)
        brute = lerw.lerw_weights_bruteforce(problem, "a0", max_steps)
        want, mass = recursive_bruteforce(problem, "a0", max_steps)
        # the same walks, summed in another order
        assert set(brute.weights) == set(want)
        for eta, value in want.items():
            assert abs(brute.weights[eta] - value) <= 1e-12 * mass[eta]

    def test_state_budget_refuses_before_the_sweep(self):
        # 12 dense interior sites have about e * 11! self-avoiding paths
        # from the start, so 40 layers could hold far more states than
        # the budget; the count stops at the budget instead
        labels = [f"a{i}" for i in range(12)] + ["b"]
        q = WeightMatrix.from_entries(labels, np.full((13, 13), 0.05))
        problem = lerw.BoundaryProblem(q, tuple(labels[:12]), ("b",))
        started = time.perf_counter()
        with pytest.raises(TooLarge):
            lerw.lerw_weights_bruteforce(problem, "a0", max_steps=40)
        assert time.perf_counter() - started < 5.0
        # few layers fit the same problem within budget
        assert lerw.lerw_weights_bruteforce(problem, "a0", max_steps=2).weights


class TestSelfAvoidingPaths:
    def test_count_full_three_interior(self):
        problem = boundary_problems()["complex5"]
        paths = lerw.self_avoiding_paths(problem, "s0")
        # interior orderings from a fixed start: 1 + 2 + 2, times two exits
        assert len(paths) == 10
        assert len(set(paths)) == 10

    def test_budget_refuses_before_listing(self):
        # 2 exits times sum_{j<11} 10!/(10-j)! orderings: 19 728 202 paths
        labels = [f"a{i}" for i in range(11)] + ["b0", "b1"]
        q = WeightMatrix.from_entries(labels, np.full((13, 13), 0.05))
        problem = lerw.BoundaryProblem(q, tuple(labels[:11]), ("b0", "b1"))
        started = time.perf_counter()
        with pytest.raises(TooLarge):
            lerw.self_avoiding_paths(problem, "a0")
        assert time.perf_counter() - started < 1.0

    def test_all_paths_valid(self):
        problem = boundary_problems()["srw_path5"]
        for eta in lerw.self_avoiding_paths(problem, "v2"):
            inner, last = problem.split_path(eta)
            assert inner[0] == "v2"
            assert last in problem.boundary
