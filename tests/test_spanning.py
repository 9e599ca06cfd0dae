"""Spanning trees: Kirchhoff count, enumeration, Wilson sampling."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsoup import checks
from loopsoup import matrices as mx
from loopsoup import spanning as sp
from loopsoup.errors import Disconnected, InvalidGraph, NumericalFailure, TooLarge
from loopsoup.fixtures import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
)
from loopsoup.rng import substream
from oracles import loop_erase, wilson_batch, wilson_branch_product


def graph(doc: dict) -> sp.SimpleGraph:
    return sp.SimpleGraph.from_json_dict(doc)


def reference_wilson(g: sp.SimpleGraph, rng, root: int) -> sp.Tree:
    # each walk stored whole and erased by oracles.loop_erase, one
    # rng.random() call per step
    adj = g.neighbors()
    in_tree = [False] * g.n
    in_tree[root] = True
    edges = []
    for v in range(g.n):
        if in_tree[v]:
            continue
        walk = [v]
        node = v
        while not in_tree[node]:
            node = adj[node][int(rng.random() * len(adj[node]))]
            walk.append(node)
        branch = loop_erase(walk)
        for a, b in zip(branch, branch[1:]):
            in_tree[a] = True
            edges.append((min(a, b), max(a, b)))
    return frozenset(edges)


class TestSimpleGraph:
    def test_json_round_trip(self, tmp_path):
        g = graph(random_connected_graph(6, 4, seed=101))
        p = tmp_path / "g.json"
        p.write_text(json.dumps(g.to_json_dict()))
        again = sp.SimpleGraph.from_json_file(p)
        assert again == g

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidGraph):
            graph({"vertices": ["a", "b"], "edges": [[0, 0]]})

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InvalidGraph):
            graph({"vertices": ["a", "b"], "edges": [[0, 1], [1, 0]]})

    def test_rejects_bad_index(self):
        with pytest.raises(InvalidGraph):
            graph({"vertices": ["a", "b"], "edges": [[0, 2]]})

    @pytest.mark.parametrize(
        "vertices, edges",
        [("abc", [[0, 1], [1, 2]]), ([1, [2]], [[0, 1]]), (["a", "a"], [[0, 1]])],
        ids=["string", "not-names", "repeated"],
    )
    def test_rejects_vertices_that_are_not_distinct_names(self, vertices, edges):
        # "abc" would split into three vertices; [2] would fail to hash
        with pytest.raises(InvalidGraph):
            graph({"vertices": vertices, "edges": edges})

    @pytest.mark.parametrize("end", [True, 1.0], ids=["bool", "float"])
    def test_rejects_endpoint_that_is_no_whole_number(self, end):
        # lap[True, True] += 1 is numpy mask indexing: read as vertex 1, True
        # would add 1 to every Laplacian entry and count 15 trees of the 4-cycle
        with pytest.raises(InvalidGraph):
            sp.SimpleGraph(("a", "b", "c", "d"), ((0, end), (1, 2), (2, 3), (3, 0)))

    def test_numpy_integer_endpoints_are_vertices(self):
        ends = ((np.int64(0), np.int32(1)), (1, np.int64(2)), (2, 3), (3, 0))
        assert sp.tree_count_det(sp.SimpleGraph(("a", "b", "c", "d"), ends)) == 4

    def test_connectivity(self):
        assert graph(path_graph(4)).is_connected()
        split = {"vertices": ["a", "b", "c", "d"], "edges": [[0, 1], [2, 3]]}
        assert not graph(split).is_connected()


class TestTreeCount:
    @pytest.mark.parametrize(
        "doc, expected",
        [
            (complete_graph(3), 3),
            (cycle_graph(4), 4),
            (complete_graph(4), 16),
            (path_graph(5), 1),
            (complete_graph(5), 125),  # n^(n-2)
            (complete_graph(8), 262144),
        ],
    )
    def test_known_counts(self, doc, expected):
        assert sp.tree_count_det(graph(doc)) == expected

    def test_matches_enumeration_on_random_graphs(self):
        for seed in (1, 2, 3, 4, 5):
            g = graph(random_connected_graph(6, 5, seed=seed))
            trees = sp.enumerate_spanning_trees(g)
            assert sp.tree_count_det(g) == len(trees)
            assert len(set(trees)) == len(trees)

    def test_disconnected_has_no_trees(self):
        split = graph({"vertices": ["a", "b", "c", "d"], "edges": [[0, 1], [2, 3]]})
        assert sp.tree_count_det(split) == 0
        assert sp.enumerate_spanning_trees(split) == []
        isolated = graph({"vertices": ["a", "b", "c"], "edges": [[0, 1]]})
        assert sp.tree_count_det(isolated) == 0

    def test_enumeration_cap(self):
        with pytest.raises(TooLarge):
            sp.enumerate_spanning_trees(graph(complete_graph(9)))


class TestWalkWeights:
    def test_rows_are_uniform_over_neighbors(self):
        w = sp.srw_weights(graph(complete_graph(4)))
        np.testing.assert_allclose(w.entries.real.sum(axis=1), 1.0)
        assert np.all(np.diag(w.entries.real) == 0)

    def test_isolated_vertex_rejected(self):
        g = graph({"vertices": ["a", "b", "c"], "edges": [[0, 1]]})
        with pytest.raises(Disconnected):
            sp.srw_weights(g)


class TestTreeProbability:
    @pytest.mark.parametrize(
        "doc", [complete_graph(3), cycle_graph(4), complete_graph(4)]
    )
    def test_uniform_over_trees_and_sums_to_one(self, doc):
        g = graph(doc)
        trees = sp.enumerate_spanning_trees(g)
        probs = [sp.spanning_tree_probability(g, t) for t in trees]
        np.testing.assert_allclose(probs, 1.0 / len(trees), rtol=1e-10)

    def test_root_choice_does_not_matter(self):
        g = graph(complete_graph(4))
        t = sp.enumerate_spanning_trees(g)[0]
        p0 = sp.spanning_tree_probability(g, t, root=0)
        p2 = sp.spanning_tree_probability(g, t, root=2)
        assert p0 == pytest.approx(p2, rel=1e-10)

    def test_non_tree_rejected(self):
        g = graph(complete_graph(4))
        with pytest.raises(InvalidGraph):
            # triangle plus nothing: right size, wrong shape
            sp.spanning_tree_probability(g, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(InvalidGraph):
            sp.spanning_tree_probability(g, [(0, 1), (1, 2)])

    @pytest.mark.parametrize(
        "edges",
        [[(0, 2), (0, 1), (0, 3)], [(0, 1), (1, 2), (2, 7)], [(0, 1), (1, 2), (2, -1)]],
        ids=["non-edge", "past-the-end", "negative"],
    )
    def test_edges_outside_the_graph_rejected(self, edges):
        # (0, 2) is no edge of the 4-cycle; 7 and -1 are no vertex of it
        with pytest.raises(InvalidGraph, match="not a spanning tree of the graph"):
            sp.spanning_tree_probability(graph(cycle_graph(4)), edges)

    @pytest.mark.parametrize("root", [4, -1])
    def test_root_out_of_range_rejected(self, root):
        with pytest.raises(InvalidGraph, match="out of range"):
            sp.spanning_tree_probability(graph(cycle_graph(4)), [(0, 1), (1, 2), (2, 3)], root)

    @pytest.mark.parametrize(
        "edges",
        [[(0, 1), (1, 2), (2.0, 3)], [(0, 1), (1, 2), (0, 1, 2)], [(0, 1), (1, 2), 3]],
        ids=["float-end", "triple", "number"],
    )
    def test_edge_that_is_no_vertex_pair_rejected(self, edges):
        # 2.0 == 2 would pass the edge-set comparison and then index a list
        with pytest.raises(InvalidGraph, match="not a spanning tree of the graph"):
            sp.spanning_tree_probability(graph(cycle_graph(4)), edges)

    @pytest.mark.parametrize("root", [1.0, 2.5, True], ids=["float", "fraction", "bool"])
    def test_root_that_is_no_whole_number_rejected(self, root):
        with pytest.raises(InvalidGraph, match="out of range"):
            sp.spanning_tree_probability(graph(cycle_graph(4)), [(0, 1), (1, 2), (2, 3)], root)

    def test_numpy_integer_tree_and_root(self):
        g = graph(cycle_graph(4))
        tree = [(np.int64(0), np.int64(1)), (1, 2), (2, 3)]
        assert sp.spanning_tree_probability(g, tree, root=np.int64(1)) == pytest.approx(0.25)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("root", [0, 5])
    def test_every_tree_of_a_random_graph_is_uniform(self, seed, root):
        # the graphs behind verify's matrix-tree-count check, from two roots
        g = graph(random_connected_graph(6, 5, seed=seed))
        trees = sp.enumerate_spanning_trees(g)
        count = sp.tree_count_det(g)
        for t in trees:
            p = sp.spanning_tree_probability(g, t, root=root)
            assert abs(p * count - 1.0) <= 1e-10
            # the one peel equals a fresh inverse per peeled site
            assert p == pytest.approx(wilson_branch_product(g, t, root), rel=1e-12, abs=0)

    def test_one_vertex_graph_has_its_tree(self):
        # the replay has no branch, so the one tree has the empty product
        g = sp.SimpleGraph(("a",), ())
        assert sp.enumerate_spanning_trees(g) == [frozenset()]
        assert sp.spanning_tree_probability(g, frozenset()) == 1.0

    def test_replay_gates_once_and_factors_once(self, monkeypatch):
        # three branches of the path tree share one peel of the non-root sites
        calls = {"spectral_radius_abs": 0, "_lu_factor": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            mx, "spectral_radius_abs", counted("spectral_radius_abs", mx.spectral_radius_abs)
        )
        monkeypatch.setattr(mx, "_lu_factor", counted("_lu_factor", mx._lu_factor))
        p = sp.spanning_tree_probability(graph(complete_graph(4)), [(0, 1), (1, 2), (2, 3)], 0)
        assert calls == {"spectral_radius_abs": 1, "_lu_factor": 1}
        assert p == pytest.approx(1 / 16, rel=1e-12)
        # verify's tree checks replay all 19 trees of K3 and K4 on one
        # sampler per graph: one gate and one factor each, and five factors
        # for tree_count_det's cofactors
        calls.update(spectral_radius_abs=0, _lu_factor=0)
        reports = list(checks._spanning_tree_checks(checks.RunConfig()))
        assert [r.outcome for r in reports] == ["pass", "pass"]
        assert calls == {"spectral_radius_abs": 2, "_lu_factor": 7}

    def test_sampler_replays_every_tree_from_one_inverse(self, monkeypatch):
        g = graph(complete_graph(4))
        sampler = sp.WilsonSampler(g, root=2)
        factored = []
        factor = mx._lu_factor
        monkeypatch.setattr(mx, "_lu_factor", lambda arr: factored.append(arr) or factor(arr))
        # drawing trees builds no matrix; the first replay builds the one
        sampler.sample(substream(7010))
        sampler.batch(substream(7011), 5)
        assert factored == []
        trees = sp.enumerate_spanning_trees(g)
        probs = [sampler.probability(t) for t in trees]
        assert len(factored) == 1
        assert probs == [sp.spanning_tree_probability(g, t, root=2) for t in trees]
        np.testing.assert_allclose(probs, 1 / 16, rtol=1e-12)

    def test_disconnected_graph_has_no_tree_to_replay(self):
        # the wrapper refuses the tree, as before the sampler held the replay
        g = graph({"vertices": ["a", "b", "c", "d"], "edges": [[0, 1], [2, 3]]})
        with pytest.raises(InvalidGraph, match="not a spanning tree of the graph"):
            sp.spanning_tree_probability(g, [(0, 1), (2, 3), (1, 2)])
        with pytest.raises(Disconnected):
            sp.WilsonSampler(g)


class TestWilson:
    def test_samples_are_spanning_trees(self):
        g = graph(random_connected_graph(7, 4, seed=9))
        trees = None
        rng = substream(7001)
        for _ in range(50):
            t = sp.wilson_sample(g, rng)
            assert len(t) == g.n - 1
            assert sp._spans(g.n, sorted(t))

    def test_every_tree_appears(self):
        g = graph(complete_graph(3))
        rng = substream(7002)
        seen = {sp.wilson_sample(g, rng) for _ in range(200)}
        assert seen == set(sp.enumerate_spanning_trees(g))

    def test_roughly_uniform_small_sample(self):
        # a crude screen; the acceptance suite runs the real chi-square
        g = graph(cycle_graph(4))
        rng = substream(7003)
        counts: dict = {}
        n = 4000
        for _ in range(n):
            t = sp.wilson_sample(g, rng, root=2)
            counts[t] = counts.get(t, 0) + 1
        assert len(counts) == 4
        for c in counts.values():
            assert abs(c - n / 4) < 5 * np.sqrt(n * 0.25 * 0.75)

    def test_disconnected_raises(self):
        split = graph({"vertices": ["a", "b", "c", "d"], "edges": [[0, 1], [2, 3]]})
        with pytest.raises(Disconnected):
            sp.wilson_sample(split, substream(1))

    @pytest.mark.parametrize("leaves", [1, 5])
    def test_draws_one_uniform_per_step(self, leaves):
        # rooted at the hub, each leaf's walk is exactly one step
        star = graph(
            {
                "vertices": [f"v{i}" for i in range(leaves + 1)],
                "edges": [[0, j] for j in range(1, leaves + 1)],
            }
        )
        rng = substream(61)
        sp.wilson_sample(star, rng)
        assert rng.random() == substream(61).random(leaves + 1)[leaves]

    def test_step_backstop(self, monkeypatch):
        # rooted at the hub, a 5-leaf star takes exactly 5 walk steps
        star = graph(
            {"vertices": [f"v{i}" for i in range(6)], "edges": [[0, j] for j in range(1, 6)]}
        )
        monkeypatch.setattr(sp, "_MAX_WILSON_STEPS", 5)
        assert len(sp.wilson_sample(star, substream(62))) == 5
        monkeypatch.setattr(sp, "_MAX_WILSON_STEPS", 4)
        with pytest.raises(NumericalFailure):
            sp.wilson_sample(star, substream(62))

    @pytest.mark.parametrize(
        "doc, root",
        [
            (complete_graph(4), 0),
            (cycle_graph(9), 4),
            (random_connected_graph(8, 6, seed=12), 3),
        ],
    )
    def test_prepared_sampler_matches_wrapper(self, doc, root):
        g = graph(doc)
        sampler = sp.WilsonSampler(g, root=root)
        a, b = substream(63), substream(63)
        for _ in range(200):
            assert sampler.sample(a) == sp.wilson_sample(g, b, root=root)
        assert a.random() == b.random()  # both streams at the same position

    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.one_of(
            st.tuples(st.just("random"), st.integers(1, 14), st.integers(0, 30)),
            st.tuples(st.just("cycle"), st.integers(3, 120), st.just(0)),
            st.tuples(st.just("path"), st.integers(1, 30), st.just(0)),
        ),
        seed=st.integers(0, 2**20),
        root_pick=st.integers(0, 2**20),
        index=st.integers(0, 2**40),
    )
    def test_matches_loop_erased_walks(self, shape, seed, root_pick, index):
        kind, n, extra = shape
        if kind == "random":
            doc = random_connected_graph(n, extra, seed)
        else:
            doc = cycle_graph(n) if kind == "cycle" else path_graph(n)
        g = graph(doc)
        root = root_pick % g.n
        sampler = sp.WilsonSampler(g, root=root)
        a, b = substream(seed, index), substream(seed, index)
        for _ in range(5):  # one shared stream across trees
            assert sampler.sample(a) == reference_wilson(g, b, root)
        assert a.random() == b.random()  # same stream position after

    def test_prepared_sampler_checks_at_build(self):
        split = graph({"vertices": ["a", "b", "c", "d"], "edges": [[0, 1], [2, 3]]})
        with pytest.raises(Disconnected):
            sp.WilsonSampler(split)
        for root in (-1, 4):
            with pytest.raises(InvalidGraph):
                sp.WilsonSampler(graph(complete_graph(4)), root=root)

    @pytest.mark.parametrize("root", [1.0, True], ids=["float", "bool"])
    def test_root_that_is_no_whole_number_rejected_at_build(self, root):
        # a float root would build and then fail inside sample's walks
        with pytest.raises(InvalidGraph, match="out of range"):
            sp.WilsonSampler(graph(complete_graph(4)), root=root)

    def test_deterministic_given_stream(self):
        g = graph(complete_graph(4))
        t1 = [sp.wilson_sample(g, substream(55, k)) for k in range(10)]
        t2 = [sp.wilson_sample(g, substream(55, k)) for k in range(10)]
        assert t1 == t2


def torus_graph(side: int) -> dict:
    """The side x side torus, each vertex joined to its four grid neighbors."""
    at = {(i, j): i * side + j for i in range(side) for j in range(side)}
    edges = {
        tuple(sorted((at[i, j], at[(i + di) % side, (j + dj) % side])))
        for (i, j) in at
        for di, dj in ((0, 1), (1, 0))
    }
    return {"vertices": [f"v{k}" for k in range(side * side)], "edges": sorted(edges)}


class CountingStream:
    """A generator's ``random`` that records the size of every draw."""

    def __init__(self, rng):
        self._rng = rng
        self.blocks: list[int] = []

    def random(self, size=None):
        self.blocks.append(size)
        return self._rng.random(size)


def succ_tree(row, root) -> sp.Tree:
    """The tree a successor row points out, as (low, high) edges."""
    return frozenset((min(x, int(s)), max(x, int(s))) for x, s in enumerate(row) if x != root)


class TestWilsonTrees:
    @pytest.mark.parametrize(
        "doc, root, count",
        [
            (complete_graph(3), 0, 3000),
            (complete_graph(4), 1, 1500),
            (torus_graph(6), 0, 60),
            (random_connected_graph(10, 8, seed=64), 7, 400),
        ],
        ids=["k3", "k4", "torus-6x6", "random-10"],
    )
    def test_batch_of_one_is_sample(self, doc, root, count):
        sampler = sp.WilsonSampler(graph(doc), root=root)
        a, b = substream(64, 5), substream(64, 5)
        for _ in range(count):
            (row,) = sampler.batch(a, 1)
            assert row[root] == root
            assert succ_tree(row, root) == sampler.sample(b)
        assert a.random() == b.random()  # both streams at the same position

    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.one_of(
            st.tuples(st.just("random"), st.integers(1, 12), st.integers(0, 20)),
            st.tuples(st.just("cycle"), st.integers(3, 40), st.just(0)),
            st.tuples(st.just("path"), st.integers(1, 20), st.just(0)),
        ),
        seed=st.integers(0, 2**20),
        root_pick=st.integers(0, 2**20),
        count=st.integers(0, 30),
    )
    def test_matches_the_plain_replay(self, shape, seed, root_pick, count):
        kind, n, extra = shape
        if kind == "random":
            doc = random_connected_graph(n, extra, seed)
        else:
            doc = cycle_graph(n) if kind == "cycle" else path_graph(n)
        g = graph(doc)
        root = root_pick % g.n
        a, b = substream(seed, 3), substream(seed, 3)
        succ = sp.WilsonSampler(g, root=root).batch(a, count)
        assert succ.shape == (count, g.n) and succ.dtype == np.int64
        assert succ.tolist() == wilson_batch(g.neighbors(), root, b, count)
        assert a.random() == b.random()  # same stream position after

    def test_no_trees(self):
        sampler = sp.WilsonSampler(graph(complete_graph(4)))
        bulk = CountingStream(substream(67))
        assert sampler.batch(bulk, 0).shape == (0, 4)
        assert bulk.blocks == []
        with pytest.raises(ValueError, match="count"):
            sampler.batch(bulk, -1)

    def test_step_backstop(self, monkeypatch):
        # rooted at the hub, a 5-leaf star takes exactly 5 walk steps per tree
        star = graph(
            {"vertices": [f"v{i}" for i in range(6)], "edges": [[0, j] for j in range(1, 6)]}
        )
        sampler = sp.WilsonSampler(star)
        monkeypatch.setattr(sp, "_MAX_WILSON_STEPS", 5)
        assert (sampler.batch(substream(62), 3) == 0).all()
        monkeypatch.setattr(sp, "_MAX_WILSON_STEPS", 4)
        with pytest.raises(NumericalFailure):
            sampler.batch(substream(62), 3)
