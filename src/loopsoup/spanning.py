"""Spanning trees of simple graphs: counting, enumeration, Wilson sampling.

The random walk here is the simple one (uniform over neighbors).  Wilson's
algorithm grows a tree from a root by running loop-erased walks from the
remaining vertices; the resulting spanning tree is uniform over all spanning
trees of the graph, whatever the root and the visit order.  The matrix-tree
count (a cofactor of the degree-minus-adjacency Laplacian) and literal
enumeration over edge subsets give two independent values for the number of
trees, and the loop-erased walk formula recovers each tree's probability a
third way.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import Disconnected, InvalidGraph, NumericalFailure, TooLarge
from .lerw import BoundaryProblem, lerw_weight_formula, loop_erase
from .matrices import WeightMatrix

__all__ = [
    "SimpleGraph",
    "Tree",
    "tree_count_det",
    "enumerate_spanning_trees",
    "srw_weights",
    "spanning_tree_probability",
    "wilson_sample",
]

#: A spanning tree as a frozenset of (low, high) vertex-index pairs.
Tree = frozenset

# literal tree enumeration refuses graphs with more vertices than this
_MAX_ENUM_VERTICES = 8


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph with labeled vertices.

    Edges are stored as (low, high) index pairs; self-loops and duplicate
    edges are rejected.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = len(self.vertices)
        if n == 0:
            raise InvalidGraph("graph needs at least one vertex")
        if len(set(self.vertices)) != n:
            raise InvalidGraph("vertex labels must be distinct")
        seen: set[tuple[int, int]] = set()
        normalized = []
        for e in self.edges:
            try:
                i, j = e
            except (TypeError, ValueError):
                raise InvalidGraph(f"edge {e!r} is not a pair") from None
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidGraph(f"edge {e!r} has an out-of-range endpoint")
            if i == j:
                raise InvalidGraph(f"self-loop at vertex {i}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise InvalidGraph(f"duplicate edge {key}")
            seen.add(key)
            normalized.append(key)
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return [sorted(a) for a in adj]

    def degree_laplacian(self) -> np.ndarray:
        """Degree matrix minus adjacency matrix."""
        lap = np.zeros((self.n, self.n))
        for i, j in self.edges:
            lap[i, i] += 1
            lap[j, j] += 1
            lap[i, j] -= 1
            lap[j, i] -= 1
        return lap

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        adj = self.neighbors()
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == self.n

    def to_json_dict(self) -> dict:
        return {"vertices": list(self.vertices), "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SimpleGraph":
        try:
            vertices = tuple(data["vertices"])
            edges = tuple(tuple(e) for e in data["edges"])
        except (KeyError, TypeError) as exc:
            raise InvalidGraph(f"malformed graph document: {exc}") from exc
        return cls(vertices, edges)

    @classmethod
    def from_json_file(cls, path) -> "SimpleGraph":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def tree_count_det(graph: SimpleGraph) -> int:
    """Number of spanning trees as a cofactor of the degree Laplacian.

    The value must land within 1e-6 of an integer or the count is refused.
    """
    if graph.n == 1:
        return 1
    lap = graph.degree_laplacian()
    minor = lap[1:, 1:]
    value = float(np.linalg.det(minor))
    nearest = round(value)
    if abs(value - nearest) > 1e-6 * max(1.0, abs(value)):
        raise NumericalFailure(
            f"tree-count determinant {value} is not close to an integer"
        )
    return int(nearest)


def _spans(n: int, edges: Sequence[tuple[int, int]]) -> bool:
    # union-find over exactly n-1 edges: spanning iff no cycle is formed
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            return False
        parent[ri] = rj
    return True


def enumerate_spanning_trees(graph: SimpleGraph) -> list[Tree]:
    """All spanning trees by brute force over (n-1)-edge subsets."""
    if graph.n > _MAX_ENUM_VERTICES:
        raise TooLarge(
            f"literal tree enumeration is capped at {_MAX_ENUM_VERTICES} vertices"
        )
    if graph.n == 1:
        return [frozenset()]
    out = []
    for subset in itertools.combinations(graph.edges, graph.n - 1):
        if _spans(graph.n, subset):
            out.append(frozenset(subset))
    return out


def srw_weights(graph: SimpleGraph) -> WeightMatrix:
    """Transition weights of the simple random walk, 1/degree per neighbor."""
    adj = graph.neighbors()
    if any(len(a) == 0 for a in adj):
        raise Disconnected("isolated vertex has no outgoing steps")
    mat = np.zeros((graph.n, graph.n))
    for v, nbrs in enumerate(adj):
        for w in nbrs:
            mat[v, w] = 1.0 / len(nbrs)
    return WeightMatrix.from_entries(graph.vertices, mat)


def spanning_tree_probability(
    graph: SimpleGraph, tree: Iterable[tuple[int, int]], root: int = 0
) -> float:
    """Probability Wilson's algorithm returns this tree, from the walk formula.

    Replays the algorithm deterministically: for each vertex in index order,
    the branch it contributes is the unique tree path to the already-grown
    part, and its chance is the loop-erased walk weight of that branch in the
    boundary problem whose boundary is the grown part.  The product over
    branches is the tree's probability, and it comes out as
    1 / (number of spanning trees) whatever the tree: the sampler is uniform.
    """
    edge_set = {(min(i, j), max(i, j)) for i, j in tree}
    if len(edge_set) != graph.n - 1 or not _spans(graph.n, sorted(edge_set)):
        raise InvalidGraph("edge set is not a spanning tree of the graph")
    tree_adj: list[list[int]] = [[] for _ in range(graph.n)]
    for i, j in edge_set:
        tree_adj[i].append(j)
        tree_adj[j].append(i)

    weights = srw_weights(graph)
    labels = graph.vertices
    grown = {root}
    prob = 1.0
    for v in range(graph.n):
        if v in grown:
            continue
        # unique tree path from v to the grown component
        path = _tree_path_to(tree_adj, v, grown)
        interior = [labels[u] for u in range(graph.n) if u not in grown]
        boundary = [labels[u] for u in sorted(grown)]
        problem = BoundaryProblem(weights, tuple(interior), tuple(boundary))
        branch = tuple(labels[u] for u in path)
        w = lerw_weight_formula(problem, branch)
        if abs(w.imag) > 1e-12:
            raise NumericalFailure("tree branch probability came out non-real")
        prob *= w.real
        grown.update(path)
    return prob


def _tree_path_to(tree_adj: list[list[int]], start: int, targets: set[int]) -> list[int]:
    # BFS in the tree from start until hitting the target component
    prev = {start: None}
    queue = [start]
    for v in queue:
        if v in targets:
            path = []
            node: int | None = v
            while node is not None:
                path.append(node)
                node = prev[node]
            return path[::-1]
        for w in tree_adj[v]:
            if w not in prev:
                prev[w] = v
                queue.append(w)
    raise InvalidGraph("tree does not connect to the root component")


def wilson_sample(
    graph: SimpleGraph,
    rng: np.random.Generator,
    root: int = 0,
    max_total_steps: int = 10**8,
) -> Tree:
    """One uniform spanning tree via loop-erased random walks.

    Vertices are attached in index order; each runs a simple random walk
    until it hits the grown tree, and the erased walk becomes its branch.
    ``max_total_steps`` is a backstop against runaway walks; the BFS
    connectivity check makes hitting it effectively impossible.

    Each walk step consumes exactly one uniform, ``rng.random()``, and the
    call draws nothing else from ``rng``.  A tree drawn from a fresh
    substream therefore depends only on that stream, and a generator shared
    across calls advances by the steps actually walked.
    """
    if not graph.is_connected():
        raise Disconnected("Wilson sampling needs a connected graph")
    if not (0 <= root < graph.n):
        raise InvalidGraph(f"root {root} out of range")
    adj = graph.neighbors()
    degrees = [len(a) for a in adj]
    in_tree = [False] * graph.n
    in_tree[root] = True
    edges: list[tuple[int, int]] = []
    steps = 0
    for v in range(graph.n):
        if in_tree[v]:
            continue
        walk = [v]
        node = v
        while not in_tree[node]:
            steps += 1
            if steps > max_total_steps:
                raise NumericalFailure("Wilson walk exceeded the step backstop")
            node = adj[node][int(rng.random() * degrees[node])]
            walk.append(node)
        branch = loop_erase(walk)
        for a, b in zip(branch, branch[1:]):
            in_tree[a] = True
            edges.append((min(a, b), max(a, b)))
    return frozenset(edges)
