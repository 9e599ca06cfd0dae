"""Spanning trees of simple graphs: counting, enumeration, Wilson sampling.

The random walk here is the simple one (uniform over neighbors).  Wilson's
algorithm grows a tree from a root by running loop-erased walks from the
remaining vertices; the resulting spanning tree is uniform over all spanning
trees of the graph, whatever the root and the visit order.  ``WilsonSampler``
walks one tree per ``sample`` call, for records that must regenerate from
their own stream, or many trees in lockstep per ``batch`` call, for counts
over many draws.  The matrix-tree
count (a cofactor of the degree-minus-adjacency Laplacian) and literal
enumeration over edge subsets give two independent values for the number of
trees, and the loop-erased walk formula, one nested Green's-diagonal peel
per tree, recovers each tree's probability a third way.
"""

from __future__ import annotations

import itertools
import json
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import Disconnected, InvalidGraph, NumericalFailure, TooLarge
from .loops import exp_meeting_mass_greens
from .matrices import WeightMatrix, lu_det, restrict

__all__ = [
    "SimpleGraph",
    "Tree",
    "tree_count_det",
    "enumerate_spanning_trees",
    "srw_weights",
    "spanning_tree_probability",
    "WilsonSampler",
    "wilson_sample",
]

#: A spanning tree as a frozenset of (low, high) vertex-index pairs.
Tree = frozenset

# literal tree enumeration refuses graphs with more vertices than this
_MAX_ENUM_VERTICES = 8

# a Wilson sample walking more steps than this in total is refused
_MAX_WILSON_STEPS = 10**8


def _is_vertex(v, n: int) -> bool:
    """Whether v is a whole vertex number in 0..n-1; a bool is not one."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and 0 <= v < n


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
            if not (_is_vertex(i, n) and _is_vertex(j, n)):
                raise InvalidGraph(f"edge {e!r} has an endpoint that is no vertex in 0..{n - 1}")
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
            vertices = data["vertices"]
            edges = tuple(tuple(e) for e in data["edges"])
        except (KeyError, TypeError) as exc:
            raise InvalidGraph(f"malformed graph document: {exc}") from exc
        if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
            raise InvalidGraph("vertices must be a list of vertex names")
        return cls(tuple(vertices), edges)

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
    if not graph.is_connected():
        return 0  # the minor is singular, and lu_det refuses a zero pivot
    minor = graph.degree_laplacian()[1:, 1:]
    value = float(lu_det(minor).real)
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

    Replays the algorithm deterministically: each vertex in index order
    walks its tree path into the already-grown part.  That branch's erased
    walk weight is its steps times the Green's diagonals of its sites, each
    over the sites not yet in the tree: peeling those sites off the inverse
    leaves the next branch's.  So the branches multiply to Q(T), the steps
    along the tree toward the root, times one peel of the non-root sites in
    the order they join the tree.  It comes out as 1 / (number of spanning
    trees) whatever the tree: the sampler is uniform.
    """
    if not _is_vertex(root, graph.n):
        raise InvalidGraph(f"root {root} out of range")
    try:
        edge_set = {(min(i, j), max(i, j)) for i, j in tree}
        vertices = all(_is_vertex(v, graph.n) for e in edge_set for v in e)
    except (TypeError, ValueError):  # an edge that is not a pair of numbers
        edge_set, vertices = set(), False
    spans = vertices and edge_set <= set(graph.edges) and _spans(graph.n, sorted(edge_set))
    if len(edge_set) != graph.n - 1 or not spans:
        raise InvalidGraph("edge set is not a spanning tree of the graph")
    if graph.n == 1:
        return 1.0  # no branch: the empty product
    # toward[u]: u's neighbor on its tree path to the root, which enters the grown part
    adj = graph.neighbors()
    toward = {root: root}
    queue = [root]
    for u in queue:
        for w in adj[u]:
            if w not in toward and (min(u, w), max(u, w)) in edge_set:
                toward[w] = u
                queue.append(w)

    # the tree's edges oriented toward the root, in the order their sites join it
    joined: dict[int, int] = {}
    for u in range(graph.n):
        while u != root and u not in joined:  # u's branch, up into the grown part
            joined[u] = toward[u]
            u = toward[u]

    weights = srw_weights(graph)
    steps = np.prod([weights.entries[u, w] for u, w in joined.items()])
    nonroot = restrict(weights, graph.vertices[:root] + graph.vertices[root + 1 :])
    prob = steps * exp_meeting_mass_greens(nonroot, [graph.vertices[u] for u in joined])
    if abs(prob.imag) > 1e-12:
        raise NumericalFailure("tree probability came out non-real")
    return float(prob.real)


class WilsonSampler:
    """Wilson's algorithm prepared for one graph and root.

    The connectivity and root checks, the neighbor lists and the degrees
    are computed once here, so ``sample`` and ``batch`` do only the walks.
    Vertices are attached in index order; each runs a simple random walk
    until it hits the grown tree, and the erased walk becomes its branch.
    A cap of 10^8 total steps per tree is a backstop against runaway walks;
    the BFS connectivity check makes hitting it effectively impossible.

    The walk keeps only the last exit from each vertex, ``succ[node]``;
    retracing those pointers from the start gives the walk's chronological
    loop erasure (Wilson 1996), so the walk itself is never stored.  A step
    from ``node`` on uniform u goes to ``adj[node][int(u * deg)]``.

    ``sample(rng)`` walks one tree and consumes exactly one uniform per
    step, nothing else.  It draws them in ``rng.random(k)`` blocks that are
    never overdrawn: when a block runs dry at a vertex outside the tree, k
    is 1 plus the number of vertices outside the tree that this walk has not
    yet visited.  The current vertex needs its next step, and each of those
    vertices still needs its own last exit, so every uniform drawn is used.
    A tree drawn from a fresh substream therefore depends only on that
    stream, and a generator shared across calls advances by the steps
    actually walked.

    ``batch(rng, count)`` walks ``count`` trees in lockstep and returns
    their ``succ`` arrays, one row per tree, each pointing toward the root
    with ``succ[root] = root``.  Each round draws one ``rng.random(a)`` for
    the a trees still walking, in row order, and steps each of them once.
    A walk that hits its tree is retraced from its start, which draws
    nothing, and the tree then starts its next vertex outside the tree, in
    index order; a tree with no vertex left stops walking.  So
    ``batch(rng, 1)`` walks the uniforms of ``sample(rng)`` in its order,
    but a larger batch interleaves its trees' uniforms.
    """

    def __init__(self, graph: SimpleGraph, root: int = 0) -> None:
        if not graph.is_connected():
            raise Disconnected("Wilson sampling needs a connected graph")
        if not _is_vertex(root, graph.n):
            raise InvalidGraph(f"root {root} out of range")
        self.n = graph.n
        self.root = root
        self._adj = graph.neighbors()
        self._degrees = [len(a) for a in self._adj]

    def sample(self, rng: np.random.Generator) -> Tree:
        adj, degrees, random = self._adj, self._degrees, rng.random
        n, max_steps = self.n, _MAX_WILSON_STEPS
        in_tree = [False] * n
        in_tree[self.root] = True
        succ = [0] * n
        walk_of = [-1] * n  # the start of the last walk that visited a vertex
        outside = n - 1  # vertices not yet in the tree
        edges: list[tuple[int, int]] = []
        uniforms: list[float] = []
        used = steps = 0
        for v in range(n):
            if in_tree[v]:
                continue
            walk_of[v] = v
            visited = 1  # vertices outside the tree this walk has visited
            node = v
            while not in_tree[node]:
                steps += 1
                if steps > max_steps:
                    raise NumericalFailure("Wilson walk exceeded the step backstop")
                if used == len(uniforms):
                    uniforms = random(1 + outside - visited).tolist()
                    used = 0
                nxt = adj[node][int(uniforms[used] * degrees[node])]
                used += 1
                succ[node] = nxt
                if walk_of[nxt] != v and not in_tree[nxt]:
                    walk_of[nxt] = v
                    visited += 1
                node = nxt
            node = v
            while not in_tree[node]:
                in_tree[node] = True
                outside -= 1
                nxt = succ[node]
                edges.append((node, nxt) if node < nxt else (nxt, node))
                node = nxt
        return frozenset(edges)

    def batch(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        n, root = self.n, self.root
        nbrs = np.zeros((n, max(self._degrees)), dtype=np.int64)
        for v, a in enumerate(self._adj):
            nbrs[v, : len(a)] = a
        degrees = np.array(self._degrees, dtype=np.float64)
        succ = np.full((count, n), root, dtype=np.int64)
        in_tree = np.zeros((count, n), dtype=bool)
        in_tree[:, root] = True
        first = 1 if root == 0 else 0
        live = np.arange(count if first < n else 0)  # rows still walking
        start = np.full(live.size, first)  # their walks' starts
        node = start.copy()  # and where those walks stand
        steps = 0
        while live.size:
            steps += 1
            if steps > _MAX_WILSON_STEPS:
                raise NumericalFailure("Wilson walk exceeded the step backstop")
            nxt = nbrs[node, (rng.random(live.size) * degrees[node]).astype(np.int64)]
            succ[live, node] = nxt
            node = nxt
            hit = np.flatnonzero(in_tree[live, nxt])
            if not hit.size:
                continue
            rows, at = live[hit], start[hit]
            while rows.size:  # retrace each hit walk's erasure into its tree
                in_tree[rows, at] = True
                at = succ[rows, at]
                open_ = ~in_tree[rows, at]
                rows, at = rows[open_], at[open_]
            # every vertex before a start is in its tree, so the first
            # vertex outside it is the next start
            nxt_start = in_tree[live[hit]].argmin(axis=1)
            start[hit] = node[hit] = nxt_start
            walking = np.ones(live.size, dtype=bool)
            walking[hit] = ~in_tree[live[hit], nxt_start]
            live, start, node = live[walking], start[walking], node[walking]
        return succ


def wilson_sample(
    graph: SimpleGraph,
    rng: np.random.Generator,
    root: int = 0,
) -> Tree:
    """One uniform spanning tree via loop-erased random walks; see
    ``WilsonSampler``, which this prepares afresh on every call."""
    return WilsonSampler(graph, root).sample(rng)
