"""Literal reference implementations that the tests compare the library
against.  Each is written the plain way, shares no code with the library,
and is fast enough only for the small inputs the tests give it."""

import itertools
from bisect import bisect_left
from typing import Hashable, Sequence

import numpy as np

from loopsoup.errors import InvalidPath


def loop_blocks(support, max_len):
    """Every rooted loop of length 1..max_len whose steps, closing step
    included, are all supported: one (k, n) int array per length n with
    k >= 1, one loop's sites per row.  The supported paths of n sites are
    the ``itertools.product`` of those of n - 1 sites with every site,
    kept where the last step is supported; a loop is a path that steps
    back to its first site."""
    support = np.asarray(support, dtype=bool)
    paths = [()]
    for n in range(1, max_len + 1):
        paths = [
            path + (y,)
            for path, y in itertools.product(paths, range(len(support)))
            if not path or support[path[-1], y]
        ]
        rows = [path for path in paths if support[path[-1], path[0]]]
        if rows:
            yield np.array(rows, dtype=np.int64)


def block_weights(entries, block, reverse=False):
    """Q(loop) for each row of a loop block, closing step included; with
    ``reverse`` the weight of each loop walked backwards."""
    nxt = np.roll(block, -1, axis=1)
    if reverse:
        return entries[nxt, block].prod(axis=1)
    return entries[block, nxt].prod(axis=1)


def loop_erase(path: Sequence[Hashable]) -> tuple:
    """Chronological loop erasure: drop cycles in order of completion.

    Scanning left to right, a revisit truncates the kept path back to the
    first occurrence of the revisited site.  The result is self-avoiding.
    """
    if len(path) == 0:
        raise InvalidPath("cannot erase an empty path")
    kept: list = []
    position: dict = {}
    for site in path:
        if site in position:
            for removed in kept[position[site] + 1 :]:
                del position[removed]
            del kept[position[site] + 1 :]
        else:
            position[site] = len(kept)
            kept.append(site)
    return tuple(kept)


def neumann_partial(entries, length):
    """The partial Neumann sum I + Q + ... + Q^length."""
    total = power = np.eye(len(entries), dtype=np.complex128)
    for _ in range(length):
        power = power @ entries
        total = total + power
    return total


def wilson_branch_product(graph, tree, root):
    """Wilson's chance of drawing ``tree`` from ``root``, branch by branch.

    Each vertex in index order walks its tree path into the grown part.
    Each site x of that branch in turn contributes its simple-walk step
    1/deg(x) and G(x, x), read off a fresh inverse of I - Q on the sites
    still outside the tree and not yet peeled; then x is peeled.
    """
    n = len(graph.vertices)
    q = np.zeros((n, n))
    for i, j in graph.edges:
        q[i, j] = q[j, i] = 1.0
    q /= q.sum(axis=1, keepdims=True)
    tree_nbrs: dict = {v: [] for v in range(n)}
    for i, j in tree:
        tree_nbrs[i].append(j)
        tree_nbrs[j].append(i)
    parent = {root: root}
    stack = [root]
    while stack:
        u = stack.pop()
        for w in tree_nbrs[u]:
            if w not in parent:
                parent[w] = u
                stack.append(w)
    outside = [v for v in range(n) if v != root]
    prob = 1.0
    for v in range(n):
        x = v
        while x in outside:
            g = np.linalg.inv(np.eye(len(outside)) - q[np.ix_(outside, outside)])
            k = outside.index(x)
            prob *= q[x, parent[x]] * g[k, k]
            outside.remove(x)
            x = parent[x]
    return prob


def batch_occupations(sampler, rng, count, shape):
    """``SoupSampler.occupations`` replayed one scalar draw at a time, in
    its documented order: each row's Poisson count, then every loop's
    length, every loop's root, the bridge steps from the longest length
    down with the longest loops first, and a gamma for each positive
    shape, row-major.  Each pick is a ``bisect`` on one row of the
    sampler's tables, which grow through the sampler's own methods."""
    n, last = sampler.n_sites, sampler.n_sites - 1
    rate = sampler.intensity * sampler.total_mass
    rows = [row for row in range(count) for _ in range(rng.poisson(rate))]
    lengths = []
    for _ in rows:
        u = rng.random()
        cum = sampler._length_cum
        while u > cum[-1] and sampler._tail_after(len(cum)) >= 1e-17:
            sampler._extend_tables()
        lengths.append(min(bisect_left(cum, u) + 1, len(cum)))
    roots = [min(bisect_left(sampler._root_cum[k - 1], rng.random()), last) for k in lengths]
    counts = [[0] * n for _ in range(count)]
    for row, root in zip(rows, roots):
        counts[row][root] += 1
    current = list(roots)
    longest_first = sorted(range(len(rows)), key=lambda j: -lengths[j])
    for m in range(max(lengths, default=1) - 1, 0, -1):
        for j in longest_first:
            if lengths[j] > m:
                probs = sampler.entries[current[j]] * sampler._powers[m][:, roots[j]]
                goal = rng.random() * probs.sum()
                current[j] = min(bisect_left(np.cumsum(probs).tolist(), goal), last)
                counts[rows[j]][current[j]] += 1
    values = [[rng.gamma(c + shape) if c + shape > 0 else 0.0 for c in row] for row in counts]
    return (
        np.array(counts, dtype=np.int64).reshape(count, n),
        np.array(values, dtype=np.float64).reshape(count, n),
    )


def wilson_batch(adj, root, rng, count):
    """``WilsonSampler.batch`` replayed in plain Python, in its documented
    order: each round one ``rng.random()`` per tree still walking, in row
    order, and a step to ``adj[node][int(u * deg)]``; a walk that hits its
    tree retraces its last exits from its start, and the tree then starts
    its lowest vertex outside the tree.  Returns the rows as lists."""
    n = len(adj)
    succ = [[root] * n for _ in range(count)]
    in_tree = [[v == root for v in range(n)] for _ in range(count)]
    first = 1 if root == 0 else 0
    walk = {row: (first, first) for row in range(count)} if n > 1 else {}  # (start, node)
    live = sorted(walk)
    while live:
        uniforms = [rng.random() for _ in live]
        still = []
        for row, u in zip(live, uniforms):
            start, node = walk[row]
            nxt = adj[node][int(u * len(adj[node]))]
            succ[row][node] = nxt
            if not in_tree[row][nxt]:
                walk[row] = (start, nxt)
                still.append(row)
                continue
            x = start
            while not in_tree[row][x]:
                in_tree[row][x] = True
                x = succ[row][x]
            outside = [v for v in range(n) if not in_tree[row][v]]
            if outside:
                walk[row] = (outside[0], outside[0])
                still.append(row)
        live = still
    return succ
