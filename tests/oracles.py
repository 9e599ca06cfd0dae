"""Literal reference implementations that the tests compare the library
against.  Each is written the plain way, shares no code with the library,
and is fast enough only for the small inputs the tests give it."""

import itertools
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
