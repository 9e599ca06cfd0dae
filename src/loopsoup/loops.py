"""Rooted loops, the walk that enumerates them, and their weighted measures.

A rooted loop on a finite state space is a cyclic site sequence with a
distinguished starting point; we store the visited sites (x_0, ..., x_{n-1})
as integer indices, the closing step x_{n-1} -> x_0 being implicit.  Its
measure is m(loop) = Q(loop) / n where Q(loop) multiplies the edge weights
along the cycle.  Rotating the root changes neither Q(loop) nor n, so a
rotation class (an unrooted loop) is reached once, from its lowest site,
and weighed by its number of rooted loops.

Loop masses (sums of m over families of loops) are computed three ways that
must agree: literal enumeration (budgeted), per-length matrix traces with a
certified tail bound, and closed determinant or Green's-diagonal formulas
for the exponentials.  The literal sums walk shared path prefixes; the
loops of the largest length are added from the paths two steps short of
them, so the walk's deepest and largest level is never built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidPath, TooLarge
from .matrices import (
    WeightMatrix,
    abs_resolvent_tail,
    greens_exact,
    require_acceptable,
    restrict,
)

__all__ = [
    "RootedLoop",
    "TruncatedMass",
    "Comparison",
    "prefix_walk",
    "loop_prefix_sums",
    "loop_mass_per_length",
    "mass_tail",
    "meeting_mass_truncated",
    "exp_truncated",
    "exp_meeting_mass_greens",
]

DEFAULT_BUDGET = 10**7

# paths per chunk of the walk: fixed so chunked sums repeat, small to spare memory
_CHUNK_PATHS = 1024


@dataclass(frozen=True)
class RootedLoop:
    """Cyclic visit sequence with a root; ``sites[i] -> sites[i+1 mod n]``."""

    sites: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.sites) == 0:
            raise InvalidPath("a loop visits at least one site")

    @property
    def length(self) -> int:
        return len(self.sites)


def prefix_walk(support, max_len, start, extend, *, deepest=None):
    """Depth-first walk over the supported paths x_0..x_d that never step
    below their root x_0, from every root.

    Yields (root, d, sites, carried) per chunk of at most 1024 paths of d
    steps, ``sites`` being their x_d and ``carried`` a tuple of arrays with
    one column per path: ``start(root)`` at d = 0, and then
    ``extend(root, carried, parent, edge, sites)`` for the paths that take
    steps ``edge`` (indices into ``np.nonzero(support)``) from columns
    ``parent``.  A path whose x_d steps back to the root closes a loop of
    d + 1 steps rooted at its lowest site; every such loop is one path.  A
    path that cannot return to the root over sites >= root within max_len
    steps in all is not extended, nor is a root with no such loop, and
    pending chunks wait on a stack, so memory stays O(max_len * n * 1024).
    Paths of ``deepest`` steps (max_len - 1 by default) are the last ones
    yielded and extended no further; the pruning still allows max_len
    steps.  Raises TooLarge before the first chunk when more than
    DEFAULT_BUDGET rooted loops (of any root) have length at most max_len.
    """
    if deepest is None:
        deepest = max_len - 1
    n_sites = len(support)
    # the clamp keeps the saturated path counts within int64
    budget = min(DEFAULT_BUDGET, 2**62 // n_sites**3)
    steps = support.astype(np.int64)
    paths, total = np.eye(n_sites, dtype=np.int64), 0
    for k in range(1, max_len + 1):
        paths = np.minimum(steps @ paths, budget + 1)
        total += int(paths.trace())
        if total > budget:
            raise TooLarge(f"loop enumeration exceeded budget of {budget}")
    last, nxt = np.nonzero(support)
    # the steps leaving site x are bounds[x]:bounds[x + 1] of (last, nxt)
    bounds = np.searchsorted(last, np.arange(n_sites + 1))
    degree = np.diff(bounds)
    # back[r, x]: fewest steps k >= 1 from x to r over the sites >= r, by a
    # breadth-first search from every root at once; max_len + 1 past max_len
    above = np.triu(np.ones((n_sites, n_sites), dtype=bool))
    back = np.full((n_sites, n_sites), max_len + 1)
    reach = (steps.T > 0) & above
    for k in range(1, max_len + 1):
        reach &= back > max_len
        if not reach.any():
            break
        back[reach] = k
        reach = (reach @ steps.T > 0) & above
    for root in np.flatnonzero(back.diagonal() <= max_len):
        steps_left = back[root, nxt]
        stack = [(0, np.array([root]), start(root))]
        while stack:
            depth, sites, carried = stack.pop()
            yield root, depth, sites, carried
            if depth == deepest:
                continue
            # every step out of every path that can still close in time
            counts = degree[sites]
            ends = np.cumsum(counts)
            parent = np.repeat(np.arange(len(sites)), counts)
            edge = np.arange(ends[-1]) + np.repeat(bounds[sites] - ends + counts, counts)
            keep = steps_left[edge] < max_len - depth
            parent, edge = parent[keep], edge[keep]
            sites = nxt[edge]
            carried = extend(root, carried, parent, edge, sites)
            for lo in reversed(range(0, len(edge), _CHUNK_PATHS)):
                chunk = slice(lo, lo + _CHUNK_PATHS)
                stack.append((depth + 1, sites[chunk], tuple(a[..., chunk] for a in carried)))


def loop_prefix_sums(
    q: WeightMatrix,
    max_len: int,
    factor: Sequence[complex],
    reverse: bool = False,
) -> np.ndarray:
    """Per-length sums of Q(loop) and of Q(loop) * prod(factor[x]) over loops.

    Returns a (2, max_len) complex array whose entry [k, n-1] is a sum over
    the rooted loops of length n with nonzero steps: row 0 of Q(loop), row 1
    of Q(loop) times the product of ``factor`` over the loop's sites.  With
    ``reverse``, rows 2 and 3 do the same for the weight of the loop walked
    backwards.

    Each rotation class is summed from its lowest site r: the prefix walk
    from r keeps to sites >= r and counts the k visits to r.  A class of n
    steps that repeats its minimal cycle p times has k/p rootings at r and
    n/p rooted loops, so a closing path weighs n/k.  A path x_0..x_d
    carries its running products, one multiply per step, and the closing
    entry Q(x_d, x_0) makes it the loop of length d + 1; loops with a
    common prefix share its products.  The walk stops at d = max_len - 2:
    the loops of max_len steps add their last two steps x_d -> x -> r there,
    summed over the free site x >= r by one product per root (x > r keeps
    k, x = r adds a visit), so the largest level is never walked.  Refuses
    more than DEFAULT_BUDGET rooted loops with TooLarge before any work.
    """
    support = q.support()
    factor = np.asarray(factor, dtype=np.complex128)
    # one row per running weight: forwards, and backwards with ``reverse``
    walks = np.array((q.entries, q.entries.T) if reverse else (q.entries,))
    step = walks[:, support]
    # a path closes into a loop only along a supported step back to its root
    close = np.where(support, walks, 0.0)
    sums = np.zeros((2 * len(walks), max_len), dtype=np.complex128)

    @functools.lru_cache(maxsize=1)
    def last_two_steps(root):
        """Per site s, the weights of s -> x -> root over x > root, plain and
        times factor[x], and of s -> root -> root."""
        back = close[:, root + 1 :, root]
        ahead = close[:, :, root + 1 :]
        return (
            (ahead @ back[:, :, None])[:, :, 0],
            (ahead @ (back * factor[root + 1 :])[:, :, None])[:, :, 0],
            close[:, :, root] * close[:, root, root, None],
        )

    def extend(root, carried, parent, edge, sites):
        weights, disc, visits = carried
        visits = visits[parent] + (sites == root)
        return weights[:, parent] * step[:, edge], disc[parent] * factor[sites], visits

    def start(root):
        return np.ones((len(walks), 1)), factor[[root]], np.ones(1)

    walk = prefix_walk(support, max_len, start, extend, deepest=max(max_len - 2, 0))
    for root, depth, sites, (weights, disc, visits) in walk:
        loops = weights * (close[:, sites, root] * ((depth + 1) / visits))
        sums[::2, depth] += loops.sum(axis=1)
        sums[1::2, depth] += loops @ disc
        if depth + 2 == max_len:
            beyond, beyond_disc, again = last_two_steps(root)
            keep, revisit = max_len / visits, max_len / (visits + 1)
            loops = weights * (beyond[:, sites] * keep + again[:, sites] * revisit)
            sums[::2, -1] += loops.sum(axis=1)
            revisit_disc = factor[root] * revisit
            loops = weights * (beyond_disc[:, sites] * keep + again[:, sites] * revisit_disc)
            sums[1::2, -1] += loops @ disc
    return sums


def loop_mass_per_length(q: WeightMatrix, max_len: int) -> np.ndarray:
    """Array whose entry n-1 is the mass of length-n rooted loops, tr(Q^n)/n."""
    out = np.empty(max_len, dtype=np.complex128)
    power = np.eye(q.n, dtype=np.complex128)
    for n in range(1, max_len + 1):
        power = power @ q.entries
        out[n - 1] = np.trace(power) / n
    return out


@dataclass(frozen=True)
class TruncatedMass:
    """Partial loop-mass sum with a certified bound on the discarded tail."""

    value: complex
    tail_bound: float


@dataclass(frozen=True)
class Comparison:
    """Both sides of one identity, with the scale and slack of their gap.

    ``error`` is |lhs - rhs| / scale - slack, infinite at scale 0.  For
    array sides |lhs - rhs| is the largest np.abs of their difference, which
    can round apart from abs of one complex number.
    """

    lhs: complex | np.ndarray
    rhs: complex | np.ndarray
    scale: float = 1.0
    slack: float = 0.0

    @property
    def error(self) -> float:
        if not self.scale:
            return math.inf
        diff = self.lhs - self.rhs
        size = np.max(np.abs(diff)) if isinstance(diff, np.ndarray) else abs(diff)
        return float(size / self.scale - self.slack)


def mass_tail(entries: np.ndarray, max_len: int) -> float:
    """Bound on the mass of rooted loops longer than ``max_len``.

    |tr(Q^n)| <= tr(M^n) for M = |Q|, so for acceptable Q the discarded sum
    sum_{n > L} tr(Q^n) / n is at most tr(M^(L+1) (I - M)^{-1}) / (L+1).
    """
    remainder = abs_resolvent_tail(np.abs(entries), max_len + 1, np.eye(len(entries)))
    return float(np.trace(remainder)) / (max_len + 1)


def meeting_mass_truncated(
    q: WeightMatrix, sites: Sequence[str], max_len: int
) -> TruncatedMass:
    """Mass of rooted loops visiting at least one of ``sites``; with every
    site listed, the total loop mass -log det(I - Q).

    Computed per length as [tr(Q^n) - tr(Q_rest^n)] / n where Q_rest drops
    the rows and columns of ``sites``; the subtracted term is exactly the
    mass of loops avoiding them all.  So is the tail: mass_tail of Q less
    that of Q_rest, as tr(|Q|^n) - tr(|Q_rest|^n) >= 0 for every n.
    """
    require_acceptable(q)
    hit = set(sites)
    if not hit:
        return TruncatedMass(0.0 + 0.0j, 0.0)
    for label in hit:
        q.space.index(label)
    total = loop_mass_per_length(q, max_len)
    tail = mass_tail(q.entries, max_len)
    if len(hit) < q.n:
        rest = restrict(q, [lab for lab in q.space.labels if lab not in hit])
        total = total - loop_mass_per_length(rest, max_len)
        tail = max(tail - mass_tail(rest.entries, max_len), 0.0)
    return TruncatedMass(complex(total.sum()), tail)


def exp_truncated(mass: TruncatedMass) -> tuple[complex, float]:
    """exp of a truncated mass and a bound on |exp(true) - exp(partial)|.

    |e^S - e^{S_L}| <= |e^{S_L}| (e^tau - 1) when |S - S_L| <= tau.  The
    bound is infinite when e^tau overflows: it then certifies nothing.
    """
    value = np.exp(mass.value)
    try:
        return complex(value), abs(value) * math.expm1(mass.tail_bound)
    except OverflowError:
        return complex(value), math.inf


def exp_meeting_mass_greens(q: WeightMatrix, sites: Sequence[str]) -> complex:
    """exp of the meeting mass as a nested Green's-diagonal product.

    Peel the listed sites one at a time: multiply G(x, x) computed on the
    not-yet-peeled state space.  Independent of the peeling order; with all
    sites listed this is 1/det(I - Q).  It starts from ``greens_exact(q)``,
    which factors q once for every call and ordering; peeling x downdates
    a copy to the inverse on the sites left,
    g <- g - g[:, x] g[x, :] / g[x, x].  For acceptable Q, |G_A(x, x)| > 1/2
    and I - Q is an H-matrix, so the downdates are safe and stable.
    """
    g = greens_exact(q)
    if len(set(sites)) != len(sites):
        raise InvalidPath("peeling order must not repeat sites")
    product = 1.0 + 0.0j
    for x in q.space.indices(sites):
        pivot = g[x, x]
        product *= pivot
        g = g - np.outer(g[:, x], g[x] / pivot)
    return complex(product)
