"""Chronological loop erasure and loop-erased walk measures.

A boundary problem splits a weighted state space into interior sites, where
the walk moves, and boundary sites, where it stops.  For a self-avoiding
path eta from an interior start to a boundary site, the loop-erased measure
assigns the total weight of all stopped walks whose chronological erasure
is eta.  That total is computed two ways: a closed formula multiplying the
bare path weight by nested Green's diagonals of the interior matrix, and a
budgeted brute-force sweep over all walks up to a length cap, which carries
a certified bound on the mass of the walks it never saw.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np

from .errors import InvalidPath, NotAcceptable
from .matrices import (
    AcceptabilityCertificate,
    WeightMatrix,
    abs_resolvent_tail,
    acceptability,
    restrict,
)
from .loops import exp_meeting_mass_greens

__all__ = [
    "loop_erase",
    "path_weight",
    "BoundaryProblem",
    "BruteForceLerw",
    "lerw_weight_formula",
    "lerw_weights_bruteforce",
    "self_avoiding_paths",
]


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


def path_weight(q: WeightMatrix, sites: Sequence[str]) -> complex:
    """Product of edge weights along consecutive steps of an open path."""
    if len(sites) < 2:
        raise InvalidPath("a path needs at least one step")
    idx = q.space.indices(sites)
    w = 1.0 + 0.0j
    for a, b in zip(idx, idx[1:]):
        w *= q.entries[a, b]
    return complex(w)


@dataclass(frozen=True)
class BoundaryProblem:
    """Weights on interior + boundary sites; walks stop on the boundary.

    Only the interior block of the weight matrix must be acceptable: the
    rows at boundary sites never get used, so e.g. a stochastic matrix with
    absorbing boundary is fine even though its full spectral radius is 1.
    """

    weights: WeightMatrix
    interior: tuple[str, ...]
    boundary: tuple[str, ...]
    interior_weights: WeightMatrix = field(init=False)
    interior_certificate: AcceptabilityCertificate = field(init=False)

    def __post_init__(self) -> None:
        labels = self.weights.space.labels
        if set(self.interior) & set(self.boundary):
            raise InvalidPath("interior and boundary must be disjoint")
        if set(self.interior) | set(self.boundary) != set(labels):
            raise InvalidPath("interior + boundary must cover all sites")
        if not self.interior or not self.boundary:
            raise InvalidPath("need at least one interior and one boundary site")
        sub = restrict(self.weights, self.interior)
        cert = acceptability(sub)
        if not cert.acceptable:
            raise NotAcceptable(
                f"interior block has rho(|Q|) = {cert.spectral_radius_abs:.6g}"
            )
        object.__setattr__(self, "interior_weights", sub)
        object.__setattr__(self, "interior_certificate", cert)

    def split_path(self, eta: Sequence[str]) -> tuple[list[str], str]:
        """Validate a self-avoiding interior-to-boundary path; split it."""
        if len(eta) < 2:
            raise InvalidPath("path must reach the boundary in >= 1 step")
        if len(set(eta)) != len(eta):
            raise InvalidPath("path must be self-avoiding")
        *inner, last = eta
        interior = set(self.interior)
        for site in inner:
            if site not in interior:
                self.weights.space.index(site)
                raise InvalidPath(f"site {site!r} is not interior")
        if last not in set(self.boundary):
            self.weights.space.index(last)
            raise InvalidPath(f"endpoint {last!r} is not a boundary site")
        return list(inner), last


def lerw_weight_formula(problem: BoundaryProblem, eta: Sequence[str]) -> complex:
    """Closed form: bare path weight times nested interior Green's diagonals.

    The Green's factor exponentiates the mass of interior loops meeting the
    interior sites of eta, which is exactly the weight restored by undoing
    the erasure.
    """
    inner, _ = problem.split_path(eta)
    bare = path_weight(problem.weights, eta)
    return bare * exp_meeting_mass_greens(problem.interior_weights, inner)


@dataclass(frozen=True)
class BruteForceLerw:
    """Accumulated walk weight by erased path, from one start site.

    ``tail_bound`` dominates the total absolute weight of all stopped walks
    from the start longer than ``max_steps``, so each per-path weight is
    within that bound of its true value.
    """

    start: str
    max_steps: int
    weights: dict[tuple[str, ...], complex]
    tail_bound: float


def lerw_weights_bruteforce(
    problem: BoundaryProblem, start: str, max_steps: int
) -> BruteForceLerw:
    """Sweep all stopped walks of <= max_steps steps, keyed by erased path.

    The tail bound is the exact geometric remainder sum_{m > L} |Q_A|^{m-1} r
    evaluated at the start, where r(z) totals |Q(z, b)| over boundary b.
    """
    if start not in problem.interior:
        raise InvalidPath(f"start {start!r} must be an interior site")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    space = problem.weights.space
    ent = problem.weights.entries
    int_idx = space.indices(problem.interior)
    bnd_idx = space.indices(problem.boundary)
    start_idx = space.index(start)

    # exact tail: sum_{m > L} (M^{m-1} r)[start] = (M^L (I - M)^{-1} r)[start]
    m_abs = np.abs(problem.interior_weights.entries)
    r = np.array(
        [sum(abs(ent[z, b]) for b in bnd_idx) for z in int_idx]
    )
    tail = float(abs_resolvent_tail(m_abs, max_steps, r)[int_idx.index(start_idx)])

    acc: dict[tuple[int, ...], complex] = defaultdict(complex)
    kept = [start_idx]
    position = {start_idx: 0}
    steps_to_boundary = [
        [(b, ent[z, b]) for b in bnd_idx if ent[z, b] != 0] for z in range(len(ent))
    ]
    steps_to_interior = [
        [(y, ent[z, y]) for y in int_idx if ent[z, y] != 0] for z in range(len(ent))
    ]

    def explore(z: int, used: int, weight: complex) -> None:
        for b, w in steps_to_boundary[z]:
            acc[tuple(kept) + (b,)] += weight * w
        if used + 1 > max_steps - 1:
            return
        for y, w in steps_to_interior[z]:
            if y in position:
                cut = position[y] + 1
                removed = kept[cut:]
                del kept[cut:]
                for site in removed:
                    del position[site]
                explore(y, used + 1, weight * w)
                for site in removed:
                    position[site] = len(kept)
                    kept.append(site)
            else:
                position[y] = len(kept)
                kept.append(y)
                explore(y, used + 1, weight * w)
                del position[kept.pop()]

    explore(start_idx, 0, 1.0 + 0.0j)
    labels = space.labels
    weights = {
        tuple(labels[i] for i in key): complex(val) for key, val in acc.items()
    }
    return BruteForceLerw(
        start=start, max_steps=max_steps, weights=weights, tail_bound=tail
    )


def self_avoiding_paths(problem: BoundaryProblem, start: str) -> list[tuple[str, ...]]:
    """Every self-avoiding interior path from start capped by a boundary site.

    Purely combinatorial: no support filtering, so paths of weight zero are
    listed too.
    """
    if start not in problem.interior:
        raise InvalidPath(f"start {start!r} must be an interior site")
    out: list[tuple[str, ...]] = []

    def grow(prefix: list[str]) -> None:
        for b in problem.boundary:
            out.append(tuple(prefix) + (b,))
        for y in problem.interior:
            if y not in prefix:
                prefix.append(y)
                grow(prefix)
                prefix.pop()

    grow([start])
    return out
