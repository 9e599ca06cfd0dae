"""Rooted and unrooted loops and their weighted measures.

A rooted loop on a finite state space is a cyclic site sequence with a
distinguished starting point; we store the visited sites (x_0, ..., x_{n-1})
as integer indices, the closing step x_{n-1} -> x_0 being implicit.  Its
measure is m(loop) = Q(loop) / n where Q(loop) multiplies the edge weights
along the cycle.  An unrooted loop is the rotation class; its measure adds
m over the d distinct rooted representatives, d being the minimal cyclic
period of the site sequence.

Loop masses (sums of m over families of loops) are computed three ways that
must agree: literal enumeration (budgeted), per-length matrix traces with a
certified tail bound, and closed determinant or Green's-diagonal formulas
for the exponentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import InvalidPath, TooLarge
from .matrices import (
    WeightMatrix,
    det_laplacian,
    greens_exact,
    require_acceptable,
    restrict,
)

__all__ = [
    "RootedLoop",
    "UnrootedLoop",
    "TruncatedMass",
    "loop_weight",
    "loop_measure",
    "unrooted_loop_measure",
    "perturbed_loop_measure",
    "local_times",
    "minimal_period",
    "canonicalize",
    "enumerate_rooted_loops",
    "loop_mass_per_length",
    "mass_tail",
    "loop_mass_truncated",
    "meeting_mass_truncated",
    "loop_mass_enumerated",
    "exp_truncated",
    "exp_loop_mass_det",
    "exp_meeting_mass_greens",
]

DEFAULT_BUDGET = 10**7


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

    def rotated(self, k: int) -> "RootedLoop":
        n = len(self.sites)
        k %= n
        return RootedLoop(self.sites[k:] + self.sites[:k])

    def reversed(self) -> "RootedLoop":
        """Traverse the cycle backwards keeping the same root."""
        return RootedLoop(self.sites[:1] + self.sites[1:][::-1])


@dataclass(frozen=True)
class UnrootedLoop:
    """Rotation class of a rooted loop.

    ``sites`` is the lexicographically least rotation and ``rotations`` the
    number of distinct rooted representatives (the minimal cyclic period).
    """

    sites: tuple[int, ...]
    rotations: int

    @property
    def length(self) -> int:
        return len(self.sites)


def minimal_period(sites: Sequence[int]) -> int:
    """Smallest p with sites[i] == sites[(i+p) % n] for all i; divides n."""
    n = len(sites)
    for p in range(1, n + 1):
        if n % p == 0 and all(sites[i] == sites[(i + p) % n] for i in range(n)):
            return p
    raise AssertionError("unreachable: n is always a period")


def canonicalize(loop: RootedLoop) -> UnrootedLoop:
    sites = loop.sites
    n = len(sites)
    best = min(sites[k:] + sites[:k] for k in range(n))
    return UnrootedLoop(sites=best, rotations=minimal_period(sites))


def loop_weight(q: WeightMatrix, loop: RootedLoop) -> complex:
    """Product of edge weights around the cycle, closing step included."""
    ent = q.entries
    s = loop.sites
    w = 1.0 + 0.0j
    for i in range(len(s)):
        w *= ent[s[i], s[(i + 1) % len(s)]]
    return complex(w)


def loop_measure(q: WeightMatrix, loop: RootedLoop) -> complex:
    return loop_weight(q, loop) / loop.length


def unrooted_loop_measure(q: WeightMatrix, uloop: UnrootedLoop) -> complex:
    """Sum of the rooted measure over the class: d * Q(loop) / n."""
    return uloop.rotations * loop_weight(q, RootedLoop(uloop.sites)) / uloop.length


def perturbed_loop_measure(
    q: WeightMatrix, f: Sequence[complex], loop: RootedLoop
) -> complex:
    """m(loop) divided by prod(1 + f(x)) over the visited sites.

    Equals the plain loop measure of the row-rescaled matrix Q / (1 + f).
    """
    vals = np.asarray(f, dtype=np.complex128)
    factor = 1.0 + 0.0j
    for x in loop.sites:
        factor /= 1.0 + vals[x]
    return loop_measure(q, loop) * factor


def local_times(loop: RootedLoop, n_sites: int) -> np.ndarray:
    """Visit counts per site, one count per step of the loop."""
    return np.bincount(np.asarray(loop.sites), minlength=n_sites)


def enumerate_rooted_loops(
    q: WeightMatrix,
    max_len: int,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[RootedLoop]:
    """All rooted loops of length <= max_len with nonzero steps.

    Emitted length-major and lexicographically within each length.  Raises
    TooLarge once more than ``budget`` loops would be produced.
    """
    support = q.support()
    n_sites = q.n
    count = 0
    for n in range(1, max_len + 1):
        stack: list[tuple[int, ...]] = [(x,) for x in reversed(range(n_sites))]
        while stack:
            prefix = stack.pop()
            if len(prefix) == n:
                if support[prefix[-1], prefix[0]]:
                    count += 1
                    if count > budget:
                        raise TooLarge(
                            f"loop enumeration exceeded budget of {budget}"
                        )
                    yield RootedLoop(prefix)
                continue
            last = prefix[-1]
            for y in reversed(range(n_sites)):
                if support[last, y]:
                    stack.append(prefix + (y,))


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
    length: int


def mass_tail(n_sites: int, rho: float, max_len: int) -> float:
    """Bound on the mass of rooted loops longer than ``max_len``.

    |tr(Q^n)| <= n_sites * rho^n with rho = rho(|Q|), so the discarded
    sum_{n > L} tr(Q^n) / n is at most n_sites rho^(L+1) / ((L+1)(1-rho)).
    """
    if rho <= 0.0:
        return 0.0
    return n_sites * rho ** (max_len + 1) / ((max_len + 1) * (1.0 - rho))


def loop_mass_truncated(q: WeightMatrix, max_len: int) -> TruncatedMass:
    """Mass of all rooted loops up to max_len, with tail bound."""
    rho = require_acceptable(q)
    value = complex(loop_mass_per_length(q, max_len).sum())
    return TruncatedMass(value, mass_tail(q.n, rho, max_len), max_len)


def meeting_mass_truncated(
    q: WeightMatrix, sites: Sequence[str], max_len: int
) -> TruncatedMass:
    """Mass of rooted loops visiting at least one of ``sites``.

    Computed per length as [tr(Q^n) - tr(Q_rest^n)] / n where Q_rest drops
    the rows and columns of ``sites``; the subtracted term is exactly the
    mass of loops avoiding them all.
    """
    rho = require_acceptable(q)
    hit = set(sites)
    if not hit:
        return TruncatedMass(0.0 + 0.0j, 0.0, max_len)
    for label in hit:
        q.space.index(label)
    rest = [lab for lab in q.space.labels if lab not in hit]
    total = loop_mass_per_length(q, max_len)
    if rest:
        total = total - loop_mass_per_length(restrict(q, rest), max_len)
    return TruncatedMass(complex(total.sum()), mass_tail(q.n, rho, max_len), max_len)


def loop_mass_enumerated(
    q: WeightMatrix,
    max_len: int,
    meeting: Sequence[str] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> complex:
    """Literal sum of m(loop) over enumerated loops; oracle for the traces.

    With ``meeting`` given, only loops visiting at least one listed site
    contribute.
    """
    targets = frozenset(q.space.indices(meeting)) if meeting is not None else None
    total = 0.0 + 0.0j
    for loop in enumerate_rooted_loops(q, max_len, budget=budget):
        if targets is not None and targets.isdisjoint(loop.sites):
            continue
        total += loop_measure(q, loop)
    return total


def exp_truncated(mass: TruncatedMass) -> tuple[complex, float]:
    """exp of a truncated mass and a bound on |exp(true) - exp(partial)|.

    |e^S - e^{S_L}| <= |e^{S_L}| (e^tau - 1) when |S - S_L| <= tau.
    """
    value = np.exp(mass.value)
    return complex(value), abs(value) * math.expm1(mass.tail_bound)


def exp_loop_mass_det(q: WeightMatrix) -> complex:
    """exp of the total loop mass in closed form, 1/det(I - Q)."""
    require_acceptable(q)
    return 1.0 / det_laplacian(q)


def exp_meeting_mass_greens(q: WeightMatrix, sites: Sequence[str]) -> complex:
    """exp of the meeting mass as a nested Green's-diagonal product.

    Peel the listed sites one at a time: multiply G(x, x) computed on the
    not-yet-peeled state space.  Independent of the peeling order; with all
    sites listed this is 1/det(I - Q).
    """
    require_acceptable(q)
    if len(set(sites)) != len(sites):
        raise InvalidPath("peeling order must not repeat sites")
    remaining = list(q.space.labels)
    product = 1.0 + 0.0j
    for label in sites:
        q.space.index(label)
        product *= greens_exact(restrict(q, remaining)).diagonal(label)
        remaining.remove(label)
    return complex(product)
