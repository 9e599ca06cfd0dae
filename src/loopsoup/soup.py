"""Poissonian loop soups, occupation fields, and their Laplace transforms.

A soup of intensity t throws down loops independently with rate t times the
unrooted loop measure.  For nonnegative weights this is an honest point
process and is sampled exactly here: the loop count is Poisson with rate
t * (total loop mass), each loop's length is drawn from per-length masses
tr(Q^n)/n with a certified series tail, the root from the diagonal of Q^n,
and the body as a Markov bridge back to the root.

For complex weights the "law" q^lambda(k) = e^{-lambda} lambda^k / k! is a
complex measure on the nonnegative integers with variation norm
exp(|lambda| - Re lambda); sampling is refused, but all transform identities
still hold as algebra and are checked that way.

Occupation fields: the discrete field counts loop visits per site; the
continuous field replaces each visit by an independent Exp(1) weight, i.e.
a Gamma(count) variable per site, optionally adding a Gamma(t) "trivial"
part per site.  Closed Laplace transforms come from determinant ratios.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BranchError,
    InvalidShape,
    NotPositive,
    NumericalFailure,
    NumericallySingular,
    TooLarge,
)
from .loops import (
    RootedLoop,
    enumerate_rooted_loops,
    local_times,
    loop_measure,
    mass_tail,
    perturbed_loop_measure,
)
from .matrices import (
    WeightMatrix,
    det_laplacian,
    lu_det,
    perturb,
    require_acceptable,
)
from .rng import substream

__all__ = [
    "complex_poisson_weights",
    "complex_poisson_variation",
    "LoopSoup",
    "SoupSampler",
    "discrete_occupation",
    "continuous_occupation",
    "sample_occupation_fields",
    "TransformEstimate",
    "empirical_transform",
    "nu_transform_closed",
    "trivial_transform_closed",
    "rho_transform_closed",
    "variation_bound_alpha",
    "LoopSumCheck",
    "reversal_symmetrization_check",
    "occupation_transform_loop_check",
]

# past this many terms the complex Poisson weights are refused
_POISSON_MAX_TERMS = 100_000

# the branch of a transform power is resolved on at most 2**this grid steps
_MAX_REFINEMENT = 12


# --- complex-rate Poisson weights ------------------------------------------


def complex_poisson_weights(lam: complex, kmax: int | None = None) -> np.ndarray:
    """Weights e^{-lam} lam^k / k! for k = 0..kmax.

    In exact arithmetic they sum to 1 for any complex rate.  In floating
    point the sum is 1 only to about eps * e^{|lam| - Re lam}, the rounding
    of the largest weights: lam = 400j sums to about 7e156.  When ``kmax``
    is omitted it grows until the omitted variation mass is below 1e-12.

    Raises NumericalFailure when e^{-lam} is zero, subnormal (too few digits
    left: lam = 744 summed to 1.29) or not finite, or a weight is not
    finite, and TooLarge when more than 100 000 terms would be needed.
    """
    lam = complex(lam)
    a = abs(lam)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        head = np.exp(-lam)
    if not np.finfo(np.float64).tiny <= abs(head) < math.inf:
        raise NumericalFailure(f"e^(-lam) is not representable for lam = {lam}")
    if kmax is None:
        # once k >= 2|lam| each term at most halves, so the remainder past k
        # is below twice the next term
        term = math.exp(-lam.real)
        k = 0
        while k < 2 * a or 2 * term * a / (k + 1) > 1e-12:
            k += 1
            term *= a / k
            if k >= _POISSON_MAX_TERMS:
                raise TooLarge(
                    f"complex Poisson weights at lam = {lam} need more than "
                    f"{_POISSON_MAX_TERMS} terms"
                )
        kmax = k
    out = np.empty(kmax + 1, dtype=np.complex128)
    out[0] = head
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        for k in range(1, kmax + 1):
            out[k] = out[k - 1] * lam / k
    if not np.all(np.isfinite(out)):
        raise NumericalFailure(f"complex Poisson weights overflow at lam = {lam}")
    return out


def complex_poisson_variation(lam: complex) -> float:
    """Total variation of the complex Poisson weights, exp(|lam| - Re lam)."""
    lam = complex(lam)
    return math.exp(abs(lam) - lam.real)


# --- exact soup sampling (nonnegative weights) ------------------------------


@dataclass(frozen=True)
class LoopSoup:
    """One realization: the loops present, with the intensity that drew them."""

    intensity: float
    loops: tuple[RootedLoop, ...]


class SoupSampler:
    """Exact sampler bound to one nonnegative acceptable weight matrix.

    Tables (powers of Q, cumulative length weights, per-length root laws)
    are grown on demand and shared across samples.  The length law's series
    is extended until the drawn uniform is covered; a certified envelope on
    the remaining mass, n rho^(L+1) / ((L+1)(1-rho)), clamps the rare draw
    that lands inside floating-point slack at the far tail.
    """

    def __init__(self, q: WeightMatrix, intensity: float) -> None:
        if not q.positive:
            raise NotPositive("soup sampling needs entrywise nonnegative weights")
        if intensity <= 0:
            raise ValueError("intensity must be positive")
        self.rho = require_acceptable(q)
        self.intensity = float(intensity)
        # total rooted loop mass, -log det(I - Q) on the principal branch
        self.total_mass = float((-np.log(det_laplacian(q))).real)
        self.entries = q.entries.real.copy()
        self.n_sites = q.n
        # powers[k] = Q^k; powers grow as longer loops get drawn
        self._powers: list[np.ndarray] = [np.eye(self.n_sites), self.entries]
        self._length_cum: list[float] = [
            float(np.trace(self.entries)) / self.total_mass
        ]
        self._root_cum: list[np.ndarray] = [
            np.cumsum(np.diag(self.entries)) / max(np.trace(self.entries), 1e-300)
        ]

    def _extend_tables(self) -> None:
        nxt = self._powers[-1] @ self.entries
        self._powers.append(nxt)
        n = len(self._powers) - 1
        diag = np.diag(nxt)
        trace = float(diag.sum())
        self._length_cum.append(self._length_cum[-1] + trace / (n * self.total_mass))
        self._root_cum.append(np.cumsum(diag) / max(trace, 1e-300))

    def _tail_after(self, length: int) -> float:
        return mass_tail(self.n_sites, self.rho, length) / self.total_mass

    def _draw_length(self, u: float) -> int:
        while u > self._length_cum[-1]:
            if self._tail_after(len(self._length_cum)) < 1e-17:
                return len(self._length_cum)  # u sits in fp slack; clamp
            self._extend_tables()
        return bisect.bisect_left(self._length_cum, u) + 1

    def sample_loop(self, rng: np.random.Generator) -> RootedLoop:
        n = self._draw_length(float(rng.random()))
        while len(self._powers) <= n:
            self._extend_tables()
        root = int(np.searchsorted(self._root_cum[n - 1], rng.random(), side="left"))
        root = min(root, self.n_sites - 1)
        sites = [root]
        current = root
        for j in range(1, n):
            back = self._powers[n - j][:, root]
            probs = self.entries[current] * back
            probs_sum = probs.sum()
            u = rng.random() * probs_sum
            nxt = int(np.searchsorted(np.cumsum(probs), u, side="left"))
            nxt = min(nxt, self.n_sites - 1)
            sites.append(nxt)
            current = nxt
        return RootedLoop(tuple(sites))

    def sample(self, rng: np.random.Generator) -> LoopSoup:
        count = int(rng.poisson(self.intensity * self.total_mass))
        loops = tuple(self.sample_loop(rng) for _ in range(count))
        return LoopSoup(intensity=self.intensity, loops=loops)


def discrete_occupation(soup: LoopSoup, n_sites: int) -> np.ndarray:
    """Total visit counts per site over all loops in the soup."""
    total = np.zeros(n_sites, dtype=np.int64)
    for loop in soup.loops:
        total += local_times(loop, n_sites)
    return total


def continuous_occupation(
    counts: np.ndarray, trivial_shape: float, rng: np.random.Generator
) -> np.ndarray:
    """Gamma(count + trivial_shape) per site, independent across sites.

    Each loop visit carries an Exp(1) weight; ``trivial_shape`` adds the
    per-site loops of zero length (0 for the bare field, t for the field
    with trivial loops included).
    """
    if trivial_shape < 0:
        raise InvalidShape("trivial part needs a nonnegative shape")
    shapes = np.asarray(counts, dtype=np.float64) + trivial_shape
    if np.any(shapes < 0):
        raise InvalidShape("negative visit count")
    return rng.gamma(shapes)


def sample_occupation_fields(
    q: WeightMatrix,
    intensity: float,
    n_samples: int,
    seed: int,
    *,
    trivial: bool = False,
    start_index: int = 0,
) -> np.ndarray:
    """n_samples continuous occupation fields, one substream per sample.

    Row i is drawn from substream(seed, start_index + i), so any slice of
    samples can be reproduced independently of the rest.
    """
    sampler = SoupSampler(q, intensity)
    shape_add = intensity if trivial else 0.0
    out = np.empty((n_samples, q.n))
    for i in range(n_samples):
        rng = substream(seed, start_index + i)
        soup = sampler.sample(rng)
        counts = discrete_occupation(soup, q.n)
        out[i] = continuous_occupation(counts, shape_add, rng)
    return out


# --- transforms --------------------------------------------------------------


@dataclass(frozen=True)
class TransformEstimate:
    """Monte Carlo estimate of E[exp(-<f, field>)] with its standard error."""

    value: complex
    stderr: float
    n_samples: int


def empirical_transform(fields: np.ndarray, f: Sequence[complex]) -> TransformEstimate:
    fields = np.asarray(fields)
    vec = np.asarray(f, dtype=np.complex128)
    values = np.exp(-(fields @ vec))
    mean = complex(values.mean())
    n = len(values)
    stderr = float(np.sqrt((np.abs(values - mean) ** 2).mean() / n))
    return TransformEstimate(value=mean, stderr=stderr, n_samples=n)


def _is_integer(t: complex) -> bool:
    return abs(t.imag) <= 1e-12 and abs(t.real - round(t.real)) <= 1e-12


def nu_transform_closed(q: WeightMatrix, f: Sequence[complex], t: complex) -> complex:
    """E[exp(-<f, field>)] for the bare occupation field, in closed form.

    Equals [det(I - Q) / det(I - Q_f)]^t with Q_f the row rescaling of Q by
    1/(1+f).  Integer t needs no branch choice.  Otherwise the power uses
    the continuous branch along the segment s*f, s in [0, 1], anchored at 1
    when f = 0; if that path crosses a zero or pole of the ratio, or winds
    too fast to resolve, BranchError is raised.
    """
    vec = np.asarray(f, dtype=np.complex128)
    base = det_laplacian(q)
    ratio_full = base / lu_det(np.eye(q.n) - perturb(q, vec).entries)
    if _is_integer(t):
        return complex(ratio_full ** int(round(complex(t).real)))

    def ratio_at(lam: float) -> complex:
        return base / lu_det(np.eye(q.n) - perturb(q, lam * vec).entries)

    steps = 8
    while steps <= 2**_MAX_REFINEMENT:
        grid = np.linspace(0.0, 1.0, steps + 1)
        try:
            values = [ratio_at(lam) for lam in grid]
        except (NumericallySingular, ZeroDivisionError) as exc:
            raise BranchError(
                f"transform path crosses a singular point: {exc}"
            ) from exc
        jumps = np.angle(np.asarray(values[1:]) / np.asarray(values[:-1]))
        if np.max(np.abs(jumps)) < math.pi / 4:
            total_arg = float(np.sum(jumps))
            log_ratio = math.log(abs(ratio_full)) + 1j * total_arg
            return complex(np.exp(t * log_ratio))
        steps *= 2
    raise BranchError("could not resolve a continuous branch for the power")


def trivial_transform_closed(f: Sequence[complex], t: complex) -> complex:
    """Transform of the pure trivial field: prod over sites of (1+f)^(-t)."""
    vec = np.asarray(f, dtype=np.complex128)
    if np.any(vec == -1.0):
        raise ZeroDivisionError("1 + f vanishes at some site")
    return complex(np.prod((1.0 + vec) ** (-t)))


def rho_transform_closed(q: WeightMatrix, f: Sequence[complex], t: complex) -> complex:
    """Transform of the field with trivial loops included."""
    return nu_transform_closed(q, f, t) * trivial_transform_closed(f, t)


# --- complex-weight soup bounds and the reversal identity --------------------


def variation_bound_alpha(
    q: WeightMatrix, intensity: float, max_len: int
) -> tuple[float, float]:
    """exp(t * sum over loops of (|m| - Re m)), truncated, with a bound.

    Returns (alpha, slack) where the untruncated alpha lies within a factor
    exp(slack) of the returned value.  For nonnegative weights alpha is
    exactly one.  This is the total variation of the complex soup "law"
    relative to the probability soup of the absolute weights.
    """
    rho = require_acceptable(q)
    abs_part = np.abs(q.entries)
    power_abs = np.eye(q.n)
    power = np.eye(q.n, dtype=np.complex128)
    exponent = 0.0
    for n in range(1, max_len + 1):
        power_abs = power_abs @ abs_part
        power = power @ q.entries
        exponent += (float(np.trace(power_abs)) - float(np.trace(power).real)) / n
    tail = 2.0 * mass_tail(q.n, rho, max_len)
    return math.exp(intensity * exponent), intensity * tail


@dataclass(frozen=True)
class LoopSumCheck:
    """Both sides of an occupation-transform identity at one test function.

    ``closed`` is the transform in closed form; ``summed`` exponentiates a
    truncated literal loop sum; ``slack`` bounds |closed - summed| caused by
    the truncation.
    """

    closed: complex
    summed: complex
    slack: float


def _loop_sum_check(
    q: WeightMatrix,
    f: Sequence[complex],
    intensity: float,
    max_len: int,
    reversal: bool,
) -> LoopSumCheck:
    # closed transform at t (2t with reversal) against exp(t * truncated sum
    # of m_f - m), the loop taken with its reversal when ``reversal`` is set
    rho = require_acceptable(q)
    vec = np.asarray(f, dtype=np.complex128)
    closed = nu_transform_closed(q, vec, 2 * intensity if reversal else intensity)
    exponent = 0.0 + 0.0j
    for loop in enumerate_rooted_loops(q, max_len):
        term_f = perturbed_loop_measure(q, vec, loop)
        term = loop_measure(q, loop)
        if reversal:
            rev = loop.reversed()
            term_f = term_f + perturbed_loop_measure(q, vec, rev)
            term = term + loop_measure(q, rev)
        exponent += term_f - term
    summed = complex(np.exp(intensity * exponent))
    # the loops past max_len of m and of m_f weigh at most mass_tail each;
    # the reversed copies double that, and the plain check keeps the factor
    rho_f = require_acceptable(perturb(q, vec))
    tail = 2.0 * mass_tail(q.n, rho, max_len) + 2.0 * mass_tail(q.n, rho_f, max_len)
    slack = abs(summed) * math.expm1(abs(intensity) * tail)
    return LoopSumCheck(closed=closed, summed=summed, slack=slack)


def reversal_symmetrization_check(
    q: WeightMatrix,
    f: Sequence[complex],
    intensity: float,
    max_len: int,
) -> LoopSumCheck:
    """Check that doubling the intensity equals adding reversed loops.

    The soup of intensity 2t for m has the same occupation law as the soup
    of intensity t for the symmetrized measure m + m o reversal, because
    reversal preserves lengths and visit counts while det(I - Q) is blind
    to transposition.  Compared at the Laplace transform of one f.
    """
    return _loop_sum_check(q, f, intensity, max_len, reversal=True)


def occupation_transform_loop_check(
    q: WeightMatrix,
    f: Sequence[complex],
    intensity: float,
    max_len: int,
) -> LoopSumCheck:
    """Check the closed occupation transform against the loop measure.

    The soup of intensity t has E[exp(-<f, field>)] equal to the exponential
    of t times the sum over rooted loops of m_f(loop) - m(loop), m_f being
    the measure with each visit to x discounted by 1/(1 + f(x)).  That sum
    is taken literally over loops up to ``max_len``.
    """
    return _loop_sum_check(q, f, intensity, max_len, reversal=False)
