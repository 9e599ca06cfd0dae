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

Two draw loops read the same prepared tables.  ``SoupSampler.occupation``
and ``sample`` draw one soup at a time, so a dump record regenerates from
its own substream.  ``SoupSampler.occupations`` draws many soups as one
vectorized batch off one stream, stage by stage across all of them: each
row has the same law, but rows can no longer be drawn one at a time or
sliced out.  ``sample_occupation_fields``, and so the Monte Carlo suites,
use the batch.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BranchError,
    InvalidMatrix,
    InvalidPath,
    InvalidShape,
    NotPositive,
    NumericalFailure,
    NumericallySingular,
    TooLarge,
)
from .loops import RootedLoop, TruncatedMass, exp_truncated, loop_prefix_sums
from .loops import Comparison, mass_tail
from .matrices import (
    WeightMatrix,
    det_laplacian,
    greens_exact,
    perturb,
    require_acceptable,
)
from .rng import substream

__all__ = [
    "complex_poisson_weights",
    "complex_poisson_variation",
    "SoupSampler",
    "discrete_occupation",
    "continuous_occupation",
    "sample_occupation_fields",
    "TransformEstimate",
    "empirical_transform",
    "nu_transform_closed",
    "trivial_transform_closed",
    "rho_transform_closed",
    "reversal_symmetrization_check",
    "occupation_transform_loop_check",
]

# past this many terms the complex Poisson weights are refused
_POISSON_MAX_TERMS = 100_000

# a transform factor 1 + s z, s in [0, 1], this close to 0 has no sure branch
_BRANCH_TOL = 1e-9

# a soup sampler memoizes bridge rows until they hold this many floats
_BRIDGE_MEMO_FLOATS = 2**19


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


class SoupSampler:
    """Exact sampler bound to one nonnegative acceptable weight matrix.

    Tables (powers of Q, cumulative length weights, per-length root laws)
    are grown on demand and shared across samples.  The length law's series
    is extended until the drawn uniform is covered; the certified bound
    ``loops.mass_tail`` on the remaining mass clamps the rare draw that lands
    inside floating-point slack at the far tail.  A Q with no cycle in its
    support has no loop mass: its tables stay empty and every soup is empty.

    A bridge step from ``current`` that leaves ``m`` steps to get back to
    ``root`` picks the next site x with weight Q[current, x] (Q^m)[x, root].
    The running sums of those weights, then their total, are memoized as
    one ``array("d")`` row per ``(m, root, current)`` the first time a loop
    takes that step, so the memo holds only rows that were used.  It stops
    growing at 2^19 floats (4 MB, plus about 120 bytes per row); a row past
    that is rebuilt whenever it is used, with the same values.  Either way
    each step draws one ``rng.random()``, as the uncached walk did.

    ``occupation(rng, trivial_shape)`` draws one soup's visit counts and
    continuous field without building its loops.  It consumes the stream
    exactly as ``sample`` followed by ``discrete_occupation`` and
    ``continuous_occupation`` does: the Poisson count, each loop's bridge
    walk, then one gamma per site in site order.  A Gamma(0) draw uses no
    uniform and is 0, so a site with no visits and no trivial part gets 0
    without a call.  So both give the same values, bit for bit, and leave
    the stream at the same place.  ``occupations(rng, count, trivial_shape)``
    draws ``count`` such soups as one batch, in its own draw order.
    """

    def __init__(self, q: WeightMatrix, intensity: float) -> None:
        if not q.positive:
            raise NotPositive("soup sampling needs entrywise nonnegative weights")
        if not 0 < intensity < math.inf:
            raise ValueError(f"intensity must be positive and finite, got {intensity}")
        require_acceptable(q)
        self.intensity = float(intensity)
        # total rooted loop mass, -log det(I - Q) on the principal branch;
        # rounding may leave a loop-free Q a hair below zero
        self.total_mass = max(0.0, float((-np.log(det_laplacian(q))).real))
        self.entries = q.entries.real.copy()
        self.n_sites = q.n
        # powers[k] = Q^k; powers grow as longer loops get drawn
        self._powers: list[np.ndarray] = [np.eye(self.n_sites)]
        # entry n-1: the length law's cumulative weight and root law at length n
        self._length_cum: list[float] = []
        self._root_cum: list[list[float]] = []
        if self.total_mass > 0.0:
            self._extend_tables()
        # _bridge[root][m * n_sites + current]: one bridge step's running
        # sums, then their total
        self._bridge: list[dict[int, array]] = [{} for _ in range(self.n_sites)]
        self._bridge_rows = 0
        self._bridge_cap = max(1, _BRIDGE_MEMO_FLOATS // (self.n_sites + 1))

    def _extend_tables(self) -> None:
        nxt = self._powers[-1] @ self.entries
        self._powers.append(nxt)
        n = len(self._powers) - 1
        diag = np.diag(nxt)
        trace = float(diag.sum())
        below = self._length_cum[-1] if self._length_cum else 0.0
        self._length_cum.append(below + trace / (n * self.total_mass))
        self._root_cum.append((np.cumsum(diag) / max(trace, 1e-300)).tolist())

    def _tail_after(self, length: int) -> float:
        return mass_tail(self.entries, length) / self.total_mass

    def _draw_length(self, u: float) -> int:
        while u > self._length_cum[-1]:
            if self._tail_after(len(self._length_cum)) < 1e-17:
                return len(self._length_cum)  # u sits in fp slack; clamp
            self._extend_tables()
        return bisect_left(self._length_cum, u) + 1

    def _sites(self, rng: np.random.Generator) -> list[int]:
        # _draw_length extends the powers with the length law, so Q^(n-1) is there
        random, width = rng.random, self.n_sites
        n = self._draw_length(random())
        last = width - 1
        root = min(bisect_left(self._root_cum[n - 1], random()), last)
        sites = [root]
        current = root
        bridge = self._bridge[root]
        for m in range(n - 1, 0, -1):
            row = bridge.get(m * width + current)
            if row is None:
                probs = self.entries[current] * self._powers[m][:, root]
                row = array("d", np.cumsum(probs).tobytes())
                row.append(float(probs.sum()))
                if self._bridge_rows < self._bridge_cap:
                    bridge[m * width + current] = row
                    self._bridge_rows += 1
            current = min(bisect_left(row, random() * row[-1], 0, width), last)
            sites.append(current)
        return sites

    def sample_loop(self, rng: np.random.Generator) -> RootedLoop:
        return RootedLoop(tuple(self._sites(rng)))

    def sample(self, rng: np.random.Generator) -> tuple[RootedLoop, ...]:
        count = int(rng.poisson(self.intensity * self.total_mass))
        return tuple(self.sample_loop(rng) for _ in range(count))

    def occupation(
        self, rng: np.random.Generator, trivial_shape: float
    ) -> tuple[list[int], list[float]]:
        """One soup's visit counts and continuous field, as lists per site."""
        _require_shape(trivial_shape)
        counts = [0] * self.n_sites
        for _ in range(rng.poisson(self.intensity * self.total_mass)):
            for site in self._sites(rng):
                counts[site] += 1
        gamma = rng.gamma
        return counts, [gamma(c + trivial_shape) if c or trivial_shape else 0.0 for c in counts]

    def occupations(
        self, rng: np.random.Generator, count: int, trivial_shape: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """``count`` soups' visit counts and continuous fields, drawn as one
        batch: an int64 and a float64 array, both ``(count, n_sites)``.

        Each row has the law of ``occupation``'s draw, but the stream is
        consumed in batch order, not soup by soup:

        1. ``rng.poisson(rate, count)``: the loops of each row;
        2. one ``rng.random(k)`` for the lengths of all k loops, rows in
           order, by ``_draw_length``'s rule, far-tail clamp included;
        3. one ``rng.random(k)`` for their roots;
        4. for m from the longest length - 1 down to 1, one ``rng.random(a)``
           for the a loops with more than m steps left, longest first and
           ties in row order; each picks its next site by ``_sites``'
           running-sum rule;
        5. one ``rng.gamma`` over the positive shapes, row-major; a zero
           shape gives 0 and draws nothing.

        So the rows come from one stream together and cannot be drawn apart.
        """
        _require_shape(trivial_shape)
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        width, last = self.n_sites, self.n_sites - 1
        loops = rng.poisson(self.intensity * self.total_mass, count)
        k = int(loops.sum())
        # each loop's row offset into the flattened (count, width) counts
        owner = np.repeat(np.arange(count) * width, loops)
        visits = [np.empty(0, dtype=np.int64)]
        if k:
            u = rng.random(k)
            # the largest uniform grows the tables by the scalar rule; the
            # clamped length, if any, is the longest
            longest = self._draw_length(float(u.max()))
            lengths = np.minimum(np.searchsorted(self._length_cum, u) + 1, longest)
            # a count of the running sums below a uniform is bisect_left's pick
            root_cum = np.array(self._root_cum[:longest])[lengths - 1]
            roots = np.minimum((root_cum < rng.random(k)[:, None]).sum(axis=1), last)
            # longest first, so the loops still walking at each step lead;
            # walking[m] of them have more than m steps left
            order = np.argsort(-lengths, kind="stable")
            owner, roots = owner[order], roots[order]
            walking = np.searchsorted(-lengths[order], -np.arange(longest))
            visits.append(owner + roots)
            current = roots.copy()
            for m in range(longest - 1, 0, -1):
                a = walking[m]
                probs = self.entries[current[:a]] * self._powers[m][:, roots[:a]].T
                goal = rng.random(a) * probs.sum(axis=1)
                step = (np.cumsum(probs, axis=1) < goal[:, None]).sum(axis=1)
                current[:a] = np.minimum(step, last)
                visits.append(owner[:a] + current[:a])
        counts = np.bincount(np.concatenate(visits), minlength=count * width)
        counts = counts.reshape(count, width)
        shapes = counts + trivial_shape
        values = np.zeros(shapes.shape)
        drawn = shapes > 0
        values[drawn] = rng.gamma(shapes[drawn])
        return counts, values


def _require_shape(trivial_shape: float) -> None:
    if not 0 <= trivial_shape < math.inf:
        raise InvalidShape(f"trivial shape must be finite and >= 0, got {trivial_shape}")


def discrete_occupation(soup: Iterable[RootedLoop], n_sites: int) -> np.ndarray:
    """Total visit counts per site over all loops in the soup."""
    counts = [0] * n_sites
    for loop in soup:
        sites = loop.sites
        if min(sites) < 0 or max(sites) >= n_sites:
            raise InvalidPath(f"loop visits a site outside 0..{n_sites - 1}")
        for site in sites:
            counts[site] += 1
    return np.array(counts, dtype=np.int64)


def continuous_occupation(
    counts: np.ndarray, trivial_shape: float, rng: np.random.Generator
) -> np.ndarray:
    """Gamma(count + trivial_shape) per site, independent across sites.

    Each loop visit carries an Exp(1) weight; ``trivial_shape`` adds the
    per-site loops of zero length (0 for the bare field, t for the field
    with trivial loops included).

    Draws one scalar ``rng.gamma`` per site, in site order, zero shapes
    included: the same values as one ``rng.gamma(shapes)`` array call, bit
    for bit, without that call's fixed cost on a short array.
    """
    _require_shape(trivial_shape)
    visits = np.asarray(counts, dtype=np.float64).tolist()
    if not all(c >= 0 and c.is_integer() for c in visits):  # False at nan, inf
        if any(c < 0 for c in visits):
            raise InvalidShape("negative visit count")
        raise InvalidShape("visit counts must be finite whole numbers")
    gamma = rng.gamma
    return np.array([gamma(c + trivial_shape) for c in visits], dtype=np.float64)


def sample_occupation_fields(
    q: WeightMatrix,
    intensity: float,
    n_samples: int,
    seed: int,
    *,
    trivial: bool = False,
    start_index: int = 0,
) -> np.ndarray:
    """n_samples continuous occupation fields, drawn as one batch.

    All rows come from the one substream (seed, start_index), in the draw
    order of ``SoupSampler.occupations``.  Rows can therefore no longer be
    sliced: the first k rows of a batch of n are not a batch of k, and no
    other start index reproduces a later row.  Each row has the law of a
    soup drawn alone; ``SoupSampler.occupation`` still draws one soup per
    stream where records must regenerate from (seed, index).
    """
    if n_samples < 0:
        raise ValueError(f"n_samples must be nonnegative, got {n_samples}")
    sampler = SoupSampler(q, intensity)
    shape_add = intensity if trivial else 0.0
    return sampler.occupations(substream(seed, start_index), n_samples, shape_add)[1]


# --- transforms --------------------------------------------------------------


@dataclass(frozen=True)
class TransformEstimate:
    """Monte Carlo estimate of E[exp(-<f, field>)] with its standard error."""

    value: complex
    stderr: float


def empirical_transform(fields: np.ndarray, f: Sequence[complex]) -> TransformEstimate:
    """Sample mean of exp(-<f, field>) over the rows of ``fields``.

    The contraction is an ``einsum``, not ``fields @ f``: a product of many
    rows with a few columns would go to a BLAS gemv, whose helper threads
    wake up and then spin on the other cores well after the call returns.

    Raises ValueError unless ``fields`` is 2-D with at least one row and
    ``f`` has one value per column.
    """
    fields = np.asarray(fields)
    vec = np.asarray(f, dtype=np.complex128)
    if fields.ndim != 2:
        raise ValueError(f"fields must be 2-D, one row per sample; got {fields.ndim}-D")
    if len(fields) == 0:
        raise ValueError("fields has no rows: a transform needs at least one sample")
    if vec.shape != fields.shape[1:]:
        raise ValueError(
            f"f must be one value per column of fields ({fields.shape[1]}), "
            f"got shape {vec.shape}"
        )
    values = np.exp(-np.einsum("ij,j->i", fields, vec))
    mean = complex(values.mean())
    n = len(values)
    stderr = float(np.sqrt((np.abs(values - mean) ** 2).mean() / n))
    return TransformEstimate(value=mean, stderr=stderr)


def _is_integer(t: complex) -> bool:
    return abs(t.imag) <= 1e-12 and abs(t.real - round(t.real)) <= 1e-12


def nu_transform_closed(q: WeightMatrix, f: Sequence[complex], t: complex) -> complex:
    """E[exp(-<f, field>)] for the bare occupation field, in closed form.

    Equals [det(I - Q) / det(I - Q_f)]^t with Q_f the row rescaling of Q by
    1/(1+f), that is [prod_x (1 + f(x)) / prod_i (1 + nu_i)]^t with nu the
    eigenvalues of G diag(f), G from ``greens_exact``, which gates q.  A pole
    |1 + nu_i| < 1e-9 raises NumericallySingular.  Integer t needs no branch
    choice.  Otherwise the power uses the continuous branch along the segment
    s*f, s in [0, 1], anchored at 1 when f = 0: its log is the sum of the
    principal logs of 1 + f(x) less those of 1 + nu_i.  f is set to 0 first,
    for every t, at sites no loop visits: there the ratio does not depend on
    f, so 1 + f = 0 is no pole.  BranchError is raised when a factor's
    segment [1, 1 + z] passes within 1e-9 of 0, a zero or pole of the ratio.
    """
    vec = np.asarray(f, dtype=np.complex128)
    if vec.shape != (q.n,):
        raise InvalidMatrix("f must assign one value per site")
    # a site is on a loop when it reaches itself in 1..n steps
    reach = q.support()
    for _ in range(q.n.bit_length()):
        reach = reach | reach @ reach
    vec = np.where(reach.diagonal(), vec, 0.0)
    if np.any(vec == -1.0):
        raise ZeroDivisionError("1 + f vanishes at some site")
    nu = np.linalg.eigvals(greens_exact(q) * vec)
    if np.min(np.abs(1.0 + nu)) < _BRANCH_TOL:
        raise NumericallySingular("1 + nu vanishes: f sits on a pole of the ratio")
    if _is_integer(t):
        return complex((np.prod(1.0 + vec) / np.prod(1.0 + nu)) ** int(round(complex(t).real)))
    z = np.concatenate((vec, nu))
    # the point of each segment 1 + s z, s in [0, 1], nearest to 0
    nearest = np.clip(-z.real / (np.abs(z) ** 2 + (z == 0)), 0.0, 1.0)
    if np.min(np.abs(1.0 + nearest * z)) < _BRANCH_TOL:
        raise BranchError("transform path crosses or grazes a zero or pole of the ratio")
    log_ratio = np.log(1.0 + vec).sum() - np.log(1.0 + nu).sum()
    return complex(np.exp(t * log_ratio))


def trivial_transform_closed(f: Sequence[complex], t: complex) -> complex:
    """Transform of the pure trivial field: prod over sites of (1+f)^(-t)."""
    vec = np.asarray(f, dtype=np.complex128)
    if np.any(vec == -1.0):
        raise ZeroDivisionError("1 + f vanishes at some site")
    return complex(np.prod((1.0 + vec) ** (-t)))


def rho_transform_closed(q: WeightMatrix, f: Sequence[complex], t: complex) -> complex:
    """Transform of the field with trivial loops included."""
    return nu_transform_closed(q, f, t) * trivial_transform_closed(f, t)


# --- the literal loop sums and the reversal identity ------------------------


def _loop_sum_check(
    q: WeightMatrix,
    f: Sequence[complex],
    intensity: float,
    max_len: int,
    reversal: bool,
) -> Comparison:
    """Closed transform at t (2t with ``reversal``) against exp(t * S), with
    the slack that bounds their difference caused by the truncation.

    S is the truncated sum over rooted loops of m_f - m, each loop taken
    with its reversal when ``reversal`` is set.  ``loop_prefix_sums`` walks
    each rotation class from its lowest site and weighs it by its number of
    rooted loops, so S stays the literal rooted loop sum.
    """
    vec = np.asarray(f, dtype=np.complex128)
    closed = nu_transform_closed(q, vec, 2 * intensity if reversal else intensity)
    sums = loop_prefix_sums(q, max_len, 1.0 / (1.0 + vec), reverse=reversal)
    # discounted minus plain weights, per length, over the loop lengths
    per_length = (sums[1::2] - sums[::2]).sum(axis=0)
    exponent = np.sum(per_length / np.arange(1, max_len + 1))
    # the loops past max_len of m and of m_f weigh at most mass_tail each;
    # the reversed copies double that, and the plain check keeps the factor
    q_f = perturb(q, vec)
    require_acceptable(q_f)
    tail = 2.0 * mass_tail(q.entries, max_len) + 2.0 * mass_tail(q_f.entries, max_len)
    mass = TruncatedMass(complex(intensity * exponent), abs(intensity) * tail)
    summed, slack = exp_truncated(mass)
    return Comparison(closed, summed, slack=slack)


def reversal_symmetrization_check(
    q: WeightMatrix,
    f: Sequence[complex],
    intensity: float,
    max_len: int,
) -> Comparison:
    """Check that doubling the intensity equals adding reversed loops.

    The soup of intensity 2t for m has the same occupation law as the soup
    of intensity t for the symmetrized measure m + m o reversal, because
    reversal preserves lengths and visit counts while det(I - Q) is blind
    to transposition.  Compared at the Laplace transform of one f: the
    ``Comparison`` has the closed transform at 2t as ``lhs``, the summed
    one at t as ``rhs`` and the truncation's bound as ``slack``.
    """
    return _loop_sum_check(q, f, intensity, max_len, reversal=True)


def occupation_transform_loop_check(
    q: WeightMatrix,
    f: Sequence[complex],
    intensity: float,
    max_len: int,
) -> Comparison:
    """Check the closed occupation transform against the loop measure.

    The soup of intensity t has E[exp(-<f, field>)] equal to the exponential
    of t times the sum over rooted loops of m_f(loop) - m(loop), m_f being
    the measure with each visit to x discounted by 1/(1 + f(x)).  That sum
    is taken literally over loops up to ``max_len``: the prefix walk of
    ``loops.loop_prefix_sums`` reaches each rotation class from its lowest
    site and weighs it by its number of rooted loops, and loops sharing a
    prefix share its running products.  The ``Comparison`` has the closed
    transform as ``lhs``, the summed one as ``rhs`` and the truncation's
    bound as ``slack``.
    """
    return _loop_sum_check(q, f, intensity, max_len, reversal=False)
