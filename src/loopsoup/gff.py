"""Gaussian fields whose covariance is the Green's function, and the
occupation-field isomorphism.

For real symmetric acceptable weights the Green's function G = (I - Q)^{-1}
is positive definite, so it is the covariance of a centered Gaussian field.
Half the squared field then has the same law as the intensity-1/2 occupation
field with its trivial part included; both Laplace transforms reduce to the
same determinant ratio, which this module checks exactly and by sampling.

Complex Hermitian weights are handled by doubling: each site splits into a
real and a starred copy, and the complex 2x2 representation
[[Re, -Im], [Im, Re]] of every entry makes a real symmetric doubled matrix.
The complex field psi(x) = phi(x) + i phi(x*) built from the doubled real
field has covariance E[psi(x) conj(psi(y))] = 2 G'(x, y) and vanishing
pseudo-covariance, and the doubled loop measure pushes forward to the
symmetrized complex loop measure m' + m' o reversal.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AcceptabilityWarning,
    InvalidMatrix,
    NotPositiveDefinite,
    OutOfDomain,
)
from .loops import prefix_walk
from .matrices import (
    StateSpace,
    WeightMatrix,
    acceptability,
    det_laplacian,
    greens_exact,
    lu_det,
    require_acceptable,
)
from .soup import (
    empirical_transform,
    rho_transform_closed,
    sample_occupation_fields,
)

__all__ = [
    "GFFModel",
    "gff_sample",
    "gff_transform_closed",
    "IsomorphismIdentity",
    "isomorphism_identity_check",
    "IsomorphismSampling",
    "isomorphism_mc_check",
    "SquaredFieldMoments",
    "chi_square_moment_check",
    "double_weights",
    "ComplexGFFModel",
    "complex_gff_sample",
    "pushforward_loop_check",
    "DoubledTransformIdentity",
    "doubled_transform_identity_check",
]


@dataclass(frozen=True)
class GFFModel:
    """Centered Gaussian field with covariance G = (I - Q)^{-1}."""

    weights: WeightMatrix
    covariance: np.ndarray
    cholesky: np.ndarray

    @classmethod
    def from_weights(cls, q: WeightMatrix) -> "GFFModel":
        if not (q.real and q.symmetric):
            raise InvalidMatrix("Gaussian field needs real symmetric weights")
        require_acceptable(q)
        g = greens_exact(q).entries.real
        try:
            chol = np.linalg.cholesky(g)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite(f"Green's function is not PD: {exc}") from exc
        # column-major, so the transpose gff_sample multiplies by is
        # row-major: the other layout runs a different product kernel, and
        # the draws of a seed would change in their last bits
        chol = np.asfortranarray(chol)
        return cls(weights=q, covariance=g, cholesky=chol)

    @property
    def n(self) -> int:
        return self.weights.n


def gff_sample(
    model: GFFModel, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """n_samples field realizations, one per row."""
    z = rng.standard_normal((n_samples, model.n))
    return z @ model.cholesky.T


def gff_transform_closed(q: WeightMatrix, f) -> float:
    """E[exp(-1/2 sum f(x) field(x)^2)] = [det(I - Q + D_f) det G]^{-1/2},
    computed as sqrt(det(I - Q) / det(I - Q + D_f)).

    Defined while I - Q + D_f stays positive definite; OutOfDomain otherwise
    (the Gaussian integral diverges there).
    """
    if not (q.real and q.symmetric):
        raise InvalidMatrix("Gaussian field needs real symmetric weights")
    require_acceptable(q)
    vec = np.asarray(f, dtype=np.float64)
    if vec.shape != (q.n,):
        raise InvalidMatrix("f must assign one real value per site")
    a = np.eye(q.n) - q.entries.real + np.diag(vec)
    if np.linalg.eigvalsh(a).min() <= 1e-14:
        raise OutOfDomain("I - Q + D_f lost positive definiteness")
    return math.sqrt(det_laplacian(q).real / lu_det(a).real)


@dataclass(frozen=True)
class IsomorphismIdentity:
    """Closed forms of both sides of the squared-field identity."""

    gaussian: float
    soup: complex

    @property
    def error(self) -> float:
        return abs(self.gaussian - self.soup)


def isomorphism_identity_check(q: WeightMatrix, f) -> IsomorphismIdentity:
    """Exact check: squared-field transform vs occupation transform.

    Both sides are closed determinant expressions; they agree identically
    because det(I - Q + D_f) = prod(1 + f) det(I - Q_f).
    """
    return IsomorphismIdentity(
        gaussian=gff_transform_closed(q, f),
        soup=rho_transform_closed(q, f, 0.5),
    )


@dataclass(frozen=True)
class IsomorphismSampling:
    """Monte Carlo estimates of both sides against their shared closed value."""

    closed: float
    gaussian_value: complex
    gaussian_stderr: float
    soup_value: complex
    soup_stderr: float


def isomorphism_mc_check(
    q: WeightMatrix,
    f,
    n_samples: int,
    field_rng: np.random.Generator,
    soup_seed: int,
) -> IsomorphismSampling:
    """Sample both fields and compare E[exp(-<f, .>)] on each side.

    The Gaussian side squares and halves its field; the soup side runs at
    intensity 1/2 with the trivial part included.
    """
    model = GFFModel.from_weights(q)
    phi = gff_sample(model, n_samples, field_rng)
    gauss = empirical_transform(0.5 * phi**2, f)
    fields = sample_occupation_fields(q, 0.5, n_samples, soup_seed, trivial=True)
    soup_est = empirical_transform(fields, f)
    closed = gff_transform_closed(q, f)
    return IsomorphismSampling(
        closed=closed,
        gaussian_value=gauss.value,
        gaussian_stderr=gauss.stderr,
        soup_value=soup_est.value,
        soup_stderr=soup_est.stderr,
    )


@dataclass(frozen=True)
class SquaredFieldMoments:
    """First two moments of both one-site fields, with MC standard errors."""

    closed_mean: float
    closed_second: float
    gaussian_mean: float
    gaussian_mean_stderr: float
    gaussian_second: float
    gaussian_second_stderr: float
    soup_mean: float
    soup_mean_stderr: float
    soup_second: float
    soup_second_stderr: float

    def max_sigmas(self) -> float:
        return max(
            abs(self.gaussian_mean - self.closed_mean) / self.gaussian_mean_stderr,
            abs(self.gaussian_second - self.closed_second)
            / self.gaussian_second_stderr,
            abs(self.soup_mean - self.closed_mean) / self.soup_mean_stderr,
            abs(self.soup_second - self.closed_second) / self.soup_second_stderr,
        )


def _mean_with_stderr(x: np.ndarray) -> tuple[float, float]:
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(len(x)))


def chi_square_moment_check(
    q: WeightMatrix,
    n_samples: int,
    field_rng: np.random.Generator,
    soup_seed: int,
) -> SquaredFieldMoments:
    """One-site moment comparison of half-squared Gaussian vs occupation.

    With g = G(x, x), half a squared N(0, g) draw is Gamma(1/2, g)-shaped:
    mean g/2 and second moment 3 g^2 / 4.  The occupation field of the soup
    at intensity 1/2 (trivial part included) must reproduce both.
    """
    if q.n != 1:
        raise InvalidMatrix("the moment decomposition check is one-site only")
    g = float(greens_exact(q).entries.real[0, 0])
    model = GFFModel.from_weights(q)
    phi = gff_sample(model, n_samples, field_rng)[:, 0]
    x = 0.5 * phi**2
    fields = sample_occupation_fields(q, 0.5, n_samples, soup_seed, trivial=True)
    y = fields[:, 0]
    gm, gms = _mean_with_stderr(x)
    g2, g2s = _mean_with_stderr(x**2)
    sm, sms = _mean_with_stderr(y)
    s2, s2s = _mean_with_stderr(y**2)
    return SquaredFieldMoments(
        closed_mean=g / 2,
        closed_second=0.75 * g * g,
        gaussian_mean=gm,
        gaussian_mean_stderr=gms,
        gaussian_second=g2,
        gaussian_second_stderr=g2s,
        soup_mean=sm,
        soup_mean_stderr=sms,
        soup_second=s2,
        soup_second_stderr=s2s,
    )


# --- complex Hermitian weights via doubling ----------------------------------


def double_weights(q: WeightMatrix) -> WeightMatrix:
    """Real doubled matrix [[Re Q, -Im Q], [Im Q, Re Q]] on split sites.

    Site x becomes x and x*.  For Hermitian input the result is symmetric.
    A doubled matrix that fails acceptability only triggers a warning: the
    determinant identities below are plain algebra either way.
    """
    re = q.entries.real
    im = q.entries.imag
    top = np.hstack([re, -im])
    bottom = np.hstack([im, re])
    labels = tuple(q.space.labels) + tuple(f"{lab}*" for lab in q.space.labels)
    doubled = WeightMatrix(StateSpace(labels), np.vstack([top, bottom]))
    if not acceptability(doubled).acceptable:
        warnings.warn(
            "doubled matrix is not acceptable; series expansions for it diverge",
            AcceptabilityWarning,
            stacklevel=2,
        )
    return doubled


@dataclass(frozen=True)
class ComplexGFFModel:
    """Complex Gaussian field for Hermitian weights, built on doubled sites.

    The field psi(x) = phi(x) + i phi(x*) has covariance
    E[psi(x) conj(psi(y))] = 2 G'(x, y) and zero pseudo-covariance
    E[psi(x) psi(y)]; the rescaling h = psi / sqrt(2) has covariance G'.
    """

    weights: WeightMatrix
    greens: np.ndarray
    doubled: GFFModel

    @classmethod
    def from_weights(cls, q: WeightMatrix) -> "ComplexGFFModel":
        if not q.hermitian:
            raise InvalidMatrix("complex Gaussian field needs Hermitian weights")
        require_acceptable(q)
        doubled = GFFModel.from_weights(double_weights(q))
        return cls(
            weights=q, greens=greens_exact(q).entries, doubled=doubled
        )

    @property
    def n(self) -> int:
        return self.weights.n


def complex_gff_sample(
    model: ComplexGFFModel, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Complex field samples psi, one realization per row."""
    phi = gff_sample(model.doubled, n_samples, rng)
    n = model.n
    return phi[:, :n] + 1j * phi[:, n:]


def pushforward_loop_check(q: WeightMatrix, max_len: int) -> float:
    """Largest error in the per-loop pushforward of the doubled measure.

    For each base rooted loop, sum the doubled loop measure over all 2^n
    site lifts (each visit chooses the plain or starred copy) and compare
    with m'(loop) + m'(reversed loop).  Returns the max absolute error.
    With B(x, y) the 2x2 block of the doubled matrix between {x, x*} and
    {y, y*}, the lift sum of x_0..x_d is tr(B(x_0, x_1) ... B(x_d, x_0)):
    each path of ``prefix_walk`` carries its 2x2 product and its forward
    and reversed weights, one multiply per step.  The walk roots each loop
    at its lowest site only; a rotation leaves the trace, both weights and
    the length unchanged, so every rooted loop's identity is still checked.
    """
    if not q.hermitian:
        raise InvalidMatrix("pushforward check needs Hermitian weights")
    n = q.n
    # blocks[x, y, a, b]: doubled entry from copy a of x to copy b of y
    blocks = double_weights(q).entries.real.reshape(2, n, 2, n).transpose(1, 3, 0, 2)
    support = q.support()
    last, nxt = np.nonzero(support)
    # per supported step last -> nxt: its block, its weight and its reverse's
    step_block = blocks[last, nxt].transpose(1, 2, 0)
    forward, backward = q.entries[last, nxt], q.entries[nxt, last]
    worst = 0.0

    def extend(root, carried, parent, edge, sites):
        product, fwd, back = carried
        product = (product[:, :, None, parent] * step_block[None, :, :, edge]).sum(axis=1)
        return product, fwd[parent] * forward[edge], back[parent] * backward[edge]

    def start(root):
        return np.eye(2)[:, :, None], np.ones(1, dtype=complex), np.ones(1, dtype=complex)

    for root, depth, sites, (product, fwd, back) in prefix_walk(support, max_len, start, extend):
        closes = support[sites, root]
        if not closes.any():
            continue
        ends = sites[closes]
        # tr(P B) sums P[a, b] B[b, a] over both copies
        lifts = (product[:, :, closes] * blocks[ends, root].transpose(2, 1, 0)).sum(axis=(0, 1))
        expect = fwd[closes] * q.entries[ends, root] + back[closes] * q.entries[root, ends]
        error = (lifts - expect) / (depth + 1)
        # hypot rounds as abs() of one complex does; np.abs of an array may not
        worst = max(worst, np.hypot(error.real, error.imag).max())
    return worst


@dataclass(frozen=True)
class DoubledTransformIdentity:
    """Occupation transform computed on doubled sites vs on complex weights.

    The doubled soup at intensity 1/2, tested against f copied to both site
    halves, must match the complex-weight soup at intensity 1 since
    det [[M_R, -M_I], [M_I, M_R]] = |det M|^2.
    """

    doubled_half: complex
    complex_full: complex

    @property
    def error(self) -> float:
        return abs(self.doubled_half - self.complex_full)


def doubled_transform_identity_check(q: WeightMatrix, f) -> DoubledTransformIdentity:
    if not q.hermitian:
        raise InvalidMatrix("doubling identity needs Hermitian weights")
    vec = np.asarray(f, dtype=np.float64)
    doubled = double_weights(q)
    lhs = rho_transform_closed(doubled, np.concatenate([vec, vec]), 0.5)
    rhs = rho_transform_closed(q, vec, 1.0)
    return DoubledTransformIdentity(doubled_half=lhs, complex_full=rhs)
