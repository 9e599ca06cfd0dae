"""Complex edge-weight matrices over labeled finite state spaces.

A weight assignment on a finite state space is a square complex matrix Q.
Everything downstream (loop measures, soups, field identities) rests on the
*acceptability* condition: the entrywise absolute matrix |Q| must have
spectral radius strictly below one, which makes every path and loop series
converge absolutely.  This module provides the state space and matrix
containers, the acceptability certificate, det(I - Q), exact and truncated
Green's functions, restrictions to subsets, the first-return weight at a
site, and diagonal perturbations.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg

from .errors import (
    InvalidMatrix,
    NotAcceptable,
    NumericalFailure,
    NumericallySingular,
    UnknownSite,
)

__all__ = [
    "StateSpace",
    "WeightMatrix",
    "AcceptabilityCertificate",
    "GreensFunction",
    "TOL_ACCEPT",
    "FLAG_TOL",
    "spectral_radius_abs",
    "acceptability",
    "require_acceptable",
    "det_laplacian",
    "greens_exact",
    "greens_series",
    "restrict",
    "first_return_weight",
    "perturb",
    "lu_det",
    "abs_resolvent_tail",
]

#: Margin below 1 required of the spectral radius of |Q|.
TOL_ACCEPT = 1e-9

#: Tolerance used when computing structural flags from entries.
FLAG_TOL = 1e-12

_PIVOT_TOL = 1e-14

# entries at most this large in modulus count as absent steps
_SUPPORT_TOL = 1e-15


@dataclass(frozen=True)
class StateSpace:
    """Ordered finite set of site labels."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.labels) == 0:
            raise InvalidMatrix("state space must contain at least one site")
        if len(set(self.labels)) != len(self.labels):
            raise InvalidMatrix("site labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownSite(label) from None

    def indices(self, labels: Iterable[str]) -> list[int]:
        return [self.index(lab) for lab in labels]


@dataclass(frozen=True)
class AcceptabilityCertificate:
    """Spectral radius of |Q| together with the acceptability verdict."""

    spectral_radius_abs: float
    acceptable: bool
    margin: float


@dataclass(frozen=True)
class WeightMatrix:
    """Complex square matrix indexed by a state space.

    The structural flags (real / positive / symmetric / hermitian) are always
    computed from the entries, never trusted from input files.
    """

    space: StateSpace
    entries: np.ndarray
    real: bool = field(init=False)
    positive: bool = field(init=False)
    symmetric: bool = field(init=False)
    hermitian: bool = field(init=False)

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=np.complex128)
        n = self.space.size
        if arr.shape != (n, n):
            raise InvalidMatrix(f"expected a {n}x{n} matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidMatrix("matrix entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        is_real = bool(np.all(np.abs(arr.imag) <= FLAG_TOL))
        object.__setattr__(self, "real", is_real)
        object.__setattr__(
            self, "positive", is_real and bool(np.all(arr.real >= -FLAG_TOL))
        )
        object.__setattr__(
            self, "symmetric", bool(np.all(np.abs(arr - arr.T) <= FLAG_TOL))
        )
        object.__setattr__(
            self, "hermitian", bool(np.all(np.abs(arr - arr.conj().T) <= FLAG_TOL))
        )

    @classmethod
    def from_entries(
        cls, labels: Sequence[str], entries: np.ndarray | Sequence[Sequence[complex]]
    ) -> "WeightMatrix":
        return cls(StateSpace(tuple(labels)), np.asarray(entries, dtype=np.complex128))

    @property
    def n(self) -> int:
        return self.space.size

    def certificate(self) -> AcceptabilityCertificate:
        return acceptability(self)

    def support(self) -> np.ndarray:
        """Boolean adjacency of strictly nonzero entries."""
        return np.abs(self.entries) > _SUPPORT_TOL

    # --- JSON wire format: {"labels": [...], "entries": [[[re, im], ...], ...]} ---

    def to_json_dict(self) -> dict:
        ent = [
            [[float(z.real), float(z.imag)] for z in row] for row in self.entries
        ]
        return {"labels": list(self.space.labels), "entries": ent}

    @classmethod
    def from_json_dict(cls, data: dict) -> "WeightMatrix":
        try:
            labels = data["labels"]
            rows = data["entries"]
        except (KeyError, TypeError) as exc:
            raise InvalidMatrix(f"malformed matrix document: {exc}") from exc
        try:
            entries = np.array(
                [[complex(re, im) for re, im in row] for row in rows],
                dtype=np.complex128,
            )
        except (TypeError, ValueError) as exc:
            raise InvalidMatrix(f"entries must be [re, im] pairs: {exc}") from exc
        return cls.from_entries(labels, entries)

    @classmethod
    def from_json_file(cls, path) -> "WeightMatrix":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


@dataclass(frozen=True)
class GreensFunction:
    """Matrix of total path weights between sites.

    ``source`` is either ``"exact_inverse"`` (entries solve (I-Q)G = I) or
    ``"truncated_series"`` with the truncation length and a certified bound
    on the max-norm truncation error.
    """

    space: StateSpace
    entries: np.ndarray
    source: str
    length: int | None = None
    tail_bound: float | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=np.complex128)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def diagonal(self, label: str) -> complex:
        i = self.space.index(label)
        return complex(self.entries[i, i])


def spectral_radius_abs(q: WeightMatrix | np.ndarray) -> float:
    """Spectral radius of the entrywise absolute value of the matrix.

    Power iteration on |Q| with relative tolerance 1e-12 (iteration cap
    10_000); falls back to a full eigenvalue computation when the iteration
    does not settle, e.g. on reducible or periodic supports.
    """
    arr = q.entries if isinstance(q, WeightMatrix) else np.asarray(q, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidMatrix("matrix entries must be finite")
    m = np.abs(arr)
    n = m.shape[0]
    if n == 1:
        return float(m[0, 0])
    if not m.any():
        return 0.0
    vec = np.full(n, 1.0 / n)
    estimate = np.inf
    stable = 0
    for _ in range(10_000):
        nxt = m @ vec
        total = nxt.sum()
        if total == 0.0:  # vec fell into the kernel; restart off-kernel
            break
        new_estimate = total / vec.sum()
        nxt /= total
        if abs(new_estimate - estimate) <= 1e-12 * max(1.0, abs(new_estimate)):
            stable += 1
            if stable >= 2:
                return float(new_estimate)
        else:
            stable = 0
        estimate = new_estimate
        vec = nxt
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def acceptability(q: WeightMatrix) -> AcceptabilityCertificate:
    rho = spectral_radius_abs(q)
    return AcceptabilityCertificate(
        spectral_radius_abs=rho,
        acceptable=rho < 1.0 - TOL_ACCEPT,
        margin=1.0 - rho,
    )


def require_acceptable(q: WeightMatrix) -> float:
    """Return rho(|Q|), raising when the matrix is not acceptable."""
    cert = acceptability(q)
    if not cert.acceptable:
        raise NotAcceptable(
            f"spectral radius of |Q| is {cert.spectral_radius_abs:.6g}; "
            f"need < {1.0 - TOL_ACCEPT}"
        )
    return cert.spectral_radius_abs


def _lu_factor(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU with partial pivoting; NumericallySingular on a pivot below the
    tolerance scaled by the largest entry."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(arr, check_finite=False)
    scale = np.max(np.abs(arr))
    if np.any(np.abs(np.diag(lu)) < _PIVOT_TOL * max(scale, 1.0)):
        raise NumericallySingular("LU pivot below tolerance")
    return lu, piv


def lu_det(matrix: np.ndarray) -> complex:
    """Determinant via LU with partial pivoting (product of pivots)."""
    arr = np.asarray(matrix, dtype=np.complex128)
    if arr.size == 0:
        return 1.0 + 0.0j
    lu, piv = _lu_factor(arr)
    sign = -1.0 if (piv != np.arange(arr.shape[0])).sum() % 2 else 1.0
    return complex(sign * np.prod(np.diag(lu)))


def det_laplacian(q: WeightMatrix) -> complex:
    """det(I - Q)."""
    return lu_det(np.eye(q.n) - q.entries)


def greens_exact(q: WeightMatrix) -> GreensFunction:
    """G = (I - Q)^{-1} by LU with partial pivoting."""
    require_acceptable(q)
    lu_piv = _lu_factor(np.eye(q.n) - q.entries)
    g = scipy.linalg.lu_solve(lu_piv, np.eye(q.n), check_finite=False)
    return GreensFunction(q.space, g, source="exact_inverse")


def abs_resolvent_tail(m_abs: np.ndarray, power: int, rhs: np.ndarray) -> np.ndarray:
    """sum_{j >= power} M^j rhs = M^power (I - M)^{-1} rhs.

    For a nonnegative M with spectral radius below one this is the exact
    remainder of the Neumann series applied to ``rhs``, so it bounds the
    entrywise modulus of every series truncated before ``power`` whose
    terms are dominated by M^j rhs.
    """
    resolvent_rhs = np.linalg.solve(np.eye(len(m_abs)) - m_abs, rhs)
    return np.linalg.matrix_power(m_abs, power) @ resolvent_rhs


def greens_series(q: WeightMatrix, length: int) -> GreensFunction:
    """Partial Neumann sum sum_{j<=length} Q^j with a certified tail bound.

    The tail bound is the largest entry of the exact remainder of the
    series of |Q|, |Q|^(length+1) (I - |Q|)^{-1}, which dominates the
    remainder of the series of Q entrywise for any acceptable Q, normal or
    not.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    require_acceptable(q)
    acc = np.eye(q.n, dtype=np.complex128)
    power = np.eye(q.n, dtype=np.complex128)
    for _ in range(length):
        power = power @ q.entries
        acc += power
    tail = float(np.max(abs_resolvent_tail(np.abs(q.entries), length + 1, np.eye(q.n))))
    return GreensFunction(
        q.space, acc, source="truncated_series", length=length, tail_bound=tail
    )


def restrict(q: WeightMatrix, labels: Sequence[str]) -> WeightMatrix:
    """Submatrix on the given sites, preserving their order in ``labels``."""
    if len(labels) == 0:
        raise UnknownSite("restriction requires a nonempty subset")
    idx = q.space.indices(labels)
    sub = q.entries[np.ix_(idx, idx)]
    return WeightMatrix(StateSpace(tuple(labels)), sub)


def first_return_weight(
    q: WeightMatrix,
    site: str,
    mode: str = "via_greens",
    length: int | None = None,
) -> complex | tuple[complex, float]:
    """Total weight of loops at ``site`` with no intermediate visit to it.

    ``via_greens`` evaluates 1 - 1/G(site, site).  ``brute_force`` sums the
    weights of all such loops of length <= ``length`` (grouped through powers
    of the matrix restricted to the complement) and returns the partial sum
    together with the tail bound n * rho^(length+1) / (1 - rho), rho being
    rho(|Q|); the two modes agree within that bound.  The bound holds for
    every acceptable Q, normal or not: first-return loops of length k weigh
    at most (|Q|^k)_ii <= tr(|Q|^k) <= n * rho^k in total.
    """
    rho = require_acceptable(q)
    i = q.space.index(site)
    if mode == "via_greens":
        g = greens_exact(q).entries[i, i]
        if g == 0:
            raise NumericalFailure("G(x,x) vanished; renewal identity undefined")
        return complex(1.0 - 1.0 / g)
    if mode != "brute_force":
        raise ValueError(f"unknown mode {mode!r}")
    if length is None or length < 1:
        raise ValueError("brute_force mode needs a length cap >= 1")
    others = [j for j in range(q.n) if j != i]
    sub = q.entries[np.ix_(others, others)]
    row = q.entries[i, others]
    col = q.entries[others, i]
    total = complex(q.entries[i, i])
    power = np.eye(len(others), dtype=np.complex128)
    for _ in range(2, length + 1):
        total += row @ power @ col
        power = power @ sub
    tail = q.n * rho ** (length + 1) / (1.0 - rho) if rho > 0 else 0.0
    return total, tail


def perturb(q: WeightMatrix, f: Sequence[complex]) -> WeightMatrix:
    """Row rescaling Q(x, .) / (1 + f(x)) by a site function f."""
    vals = np.asarray(f, dtype=np.complex128)
    if vals.shape != (q.n,):
        raise InvalidMatrix("f must assign one value per site")
    denom = 1.0 + vals
    if np.any(denom == 0):
        raise ZeroDivisionError("1 + f vanishes at some site")
    return WeightMatrix(q.space, q.entries / denom[:, None])

