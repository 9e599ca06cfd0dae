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
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg

from .errors import (
    InvalidMatrix,
    NotAcceptable,
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

# LAPACK's complex LU factorization, bound once
_GETRF = scipy.linalg.get_lapack_funcs("getrf", dtype=np.complex128)


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
    _certificate: AcceptabilityCertificate | None = field(
        init=False, default=None, repr=False, compare=False
    )

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
        if not isinstance(labels, list) or not all(isinstance(lab, str) for lab in labels):
            raise InvalidMatrix("labels must be a list of site names")
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
    """Matrix of total path weights between sites: entries solve (I-Q)G = I."""

    space: StateSpace
    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=np.complex128)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def diagonal(self, label: str) -> complex:
        i = self.space.index(label)
        return complex(self.entries[i, i])


def spectral_radius_abs(q: WeightMatrix | np.ndarray) -> float:
    """Spectral radius of |Q|, the entrywise absolute value of the matrix,
    from one dense eigenvalue computation; 0.0 for a zero or empty matrix."""
    arr = q.entries if isinstance(q, WeightMatrix) else np.asarray(q, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidMatrix("matrix entries must be finite")
    return float(np.max(np.abs(np.linalg.eigvals(np.abs(arr))), initial=0.0))


def acceptability(q: WeightMatrix) -> AcceptabilityCertificate:
    """The certificate of ``q``, kept on the object: its entries are read-only."""
    if q._certificate is None:
        rho = spectral_radius_abs(q)
        cert = AcceptabilityCertificate(
            spectral_radius_abs=rho,
            acceptable=rho < 1.0 - TOL_ACCEPT,
            margin=1.0 - rho,
        )
        object.__setattr__(q, "_certificate", cert)
    return q._certificate


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
    """LU with partial pivoting of a complex matrix; NumericallySingular on
    a pivot below the tolerance scaled by the largest entry."""
    lu, piv, _ = _GETRF(arr)
    scale = np.max(np.abs(arr))
    if np.any(np.abs(np.diag(lu)) < _PIVOT_TOL * max(scale, 1.0)):
        raise NumericallySingular("LU pivot below tolerance")
    return lu, piv


def _lu_solve(arr: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve arr @ x = rhs after ``_lu_factor``'s pivot check.

    The solve is numpy's: scipy's ``getrs`` wakes the helper thread of
    scipy's bundled OpenBLAS, which then spins for tens of milliseconds
    per call on a core the caller may need.
    """
    _lu_factor(arr)
    return np.linalg.solve(arr, rhs)


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
    g = _lu_solve(np.eye(q.n) - q.entries, np.eye(q.n))
    return GreensFunction(q.space, g)


def abs_resolvent_tail(m_abs: np.ndarray, power: int, rhs: np.ndarray) -> np.ndarray:
    """sum_{j >= power} M^j rhs = M^power (I - M)^{-1} rhs.

    For a nonnegative M with spectral radius below one this is the exact
    remainder of the Neumann series applied to ``rhs``, so it bounds the
    entrywise modulus of every series truncated before ``power`` whose
    terms are dominated by M^j rhs.
    """
    resolvent_rhs = np.linalg.solve(np.eye(len(m_abs)) - m_abs, rhs)
    return np.linalg.matrix_power(m_abs, power) @ resolvent_rhs


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
    mode: str = "excursion",
    length: int | None = None,
) -> complex | tuple[complex, float]:
    """Total weight of loops at ``site`` with no intermediate visit to it.

    ``excursion`` evaluates Q(x, x) + Q(x, A) (I - Q_A)^{-1} Q(A, x), A being
    the other sites: one solve on the complement that never forms G, so
    G(x, x) (1 - F(x)) = 1 relates two different solves.  ``brute_force`` sums
    the weights of all such loops of length <= ``length`` (grouped through
    powers of the matrix restricted to the complement) and returns the
    partial sum with the tail bound (|Q|^(length+1) (I - |Q|)^{-1})_xx, the
    sum over k > length of (|Q|^k)_xx, which bounds the first-return loops of
    length k in modulus; the modes agree within it for any acceptable Q.
    """
    require_acceptable(q)
    i = q.space.index(site)
    others = [j for j in range(q.n) if j != i]
    sub = q.entries[np.ix_(others, others)]
    row = q.entries[i, others]
    col = q.entries[others, i]
    total = complex(q.entries[i, i])
    if mode == "excursion":
        if others:  # I - Q_A is invertible: Q_A is acceptable with Q
            total += complex(row @ _lu_solve(np.eye(len(others)) - sub, col))
        return total
    if mode != "brute_force":
        raise ValueError(f"unknown mode {mode!r}")
    if length is None or length < 1:
        raise ValueError("brute_force mode needs a length cap >= 1")
    power = np.eye(len(others), dtype=np.complex128)
    for _ in range(2, length + 1):
        total += row @ power @ col
        power = power @ sub
    tail = abs_resolvent_tail(np.abs(q.entries), length + 1, np.eye(q.n)[:, i])
    return total, float(tail[i])


def perturb(q: WeightMatrix, f: Sequence[complex]) -> WeightMatrix:
    """Row rescaling Q(x, .) / (1 + f(x)) by a site function f."""
    vals = np.asarray(f, dtype=np.complex128)
    if vals.shape != (q.n,):
        raise InvalidMatrix("f must assign one value per site")
    denom = 1.0 + vals
    if np.any(denom == 0):
        raise ZeroDivisionError("1 + f vanishes at some site")
    return WeightMatrix(q.space, q.entries / denom[:, None])

