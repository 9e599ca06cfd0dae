"""Seeded inputs for the benchmark workloads, in the CLI's JSON wire formats.

Every generator draws from its own numpy stream keyed by ``(seed, purpose)``,
so the same workload seed always gives the same files.  Matrices are scaled
to their target spectral radius of ``|Q|`` with numpy's eigenvalues, never
with the acceptability gate the benchmark exercises.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# purpose keys for the per-input streams
_DENSE, _NONNORMAL, _PERIODIC, _REDUCIBLE, _GRAPH, _FIELD, _GFF = range(7)

#: vertices per side of the torus behind the ``sample`` tree graph
TORUS_SIDE = 6
#: sites of the ``field`` matrix and its spectral radius of |Q|
FIELD_SITES = 12
FIELD_RHO = 0.9
#: sites of the ``gff`` matrix and its spectral radius of |Q|
GFF_SITES = 16
GFF_RHO = 0.8


def _rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, purpose)))


def abs_spectral_radius(mat: np.ndarray) -> float:
    """rho(|Q|) from a full eigenvalue computation."""
    return float(np.max(np.abs(np.linalg.eigvals(np.abs(mat)))))


def scale_to_rho(mat: np.ndarray, rho: float) -> np.ndarray:
    return mat * (rho / abs_spectral_radius(mat))


def _complex_entries(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)


def dense_complex(seed: int, n: int = 32) -> np.ndarray:
    """Dense complex matrix, every entry nonzero."""
    rng = _rng(seed, _DENSE)
    return scale_to_rho(_complex_entries(rng, (n, n)), rng.uniform(0.5, 0.7))


def nonnormal_triangular(seed: int, n: int = 5) -> np.ndarray:
    """Upper-triangular complex matrix whose off-diagonal part outweighs the
    diagonal, so Q Q* and Q* Q differ widely.

    The diagonal moduli are a fixed profile with a tie at the top, so |Q| has
    a defective leading eigenvalue on every seed; only phases and the
    off-diagonal part are drawn.
    """
    rng = _rng(seed, _NONNORMAL)
    mat = np.triu(2.0 * _complex_entries(rng, (n, n)), k=1)
    phases = np.exp(2j * np.pi * rng.uniform(size=n))
    mat += np.diag(np.linspace(1.0, 0.3, n - 1).repeat([2] + [1] * (n - 2)) * phases)
    return scale_to_rho(mat, rng.uniform(0.5, 0.7))


def periodic_cycle(seed: int, n: int = 5) -> np.ndarray:
    """Weighted directed n-cycle: |Q| is irreducible with period n."""
    rng = _rng(seed, _PERIODIC)
    mat = np.zeros((n, n), dtype=np.complex128)
    weights = rng.uniform(0.5, 1.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    for i in range(n):
        mat[i, (i + 1) % n] = weights[i]
    return scale_to_rho(mat, rng.uniform(0.5, 0.8))


def reducible_block(seed: int, n: int = 8) -> np.ndarray:
    """Block upper-triangular complex matrix: the last block never reaches
    the first, so |Q| is reducible.  The second block's radius is half the
    first's, so the leading eigenvalue is simple on every seed."""
    rng = _rng(seed, _REDUCIBLE)
    half = n // 2
    mat = _complex_entries(rng, (n, n))
    mat[half:, :half] = 0.0
    mat[half:, half:] = scale_to_rho(mat[half:, half:], 0.5 * abs_spectral_radius(mat[:half, :half]))
    return scale_to_rho(mat, rng.uniform(0.5, 0.7))


def verify_fixtures(seed: int) -> dict[str, np.ndarray]:
    """The four user fixtures pushed through the core identity suite."""
    return {
        "dense": dense_complex(seed),
        "nonnormal": nonnormal_triangular(seed),
        "periodic": periodic_cycle(seed),
        "reducible": reducible_block(seed),
    }


def torus_graph(seed: int) -> dict:
    """6x6 torus with its vertices relabelled at random.

    The torus is vertex-transitive and the expected work of Wilson's
    algorithm does not depend on the order vertices are attached in, so every
    seed asks for the same work in expectation.
    """
    rng = _rng(seed, _GRAPH)
    side = TORUS_SIDE
    n = side * side
    perm = rng.permutation(n)
    edges = set()
    for r in range(side):
        for c in range(side):
            v = perm[r * side + c]
            for w in (r * side + (c + 1) % side, ((r + 1) % side) * side + c):
                edges.add((min(v, perm[w]), max(v, perm[w])))
    return {
        "vertices": [f"v{i}" for i in range(n)],
        "edges": [[int(a), int(b)] for a, b in sorted(edges)],
    }


def field_matrix(seed: int) -> np.ndarray:
    """Dense nonnegative real matrix with rho(|Q|) near one: the all-ones
    matrix with every entry scaled by a seeded factor in [0.8, 1.2].  Its
    other eigenvalues stay small, so the loop count and length laws, and
    with them the work per sample, barely move with the seed."""
    rng = _rng(seed, _FIELD)
    mat = rng.uniform(0.8, 1.2, (FIELD_SITES, FIELD_SITES))
    return scale_to_rho(mat, FIELD_RHO)


def gff_matrix(seed: int) -> np.ndarray:
    """Dense real symmetric matrix with entries of both signs."""
    rng = _rng(seed, _GFF)
    mat = rng.uniform(-1.0, 1.0, (GFF_SITES, GFF_SITES))
    return scale_to_rho((mat + mat.T) / 2.0, GFF_RHO)


def matrix_doc(mat: np.ndarray) -> dict:
    """WeightMatrix wire format: labels plus [re, im] pairs."""
    mat = np.asarray(mat, dtype=np.complex128)
    return {
        "labels": [f"s{i}" for i in range(mat.shape[0])],
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in mat],
    }


def write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return str(path)
