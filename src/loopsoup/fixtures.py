"""Shared example matrices, graphs and boundary problems.

These fixtures back both the test suite and the CLI verification commands.
Hand-picked small cases have closed-form expectations; the random families
are seeded so every run sees identical inputs.
"""

from __future__ import annotations

import numpy as np

from .matrices import WeightMatrix, spectral_radius_abs
from .rng import substream

__all__ = [
    "one_point",
    "two_state",
    "hermitian_pair",
    "random_acceptable",
    "random_symmetric_positive",
    "random_hermitian",
    "mc_fixtures",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "random_connected_graph",
    "boundary_problems",
]


def one_point(q: complex) -> WeightMatrix:
    """Single site with self-loop weight q.  G = 1/(1-q), f = q."""
    return WeightMatrix.from_entries(("x",), [[q]])


def two_state() -> WeightMatrix:
    """Symmetric hop weight 1/2 between two sites, no self-loops.

    G = [[4/3, 2/3], [2/3, 4/3]], first-return weight 1/4 at either site.
    """
    return WeightMatrix.from_entries(("x", "y"), [[0.0, 0.5], [0.5, 0.0]])


def hermitian_pair() -> WeightMatrix:
    """Hermitian two-site matrix with purely imaginary hop weights."""
    return WeightMatrix.from_entries(("x", "y"), [[0.0, 0.5j], [-0.5j, 0.0]])


def _rescaled(mat: np.ndarray, rho: float) -> WeightMatrix:
    """``mat`` times rho / rho(|mat|), on sites labeled s0, s1, ..."""
    labels = tuple(f"s{i}" for i in range(len(mat)))
    return WeightMatrix.from_entries(labels, mat * (rho / spectral_radius_abs(mat)))


def random_acceptable(
    n: int, rho: float, seed: int, complex_entries: bool = False
) -> WeightMatrix:
    """Dense random matrix rescaled so rho(|Q|) equals ``rho`` exactly."""
    rng = substream(seed)
    mat = rng.uniform(-1.0, 1.0, size=(n, n)).astype(np.complex128)
    if complex_entries:
        mat += 1j * rng.uniform(-1.0, 1.0, size=(n, n))
    return _rescaled(mat, rho)


def random_symmetric_positive(n: int, rho: float, seed: int) -> WeightMatrix:
    """Symmetric nonnegative random matrix rescaled to rho(|Q|) = rho."""
    rng = substream(seed)
    mat = rng.uniform(0.0, 1.0, size=(n, n))
    mat = (mat + mat.T) / 2.0
    return _rescaled(mat, rho)


def random_hermitian(n: int, rho: float, seed: int) -> WeightMatrix:
    """Hermitian complex random matrix rescaled to rho(|Q|) = rho."""
    rng = substream(seed)
    mat = rng.uniform(-1.0, 1.0, size=(n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
    mat = (mat + mat.conj().T) / 2.0
    return _rescaled(mat, rho)


def mc_fixtures() -> dict[str, WeightMatrix]:
    """Positive fixtures of acceptance criteria 6 and 7."""
    return {
        "one_point_q0.3": one_point(0.3),
        "one_point_q0.5": one_point(0.5),
        "two_state": two_state(),
        "sym4_rho0.6": random_symmetric_positive(4, 0.6, seed=20240601),
    }


# --- small graphs for spanning-tree checks; dicts match the JSON wire form ---


def complete_graph(n: int) -> dict:
    edges = [[i, j] for i in range(n) for j in range(i + 1, n)]
    return {"vertices": [f"v{i}" for i in range(n)], "edges": edges}


def cycle_graph(n: int) -> dict:
    edges = [[i, (i + 1) % n] for i in range(n)]
    return {"vertices": [f"v{i}" for i in range(n)], "edges": edges}


def path_graph(n: int) -> dict:
    edges = [[i, i + 1] for i in range(n - 1)]
    return {"vertices": [f"v{i}" for i in range(n)], "edges": edges}


def _signed_boundary_problem(seed: int, complex_entries: bool):
    from .lerw import BoundaryProblem

    rng = substream(seed)
    n_int, n = 3, 5
    mat = rng.uniform(-1.0, 1.0, size=(n, n)).astype(np.complex128)
    if complex_entries:
        mat += 1j * rng.uniform(-1.0, 1.0, size=(n, n))
    mat[n_int:, :] = 0.0  # boundary rows absorb
    block = mat[:n_int, :n_int]
    mat[:n_int, :n_int] = block * (0.45 / spectral_radius_abs(block))
    mat[:n_int, n_int:] *= 0.3  # moderate exit weights
    labels = ("s0", "s1", "s2", "b0", "b1")
    wm = WeightMatrix.from_entries(labels, mat)
    return BoundaryProblem(wm, ("s0", "s1", "s2"), ("b0", "b1"))


def boundary_problems() -> dict:
    """Three-interior-site walk-to-boundary problems for erased-walk checks."""
    from .lerw import BoundaryProblem
    from .spanning import SimpleGraph, srw_weights

    graph = SimpleGraph.from_json_dict(path_graph(5))
    srw = BoundaryProblem(
        srw_weights(graph), ("v1", "v2", "v3"), ("v0", "v4")
    )
    return {
        "srw_path5": srw,
        "real5": _signed_boundary_problem(20240702, complex_entries=False),
        "complex5": _signed_boundary_problem(20240703, complex_entries=True),
    }


def random_connected_graph(n: int, extra_edges: int, seed: int) -> dict:
    """Random tree on n vertices plus ``extra_edges`` distinct chords."""
    rng = substream(seed)
    edges: set[tuple[int, int]] = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.add((u, v))
    candidates = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (i, j) not in edges
    ]
    if extra_edges > len(candidates):
        extra_edges = len(candidates)
    picks = rng.choice(len(candidates), size=extra_edges, replace=False)
    for k in picks:
        edges.add(candidates[int(k)])
    return {
        "vertices": [f"v{i}" for i in range(n)],
        "edges": [list(e) for e in sorted(edges)],
    }
