"""Command line interface: deterministic verification, Monte Carlo suites,
and sample dumps.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 bad input
(unreadable files, malformed matrices, refused sampling), 3 inconclusive
(Monte Carlo run with too few samples to decide, or a truncation bound that
overflowed and so certifies nothing).

Serialized reports contain no timing data, so rerunning a command with the
same configuration writes byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import sys
import time
import traceback
from collections import Counter
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import fixtures as fx
from . import gff, lerw, loops, soup, spanning
from .errors import LoopSoupError
from .matrices import (
    WeightMatrix,
    det_laplacian,
    first_return_weight,
    greens_exact,
    lu_det,
    require_acceptable,
)
from .rng import SEED_ENV_VAR, Substreams, substream

__all__ = ["RunConfig", "CheckReport", "main"]

#: Monte Carlo runs below this many samples are labeled inconclusive.
MIN_CONCLUSIVE_SAMPLES = 1000

# disjoint substream index blocks, one per Monte Carlo suite
_STREAM_BLOCK = 10**7


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by the verification commands; JSON round-trippable.

    ``fixtures`` lists paths of extra weight-matrix JSON files to push
    through the core identity suites; ``max_len`` caps the truncated trace
    sums; ``out`` is a default report path, overridden by ``--out``.
    """

    seed: int = 42
    samples: int = 10_000
    max_len: int = 14
    sigma_tolerance: float = 4.0
    p_value_floor: float = 1e-3
    fixtures: tuple = ()
    out: str | None = None

    def __post_init__(self) -> None:
        # exact types: JSON's true and false are no counts or tolerances
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if type(self.samples) is not int or self.samples < 1:
            raise ValueError("samples must be a positive integer")
        if type(self.max_len) is not int or self.max_len < 1:
            raise ValueError("max_len must be a positive integer")
        if type(self.sigma_tolerance) not in (int, float) or not 0 < self.sigma_tolerance < math.inf:
            raise ValueError("sigma_tolerance must be positive and finite")
        if type(self.p_value_floor) not in (int, float) or not 0 < self.p_value_floor < 1:
            raise ValueError("p_value_floor must lie in (0, 1)")
        if not isinstance(self.fixtures, (list, tuple)) or not all(
            isinstance(p, str) for p in self.fixtures
        ):
            raise ValueError("fixtures must be a list of paths")
        object.__setattr__(self, "fixtures", tuple(self.fixtures))
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError("out must be a path or null")

    def to_json_dict(self) -> dict:
        doc = asdict(self)
        doc["fixtures"] = list(self.fixtures)
        return doc

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ValueError("config document must be a JSON object")
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


@dataclass(frozen=True)
class CheckReport:
    """One named check: a measured value compared against a bound.

    ``comparator`` is "le" (pass when value <= bound) or "gt" (pass when
    value > bound, used for p-values).
    """

    check: str
    statement: str
    inputs_digest: str
    value: float
    bound: float
    comparator: str
    outcome: str

    def to_json_dict(self) -> dict:
        # strict JSON has no Infinity or NaN: a non-finite number is null
        doc = asdict(self)
        for key in ("value", "bound"):
            if not math.isfinite(doc[key]):
                doc[key] = None
        return doc

    def console_line(self) -> str:
        op = "<=" if self.comparator == "le" else ">"
        return (
            f"[{self.outcome.upper():{12}}] {self.check}: "
            f"value={self.value:.6g} {op} bound={self.bound:.6g}"
        )


def _digest(**inputs) -> str:
    blob = json.dumps(inputs, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _report(
    check: str,
    statement: str,
    value: float,
    bound: float,
    comparator: str = "le",
    inconclusive: bool = False,
    **inputs,
) -> CheckReport:
    ok = value <= bound if comparator == "le" else value > bound
    outcome = "inconclusive" if inconclusive else ("pass" if ok else "fail")
    return CheckReport(
        check=check,
        statement=statement,
        inputs_digest=_digest(check=check, **inputs),
        value=float(value),
        bound=float(bound),
        comparator=comparator,
        outcome=outcome,
    )


# --- deterministic checks -----------------------------------------------------


def _core_identity_checks(name: str, q: WeightMatrix, max_len: int) -> list[CheckReport]:
    """The matrix-level identity suite, applied to one acceptable matrix."""
    out = []
    g = greens_exact(q)
    worst = max(
        abs(g.diagonal(lab) * (1 - first_return_weight(q, lab)) - 1.0)
        for lab in q.space.labels
    )
    out.append(
        _report(
            f"{name}-greens-renewal",
            "G(x,x) * (1 - first_return(x)) equals 1 at every site",
            worst,
            1e-10,
            fixture=name,
        )
    )
    target = 1.0 / det_laplacian(q)
    rng = substream(5, q.n)
    orderings = [list(q.space.labels)] + [
        list(rng.permutation(q.space.labels)) for _ in range(3)
    ]
    worst = max(
        abs(loops.exp_meeting_mass_greens(q, o) - target) / abs(target)
        for o in orderings
    )
    out.append(
        _report(
            f"{name}-det-product-orderings",
            "nested Green's diagonal products are order-free and invert det(I-Q)",
            worst,
            1e-9,
            fixture=name,
            orderings=len(orderings),
        )
    )
    approx, bound = loops.exp_truncated(loops.loop_mass_truncated(q, max_len))
    out.append(
        _report(
            f"{name}-loop-mass-det",
            "exp of the length-truncated loop mass approaches 1/det(I-Q)",
            abs(approx - loops.exp_loop_mass_det(q)),
            bound + 1e-12,
            inconclusive=math.isinf(bound),
            fixture=name,
            max_len=max_len,
        )
    )
    subset = list(q.space.labels[: max(1, q.n // 2)])
    approx, bound = loops.exp_truncated(
        loops.meeting_mass_truncated(q, subset, max_len)
    )
    out.append(
        _report(
            f"{name}-meeting-mass-greens",
            "exp of the truncated meeting mass approaches the peeled product",
            abs(approx - loops.exp_meeting_mass_greens(q, subset)),
            bound + 1e-12,
            inconclusive=math.isinf(bound),
            fixture=name,
            subset=subset,
            max_len=max_len,
        )
    )
    return out


def _extra_fixture_checks(config: RunConfig) -> list[CheckReport]:
    """Gate and verify user-supplied matrices; unacceptable ones abort."""
    out = []
    for k, path in enumerate(config.fixtures):
        q = WeightMatrix.from_json_file(path)
        require_acceptable(q)
        out.extend(_core_identity_checks(f"extra{k}", q, config.max_len))
    return out


def _verify_checks(config: RunConfig) -> list[CheckReport]:
    # gate user-supplied fixtures first so bad input aborts before the suites
    out = _extra_fixture_checks(config)
    sym4 = fx.random_symmetric_positive(4, 0.6, seed=20240601)
    cpx4 = fx.random_acceptable(4, 0.6, seed=904, complex_entries=True)
    cpx3 = fx.random_acceptable(3, 0.5, seed=301, complex_entries=True)
    herm2 = fx.hermitian_pair()
    herm3 = fx.random_hermitian(3, 0.55, seed=411)

    out.extend(_core_identity_checks("two-state", fx.two_state(), config.max_len))
    out.extend(_core_identity_checks("cpx4", cpx4, config.max_len))

    # brute-forced first return converges to the closed value
    exact = first_return_weight(cpx4, "s1")
    partial, tail = first_return_weight(cpx4, "s1", mode="brute_force", length=60)
    out.append(
        _report(
            "first-return-series",
            "partial first-return sums land within their certified tail",
            abs(partial - exact),
            tail + 1e-13,
            fixture="cpx4",
            length=60,
        )
    )

    # erased-walk closed formula against the literal walk sweep, tail ~1e-14 at 40 steps
    problem = fx.boundary_problems()["complex5"]
    brute = lerw.lerw_weights_bruteforce(problem, "s0", max_steps=40)
    worst = max(
        abs(lerw.lerw_weight_formula(problem, eta) - brute.weights.get(eta, 0.0))
        for eta in lerw.self_avoiding_paths(problem, "s0")
    )
    out.append(
        _report(
            "lerw-formula-brute",
            "erased-walk weights match the exhaustive walk sweep within its tail",
            worst,
            brute.tail_bound + 1e-13,
            fixture="complex5",
            max_steps=brute.max_steps,
        )
    )

    # Kirchhoff determinant counts equal literal enumeration
    docs = {
        "k3": fx.complete_graph(3),
        "c4": fx.cycle_graph(4),
        "k4": fx.complete_graph(4),
        "rand6a": fx.random_connected_graph(6, 5, seed=1),
        "rand6b": fx.random_connected_graph(6, 5, seed=2),
    }
    worst = 0.0
    for doc in docs.values():
        g = spanning.SimpleGraph.from_json_dict(doc)
        worst = max(
            worst,
            abs(spanning.tree_count_det(g) - len(spanning.enumerate_spanning_trees(g))),
        )
    out.append(
        _report(
            "matrix-tree-count",
            "determinant cofactor equals the enumerated spanning tree count",
            worst,
            0.5,
            graphs=sorted(docs),
        )
    )

    # every spanning tree is equally likely under the walk formula
    worst = 0.0
    for doc in (fx.complete_graph(3), fx.complete_graph(4)):
        g = spanning.SimpleGraph.from_json_dict(doc)
        trees = spanning.enumerate_spanning_trees(g)
        for t in trees:
            p = spanning.spanning_tree_probability(g, t)
            worst = max(worst, abs(p * len(trees) - 1.0))
    out.append(
        _report(
            "tree-probability-uniform",
            "replayed branch weights give 1/count for every spanning tree",
            worst,
            1e-8,
            graphs=["k3", "k4"],
        )
    )

    # doubling the intensity equals symmetrizing by loop reversal
    margin = -math.inf
    for q, f, t, L in (
        (herm2, [0.3, 0.3], 0.5, 14),
        (cpx3, [0.2, 0.05 + 0.1j, 0.15], 0.7, 10),
    ):
        chk = soup.reversal_symmetrization_check(q, f, intensity=t, max_len=L)
        margin = max(margin, abs(chk.closed - chk.summed) - chk.slack)
    out.append(
        _report(
            "reversal-transform",
            "doubled-intensity transform reaches the reversal-symmetrized loop sum"
            " (value is error minus certified slack)",
            margin,
            1e-12,
            fixtures=["herm2", "cpx3"],
        )
    )

    # closed occupation transform equals the truncated loop-measure sum
    f3 = np.array([0.2, 0.1 + 0.05j, 0.3])
    chk = soup.occupation_transform_loop_check(cpx3, f3, intensity=0.8, max_len=12)
    out.append(
        _report(
            "occupation-transform-loops",
            "determinant-ratio transform matches the literal loop-measure sum",
            abs(chk.closed - chk.summed),
            chk.slack + 1e-12,
            fixture="cpx3",
            max_len=12,
        )
    )

    # complex-rate Poisson algebra: convolution, variation, moment
    l1, l2 = 0.8 + 0.5j, 0.3 - 0.2j
    w1 = soup.complex_poisson_weights(l1, kmax=60)
    w2 = soup.complex_poisson_weights(l2, kmax=60)
    conv_err = np.max(
        np.abs(np.convolve(w1, w2)[:40] - soup.complex_poisson_weights(l1 + l2, kmax=39))
    )
    var_err = abs(
        np.abs(soup.complex_poisson_weights(l1)).sum()
        - soup.complex_poisson_variation(l1)
    )
    k = np.arange(61)
    mom_err = abs(
        (w1 * np.exp(0.3 * k)).sum() - np.exp(l1 * (math.exp(0.3) - 1))
    )
    out.append(
        _report(
            "poisson-closed-forms",
            "complex Poisson weights convolve, total-variate and transform in closed form",
            max(conv_err, var_err, mom_err),
            1e-10,
            rates=[repr(l1), repr(l2)],
        )
    )

    # squared Gaussian field vs occupation field, closed on both sides
    worst = 0.0
    for q in (fx.one_point(0.3), fx.two_state(), sym4):
        rng = substream(406)
        grid = [np.full(q.n, s) for s in (0.0, 0.1, 0.2, 0.5)]
        grid.append(rng.uniform(0.0, 1.0, q.n))
        for f in grid:
            worst = max(worst, gff.isomorphism_identity_check(q, f).error)
    out.append(
        _report(
            "gff-isomorphism-exact",
            "half-squared-field transform equals the intensity-1/2 occupation transform",
            worst,
            1e-9,
            fixtures=["one_point_q0.3", "two_state", "sym4"],
        )
    )

    # per-loop pushforward of the doubled measure
    worst = max(
        gff.pushforward_loop_check(herm2, max_len=8),
        gff.pushforward_loop_check(herm3, max_len=8),
    )
    out.append(
        _report(
            "pushforward-per-loop",
            "doubled loop measures sum over lifts to the reversal-symmetrized measure",
            worst,
            1e-10,
            fixtures=["herm2", "herm3"],
            max_len=8,
        )
    )

    # doubling squares determinants and preserves the occupation transform
    worst_det = 0.0
    for q in (herm2, herm3):
        det_doubled = lu_det(greens_exact(gff.double_weights(q)).entries)
        det_complex = lu_det(greens_exact(q).entries)
        worst_det = max(
            worst_det,
            abs(det_doubled - abs(det_complex) ** 2) / abs(det_complex) ** 2,
        )
    out.append(
        _report(
            "doubling-det-squared",
            "doubled Green's determinant is the squared modulus of the complex one",
            worst_det,
            1e-9,
            fixtures=["herm2", "herm3"],
        )
    )
    worst = max(
        gff.doubled_transform_identity_check(q, np.full(q.n, s)).error
        for q in (herm2, herm3)
        for s in (0.1, 0.4)
    )
    out.append(
        _report(
            "doubled-transform",
            "half-intensity doubled occupation transform equals the complex one",
            worst,
            1e-10,
            fixtures=["herm2", "herm3"],
        )
    )
    return out


# --- Monte Carlo checks --------------------------------------------------------


def _chisquare_uniform_pvalue(counts: np.ndarray) -> float:
    """Pearson chi-square p-value of ``counts`` against equal cell odds.

    The tail is the closed form of Abramowitz & Stegun §26.4
    (``_chi2_survival``). It is NaN where ``scipy.special.chdtrc`` is: at
    k = 0 degrees of freedom (one cell) and at a NaN statistic (all cells
    empty).
    """
    stat = ((counts - counts.mean()) ** 2 / counts.mean()).sum()
    return _chi2_survival(len(counts) - 1, float(stat))


def _chi2_survival(k: int, x: float) -> float:
    """P(X > x) for X chi-square with k degrees of freedom, in closed form.

    Abramowitz & Stegun §26.4 at integer k, with h = x/2: for even k
    exp(-h) * sum_{j < k/2} h^j / j!, and for odd k
    erfc(sqrt(h)) + sqrt(2x/pi) exp(-h) * sum_{r=1}^{(k-1)/2} x^(r-1) / (1*3*...*(2r-1)).
    Both sums have k // 2 positive terms, each the one before times h / j
    (even k) or h / (j + 1/2) (odd k), so no power of h overflows however
    far into the tail x lies. As with ``scipy.special.chdtrc``, a NaN or
    negative x gives NaN, and so does k < 1 (chdtrc agrees at x = 0, the
    only statistic one cell can give).
    """
    if k < 1 or not x >= 0:
        return math.nan
    if x == math.inf:
        return 0.0
    half = x / 2
    if k % 2:
        p, term, offset = math.erfc(math.sqrt(half)), math.sqrt(2 * x / math.pi), 0.5
    else:
        p, term, offset = 0.0, 1.0, 0.0
    term *= math.exp(-half)
    for j in range(k // 2):
        if j:
            term *= half / (j + offset)
        p += term
    return p


def _wilson_tree_counts(
    g: spanning.SimpleGraph, seed: int, block: int, samples: int
) -> list[int]:
    """How often each tree of ``enumerate_spanning_trees(g)`` is drawn by
    ``samples`` Wilson trees off substream (seed, block * _STREAM_BLOCK)."""
    drawn = Counter(
        spanning.WilsonSampler(g).trees(substream(seed, block * _STREAM_BLOCK), samples)
    )
    return [drawn[t] for t in spanning.enumerate_spanning_trees(g)]


def _soup_loop_counts(sampler: soup.SoupSampler, seed: int, samples: int) -> list[int]:
    """The loop counts of ``samples`` soups, soup i drawn off substream
    (seed, 3 * _STREAM_BLOCK + i).

    ``SoupSampler.sample`` draws its count first, as one Poisson variate of
    rate intensity * total mass, and each soup has a fresh substream, so the
    count is read off that one draw without walking the loops.
    """
    lam = sampler.intensity * sampler.total_mass
    rngs = Substreams(seed).over(range(3 * _STREAM_BLOCK, 3 * _STREAM_BLOCK + samples))
    return [rng.poisson(lam) for rng in rngs]


def _wilson_uniformity(
    doc: dict, label: str, config: RunConfig, block: int
) -> CheckReport:
    """Chi-square test of Wilson-sampled trees against the uniform law.

    On working code the check fails with probability ``p_value_floor``,
    about 1e-3 per check per seed at the default: ``wilson-uniform-k3`` at
    6000 samples failed at seeds 56 (p = 7.2e-4) and 149 (p = 4.2e-4) of
    seeds 0-199 under an earlier sampler.
    """
    g = spanning.SimpleGraph.from_json_dict(doc)
    counts = _wilson_tree_counts(g, config.seed, block, config.samples)
    p = _chisquare_uniform_pvalue(np.array(counts, dtype=float))
    return _report(
        f"wilson-uniform-{label}",
        "Wilson-sampled spanning trees pass a uniformity chi-square test",
        p,
        config.p_value_floor,
        comparator="gt",
        inconclusive=config.samples < MIN_CONCLUSIVE_SAMPLES,
        graph=label,
        seed=config.seed,
        samples=config.samples,
    )


def _wilson_k3(config: RunConfig) -> CheckReport:
    return _wilson_uniformity(fx.complete_graph(3), "k3", config, block=1)


def _wilson_k4(config: RunConfig) -> CheckReport:
    return _wilson_uniformity(fx.complete_graph(4), "k4", config, block=2)


def _soup_count_law(config: RunConfig) -> CheckReport:
    """Loop counts are Poisson with rate t * total mass."""
    n = config.samples
    sampler = soup.SoupSampler(fx.two_state(), 1.0)
    lam = sampler.intensity * sampler.total_mass
    counts = np.array(_soup_loop_counts(sampler, config.seed, n), dtype=float)
    mean_sig = abs(counts.mean() - lam) / math.sqrt(lam / n)
    var_sig = abs(counts.var() - lam) / math.sqrt(2 * lam**2 / n + lam / n)
    return _report(
        "soup-count-law",
        "soup loop counts have Poisson mean and variance",
        max(mean_sig, var_sig),
        config.sigma_tolerance,
        inconclusive=config.samples < MIN_CONCLUSIVE_SAMPLES,
        fixture="two_state",
        seed=config.seed,
        samples=n,
    )


def _occupation_transform_mc(config: RunConfig) -> CheckReport:
    """Empirical occupation transforms against the determinant ratio."""
    n = config.samples
    worst = 0.0
    for block, (name, q) in enumerate(
        [("one_point_q0.5", fx.one_point(0.5)), ("two_state", fx.two_state())], start=4
    ):
        fields = soup.sample_occupation_fields(
            q, 1.0, n, config.seed, start_index=block * _STREAM_BLOCK
        )
        grid = [np.full(q.n, s) for s in (0.2, 0.5, 1.0)]
        for f in grid:
            est = soup.empirical_transform(fields, f)
            closed = soup.nu_transform_closed(q, f, 1.0)
            worst = max(worst, abs(est.value - closed) / est.stderr)
    return _report(
        "occupation-transform-mc",
        "sampled occupation transforms sit within sigma of the closed form",
        worst,
        config.sigma_tolerance,
        inconclusive=config.samples < MIN_CONCLUSIVE_SAMPLES,
        fixtures=["one_point_q0.5", "two_state"],
        seed=config.seed,
        samples=n,
    )


def _isomorphism_mc(config: RunConfig) -> CheckReport:
    """Both sides of the isomorphism against the shared closed value."""
    n = config.samples
    res = gff.isomorphism_mc_check(
        fx.two_state(),
        [0.3, 0.2],
        n,
        substream(config.seed, 6 * _STREAM_BLOCK),
        soup_seed=config.seed,
    )
    sig = max(
        abs(res.gaussian_value - res.closed) / res.gaussian_stderr,
        abs(res.soup_value - res.closed) / res.soup_stderr,
    )
    return _report(
        "isomorphism-mc",
        "squared-field and occupation samples both reach the closed transform",
        sig,
        config.sigma_tolerance,
        inconclusive=config.samples < MIN_CONCLUSIVE_SAMPLES,
        fixture="two_state",
        seed=config.seed,
        samples=n,
    )


def _squared_field_moments(config: RunConfig) -> CheckReport:
    """One-site moment decomposition."""
    n = config.samples
    res = gff.chi_square_moment_check(
        fx.one_point(0.5),
        n,
        substream(config.seed, 7 * _STREAM_BLOCK),
        soup_seed=config.seed + 1,
    )
    return _report(
        "squared-field-moments",
        "one-site squared-field and occupation moments agree",
        res.max_sigmas(),
        config.sigma_tolerance,
        inconclusive=config.samples < MIN_CONCLUSIVE_SAMPLES,
        fixture="one_point_q0.5",
        seed=config.seed,
        samples=n,
    )


def _complex_field_covariance(config: RunConfig) -> CheckReport:
    """Complex field covariance conventions."""
    n = config.samples
    q = fx.hermitian_pair()
    model = gff.ComplexGFFModel.from_weights(q)
    psi = gff.complex_gff_sample(model, n, substream(config.seed, 8 * _STREAM_BLOCK))
    cov = psi.T @ psi.conj() / n
    pseudo = psi.T @ psi / n
    envelope = 2 * 2 * np.max(np.abs(model.greens)) / math.sqrt(n)
    sig = max(
        float(np.max(np.abs(cov - 2 * model.greens))) / envelope,
        float(np.max(np.abs(pseudo))) / envelope,
    )
    return _report(
        "complex-field-covariance",
        "complex field has covariance 2G and zero pseudo-covariance",
        sig,
        config.sigma_tolerance,
        inconclusive=config.samples < MIN_CONCLUSIVE_SAMPLES,
        fixture="herm2",
        seed=config.seed,
        samples=n,
    )


#: ``mc``'s suites in report order, each drawing off its own substreams, as
#: (suite, runs in the forked child); at 6000 samples the two forked ones
#: take about 48 of the 91 ms the seven take in one process (2-vCPU box)
_MC_SUITES = (
    (_wilson_k3, False),
    (_wilson_k4, False),
    (_soup_count_law, False),
    (_occupation_transform_mc, True),
    (_isomorphism_mc, False),
    (_squared_field_moments, True),
    (_complex_field_covariance, False),
)


def _mc_checks(config: RunConfig) -> list[CheckReport]:
    """Run ``_MC_SUITES`` and return their reports in suite order.

    Where the platform can fork, the forked suites run in one child process
    while this process runs the rest. The child pickles its reports, or the
    exception it raised with its traceback, into a pipe and leaves by
    ``os._exit``; it writes nothing else, so the merged report is the bytes
    one process writes. The child's exception is raised here, chained to
    the child's traceback.
    """
    if not hasattr(os, "fork"):
        return [suite(config) for suite, _ in _MC_SUITES]
    forked = [i for i, (_, in_child) in enumerate(_MC_SUITES) if in_child]
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps([_MC_SUITES[i][0](config) for i in forked])
            except Exception as exc:
                payload = pickle.dumps((exc, traceback.format_exc()))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        reports = [None if in_child else suite(config) for suite, in_child in _MC_SUITES]
    finally:
        with os.fdopen(read_fd, "rb") as pipe:
            payload = pipe.read()
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(
            f"the forked mc suites exited with status {code} before reporting"
        )
    result = pickle.loads(payload)
    if isinstance(result, tuple):
        exc, child_traceback = result
        raise exc from RuntimeError(f"in the forked mc suites:\n{child_traceback}")
    for i, report in zip(forked, result):
        reports[i] = report
    return reports


# --- sample dumps ---------------------------------------------------------------


def _load_matrix(path: str | None) -> WeightMatrix:
    if path is None:
        return fx.two_state()
    return WeightMatrix.from_json_file(path)


def _load_graph(path: str | None) -> spanning.SimpleGraph:
    if path is None:
        return spanning.SimpleGraph.from_json_dict(fx.complete_graph(4))
    return spanning.SimpleGraph.from_json_file(path)


def _sample_records(args, seed: int):
    def record(kind: str, i: int, **body) -> dict:
        # provenance: the master seed and the substream that drew the record
        return {"kind": kind, "index": i, "seed": seed, "stream": i, **body}

    n = args.n
    streams = Substreams(seed)
    if args.what == "tree":
        wilson = spanning.WilsonSampler(_load_graph(args.graph), root=args.root)
        for i in range(n):
            t = wilson.sample(streams(i))
            yield record("tree", i, edges=[list(e) for e in sorted(t)])
        return
    q = _load_matrix(args.matrix)
    if args.what == "gff":
        model = gff.GFFModel.from_weights(q)
        for i in range(n):
            phi = gff.gff_sample(model, 1, streams(i))[0]
            yield record("gff", i, values=[float(v) for v in phi])
        return
    sampler = soup.SoupSampler(q, args.intensity)
    for i in range(n):
        rng = streams(i)
        realization = sampler.sample(rng)
        if args.what == "soup":
            yield record(
                "soup",
                i,
                count=len(realization.loops),
                loops=[list(lo.sites) for lo in realization.loops],
            )
        else:  # occupation field
            counts = soup.discrete_occupation(realization, q.n)
            shape_add = args.intensity if args.trivial else 0.0
            values = soup.continuous_occupation(counts, shape_add, rng)
            yield record(
                "field",
                i,
                counts=[int(c) for c in counts],
                values=[float(v) for v in values],
            )


# --- command plumbing -------------------------------------------------------------


def _resolve_config(args) -> RunConfig:
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    elif args.config is None and os.environ.get(SEED_ENV_VAR):
        overrides["seed"] = int(os.environ[SEED_ENV_VAR])
    if getattr(args, "samples", None) is not None:
        overrides["samples"] = args.samples
    return replace(config, **overrides) if overrides else config


def _emit(reports: list[CheckReport], config: RunConfig, command: str, out: str | None) -> int:
    for rep in reports:
        print(rep.console_line())
    if out:
        # JSON lines: a header, then one line appended per check
        with open(out, "w", encoding="utf-8") as fh:
            header = {"command": command, "config": config.to_json_dict()}
            fh.write(json.dumps(header, sort_keys=True, allow_nan=False))
            fh.write("\n")
            for rep in reports:
                fh.write(json.dumps(rep.to_json_dict(), sort_keys=True, allow_nan=False))
                fh.write("\n")
    failed = sum(r.outcome == "fail" for r in reports)
    inconclusive = sum(r.outcome == "inconclusive" for r in reports)
    print(
        f"{len(reports)} checks: {len(reports) - failed - inconclusive} passed, "
        f"{failed} failed, {inconclusive} inconclusive"
    )
    if failed:
        return 1
    if inconclusive:
        return 3
    return 0


def _resolve_sample_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    return int(env) if env else 42


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopsoup",
        description="Verify loop-measure identities and sample their objects.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the deterministic identity checks")
    p_verify.add_argument("--config", help="JSON run configuration")
    p_verify.add_argument("--out", help="write the report as JSON")

    p_mc = sub.add_parser("mc", help="run the seeded Monte Carlo checks")
    p_mc.add_argument("--config", help="JSON run configuration")
    p_mc.add_argument("--seed", type=int, help="master seed (overrides config)")
    p_mc.add_argument("--samples", type=int, help="samples per check (overrides config)")
    p_mc.add_argument("--out", help="write the report as JSON")

    p_sample = sub.add_parser("sample", help="dump sampled objects as JSON lines")
    p_sample.add_argument(
        "--what", required=True, choices=["soup", "gff", "tree", "field"]
    )
    p_sample.add_argument("--n", type=int, required=True, help="number of samples")
    p_sample.add_argument("--seed", type=int, help="master seed")
    p_sample.add_argument("--matrix", help="weight matrix JSON (soup/gff/field)")
    p_sample.add_argument("--graph", help="graph JSON (tree)")
    p_sample.add_argument("--intensity", type=float, default=1.0, help="soup intensity")
    p_sample.add_argument("--root", type=int, default=0, help="tree root index")
    p_sample.add_argument(
        "--trivial", action="store_true", help="include the trivial field part"
    )
    p_sample.add_argument("--out", help="write JSON lines here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("verify", "mc"):
            config = _resolve_config(args)
            started = time.perf_counter()
            checks = _verify_checks if args.command == "verify" else _mc_checks
            code = _emit(checks(config), config, args.command, args.out or config.out)
            print(f"elapsed {time.perf_counter() - started:.1f}s", file=sys.stderr)
            return code
        if args.command == "sample":
            if args.n < 1:
                raise ValueError("--n must be at least 1")
            seed = _resolve_sample_seed(args)
            sink = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
            try:
                for record in _sample_records(args, seed):
                    sink.write(json.dumps(record, sort_keys=True))
                    sink.write("\n")
            finally:
                if args.out:
                    sink.close()
            return 0
    except (LoopSoupError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
