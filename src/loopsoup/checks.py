"""The identity checks behind ``loopsoup verify`` and ``loopsoup mc``.

Each check is a function of a ``RunConfig`` that yields one or more
``CheckReport``s: a measured value against a bound, either a p-value or
the largest ``error`` of the ``loops.Comparison``s, the two sides of each
identity, that the report keeps as its ``sides``.  ``VERIFY`` lists the
deterministic checks and ``MC`` the seeded Monte Carlo ones, in report
order.  ``run(table, config)`` runs a table's checks in this process and
returns their reports in that order.

Reports contain no timing data, so running a table twice with the same
configuration gives the same reports.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import fixtures as fx
from . import gff, lerw, loops, soup, spanning
from .errors import InvalidMatrix
from .loops import Comparison
from .matrices import (
    WeightMatrix,
    abs_resolvent_tail,
    det_laplacian,
    first_return_weight,
    greens_exact,
    lu_det,
)
from .rng import substream

__all__ = ["RunConfig", "CheckReport", "VERIFY", "MC", "run"]

#: Monte Carlo runs below this many samples are labeled inconclusive.
MIN_CONCLUSIVE_SAMPLES = 1000

# spacing of the Monte Carlo checks' substream indices; see ``MC``
_STREAM_BLOCK = 10**7


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by the verification commands; JSON round-trippable.

    ``fixtures`` lists weight-matrix JSON files for the core identity
    suites, which ``from_file`` reads relative to the config file; ``max_len``
    caps the truncated trace sums; ``out`` is a default report path,
    overridden by ``--out``.
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
            config = cls.from_json_dict(json.load(fh))
        base = os.path.dirname(path)
        return replace(config, fixtures=[os.path.join(base, p) for p in config.fixtures])


@dataclass(frozen=True)
class CheckReport:
    """One named check: a measured value compared against a bound.

    ``comparator`` is "le" (pass when value <= bound) or "gt" (pass when
    value > bound, used for p-values).  An "le" value is the largest
    ``error`` of the ``Comparison``s in ``sides``; a p-value has no sides.
    The sides stay out of the wire format, the console line, the repr and
    equality: two reports that differ only in their sides are equal.
    """

    check: str
    statement: str
    inputs_digest: str
    value: float
    bound: float
    comparator: str
    outcome: str
    sides: tuple[Comparison, ...] = field(default=(), repr=False, compare=False)

    def to_json_dict(self) -> dict:
        # strict JSON has no Infinity or NaN: a non-finite number is null
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.compare}
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
    measured,
    bound: float,
    comparator: str = "le",
    inconclusive: bool = False,
    **inputs,
) -> CheckReport:
    """``measured`` is an "le" check's comparisons, its value their largest
    error in the order given (max over a NaN depends on it), or a "gt"
    check's p-value."""
    if comparator == "le":
        sides = tuple(measured)
        value = max(c.error for c in sides)
    else:
        sides, value = (), measured
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
        sides=sides,
    )


# --- deterministic checks -----------------------------------------------------


def _core_identity_checks(name: str, q: WeightMatrix, max_len: int):
    """The matrix-level identity suite, applied to one acceptable matrix."""
    g = greens_exact(q)
    yield _report(
        f"{name}-greens-renewal",
        "G(x,x) * (1 - first_return(x)) equals 1 at every site",
        [
            Comparison(g[i, i] * (1 - first_return_weight(q, lab)), 1.0)
            for i, lab in enumerate(q.space.labels)
        ],
        1e-10,
        fixture=name,
    )
    target = 1.0 / det_laplacian(q)
    rng = substream(5, q.n)
    orderings = [list(q.space.labels)] + [
        list(rng.permutation(q.space.labels)) for _ in range(3)
    ]
    yield _report(
        f"{name}-det-product-orderings",
        "nested Green's diagonal products are order-free and invert det(I-Q)",
        [Comparison(loops.exp_meeting_mass_greens(q, o), target, abs(target)) for o in orderings],
        1e-9,
        fixture=name,
        orderings=len(orderings),
    )
    mass = loops.meeting_mass_truncated(q, q.space.labels, max_len)
    approx, bound = loops.exp_truncated(mass)
    yield _report(
        f"{name}-loop-mass-det",
        "exp of the length-truncated loop mass approaches 1/det(I-Q)",
        [Comparison(approx, target)],
        bound + 1e-12,
        inconclusive=math.isinf(bound),
        fixture=name,
        max_len=max_len,
    )
    subset = list(q.space.labels[: max(1, q.n // 2)])
    approx, bound = loops.exp_truncated(
        loops.meeting_mass_truncated(q, subset, max_len)
    )
    yield _report(
        f"{name}-meeting-mass-greens",
        "exp of the truncated meeting mass approaches the peeled product",
        [Comparison(approx, loops.exp_meeting_mass_greens(q, subset))],
        bound + 1e-12,
        inconclusive=math.isinf(bound),
        fixture=name,
        subset=subset,
        max_len=max_len,
    )


def _extra_fixture_checks(config: RunConfig):
    """Gate and verify user-supplied matrices; unacceptable ones abort."""
    for k, path in enumerate(config.fixtures):
        q = WeightMatrix.from_json_file(path)
        yield from _core_identity_checks(f"extra{k}", q, config.max_len)


def _first_return_series(q: WeightMatrix, site: str, length: int) -> tuple[complex, float]:
    """First-return loops at ``site`` of at most ``length`` steps, summed per
    length k >= 2 as Q(x, A) Q_A^(k-2) Q(A, x) over the other sites A, and
    the bound (|Q|^(length+1) (I - |Q|)^{-1})_xx on the longer ones, which
    holds for acceptable Q (the caller's gate)."""
    i = q.space.index(site)
    others = [j for j in range(q.n) if j != i]
    sub = q.entries[np.ix_(others, others)]
    row, col = q.entries[i, others], q.entries[others, i]
    total = complex(q.entries[i, i])
    power = np.eye(len(others), dtype=np.complex128)
    for _ in range(2, length + 1):
        total += row @ power @ col
        power = power @ sub
    tail = abs_resolvent_tail(np.abs(q.entries), length + 1, np.eye(q.n)[:, i])
    return total, float(tail[i])


def _builtin_fixture_checks(config: RunConfig):
    cpx4 = fx.random_acceptable(4, 0.6, seed=904, complex_entries=True)
    yield from _core_identity_checks("two-state", fx.two_state(), config.max_len)
    yield from _core_identity_checks("cpx4", cpx4, config.max_len)

    # brute-forced first return converges to the closed value
    exact = first_return_weight(cpx4, "s1")
    partial, tail = _first_return_series(cpx4, "s1", length=60)
    yield _report(
        "first-return-series",
        "partial first-return sums land within their certified tail",
        [Comparison(partial, exact)],
        tail + 1e-13,
        fixture="cpx4",
        length=60,
    )


def _lerw_check(config: RunConfig):
    # erased-walk closed formula against the literal walk sweep, tail ~1e-14 at 40 steps
    problem = fx.boundary_problems()["complex5"]
    brute = lerw.lerw_weights_bruteforce(problem, "s0", max_steps=40)
    yield _report(
        "lerw-formula-brute",
        "erased-walk weights match the exhaustive walk sweep within its tail",
        [
            Comparison(lerw.lerw_weight_formula(problem, eta), brute.weights.get(eta, 0.0))
            for eta in lerw.self_avoiding_paths(problem, "s0")
        ],
        brute.tail_bound + 1e-13,
        fixture="complex5",
        max_steps=40,
    )


def _spanning_tree_checks(config: RunConfig):
    docs = {
        "k3": fx.complete_graph(3),
        "c4": fx.cycle_graph(4),
        "k4": fx.complete_graph(4),
        "rand6a": fx.random_connected_graph(6, 5, seed=1),
        "rand6b": fx.random_connected_graph(6, 5, seed=2),
    }
    graphs = {name: spanning.SimpleGraph.from_json_dict(doc) for name, doc in docs.items()}
    trees = {name: spanning.enumerate_spanning_trees(g) for name, g in graphs.items()}

    # Kirchhoff determinant counts equal literal enumeration
    yield _report(
        "matrix-tree-count",
        "determinant cofactor equals the enumerated spanning tree count",
        [Comparison(spanning.tree_count_det(graphs[k]), len(trees[k])) for k in docs],
        0.5,
        graphs=sorted(docs),
    )

    # every spanning tree is equally likely under the walk formula, each
    # graph's trees replayed on the one sampler and its one inverse
    samplers = {k: spanning.WilsonSampler(graphs[k]) for k in ("k3", "k4")}
    yield _report(
        "tree-probability-uniform",
        "replayed branch weights give 1/count for every spanning tree",
        [
            Comparison(samplers[k].probability(t) * len(trees[k]), 1.0)
            for k in samplers
            for t in trees[k]
        ],
        1e-8,
        graphs=["k3", "k4"],
    )


def _transform_checks(config: RunConfig):
    # one object per fixture: each keeps its acceptability certificate
    cpx3 = fx.random_acceptable(3, 0.5, seed=301, complex_entries=True)
    sym4 = fx.random_symmetric_positive(4, 0.6, seed=20240601)
    herm2 = fx.hermitian_pair()
    herm3 = fx.random_hermitian(3, 0.55, seed=411)

    # doubling the intensity equals symmetrizing by loop reversal
    yield _report(
        "reversal-transform",
        "doubled-intensity transform reaches the reversal-symmetrized loop sum"
        " (value is error minus certified slack)",
        [
            soup.reversal_symmetrization_check(q, f, intensity=t, max_len=L)
            for q, f, t, L in (
                (herm2, [0.3, 0.3], 0.5, 14),
                (cpx3, [0.2, 0.05 + 0.1j, 0.15], 0.7, 10),
            )
        ],
        1e-12,
        fixtures=["herm2", "cpx3"],
    )

    # closed occupation transform equals the truncated loop-measure sum
    f3 = np.array([0.2, 0.1 + 0.05j, 0.3])
    chk = soup.occupation_transform_loop_check(cpx3, f3, intensity=0.8, max_len=12)
    yield _report(
        "occupation-transform-loops",
        "determinant-ratio transform matches the literal loop-measure sum",
        [Comparison(chk.lhs, chk.rhs)],
        chk.slack + 1e-12,
        fixture="cpx3",
        max_len=12,
    )

    # complex-rate Poisson algebra: convolution, variation, moment
    l1, l2 = 0.8 + 0.5j, 0.3 - 0.2j
    w1 = soup.complex_poisson_weights(l1, kmax=60)
    w2 = soup.complex_poisson_weights(l2, kmax=60)
    k = np.arange(61)
    yield _report(
        "poisson-closed-forms",
        "complex Poisson weights convolve, total-variate and transform in closed form",
        [
            Comparison(np.convolve(w1, w2)[:40], soup.complex_poisson_weights(l1 + l2, kmax=39)),
            Comparison(
                np.abs(soup.complex_poisson_weights(l1)).sum(),
                soup.complex_poisson_variation(l1),
            ),
            Comparison((w1 * np.exp(0.3 * k)).sum(), np.exp(l1 * (math.exp(0.3) - 1))),
        ],
        1e-10,
        rates=[repr(l1), repr(l2)],
    )

    # squared Gaussian field vs occupation field, closed on both sides
    sides = []
    for q in (fx.one_point(0.3), fx.two_state(), sym4):
        rng = substream(406)
        grid = [np.full(q.n, s) for s in (0.0, 0.1, 0.2, 0.5)]
        grid.append(rng.uniform(0.0, 1.0, q.n))
        for f in grid:
            sides.append(
                Comparison(gff.gff_transform_closed(q, f), soup.rho_transform_closed(q, f, 0.5))
            )
    yield _report(
        "gff-isomorphism-exact",
        "half-squared-field transform equals the intensity-1/2 occupation transform",
        sides,
        1e-9,
        fixtures=["one_point_q0.3", "two_state", "sym4"],
    )

    # per-loop pushforward of the doubled measure, its largest error per fixture
    yield _report(
        "pushforward-per-loop",
        "doubled loop measures sum over lifts to the reversal-symmetrized measure",
        [Comparison(gff.pushforward_loop_check(q, max_len=8), 0.0) for q in (herm2, herm3)],
        1e-10,
        fixtures=["herm2", "herm3"],
        max_len=8,
    )

    # doubling squares determinants and preserves the occupation transform
    doubled = [(q, gff.double_weights(q)) for q in (herm2, herm3)]
    sides = []
    for q, q2 in doubled:
        squared = abs(lu_det(greens_exact(q))) ** 2
        sides.append(Comparison(lu_det(greens_exact(q2)), squared, squared))
    yield _report(
        "doubling-det-squared",
        "doubled Green's determinant is the squared modulus of the complex one",
        sides,
        1e-9,
        fixtures=["herm2", "herm3"],
    )
    # det [[M_R, -M_I], [M_I, M_R]] = |det M|^2, so the doubled soup at
    # intensity 1/2, tested against f copied to both halves, is the complex
    # one at intensity 1
    yield _report(
        "doubled-transform",
        "half-intensity doubled occupation transform equals the complex one",
        [
            Comparison(
                soup.rho_transform_closed(q2, np.full(2 * q.n, s), 0.5),
                soup.rho_transform_closed(q, np.full(q.n, s), 1.0),
            )
            for q, q2 in doubled
            for s in (0.1, 0.4)
        ],
        1e-10,
        fixtures=["herm2", "herm3"],
    )


#: ``verify``'s checks in report order. User fixtures come first, so an
#: unacceptable one aborts the run before the built-in suites.
VERIFY = (
    _extra_fixture_checks,
    _builtin_fixture_checks,
    _lerw_check,
    _spanning_tree_checks,
    _transform_checks,
)


# --- Monte Carlo checks --------------------------------------------------------


def _mc_report(
    config: RunConfig,
    check: str,
    statement: str,
    measured,
    comparator: str = "le",
    **inputs,
) -> CheckReport:
    """A sampled check's report: a p-value ("gt") against ``p_value_floor``
    or a sigma count ("le") against ``sigma_tolerance``, inconclusive below
    ``MIN_CONCLUSIVE_SAMPLES``, its digest keyed by the seed and sample count."""
    return _report(
        check,
        statement,
        measured,
        config.p_value_floor if comparator == "gt" else config.sigma_tolerance,
        comparator=comparator,
        inconclusive=config.samples < MIN_CONCLUSIVE_SAMPLES,
        seed=config.seed,
        samples=config.samples,
        **inputs,
    )


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
    one batch of ``samples`` Wilson trees off substream
    (seed, block * _STREAM_BLOCK).

    Each tree's successor row is coded as sum_x succ[x] * n^x, and only the
    distinct codes are turned back into edge sets; the enumeration's cap of
    8 vertices keeps n^n, and so every code, within int64.
    """
    trees = spanning.enumerate_spanning_trees(g)
    succ = spanning.WilsonSampler(g).batch(substream(seed, block * _STREAM_BLOCK), samples)
    _, first, counts = np.unique(
        succ @ g.n ** np.arange(g.n, dtype=np.int64), return_index=True, return_counts=True
    )
    drawn = {
        frozenset((min(x, s), max(x, s)) for x, s in enumerate(row) if x != s): count
        for row, count in zip(succ[first].tolist(), counts.tolist())
    }
    return [drawn.get(t, 0) for t in trees]


def _soup_loop_counts(sampler: soup.SoupSampler, seed: int, samples: int) -> np.ndarray:
    """The loop counts of ``samples`` soups off substream
    (seed, 3 * _STREAM_BLOCK), as one Poisson array of rate intensity *
    total mass: the first draw of ``SoupSampler.occupations`` on that
    stream, read without walking the loops.
    """
    lam = sampler.intensity * sampler.total_mass
    return substream(seed, 3 * _STREAM_BLOCK).poisson(lam, samples)


def _wilson_uniformity(config: RunConfig):
    """Chi-square tests of Wilson-sampled trees of K3 and K4 against the
    uniform law.

    On working code each check fails with probability ``p_value_floor``,
    about 1e-3 per check per seed at the default: of seeds 0-199 at 6000
    samples, ``wilson-uniform-k4`` fails at seed 13 (p = 4.2e-4), and
    ``wilson-uniform-k3`` failed at seeds 56 (p = 7.2e-4) and 149
    (p = 4.2e-4) under an earlier sampler.
    """
    for block, k in enumerate((3, 4), start=1):
        g = spanning.SimpleGraph.from_json_dict(fx.complete_graph(k))
        counts = _wilson_tree_counts(g, config.seed, block, config.samples)
        yield _mc_report(
            config,
            f"wilson-uniform-k{k}",
            "Wilson-sampled spanning trees pass a uniformity chi-square test",
            _chisquare_uniform_pvalue(np.array(counts, dtype=float)),
            comparator="gt",
            graph=f"k{k}",
        )


def _soup_count_law(config: RunConfig):
    """Loop counts are Poisson with rate t * total mass."""
    n = config.samples
    sampler = soup.SoupSampler(fx.two_state(), 1.0)
    lam = sampler.intensity * sampler.total_mass
    counts = _soup_loop_counts(sampler, config.seed, n).astype(float)
    yield _mc_report(
        config,
        "soup-count-law",
        "soup loop counts have Poisson mean and variance",
        [
            Comparison(counts.mean(), lam, math.sqrt(lam / n)),
            Comparison(counts.var(), lam, math.sqrt(2 * lam**2 / n + lam / n)),
        ],
        fixture="two_state",
    )


def _occupation_transform_mc(config: RunConfig):
    """Empirical occupation transforms against the determinant ratio."""
    sides = []
    for block, (name, q) in enumerate(
        [("one_point_q0.5", fx.one_point(0.5)), ("two_state", fx.two_state())], start=4
    ):
        fields = soup.sample_occupation_fields(
            q, 1.0, config.samples, config.seed, start_index=block * _STREAM_BLOCK
        )
        grid = [np.full(q.n, s) for s in (0.2, 0.5, 1.0)]
        for f in grid:
            est = soup.empirical_transform(fields, f)
            sides.append(Comparison(est.value, soup.nu_transform_closed(q, f, 1.0), est.stderr))
    yield _mc_report(
        config,
        "occupation-transform-mc",
        "sampled occupation transforms sit within sigma of the closed form",
        sides,
        fixtures=["one_point_q0.5", "two_state"],
    )


def _isomorphism_sides(
    q: WeightMatrix, f, n: int, field_rng: np.random.Generator, soup_seed: int
) -> list[Comparison]:
    """The two sampled sides of the isomorphism, E[exp(-<f, .>)] of n fields
    each, against their shared closed value in their standard errors.

    The Gaussian side squares and halves its field; the soup side runs at
    intensity 1/2 with the trivial part included.
    """
    phi = gff.gff_sample(gff.GFFModel.from_weights(q), n, field_rng)
    gauss = soup.empirical_transform(0.5 * phi**2, f)
    fields = soup.sample_occupation_fields(q, 0.5, n, soup_seed, trivial=True)
    occupation = soup.empirical_transform(fields, f)
    closed = gff.gff_transform_closed(q, f)
    return [Comparison(est.value, closed, est.stderr) for est in (gauss, occupation)]


def _isomorphism_mc(config: RunConfig):
    """Both sides of the isomorphism against the shared closed value."""
    yield _mc_report(
        config,
        "isomorphism-mc",
        "squared-field and occupation samples both reach the closed transform",
        _isomorphism_sides(
            fx.two_state(),
            [0.3, 0.2],
            config.samples,
            substream(config.seed, 6 * _STREAM_BLOCK),
            soup_seed=config.seed,
        ),
        fixture="two_state",
    )


def _moment_sides(
    q: WeightMatrix, n: int, field_rng: np.random.Generator, soup_seed: int
) -> list[Comparison]:
    """The first two moments of n one-site half-squared Gaussian and
    occupation fields against their closed values in their standard errors.

    With g = G(x, x), half a squared N(0, g) draw is Gamma(1/2, g)-shaped:
    mean g/2 and second moment 3 g^2 / 4.  The occupation field of the soup
    at intensity 1/2 (trivial part included) must reproduce both.
    """
    if q.n != 1:
        raise InvalidMatrix("the moment decomposition check is one-site only")
    g = float(greens_exact(q).real[0, 0])
    phi = gff.gff_sample(gff.GFFModel.from_weights(q), n, field_rng)[:, 0]
    x = 0.5 * phi**2
    y = soup.sample_occupation_fields(q, 0.5, n, soup_seed, trivial=True)[:, 0]
    # Gaussian mean and second moment, then the soup's: a NaN ratio makes
    # max depend on the order, which the reports have always had.  One draw
    # has no spread to estimate, so its standard error is 0.
    return [
        Comparison(float(m.mean()), target, float(m.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0)
        for field in (x, y)
        for m, target in ((field, g / 2), (field**2, 0.75 * g * g))
    ]


def _squared_field_moments(config: RunConfig):
    """One-site moment decomposition."""
    yield _mc_report(
        config,
        "squared-field-moments",
        "one-site squared-field and occupation moments agree",
        _moment_sides(
            fx.one_point(0.5),
            config.samples,
            substream(config.seed, 7 * _STREAM_BLOCK),
            soup_seed=config.seed + 1,
        ),
        fixture="one_point_q0.5",
    )


def _complex_field_covariance(config: RunConfig):
    """Complex field covariance conventions."""
    n = config.samples
    q = fx.hermitian_pair()
    model = gff.ComplexGFFModel.from_weights(q)
    psi = gff.complex_gff_sample(model, n, substream(config.seed, 8 * _STREAM_BLOCK))
    cov = psi.T @ psi.conj() / n
    pseudo = psi.T @ psi / n
    envelope = 2 * 2 * np.max(np.abs(model.greens)) / math.sqrt(n)
    yield _mc_report(
        config,
        "complex-field-covariance",
        "complex field has covariance 2G and zero pseudo-covariance",
        [Comparison(cov, 2 * model.greens, envelope), Comparison(pseudo, 0.0, envelope)],
        fixture="herm2",
    )


#: ``mc``'s checks in report order.
#:
#: Each suite draws from one substream, its index b * _STREAM_BLOCK for
#: its block b of a seed: Wilson K3 block 1 and K4 block 2, the count law
#: block 3, the occupation transforms blocks 4 and 5, the isomorphism's
#: Gaussian side block 6, the moments' Gaussian side block 7, and the
#: complex field block 8. The isomorphism's soup side draws from index 0
#: of ``seed`` and the moments' soup side from index 0 of ``seed + 1``.
#: Each index owns 2**192 draws, so no two checks share a draw however
#: many samples they take.
MC = (
    _wilson_uniformity,
    _soup_count_law,
    _occupation_transform_mc,
    _isomorphism_mc,
    _squared_field_moments,
    _complex_field_covariance,
)


def run(table, config: RunConfig) -> list[CheckReport]:
    """Run ``table``'s checks in order and return their reports."""
    return [rep for check in table for rep in check(config)]
