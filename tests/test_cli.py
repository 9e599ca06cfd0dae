import json
import math
import os
import subprocess
import sys
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import loopsoup
from loopsoup import fixtures as fx
from loopsoup import soup, spanning
from loopsoup.checks import (
    _STREAM_BLOCK,
    CheckReport,
    RunConfig,
    _chi2_survival,
    _chisquare_uniform_pvalue,
    _soup_loop_counts,
    _wilson_tree_counts,
)
from loopsoup.cli import main
from loopsoup.errors import NumericalFailure
from loopsoup.rng import SEED_ENV_VAR, substream


DATA = Path(__file__).parent / "data"


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _reject_constant(token):
    raise ValueError(f"report is not strict JSON: bare {token}")


def read_report(path):
    # strict: Infinity, -Infinity and NaN are Python's extensions, not JSON
    text = path.read_text().splitlines()
    lines = [json.loads(ln, parse_constant=_reject_constant) for ln in text]
    return lines[0], lines[1:]


class _FirstDraw:
    """A generator that keeps what its first draw returned as ``first``."""

    def __init__(self, rng):
        self._rng, self.first = rng, None

    def __getattr__(self, name):
        draw = getattr(self._rng, name)

        def recorded(*args):
            out = draw(*args)
            if self.first is None:
                self.first = out
            return out

        return recorded


class TestRunConfig:
    def test_round_trip(self):
        cfg = RunConfig(
            seed=9,
            samples=2500,
            max_len=11,
            sigma_tolerance=3.5,
            p_value_floor=0.01,
            fixtures=("a.json", "b.json"),
            out="report.jsonl",
        )
        assert RunConfig.from_json_dict(cfg.to_json_dict()) == cfg

    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.seed == 42
        assert cfg.samples >= 1000

    @pytest.mark.parametrize(
        "bad",
        [
            {"seed": -1},
            {"seed": 1.5},
            {"samples": 0},
            {"samples": "many"},
            {"max_len": 0},
            {"sigma_tolerance": 0.0},
            {"p_value_floor": 0.0},
            {"p_value_floor": 1.0},
            {"fixtures": [3]},
            {"out": 7},
        ],
    )
    def test_rejects_bad_values(self, bad):
        with pytest.raises((ValueError, TypeError)):
            RunConfig(**bad)

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_json_dict({"seed": 1, "tolerance": 2.0})

    def test_rejects_non_object(self):
        with pytest.raises(ValueError):
            RunConfig.from_json_dict([1, 2, 3])

    def test_from_file(self, tmp_path):
        path = write_json(tmp_path / "cfg.json", {"seed": 5, "samples": 1234})
        cfg = RunConfig.from_file(path)
        assert cfg.seed == 5
        assert cfg.samples == 1234


class TestBadDocuments:
    """A malformed input document is an input error, exit code 2, never a
    failed check (1) or a run (0)."""

    @pytest.mark.parametrize(
        "doc",
        [
            {"sigma_tolerance": "5"},
            {"p_value_floor": None},
            {"seed": True},
            # written as the bare token Infinity, which Python's json reads;
            # no sigma reaches it, so every check would pass
            {"sigma_tolerance": float("inf")},
        ],
        ids=["string-tolerance", "null-floor", "bool-seed", "infinite-tolerance"],
    )
    def test_bad_config_exits_2(self, tmp_path, capsys, doc):
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert main(["verify", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("intensity", ["0", "nan", "inf"])
    def test_bad_intensity_exits_2(self, intensity, capsys):
        argv = ["sample", "--what", "soup", "--n", "2", "--intensity", intensity]
        assert main(argv) == 2
        assert f"intensity must be positive and finite, got {float(intensity)}" in (
            capsys.readouterr().err
        )

    def test_fixtures_string_is_not_split_into_paths(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"fixtures": "x.json"})
        assert main(["verify", "--config", cfg]) == 2
        assert "list of paths" in capsys.readouterr().err

    @pytest.fixture(params=[5, [["x"], ["y"]]], ids=["number", "lists"])
    def bad_labels(self, tmp_path, request):
        doc = fx.two_state().to_json_dict()
        doc["labels"] = request.param
        return write_json(tmp_path / "labels.json", doc)

    def test_matrix_labels_not_names_exit_2_in_sample(self, bad_labels, capsys):
        argv = ["sample", "--what", "field", "--n", "2", "--matrix", bad_labels]
        assert main(argv) == 2
        assert "labels" in capsys.readouterr().err

    def test_matrix_labels_not_names_exit_2_as_fixture(self, tmp_path, bad_labels, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"fixtures": [bad_labels]})
        assert main(["verify", "--config", cfg]) == 2
        assert "labels" in capsys.readouterr().err

    @pytest.mark.parametrize("end", [1.0, True], ids=["float", "bool"])
    def test_graph_endpoint_that_is_no_vertex_exits_2(self, tmp_path, end, capsys):
        doc = {"vertices": ["a", "b", "c"], "edges": [[0, end], [1, 2]]}
        path = write_json(tmp_path / "g.json", doc)
        argv = ["sample", "--what", "tree", "--n", "1", "--graph", path]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "vertices, edges",
        [("abc", [[0, 1], [1, 2]]), ([1, [2]], [[0, 1]])],
        ids=["string", "not-names"],
    )
    def test_graph_vertices_not_names_exit_2(self, tmp_path, vertices, edges, capsys):
        # a string is no list of vertices, and a vertex is named by a string
        path = write_json(tmp_path / "g.json", {"vertices": vertices, "edges": edges})
        argv = ["sample", "--what", "tree", "--n", "1", "--graph", path]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestCheckReport:
    def test_console_line_shows_comparator(self):
        rep = CheckReport(
            check="demo",
            statement="",
            inputs_digest="ab",
            value=0.5,
            bound=0.001,
            comparator="gt",
            outcome="pass",
        )
        line = rep.console_line()
        assert "demo" in line and ">" in line and "PASS" in line


class TestVerifyCommand:
    def test_all_checks_pass(self, tmp_path, capsys):
        out = tmp_path / "report.jsonl"
        code = main(["verify", "--out", str(out)])
        assert code == 0
        header, checks = read_report(out)
        assert header["command"] == "verify"
        assert len(checks) >= 9
        assert all(c["outcome"] == "pass" for c in checks)
        lines = capsys.readouterr().out.splitlines()
        assert sum(1 for ln in lines if ln.startswith("[PASS")) == len(checks)
        # no timing data in the serialized report
        text = out.read_text()
        assert "elapsed" not in text and "runtime" not in text
        for check in checks:
            assert set(check) == {
                "check",
                "statement",
                "inputs_digest",
                "value",
                "bound",
                "comparator",
                "outcome",
            }

    def test_loop_sum_checks_are_pinned(self, tmp_path, capsys):
        # the literal loop sums may move only in their last bits; the check
        # list is pinned in TestReportLines
        out = tmp_path / "report.jsonl"
        assert main(["verify", "--out", str(out)]) == 0
        _, checks = read_report(out)
        by_name = {c["check"]: c for c in checks}
        for name, value, bound in (
            ("reversal-transform", -2.8771447067167255e-07, 1e-12),
            ("occupation-transform-loops", 1.7208164689979835e-10, 3.3681186082282455e-05),
        ):
            assert abs(by_name[name]["value"] - value) <= 1e-15
            assert abs(by_name[name]["bound"] - bound) <= 1e-15
        # the largest error over the lowest-site paths of loops.prefix_walk,
        # whatever their order
        assert by_name["pushforward-per-loop"]["value"] == 2.3129646346357427e-18
        assert by_name["pushforward-per-loop"]["bound"] == 1e-10

    def test_extra_fixture_is_checked(self, tmp_path, capsys):
        mat = write_json(tmp_path / "sym.json", fx.two_state().to_json_dict())
        cfg = write_json(tmp_path / "cfg.json", {"fixtures": [mat], "max_len": 10})
        out = tmp_path / "report.jsonl"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        _, checks = read_report(out)
        extras = [c for c in checks if c["check"].startswith("extra0-")]
        assert len(extras) == 4
        assert all(c["outcome"] == "pass" for c in extras)

    def test_adversarial_fixtures_pass_and_rerun_identically(self, tmp_path, capsys):
        # non-normal triangular, reducible block, periodic cycle and dense
        # 32-site fixtures; the config lists them relative to itself
        cfg = str(DATA / "adversarial_verify.json")
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["verify", "--config", cfg, "--out", str(a)]) == 0
        assert main(["verify", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        _, checks = read_report(a)
        extras = [c for c in checks if c["check"].startswith("extra")]
        assert len(extras) == 16
        assert all(c["outcome"] == "pass" for c in extras)

    def test_config_fixtures_are_read_relative_to_the_config(self, monkeypatch, tmp_path, capsys):
        # run from a directory that holds none of the fixtures; an absolute
        # config path then gives absolute fixture paths in the header
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "report.jsonl"
        assert main(["verify", "--config", str(DATA / "adversarial_verify.json"), "--out", str(out)]) == 0
        header, checks = read_report(out)
        names = ["nonnormal5.json", "reducible8.json", "cycle5.json", "dense32.json"]
        assert header["config"]["fixtures"] == [str(DATA / name) for name in names]
        extras = [c for c in checks if c["check"].startswith("extra")]
        assert len(extras) == 16
        assert all(c["outcome"] == "pass" for c in extras)

    def test_overflowed_tail_is_inconclusive(self, tmp_path, capsys):
        # rho(|Q|) = 0.99999: e^tail overflows, so the truncated loop-mass
        # checks certify nothing, and the report is still written
        doc = {
            "labels": ["a", "b"],
            "entries": [[[0.0, 0.0], [0.99999, 0.0]], [[0.99999, 0.0], [0.0, 0.0]]],
        }
        mat = write_json(tmp_path / "near.json", doc)
        cfg = write_json(tmp_path / "cfg.json", {"fixtures": [mat]})
        out = tmp_path / "report.jsonl"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 3
        _, checks = read_report(out)
        outcomes = {c["check"]: c["outcome"] for c in checks}
        assert outcomes.pop("extra0-loop-mass-det") == "inconclusive"
        assert outcomes.pop("extra0-meeting-mass-greens") == "inconclusive"
        assert set(outcomes.values()) == {"pass"}
        # the infinite bound is written as null
        bounds = {c["check"]: c["bound"] for c in checks}
        assert bounds["extra0-loop-mass-det"] is None
        assert bounds["extra0-meeting-mass-greens"] is None

    def test_unacceptable_fixture_is_input_error(self, tmp_path, capsys):
        doc = {
            "labels": ["a", "b"],
            "entries": [[[0.0, 0.0], [1.2, 0.0]], [[1.2, 0.0], [0.0, 0.0]]],
        }
        mat = write_json(tmp_path / "big.json", doc)
        cfg = write_json(tmp_path / "cfg.json", {"fixtures": [mat]})
        assert main(["verify", "--config", cfg]) == 2
        assert "spectral radius" in capsys.readouterr().err


class TestMcCommand:
    def test_passes_and_reruns_bit_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["mc", "--samples", "1500", "--seed", "3", "--out", str(a)]) == 0
        capsys.readouterr()
        assert main(["mc", "--samples", "1500", "--seed", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_small_run_is_inconclusive(self, tmp_path, capsys):
        out = tmp_path / "small.jsonl"
        code = main(["mc", "--samples", "120", "--seed", "3", "--out", str(out)])
        assert code == 3
        _, checks = read_report(out)
        assert all(c["outcome"] == "inconclusive" for c in checks)

    def test_runs_without_spread_are_inconclusive(self):
        # a sample of one has no spread, and a few often have none: every
        # seed must still report, each line inconclusive, and warn of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for samples in (1, 2, 10):
                for seed in range(60):
                    config = RunConfig(seed=seed, samples=samples)
                    reports = loopsoup.checks.run(loopsoup.checks.MC, config)
                    assert all(r.outcome == "inconclusive" for r in reports), (samples, seed)

    def test_one_draw_has_infinite_moment_sigmas(self, capsys):
        # one draw has no standard error, so its sigma count is inf, not nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["mc", "--seed", "0", "--samples", "1"]) == 3
        captured = capsys.readouterr()
        assert "[INCONCLUSIVE] squared-field-moments: value=inf" in captured.out
        assert "Warning" not in captured.err

    def test_zero_standard_error_exits_3(self, capsys):
        # the batch of ten two-state soups that seed 0's occupation transform
        # draws is all empty, so that transform has zero spread and an
        # infinite sigma count
        assert main(["mc", "--seed", "0", "--samples", "10"]) == 3
        out = capsys.readouterr().out
        assert "[INCONCLUSIVE] occupation-transform-mc: value=inf" in out

    def test_seed_change_keeps_verdicts(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["mc", "--samples", "1500", "--seed", "3", "--out", str(a)]) == 0
        assert main(["mc", "--samples", "1500", "--seed", "4", "--out", str(b)]) == 0
        _, checks_a = read_report(a)
        _, checks_b = read_report(b)
        assert [c["outcome"] for c in checks_a] == [c["outcome"] for c in checks_b]
        assert [c["inputs_digest"] for c in checks_a] != [
            c["inputs_digest"] for c in checks_b
        ]

    def test_report_values_are_pinned(self, tmp_path, capsys):
        # each check's value regenerates from the seed alone; the two Wilson
        # values are those of one lockstep batch of trees per graph, and the
        # three soup values those of the batched soups, one stream per suite
        out = tmp_path / "mc.jsonl"
        assert main(["mc", "--seed", "42", "--samples", "1000", "--out", str(out)]) == 0
        _, checks = read_report(out)
        assert {c["check"]: c["value"] for c in checks} == {
            "wilson-uniform-k3": 0.31949936265070866,
            "wilson-uniform-k4": 0.8812518962378303,
            "soup-count-law": 1.9268734338414457,
            "occupation-transform-mc": 1.9687944271502797,
            "isomorphism-mc": 2.0141472176966846,
            "squared-field-moments": 1.4592013468651948,
            "complex-field-covariance": 0.5241377132275525,
        }

    @pytest.mark.parametrize(
        "doc, block, counts",
        [
            (fx.complete_graph(3), 1, [1996, 2008, 1996]),
            (
                fx.complete_graph(4),
                2,
                [374, 370, 406, 357, 357, 394, 373, 351,
                 389, 342, 358, 401, 396, 386, 401, 345],
            ),
        ],
        ids=["k3", "k4"],
    )
    def test_wilson_tree_counts_are_pinned(self, doc, block, counts):
        # the integer counts behind wilson-uniform-k3 and -k4 at seed 42 with
        # 6000 samples, per tree in enumerate_spanning_trees order; integers,
        # so they hold on every platform
        g = spanning.SimpleGraph.from_json_dict(doc)
        assert _wilson_tree_counts(g, 42, block, 6000) == counts

    def test_soup_loop_counts_are_the_sampled_soups(self):
        # the count law reads its loop counts off the first draw of the
        # batch of soups on its stream; every two-state loop steps x, y, x,
        # ... and back, so a soup of c loops visits each site c times or more
        sampler = soup.SoupSampler(fx.two_state(), 1.0)
        rng = _FirstDraw(substream(42, 3 * _STREAM_BLOCK))
        visits, _ = sampler.occupations(rng, 200, 0.0)
        counts = _soup_loop_counts(sampler, 42, 200)
        np.testing.assert_array_equal(counts, rng.first, strict=True)
        assert np.all(visits[:, 0] == visits[:, 1]) and np.all(visits[:, 0] >= counts)
        assert np.array_equal(visits[:, 0] == 0, counts == 0)
        assert counts.sum() > 0

    def test_config_file_drives_run(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"seed": 8, "samples": 150})
        assert main(["mc", "--config", cfg]) == 3
        # explicit flag overrides the file
        assert main(["mc", "--config", cfg, "--samples", "1500"]) == 0

    def test_empty_config_gets_defaults(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "empty.json", {})
        assert main(["mc", "--config", cfg, "--samples", "1500"]) == 0

    def test_missing_config_is_input_error(self, capsys):
        assert main(["mc", "--config", "/nonexistent/cfg.json"]) == 2

    def test_malformed_config_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["mc", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("error", [ValueError, NumericalFailure])
    def test_suite_error_exits_2_with_its_message(self, error, tmp_path, monkeypatch, capsys):
        # a suite that raises stops the run: no report line, no --out file
        def failing(config):
            raise error("raised by a suite")

        table = tuple(
            failing if suite.__name__ == "_squared_field_moments" else suite
            for suite in loopsoup.checks.MC
        )
        assert failing in table
        monkeypatch.setattr(loopsoup.checks, "MC", table)
        out = tmp_path / "mc.jsonl"
        assert main(["mc", "--seed", "1", "--samples", "1000", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "error: raised by a suite" in captured.err
        assert captured.out == ""
        assert not out.exists()


# every report line's check name and inputs digest, in report order: a
# dropped, reordered or re-keyed check changes these
VERIFY_LINES = [
    ("two-state-greens-renewal", "ef64ea8e5d5d0f4d"),
    ("two-state-det-product-orderings", "f0baecc5826f44ac"),
    ("two-state-loop-mass-det", "b739aebdacdbd4e9"),
    ("two-state-meeting-mass-greens", "b1e8bc48a06725e8"),
    ("cpx4-greens-renewal", "1baa20223dc5b2d8"),
    ("cpx4-det-product-orderings", "48884c5c673a68ba"),
    ("cpx4-loop-mass-det", "80576a8674170357"),
    ("cpx4-meeting-mass-greens", "475041c983706cc3"),
    ("first-return-series", "3878812a8b1ebc3e"),
    ("lerw-formula-brute", "e817ff4214f14d9f"),
    ("matrix-tree-count", "7f033674bb759319"),
    ("tree-probability-uniform", "d66124f20a548ef3"),
    ("reversal-transform", "552da42a1486a948"),
    ("occupation-transform-loops", "dd86eabeb11e409c"),
    ("poisson-closed-forms", "0d16d0f5363a91c1"),
    ("gff-isomorphism-exact", "d9f655ace9fe9e98"),
    ("pushforward-per-loop", "1da3b7989272dcda"),
    ("doubling-det-squared", "42dc610b4a005f9f"),
    ("doubled-transform", "de85e3ad97b65ff0"),
]
ADVERSARIAL_EXTRA_LINES = [
    ("extra0-greens-renewal", "00b3d66232451751"),
    ("extra0-det-product-orderings", "d2a28af2f1f78b6c"),
    ("extra0-loop-mass-det", "b6cea6b07f8a6809"),
    ("extra0-meeting-mass-greens", "fb4e7a13c20a0ed3"),
    ("extra1-greens-renewal", "9bcbf4620a86e531"),
    ("extra1-det-product-orderings", "cebfcb5f321f3b46"),
    ("extra1-loop-mass-det", "969a2af59e6791c5"),
    ("extra1-meeting-mass-greens", "bb40149ed301b8e4"),
    ("extra2-greens-renewal", "025c6efb9e177c7a"),
    ("extra2-det-product-orderings", "3f4b6e1b6bbf4658"),
    ("extra2-loop-mass-det", "d19ea5e62cda1c29"),
    ("extra2-meeting-mass-greens", "e22e2d9c0323656a"),
    ("extra3-greens-renewal", "0e720a087912a5dd"),
    ("extra3-det-product-orderings", "b4c89e060ae2aba1"),
    ("extra3-loop-mass-det", "2b0fd37c6171b894"),
    ("extra3-meeting-mass-greens", "fa700ed71130a1cf"),
]
MC_SEED42_1000_LINES = [
    ("wilson-uniform-k3", "e18f1874b5fbd420"),
    ("wilson-uniform-k4", "782961ac8b1b7d0c"),
    ("soup-count-law", "02eb3f29959ddbf5"),
    ("occupation-transform-mc", "813be2bdfe6bbe61"),
    ("isomorphism-mc", "c3781b79d6a939ec"),
    ("squared-field-moments", "b4c016ca5c6fe5de"),
    ("complex-field-covariance", "683182d9b82d1b4d"),
]


class TestReportLines:
    @pytest.mark.parametrize(
        "argv, lines",
        [
            (["verify"], VERIFY_LINES),
            (
                ["verify", "--config", str(DATA / "adversarial_verify.json")],
                ADVERSARIAL_EXTRA_LINES + VERIFY_LINES,
            ),
            (["mc", "--seed", "42", "--samples", "1000"], MC_SEED42_1000_LINES),
        ],
        ids=["verify", "verify-adversarial", "mc-seed42-1000"],
    )
    def test_names_and_digests_are_pinned(self, argv, lines, tmp_path, capsys):
        # the adversarial config lists its fixtures relative to itself, so
        # this runs from any directory
        out = tmp_path / "report.jsonl"
        assert main(argv + ["--out", str(out)]) == 0
        _, checks = read_report(out)
        assert [(c["check"], c["inputs_digest"]) for c in checks] == lines


def _cli_import_loads(module):
    # a fresh interpreter, so modules other tests imported do not count
    src = Path(loopsoup.__file__).resolve().parents[1]
    code = f"import loopsoup.cli, sys; sys.exit({module!r} in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)}
    )
    return proc.returncode != 0


def _decimal_chi2_survival(k, x):
    # exp(-x/2) * sum_{j < k/2} (x/2)^j / j! for even k, at 50 digits
    with localcontext() as ctx:
        ctx.prec = 50
        half = Decimal(x) / 2
        term, total = Decimal(1), Decimal(0)
        for j in range(k // 2):
            if j:
                term = term * half / j
            total += term
        return float((-half).exp() * total)


class TestChiSquare:
    @pytest.mark.parametrize(
        "counts",
        [
            [3, 3, 3],
            [1, 0, 4, 2],
            [1490, 1510, 1555, 1445],
            [9, 30, 12, 17, 21, 11],
            # the tree counts behind wilson-uniform-k3 (k = 2) and -k4
            # (k = 15) at seed 42 with 6000 samples
            [1944, 2012, 2044],
            [385, 387, 374, 346, 371, 386, 396, 372, 349, 381, 380, 367, 354, 397, 373, 382],
            [1, 5],
            [40, 3, 9, 0, 22],
            [30, 0, 0],
            # tails down to p ~ 1e-200: k = 2 (exp(-460)), k = 3 and k = 15
            [460, 0, 0],
            [310, 0, 0, 0],
            [66] + [0] * 15,
        ],
    )
    def test_pvalue_matches_scipy_stats(self, counts):
        counts = np.asarray(counts, dtype=float)
        expected = float(scipy.stats.chisquare(counts).pvalue)
        assert expected > 1e-201
        assert _chisquare_uniform_pvalue(counts) == pytest.approx(expected, rel=1e-13, abs=0)

    @pytest.mark.parametrize("counts", [[7], [0, 0, 0]], ids=["k0", "nan"])
    def test_pvalue_is_nan_where_scipy_stats_is(self, counts):
        # one cell leaves no degree of freedom; empty cells give a 0/0 statistic
        counts = np.asarray(counts, dtype=float)
        with np.errstate(invalid="ignore"):
            assert math.isnan(scipy.stats.chisquare(counts).pvalue)
            assert math.isnan(_chisquare_uniform_pvalue(counts))

    @pytest.mark.parametrize("k", [2, 4, 6, 8])
    def test_even_survival_within_4_ulp_of_exact_sum(self, k):
        for x in (1e-9, 0.5, 7 / 3, 3.0, 17.3, 99.9, 420.0, 920.0, 1400.5):
            exact = _decimal_chi2_survival(k, x)
            assert exact > 0
            assert abs(_chi2_survival(k, x) - exact) <= 4 * math.ulp(exact), (k, x)

    def test_survival_edges(self):
        assert _chi2_survival(1, 0.0) == _chi2_survival(4, 0.0) == 1.0
        assert _chi2_survival(3, math.inf) == _chi2_survival(4, math.inf) == 0.0
        for k, x in ((0, 0.0), (0, 3.0), (-1, 3.0), (2, math.nan), (2, -1.0)):
            assert math.isnan(_chi2_survival(k, x)), (k, x)

    def test_cli_import_leaves_scipy_stats_out(self):
        assert not _cli_import_loads("scipy.stats")

    def test_cli_import_leaves_scipy_special_out(self):
        assert not _cli_import_loads("scipy.special")


class TestSampleCommand:
    def test_soup_records(self, tmp_path):
        out = tmp_path / "soup.jsonl"
        code = main(["sample", "--what", "soup", "--n", "40", "--seed", "5", "--out", str(out)])
        assert code == 0
        records = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert len(records) == 40
        assert {r["index"] for r in records} == set(range(40))
        assert all(r["seed"] == 5 and r["stream"] == r["index"] for r in records)
        assert all(r["count"] == len(r["loops"]) for r in records)
        assert any(r["count"] > 0 for r in records)

    def test_rerun_is_bit_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            main(["sample", "--what", "field", "--n", "10", "--seed", "2", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_tree_records_are_spanning(self, tmp_path):
        out = tmp_path / "trees.jsonl"
        main(["sample", "--what", "tree", "--n", "25", "--seed", "1", "--out", str(out)])
        records = [json.loads(ln) for ln in out.read_text().splitlines()]
        # K4 default: three edges covering all four vertices
        for r in records:
            assert len(r["edges"]) == 3
            assert {v for e in r["edges"] for v in e} == {0, 1, 2, 3}

    def test_tree_records_are_pinned(self, tmp_path):
        # records regenerate from (seed, index) alone, whatever the sampler
        # does with its stream internally
        out = tmp_path / "k4.jsonl"
        main(["sample", "--what", "tree", "--n", "8", "--seed", "3", "--out", str(out)])
        edges = [json.loads(ln)["edges"] for ln in out.read_text().splitlines()]
        assert edges[0] == [[0, 1], [0, 2], [0, 3]]
        assert edges[3] == [[0, 2], [1, 3], [2, 3]]
        assert edges[7] == [[0, 1], [0, 2], [1, 3]]
        # a long walk: the first 150-cycle tree takes 8515 steps
        ring = write_json(tmp_path / "ring.json", fx.cycle_graph(150))
        out = tmp_path / "ring.jsonl"
        args = ["--n", "1", "--seed", "3", "--graph", ring, "--out", str(out)]
        main(["sample", "--what", "tree", *args])
        cut = [[0, 149]] + [[i, i + 1] for i in range(149) if i != 92]
        assert json.loads(out.read_text())["edges"] == sorted(cut)

    def test_gff_records_are_pinned(self, tmp_path):
        # two-state default matrix, 500 records as in the CI dump
        out = tmp_path / "gff.jsonl"
        assert main(["sample", "--what", "gff", "--n", "500", "--seed", "3", "--out", str(out)]) == 0
        values = [json.loads(ln)["values"] for ln in out.read_text().splitlines()]
        assert len(values) == 500
        assert values[0] == [0.8716946000489855, 0.4668535137426199]
        assert values[1] == [-0.3111553197151749, -2.4328318124577537]
        # a row-major factor (numpy's own layout) moves record 5's last bit
        assert values[5] == [-0.7165317385462112, -0.13810332076826967]
        assert values[499] == [-0.008080646428618918, 1.1320383183985907]

    @pytest.mark.parametrize(
        "what, extra, pinned",
        [
            (
                "soup",
                [],
                [
                    {"count": 0, "loops": []},
                    {"count": 1, "loops": [[0, 1]]},
                    {"count": 0, "loops": []},
                    {"count": 2, "loops": [[1, 0], [0, 1]]},
                ],
            ),
            (
                "field",
                [],
                [
                    {"counts": [0, 0], "values": [0.0, 0.0]},
                    {"counts": [1, 1], "values": [0.314190738190997, 0.48167996921116174]},
                    {"counts": [0, 0], "values": [0.0, 0.0]},
                    {"counts": [2, 2], "values": [2.5324845885440874, 1.9735169506110273]},
                ],
            ),
            (
                "field",
                ["--trivial"],
                [
                    {"counts": [0, 0], "values": [0.04927789320369478, 0.506301717777098]},
                    {"counts": [1, 1], "values": [2.2997727543591564, 2.98565853638929]},
                    {"counts": [0, 0], "values": [0.03881594085803253, 1.0381039613251732]},
                    {"counts": [2, 2], "values": [3.7295357702670278, 3.050203444826959]},
                ],
            ),
            (
                "gff",
                [],
                [
                    {"values": [0.8716946000489855, 0.4668535137426199]},
                    {"values": [-0.3111553197151749, -2.4328318124577537]},
                    {"values": [-0.26831109535167885, 0.33009940079229677]},
                ],
            ),
        ],
    )
    def test_matrix_records_are_pinned(self, tmp_path, what, extra, pinned):
        # two-state default matrix; record i regenerates from (3, i) alone
        out = tmp_path / "dump.jsonl"
        argv = ["sample", "--what", what, *extra, "--n", "4", "--seed", "3", "--out", str(out)]
        assert main(argv) == 0
        records = [json.loads(ln) for ln in out.read_text().splitlines()]
        for i, body in enumerate(pinned):
            assert records[i] == {"kind": what, "index": i, "seed": 3, "stream": i, **body}

    @pytest.mark.parametrize(
        "what, extra, pinned",
        [
            (
                "soup",
                [],
                [
                    {"count": 0, "loops": []},
                    {
                        "count": 3,
                        "loops": [
                            [1, 7, 9, 10, 0, 7, 7, 9, 2, 4, 3, 9, 4, 2, 9, 2, 7, 3, 1, 2, 11, 1, 1],
                            [7],
                            [3, 6],
                        ],
                    },
                    {"count": 1, "loops": [[6, 4]]},
                    {"count": 3, "loops": [[9, 5, 6, 4, 10], [8, 4, 8, 9, 4, 5, 3, 5, 3], [10]]},
                ],
            ),
            (
                "field",
                ["--trivial"],
                [
                    {
                        "counts": [0] * 12,
                        "values": [
                            0.04927789320369478, 0.506301717777098, 0.7432864937406729,
                            1.4852361052486984, 1.16809042573917, 3.094289704141118,
                            1.5505066763578765, 0.2074855938585725, 0.81185830126406,
                            0.3463158529768104, 0.6303319272672724, 0.19657312434510107,
                        ],
                    },
                    {
                        "counts": [1, 4, 4, 3, 2, 0, 1, 5, 0, 4, 1, 1],
                        "values": [
                            1.355988298552651, 5.379300570656185, 5.321301314412912,
                            1.9998566932382291, 1.4843854919965631, 0.3957729296973742,
                            1.3955338109525515, 7.914728017156864, 0.339783485772419,
                            3.74719262716466, 1.7152752624168965, 2.298397799359186,
                        ],
                    },
                    {
                        "counts": [0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0],
                        "values": [
                            0.05741791237687124, 0.12103386336465437, 0.3861162247916002,
                            3.0552783136052803, 0.6462682430152228, 0.2548585547428639,
                            1.738169595106703, 1.9934006129445694, 0.899453382128546,
                            0.07232640429774857, 0.7384116133340312, 3.5636660867639836,
                        ],
                    },
                    {
                        "counts": [0, 0, 0, 2, 3, 3, 1, 0, 2, 2, 2, 0],
                        "values": [
                            0.0007316564427201683, 1.3243886724052318, 1.6114090457989325,
                            0.8787915538120827, 6.7830630043591515, 5.731087591906356,
                            1.5857371098736035, 1.082764907664468, 2.8491986438193226,
                            1.4745107584564876, 1.2190958627389064, 0.8904180807876595,
                        ],
                    },
                ],
            ),
        ],
    )
    def test_long_loop_records_are_pinned(self, tmp_path, what, extra, pinned):
        # 12 sites at rho 0.9: record 1 holds a 23-step loop, so the bridge
        # walks far past the two-state default's lengths
        q = fx.random_symmetric_positive(12, 0.9, seed=8)
        mat = write_json(tmp_path / "q12.json", q.to_json_dict())
        out = tmp_path / "dump.jsonl"
        argv = ["sample", "--what", what, *extra, "--n", "4", "--seed", "3", "--matrix", mat]
        assert main([*argv, "--out", str(out)]) == 0
        records = [json.loads(ln) for ln in out.read_text().splitlines()]
        for i, body in enumerate(pinned):
            assert records[i] == {"kind": what, "index": i, "seed": 3, "stream": i, **body}
        if what == "soup":
            assert max(len(lo) for r in records for lo in r["loops"]) > 20

    @pytest.mark.parametrize("what", ["soup", "field"])
    @pytest.mark.parametrize("entries", [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.5], [0.0, 0.0]]])
    def test_loop_free_matrix_gives_empty_soups(self, tmp_path, what, entries):
        doc = {"labels": ["a", "b"], "entries": [[[v, 0.0] for v in row] for row in entries]}
        mat = write_json(tmp_path / "free.json", doc)
        out = tmp_path / "out.jsonl"
        argv = ["sample", "--what", what, "--n", "5", "--matrix", mat, "--out", str(out)]
        assert main(argv) == 0
        records = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert len(records) == 5
        for r in records:
            if what == "soup":
                assert r["count"] == 0 and r["loops"] == []
            else:
                assert r["counts"] == [0, 0]

    def test_gff_records(self, tmp_path):
        out = tmp_path / "gff.jsonl"
        main(["sample", "--what", "gff", "--n", "6", "--seed", "4", "--out", str(out)])
        records = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert all(len(r["values"]) == 2 for r in records)

    def test_refuses_complex_soup(self, tmp_path, capsys):
        mat = write_json(tmp_path / "herm.json", fx.hermitian_pair().to_json_dict())
        assert main(["sample", "--what", "soup", "--n", "2", "--matrix", mat]) == 2
        assert "nonnegative" in capsys.readouterr().err

    def test_refuses_complex_gff(self, tmp_path, capsys):
        mat = write_json(tmp_path / "herm.json", fx.hermitian_pair().to_json_dict())
        assert main(["sample", "--what", "gff", "--n", "2", "--matrix", mat]) == 2

    def test_malformed_matrix_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2")
        assert main(["sample", "--what", "soup", "--n", "2", "--matrix", str(bad)]) == 2

    def test_unacceptable_matrix_is_input_error(self, tmp_path, capsys):
        doc = {"labels": ["a"], "entries": [[[1.5, 0.0]]]}
        mat = write_json(tmp_path / "big.json", doc)
        assert main(["sample", "--what", "soup", "--n", "2", "--matrix", mat]) == 2

    def test_zero_samples_is_input_error(self, capsys):
        assert main(["sample", "--what", "soup", "--n", "0"]) == 2

    def test_env_seed_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(SEED_ENV_VAR, "17")
        out = tmp_path / "env.jsonl"
        main(["sample", "--what", "tree", "--n", "1", "--out", str(out)])
        assert json.loads(out.read_text())["seed"] == 17

    def test_flag_beats_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "17")
        out = tmp_path / "flag.jsonl"
        main(["sample", "--what", "tree", "--n", "1", "--seed", "23", "--out", str(out)])
        assert json.loads(out.read_text())["seed"] == 23
