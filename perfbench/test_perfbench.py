"""Tests of the benchmark itself: inputs, output checks, tracing, names.

    python3 -m pytest perfbench
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from loopsoup import cli  # noqa: E402
from loopsoup.matrices import WeightMatrix, require_acceptable  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _generated(seed):
    docs = dict(inputs.verify_fixtures(seed))
    docs["field"] = inputs.field_matrix(seed)
    docs["gff"] = inputs.gff_matrix(seed)
    return docs


def _support(mat):
    return np.abs(mat) > 0


def _strongly_connected(adj):
    n = len(adj)
    for start in range(n):
        seen, todo = {start}, [start]
        while todo:
            v = todo.pop()
            for w in np.flatnonzero(adj[v]):
                if int(w) not in seen:
                    seen.add(int(w))
                    todo.append(int(w))
        if len(seen) != n:
            return False
    return True


# --- inputs ----------------------------------------------------------------------


def test_generators_repeat_per_seed_and_differ_across_seeds():
    a, b, c = _generated(7), _generated(7), _generated(8)
    for name in a:
        assert np.array_equal(a[name], b[name]), name
        assert not np.allclose(a[name], c[name]), name
    assert inputs.torus_graph(7) == inputs.torus_graph(7)
    assert inputs.torus_graph(7) != inputs.torus_graph(8)


@pytest.mark.parametrize("seed", [0, 1, 2, 12345])
def test_fixtures_have_their_named_shape(seed):
    fx = inputs.verify_fixtures(seed)
    assert _support(fx["dense"]).all() and np.iscomplexobj(fx["dense"])
    tri = fx["nonnormal"]
    assert np.allclose(np.tril(tri, k=-1), 0)
    gap = tri @ tri.conj().T - tri.conj().T @ tri
    assert np.linalg.norm(gap) > 0.1 * np.linalg.norm(tri) ** 2
    cyc = _support(fx["periodic"])
    n = len(cyc)
    assert (cyc.sum(axis=0) == 1).all() and (cyc.sum(axis=1) == 1).all()
    # irreducible, and every closed walk has a length divisible by n
    assert _strongly_connected(cyc)
    assert not any(np.trace(np.linalg.matrix_power(cyc.astype(int), k)) for k in range(1, n))
    assert not _strongly_connected(_support(fx["reducible"]))


@pytest.mark.parametrize("seed", [0, 1, 2, 12345])
def test_generated_matrices_pass_the_gate_at_their_target(seed):
    for name, mat in _generated(seed).items():
        q = WeightMatrix.from_json_dict(inputs.matrix_doc(mat))
        rho = require_acceptable(q)
        assert rho == pytest.approx(inputs.abs_spectral_radius(mat), abs=1e-6), name
    assert inputs.abs_spectral_radius(inputs.field_matrix(seed)) == pytest.approx(inputs.FIELD_RHO)
    gm = inputs.gff_matrix(seed)
    assert np.allclose(gm, gm.T)


def test_torus_graph_is_a_connected_four_regular_graph():
    graph = inputs.torus_graph(3)
    n = len(graph["vertices"])
    assert n == inputs.TORUS_SIDE**2
    assert len(graph["edges"]) == 2 * n
    assert np.bincount(np.ravel(graph["edges"]), minlength=n).tolist() == [4] * n
    assert checks._spans(n, graph["edges"])


# --- names -------------------------------------------------------------------------


def test_metric_names_are_well_formed_and_match_the_manifest():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    names += [w["name"] for w in manifest["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)


# --- output checks ---------------------------------------------------------------


@pytest.fixture(scope="module")
def mc_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("mc") / "report.jsonl"
    code = cli.main(["mc", "--seed", "5", "--samples", "1000", "--out", str(out)])
    header, lines = checks.read_report(str(out))
    return code, header, lines


def test_real_report_is_accepted(mc_report):
    code, header, lines = mc_report
    assert checks.report_problems(header, lines, "mc", code, ["wilson-uniform-k3"]) == []


def test_doctored_report_is_rejected(mc_report):
    code, header, lines = mc_report
    doctored = [dict(r) for r in lines]
    doctored[0]["value"] = 2 * doctored[0]["bound"] + 1  # a p-value check, now "passes"
    doctored[0]["comparator"] = "le"
    assert checks.report_problems(header, doctored, "mc", code, [])
    assert checks.report_problems(header, lines[1:], "mc", code, ["wilson-uniform-k3"])
    assert checks.report_problems(header, lines, "verify", code, [])
    assert checks.report_problems(header, lines, "mc", 1, [])
    assert checks.console_problems(["[PASS] x"], lines)


def _tree_record(tmp_path, capsys):
    graph = inputs.torus_graph(4)
    path = inputs.write_json(tmp_path / "g.json", graph)
    cli.main(["sample", "--what", "tree", "--n", "1", "--seed", "9", "--graph", path])
    record = json.loads(capsys.readouterr().out.splitlines()[0])
    edges = {tuple(e) for e in graph["edges"]}
    return record, len(graph["vertices"]), edges


def test_invalid_tree_records_are_rejected(tmp_path, capsys):
    record, n, edges = _tree_record(tmp_path, capsys)
    assert checks.record_problem(record, "tree", 0, 9, n, edges) is None
    short = dict(record, edges=record["edges"][:-1])
    assert checks.record_problem(short, "tree", 0, 9, n, edges)
    foreign = [e for e in ([a, b] for a in range(n) for b in range(a + 1, n)) if tuple(e) not in edges][0]
    off_graph = dict(record, edges=record["edges"][:-1] + [foreign])
    assert checks.record_problem(off_graph, "tree", 0, 9, n, edges)
    # n-1 graph edges that close a cycle leave some vertex out
    tree = {tuple(e) for e in record["edges"]}
    leaf = next(v for v in range(n) if sum(v in e for e in tree) == 1)
    extra = next(e for e in edges if e not in tree and leaf not in e)
    cyclic = [list(e) for e in tree if leaf not in e] + [list(extra)]
    assert checks.record_problem(dict(record, edges=cyclic), "tree", 0, 9, n, edges)
    assert checks.record_problem(dict(record, index=1), "tree", 0, 9, n, edges)


def test_invalid_field_and_gff_records_are_rejected():
    head = {"index": 0, "seed": 1, "stream": 0}
    good = dict(head, kind="field", counts=[0, 2], values=[0.5, 1.0])
    assert checks.record_problem(good, "field", 0, 1, 2) is None
    assert checks.record_problem(dict(good, counts=[0, -1]), "field", 0, 1, 2)
    assert checks.record_problem(dict(good, counts=[0, 1.5]), "field", 0, 1, 2)
    assert checks.record_problem(dict(good, values=[0.5, -1.0]), "field", 0, 1, 2)
    gff = dict(head, kind="gff", values=[0.1, -2.0])
    assert checks.record_problem(gff, "gff", 0, 1, 2) is None
    assert checks.record_problem(dict(gff, values=[0.1, float("nan")]), "gff", 0, 1, 2)


# --- tracing ---------------------------------------------------------------------

_TRACE_PROBE = """
import json, sys
sys.path[:0] = {paths!r}
import tracing
from loopsoup import fixtures as fx, loops, soup, spanning
from loopsoup.rng import substream
tracer = tracing.install()
g = spanning.SimpleGraph.from_json_dict(fx.complete_graph(4))
rng = substream(1)
for _ in range(3):
    spanning.wilson_sample(g, rng)
n_loops = sum(1 for _ in loops.enumerate_rooted_loops(fx.two_state(), 6))
q = fx.two_state()
soup.reversal_symmetrization_check(q, [0.1, 0.2], intensity=0.5, max_len=4)
print(json.dumps({{"snap": tracer.snapshot(), "loops": n_loops,
                  "rebound": soup.enumerate_rooted_loops is loops.enumerate_rooted_loops}}))
"""


def test_tracing_counts_words_loops_and_rebinds_imported_names():
    code = _TRACE_PROBE.format(paths=[str(HERE), str(ROOT / "src")])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    doc = json.loads(out.stdout.splitlines()[-1])
    spans, words = doc["snap"]["spans"], doc["snap"]["words"]
    assert spans["spanning.wilson_sample"][0] == 3
    assert words["spanning.wilson_sample"] == 3 * 8192
    assert spans["lerw.loop_erase"][0] >= 3  # bound by name inside spanning
    assert doc["rebound"]
    # two enumerations of two_state: 6 loops up to length 6, 4 up to length 4
    assert spans["loops.enumerate_rooted_loops"][0] == 2
    assert spans["loops.enumerate_rooted_loops.items"][0] == doc["loops"] + 4 == 10
    # self time never exceeds the span, and children are charged to parents
    for calls, total, self_s in spans.values():
        assert self_s <= total + 1e-9
    parent = spans["soup.reversal_symmetrization_check"]
    assert parent[2] < parent[1]
