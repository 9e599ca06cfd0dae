"""Correctness checks on the CLI's outputs; each failure feeds ``failed``.

Report checks read a ``--out`` report (a header line, then one JSON line per
check) and the console output written next to it.  Record checks read one
``sample`` dump.  Every function returns a list of problems; empty means the
output is valid.
"""

from __future__ import annotations

import json
import math

OUTCOMES = ("pass", "fail", "inconclusive")
REPORT_KEYS = {"check", "statement", "inputs_digest", "value", "bound", "comparator", "outcome"}
#: exit code the CLI owes for a report, by its worst outcome
EXIT_CODES = {"fail": 1, "inconclusive": 3, "pass": 0}


def read_report(path: str) -> tuple[dict, list[dict]]:
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    if not lines:
        raise ValueError("empty report")
    return lines[0], lines[1:]


def report_problems(
    header: dict, checks: list[dict], command: str, code: int, required: list[str]
) -> list[str]:
    """Structural problems: wrong header, malformed lines, outcomes that do
    not follow from value and bound, missing checks, wrong exit code."""
    problems = []
    if header.get("command") != command or not isinstance(header.get("config"), dict):
        problems.append(f"bad report header {header!r}")
    for rep in checks:
        if set(rep) != REPORT_KEYS or rep["outcome"] not in OUTCOMES:
            problems.append(f"malformed check line {rep!r}")
            continue
        if rep["outcome"] == "inconclusive":
            continue
        ok = rep["value"] <= rep["bound"] if rep["comparator"] == "le" else rep["value"] > rep["bound"]
        if rep["comparator"] not in ("le", "gt") or ok != (rep["outcome"] == "pass"):
            problems.append(f"outcome of {rep['check']} does not follow from its value")
    names = [rep.get("check") for rep in checks]
    missing = sorted(set(required) - set(names))
    if missing:
        problems.append(f"missing checks {missing}")
    if len(set(names)) != len(names):
        problems.append("duplicate check names")
    worst = "pass"
    for rep in checks:
        if rep.get("outcome") == "fail":
            worst = "fail"
        elif rep.get("outcome") == "inconclusive" and worst == "pass":
            worst = "inconclusive"
    if code != EXIT_CODES[worst]:
        problems.append(f"exit code {code} for a report whose worst outcome is {worst}")
    return problems


def console_problems(console: list[str], checks: list[dict]) -> list[str]:
    """The console shows one line per check and a matching summary."""
    lines = [line for line in console if line.startswith("[")]
    failed = sum(r.get("outcome") == "fail" for r in checks)
    inconclusive = sum(r.get("outcome") == "inconclusive" for r in checks)
    summary = (
        f"{len(checks)} checks: {len(checks) - failed - inconclusive} passed, "
        f"{failed} failed, {inconclusive} inconclusive"
    )
    problems = []
    if len(lines) != len(checks):
        problems.append(f"{len(lines)} console check lines for {len(checks)} checks")
    if summary not in console:
        problems.append("console summary does not match the report")
    return problems


def _finite(values, n: int) -> bool:
    return (
        isinstance(values, list)
        and len(values) == n
        and all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
    )


def _spans(n: int, edges) -> bool:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    return len({find(v) for v in range(n)}) == 1


def record_problem(record: dict, kind: str, index: int, seed: int, size: int, graph_edges=None):
    """Why one sample record is invalid, or None.

    ``size`` is the vertex count (tree) or site count (field, gff).
    """
    head = (record.get("kind"), record.get("index"), record.get("seed"), record.get("stream"))
    if head != (kind, index, seed, index):
        return f"record header {head} != {(kind, index, seed, index)}"
    if kind == "tree":
        edges = record.get("edges")
        if not isinstance(edges, list) or len(edges) != size - 1:
            return "tree must have n-1 edges"
        pairs = [tuple(e) for e in edges if isinstance(e, list) and len(e) == 2]
        if len(pairs) != len(edges) or len(set(pairs)) != len(pairs):
            return "tree edges must be distinct pairs"
        if any(p not in graph_edges for p in pairs):
            return "tree uses an edge outside the graph"
        if not _spans(size, pairs):
            return "tree does not span the graph"
        return None
    if kind == "field":
        counts = record.get("counts")
        if not (
            isinstance(counts, list)
            and len(counts) == size
            and all(isinstance(c, int) and c >= 0 for c in counts)
        ):
            return "field counts must be nonnegative integers"
        values = record.get("values")
        if not _finite(values, size) or any(v < 0 for v in values):
            return "field values must be finite and nonnegative"
        return None
    if not _finite(record.get("values"), size):
        return "gff values must be finite"
    return None
