"""loopsoup benchmark: seeded workloads run through the CLI in fresh
interpreters, with correctness checks on every output.

    python3 perfbench/run.py --workload verify|mc|sample --seed N \
        --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before it
print every metric by name and unit.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("verify", "mc", "sample")
#: fresh interpreters timed for setup_s before the repetitions start
SETUP_SPAWNS = 3
#: repetitions run even when --seconds is already used up
MIN_REPS = 2
#: per-suite sample count of the mc workload
MC_SAMPLES = 6000
#: objects drawn per mc run, per unit of --samples: Wilson trees on K3 and
#: K4, soups for the count law, two occupation-field suites, Gaussian and
#: soup fields for the isomorphism and for the one-site moments, and one
#: complex field
MC_OBJECTS_PER_SAMPLE = 10
#: records per dump in the sample workload, the same for each kind
SAMPLE_RECORDS = 2500
SAMPLE_INTENSITY = 1.0
#: per-command limit on a worker, well inside the run's own limit
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "samples_per_s": "1/s",
    "record_us_p50": "us",
    "record_us_p99": "us",
    "peak_rss_mb": "MB",
}

MODULE_LAYERS = ("matrices", "loops", "lerw", "spanning", "soup", "gff", "rng", "fixtures", "cli")
MEASURE_FUNCTIONS = ("loop_weight", "loop_measure", "perturbed_loop_measure", "unrooted_loop_measure")

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in MODULE_LAYERS},
    "loops.enumerate_rooted_loops.loops": "count",
    "loops.enumerate_rooted_loops.self_s": "s",
    "loops.measure.calls": "count",
    "loops.measure.self_s": "s",
    "loops.us_per_loop": "us",
    "matrices.spectral_radius_abs.calls": "count",
    "matrices.spectral_radius_abs.self_s": "s",
    "matrices.greens_exact.calls": "count",
    "matrices.greens_exact.self_s": "s",
    "matrices.lu_det.calls": "count",
    "matrices.lu_det.self_s": "s",
    "matrices.gate_repeat_ratio": "ratio",
    "lerw.lerw_weights_bruteforce.self_s": "s",
    "lerw.lerw_weight_formula.calls": "count",
    "lerw.lerw_weight_formula.self_s": "s",
    "lerw.loop_erase.calls": "count",
    "spanning.wilson_sample.calls": "count",
    "spanning.wilson_sample.us_per_call": "us",
    "spanning.wilson_sample.words_per_call": "words",
    "spanning.enumerate_spanning_trees.self_s": "s",
    "spanning.spanning_tree_probability.self_s": "s",
    "rng.substream.calls": "count",
    "rng.substream.us_per_call": "us",
    "soup.SoupSampler.sample.calls": "count",
    "soup.SoupSampler.sample.us_per_call": "us",
    "soup.SoupSampler.sample_loop.calls": "count",
    "soup.max_loop_len": "steps",
    "soup.words_per_sample": "words",
    "soup.continuous_occupation.us_per_call": "us",
    "soup.sample_occupation_fields.self_s": "s",
    "soup.nu_transform_closed.calls": "count",
    "soup.reversal_symmetrization_check.self_s": "s",
    "gff.gff_sample.self_s": "s",
    "gff.model_build.self_s": "s",
    "gff.pushforward_loop_check.self_s": "s",
    "cli.bytes_out": "B",
    "trace.overhead_frac": "frac",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


# --- workloads -----------------------------------------------------------------


class Workload:
    """Inputs of one workload and the checks on each repetition's outputs."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        self.name, self.seed, self.work = name, seed, work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first: list[bytes] | None = None
        getattr(self, "_prepare_" + name)()

    # inputs

    def _prepare_verify(self) -> None:
        paths = [
            inputs.write_json(self.work / f"fixture_{name}.json", inputs.matrix_doc(mat))
            for name, mat in inputs.verify_fixtures(self.seed).items()
        ]
        config = inputs.write_json(self.work / "verify_config.json", {"fixtures": paths})
        self.required = [
            f"extra{k}-{check}"
            for k in range(len(paths))
            for check in ("greens-renewal", "det-product-orderings", "loop-mass-det", "meeting-mass-greens")
        ]
        self.argvs = [["verify", "--config", config, "--out", "{out}"]]

    def _prepare_mc(self) -> None:
        self.required = ["wilson-uniform-k3", "wilson-uniform-k4"]
        self.argvs = [
            ["mc", "--seed", str(self.seed), "--samples", str(MC_SAMPLES), "--out", "{out}"]
        ]

    def _prepare_sample(self) -> None:
        graph = inputs.torus_graph(self.seed)
        self.graph_size = len(graph["vertices"])
        self.graph_edges = {tuple(e) for e in graph["edges"]}
        gpath = inputs.write_json(self.work / "graph.json", graph)
        fpath = inputs.write_json(self.work / "field.json", inputs.matrix_doc(inputs.field_matrix(self.seed)))
        qpath = inputs.write_json(self.work / "gff.json", inputs.matrix_doc(inputs.gff_matrix(self.seed)))
        self.sizes = {"tree": self.graph_size, "field": inputs.FIELD_SITES, "gff": inputs.GFF_SITES}
        common = ["--n", str(SAMPLE_RECORDS), "--seed", str(self.seed)]
        self.argvs = [
            ["sample", "--what", "tree", *common, "--graph", gpath],
            ["sample", "--what", "field", "--trivial", *common, "--matrix", fpath,
             "--intensity", repr(SAMPLE_INTENSITY)],
            ["sample", "--what", "gff", *common, "--matrix", qpath],
        ]
        last = SAMPLE_RECORDS - 1
        indices = [0, 1, last // 2, last]
        self.spot = {
            "seed": self.seed,
            "kinds": {
                "tree": {"indices": indices, "graph": gpath},
                "field": {"indices": indices, "matrix": fpath, "intensity": SAMPLE_INTENSITY},
                "gff": {"indices": indices, "matrix": qpath},
            },
        }

    def commands(self, rep: int) -> list[dict]:
        out = []
        for k, argv in enumerate(self.argvs):
            report = str(self.work / f"report_{rep}_{k}.jsonl")
            out.append(
                {
                    "argv": [report if a == "{out}" else a for a in argv],
                    "stdout": str(self.work / f"stdout_{rep}_{k}.txt"),
                    "report": report if "{out}" in argv else None,
                }
            )
        return out

    # outputs

    def objects(self, commands: list[dict]) -> int:
        """What samples_per_s counts: certified checks for verify, sampled
        objects for mc, records for sample."""
        if self.name == "verify":
            return sum(len(c["checks"]) for c in commands)
        if self.name == "mc":
            return MC_OBJECTS_PER_SAMPLE * MC_SAMPLES
        return len(self.argvs) * SAMPLE_RECORDS

    def check(self, commands: list[dict], result: dict) -> None:
        """Validate one repetition; record attempted and failed operations."""
        outputs = []
        for cmd, res in zip(commands, result["commands"]):
            outputs.append(Path(cmd["report"] or cmd["stdout"]).read_bytes())
            res["console"] = Path(cmd["stdout"]).read_text(encoding="utf-8").splitlines()
            if self.name == "sample":
                self._check_records(cmd, res)
            else:
                self._check_report(cmd, res)
        if self._first is None:
            self._first = outputs
            if self.name == "sample":
                self._check_spot(result.get("spot", []))
            return
        # a rerun of the same inputs must give byte-identical output
        self.attempted += 1
        if outputs != self._first:
            self.failed += 1
            self.problems.append("output differs from the first repetition")

    def _check_report(self, cmd: dict, res: dict) -> None:
        try:
            header, lines = checks.read_report(cmd["report"])
        except (OSError, ValueError) as exc:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"unreadable report: {exc}")
            res["checks"] = []
            return
        res["checks"] = lines
        problems = checks.report_problems(header, lines, self.name, res["code"], self.required)
        problems += checks.console_problems(res["console"], lines)
        self.problems += problems
        self.attempted += len(lines)
        self.failed += sum(r.get("outcome") != "pass" for r in lines) + len(problems)

    def _check_records(self, cmd: dict, res: dict) -> None:
        kind = cmd["argv"][2]
        lines = res["console"]
        if res["code"] != 0 or len(lines) != SAMPLE_RECORDS:
            self.failed += 1
            self.problems.append(f"{kind} dump exited {res['code']} with {len(lines)} records")
        self.attempted += SAMPLE_RECORDS
        if self._first is not None:
            return  # reruns are compared byte for byte instead
        for i, line in enumerate(lines):
            problem = checks.record_problem(
                json.loads(line), kind, i, self.seed, self.sizes[kind],
                getattr(self, "graph_edges", None),
            )
            if problem:
                self.failed += 1
                self.problems.append(f"{kind} record {i}: {problem}")

    def _check_spot(self, spot: list[dict]) -> None:
        dumps = {cmd_argv[2]: self._first[k] for k, cmd_argv in enumerate(self.argvs)}
        expected = sum(len(s["indices"]) for s in self.spot["kinds"].values())
        self.attempted += expected
        if len(spot) != expected:
            self.failed += expected
            self.problems.append("spot records were not regenerated")
            return
        for item in spot:
            lines = dumps[item["kind"]].decode("utf-8").splitlines()
            record = json.loads(lines[item["index"]])
            if any(record.get(k) != v for k, v in item["record"].items()):
                self.failed += 1
                self.problems.append(
                    f"{item['kind']} record {item['index']} does not regenerate from (seed, index)"
                )

    def latencies_us(self, result: dict) -> list[float]:
        """Per-record latencies: the gap since the previous record for a
        streamed dump; the wait from the command's start for a report, whose
        records all reach the console once the suite is done."""
        out = []
        for res in result["commands"]:
            stamps = res["stamps"]
            if self.name == "sample":
                out += [b - a for a, b in zip([0.0] + stamps[:-1], stamps)]
            else:
                out += [s for s, line in zip(stamps, res["console"]) if line.startswith("[")]
        return [1e6 * v for v in out]


# --- running -------------------------------------------------------------------


def _spawn(spec: dict, work: Path, tag: str) -> dict:
    spec_path = work / f"spec_{tag}.json"
    result_path = work / f"result_{tag}.json"
    spec = {**spec, "src": str(SRC), "result": str(result_path)}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(work / f"stderr_{tag}.txt", "w", encoding="utf-8") as err:
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path), repr(spawned)],
            stdout=subprocess.DEVNULL,
            stderr=err,
            timeout=WORKER_TIMEOUT_S,
            cwd=str(ROOT),
        )
    if proc.returncode != 0 or not result_path.exists():
        tail = (work / f"stderr_{tag}.txt").read_text(encoding="utf-8")[-2000:]
        raise BenchError(f"worker {tag} exited {proc.returncode}:\n{tail}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not Path(result["module"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"loopsoup was imported from {result['module']}, not {SRC}")
    return result


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(workload: Workload, setups: list[float], reps: list[dict]) -> dict:
    walls = [sum(c["wall_s"] for c in r["commands"]) for r in reps]
    rates = [workload.objects(r["commands"]) / w for r, w in zip(reps, walls)]
    lat = [v for r in reps for v in workload.latencies_us(r)]
    values = {
        "setup_s": _median(setups),
        "wall_s": _median(walls),
        "samples_per_s": _median(rates),
        "record_us_p50": float(np.percentile(lat, 50)) if lat else 0.0,
        "record_us_p99": float(np.percentile(lat, 99)) if lat else 0.0,
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(trace: dict, bytes_out: int, overhead: float) -> dict:
    spans = trace["spans"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def per_call_us(name):
        return 1e6 * total(name) / calls(name) if calls(name) else 0.0

    def words_per_call(name):
        return trace["words"].get(name, 0) / calls(name) if calls(name) else 0.0

    layer_self = {
        layer: sum(v[2] for k, v in spans.items() if k.startswith(layer + ".") and not k.endswith(".items"))
        for layer in MODULE_LAYERS
    }
    loops_seen = calls("loops.enumerate_rooted_loops.items")
    gate_calls = calls("matrices.spectral_radius_abs")
    values = {
        **{f"{layer}.self_s": v for layer, v in layer_self.items()},
        "loops.enumerate_rooted_loops.loops": loops_seen,
        "loops.enumerate_rooted_loops.self_s": self_s("loops.enumerate_rooted_loops"),
        "loops.measure.calls": sum(calls(f"loops.{f}") for f in MEASURE_FUNCTIONS),
        "loops.measure.self_s": sum(self_s(f"loops.{f}") for f in MEASURE_FUNCTIONS),
        "loops.us_per_loop": 1e6 * layer_self["loops"] / loops_seen if loops_seen else 0.0,
        "matrices.gate_repeat_ratio": gate_calls / trace["distinct_gated"] if gate_calls else 0.0,
        "spanning.wilson_sample.words_per_call": words_per_call("spanning.wilson_sample"),
        "soup.max_loop_len": trace["max_loop_len"],
        "soup.words_per_sample": words_per_call("soup.SoupSampler.sample"),
        "gff.model_build.self_s": self_s("gff.GFFModel.from_weights") + self_s("gff.ComplexGFFModel.from_weights"),
        "cli.bytes_out": bytes_out,
        "trace.overhead_frac": overhead,
    }
    for name in PER_LAYER:
        if name in values:
            continue
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = calls(base)
        elif stat == "self_s":
            values[name] = self_s(base)
        elif stat == "us_per_call":
            values[name] = per_call_us(base)
    return {k: {"value": float(values[k]), "unit": PER_LAYER[k]} for k in PER_LAYER}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "loopsoup" / "cli.py").is_file():
        raise BenchError(f"no loopsoup sources under {SRC}")
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK))
    try:
        workload = Workload(workload_name, seed, work)
        started = time.perf_counter()
        setups = [_spawn({"setup_only": True}, work, f"setup{k}")["setup_s"] for k in range(SETUP_SPAWNS)]
        plain, traced = [], []
        rep = 0
        while rep < MIN_REPS or time.perf_counter() - started < seconds:
            with_trace = trace and rep % 2 == 1
            commands = workload.commands(rep)
            spec = {"commands": commands, "trace": with_trace}
            if rep == 0 and workload_name == "sample":
                spec["spot"] = workload.spot
            result = _spawn(spec, work, f"rep{rep}")
            workload.check(commands, result)
            if with_trace:
                result["bytes_out"] = sum(
                    Path(p).stat().st_size for c in commands for p in (c["stdout"], c["report"]) if p
                )
            (traced if with_trace else plain).append(result)
            walls = " ".join(f"{c['wall_s']:.3f}" for c in result["commands"])
            print(f"rep {rep} trace {int(with_trace)} setup {result['setup_s']:.3f} s wall {walls} s", file=sys.stderr)
            setups.append(result["setup_s"])
            rep += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e = end_to_end(workload, setups, plain)
    layers = None
    if trace:
        wall = _median([sum(c["wall_s"] for c in r["commands"]) for r in plain])
        twall = _median([sum(c["wall_s"] for c in r["commands"]) for r in traced])
        tables = [per_layer(r["trace"], r["bytes_out"], twall / wall - 1.0) for r in traced]
        layers = {
            k: {"value": _median([t[k]["value"] for t in tables]), "unit": v["unit"]}
            for k, v in tables[0].items()
        }
    return {
        "workload": workload,
        "reps": (len(plain), len(traced)),
        "setups": len(setups),
        "end_to_end": e2e,
        "per_layer": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    workload = out["workload"]
    plain, traced = out["reps"]
    print(f"workload {args.workload} seed {args.seed}: {plain} plain and {traced} traced "
          f"repetitions, {out['setups']} setups")
    for problem in workload.problems[:20]:
        print(f"problem: {problem}")
    fail_frac = workload.failed / max(workload.attempted, 1)
    print(f"fail_frac {fail_frac:.6g} frac ({workload.failed} of {workload.attempted} operations)")
    for name, m in out["end_to_end"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    metrics = out["end_to_end"]
    if out["per_layer"] is not None:
        for name, m in out["per_layer"].items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        metrics = out["per_layer"]
    correct = workload.failed == 0 and not workload.problems and workload.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(workload.attempted, 1),
        "failed": workload.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
