"""Command line interface: argument parsing, reports and sample dumps. The
checks that ``verify`` and ``mc`` report live in ``loopsoup.checks``.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 bad input
(unreadable files, malformed matrices, refused sampling), 3 inconclusive
(Monte Carlo run with too few samples to decide, or a truncation bound that
overflowed and so certifies nothing).

Serialized reports contain no timing data, so rerunning a command with the
same configuration writes byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

from . import checks
from . import fixtures as fx
from . import gff, soup, spanning
from .checks import CheckReport, RunConfig
from .errors import LoopSoupError
from .matrices import WeightMatrix
from .rng import SEED_ENV_VAR, Substreams

__all__ = ["main"]


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
    if args.what == "soup":
        for i in range(n):
            loops = sampler.sample(streams(i))
            yield record(
                "soup",
                i,
                count=len(loops),
                loops=[list(lo.sites) for lo in loops],
            )
        return
    # occupation field, as plain int and float lists per site
    shape_add = args.intensity if args.trivial else 0.0
    for i in range(n):
        counts, values = sampler.occupation(streams(i), shape_add)
        yield record("field", i, counts=counts, values=values)


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
            table = checks.VERIFY if args.command == "verify" else checks.MC
            reports = checks.run(table, config)
            code = _emit(reports, config, args.command, args.out or config.out)
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
