"""One benchmark repetition in a fresh interpreter.

Usage: python3 worker.py SPEC_JSON SPAWN_TIME

SPAWN_TIME is the parent's CLOCK_MONOTONIC reading just before it started
this process, so ``setup_s`` covers interpreter start-up plus importing
``loopsoup.cli``.  The spec names the source tree, the CLI argument lists to
run and where to write the result.  Each command's standard output goes to
its own file through a writer that time-stamps every completed line.
"""

import json
import resource
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class StampedWriter:
    """Text sink that records when each line reaches the output stream."""

    def __init__(self, fh) -> None:
        self._fh = fh
        self.stamps: list[float] = []

    def write(self, text: str) -> int:
        self._fh.write(text)
        if "\n" in text:
            now = time.perf_counter()
            self.stamps.extend([now] * text.count("\n"))
        return len(text)

    def flush(self) -> None:
        self._fh.flush()


def _regenerate(spot: dict) -> list:
    """Rebuild sample records from (seed, index) alone through the library."""
    from loopsoup import gff, soup, spanning
    from loopsoup.matrices import WeightMatrix
    from loopsoup.rng import substream

    seed = spot["seed"]
    out = []
    for kind, spec in spot["kinds"].items():
        for i in spec["indices"]:
            if kind == "tree":
                g = spanning.SimpleGraph.from_json_file(spec["graph"])
                t = spanning.wilson_sample(g, substream(seed, i), root=0)
                record = {"edges": [list(e) for e in sorted(t)]}
            elif kind == "field":
                q = WeightMatrix.from_json_file(spec["matrix"])
                rng = substream(seed, i)
                realization = soup.SoupSampler(q, spec["intensity"]).sample(rng)
                counts = soup.discrete_occupation(realization, q.n)
                values = soup.continuous_occupation(counts, spec["intensity"], rng)
                record = {
                    "counts": [int(c) for c in counts],
                    "values": [float(v) for v in values],
                }
            else:
                q = WeightMatrix.from_json_file(spec["matrix"])
                phi = gff.gff_sample(gff.GFFModel.from_weights(q), 1, substream(seed, i))[0]
                record = {"values": [float(v) for v in phi]}
            out.append({"kind": kind, "index": i, "record": record})
    return out


def main() -> int:
    spawned = float(sys.argv[2])
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import loopsoup.cli as cli

    result = {"setup_s": _now() - spawned, "module": cli.__file__}
    if spec.get("setup_only"):
        _write(spec["result"], result)
        return 0

    tracer = None
    if spec.get("trace"):
        import tracing

        tracer = tracing.install()
    commands = []
    for cmd in spec["commands"]:
        with open(cmd["stdout"], "w", encoding="utf-8") as fh:
            sink = StampedWriter(fh)
            saved = sys.stdout
            sys.stdout = sink
            try:
                t0 = time.perf_counter()
                code = cli.main(cmd["argv"])
                t1 = time.perf_counter()
            finally:
                sys.stdout = saved
        commands.append(
            {
                "code": code,
                "wall_s": t1 - t0,
                "stamps": [s - t0 for s in sink.stamps],
            }
        )
    result["commands"] = commands
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    if spec.get("spot") and tracer is None:
        result["spot"] = _regenerate(spec["spot"])
    _write(spec["result"], result)
    return 0


def _write(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
