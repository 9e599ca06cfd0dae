"""Span tracing installed from outside the package.

``install`` wraps the public functions of each loopsoup module (and a few
methods) in a span, then rebinds every module attribute that still points
at an original function, so calls made through ``from .x import f`` names
are seen too.  Spans are aggregated in memory per name: call count, total
duration and self time (duration minus the time of the spans nested in it).

A generator function gets one span per resumption, so its busy time is
measured while the consumer's work between items is not charged to it.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time

import numpy as np

#: the package modules treated as layers, in report order
LAYERS = ("matrices", "loops", "lerw", "spanning", "soup", "gff", "rng", "fixtures", "cli")

#: methods wrapped besides module-level functions, as (module, class, method)
METHODS = (
    ("matrices", "WeightMatrix", "from_json_dict"),
    ("spanning", "SimpleGraph", "from_json_dict"),
    ("soup", "SoupSampler", "__init__"),
    ("soup", "SoupSampler", "sample"),
    ("soup", "SoupSampler", "sample_loop"),
    ("gff", "GFFModel", "from_weights"),
    ("gff", "ComplexGFFModel", "from_weights"),
)

_clock = time.perf_counter


def philox_words(rng: np.random.Generator) -> int:
    """64-bit Philox outputs drawn so far by ``rng``, read from its state."""
    state = rng.bit_generator.state
    counter = state["state"]["counter"]
    value = sum(int(c) << (64 * k) for k, c in enumerate(counter))
    # each counter step yields four words; buffer_pos counts those consumed
    return 4 * value + int(state["buffer_pos"]) - 4


class Tracer:
    """Aggregated spans plus the few counters that need a call's arguments."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.stack: list[list[float]] = []  # child time of each open span
        self.words: dict[str, int] = {}
        self.gated: set[bytes] = set()
        self.max_loop_len = 0

    def _slot(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, fn, name: str, before=None, after=None):
        """Span around ``fn``.  ``before(args, kwargs)`` runs ahead of the
        call and ``after(args, kwargs, result, early)`` behind it, with
        ``early`` what ``before`` returned; both may record counters."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)
        slot = self._slot(name)
        stack = self.stack

        def wrapper(*args, **kwargs):
            early = before(args, kwargs) if before else None
            frame = [0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
                slot[0] += 1
                slot[1] += dt
                slot[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if after:
                after(args, kwargs, result, early)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _wrap_generator(self, fn, name: str):
        slot = self._slot(name)
        items = self._slot(name + ".items")
        stack = self.stack

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            slot[0] += 1
            while True:
                frame = [0.0]
                stack.append(frame)
                t0 = _clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    dt = _clock() - t0
                    stack.pop()
                    slot[1] += dt
                    slot[2] += dt - frame[0]
                    if stack:
                        stack[-1][0] += dt
                items[0] += 1
                yield item

        return functools.update_wrapper(wrapper, fn)

    def snapshot(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.stats.items()},
            "words": dict(self.words),
            "distinct_gated": len(self.gated),
            "max_loop_len": self.max_loop_len,
        }


def _hooks(tracer: Tracer, name: str) -> dict:
    """Counters that need a call's arguments or result, by span name."""

    def rng_of(args, kwargs):
        return kwargs["rng"] if "rng" in kwargs else args[1]

    def words_before(args, kwargs):
        return philox_words(rng_of(args, kwargs))

    def words_after(args, kwargs, result, early):
        drawn = philox_words(rng_of(args, kwargs)) - early
        tracer.words[name] = tracer.words.get(name, 0) + drawn

    def gated(args, kwargs, result, early):
        arr = getattr(args[0], "entries", args[0])
        blob = np.ascontiguousarray(arr, dtype=np.complex128).tobytes()
        tracer.gated.add(hashlib.blake2b(blob, digest_size=16).digest())

    def loop_length(args, kwargs, result, early):
        tracer.max_loop_len = max(tracer.max_loop_len, len(result.sites))

    # both samplers take the generator as their second argument
    if name in ("spanning.wilson_sample", "soup.SoupSampler.sample"):
        return {"before": words_before, "after": words_after}
    if name == "matrices.spectral_radius_abs":
        return {"after": gated}
    if name == "soup.SoupSampler.sample_loop":
        return {"after": loop_length}
    return {}


def install() -> Tracer:
    """Wrap every layer's public functions and rebind them package-wide."""
    tracer = Tracer()
    modules = {layer: importlib.import_module(f"loopsoup.{layer}") for layer in LAYERS}
    replaced: dict[int, object] = {}
    for layer, mod in modules.items():
        if layer == "cli":
            targets = {"main": mod.main}
        else:
            targets = {
                name: obj
                for name, obj in vars(mod).items()
                if inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not name.startswith("_")
            }
        for name, fn in targets.items():
            full = f"{layer}.{name}"
            replaced[id(fn)] = tracer.wrap(fn, full, **_hooks(tracer, full))
    # rebind by identity in every package module, so imported names see spans
    for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "loopsoup"]:
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced and inspect.isfunction(obj):
                setattr(mod, name, replaced[id(obj)])
    for layer, cls_name, meth in METHODS:
        cls = getattr(modules[layer], cls_name, None)
        raw = cls.__dict__.get(meth) if cls is not None else None
        if raw is None:
            continue  # the layer no longer has this method
        full = f"{layer}.{cls_name}.{meth}"
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(tracer.wrap(raw.__func__, full)))
        else:
            setattr(cls, meth, tracer.wrap(raw, full, **_hooks(tracer, full)))
    return tracer
