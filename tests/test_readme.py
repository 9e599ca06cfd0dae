"""The README's library example runs, and every exported name resolves."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import loopsoup

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README has no python block under 'Library example'"
    return match.group(1)


def test_library_example_runs(capsys):
    exec(compile(_library_example(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert complex(lines[0]) == pytest.approx(4 / 3, rel=1e-12)
    assert len(lines) == 2


def test_top_level_exports_only_the_example_objects():
    assert set(loopsoup.__all__) == {
        "LoopSoupError",
        "SoupSampler",
        "WeightMatrix",
        "greens_exact",
        "substream",
    }


def test_every_module_all_resolves():
    modules = [loopsoup] + [
        importlib.import_module(f"loopsoup.{info.name}")
        for info in pkgutil.iter_modules(loopsoup.__path__)
    ]
    assert len(modules) > 5
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ lists missing {name!r}"
