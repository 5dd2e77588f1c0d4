"""The benchmark's per-layer tracer wraps orthograph functions by name; a
renamed or deleted one makes every traced benchmark run fail at start."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced_names() -> list:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


def test_every_traced_name_resolves():
    traced = _traced_names()
    assert traced
    for mod_name, attr, _kind in traced:
        home = importlib.import_module(f"orthograph.{mod_name}")
        if "." in attr:  # a method: looked up in the class __dict__, as Tracer.install does
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(home, cls_name)), f"{mod_name}.{attr}"
        else:
            assert callable(getattr(home, attr, None)), f"{mod_name}.{attr}"
