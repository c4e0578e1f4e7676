"""Every entry point the end-to-end benchmark wraps still exists.

``benchmarks/e2e/tracing.py`` replaces the public entry points of each
layer by name at run time (``LAYERS``, plus ``SimCensus.ENTRY`` in every
run). A renamed method would be skipped silently, so its time would land
in no layer; a renamed module function would crash the traced run. The
benchmark's own tests are not in this suite, so the names are checked
here.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("e2e_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACING = _load_tracing()
_LISTED = [spec for specs in _TRACING.LAYERS.values() for spec in specs]

#: Entries the benchmark still lists for methods that were merged into
#: another traced entry point (``FuPool.acquire_div`` now takes the deadline
#: its speculative twin took). The benchmark's next revision drops them
#: (ROADMAP); until then each must really be gone from the source.
RETIRED = ("repro.cpu.fu:FuPool.try_acquire_div",)

ENTRY_POINTS = [spec for spec in _LISTED if spec not in RETIRED]
ENTRY_POINTS.append(_TRACING.SimCensus.ENTRY)


@pytest.mark.parametrize("spec", ENTRY_POINTS)
def test_entry_point_exists(spec):
    module_name, _, qualname = spec.partition(":")
    module = importlib.import_module(module_name)
    # A trailing "*" also wraps subclasses, but the base class must define it.
    owner_name, _, attr = qualname.rstrip("*").rpartition(".")
    if not owner_name:
        assert inspect.isfunction(getattr(module, attr, None)), f"{spec}: no such function"
        return
    owner = getattr(module, owner_name, None)
    assert inspect.isclass(owner), f"{spec}: no class {owner_name}"
    assert attr in vars(owner), f"{spec}: {owner_name} does not define {attr}"


@pytest.mark.parametrize("spec", RETIRED)
def test_retired_is_gone(spec):
    # Once the benchmark stops listing it, drop it from RETIRED.
    assert spec in _LISTED, f"{spec}: no longer listed; remove it from RETIRED"
    module_name, _, qualname = spec.partition(":")
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(importlib.import_module(module_name), owner_name)
    assert attr not in vars(owner), f"{spec}: still defined; trace it instead"
