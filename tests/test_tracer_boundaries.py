"""The benchmark tracer still installs on umbra.

``perfbench/layers.py`` names the functions and methods it wraps, and
``Tracer.install`` raises when one of them is missing.  This test reads
that file without importing it as a package module (so nothing is
written beside it), installs the tracer on the imported umbra package
and uninstalls it again: deleting or renaming a traced name fails here,
in the tier-1 suite, and not only in the benchmark run.
"""

from __future__ import annotations

import importlib
import types
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
MODULES = ("cli", "core", "formal", "heisenberg", "kernels", "models", "numeric",
           "quadrature", "reports", "transforms", "translations")


def _layers() -> types.ModuleType:
    mod = types.ModuleType("perfbench_layers")
    exec(compile(LAYERS.read_text(), str(LAYERS), "exec"), mod.__dict__)
    return mod


def _bindings(owners) -> dict:
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_the_tracer_installs_on_every_boundary_and_uninstalls_cleanly():
    layers = _layers()
    mods = [importlib.import_module(f"umbra.{name}") for name in MODULES]
    owners = mods + [v for m in mods for v in vars(m).values()
                     if isinstance(v, type) and v.__module__.startswith("umbra")]
    before = _bindings(owners)
    tracer = layers.Tracer()
    try:
        tracer.install()
        patched = {key for key, value in _bindings(owners).items() if before.get(key) is not value}
        targets = [t for _, ts in layers.BOUNDARIES for t in ts] + [t for _, t in layers.COUNTED]
        assert len(patched) >= len(targets)
    finally:
        tracer.uninstall()
    after = _bindings(owners)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
