"""The package's public name surface and its sources."""

import ast
import importlib.util
import sys
import types
from pathlib import Path

import confmech
# every module the benchmark's tracer patches, loaded before the snapshot
from confmech import (cli, conformal, dual, lobachevsky, models,  # noqa: F401
                      phase, radial, reduction)


def test_all_holds_no_modules():
    exported = [getattr(confmech, name) for name in confmech.__all__]
    assert not [m for m in exported if isinstance(m, types.ModuleType)]
    assert "Observable" in confmech.__all__
    assert "phase" not in confmech.__all__


def test_benchmark_tracer_finds_and_restores_every_name():
    # the benchmark's tracer rebinds confmech functions by name, so a
    # renamed or removed one fails here, not only in a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {name: mod for name, mod in sys.modules.items()
               if name.startswith("confmech") and mod is not None}
    before = {(name, key): val for name, mod in modules.items()
              for key, val in vars(mod).items()}
    with tracing.Tracer("test").installed(tracing.install_layers):
        rebound = {key for key, val in before.items()
                   if getattr(modules[key[0]], key[1]) is not val}
    assert ("confmech.conformal", "verify_algebra") in rebound
    assert ("confmech.phase", "_grad_arrays") in rebound
    assert [key for key in rebound
            if getattr(modules[key[0]], key[1]) is not before[key]] == []


def test_sources_parse_at_the_python_floor():
    # requires-python is >=3.10, so syntax newer than 3.10 anywhere in the
    # sources fails here, on any interpreter, not only on a 3.10 one
    root = Path(__file__).resolve().parents[1]
    pyproject = (root / "pyproject.toml").read_text()
    assert 'requires-python = ">=3.10"' in pyproject
    files = [f for d in ("src", "tests", "perfbench", "demos")
             for f in sorted((root / d).rglob("*.py"))]
    assert len(files) > 20
    for f in files:
        ast.parse(f.read_text(), filename=str(f), feature_version=(3, 10))
