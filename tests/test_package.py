"""The package's public name surface and its sources."""

import ast
import importlib.util
import os
import subprocess
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


def _load_perfbench(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while it is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_benchmark_tracer_finds_and_restores_every_name():
    # the benchmark's tracer rebinds confmech functions by name, so a
    # renamed or removed one fails here, not only in a traced benchmark run
    tracing = _load_perfbench("tracing")
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


def test_benchmark_reconstruct_outputs_pass_their_checks(tmp_path):
    # the reconstruct workload's checks call integrate_adaptive and other
    # confmech functions themselves, so a change to those calls fails here,
    # not only in a benchmark run
    workloads = _load_perfbench("workloads")
    wl = workloads.build("reconstruct", seed=0, out=tmp_path)
    assert len(wl.commands) == len(workloads.RECONSTRUCT_MODELS)
    for cmd in wl.commands:
        assert cli.main(cmd.argv) == 0, cmd.label
        assert cmd.check(cmd.output) is None, cmd.label


def test_cli_import_leaves_scipy_out():
    # every reparam_time branch is closed form, so no command pays for
    # importing scipy; a fresh interpreter shows it, as start-up sees it
    src = str(Path(confmech.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, confmech.cli; print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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
