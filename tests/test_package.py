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


def _references(tree) -> set:
    """Every name a syntax tree mentions: as a name, an attribute, an
    imported name or a whole string constant."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def _public_definitions(tree):
    """(name, statement) of each public module-level function, class and
    constant of a module."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            names = [node.id for target in targets
                     for node in ast.walk(target)
                     if isinstance(node, ast.Name)]
        else:
            continue
        yield from ((name, stmt) for name in names
                    if not name.startswith("_"))


def _unused_imports(tree) -> list:
    """The names a module imports and never uses."""
    bound = [alias.asname or alias.name.partition(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_src_holds_only_what_the_package_reaches():
    # a public name in src/confmech must be exported, or be reached from
    # src/, demos/ or perfbench/, so a test-only helper lives in tests/;
    # and no module but __init__ imports a name it does not use
    root = Path(__file__).resolve().parents[1]
    trees = {f: ast.parse(f.read_text(), filename=str(f))
             for d in ("src", "demos", "perfbench")
             for f in sorted((root / d).rglob("*.py"))}
    modules = sorted((root / "src" / "confmech").glob("*.py"))
    assert len(modules) > 5
    stray = []
    for path in modules:
        tree = trees[path]
        elsewhere = set().union(*(_references(t) for f, t in trees.items()
                                  if f != path))
        for name, stmt in _public_definitions(tree):
            own = set().union(*(_references(s) for s in tree.body
                                if s is not stmt))
            if name not in confmech.__all__ and name not in elsewhere | own:
                stray.append(f"{path.stem}.{name}")
        if path.name != "__init__.py":
            stray += [f"{path.stem}: unused import {name}"
                      for name in _unused_imports(tree)]
    assert not stray, ", ".join(stray)


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


def test_benchmark_trajectory_outputs_pass_their_checks(tmp_path):
    # the trajectory workload's checks read each CSV back and hold its row
    # count and the drift of H and I under 1e-6, so a change to the Verlet
    # loop or the CSV writer that breaks them fails here
    workloads = _load_perfbench("workloads")
    wl = workloads.build("trajectory", seed=0, out=tmp_path)
    assert len(wl.commands) == len(workloads.SIMULATE_MODELS)
    for cmd in wl.commands:
        assert cli.main(cmd.argv) == 0, cmd.label
        assert cmd.check(cmd.output) is None, cmd.label


def test_benchmark_verification_outputs_pass_their_checks(tmp_path):
    # the verification workload's checks hold each report's seed, sample
    # count and verdict or pass flag, and the workload draws states through
    # sample_states itself, so a change to the reports or the sampler that
    # breaks them fails here
    workloads = _load_perfbench("workloads")
    wl = workloads.build("verification", seed=0, out=tmp_path)
    assert len(wl.commands) == (len(workloads.DECOUPLING_MODELS)
                                + len(workloads.ALGEBRA_MODELS))
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
