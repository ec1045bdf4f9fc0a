"""The ``src/`` lines that the product paths never run.

A ``sys.settrace`` collector records every line of ``src/confmech`` that
runs while these paths run, from the package import on:

* the three benchmark workloads' ``--smoke`` commands through
  ``confmech.cli.main``, each followed by its output check
  (``perfbench/workloads.py``);
* the other CLI commands over every catalog model, its flags written by
  the workloads' ``model_flags`` (``models``, and ``simulate``,
  ``reconstruct``, ``verify-algebra``, ``verify-decoupling``, ``reduce``
  and ``exact`` from its reference state);
* every script under ``demos/``, its output discarded;
* the benchmark tracer's install and restore (``perfbench/tracing.py``).

It then prints, per module, the executable lines that none of them ran,
as line ranges, and the total; those counts are for reading. A command
that exits with another code than expected (0, or 3 for the smoke runs'
deliberately singular command) or whose output check fails is printed
with its message, and the script then exits 1, so a broken or renamed
path never reads as lines not run.

    python tests/product_lines.py
"""

from __future__ import annotations

import contextlib
import io
import runpy
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "confmech"


def executable_lines(path: Path) -> set:
    """The lines of a module that carry bytecode: those of the module body
    and of every code object nested in it, less each function's own
    ``def`` line (a call starts there without a line event)."""
    lines = set()
    stack = [(compile(path.read_text(), str(path), "exec"), True)]
    while stack:
        code, is_module = stack.pop()
        own = {line for _, _, line in code.co_lines() if line}
        lines |= own if is_module else own - {code.co_firstlineno}
        stack += [(c, False) for c in code.co_consts
                  if hasattr(c, "co_lines")]
    return lines


def ranges(lines) -> str:
    """Sorted line numbers as ``a-b`` runs of consecutive numbers."""
    runs = []
    for n in sorted(lines):
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def product_paths(tmp: Path) -> list:
    """Run every product path once; return one line per failure: a
    command that exits non-zero or whose output check fails."""
    import tracing
    import workloads
    from confmech import cli, models

    failures = []

    def run(argv, check=None, output=None, expect=0):
        code = cli.main(argv)
        error = f"exit {code}" if code != expect else check and check(output)
        if error:
            failures.append(f"{' '.join(argv)}: {error}")

    for name in ("trajectory", "verification", "reconstruct"):
        for cmd in workloads.build(name, seed=0, out=tmp, smoke=True).commands:
            # the smoke run's "bad" command starts on the singular set
            run(cmd.argv, cmd.check, cmd.output,
                expect=3 if cmd.label == "bad" else 0)
    out = str(tmp / "out")
    run(["models", "--output", out])
    for ms in models.catalog():
        params = {"model": ms.name, "dim": ms.d}
        params.update(("particles" if key == "n" else key, value)
                      for key, value in ms.params.items())
        flags = workloads.model_flags(params) + ["--output", out]
        # the smoke workloads write simulate and reconstruct CSV, and
        # no exact output
        run(["simulate", *flags, "--dt", "1e-3", "--t-end", "0.05",
             "--format", "json"])
        run(["reconstruct", *flags, "--t-end", "0.5", "--num", "11",
             "--format", "json"])
        for fmt in ("csv", "json"):
            run(["exact", *flags, "--t-end", "0.5", "--num", "11",
                 "--format", fmt])
        for command in ("verify-algebra", "verify-decoupling"):
            run([command, *flags, "--samples", "10"])
        run(["reduce", *flags])
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")
    with tracing.Tracer("lines").installed(tracing.install_layers):
        pass
    return failures


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    hits = defaultdict(set)
    prefix = str(SRC)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(calls)
    try:
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()):
            import confmech  # noqa: F401  (its import-time lines count)
            failures = product_paths(Path(tmp))
    finally:
        sys.settrace(None)

    total = 0
    for path in sorted(SRC.glob("*.py")):
        missed = executable_lines(path) - hits[str(path)]
        total += len(missed)
        print(f"{path.name}: {len(missed)} never run"
              + (f": {ranges(missed)}" if missed else ""))
    print(f"{total} src/ lines never run on the product paths")
    for line in failures:
        print("FAILED:", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
