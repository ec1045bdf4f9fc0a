"""The benchmark's load process: runs one workload's commands in-process
through ``confmech.cli.main`` and prints one JSON line of results.

    python3 perfbench/worker.py --workload trajectory --seed 1 \\
        --seconds 25 --trace 0

``run.py`` starts it with single-threaded BLAS settings. One warm-up pass
runs and is fully checked first; timed passes follow until ``--seconds``
have been measured, each checked outside the timer against the warm-up
outputs. With ``--trace 1`` untraced and traced passes alternate, and the
traced ones feed the per-layer metrics. Outputs and spans go to
``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import confmech  # noqa: E402
from confmech import cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_pass(commands, tracer=None):
    """Run every command once; returns (exit codes, seconds per command)."""
    for cmd in commands:
        cmd.output.unlink(missing_ok=True)  # no stale output passes a check
    gc.collect()
    codes, secs = [], []
    for cmd in commands:
        t0 = perf_counter()
        try:
            if tracer is None:
                rc = cli.main(cmd.argv)
            else:
                rc = tracer.call("cli.main", cli.main, (cmd.argv,))
        except Exception:  # a crash is a failed command, not a failed run
            traceback.print_exc()
            rc = None
        secs.append(perf_counter() - t0)
        codes.append(rc)
    return codes, secs


class Checker:
    """Counts attempted and failed commands. The warm-up outputs are checked
    in full; later passes must reproduce them byte for byte."""

    def __init__(self, commands):
        self.commands = commands
        self.reference = [None] * len(commands)
        self.attempted = 0
        self.failures = Counter()

    def _fail(self, cmd, why):
        if not self.failures[cmd.label]:  # report each command once
            print(f"check failed: {cmd.label}: {why}", file=sys.stderr)
        self.failures[cmd.label] += 1

    def warm_up(self, codes):
        for i, (cmd, rc) in enumerate(zip(self.commands, codes)):
            self.attempted += 1
            if rc != 0:
                self._fail(cmd, f"exit code {rc}")
                continue
            try:
                err = cmd.check(cmd.output)
            except Exception as exc:  # unreadable output fails the check
                err = f"{type(exc).__name__}: {exc}"
            if err:
                self._fail(cmd, err)
            else:
                self.reference[i] = cmd.output.read_bytes()

    def repeat(self, codes):
        for cmd, rc, ref in zip(self.commands, codes, self.reference):
            self.attempted += 1
            if rc != 0:
                self._fail(cmd, f"exit code {rc}")
            elif ref is None or cmd.output.read_bytes() != ref:
                self._fail(cmd, "output differs from the checked warm-up")


def pass_cost(passes) -> float:
    """Mean seconds per pass over the whole window (total time over passes).

    On a shared machine the speed drifts over tens of seconds; a window's
    median or fastest pass then jumps between fast and slow stretches,
    while its mean weighs them by how long they lasted, which repeats
    better run to run.
    """
    return sum(map(sum, passes)) / len(passes)


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    if Path(confmech.__file__).resolve().parent != ROOT / "src" / "confmech":
        sys.exit(f"confmech imported from {confmech.__file__}, "
                 "not from this checkout")
    out = ROOT / ".perfbench_out" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, out, smoke=args.smoke)
    checker = Checker(wl.commands)

    codes, _ = run_pass(wl.commands)
    checker.warm_up(codes)

    untraced, traced = [], []   # seconds per command, one list per pass
    tracer = tracing.Tracer(args.workload) if args.trace else None
    spent = 0.0
    while spent < args.seconds:
        codes, secs = run_pass(wl.commands)
        checker.repeat(codes)
        untraced.append(secs)
        spent += sum(secs)
        if tracer is not None:
            tracer.current_pass = len(traced)
            with tracer.installed(tracing.install_layers):
                codes, secs = run_pass(wl.commands, tracer)
            checker.repeat(codes)
            traced.append(secs)
            spent += sum(secs)

    wall = pass_cost(untraced)
    result = {
        "workload": args.workload, "seed": args.seed,
        "machine": machine_info(), "inputs": wl.inputs,
        "work_per_pass": wl.work_per_pass,
        "command_seconds": untraced, "traced_command_seconds": traced,
        "attempted": checker.attempted,
        "failed": sum(checker.failures.values()),
        "failures": dict(checker.failures),
    }
    if tracer is None:
        result["metrics"] = {
            "work_per_s": (wl.work_per_pass / wall, "1/s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        layers = tracing.layer_metrics(tracer, len(traced))
        layers["trace.overhead"] = (
            pass_cost(traced) / wall - 1.0, "ratio")
        result["metrics"] = layers
        tracer.write(out / f"trace-{args.workload}.csv")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
