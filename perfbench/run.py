"""confmech benchmark: one command per workload, every metric by name.

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 25 \\
        --trace 0
    python3 perfbench/run.py --smoke

Workloads (inputs are generated from ``--seed``; see ``workloads.py`` for
why each exists and what the open ROADMAP items should do to it):

* ``trajectory``   -- ``simulate`` on four models, 10,000 Verlet steps each
* ``verification`` -- ``verify-decoupling`` x4 and ``verify-algebra`` x3,
  200 sampled states each
* ``reconstruct``  -- ``reconstruct`` of five collapse-free states,
  1,001 points each

The run starts one load process (``worker.py``) with single-threaded
BLAS, and before and after it times several fresh interpreters that import
``confmech.cli`` and build the workload's systems (``setup_s``). With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics from traced passes (its set-up interpreters run under
``-X importtime`` to find the share of ``scipy.integrate``). The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.
Outputs, spans and a full result file go to ``.perfbench_out/``.

``--smoke`` runs every workload at toy size with a command that must fail,
and checks that each metric named in BENCHMARK.json is emitted with its
unit and that the failure is counted without ending the run.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("trajectory", "verification", "reconstruct")
SETUP_PROBES = 5
RUN_LIMIT_S = 175.0

# the work unit behind work_per_s, under its per-workload name
RATE_NAMES = {"trajectory": "steps_per_s", "verification": "states_per_s",
              "reconstruct": "points_per_s"}

ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
           MKL_NUM_THREADS="1", PYTHONHASHSEED="0")


class BenchError(Exception):
    pass


# a line of ``-X importtime`` output: self us | cumulative us | module
SCIPY_IMPORT = re.compile(r"\|\s*(\d+)\s*\|\s*scipy\.integrate\s*$", re.M)


def _child(args, deadline, flags=()):
    """Run a Python script to completion; returns its last stdout line as
    JSON, and its stderr when interpreter ``flags`` are given. Raises
    TimeoutExpired (after killing it) past ``deadline``."""
    proc = subprocess.run([sys.executable, *flags, *map(str, args)],
                          env=ENV, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE if flags else None,
                          text=True, cwd=ROOT,
                          timeout=deadline - time.monotonic())
    if proc.returncode != 0:
        raise BenchError(f"{Path(str(args[0])).name} exited with "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def probe(workload, deadline, importtime):
    """Set-up times of one fresh interpreter. With ``importtime`` it runs
    under ``-X importtime``, which adds the cumulative import time of
    ``scipy.integrate``: 0 when ``import confmech.cli`` does not load it
    (a later import by the probe itself is not the program's cost)."""
    flags = ("-X", "importtime") if importtime else ()
    res, err = _child([HERE / "probe.py", workload, repr(time.time())],
                      deadline, flags)
    if importtime:
        m = SCIPY_IMPORT.search(err) if res["scipy_loaded"] else None
        res["scipy_import_s"] = int(m.group(1)) * 1e-6 if m else 0.0
    return res


def run(workload, seed, seconds, trace, smoke=False, probes=SETUP_PROBES):
    """One benchmark run; returns (final JSON object, full result)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    # half the set-up probes run before the load and half after, so that
    # their median samples the machine's speed at both ends of the run
    setup = [probe(workload, deadline, trace)
             for _ in range(probes - probes // 2)]
    args = [HERE / "worker.py", "--workload", workload, "--seed", seed,
            "--seconds", seconds, "--trace", trace]
    if smoke:
        args.append("--smoke")
    res, _ = _child(args, deadline)
    setup += [probe(workload, deadline, trace) for _ in range(probes // 2)]
    metrics = {k: {"value": v, "unit": u}
               for k, (v, u) in res.pop("metrics").items()}

    def median(key):
        return statistics.median(p[key] for p in setup)

    if trace:
        metrics["setup.import_s"] = {"value": median("import_s"),
                                     "unit": "s"}
        metrics["setup.scipy_import_s"] = {"value": median("scipy_import_s"),
                                           "unit": "s"}
    else:
        metrics["setup_s"] = {"value": median("setup_s"), "unit": "s"}
    res["setup_probes"] = setup
    res["metrics"] = metrics
    final = {"correct": res["failed"] == 0, "attempted": res["attempted"],
             "failed": res["failed"], "metrics": metrics}
    return final, res


def report(final, res, trace):
    m = res["machine"]
    print(f"workload {res['workload']}, seed {res['seed']}, "
          f"trace {trace}: nproc {m['nproc']}, {m['cpu']}, "
          f"Python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}")
    print(f"inputs: {json.dumps(res['inputs'])}")
    print(f"passes: {len(res['command_seconds'])} untraced, "
          f"{len(res['traced_command_seconds'])} traced, "
          f"{res['work_per_pass']} work units each")
    for name, mv in final["metrics"].items():
        print(f"{name} = {mv['value']:.6g} {mv['unit']}")
    if not trace:
        alias = RATE_NAMES[res["workload"]]
        print(f"{alias} = {final['metrics']['work_per_s']['value']:.6g} 1/s "
              "(work_per_s on this workload)")
    print(f"failed_ops = {final['failed']}/{final['attempted']} commands")
    with open(OUT / f"result-{res['workload']}-trace{trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)


def smoke() -> int:
    """Toy-size runs of every workload in both modes, checked against the
    metric names in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            final, res = run(workload, 0, 1, trace, smoke=True, probes=1)
            got = final["metrics"]
            for entry in spec[section]:
                mv = got.get(entry["name"])
                if mv is None or mv.get("unit") != entry["unit"]:
                    problems.append(f"{workload}/{trace}: {entry['name']} "
                                    f"missing or not in {entry['unit']}")
            extra = set(got) - {e["name"] for e in spec[section]}
            if extra:
                problems.append(f"{workload}/{trace}: unlisted {extra}")
            runs = (1 + len(res["command_seconds"])
                    + len(res["traced_command_seconds"]))
            if res["failures"] != {"bad": runs}:
                problems.append(f"{workload}/{trace}: failures "
                                f"{res['failures']}, expected "
                                f"{{'bad': {runs}}}")
            print(f"{workload} trace {trace}: {final['failed']} of "
                  f"{final['attempted']} commands failed "
                  f"({res['failures']})")
    for p in problems:
        print("smoke:", p, file=sys.stderr)
    print("smoke " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "confmech" / "cli.py").is_file():
        print(f"no confmech sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        final, res = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    report(final, res, args.trace)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
