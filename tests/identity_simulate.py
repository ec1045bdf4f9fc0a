"""Byte identity of the Verlet flow over a fixed set of runs.

Two groups of runs, each hashed to one SHA-256 per run:

* ``workload``: the benchmark's trajectory workload commands
  (``perfbench/workloads.py``) at seeds 0-7, full and ``--smoke`` size,
  through ``confmech.cli.main``: each command's exit code and output bytes
  (the smoke size's refused command writes its error document).
* ``library``: ``integrate_verlet`` on seeded infalling states of every
  catalog system with a singular set, at four step sizes to t = 1, and of
  three potentials with no guard at all, started 1000 times closer to the
  origin, and unguarded escapes fast enough that the position overflows
  at a chosen step. A run that stops hashes its error type, message,
  ``last_good_time`` and state bits; a run that finishes hashes its CSV.
  Each guarded system's first run that stops at step 514 or later is run
  again from later rows of itself, so that it stops at steps 1, 255, 256,
  257, 511, 512 and 513, and once more cut at its stop, so that it stops
  at its final step.

``identity_simulate.json`` beside this file holds every digest.

    python tests/identity_simulate.py           # check the manifest
    python tests/identity_simulate.py --write   # rewrite the manifest

Both modes print one SHA-256 over the whole set and the steps the library
group's stops fall on. A check names every run whose bytes differ from the
manifest and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from identity_reconstruct import ROOT, _load_workloads, combined

MANIFEST = Path(__file__).with_name("identity_simulate.json")
SEEDS = range(8)
SIZES = ("full", "smoke")
# the guard's systems: attractive and repulsive inverse-square in d = 1..3
# and every other model with a singular set
GUARD_MODELS = ([("inverse-square", dict(d=d, kappa=k))
                 for d in (1, 2, 3) for k in (-0.5, 0.5)]
                + [("higgs", dict(d=3, omega=1.0)),
                   ("coulomb", dict(d=3, gamma=1.0)),
                   ("calogero", dict(n=3, g=1.0)),
                   ("calogero", dict(n=4, g=1.0))])
# potentials run with no singular distance: only the finiteness test stops
UNGUARDED_MODELS = [("inverse-square", dict(d=1, kappa=1e300)),
                    ("inverse-square", dict(d=2, kappa=-0.5)),
                    ("coulomb", dict(d=3, gamma=1.0))]
DTS = (1e-4, 1e-3, 1e-2, 0.05)
STATES = 3
# the steps at which an unguarded escape at dt = 0.01 overflows
ESCAPE_STEPS = (255, 256, 257, 513)
# steps left to the stop in the rerun of a long run from a later row:
# the first, second-to-last, last and first rows of a 256-row block
STOPS_FROM_ROW = (1, 255, 256, 257, 511, 512, 513)


def infalling_states(sys_, n, seed):
    """Seeded states 5e-2 or more off the singular set (when there is
    one), moving toward the origin at speed 0.5 to 3 with a small sideways
    kick."""
    from confmech.phase import PhaseState

    rng = np.random.default_rng(seed)
    states = []
    while len(states) < n:
        q = rng.normal(size=sys_.d)
        if sys_.singular_distance is not None \
                and sys_.singular_distance(q) < 0.05:
            continue
        speed = rng.uniform(0.5, 3.0)
        p = -speed * q / np.sqrt(q @ q) + 0.2 * rng.normal(size=sys_.d)
        states.append(PhaseState(q, p))
    return states


def outcome(sys_, s0, dt, n_steps):
    """``(sha256, stop step or None)`` of one run of ``n_steps`` steps."""
    from confmech.cli import trajectory_csv
    from confmech.errors import NonFiniteError, SingularityApproachError
    from confmech.phase import integrate_verlet

    h = hashlib.sha256()
    try:
        traj = integrate_verlet(sys_, s0, dt, n_steps * dt)
    except (SingularityApproachError, NonFiniteError) as err:
        h.update(f"{type(err).__name__}: {err}\n".encode())
        t = getattr(err, "last_good_time", None)
        h.update(f"{t!r}\n".encode())
        if err.state is not None:
            h.update(err.state.q.tobytes() + err.state.p.tobytes())
        stop = None if t is None else round(t / dt) + 1
        return h.hexdigest(), stop
    h.update(trajectory_csv(traj).encode())
    return h.hexdigest(), None


def library_runs(select=lambda key: True):
    """``{key: (sha256, stop step or None)}`` of every library run whose
    key ``select`` admits, in the manifest's order."""
    from confmech import models
    from confmech.conformal import build_system
    from confmech.phase import PhaseState, integrate_verlet

    out = {}
    for guarded, table in ((True, GUARD_MODELS), (False, UNGUARDED_MODELS)):
        for name, kwargs in table:
            ms = models.spec(name, **kwargs)
            sys_ = (models.build(ms) if guarded
                    else build_system(models.potential(ms), ms.d))
            tag = ("library " if guarded else "library unguarded ") + ms.label
            long_run = None
            for i, s0 in enumerate(infalling_states(sys_, STATES, 29)):
                if not guarded:
                    s0 = PhaseState(1e-3 * s0.q, s0.p)
                for dt in DTS:
                    n_steps = round(1.0 / dt)
                    key = f"{tag} state {i} dt {dt!r} steps {n_steps}"
                    if not select(key):
                        continue
                    digest, stop = out[key] = outcome(sys_, s0, dt, n_steps)
                    if guarded and long_run is None and stop is not None \
                            and stop >= STOPS_FROM_ROW[-1] + 1:
                        long_run = (i, s0, dt, stop)
            if long_run is None:
                continue
            i, s0, dt, stop = long_run
            base = f"{tag} state {i} dt {dt!r}"
            key = f"{base} steps {stop}"
            if select(key):
                out[key] = outcome(sys_, s0, dt, stop)
            for left in STOPS_FROM_ROW:
                row = stop - left
                key = f"{base} from row {row} steps {left + 10}"
                if select(key):
                    run = integrate_verlet(sys_, s0, dt, row * dt)
                    start = PhaseState(run.qs[-1], run.ps[-1])
                    out[key] = outcome(sys_, start, dt, left + 10)
    # q_k = 1 + k * 0.01 * P passes the largest float at step k
    free = build_system(models.potential(
        models.spec("inverse-square", d=2, kappa=0.5)), 2)
    for k in ESCAPE_STEPS:
        key = f"library escape inverse_square(d=2) overflows at step {k}"
        if select(key):
            P = sys.float_info.max / ((k - 0.5) * 0.01)
            out[key] = outcome(free, PhaseState([1.0, 0.0], [P, 0.0]), 0.01,
                               k + 10)
    return out


def workload_runs(select=lambda key: True) -> dict:
    """``{key: sha256}`` of every workload command whose key ``select``
    admits, in the manifest's order."""
    from confmech import cli

    workloads = _load_workloads()
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for size in SIZES:
                wl = workloads.build("trajectory", seed, Path(tmp),
                                     smoke=size == "smoke")
                for cmd in wl.commands:
                    key = f"workload seed {seed} {size} {cmd.label}"
                    if not select(key):
                        continue
                    code = cli.main(cmd.argv)
                    body = (cmd.output.read_bytes()
                            if cmd.output.exists() else b"")
                    cmd.output.unlink(missing_ok=True)
                    out[key] = hashlib.sha256(
                        f"{code}\n".encode() + body).hexdigest()
    return out


def stop_steps(runs: dict) -> list:
    """The steps the library runs' stops fall on, in order."""
    return [stop for _, stop in runs.values() if stop is not None]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help="rewrite the manifest from this checkout")
    args = ap.parse_args(argv)
    # the unguarded runs overflow on purpose
    with np.errstate(all="ignore"):
        runs = library_runs()
    table = {**workload_runs(),
             **{key: digest for key, (digest, _) in runs.items()}}
    stops = stop_steps(runs)
    print(f"{combined(table)}  {len(table)} runs")
    print(f"{len(stops)} library stops; steps mod 256: "
          f"{sorted({k % 256 for k in stops})}")
    if args.write:
        MANIFEST.write_text(json.dumps(table, indent=1) + "\n",
                            encoding="utf-8")
        return 0
    pinned = json.loads(MANIFEST.read_text(encoding="utf-8"))
    differ = [key for key in pinned.keys() | table.keys()
              if pinned.get(key) != table.get(key)]
    for key in sorted(differ):
        print(f"differs: {key}")
    print(f"{len(differ)} of {len(pinned)} manifest runs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    # the checkout's own sources, not an installed copy
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
