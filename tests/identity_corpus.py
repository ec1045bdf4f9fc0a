"""Byte identity of every result confmech reproduces, over a fixed corpus.

Three groups of entries, each entry hashed to one SHA-256:

* ``reconstruct``: the benchmark's reconstruct workload commands
  (``perfbench/workloads.py``) at seeds 0-7, full and ``--smoke`` size,
  each run at ``--rtol`` 1e-8, 1e-10 and 1e-12.
* ``simulate``: the trajectory workload commands at seeds 0-7, and
  ``integrate_verlet`` on seeded infalling states of every catalog system
  with a singular set, at four step sizes to t = 1, and of three
  potentials with no guard at all, started 1000 times closer to the
  origin, and unguarded escapes fast enough that the position overflows
  at a chosen step. A run that stops hashes its error type, message,
  ``last_good_time`` and state bits; a run that finishes hashes its CSV.
  Each guarded system's first run that stops at step 514 or later is run
  again from later rows of itself, so that it stops at steps 1, 255, 256,
  257, 511, 512 and 513, and once more cut at its stop, so that it stops
  at its final step.
* ``verify``: the verification workload commands at seeds 0-5;
  ``canonicity_report`` and ``verify_algebra`` on every catalog system,
  inverse-square in d = 1..4 at kappa = +-0.5 and calogero with 3 and 5
  particles, at 1, 7 and 200 samples and seeds 0-3 (the ``json.dumps`` of
  each report's ``to_dict``, or the error it raises); and the one-point
  ``bracket_matrix`` bytes and every ``expected_brackets`` field as
  ``float.hex``, at three sampled states of each of those systems and
  seeds 0 and 1, both signs of I among them.

A workload command goes through ``confmech.cli.main`` and hashes its exit
code and output bytes (the smoke size's refused command writes its error
document). ``identity.json`` beside this file holds one object of digests
per group.

    python tests/identity_corpus.py           # check the manifest
    python tests/identity_corpus.py --write   # rewrite the manifest

Both modes print one SHA-256 per group. A check names every entry whose
bytes differ from the manifest and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("identity.json")
RTOLS = ("1e-08", "1e-10", "1e-12")
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
# the steps at which an unguarded escape at dt = 0.01 overflows
ESCAPE_STEPS = (255, 256, 257, 513)
# steps left to the stop in the rerun of a long run from a later row:
# the first, second-to-last, last and first rows of a 256-row block
STOPS_FROM_ROW = (1, 255, 256, 257, 511, 512, 513)


def _all(key):
    return True


def _digest(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _error(err) -> str:
    return f"{type(err).__name__}: {err}"


def _load_workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while it is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def workload_runs(name: str, seeds, select=_all, rtols=()) -> dict:
    """``{key: sha256}`` of the workload ``name``'s commands whose key
    ``select`` admits, in the manifest's order. A key reads ``workload
    seed S SIZE LABEL``; with ``rtols``, each reconstruct command runs once
    per ``--rtol`` value instead, keyed ``seed S SIZE LABEL rtol R``."""
    from confmech import cli

    workloads = _load_workloads()
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for size in ("full", "smoke"):
                wl = workloads.build(name, seed, Path(tmp),
                                     smoke=size == "smoke")
                for cmd in wl.commands:
                    base = f"seed {seed} {size} {cmd.label}"
                    runs = ([(f"{base} rtol {r}", ["--rtol", r])
                             for r in rtols if cmd.argv[0] == "reconstruct"]
                            if rtols else [(f"workload {base}", [])])
                    for key, flags in runs:
                        if not select(key):
                            continue
                        code = cli.main([*cmd.argv, *flags])
                        body = (cmd.output.read_bytes()
                                if cmd.output.exists() else b"")
                        cmd.output.unlink(missing_ok=True)
                        out[key] = hashlib.sha256(
                            f"{code}\n".encode() + body).hexdigest()
    return out


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


def library_runs(select=_all):
    """``{key: (sha256, stop step or None)}`` of every library Verlet run
    whose key ``select`` admits, in the manifest's order."""
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
            for i, s0 in enumerate(infalling_states(sys_, 3, 29)):
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


def stop_steps(runs: dict) -> list:
    """The steps the library runs' stops fall on, in order."""
    return [stop for _, stop in runs.values() if stop is not None]


def library_specs() -> list:
    """The verify group's systems: the catalog, inverse-square in d = 1..4
    at both signs of kappa and calogero n = 3 and 5, each once."""
    from confmech import models

    specs = (models.catalog()
             + [models.spec("inverse-square", d=d, kappa=k)
                for d in (1, 2, 3, 4) for k in (0.5, -0.5)]
             + [models.spec("calogero", n=n) for n in (3, 5)])
    return list({ms.label: ms for ms in specs}.values())


def library_reports(select=_all) -> dict:
    """``{key: sha256}`` of every library report whose key ``select``
    admits, in the manifest's order."""
    from confmech import models
    from confmech.conformal import verify_algebra
    from confmech.errors import ConfmechError
    from confmech.lobachevsky import canonicity_report

    out = {}
    for ms in library_specs():
        sys_ = models.build(ms)
        for name, report in (("canonicity", canonicity_report),
                             ("algebra", verify_algebra)):
            for samples in (1, 7, 200):
                for seed in range(4):
                    key = (f"library {name} {ms.label} samples {samples} "
                           f"seed {seed}")
                    if not select(key):
                        continue
                    try:
                        doc = report(sys_, samples=samples, seed=seed)
                        text = json.dumps(doc.to_dict())
                    except ConfmechError as err:
                        text = _error(err)
                    out[key] = _digest(text)
    return out


def bracket_lines(sys_, s) -> list:
    """``bracket_matrix(...).tobytes().hex()`` at a state and, where the
    chart reaches it, the ``float.hex`` of every ``expected_brackets``
    field, one line each; a call that raises gives its error line."""
    from confmech.conformal import casimir_I
    from confmech.errors import ConfmechError
    from confmech.lobachevsky import bracket_matrix, expected_brackets, \
        to_klein
    from confmech.reduction import spherical_system_from, to_hyperspherical

    sphere = spherical_system_from(sys_.V, sys_.d)
    try:
        lines = [bracket_matrix(sphere, s).tobytes().hex()]
    except ConfmechError as err:
        lines = [_error(err)]
    try:
        rs = to_hyperspherical(s)
        table = expected_brackets(to_klein(rs, casimir_I(sys_, s)), sphere,
                                  rs)
    except ConfmechError as err:
        return lines + [_error(err)]
    lines.append(table.branch)
    for z in (table.ww_numeric, table.ww_formula):
        lines += [z.real.hex(), z.imag.hex()]
    for row in table.mixed:
        lines += [row.name, row.eom.hex()]
        for z in (row.numeric, row.consistent, row.displayed):
            lines += [z.real.hex(), z.imag.hex()]
    return lines


def bracket_runs(select=_all) -> dict:
    """``{key: sha256}`` of the one-point bracket lines whose key
    ``select`` admits, in the manifest's order."""
    from confmech import models
    from confmech.conformal import sample_states

    out = {}
    for ms in library_specs():
        sys_ = models.build(ms)
        for seed in (0, 1):
            states = sample_states(ms.d, 3, np.random.default_rng(seed),
                                   singular_distance=sys_.singular_distance)
            for i, s in enumerate(states):
                key = f"brackets {ms.label} seed {seed} state {i}"
                if select(key):
                    out[key] = _digest(*bracket_lines(sys_, s))
    return out


def simulate() -> dict:
    # the unguarded runs overflow on purpose
    with np.errstate(all="ignore"):
        runs = library_runs()
    return {**workload_runs("trajectory", range(8)),
            **{key: digest for key, (digest, _) in runs.items()}}


GROUPS = {
    "reconstruct": lambda: workload_runs("reconstruct", range(8),
                                         rtols=RTOLS),
    "simulate": simulate,
    "verify": lambda: {**workload_runs("verification", range(6)),
                       **library_reports(), **bracket_runs()},
}


def combined(table: dict) -> str:
    """One SHA-256 over the ``key digest`` lines of a table, in order."""
    text = "".join(f"{key} {digest}\n" for key, digest in table.items())
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help="rewrite the manifest from this checkout")
    args = ap.parse_args(argv)
    tables = {name: group() for name, group in GROUPS.items()}
    for name, table in tables.items():
        print(f"{combined(table)}  {len(table)} {name} entries")
    if args.write:
        MANIFEST.write_text(json.dumps(tables, indent=1) + "\n",
                            encoding="utf-8")
        return 0
    pinned, found = ({(name, key): digest for name, group in t.items()
                      for key, digest in group.items()}
                     for t in (json.loads(MANIFEST.read_text("utf-8")),
                               tables))
    differ = [entry for entry in pinned.keys() | found.keys()
              if pinned.get(entry) != found.get(entry)]
    for name, key in sorted(differ):
        print(f"differs: {name}: {key}")
    print(f"{len(differ)} of {len(pinned)} manifest entries differ")
    return 1 if differ else 0


if __name__ == "__main__":
    # the checkout's own sources, not an installed copy
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
