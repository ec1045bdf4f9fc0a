"""Byte identity of the verification reports over a fixed set of calls.

Three groups, each entry hashed to one SHA-256:

* ``workload``: the benchmark's verification workload commands
  (``perfbench/workloads.py``) at seeds 0-5, full and ``--smoke`` size,
  through ``confmech.cli.main``: each command's exit code and output bytes
  (the smoke size's refused command writes its error document).
* ``library``: ``canonicity_report`` and ``verify_algebra`` on every
  catalog system, inverse-square in d = 1..4 at kappa = +-0.5 and calogero
  with 3 and 5 particles, at 1, 7 and 200 samples and seeds 0-3: the
  ``json.dumps`` of each report's ``to_dict``, or the type and message of
  the error it raises (inverse-square d = 1 at kappa < 0 has no admissible
  state).
* ``brackets``: the one-point ``bracket_matrix`` bytes and every
  ``expected_brackets`` field as ``float.hex``, at three sampled states of
  each library system and seeds 0 and 1, both signs of I among them; a
  call that raises hashes its error type and message.

``identity_verify.json`` beside this file holds every digest.

    python tests/identity_verify.py           # check the manifest
    python tests/identity_verify.py --write   # rewrite the manifest

Both modes print one SHA-256 over the whole set. A check names every entry
whose bytes differ from the manifest and exits 1.
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

MANIFEST = Path(__file__).with_name("identity_verify.json")
WORKLOAD_SEEDS = range(6)
SIZES = ("full", "smoke")
LIBRARY_SEEDS = range(4)
SAMPLES = (1, 7, 200)
BRACKET_SEEDS = (0, 1)
BRACKET_STATES = 3


def library_specs() -> list:
    """The library groups' systems: the catalog, inverse-square in d = 1..4
    at both signs of kappa and calogero n = 3 and 5, each once."""
    from confmech import models

    specs = (models.catalog()
             + [models.spec("inverse-square", d=d, kappa=k)
                for d in (1, 2, 3, 4) for k in (0.5, -0.5)]
             + [models.spec("calogero", n=n) for n in (3, 5)])
    return list({ms.label: ms for ms in specs}.values())


def _digest(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _error(err) -> str:
    return f"{type(err).__name__}: {err}"


def workload_runs(select=lambda key: True) -> dict:
    """``{key: sha256}`` of every workload command whose key ``select``
    admits, in the manifest's order."""
    from confmech import cli

    workloads = _load_workloads()
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in WORKLOAD_SEEDS:
            for size in SIZES:
                wl = workloads.build("verification", seed, Path(tmp),
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


def library_reports(select=lambda key: True) -> dict:
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
            for samples in SAMPLES:
                for seed in LIBRARY_SEEDS:
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


def bracket_runs(select=lambda key: True) -> dict:
    """``{key: sha256}`` of the one-point bracket lines whose key
    ``select`` admits, in the manifest's order."""
    from confmech import models
    from confmech.conformal import sample_states

    out = {}
    for ms in library_specs():
        sys_ = models.build(ms)
        for seed in BRACKET_SEEDS:
            states = sample_states(ms.d, BRACKET_STATES,
                                   np.random.default_rng(seed),
                                   singular_distance=sys_.singular_distance)
            for i, s in enumerate(states):
                key = f"brackets {ms.label} seed {seed} state {i}"
                if select(key):
                    out[key] = _digest(*bracket_lines(sys_, s))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help="rewrite the manifest from this checkout")
    args = ap.parse_args(argv)
    table = {**workload_runs(), **library_reports(), **bracket_runs()}
    print(f"{combined(table)}  {len(table)} entries")
    if args.write:
        MANIFEST.write_text(json.dumps(table, indent=1) + "\n",
                            encoding="utf-8")
        return 0
    pinned = json.loads(MANIFEST.read_text(encoding="utf-8"))
    differ = [key for key in pinned.keys() | table.keys()
              if pinned.get(key) != table.get(key)]
    for key in sorted(differ):
        print(f"differs: {key}")
    print(f"{len(differ)} of {len(pinned)} manifest entries differ")
    return 1 if differ else 0


if __name__ == "__main__":
    # the checkout's own sources, not an installed copy
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
