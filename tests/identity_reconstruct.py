"""Byte identity of ``confmech reconstruct`` over a fixed set of calls.

The set is the benchmark's reconstruct workload inputs
(``perfbench/workloads.py``) at seeds 0-7, full and ``--smoke`` size, each
run at ``--rtol`` 1e-8, 1e-10 and 1e-12: 240 calls through
``confmech.cli.main``. Each call's exit code and output bytes hash to one
SHA-256, and ``identity_reconstruct.json`` beside this file holds them all.

    python tests/identity_reconstruct.py           # check the manifest
    python tests/identity_reconstruct.py --write   # rewrite the manifest

Both modes print one SHA-256 over the whole set. A check names every call
whose bytes differ from the manifest and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("identity_reconstruct.json")
SEEDS = range(8)
SIZES = ("full", "smoke")
RTOLS = ("1e-08", "1e-10", "1e-12")


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


def digests(select=lambda key: True) -> dict:
    """``{key: sha256}`` of every call whose key ``select`` admits, in the
    manifest's order. A key reads ``seed S SIZE LABEL rtol R``."""
    from confmech import cli

    workloads = _load_workloads()
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for size in SIZES:
                wl = workloads.build("reconstruct", seed, Path(tmp),
                                     smoke=size == "smoke")
                for cmd in wl.commands:
                    if cmd.argv[0] != "reconstruct":
                        continue  # the smoke size's failing command
                    for rtol in RTOLS:
                        key = f"seed {seed} {size} {cmd.label} rtol {rtol}"
                        if not select(key):
                            continue
                        code = cli.main([*cmd.argv, "--rtol", rtol])
                        body = (cmd.output.read_bytes()
                                if cmd.output.exists() else b"")
                        cmd.output.unlink(missing_ok=True)
                        out[key] = hashlib.sha256(
                            f"{code}\n".encode() + body).hexdigest()
    return out


def combined(table: dict) -> str:
    """One SHA-256 over the ``key digest`` lines of a table, in order."""
    text = "".join(f"{key} {digest}\n" for key, digest in table.items())
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help="rewrite the manifest from this checkout")
    args = ap.parse_args(argv)
    table = digests()
    print(f"{combined(table)}  {len(table)} reconstruct calls")
    if args.write:
        MANIFEST.write_text(json.dumps(table, indent=1) + "\n",
                            encoding="utf-8")
        return 0
    pinned = json.loads(MANIFEST.read_text(encoding="utf-8"))
    differ = [key for key in pinned.keys() | table.keys()
              if pinned.get(key) != table.get(key)]
    for key in sorted(differ):
        print(f"differs: {key}")
    print(f"{len(differ)} of {len(pinned)} manifest calls differ")
    return 1 if differ else 0


if __name__ == "__main__":
    # the checkout's own sources, not an installed copy
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
