"""Set-up probe: a fresh interpreter imports ``confmech.cli`` and builds one
workload's systems, then prints one JSON line.

    python3 perfbench/probe.py <workload> <time.time() at spawn>

``setup_s`` runs from the spawn time the caller passes to the moment the
systems are built, so it includes interpreter start-up. Nothing but the
standard modules loaded at start-up is imported before ``confmech.cli``,
so the import costs are the program's own. The import of the benchmark's
``workloads`` module (which names the systems) is taken off the clock.
"""

import os
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))
import confmech.cli  # noqa: E402,F401

t1 = time.perf_counter()
scipy_loaded = "scipy.integrate" in sys.modules

import json  # noqa: E402

import workloads  # noqa: E402
from confmech import models  # noqa: E402

t2 = time.perf_counter()
for params in workloads.WORKLOAD_MODELS[sys.argv[1]]:
    models.build(workloads.model_spec(params))
setup_s = time.time() - float(sys.argv[2]) - (t2 - t1)

print(json.dumps({"setup_s": setup_s, "import_s": t1 - t0,
                  "scipy_loaded": scipy_loaded}))
