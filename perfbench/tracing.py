"""Spans and counters around calls into confmech's layers.

Nothing here lives inside ``src/``: :class:`Tracer` rebinds public layer
functions (and the names other modules imported them under, such as
``cli.integrate_verlet`` or ``radial._monitor_rows``) to timing wrappers
while traced passes run, and restores them afterwards.

A span is (id, parent id, name, start, end, pass). Spans are kept in
compact arrays in memory and written out once, when the run ends. A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory spans, per-name inclusive and self times, and counters."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names = []
        self._name_ids = {}
        self.parent = array("l")
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.pass_no = array("H")
        self.total = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self.current_pass = 0
        self._stack = []
        self._patches = []

    # -- spans -------------------------------------------------------------

    def call(self, name: str, fn, args=(), kwargs=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        frame = [len(self.start), 0.0]
        self.parent.append(parent)
        self.name_id.append(nid)
        self.start.append(0.0)
        self.end.append(0.0)
        self.pass_no.append(self.current_pass)
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][1] += dur
            self.start[frame[0]] = t0
            self.end[frame[0]] = t1
            self.total[name] += dur
            self.self_time[name] += dur - frame[1]
            self.counts[name] += 1

    def spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- rebinding ---------------------------------------------------------

    def patch(self, module, attr: str, make):
        """Replace ``module.attr`` with ``make(original)`` in every loaded
        confmech module that holds the same object."""
        original = getattr(module, attr)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("confmech"):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapped)
                    self._patches.append((mod, key, original))

    @contextmanager
    def installed(self, install):
        """Apply ``install(self)`` for the duration of the block."""
        try:
            install(self)
            yield self
        finally:
            for mod, key, original in reversed(self._patches):
                setattr(mod, key, original)
            self._patches.clear()

    # -- output ------------------------------------------------------------

    def write(self, path):
        """Spans as CSV lines: id,parent,name,start,end,pass,workload."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,name,start,end,pass,workload\n")
            names = self.names
            wl = self.workload
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{names[self.name_id[i]]},"
                         f"{self.start[i]:.9f},{self.end[i]:.9f},"
                         f"{self.pass_no[i]},{wl}\n")


def install_layers(tr: Tracer):
    """Wrap the public functions of every confmech layer."""
    from confmech import (cli, conformal, dual, lobachevsky, models, phase,
                          radial, reduction)

    # cli: serialization
    def csv_format(fn):
        def wrapper(traj):
            tr.counts["cli.csv_rows"] += len(traj)
            return tr.call("cli.csv", fn, (traj,))
        return wrapper

    def emit(fn):
        def wrapper(text_or_doc, fmt, path):
            if fmt == "csv":
                tr.counts["cli.csv_bytes"] += len(text_or_doc)
                return tr.call("cli.csv", fn, (text_or_doc, fmt, path))
            return tr.call("cli.json", fn, (text_or_doc, fmt, path))
        return wrapper

    tr.patch(cli, "trajectory_csv", csv_format)
    tr.patch(cli, "emit", emit)

    # phase: integrators, monitors, brackets, gradient paths
    def verlet(fn):
        def wrapper(*args, **kwargs):
            traj = tr.call("phase.verlet", fn, args, kwargs)
            tr.counts["phase.verlet_steps"] += len(traj) - 1
            return traj
        return wrapper

    def adaptive(fn):
        def wrapper(*args, **kwargs):
            # integrate_adaptive consults the singular guard once per
            # accepted step, which makes it an exact step counter
            guard = kwargs.get("singular_distance")
            if guard is not None:
                def counting_guard(q):
                    tr.counts["phase.adaptive_steps"] += 1
                    return guard(q)
                kwargs["singular_distance"] = counting_guard
            return tr.call("phase.adaptive", fn, args, kwargs)
        return wrapper

    def monitors(fn):
        def wrapper(mons, ts, qs, ps):
            if mons:
                tr.counts["phase.monitor_rows"] += len(ts)
            return tr.call("phase.monitor", fn, (mons, ts, qs, ps))
        return wrapper

    def hamilton_rhs(fn):
        def wrapper(H):
            return tr.counted("phase.rhs_calls", fn(H))
        return wrapper

    def grad_arrays(fn):
        def wrapper(obs, q, p):
            key = ("phase.grad_calls.analytic" if obs.grad_fn is not None
                   else "phase.grad_calls.auto")
            tr.counts[key] += 1
            return fn(obs, q, p)
        return wrapper

    tr.patch(phase, "integrate_verlet", verlet)
    tr.patch(phase, "integrate_adaptive", adaptive)
    tr.patch(phase, "_monitor_rows", monitors)
    tr.patch(phase, "_hamilton_rhs", hamilton_rhs)
    tr.patch(phase, "_grad_arrays", grad_arrays)
    tr.patch(phase, "grad_finite_difference",
             lambda fn: tr.counted("phase.grad_calls.fd", fn))
    tr.patch(phase, "poisson_bracket",
             lambda fn: tr.spanned("phase.bracket", fn))

    # models: potential gradients (closures, wrapped as they are built)
    def potential(fn):
        def wrapper(model):
            V = fn(model)
            if V.grad_fn is not None:
                V.grad_fn = tr.spanned("models.vgrad", V.grad_fn)
            return V
        return wrapper

    tr.patch(models, "potential", potential)
    tr.patch(models, "build", lambda fn: tr.spanned("models.build", fn))

    # dual
    tr.patch(dual, "gradient", lambda fn: tr.spanned("dual.gradient", fn))

    # conformal: sampling with an attempt counter, algebra verification
    class CountingRng:
        """Counts the values drawn, however the draws are batched."""

        def __init__(self, rng):
            self.rng = rng
            self.values = 0

        def uniform(self, *args, **kwargs):
            x = self.rng.uniform(*args, **kwargs)
            self.values += np.size(x)
            return x

    def sample_states(fn):
        def wrapper(d, n, rng, *args, **kwargs):
            counting = CountingRng(rng)
            states = tr.call("conformal.sample", fn,
                             (d, n, counting, *args), kwargs)
            # an attempt draws d values for q and d for p
            tr.counts["conformal.sample_attempts"] += (
                counting.values // (2 * d))
            tr.counts["conformal.sample_accepted"] += len(states)
            return states
        return wrapper

    tr.patch(conformal, "sample_states", sample_states)
    tr.patch(conformal, "verify_algebra",
             lambda fn: tr.spanned("conformal.verify_algebra", fn))

    # reduction: chart maps
    tr.patch(reduction, "angles_from_unit",
             lambda fn: tr.spanned("reduction.angles", fn))
    tr.patch(reduction, "to_hyperspherical",
             lambda fn: tr.spanned("reduction.to_hyperspherical", fn))

    # radial: reparametrized time and its quadrature branch
    tr.patch(radial, "reparam_time",
             lambda fn: tr.spanned("radial.reparam", fn))
    tr.patch(radial, "quad", lambda fn: tr.counted("radial.quad_calls", fn))

    # lobachevsky: decoupling verdicts
    tr.patch(lobachevsky, "canonicity_report",
             lambda fn: tr.spanned("lobachevsky.canonicity", fn))
    tr.patch(lobachevsky, "bracket_ww",
             lambda fn: tr.spanned("lobachevsky.bracket_ww", fn))


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(tr: Tracer, passes: int) -> dict:
    """Per-pass layer numbers from the traced passes: name -> (value, unit).

    Times are inclusive unless the name says ``self``; ratios come with
    their base as separate counts.
    """
    c, tot, self_t = tr.counts, tr.total, tr.self_time
    auto = c["phase.grad_calls.auto"]
    fd = c["phase.grad_calls.fd"]
    out = {
        "cli.csv_s": (tot["cli.csv"], "s"),
        "cli.csv_rows": (c["cli.csv_rows"], "count"),
        "cli.csv_bytes": (c["cli.csv_bytes"], "bytes"),
        "cli.json_s": (tot["cli.json"], "s"),
        "phase.verlet_self_s": (self_t["phase.verlet"], "s"),
        "phase.verlet_steps": (c["phase.verlet_steps"], "count"),
        "phase.monitor_s": (tot["phase.monitor"], "s"),
        "phase.monitor_rows": (c["phase.monitor_rows"], "count"),
        "phase.adaptive_self_s": (self_t["phase.adaptive"], "s"),
        "phase.adaptive_steps": (c["phase.adaptive_steps"], "count"),
        "phase.rhs_calls": (c["phase.rhs_calls"], "count"),
        "phase.bracket_calls": (c["phase.bracket"], "count"),
        "phase.bracket_s": (tot["phase.bracket"], "s"),
        "phase.grad_calls.analytic": (c["phase.grad_calls.analytic"],
                                      "count"),
        "phase.grad_calls.dual": (auto - fd, "count"),
        "phase.grad_calls.fd": (fd, "count"),
        "models.vgrad_calls": (c["models.vgrad"], "count"),
        "models.vgrad_s": (tot["models.vgrad"], "s"),
        "models.build_s": (tot["models.build"], "s"),
        "dual.gradient_calls": (c["dual.gradient"], "count"),
        "dual.gradient_s": (tot["dual.gradient"], "s"),
        "conformal.sample_s": (tot["conformal.sample"], "s"),
        "conformal.sample_accepted": (c["conformal.sample_accepted"],
                                      "count"),
        "conformal.sample_attempts": (c["conformal.sample_attempts"],
                                      "count"),
        "conformal.verify_algebra_s": (tot["conformal.verify_algebra"], "s"),
        "reduction.angles_calls": (c["reduction.angles"], "count"),
        "reduction.angles_s": (tot["reduction.angles"], "s"),
        "reduction.to_hyperspherical_s": (
            tot["reduction.to_hyperspherical"], "s"),
        "radial.reparam_calls": (c["radial.reparam"], "count"),
        "radial.reparam_s": (tot["radial.reparam"], "s"),
        "radial.quad_calls": (c["radial.quad_calls"], "count"),
        "lobachevsky.canonicity_s": (tot["lobachevsky.canonicity"], "s"),
        "lobachevsky.bracket_ww_calls": (c["lobachevsky.bracket_ww"],
                                         "count"),
        "lobachevsky.bracket_ww_s": (tot["lobachevsky.bracket_ww"], "s"),
    }
    out = {k: (v / passes, unit) for k, (v, unit) in out.items()}
    # per-call figures and ratios do not scale with the number of passes
    out["phase.verlet_us_per_step"] = (
        _ratio(tot["phase.verlet"], c["phase.verlet_steps"], 1e6), "us")
    out["models.vgrad_us"] = (
        _ratio(tot["models.vgrad"], c["models.vgrad"], 1e6), "us")
    out["dual.gradient_us"] = (
        _ratio(tot["dual.gradient"], c["dual.gradient"], 1e6), "us")
    out["conformal.sample_accept_ratio"] = (
        _ratio(c["conformal.sample_accepted"],
               c["conformal.sample_attempts"]), "ratio")
    out["radial.quad_share"] = (
        _ratio(c["radial.quad_calls"], c["radial.reparam"]), "ratio")
    return out
