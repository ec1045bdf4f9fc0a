"""The benchmark's workloads: seeded inputs, command lists, output checks,
and why each workload exists.

Every input comes from ``np.random.default_rng((seed, workload id))``, so
the same seed gives the same commands. The program only sees the generated
command lines; the states travel through ``--state``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from confmech import cli, models
from confmech.conformal import casimir_I, sample_states
from confmech.phase import PhaseState, Trajectory, integrate_adaptive
from confmech.radial import RadialData, fall_time

DRIFT_BOUND = 1e-6   # acceptance c03: relative drift of H and I
RECON_BOUND = 1e-5   # acceptance c05: reconstruct vs direct integration

# Why each workload exists, and what the open ROADMAP items should do to
# its end-to-end numbers. "moves" names a metric a successful item should
# improve; every other pairing should stay within the metric's bound.
RATIONALE = {
    "trajectory": {
        "why": "Verlet loop, potential gradients, monitor rows and CSV "
               "writing; never touches dual, reduction or lobachevsky.",
        "work_unit": "steps_per_s: Verlet steps (4 models x 10,000)",
        "moves": {"item 3 (array potentials, vectorized monitors)":
                  "work_per_s and wall_s"},
        "holds": ["item 2 (one model table) moves nothing",
                  "item 4 (numeric defect fixes) moves nothing",
                  "item 5 (run statistics) must not slow the step loop"],
    },
    "verification": {
        "why": "many states with one bracket each: dual gradients, chart "
               "observables on duals, rejection sampling and JSON; runs "
               "no integrator, so integrator changes must not move it.",
        "work_unit": "states_per_s: sampled states checked (7 x 200)",
        "moves": {"a faster dual or bracket path":
                  "work_per_s and wall_s"},
        "holds": ["item 2 moves nothing",
                  "item 3 leaves it unchanged unless sampling is batched",
                  "item 4 moves nothing",
                  "item 5 counters must not slow the bracket path"],
    },
    "reconstruct": {
        "why": "the only workload that runs radial (closed-form r^2, "
               "reparam_time arctan and quad branches) and adaptive "
               "Dormand-Prince with dense t_eval output.",
        "work_unit": "points_per_s: reconstructed rows (5 x 1,001)",
        "moves": {"item 3 (vectorized monitors)": "work_per_s and wall_s"},
        "holds": ["item 2 moves nothing",
                  "item 4 (stable fall_time) moves nothing measurable",
                  "item 5 counters must not slow the adaptive loop"],
    },
}

# Model parameter sets, written as CLI flags.
CALOGERO4 = {"model": "calogero", "particles": 4}
INVSQ3 = {"model": "inverse-square", "dim": 3, "kappa": 1.0}
HIGGS3 = {"model": "higgs", "dim": 3, "omega": 1.0}
COULOMB3 = {"model": "coulomb", "dim": 3, "gamma": 1.0}
ATTRACTIVE2 = {"model": "inverse-square", "dim": 2, "kappa": -0.5}

SIMULATE_MODELS = [CALOGERO4, INVSQ3, HIGGS3, COULOMB3]
DECOUPLING_MODELS = [{"model": "inverse-square", "dim": d, "kappa": 0.5}
                     for d in (1, 2, 3)] + [CALOGERO4]
ALGEBRA_MODELS = [CALOGERO4, COULOMB3, HIGGS3]
RECONSTRUCT_MODELS = [INVSQ3, HIGGS3, COULOMB3, CALOGERO4, ATTRACTIVE2]

# the systems each workload builds (what the set-up probe times)
WORKLOAD_MODELS = {
    "trajectory": SIMULATE_MODELS,
    "verification": DECOUPLING_MODELS + ALGEBRA_MODELS,
    "reconstruct": RECONSTRUCT_MODELS,
}
WORKLOAD_IDS = {"trajectory": 0, "verification": 1, "reconstruct": 2}


def model_spec(params: dict) -> models.ModelSpec:
    kw = dict(params)
    name = kw.pop("model")
    return models.spec(name, d=kw.pop("dim", None), **kw)


def model_flags(params: dict) -> list:
    out = []
    for key, val in params.items():
        out += [f"--{key}", str(val)]
    return out


def state_flag(s: PhaseState) -> str:
    # "=" keeps a leading minus sign from reading as an option
    return "--state=" + ",".join(repr(float(x)) for x in [*s.q, *s.p])


@dataclass
class Command:
    """One CLI invocation and its output check. The command must exit 0;
    ``check(path)`` then runs outside the timed region and returns an error
    message, or None when the output is correct.
    """

    argv: list
    output: Path
    check: Callable
    label: str


@dataclass
class Workload:
    commands: list
    work_per_pass: int
    inputs: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

def perturbed_state(ms: models.ModelSpec, rng, scale: float,
                    accept: Callable = None) -> PhaseState:
    """A seeded perturbation of ``models.reference_state`` that keeps at
    least half the reference state's distance from the singular set."""
    ref = models.reference_state(ms)
    sdist = models.singular_distance_fn(ms)
    floor = 0.5 * sdist(ref.q)
    size = scale / math.sqrt(ms.d)
    for _ in range(1000):
        q = ref.q + size * np.linalg.norm(ref.q) * rng.uniform(-1, 1, ms.d)
        p = ref.p + size * np.linalg.norm(ref.p) * rng.uniform(-1, 1, ms.d)
        if sdist(q) < floor:
            continue
        s = PhaseState(q, p)
        if accept is None or accept(s):
            return s
    raise RuntimeError(f"no admissible perturbed state for {ms.label}")


def attractive_state(ms: models.ModelSpec, rng) -> PhaseState:
    """An outgoing state of an attractive inverse-square system with small
    angular momentum, so I0 <= 0 and the quad branch of reparam_time runs."""
    r0 = rng.uniform(0.8, 1.2)
    a = rng.uniform(0.0, 2.0 * math.pi)
    n = np.array([math.cos(a), math.sin(a)])
    t = np.array([-n[1], n[0]])
    ell = rng.uniform(0.2, 0.8) * rng.choice([-1.0, 1.0])
    p = rng.uniform(1.2, 2.0) * n + (ell / r0) * t
    return PhaseState(r0 * n, p)


def collapse_free(sys_, s: PhaseState, t_end: float, positive_i: bool):
    rd = RadialData.from_state(sys_, s)
    tf = fall_time(rd)
    if tf is not None and tf <= t_end:
        return False
    return (rd.I0 > 0.0) == positive_i


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _check_csv(path: Path, rows: int, t_end: float):
    """Round trip, row count, end time and c03 drift; returns (error, data)."""
    text = path.read_text(encoding="utf-8")
    times, qs, ps, mons = cli.read_trajectory_csv(str(path))
    again = cli.trajectory_csv(Trajectory(times, qs, ps, mons))
    if again != text:
        return "CSV does not round-trip through read_trajectory_csv", None
    if len(times) != rows:
        return f"{len(times)} rows, expected {rows}", None
    if abs(times[-1] - t_end) > 1e-12 * t_end:
        return f"last t = {times[-1]!r}, expected {t_end!r}", None
    H, I = mons["H"], mons["I"]
    dh = float(np.max(np.abs(H - H[0])) / max(1e-12, abs(H[0])))
    di = float(np.max(np.abs(I - I[0])) / max(1.0, abs(I[0])))
    if not (dh < DRIFT_BOUND and di < DRIFT_BOUND):
        return f"drift H {dh:.3g}, I {di:.3g} exceeds {DRIFT_BOUND}", None
    return None, (qs, ps)


def simulate_check(n_steps: int, t_end: float):
    def check(path):
        return _check_csv(path, n_steps + 1, t_end)[0]
    return check


def reconstruct_check(sys_, s0: PhaseState, num: int, t_end: float):
    def check(path):
        err, data = _check_csv(path, num, t_end)
        if err:
            return err
        qs, ps = data
        ref = integrate_adaptive(sys_.H, s0, 1e-10, t_end, t_eval=[t_end])
        scale = max(1.0, np.max(np.abs(ref.qs[-1])),
                    np.max(np.abs(ref.ps[-1])))
        rel = max(np.max(np.abs(qs[-1] - ref.qs[-1])),
                  np.max(np.abs(ps[-1] - ref.ps[-1]))) / scale
        if not rel < RECON_BOUND:
            return f"last state differs from direct integration by {rel:.3g}"
        return None
    return check


def report_check(seed: int, samples: int, key: str, expected):
    def check(path):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if doc.get("seed") != seed or doc.get("samples") != samples:
            return "report does not echo the seed and sample count"
        if doc.get(key) != expected:
            return f"{key} = {doc.get(key)!r}, expected {expected!r}"
        return None
    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def trajectory(rng, out: Path, smoke: bool) -> Workload:
    dt, t_end = 1e-3, (0.2 if smoke else 10.0)
    n_steps = int(round(t_end / dt))
    cmds = []
    min_dist = math.inf
    for params in SIMULATE_MODELS:
        ms = model_spec(params)
        s0 = perturbed_state(ms, rng, scale=0.05)
        min_dist = min(min_dist, models.singular_distance_fn(ms)(s0.q))
        path = out / f"simulate-{ms.name}-d{ms.d}.csv"
        argv = ["simulate", *model_flags(params), state_flag(s0),
                "--dt", repr(dt), "--t-end", repr(t_end),
                "--output", str(path)]
        cmds.append(Command(argv, path, simulate_check(n_steps, t_end),
                            f"simulate {ms.label}"))
    return Workload(cmds, n_steps * len(cmds),
                    {"min_singular_distance": min_dist})


def verification(rng, out: Path, smoke: bool) -> Workload:
    samples = 10 if smoke else 200
    cmds = []
    negative_i = checked = 0
    jobs = ([(True, m) for m in DECOUPLING_MODELS]
            + [(False, m) for m in ALGEBRA_MODELS])
    for decoupling, params in jobs:
        ms = model_spec(params)
        seed = int(rng.integers(0, 2 ** 31))
        command = "verify-decoupling" if decoupling else "verify-algebra"
        path = out / f"{command}-{ms.name}-d{ms.d}.json"
        argv = [command, *model_flags(params), "--samples", str(samples),
                "--seed", str(seed), "--output", str(path)]
        if decoupling:
            verdict = "canonical" if ms.d == 1 else "non-canonical"
            check = report_check(seed, samples, "verdict", verdict)
        else:
            check = report_check(seed, samples, "pass", True)
            # the states verify_algebra draws: how many have I < 0
            sys_ = models.build(ms)
            states = sample_states(ms.d, samples, np.random.default_rng(seed),
                                   singular_distance=sys_.singular_distance)
            negative_i += sum(casimir_I(sys_, s) < 0.0 for s in states)
            checked += len(states)
        cmds.append(Command(argv, path, check, f"{command} {ms.label}"))
    return Workload(cmds, samples * len(cmds),
                    {"algebra_negative_I_share": negative_i / checked})


def reconstruct(rng, out: Path, smoke: bool) -> Workload:
    num, t_end = (11, 0.5) if smoke else (1001, 5.0)
    cmds = []
    quad_inputs = 0
    for params in RECONSTRUCT_MODELS:
        ms = model_spec(params)
        sys_ = models.build(ms)
        if params is ATTRACTIVE2:
            for _ in range(1000):
                s0 = attractive_state(ms, rng)
                if collapse_free(sys_, s0, t_end, positive_i=False):
                    break
            else:
                raise RuntimeError("no collapse-free attractive state")
            quad_inputs += 1
        else:
            s0 = perturbed_state(
                ms, rng, scale=0.1,
                accept=lambda s: collapse_free(sys_, s, t_end, True))
        path = out / f"reconstruct-{ms.name}-d{ms.d}.csv"
        argv = ["reconstruct", *model_flags(params), state_flag(s0),
                "--num", str(num), "--t-end", repr(t_end),
                "--output", str(path)]
        cmds.append(Command(argv, path,
                            reconstruct_check(sys_, s0, num, t_end),
                            f"reconstruct {ms.label}"))
    return Workload(cmds, num * len(cmds),
                    {"I0_nonpositive_share": quad_inputs / len(cmds)})


BUILDERS = {"trajectory": trajectory, "verification": verification,
            "reconstruct": reconstruct}


def bad_command(out: Path) -> Command:
    """A command that must fail: its initial state sits on the singular
    set, so the CLI exits 3. The smoke mode checks that it counts in
    failed_ops."""
    path = out / "bad.json"
    argv = ["simulate", *model_flags(INVSQ3), "--state=0,0,0,1,0,0",
            "--t-end", "0.1", "--output", str(path)]
    return Command(argv, path, lambda p: None, "bad")


def build(name: str, seed: int, out: Path, smoke: bool = False) -> Workload:
    rng = np.random.default_rng((seed, WORKLOAD_IDS[name]))
    wl = BUILDERS[name](rng, out, smoke)
    if smoke:
        wl.commands.append(bad_command(out))
    return wl
