"""Phase-space states, differentiable observables, the Poisson bracket, and
reference integrators.

Sign convention
---------------
Brackets are canonical with ``{p, x} = +1``::

    {A, B} = sum_i  dA/dp_i * dB/dx_i  -  dA/dx_i * dB/dp_i

Under this convention time evolution reads ``df/dt = {H, f}``, and the
conformal algebra relations ``{H,D} = 2H``, ``{H,K} = D``, ``{K,D} = -2K``
hold exactly as written. This is the opposite ordering from the more common
``{x, p} = +1``; every module in this package uses the convention above.

Gradients are exact: an observable's analytic ``grad_fn`` when it has one,
otherwise forward-mode dual numbers (see :mod:`confmech.dual`). Central
finite differences (:func:`grad_finite_difference`) are the independent
cross-check the tests compare both against, not a third production path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import dual
from .errors import (
    DomainError,
    IncompleteResultError,
    NonFiniteError,
    SingularityApproachError,
    StepUnderflowError,
)

_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)
# integrators stop this close to the potential's singular set
_SINGULAR_GUARD = 1e-6
# integrate_verlet checks its guard once per this many steps
_VERLET_BLOCK = 256
# accepted-or-rejected step budget of integrate_adaptive
_MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class PhaseState:
    """A Cartesian phase point (q, p) in d position and d momentum entries."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        # a float64 vector is kept as passed, not copied
        q = np.asarray(self.q, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if q.ndim == 0:
            q = q.reshape(1)
        if p.ndim == 0:
            p = p.reshape(1)
        if q.ndim != 1 or q.shape != p.shape or q.size < 1:
            raise ValueError("q and p must be equal-length vectors, d >= 1")
        # exact per entry, and cheaper than np.isfinite on a short vector;
        # a sum or dot product would overflow to inf on finite entries
        if not (all(map(math.isfinite, q.tolist()))
                and all(map(math.isfinite, p.tolist()))):
            raise NonFiniteError("phase state has non-finite entries")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def d(self) -> int:
        return self.q.shape[0]


class Observable:
    """A function of a phase point with a gradient.

    Its value is a scalar or has m components: shape ``(m,)`` at a point
    and ``(N, m)`` on rows, with gradients of shape ``(m, d)`` and
    ``(N, m, d)``; :func:`brackets` gives each component its own row and
    column of the table.

    ``fn(q, p)`` must accept plain float arrays and, unless an analytic
    ``grad_fn(q, p) -> (dq, dp)`` is given, dual-number jets (write scalar
    math through :mod:`confmech.dual` helpers or numpy): gradients come
    from ``grad_fn`` if set, else from the dual engine, and an observable
    that digests neither raises. ``grad_fn`` is worth providing on
    anything evaluated inside an integrator loop.

    Every consumer calls ``fn`` and ``grad_fn`` on one point or on the
    ``(N, d)`` rows of many (trajectory monitors, rows-form bracket
    tables). ``vectorized=True`` declares both one body over ``(..., d)``
    arrays of floats or jets, each row's result bit for bit its one-point
    call (``np.vecdot`` for dot products, ``q.T[k]`` or ``q[..., k]`` for
    a coordinate), as the catalog potentials and the generators of
    ``build_system`` are. Otherwise they are taken as written for one
    point and lifted here: a point passes straight through, and rows are
    evaluated one at a time and stacked.

    A vectorized body may give one point its own branch, on Python floats
    where numpy's per-call dispatch would dominate (as the Casimir
    gradient of ``build_system`` does). That branch takes the same IEEE
    operations in the same order as the rows body, with its dot products
    from ``ndarray.dot`` plus ``+ 0.0``: ``np.vecdot`` adds to +0.0, where
    ``ndarray.dot`` returns a -0.0 product as it is.
    """

    __slots__ = ("dim", "fn", "grad_fn", "name")

    def __init__(self, dim: int, fn: Callable, grad_fn: Optional[Callable] = None,
                 name: str = "", vectorized: bool = False):
        self.dim = int(dim)
        if not vectorized:
            fn = _lift(fn, _stack_values)
            if grad_fn is not None:
                grad_fn = _lift(grad_fn, lambda grads: tuple(
                    np.stack(part) for part in zip(*grads)))
        self.fn = fn
        self.grad_fn = grad_fn
        self.name = name

    def __call__(self, state: PhaseState):
        v = dual.value(self.fn(state.q, state.p))
        if not np.all(np.isfinite(v)):
            raise NonFiniteError(f"observable {self.name or '<anon>'} is not "
                                 "finite here", state=state)
        return v

    def __mul__(self, other):
        """Pointwise product (feeds the Leibniz checks)."""
        if not isinstance(other, Observable):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("observable dimensions differ")
        sfn, ofn = self.fn, other.fn
        return Observable(self.dim, lambda q, p: sfn(q, p) * ofn(q, p),
                          name=f"({self.name}*)", vectorized=True)


def _lift(fn, stack):
    """``fn`` of one point over ``(..., d)`` arrays of floats or jets: a
    point passes straight through, rows go one at a time and ``stack``
    joins their results."""
    def lifted(q, p):
        if np.ndim(q.val if isinstance(q, dual.Dual) else q) < 2:
            return fn(q, p)
        return stack([lifted(qi, pi) for qi, pi in zip(q, p)])
    return lifted


def _stack_values(values):
    """Per-row values (floats, arrays or jets) along a new first axis."""
    axis = -1 - np.ndim(dual.value(values[0])) if values else -1
    return dual.stack(values, axis=axis)


def grad_finite_difference(obs: Observable, state: PhaseState):
    """Central differences, the independent cross-check of the dual engine."""
    q0, p0 = state.q, state.p
    d = q0.shape[0]
    dq = np.zeros(d)
    dp = np.zeros(d)

    def probe(q, p):
        v = dual.value(obs.fn(q, p))
        if not np.isfinite(v):
            raise NonFiniteError(
                f"observable {obs.name or '<anon>'} not finite at a "
                "finite-difference probe point", state=state)
        return v

    for i in range(d):
        h = _FD_STEP * max(1.0, abs(q0[i]))
        qp, qm = q0.copy(), q0.copy()
        qp[i] += h
        qm[i] -= h
        dq[i] = (probe(qp, p0) - probe(qm, p0)) / (2.0 * h)
        h = _FD_STEP * max(1.0, abs(p0[i]))
        pp, pm = p0.copy(), p0.copy()
        pp[i] += h
        pm[i] -= h
        dp[i] = (probe(q0, pp) - probe(q0, pm)) / (2.0 * h)
    return dq, dp


def _grad_arrays(obs: Observable, q: np.ndarray, p: np.ndarray):
    """Gradient on raw arrays: analytic if ``grad_fn`` is set, else dual."""
    if obs.grad_fn is not None:
        dq, dp = obs.grad_fn(q, p)
        return np.asarray(dq, dtype=float), np.asarray(dp, dtype=float)
    _, (dq, dp) = dual.gradient(obs.fn, q, p)
    return dq, dp


def grad(obs: Observable, state: PhaseState):
    """Exact derivatives ``(dq, dp)``: the analytic ``grad_fn`` if set,
    else the dual engine (an ``fn`` that cannot take duals raises); the
    one-point case of :func:`_grad_rows`."""
    return _grad_rows(obs, state.q, state.p)


def _grad_rows(obs: Observable, Q: np.ndarray, P: np.ndarray):
    """``(dQ, dP)`` at a point or at every row of ``(N, d)`` arrays:
    ``fn`` and the analytic ``grad_fn`` each called once on ``(Q, P)``,
    or else one jet evaluation of ``fn``. The first row whose value or
    gradient is not finite (in any component, for a vector observable)
    raises :class:`NonFiniteError` with that row's state, naming the
    value if it is the value that is not finite there."""
    if obs.grad_fn is None:
        vals, (dq, dp) = dual.gradient(obs.fn, Q, P)
    else:
        vals = obs.fn(Q, P)
        dq, dp = _grad_arrays(obs, Q, P)
    lead = Q.shape[:-1]
    val_ok, dq_ok, dp_ok = (np.isfinite(np.reshape(x, lead + (-1,))).all(-1)
                            for x in (vals, dq, dp))
    ok = val_ok & dq_ok & dp_ok
    if not ok.all():
        i = np.unravel_index(np.argmin(ok), lead)
        name = obs.name or "<anon>"
        raise NonFiniteError(
            f"observable {name} is not finite here" if not val_ok[i]
            else f"gradient of {name} is not finite",
            state=PhaseState(Q[i], P[i]))
    return dq, dp


def brackets(observables, state, P: np.ndarray = None) -> np.ndarray:
    """Table ``B[j, k] = {A_j, A_k}`` of every ordered pair at a state,
    each observable differentiated once (by :func:`_grad_rows`). A vector
    observable, told apart by its ``(m, d)`` gradients, takes m
    consecutive rows and columns, one per component, in its own order.
    Each entry off the zero diagonal is computed from its own ordered
    pair, not negated from its transpose, so the sign of an exact zero is
    the pair's own.

    Rows form: ``brackets(observables, Q, P)`` with ``(N, d)`` arrays gives
    the ``(N, m, m)`` tables of all rows from one gradient evaluation per
    observable. Each slice is bit for bit the table of its row's state,
    but for the sign of an exact zero: ``np.vecdot`` adds its dot product
    to +0.0, where ``np.dot`` of two vectors returns it as it is."""
    Q, P = (state.q, state.p) if P is None else (state, P)
    lead = Q.shape[:-1]
    grads = [_grad_rows(A, Q, P) for A in observables]
    # the gradients of every entry along axis -2: one for a scalar's
    # (..., d) pair, m for a vector's (..., m, d) pair
    dQ, dP = (np.concatenate([np.reshape(g[i], lead + (-1, g[i].shape[-1]))
                              for g in grads], axis=-2) for i in (0, 1))
    m = dQ.shape[-2]
    # X[j, k] = dP_j . dQ_k, each product once: {A_j, A_k} = X[j, k] -
    # X[k, j], since a dot product is the same bits with its factors swapped
    if lead:
        X = np.vecdot(dP[..., :, None, :], dQ[..., None, :, :])
    else:
        X = np.array([[np.dot(a, b) for b in dQ] for a in dP])
    B = X - np.swapaxes(X, -1, -2)
    B[..., range(m), range(m)] = 0.0
    return B


def poisson_bracket(A: Observable, B: Observable, state: PhaseState) -> float:
    """{A, B} of two scalar observables at a state, with the {p, x} = +1
    sign convention: the one entry of their :func:`brackets` table. A
    vector observable raises ValueError; read its brackets from a table."""
    table = brackets((A, B), state)
    if table.shape != (2, 2):
        raise ValueError("poisson_bracket takes two scalar observables")
    return float(table[0, 1])


@dataclass
class Trajectory:
    """Sampled flow: times, states, and named conserved-quantity monitors."""

    times: np.ndarray
    qs: np.ndarray
    ps: np.ndarray
    monitors: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.qs = np.asarray(self.qs, dtype=float)
        self.ps = np.asarray(self.ps, dtype=float)
        n = self.times.shape[0]
        if self.qs.shape[0] != n or self.ps.shape[0] != n:
            raise ValueError("times/states length mismatch")
        if n > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        self.monitors = {k: np.asarray(v, dtype=float)
                         for k, v in self.monitors.items()}
        for k, v in self.monitors.items():
            if v.shape[0] != n:
                raise ValueError(f"monitor {k!r} length mismatch")

    def __len__(self):
        return self.times.shape[0]

    def state(self, i: int) -> PhaseState:
        return PhaseState(self.qs[i], self.ps[i])


def _monitor_rows(monitors, ts, qs, ps):
    """Each monitor's ``fn`` on the rows of every recorded state at once;
    ``ts`` holds their times (``perfbench`` counts the rows from it)."""
    return {name: np.asarray(obs.fn(qs, ps), dtype=float)
            for name, obs in monitors.items()}


def verlet_steps(dt: float, t_end: float) -> int:
    """Number of fixed steps of size ``dt`` that end at ``t_end``; raises
    ValueError unless 0 < dt < inf and t_end is a finite, nonnegative whole
    multiple of dt (to 1e-9 relative), so a fixed-step run never stops
    short of t_end."""
    if not (0 < dt < math.inf and math.isfinite(t_end)):
        raise ValueError(f"need a finite dt > 0 and a finite t_end, got "
                         f"dt = {dt:g}, t_end = {t_end:g}")
    n_steps = int(round(t_end / dt))
    if t_end < 0 or abs(n_steps * dt - t_end) > 1e-9 * t_end:
        raise ValueError(f"t_end = {t_end:g} is not a nonnegative whole "
                         f"multiple of dt = {dt:g}")
    return n_steps


def integrate_verlet(system, s0: PhaseState, dt: float,
                     t_end: float) -> Trajectory:
    """Velocity-Verlet flow of a separable system ``H = p^2/2 + V(q)``.

    ``system`` is a :class:`~confmech.conformal.ConformalSystem`; every
    step is recorded, with its ``monitors()`` evaluated on each. The
    integrator stops with :class:`SingularityApproachError` (reporting the
    last good time and a copy of the last good state) when the
    configuration comes within 1e-6 of the system's ``singular_distance``
    (if set), or takes a step longer than 0.9 of it; this is the
    finite-time-collapse diagnostic. ``t_end`` must be a whole multiple
    of ``dt`` (see :func:`verlet_steps`). Each step is written in place
    into its output row, which then serves as the state the next step
    starts from. The guard and the finiteness test run once per block of
    256 rows, on the rows it wrote (by point calls up to the first stop,
    for a distance without a ``rows`` form), and raise as a test after
    each step would. Steps run under ``np.errstate(all="ignore")``, and
    past a stop may call the gradient 255 extra times (an error raised
    there yields to the stop); under ``-W error`` an overflow thus ends
    as the typed error or result it gives without ``-W error``.
    """
    n_steps = verlet_steps(dt, t_end)
    V = system.V
    sdist = system.singular_distance
    if sdist is not None and sdist(s0.q) < _SINGULAR_GUARD:
        raise SingularityApproachError(
            "initial state is inside the singular exclusion zone",
            last_good_time=0.0, state=s0)

    ts = dt * np.arange(n_steps + 1)
    qs = np.empty((n_steps + 1, s0.d))
    ps = np.empty((n_steps + 1, s0.d))
    qs[0], ps[0] = s0.q, s0.p
    q, p = qs[0], ps[0]
    # kick = half_dt * dV/dq, and p - kick is p + half_dt * (-dV/dq) bit
    # for bit (negation is exact); the kick closing a step opens the next
    half_dt = 0.5 * dt
    kick = half_dt * _grad_arrays(V, q, p)[0]
    with np.errstate(all="ignore"):
        for start in range(1, n_steps + 1, _VERLET_BLOCK):
            end = min(start + _VERLET_BLOCK, n_steps + 1)
            failure = None
            try:
                for k in range(start, end):
                    p_half = p - kick
                    q = np.add(q, dt * p_half, out=qs[k])
                    kick = half_dt * _grad_arrays(V, q, p_half)[0]
                    p = np.subtract(p_half, kick, out=ps[k])
            except Exception as exc:
                # checked up to row k if step k wrote it (q is then row k)
                failure, end = exc, k + np.may_share_memory(q, qs[k])
            _check_verlet_rows(sdist, qs, ps, start, end, dt)
            if failure is not None:
                raise failure
    return Trajectory(ts, qs, ps, _monitor_rows(system.monitors(), ts, qs, ps))


def _check_verlet_rows(sdist, qs, ps, start, end, dt):
    """Raise the Verlet flow's first stop in rows ``start .. end - 1``."""
    Q = qs[start - 1:end]
    bad = ~np.isfinite(Q[1:]).all(-1)
    near = np.zeros_like(bad)
    if sdist is not None:
        # a step comparable to the singular distance cannot resolve the
        # approach: the fixed-step scheme would hop the singularity. Each
        # step length is its row's math.sqrt(m.dot(m)) bit for bit
        M = Q[1:] - Q[:-1]
        step = np.sqrt(np.vecdot(M, M))
        rows = getattr(sdist, "rows", None)
        dist = rows(Q[1:]) if rows else np.full(len(M), np.inf)
        for i in range(0 if rows else len(M)):
            dist[i] = sdist(Q[1 + i])
            if bad[i] or dist[i] < _SINGULAR_GUARD \
                    or step[i] > 0.9 * dist[i]:
                break
        near = (dist < _SINGULAR_GUARD) | (step > 0.9 * dist)
    if (bad | near).any():
        k = start + int(np.argmax(bad | near))
        t = (k - 1) * dt
        if near[k - start]:
            raise SingularityApproachError(
                "trajectory entered the singular exclusion zone near "
                f"t={t:.6g}", last_good_time=t,
                state=PhaseState(qs[k - 1].copy(), ps[k - 1].copy()))
        raise NonFiniteError("position became non-finite during Verlet "
                             f"integration near t={t:.6g}")


# Dormand-Prince 5(4) embedded pair.
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784,
                   11 / 84, 0.0])
_DP_ERR = _DP_B5 - np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                             -92097 / 339200, 187 / 2100, 1 / 40])
# the pair's 4th-order continuous extension (Hairer's dopri5 ``contd5``)
_DP_DENSE = np.array([-12715105075 / 11282082432, 0.0,
                      87487479700 / 32700410799, -10690763975 / 1880347072,
                      701980252875 / 199316789632, -1453857185 / 822651844,
                      69997945 / 29380423])


def _hamilton_rhs(H: Observable):
    def rhs(y, d):
        q = y[:d]
        p = y[d:]
        dq, dp = _grad_arrays(H, q, p)
        return np.concatenate([dp, -dq])
    return rhs


def integrate_adaptive(H: Observable, s0: PhaseState, rtol: float,
                       t_end: float, t_eval,
                       singular_distance=None) -> Trajectory:
    """Adaptive embedded Runge-Kutta flow of Hamilton's equations
    ``dx/dt = dH/dp``, ``dp/dt = -dH/dx`` for an arbitrary observable H.

    Local error per step is held below ``rtol * (1 + |y|)`` componentwise,
    and that tolerance alone sets the steps. The rows are exactly the
    requested times ``t_eval`` (nonempty, strictly increasing, within
    [0, t_end]), one row each: a 0 is the initial state itself, and every
    other row is filled in from the step that covers it by the pair's free
    4th-order continuous extension (Dormand & Prince 1980; Hairer, Norsett
    & Wanner, *Solving ODEs I*, II.6). A time the run cannot reach (a
    ``t_end`` below 1e-14 leaves no step to take) raises
    :class:`IncompleteResultError`. The extension's error is of the order
    of the covering step's local error, so the rows are as accurate as the
    steps: on the tests' seeded states every row lies within 20
    ``rtol * (1 + |y|)`` of an rtol 1e-13 run up to t = 20. A close
    approach to the singular set breaks that bound without an error: a
    coulomb path passing 8.8e-4 from its singular axis is 3.2e-4 off at
    t = 1 with rtol 1e-10. Near a singularity the step size collapses and
    :class:`StepUnderflowError` reports how far the integration got (as it
    does after 1,000,000 steps); an optional ``singular_distance(q)`` guard
    reports the same diagnostic earlier and more cheaply, at 1e-6, and
    refuses an initial state inside it (``t_reached = 0``). With the guard
    set, a step whose position move exceeds 0.9 of the guard's value at
    the step's start is retried at a quarter of its size, so no step
    jumps across the singular set.
    """
    if not (1e-13 <= rtol <= 1e-3):
        raise ValueError("rtol must lie in [1e-13, 1e-3]")
    if not math.isfinite(t_end):
        raise ValueError("t_end must be finite")
    targets = np.array(t_eval, dtype=float)
    if targets.ndim != 1 or not len(targets) \
            or not np.all(np.diff(targets) > 0):
        raise ValueError("t_eval must be nonempty and strictly increasing")
    if targets[0] < 0 or targets[-1] > t_end + 1e-12:
        raise ValueError("t_eval must lie within [0, t_end]")
    # the guard's value at the last accepted state
    dist = math.inf
    if singular_distance is not None:
        dist = singular_distance(s0.q)
        if dist < _SINGULAR_GUARD:
            raise StepUnderflowError(
                "initial state is inside the singular exclusion zone",
                t_reached=0.0, state=s0)
    d = s0.d
    rhs = _hamilton_rhs(H)
    y = np.concatenate([s0.q, s0.p])
    t = 0.0
    ys = np.empty((len(targets), 2 * d))
    # a requested t = 0 is the initial state, copied bit for bit
    done = int(targets[0] == 0.0)
    ys[:done] = y

    f = rhs(y, d)
    if not np.all(np.isfinite(f)):
        raise NonFiniteError("Hamiltonian vector field not finite at the "
                             "initial state", state=s0)
    # initial step heuristic
    scale = rtol + rtol * np.abs(y)
    d0 = np.sqrt(np.mean((y / scale) ** 2))
    d1 = np.sqrt(np.mean((f / scale) ** 2))
    h = min(t_end, 0.01 * d0 / d1 if d1 > 0 else 1e-3)
    h = max(h, 1e-10)

    k = np.empty((7, 2 * d))
    k[0] = f
    # numpy scales an array by a 0-d array with the bits of a Python float
    # factor, without converting the float on every product
    rtol_a = np.array(rtol)
    steps = 0
    t_stop = t_end - 1e-14 * max(1.0, t_end)
    while t < t_stop:
        steps += 1
        if steps > _MAX_STEPS:
            raise StepUnderflowError(
                f"step budget exhausted at t={t:.12g}", t_reached=t,
                state=PhaseState(y[:d], y[d:]))
        h = min(h, t_end - t)
        h_min = 1e-14 * max(1.0, abs(t))
        if h < h_min:
            raise StepUnderflowError(
                f"step size underflow at t={t:.12g} (likely a singularity)",
                t_reached=t, state=PhaseState(y[:d], y[d:]))

        h_a = np.array(h)
        bad = False
        for i in range(1, 7):
            yi = y + h_a * (_DP_A[i] @ k[:i])
            try:
                ki = rhs(yi, d)
            except (DomainError, NonFiniteError):
                # a stage probed past a domain boundary; retry smaller
                bad = True
                break
            # exact per entry, and cheaper than np.isfinite on a short
            # vector (as in PhaseState)
            if not all(map(math.isfinite, ki.tolist())):
                bad = True
                break
            k[i] = ki
        if bad:
            h *= 0.25
            continue
        y_new = y + h_a * (_DP_B5 @ k)
        if singular_distance is not None:
            # without a guard no move length is taken (its dot product
            # would warn on overflow)
            move = y_new[:d] - y[:d]
            if math.sqrt(move.dot(move)) > 0.9 * dist:
                h *= 0.25
                continue
        err_vec = h_a * (_DP_ERR @ k)
        scale = rtol_a + rtol_a * np.maximum(np.abs(y), np.abs(y_new))
        # np.mean's sum and division, without its dispatch
        err = np.sqrt(np.add.reduce((err_vec / scale) ** 2) / (2 * d))
        if err <= 1.0 and all(map(math.isfinite, y_new.tolist())):
            # the targets in (t, t + h], every one left on the last step
            stop = len(targets) if t + h >= t_stop else \
                np.searchsorted(targets, t + h, side="right")
            if stop > done:
                theta = ((targets[done:stop] - t) / h_a)[:, None]
                dy = y_new - y
                b = h_a * k[0] - dy
                c = dy - h_a * k[6] - b
                e = h_a * (_DP_DENSE @ k)
                ys[done:stop] = y + theta * (dy + (1.0 - theta) * (
                    b + theta * (c + (1.0 - theta) * e)))
                done = stop
            t = t + h
            y = y_new
            k[0] = k[6]  # first-same-as-last
            if singular_distance is not None:
                dist = singular_distance(y[:d])
                if dist < _SINGULAR_GUARD:
                    raise StepUnderflowError(
                        "trajectory entered the singular exclusion zone at "
                        f"t={t:.12g}", t_reached=t,
                        state=PhaseState(y[:d], y[d:]))
        if err == 0.0:
            h *= 5.0
        else:
            h *= min(5.0, max(0.2, 0.9 * err ** -0.2))

    if done < len(targets):
        raise IncompleteResultError(
            f"the flow stopped at t={t:.12g} before the requested "
            f"t={targets[done]:.12g}")
    return Trajectory(targets, ys[:, :d], ys[:, d:])
