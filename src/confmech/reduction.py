"""Canonical reduction between Cartesian phase space and the radial pair
(r, p_r) times the cotangent bundle of the unit sphere.

Chart convention: nested hyperspherical angles with the *last* Cartesian
axis as the primary pole, so for d = 3

    x = r (sin t1 cos t2,  sin t1 sin t2,  cos t1),

with polar angles t1..t_{d-2} in (0, pi) and the azimuth t_{d-1} in
(-pi, pi]. This places the distinguished x_d axis of the sphere-potential
models at t1 = 0, so their angular potentials come out in the usual
variables (tan, cot of the first polar angle).

Momenta transform by the point-transformation pullback: with J the position
Jacobian d x / d(r, t), the new momenta are (p_r, pi) = J^T p, which keeps
the chart exactly canonical: {p_r, r} = 1, {pi_a, t^b} = delta_a^b.

d = 1 is supported on the half-line x > 0 (no angles); states with x <= 0
raise :class:`ChartSingularError` (flip the sign, reduce, flip back).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dual
from .errors import ChartSingularError, NotHomogeneousError
from .phase import Observable, PhaseState

# polar angles closer than this to a pole are outside the chart
_POLE_MARGIN = 1e-9


@dataclass(frozen=True)
class ReducedState:
    """(r, p_r, angles, conjugate momenta); angles has length d-1."""

    r: float
    p_r: float
    phi: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phi",
                           np.atleast_1d(np.asarray(self.phi, dtype=float))
                           if np.size(self.phi) else np.zeros(0))
        object.__setattr__(self, "pi",
                           np.atleast_1d(np.asarray(self.pi, dtype=float))
                           if np.size(self.pi) else np.zeros(0))
        if self.r <= 0:
            raise ValueError("r must be positive")
        if self.phi.shape != self.pi.shape:
            raise ValueError("phi and pi must have equal length")
        for a in range(self.phi.shape[0] - 1):  # polar angles only
            if not (0.0 < self.phi[a] < np.pi):
                raise ChartSingularError(
                    f"polar angle {a} = {self.phi[a]:g} is outside (0, pi)")

    @property
    def d(self) -> int:
        return self.phi.shape[0] + 1


def _factor_lists(d: int):
    """Sine/cosine factor lists of each Cartesian component of the chart,
    d > 1."""
    comps = [None] * d
    for k in range(d - 2):
        comps[d - 1 - k] = [(j, "s") for j in range(k)] + [(k, "c")]
    sines = [(j, "s") for j in range(d - 2)]
    comps[1] = sines + [(d - 2, "s")]
    comps[0] = sines + [(d - 2, "c")]
    return comps


@functools.cache
def _frame_plan(d: int):
    """Index plan of the chart's products over the table ``[sin phi, cos
    phi, -sin phi]`` of the d-1 angles (``3(d-1)`` columns): the chain of
    factors of each Cartesian component of the unit vector, then of each
    nonzero entry of the tangent vectors (one factor replaced by its
    derivative), as ``(groups, u_at, t_at)``. ``groups`` holds the chains
    of each length as a ``(chains, length)`` index array, shortest first;
    ``u_at`` and ``t_at`` place u's and T's entries among the groups'
    products laid end to end, with a zero after them for T's zeros."""
    code = {"s": 0, "c": d - 1}
    slope = {"s": d - 1, "c": 2 * (d - 1)}  # sin' = cos, cos' = -sin
    comps = _factor_lists(d)
    chains = [[code[kind] + a for a, kind in factors] for factors in comps]
    t_chain = np.full((d, d - 1), -1)
    for i, factors in enumerate(comps):
        for which, (a, _) in enumerate(factors):
            t_chain[i, a] = len(chains)
            chains.append([(slope if pos == which else code)[kind] + b
                           for pos, (b, kind) in enumerate(factors)])
    order = sorted(range(len(chains)), key=lambda j: len(chains[j]))
    groups = [np.array([chains[j] for j in order if len(chains[j]) == n])
              for n in sorted({len(chain) for chain in chains})]
    at = np.append(np.argsort(order), len(chains))  # -1: the zero
    plan = groups + [at[:d], at[t_chain]]
    for index in plan:  # every caller shares them
        index.flags.writeable = False
    return plan[:-2], plan[-2], plan[-1]


def _frame(phi, d: int):
    """``(u, T)``: the unit vectors of ``(..., d-1)`` angles (floats or
    jets) and their ``(..., d, d-1)`` tangent vectors du/dt_a, from one
    :func:`~confmech.dual.sincos` of every angle. Each entry is its
    left-to-right product of sines and cosines, taken one factor position
    at a time over every chain of a length; T's entries are added to 0.0
    (a -0.0 product reads +0.0). d = 1 has no angles: u = (1,)."""
    if d == 1:
        return np.ones(1), np.zeros((1, 0))
    s, c = dual.sincos(phi)
    table = dual.concat([s, c, -s])
    groups, u_at, t_at = _frame_plan(d)
    products = []
    for chains in groups:
        v = table[..., chains[:, 0]]
        for pos in range(1, chains.shape[1]):
            v = v * table[..., chains[:, pos]]
        products.append(v)
    products.append(np.zeros(np.shape(dual.value(phi))[:-1] + (1,)))
    products = dual.concat(products)
    return products[..., u_at], products[..., t_at] + 0.0


def unit_from_angles(phi, d: int):
    """Unit vectors on the (d-1)-sphere from ``(..., d-1)`` angles; floats
    or jets."""
    return _frame(phi, d)[0]


def _polar_cosines(n, d: int):
    """The cosine of each polar angle of ``(..., d)`` unit vectors (floats
    or jets), in the chart's order: the remaining components live on a
    sphere of radius prod(sin), so each is renormalized and its arccos
    argument stays in [-1, 1]."""
    for k in range(d - 2):
        c = n[..., d - 1 - k]
        rest = n[..., :d - 1 - k]
        yield c / dual.sqrt(dual.sum_last(rest * rest) + c * c)


def _near_pole(t, delta: float):
    """Where a polar angle's value is within ``delta`` of a pole."""
    return (t < delta) | (t > np.pi - delta)


def angles_from_unit(n, d: int, delta: float = _POLE_MARGIN):
    """Invert the chart on ``(..., d)`` unit vectors; floats or jets.

    Raises :class:`ChartSingularError` when any polar angle, of any row, is
    within ``delta`` of a pole (where the azimuthal directions degenerate).
    """
    nv = dual.value(n)
    if d == 1:
        if np.any(nv[..., 0] <= 0):
            raise ChartSingularError(
                "the 1D chart covers the half-line x > 0 only")
        return np.zeros(np.shape(nv)[:-1] + (0,))
    phi = []
    for k, c in enumerate(_polar_cosines(n, d)):
        # the guard reads the angle's value, its argument clamped to
        # [-1, 1] on floats; a jet's argument is in range (a rounded
        # sqrt(x * x) is |x|), so its one arccos gives the same value
        if isinstance(c, dual.Dual):
            t = dual.arccos(c)
            tv = t.val
        else:
            t = tv = dual.arccos(np.clip(c, -1.0, 1.0))
        if np.any(_near_pole(tv, delta)):
            raise ChartSingularError(
                f"polar angle {k} is within {delta:g} of a pole; "
                "permute/rotate axes and reduce again")
        phi.append(t)
    phi.append(dual.arctan2(n[..., 1], n[..., 0]))
    return dual.stack(phi)


def _within_chart(Q: np.ndarray, delta: float) -> np.ndarray:
    """Per row of float ``(..., d)`` positions, d > 1: whether the chart
    takes it at pole margin ``delta``, i.e. :func:`hyperspherical_rows` on
    that row alone would not raise. Only the polar angles' values are
    computed, with the bits of the chart's own guard."""
    r = np.sqrt(np.vecdot(Q, Q))
    ok = ~(r <= 0)
    # the chart stops at a row's first failure; here a row at the origin,
    # or on a pole, goes on to NaN angles, which refuse nothing more
    with np.errstate(divide="ignore", invalid="ignore"):
        n = Q / r[..., None]
        for c in _polar_cosines(n, Q.shape[-1]):
            ok &= ~_near_pole(dual.arccos(np.clip(c, -1.0, 1.0)), delta)
    return ok


def hyperspherical_rows(Q, P, delta: float = _POLE_MARGIN):
    """The chart map on ``(..., d)`` arrays of floats or jets: ``(r, p_r,
    phi, pi)``, ``phi`` and ``pi`` of shape ``(..., d-1)``; each float row
    is bit for bit :func:`to_hyperspherical`'s. Raises
    :class:`ChartSingularError` if any row is outside the chart."""
    return _chart(Q, P, delta)[:4]


def _chart(Q, P, delta: float = _POLE_MARGIN):
    """:func:`hyperspherical_rows`' ``(r, p_r, phi, pi)``, then the unit
    vectors of ``phi``, which the tangents of ``pi`` take from the same
    sine/cosine table (None at d = 1)."""
    d = Q.shape[-1]
    r = np.sqrt(np.vecdot(Q, Q))  # np.linalg.norm's formula, row by row
    if np.any(r <= 0):
        raise ChartSingularError("the chart is undefined at the origin")
    n = Q / r[..., None]
    phi = angles_from_unit(n, d, delta=delta)
    p_r = np.vecdot(P, n)
    if d == 1:
        return r, p_r, phi, np.zeros_like(phi), None
    u, T = _frame(phi, d)
    # pi_a = r P . T[..., :, a], every a in one dot product over the rows
    pi = r[..., None] * np.vecdot(P[..., None, :], np.swapaxes(T, -1, -2))
    return r, p_r, phi, pi, u


def to_hyperspherical(s: PhaseState,
                      delta: float = _POLE_MARGIN) -> ReducedState:
    """Cartesian -> (r, p_r, angles, momenta), the canonical chart map."""
    r, p_r, phi, pi = hyperspherical_rows(s.q, s.p, delta=delta)
    return ReducedState(r=float(r), p_r=float(p_r), phi=phi, pi=pi)


def from_hyperspherical(rs: ReducedState) -> PhaseState:
    """Exact inverse of :func:`to_hyperspherical`."""
    d = rs.d
    u, T = _frame(rs.phi, d)
    q = rs.r * u
    if d == 1:
        return PhaseState(q, np.array([rs.p_r]))
    # invert the pullback (p_r, pi) = J^T p, J = dx/d(r, t) = [u, r du/dt]
    J = np.column_stack([u, rs.r * T])
    p = np.linalg.solve(J.T, np.concatenate([[rs.p_r], rs.pi]))
    return PhaseState(q, p)


def sphere_metric_diag(phi, d: int):
    """Diagonal of the inverse round metric: 1, 1/sin^2 t1, ... (dual-safe)."""
    diag = []
    acc = 1.0
    for a in range(d - 1):
        diag.append(1.0 / acc)
        if a < d - 2:
            sa = dual.sin(phi[..., a])
            acc = acc * sa * sa
    return dual.stack(diag)


@dataclass(frozen=True)
class SphericalSystem:
    """Angular Hamiltonian I = pi.g.pi/2 + U on the unit-sphere cotangent
    bundle; the conserved replacement of the 1D coupling constant."""

    d: int
    U: Callable

    def energy(self, phi, pi):
        g = sphere_metric_diag(phi, self.d)
        kin = 0.0
        for a in range(self.d - 1):
            kin = kin + 0.5 * g[a] * pi[a] * pi[a]
        return kin + self.U(phi)


def spherical_system_from(V: Observable, d: int) -> SphericalSystem:
    """Angular system of a degree minus-two potential: U = V on the unit
    sphere (the radial factor drops out by homogeneity). U takes the
    ``(..., d-1)`` angles of one point or of rows, floats or jets; its
    ``on_unit`` takes their unit vectors instead."""
    def on_unit(u):
        return V.fn(u, np.zeros(np.shape(dual.value(u))))

    def U(phi):
        return on_unit(unit_from_angles(phi, d))

    U.on_unit = on_unit
    return SphericalSystem(d=d, U=U)


def angular_potential(V: Observable, rs: ReducedState) -> float:
    """U = r^2 V at the reduced state's angles; must be r-independent.

    Evaluated at r and 2r; disagreement beyond 1e-9 (relative) raises
    :class:`NotHomogeneousError`.
    """
    d = rs.d
    u = unit_from_angles(rs.phi, d)
    zeros = np.zeros(d)
    v1 = rs.r ** 2 * dual.value(V.fn(rs.r * u, zeros))
    v2 = (2 * rs.r) ** 2 * dual.value(V.fn(2 * rs.r * u, zeros))
    if abs(v1 - v2) > 1e-9 * max(1.0, abs(v1)):
        raise NotHomogeneousError(
            f"r^2 V is not r-independent here: {v1!r} at r vs {v2!r} at 2r")
    return v1


def spherical_energy(sys: SphericalSystem, phi, pi) -> float:
    """pi.g(phi).pi/2 + U(phi); equals the Casimir combination (4HK-D^2)/2
    of the Cartesian state it reduces."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    pi = np.atleast_1d(np.asarray(pi, dtype=float))
    for a in range(sys.d - 2):
        if not (0 < phi[a] < np.pi):
            raise ChartSingularError(f"polar angle {a} is outside the chart")
    return float(dual.value(sys.energy(phi, pi)))


def _chart_components(r, p_r, phi, pi) -> list:
    """:func:`hyperspherical_rows`' output as the list of the chart's 2d
    components ``(r, p_r, phi_0, ..., phi_{d-2}, pi_0, ..., pi_{d-2})``."""
    return [r, p_r] + [x[..., a] for x in (phi, pi)
                       for a in range(phi.shape[-1])]
