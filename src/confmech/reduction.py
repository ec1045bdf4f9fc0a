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
    """Sine/cosine factor lists of each Cartesian component of the chart."""
    comps = [None] * d
    if d == 1:
        comps[0] = []
        return comps
    for k in range(d - 2):
        comps[d - 1 - k] = [(j, "s") for j in range(k)] + [(k, "c")]
    sines = [(j, "s") for j in range(d - 2)]
    comps[1] = sines + [(d - 2, "s")]
    comps[0] = sines + [(d - 2, "c")]
    return comps


def _sincos_table(phi, d: int) -> dict:
    """``{(a, "s"): sin phi_a, (a, "c"): cos phi_a}`` over the d-1 angles,
    one :func:`~confmech.dual.sincos` per angle."""
    table = {}
    for a in range(d - 1):
        table[a, "s"], table[a, "c"] = dual.sincos(phi[..., a])
    return table


def unit_from_angles(phi, d: int):
    """Unit vectors on the (d-1)-sphere from ``(..., d-1)`` angles; floats
    or jets."""
    table = _sincos_table(phi, d)
    out = []
    for factors in _factor_lists(d):
        v = 1.0
        for factor in factors:
            v = v * table[factor]
        out.append(v)
    return dual.stack(out)


def unit_tangents(phi, d: int):
    """``(..., d, d-1)`` tangent vectors du/dt_a (floats or jets)."""
    table = _sincos_table(phi, d)
    out = []
    for factors in _factor_lists(d):
        row = [0.0] * (d - 1)
        for which, (didx, dkind) in enumerate(factors):
            v = 1.0
            for pos, (idx, kind) in enumerate(factors):
                if pos == which:
                    f = (table[idx, "c"] if kind == "s"
                         else -table[idx, "s"])
                else:
                    f = table[idx, kind]
                v = v * f
            row[didx] = row[didx] + v
        out.append(dual.stack(row))
    return dual.stack(out, axis=-2)


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
    for k in range(d - 2):
        c = n[..., d - 1 - k]
        # remaining components live on a sphere of radius prod(sin);
        # renormalize so the arccos argument stays in range
        rem = 0.0
        for j in range(d - 1 - k):
            rem = rem + n[..., j] * n[..., j]
        c = c / dual.sqrt(rem + c * c)
        # the guard reads the angle's value, its argument clamped to [-1, 1]
        tv = dual.arccos(np.clip(dual.value(c), -1.0, 1.0))
        if np.any((tv < delta) | (tv > np.pi - delta)):
            raise ChartSingularError(
                f"polar angle {k} is within {delta:g} of a pole; "
                "permute/rotate axes and reduce again")
        phi.append(dual.arccos(c) if isinstance(c, dual.Dual) else tv)
    phi.append(dual.arctan2(n[..., 1], n[..., 0]))
    return dual.stack(phi)


def hyperspherical_rows(Q, P, delta: float = _POLE_MARGIN):
    """The chart map on ``(..., d)`` arrays of floats or jets: ``(r, p_r,
    phi, pi)``, ``phi`` and ``pi`` of shape ``(..., d-1)``; each float row
    is bit for bit :func:`to_hyperspherical`'s. Raises
    :class:`ChartSingularError` if any row is outside the chart."""
    d = Q.shape[-1]
    r = np.sqrt(np.vecdot(Q, Q))  # np.linalg.norm's formula, row by row
    if np.any(r <= 0):
        raise ChartSingularError("the chart is undefined at the origin")
    n = Q / r[..., None]
    phi = angles_from_unit(n, d, delta=delta)
    p_r = np.vecdot(P, n)
    if d == 1:
        return r, p_r, phi, np.zeros_like(phi)
    T = unit_tangents(phi, d)
    pi = r[..., None] * dual.stack([np.vecdot(P, T[..., :, a])
                                    for a in range(d - 1)])
    return r, p_r, phi, pi


def to_hyperspherical(s: PhaseState,
                      delta: float = _POLE_MARGIN) -> ReducedState:
    """Cartesian -> (r, p_r, angles, momenta), the canonical chart map."""
    r, p_r, phi, pi = hyperspherical_rows(s.q, s.p, delta=delta)
    return ReducedState(r=float(r), p_r=float(p_r), phi=phi, pi=pi)


def from_hyperspherical(rs: ReducedState) -> PhaseState:
    """Exact inverse of :func:`to_hyperspherical`."""
    d = rs.d
    u = unit_from_angles(rs.phi, d)
    q = rs.r * u
    if d == 1:
        return PhaseState(q, np.array([rs.p_r]))
    # invert the pullback (p_r, pi) = J^T p, J = dx/d(r, t) = [u, r du/dt]
    J = np.column_stack([u, rs.r * unit_tangents(rs.phi, d)])
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
    ``(..., d-1)`` angles of one point or of rows, floats or jets."""
    def U(phi):
        u = unit_from_angles(phi, d)
        return V.fn(u, np.zeros(np.shape(dual.value(u))))

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
