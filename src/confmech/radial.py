"""Closed-form radial dynamics, the reparametrized time T(t), finite-time
collapse detection, and full trajectory reconstruction.

With H = E and the angular invariant I = I0 fixed, the algebra forces

    d(r^2)/dt = 2 D,      dD/dt = 2E
    =>  r^2(t) = 2 E t^2 + 2 D0 t + r0^2,

a plain quadratic in t for *any* initial data. The textbook branches
(r^2 = 2Et^2 + I0/E for a turning point at t=0, r^2 = 2 sqrt(-2 I0) t for
E=0 launched from r=0) are the D0 = 0 and r0 = 0 specializations. Real
roots of the quadratic exist exactly when I0 <= 0 (the discriminant is
-8 I0): an infalling branch then reaches the center in finite time.

The angular degrees of freedom evolve freely in the reparametrized time
T(t) = integral dt / r^2(t), which decouples them from the radial motion;
:func:`reconstruct` composes the two closed-form pieces back into a full
Cartesian trajectory. The angular flow is integrated in Cartesian
coordinates on the unit sphere (the flow of the Casimir observable keeps
|n| = 1 and n . l = 0 exactly), so no chart poles are crossed mid-flight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .conformal import ConformalSystem, casimir_I
from .errors import CollapseOnPathError, IncompleteResultError
from .phase import PhaseState, Trajectory, integrate_adaptive, _monitor_rows


@dataclass(frozen=True)
class RadialData:
    """Constants of the radial motion: energy E, initial dilatation D0,
    initial r^2, and the angular invariant I0.

    The four are not independent: 2 E r0^2 - D0^2 = 2 I0 (the Casimir
    identity at t = 0). Omit ``I0`` to have it filled in; pass all four and
    the constraint is checked to 1e-10.
    """

    E: float
    D0: float
    r0sq: float
    I0: float = None

    def __post_init__(self):
        if self.r0sq < 0:
            raise ValueError("r0sq must be nonnegative")
        implied = 0.5 * (2.0 * self.E * self.r0sq - self.D0 ** 2)
        if self.I0 is None:
            object.__setattr__(self, "I0", implied)
            return
        scale = max(1.0, abs(2.0 * self.E * self.r0sq), self.D0 ** 2,
                    abs(2.0 * self.I0))
        if abs(2.0 * self.I0 - 2.0 * implied) > 1e-10 * scale:
            raise ValueError(
                "inconsistent radial data: 2*E*r0sq - D0^2 != 2*I0 "
                f"({2 * implied:.17g} vs {2 * self.I0:.17g})")

    @classmethod
    def from_state(cls, sys: ConformalSystem, s: PhaseState) -> "RadialData":
        return cls(E=sys.H(s), D0=sys.D(s), r0sq=2.0 * sys.K(s),
                   I0=casimir_I(sys, s))


def radial_squared(rd: RadialData, t):
    """r^2(t) = 2 E t^2 + 2 D0 t + r0^2 (negative values flag times past
    the collapse; see :func:`fall_time`). ``t`` is a float or an array;
    so is the result."""
    return 2.0 * rd.E * t * t + 2.0 * rd.D0 * t + rd.r0sq


def radial_squared_rate(rd: RadialData, t):
    """d(r^2)/dt = 4 E t + 2 D0; equals 2 D(t). Float or array ``t``."""
    return 4.0 * rd.E * t + 2.0 * rd.D0


def radial_momentum(rd: RadialData, t):
    """p_r(t) = (2 E t + D0) / r(t) on a collapse-free interval; float or
    array ``t``."""
    return (2.0 * rd.E * t + rd.D0) / np.sqrt(radial_squared(rd, t))


def fall_time(rd: RadialData):
    """Smallest positive root of r^2(t) = 0, or None.

    Real roots exist iff I0 <= 0; with I0 > 0 the motion never reaches the
    center and the time range is unbounded. The roots come from the stable
    pair r0^2/q, q/(2E) with q = -(D0 + sign(D0) sqrt(disc)), which does
    not cancel as E -> 0 (the textbook formula loses the small root).
    """
    if rd.E == 0.0:
        if rd.D0 < 0.0 and rd.r0sq > 0.0:
            return -rd.r0sq / (2.0 * rd.D0)
        return None
    disc = rd.D0 ** 2 - 2.0 * rd.E * rd.r0sq  # = -2 I0
    if disc < 0.0:
        return None
    q = -(rd.D0 + math.copysign(math.sqrt(disc), rd.D0))
    if q == 0.0:
        return None  # D0 = r0^2 = 0: the double root t = 0
    roots = [rd.r0sq / q, q / (2.0 * rd.E)]
    positive = [x for x in roots if x > 0.0]
    return min(positive) if positive else None


def _check_collapse_free(rd: RadialData, t: float):
    if rd.r0sq == 0.0:
        raise CollapseOnPathError("r^2(0) = 0: the reparametrized time "
                                  "diverges at the left endpoint",
                                  collapse_time=0.0)
    tf = fall_time(rd)
    if tf is not None and tf <= t:
        raise CollapseOnPathError(
            f"r^2 vanishes at t = {tf:.12g} inside [0, {t:g}]",
            collapse_time=tf)


def reparam_time(rd: RadialData, t: float) -> float:
    """T(t) = integral_0^t ds / r^2(s), with T(0) = 0.

    Closed form (an arctan difference) when I0 > 0; adaptive quadrature to
    absolute tolerance 1e-12 otherwise. Raises
    :class:`CollapseOnPathError` if r^2 vanishes on [0, t].
    """
    if t == 0.0:
        return 0.0
    if t < 0.0:
        raise ValueError("reparam_time expects t >= 0")
    _check_collapse_free(rd, t)
    if rd.I0 > 0.0:
        s = math.sqrt(2.0 * rd.I0)
        return (math.atan2(2.0 * rd.E * t + rd.D0, s)
                - math.atan2(rd.D0, s)) / s
    val, err = quad(lambda u: 1.0 / radial_squared(rd, u), 0.0, t,
                    epsabs=1e-12, epsrel=1e-12, limit=200)
    del err
    return float(val)


def reconstruct(sys: ConformalSystem, s0: PhaseState, t_grid,
                rtol: float = 1e-10) -> Trajectory:
    """Rebuild the full trajectory from the radial closed form plus the
    angular flow in reparametrized time.

    The radial factor is exact: r(t) from the quadratic, p_r = (2Et+D0)/r.
    The angular state (unit vector n, tangential momentum l = r p_perp)
    flows under the Casimir observable up to T(t) and is composed back:
    q = r n, p = p_r n + l / r.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t_grid[0] < 0 or (len(t_grid) > 1 and not np.all(np.diff(t_grid) > 0)):
        raise ValueError("t_grid must be nonnegative and strictly increasing")
    rd = RadialData.from_state(sys, s0)
    t_max = float(t_grid[-1])
    if t_max > 0:
        _check_collapse_free(rd, t_max)

    d = s0.d
    r0 = math.sqrt(rd.r0sq)
    n0 = s0.q / r0
    p_r0 = float(s0.p @ n0)
    ell0 = r0 * (s0.p - p_r0 * n0)

    T_grid = np.array([reparam_time(rd, t) for t in t_grid])

    if d == 1 or t_max == 0.0 or np.allclose(ell0, 0.0):
        # no angular motion: n is constant (straight radial rays)
        ns = np.tile(n0, (len(t_grid), 1))
        ells = np.tile(ell0, (len(t_grid), 1))
    else:
        targets = T_grid[T_grid > 0.0]
        ang = integrate_adaptive(sys.casimir, PhaseState(n0, ell0),
                                 rtol=rtol, t_end=float(T_grid[-1]),
                                 t_eval=targets,
                                 singular_distance=sys.singular_distance)
        # the flow records (n0, ell0) at T = 0, then one row per target
        skip = 0 if T_grid[0] == 0.0 else 1
        if len(ang) - skip != len(t_grid):
            raise IncompleteResultError("angular flow did not record every "
                                        "requested reparametrized time")
        # project back to the sphere and its tangent space, row by row
        # (np.vecdot gives each row's dot product, as np.dot does)
        ns = ang.qs[skip:]
        ns = ns / np.sqrt(np.vecdot(ns, ns))[:, None]
        ells = ang.ps[skip:]
        ells = ells - np.vecdot(ells, ns)[:, None] * ns

    rs = np.sqrt(radial_squared(rd, t_grid))
    prs = radial_momentum(rd, t_grid)
    qs = rs[:, None] * ns
    ps = prs[:, None] * ns + ells / rs[:, None]
    monitors = _monitor_rows(sys.monitors(), t_grid, qs, ps)
    return Trajectory(t_grid, qs, ps, monitors)
