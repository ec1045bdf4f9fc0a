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
    """T(t) = integral_0^t ds / r^2(s), with T(0) = 0, in closed form for
    every sign of I0 (Gradshteyn & Ryzhik 2.172):

    * I0 > 0, s = sqrt(2 I0): atan2(s t, r0^2 + D0 t) / s, the arctan
      difference folded into one call, which does not cancel as I0 -> 0+;
    * I0 = 0: t / (r0^2 + D0 t);
    * I0 < 0, s = sqrt(-2 I0): log1p(2 s t / (r0^2 + (D0 - s) t)) / (2 s),
      the log of the ratio of r^2's factors r0^2 + (D0 +- s) t, with D0 - s
      from the stable pair of :func:`fall_time`. Unlike
      atanh(s t / (r0^2 + D0 t)) / s it does not cancel near the fall time.

    Raises :class:`CollapseOnPathError` if r^2 vanishes on [0, t], also
    when t rounds onto the fall time, and ValueError unless t is finite and
    nonnegative.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError("reparam_time expects a finite t >= 0")
    if t == 0.0:
        return 0.0
    _check_collapse_free(rd, t)
    return _reparam(rd, t)


def _reparam(rd: RadialData, t: float) -> float:
    """:func:`reparam_time` at a t >= 0 already known to lie in a
    collapse-free interval."""
    if rd.I0 > 0.0:
        s = math.sqrt(2.0 * rd.I0)
        return math.atan2(s * t, rd.r0sq + rd.D0 * t) / s
    # s = 0 (I0 = 0) leaves the double factor r0^2 + D0 t
    s = math.sqrt(-2.0 * rd.I0)
    low = rd.D0 - s if rd.D0 <= 0.0 else 2.0 * rd.E * rd.r0sq / (rd.D0 + s)
    den = rd.r0sq + low * t
    if den > 0.0:
        return math.log1p(2.0 * s * t / den) / (2.0 * s) if s else t / den
    tf = fall_time(rd)
    raise CollapseOnPathError(
        f"r^2 vanishes to rounding at t = {t:.12g} (fall time {tf:.12g})",
        collapse_time=tf)


def __getattr__(name):
    # the benchmark's tracer still rebinds ``radial.quad`` by name; the
    # benchmark PR of ROADMAP item 1 deletes this shim
    if name == "quad":
        from scipy.integrate import quad
        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    if not (len(t_grid) and t_grid[0] >= 0 and np.all(np.diff(t_grid) > 0)):
        raise ValueError("t_grid must be nonempty, nonnegative and strictly "
                         "increasing")
    rd = RadialData.from_state(sys, s0)
    t_max = float(t_grid[-1])
    if t_max > 0:
        _check_collapse_free(rd, t_max)

    d = s0.d
    r0 = math.sqrt(rd.r0sq)
    n0 = s0.q / r0
    p_r0 = float(s0.p @ n0)
    ell0 = r0 * (s0.p - p_r0 * n0)

    T_grid = np.array([_reparam(rd, t) for t in t_grid.tolist()])

    if d == 1 or t_max == 0.0:
        # no angular motion: n is constant (straight radial rays); for
        # d > 1 even ell0 = 0 does not qualify, as an angular potential
        # still turns n
        ns = np.tile(n0, (len(t_grid), 1))
        ells = np.tile(ell0, (len(t_grid), 1))
    else:
        try:
            ang = integrate_adaptive(sys.casimir, PhaseState(n0, ell0),
                                     rtol=rtol, t_end=float(T_grid[-1]),
                                     t_eval=T_grid,
                                     singular_distance=sys.singular_distance)
        except IncompleteResultError as err:
            # the integrator names reparametrized times; the grid's end is
            # a time the caller asked for, and the flow fell short of it
            raise IncompleteResultError(
                "the angular flow stopped before the requested "
                f"t={t_max:.12g}") from err
        # project back to the sphere and its tangent space, row by row
        # (np.vecdot gives each row's dot product, as np.dot does)
        ns = ang.qs / np.sqrt(np.vecdot(ang.qs, ang.qs))[:, None]
        ells = ang.ps - np.vecdot(ang.ps, ns)[:, None] * ns

    rs = np.sqrt(radial_squared(rd, t_grid))
    prs = radial_momentum(rd, t_grid)
    qs = rs[:, None] * ns
    ps = prs[:, None] * ns + ells / rs[:, None]
    monitors = _monitor_rows(sys.monitors(), t_grid, qs, ps)
    return Trajectory(t_grid, qs, ps, monitors)
