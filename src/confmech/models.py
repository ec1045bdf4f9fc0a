"""Catalog of degree minus-two potentials and the relative-coordinate
Calogero construction.

Catalog entries:

* ``free``             -- V = 0
* ``inverse_square``   -- V = kappa / r^2
* ``conformal_higgs``  -- V = omega^2/(2 x_d^2) + omega^2/(2 r^2); its
  angular potential is the sphere (Higgs) oscillator omega^2 tan^2(t)/2
  shifted by the constant omega^2
* ``conformal_coulomb`` -- V = gamma x_d / (r^2 sqrt(r^2 - x_d^2)); its
  angular potential is the sphere Coulomb potential gamma cot(t)
* ``calogero_relative`` -- n particles on a line with pairwise
  inverse-square couplings, center of mass removed by an orthonormal
  Jacobi change of coordinates (classical coupling g^2; the quantum
  replacement g(g-1) is out of scope here)

All potentials are exactly homogeneous of degree -2 and ship analytic
gradients, so they are cheap inside integrator loops.

Each model is one constructor in ``_CATALOG`` (bottom of this module),
listed with the parameter names it takes; the public functions here are
lookups into it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import dual
from .conformal import ConformalSystem, build_system
from .errors import DomainError
from .phase import Observable, PhaseState


@dataclass(frozen=True)
class ModelSpec:
    """A catalog entry: which potential, its parameters, its dimension."""

    name: str
    d: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in _CATALOG:
            raise ValueError(f"unknown model {self.name!r}")
        for key in ("kappa", "omega", "gamma", "g"):
            if not math.isfinite(self.params.get(key, 0.0)):
                raise ValueError(f"{self.name} parameter {key} must be "
                                 f"finite, got {self.params[key]!r}")
        constructor, takes = _CATALOG[self.name]
        constructor(self.d, self.params)  # checks the parameters
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        unused = sorted(set(self.params) - set(takes))
        if unused:
            raise ValueError(f"{self.name} takes no parameter {unused[0]!r}")

    @property
    def label(self) -> str:
        bits = [f"{k}={v:g}" for k, v in sorted(self.params.items())]
        return f"{self.name}(d={self.d}" + (", " + ", ".join(bits) if bits
                                            else "") + ")"


def spec(name: str, d: int = None, **params) -> ModelSpec:
    """Build a ModelSpec accepting CLI-style aliases and defaults; the
    Calogero dimension defaults to n - 1 (any other d is a ValueError)."""
    try:
        canonical = _ALIASES[name.lower()]
    except KeyError:
        raise ValueError(f"unknown model {name!r}; choose from "
                         f"{sorted(set(_ALIASES))}") from None
    if canonical == "calogero_relative":
        n = params.pop("particles", params.get("n", 0))
        # first, as NaN equals no n (itself included) and int(inf) raises
        if not math.isfinite(n) or n != int(n):
            raise ValueError("calogero_relative needs a whole number of "
                             f"particles, got {n!r}")
        if params.get("n", n) != n:
            raise ValueError(f"calogero_relative got n={params['n']!r} and "
                             f"particles={n!r}; give one of them")
        params["n"] = int(n)
        params.setdefault("g", 1.0)
        if d is None:
            d = params["n"] - 1
    if d is None:
        raise ValueError(f"model {name!r} needs a dimension")
    return ModelSpec(name=canonical, d=int(d), params=params)


def jacobi_matrix(n: int) -> np.ndarray:
    """Orthonormal relative-coordinate rows, translation mode dropped.

    Row k is (x^1 + ... + x^{k+1} - (k+1) x^{k+2}) / sqrt((k+1)(k+2)); the
    rows span the hyperplane orthogonal to (1, ..., 1), so the kinetic form
    stays sum p^2/2 and pairwise differences are linear in the new
    coordinates.
    """
    if n < 2:
        raise ValueError("need at least two particles")
    R = np.zeros((n - 1, n))
    for k in range(n - 1):
        R[k, :k + 1] = 1.0
        R[k, k + 1] = -(k + 1.0)
        R[k] /= np.sqrt((k + 1.0) * (k + 2.0))
    return R


def pair_axes(n: int) -> np.ndarray:
    """Images of the coincidence planes x^i = x^j in relative coordinates:
    rows are R (e_i - e_j) for i < j, each of norm sqrt(2)."""
    R = jacobi_matrix(n)
    return np.array([R[:, i] - R[:, j]
                     for i, j in itertools.combinations(range(n), 2)])


def singular_directions(n: int) -> np.ndarray:
    """Force-center directions of the reduced Calogero angular system.

    Each pair term contributes (g^2/2) sec^2(t_c) to the angular potential,
    a sphere-oscillator well whose center c is the normalized image of
    e_i - e_j under the Jacobi map and whose singular equator is the great
    sphere perpendicular to c (the image of the coincidence plane
    x^i = x^j). Both orientations are returned (2 per particle pair);
    centers counted modulo antipodality match the particle pairs. For n=3
    the six directions sit on the circle spaced pi/3 (three centers at
    2pi/3); for n=4 the twelve form the vertices of a cuboctahedron.
    """
    axes = pair_axes(n)
    units = axes / np.linalg.norm(axes, axis=1)[:, None]
    return np.concatenate([units, -units])


def potential(model: ModelSpec) -> Observable:
    """The catalog potential as an observable with an exact gradient."""
    entry = _entry(model)
    return Observable(model.d, entry.V, grad_fn=entry.dV,
                      name=f"V[{entry.tag}]", vectorized=True)


def singular_distance_fn(model: ModelSpec) -> Callable:
    """Distance from a configuration to the potential's singular set: a
    fresh function of one point, with its rows form as ``rows``."""
    return _entry(model).singular_distance


def build(model: ModelSpec) -> ConformalSystem:
    """ModelSpec -> ConformalSystem with generators and singular guard."""
    return build_system(potential(model), model.d, name=model.label,
                        singular_distance=singular_distance_fn(model))


def calogero_relative(n: int, g: float = 1.0) -> ConformalSystem:
    """The n-particle line model with pairwise inverse-square couplings,
    reduced to n-1 relative coordinates (translation mode removed exactly).

    For n=2 this is the familiar one-dimensional system with
    V(y) = g^2 / (2 y^2), since x^1 - x^2 = sqrt(2) y.
    """
    return build(spec("calogero", n=n, g=g))


def full_calogero_hamiltonian(n: int, g: float = 1.0) -> Observable:
    """The unreduced n-particle Hamiltonian (for cross-checks against the
    relative-coordinate system)."""
    g2 = float(g) ** 2
    pairs = list(itertools.combinations(range(n), 2))

    def fn(q, p):
        h = 0.5 * np.dot(p, p)
        for i, j in pairs:
            diff = q[i] - q[j]
            if dual.value(diff) == 0.0:
                raise DomainError("coincident particles")
            h = h + g2 / (diff * diff)
        return h

    return Observable(n, fn, name="H[calogero_full]")


def reduce_calogero_state(x: np.ndarray, p: np.ndarray) -> PhaseState:
    """Map a full n-particle phase point to relative Jacobi coordinates."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    R = jacobi_matrix(x.shape[0])
    return PhaseState(R @ x, R @ p)


def catalog() -> list:
    """The standard model list exercised by the verification suites."""
    return [
        spec("free", d=3),
        spec("inverse-square", d=2, kappa=1.0),
        spec("inverse-square", d=3, kappa=1.0),
        spec("higgs", d=3, omega=1.0),
        spec("coulomb", d=3, gamma=1.0),
        spec("calogero", n=2, g=1.0),
        spec("calogero", n=3, g=1.0),
        spec("calogero", n=4, g=1.0),
    ]


def reference_state(model: ModelSpec) -> PhaseState:
    """A documented off-singularity initial state for each catalog model,
    gentle enough for long conservation runs; ValueError where there is
    none (inverse-square at d = 1)."""
    return _entry(model).reference()


# ---------------------------------------------------------------------------
# The catalog: one constructor per model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Entry:
    """One model at fixed parameters. ``V(q, p)`` is one body over
    ``(..., d)`` arrays: a float vector, an object vector of duals, or the
    ``(N, d)`` rows of a trajectory (one value per row, each bit for bit
    the value of that row alone); it raises DomainError if the point, or
    any row, is on the singular set. ``dV(q, p) -> (dV/dq, 0)`` is one body
    over float ``(..., d)`` arrays, a point or rows, with the same bits per
    row; the potential observable is named ``V[tag]``.
    ``singular_distance(q)`` is a float at one point, in the scalar form
    the Verlet guard calls once per step; it is made by :func:`_distance`,
    which declares it rows-capable: its ``rows(Q)`` gives one value per row
    of float ``(N, d)`` rows, each bit for bit that row's point value (0.0
    on the singular set), and :func:`~confmech.conformal.sample_states`
    screens a chunk of draws in one such call."""

    tag: str
    V: Callable
    dV: Callable
    singular_distance: Callable
    reference: Callable


def _entry(model: ModelSpec) -> _Entry:
    return _CATALOG[model.name][0](model.d, model.params)


def _distance(point: Callable, rows: Callable) -> Callable:
    """The singular distance ``point(q)`` with its body over ``(N, d)``
    rows attached as ``point.rows``, which declares it rows-capable."""
    point.rows = rows
    return point


def _singular(cond) -> bool:
    """Whether a singular-set test holds at the point, or at any row.

    ``cond`` is a bool (floats and duals compare to one) or a bool array
    (one entry per row); ``np.any`` would cost microseconds on a bool.
    """
    return cond.any() if isinstance(cond, np.ndarray) else bool(cond)


# (dot product of the last axes, power through C ``pow``) on rows, and on
# one point: numpy's array ``**`` squares and cubes by multiplying, which
# rounds differently from ``pow``, while ``np.vecdot`` and
# ``np.float_power`` give the same bits as ``ndarray.dot`` and ``pow`` but
# cost a microsecond of dispatch per call inside the integrator loop
_ROWS_OPS = (np.vecdot, np.float_power)
_POINT_OPS = (np.ndarray.dot, pow)


def _ops(q):
    """``(dot, power)`` for ``q``: the rows forms on ``(N, d)`` arrays, the
    scalar forms on one point."""
    return _ROWS_OPS if q.ndim > 1 else _POINT_OPS


def _free(d: int, params: dict) -> _Entry:
    return _Entry(
        "free", lambda q, p: np.zeros(q.shape[:-1])[()],
        lambda q, p: (np.zeros(q.shape), np.zeros(q.shape)),
        _distance(lambda q: np.inf, lambda Q: np.full(Q.shape[:-1], np.inf)),
        lambda: PhaseState(np.linspace(1.0, 0.4, d), np.linspace(0.3, 1.0, d)))


def _inverse_square(d: int, params: dict) -> _Entry:
    if "kappa" not in params:
        raise ValueError("inverse_square needs kappa")
    kappa = float(params["kappa"])

    def V(q, p):
        r2 = np.vecdot(q, q)
        if _singular(r2 == 0.0):
            raise DomainError("inverse_square potential at r = 0")
        return kappa / r2

    def dV(q, p):
        dot, power = _ops(q)
        return (-2.0 * kappa * q.T / power(dot(q, q), 2)).T, np.zeros(q.shape)

    def reference():
        if d == 1:
            raise ValueError("inverse_square has no reference state at "
                             "d = 1; pass an initial state")
        if d == 2:
            return PhaseState([1.0, 0.0], [0.0, 1.0])
        q = np.full(d, 0.3)
        q[0] = 1.0
        p = np.full(d, 0.2)
        p[1] = 1.0
        return PhaseState(q, p)

    return _Entry("inverse_square", V, dV,
                  _distance(lambda q: math.sqrt(q.dot(q)),
                            lambda Q: np.sqrt(np.vecdot(Q, Q))),
                  reference)


def _conformal_higgs(d: int, params: dict) -> _Entry:
    if params.get("omega", 0.0) <= 0:
        raise ValueError("conformal_higgs needs omega > 0")
    w2 = float(params["omega"]) ** 2

    def V(q, p):
        r2 = np.vecdot(q, q)
        xd = q.T[d - 1]
        if _singular((r2 == 0.0) | (xd == 0.0)):
            raise DomainError("higgs potential on its singular set")
        return 0.5 * w2 / (xd * xd) + 0.5 * w2 / r2

    def dV(q, p):
        dot, power = _ops(q)
        qT = q.T
        dq = -w2 * qT / power(dot(q, q), 2)
        dq[d - 1] += -w2 / power(qT[d - 1], 3)
        return dq.T, np.zeros(q.shape)

    def sdist(q):
        return float(min(math.sqrt(q.dot(q)), abs(q[d - 1])))

    def sdist_rows(Q):
        # a NaN row is NaN in both forms: its r is NaN and comes first
        return np.minimum(np.sqrt(np.vecdot(Q, Q)), np.abs(Q[..., d - 1]))

    def reference():
        q = np.full(d, 0.4)
        q[d - 1] = 1.0
        p = np.full(d, 0.3)
        p[0] = -0.2
        return PhaseState(q, p)

    return _Entry("conformal_higgs", V, dV, _distance(sdist, sdist_rows),
                  reference)


def _conformal_coulomb(d: int, params: dict) -> _Entry:
    if "gamma" not in params:
        raise ValueError("conformal_coulomb needs gamma")
    if d < 2:
        raise ValueError("conformal_coulomb needs d >= 2")
    gamma = float(params["gamma"])

    def V(q, p):
        r2 = np.vecdot(q, q)
        xd = q.T[d - 1]
        rho2 = r2 - xd * xd
        if _singular((r2 == 0.0) | (rho2 <= 0.0)):
            raise DomainError("coulomb potential on its singular axis")
        return gamma * xd / (r2 * np.sqrt(rho2))  # np.sqrt calls Dual.sqrt

    def dV(q, p):
        dot, power = _ops(q)
        qT = q.T
        r2 = dot(q, q)
        xd = qT[d - 1]
        rho = np.sqrt(r2 - xd * xd)  # |x_perp|: no x_d dependence
        r4 = power(r2, 2)
        dq = -gamma * xd * (2.0 / (r4 * rho)
                            + 1.0 / (r2 * power(rho, 3))) * qT
        dq[d - 1] = gamma * (1.0 / (r2 * rho)
                             - 2.0 * power(xd, 2) / (r4 * rho))
        return dq.T, np.zeros(q.shape)

    def sdist(q):
        r2 = float(q @ q)
        try:
            xd2 = float(q[d - 1]) ** 2
        except OverflowError:  # the rows form's np.float_power gives inf
            xd2 = math.inf
        return math.sqrt(max(r2 - xd2, 0.0))

    def sdist_rows(Q):
        return np.sqrt(np.maximum(
            np.vecdot(Q, Q) - np.float_power(Q[..., d - 1], 2), 0.0))

    def reference():
        q = np.zeros(d)
        q[0] = 1.0
        q[d - 1] = 0.3
        p = np.zeros(d)
        p[1] = 1.0
        p[d - 1] = 0.2
        return PhaseState(q, p)

    return _Entry("conformal_coulomb", V, dV, _distance(sdist, sdist_rows),
                  reference)


def _calogero_relative(d: int, params: dict) -> _Entry:
    n = params.get("n", 0)
    if n < 2:
        raise ValueError("calogero_relative needs n >= 2 particles")
    if params.get("g", 0.0) == 0.0:
        raise ValueError("calogero_relative needs g != 0")
    if d != n - 1:
        raise ValueError("calogero dimension is n - 1")
    g2 = float(params["g"]) ** 2
    axes = pair_axes(n)
    force_axes = -2.0 * g2 * axes
    root2 = math.sqrt(2.0)

    def V(q, p):
        # project on every pair axis at once, then sum pair by pair in
        # order, so the sum rounds the same on every input
        total = 0.0
        proj = np.vecdot(axes, q[..., None, :]).T
        if isinstance(proj, np.ndarray) and proj.ndim == 1:
            # one point: the same operations on Python floats, without a
            # numpy scalar operation per pair
            proj = proj.tolist()
        for s in proj:
            if _singular(s == 0.0):
                raise DomainError("coincident particles")
            total = total + g2 / (s * s)
        return total

    def dV(q, p):
        # sum over pairs of -2 g^2 a / (a.q)^3, pair by pair in order
        cubes = np.float_power(np.vecdot(axes, q[..., None, :]), 3)
        return ((force_axes / cubes[..., None]).sum(axis=-2),
                np.zeros(q.shape))

    def sdist(q):
        # ndarray.min propagates NaN, as np.min does; Python's min drops it
        return float(np.abs(axes @ q).min()) / root2

    def sdist_rows(Q):
        # axes @ q on each row with its bits; Q @ axes.T and np.vecdot
        # round differently on most rows
        return (np.abs(np.matmul(axes, Q[..., None])[..., 0]).min(axis=-1)
                / root2)

    def reference():
        # particles spread in decreasing order (keeps the n=2 relative
        # coordinate on the positive half-line), translation-free momenta
        x = np.linspace(1.0, -1.0, n) * (n - 1) * 0.6
        px = np.linspace(0.25, -0.25, n)
        px -= px.mean()
        return reduce_calogero_state(x, px)

    return _Entry("calogero", V, dV, _distance(sdist, sdist_rows), reference)


# name -> (constructor, the parameter names it takes)
_CATALOG = {
    "free": (_free, ()),
    "inverse_square": (_inverse_square, ("kappa",)),
    "conformal_higgs": (_conformal_higgs, ("omega",)),
    "conformal_coulomb": (_conformal_coulomb, ("gamma",)),
    "calogero_relative": (_calogero_relative, ("n", "g")),
}

# every canonical name, its hyphenated spelling, and three short forms
_ALIASES = {alias: name for name in _CATALOG
            for alias in (name, name.replace("_", "-"))}
_ALIASES.update(higgs="conformal_higgs", coulomb="conformal_coulomb",
                calogero="calogero_relative")
