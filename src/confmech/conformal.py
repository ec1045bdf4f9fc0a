"""Conformal systems: generator assembly, algebra verification, and the
Casimir-type invariant.

A potential homogeneous of degree -2 (``q . grad V = -2 V``) makes the
Hamiltonian ``H = p^2/2 + V``, the dilatation ``D = p . q`` and the boost
``K = q^2/2`` close the so(1,2) algebra

    {H, D} = 2H,   {H, K} = D,   {K, D} = -2K,

and the combination ``I = (4HK - D^2)/2`` is then a constant of motion
(the angular energy of the reduced system on the sphere).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import IncompleteResultError, NonFiniteError
from .phase import Observable, PhaseState, grad, poisson_bracket


@dataclass(frozen=True)
class ConformalSystem:
    """Dimension, potential, and the three so(1,2) generators."""

    d: int
    V: Observable
    H: Observable
    D: Observable
    K: Observable
    casimir: Observable
    name: str = ""
    params: dict = field(default_factory=dict)
    singular_distance: Optional[Callable] = None

    def monitors(self) -> dict:
        return {"H": self.H, "D": self.D, "K": self.K, "I": self.casimir}


def build_system(V: Observable, d: int, name: str = "", params: dict = None,
                 singular_distance: Callable = None) -> ConformalSystem:
    """Assemble H, D, K (and the Casimir observable) over a potential.

    Homogeneity of V is *not* checked here; use :func:`check_homogeneity`.
    Analytic gradients propagate from the potential to every generator.
    Each generator is one body over ``(..., d)`` arrays, so its array form
    ``rows`` is its ``fn``: always for D and K, and for H and the Casimir
    when V's own ``fn`` is its array form (``V.rows is V.fn``).
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    vfn = V.fn
    vg = V.grad_fn
    v_broadcasts = V.rows is vfn

    def h_fn(q, p):
        return 0.5 * np.vecdot(p, p) + vfn(q, p)

    h_grad = None
    if vg is not None:
        def h_grad(q, p):
            dVq, _ = vg(q, p)
            return np.asarray(dVq, dtype=float), np.asarray(p, dtype=float)

    def d_fn(q, p):
        return np.vecdot(p, q)

    def d_grad(q, p):
        return np.asarray(p, dtype=float), np.asarray(q, dtype=float)

    def k_fn(q, p):
        return 0.5 * np.vecdot(q, q)

    def k_grad(q, p):
        return np.asarray(q, dtype=float), np.zeros(len(q))

    def i_fn(q, p):
        qq = np.vecdot(q, q)
        pp = np.vecdot(p, p)
        qp = np.vecdot(q, p)
        return 0.5 * (qq * pp - qp * qp) + qq * vfn(q, p)

    i_grad = None
    if vg is not None:
        def i_grad(q, p):
            q = np.asarray(q, dtype=float)
            p = np.asarray(p, dtype=float)
            qq = q @ q
            pp = p @ p
            qp = q @ p
            dVq, _ = vg(q, p)
            v = float(vfn(q, p))
            dq = pp * q - qp * p + 2.0 * v * q + qq * np.asarray(dVq, dtype=float)
            dp = qq * p - qp * q
            return dq, dp

    H = Observable(d, h_fn, grad_fn=h_grad, name=f"H[{name}]" if name else "H",
                   rows=h_fn if v_broadcasts else None)
    Dg = Observable(d, d_fn, grad_fn=d_grad, name="D", rows=d_fn)
    K = Observable(d, k_fn, grad_fn=k_grad, name="K", rows=k_fn)
    I = Observable(d, i_fn, grad_fn=i_grad, name="I",
                   rows=i_fn if v_broadcasts else None)
    return ConformalSystem(d=d, V=V, H=H, D=Dg, K=K, casimir=I, name=name,
                           params=dict(params or {}),
                           singular_distance=singular_distance)


def casimir_I(sys: ConformalSystem, s: PhaseState) -> float:
    """(4HK - D^2)/2 at a state; equals the reduced spherical energy."""
    return 0.5 * (4.0 * sys.H(s) * sys.K(s) - sys.D(s) ** 2)


def sample_states(d: int, n: int, rng: np.random.Generator, box: float = 2.0,
                  singular_distance: Callable = None, exclusion: float = 1e-3,
                  predicate: Callable = None):
    """Reproducible random phase points, resampled away from singular sets.

    Components are uniform in [-box, box]; draws within ``exclusion`` of the
    singular set (or rejected by ``predicate(state)``) are discarded, up to
    ``100 * n`` attempts; then :class:`IncompleteResultError`.
    """
    out = []
    attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > 100 * n:
            raise IncompleteResultError(
                "state sampler exhausted its attempt budget; the "
                "admissible region is too small")
        q = rng.uniform(-box, box, size=d)
        p = rng.uniform(-box, box, size=d)
        if singular_distance is not None and singular_distance(q) < exclusion:
            continue
        s = PhaseState(q, p)
        if predicate is not None and not predicate(s):
            continue
        out.append(s)
    return out


@dataclass
class HomogeneityReport:
    max_residual: float
    samples: int
    tol: float
    seed: int
    passed: bool

    def to_dict(self) -> dict:
        return {
            "max_residual": self.max_residual,
            "samples": self.samples,
            "tol": self.tol,
            "seed": self.seed,
            "pass": self.passed,
        }


def check_homogeneity(V: Observable, d: int, samples: int = 100,
                      tol: float = 1e-9, seed: int = 0,
                      singular_distance: Callable = None) -> HomogeneityReport:
    """Degree minus-two test: max over random q of |q.grad V + 2V| / max(1,|V|).

    Singular draws (non-finite evaluations) are resampled, up to
    ``100 * samples`` attempts; then :class:`IncompleteResultError`.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    accepted = 0
    attempts = 0
    while accepted < samples:
        attempts += 1
        if attempts > 100 * samples:
            raise IncompleteResultError(
                "homogeneity sampler exhausted its attempts")
        q = rng.uniform(-2.0, 2.0, size=d)
        if singular_distance is not None and singular_distance(q) < 1e-3:
            continue
        s = PhaseState(q, np.zeros(d))
        try:
            v = V(s)
            dq, _ = grad(V, s)
        except NonFiniteError:
            continue
        residual = abs(float(np.dot(q, dq)) + 2.0 * v) / max(1.0, abs(v))
        worst = max(worst, residual)
        accepted += 1
    return HomogeneityReport(max_residual=worst, samples=samples, tol=tol,
                             seed=seed, passed=worst < tol)


_RELATIONS = ("{H,D}-2H", "{H,K}-D", "{K,D}+2K")


@dataclass
class AlgebraReport:
    """Per-relation worst residual of the so(1,2) closure over random states."""

    residuals: dict
    samples: int
    tol: float
    seed: int
    passed: bool

    @property
    def relations(self):
        return list(self.residuals)

    def failing(self):
        return [k for k, v in self.residuals.items() if v >= self.tol]

    def to_dict(self) -> dict:
        return {
            "relations": self.relations,
            "residuals": {k: self.residuals[k] for k in self.residuals},
            "samples": self.samples,
            "tol": self.tol,
            "seed": self.seed,
            "pass": self.passed,
        }


def verify_algebra(sys: ConformalSystem, samples: int = 200,
                   tol: float = 1e-8, seed: int = 0) -> AlgebraReport:
    """Numerically close the algebra at seeded random states.

    Residuals are normalized by max(1, |rhs|), so the tolerance is
    scale-free across models. A non-homogeneous potential fails exactly on
    {H,D}-2H while the other two relations still pass; the report keeps the
    relations separate so the failure is localized.
    """
    rng = np.random.default_rng(seed)
    states = sample_states(sys.d, samples, rng,
                           singular_distance=sys.singular_distance)
    worst = dict.fromkeys(_RELATIONS, 0.0)
    for s in states:
        try:
            hd = poisson_bracket(sys.H, sys.D, s)
            hk = poisson_bracket(sys.H, sys.K, s)
            kd = poisson_bracket(sys.K, sys.D, s)
            h = sys.H(s)
            dd = sys.D(s)
            kk = sys.K(s)
        except NonFiniteError as err:
            if err.state is None:
                err.state = s
            raise
        worst["{H,D}-2H"] = max(worst["{H,D}-2H"],
                                abs(hd - 2.0 * h) / max(1.0, abs(2.0 * h)))
        worst["{H,K}-D"] = max(worst["{H,K}-D"],
                               abs(hk - dd) / max(1.0, abs(dd)))
        worst["{K,D}+2K"] = max(worst["{K,D}+2K"],
                                abs(kd + 2.0 * kk) / max(1.0, abs(2.0 * kk)))
    passed = all(v < tol for v in worst.values())
    return AlgebraReport(residuals=worst, samples=samples, tol=tol, seed=seed,
                         passed=passed)
