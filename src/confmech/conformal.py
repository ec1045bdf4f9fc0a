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

from collections.abc import Sequence
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfmechError, IncompleteResultError
from .phase import Observable, PhaseState, brackets, grad


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
    singular_distance: Optional[Callable] = None

    def monitors(self) -> dict:
        return {"H": self.H, "D": self.D, "K": self.K, "I": self.casimir}


def build_system(V: Observable, d: int, name: str = "",
                 singular_distance: Callable = None) -> ConformalSystem:
    """Assemble H, D, K (and the Casimir observable) over a potential.

    Homogeneity of V is *not* checked here; use :func:`check_homogeneity`.
    Analytic gradients propagate from the potential to every generator.
    Each generator and its gradient are one body over ``(..., d)`` arrays
    (``vectorized``); V's ``fn`` and ``grad_fn`` take rows as every
    observable's do, lifted by :class:`~confmech.phase.Observable` when V
    is written for one point.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    vfn = V.fn
    vg = V.grad_fn

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
        return np.asarray(q, dtype=float), np.zeros(np.shape(q))

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
            if q.ndim == 1:
                # the rows body's operations in its order, on Python
                # floats: each ufunc call there costs a microsecond of
                # dispatch per right-hand side of the angular flow.
                # np.vecdot adds its dot product to +0.0, where ndarray.dot
                # keeps a -0.0 (at d = 1), hence the + 0.0
                qq = float(q.dot(q))
                pp = float(p.dot(p))
                qp = float(q.dot(p)) + 0.0
                dVq, _ = vg(q, p)
                v2 = 2.0 * float(vfn(q, p))
                qs, ps = q.tolist(), p.tolist()
                dq = [pp * a - qp * b + v2 * a + qq * g for a, b, g
                      in zip(qs, ps, np.asarray(dVq, dtype=float).tolist())]
                dp = [qq * b - qp * a for a, b in zip(qs, ps)]
                return np.array(dq), np.array(dp)
            qq = np.vecdot(q, q)
            pp = np.vecdot(p, p)
            qp = np.vecdot(q, p)
            dVq, _ = vg(q, p)
            v = vfn(q, p)
            # rows scale along the last axis: work on the transposes
            q, p, dVq = q.T, p.T, np.asarray(dVq, dtype=float).T
            dq = pp * q - qp * p + 2.0 * v * q + qq * dVq
            dp = qq * p - qp * q
            return dq.T, dp.T

    H = Observable(d, h_fn, grad_fn=h_grad, name=f"H[{name}]" if name else "H",
                   vectorized=True)
    Dg = Observable(d, d_fn, grad_fn=d_grad, name="D", vectorized=True)
    K = Observable(d, k_fn, grad_fn=k_grad, name="K", vectorized=True)
    I = Observable(d, i_fn, grad_fn=i_grad, name="I", vectorized=True)
    return ConformalSystem(d=d, V=V, H=H, D=Dg, K=K, casimir=I, name=name,
                           singular_distance=singular_distance)


def casimir_I(sys: ConformalSystem, s: PhaseState) -> float:
    """(4HK - D^2)/2 at a state; equals the reduced spherical energy."""
    return float(_casimir(sys.H(s), sys.K(s), sys.D(s)))


def _casimir(h, k, dd):
    """(4hk - dd^2)/2 of floats, or of arrays entry by entry with the same
    bits (float_power squares as Python's float ** does; numpy's ** does
    not)."""
    return 0.5 * (4.0 * h * k - np.float_power(dd, 2))


class StateRows(Sequence):
    """The states :func:`sample_states` accepted, held as read-only
    ``(n, d)`` rows of q (``Q``) and p (``P``).

    It reads as a sequence of :class:`~confmech.phase.PhaseState` (``len``,
    iteration, int and negative indexing; a slice is a ``StateRows`` over
    the same rows), each built and validated when it is read, its q and p
    read-only views of a row of ``Q`` and ``P``; a report takes ``Q`` and
    ``P`` and builds none.
    """

    __slots__ = ("Q", "P")

    def __init__(self, Q: np.ndarray, P: np.ndarray):
        Q.flags.writeable = P.flags.writeable = False
        self.Q = Q
        self.P = P

    def __len__(self):
        return len(self.Q)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return StateRows(self.Q[i], self.P[i])
        return PhaseState(self.Q[i], self.P[i])

    def __iter__(self):
        return map(PhaseState, self.Q, self.P)


def sample_states(d: int, n: int, rng: np.random.Generator,
                  singular_distance: Callable = None,
                  predicate: Callable = None) -> StateRows:
    """Reproducible random phase points, resampled away from singular sets.

    Components are uniform in [-2, 2]; draws within 1e-3 of the singular
    set or rejected by ``predicate(Q, P)`` (a bool per row of ``(k, d)``
    arrays of q and p) are discarded, up to ``100 * n`` attempts; then
    :class:`IncompleteResultError`. A wider margin from the singular set is
    a predicate's test. A predicate that raises a :class:`ConfmechError`
    on a batch is asked again row by row (as ``(1, d)`` arrays), and a row
    that raises is rejected; any other exception propagates. This is the
    one rejection sampler behind every seeded report.

    Candidates are drawn ``n - accepted`` at a time as one ``(k, 2, d)``
    array of q and p rows, which takes the generator's stream exactly as
    drawing q and then p for each attempt would, so the states, their order
    and the attempt count do not depend on the chunking. A distance that
    carries a rows form ``singular_distance.rows(Q)`` (one value per row,
    each bit for bit its one-point call, as every catalog distance has)
    screens a chunk in one call of it on the ``(k, d)`` q rows; any other
    distance is called once per row, as a one-point function.

    Returns the accepted draws as a :class:`StateRows` of ``n`` states,
    each chunk's rows written once into the ``(n, d)`` arrays behind it.
    A dimension ``d < 1`` or a count ``n < 0`` is a ValueError.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if d < 1:
        raise ValueError("d must be >= 1")
    distance_rows = getattr(singular_distance, "rows", None)

    def admits(Q, P):
        try:
            return predicate(Q, P)
        except ConfmechError:
            if len(Q) == 1:
                return np.zeros(1, dtype=bool)
            return np.concatenate([admits(Q[i:i + 1], P[i:i + 1])
                                   for i in range(len(Q))])

    Q = np.empty((n, d))
    P = np.empty((n, d))
    got = attempts = 0
    while got < n:
        k = min(n - got, 100 * n - attempts)
        if k <= 0:
            raise IncompleteResultError(
                "state sampler exhausted its attempt budget; the "
                "admissible region is too small")
        attempts += k
        X = rng.uniform(-2.0, 2.0, size=(k, 2, d))
        if singular_distance is not None:
            dist = (distance_rows(X[:, 0]) if distance_rows is not None else
                    np.fromiter(map(singular_distance, X[:, 0]), float, k))
            # a NaN distance fails the comparison and keeps its row
            X = X[~(dist < 1e-3)]
        if predicate is not None and len(X):
            X = X[admits(X[:, 0], X[:, 1])]
        Q[got:got + len(X)] = X[:, 0]
        P[got:got + len(X)] = X[:, 1]
        got += len(X)
    return StateRows(Q, P)


def _seeded_rows(d: int, samples: int, tol: float, seed: int,
                 singular_distance: Optional[Callable],
                 predicate: Callable = None):
    """The ``(samples, d)`` rows of q and of p that a seeded report checks:
    the ``Q`` and ``P`` of one :func:`sample_states` call on
    ``default_rng(seed)`` (read-only, and no state is built), after the
    checks every report makes of its sample count and tolerance."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 0.0 < tol < np.inf:  # NaN fails both comparisons
        raise ValueError("tol must be a positive finite number")
    states = sample_states(d, samples, np.random.default_rng(seed),
                           singular_distance=singular_distance,
                           predicate=predicate)
    return states.Q, states.P


@dataclass
class HomogeneityReport:
    max_residual: float
    samples: int
    tol: float
    seed: int
    passed: bool

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["pass"] = doc.pop("passed")
        return doc


def check_homogeneity(V: Observable, d: int, samples: int = 100,
                      tol: float = 1e-9, seed: int = 0,
                      singular_distance: Callable = None) -> HomogeneityReport:
    """Degree minus-two test: max over random q of |q.grad V + 2V| / max(1,|V|).

    The q rows are those of :func:`sample_states` on ``default_rng(seed)``
    (its p rows go unused: V and its gradient are taken at p = 0). A draw
    where V or its gradient is not finite is rejected and redrawn, up to
    ``100 * samples`` attempts; then :class:`IncompleteResultError`. V and
    its gradient are then evaluated once over all the rows.
    """
    def finite(Q, P):
        grad(V, Q, np.zeros_like(Q))  # raises on a non-finite row
        return np.ones(len(Q), dtype=bool)

    Q, _ = _seeded_rows(d, samples, tol, seed, singular_distance, finite)
    P = np.zeros_like(Q)
    v = V.fn(Q, P)
    dq, _ = grad(V, Q, P)
    worst = float(np.max(np.abs(np.vecdot(Q, dq) + 2.0 * v)
                         / np.maximum(1.0, np.abs(v))))
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

    def to_dict(self) -> dict:
        doc = {"relations": self.relations, **asdict(self)}
        doc["pass"] = doc.pop("passed")
        return doc


def verify_algebra(sys: ConformalSystem, samples: int = 200,
                   tol: float = 1e-8, seed: int = 0) -> AlgebraReport:
    """Numerically close the algebra at seeded random states.

    Residuals are normalized by max(1, |rhs|), so the tolerance is
    scale-free across models. A non-homogeneous potential fails exactly on
    {H,D}-2H while the other two relations still pass; the report keeps the
    relations separate so the failure is localized.

    All sampled states go through one rows-form :func:`brackets` table.
    """
    Q, P = _seeded_rows(sys.d, samples, tol, seed, sys.singular_distance)
    gens = (sys.H, sys.D, sys.K)
    B = brackets(gens, Q, P)
    h, dd, kk = (A.fn(Q, P) for A in gens)
    # (relation, bracket, right-hand side) with {H,D}, {H,K}, {K,D}
    worst = {name: float(np.max(np.abs(lhs - rhs)
                                / np.maximum(1.0, np.abs(rhs))))
             for name, lhs, rhs in zip(
                 _RELATIONS, (B[:, 0, 1], B[:, 0, 2], B[:, 2, 1]),
                 (2.0 * h, dd, -2.0 * kk))}
    passed = all(v < tol for v in worst.values())
    return AlgebraReport(residuals=worst, samples=samples, tol=tol, seed=seed,
                         passed=passed)
