"""The half-plane (Klein/Lobachevsky) picture of the radial dynamics, the
decoupling inversion w -> -1/w, and its (non-)canonicity analysis.

For I > 0 the radial pair is packed into one complex coordinate on the
upper half-plane,

    w = p_r / r + i sqrt(2 I) / r^2  =  (D + i sqrt(2 I)) / (2 K),

on which H, D, K become the Killing potentials of the hyperbolic (Klein)
metric; the inversion w -> -1/w swaps H and K and flips D. For I < 0 the
same construction survives with sqrt(-2 I) in place of i sqrt(2 I); w and
wbar are then two independent *real* coordinates and the Kahler reading is
lost. I = 0 is excluded: both branches degenerate.

Sign and factor conventions (worked out from w, I, and the {p, x} = +1
bracket; each is verified numerically in the test suite):

* transport under inversion: H -> K, K -> +H, D -> -D. (Statements of a
  K -> -H rule appear in the literature; direct substitution into the
  Killing forms gives +H, which is what this module computes and asserts.)
* mixed brackets: {u^a, w} = (w - wbar) V^a / (4 I) with V^a = {u^a, I};
  the frequently quoted prefactor 1/(2 I) is exactly 2x too large, and
  {u^a, wbar} = -{u^a, w} (not equal to it). Both the self-consistent and
  the quoted values are reported side by side.
* the hyperbolic metric -g dw dwbar/(wbar-w)^2 and the Hessian of the
  potential g log i(wbar - w) agree in magnitude and differ by an overall
  sign; magnitude equality is what is asserted.

The radial-only change of variables p~ = sqrt(2H), r~ = D / sqrt(2H)
(forced by the contract w~ = -1/w; the sign of r~ rides on D) is canonical
in d = 1 and provably not canonical in d > 1, where the new coordinates
acquire nonzero brackets with the angular ones through I(u).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass
from typing import Union

import numpy as np

from . import dual
from .conformal import ConformalSystem, _casimir, _seeded_rows
from .errors import (
    NonFiniteError,
    NonPositiveEnergyError,
    ZeroAngularEnergyError,
    ZeroWError,
)
from .models import ModelSpec, build
from .phase import Observable, PhaseState, brackets
from .reduction import (
    ReducedState,
    SphericalSystem,
    _chart_components,
    from_hyperspherical,
    hyperspherical_rows,
    spherical_system_from,
    to_hyperspherical,
)

POSITIVE_I = "positive_I"
NEGATIVE_I = "negative_I"

# convention notes surfaced in every report (see module docstring)
SIGN_NOTES = (
    "inversion transport computed from the Killing forms: H->K, K->+H, "
    "D->-D (the -H variant quoted in places does not match direct "
    "substitution)",
    "mixed bracket prefactor is 1/(4I), not the often-quoted 1/(2I); "
    "{u,wbar} = -{u,w}",
    "hyperbolic metric coefficient and Kahler-potential Hessian agree in "
    "magnitude and differ by an overall sign",
)


@dataclass(frozen=True)
class KleinPoint:
    """Half-plane image of a radial state: w, wbar, and sqrt(2|I|).

    ``w`` and ``wbar`` are complex conjugates on the positive-I branch
    (Im w > 0) and two independent reals on the negative-I branch.
    """

    branch: str
    w: complex
    wbar: complex
    sqrt2I: float

    def __post_init__(self):
        if self.branch not in (POSITIVE_I, NEGATIVE_I):
            raise ValueError(f"unknown branch {self.branch!r}")
        if not all(map(cmath.isfinite, (self.w, self.wbar, self.sqrt2I))):
            raise NonFiniteError(f"half-plane point {self!r} is not finite")
        if self.sqrt2I <= 0:
            raise ValueError("sqrt2I must be positive")
        if self.branch == POSITIVE_I and self.w.imag <= 0:
            raise ValueError("positive-I points live in the upper half-plane")

    @property
    def sigma(self) -> complex:
        """i sqrt(2I) on the positive branch, sqrt(-2I) on the negative."""
        return 1j * self.sqrt2I if self.branch == POSITIVE_I else self.sqrt2I

    @property
    def I(self) -> float:
        h = 0.5 * self.sqrt2I ** 2
        return h if self.branch == POSITIVE_I else -h


def _radial_pair(source) -> tuple:
    """(r, p_r, r**2) of a source, with r > 0 and 0 < r**2 < inf."""
    if isinstance(source, ReducedState):
        r, p_r = source.r, source.p_r
    elif isinstance(source, PhaseState):
        if source.d != 1:
            raise ValueError("pass a ReducedState for d > 1")
        rs = to_hyperspherical(source)
        r, p_r = rs.r, rs.p_r
    else:
        r, p_r = map(float, source)
    if r <= 0:
        raise ValueError("r must be positive")
    try:
        r2 = r ** 2
    except OverflowError:
        r2 = math.inf
    if not 0.0 < r2 < math.inf:  # every map divides by r**2
        raise NonFiniteError(f"r**2 is not finite and nonzero at r = {r!r}")
    return r, p_r, r2


def to_klein(source: Union[ReducedState, PhaseState, tuple],
             I: float) -> KleinPoint:
    """Map (r, p_r) and the angular invariant I to the half-plane.

    Accepts a ReducedState, a 1D PhaseState (x > 0), or a bare (r, p_r)
    pair. I = 0 is rejected: w degenerates to a real ray and every formula
    divides by sqrt(2I).
    """
    r, p_r, r2 = _radial_pair(source)
    if I == 0.0:
        raise ZeroAngularEnergyError(
            "the half-plane coordinate is undefined at I = 0")
    a = p_r / r
    if I > 0.0:
        s = math.sqrt(2.0 * I)
        return KleinPoint(POSITIVE_I, complex(a, s / r2),
                          complex(a, -s / r2), s)
    s = math.sqrt(-2.0 * I)
    return KleinPoint(NEGATIVE_I, a + s / r2, a - s / r2, s)


def killing_forms(kp: KleinPoint) -> tuple:
    """(H, D, K) evaluated from the half-plane coordinate alone:

        H = sigma w wbar / (w - wbar),   D = sigma (w + wbar) / (w - wbar),
        K = sigma / (w - wbar),

    real on both branches, and equal to the direct p_r^2/2 + I/r^2, p_r r,
    r^2/2 of the source state; a form that overflows raises
    :class:`NonFiniteError`.
    """
    diff = kp.w - kp.wbar
    if diff == 0:
        raise ZeroWError("w = wbar: the forms are singular")
    h = kp.sigma * kp.w * kp.wbar / diff
    dd = kp.sigma * (kp.w + kp.wbar) / diff
    k = kp.sigma / diff
    forms = tuple(float(z.real) for z in (h, dd, k))
    if not all(map(math.isfinite, forms)):
        raise NonFiniteError(f"Killing forms {forms!r} at w = {kp.w!r}")
    return forms


def invert(kp: KleinPoint) -> KleinPoint:
    """The decoupling transformation w -> -1/w (and wbar -> -1/wbar).

    Preserves the upper half-plane and sqrt(2|I|); exchanges the H and K
    forms and flips D. An image that overflows, or that underflows onto
    the real axis, raises :class:`NonFiniteError`.
    """
    if kp.w == 0 or kp.wbar == 0:
        raise ZeroWError("inversion is undefined at w = 0")
    w = -1.0 / kp.w
    if kp.branch == POSITIVE_I and w.imag == 0:
        raise NonFiniteError(f"-1/w underflows to the real axis: {kp.w!r}")
    return KleinPoint(kp.branch, w, -1.0 / kp.wbar, kp.sqrt2I)


def tilde_map(rs: Union[ReducedState, PhaseState, tuple], I: float) -> tuple:
    """Transformed radial pair: p~ = +sqrt(2H), r~ = D / sqrt(2H).

    Deterministic branch choice: p~ is the positive root and r~ carries the
    sign of D. Consistency contract (verified in the tests): the point
    w~ = -r~/p~ + i sqrt(2I)/p~^2 equals invert(to_klein(rs, I)). A
    sqrt(2H) that overflows raises :class:`NonFiniteError`.
    """
    r, p_r, r2 = _radial_pair(rs)
    try:
        h = 0.5 * p_r ** 2 + I / r2
    except OverflowError:  # p_r ** 2
        h = math.inf
    if h <= 0:
        raise NonPositiveEnergyError(
            f"tilde map needs H > 0, got H = {h:.6g}")
    p_tilde = math.sqrt(2.0 * h)
    if not p_tilde < math.inf:
        raise NonFiniteError(f"sqrt(2H) is not finite at r = {r!r}")
    return p_tilde, (p_r * r) / p_tilde


# ---------------------------------------------------------------------------
# Observables on the full Cartesian phase space (for numeric brackets)
# ---------------------------------------------------------------------------

def halfplane_observable(sphere: SphericalSystem) -> Observable:
    """The half-plane coordinate as one dual-differentiable Cartesian
    observable: (Re w, s, I) with Re w = p.q / q.q, s = sqrt(|2I|) / q.q,
    I = (q.q p.p - (q.p)^2)/2 + U(angles), so w = Re w + sigma^ s with
    sigma^ = i for I > 0 and 1 for I < 0 (the sign of I picks the branch);
    for d > 1 the chart components (r, p_r, phi..., pi...) of one
    :func:`~confmech.reduction.hyperspherical_rows` call follow, which
    also gives I its angles (d = 1 has no chart, so x < 0 is in its domain)."""
    d = sphere.d

    def fn(q, p):
        if d == 1:
            chart, phi = [], np.zeros(0)
        else:
            rows = hyperspherical_rows(q, p)
            chart, phi = _chart_components(*rows), rows[2]
        qq = np.vecdot(q, q)
        pp = np.vecdot(p, p)
        qp = np.vecdot(q, p)
        i = 0.5 * (qq * pp - qp * qp) + sphere.U(phi)
        return dual.stack([qp / qq,
                           dual.sqrt(abs(2.0 * i)) / qq, i, *chart])

    return Observable(d, fn, name="half-plane", vectorized=True)


def _ww(b: float, branch: str) -> complex:
    """{w, wbar} = -2 sigma^ {Re w, s} from b = {Re w, s}."""
    return -2j * b if branch == POSITIVE_I else complex(-2.0 * b)


def _state_branch(sphere: SphericalSystem, s: PhaseState) -> str:
    """The branch the sign of I picks at a state, checked before any
    differentiation; I = 0 raises, as in :func:`to_klein`."""
    i_val = halfplane_observable(sphere).fn(s.q, s.p)[2]
    if i_val == 0.0:
        raise ZeroAngularEnergyError(
            "the half-plane coordinate is undefined at I = 0")
    return POSITIVE_I if i_val > 0.0 else NEGATIVE_I


def bracket_ww(sphere: SphericalSystem, s: PhaseState) -> complex:
    """Numeric {w, wbar} at a Cartesian state (chain rule through the
    half-plane map via the dual engine), on the branch the sign of I
    picks there; :class:`ZeroAngularEnergyError` at I = 0."""
    branch = _state_branch(sphere, s)
    return _ww(float(brackets([halfplane_observable(sphere)], s)[0, 1]),
               branch)


def formula_ww(kp: KleinPoint) -> complex:
    """{w, wbar} = -(sigma / 2I) (w - wbar)^2, the closed half-plane form
    (reduces to -(i/sqrt(2I))(w-wbar)^2 on the positive branch)."""
    return -(kp.sigma / (2.0 * kp.I)) * (kp.w - kp.wbar) ** 2


@dataclass
class MixedBracketRow:
    """One angular coordinate's bracket with w, three ways."""

    name: str
    eom: float                 # V^a = {u^a, I}
    numeric: complex           # engine value of {u^a, w}
    consistent: complex        # (w - wbar) V^a / (4 I)
    displayed: complex         # (w - wbar) V^a / (2 I), kept for comparison


@dataclass
class BracketTable:
    """Closed-form vs numeric brackets of the half-plane coordinate."""

    branch: str
    ww_numeric: complex
    ww_formula: complex
    mixed: list


def expected_brackets(kp: KleinPoint, sphere: SphericalSystem,
                      rs: ReducedState) -> BracketTable:
    """Evaluate {w, wbar} and every {u^a, w} both from the closed formulas
    and from the numeric engine on the full Cartesian space.

    The table reports the self-consistent mixed prefactor 1/(4I) alongside
    the commonly displayed 1/(2I) (exactly twice it); the numeric column
    settles which one the canonical structure actually produces. Every
    engine value comes from the :func:`brackets` table of
    :func:`halfplane_observable`, on ``kp``'s branch:
    {w, wbar} = -2 sigma^ {Re w, s} and {u, w} = {u, Re w} + sigma^ {u, s}.
    d = 1 has no angular coordinates and no mixed rows.
    """
    d = sphere.d
    B = brackets([halfplane_observable(sphere)],
                 from_hyperspherical(rs)).tolist()
    diff = kp.w - kp.wbar
    mixed = []
    # the chart's phi_a is row 5 + a of the table, its pi_a row 4 + d + a
    for name, j in [(f"{u}_{a}", 5 + k * (d - 1) + a) for a in range(d - 1)
                    for k, u in enumerate(("phi", "pi"))]:
        v_a = B[j][2]
        num = (complex(B[j][0], B[j][1]) if kp.branch == POSITIVE_I
               else complex(B[j][0] + B[j][1]))
        mixed.append(MixedBracketRow(name, v_a, num, diff * v_a / (4.0 * kp.I),
                                     diff * v_a / (2.0 * kp.I)))
    return BracketTable(branch=kp.branch, ww_numeric=_ww(B[0][1], kp.branch),
                        ww_formula=formula_ww(kp), mixed=mixed)


# ---------------------------------------------------------------------------
# Canonicity of the tilde map
# ---------------------------------------------------------------------------

def tilde_observable(sys: ConformalSystem) -> Observable:
    """(p~, r~) as one observable on the original Cartesian phase space,
    with H evaluated once."""
    def fn(q, p):
        pt = dual.sqrt(2.0 * sys.H.fn(q, p))
        return dual.stack([pt, sys.D.fn(q, p) / pt])

    return Observable(sys.d, fn, name="(p~, r~)", vectorized=True)


@dataclass
class CanonicityReport:
    """Numeric brackets of the transformed coordinates under the original
    canonical structure, and the resulting verdict."""

    dimension: int
    brackets: dict
    samples: int
    tol: float
    seed: int
    verdict: str

    def to_dict(self) -> dict:
        return {**asdict(self), "sign_notes": list(SIGN_NOTES)}


def _ww_residual_rows(b, r, i_val):
    """|_ww(b) - formula_ww(to_klein((r, p_r), I))| per row, I > 0, with
    the bits of the complex arithmetic: Re w - Re wbar is exactly 0, so
    only Im(w - wbar) = s/r^2 + s/r^2 = y enters, and the residual is
    |-2b - (s / (2 I)) y^2| with s = sqrt(2I) and I = 0.5 s^2, as
    :class:`KleinPoint` rounds it (float_power squares as float ** does)."""
    s = np.sqrt(2.0 * i_val)
    y = s / np.float_power(r, 2)
    y = y + y
    i_klein = 0.5 * np.float_power(s, 2)
    return np.abs(-2.0 * b - s / (2.0 * i_klein) * (y * y))


def canonicity_report(model: Union[ModelSpec, ConformalSystem],
                      samples: int = 100, tol: float = 1e-8,
                      seed: int = 0) -> CanonicityReport:
    """Decide numerically whether the tilde map is canonical.

    The pair bracket {p~, r~} equals 1 in every dimension (it only uses
    {H, D} = 2H). In d = 1 that is the whole story and the verdict is
    canonical. In d > 1 the transformed radial coordinates fail to commute
    with the angular chart: residuals like {r~, phi} sit at O(1), far above
    any bracket tolerance.

    The verdict is "canonical" exactly when the largest residual of
    {p~, r~} - 1 and of every mixed bracket {r~ or p~, phi_a or pi_a} over
    the sampled states is below ``tol`` (a NaN residual fails); the
    {w, wbar} check is reported but does not enter the verdict.

    The admissibility screen, the bracket tables and the residuals each
    run once over all sampled rows, and every number in the report is the
    one a state-by-state evaluation gives, for a potential written for one
    point as for a catalog potential.
    """
    sys = build(model) if isinstance(model, ModelSpec) else model
    d = sys.d

    def h_and_i(Q, P):
        h = sys.H.fn(Q, P)
        return h, _casimir(h, sys.K.fn(Q, P), sys.D.fn(Q, P))

    def admissible(Q, P):
        # H > 1e-2, I > 1e-2, and x > 1e-2 (d = 1) or the chart's 1e-3
        # pole margin (d > 1); sample_states rejects a row that raises
        h, i_val = h_and_i(Q, P)
        ok = np.isfinite(h) & (h > 1e-2) & (i_val > 1e-2)
        if d == 1:
            return ok & (Q[:, 0] > 1e-2)
        hyperspherical_rows(Q, P, delta=1e-3)
        return ok

    Q, P = _seeded_rows(d, samples, tol, seed, sys.singular_distance,
                        admissible)

    # every state's bracket table over (p~, r~) and the half-plane
    # observable (Re w, s, I, r, p_r, phi_0, ..., pi_0, ...)
    B = brackets([tilde_observable(sys),
                  halfplane_observable(spherical_system_from(sys.V, d))],
                 Q, P)
    # (table name, tilde row, chart column) of each mixed bracket
    mixed = [(f"{{{t}~,{u}_{a}}}", "pr".index(t), 7 + k * (d - 1) + a)
             for a in range(d - 1) for t in "rp"
             for k, u in enumerate(("phi", "pi"))]
    columns = {"{p~,r~}-1": np.abs(B[:, 0, 1] - 1.0),
               **{name: np.abs(B[:, j, k]) for name, j, k in mixed},
               # r as hyperspherical_rows takes it
               "{w,wbar}-formula": _ww_residual_rows(
                   B[:, 2, 3], np.sqrt(np.vecdot(Q, Q)), h_and_i(Q, P)[1])}
    table = {name: {"max_residual": float(v.max()),
                    "exceed_count": int(np.sum(v > tol))}
             for name, v in columns.items()}

    canonical = all(entry["max_residual"] < tol
                    for name, entry in table.items()
                    if name != "{w,wbar}-formula")
    return CanonicityReport(
        dimension=d, brackets=table, samples=samples, tol=tol, seed=seed,
        verdict="canonical" if canonical else "non-canonical")


# ---------------------------------------------------------------------------
# Symplectic form in half-plane coordinates
# ---------------------------------------------------------------------------

def bracket_matrix(sphere: SphericalSystem, s: PhaseState) -> np.ndarray:
    """Antisymmetric matrix {xi_j, xi_k} of the half-plane coordinates
    xi = (Re w, Im w, phi^a..., pi_a...): the rows and columns of the
    :func:`halfplane_observable` table without I, r and p_r (d = 1 has no
    chart, so its 2 x 2 table takes x < 0 as well as x > 0). The
    positive-I inverse of :func:`assemble_omega`, so I <= 0 raises
    :class:`ZeroAngularEnergyError` before any differentiation."""
    if _state_branch(sphere, s) != POSITIVE_I:
        raise ZeroAngularEnergyError("the Kahler block needs I > 0")
    xi = [0, 1, *range(5, 2 * sphere.d + 3)]
    return brackets([halfplane_observable(sphere)], s)[np.ix_(xi, xi)]


def assemble_omega(rs: Union[ReducedState, PhaseState, tuple],
                   sphere: SphericalSystem, I: float) -> np.ndarray:
    """Matrix of the symplectic 2-form in coordinates
    (Re w, Im w, phi^a, pi_a), positive-I branch.

    The radial block is the hyperbolic (Kahler) 2-form
    sqrt(2I)/(2 Im^2) dRe ^ dIm; the angular invariant couples the blocks
    through d sqrt(2I) = (dI/du^a) du^a / sqrt(2I); the angular block is
    the canonical dphi ^ dpi (gauge A0 = pi dphi). Oriented so that the
    matrix is the exact inverse of :func:`bracket_matrix`:
    assemble_omega @ bracket_matrix = +Id. A Kahler coefficient that
    overflows or underflows to 0 raises :class:`NonFiniteError`.
    """
    if I <= 0:
        raise ZeroAngularEnergyError("the Kahler block needs I > 0")
    _, _, r2 = _radial_pair(rs)
    d = sphere.d
    g = math.sqrt(2.0 * I)
    im_w = g / r2
    m = 2 * d
    omega = np.zeros((m, m))
    try:
        omega[0, 1] = g / (2.0 * im_w ** 2)
    except OverflowError:  # im_w ** 2: the coefficient underflows, as 0
        pass
    if not 0.0 < omega[0, 1] < math.inf:
        raise NonFiniteError(f"the Kahler coefficient is {omega[0, 1]:g}")
    if d > 1:
        if not isinstance(rs, ReducedState):
            raise ValueError("pass a ReducedState in d > 1")
        _, (dI_dphi, dI_dpi) = dual.gradient(
            lambda f, c: sphere.energy(f, c), rs.phi, rs.pi)
        dg_du = np.concatenate([dI_dphi, dI_dpi]) / g
        for a in range(2 * (d - 1)):
            omega[0, 2 + a] = -dg_du[a] / (2.0 * im_w)
        for a in range(d - 1):
            omega[2 + a, 2 + (d - 1) + a] = 1.0
    return omega - omega.T
