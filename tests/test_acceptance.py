"""Acceptance suite: the ten verification criteria, one test (and one
printed pass line) per criterion. Run with ``pytest tests/test_acceptance.py
-s`` to see the lines; the whole suite targets well under a minute.

Every tolerance here is pinned; nothing is deferred to calibration. Where a
commonly displayed closed form carries a transcription slip (the mixed
half-plane bracket prefactor), the suite asserts the self-consistent
identity *and* pins the discrepancy factor, so the slip itself is a tested
fact rather than a silent deviation; see the module docs.
"""

import math
import time

import numpy as np
import numpy.testing as npt
import pytest

from confmech import models
from confmech.conformal import casimir_I, verify_algebra
from confmech.errors import StepUnderflowError
from confmech.lobachevsky import (
    assemble_omega,
    bracket_matrix,
    bracket_ww,
    canonicity_report,
    expected_brackets,
    formula_ww,
    invert,
    killing_forms,
    tilde_map,
    tilde_observable,
    to_klein,
)
from confmech.phase import (
    PhaseState,
    brackets,
    integrate_adaptive,
    integrate_verlet,
)
from confmech.radial import RadialData, fall_time, radial_squared, reconstruct
from confmech.reduction import (
    ReducedState,
    angular_potential,
    spherical_energy,
    spherical_system_from,
    to_hyperspherical,
)

from conftest import (
    chart_interior,
    chart_observable,
    max_mixed_residual,
    model_states,
    ww_residual,
)


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_c01_algebra_closure(catalog_systems):
    """so(1,2) residuals < 1e-8 over 200 seeded states per model, < 5 s."""
    t0 = time.time()
    worst = 0.0
    for ms, sys_ in catalog_systems:
        rep = verify_algebra(sys_, samples=200, tol=1e-8, seed=0)
        assert rep.passed, (ms.label, rep.residuals)
        worst = max(worst, max(rep.residuals.values()))
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report("1 algebra closure",
            f"max residual {worst:.2e} over 8 models, {elapsed:.2f}s")


def test_c02_casimir_identity(catalog_systems):
    """(4HK - D^2)/2 equals the reduced spherical energy to 1e-10."""
    worst = 0.0
    for ms, sys_ in catalog_systems:
        sphere = spherical_system_from(sys_.V, sys_.d)
        pred = chart_interior if sys_.d > 1 else None
        for s in model_states(sys_, 100, seed=101, predicate=pred):
            rs = to_hyperspherical(s)
            i_c = casimir_I(sys_, s)
            i_s = spherical_energy(sphere, rs.phi, rs.pi)
            err = abs(i_c - i_s) / max(1.0, abs(i_c))
            worst = max(worst, err)
            assert err < 1e-10, ms.label
    _report("2 Casimir identity", f"max deviation {worst:.2e}, 100 "
            "states x 8 models")


def test_c03_conservation(catalog_systems):
    """Verlet (dt=1e-3, t_end=10): relative drift of H and I < 1e-6."""
    worst_h = worst_i = 0.0
    for ms, sys_ in catalog_systems:
        traj = integrate_verlet(sys_, models.reference_state(ms), 1e-3, 10.0)
        H = traj.monitors["H"]
        I = traj.monitors["I"]
        dh = np.max(np.abs(H - H[0])) / max(1e-12, abs(H[0]))
        di = np.max(np.abs(I - I[0])) / max(1.0, abs(I[0]))
        assert dh < 1e-6, ms.label
        assert di < 1e-6, ms.label
        worst_h = max(worst_h, dh)
        worst_i = max(worst_i, di)
    _report("3 conservation",
            f"worst H drift {worst_h:.2e}, worst I drift {worst_i:.2e}")


def _radial_trajectory(rd, t_eval, rtol=1e-10):
    sys_ = models.build(models.spec("inverse-square", d=1, kappa=rd.I0))
    r0 = math.sqrt(rd.r0sq)
    s0 = PhaseState([r0], [rd.D0 / r0])
    return integrate_adaptive(sys_.H, s0, rtol, float(t_eval[-1]),
                              t_eval=t_eval)


def test_c04_radial_closed_form():
    """r^2(t) closed form vs integration (rel 1e-6 on [0,5], 50 cases);
    fall time vs integrator blow-up (1e-4, 20 collapsing cases)."""
    rng = np.random.default_rng(104)
    worst = 0.0
    grid = np.linspace(0.0, 5.0, 26)
    done = 0
    while done < 50:
        rd = RadialData(E=rng.uniform(0.2, 2.0), D0=rng.uniform(-1.0, 1.0),
                        r0sq=rng.uniform(0.5, 4.0))
        if rd.I0 < 0.05:
            continue
        traj = _radial_trajectory(rd, grid)
        r2_num = traj.qs[:, 0] ** 2
        r2_exact = radial_squared(rd, traj.times)
        err = np.max(np.abs(r2_num - r2_exact) / np.abs(r2_exact))
        worst = max(worst, err)
        assert err < 1e-6
        done += 1

    worst_fall = 0.0
    for _ in range(20):
        e = rng.uniform(0.5, 1.5)
        r0sq = rng.uniform(0.5, 2.0)
        i0 = rng.uniform(-2.0, -0.2)
        d0 = -math.sqrt(2.0 * e * r0sq - 2.0 * i0)
        rd = RadialData(E=e, D0=d0, r0sq=r0sq)
        t_star = fall_time(rd)
        sys_ = models.build(models.spec("inverse-square", d=1, kappa=rd.I0))
        s0 = PhaseState([math.sqrt(r0sq)], [d0 / math.sqrt(r0sq)])
        with pytest.raises(StepUnderflowError) as err_info:
            integrate_adaptive(sys_.H, s0, 1e-10, 2.0 * t_star,
                               t_eval=[2.0 * t_star],
                               singular_distance=sys_.singular_distance)
        gap = abs(err_info.value.t_reached - t_star)
        worst_fall = max(worst_fall, gap)
        assert gap < 1e-4
    _report("4 radial closed form",
            f"max r^2 error {worst:.2e} (50 cases), max fall-time gap "
            f"{worst_fall:.2e} (20 collapses)")


def test_c05_reconstruction(catalog_systems):
    """reconstruct matches direct integration to rel 1e-5 at t=1,
    100 states across the catalog."""
    per_model = 13  # 13 x 8 models = 104 states
    worst = 0.0
    total = 0
    for ms, sys_ in catalog_systems:
        rng = np.random.default_rng(105)
        accepted = 0
        attempts = 0
        while accepted < per_model:
            attempts += 1
            assert attempts < 500 * per_model, ms.label
            q = rng.uniform(-2.0, 2.0, sys_.d)
            p = rng.uniform(-2.0, 2.0, sys_.d)
            if sys_.singular_distance is not None and \
                    sys_.singular_distance(q) < 5e-2:
                continue
            if sys_.d == 1 and q[0] <= 1e-2:
                continue
            s0 = PhaseState(q, p)
            rd = RadialData.from_state(sys_, s0)
            tf = fall_time(rd)
            if tf is not None and tf < 1.5:
                continue
            try:
                tr = reconstruct(sys_, s0, [0.0, 1.0], rtol=1e-10)
                ta = integrate_adaptive(sys_.H, s0, 1e-10, 1.0,
                                        t_eval=[1.0])
            except StepUnderflowError:
                continue  # angular flow grazed a singular direction
            scale = max(1.0, np.max(np.abs(ta.qs[-1])),
                        np.max(np.abs(ta.ps[-1])))
            err = max(np.max(np.abs(tr.qs[-1] - ta.qs[-1])),
                      np.max(np.abs(tr.ps[-1] - ta.ps[-1]))) / scale
            worst = max(worst, err)
            assert err < 1e-5, (ms.label, err)
            accepted += 1
            total += 1
    assert total >= 100
    _report("5 reconstruction",
            f"max relative error {worst:.2e} over {total} states")


def _positive_I_states(sys_, n, seed):
    def pred(s):
        try:
            if not (casimir_I(sys_, s) > 5e-2 and sys_.H(s) > 5e-2):
                return False
        except Exception:
            return False
        return sys_.d == 1 or chart_interior(s)
    return model_states(sys_, n, seed, predicate=pred)


def test_c06_decoupling_transport(catalog_systems):
    """H o invert = K, K o invert = H, D o invert = -D to 1e-12 at 100
    I > 0 states per model; tilde-map consistency w~ = -1/w to 1e-12."""
    worst_t = worst_w = 0.0
    for ms, sys_ in catalog_systems:
        for s in _positive_I_states(sys_, 100, seed=106):
            i_val = casimir_I(sys_, s)
            rs = to_hyperspherical(s)
            kp = to_klein(rs, i_val)
            h, dd, k = killing_forms(kp)
            h2, dd2, k2 = killing_forms(invert(kp))
            err = max(abs(h2 - k) / max(1.0, abs(k)),
                      abs(k2 - h) / max(1.0, abs(h)),
                      abs(dd2 + dd) / max(1.0, abs(dd)))
            assert err < 1e-12, ms.label
            worst_t = max(worst_t, err)
            # w~: the half-plane point of the radial pair (p~, -r~)
            p_t, r_t = tilde_map(rs, i_val)
            wt = to_klein((p_t, -r_t), i_val)
            errw = abs(wt.w - invert(kp).w) / max(1.0, abs(kp.w))
            assert errw < 1e-12, ms.label
            worst_w = max(worst_w, errw)
    _report("6 decoupling transport",
            f"max transport error {worst_t:.2e}, max tilde-consistency "
            f"error {worst_w:.2e}")


def test_c07_canonicity_verdicts():
    """d=1 canonical; d=2,3 non-canonical with the documented witness
    bracket value -0.3535534 at q=(1,0), p=(1,1)."""
    rep1 = canonicity_report(models.spec("inverse-square", d=1, kappa=0.5),
                             samples=100, tol=1e-8, seed=107)
    assert rep1.verdict == "canonical"
    assert rep1.brackets["{p~,r~}-1"]["max_residual"] < 1e-8

    rep2 = canonicity_report(models.spec("free", d=2), samples=60,
                             tol=1e-8, seed=107)
    assert rep2.verdict == "non-canonical"

    rep3 = canonicity_report(models.spec("inverse-square", d=3, kappa=1.0),
                             samples=40, tol=1e-8, seed=107)
    assert rep3.verdict == "non-canonical"

    free2 = models.build(models.spec("free", d=2))
    s = PhaseState([1.0, 0.0], [1.0, 1.0])
    # r~ is row 1; phi_0 is component 2 of the chart, column 4
    witness = brackets((tilde_observable(free2),
                        chart_observable(2)), s)[1, 4]
    assert abs(witness - (-0.3535533905932738)) < 1e-8
    _report("7 canonicity verdicts",
            f"d=1 canonical, d=2/d=3 non-canonical, witness "
            f"{{r~,phi}} = {witness:.7f}")


def test_c08_calogero_geometry():
    """n=3: six singular angles spaced pi/3 (three centers at 2pi/3 modulo
    antipodality); n=4: cuboctahedron pairwise-angle multiset."""
    sd3 = models.singular_directions(3)
    angles = np.sort(np.mod(np.arctan2(sd3[:, 1], sd3[:, 0]), 2 * np.pi))
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
    npt.assert_allclose(gaps, np.pi / 3, atol=1e-9)
    # three centers modulo antipodality: the double-angle images of the
    # three axes are spaced exactly 2pi/3
    axes = np.unique(np.round(np.mod(angles, np.pi), 12))
    assert len(axes) == 3
    doubled = np.sort(np.mod(2.0 * axes, 2.0 * np.pi))
    dgaps = np.diff(np.concatenate([doubled, [doubled[0] + 2 * np.pi]]))
    npt.assert_allclose(dgaps, 2 * np.pi / 3, atol=1e-9)

    sd4 = models.singular_directions(4)
    counts = {60.0: 0, 90.0: 0, 120.0: 0, 180.0: 0}
    for i in range(12):
        for j in range(i + 1, 12):
            ang = math.degrees(math.acos(
                float(np.clip(sd4[i] @ sd4[j], -1.0, 1.0))))
            ref = min(counts, key=lambda r: abs(ang - r))
            assert abs(ang - ref) < 1e-9
            counts[ref] += 1
    assert counts == {60.0: 24, 90.0: 12, 120.0: 24, 180.0: 6}
    _report("8 Calogero geometry",
            "n=3 spacing pi/3, n=4 multiset {60:24, 90:12, 120:24, 180:6}")


def test_c08_centers_are_axes():
    # one orientation per particle pair; as undirected axes they sit pi/3
    # apart on the circle
    sd3 = models.singular_directions(3)[:3]
    angs = np.sort(np.mod(np.arctan2(sd3[:, 1], sd3[:, 0]), np.pi))
    npt.assert_allclose(np.diff(angs), np.pi / 3, atol=1e-9)


def test_c09_spherical_counterparts():
    """U_higgs - omega^2 tan^2(t)/2 is the constant omega^2 (1e-9);
    U_coulomb = gamma cot(t) (1e-10); 100 chart points each."""
    rng = np.random.default_rng(109)
    omega, gamma = 1.3, 0.7
    V_h = models.potential(models.spec("higgs", d=3, omega=omega))
    V_c = models.potential(models.spec("coulomb", d=3, gamma=gamma))
    shifts = []
    worst_coul = 0.0
    for _ in range(100):
        phi = np.array([rng.uniform(0.1, np.pi - 0.1),
                        rng.uniform(-np.pi, np.pi)])
        if abs(phi[0] - np.pi / 2) < 0.05:
            continue  # keep tan well-conditioned for the higgs form
        rs = ReducedState(r=rng.uniform(0.5, 2.0), p_r=0.0, phi=phi,
                          pi=[0.0, 0.0])
        shifts.append(angular_potential(V_h, rs)
                      - 0.5 * omega ** 2 * math.tan(phi[0]) ** 2)
        err = abs(angular_potential(V_c, rs) - gamma / math.tan(phi[0]))
        worst_coul = max(worst_coul, err)
        assert err < 1e-10
    shifts = np.asarray(shifts)
    assert shifts.max() - shifts.min() < 1e-9
    npt.assert_allclose(shifts, omega ** 2, atol=1e-9)
    _report("9 spherical counterparts",
            f"higgs shift = omega^2 +- {shifts.max() - shifts.min():.1e}, "
            f"coulomb max error {worst_coul:.2e}")


def test_c10_bracket_formulas(catalog_systems):
    """{w,wbar} formula vs engine (both I branches, 1e-8); mixed
    {u^a, w} vs the self-consistent (w-wbar)V^a/(4I) (1e-8) with the
    displayed /(2I) form pinned at exactly twice it; Omega equals the
    inverse bracket matrix (1e-8)."""
    worst_ww = worst_mixed = worst_omega = 0.0
    for ms, sys_ in catalog_systems:
        sphere = spherical_system_from(sys_.V, sys_.d)
        for s in _positive_I_states(sys_, 13, seed=110):
            i_val = casimir_I(sys_, s)
            rs = to_hyperspherical(s)
            kp = to_klein(rs, i_val)
            table = expected_brackets(kp, sphere, rs)
            worst_ww = max(worst_ww, ww_residual(table))
            assert ww_residual(table) < 1e-8, ms.label
            if sys_.d > 1:
                worst_mixed = max(worst_mixed, max_mixed_residual(table))
                assert max_mixed_residual(table) < 1e-8, ms.label
                for row in table.mixed:
                    assert abs(row.displayed - 2.0 * row.consistent) \
                        < 1e-12 * max(1.0, abs(row.displayed))
        for s in _positive_I_states(sys_, 3, seed=111):
            rs = to_hyperspherical(s)
            omega = assemble_omega(rs, sphere, casimir_I(sys_, s))
            B = bracket_matrix(sphere, s)
            err = np.max(np.abs(omega @ B - np.eye(2 * sys_.d)))
            worst_omega = max(worst_omega, err)
            assert err < 1e-8, ms.label

    # negative-I branch: 1D attractive system and negative-I coulomb states
    att = models.build(models.spec("inverse-square", d=1, kappa=-0.5))
    sph_att = spherical_system_from(att.V, 1)
    rng = np.random.default_rng(112)
    for _ in range(50):
        s = PhaseState([rng.uniform(0.3, 2.0)], [rng.uniform(-2.0, 2.0)])
        kp = to_klein(s, casimir_I(att, s))
        res = abs(bracket_ww(sph_att, s) - formula_ww(kp))
        worst_ww = max(worst_ww, res)
        assert res < 1e-8
    coul = models.build(models.spec("coulomb", d=3, gamma=1.0))
    sph_c = spherical_system_from(coul.V, 3)
    neg = model_states(
        coul, 25, seed=113,
        predicate=lambda s: chart_interior(s)
        and casimir_I(coul, s) < -5e-2)
    for s in neg:
        i_val = casimir_I(coul, s)
        rs = to_hyperspherical(s)
        kp = to_klein(rs, i_val)
        table = expected_brackets(kp, sph_c, rs)
        worst_ww = max(worst_ww, ww_residual(table))
        worst_mixed = max(worst_mixed, max_mixed_residual(table))
        assert ww_residual(table) < 1e-8
        assert max_mixed_residual(table) < 1e-8
    _report("10 bracket formulas",
            f"max {{w,wbar}} residual {worst_ww:.2e}, max mixed residual "
            f"{worst_mixed:.2e} (displayed form pinned at 2x), max "
            f"Omega-inverse error {worst_omega:.2e}")
