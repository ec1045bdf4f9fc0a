"""Closed-form radial dynamics, reparametrized time, and reconstruction."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from confmech import models
from confmech.errors import CollapseOnPathError, StepUnderflowError
from confmech.phase import PhaseState, integrate_adaptive, integrate_verlet
from confmech.radial import (
    RadialData,
    fall_time,
    radial_squared,
    radial_squared_rate,
    reconstruct,
    reparam_time,
)
from scipy.integrate import quad


def _radial_oracle_final(rd, t_end, rtol=1e-11):
    """Integrate the radial Hamiltonian p_r^2/2 + I0/r^2 directly."""
    sys_ = models.build(models.spec("inverse-square", d=1, kappa=rd.I0))
    r0 = math.sqrt(rd.r0sq)
    s0 = PhaseState([r0], [rd.D0 / r0])
    traj = integrate_adaptive(sys_.H, s0, rtol, t_end, t_eval=[t_end])
    return traj.qs[-1, 0] ** 2


class TestRadialSquared:
    def test_turning_point_branch(self):
        # D0 = 0 reduces to 2 E t^2 + I0/E
        rd = RadialData(E=2.0, D0=0.0, r0sq=0.5)
        assert rd.I0 == pytest.approx(1.0)
        assert radial_squared(rd, 1.0) == pytest.approx(4.5, abs=1e-14)

    def test_zero_energy_launch_branch(self):
        # E = 0, r0 = 0 reduces to 2 sqrt(-2 I0) t
        rd = RadialData(E=0.0, D0=2.0, r0sq=0.0)
        assert rd.I0 == pytest.approx(-2.0)
        assert radial_squared(rd, 1.0) == pytest.approx(4.0, abs=1e-14)
        t = np.linspace(0.0, 3.0, 7)
        npt.assert_allclose(radial_squared(rd, t),
                            2.0 * math.sqrt(-2.0 * rd.I0) * t, atol=1e-14)

    def test_general_quadratic_vs_integrator(self):
        rd = RadialData(E=1.0, D0=1.0, r0sq=1.0)
        assert radial_squared(rd, 2.0) == pytest.approx(13.0, abs=1e-12)
        assert abs(_radial_oracle_final(rd, 2.0) - 13.0) < 1e-8 * 13.0

    def test_initial_rate_is_2_D0(self):
        for e, d0, r0 in ((1.0, 0.7, 2.0), (-0.5, -1.0, 3.0), (0.0, 0.3, 1.0)):
            rd = RadialData(E=e, D0=d0, r0sq=r0)
            assert radial_squared_rate(rd, 0.0) == 2.0 * d0

    def test_radial_momentum_is_rate_over_radius(self):
        from confmech.radial import radial_momentum
        rd = RadialData(E=1.0, D0=0.5, r0sq=2.0)
        ts = (0.0, 0.7, 2.0)
        for t in ts:
            r = math.sqrt(radial_squared(rd, t))
            assert radial_momentum(rd, t) == pytest.approx(
                0.5 * radial_squared_rate(rd, t) / r, abs=1e-14)
        # a float in gives a float out, an array gives the same bits per entry
        for fn in (radial_squared, radial_squared_rate, radial_momentum):
            values = [fn(rd, t) for t in ts]
            assert all(isinstance(v, float) for v in values), fn.__name__
            out = fn(rd, np.array(ts))
            assert isinstance(out, np.ndarray), fn.__name__
            assert np.array_equal(out.view(np.uint64),
                                  np.array(values).view(np.uint64))

    def test_consistency_validation(self):
        with pytest.raises(ValueError):
            RadialData(E=1.0, D0=0.0, r0sq=1.0, I0=5.0)
        rd = RadialData(E=1.0, D0=0.0, r0sq=1.0, I0=1.0)
        assert rd.I0 == 1.0

    def test_from_state_satisfies_constraint(self, catalog_systems):
        from conftest import model_states
        for ms, sys_ in catalog_systems:
            for s in model_states(sys_, 10, seed=19):
                rd = RadialData.from_state(sys_, s)  # validates internally
                assert 2 * rd.E * rd.r0sq - rd.D0 ** 2 == pytest.approx(
                    2 * rd.I0, abs=1e-10 * max(1.0, abs(rd.I0)))


class TestReparamTime:
    def test_arctan_closed_form(self):
        rd = RadialData(E=1.0, D0=0.0, r0sq=0.5)
        assert rd.I0 == pytest.approx(0.5)
        assert reparam_time(rd, 1.0) == pytest.approx(math.atan(2.0),
                                                      abs=1e-12)

    def test_zero_time(self):
        assert reparam_time(RadialData(E=1.0, D0=0.3, r0sq=2.0), 0.0) == 0.0

    def test_log_case_by_quadrature(self):
        # E=0, D0=2, r0^2=1: integral of 1/(4s+1) = ln(5)/4
        rd = RadialData(E=0.0, D0=2.0, r0sq=1.0)
        assert rd.I0 == pytest.approx(-2.0)
        assert reparam_time(rd, 1.0) == pytest.approx(math.log(5.0) / 4.0,
                                                      abs=1e-10)

    def test_r0_zero_diverges(self):
        rd = RadialData(E=0.0, D0=2.0, r0sq=0.0)
        with pytest.raises(CollapseOnPathError):
            reparam_time(rd, 1.0)

    def test_closed_form_matches_quadrature(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            e = rng.uniform(0.2, 2.0)
            r0 = rng.uniform(0.3, 3.0)
            d0 = rng.uniform(-1.0, 1.0)
            rd = RadialData(E=e, D0=d0, r0sq=r0)
            if rd.I0 <= 1e-3:
                continue
            t = rng.uniform(0.1, 4.0)
            closed = reparam_time(rd, t)
            num, _ = quad(lambda u: 1.0 / radial_squared(rd, u), 0.0, t,
                          epsabs=1e-13, epsrel=1e-13)
            assert abs(closed - num) < 1e-10

    def test_strictly_increasing(self):
        rd = RadialData(E=0.7, D0=-0.5, r0sq=1.5)
        ts = np.linspace(0.0, 4.0, 40)
        vals = [reparam_time(rd, t) for t in ts]
        assert np.all(np.diff(vals) > 0)

    def test_collapse_on_path(self):
        rd = RadialData(E=1.0, D0=-math.sqrt(6.0), r0sq=1.0)
        with pytest.raises(CollapseOnPathError) as err:
            reparam_time(rd, 1.0)
        assert err.value.collapse_time == pytest.approx(
            (math.sqrt(6.0) - 2.0) / 2.0, abs=1e-12)


class TestFallTime:
    def test_positive_invariant_never_falls(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            e = rng.uniform(0.1, 2.0)
            r0 = rng.uniform(0.2, 3.0)
            d0_max = math.sqrt(2.0 * e * r0) * 0.95
            rd = RadialData(E=e, D0=rng.uniform(-d0_max, d0_max), r0sq=r0)
            assert rd.I0 > 0
            assert fall_time(rd) is None

    def test_infalling_root(self):
        rd = RadialData(E=1.0, D0=-math.sqrt(6.0), r0sq=1.0)
        assert rd.I0 == pytest.approx(-2.0)
        assert fall_time(rd) == pytest.approx((math.sqrt(6.0) - 2.0) / 2.0,
                                              abs=1e-12)

    def test_outgoing_never_falls(self):
        rd = RadialData(E=1.0, D0=math.sqrt(6.0), r0sq=1.0)
        assert fall_time(rd) is None  # both roots negative

    def test_linear_case(self):
        assert fall_time(RadialData(E=0.0, D0=-1.0, r0sq=2.0)) == \
            pytest.approx(1.0)
        assert fall_time(RadialData(E=0.0, D0=1.0, r0sq=2.0)) is None

    def test_negative_energy_bounded_interval(self):
        # E < 0 with I0 < 0: the quadratic is a downward parabola and the
        # motion lives between its roots; the first future root is returned
        rd = RadialData(E=-0.5, D0=0.0, r0sq=1.0)
        assert rd.I0 == pytest.approx(-0.5)
        assert fall_time(rd) == pytest.approx(1.0, abs=1e-14)
        assert radial_squared(rd, 0.5) == pytest.approx(0.75)

    def test_small_energy_no_cancellation(self):
        # r^2 = 2e-13 t^2 - 2t + 1: the textbook root formula cancels and
        # lands at 0.500155, where r^2 = -3.1e-4
        rd = RadialData(E=1e-13, D0=-1.0, r0sq=1.0)
        t_fall = fall_time(rd)
        assert abs(t_fall - 0.5) < 1e-12
        assert abs(radial_squared(rd, t_fall)) < 1e-12

    def test_double_root_at_start(self):
        assert fall_time(RadialData(E=1.0, D0=0.0, r0sq=0.0)) is None

    def test_matches_integrator_blow_up(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            e = rng.uniform(0.5, 1.5)
            r0 = rng.uniform(0.5, 2.0)
            i0 = rng.uniform(-2.0, -0.3)
            d0 = -math.sqrt(2.0 * e * r0 - 2.0 * i0)
            rd = RadialData(E=e, D0=d0, r0sq=r0)
            t_star = fall_time(rd)
            assert t_star is not None
            sys_ = models.build(models.spec("inverse-square", d=1,
                                            kappa=rd.I0))
            s0 = PhaseState([math.sqrt(r0)], [d0 / math.sqrt(r0)])
            with pytest.raises(StepUnderflowError) as err:
                integrate_adaptive(sys_.H, s0, 1e-10, 2.0 * t_star,
                                   singular_distance=sys_.singular_distance)
            assert abs(err.value.t_reached - t_star) < 1e-4


class TestReconstruct:
    def test_free_particle_straight_line(self):
        free2 = models.build(models.spec("free", d=2))
        s0 = PhaseState([1.0, 0.0], [0.0, 1.0])
        grid = np.linspace(0.0, 1.0, 11)
        traj = reconstruct(free2, s0, grid)
        exact_q = np.stack([np.ones_like(grid), grid], axis=1)
        exact_p = np.tile([0.0, 1.0], (len(grid), 1))
        assert np.max(np.abs(traj.qs - exact_q)) < 1e-6
        assert np.max(np.abs(traj.ps - exact_p)) < 1e-6

    def test_inverse_square_matches_verlet(self):
        inv2 = models.build(models.spec("inverse-square", d=2, kappa=1.0))
        s0 = PhaseState([1.0, 0.0], [0.2, 1.0])
        grid = np.linspace(0.0, 1.0, 5)
        tr = reconstruct(inv2, s0, grid)
        tv = integrate_verlet(inv2, s0, 1e-4, 1.0)
        for k, t in enumerate(grid[1:], start=1):
            i = int(round(t / 1e-4))
            assert np.max(np.abs(tr.qs[k] - tv.qs[i])) < 1e-6
            assert np.max(np.abs(tr.ps[k] - tv.ps[i])) < 1e-6

    def test_coulomb_monitors_conserved(self):
        ms = models.spec("coulomb", d=3, gamma=1.0)
        sys_ = models.build(ms)
        s0 = models.reference_state(ms)
        traj = reconstruct(sys_, s0, np.linspace(0.0, 2.0, 21))
        for name in ("H", "I"):
            vals = traj.monitors[name]
            assert np.max(np.abs(vals - vals[0])) < 1e-7 * max(
                1.0, abs(vals[0]))

    @pytest.mark.parametrize("ms", [
        models.spec("coulomb", d=3, gamma=1.0),
        models.spec("calogero", n=4, g=1.0),
    ], ids=lambda ms: ms.label)
    def test_matches_per_row_reference(self, ms):
        # the per-row projection and monitor loop the array code replaced
        sys_ = models.build(ms)
        ref = models.reference_state(ms)
        # a momentum kick off the radial ray, so the angular flow runs
        s0 = PhaseState(ref.q, ref.p + np.linspace(0.1, -0.2, ms.d))
        grid = np.linspace(0.0, 1.0, 41)
        traj = reconstruct(sys_, s0, grid)

        rd = RadialData.from_state(sys_, s0)
        r0 = math.sqrt(rd.r0sq)
        n0 = s0.q / r0
        ell0 = r0 * (s0.p - float(s0.p @ n0) * n0)
        T = np.array([reparam_time(rd, t) for t in grid])
        ang = integrate_adaptive(sys_.casimir, PhaseState(n0, ell0), 1e-10,
                                 float(T[-1]), t_eval=T[1:],
                                 singular_distance=sys_.singular_distance)
        assert len(ang) == len(grid)
        ns, ells = [], []
        for nk, lk in zip(ang.qs, ang.ps):
            nk = nk / np.linalg.norm(nk)
            ns.append(nk)
            ells.append(lk - (lk @ nk) * nk)
        rs = np.sqrt(radial_squared(rd, grid))
        prs = (2.0 * rd.E * grid + rd.D0) / rs
        qs = rs[:, None] * np.array(ns)
        ps = prs[:, None] * np.array(ns) + np.array(ells) / rs[:, None]
        assert np.array_equal(traj.qs, qs) and np.array_equal(traj.ps, ps)
        for name, obs in sys_.monitors().items():
            ref = [obs.fn(q, p) for q, p in zip(qs, ps)]
            assert np.array_equal(traj.monitors[name], ref), name

    def test_one_dimensional(self):
        eq1 = models.build(models.spec("inverse-square", d=1, kappa=0.5))
        s0 = PhaseState([1.0], [0.4])
        grid = np.linspace(0.0, 2.0, 9)
        tr = reconstruct(eq1, s0, grid)
        ta = integrate_adaptive(eq1.H, s0, 1e-11, 2.0, t_eval=grid[1:])
        assert np.max(np.abs(tr.qs[1:, 0] - ta.qs[1:, 0])) < 1e-8

    def test_collapse_rejected(self):
        att = models.build(models.spec("inverse-square", d=1, kappa=-2.0))
        s0 = PhaseState([1.0], [-1.0])
        with pytest.raises(CollapseOnPathError):
            reconstruct(att, s0, np.linspace(0.0, 5.0, 6))
