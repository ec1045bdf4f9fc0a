"""Closed-form radial dynamics, reparametrized time, and reconstruction."""

import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from confmech import models, radial
from confmech.conformal import casimir_I
from confmech.errors import (
    CollapseOnPathError,
    NonFiniteError,
    StepUnderflowError,
)
from confmech.phase import PhaseState, integrate_adaptive, integrate_verlet
from confmech.radial import (
    RadialData,
    fall_time,
    radial_squared,
    reconstruct,
    reparam_time,
)
from scipy.integrate import quad

_CATALOG = [(ms, models.build(ms)) for ms in models.catalog()]


def radial_squared_rate(rd: RadialData, t):
    """d(r^2)/dt = 4 E t + 2 D0; equals 2 D(t). Float or array ``t``."""
    return 4.0 * rd.E * t + 2.0 * rd.D0


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
        for fn in (radial_squared, radial_squared_rate, radial_momentum,
                   reparam_time):
            values = [fn(rd, t) for t in ts]
            assert all(isinstance(v, float) for v in values), fn.__name__
            out = fn(rd, np.array(ts))
            assert isinstance(out, np.ndarray), fn.__name__
            assert np.array_equal(out.view(np.uint64),
                                  np.array(values).view(np.uint64))

    def test_three_fields_imply_I0(self, catalog_systems):
        # I0 is the Casimir identity 2 E r0^2 - D0^2 = 2 I0, not a datum
        assert [f.name for f in dataclasses.fields(RadialData)] == [
            "E", "D0", "r0sq"]
        assert RadialData(E=1.0, D0=-3.0, r0sq=1.0).I0 == -3.5
        with pytest.raises(TypeError):
            RadialData(E=1.0, D0=0.0, r0sq=1.0, I0=1.0)
        # from a state, the bits of (4HK - D^2)/2
        from conftest import model_states
        for ms, sys_ in catalog_systems:
            for s in model_states(sys_, 5, seed=23):
                rd = RadialData.from_state(sys_, s)
                assert rd.I0 == casimir_I(sys_, s), ms.label

    @pytest.mark.parametrize("fields,message", [
        ((math.nan, 1.0, 1.0), "must be finite"),
        ((1.0, math.inf, 1.0), "must be finite"),
        ((1.0, 1.0, math.nan), "must be finite"),
        ((1.0, 1.0, -math.inf), "must be finite"),
        ((1.0, 1.0, -1.0), "nonnegative"),
    ], ids=["nan-E", "inf-D0", "nan-r0sq", "-inf-r0sq", "negative-r0sq"])
    def test_bad_fields_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            RadialData(*fields)

    def test_collapse_message_without_a_fall_time(self):
        # data the constructor now refuses (NaN E) has no fall time; the
        # rounding-collapse message must not format that None
        rd = object.__new__(RadialData)
        for name, value in zip(("E", "D0", "r0sq"), (math.nan, 1.0, 1.0)):
            object.__setattr__(rd, name, value)
        assert fall_time(rd) is None
        with pytest.raises(CollapseOnPathError,
                           match=r"rounding at t = 0\.5$") as err:
            radial._reparam(rd, 0.5)
        assert err.value.collapse_time is None

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

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("D0", [0.5, -3.0], ids=["atan2", "quad"])
    def test_non_finite_or_negative_time_rejected(self, D0, t):
        # I0 > 0 takes the atan2 branch, I0 < 0 the log1p one (the "quad"
        # id names the quadrature it replaced)
        rd = RadialData(E=1.0, D0=D0, r0sq=1.0)
        with pytest.raises(ValueError, match="finite t >= 0"):
            reparam_time(rd, t)
        # in an array, also behind valid times
        with pytest.raises(ValueError, match="finite t >= 0"):
            reparam_time(rd, np.array([0.0, 0.1, t]))

    def test_log_case_by_quadrature(self):
        # E=0, D0=2, r0^2=1: integral of 1/(4s+1) = ln(5)/4 (the I0 < 0
        # closed form, once quadrature)
        rd = RadialData(E=0.0, D0=2.0, r0sq=1.0)
        assert rd.I0 == pytest.approx(-2.0)
        assert reparam_time(rd, 1.0) == pytest.approx(math.log(5.0) / 4.0,
                                                      abs=1e-10)

    def test_r0_zero_diverges(self):
        rd = RadialData(E=0.0, D0=2.0, r0sq=0.0)
        with pytest.raises(CollapseOnPathError):
            reparam_time(rd, 1.0)

    @pytest.mark.parametrize("D0", [2.0, 0.0])
    def test_r0_zero_at_zero_time(self, D0):
        # the divergence starts after t = 0: T(0) = 0 still
        rd = RadialData(E=0.0, D0=D0, r0sq=0.0)
        assert reparam_time(rd, 0.0) == 0.0
        out = reparam_time(rd, [0.0])
        assert isinstance(out, np.ndarray) and out.tolist() == [0.0]
        with pytest.raises(CollapseOnPathError):
            reparam_time(rd, [0.0, 1.0])

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

    @settings(max_examples=150, deadline=None)
    @given(sign=st.sampled_from((1.0, -1.0, 0.0)), r0sq=st.floats(0.1, 4.0),
           d0=st.floats(-2.0, 2.0), mag=st.floats(1e-6, 2.0),
           frac=st.floats(0.01, 1.0))
    def test_matches_quadrature_every_sign(self, sign, r0sq, d0, mag, frac):
        # collapse-free (E, D0, r0^2, t) with t <= 0.9 fall_time, for
        # I0 > 0, I0 < 0 and I0 = 0 (D0 >= 0 puts the double root at t < 0)
        if sign == 0.0:
            d0 = abs(d0)
            rd = RadialData(E=d0 * d0, D0=d0, r0sq=0.5)
            assert rd.I0 == 0.0
        else:
            rd = RadialData(E=(d0 * d0 + 2.0 * sign * mag) / (2.0 * r0sq),
                            D0=d0, r0sq=r0sq)
            assume(rd.I0 * sign > 0.0)
        tf = fall_time(rd)
        t = frac * (4.0 if tf is None else min(4.0, 0.9 * tf))
        got = reparam_time(rd, t)
        # the oracle integrates r^2 in vertex form ((2Eu + D0)^2 + 2I0)/(2E):
        # at a near-collapse pass (0 < I0 << D0^2) the expanded quadratic
        # cancels, and quad of it misses the 50-digit T by 5.5e-9 at
        # E = 2.000001, D0 = -2, r0^2 = 1, t = 1 (the atan2 form: 1e-13);
        # a tiny |E| has no pass and would underflow the vertex form. The
        # vertex -D0/(2E) is a breakpoint unless it sits within 1e-8 t of
        # the start (see the next test): without it quad misses the peak
        # of 1/r^2 at E = 8.41, D0 = -1.296875, r0^2 = 0.1, I0 = 1e-6,
        # t = 3.5 (14.87 against T = 2220.65)
        vertex = math.inf
        if abs(rd.E) < 1e-8:
            def inv_r2(u):
                return 1.0 / radial_squared(rd, u)
        else:
            vertex = -rd.D0 / (2.0 * rd.E)

            def inv_r2(u):
                return 2.0 * rd.E / ((2.0 * rd.E * u + rd.D0) ** 2
                                     + 2.0 * rd.I0)
        num, _ = quad(inv_r2, 0.0, t, epsabs=1e-13, epsrel=1e-13,
                      points=[vertex] if 1e-8 * t < vertex < t else None)
        assert abs(got - num) <= 1e-12 * max(1.0, abs(got))

    def test_zero_invariant_is_exact(self):
        # I0 = 0 exactly: r^2 = (r0^2 + D0 t)^2 / r0^2, so T = t / (1 + t)
        # for E = 1/2, D0 = r0^2 = 1, and t / (1 - t) up to the double root
        # at t = 1 for D0 = -1
        rd = RadialData(E=0.5, D0=1.0, r0sq=1.0)
        assert rd.I0 == 0.0
        assert [reparam_time(rd, t) for t in (1.0, 3.0)] == [0.5, 0.75]
        rd = RadialData(E=0.5, D0=-1.0, r0sq=1.0)
        assert rd.I0 == 0.0 and fall_time(rd) == 1.0
        assert [reparam_time(rd, t) for t in (0.5, 0.75)] == [1.0, 3.0]

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @settings(max_examples=150, deadline=None)
    @given(r0sq=st.floats(0.1, 4.0), d0=st.floats(-2.0, 2.0),
           mag=st.floats(1e-6, 2.0), tiny=st.booleans(),
           gap=st.floats(-8.0, -1.0))
    # a vertex within 1e-306 of 0 made quad 5.7e-6 (relative) wrong when
    # passed as a breakpoint
    @example(r0sq=3.0, d0=2.137836767317589e-307, mag=1.0, tiny=False,
             gap=-2.0)
    @example(r0sq=3.0, d0=2.2250738585e-313, mag=1e-06, tiny=False,
             gap=-2.0)
    @example(r0sq=2.036689517936102, d0=2.2250738585072014e-308, mag=1.0,
             tiny=False, gap=-2.0)
    def test_matches_quadrature_near_the_fall_time(self, r0sq, d0, mag, tiny,
                                                   gap):
        # I0 < 0 and t = (1 - 10^gap) fall_time, 1e-8 to 1e-1 (relative)
        # short of the collapse. A tiny E < 0 with D0 > 0 falls only at
        # t ~ D0/|E|: there atanh(s t / (r0^2 + D0 t)) / s is 1e-2 off or
        # leaves its domain, and half of these draws fail it
        E = -1e-12 * mag if tiny else (d0 * d0 - 2.0 * mag) / (2.0 * r0sq)
        rd = RadialData(E=E, D0=d0, r0sq=r0sq)
        tf = fall_time(rd)
        assume(rd.I0 < 0.0 and tf is not None)
        t = tf * (1.0 - 10.0 ** gap)
        got = reparam_time(rd, t)
        # the oracle takes the vertex -D0/(2E), where r^2 turns, as a
        # breakpoint, unless it sits within 1e-8 t of the start, where
        # quad of a subinterval that short errs; near the fall time quad
        # warns that rounding keeps it from its requested 1e-13, hence the
        # filter
        vertex = -rd.D0 / (2.0 * rd.E) if rd.E else math.inf
        num, _ = quad(lambda u: 1.0 / radial_squared(rd, u), 0.0, t,
                      points=[vertex] if 1e-8 * t < vertex < t else None,
                      epsabs=0.0, epsrel=1e-13, limit=200)
        # the problem's own condition number: cond = t / (r^2(t) T) for a
        # rounding of t, plus amp = (2|E|t^2 + 2|D0|t + r0^2) / r^2(t) for
        # roundings of E, D0 and r0^2, which move the fall time. amp
        # dominates when |I0| << D0^2 (a nearly double root): there the
        # error reaches 330 eps cond, but never 0.2 eps (cond + amp) on
        # 6,000 seeded draws of these ranges
        r2 = radial_squared(rd, t)
        cond = t / (r2 * got)
        amp = (2.0 * abs(rd.E) * t * t + 2.0 * abs(rd.D0) * t + rd.r0sq) / r2
        eps = np.finfo(float).eps
        assert abs(got - num) <= 2.0 * eps * (cond + amp) * got

    def test_rounding_onto_the_fall_time_is_a_collapse(self):
        # one ulp below the fall time the factor r0^2 + (D0 - s) t rounds
        # to 0, so r^2 vanishes there as far as floats can tell
        rd = RadialData(E=-1.249, D0=-0.43, r0sq=1.004)
        tf = fall_time(rd)
        with pytest.raises(CollapseOnPathError) as err:
            reparam_time(rd, math.nextafter(tf, 0.0))
        assert err.value.collapse_time == tf

    def test_small_positive_invariant_does_not_cancel(self):
        # I0 ~ 1e-14: the arctan difference this replaced returned
        # 1.600000000240172, 1.5e-10 off
        rd = RadialData(E=1.0, D0=0.5, r0sq=0.125 + 1e-14)
        assert 0.0 < rd.I0 < 2e-14
        num, _ = quad(lambda u: 1.0 / radial_squared(rd, u), 0.0, 1.0,
                      epsabs=1e-13, epsrel=1e-13)
        assert reparam_time(rd, 1.0) == pytest.approx(num, rel=1e-14)
        assert reparam_time(rd, 1.0) == pytest.approx(1.599999999999947,
                                                      rel=1e-14)

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
        # an array is checked at its largest t, wherever that entry sits
        with pytest.raises(CollapseOnPathError) as arr:
            reparam_time(rd, np.array([0.0, 1.0, 0.1]))
        assert arr.value.collapse_time == err.value.collapse_time
        assert reparam_time(rd, np.array([0.1, 0.2])).tolist() == [
            reparam_time(rd, 0.1), reparam_time(rd, 0.2)]


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
                                   t_eval=[2.0 * t_star],
                                   singular_distance=sys_.singular_distance)
            assert abs(err.value.t_reached - t_star) < 1e-4


class TestReconstruct:
    @pytest.mark.parametrize("grid", [[], [0.5, 0.5], [-0.1, 1.0]],
                             ids=["empty", "repeated", "negative"])
    def test_bad_grid_rejected(self, grid):
        free2 = models.build(models.spec("free", d=2))
        s0 = PhaseState([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="t_grid must be"):
            reconstruct(free2, s0, grid)

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
                                 float(T[-1]), t_eval=T,
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

    def test_small_angular_momentum_is_kept(self):
        # |ell0| = 5e-9 lies under np.allclose's absolute tolerance; a
        # shortcut on it ended 5e-8 away from the straight line
        free3 = models.build(models.spec("free", d=3))
        s0 = PhaseState([1.0, 0.0, 0.0], [0.5, 5e-9, 0.0])
        grid = np.linspace(0.0, 10.0, 11)
        traj = reconstruct(free3, s0, grid)
        npt.assert_allclose(traj.qs, s0.q + np.outer(grid, s0.p), rtol=0,
                            atol=1e-12)
        npt.assert_allclose(traj.ps, np.tile(s0.p, (len(grid), 1)), rtol=0,
                            atol=1e-12)

    @pytest.mark.parametrize("ms", [
        models.spec("coulomb", d=3, gamma=1.0),
        models.spec("calogero", n=3, g=1.0),
    ], ids=lambda ms: ms.label)
    def test_radial_launch_turned_by_angular_potential(self, ms):
        # ell0 = 0 up to rounding, yet the angular potential turns n
        sys_ = models.build(ms)
        q = np.array([1.0, 0.4, -0.3][:ms.d])
        s0 = PhaseState(q, 0.5 * q)
        tr = reconstruct(sys_, s0, [0.0, 1.0])
        ta = integrate_adaptive(sys_.H, s0, 1e-12, 1.0, t_eval=[1.0])
        assert np.max(np.abs(tr.qs[-1] - ta.qs[-1])) < 1e-9
        assert np.max(np.abs(tr.ps[-1] - ta.ps[-1])) < 1e-9

    def test_rows_meet_the_rtol_contract(self, catalog_systems):
        # every row within 5 rtol (1 + |y|) of an rtol 1e-13 run over
        # [0, 5], from each model's kicked reference state (about 1.4x at
        # worst, for higgs)
        rtol = 1e-10
        grid = np.linspace(0.0, 5.0, 201)
        for ms, sys_ in catalog_systems:
            ref = models.reference_state(ms)
            s0 = PhaseState(ref.q, ref.p + np.linspace(0.1, -0.2, ms.d))
            y, want = (np.hstack([tr.qs, tr.ps]) for tr in (
                reconstruct(sys_, s0, grid, rtol=rtol),
                reconstruct(sys_, s0, grid, rtol=1e-13)))
            assert np.all(np.abs(y - want) <= 5.0 * rtol
                          * (1.0 + np.abs(want))), ms.label

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), t_end=st.floats(0.2, 2.0),
           num=st.integers(2, 40))
    def test_matches_direct_integration(self, data, t_end, num):
        # acceptance c05's check at every grid time of random states
        ms, sys_ = data.draw(st.sampled_from(_CATALOG), label="model")
        y0 = data.draw(hnp.arrays(np.float64, 2 * ms.d,
                                  elements=st.floats(-2.0, 2.0)),
                       label="state")
        q, p = y0[:ms.d], y0[ms.d:]
        assume(sys_.singular_distance(q) >= 5e-2)
        assume(np.linalg.norm(q) >= 5e-2 and (ms.d > 1 or q[0] > 1e-2))
        s0 = PhaseState(q, p)
        tf = fall_time(RadialData.from_state(sys_, s0))
        assume(tf is None or tf >= 1.5 * t_end)
        grid = np.linspace(0.0, t_end, num)
        closest = [math.inf]

        def guard(q):
            closest.append(sys_.singular_distance(q))
            return closest[-1]
        try:
            tr = reconstruct(sys_, s0, grid, rtol=1e-10)
            ta = integrate_adaptive(sys_.H, s0, 1e-10, t_end,
                                    t_eval=grid, singular_distance=guard)
        except StepUnderflowError:
            assume(False)  # the angular flow grazed a singular direction
        # a path that grazes the singular set leaves the direct run, not
        # the closed form, off by more than 1e-5 (4e-5 at a distance 9e-4)
        assume(min(closest) >= 5e-2)
        assert np.array_equal(tr.times, ta.times)
        scale = np.maximum(1.0, np.maximum(np.max(np.abs(ta.qs), axis=1),
                                           np.max(np.abs(ta.ps), axis=1)))
        err = np.maximum(np.max(np.abs(tr.qs - ta.qs), axis=1),
                         np.max(np.abs(tr.ps - ta.ps), axis=1)) / scale
        assert np.all(err < 1e-5), (ms.label, float(np.max(err)))

    def test_one_dimensional(self):
        eq1 = models.build(models.spec("inverse-square", d=1, kappa=0.5))
        s0 = PhaseState([1.0], [0.4])
        grid = np.linspace(0.0, 2.0, 9)
        tr = reconstruct(eq1, s0, grid)
        ta = integrate_adaptive(eq1.H, s0, 1e-11, 2.0, t_eval=grid)
        assert np.max(np.abs(tr.qs[:, 0] - ta.qs[:, 0])) < 1e-8

    def test_collapse_rejected(self):
        att = models.build(models.spec("inverse-square", d=1, kappa=-2.0))
        s0 = PhaseState([1.0], [-1.0])
        with pytest.raises(CollapseOnPathError):
            reconstruct(att, s0, np.linspace(0.0, 5.0, 6))

    @pytest.mark.parametrize("grid", [[0.0], [0.0, 1.0]])
    def test_start_at_the_center_rejected(self, grid):
        # r0 = 0 leaves no direction n0 = q0 / r0: the grid [0] once gave
        # NaN rows and two RuntimeWarnings, [0, 1] the same error as here
        free2 = models.build(models.spec("free", d=2))
        with pytest.raises(CollapseOnPathError, match=r"r\^2\(0\) = 0") as err:
            reconstruct(free2, PhaseState([0.0, 0.0], [1.0, 0.0]), grid)
        assert err.value.collapse_time == 0.0

    def test_grid_times_sharing_one_T(self):
        # far out T(t) is at its limit, and neighbouring grid times round
        # to the same T; the angular flow once ran on that grid and raised
        ms = models.spec("inverse-square", d=3, kappa=1.0)
        sys_ = models.build(ms)
        s0 = models.reference_state(ms)
        grid = np.linspace(0.0, 1e14, 101)
        T = reparam_time(RadialData.from_state(sys_, s0), grid)
        assert len(np.unique(T)) < len(T)
        traj = reconstruct(sys_, s0, grid)
        assert np.all(np.isfinite(traj.qs)) and np.all(np.isfinite(traj.ps))
        r = np.sqrt(np.vecdot(traj.qs, traj.qs))
        assert np.all(np.diff(r) > 0)
        # rows of one T share their direction, up to the rounding of q / r
        for i in np.flatnonzero(np.diff(T) == 0.0):
            npt.assert_allclose(traj.qs[i] / r[i], traj.qs[i + 1] / r[i + 1],
                                rtol=0, atol=4e-16)
        H = traj.monitors["H"]
        assert np.max(np.abs(H - H[0])) < 1e-12 * abs(H[0])

    def test_non_finite_rows_rejected(self):
        ms = models.spec("inverse-square", d=3, kappa=1.0)
        sys_ = models.build(ms)
        s0 = models.reference_state(ms)
        with pytest.raises(ValueError, match="finite t >= 0"):
            reconstruct(sys_, s0, [0.0, np.inf])
        # r^2 overflows at 1e200, though T stays finite there
        assert math.isfinite(reparam_time(RadialData.from_state(sys_, s0),
                                          1e200))
        with pytest.raises(NonFiniteError, match="overflows"):
            reconstruct(sys_, s0, [0.0, 1e200])


def _norms(a):
    return np.sqrt(np.vecdot(a, a))


@st.composite
def _constant_u_launches(draw):
    """A free or inverse-square (kappa > 0) system, a state that turns
    (I0 > 0, |l0| >= 1e-2), an rtol and a time grid from 0."""
    d = draw(st.integers(2, 4), label="d")
    kappa = draw(st.one_of(st.none(), st.floats(0.2, 2.0)), label="kappa")
    ms = (models.spec("free", d=d) if kappa is None
          else models.spec("inverse-square", d=d, kappa=kappa))
    sys_ = models.build(ms)
    y0 = draw(hnp.arrays(np.float64, 2 * d, elements=st.floats(-2.0, 2.0)),
              label="state")
    q, p = y0[:d], y0[d:]
    r0 = np.linalg.norm(q)
    assume(r0 >= 5e-2)
    n0 = q / r0
    l0 = r0 * (p - (p @ n0) * n0)
    assume(np.linalg.norm(l0) >= 1e-2)
    rtol = draw(st.sampled_from((1e-6, 1e-8, 1e-10)), label="rtol")
    grid = np.linspace(0.0, draw(st.floats(0.2, 5.0), label="t_end"),
                       draw(st.integers(2, 201), label="num"))
    return sys_, PhaseState(q, p), rtol, grid


class TestGreatCircleOracle:
    """A constant spherical potential (free, inverse-square) makes the
    Casimir flow from a unit n0 and a tangent l0 the great circle

        n(T) = n0 cos wT + (l0 / w) sin wT,   l(T) = l0 cos wT - w n0 sin wT,

    with w = |l0|, and reconstruct's rows are r(t) n(T(t)) and
    p_r(t) n + l / r(t) with r, p_r and T(t) in closed form. Every row is
    held within 2 rtol (1 + wT) (1 + |y|) of that, in the Euclidean norm
    of q and of p (or of n and of l) separately: the global error of the
    adaptive flow grows with the phase wT travelled (at most about pi for
    I0 > 0). The worst row measured, over 3,000 draws of these
    properties and 1,600 seeded ones, was 0.53 rtol (1 + wT) (1 + |y|)."""

    @staticmethod
    def great_circle(s0, T):
        r0 = np.linalg.norm(s0.q)
        n0 = s0.q / r0
        l0 = r0 * (s0.p - (s0.p @ n0) * n0)
        w = np.linalg.norm(l0)
        c, s = np.cos(w * T)[:, None], np.sin(w * T)[:, None]
        return n0, l0, w, n0 * c + (l0 / w) * s, l0 * c - (w * n0) * s

    @staticmethod
    def assert_within(got, want, bound):
        err = _norms(got - want) / (bound * (1.0 + _norms(want)))
        assert np.all(err <= 1.0), float(np.max(err))

    @settings(max_examples=30, deadline=None)
    @given(launch=_constant_u_launches())
    def test_angular_rows(self, launch):
        sys_, s0, rtol, grid = launch
        T = np.array([reparam_time(RadialData.from_state(sys_, s0), t)
                      for t in grid])
        n0, l0, w, n, ell = self.great_circle(s0, T)
        ang = integrate_adaptive(sys_.casimir, PhaseState(n0, l0), rtol,
                                 float(T[-1]), t_eval=T)
        bound = 2.0 * rtol * (1.0 + w * T)
        self.assert_within(ang.qs, n, bound)
        self.assert_within(ang.ps, ell, bound)

    @settings(max_examples=30, deadline=None)
    @given(launch=_constant_u_launches())
    def test_reconstruct_rows(self, launch):
        sys_, s0, rtol, grid = launch
        rd = RadialData.from_state(sys_, s0)
        T = np.array([reparam_time(rd, t) for t in grid])
        _, _, w, n, ell = self.great_circle(s0, T)
        r = np.sqrt(radial_squared(rd, grid))[:, None]
        p_r = radial_squared_rate(rd, grid)[:, None] / (2.0 * r)
        traj = reconstruct(sys_, s0, grid, rtol=rtol)
        bound = 2.0 * rtol * (1.0 + w * T)
        self.assert_within(traj.qs, r * n, bound)
        self.assert_within(traj.ps, p_r * n + ell / r, bound)
