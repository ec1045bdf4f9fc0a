"""Bracket engine, gradients, and reference integrators."""

import numpy as np
import numpy.testing as npt
import pytest

import confmech.dual as dual
from confmech import models
from confmech.errors import (
    IncompleteResultError,
    NonFiniteError,
    SingularityApproachError,
    StepUnderflowError,
)
from confmech.phase import (
    Observable,
    PhaseState,
    Trajectory,
    brackets,
    grad,
    grad_finite_difference,
    integrate_adaptive,
    integrate_verlet,
    poisson_bracket,
)
from confmech.radial import RadialData, radial_squared
from confmech.reduction import SphericalSystem

from conftest import model_states


def position_observable(i: int, d: int) -> Observable:
    def gfn(q, p, _i=i, _d=d):
        dq = np.zeros(_d)
        dq[_i] = 1.0
        return dq, np.zeros(_d)
    return Observable(d, lambda q, p: q[i], grad_fn=gfn, name=f"x{i}")


def momentum_observable(i: int, d: int) -> Observable:
    def gfn(q, p, _i=i, _d=d):
        dp = np.zeros(_d)
        dp[_i] = 1.0
        return np.zeros(_d), dp
    return Observable(d, lambda q, p: p[i], grad_fn=gfn, name=f"p{i}")


@pytest.fixture(scope="module")
def eq1():
    # the classic 1D system H = p^2/2 + g^2/(2x^2) with g = 1
    return models.build(models.spec("inverse-square", d=1, kappa=0.5))


class TestPhaseState:
    def test_validation(self):
        s = PhaseState([1.0, 2.0], [0.5, -1.0])
        assert s.d == 2
        with pytest.raises(ValueError):
            PhaseState([1.0], [1.0, 2.0])
        with pytest.raises(NonFiniteError):
            PhaseState([np.nan], [1.0])

    def test_trajectory_invariants(self):
        with pytest.raises(ValueError):
            Trajectory([0.0, 0.0], np.zeros((2, 1)), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            Trajectory([0.0, 1.0], np.zeros((3, 1)), np.zeros((3, 1)))
        tr = Trajectory([0.0, 1.0], np.zeros((2, 1)), np.zeros((2, 1)),
                        {"H": [1.0, 1.0]})
        assert len(tr) == 2 and tr.state(1).d == 1


class TestGrad:
    def test_eq1_hamiltonian(self, eq1):
        dq, dp = grad(eq1.H, PhaseState([2.0], [1.0]))
        npt.assert_allclose(dq, [-0.125], atol=1e-14)
        npt.assert_allclose(dp, [1.0], atol=1e-14)

    def test_boost_gradient(self, eq1):
        free = models.build(models.spec("free", d=2))
        dq, dp = grad(free.K, PhaseState([3.0, 4.0], [0.7, -0.2]))
        npt.assert_allclose(dq, [3.0, 4.0], atol=1e-14)
        npt.assert_allclose(dp, [0.0, 0.0], atol=1e-14)

    def test_dilatation_gradient(self):
        free = models.build(models.spec("free", d=2))
        dq, dp = grad(free.D, PhaseState([1.0, 0.0], [0.0, 1.0]))
        npt.assert_allclose(dq, [0.0, 1.0], atol=1e-14)
        npt.assert_allclose(dp, [1.0, 0.0], atol=1e-14)

    def test_nonfinite_raises(self, eq1):
        from confmech.errors import DomainError
        with pytest.raises(DomainError):
            grad(eq1.H, PhaseState([0.0], [1.0]))  # exactly singular
        blows_up = Observable(1, lambda q, p: 1e400)  # overflows to inf
        with pytest.raises(NonFiniteError):
            grad(blows_up, PhaseState([1.0], [1.0]))

    def test_rows_raise_at_the_first_bad_row(self):
        # row 3 overflows H (kappa / r^2 with r^2 = 1e-320): the rows table
        # raises grad's own error at that state, as the per-state path does
        sys_ = models.build(models.spec("inverse-square", d=2, kappa=1.0))
        Q = np.array([[1.0, 0.5], [0.3, -1.2], [-0.7, 0.9], [1e-160, 0.0],
                      [2.0, 1.0]])
        P = np.array([[0.2, 0.1], [1.0, 0.0], [-0.4, 0.3], [0.5, 0.5],
                      [0.0, -1.0]])
        state = PhaseState(Q[3], P[3])
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError) as want:
                grad(sys_.H, state)
            with pytest.raises(NonFiniteError) as got:
                brackets((sys_.H, sys_.D, sys_.K), Q, P)
        assert str(got.value) == str(want.value)
        assert np.array_equal(got.value.state.q, Q[3])
        assert np.array_equal(got.value.state.p, P[3])

    def test_vector_rows_raise_at_the_first_bad_row(self):
        # only the second component of a two-component observable is
        # non-finite, at row 3 (1 / x_1 with x_1 = 0): the rows table
        # raises grad's own error at that state, not at a flattened index
        vec = Observable(2, lambda q, p: dual.stack([q[..., 0],
                                                     1.0 / q[..., 1]]),
                         name="vec")
        Q = np.array([[1.0, 0.5], [0.3, -1.2], [-0.7, 0.9], [1.5, 0.0],
                      [2.0, 1.0]])
        P = np.ones_like(Q)
        state = PhaseState(Q[3], P[3])
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError) as want:
                grad(vec, state)
            with pytest.raises(NonFiniteError) as got:
                brackets((vec,), Q, P)
        assert str(got.value) == str(want.value)
        assert np.array_equal(got.value.state.q, Q[3])
        assert np.array_equal(got.value.state.p, P[3])

    def test_rows_of_one_point_observables(self):
        # q[0] and p[0] are written for one point: on (N, d) rows with
        # N = d they must still read coordinate 0 of each row, not row 0
        A = Observable(2, lambda q, p: q[0] * q[0], name="A")
        B = Observable(2, lambda q, p: p[0], name="B")
        Q = np.array([[1.0, 2.0], [3.0, 4.0]])
        P = np.array([[0.5, -1.0], [2.0, 0.25]])
        tables = brackets((A, B), Q, P)
        for table, q, p in zip(tables, Q, P):
            assert np.array_equal(table, brackets((A, B), PhaseState(q, p)))
        assert tables[1, 1, 0] == 6.0  # {B, A} = 2 q_0 at row 1

    def test_vector_grad_fn_over_rows(self):
        # a two-component observable whose analytic grad_fn is written for
        # one point: over N != d rows each slice is its row's own table
        vec = Observable(
            2, lambda q, p: np.array([q[0] * p[1], p[0]]),
            grad_fn=lambda q, p: (np.array([[p[1], 0.0], [0.0, 0.0]]),
                                  np.array([[0.0, q[0]], [1.0, 0.0]])),
            name="vec")
        Q = np.array([[1.0, 2.0], [3.0, -4.0], [0.5, 0.25]])
        P = np.array([[0.5, -1.0], [2.0, 0.25], [-1.5, 1.0]])
        tables = brackets((vec,), Q, P)
        assert tables.shape == (3, 2, 2)
        for table, q, p in zip(tables, Q, P):
            assert np.array_equal(table, brackets((vec,), PhaseState(q, p)))

    def test_constant_vector_observable(self):
        # a two-component constant takes two rows and columns of the table,
        # at a point and on rows, and brackets to zero with everything
        const = Observable(2, lambda q, p: np.array([1.0, 2.0]))
        x = Observable(2, lambda q, p: q[0], name="x")
        s = PhaseState([0.5, -1.0], [2.0, 0.25])
        table = brackets((x, const), s)
        assert table.shape == (3, 3) and not table.any()
        Q = np.array([[1.0, 2.0], [3.0, -4.0], [0.5, 0.25]])
        P = np.array([[0.5, -1.0], [2.0, 0.25], [-1.5, 1.0]])
        tables = brackets((x, const), Q, P)
        assert tables.shape == (3, 3, 3) and not tables.any()
        one = Observable(2, lambda q, p: 1.0, vectorized=True)
        xv = Observable(2, lambda q, p: q[..., 0], vectorized=True)
        assert brackets((xv, one), Q, P).shape == (3, 2, 2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_vectorized_constant_vector_on_rows(self, n):
        # a vectorized constant returns its two components unbroadcast,
        # on 2 rows as on 3: each row's table is still 3 x 3
        const = Observable(2, lambda q, p: np.array([1.0, 2.0]),
                           vectorized=True)
        xv = Observable(2, lambda q, p: q[..., 0], vectorized=True)
        Q = np.array([[1.0, 2.0], [3.0, -4.0], [0.5, 0.25]])[:n]
        P = np.array([[0.5, -1.0], [2.0, 0.25], [-1.5, 1.0]])[:n]
        tables = brackets((xv, const), Q, P)
        assert tables.shape == (n, 3, 3) and not tables.any()

    def test_non_dual_observable_raises(self):
        # gradients are analytic or dual: an observable the dual engine
        # cannot digest raises instead of quietly switching to finite
        # differences, which stay available as the explicit cross-check
        import math

        def opaque(q, p):
            return math.sqrt(2.0 * dual.value(q[0]) ** 2 + p[0] ** 2)

        obs = Observable(1, opaque)
        s = PhaseState([1.3], [0.4])
        with pytest.raises(TypeError):
            grad(obs, s)
        f = math.sqrt(2.0 * 1.3 ** 2 + 0.4 ** 2)
        dq_fd, dp_fd = grad_finite_difference(obs, s)
        npt.assert_allclose(dq_fd, [2.0 * 1.3 / f], rtol=1e-8)
        npt.assert_allclose(dp_fd, [0.4 / f], rtol=1e-8)

    def test_dual_vs_fd_all_catalog(self, catalog_systems):
        # exact-mode derivatives agree with central differences to 1e-6
        for ms, sys_ in catalog_systems:
            for obs in (sys_.V, sys_.H, sys_.D, sys_.K, sys_.casimir):
                stripped = Observable(sys_.d, obs.fn, name=obs.name)
                for s in model_states(sys_, 100, seed=7):
                    dq_a, dp_a = grad(obs, s)
                    dq_d, dp_d = grad(stripped, s)
                    dq_f, dp_f = grad_finite_difference(stripped, s)
                    scale = max(1.0, np.max(np.abs(dq_d)),
                                np.max(np.abs(dp_d)))
                    assert np.max(np.abs(dq_d - dq_f)) / scale < 1e-6
                    assert np.max(np.abs(dp_d - dp_f)) / scale < 1e-6
                    # analytic gradients agree with the dual engine
                    npt.assert_allclose(dq_a, dq_d, rtol=1e-12, atol=1e-12)
                    npt.assert_allclose(dp_a, dp_d, rtol=1e-12, atol=1e-12)


class TestPoissonBracket:
    def test_sign_convention(self):
        p = momentum_observable(0, 1)
        x = position_observable(0, 1)
        for qv in (0.3, -1.2, 2.0):
            s = PhaseState([qv], [0.8])
            assert poisson_bracket(p, x, s) == pytest.approx(1.0, abs=1e-14)
            assert poisson_bracket(x, x, s) == 0.0

    def test_hk_equals_d(self, eq1):
        s = PhaseState([2.0], [1.0])
        assert poisson_bracket(eq1.H, eq1.K, s) == pytest.approx(2.0,
                                                                 abs=1e-9)

    def test_canonical_pairs(self):
        d = 3
        rng = np.random.default_rng(0)
        xs = [position_observable(i, d) for i in range(d)]
        ps = [momentum_observable(i, d) for i in range(d)]
        for _ in range(20):
            s = PhaseState(rng.uniform(-2, 2, d), rng.uniform(-2, 2, d))
            for i in range(d):
                for j in range(d):
                    assert abs(poisson_bracket(ps[i], xs[j], s)
                               - (1.0 if i == j else 0.0)) < 1e-12
                    assert abs(poisson_bracket(xs[i], xs[j], s)) < 1e-12
                    assert abs(poisson_bracket(ps[i], ps[j], s)) < 1e-12

    def test_antisymmetry(self, eq1):
        inv2 = models.build(models.spec("inverse-square", d=2, kappa=1.0))
        obs = [inv2.H, inv2.D, inv2.K, inv2.casimir, inv2.H * inv2.K]
        for s in model_states(inv2, 15, seed=3):
            for A in obs:
                for B in obs:
                    ab = poisson_bracket(A, B, s)
                    ba = poisson_bracket(B, A, s)
                    assert abs(ab + ba) < 1e-12 * max(1.0, abs(ab))

    def test_leibniz(self):
        inv2 = models.build(models.spec("inverse-square", d=2, kappa=1.0))
        A, B, C = inv2.H, inv2.D, inv2.K
        for s in model_states(inv2, 15, seed=4):
            lhs = poisson_bracket(A, B * C, s)
            rhs = (poisson_bracket(A, B, s) * C(s)
                   + B(s) * poisson_bracket(A, C, s))
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))

    def test_vector_observable_rejected(self):
        # a two-component observable would fill the one entry read here
        # with a bracket between its own components
        vec = Observable(1, lambda q, p: dual.stack([q[..., 0], p[..., 0]]))
        with pytest.raises(ValueError, match="two scalar observables"):
            poisson_bracket(vec, momentum_observable(0, 1),
                            PhaseState([0.5], [1.0]))


class TestVerlet:
    def test_free_particle_drift(self):
        free = models.build(models.spec("free", d=1))
        traj = integrate_verlet(free, PhaseState([0.0], [1.0]), 0.01, 1.0)
        assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)
        assert traj.qs[-1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_energy_drift_eq1(self, eq1):
        traj = integrate_verlet(eq1, PhaseState([1.0], [0.0]), 1e-3, 10.0)
        H = traj.monitors["H"]
        assert np.max(np.abs(H - H[0])) / abs(H[0]) < 1e-6

    def test_no_secular_drift(self):
        # the energy error band of the symplectic run stays bounded: the
        # late-window excursion does not exceed twice the early-window one
        for name, kwargs in (("inverse-square", dict(d=2, kappa=1.0)),
                             ("calogero", dict(n=3, g=1.0)),
                             ("higgs", dict(d=3, omega=1.0))):
            ms = models.spec(name, **kwargs)
            sys_ = models.build(ms)
            traj = integrate_verlet(sys_, models.reference_state(ms),
                                    1e-3, 10.0)
            H = traj.monitors["H"]
            half = len(H) // 2
            early = np.max(np.abs(H[:half] - H[0]))
            late = np.max(np.abs(H[half:] - H[0]))
            assert late <= 2.0 * early + 1e-12 * abs(H[0]), ms.label

    def test_closed_form_radius(self, eq1):
        s0 = PhaseState([1.0], [0.0])
        traj = integrate_verlet(eq1, s0, 1e-3, 10.0)
        rd = RadialData.from_state(eq1, s0)
        r2_exact = radial_squared(rd, traj.times)
        r2_num = np.sum(traj.qs ** 2, axis=1)
        rel = np.abs(r2_num - r2_exact) / np.maximum(1.0, np.abs(r2_exact))
        assert np.max(rel) < 1e-6

    def test_singularity_guard(self):
        c3 = models.calogero_relative(3, 1.0)
        with pytest.raises(SingularityApproachError) as err:
            integrate_verlet(c3, PhaseState([0.0, 1.0], [0.0, 0.0]),
                             1e-3, 1.0)
        assert err.value.last_good_time == 0.0

    def test_start_inside_the_guard_is_refused(self):
        # 5e-7 from the singular point, inside the 1e-6 guard that the
        # step loop applies: the run must not start
        weak = models.build(models.spec("inverse-square", d=2, kappa=1e-30))
        with pytest.raises(SingularityApproachError,
                           match="initial state") as err:
            integrate_verlet(weak, PhaseState([5e-7, 0.0], [1.0, 0.0]),
                             1e-6, 1e-5)
        assert err.value.last_good_time == 0.0

    def test_approach_reports_last_good_time(self):
        # radially infalling inverse-square with attractive coupling
        attractive = models.build(models.spec("inverse-square", d=1,
                                              kappa=-0.5))
        with pytest.raises(SingularityApproachError) as err:
            integrate_verlet(attractive, PhaseState([1.0], [-1.5]),
                             1e-4, 2.0)
        assert 0.0 < err.value.last_good_time < 2.0

    def test_bad_dt(self, eq1):
        with pytest.raises(ValueError):
            integrate_verlet(eq1, PhaseState([1.0], [0.0]), -0.1, 1.0)

    def test_t_end_must_be_a_multiple_of_dt(self, eq1):
        # 0.4 does not divide 1: the run would stop at t = 0.8
        with pytest.raises(ValueError, match="multiple of dt"):
            integrate_verlet(eq1, PhaseState([1.0], [0.0]), 0.4, 1.0)
        # 3 * 0.1 = 0.30000000000000004 is a multiple up to rounding
        traj = integrate_verlet(eq1, PhaseState([1.0], [0.0]), 0.1, 0.3)
        assert len(traj) == 4 and traj.times[-1] == pytest.approx(0.3)


class TestAdaptive:
    def test_harmonic_period(self):
        H = Observable(1, lambda q, p: 0.5 * (p[0] * p[0] + q[0] * q[0]))
        traj = integrate_adaptive(H, PhaseState([1.0], [0.0]), 1e-10,
                                  2 * np.pi, t_eval=[2 * np.pi])
        assert abs(traj.qs[-1, 0] - 1.0) < 1e-8
        assert abs(traj.ps[-1, 0]) < 1e-8

    def test_free_rotation_on_circle(self):
        sphere = SphericalSystem(d=2, U=lambda phi: 0.0)
        I = sphere.hamiltonian_observable()
        traj = integrate_adaptive(I, PhaseState([0.0], [1.0]), 1e-10, 1.0,
                                  t_eval=[1.0])
        assert traj.qs[-1, 0] == pytest.approx(1.0, abs=1e-10)
        assert traj.ps[-1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_verlet(self, eq1):
        s0 = PhaseState([1.0], [0.0])
        tv = integrate_verlet(eq1, s0, 1e-4, 1.0)
        ta = integrate_adaptive(eq1.H, s0, 1e-11, 1.0, t_eval=[1.0])
        assert abs(tv.qs[-1, 0] - ta.qs[-1, 0]) < 1e-6
        assert abs(tv.ps[-1, 0] - ta.ps[-1, 0]) < 1e-6

    def test_rtol_range(self, eq1):
        with pytest.raises(ValueError):
            integrate_adaptive(eq1.H, PhaseState([1.0], [0.0]), 1e-2, 1.0,
                               t_eval=[1.0])

    def test_step_underflow_near_collapse(self):
        attractive = models.build(models.spec("inverse-square", d=1,
                                              kappa=-2.0))
        with pytest.raises(StepUnderflowError) as err:
            integrate_adaptive(attractive.H, PhaseState([1.0], [-1.0]),
                               1e-10, 5.0, t_eval=[5.0],
                               singular_distance=attractive.singular_distance)
        assert 0.0 < err.value.t_reached < 5.0

    def test_start_inside_the_guard_is_refused(self):
        # 5e-7 from the singular point, inside the 1e-6 guard that the
        # step loop applies: the run must not start, as in integrate_verlet
        weak = models.build(models.spec("inverse-square", d=2, kappa=1e-20))
        s0 = PhaseState([5e-7, 0.0], [1.0, 0.0])
        with pytest.raises(StepUnderflowError,
                           match="initial state") as err:
            integrate_adaptive(weak.H, s0, 1e-10, 2e-3, t_eval=[2e-3],
                               singular_distance=weak.singular_distance)
        assert err.value.t_reached == 0.0
        assert err.value.state is s0

    def test_monitors_recorded(self, eq1):
        # the monitors evaluated on the rows of a grid
        traj = integrate_adaptive(eq1.H, PhaseState([1.0], [0.5]), 1e-10,
                                  1.0, t_eval=np.linspace(0.0, 1.0, 101))
        monitors = eq1.monitors()
        assert set(monitors) == {"H", "D", "K", "I"}
        H = monitors["H"].fn(traj.qs, traj.ps)
        assert np.max(np.abs(H - H[0])) < 1e-8


class TestDenseOutput:
    @pytest.fixture(scope="class")
    def coulomb(self):
        return models.build(models.spec("coulomb", d=3, gamma=1.0))

    def test_steps_do_not_depend_on_the_grid(self, coulomb):
        # the loop consults the singular guard once per accepted step
        s0 = PhaseState([1.0, 0.3, -0.2], [0.1, 0.8, 0.3])
        counts = []
        for t_eval in ([4.0], np.linspace(0.0, 4.0, 1001)[1:]):
            calls = []

            def guard(q):
                calls.append(q)
                return coulomb.singular_distance(q)
            integrate_adaptive(coulomb.H, s0, 1e-10, 4.0, t_eval=t_eval,
                               singular_distance=guard)
            counts.append(len(calls))
        assert counts[0] == counts[1]
        assert counts[0] < 200

    def test_times_are_the_targets(self, coulomb):
        s0 = PhaseState([1.0, 0.3, -0.2], [0.1, 0.8, 0.3])
        t_eval = np.sort(np.random.default_rng(2).uniform(0.0, 3.0, 257))
        traj = integrate_adaptive(coulomb.H, s0, 1e-10, 3.0, t_eval=t_eval)
        assert np.array_equal(traj.times, t_eval)
        # the allowed overshoot past t_end is filled from the last step
        t_end = 3.0 - 1e-13
        traj = integrate_adaptive(coulomb.H, s0, 1e-10, t_end,
                                  t_eval=[1.0, 3.0])
        assert traj.times.tolist() == [1.0, 3.0]

    def test_a_leading_zero_is_the_initial_state(self, coulomb):
        # one row per requested time with or without t = 0; the t = 0 row
        # is the initial state bit for bit (the dense formula at theta = 0
        # would turn its -0.0 entries into +0.0), and prepending it leaves
        # every other row as it was
        s0 = PhaseState([1.0, 0.3, -0.0], [0.1, 0.8, -0.0])
        grid = np.linspace(0.0, 3.0, 31)
        full, tail = (integrate_adaptive(coulomb.H, s0, 1e-10, 3.0,
                                         t_eval=g) for g in (grid, grid[1:]))
        assert np.array_equal(full.times, grid)
        assert np.array_equal(tail.times, grid[1:])
        assert full.qs[0].tobytes() == s0.q.tobytes()
        assert full.ps[0].tobytes() == s0.p.tobytes()
        assert full.qs[1:].tobytes() == tail.qs.tobytes()
        assert full.ps[1:].tobytes() == tail.ps.tobytes()

    def test_unreachable_target_raises(self, coulomb):
        # a t_end below 1e-14 leaves no step to take: only t = 0 is there
        s0 = PhaseState([1.0, 0.3, -0.2], [0.1, 0.8, 0.3])
        with pytest.raises(IncompleteResultError, match="5e-16"):
            integrate_adaptive(coulomb.H, s0, 1e-10, 1e-15,
                               t_eval=[5e-16, 1e-15])
        traj = integrate_adaptive(coulomb.H, s0, 1e-10, 1e-15, t_eval=[0.0])
        assert traj.times.tolist() == [0.0]

    @pytest.mark.parametrize("t_end,t_eval", [
        (np.nan, [1.0]), (np.inf, [1.0]), (1.0, []), (1.0, [0.5, 0.5]),
        (1.0, [-0.5, 1.0]), (1.0, [2.0]),
    ], ids=["nan-t_end", "inf-t_end", "empty", "repeated", "negative",
            "past-t_end"])
    def test_bad_times_rejected(self, coulomb, t_end, t_eval):
        s0 = PhaseState([1.0, 0.3, -0.2], [0.1, 0.8, 0.3])
        with pytest.raises(ValueError, match="t_end|t_eval"):
            integrate_adaptive(coulomb.H, s0, 1e-10, t_end, t_eval=t_eval)

    def test_rows_meet_the_rtol_contract(self, catalog_specs):
        # every row within 20 rtol (1 + |y|) of an rtol 1e-13 run, up to
        # t = 20, on seeded states of the catalog and of an attractive
        # system with close approaches (8.5x here; 16x at worst over 45
        # seeded states, as large as the error at the steps themselves)
        rtol = 1e-10
        specs = [*catalog_specs, models.spec("inverse-square", d=2,
                                             kappa=-1.0)]
        grid = np.linspace(0.0, 20.0, 101)[1:]
        worst = 0.0
        checked = 0
        for ms in specs:
            sys_ = models.build(ms)
            for s0 in model_states(sys_, 2, seed=11):
                try:
                    runs = [integrate_adaptive(
                        sys_.H, s0, tol, 20.0, t_eval=grid,
                        singular_distance=sys_.singular_distance)
                        for tol in (rtol, 1e-13)]
                except StepUnderflowError:
                    continue  # collapses before t = 20
                y, ref = (np.hstack([tr.qs, tr.ps]) for tr in runs)
                worst = max(worst, np.max(np.abs(y - ref)
                                          / (rtol * (1.0 + np.abs(ref)))))
                checked += 1
        assert checked >= 14
        assert worst <= 20.0, worst
