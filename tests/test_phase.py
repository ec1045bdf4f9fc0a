"""Bracket engine, gradients, and reference integrators."""

import dataclasses
import functools
import hashlib
import itertools
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import confmech.dual as dual
from confmech import models
from confmech.cli import trajectory_csv
from confmech.conformal import build_system
from confmech.errors import (
    ConfmechError,
    DomainError,
    IncompleteResultError,
    NonFiniteError,
    SingularityApproachError,
    StepUnderflowError,
)
from confmech.phase import (
    _SINGULAR_GUARD,
    Observable,
    PhaseState,
    Trajectory,
    _grad_arrays,
    _monitor_rows,
    brackets,
    grad,
    grad_finite_difference,
    integrate_adaptive,
    integrate_verlet,
    poisson_bracket,
    verlet_steps,
)
from confmech.radial import RadialData, radial_squared
from confmech.reduction import SphericalSystem

from conftest import model_states, sphere_hamiltonian
from identity_corpus import GUARD_MODELS, infalling_states


def position_observable(i: int, d: int) -> Observable:
    def gfn(q, p, _i=i, _d=d):
        dq = np.zeros(_d)
        dq[_i] = 1.0
        return dq, np.zeros(_d)
    return Observable(d, lambda q, p: q[i], grad_fn=gfn, name=f"x{i}")


def product(A: Observable, B: Observable) -> Observable:
    """The pointwise product A B, for the Leibniz rule."""
    return Observable(A.dim, lambda q, p: A.fn(q, p) * B.fn(q, p),
                      name=f"({A.name}*)", vectorized=True)


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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan],
                             ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("side", ["q", "p"])
    def test_nonfinite_entry_raises(self, bad, side):
        q, p = [1.0, -2.0, 0.5], [0.25, 3.0, -1.0]
        (q if side == "q" else p)[1] = bad
        with pytest.raises(NonFiniteError,
                           match="phase state has non-finite entries"):
            PhaseState(q, p)

    @pytest.mark.parametrize("q, p", [
        ([1.0], [1.0, 2.0]),
        ([1.0, 2.0, 3.0], [1.0, 2.0]),
        ([], []),
        ([[1.0, 2.0]], [[3.0, 4.0]]),
        (np.zeros((2, 2)), np.zeros((2, 2))),
        ([1.0, 2.0], [[1.0, 2.0]]),
    ], ids=["1-vs-2", "3-vs-2", "empty", "2d-row", "2d-square", "1d-vs-2d"])
    def test_bad_shape_raises(self, q, p):
        with pytest.raises(ValueError, match=r"^q and p must be equal-length "
                                             r"vectors, d >= 1$"):
            PhaseState(q, p)

    def test_scalar_is_one_dimensional(self):
        for q, p in [(1.5, -2.0), (np.float64(1.5), np.array(-2.0))]:
            s = PhaseState(q, p)
            assert s.d == 1
            assert s.q.shape == s.p.shape == (1,)
            assert s.q.tolist() == [1.5] and s.p.tolist() == [-2.0]

    def test_int_entries_become_float64(self):
        s = PhaseState([1, -2], np.array([3, 4], dtype=np.int32))
        assert s.q.dtype == s.p.dtype == np.float64
        assert s.q.tolist() == [1.0, -2.0] and s.p.tolist() == [3.0, 4.0]

    def test_float64_vector_is_stored_uncopied(self):
        q, p = np.array([1.0, 2.0]), np.array([0.5, -1.0])
        s = PhaseState(q, p)
        assert s.q is q and s.p is p

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda d: st.tuples(
        *[hnp.arrays(np.float64, d, elements=st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([1e308, -1e308, 5e-324, -5e-324, -0.0,
                             np.finfo(float).max])))] * 2)))
    def test_finite_vectors_are_stored_bit_for_bit(self, qp):
        # q arrives as a list (converted), p as a float64 array (kept)
        q, p = qp
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = PhaseState(q.tolist(), p)
        assert s.d == len(q)
        assert s.q.tobytes() == q.tobytes()
        assert s.p is p

    def test_trajectory_invariants(self):
        with pytest.raises(ValueError):
            Trajectory([0.0, 0.0], np.zeros((2, 1)), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            Trajectory([0.0, 1.0], np.zeros((3, 1)), np.zeros((3, 1)))
        with pytest.raises(ValueError, match="monitor 'H' length mismatch"):
            Trajectory([0.0, 1.0], np.zeros((2, 1)), np.zeros((2, 1)),
                       {"H": [1.0]})
        tr = Trajectory([0.0, 1.0], np.zeros((2, 1)), np.zeros((2, 1)),
                        {"H": [1.0, 1.0]})
        assert len(tr) == 2 and tr.qs[1].shape == tr.ps[1].shape == (1,)

    def test_trajectory_leaves_the_callers_monitors(self):
        m = {"H": [1.0, 1.0], "I": (0.5, 0.5)}
        tr = Trajectory([0.0, 1.0], np.zeros((2, 1)), np.zeros((2, 1)), m)
        assert tr.monitors is not m
        assert m == {"H": [1.0, 1.0], "I": (0.5, 0.5)}
        assert type(m["H"]) is list and type(m["I"]) is tuple
        assert all(type(v) is np.ndarray and v.dtype == float
                   for v in tr.monitors.values())
        npt.assert_array_equal(tr.monitors["H"], [1.0, 1.0])


class TestGrad:
    def test_eq1_hamiltonian(self, eq1):
        dq, dp = grad(eq1.H, np.array([2.0]), np.array([1.0]))
        npt.assert_allclose(dq, [-0.125], atol=1e-14)
        npt.assert_allclose(dp, [1.0], atol=1e-14)

    def test_boost_gradient(self, eq1):
        free = models.build(models.spec("free", d=2))
        dq, dp = grad(free.K, np.array([3.0, 4.0]), np.array([0.7, -0.2]))
        npt.assert_allclose(dq, [3.0, 4.0], atol=1e-14)
        npt.assert_allclose(dp, [0.0, 0.0], atol=1e-14)

    def test_dilatation_gradient(self):
        free = models.build(models.spec("free", d=2))
        dq, dp = grad(free.D, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        npt.assert_allclose(dq, [0.0, 1.0], atol=1e-14)
        npt.assert_allclose(dp, [1.0, 0.0], atol=1e-14)

    def test_nonfinite_raises(self, eq1):
        from confmech.errors import DomainError
        with pytest.raises(DomainError):
            grad(eq1.H, np.array([0.0]), np.array([1.0]))  # exactly singular
        blows_up = Observable(1, lambda q, p: 1e400)  # overflows to inf
        with pytest.raises(NonFiniteError):
            grad(blows_up, np.array([1.0]), np.array([1.0]))

    def test_call_raises_where_the_value_is_not_finite(self):
        s = PhaseState([1.0], [0.0])
        blows_up = Observable(1, lambda q, p: math.inf, name="f")
        with pytest.raises(NonFiniteError,
                           match="observable f is not finite") as err:
            blows_up(s)
        assert err.value.state is s

    def test_gradient_not_finite_at_a_finite_value(self):
        # the value is finite at every row, the analytic gradient is not at
        # row 1: grad names the gradient and reports that row's state
        obs = Observable(1, lambda q, p: q[..., 0],
                         grad_fn=lambda q, p: (1.0 / np.abs(q), 0.0 * p),
                         name="g", vectorized=True)
        Q, P = np.array([[1.0], [0.0], [2.0]]), np.zeros((3, 1))
        with np.errstate(divide="ignore"), \
                pytest.raises(NonFiniteError,
                              match="gradient of g is not finite") as err:
            grad(obs, Q, P)
        assert err.value.state.q.tolist() == [0.0]

    def test_rows_raise_at_the_first_bad_row(self):
        # row 3 overflows H (kappa / r^2 with r^2 = 1e-320): the rows table
        # raises grad's own error at that state, as the per-state path does
        sys_ = models.build(models.spec("inverse-square", d=2, kappa=1.0))
        Q = np.array([[1.0, 0.5], [0.3, -1.2], [-0.7, 0.9], [1e-160, 0.0],
                      [2.0, 1.0]])
        P = np.array([[0.2, 0.1], [1.0, 0.0], [-0.4, 0.3], [0.5, 0.5],
                      [0.0, -1.0]])
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError) as want:
                grad(sys_.H, Q[3], P[3])
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
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError) as want:
                grad(vec, Q[3], P[3])
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
            grad(obs, s.q, s.p)
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
                    dq_a, dp_a = grad(obs, s.q, s.p)
                    dq_d, dp_d = grad(stripped, s.q, s.p)
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
        obs = [inv2.H, inv2.D, inv2.K, inv2.casimir, product(inv2.H, inv2.K)]
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
            lhs = poisson_bracket(A, product(B, C), s)
            rhs = (poisson_bracket(A, B, s) * C(s)
                   + B(s) * poisson_bracket(A, C, s))
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("ms", [
        models.spec("inverse-square", d=2, kappa=1.0),
        models.spec("coulomb", d=3, gamma=1.0),
        models.spec("calogero", n=4),
    ], ids=lambda ms: ms.label)
    def test_table_is_the_pair_loop(self, ms):
        # the table takes each dot product once, {A_j, A_k} = X[j, k] -
        # X[k, j] with X[j, k] = dA_j/dp . dA_k/dq; the reference is the
        # pair-by-pair loop with both dot products of every entry, equal
        # bit for bit (the sign of an exact zero too) at points and on rows
        sys_ = models.build(ms)
        d = sys_.d
        obs = [sys_.H, sys_.D, sys_.K, sys_.casimir,
               position_observable(0, d), momentum_observable(d - 1, d)]
        states = model_states(sys_, 12, seed=5)
        Q = np.array([s.q for s in states])
        P = np.array([s.p for s in states])
        for args in [(Q, P), *((s,) for s in states)]:
            Qs, Ps = (args[0].q, args[0].p) if len(args) == 1 else args
            dot = np.vecdot if Qs.ndim == 2 else np.dot
            grads = [grad(A, Qs, Ps) for A in obs]
            want = np.zeros(Qs.shape[:-1] + (len(obs), len(obs)))
            for (j, (dqj, dpj)), (k, (dqk, dpk)) in itertools.product(
                    enumerate(grads), repeat=2):
                if j != k:
                    want[..., j, k] = dot(dpj, dqk) - dot(dqj, dpk)
            assert brackets(obs, *args).tobytes() == want.tobytes()

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

    def test_guard_outcomes_pinned(self):
        # every guard decision on infalling runs, pinned: the error, its
        # last good time and state bits, or the CSV of a run that finishes
        # (27 of the 60 runs stop at the guard)
        h = hashlib.sha256()
        for name, kwargs in GUARD_MODELS:
            sys_ = models.build(models.spec(name, **kwargs))
            for s0, dt in itertools.product(
                    infalling_states(sys_, 3, seed=7), (1e-3, 0.05)):
                try:
                    traj = integrate_verlet(sys_, s0, dt, 1.0)
                except SingularityApproachError as err:
                    h.update(f"{type(err).__name__}: {err}\n"
                             f"{err.last_good_time!r}\n".encode())
                    h.update(err.state.q.tobytes() + err.state.p.tobytes())
                else:
                    h.update(trajectory_csv(traj).encode())
        assert h.hexdigest() == ("016a512db1f639979dbff265388d4146"
                                 "c9237907df1ed55af3bc0b939ce15afa")

    def test_error_state_is_the_last_good_row(self):
        # the state a guard stop reports is, bit for bit, the last row of
        # the run cut at its last good time, and a copy that holds no
        # output buffer alive
        stops = 0
        for name, kwargs in GUARD_MODELS:
            sys_ = models.build(models.spec(name, **kwargs))
            for s0, dt in itertools.product(
                    infalling_states(sys_, 3, seed=7), (1e-3, 0.05)):
                try:
                    integrate_verlet(sys_, s0, dt, 1.0)
                except SingularityApproachError as err:
                    stops += 1
                    t = err.last_good_time
                    run = integrate_verlet(sys_, s0, dt, t) if t else None
                    last = PhaseState(run.qs[-1], run.ps[-1]) if t else s0
                    assert err.state.q.tobytes() == last.q.tobytes(), name
                    assert err.state.p.tobytes() == last.p.tobytes(), name
                    assert err.state.q.base is None, name
                    assert err.state.p.base is None, name
        assert stops == 27

    def test_overflowing_gradient_without_a_guard(self):
        # no singular_distance, and a gradient that overflows to -inf
        # (numpy's overflow warning silenced): the position check raises
        V = models.potential(models.spec("inverse-square", d=1,
                                         kappa=1e300))
        unguarded = build_system(V, 1)
        with np.errstate(over="ignore"), pytest.raises(
                NonFiniteError, match="position became non-finite"):
            integrate_verlet(unguarded, PhaseState([1e-3], [0.0]),
                             1e-3, 1.0)

    @pytest.mark.parametrize("dt,t_end", [
        (-0.1, 1.0), (math.inf, 10.0), (math.nan, 1.0), (1e-3, math.inf),
        (1e-3, math.nan)],
        ids=["negative-dt", "inf-dt", "nan-dt", "inf-t_end", "nan-t_end"])
    def test_bad_dt(self, eq1, dt, t_end):
        # a non-finite dt or t_end is refused before any step
        with pytest.raises(ValueError):
            integrate_verlet(eq1, PhaseState([1.0], [0.0]), dt, t_end)

    def test_t_end_must_be_a_multiple_of_dt(self, eq1):
        # 0.4 does not divide 1: the run would stop at t = 0.8
        with pytest.raises(ValueError, match="multiple of dt"):
            integrate_verlet(eq1, PhaseState([1.0], [0.0]), 0.4, 1.0)
        # 3 * 0.1 = 0.30000000000000004 is a multiple up to rounding
        traj = integrate_verlet(eq1, PhaseState([1.0], [0.0]), 0.1, 0.3)
        assert len(traj) == 4 and traj.times[-1] == pytest.approx(0.3)


def _stepwise_verlet(system, s0, dt, t_end):
    """The Verlet flow with its guard and finiteness test after every
    step, as integrate_verlet ran before it checked them per block (a NaN
    distance at a finite position a stop): the reference the blocked loop
    is held to, bit for bit."""
    n_steps = verlet_steps(dt, t_end)
    V = system.V
    sdist = system.singular_distance
    if sdist is not None and not sdist(s0.q) >= _SINGULAR_GUARD:
        raise SingularityApproachError(
            "initial state is inside the singular exclusion zone",
            last_good_time=0.0, state=s0)
    ts = dt * np.arange(n_steps + 1)
    qs = np.empty((n_steps + 1, s0.d))
    ps = np.empty((n_steps + 1, s0.d))
    qs[0], ps[0] = s0.q, s0.p
    q, p = qs[0], ps[0]
    half_dt = 0.5 * dt
    kick = half_dt * _grad_arrays(V, q, p)[0]
    t = 0.0
    step = math.nan
    for k in range(1, n_steps + 1):
        p_half = p - kick
        q_new = np.add(q, dt * p_half, out=qs[k])
        if sdist is not None:
            dist = sdist(q_new)
            move = q_new - q
            step = math.sqrt(move.dot(move))
            if dist < _SINGULAR_GUARD or step > 0.9 * dist or (
                    math.isnan(dist) and np.isfinite(q_new).all()):
                raise SingularityApproachError(
                    "trajectory entered the singular exclusion zone near "
                    f"t={t:.6g}", last_good_time=t,
                    state=PhaseState(q.copy(), p.copy()))
        if not math.isfinite(step) and not np.isfinite(q_new).all():
            raise NonFiniteError("position became non-finite during Verlet "
                                 f"integration near t={t:.6g}")
        q = q_new
        kick = half_dt * _grad_arrays(V, q, p_half)[0]
        p = np.subtract(p_half, kick, out=ps[k])
        t = k * dt
    return Trajectory(ts, qs, ps, _monitor_rows(system.monitors(), ts, qs, ps))


def _verlet_outcome(integrate, system, s0, dt, t_end):
    """A run's result as bytes: the error's type, message, last good time
    and state, or the times, rows and monitors of its trajectory."""
    try:
        traj = integrate(system, s0, dt, t_end)
    except (DomainError, NonFiniteError, SingularityApproachError) as err:
        state = err.state if hasattr(err, "state") else None
        return (type(err).__name__, str(err),
                repr(getattr(err, "last_good_time", None)),
                None if state is None else (state.q.tobytes(),
                                            state.p.tobytes()))
    return (traj.times.tobytes(), traj.qs.tobytes(), traj.ps.tobytes(),
            [(key, val.tobytes()) for key, val in traj.monitors.items()])


@functools.lru_cache(maxsize=None)
def _guard_system(index):
    name, kwargs = GUARD_MODELS[index]
    return models.build(models.spec(name, **kwargs))


def _point_distance(sys_):
    """``sys_`` with its singular distance stripped of the ``rows`` form,
    and the list its point calls append to."""
    calls = []

    def point(q):
        calls.append(None)
        return sys_.singular_distance(q)
    return dataclasses.replace(sys_, singular_distance=point), calls


class TestBlockedVerlet:
    """integrate_verlet checks its guard once per block of 256 rows; every
    result must be bit for bit that of the loop checking after each step."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("rows", [True, False],
                             ids=["rows-form", "point-calls"])
    def test_matches_the_stepwise_loop(self, rows, data):
        # catalog states 0.3 to 2 from the origin, falling in at up to
        # speed 4 with a sideways kick, at step sizes from resolved to
        # coarse over up to four blocks: finished runs and stops alike
        sys_ = _guard_system(data.draw(st.integers(0, len(GUARD_MODELS) - 1)))
        unit = hnp.arrays(float, sys_.d, elements=st.floats(-1.0, 1.0))
        u = data.draw(unit)
        assume(u @ u > 0.01)
        q = data.draw(st.floats(0.3, 2.0)) * u / math.sqrt(u @ u)
        assume(sys_.singular_distance(q) >= 1e-3)
        speed = data.draw(st.floats(0.0, 4.0))
        s0 = PhaseState(q, -speed * u / math.sqrt(u @ u)
                        + 0.25 * data.draw(unit))
        dt = data.draw(st.sampled_from((1e-3, 4e-3, 0.01, 0.03, 0.1)))
        n_steps = data.draw(st.integers(1, 1000))
        if rows:
            blocked = stepwise = sys_
        else:
            blocked, blocked_calls = _point_distance(sys_)
            stepwise, stepwise_calls = _point_distance(sys_)
        assert _verlet_outcome(integrate_verlet, blocked, s0, dt,
                               n_steps * dt) == \
            _verlet_outcome(_stepwise_verlet, stepwise, s0, dt, n_steps * dt)
        if not rows:
            # the point calls stop at the first stopping row
            assert len(blocked_calls) == len(stepwise_calls)

    @pytest.mark.parametrize("rows", [True, False],
                             ids=["rows-form", "point-calls"])
    def test_guard_outcomes_match_the_stepwise_loop(self, rows):
        # the pinned guard runs, each also with its distance's rows form
        # removed: same outcome and, without it, the same point calls
        stops = 0
        for index in range(len(GUARD_MODELS)):
            sys_ = _guard_system(index)
            for s0, dt in itertools.product(
                    infalling_states(sys_, 3, seed=7), (1e-3, 0.05)):
                blocked, blocked_calls = _point_distance(sys_)
                stepwise, stepwise_calls = _point_distance(sys_)
                if rows:
                    blocked = stepwise = sys_
                got = _verlet_outcome(integrate_verlet, blocked, s0, dt, 1.0)
                assert got == _verlet_outcome(_stepwise_verlet, stepwise,
                                              s0, dt, 1.0)
                assert len(blocked_calls) == len(stepwise_calls)
                stops += got[0] == "SingularityApproachError"
        assert stops == 27

    @staticmethod
    def _raising_gradient(sys_, at):
        """``sys_`` with a potential gradient that raises DomainError on
        its call number ``at`` (the initial kick is call 0, step k's
        gradient call k)."""
        calls = []
        dV = sys_.V.grad_fn

        def grad_fn(q, p):
            calls.append(None)
            if len(calls) - 1 == at:
                raise DomainError(f"gradient refused call {at}")
            return dV(q, p)
        V = Observable(sys_.d, sys_.V.fn, grad_fn=grad_fn, vectorized=True)
        return dataclasses.replace(sys_, V=V)

    @pytest.mark.parametrize("at", [0, 1, 131, 133, 134, 137, 255, 300])
    def test_gradient_error_after_a_stop_yields_to_it(self, at):
        # this run's guard stops at step 134: a gradient error at a later
        # step of the same block (computed past the stop) gives the stop,
        # and one at step 133 or before propagates, as it does when the
        # guard is checked after each step
        sys_ = models.build(models.spec("inverse-square", d=1, kappa=-0.5))
        s0 = PhaseState([1.0], [-1.5])
        got = _verlet_outcome(integrate_verlet,
                              self._raising_gradient(sys_, at), s0, 3e-3,
                              0.9)
        assert got == _verlet_outcome(_stepwise_verlet,
                                      self._raising_gradient(sys_, at), s0,
                                      3e-3, 0.9)
        assert got[0] == ("DomainError" if at < 134
                          else "SingularityApproachError")
        if at < 134:
            assert got[1] == f"gradient refused call {at}"
        else:
            assert got[2] == repr(133 * 3e-3)

    def test_malformed_first_kick_raises_before_any_row(self):
        # a first gradient of the wrong shape fails step 1 before it
        # writes its row, which is then not checked
        sys_ = models.build(models.spec("inverse-square", d=1, kappa=0.5))
        V = Observable(1, sys_.V.fn, grad_fn=lambda q, p: (
            np.ones(2), np.zeros(2)), vectorized=True)
        bad = dataclasses.replace(sys_, V=V)
        for integrate in (integrate_verlet, _stepwise_verlet):
            with pytest.raises(ValueError, match="broadcast"):
                integrate(bad, PhaseState([1.0], [0.0]), 1e-3, 1.0)

    def test_steps_past_a_stop_raise_no_warning(self):
        # a guarded escape stops at step 1, its step longer than 0.9 of
        # its distance; the block's later steps overflow (the gradient's
        # |q|**4 first), which raises under warnings-as-errors in a loop
        # without np.errstate, but not here
        sys_ = models.build(models.spec("inverse-square", d=2, kappa=0.5))
        s0 = PhaseState([1.0, 0.0], [1e151, 0.0])
        unguarded = dataclasses.replace(sys_, singular_distance=None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="overflow"):
                _stepwise_verlet(unguarded, s0, 0.1, 5.0)
            got = _verlet_outcome(integrate_verlet, sys_, s0, 0.1, 5.0)
            assert got == _verlet_outcome(_stepwise_verlet, sys_, s0, 0.1,
                                          5.0)
        assert got[:3] == ("SingularityApproachError",
                           "trajectory entered the singular exclusion zone "
                           "near t=0", "0.0")
        # nor is a warning shown when warnings are not errors
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            assert _verlet_outcome(integrate_verlet, sys_, s0, 0.1,
                                   5.0) == got
        assert shown == []

    def test_guard_comes_before_finiteness(self):
        # a higgs step whose x overflows to inf keeps x_3 = 1: the row is
        # not finite, and its infinite step is longer than 0.9 of its
        # distance, so the guard stops the run, as it does step by step
        sys_ = models.build(models.spec("higgs", d=3, omega=1.0))
        s0 = PhaseState([1.0, 0.4, 1.0], [1e308, 0.0, 0.0])
        with np.errstate(all="ignore"):
            want = _verlet_outcome(_stepwise_verlet, sys_, s0, 10.0, 100.0)
        assert want[:3] == ("SingularityApproachError",
                            "trajectory entered the singular exclusion zone "
                            "near t=0", "0.0")
        assert _verlet_outcome(integrate_verlet, sys_, s0, 10.0,
                               100.0) == want

    @pytest.mark.parametrize("rows", [True, False],
                             ids=["rows-form", "point-calls"])
    def test_nan_distance_stops(self, rows):
        # step 1 moves x_3 to 1e155, which squares past the largest float:
        # the coulomb distance is NaN at that finite row, and the guard
        # stops there rather than running on to a non-finite position
        sys_ = models.build(models.spec("coulomb", d=3, gamma=1.0))
        if not rows:
            sys_, _ = _point_distance(sys_)
        s0 = PhaseState([1.0, 0.0, 0.3], [0.0, 0.0, 1e157])
        with np.errstate(all="ignore"):
            got = _verlet_outcome(integrate_verlet, sys_, s0, 0.01, 1.0)
            assert got == _verlet_outcome(_stepwise_verlet, sys_, s0, 0.01,
                                          1.0)
        assert got[:3] == ("SingularityApproachError",
                           "trajectory entered the singular exclusion zone "
                           "near t=0", "0.0")

    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(1, 6), data=st.data())
    def test_vecdot_step_lengths_match_the_point_formula(self, d, data):
        # the guard's step lengths on rows equal math.sqrt(m.dot(m)) of
        # each row bit for bit, overflow to inf included: every guard
        # decision rests on it
        M = data.draw(hnp.arrays(float, (data.draw(st.integers(1, 20)), d),
                                 elements=st.floats(allow_nan=False,
                                                    allow_infinity=False)))
        with np.errstate(over="ignore"):
            rows = np.sqrt(np.vecdot(M, M))
            point = [math.sqrt(m.dot(m)) for m in M]
        assert rows.tobytes() == np.array(point).tobytes()


class TestAdaptive:
    def test_harmonic_period(self):
        H = Observable(1, lambda q, p: 0.5 * (p[0] * p[0] + q[0] * q[0]))
        traj = integrate_adaptive(H, PhaseState([1.0], [0.0]), 1e-10,
                                  2 * np.pi, t_eval=[2 * np.pi])
        assert abs(traj.qs[-1, 0] - 1.0) < 1e-8
        assert abs(traj.ps[-1, 0]) < 1e-8

    def test_free_rotation_on_circle(self):
        sphere = SphericalSystem(d=2, U=lambda phi: 0.0)
        I = sphere_hamiltonian(sphere)
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

    def test_step_underflow_without_a_guard(self):
        # attractive inverse-square from q = 1, p = -1 falls into the
        # origin at t = 1/3; with no guard the step size collapses there
        attractive = models.build(models.spec("inverse-square", d=1,
                                              kappa=-2.0))
        with pytest.raises(StepUnderflowError,
                           match="step size underflow") as err:
            integrate_adaptive(attractive.H, PhaseState([1.0], [-1.0]),
                               1e-10, 5.0, t_eval=[5.0])
        assert err.value.t_reached == pytest.approx(1.0 / 3.0, abs=1e-5)
        assert err.value.state.q[0] < 1e-3

    def test_guard_stops_at_a_distance_past_overflow(self):
        # x_d = 1e157 squares past the largest float, so the coulomb
        # distance is NaN there: the guard counts it as inside the zone
        coulomb = models.build(models.spec("coulomb", d=3, gamma=1.0))
        s0 = PhaseState([1.0, 0.0, 1e157], [0.0, 1.0, 0.0])
        with np.errstate(all="ignore"), \
                pytest.raises(StepUnderflowError,
                              match="initial state is inside") as err:
            integrate_adaptive(coulomb.H, s0, 1e-10, 1.0, t_eval=[1.0],
                               singular_distance=coulomb.singular_distance)
        assert err.value.t_reached == 0.0

    def test_no_step_jumps_the_singular_set(self):
        # the exact path turns back at r = 1.4e-10, inside the 1e-6 guard;
        # one step from r = 1e-3 must not land on the far side at -1e-3
        weak = models.build(models.spec("inverse-square", d=2, kappa=1e-20))
        with pytest.raises(StepUnderflowError, match="exclusion zone") as err:
            integrate_adaptive(weak.H, PhaseState([1e-3, 0.0], [-1.0, 0.0]),
                               1e-10, 2e-3, t_eval=[2e-3],
                               singular_distance=weak.singular_distance)
        assert err.value.state.q[0] > 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.lists(
               st.floats(-1.0, 1.0), min_size=d, max_size=d)),
           st.floats(1e-3, 1.0), st.floats(0.5, 3.0),
           st.floats(-20.0, -14.0), st.sampled_from([1e-10, 1e-8, 1e-6]))
    def test_guarded_run_at_the_origin_never_crosses(self, n, r0, speed,
                                                      log_kappa, rtol):
        # aimed straight at the origin, the exact path turns back inside the
        # guard, so a row past the origin (q . q0 < 0) is a jumped step
        n = np.array(n)
        norm = math.sqrt(n.dot(n))
        assume(norm > 0.1)
        n /= norm
        sys_ = models.build(models.spec("inverse-square", d=len(n),
                                        kappa=10.0 ** log_kappa))
        q0 = r0 * n
        t_eval = np.linspace(0.0, 2.0 * r0 / speed, 21)[1:]
        try:
            traj = integrate_adaptive(
                sys_.H, PhaseState(q0, -speed * n), rtol, t_eval[-1],
                t_eval=t_eval, singular_distance=sys_.singular_distance)
        except StepUnderflowError:
            return
        assert np.all(traj.qs @ q0 > 0.0)

    @pytest.mark.parametrize("fault", ["DomainError", "NonFiniteError",
                                       "non-finite"])
    def test_a_failed_stage_is_retried_at_a_quarter_step(self, fault):
        # H = p^2/2 from q = 0, p = 1, whose gradient fails once, at the
        # second stage of the first step (by raising either error the
        # retry catches, or by returning NaN): the step restarts from the
        # same state at a quarter of its size, and the run goes on
        seen = []

        def gfn(q, p):
            seen.append(float(q[0]))
            if len(seen) == 3:  # the initial field, stage 1, stage 2
                if fault == "DomainError":
                    raise DomainError("stage past the domain")
                if fault == "NonFiniteError":
                    raise NonFiniteError("stage not finite")
                return np.zeros(1), np.array([math.nan])
            return np.zeros(1), p.copy()

        H = Observable(1, lambda q, p: 0.5 * p[0] * p[0], grad_fn=gfn,
                       name="free")
        traj = integrate_adaptive(H, PhaseState([0.0], [1.0]), 1e-10, 1.0,
                                  t_eval=[1.0])
        # stage 1 of the first try sits at q = h/5, and of the retry at
        # (h/4)/5, exactly a quarter of it
        assert seen[1] > 0.0 and seen[1] == 4.0 * seen[3]
        assert traj.qs[-1, 0] == pytest.approx(1.0, rel=1e-12)
        assert traj.ps[-1, 0] == 1.0

    def test_non_finite_initial_field_raises(self):
        H = Observable(1, lambda q, p: 0.5 * p[0] * p[0],
                       grad_fn=lambda q, p: (np.array([math.inf]), p.copy()),
                       name="H")
        s0 = PhaseState([1.0], [0.0])
        with pytest.raises(NonFiniteError,
                           match="vector field not finite") as err:
            integrate_adaptive(H, s0, 1e-10, 1.0, t_eval=[1.0])
        assert err.value.state is s0

    def test_step_budget(self, monkeypatch):
        # a budget of 10 steps runs out on the oscillator's way to t = 10,
        # and the error reports the last accepted state on its exact path
        monkeypatch.setattr("confmech.phase._MAX_STEPS", 10)
        H = Observable(1, lambda q, p: 0.5 * (p[0] * p[0] + q[0] * q[0]))
        with pytest.raises(StepUnderflowError,
                           match="step budget exhausted") as err:
            integrate_adaptive(H, PhaseState([1.0], [0.0]), 1e-10, 10.0,
                               t_eval=[10.0])
        t = err.value.t_reached
        assert 0.0 < t < 10.0
        assert err.value.state.q[0] == pytest.approx(math.cos(t), abs=1e-9)
        assert err.value.state.p[0] == pytest.approx(-math.sin(t), abs=1e-9)

    def test_zero_error_grows_the_step_fivefold(self, monkeypatch):
        # the free model at rest: every step is exact (error 0), so from
        # the initial 1e-3 each step is 5 times the last, with no division
        # by the zero error; t = 1 takes 6 steps, the last one cut short
        free = models.build(models.spec("free", d=1))
        s0 = PhaseState([1.0], [0.0])
        monkeypatch.setattr("confmech.phase._MAX_STEPS", 6)
        with np.errstate(all="raise"):
            traj = integrate_adaptive(free.H, s0, 1e-10, 1.0,
                                      t_eval=[0.5, 1.0])
        assert traj.qs.tolist() == [[1.0], [1.0]]
        assert traj.ps.tolist() == [[0.0], [0.0]]
        monkeypatch.setattr("confmech.phase._MAX_STEPS", 5)
        with pytest.raises(StepUnderflowError,
                           match="step budget exhausted") as err:
            integrate_adaptive(free.H, s0, 1e-10, 1.0, t_eval=[1.0])
        assert err.value.t_reached == pytest.approx(
            0.001 + 0.005 + 0.025 + 0.125 + 0.625, rel=1e-15)

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
