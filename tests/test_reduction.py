"""Hyperspherical chart: round trips, canonicity, metric, angular data."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from confmech import dual, models
from confmech.conformal import casimir_I
from confmech.errors import ChartSingularError, NotHomogeneousError
from confmech.phase import PhaseState, brackets, grad, integrate_adaptive
from confmech.reduction import (
    ReducedState,
    angular_potential,
    from_hyperspherical,
    hyperspherical_rows,
    sphere_metric_diag,
    spherical_energy,
    spherical_system_from,
    to_hyperspherical,
)

from conftest import (
    chart_interior,
    chart_observable,
    model_states,
    sphere_hamiltonian,
)


class TestChart:
    def test_circle_state(self):
        rs = to_hyperspherical(PhaseState([1.0, 0.0], [0.0, 1.0]))
        assert rs.r == pytest.approx(1.0)
        assert rs.p_r == pytest.approx(0.0)
        npt.assert_allclose(rs.phi, [0.0], atol=1e-15)
        npt.assert_allclose(rs.pi, [1.0], atol=1e-15)

    def test_sphere_state(self):
        rs = to_hyperspherical(PhaseState([2.0, 0.0, 0.0], [0.0, 1.0, 0.0]))
        assert rs.r == pytest.approx(2.0)
        assert rs.p_r == pytest.approx(0.0)
        npt.assert_allclose(rs.phi, [np.pi / 2, 0.0], atol=1e-15)
        npt.assert_allclose(rs.pi, [0.0, 2.0], atol=1e-15)

    def test_pole_raises(self):
        with pytest.raises(ChartSingularError):
            to_hyperspherical(PhaseState([0.0, 0.0, 2.0], [0.0, 0.0, 0.0]))

    def test_origin_raises(self):
        Q = np.array([[1.0, 0.5], [0.0, 0.0]])
        with pytest.raises(ChartSingularError, match="origin"):
            hyperspherical_rows(Q, np.ones_like(Q))
        with pytest.raises(ChartSingularError, match="origin"):
            to_hyperspherical(PhaseState([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_reduced_state_needs_positive_r(self, r):
        with pytest.raises(ValueError, match="r must be positive"):
            ReducedState(r=r, p_r=0.0, phi=[0.5, 0.0], pi=[0.0, 0.0])

    def test_reduced_state_needs_one_momentum_per_angle(self):
        with pytest.raises(ValueError, match="equal length"):
            ReducedState(r=1.0, p_r=0.0, phi=[0.5, 0.0], pi=[0.0])

    def test_one_dimensional_halfline(self):
        rs = to_hyperspherical(PhaseState([1.5], [-0.5]))
        assert rs.r == pytest.approx(1.5)
        assert rs.p_r == pytest.approx(-0.5)
        assert rs.d == 1
        with pytest.raises(ChartSingularError):
            to_hyperspherical(PhaseState([-1.5], [0.5]))

    def test_inverse_example(self):
        rs = ReducedState(r=2.0, p_r=1.0, phi=[np.pi / 2, 0.0],
                          pi=[0.0, 2.0])
        s = from_hyperspherical(rs)
        npt.assert_allclose(s.q, [2.0, 0.0, 0.0], atol=1e-14)
        npt.assert_allclose(s.p, [1.0, 1.0, 0.0], atol=1e-14)

    def test_circle_inverse(self):
        s = from_hyperspherical(ReducedState(r=1.0, p_r=0.0, phi=[0.0],
                                             pi=[1.0]))
        npt.assert_allclose(s.q, [1.0, 0.0], atol=1e-15)
        npt.assert_allclose(s.p, [0.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_round_trip(self, d):
        rng = np.random.default_rng(d)
        done = 0
        while done < 100:
            s = PhaseState(rng.uniform(-2, 2, d), rng.uniform(-2, 2, d))
            if not chart_interior(s):
                continue
            rs = to_hyperspherical(s)
            back = from_hyperspherical(rs)
            assert np.max(np.abs(back.q - s.q)) < 1e-10
            assert np.max(np.abs(back.p - s.p)) < 1e-10
            # and the reduced representation itself round-trips
            rs2 = to_hyperspherical(back)
            assert abs(rs2.r - rs.r) < 1e-10
            assert abs(rs2.p_r - rs.p_r) < 1e-10
            assert np.max(np.abs(rs2.phi - rs.phi)) < 1e-10
            assert np.max(np.abs(rs2.pi - rs.pi)) < 1e-10
            done += 1


def _close(got, want, tol):
    """|got - want| <= tol max(1, |want|) entry by entry."""
    return np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))


class TestChartProperties:
    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2 ** 32 - 1))
    def test_round_trip(self, d, seed):
        # from_hyperspherical o to_hyperspherical at test_round_trip's 1e-10
        rng = np.random.default_rng(seed)
        s = PhaseState(rng.uniform(-2, 2, d), rng.uniform(-2, 2, d))
        assume(chart_interior(s))
        back = from_hyperspherical(to_hyperspherical(s))
        assert np.max(np.abs(back.q - s.q)) < 1e-10
        assert np.max(np.abs(back.p - s.p)) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([1, 2, 3, 4]), seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_match_each_state(self, d, seed):
        # the rows form of the chart map against to_hyperspherical per row
        sys_ = models.build(models.spec("free", d=d))
        states = model_states(sys_, 6, seed, predicate=chart_interior)
        Q = np.array([s.q for s in states])
        P = np.array([s.p for s in states])
        r, p_r, phi, pi = hyperspherical_rows(Q, P)
        assert phi.shape == pi.shape == (6, d - 1)
        for i, s in enumerate(states):
            rs = to_hyperspherical(s)
            for got, want in ((r[i], rs.r), (p_r[i], rs.p_r),
                              (phi[i], rs.phi), (pi[i], rs.pi)):
                assert _close(got, want, 1e-12)

    def test_rows_raise_for_any_row_outside(self):
        Q = np.array([[1.0, 0.0, 0.5], [0.0, 0.0, 2.0]])  # row 1 on the pole
        with pytest.raises(ChartSingularError):
            hyperspherical_rows(Q, np.ones((2, 3)))
        with pytest.raises(ChartSingularError):
            hyperspherical_rows(np.array([[0.5], [-1.0]]), np.ones((2, 1)))


class TestChartObservables:
    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([1, 2, 3, 4]), seed=st.integers(0, 2 ** 32 - 1))
    def test_entries_are_the_chart_map(self, d, seed):
        # each component the bracket checks differentiate is one field of
        # to_hyperspherical, bit for bit
        obs = chart_observable(d)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            s = PhaseState(rng.uniform(-2, 2, d), rng.uniform(-2, 2, d))
            if not chart_interior(s):
                continue
            rs = to_hyperspherical(s)
            want = {"r": rs.r, "p_r": rs.p_r,
                    **{f"phi_{a}": rs.phi[a] for a in range(d - 1)},
                    **{f"pi_{a}": rs.pi[a] for a in range(d - 1)}}
            got = obs(s)
            assert got.shape == (len(want),)
            for (name, value), entry in zip(want.items(), got):
                assert (np.float64(entry).tobytes()
                        == np.float64(value).tobytes()), (name, s)

    @pytest.mark.parametrize("d", [2, 3])
    def test_one_jet_evaluation_maps_each_angle_once(self, d, monkeypatch):
        # every sine and cosine factor of an angle comes from one sincos per
        # table, which maps math.sin and math.cos once each: the chart takes
        # one table (its tangents), the angular potential U another
        sincos, map_ = dual.sincos, dual._map
        calls, maps = [], []

        def counting_sincos(x):
            calls.append(x)
            return sincos(x)

        def counting_map(fn, *args):
            if fn in (math.sin, math.cos):
                maps.append(fn)
            return map_(fn, *args)

        monkeypatch.setattr(dual, "sincos", counting_sincos)
        monkeypatch.setattr(dual, "_map", counting_map)
        sys_ = models.build(models.spec("inverse-square", d=d, kappa=0.5))
        states = model_states(sys_, 5, d, predicate=chart_interior)
        Q = np.array([s.q for s in states])
        P = np.array([s.p for s in states])
        U = spherical_system_from(sys_.V, d).U
        for fn, tables in ((chart_observable(d).fn, 1),
                           (lambda q, p: U(hyperspherical_rows(q, p)[2]), 2)):
            calls.clear()
            maps.clear()
            dual.gradient(fn, Q, P)
            assert len(calls) == tables * (d - 1)
            assert all(x.shape == (5,) for x in calls)
            assert len(maps) == 2 * tables * (d - 1)


class TestMetric:
    def test_equator(self):
        g = np.diag(sphere_metric_diag(np.array([np.pi / 2, 0.3]), 3))
        npt.assert_allclose(g, np.diag([1.0, 1.0]), atol=1e-15)

    def test_quarter(self):
        g = np.diag(sphere_metric_diag(np.array([np.pi / 4, 1.0]), 3))
        npt.assert_allclose(g, np.diag([1.0, 2.0]), atol=1e-12)

    def test_circle(self):
        npt.assert_allclose(np.diag(sphere_metric_diag(np.array([0.7]), 2)),
                            [[1.0]])

    def test_matches_tangent_frame(self):
        # g_ab = T^T T for the chart's tangent vectors; inverse matches
        from confmech.reduction import unit_tangents
        rng = np.random.default_rng(9)
        for d in (3, 4):
            for _ in range(10):
                phi = np.concatenate([rng.uniform(0.3, np.pi - 0.3, d - 2),
                                      rng.uniform(-np.pi, np.pi, 1)])
                T = unit_tangents(phi, d)
                g = T.T @ T
                ginv = np.diag(sphere_metric_diag(phi, d))
                npt.assert_allclose(ginv @ g, np.eye(d - 1), atol=1e-12)


class TestAngularPotential:
    def test_inverse_square_constant(self):
        V = models.potential(models.spec("inverse-square", d=3, kappa=3.0))
        rs = ReducedState(r=1.7, p_r=0.2, phi=[0.8, -0.4], pi=[0.0, 0.0])
        assert angular_potential(V, rs) == pytest.approx(3.0, abs=1e-12)

    def test_higgs_value(self):
        V = models.potential(models.spec("higgs", d=3, omega=1.0))
        rs = ReducedState(r=2.0, p_r=0.0, phi=[np.pi / 4, 0.3],
                          pi=[0.0, 0.0])
        assert angular_potential(V, rs) == pytest.approx(1.5, abs=1e-12)

    def test_coulomb_value(self):
        V = models.potential(models.spec("coulomb", d=3, gamma=2.0))
        rs = ReducedState(r=0.7, p_r=0.1, phi=[np.pi / 4, -1.0],
                          pi=[0.0, 0.0])
        assert angular_potential(V, rs) == pytest.approx(2.0, abs=1e-10)

    def test_not_homogeneous_rejected(self):
        import confmech.dual as dual
        from confmech.phase import Observable

        def fn(q, p):
            return 1.0 / dual.sqrt(np.dot(q, q)) ** 3

        V = Observable(2, fn)
        rs = ReducedState(r=1.0, p_r=0.0, phi=[0.2], pi=[0.0])
        with pytest.raises(NotHomogeneousError):
            angular_potential(V, rs)

    def test_r_independence(self):
        V = models.potential(models.spec("higgs", d=3, omega=1.3))
        for r in (0.5, 1.0, 4.0):
            rs = ReducedState(r=r, p_r=0.0, phi=[0.9, 0.1], pi=[0.0, 0.0])
            u1 = angular_potential(V, rs)
            rs2 = ReducedState(r=2 * r, p_r=0.0, phi=[0.9, 0.1],
                               pi=[0.0, 0.0])
            u2 = angular_potential(V, rs2)
            assert abs(u1 - u2) / max(1.0, abs(u1)) < 1e-9


class TestSphericalEnergy:
    def test_free_circle(self):
        sphere = spherical_system_from(
            models.potential(models.spec("free", d=2)), 2)
        assert spherical_energy(sphere, [0.3], [1.0]) == pytest.approx(0.5)

    def test_free_sphere_quarter(self):
        sphere = spherical_system_from(
            models.potential(models.spec("free", d=3)), 3)
        assert spherical_energy(sphere, [np.pi / 4, 0.0], [0.0, 1.0]) == \
            pytest.approx(1.0, abs=1e-12)

    def test_casimir_cross_check(self, catalog_systems):
        for ms, sys_ in catalog_systems:
            if sys_.d < 2:
                continue
            sphere = spherical_system_from(sys_.V, sys_.d)
            for s in model_states(sys_, 10, seed=21,
                                  predicate=chart_interior):
                rs = to_hyperspherical(s)
                assert abs(casimir_I(sys_, s)
                           - spherical_energy(sphere, rs.phi, rs.pi)) \
                    < 1e-10 * max(1.0, abs(casimir_I(sys_, s)))

    def test_radial_split_identity(self, catalog_systems):
        # H = p_r^2/2 + I/r^2 pointwise
        for ms, sys_ in catalog_systems:
            for s in model_states(sys_, 10, seed=23,
                                  predicate=chart_interior):
                rs = to_hyperspherical(s)
                i_val = casimir_I(sys_, s)
                recon = 0.5 * rs.p_r ** 2 + i_val / rs.r ** 2
                assert abs(recon - sys_.H(s)) < 1e-10 * max(
                    1.0, abs(sys_.H(s)))


class TestChartCanonicity:
    @pytest.mark.parametrize("d", [2, 3])
    def test_canonical_brackets(self, d):
        obs = chart_observable(d)
        names = (["r", "p_r"] + [f"phi_{a}" for a in range(d - 1)]
                 + [f"pi_{a}" for a in range(d - 1)])
        rng = np.random.default_rng(d + 40)
        done = 0
        while done < 50:
            s = PhaseState(rng.uniform(-2, 2, d), rng.uniform(-2, 2, d))
            if not chart_interior(s, margin=0.05):
                continue
            done += 1
            B = brackets((obs,), s)  # rows and columns in names' order
            for i, a in enumerate(names):
                for j, b in enumerate(names[i + 1:], start=i + 1):
                    val = B[i, j]
                    if (a, b) == ("r", "p_r"):
                        expected = -1.0  # {p_r, r} = +1
                    elif (a.startswith("phi_") and b == "pi_" + a[4:]):
                        expected = -1.0  # {pi_a, phi^a} = +1
                    else:
                        expected = 0.0
                    assert abs(val - expected) < 1e-9, (a, b, val)

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_tables_are_canonical(self, d, seed):
        # the rows table of the one chart observable: every slice is its
        # row's table (== lets the sign of an exact zero differ), and each
        # is the canonical matrix, {p_r, r} = {pi_a, phi_a} = 1, at 1e-12
        # of each entry's own scale |dA/dp||dB/dq| + |dA/dq||dB/dp|
        obs = chart_observable(d)
        rng = np.random.default_rng(seed)
        states = [s for s in (PhaseState(rng.uniform(-2, 2, d),
                                         rng.uniform(-2, 2, d))
                              for _ in range(8)) if chart_interior(s)]
        assume(states)
        rows = brackets((obs,), np.array([s.q for s in states]),
                        np.array([s.p for s in states]))
        canonical = np.zeros((2 * d, 2 * d))
        for a, b in [(1, 0)] + [(d + 1 + a, 2 + a) for a in range(d - 1)]:
            canonical[a, b], canonical[b, a] = 1.0, -1.0
        for table, s in zip(rows, states):
            assert np.all(table == brackets((obs,), s)), s
            dq, dp = (np.abs(g) for g in grad(obs, s.q, s.p))
            scale = dp @ dq.T + dq @ dp.T
            assert np.all(np.abs(table - canonical)
                          <= 1e-12 * np.maximum(1.0, scale)), s

    def test_momentum_convention(self):
        # {p_r, r} = +1 mirrors {p, x} = +1
        obs = chart_observable(2)
        s = PhaseState([1.1, -0.4], [0.3, 0.9])
        assert brackets((obs,), s)[1, 0] == \
            pytest.approx(1.0, abs=1e-11)


class TestSphereFlow:
    def test_energy_conserved_under_own_flow(self):
        # coulomb angular system on S^2, driven for T = 10
        sphere = spherical_system_from(
            models.potential(models.spec("coulomb", d=3, gamma=1.0)), 3)
        I_obs = sphere_hamiltonian(sphere)
        s0 = PhaseState([np.pi / 2, 0.0], [0.2, 1.0])
        traj = integrate_adaptive(I_obs, s0, 1e-11, 10.0,
                                  t_eval=np.linspace(0.0, 10.0, 201))
        I = I_obs.fn(traj.qs, traj.ps)
        assert np.max(np.abs(I - I[0])) < 1e-8 * max(1.0, abs(I[0]))
