"""Catalog potentials, the Calogero reduction, and its singular geometry."""

import collections
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from confmech import dual, models
from confmech.conformal import build_system, check_homogeneity, sample_states
from confmech.errors import DomainError
from confmech.phase import Observable, PhaseState, brackets, integrate_verlet
from confmech.reduction import (
    ReducedState,
    angular_potential,
    unit_from_angles,
)


class TestModelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            models.spec("higgs", d=3, omega=-1.0)
        with pytest.raises(ValueError):
            models.spec("calogero", n=1, g=1.0)
        with pytest.raises(ValueError):
            models.spec("calogero", n=3, g=0.0)
        with pytest.raises(ValueError):
            models.spec("coulomb", d=1, gamma=1.0)
        with pytest.raises(ValueError):
            models.spec("no-such-model", d=2)
        with pytest.raises(ValueError):
            models.spec("inverse-square", d=2)  # kappa missing

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name,key,kwargs", [
        ("inverse-square", "kappa", dict(d=2)),
        ("higgs", "omega", dict(d=3)),
        ("coulomb", "gamma", dict(d=3)),
        ("calogero", "g", dict(n=3)),
    ])
    def test_non_finite_parameter_named(self, name, key, kwargs, bad):
        # refused where the spec is made, not later as a misnamed failure
        with pytest.raises(ValueError, match=f"parameter {key} must be "
                                             "finite"):
            models.spec(name, **kwargs, **{key: bad})

    def test_name_surface(self):
        assert tuple(models._CATALOG) == (
            "free", "inverse_square", "conformal_higgs", "conformal_coulomb",
            "calogero_relative")
        assert models._ALIASES == {
            "free": "free",
            "inverse_square": "inverse_square",
            "inverse-square": "inverse_square",
            "higgs": "conformal_higgs",
            "conformal_higgs": "conformal_higgs",
            "conformal-higgs": "conformal_higgs",
            "coulomb": "conformal_coulomb",
            "conformal_coulomb": "conformal_coulomb",
            "conformal-coulomb": "conformal_coulomb",
            "calogero": "calogero_relative",
            "calogero_relative": "calogero_relative",
            "calogero-relative": "calogero_relative",
        }

    @pytest.mark.parametrize("name,kwargs,message", [
        ("higgs", dict(d=3, omega=-1.0), "conformal_higgs needs omega > 0"),
        ("calogero", dict(n=1, g=1.0),
         "calogero_relative needs n >= 2 particles"),
        ("calogero", dict(n=3, g=0.0), "calogero_relative needs g != 0"),
        ("coulomb", dict(d=1, gamma=1.0), "conformal_coulomb needs d >= 2"),
        ("no-such-model", dict(d=2),
         "unknown model 'no-such-model'; choose from ['calogero', "
         "'calogero-relative', 'calogero_relative', 'conformal-coulomb', "
         "'conformal-higgs', 'conformal_coulomb', 'conformal_higgs', "
         "'coulomb', 'free', 'higgs', 'inverse-square', 'inverse_square']"),
        ("inverse-square", dict(d=2), "inverse_square needs kappa"),
        ("free", dict(d=0), "dimension must be >= 1"),
        ("calogero", dict(particles=1), "calogero_relative needs n >= 2 "
         "particles"),
        ("higgs", dict(d=3, omega=1.0, kappa=5.0),
         "conformal_higgs takes no parameter 'kappa'"),
        ("calogero", dict(n=4, d=9), "calogero dimension is n - 1"),
        ("calogero", dict(n=2.7),
         "calogero_relative needs a whole number of particles, got 2.7"),
    ])
    def test_validation_messages(self, name, kwargs, message):
        with pytest.raises(ValueError) as err:
            models.spec(name, **kwargs)
        assert str(err.value) == message

    def test_calogero_dimension(self):
        ms = models.spec("calogero", particles=4, g=1.0)
        assert ms.d == 3 and ms.params["n"] == 4

    @pytest.mark.parametrize("size", ["particles", "n"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_calogero_size_must_be_finite(self, size, bad):
        # NaN once fell through to a KeyError and infinity to int(inf)'s
        # OverflowError; both are a ValueError naming the particles
        with pytest.raises(ValueError) as err:
            models.spec("calogero", g=1.0, **{size: bad})
        assert str(err.value) == ("calogero_relative needs a whole number "
                                  f"of particles, got {bad!r}")

    def test_calogero_sizes_must_agree(self):
        with pytest.raises(ValueError) as err:
            models.spec("calogero", n=3, particles=5)
        assert str(err.value) == ("calogero_relative got n=3 and "
                                  "particles=5; give one of them")
        ms = models.spec("calogero", n=3, particles=3)
        assert ms.d == 2 and ms.params == {"n": 3, "g": 1.0}


class TestPotentialValues:
    def test_inverse_square(self):
        V = models.potential(models.spec("inverse-square", d=2, kappa=1.0))
        assert V.fn(np.array([1.0, 1.0]), np.zeros(2)) == \
            pytest.approx(0.5)

    def test_higgs(self):
        V = models.potential(models.spec("higgs", d=3, omega=1.0))
        assert V.fn(np.array([1.0, 0.0, 1.0]), np.zeros(3)) == \
            pytest.approx(0.75)

    def test_coulomb(self):
        V = models.potential(models.spec("coulomb", d=3, gamma=2.0))
        assert V.fn(np.array([1.0, 0.0, 1.0]), np.zeros(3)) == \
            pytest.approx(1.0)

    def test_singular_configurations_raise(self):
        V = models.potential(models.spec("coulomb", d=3, gamma=1.0))
        with pytest.raises(DomainError):
            V.fn(np.array([0.0, 0.0, 1.0]), np.zeros(3))  # x_d = r
        Vc = models.potential(models.spec("calogero", n=3, g=1.0))
        with pytest.raises(DomainError):
            Vc.fn(np.array([0.0, 1.0]), np.zeros(2))  # x1 = x2

    def test_catalog_homogeneity(self, catalog_specs):
        for ms in catalog_specs:
            V = models.potential(ms)
            rep = check_homogeneity(
                V, ms.d, samples=50, tol=1e-9, seed=13,
                singular_distance=models.singular_distance_fn(ms))
            assert rep.passed, ms.label


class TestJacobi:
    def test_orthonormal_rows(self):
        for n in (2, 3, 4, 6):
            R = models.jacobi_matrix(n)
            npt.assert_allclose(R @ R.T, np.eye(n - 1), atol=1e-14)
            npt.assert_allclose(R @ np.ones(n), 0.0, atol=1e-14)

    def test_translation_mode_removed(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, 4)
        p = rng.uniform(-1, 1, 4)
        a = models.reduce_calogero_state(x, p)
        b = models.reduce_calogero_state(x + 3.7, p)  # rigid shift
        npt.assert_allclose(a.q, b.q, atol=1e-14)
        npt.assert_allclose(a.p, b.p, atol=1e-14)

    def test_two_particle_potential(self):
        c2 = models.calogero_relative(2, 1.0)
        y = 0.7
        assert c2.V.fn(np.array([y]), np.zeros(1)) == \
            pytest.approx(1.0 / (2.0 * y * y), rel=1e-14)

    def test_three_particle_energy_match(self):
        c3 = models.calogero_relative(3, 1.0)
        full_H = models.full_calogero_hamiltonian(3, 1.0)
        rng = np.random.default_rng(2)
        done = 0
        while done < 20:
            x = rng.uniform(-2, 2, 3)
            p = rng.uniform(-2, 2, 3)
            gaps = np.abs(np.subtract.outer(x, x)[np.triu_indices(3, 1)])
            if gaps.min() < 0.1:
                continue
            done += 1
            red = models.reduce_calogero_state(x, p)
            h_full = full_H.fn(x, p)
            com_kinetic = np.sum(p) ** 2 / (2.0 * 3)
            h_red = c3.H.fn(red.q, red.p)
            assert abs(h_red - (h_full - com_kinetic)) < 1e-10 * max(
                1.0, abs(h_full))


class TestSingularDirections:
    def test_two_particles(self):
        sd = models.singular_directions(2)
        assert sd.shape == (2, 1)
        npt.assert_allclose(np.sort(sd[:, 0]), [-1.0, 1.0], atol=1e-15)

    def test_three_particles_spacing(self):
        sd = models.singular_directions(3)
        assert sd.shape == (6, 2)
        angles = np.sort(np.mod(np.arctan2(sd[:, 1], sd[:, 0]), 2 * np.pi))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
        npt.assert_allclose(gaps, np.pi / 3, atol=1e-9)
        # three centers modulo antipodality, spaced 2pi/3
        centers = np.sort(np.mod(angles, np.pi))
        assert len({round(c, 9) for c in centers}) == 3

    def test_four_particles_cuboctahedron(self):
        sd = models.singular_directions(4)
        assert sd.shape == (12, 3)
        npt.assert_allclose(np.linalg.norm(sd, axis=1), 1.0, atol=1e-12)
        counts = collections.Counter()
        for i in range(12):
            for j in range(i + 1, 12):
                c = float(np.clip(sd[i] @ sd[j], -1.0, 1.0))
                ang = np.degrees(np.arccos(c))
                key = min((60.0, 90.0, 120.0, 180.0),
                          key=lambda ref: abs(ang - ref))
                assert abs(ang - key) < 1e-9
                counts[key] += 1
        assert counts == {60.0: 24, 90.0: 12, 120.0: 24, 180.0: 6}


class TestSphericalCounterparts:
    # the closed-form angular potentials U(theta) of the sphere models, of
    # the first polar angle: the constant kappa, the sphere oscillator
    # omega^2 tan^2(theta)/2 shifted by omega^2, and gamma cot(theta)
    def test_inverse_square_constant(self):
        V = models.potential(models.spec("inverse-square", d=3, kappa=2.5))
        rs = ReducedState(r=1.3, p_r=0.0, phi=[0.7, 0.1], pi=[0.0, 0.0])
        assert angular_potential(V, rs) == pytest.approx(2.5)

    def test_higgs_value(self):
        V = models.potential(models.spec("higgs", d=3, omega=1.0))
        rs = ReducedState(r=1.3, p_r=0.0, phi=[np.pi / 3, 0.0],
                          pi=[0.0, 0.0])
        assert angular_potential(V, rs) == pytest.approx(2.5, abs=1e-12)

    def test_coulomb_equator(self):
        V = models.potential(models.spec("coulomb", d=3, gamma=2.0))
        rs = ReducedState(r=1.3, p_r=0.0, phi=[np.pi / 2, 0.0],
                          pi=[0.0, 0.0])
        assert angular_potential(V, rs) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("name,params,form", [
        ("inverse-square", {"kappa": 1.7}, lambda t: 1.7),
        ("higgs", {"omega": 1.3},
         lambda t: 0.5 * 1.3 ** 2 * np.tan(t) ** 2 + 1.3 ** 2),
        ("coulomb", {"gamma": 0.8}, lambda t: 0.8 / np.tan(t)),
    ], ids=["inverse-square-params0", "higgs-params1", "coulomb-params2"])
    def test_matches_angular_potential(self, name, params, form):
        ms = models.spec(name, d=3, **params)
        V = models.potential(ms)
        rng = np.random.default_rng(17)
        for _ in range(100):
            phi = np.array([rng.uniform(0.15, np.pi - 0.15),
                            rng.uniform(-np.pi, np.pi)])
            rs = ReducedState(r=rng.uniform(0.5, 2.0), p_r=0.0, phi=phi,
                              pi=[0.0, 0.0])
            assert abs(angular_potential(V, rs) - form(phi[0])) \
                < 1e-10 * max(1.0, abs(form(phi[0])))


class TestCalogeroAngularGeometry:
    def test_sum_of_sphere_oscillators(self):
        # U(y) = (g^2/2) sum_c sec^2(angle to center c) exactly, one well
        # per particle pair
        c3 = models.calogero_relative(3, 1.0)
        centers = models.singular_directions(3)[:3]
        rng = np.random.default_rng(30)
        for _ in range(50):
            a = rng.uniform(0, 2 * np.pi)
            y = np.array([np.cos(a), np.sin(a)])
            if np.min(np.abs(centers @ y)) < 0.05:
                continue
            u_val = c3.V.fn(y, np.zeros(2))
            oscillators = sum(0.5 / (y @ c) ** 2 for c in centers)
            assert abs(u_val - oscillators) < 1e-9 * max(1.0, u_val)

    def test_divergence_on_center_equators_only(self):
        # each well blows up on the great circle perpendicular to its
        # center (the image of the coincidence plane), nowhere else
        c3 = models.calogero_relative(3, 1.0)
        sd = models.singular_directions(3)
        sd_angles = np.mod(np.arctan2(sd[:, 1], sd[:, 0]), 2 * np.pi)
        equator_angles = np.mod(sd_angles + np.pi / 2, 2 * np.pi)

        def U(angle):
            u = np.array([np.cos(angle), np.sin(angle)])
            return c3.V.fn(u, np.zeros(2))

        for a0 in equator_angles:
            assert U(a0 + 1e-4) > 1e6
            assert U(a0 - 1e-4) > 1e6
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 200:
            a = rng.uniform(0, 2 * np.pi)
            dists = np.abs(np.angle(np.exp(1j * (a - equator_angles))))
            if dists.min() <= 0.1:
                continue
            assert U(a) < 1e4
            checked += 1

    def test_threefold_symmetry(self):
        c3 = models.calogero_relative(3, 1.0)
        sd = models.singular_directions(3)
        sd_angles = np.mod(np.arctan2(sd[:, 1], sd[:, 0]), 2 * np.pi)

        def U(angle):
            u = np.array([np.cos(angle), np.sin(angle)])
            return c3.V.fn(u, np.zeros(2))

        rng = np.random.default_rng(33)
        checked = 0
        while checked < 100:
            a = rng.uniform(0, 2 * np.pi)
            dists = np.abs(np.angle(np.exp(1j * (a - sd_angles))))
            if dists.min() <= 0.05:
                continue
            u0 = U(a)
            assert abs(U(a + 2 * np.pi / 3) - u0) < 1e-9 * max(1.0, abs(u0))
            assert abs(U(a - 2 * np.pi / 3) - u0) < 1e-9 * max(1.0, abs(u0))
            checked += 1

    def test_reference_states_off_singularity(self, catalog_specs):
        for ms in catalog_specs:
            s0 = models.reference_state(ms)
            sdist = models.singular_distance_fn(ms)
            assert sdist(s0.q) > 0.1, ms.label

    def test_no_reference_state_inverse_square_d1(self):
        ms = models.spec("inverse-square", d=1, kappa=1.0)
        with pytest.raises(ValueError) as err:
            models.reference_state(ms)
        assert str(err.value) == ("inverse_square has no reference state at "
                                  "d = 1; pass an initial state")


class TestUnitSphereHelpers:
    def test_unit_vectors(self):
        rng = np.random.default_rng(8)
        for d in (2, 3, 4, 5):
            for _ in range(10):
                phi = np.concatenate([
                    rng.uniform(0.2, np.pi - 0.2, max(d - 2, 0)),
                    rng.uniform(-np.pi, np.pi, 1)])[:d - 1]
                u = unit_from_angles(phi, d)
                assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-14)


def _same_bits(a, b):
    """Equal as float64 bit patterns (tells -0.0 from 0.0)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def _state_rows(sys_, n, seed):
    states = sample_states(sys_.d, n, np.random.default_rng(seed),
                           singular_distance=sys_.singular_distance)
    return states.Q, states.P


def _singular_rows(ms):
    """Points exactly on the singular set of a catalog model (none for the
    free particle)."""
    d = ms.d
    if ms.name == "inverse_square":
        return np.zeros((1, d))
    if ms.name == "conformal_higgs":  # the origin and the plane x_d = 0
        return np.array([np.zeros(d), [0.7] * (d - 1) + [0.0],
                         [-1.3] * (d - 1) + [-0.0]])
    if ms.name == "conformal_coulomb":  # the x_d axis
        return np.array([[0.0] * (d - 1) + [z] for z in (0.0, 1.5, -0.2)])
    if ms.name == "calogero_relative":
        # the origin, and for each pair axis a point in the span of the
        # Jacobi coordinates a does not involve (a . q is then a sum of
        # exact zeros, however it is summed)
        c = np.linspace(0.7, -1.3, d)
        return np.array([np.zeros(d)] + [np.where(a == 0.0, c, 0.0)
                                         for a in models.pair_axes(d + 1)
                                         if (a == 0.0).any()])
    return np.zeros((0, d))


_ARRAY_SPECS = models.catalog() + [models.spec("calogero", n=5, g=1.0)]


_DISTANCE_SPECS = [
    models.spec("free", d=3),
    *(models.spec("inverse-square", d=d, kappa=1.0) for d in (1, 2, 3, 4)),
    *(models.spec("higgs", d=d, omega=1.0) for d in (1, 2, 3)),
    *(models.spec("coulomb", d=d, gamma=1.0) for d in (2, 3, 4)),
    *(models.spec("calogero", n=n, g=1.0) for n in (2, 3, 4, 5, 6))]


class TestArrayForms:
    """The array forms behind the trajectory monitors and the Calogero
    force reproduce the scalar code bit for bit."""

    @pytest.mark.parametrize("ms", _ARRAY_SPECS, ids=lambda ms: ms.label)
    def test_rows_match_scalar_fn(self, ms):
        sys_ = models.build(ms)
        Q, P = _state_rows(sys_, 300, seed=41)
        # integrate_adaptive hands over column slices of its (q, p) rows
        Y = np.hstack([Q, P])
        strided = Y[:, :ms.d], Y[:, ms.d:]
        for obs in (sys_.V, *sys_.monitors().values()):
            scalar = [dual.value(obs.fn(q, p)) for q, p in zip(Q, P)]
            assert _same_bits(obs.fn(Q, P), scalar), obs.name
            assert _same_bits(obs.fn(*strided), scalar), obs.name

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_calogero_gradient_matches_pair_loop(self, n):
        g = 1.3
        V = models.potential(models.spec("calogero", n=n, g=g))
        axes = models.pair_axes(n)
        g2 = float(g) ** 2
        Q, P = _state_rows(models.build(models.spec("calogero", n=n, g=g)),
                           300, seed=43)
        for q, p in zip(Q, P):
            ref = np.zeros(n - 1)
            for a in axes:
                s = a @ q
                ref += -2.0 * g2 * a / s ** 3
            dq, dp = V.grad_fn(q, p)
            assert _same_bits(dq, ref)
            assert _same_bits(dp, np.zeros(n - 1))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_calogero_jets_match_pair_loop(self, n):
        # every pair's term in one jet operation of each kind, then summed
        # pair by pair: the jets of a loop taking one pair at a time
        sys_ = models.build(models.spec("calogero", n=n, g=1.3))
        axes = models.pair_axes(n)
        Q, P = _state_rows(sys_, 40, seed=47)
        for q, p in ((Q, P), (Q[0], P[0])):
            qd = dual.seed(q, 2 * (n - 1), 0)
            pd = dual.seed(p, 2 * (n - 1), n - 1)
            want = 0.0
            for s in np.vecdot(axes, qd[..., None, :]).T:
                want = want + 1.3 ** 2 / (s * s)
            got = sys_.V.fn(qd, pd)
            assert _same_bits(got.val, want.val)
            assert _same_bits(got.eps, want.eps)

    @pytest.mark.parametrize("ms,singular", [
        (models.spec("inverse-square", d=2, kappa=1.0), [0.0, 0.0]),
        (models.spec("higgs", d=3, omega=1.0), [1.0, 0.5, 0.0]),
        (models.spec("coulomb", d=3, gamma=1.0), [0.0, 0.0, 1.0]),
        (models.spec("calogero", n=3, g=1.0), None),
    ], ids=["inverse-square", "higgs", "coulomb", "calogero"])
    def test_singular_row_raises(self, ms, singular):
        V = models.potential(ms)
        if singular is None:  # perpendicular to the first pair axis
            a = models.pair_axes(3)[0]
            singular = [-a[1], a[0]]
        Q = np.array([np.full(ms.d, 0.7), singular])
        with pytest.raises(DomainError):
            V.fn(Q[1], Q[1])
        with pytest.raises(DomainError):
            V.fn(Q, Q)

    @pytest.mark.parametrize("ms", _DISTANCE_SPECS, ids=lambda ms: ms.label)
    def test_singular_distance_rows_match_points(self, ms):
        # 20,000 seeded rows, contiguous and as the sampler's strided q
        # slice of its (k, 2, d) draws, and rows exactly on the singular
        # set: the rows form is each row's point call, bit for bit
        sdist = models.singular_distance_fn(ms)
        X = np.random.default_rng(ms.d).uniform(-2.0, 2.0,
                                                size=(20_000, 2, ms.d))
        on_set = _singular_rows(ms)
        for Q in (X[:, 0], np.ascontiguousarray(X[:, 1]), on_set):
            assert _same_bits(sdist.rows(Q), [sdist(q) for q in Q]), ms.label
        if ms.name != "free":
            assert len(on_set) and _same_bits(sdist.rows(on_set),
                                              np.zeros(len(on_set)))

    @pytest.mark.parametrize("ms", _DISTANCE_SPECS, ids=lambda ms: ms.label)
    def test_singular_distance_rows_match_points_when_squares_overflow(
            self, ms):
        # rows of tiny, moderate and huge entries, the squares of the huge
        # ones overflowing (coulomb's point form once raised OverflowError
        # from x_d**2 above 1.34e154, where its rows form gives NaN): each
        # point call is its one-row rows call, bit for bit, NaN included
        sdist = models.singular_distance_fn(ms)
        rng = np.random.default_rng(ms.d + 50)
        sizes = [0.0, 1e-300, 0.3, 1.0, 1e154, 1.4e154, 1e157, 1e300, 1e308]
        Q = (rng.choice(sizes, size=(400, ms.d))
             * rng.choice([-1.0, 1.0], size=(400, ms.d)))
        Q[0] = 1.0
        Q[0, -1] = 1e157  # only x_d squares past the largest float
        with np.errstate(all="ignore"):
            for q in Q:
                assert _same_bits(sdist(q), sdist.rows(q[None])[0]), q

    def test_monitors_without_array_form(self):
        # a potential not declared vectorized: its fn and grad_fn are
        # lifted to rows one row at a time, with the same monitor bits
        ms = models.spec("calogero", n=4, g=1.0)
        sys_ = models.build(ms)
        bare = Observable(ms.d, sys_.V.fn, grad_fn=sys_.V.grad_fn)
        plain = build_system(bare, ms.d,
                             singular_distance=sys_.singular_distance)
        s0 = models.reference_state(ms)
        rows = integrate_verlet(sys_, s0, 1e-3, 0.5)
        loop = integrate_verlet(plain, s0, 1e-3, 0.5)
        assert _same_bits(rows.qs, loop.qs)
        for k in "HDKI":
            assert _same_bits(rows.monitors[k], loop.monitors[k]), k


_SYSTEMS = {ms.label: models.build(ms) for ms in _ARRAY_SPECS}

_GRAD_SPECS = (
    [models.spec("inverse-square", d=d, kappa=1.0) for d in range(1, 9)]
    + [models.spec("higgs", d=d, omega=1.0) for d in (2, 3, 4)]
    + [models.spec("coulomb", d=d, gamma=1.0) for d in (2, 3, 4)]
    + [models.spec("calogero", n=n, g=1.0) for n in (2, 3, 4, 5)]
    + [models.spec("free", d=d) for d in (1, 2, 3)])
_GRAD_SYSTEMS = {ms.label: models.build(ms) for ms in _GRAD_SPECS}


def _admissible_rows(sys_, values, margin):
    """The (q, p) rows of ``values`` at least ``margin`` from the singular
    set, as strided column slices of one array (as integrate_adaptive
    hands them over)."""
    d = sys_.d
    keep = [row for row in values
            if sys_.singular_distance is None
            or sys_.singular_distance(row[:d]) >= margin]
    assume(keep)
    Y = np.array(keep)
    return Y[:, :d], Y[:, d:]


def _row_values(d):
    return hnp.arrays(np.float64, st.tuples(st.integers(1, 6),
                                            st.just(2 * d)),
                      elements=st.floats(-2.0, 2.0))


class TestOneBody:
    """Each catalog potential and H, D, K, I is one body over (..., d)
    arrays: floats, duals and row stacks all go through its fn."""

    @pytest.mark.parametrize("ms", _ARRAY_SPECS, ids=lambda ms: ms.label)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_stack_equals_rows(self, ms, data):
        sys_ = _SYSTEMS[ms.label]
        Q, P = _admissible_rows(sys_, data.draw(_row_values(ms.d)), 1e-3)
        for obs in (sys_.V, *sys_.monitors().values()):
            per_row = [obs.fn(q, p) for q, p in zip(Q, P)]
            assert _same_bits(obs.fn(Q, P), per_row), obs.name

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_gradients_and_brackets_take_rows(self, data):
        # one grad_fn call and one bracket table over rows give each row's
        # one-point answer: the gradients bit for bit, the tables equal
        # (np.vecdot adds to +0.0, so an exact zero may change sign)
        ms = data.draw(st.sampled_from(_GRAD_SPECS), label="model")
        sys_ = _GRAD_SYSTEMS[ms.label]
        Q, P = _admissible_rows(sys_, data.draw(_row_values(ms.d)), 1e-3)
        gens = (sys_.H, sys_.D, sys_.K)
        for obs in (sys_.V, *gens, sys_.casimir):
            dQ, dP = obs.grad_fn(Q, P)
            per_row = [obs.grad_fn(q, p) for q, p in zip(Q, P)]
            assert dQ.tobytes() == np.array([g[0] for g in per_row]).tobytes()
            assert dP.tobytes() == np.array([g[1] for g in per_row]).tobytes()
        for table, q, p in zip(brackets(gens, Q, P), Q, P):
            assert np.array_equal(table, brackets(gens, PhaseState(q, p)))

    def test_gradient_zero_signs_take_rows(self):
        # at d = 1, q.dot(p) of q = 0.7 and p = -0.0 is -0.0 where
        # np.vecdot gives +0.0: the Casimir's dp = qq p - qp q is then
        # +0.0 at the point against -0.0 on rows, unless the point path
        # adds q.p to +0.0 as np.vecdot does
        sys_ = _GRAD_SYSTEMS["inverse_square(d=1, kappa=1)"]
        q, p = np.array([0.7]), np.array([-0.0])
        for obs in (sys_.V, sys_.H, sys_.D, sys_.K, sys_.casimir):
            dQ, dP = obs.grad_fn(q[None, :], p[None, :])
            dq, dp = obs.grad_fn(q, p)
            assert dQ[0].tobytes() == dq.tobytes(), obs.name
            assert dP[0].tobytes() == dp.tobytes(), obs.name
        assert math.copysign(1.0, sys_.casimir.grad_fn(q, p)[1][0]) == -1.0

    @pytest.mark.parametrize("ms", _ARRAY_SPECS, ids=lambda ms: ms.label)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_dual_value_matches_float(self, ms, data):
        # bit for bit wherever the float call adds its products in order as
        # the jet does: every observable at d = 1, and the free V. To
        # rounding only where the float path takes np.vecdot of d >= 2
        # entries (V of every other model, and H, D, K, I), a BLAS dot
        # whose kernels may fuse multiply-adds
        sys_ = _SYSTEMS[ms.label]
        Q, P = _admissible_rows(sys_, data.draw(_row_values(ms.d)), 5e-2)
        for q, p in zip(Q, P):
            qd = dual.seed(q, 2 * ms.d, 0)
            pd = dual.seed(p, 2 * ms.d, ms.d)
            for obs in (sys_.V, *sys_.monitors().values()):
                value = dual.value(obs.fn(qd, pd))
                if ms.d == 1 or (obs is sys_.V and ms.name == "free"):
                    assert value == obs.fn(q, p), obs.name
                else:
                    assert value == pytest.approx(obs.fn(q, p), rel=1e-10,
                                                  abs=1e-10), obs.name
