"""Algebra closure, homogeneity checks, and the Casimir invariant."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confmech.dual as dual
from confmech import conformal, models
from confmech.conformal import (
    build_system,
    casimir_I,
    check_homogeneity,
    sample_states,
    verify_algebra,
)
from confmech.errors import ConfmechError, IncompleteResultError, \
    NonFiniteError
from confmech.lobachevsky import canonicity_report
from confmech.phase import Observable, PhaseState, brackets, grad, \
    integrate_verlet
from confmech.reduction import spherical_energy, spherical_system_from, \
    to_hyperspherical

from conftest import chart_interior, chart_observable, model_states


def _cubic_potential(d):
    # homogeneous of degree -3: breaks exactly one algebra relation
    def fn(q, p):
        r = dual.sqrt(np.dot(q, q))
        return 1.0 / (r * r * r)
    return Observable(d, fn, name="V[r^-3]")


class TestBuildSystem:
    def test_free(self):
        sys_ = models.build(models.spec("free", d=3))
        s = PhaseState([1.0, 2.0, 0.5], [0.3, -1.0, 0.2])
        assert sys_.H(s) == pytest.approx(0.5 * (0.09 + 1.0 + 0.04))

    def test_eq1_values(self):
        sys_ = models.build(models.spec("inverse-square", d=1, kappa=0.5))
        s = PhaseState([2.0], [1.0])
        assert sys_.H(s) == pytest.approx(0.625)
        assert sys_.D(s) == pytest.approx(2.0)
        assert sys_.K(s) == pytest.approx(2.0)

    def test_inverse_square_d3(self):
        sys_ = models.build(models.spec("inverse-square", d=3, kappa=1.0))
        s = PhaseState([1.0, 1.0, 0.0], [0.0, 0.0, 0.0])
        assert sys_.H(s) == pytest.approx(0.5)


class TestHomogeneity:
    def test_inverse_square_passes(self):
        for d in (1, 2, 3):
            V = models.potential(models.spec("inverse-square", d=d,
                                             kappa=2.0))
            rep = check_homogeneity(V, d, samples=50, tol=1e-9, seed=0)
            assert rep.passed and rep.max_residual < 1e-10

    def test_cubic_fails(self):
        d = 2
        rep = check_homogeneity(_cubic_potential(d), d, samples=50,
                                tol=1e-9, seed=0)
        assert not rep.passed
        # residual |q.gradV + 2V| / max(1,|V|) = |V| / max(1,|V|) for
        # degree -3, so it sits at the |V| scale
        assert rep.max_residual > 1e-2

    def test_calogero_passes(self):
        c3 = models.calogero_relative(3, 1.0)
        rep = check_homogeneity(c3.V, 2, samples=50, tol=1e-9, seed=1,
                                singular_distance=c3.singular_distance)
        assert rep.passed

    def test_report_dict(self):
        V = models.potential(models.spec("inverse-square", d=2, kappa=1.0))
        rep = check_homogeneity(V, 2, samples=10, tol=1e-9, seed=5)
        d = rep.to_dict()
        assert set(d) == {"max_residual", "samples", "tol", "seed", "pass"}
        assert d["seed"] == 5

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"),
                                     float("inf")])
    def test_tol_must_be_positive_finite(self, tol):
        # a tol no residual can pass would report a failure of the potential
        V = models.potential(models.spec("inverse-square", d=2, kappa=1.0))
        with pytest.raises(ValueError, match="tol must be"):
            check_homogeneity(V, 2, samples=10, tol=tol)


class TestSamplerBudget:
    def test_sample_states_exhausted(self):
        with pytest.raises(IncompleteResultError, match="attempt budget"):
            sample_states(2, 3, np.random.default_rng(0),
                          predicate=lambda Q, P: np.zeros(len(Q), dtype=bool))

    def test_homogeneity_exhausted(self):
        nowhere = Observable(2, lambda q, p: np.inf)  # never finite
        with pytest.raises(IncompleteResultError):
            check_homogeneity(nowhere, 2, samples=3)
        assert issubclass(IncompleteResultError, ConfmechError)


class TestVerifyAlgebra:
    def test_inverse_square_d3(self):
        sys_ = models.build(models.spec("inverse-square", d=3, kappa=1.0))
        rep = verify_algebra(sys_, samples=200, tol=1e-8, seed=0)
        assert rep.passed
        assert all(v < 1e-8 for v in rep.residuals.values())

    def test_free_d2(self):
        rep = verify_algebra(models.build(models.spec("free", d=2)),
                             samples=100, tol=1e-8, seed=0)
        assert rep.passed

    def test_cubic_fails_only_hd(self):
        d = 2
        sys_ = build_system(_cubic_potential(d), d,
                            singular_distance=lambda q:
                            float(np.linalg.norm(q)))
        rep = verify_algebra(sys_, samples=100, tol=1e-8, seed=0)
        assert not rep.passed
        assert [k for k, v in rep.residuals.items() if v >= rep.tol] \
            == ["{H,D}-2H"]
        assert rep.residuals["{H,K}-D"] < 1e-8
        assert rep.residuals["{K,D}+2K"] < 1e-8

    def test_report_json_keys(self):
        rep = verify_algebra(models.build(models.spec("free", d=2)),
                             samples=10, tol=1e-8, seed=3)
        d = rep.to_dict()
        assert list(d) == ["relations", "residuals", "samples", "tol",
                           "seed", "pass"]

    def test_samples_must_be_positive(self):
        # no state checked is no verdict, as in check_homogeneity
        sys_ = models.build(models.spec("free", d=2))
        for n in (0, -3):
            with pytest.raises(ValueError, match="samples must be >= 1"):
                verify_algebra(sys_, samples=n)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_tol_must_be_positive_finite(self, tol):
        # tol = -1 would fail a closing algebra, tol = inf pass any
        with pytest.raises(ValueError, match="tol must be"):
            verify_algebra(models.build(models.spec("free", d=2)),
                           samples=10, tol=tol)


_CATALOG = [(ms, models.build(ms)) for ms in models.catalog()]


class TestBracketTable:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
    def test_closure_and_casimir(self, data, seed):
        ms, sys_ = data.draw(st.sampled_from(_CATALOG), label="model")
        (s,) = model_states(sys_, 1, seed, predicate=chart_interior)
        obs = [sys_.H, sys_.D, sys_.K, sys_.casimir, chart_observable(sys_.d)]
        B = brackets(obs, s)
        assert np.all(np.diag(B) == 0.0)
        assert np.array_equal(B, -B.T)
        # every entry is the two-dot expression of its own ordered pair;
        # the chart's (2d, d) gradients give one pair per component
        grads = ([grad(A, s.q, s.p) for A in obs[:4]]
                 + list(zip(*grad(obs[4], s.q, s.p))))
        for j, (dAq, dAp) in enumerate(grads):
            for k, (dBq, dBp) in enumerate(grads):
                if j != k:
                    want = np.dot(dAp, dBq) - np.dot(dAq, dBp)
                    assert B[j, k].tobytes() == want.tobytes(), (j, k)
        # so(1,2) closure at c01's 1e-8, normalized by max(1, |rhs|)
        h, dd, kk = sys_.H(s), sys_.D(s), sys_.K(s)
        for lhs, rhs in ((B[0, 1], 2.0 * h), (B[0, 2], dd),
                         (B[2, 1], -2.0 * kk)):
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs)), ms.label
        # the Casimir identity at c02's 1e-10
        rs = to_hyperspherical(s)
        i_c = casimir_I(sys_, s)
        i_s = spherical_energy(spherical_system_from(sys_.V, sys_.d),
                               rs.phi, rs.pi)
        assert abs(i_c - i_s) < 1e-10 * max(1.0, abs(i_c)), ms.label


class TestCasimir:
    def test_eq1_value(self):
        sys_ = models.build(models.spec("inverse-square", d=1, kappa=0.5))
        assert casimir_I(sys_, PhaseState([2.0], [1.0])) == \
            pytest.approx(0.5, abs=1e-14)

    def test_free_angular_momentum(self):
        sys_ = models.build(models.spec("free", d=2))
        s = PhaseState([1.0, 0.0], [0.0, 1.0])
        assert casimir_I(sys_, s) == pytest.approx(0.5, abs=1e-14)

    def test_matches_spherical_energy(self, catalog_systems):
        for ms, sys_ in catalog_systems:
            if sys_.d < 2:
                continue
            sphere = spherical_system_from(sys_.V, sys_.d)
            for s in model_states(sys_, 20, seed=11,
                                  predicate=chart_interior):
                rs = to_hyperspherical(s)
                i_direct = casimir_I(sys_, s)
                i_sphere = spherical_energy(sphere, rs.phi, rs.pi)
                assert abs(i_direct - i_sphere) < 1e-10 * max(
                    1.0, abs(i_direct))


class TestConservation:
    def test_invariant_and_evolution_laws(self):
        sys_ = models.build(models.spec("inverse-square", d=2, kappa=1.0))
        s0 = models.reference_state(models.spec("inverse-square", d=2,
                                                kappa=1.0))
        traj = integrate_verlet(sys_, s0, 1e-3, 10.0)
        I = traj.monitors["I"]
        assert np.max(np.abs(I - I[0])) / max(1.0, abs(I[0])) < 1e-6
        # dD/dt = 2H and d(2K)/dt = 2D make D linear and 2K quadratic
        H0, D0, K0 = (traj.monitors["H"][0], traj.monitors["D"][0],
                      traj.monitors["K"][0])
        t = traj.times
        npt_tol = 1e-4
        assert np.max(np.abs(traj.monitors["D"] - (D0 + 2 * H0 * t))) < \
            npt_tol * max(1.0, np.max(np.abs(traj.monitors["D"])))
        two_k = 2 * traj.monitors["K"]
        exact = 2 * K0 + 2 * D0 * t + 2 * H0 * t * t
        assert np.max(np.abs(two_k - exact)) < npt_tol * max(
            1.0, np.max(np.abs(two_k)))


# verify_algebra residuals ({H,D}-2H, {H,K}-D, {K,D}+2K) as float.hex, per
# (models.catalog() index, seed) at 200 samples
_ZERO = "0x0.0p+0"
_GOLDEN_ALGEBRA = {
    (0, 0): (_ZERO, _ZERO, _ZERO),
    (0, 1): (_ZERO, _ZERO, _ZERO),
    (0, 7): (_ZERO, _ZERO, _ZERO),
    (1, 0): ("0x1.02e8ddbd2cbc7p-52", _ZERO, _ZERO),
    (1, 1): ("0x1.217fc2015edcep-52", _ZERO, _ZERO),
    (1, 7): ("0x1.9e177977c626cp-52", _ZERO, _ZERO),
    (2, 0): ("0x1.59086e2d89df4p-52", _ZERO, _ZERO),
    (2, 1): ("0x1.f38422ac6463bp-53", _ZERO, _ZERO),
    (2, 7): ("0x1.d103333008838p-53", _ZERO, _ZERO),
    (3, 0): ("0x1.46108fe457131p-52", _ZERO, _ZERO),
    (3, 1): ("0x1.4bcb135be9a75p-52", _ZERO, _ZERO),
    (3, 7): ("0x1.24c39fcffc11dp-52", _ZERO, _ZERO),
    (4, 0): ("0x1.ce5065142c6bap-46", _ZERO, _ZERO),
    (4, 1): ("0x1.0000000000000p-49", _ZERO, _ZERO),
    (4, 7): ("0x1.0000000000000p-50", _ZERO, _ZERO),
    (5, 0): ("0x1.87262c66d2797p-52", _ZERO, _ZERO),
    (5, 1): ("0x1.3e711d370cc12p-52", _ZERO, _ZERO),
    (5, 7): ("0x1.636798a9026d7p-52", _ZERO, _ZERO),
    (6, 0): ("0x1.39d0d02c7dfbdp-47", _ZERO, _ZERO),
    (6, 1): ("0x1.ce844c6fac260p-48", _ZERO, _ZERO),
    (6, 7): ("0x1.25668f2da8f9bp-47", _ZERO, _ZERO),
    (7, 0): ("0x1.718f7f57dcf06p-44", _ZERO, _ZERO),
    (7, 1): ("0x1.0af4fd6be1d77p-45", _ZERO, _ZERO),
    (7, 7): ("0x1.135226d747309p-46", _ZERO, _ZERO),
}


class TestGoldenAlgebra:
    """The so(1,2) residuals are pinned bit for bit (float.hex): the
    gradient and bracket paths may change, the numbers they give may not."""

    @pytest.mark.parametrize("key", sorted(_GOLDEN_ALGEBRA), ids=lambda k: (
        f"{_CATALOG[k[0]][0].label}-seed{k[1]}"))
    def test_catalog(self, key):
        rep = verify_algebra(_CATALOG[key[0]][1], samples=200, seed=key[1])
        got = tuple(v.hex() for v in rep.residuals.values())
        assert got == _GOLDEN_ALGEBRA[key]

    def test_per_point_cubic(self):
        # the system of test_cubic_fails_only_hd, whose V takes one point
        sys_ = build_system(_cubic_potential(2), 2,
                            singular_distance=lambda q:
                            float(np.linalg.norm(q)))
        rep = verify_algebra(sys_, samples=100, tol=1e-8, seed=0)
        got = tuple(v.hex() for v in rep.residuals.values())
        assert got == ("0x1.fe849b52136a7p-2", _ZERO, _ZERO)


class TestRaisingPredicate:
    @staticmethod
    def _outside(Q):
        return np.linalg.norm(Q, axis=-1) > 1.5

    def test_raising_rows_rejected_like_a_mask(self):
        # a batch with any row outside the ball raises; sample_states
        # settles it row by row and drops exactly those rows
        def raising(Q, P):
            if self._outside(Q).any():
                raise NonFiniteError("outside")
            return np.ones(len(Q), dtype=bool)

        def mask(Q, P):
            return ~self._outside(Q)

        for d, seed in ((1, 0), (2, 3), (3, 7)):
            got, want = (sample_states(d, 40, np.random.default_rng(seed),
                                       predicate=pred)
                         for pred in (raising, mask))
            assert len(got) == len(want) == 40
            for a, b in zip(got, want):
                assert a.q.tobytes() == b.q.tobytes()
                assert a.p.tobytes() == b.p.tobytes()

    def test_other_errors_propagate(self):
        def broken(Q, P):
            raise ValueError("not a library error")

        with pytest.raises(ValueError, match="not a library error"):
            sample_states(2, 5, np.random.default_rng(0), predicate=broken)


class TestStateRows:
    """sample_states returns a read-only sequence over its (n, d) rows."""

    def test_zero_states(self):
        states = sample_states(3, 0, np.random.default_rng(0))
        assert len(states) == 0 and list(states) == []
        assert states.Q.shape == states.P.shape == (0, 3)
        with pytest.raises(IndexError):
            states[0]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="n must be"):
            sample_states(2, -1, np.random.default_rng(0))

    def test_zero_dimension_rejected(self):
        # refused at the call, not left to items that raise when read
        with pytest.raises(ValueError, match="d must be >= 1"):
            sample_states(0, 3, np.random.default_rng(0))

    def test_sequence_contract(self):
        sys_ = models.build(models.spec("calogero", n=4, g=1.0))
        states = sample_states(3, 7, np.random.default_rng(4),
                               singular_distance=sys_.singular_distance)
        assert len(states) == 7
        listed = list(states)
        assert all(isinstance(s, PhaseState) for s in listed)
        for k, s in enumerate(listed):
            assert s.q.tobytes() == states.Q[k].tobytes()
            assert s.p.tobytes() == states.P[k].tobytes()
            assert states[k].q.tobytes() == s.q.tobytes()
        assert states[-1].q.tobytes() == listed[-1].q.tobytes()
        assert states[-7].p.tobytes() == listed[0].p.tobytes()
        for i in (7, -8):
            with pytest.raises(IndexError):
                states[i]
        part = states[1:6:2]
        assert len(part) == 3
        assert [s.q.tobytes() for s in part] == [
            s.q.tobytes() for s in listed[1:6:2]]
        assert len(states[5:]) == 2 and len(states[9:]) == 0
        (one,) = sample_states(3, 1, np.random.default_rng(4),
                               singular_distance=sys_.singular_distance)
        assert one.q.tobytes() == listed[0].q.tobytes()

    def test_rows_are_read_only(self):
        states = sample_states(2, 3, np.random.default_rng(1))
        with pytest.raises(ValueError, match="read-only"):
            states.Q[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            states[0].p[0] = 1.0

    def test_rows_distance_screens_a_chunk(self):
        # a distance with a rows form takes each chunk's q rows in one call
        # of it; the same point function without one is called once per
        # row, and both keep the same draws
        calls = []

        def radius(q):
            calls.append(q.shape)
            return np.sqrt(np.vecdot(q, q)) - 1.0

        def declared(q):
            raise AssertionError("the point form screened a chunk")

        declared.rows = radius
        rows = sample_states(2, 50, np.random.default_rng(9),
                             singular_distance=declared)
        assert calls and all(len(shape) == 2 for shape in calls)
        chunks = len(calls)
        point = sample_states(2, 50, np.random.default_rng(9),
                              singular_distance=radius)
        assert all(shape == (2,) for shape in calls[chunks:])
        assert rows.Q.tobytes() == point.Q.tobytes()
        assert rows.P.tobytes() == point.P.tobytes()


def test_sampled_draws_pinned():
    # the states sample_states draws, their order and the attempts they
    # take (the generator's next value moves with the attempt count), over
    # catalog distances, none, a one-point distance, a rows predicate and a
    # predicate that raises on a batch and is settled row by row
    def not_infalling(Q, P):
        return np.vecdot(Q, P) > -0.5

    def raising(Q, P):
        if (np.linalg.norm(Q, axis=-1) > 2.5).any():
            raise NonFiniteError("outside")
        return np.ones(len(Q), dtype=bool)

    h = hashlib.sha256()
    for ms in models.catalog() + [
            models.spec("inverse-square", d=1, kappa=1.0),
            models.spec("calogero", n=5, g=1.0),
            models.spec("calogero", n=6, g=1.0)]:
        sys_ = models.build(ms)
        for sdist, predicate, seed in (
                (sys_.singular_distance, None, 0),
                (sys_.singular_distance, None, 7),
                (None, None, 3),
                (sys_.singular_distance, not_infalling, 11),
                (sys_.singular_distance, raising, 19),
                (lambda q: float(np.linalg.norm(q)) - 1.0, None, 23)):
            rng = np.random.default_rng(seed)
            states = sample_states(ms.d, 60, rng, singular_distance=sdist,
                                   predicate=predicate)
            h.update(f"{ms.label} {seed} {len(states)}\n".encode())
            for s in states:
                h.update(s.q.tobytes() + s.p.tobytes())
            h.update(np.float64(rng.random()).tobytes())
    assert h.hexdigest() == ("4e807ea1ac3da4961e47dabce6e45f7a"
                             "9b03974ad0792acf86741809377431f6")


class TestOneSampler:
    """Every seeded report draws its states through one call of the
    module-level ``confmech.conformal.sample_states``, the name the
    benchmark tracer wraps."""

    @pytest.mark.parametrize("report", ["homogeneity", "algebra",
                                        "canonicity"])
    def test_one_call_per_report(self, monkeypatch, report):
        calls = []
        draw = conformal.sample_states

        def counting(*args, **kwargs):
            calls.append(args[:2])
            return draw(*args, **kwargs)

        monkeypatch.setattr(conformal, "sample_states", counting)
        sys_ = models.build(models.spec("calogero", n=3, g=1.0))
        if report == "homogeneity":
            check_homogeneity(sys_.V, sys_.d, samples=30, seed=2,
                              singular_distance=sys_.singular_distance)
        elif report == "algebra":
            verify_algebra(sys_, samples=30, seed=2)
        else:
            canonicity_report(sys_, samples=30, seed=2)
        assert calls == [(sys_.d, 30)]


# check_homogeneity's max_residual as float.hex, per models.catalog() index,
# at 200 samples and seed 0
_GOLDEN_HOMOGENEITY = (
    _ZERO,
    "0x1.1215d792527a6p-51",
    "0x1.0000000000000p-51",
    "0x1.36a229c2f89e6p-51",
    "0x1.a6ce4cd73384fp-45",
    "0x1.2363a918aa472p-51",
    "0x1.39d25ea49ba05p-46",
    "0x1.7190152d3a709p-43",
)


class TestGoldenHomogeneity:
    @pytest.mark.parametrize("index", range(len(_GOLDEN_HOMOGENEITY)),
                             ids=lambda k: _CATALOG[k][0].label)
    def test_catalog(self, index):
        sys_ = _CATALOG[index][1]
        rep = check_homogeneity(sys_.V, sys_.d, samples=200, seed=0,
                                singular_distance=sys_.singular_distance)
        assert rep.passed
        assert rep.max_residual.hex() == _GOLDEN_HOMOGENEITY[index]
