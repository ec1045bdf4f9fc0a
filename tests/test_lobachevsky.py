"""Half-plane coordinate, Killing forms, decoupling inversion, bracket
formulas, canonicity verdicts, and the symplectic-form assembly."""

import hashlib
import json
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confmech import dual, lobachevsky, models, phase
from confmech.conformal import _casimir, build_system, casimir_I
from confmech.errors import (
    NonFiniteError,
    NonPositiveEnergyError,
    ZeroAngularEnergyError,
    ZeroWError,
)
from confmech.lobachevsky import (
    NEGATIVE_I,
    POSITIVE_I,
    KleinPoint,
    _ww,
    assemble_omega,
    bracket_matrix,
    bracket_ww,
    canonicity_report,
    expected_brackets,
    formula_ww,
    halfplane_observable,
    invert,
    killing_forms,
    tilde_map,
    tilde_observable,
    to_klein,
)
from confmech.phase import Observable, PhaseState, brackets
from confmech.reduction import (
    angles_from_unit,
    hyperspherical_rows,
    spherical_system_from,
    to_hyperspherical,
)

from conftest import chart_interior, chart_observable, model_states


def _positive_I_states(sys_, n, seed, i_floor=5e-2):
    def pred(s):
        try:
            i_val = casimir_I(sys_, s)
            h = sys_.H(s)
        except Exception:
            return False
        if not (i_val > i_floor and h > i_floor):
            return False
        return sys_.d == 1 or chart_interior(s)
    return model_states(sys_, n, seed, predicate=pred)


class TestToKlein:
    def test_substitution_examples(self):
        assert to_klein((1.0, 0.0), 0.5).w == pytest.approx(1j)
        assert to_klein((1.0, 1.0), 0.5).w == pytest.approx(1 + 1j)
        assert to_klein((2.0, 2.0), 2.0).w == pytest.approx(1 + 0.5j)

    def test_zero_invariant_rejected(self):
        with pytest.raises(ZeroAngularEnergyError):
            to_klein((1.0, 1.0), 0.0)

    def test_negative_branch_real_pair(self):
        kp = to_klein((1.0, 1.0), -0.5)
        assert kp.branch == NEGATIVE_I
        assert kp.w == pytest.approx(2.0)
        assert kp.wbar == pytest.approx(0.0)
        assert kp.sqrt2I == pytest.approx(1.0)

    def test_round_trip(self):
        for r, p_r, i_val in ((1.3, -0.4, 0.8), (0.5, 2.0, 2.5),
                              (2.0, 0.3, -0.7)):
            kp = to_klein((r, p_r), i_val)
            # back from the half-plane: r^2 = Re(2 sigma / (w - wbar)) on
            # both branches, and p_r / r = Re (w + wbar) / 2
            r_back = math.sqrt((2.0 * kp.sigma / (kp.w - kp.wbar)).real)
            pr_back = (0.5 * (kp.w + kp.wbar)).real * r_back
            assert r_back == pytest.approx(r, abs=1e-12)
            assert pr_back == pytest.approx(p_r, abs=1e-12)

    def test_from_phase_state(self):
        kp = to_klein(PhaseState([2.0], [1.0]), 0.5)
        assert kp.w == pytest.approx(0.5 + 0.25j)

    def test_overflowing_radius_is_non_finite(self):
        with pytest.raises(NonFiniteError, match="r\\*\\*2 is not finite"):
            to_klein((1e308, 1e308), 1.0)

    @pytest.mark.parametrize("p_r", [1e300, 1.0, 0.0])
    def test_underflowing_radius_is_non_finite(self, p_r):
        # r = 1e-300 squares to 0.0, and every form divides by r**2: a
        # typed error, not a ZeroDivisionError, from each map
        for call in (lambda: killing_forms(to_klein((1e-300, p_r), 1.0)),
                     lambda: tilde_map((1e-300, p_r), 1.0),
                     lambda: to_klein((1e-300, p_r), -1.0)):
            with pytest.raises(NonFiniteError,
                               match=r"r\*\*2 is not finite and nonzero "
                                     r"at r = 1e-300"):
                call()


class TestKillingForms:
    def test_values(self):
        npt.assert_allclose(killing_forms(to_klein((1.0, 1.0), 0.5)),
                            (1.0, 1.0, 0.5), atol=1e-14)
        npt.assert_allclose(killing_forms(to_klein((1.0, 0.0), 0.5)),
                            (0.5, 0.0, 0.5), atol=1e-14)

    def test_casimir_identity(self):
        for kp in (to_klein((1.0, 1.0), 0.5), to_klein((1.0, 0.0), 0.5)):
            h, dd, k = killing_forms(kp)
            assert abs(4 * h * k - dd ** 2 - 2 * kp.I) < 1e-12

    def test_matches_direct_both_branches(self, catalog_systems):
        for ms, sys_ in catalog_systems:
            for s in _positive_I_states(sys_, 100, seed=41):
                i_val = casimir_I(sys_, s)
                rs = to_hyperspherical(s)
                kp = to_klein(rs, i_val)
                h, dd, k = killing_forms(kp)
                assert abs(h - sys_.H(s)) < 1e-12 * max(1.0, abs(h))
                assert abs(dd - sys_.D(s)) < 1e-12 * max(1.0, abs(dd))
                assert abs(k - sys_.K(s)) < 1e-12 * max(1.0, abs(k))

    def test_negative_branch_matches_direct(self):
        sys_ = models.build(models.spec("inverse-square", d=1, kappa=-0.5))
        for x, p in ((1.0, 1.0), (0.7, -0.3), (2.0, 0.1)):
            s = PhaseState([x], [p])
            i_val = casimir_I(sys_, s)
            assert i_val < 0
            kp = to_klein((x, p * np.sign(x)), i_val)
            h, dd, k = killing_forms(kp)
            assert abs(h - sys_.H(s)) < 1e-12 * max(1.0, abs(h))
            assert abs(dd - sys_.D(s)) < 1e-12
            assert abs(k - sys_.K(s)) < 1e-12


class TestInvert:
    def test_fixed_point(self):
        kp = to_klein((1.0, 0.0), 0.5)
        assert invert(kp).w == pytest.approx(1j)

    def test_arithmetic(self):
        kp = to_klein((1.0, 1.0), 0.5)
        assert invert(kp).w == pytest.approx(-0.5 + 0.5j)
        assert invert(kp).sqrt2I == kp.sqrt2I

    def test_zero_w_rejected(self):
        kp = to_klein((1.0, 1.0), -0.5)  # wbar = 0 on the negative branch
        with pytest.raises(ZeroWError):
            invert(kp)

    def test_transport_signs(self, catalog_systems):
        # H -> K, K -> +H, D -> -D pointwise
        for ms, sys_ in catalog_systems:
            for s in _positive_I_states(sys_, 15, seed=43):
                kp = to_klein(to_hyperspherical(s), casimir_I(sys_, s))
                h, dd, k = killing_forms(kp)
                h2, dd2, k2 = killing_forms(invert(kp))
                assert abs(h2 - k) < 1e-12 * max(1.0, abs(k))
                assert abs(k2 - h) < 1e-12 * max(1.0, abs(h))
                assert abs(dd2 + dd) < 1e-12 * max(1.0, abs(dd))

    def test_upper_half_plane_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            kp = to_klein((rng.uniform(0.2, 3.0), rng.uniform(-2, 2)),
                          rng.uniform(0.1, 2.0))
            assert invert(kp).w.imag > 0


def _branch_states(sys_, n, seed, sign, floor=5e-2):
    """States with sign * I > floor and H > floor, inside the chart."""
    def pred(s):
        try:
            i_val, h = casimir_I(sys_, s), sys_.H(s)
        except Exception:
            return False
        return sign * i_val > floor and h > floor and (
            sys_.d == 1 or chart_interior(s))
    return model_states(sys_, n, seed, predicate=pred)


# both signs of I: the catalog on the positive branch, and attractive
# inverse-square systems (I < 0 at small angular momentum) for both
_BRANCH_CASES = ([(ms, 1.0) for ms in models.catalog()]
                 + [(models.spec("inverse-square", d=d, kappa=k), sign)
                    for d in (1, 2, 3) for k, sign in ((0.5, 1.0),
                                                       (-0.5, -1.0))]
                 + [(models.spec("inverse-square", d=3, kappa=-0.5), 1.0)])
_BRANCH_SYSTEMS = {ms.label: models.build(ms) for ms, _ in _BRANCH_CASES}


class TestBranchProperties:
    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from(_BRANCH_CASES),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_transport_signs(self, case, seed):
        # H -> K, K -> +H, D -> -D at test_transport_signs' tolerance
        ms, sign = case
        sys_ = _BRANCH_SYSTEMS[ms.label]
        (s,) = _branch_states(sys_, 1, seed, sign)
        kp = to_klein(to_hyperspherical(s), casimir_I(sys_, s))
        assert kp.branch == (POSITIVE_I if sign > 0 else NEGATIVE_I)
        h, dd, k = killing_forms(kp)
        h2, dd2, k2 = killing_forms(invert(kp))
        assert abs(h2 - k) < 1e-12 * max(1.0, abs(k))
        assert abs(k2 - h) < 1e-12 * max(1.0, abs(h))
        assert abs(dd2 + dd) < 1e-12 * max(1.0, abs(dd))

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(_BRANCH_CASES),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_brackets_match_each_state(self, case, seed):
        # every (N, m, m) slice of the rows form against the table of its
        # row's state, over the decoupling coordinates and H, D, K, I
        ms, sign = case
        sys_ = _BRANCH_SYSTEMS[ms.label]
        states = _branch_states(sys_, 5, seed, sign)
        obs = [sys_.H, sys_.D, sys_.K, sys_.casimir,
               tilde_observable(sys_),
               halfplane_observable(spherical_system_from(sys_.V, ms.d))]
        rows = brackets(obs, np.array([s.q for s in states]),
                        np.array([s.p for s in states]))
        # H, D, K, I, (p~, r~), (Re w, s, I), then the chart's 2d components
        m = 4 + 2 + 3 + (2 * ms.d if ms.d > 1 else 0)
        assert rows.shape == (5, m, m)
        for table, s in zip(rows, states):
            want = brackets(obs, s)
            assert np.all(np.abs(table - want)
                          <= 1e-12 * np.maximum(1.0, np.abs(want)))


class TestTildeMap:
    def test_values(self):
        p_t, r_t = tilde_map((1.0, 1.0), 0.5)
        assert p_t == pytest.approx(math.sqrt(2.0), abs=1e-14)
        assert r_t == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-14)

    def test_degenerate_dilatation(self):
        p_t, r_t = tilde_map((1.0, 0.0), 0.5)
        assert p_t == pytest.approx(1.0)
        assert r_t == pytest.approx(0.0)
        kp = to_klein((p_t, -r_t), 0.5)  # w~: the point of (p~, -r~)
        assert kp.w.real == pytest.approx(0.0)  # imaginary axis

    def test_nonpositive_energy_rejected(self):
        with pytest.raises(NonPositiveEnergyError):
            tilde_map((1.0, 0.0), -0.5)  # H = -0.5 + 0 = -0.5 < 0

    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_nonpositive_radius_rejected(self, r):
        # as to_klein refuses it, not a ZeroDivisionError
        with pytest.raises(ValueError, match="r must be positive"):
            tilde_map((r, 1.0), 1.0)

    def test_consistency_contract(self, catalog_systems):
        # w~ assembled from (p~, r~) equals invert(to_klein(.))
        for ms, sys_ in catalog_systems:
            for s in _positive_I_states(sys_, 15, seed=47):
                i_val = casimir_I(sys_, s)
                rs = to_hyperspherical(s)
                p_t, r_t = tilde_map(rs, i_val)
                wt = to_klein((p_t, -r_t), i_val)
                wi = invert(to_klein(rs, i_val))
                assert abs(wt.w - wi.w) < 1e-12 * max(1.0, abs(wi.w))

    def test_product_is_dilatation(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            r = rng.uniform(0.2, 3.0)
            p_r = rng.uniform(-2.0, 2.0)
            i_val = rng.uniform(0.05, 2.0)
            p_t, r_t = tilde_map((r, p_r), i_val)
            assert r_t * p_t == pytest.approx(p_r * r, abs=1e-12)


class TestBracketFormulas:
    def test_one_dimensional_closed_form(self):
        # {w, wbar} = 4 i g / x^4 for the 1D system with coupling g
        sys_ = models.build(models.spec("inverse-square", d=1, kappa=0.5))
        sphere = spherical_system_from(sys_.V, 1)
        for x, p in ((1.0, 1.0), (0.7, -0.5), (1.8, 0.0)):
            s = PhaseState([x], [p])
            num = bracket_ww(sphere, s)
            assert num == pytest.approx(4j * 1.0 / x ** 4, abs=1e-9)
            kp = to_klein((x, p), casimir_I(sys_, s))
            assert formula_ww(kp) == pytest.approx(num, abs=1e-9)

    def test_formula_substitution(self):
        kp = to_klein((1.0, 1.0), 0.5)  # w = 1 + i, sqrt(2I) = 1
        assert formula_ww(kp) == pytest.approx(4j, abs=1e-14)

    def test_numeric_matches_formula_catalog(self, catalog_systems):
        for ms, sys_ in catalog_systems:
            sphere = spherical_system_from(sys_.V, sys_.d)
            for s in _positive_I_states(sys_, 10, seed=53):
                kp = to_klein(to_hyperspherical(s), casimir_I(sys_, s))
                num = bracket_ww(sphere, s)
                assert abs(num - formula_ww(kp)) < 1e-8 * max(
                    1.0, abs(num))

    def test_negative_branch_formula(self):
        sys_ = models.build(models.spec("inverse-square", d=1, kappa=-0.5))
        sphere = spherical_system_from(sys_.V, 1)
        for x, p in ((1.0, 1.0), (0.6, 0.2)):
            s = PhaseState([x], [p])
            i_val = casimir_I(sys_, s)
            kp = to_klein((x, p), i_val)
            num = bracket_ww(sphere, s)
            assert abs(num - formula_ww(kp)) < 1e-8 * max(1.0, abs(num))

    def test_mixed_brackets_free_d2(self):
        sys_ = models.build(models.spec("free", d=2))
        sphere = spherical_system_from(sys_.V, 2)
        s = PhaseState([1.0, 0.0], [1.0, 1.0])
        rs = to_hyperspherical(s)
        kp = to_klein(rs, casimir_I(sys_, s))
        table = expected_brackets(kp, sphere, rs)
        assert abs(table.ww_numeric - table.ww_formula) < 1e-9
        row = {r.name: r for r in table.mixed}["phi_0"]
        # engine agrees with the self-consistent prefactor 1/(4I) ...
        assert abs(row.numeric - row.consistent) < 1e-9
        assert row.numeric == pytest.approx(-1j, abs=1e-9)
        # ... and the commonly displayed 1/(2I) value is exactly twice it
        assert row.displayed == pytest.approx(2.0 * row.consistent,
                                              abs=1e-14)

    def test_mixed_brackets_catalog(self, catalog_systems):
        for ms, sys_ in catalog_systems:
            if sys_.d < 2:
                continue
            sphere = spherical_system_from(sys_.V, sys_.d)
            for s in _positive_I_states(sys_, 5, seed=59):
                rs = to_hyperspherical(s)
                kp = to_klein(rs, casimir_I(sys_, s))
                table = expected_brackets(kp, sphere, rs)
                assert table.max_mixed_residual() < 1e-8


class TestCanonicity:
    def test_one_dimensional_canonical(self):
        rep = canonicity_report(
            models.spec("inverse-square", d=1, kappa=0.5),
            samples=100, tol=1e-8, seed=0)
        assert rep.verdict == "canonical"
        assert rep.brackets["{p~,r~}-1"]["max_residual"] < 1e-8

    def test_witness_value_free_d2(self):
        sys_ = models.build(models.spec("free", d=2))
        s = PhaseState([1.0, 0.0], [1.0, 1.0])
        table = brackets((tilde_observable(sys_), chart_observable(2)), s)
        # r~ is row 1; phi_0 is component 2 of the chart, column 4
        val = table[1, 4]
        assert val == pytest.approx(-0.3535533905932738, abs=1e-8)
        assert table[0, 1] == pytest.approx(1.0, abs=1e-10)

    def test_free_d2_non_canonical(self):
        rep = canonicity_report(models.spec("free", d=2), samples=60,
                                tol=1e-8, seed=1)
        assert rep.verdict == "non-canonical"
        assert rep.brackets["{r~,phi_0}"]["max_residual"] > 1e-7
        assert rep.brackets["{p~,r~}-1"]["max_residual"] < 1e-8
        # the mixed residual exceeds 10 tol at a majority of samples
        assert rep.brackets["{r~,phi_0}"]["exceed_count"] > 30

    def test_inverse_square_d3_non_canonical(self):
        rep = canonicity_report(
            models.spec("inverse-square", d=3, kappa=1.0),
            samples=40, tol=1e-8, seed=2)
        assert rep.verdict == "non-canonical"

    def test_samples_must_be_positive(self):
        # zero states would read "canonical", the opposite of d > 1's verdict
        for n in (0, -1):
            with pytest.raises(ValueError, match="samples must be >= 1"):
                canonicity_report(models.spec("free", d=3), samples=n)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan"),
                                     float("inf")])
    def test_tol_must_be_positive_finite(self, tol):
        # tol = 0 or NaN would call the canonical d = 1 map non-canonical
        with pytest.raises(ValueError, match="tol must be"):
            canonicity_report(models.spec("inverse-square", d=1, kappa=0.5),
                              tol=tol)

    @pytest.mark.parametrize("analytic", [False, True],
                             ids=["jets", "grad_fn"])
    @pytest.mark.parametrize("ms", [
        models.spec("inverse-square", d=2, kappa=1.0),
        models.spec("coulomb", d=3, gamma=1.0),
        models.spec("calogero", n=4, g=1.0),
    ], ids=lambda ms: ms.label)
    def test_per_point_potential_report(self, ms, analytic):
        # the catalog potential, called one point at a time: lifted to
        # rows by Observable, it gives the catalog system's report exactly
        cat = models.build(ms)

        def one_point(f):
            def g(q, p):
                assert np.ndim(getattr(q, "val", q)) == 1
                return f(q, p)
            return g

        V = Observable(ms.d, one_point(cat.V.fn),
                       grad_fn=one_point(cat.V.grad_fn) if analytic else None)
        sys_ = build_system(V, ms.d, singular_distance=cat.singular_distance)
        got = canonicity_report(sys_, samples=100, seed=4).to_dict()
        assert got == canonicity_report(ms, samples=100, seed=4).to_dict()

    @pytest.mark.parametrize("ms", [
        *(models.spec("inverse-square", d=d, kappa=0.5) for d in (1, 2, 3)),
        models.spec("calogero", n=4),
        models.spec("coulomb", d=3, gamma=1.0),
        models.spec("higgs", d=3, omega=1.0),
    ], ids=lambda ms: ms.label)
    def test_ww_column_is_the_per_state_loop(self, ms, monkeypatch):
        # the {w,wbar} column, array arithmetic over the rows, against the
        # scalar _ww / to_klein / formula_ww check state by state (its
        # form before the column was vectorized), bit for bit
        seen = []

        def recorded(fn):
            def wrapper(*args):
                seen.append(fn(*args))
                return seen[-1]
            return wrapper

        for name in ("_seeded_rows", "_ww_residual_rows"):
            monkeypatch.setattr(lobachevsky, name,
                                recorded(getattr(lobachevsky, name)))
        sys_ = models.build(ms)
        hp = halfplane_observable(spherical_system_from(sys_.V, ms.d))
        for seed in (0, 1, 7):
            seen.clear()
            entry = canonicity_report(sys_, samples=200, seed=seed).brackets[
                "{w,wbar}-formula"]
            (Q, P), got = seen
            b = brackets([hp], Q, P)[:, 0, 1]
            r, p_r, _, _ = hyperspherical_rows(Q, P)
            i_val = _casimir(sys_.H.fn(Q, P), sys_.K.fn(Q, P),
                             sys_.D.fn(Q, P))
            want = np.array([
                abs(_ww(b_k, POSITIVE_I)
                    - formula_ww(to_klein((r_k, p_k), i_k)))
                for b_k, r_k, p_k, i_k in zip(b.tolist(), r.tolist(),
                                              p_r.tolist(), i_val.tolist())])
            assert got.tobytes() == want.tobytes()
            assert entry == {"max_residual": float(want.max()),
                             "exceed_count": int(np.sum(want > 1e-8))}

    def test_report_dict(self):
        rep = canonicity_report(models.spec("free", d=2), samples=10,
                                tol=1e-8, seed=3)
        d = rep.to_dict()
        assert list(d) == ["dimension", "brackets", "samples", "tol",
                           "seed", "verdict", "sign_notes"]
        assert d["dimension"] == 2


# The decoupling verdicts at 200 samples, recorded from the per-state
# engine: (model index in _GOLDEN_SPECS, seed) -> (verdict, name ->
# (max_residual, exceed_count)).
_GOLDEN_SPECS = [models.spec("inverse-square", d=d, kappa=0.5)
                 for d in (1, 2, 3)] + [models.spec("calogero", n=4)]
_GOLDEN = {
    (0, 0): ('canonical', {
        '{p~,r~}-1': (4.440892098500626e-16, 0),
        '{w,wbar}-formula': (1.4901161193847656e-08, 1),
    }),
    (0, 1): ('canonical', {
        '{p~,r~}-1': (4.440892098500626e-16, 0),
        '{w,wbar}-formula': (5.960464477539063e-08, 1),
    }),
    (0, 7): ('canonical', {
        '{p~,r~}-1': (4.440892098500626e-16, 0),
        '{w,wbar}-formula': (7.450580596923828e-09, 0),
    }),
    (1, 0): ('non-canonical', {
        '{p~,r~}-1': (4.440892098500626e-16, 0),
        '{r~,phi_0}': (0.43044989598402467, 200),
        '{r~,pi_0}': (1.3322676295501878e-15, 0),
        '{p~,phi_0}': (1.5334125269774121, 200),
        '{p~,pi_0}': (5.770969011414468e-16, 0),
        '{w,wbar}-formula': (2.7284841053187847e-12, 0),
    }),
    (1, 1): ('non-canonical', {
        '{p~,r~}-1': (4.440892098500626e-16, 0),
        '{r~,phi_0}': (0.3779910604684587, 200),
        '{r~,pi_0}': (8.881784197001252e-16, 0),
        '{p~,phi_0}': (1.2030341830728413, 200),
        '{p~,pi_0}': (9.16559424461635e-16, 0),
        '{w,wbar}-formula': (2.1827872842550278e-11, 0),
    }),
    (1, 7): ('non-canonical', {
        '{p~,r~}-1': (4.440892098500626e-16, 0),
        '{r~,phi_0}': (0.39174549701430356, 200),
        '{r~,pi_0}': (8.881784197001252e-16, 0),
        '{p~,phi_0}': (1.9107860992408108, 200),
        '{p~,pi_0}': (9.249818499327602e-16, 0),
        '{w,wbar}-formula': (2.8421709430404007e-13, 0),
    }),
    (2, 0): ('non-canonical', {
        '{p~,r~}-1': (4.440892098500626e-16, 0),
        '{r~,phi_0}': (0.29463035917233266, 200),
        '{r~,pi_0}': (1.7671068692513874, 200),
        '{p~,phi_0}': (1.176245913664887, 200),
        '{p~,pi_0}': (4.917600636091253, 200),
        '{r~,phi_1}': (0.838102610948908, 200),
        '{r~,pi_1}': (1.792186191118539e-15, 0),
        '{p~,phi_1}': (2.0123626710295976, 200),
        '{p~,pi_1}': (6.078399624948961e-15, 0),
        '{w,wbar}-formula': (1.4210854715202004e-14, 0),
    }),
    (2, 1): ('non-canonical', {
        '{p~,r~}-1': (4.440892098500626e-16, 0),
        '{r~,phi_0}': (0.3735212196815238, 200),
        '{r~,pi_0}': (3.07615111787378, 200),
        '{p~,phi_0}': (1.0052699474472753, 200),
        '{p~,pi_0}': (8.705846757966142, 200),
        '{r~,phi_1}': (1.1671337607569154, 200),
        '{r~,pi_1}': (8.881784197001252e-16, 0),
        '{p~,phi_1}': (3.3031171999838476, 200),
        '{p~,pi_1}': (9.767476693942506e-16, 0),
        '{w,wbar}-formula': (3.552713678800501e-14, 0),
    }),
    (2, 7): ('non-canonical', {
        '{p~,r~}-1': (4.440892098500626e-16, 0),
        '{r~,phi_0}': (0.391004227112871, 200),
        '{r~,pi_0}': (1.2566433152216308, 200),
        '{p~,phi_0}': (0.7760122956112175, 200),
        '{p~,pi_0}': (3.2490465842260776, 200),
        '{r~,phi_1}': (0.6746810816941636, 200),
        '{r~,pi_1}': (6.661338147750939e-16, 0),
        '{p~,phi_1}': (1.6202962405445558, 200),
        '{p~,pi_1}': (3.849766457262861e-15, 0),
        '{w,wbar}-formula': (1.4210854715202004e-14, 0),
    }),
    (3, 0): ('non-canonical', {
        '{p~,r~}-1': (8.182343691487404e-14, 0),
        '{r~,phi_0}': (0.07400222751163062, 199),
        '{r~,pi_0}': (12.026556480423894, 200),
        '{p~,phi_0}': (0.30258123021614064, 200),
        '{p~,pi_0}': (481757.1682462403, 200),
        '{r~,phi_1}': (0.08256678574578927, 199),
        '{r~,pi_1}': (9.6635139135059, 200),
        '{p~,phi_1}': (0.464959419108324, 200),
        '{p~,pi_1}': (76381.28040266714, 200),
        '{w,wbar}-formula': (7.23048287909478e-11, 0),
    }),
    (3, 1): ('non-canonical', {
        '{p~,r~}-1': (3.3084646133829665e-14, 0),
        '{r~,phi_0}': (0.04932408182346941, 200),
        '{r~,pi_0}': (10.51408491729399, 200),
        '{p~,phi_0}': (0.2837964761229716, 200),
        '{p~,pi_0}': (131894.72851832458, 200),
        '{r~,phi_1}': (0.07547952836101218, 199),
        '{r~,pi_1}': (9.428255677513524, 200),
        '{p~,phi_1}': (0.5862579275647801, 200),
        '{p~,pi_1}': (75484.50180596006, 200),
        '{w,wbar}-formula': (3.660716174636036e-11, 0),
    }),
    (3, 7): ('non-canonical', {
        '{p~,r~}-1': (4.773959005888173e-14, 0),
        '{r~,phi_0}': (0.047248108559862646, 200),
        '{r~,pi_0}': (11.796959780614525, 200),
        '{p~,phi_0}': (0.3022379968162164, 200),
        '{p~,pi_0}': (77413.62236522949, 200),
        '{r~,phi_1}': (0.0618419344275124, 200),
        '{r~,pi_1}': (9.05206522004134, 200),
        '{p~,phi_1}': (0.46641088157977045, 200),
        '{p~,pi_1}': (15165.356110870905, 200),
        '{w,wbar}-formula': (2.1742607714259066e-12, 0),
    }),
}


class TestGoldenVerdicts:
    """Verdicts and exceed counts are exact; max_residual is pinned at
    rel 1e-9, abs 1e-13 (last-bit moves of an O(1) bracket pass, a
    different rounding-level residual does not)."""

    @pytest.mark.parametrize("key", sorted(_GOLDEN), ids=lambda k: (
        f"{_GOLDEN_SPECS[k[0]].label}-seed{k[1]}"))
    def test_report_matches(self, key):
        verdict, table = _GOLDEN[key]
        doc = canonicity_report(_GOLDEN_SPECS[key[0]], samples=200,
                                seed=key[1]).to_dict()
        assert doc["verdict"] == verdict
        assert list(doc["brackets"]) == list(table)
        for name, (worst, exceed) in table.items():
            entry = doc["brackets"][name]
            assert entry["exceed_count"] == exceed, name
            assert entry["max_residual"] == pytest.approx(
                worst, rel=1e-9, abs=1e-13), name


def test_canonicity_reports_pinned():
    # every byte of the seeded reports over the catalog and inverse-square
    # d = 1 (TestGoldenVerdicts holds max_residual only to rel 1e-9)
    h = hashlib.sha256()
    for ms in models.catalog() + [
            models.spec("inverse-square", d=1, kappa=0.5)]:
        for seed in (0, 1, 7):
            doc = canonicity_report(ms, samples=200, seed=seed).to_dict()
            h.update(json.dumps(doc).encode() + b"\n")
    assert h.hexdigest() == ("58dfa650882091315227f1504430b8a7"
                             "48518663dcde20c8c08ed4a1fa7564e6")


def _golden_bracket_lines(sys_, s):
    """``bracket_matrix(...).tobytes().hex()`` at a state and, where the
    chart reaches it, the ``float.hex`` of every ``expected_brackets``
    field, one line each."""
    sphere = spherical_system_from(sys_.V, sys_.d)
    lines = [bracket_matrix(sphere, s).tobytes().hex()]
    if sys_.d == 1 and s.q[0] <= 0:
        return lines
    rs = to_hyperspherical(s)
    table = expected_brackets(to_klein(rs, casimir_I(sys_, s)), sphere, rs)
    lines.append(table.branch)
    for z in (table.ww_numeric, table.ww_formula):
        lines += [z.real.hex(), z.imag.hex()]
    for row in table.mixed:
        lines += [row.name, row.eom.hex()]
        for z in (row.numeric, row.consistent, row.displayed):
            lines += [z.real.hex(), z.imag.hex()]
    return lines


# SHA-256 of the _golden_bracket_lines of the catalog's positive-I states
# (_positive_I_states(sys_, 3, seed=73)), recorded from the one-entry-per-
# observable chart: (catalog index, state index) -> digest
_GOLDEN_BRACKET_SYSTEMS = [models.build(ms) for ms in models.catalog()]
_GOLDEN_BRACKETS = {
    (0, 0): '31d4153a17312a169b251cc7f91bcd201ab4cf8b673fea5a2917edac7ca801f9',
    (0, 1): 'dbc9e376d1629d45c869906c63031dc2a8eb23443fce26ea489e3596690f61d6',
    (0, 2): 'c166793b89dc40b7a7dbbedc5e181f13701f363c910be8c63f04615019084178',
    (1, 0): 'd2ffcc20f640e0439858f685cbc040e873296c6b98978841e8dfe6bd83240dc2',
    (1, 1): '45f86c41277607879d996332cbc2be64afe23c0f494bc6b10c03f3807c446042',
    (1, 2): '97b6d893dce3090711fe6826dba753c72ceb51a0d06bbc81a77c07152897c0db',
    (2, 0): 'c389a262887c514a5a7d676c6a56b74fff90e972021388907dc40107a8a53d4e',
    (2, 1): 'cf7968d57a7a010db878900b358713563dc0c034c2ce7200bca16c814d1c5d49',
    (2, 2): 'a0dac42c1cccafaa42077d35becaf53c4848070556f30021116452204ab34c86',
    (3, 0): 'f088de09971ab034876a50d8ccdf7aaebfc851132107a76a44fe63aa69e8d009',
    (3, 1): '3e0ef1b5764bc2e2864dc4e392a8c3884990ed59c1675a963c1631e1d9b17f66',
    (3, 2): 'bd1a7e3017d43996d8bf645c0ee100711ca6a08ac40594664cf37bee0fd1300c',
    (4, 0): '8a190c1963d2244d8e63f22e315e4ae174f95d84f3b5862e6f975e4996fbe179',
    (4, 1): '5bf6d08e86936319ea0e57343ab6069232c67adede5073a07996eabc9e87e505',
    (4, 2): '13dc2f00a4ec7dfd554cf63170808f010f69d3dd2763a6424103ae226bee4ffe',
    (5, 0): 'e1b5aa0394ee77734d8e6addfe793091345539709d249afef9d6221c41022617',
    (5, 1): 'cdeefae239c2f79a2d30d293ea3c1b03fa9ffd6999f99afb94646b06afeb166b',
    (5, 2): 'd7fe3fb70fd082f205a710b834688af309f595a97f3c2444a8e15ad69cf49ee8',
    (6, 0): '54682969858826def92b3196f5ea2f536bd079774b82a9552b4505e6274c3c77',
    (6, 1): '61a6fa4970b1a187d440abf1b6b9ed30a18c99486cf2fbf7dc2b102c29b7ebf5',
    (6, 2): 'fb6b24e0842caa3e761cfe80bb683300aa54b5efce13e2d180d94f8e250481f1',
    (7, 0): '7d9a62d6b8fac5f79f4b194ef7d55a1ede0bf14c3d9ee2427568c155adeb7b7c',
    (7, 1): '2ba5009e8264d4fe19b96a888b981e617fd24c2e6449a296d8c18eacd6b452a9',
    (7, 2): '4e3d9243f017c0f1f69a239420a3d19ea0ac0fe7687c48be70ac47dce877e6b4',
}


class TestGoldenBrackets:
    """The per-state consumers bracket_matrix and expected_brackets are
    pinned bit for bit; the paths behind them may change, their numbers
    may not."""

    @pytest.mark.parametrize("key", sorted(_GOLDEN_BRACKETS), ids=lambda k: (
        f"{models.catalog()[k[0]].label}-state{k[1]}"))
    def test_catalog(self, key):
        sys_ = _GOLDEN_BRACKET_SYSTEMS[key[0]]
        s = _positive_I_states(sys_, 3, seed=73)[key[1]]
        digest = hashlib.sha256(
            "\n".join(_golden_bracket_lines(sys_, s)).encode()).hexdigest()
        assert digest == _GOLDEN_BRACKETS[key]

    def test_one_dimensional_negative_x(self):
        # x < 0 is outside the d = 1 chart; the table needs no chart there
        sys_ = models.build(models.spec("inverse-square", d=1, kappa=0.5))
        s = PhaseState([-1.3], [0.4])
        assert _golden_bracket_lines(sys_, s) == [
            '0000000000000000bfe7006b7e68e6bfbfe7006b7e68e63f0000000000000000']


class TestHalfPlaneErrors:
    """I <= 0 raises a typed error before anything is differentiated."""

    @pytest.fixture(autouse=True)
    def no_gradients(self, monkeypatch):
        def differentiated(*args):
            raise AssertionError("differentiated before the I check")
        monkeypatch.setattr(phase, "_grad_arrays", differentiated)

    def test_bracket_matrix_negative_I(self):
        sys_ = models.build(models.spec("inverse-square", d=1, kappa=-0.5))
        sphere = spherical_system_from(sys_.V, 1)
        with pytest.raises(ZeroAngularEnergyError):
            bracket_matrix(sphere, PhaseState([1.0], [0.5]))

    def test_bracket_matrix_zero_I(self):
        sphere = spherical_system_from(
            models.potential(models.spec("free", d=2)), 2)
        with pytest.raises(ZeroAngularEnergyError):
            bracket_matrix(sphere, PhaseState([1.0, 0.0], [1.0, 0.0]))

    def test_bracket_ww_zero_I(self):
        sphere = spherical_system_from(
            models.potential(models.spec("free", d=2)), 2)
        with pytest.raises(ZeroAngularEnergyError):
            bracket_ww(sphere, PhaseState([1.0, 0.0], [1.0, 0.0]))


_CALOGERO = {d: models.build(models.spec("calogero", particles=d + 1))
             for d in (1, 2, 3, 4)}


class TestHalfPlaneObservable:
    """One observable (Re w, s, I, chart...) with one chart evaluation."""

    @settings(max_examples=20, deadline=None)
    @given(d=st.sampled_from(sorted(_CALOGERO)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_components_bit_for_bit(self, d, seed):
        # each component, and its gradient, against its own formula: the
        # angular invariant from angles_from_unit of q / |q|, Re w and s
        # from the dot products, the chart from chart_observable
        sys_ = _CALOGERO[d]
        sphere = spherical_system_from(sys_.V, d)
        states = model_states(sys_, 4, seed,
                              predicate=lambda s: d == 1 or chart_interior(s))
        Q = np.array([s.q for s in states])
        P = np.array([s.p for s in states])

        def casimir(q, p):
            qq = np.vecdot(q, q)
            pp = np.vecdot(p, p)
            qp = np.vecdot(q, p)
            kin = 0.5 * (qq * pp - qp * qp)
            if d == 1:
                return kin + sphere.U(np.zeros(0))
            return kin + sphere.U(
                angles_from_unit(q / dual.col(dual.sqrt(qq)), d))

        def reference(q, p):
            i = casimir(q, p)
            parts = [np.vecdot(p, q) / np.vecdot(q, q),
                     dual.sqrt(abs(2.0 * i)) / np.vecdot(q, q), i]
            if d > 1:
                chart = chart_observable(d).fn(q, p)
                parts += [chart[..., j] for j in range(2 * d)]
            return dual.stack(parts)

        hp = halfplane_observable(sphere).fn
        m = 3 + (2 * d if d > 1 else 0)
        for q, p in ((Q, P), (Q[0], P[0])):
            got, want = hp(q, p), reference(q, p)
            assert got.shape == q.shape[:-1] + (m,)
            assert np.array_equal(got, want)
            (got, grads), (want, want_grads) = (
                dual.gradient(fn, q, p) for fn in (hp, reference))
            assert np.array_equal(got, want)
            for g, w in zip(grads, want_grads):
                assert np.array_equal(g, w)

    def test_one_dimensional_negative_x(self):
        sphere = spherical_system_from(models.potential(
            models.spec("inverse-square", d=1, kappa=0.5)), 1)
        val = halfplane_observable(sphere).fn(np.array([-1.3]),
                                              np.array([0.4]))
        assert val.shape == (3,) and np.all(np.isfinite(val))

    def test_I_checked_before_any_jet(self, monkeypatch):
        # bracket_matrix and bracket_ww read I's sign from floats first
        def differentiated(*args):
            raise AssertionError("differentiated before the I check")
        monkeypatch.setattr(dual, "gradient", differentiated)
        monkeypatch.setattr(phase, "_grad_arrays", differentiated)
        sphere = spherical_system_from(
            models.potential(models.spec("free", d=2)), 2)
        s = PhaseState([1.0, 0.0], [1.0, 0.0])
        for fn in (bracket_matrix, bracket_ww):
            with pytest.raises(ZeroAngularEnergyError):
                fn(sphere, s)

    def test_canonicity_differentiates_each_observable_once(self,
                                                            monkeypatch):
        # (p~, r~) and the half-plane observable: one jet evaluation each
        calls = []
        gradient = dual.gradient

        def counted(*args):
            calls.append(args)
            return gradient(*args)
        monkeypatch.setattr(dual, "gradient", counted)
        canonicity_report(models.spec("inverse-square", d=3, kappa=1.0),
                          samples=200)
        assert len(calls) == 2


class TestOmega:
    def test_one_dimensional_coefficient(self):
        # at w = i, g = 1 the dRe^dIm coefficient is 1/2
        omega = assemble_omega((1.0, 0.0), spherical_system_from(
            models.potential(models.spec("inverse-square", d=1,
                                         kappa=0.5)), 1), 0.5)
        assert omega.shape == (2, 2)
        assert omega[0, 1] == pytest.approx(0.5, abs=1e-14)

    def test_nondegenerate(self, catalog_systems):
        for ms, sys_ in catalog_systems:
            sphere = spherical_system_from(sys_.V, sys_.d)
            for s in _positive_I_states(sys_, 3, seed=61):
                rs = to_hyperspherical(s)
                omega = assemble_omega(rs, sphere, casimir_I(sys_, s))
                assert np.linalg.det(omega) > 0

    def test_inverse_of_bracket_matrix(self, catalog_systems):
        for ms, sys_ in catalog_systems:
            sphere = spherical_system_from(sys_.V, sys_.d)
            for s in _positive_I_states(sys_, 3, seed=67):
                rs = to_hyperspherical(s)
                omega = assemble_omega(rs, sphere, casimir_I(sys_, s))
                B = bracket_matrix(sphere, s)
                npt.assert_allclose(omega @ B, np.eye(2 * sys_.d),
                                    atol=1e-8)


def metric_coefficient(w: complex, g: float) -> float:
    """Coefficient of dw dwbar in the hyperbolic metric -g/(wbar-w)^2
    (real and positive on the upper half-plane)."""
    return (-g / (w.conjugate() - w) ** 2).real


def kahler_potential(w: complex, g: float) -> float:
    """g log( i (wbar - w) ) = g log(2 Im w), real on the half-plane."""
    return g * math.log(2.0 * w.imag)


def _wirtinger(fn, w: complex) -> tuple:
    """(df/dw, df/dwbar) of a complex-valued fn of (w, conj w) by central
    differences of step 1e-6 in the real and imaginary directions."""
    h = 1e-6
    fx = (fn(w + h) - fn(w - h)) / (2.0 * h)
    fy = (fn(w + 1j * h) - fn(w - 1j * h)) / (2.0 * h)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def halfplane_bracket(F, G, w: complex, g: float) -> complex:
    """Bracket of two functions of (w, wbar) induced by {w, wbar} =
    ``formula_ww`` at sqrt(2I) = g > 0 as the only nonzero bracket."""
    ww = formula_ww(KleinPoint(POSITIVE_I, w, w.conjugate(), g))
    Fw, Fwb = _wirtinger(F, w)
    Gw, Gwb = _wirtinger(G, w)
    return (Fw * Gwb - Fwb * Gw) * ww


def kahler_hessian_fd(w: complex, g: float) -> float:
    """d^2/dw dwbar of the Kahler potential via a finite-difference
    Laplacian (the independent check of ``metric_coefficient``).

    Fourth-order stencils with step 1e-4 Im w on extended-precision floats
    keep the oracle below 1e-10 relative error on the tested grid.
    """
    ld = np.longdouble

    def f(x, y):
        return ld(g) * np.log(ld(2.0) * y)

    x0, y0 = ld(w.real), ld(w.imag)
    h = ld(1e-4) * y0

    def second(fn):
        return (-fn(2 * h) + 16 * fn(h) - ld(30.0) * fn(ld(0.0))
                + 16 * fn(-h) - fn(-2 * h)) / (12 * h * h)

    lap = (second(lambda e: f(x0 + e, y0)) + second(lambda e: f(x0, y0 + e)))
    return float(0.25 * lap)


class TestKahlerGeometry:
    def test_metric_magnitude_matches_hessian(self):
        g = 1.0
        for x in np.linspace(-2.0, 2.0, 5):
            for y in np.geomspace(0.2, 3.0, 5):
                w = complex(x, y)
                coeff = metric_coefficient(w, g)
                hess = kahler_hessian_fd(w, g)
                assert abs(abs(coeff) - abs(hess)) < 1e-10 * max(
                    1.0, abs(coeff))
                # recorded sign convention: they are opposite
                assert coeff * hess < 0

    def test_potential_value(self):
        assert kahler_potential(1j, 2.0) == pytest.approx(
            2.0 * math.log(2.0))

    def test_invariance_under_inversion(self):
        # the hyperbolic structure is invariant under w -> -1/w
        g = 1.3
        for w in (0.4 + 0.9j, -1.2 + 0.5j, 2.0 + 2.0j):
            wi = -1.0 / w
            # ds^2 pulls back with |dw'/dw|^2 = 1/|w|^4
            assert metric_coefficient(wi, g) / abs(w) ** 4 == pytest.approx(
                metric_coefficient(w, g), rel=1e-12)

    def test_algebra_under_halfplane_bracket(self):
        # with {w,wbar} = -(i/g)(w-wbar)^2 as the only bracket, the closed
        # Killing forms close the same so(1,2) relations
        g = 1.0

        def form(k):
            return lambda w: killing_forms(
                KleinPoint(POSITIVE_I, w, w.conjugate(), g))[k]

        H, D, K = form(0), form(1), form(2)
        rng = np.random.default_rng(11)
        for _ in range(20):
            w = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.5))
            h, dd, k = H(w), D(w), K(w)
            hd = halfplane_bracket(H, D, w, g)
            hk = halfplane_bracket(H, K, w, g)
            kd = halfplane_bracket(K, D, w, g)
            assert abs(hd - 2 * h) < 1e-9 * max(1.0, abs(h))
            assert abs(hk - dd) < 1e-9 * max(1.0, abs(dd))
            assert abs(kd + 2 * k) < 1e-9 * max(1.0, abs(k))
