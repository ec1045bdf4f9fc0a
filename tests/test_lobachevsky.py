"""Half-plane coordinate, Killing forms, decoupling inversion, bracket
formulas, canonicity verdicts, and the symplectic-form assembly."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from confmech import models, phase
from confmech.conformal import casimir_I
from confmech.errors import (
    NonPositiveEnergyError,
    ZeroAngularEnergyError,
    ZeroWError,
)
from confmech.lobachevsky import (
    NEGATIVE_I,
    POSITIVE_I,
    assemble_omega,
    bracket_matrix,
    bracket_ww,
    canonicity_report,
    expected_brackets,
    formula_ww,
    from_klein,
    halfplane_bracket,
    invert,
    kahler_hessian_fd,
    kahler_potential,
    killing_form_functions,
    killing_forms,
    metric_coefficient,
    tilde_map,
    tilde_observables,
    tilde_point,
    to_klein,
)
from confmech.phase import PhaseState, poisson_bracket
from confmech.reduction import (
    chart_observables,
    spherical_system_from,
    to_hyperspherical,
)

from conftest import chart_interior, model_states


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
            r2, pr2 = from_klein(kp)
            assert r2 == pytest.approx(r, abs=1e-12)
            assert pr2 == pytest.approx(p_r, abs=1e-12)

    def test_from_phase_state(self):
        kp = to_klein(PhaseState([2.0], [1.0]), 0.5)
        assert kp.w == pytest.approx(0.5 + 0.25j)


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


class TestTildeMap:
    def test_values(self):
        p_t, r_t = tilde_map((1.0, 1.0), 0.5)
        assert p_t == pytest.approx(math.sqrt(2.0), abs=1e-14)
        assert r_t == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-14)

    def test_degenerate_dilatation(self):
        p_t, r_t = tilde_map((1.0, 0.0), 0.5)
        assert p_t == pytest.approx(1.0)
        assert r_t == pytest.approx(0.0)
        kp = tilde_point((1.0, 0.0), 0.5)
        assert kp.w.real == pytest.approx(0.0)  # imaginary axis

    def test_nonpositive_energy_rejected(self):
        with pytest.raises(NonPositiveEnergyError):
            tilde_map((1.0, 0.0), -0.5)  # H = -0.5 + 0 = -0.5 < 0

    def test_consistency_contract(self, catalog_systems):
        # w~ assembled from (p~, r~) equals invert(to_klein(.))
        for ms, sys_ in catalog_systems:
            for s in _positive_I_states(sys_, 15, seed=47):
                i_val = casimir_I(sys_, s)
                rs = to_hyperspherical(s)
                wt = tilde_point(rs, i_val)
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
        tobs = tilde_observables(sys_)
        charts = chart_observables(2)
        val = poisson_bracket(tobs["r_tilde"], charts["phi_0"], s)
        assert val == pytest.approx(-0.3535533905932738, abs=1e-8)
        assert poisson_bracket(tobs["p_tilde"], tobs["r_tilde"], s) == \
            pytest.approx(1.0, abs=1e-10)

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

    def test_report_dict(self):
        rep = canonicity_report(models.spec("free", d=2), samples=10,
                                tol=1e-8, seed=3)
        d = rep.to_dict()
        assert list(d) == ["dimension", "brackets", "samples", "tol",
                           "seed", "verdict", "sign_notes"]
        assert d["dimension"] == 2


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
        forms = killing_form_functions(g)
        rng = np.random.default_rng(11)
        for _ in range(20):
            w = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.5))
            h = forms["H"](w).real
            dd = forms["D"](w).real
            k = forms["K"](w).real
            hd = halfplane_bracket(forms["H"], forms["D"], w, g)
            hk = halfplane_bracket(forms["H"], forms["K"], w, g)
            kd = halfplane_bracket(forms["K"], forms["D"], w, g)
            assert abs(hd - 2 * h) < 1e-9 * max(1.0, abs(h))
            assert abs(hk - dd) < 1e-9 * max(1.0, abs(dd))
            assert abs(kd + 2 * k) < 1e-9 * max(1.0, abs(k))
