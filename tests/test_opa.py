"""Closed-form amplifier oracle and cross-validation against the pipeline."""

import math

import numpy as np
import pytest

from qrobust.errors import NumericError, PreconditionError
from qrobust.opa import (OpaParams, build_opa_model, closed_form_quantities,
                         cross_validate, draw_params, sweep_rows)
from qrobust.smallgain import compute_F, is_hurwitz

FLAGSHIP = OpaParams(chi=0.1, kappa_a=2.0, kappa_b=4.0, abar=1.0, bbar=1.0)


def test_build_opa_model_matrices():
    model, g, unc = build_opa_model(FLAGSHIP)
    assert np.allclose(model.M, [[0.0, -0.1j], [0.1j, 0.0]], atol=1e-15)
    assert np.allclose(model.N_a, np.sqrt(2.0) * np.eye(2))
    assert np.allclose(model.N_b, 2.0 * np.eye(2))
    assert g == pytest.approx(0.2)
    assert np.allclose(unc.A_u, [[-2.0]])


def test_closed_forms_flagship_frozen():
    q = closed_form_quantities(FLAGSHIP)
    assert q["H0_mag"] == pytest.approx(100.0 / 99.0, rel=1e-15)
    assert q["gamma"] == pytest.approx(50.0, rel=1e-15)
    assert q["delta1"] == pytest.approx(0.04, rel=1e-15)
    assert q["G_norm"] == pytest.approx(0.02, rel=1e-15)
    assert q["lhs"] == pytest.approx(0.2, rel=1e-14)
    assert q["hurwitz"] and q["certified"]
    assert sorted(q["F_eigs"]) == pytest.approx([-1.1, -0.9])


def test_closed_forms_weak_coupling_limit():
    q = closed_form_quantities(
        OpaParams(chi=1e-9, kappa_a=2.0, kappa_b=4.0, abar=1.0, bbar=1.0))
    assert q["certified"]
    assert q["H0_mag"] == pytest.approx(1.0, rel=1e-12)  # 2/kappa_a
    assert q["lhs"] < 1e-15


def test_closed_forms_not_hurwitz():
    q = closed_form_quantities(
        OpaParams(chi=1.2, kappa_a=2.0, kappa_b=4.0, abar=1.0, bbar=1.0))
    assert not q["hurwitz"]
    assert q["H0_mag"] is None
    assert not q["certified"]


def test_zero_amplitude_means_no_gain_constraint():
    q = closed_form_quantities(
        OpaParams(chi=0.3, kappa_a=2.0, kappa_b=4.0, abar=0.0, bbar=1.0))
    assert q["gamma"] == math.inf
    assert q["G_norm"] == 0.0
    assert q["delta1"] == 0.0


def test_invalid_params_rejected():
    with pytest.raises(PreconditionError):
        closed_form_quantities(
            OpaParams(chi=0.0, kappa_a=2.0, kappa_b=4.0, abar=1.0, bbar=1.0))
    with pytest.raises(PreconditionError):
        closed_form_quantities(
            OpaParams(chi=0.1, kappa_a=math.nan, kappa_b=4.0, abar=1.0,
                      bbar=1.0))


def test_spectral_abscissa_matches_pole_formula():
    rng = np.random.default_rng(17)
    for _ in range(20):
        p = draw_params(rng)
        model, _, _ = build_opa_model(p)
        _, absc = is_hurwitz(compute_F(model).F, 0.0)
        expected = -0.5 * p.kappa_a + p.chi * abs(p.bbar)
        assert abs(absc - expected) <= 1e-10 * max(1.0, abs(expected))


def test_certified_implies_hurwitz_over_draws():
    rng = np.random.default_rng(23)
    for _ in range(200):
        q = closed_form_quantities(draw_params(rng))
        if q["certified"]:
            assert q["hurwitz"]


def test_cross_validate_flagship_agrees():
    rep = cross_validate(FLAGSHIP)
    assert rep["agree"]
    assert not rep["boundary_band"]
    assert rep["generic"]["verdict"] == "certified"
    assert all(item["ok"] for item in rep["checks"])
    names = [item["quantity"] for item in rep["checks"]]
    assert {"gamma", "delta1", "hinf"} <= set(names)


def test_cross_validate_gain_violated_example():
    p = OpaParams(chi=0.5, kappa_a=2.0, kappa_b=0.1, abar=2.0, bbar=0.5)
    q = closed_form_quantities(p)
    assert q["lhs"] == pytest.approx(640.25, rel=1e-12)
    assert q["hurwitz"] and not q["certified"]
    rep = cross_validate(p)
    assert rep["generic"]["verdict"] == "gain-violated"


def test_cross_validate_detects_planted_disagreement():
    # a wrong tolerance must surface as NumericError naming the quantity
    p = OpaParams(chi=0.1, kappa_a=2.0, kappa_b=4.0, abar=1.0, bbar=1.0)
    with pytest.raises(NumericError, match="gamma"):
        cross_validate(p, tol=1e-12)


def test_sweep_rows_deterministic_and_agreeing():
    rows1, ok1 = sweep_rows(40, seed=101)
    rows2, ok2 = sweep_rows(40, seed=101)
    assert ok1 and ok2
    assert rows1 == rows2
    assert [r["index"] for r in rows1] == list(range(40))
    assert all(r["agree"] for r in rows1)


def test_cross_validate_nearly_marginal_draw():
    # draw 1339 of sweep seed 31: plant abscissa -3.7e-6, where an absolute
    # Hamiltonian axis tolerance overshot |H|_inf by 3.6e-6
    p = OpaParams(chi=0.3045733833026578, kappa_a=0.1800822527248351,
                  kappa_b=0.23654867082453662,
                  abar=0.05270091439985441 - 0.23137423017658265j,
                  bbar=0.06039770841178712 - 0.28938231718960833j)
    q = closed_form_quantities(p)
    assert -4e-6 < q["F_eigs"][0] < -3e-6
    rep = cross_validate(p)
    assert rep["agree"]
    hinf = next(c for c in rep["checks"] if c["quantity"] == "hinf")
    assert hinf["rel_err"] <= 1e-6
