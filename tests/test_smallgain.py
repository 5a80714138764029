"""Plant construction, gain margin, QMI certificates, and the bound."""

import math
import re
import time

import numpy as np
import pytest

from qrobust.errors import InfeasibleError, NumericError, PreconditionError
from qrobust.model import constants, validate_model
from qrobust.opa import OpaParams, build_opa_model
from qrobust.smallgain import (COMM_FACTOR, PlantMatrices, certify,
                               comm_constant, compute_F, freq_response,
                               hinf_norm, is_hurwitz, ms_bound, noise_trace,
                               qmi_slack, solve_qmi)
from qrobust.uncertainty import qsiqc_params

FLAGSHIP = OpaParams(chi=0.1, kappa_a=2.0, kappa_b=4.0, abar=1.0, bbar=1.0)

# frozen closed forms for the flagship parameters
FLAGSHIP_HINF = 100.0 / 99.0
FLAGSHIP_GAMMA = 50.0
FLAGSHIP_DELTA1 = 0.04


def flagship_plant():
    model, _, _ = build_opa_model(FLAGSHIP)
    return compute_F(model)


def tight_margin_draw(seed, n, index):
    """Draw `index` of a seeded stream of tight-margin n-mode plants.

    The stream is perfbench/workloads.multimode_draw(default_rng(seed), n,
    2.1, screen=False): N_a = sqrt(kappa) I with kappa > 2 |J M|_2, so F
    is Hurwitz by construction, and gamma = 2.1 ||H||_inf.  Such draws
    reach the last certificate rung, and some have no structured
    certificate at all.
    """
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        g1 = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        g2 = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        p1, p2 = 0.5 * (g1 + g1.conj().T), 0.5 * (g2 + g2.T)
        m = np.block([[p1, p2], [p2.conj(), p1.conj()]])
        kappa = rng.uniform(1.1, 2.0) * 2.0 * float(np.linalg.norm(constants(n).J @ m, 2))
        e = rng.uniform(-1, 1, (1, 2 * n)) + 1j * rng.uniform(-1, 1, (1, 2 * n))
        rng.uniform(0.0, 2.0 * math.pi)  # the coupling phase of the benchmark's draw
    model = validate_model(m, math.sqrt(kappa) * np.eye(2 * n), math.sqrt(2.0) * np.eye(2), e)
    return model, 2.1 * hinf_norm(compute_F(model))


def test_compute_F_flagship_matrices():
    plant = flagship_plant()
    assert np.allclose(plant.F, np.array([[-1.0, -0.1], [-0.1, -1.0]]),
                       atol=1e-14)
    assert np.allclose(plant.B, np.array([[0.0], [-1.0]]), atol=0)
    assert np.allclose(plant.C, np.array([[0.0, 1.0]]), atol=0)


def test_is_hurwitz_flagship_and_flipped():
    plant = flagship_plant()
    hur, absc = is_hurwitz(plant.F)
    assert hur
    assert abs(absc - (-0.9)) < 1e-12

    unstable, _, _ = build_opa_model(
        OpaParams(chi=1.2, kappa_a=2.0, kappa_b=4.0, abar=1.0, bbar=1.0))
    hur, absc = is_hurwitz(compute_F(unstable).F)
    assert not hur
    assert abs(absc - 0.2) < 1e-12


def test_hinf_norm_flagship():
    val = hinf_norm(flagship_plant())
    assert abs(val - FLAGSHIP_HINF) <= 1e-8 * FLAGSHIP_HINF


def test_hinf_norm_requires_hurwitz():
    unstable, _, _ = build_opa_model(
        OpaParams(chi=1.2, kappa_a=2.0, kappa_b=4.0, abar=1.0, bbar=1.0))
    with pytest.raises(PreconditionError):
        hinf_norm(compute_F(unstable))


def test_freq_response_dc_value():
    h0 = freq_response(flagship_plant(), 0.0)
    assert abs(h0 - (-FLAGSHIP_HINF)) < 1e-12


def test_freq_response_bounded_by_hinf():
    plant = flagship_plant()
    bound = hinf_norm(plant)
    for omega in np.linspace(-8.0, 8.0, 33):
        assert abs(freq_response(plant, float(omega))) <= bound * (1 + 1e-9)


def test_solve_qmi_flagship_certificate():
    plant = flagship_plant()
    cert = solve_qmi(plant, FLAGSHIP_GAMMA, 1e-2 * np.linalg.norm(plant.F, 2))
    p = cert.P
    scale = float(np.abs(p).max())
    assert float(np.abs(p - p.conj().T).max()) <= 1e-10 * scale
    assert cert.structure_residual <= 1e-10 * scale
    assert cert.min_eig > 0
    assert cert.qmi_max_eig < 0
    # re-derive the QMI left side and check strict negativity independently
    lhs = (plant.F.conj().T @ p + p @ plant.F
           + 4.0 * p @ plant.B @ plant.B.conj().T @ p
           + plant.C.conj().T @ plant.C / FLAGSHIP_GAMMA ** 2)
    lhs = 0.5 * (lhs + lhs.conj().T)
    assert float(np.linalg.eigvalsh(lhs).max()) < 0
    if cert.are_residual is not None:
        assert cert.are_residual <= 1e-8 * max(1.0, float(np.abs(plant.F).max()))


def test_solve_qmi_unbounded_gamma():
    plant = flagship_plant()
    cert = solve_qmi(plant, math.inf, 1e-2 * np.linalg.norm(plant.F, 2))
    assert cert.min_eig > 0
    assert cert.qmi_max_eig < 0


def test_comm_constant_frozen_examples():
    e = np.array([[1.0 + 0.0j, 0.0j]])
    assert abs(comm_constant(np.eye(2), e)) < 1e-15
    p = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    assert abs(comm_constant(p, e) - 2.0) < 1e-15
    assert abs(comm_constant(np.diag([3.0, 3.0]).astype(complex), e)) < 1e-15
    # complex off-diagonal: the value tracks the full entry, not its real part
    q = 0.3 + 0.4j
    p = np.array([[1.5, q], [np.conj(q), 1.5]])
    assert abs(comm_constant(p, e) - 2.0 * q) < 1e-15


def test_noise_trace_hand_value():
    n_a = np.sqrt(2.0) * np.eye(2)
    assert abs(noise_trace(np.eye(2, dtype=complex), n_a) - 2.0) < 1e-14


def test_noise_trace_nonnegative_on_random_draws():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g1 = rng.uniform(-1, 1, (1, 1)) + 1j * rng.uniform(-1, 1, (1, 1))
        p1 = np.array([[abs(g1[0, 0]) + 1.0]])
        g2 = rng.uniform(-1, 1, (1, 1)) + 1j * rng.uniform(-1, 1, (1, 1))
        p = np.block([[p1, g2], [g2.conj(), p1]])
        if np.linalg.eigvalsh(p).min() <= 0:
            continue
        top = rng.uniform(-1, 1, (1, 2)) + 1j * rng.uniform(-1, 1, (1, 2))
        n_a = np.vstack([top, top.conj() @ constants(1).Sigma])
        assert noise_trace(p, n_a) >= 0.0


def test_qmi_slack_unit_example():
    # F = -I/2 with no input/output channel gives LHS = -I, slack 1
    plant = PlantMatrices(F=-0.5 * np.eye(2, dtype=complex),
                          B=np.zeros((2, 1), dtype=complex),
                          C=np.zeros((1, 2), dtype=complex), n=1)
    slack = qmi_slack(plant, math.inf, np.eye(2, dtype=complex))
    assert abs(slack - 1.0) < 1e-14


def test_qmi_slack_rejects_indefinite():
    plant = PlantMatrices(F=0.5 * np.eye(2, dtype=complex),
                          B=np.zeros((2, 1), dtype=complex),
                          C=np.zeros((1, 2), dtype=complex), n=1)
    with pytest.raises(NumericError):
        qmi_slack(plant, math.inf, np.eye(2, dtype=complex))


def test_qmi_slack_warns_when_slack_near_shift():
    plant = flagship_plant()
    cert = solve_qmi(plant, FLAGSHIP_GAMMA, 1e-2 * np.linalg.norm(plant.F, 2))
    if cert.eps > 0 and -cert.qmi_max_eig <= cert.eps:
        with pytest.warns(RuntimeWarning):
            qmi_slack(plant, FLAGSHIP_GAMMA, cert)


def test_ms_bound_frozen_example():
    assert ms_bound(2.0, 2.0, 1.0, 0.04, 0.0) == pytest.approx(3.04, abs=1e-15)


def test_ms_bound_rejects_nonpositive_slack():
    with pytest.raises(PreconditionError):
        ms_bound(2.0, 2.0, 0.0, 0.04, 0.0)


def test_certify_flagship_end_to_end():
    model, _, unc = build_opa_model(FLAGSHIP)
    gamma, delta1, delta2 = qsiqc_params(unc)
    rep = certify(model, gamma, delta1, delta2)
    assert rep.verdict == "certified"
    assert rep.hurwitz
    assert abs(rep.hinf - FLAGSHIP_HINF) <= 1e-6 * FLAGSHIP_HINF
    assert abs(rep.gamma - FLAGSHIP_GAMMA) <= 1e-8 * FLAGSHIP_GAMMA
    assert abs(rep.delta1 - FLAGSHIP_DELTA1) <= 1e-10
    assert rep.margin == pytest.approx(rep.gamma / 2.0 - rep.hinf)
    assert rep.P is not None
    assert rep.qmi_slack > 0
    assert rep.ms_bound > 0
    assert abs(rep.comm_constant.imag) < 1e-12


def test_certify_gain_violated_records_numbers():
    model, _, unc = build_opa_model(
        OpaParams(chi=0.5, kappa_a=2.0, kappa_b=0.1, abar=2.0, bbar=0.5))
    gamma, delta1, delta2 = qsiqc_params(unc)
    rep = certify(model, gamma, delta1, delta2)
    assert rep.verdict == "gain-violated"
    assert rep.hurwitz
    assert rep.hinf is not None and rep.margin is not None
    assert rep.margin <= 0
    assert rep.P is None and rep.ms_bound is None


def test_certify_not_hurwitz_records_abscissa():
    model, _, unc = build_opa_model(
        OpaParams(chi=1.2, kappa_a=2.0, kappa_b=4.0, abar=1.0, bbar=1.0))
    rep = certify(model, *qsiqc_params(unc))
    assert rep.verdict == "not-hurwitz"
    assert not rep.hurwitz
    assert rep.spectral_abscissa == pytest.approx(0.2, abs=1e-12)
    assert rep.hinf is None and rep.P is None


def test_certify_rejects_bad_offsets():
    model, _, _ = build_opa_model(FLAGSHIP)
    with pytest.raises(PreconditionError):
        certify(model, 50.0, -0.1, 0.0)
    with pytest.raises(PreconditionError):
        certify(model, -1.0)


def test_certificate_structure_across_random_certified_instances():
    from qrobust.opa import draw_params
    from qrobust.model import structure_residual

    rng = np.random.default_rng(9)
    checked = 0
    while checked < 15:
        params = draw_params(rng)
        model, _, unc = build_opa_model(params)
        rep = certify(model, *qsiqc_params(unc))
        if rep.verdict != "certified":
            continue
        checked += 1
        p = rep.P.P
        scale = float(np.abs(p).max())
        assert structure_residual(p, 1) <= 1e-10 * scale
        assert float(np.abs(p - p.conj().T).max()) <= 1e-10 * scale
        assert rep.P.min_eig > 0 and rep.P.qmi_max_eig < 0
        # recorded constant must be recomputable from the recorded P
        assert rep.comm_constant == pytest.approx(
            comm_constant(p, model.E_tilde), abs=1e-15)


def test_structure_infeasible_draw_is_proven_fast():
    model, gamma = tight_margin_draw(5, 2, 6)
    t0 = time.perf_counter()
    with pytest.raises(InfeasibleError) as info:
        certify(model, gamma)
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.5
    bound = re.search(r"at least (\S+)$", str(info.value))
    assert bound is not None and float(bound.group(1)) > 0


def test_four_mode_tight_margin_certifies_fast():
    model, gamma = tight_margin_draw(9, 4, 2)
    t0 = time.perf_counter()
    rep = certify(model, gamma)
    elapsed = time.perf_counter() - t0
    assert rep.verdict == "certified" and rep.P.route == "eig-opt"
    assert elapsed < 5.0


@pytest.mark.parametrize("c", [1e-3, 1e3])
@pytest.mark.parametrize("index", range(8))
def test_lmi_rung_is_invariant_under_time_rescaling(index, c):
    # (M, N_a, gamma) -> (cM, sqrt(c) N_a, gamma/c) maps F to cF with B, C
    # fixed: same verdict and route, P scaled by c, same bound
    model, gamma = tight_margin_draw(5, 2, index)
    scaled = validate_model(c * model.M, math.sqrt(c) * model.N_a, model.N_b,
                            model.E_tilde)
    try:
        rep = certify(model, gamma)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            certify(scaled, gamma / c)
        return
    rep_c = certify(scaled, gamma / c)
    assert rep.P.route == "eig-opt" and rep_c.P.route == "eig-opt"
    assert rep_c.verdict == rep.verdict == "certified"
    assert float(np.abs(rep_c.P.P - c * rep.P.P).max()) <= 1e-9 * c * float(np.abs(rep.P.P).max())
    assert abs(rep_c.ms_bound - rep.ms_bound) <= 1e-9 * rep.ms_bound
