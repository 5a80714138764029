"""Plant construction, gain margin, QMI certificates, and the bound."""

import cmath
import math
import re
import time
from collections import Counter

import numpy as np
import pytest

from qrobust import smallgain
from qrobust._linalg import hermitian_part, transfer_scalar
from qrobust.errors import InfeasibleError, NumericError, PreconditionError
from qrobust.model import constants, validate_model
from qrobust.opa import OpaParams, build_opa_model, draw_params
from qrobust.smallgain import (COMM_FACTOR, EPS_START_FACTOR, PlantMatrices,
                               _solve_lmi, certify, comm_constant, compute_F,
                               hinf_norm, is_hurwitz, ms_bound, noise_trace,
                               qmi_slack, solve_qmi)
from qrobust.uncertainty import from_bilinear_coupling, qsiqc_params
from test_acceptance import draw_stable_plant

FLAGSHIP = OpaParams(chi=0.1, kappa_a=2.0, kappa_b=4.0, abar=1.0, bbar=1.0)

# frozen closed forms for the flagship parameters
FLAGSHIP_HINF = 100.0 / 99.0
FLAGSHIP_GAMMA = 50.0
FLAGSHIP_DELTA1 = 0.04


def flagship_plant():
    model, _, _ = build_opa_model(FLAGSHIP)
    return compute_F(model)


def multimode_plant(rng, n):
    """The next n-mode plant of perfbench/workloads.multimode_draw(rng, n,
    ratio, screen=False), with N_b = sqrt(2) I, and its coupling phase.

    N_a = sqrt(kappa) I with kappa > 2 |J M|_2, so F is Hurwitz by
    construction.
    """
    g1 = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    g2 = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    p1, p2 = 0.5 * (g1 + g1.conj().T), 0.5 * (g2 + g2.T)
    m = np.block([[p1, p2], [p2.conj(), p1.conj()]])
    kappa = rng.uniform(1.1, 2.0) * 2.0 * float(np.linalg.norm(constants(n).J @ m, 2))
    e = rng.uniform(-1, 1, (1, 2 * n)) + 1j * rng.uniform(-1, 1, (1, 2 * n))
    phase = rng.uniform(0.0, 2.0 * math.pi)
    model = validate_model(m, math.sqrt(kappa) * np.eye(2 * n), math.sqrt(2.0) * np.eye(2), e)
    return model, phase


def tight_margin_draw(seed, n, index):
    """Draw `index` of the stream multimode_plant(default_rng(seed), n) with
    gamma = 2.1 ||H||_inf.  Such draws reach the last certificate attempt,
    and some have no structured certificate at all.
    """
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        model, _ = multimode_plant(rng, n)
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
    plant = flagship_plant()
    h0 = transfer_scalar(plant.F, plant.B, plant.C, [0.0])[0]
    assert abs(h0 - (-FLAGSHIP_HINF)) < 1e-12


def test_freq_response_bounded_by_hinf():
    plant = flagship_plant()
    bound = hinf_norm(plant)
    for h in transfer_scalar(plant.F, plant.B, plant.C, np.linspace(-8.0, 8.0, 33)):
        assert abs(h) <= bound * (1 + 1e-9)


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


def test_ms_bound_frozen_example():
    assert ms_bound(2.0, 2.0, 1.0, 0.04, 0.0) == pytest.approx(3.04, abs=1e-15)


def test_ms_bound_rejects_nonpositive_slack():
    with pytest.raises(PreconditionError):
        ms_bound(2.0, 2.0, 0.0, 0.04, 0.0)


def test_ms_bound_rejects_nonfinite_inputs():
    for bad in (math.nan, math.inf):
        for args in ((2.0, 2.0, bad, 0.04, 0.0), (2.0, 2.0, 1.0, bad, 0.0),
                     (2.0, 2.0, 1.0, 0.04, bad)):
            with pytest.raises(PreconditionError):
                ms_bound(*args)


def test_ms_bound_rejects_finite_inputs_whose_bound_overflows():
    for args in ((2.0, 2.0, 1.0, 1e308, 1e308), (2.0, 2.0, 1e-10, 1e300, 0.0),
                 (2.0, 1e155, 1.0, 0.0, 0.0)):
        with pytest.raises(PreconditionError, match="overflows"):
            ms_bound(*args)
    assert ms_bound(2.0, 0.0, 1.0, 1e307, 1e307) == pytest.approx(2e307)


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
    for bad in (math.nan, math.inf):
        with pytest.raises(PreconditionError):
            certify(model, 50.0, bad, 0.0)
        with pytest.raises(PreconditionError):
            certify(model, 50.0, 0.0, bad)


def certify_against_stages(model, gamma, delta1, delta2):
    """certify() next to its stages run one by one through the public
    functions; returns (verdict, route)."""
    rep = certify(model, gamma, delta1, delta2)
    plant = compute_F(model)
    hur, abscissa = is_hurwitz(plant.F)
    assert abs(rep.spectral_abscissa - abscissa) <= 1e-12 * float(np.linalg.norm(plant.F, 2))
    assert rep.hurwitz == hur
    if not hur:
        assert rep.verdict == "not-hurwitz"
        return rep.verdict, None
    hinf = hinf_norm(plant)
    assert abs(rep.hinf - hinf) <= 1e-12 * hinf
    if not hinf < gamma / 2.0:
        assert rep.verdict == "gain-violated"
        return rep.verdict, None
    assert rep.verdict == "certified"
    slack = qmi_slack(plant, gamma, rep.P.P)
    assert abs(rep.qmi_slack - slack) <= 1e-12 * slack
    return rep.verdict, rep.P.route


def test_certify_matches_its_stages():
    # the verdict and route counts of both draw sets are frozen: how certify()
    # factors the drift must not move any draw to another verdict or route
    rng = np.random.default_rng(11)  # criterion 5's draws
    outcomes = []
    for k in range(100):
        model, plant, _ = draw_stable_plant(rng)
        gamma = math.inf if k % 2 == 0 else 3.0 * hinf_norm(plant)
        outcomes.append(certify_against_stages(model, gamma, 0.3, 0.1))
    assert Counter(outcomes) == {("certified", "two-channel-are"): 38,
                                 ("certified", "eig-opt"): 62}
    rng = np.random.default_rng(17)
    outcomes = []
    for _ in range(200):
        model, _, unc = build_opa_model(draw_params(rng))
        outcomes.append(certify_against_stages(model, *qsiqc_params(unc)))
    assert Counter(outcomes) == {("certified", "two-channel-are"): 129,
                                 ("not-hurwitz", None): 32,
                                 ("gain-violated", None): 30,
                                 ("certified", "eig-opt"): 9}


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


FULL_LADDER_FLOOR = 1e-10  # full_ladder's smallest shift, over |F|_2


def single_channel(plant, gamma, eps):
    """The single-channel Riccati rung certify() no longer tries: the
    stabilizing solution of F^dagger P + P F + 4 P B B^dagger P +
    C^dagger C / gamma^2 + eps I = 0, symmetrized into the doubled-up
    class (route 'shifted-are')."""
    r = 4.0 * plant.B @ plant.B.conj().T
    q = (smallgain._inv_gamma_sq(gamma) * (plant.C.conj().T @ plant.C)
         + eps * np.eye(2 * plant.n))
    p_raw, residual = smallgain.riccati_stabilizing(plant.F, r, q)
    p = smallgain._structure_symmetrize(p_raw)
    return smallgain._accept(
        smallgain._certificate(plant, gamma, p, eps, "shifted-are", residual))


def full_ladder(plant, gamma):
    """The certificate search that runs the single-channel rung and then
    solve_qmi over every shift, EPS_START_FACTOR |F|_2 halved down to
    FULL_LADDER_FLOOR |F|_2, before the LMI rung: the reference for
    certify()."""
    nf = float(np.linalg.norm(plant.F, 2))
    for solver in (single_channel, solve_qmi):
        eps = EPS_START_FACTOR * nf
        while eps >= FULL_LADDER_FLOOR * nf:
            try:
                return solver(plant, gamma, eps)
            except (InfeasibleError, NumericError):
                eps *= 0.5
    return _solve_lmi(plant, gamma)


def assert_matches_full_ladder(model, gamma, delta1=0.0, delta2=0.0):
    """certify() against full_ladder(): the same verdict and error message,
    and the same certificate unless the reference halved the shift or took
    the single-channel rung, which certify() never does.  Returns (reference
    route, whether it halved the shift, certify() route)."""
    plant = compute_F(model)
    try:
        ref = full_ladder(plant, gamma)
    except InfeasibleError as exc:
        with pytest.raises(InfeasibleError) as info:
            certify(model, gamma, delta1, delta2)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        return "infeasible", False, "infeasible"
    rep = certify(model, gamma, delta1, delta2)
    assert rep.verdict == "certified"
    halved = ref.eps not in (0.0, EPS_START_FACTOR * float(np.linalg.norm(plant.F, 2)))
    if halved or ref.route == "shifted-are":
        assert (rep.P.route, rep.P.eps) != (ref.route, ref.eps)
        return ref.route, halved, rep.P.route
    assert (rep.P.route, rep.P.eps) == (ref.route, ref.eps)
    assert rep.P.P.tobytes() == ref.P.tobytes()
    bound = ms_bound(noise_trace(ref.P, model.N_a), comm_constant(ref.P, model.E_tilde),
                     -ref.qmi_max_eig, delta1, delta2)
    assert rep.ms_bound == bound
    return ref.route, False, rep.P.route


def test_certify_matches_the_full_ladder():
    rng = np.random.default_rng(11)  # criterion 5's draws
    outcomes = Counter()
    for k in range(100):
        model, plant, _ = draw_stable_plant(rng)
        gamma = math.inf if k % 2 == 0 else 3.0 * hinf_norm(plant)
        outcomes[assert_matches_full_ladder(model, gamma, 0.3, 0.1)] += 1
    # the 28 draws whose reference halved a shift all move to the LMI; the
    # 49 that the single-channel rung took at the top shift move to
    # solve_qmi or the LMI
    assert outcomes == {("two-channel-are", False, "two-channel-are"): 5,
                        ("eig-opt", False, "eig-opt"): 18,
                        ("shifted-are", False, "two-channel-are"): 33,
                        ("shifted-are", False, "eig-opt"): 16,
                        ("shifted-are", True, "eig-opt"): 24,
                        ("two-channel-are", True, "eig-opt"): 4}
    outcomes = Counter(assert_matches_full_ladder(*tight_margin_draw(5, 2, index))[2]
                       for index in range(10))
    assert outcomes["eig-opt"] > 0 and outcomes["infeasible"] > 0


@pytest.mark.parametrize("n, index, factor, outcome", [
    (4, 0, 6.0 / 2.1, "two-channel-are"),
    (2, 6, 1.0, "infeasible"),
], ids=["loose-two-channel", "tight-infeasible"])
def test_certificate_ladder_stops_where_it_cannot_succeed(monkeypatch, n, index, factor,
                                                          outcome):
    # one Riccati solve, then the LMI; with the single-channel rung and
    # solve_qmi run over every shift these take 28 and 54 solves
    model, gamma = tight_margin_draw(5, n, index)
    calls = []
    solve = smallgain.riccati_stabilizing

    def counted(*args):
        calls.append(None)
        return solve(*args)

    monkeypatch.setattr(smallgain, "riccati_stabilizing", counted)
    try:
        route = certify(model, factor * gamma).P.route
    except InfeasibleError:
        route = "infeasible"
    assert route == outcome
    assert len(calls) <= 1


def test_lmi_ends_in_one_outcome_where_its_minimum_is_about_zero():
    # the 17th loose (gamma = 6 ||H||_inf) n_a = 8 draw of seed 5, after 20
    # each at n_a = 1, 2 and 4, with the uncertainty's own gamma and offsets:
    # the minimum top eigenvalue is about 8e-9, inside the duality gap, where
    # tI - S(theta) is singular to working precision near the minimum
    rng = np.random.default_rng(5)
    for n in (1, 2, 4):
        for _ in range(20):
            multimode_plant(rng, n)
    for _ in range(17):
        model, phase = multimode_plant(rng, 8)
    g = cmath.exp(1j * phase) / math.sqrt(6.0 * hinf_norm(compute_F(model)))
    gamma, delta1, delta2 = qsiqc_params(from_bilinear_coupling(g, 2.0))
    outcomes = Counter()
    for k in range(-20, 101, 4):
        try:
            outcomes[certify(model, gamma * (1 + k * 1e-10), delta1, delta2).verdict] += 1
        except (InfeasibleError, NumericError) as exc:
            outcomes[type(exc).__name__] += 1
    assert outcomes == {"InfeasibleError": 31}


@pytest.mark.parametrize("c", [1e-9, 1e-12])
def test_hurwitz_margin_scales_with_the_drift(c):
    # (M, N_a, gamma) -> (cM, sqrt(c) N_a, gamma/c) maps F to cF with B, C
    # fixed, and ||H||_inf to ||H||_inf / c
    model, _, unc = build_opa_model(FLAGSHIP)
    gamma, delta1, delta2 = qsiqc_params(unc)
    scaled = validate_model(c * model.M, math.sqrt(c) * model.N_a, model.N_b,
                            model.E_tilde)
    assert is_hurwitz(compute_F(scaled).F)[0]
    rep = certify(model, gamma, delta1, delta2)
    rep_c = certify(scaled, gamma / c, delta1, delta2)
    assert rep_c.hurwitz and rep_c.verdict == "certified"
    assert abs(c * rep_c.hinf - rep.hinf) <= 1e-9 * rep.hinf


def complex_two_channel(plant, gamma, eps):
    """The Sigma-summed (two-channel) equation solved as a complex
    equation, as it was before the quadrature coordinates: the reference
    for solve_qmi."""
    cn = constants(plant.n)
    e = plant.C.conj() @ cn.Sigma
    b2 = -cn.J @ e.conj().T
    r = 4.0 * (plant.B @ plant.B.conj().T + b2 @ b2.conj().T)
    q = (smallgain._inv_gamma_sq(gamma) * (plant.C.conj().T @ plant.C + e.conj().T @ e)
         + eps * np.eye(2 * plant.n))
    p_raw, residual = smallgain.riccati_stabilizing(plant.F, r, q)
    p = hermitian_part(0.5 * (p_raw + cn.Sigma @ p_raw.conj() @ cn.Sigma))
    return smallgain._accept(
        smallgain._certificate(plant, gamma, p, eps, "two-channel-are", residual))


def two_channel_draws():
    """Criterion 5's draws, then loose (gamma = 6 ||H||_inf) n_a = 8 and 16
    draws, all but one of the latter of which certify through solve_qmi."""
    rng = np.random.default_rng(11)
    for k in range(100):
        model, plant, _ = draw_stable_plant(rng)
        yield model, math.inf if k % 2 == 0 else 3.0 * hinf_norm(plant)
    for n, seed, index in ((8, 1, 0), (8, 1, 1), (8, 1, 2), (8, 2, 0),
                           (16, 1, 1), (16, 1, 2), (16, 1, 3), (16, 2, 0)):
        model, gamma = tight_margin_draw(seed, n, index)
        yield model, 6.0 / 2.1 * gamma


def test_two_channel_rung_matches_the_complex_solve(monkeypatch):
    routes = Counter()
    for model, gamma in two_channel_draws():
        rep = certify(model, gamma, 0.3, 0.1)
        with monkeypatch.context() as patched:
            patched.setattr(smallgain, "solve_qmi", complex_two_channel)
            ref = certify(model, gamma, 0.3, 0.1)
        assert (rep.P.route, rep.P.eps) == (ref.P.route, ref.P.eps)
        routes[(model.n_a > 4, rep.P.route)] += 1
        if rep.P.route != "two-channel-are":
            assert rep.P.P.tobytes() == ref.P.P.tobytes()
            continue
        p, p_ref = rep.P.P, ref.P.P
        assert float(np.abs(p - p_ref).max()) <= 1e-12 * float(np.abs(p_ref).max())
        # are_residual is the residual of the real equation of the module
        # docstring, the one riccati_stabilizing solved
        plant = compute_F(model)
        t = constants(plant.n).T
        t_h = t.conj().T
        b_r, c_r = t @ plant.B, plant.C @ t_h
        f_r = (t @ plant.F @ t_h).real
        r_r = 8.0 * (b_r @ b_r.conj().T).real
        q_r = (2.0 * smallgain._inv_gamma_sq(gamma) * (c_r.conj().T @ c_r).real
               + rep.P.eps * np.eye(2 * plant.n))
        assert rep.P.are_residual == smallgain.riccati_stabilizing(f_r, r_r, q_r)[1]
        assert rep.P.are_residual <= 1e-8 * max(1.0, float(np.abs(plant.F).max()))
    assert routes == {(False, "two-channel-are"): 38, (False, "eig-opt"): 62,
                      (True, "two-channel-are"): 7, (True, "eig-opt"): 1}


def complex_basis_lmi(plant, gamma):
    """The LMI rung over a complex basis of the doubled-up Hermitian class,
    as it was before the quadrature coordinates: the reference for
    _solve_lmi."""
    n, n2 = plant.n, 2 * plant.n
    basis = []
    zero = np.zeros((n, n))

    def assemble(p1, p2):
        return np.block([[p1, p2], [p2.conj(), p1.conj()]])

    for i in range(n):
        e = np.zeros((n, n))
        e[i, i] = 1.0
        basis.append(assemble(e, zero))
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n)); e[i, j] = 1.0; e[j, i] = 1.0
            basis.append(assemble(e, zero))
            e = np.zeros((n, n), dtype=complex); e[i, j] = 1j; e[j, i] = -1j
            basis.append(assemble(e, zero))
    for i in range(n):
        for j in range(i, n):
            e = np.zeros((n, n))
            e[i, j] = 1.0; e[j, i] = 1.0
            basis.append(assemble(zero, e))
            basis.append(assemble(zero, 1j * e))
    basis = np.array(basis, dtype=complex)
    dim = basis.shape[0]

    nf = float(np.linalg.norm(plant.F, 2))
    f = plant.F / nf
    a0 = np.zeros((n2 + 1, n2 + 1), dtype=complex)
    a0[:n2, :n2] = smallgain._inv_gamma_sq(gamma * nf) * (plant.C.conj().T @ plant.C)
    a0[n2, n2] = -1.0
    gens = np.zeros((dim + 1, n2 + 1, n2 + 1), dtype=complex)
    gens[:dim, :n2, :n2] = -(f.conj().T @ basis + basis @ f)
    col = -2.0 * (basis @ plant.B)[:, :, 0]
    gens[:dim, :n2, n2] = col
    gens[:dim, n2, :n2] = col.conj()
    gens[:dim] += np.trace(basis, axis1=1, axis2=2).real[:, None, None] * a0
    gens[dim] = np.eye(n2 + 1)
    flat_gens = gens.reshape(dim + 1, -1)
    gram = (flat_gens.conj() @ flat_gens.T).real

    x = np.zeros(dim + 1)
    x[dim] = float(np.linalg.eigvalsh(a0).max()) + 1.0
    mu = smallgain.LMI_MU_START
    for _ in range(smallgain.LMI_MAX_STEPS):
        z = (x @ flat_gens).reshape(n2 + 1, n2 + 1) - a0
        r_inv = np.linalg.inv(np.linalg.cholesky(z))
        g = r_inv @ gens @ r_inv.conj().T
        flat = g.reshape(dim + 1, -1).view(float)
        grad = -np.trace(g, axis1=1, axis2=2).real
        grad[dim] += 1.0 / mu
        step = -np.linalg.solve(flat @ flat.T, grad)
        dec = -float(grad @ step)
        if dec > smallgain.LMI_CENTER_TOL:
            x = x + step / (1.0 + math.sqrt(dec))
            continue
        if x[dim] - (n2 + 1) * mu > 0:
            y = mu * (r_inv.conj().T @ (np.eye(n2 + 1) - np.tensordot(step, g, 1)) @ r_inv)
            res = (flat_gens.conj() @ y.reshape(-1)).real
            res[dim] -= 1.0
            y = y - np.tensordot(np.linalg.solve(gram, res), gens, 1)
            lower = float(np.trace(a0 @ y).real)
            if lower > 0 and float(np.linalg.eigvalsh(y).min()) >= 0:
                raise InfeasibleError(
                    "no structured certificate exists at this gamma: the top eigenvalue "
                    f"of the normalized Schur form is at least {lower:.3e}")
        if mu <= smallgain.LMI_GAP_TOL / (n2 + 1):
            break
        mu = max(smallgain.LMI_MU_FACTOR * mu, smallgain.LMI_GAP_TOL / (n2 + 1))
    if x[dim] >= 0:
        raise InfeasibleError(
            f"the minimum top eigenvalue of the normalized Schur form, {x[dim]:.3e}, "
            "is not negative")
    p_hat = hermitian_part(np.tensordot(x[:dim], basis, 1))
    p = nf / (1.0 - float(np.trace(p_hat).real)) * p_hat
    return smallgain._accept(smallgain._certificate(plant, gamma, p, 0.0, "eig-opt", None))


def certify_or_infeasible(model, gamma):
    try:
        return certify(model, gamma)
    except InfeasibleError as exc:
        return exc


def test_lmi_rung_matches_the_complex_basis_solve(monkeypatch):
    digits = r"-?\d\.\d+e[-+]\d+"
    routes = Counter()
    for seed in (5, 9):
        for n in (1, 2, 4):
            for index in range(10):
                model, gamma = tight_margin_draw(seed, n, index)
                rep = certify_or_infeasible(model, gamma)
                with monkeypatch.context() as patched:
                    patched.setattr(smallgain, "_solve_lmi", complex_basis_lmi)
                    ref = certify_or_infeasible(model, gamma)
                if isinstance(ref, InfeasibleError):
                    assert type(rep) is InfeasibleError
                    # the messages differ at most in the digits of the dual bound
                    assert re.sub(digits, "#", str(rep)) == re.sub(digits, "#", str(ref))
                    routes["infeasible"] += 1
                    continue
                assert (rep.P.route, rep.P.eps) == (ref.P.route, ref.P.eps)
                routes[rep.P.route] += 1
                p, p_ref = rep.P.P, ref.P.P
                if rep.P.route != "eig-opt":
                    assert p.tobytes() == p_ref.tobytes()
                    continue
                assert float(np.abs(p - p_ref).max()) <= 1e-10 * float(np.abs(p_ref).max())
                assert abs(rep.ms_bound - ref.ms_bound) <= 1e-10 * ref.ms_bound
    assert routes["eig-opt"] > 0 and routes["infeasible"] > 0


def test_structure_symmetrize_matches_the_sigma_products():
    rng = np.random.default_rng(4)
    for n in range(1, 17):
        sigma = constants(n).Sigma
        g = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
        p = hermitian_part(g)
        ref = hermitian_part(0.5 * (p + sigma @ p.conj() @ sigma))
        assert smallgain._structure_symmetrize(p).tobytes() == ref.tobytes()
