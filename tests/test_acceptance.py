"""Acceptance suite: one test per shipped guarantee, tolerances pinned.

Each test prints a single PASS line with the measured figure of merit so
a plain `pytest -v -s tests/test_acceptance.py` reads as a checklist.
"""

import cmath
import math
import time

import numpy as np
import pytest

from qrobust._linalg import transfer_scalar
from qrobust.cli import run
from qrobust.fockcheck import (
    random_hermitian_structured,
    random_structured_coupling,
    run_suite,
)
from qrobust.model import model_to_json, validate_model
from qrobust.moments import build_closed_loop, steady_state_moments
from qrobust.opa import (
    OpaParams,
    build_opa_model,
    closed_form_quantities,
    draw_params,
    sweep_rows,
)
from qrobust.smallgain import (
    certify,
    compute_F,
    hinf_norm,
    is_hurwitz,
)
from qrobust.uncertainty import qsiqc_params

FLAGSHIP = OpaParams(chi=0.1, kappa_a=2.0, kappa_b=4.0, abar=1.0, bbar=1.0)


def draw_stable_plant(rng):
    """Random doubled-up plant with a damping floor on the drift.

    The floor (spectral abscissa at most -0.05 * ||F||_2) keeps the
    frequency-grid oracle honest: near-marginal plants have resonance
    peaks too sharp for any fixed grid to sample.
    """
    while True:
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        m_h = random_hermitian_structured(rng, n)
        n_a = 1.5 * random_structured_coupling(rng, m, n)
        e = rng.uniform(-1.0, 1.0, (1, 2 * n)) + 1j * rng.uniform(-1.0, 1.0, (1, 2 * n))
        model = validate_model(m_h, n_a, math.sqrt(2.0) * np.eye(2), e)
        plant = compute_F(model)
        scale = float(np.linalg.norm(plant.F, 2))
        if float(np.linalg.eigvals(plant.F).real.max()) <= -0.05 * scale:
            return model, plant, scale


def test_criterion_1_flagship_closed_forms():
    t0 = time.perf_counter()
    model, _, unc = build_opa_model(FLAGSHIP)
    gamma, delta1, delta2 = qsiqc_params(unc)
    rep = certify(model, gamma, delta1, delta2)
    elapsed = time.perf_counter() - t0

    hinf_expected = 2.0 * 2.0 / (2.0 ** 2 - 4.0 * 0.1 ** 2)  # 100/99
    assert abs(rep.hinf - hinf_expected) / hinf_expected <= 1e-6
    assert abs(gamma - 50.0) / 50.0 <= 1e-8
    assert abs(delta1 - 0.04) <= 1e-10
    assert rep.verdict == "certified"
    assert elapsed < 1.0
    print(f"criterion 1: PASS (hinf={rep.hinf:.12f}, gamma={gamma}, "
          f"delta1={delta1}, {elapsed:.3f} s)")


def test_criterion_2_verdict_equivalence_sweep():
    t0 = time.perf_counter()
    rows, all_agree = sweep_rows(1000, seed=2026, tol=1e-6)
    elapsed = time.perf_counter() - t0

    disagreements = [r for r in rows if not r["agree"]]
    boundary = sum(1 for r in rows if r["boundary_band"])
    assert len(rows) == 1000
    assert all_agree
    assert disagreements == []
    assert elapsed < 60.0
    print(f"criterion 2: PASS (1000 tuples, {boundary} in the boundary band, "
          f"0 disagreements, {elapsed:.1f} s)")


def test_criterion_3_hurwitz_boundary_bisection():
    chi = 0.3
    bbar = 0.8 * cmath.exp(0.7j)

    def hurwitz_at(kappa_a):
        model, _, _ = build_opa_model(OpaParams(
            chi=chi, kappa_a=kappa_a, kappa_b=1.0, abar=0.5, bbar=bbar))
        # the abscissa's sign is the raw flip, not the certification margin
        return is_hurwitz(compute_F(model).F)[1] < 0.0

    lo, hi = 0.1, 2.0
    assert not hurwitz_at(lo)
    assert hurwitz_at(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if hurwitz_at(mid):
            hi = mid
        else:
            lo = mid
    flip = 0.5 * (lo + hi)
    expected = 2.0 * chi * abs(bbar)
    assert abs(flip - expected) <= 1e-8
    print(f"criterion 3: PASS (flip at {flip:.12f}, expected {expected})")


def test_criterion_4_hinf_oracle_equivalence():
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(100):
        _, plant, scale = draw_stable_plant(rng)
        by_bisection = hinf_norm(plant)
        grid = np.geomspace(1e-4 * scale, 1e4 * scale, 50000)
        omegas = np.concatenate([-grid[::-1], [0.0], grid])
        mags = np.abs(transfer_scalar(plant.F, plant.B, plant.C, omegas))
        by_grid = float(mags.max())
        worst = max(worst, abs(by_bisection - by_grid) / by_grid)
    assert worst <= 1e-4
    print(f"criterion 4: PASS (100 plants, worst rel. gap {worst:.3e})")


def test_criterion_5_certificate_residuals():
    rng = np.random.default_rng(11)
    routes = {}
    for k in range(100):
        model, plant, _ = draw_stable_plant(rng)
        if k % 2 == 0:
            gamma = math.inf
        else:
            # wide enough that the structured inequality stays feasible
            # for every draw; tighter gains can have empty structured sets
            gamma = 3.0 * hinf_norm(plant)
        rep = certify(model, gamma, delta1=0.3, delta2=0.1)
        assert rep.verdict == "certified"

        cert = rep.P
        p = cert.P
        pmax = float(np.abs(p).max())
        assert float(np.abs(p - p.conj().T).max()) <= 1e-10 * pmax
        n2 = p.shape[0]
        sigma = np.block([
            [np.zeros((n2 // 2, n2 // 2)), np.eye(n2 // 2)],
            [np.eye(n2 // 2), np.zeros((n2 // 2, n2 // 2))],
        ])
        assert float(np.abs(sigma @ p.conj() @ sigma - p).max()) <= 1e-10 * pmax
        assert cert.structure_residual <= 1e-10 * pmax
        assert float(np.linalg.eigvalsh(p).min()) > 0.0

        ig2 = 0.0 if math.isinf(gamma) else 1.0 / gamma ** 2
        lhs = (plant.F.conj().T @ p + p @ plant.F
               + 4.0 * p @ plant.B @ plant.B.conj().T @ p
               + ig2 * (plant.C.conj().T @ plant.C))
        lhs = 0.5 * (lhs + lhs.conj().T)
        assert float(np.linalg.eigvalsh(lhs).max()) < 0.0
        assert cert.qmi_max_eig < 0.0

        if cert.are_residual is not None:
            fmax = float(np.abs(plant.F).max())
            assert cert.are_residual <= 1e-8 * max(1.0, fmax)
        routes[cert.route] = routes.get(cert.route, 0) + 1
    print(f"criterion 5: PASS (100 certificates, routes {routes})")


def test_criterion_6_fock_oracle_suite():
    rows = run_suite(30, 10, 7)
    failed = [row for row in rows if not row[4]]
    assert failed == []
    ratio = max(worst / tol for _, _, worst, tol, _ in rows)
    print(f"criterion 6: PASS ({len(rows)} identities, worst residual "
          f"{ratio:.3e} of its tolerance)")


def test_criterion_7_mean_square_bound():
    rng = np.random.default_rng(42)
    checked = 0
    worst_ratio = 0.0
    while checked < 100:
        params = draw_params(rng)
        if not closed_form_quantities(params)["certified"]:
            continue
        model, g, unc = build_opa_model(params)
        gamma, delta1, delta2 = qsiqc_params(unc)
        rep = certify(model, gamma, delta1, delta2)
        if rep.verdict != "certified":
            continue  # boundary-band tuple; equivalence is criterion 2's job
        state = steady_state_moments(build_closed_loop(model, g))
        assert math.isfinite(state.ms_value)
        assert state.ms_value <= rep.ms_bound
        worst_ratio = max(worst_ratio, state.ms_value / rep.ms_bound)
        checked += 1

    # zero-coupling limit: the loop decouples and vacuum is stationary,
    # so the plant-sector moment sum equals the mode count exactly
    for kappa_a, kappa_b in ((2.0, 4.0), (0.7, 1.3), (5.0, 0.5)):
        model = validate_model(
            np.zeros((2, 2)), math.sqrt(kappa_a) * np.eye(2),
            math.sqrt(kappa_b) * np.eye(2), np.array([[1.0, 0.0]]))
        state = steady_state_moments(build_closed_loop(model, 0.0))
        assert abs(state.ms_value - 1.0) <= 1e-9
    print(f"criterion 7: PASS (100 certified instances, worst ms/c "
          f"{worst_ratio:.3f}, zero-coupling exact)")


def test_criterion_8_deterministic_reports(tmp_path, capsys):
    model, _, _ = build_opa_model(FLAGSHIP)
    model_path = tmp_path / "model.json"
    model_path.write_text(model_to_json(model))

    commands = [
        ["certify", str(model_path)],
        ["freqresp", str(model_path), "--points", "50"],
        ["opa", "--chi", "0.1", "--kappa-a", "2", "--kappa-b", "4",
         "--abar", "1,0", "--bbar", "1,0", "--sweep", "25", "--seed", "7"],
        ["fockcheck", "--dim", "20", "--trials", "1", "--seed", "3"],
    ]
    for argv in commands:
        captured = []
        for _ in range(2):
            assert run(argv) == 0
            captured.append(capsys.readouterr().out)
        assert captured[0] == captured[1], f"non-deterministic output: {argv}"
    print("criterion 8: PASS (4 subcommands byte-identical across reruns)")
