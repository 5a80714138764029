"""Schur factorization, Lyapunov and Riccati solves, the frequency
evaluator and the level-set H-infinity norm."""

import math

import numpy as np
import pytest
import scipy.linalg as sla

from qrobust import _linalg
from qrobust._linalg import (RICCATI_COND_MAX, _cond_inv, _schur, hinf_bisect, lyap,
                             riccati_stabilizing, schur, transfer_scalar)
from qrobust.errors import InfeasibleError, NumericError, PreconditionError
from qrobust.fockcheck import random_hermitian_structured
from qrobust.model import constants, validate_model
from qrobust.smallgain import compute_F
from qrobust.uncertainty import from_bilinear_coupling, qsiqc_params


def stable_plant(rng, n):
    """Drift -i J M - kappa/2 I with kappa > 2 |J M|_2: Hurwitz by construction."""
    m_h = random_hermitian_structured(rng, n)
    kappa = rng.uniform(1.1, 2.0) * 2.0 * float(np.linalg.norm(constants(n).J @ m_h, 2))
    e = rng.normal(size=(1, 2 * n)) + 1j * rng.normal(size=(1, 2 * n))
    model = validate_model(m_h, math.sqrt(kappa) * np.eye(2 * n),
                           math.sqrt(2.0) * np.eye(2), e)
    return compute_F(model)


@pytest.mark.parametrize("c", [1e-6, 1e-3, 1e3, 1e6])
def test_hinf_time_rescaling(c):
    # s -> s / c maps C (sI - cF)^{-1} B to (1/c) C (sI - F)^{-1} B
    rng = np.random.default_rng(4)
    for n in (1, 2, 4):
        plant = stable_plant(rng, n)
        base = hinf_bisect(plant.F, plant.B, plant.C)
        scaled = c * hinf_bisect(c * plant.F, plant.B, plant.C)
        assert abs(scaled - base) <= 1e-8 * base


def test_hinf_brackets_dense_grid():
    # within rel_tol above an attained value: never below the grid, barely above
    rng = np.random.default_rng(8)
    for n in (1, 2, 3):
        plant = stable_plant(rng, n)
        hinf = hinf_bisect(plant.F, plant.B, plant.C, rel_tol=1e-9)
        lam = np.linalg.eigvals(plant.F)
        omegas = np.concatenate([l.imag + abs(l.real) * np.linspace(-3, 3, 4001) for l in lam])
        peak = float(np.abs(transfer_scalar(plant.F, plant.B, plant.C, omegas)).max())
        assert peak <= hinf <= peak * (1.0 + 1e-6)


def test_hinf_zero_channel_and_precondition():
    a = np.array([[-1.0, 2.0], [0.0, -3.0]], dtype=complex)
    assert hinf_bisect(a, np.zeros((2, 1)), np.ones((1, 2))) == 0.0
    # H(s) = -s / ((s + 1)(s + 2)) vanishes at every starting frequency
    # (w = 0 and the pole imaginary parts); its peak is 1/3 at w = sqrt(2)
    h = hinf_bisect(np.diag([-1.0, -2.0]), np.array([[1.0], [-2.0]]), np.ones((1, 2)))
    assert abs(h - 1.0 / 3.0) <= 1e-9 / 3.0
    with pytest.raises(PreconditionError):
        hinf_bisect(np.diag([-1.0, 1e-3]), np.ones((2, 1)), np.ones((1, 2)))


def defective_plant(kappa=1.0, delta=0.3):
    """Detuning equal to squeezing: F = -kappa/2 I + N with N nilpotent, a
    Jordan block on which an eigenvector basis is ill-conditioned."""
    m = np.array([[delta, -delta], [-delta, delta]], dtype=complex)
    e = np.array([[0.7 - 0.2j, -0.4 + 0.9j]])
    return compute_F(validate_model(m, math.sqrt(kappa) * np.eye(2),
                                    math.sqrt(2.0) * np.eye(2), e))


def test_transfer_scalar_defective_drift_matches_adjugate():
    kappa, delta = 1.0, 0.3
    plant = defective_plant(kappa, delta)
    f = plant.F
    assert np.allclose(f, [[-kappa / 2 - 1j * delta, 1j * delta],
                           [-1j * delta, -kappa / 2 + 1j * delta]], rtol=0, atol=1e-15)
    omegas = np.linspace(-5.0, 5.0, 101)
    got = transfer_scalar(f, plant.B, plant.C, omegas)
    b, c = plant.B[:, 0], plant.C[0]
    for w, h in zip(omegas, got):
        r = 1j * w * np.eye(2) - f
        adj = np.array([[r[1, 1], -r[0, 1]], [-r[1, 0], r[0, 0]]])
        closed = (c @ adj @ b) / (1j * w + kappa / 2) ** 2
        assert abs(h - closed) <= 1e-12 * abs(closed)
        one = complex(transfer_scalar(plant.F, plant.B, plant.C, [float(w)])[0])
        assert abs(one - closed) <= 1e-12 * abs(closed)


def test_transfer_scalar_rejects_pole_on_axis():
    a = np.diag([2j, -1.0])
    b, c = np.ones((2, 1)), np.ones((1, 2))
    with pytest.raises(NumericError, match="pole"):
        transfer_scalar(a, b, c, [0.0, 2.0])
    assert np.isfinite(transfer_scalar(a, b, c, [0.0, 2.5])).all()


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return np.linalg.qr(z)[0]


def hurwitz_drift(rng, n):
    """Complex drift with abscissa at most -1/2 and non-normal part of order one."""
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2 * n)
    shift = float(np.linalg.eigvals(z).real.max()) + rng.uniform(0.5, 2.0)
    return z - shift * np.eye(n)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
def test_lyap_matches_scipy(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        a = hurwitz_drift(rng, n)
        w = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q = w @ w.conj().T
        ref = sla.solve_continuous_lyapunov(a, -q)
        got = lyap(a, q)
        assert float(np.abs(got - ref).max()) <= 1e-12 * float(np.abs(ref).max())
        t, u, _ = schur(a)
        assert np.array_equal(lyap(a, q, schur=(t, u)), got)


def test_lyap_defective_drift_matches_scipy():
    f = defective_plant().F
    q = np.array([[2.0, 0.5 - 1j], [0.5 + 1j, 1.0]])
    ref = sla.solve_continuous_lyapunov(f, -q)
    assert float(np.abs(lyap(f, q) - ref).max()) <= 1e-12 * float(np.abs(ref).max())


def test_lyap_residual_check_rejects_marginal_drift():
    # abscissa -1e-14 in a rotated basis: X grows like 1e14 and the
    # residual of the computed solution is far above 1e-10 |Q|_max
    u = random_unitary(np.random.default_rng(3), 2)
    a = u @ np.diag([-1e-14, -1.0]) @ u.conj().T
    with pytest.raises(NumericError, match="residual"):
        lyap(a, np.eye(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_entries_raise_numeric_error(bad):
    a = np.array([[-1.0, 2.0], [0.0, -3.0]], dtype=complex)
    a_bad = a.copy()
    a_bad[0, 1] = bad
    b, c = np.ones((2, 1)), np.ones((1, 2))
    for call in (lambda: schur(a_bad), lambda: schur(a_bad, stable_first=True),
                 lambda: hinf_bisect(a_bad, b, c), lambda: lyap(a_bad, np.eye(2)),
                 lambda: transfer_scalar(a_bad, b, c, [0.0, 1.0]),
                 lambda: riccati_stabilizing(a_bad, np.eye(2), np.eye(2)),
                 lambda: lyap(a, np.diag([1.0, bad])),
                 lambda: hinf_bisect(a, np.array([[1.0], [bad]]), c),
                 lambda: transfer_scalar(a, b, np.array([[bad, 1.0]]), [0.0])):
        with pytest.raises(NumericError):
            call()


@pytest.mark.parametrize("n", range(1, 17))
def test_sorted_schur_matches_scipy_stable_subspace(n):
    # 4n x 4n Hamiltonians [[A, R], [-Q, -A^dagger]] as the Riccati solve
    # builds them, with R <= 0 and Q > 0 so that no eigenvalue is imaginary
    rng = np.random.default_rng(200 + n)
    a = hurwitz_drift(rng, 2 * n) + 0.3j * np.eye(2 * n)
    b = rng.normal(size=(2 * n, 1)) + 1j * rng.normal(size=(2 * n, 1))
    c = rng.normal(size=(1, 2 * n)) + 1j * rng.normal(size=(1, 2 * n))
    z = np.block([[a, -(b @ b.conj().T)], [-(c.conj().T @ c) - np.eye(2 * n), -a.conj().T]])
    t, u, sdim = schur(z, stable_first=True)
    t_ref, u_ref, sdim_ref = sla.schur(z, output="complex", sort="lhp")
    assert sdim == sdim_ref == 2 * n
    assert float(np.abs(u @ t @ u.conj().T - z).max()) <= 1e-12 * float(np.abs(z).max())
    stable, stable_ref = u[:, :sdim], u_ref[:, :sdim]
    proj = stable @ stable.conj().T - stable_ref @ stable_ref.conj().T
    assert float(np.abs(proj).max()) <= 1e-12


def real_riccati_data(rng, n):
    """Real A (2n x 2n, Hurwitz), R = -b b^T <= 0 and Q = c^T c + I > 0."""
    z = rng.normal(size=(2 * n, 2 * n)) / math.sqrt(4 * n)
    a = z - (float(np.linalg.eigvals(z).real.max()) + rng.uniform(0.5, 2.0)) * np.eye(2 * n)
    b = rng.normal(size=(2 * n, 2))
    c = rng.normal(size=(1, 2 * n))
    return a, -(b @ b.T), c.T @ c + np.eye(2 * n)


@pytest.mark.parametrize("n", range(1, 17))
def test_real_riccati_matches_the_real_scipy_schur(n):
    # real A, R and Q take the real Schur factorization: the stable
    # subspace, its dimension and P = V U^-1 agree with scipy's sorted
    # real Schur form, and P stays real
    a, r, q = real_riccati_data(np.random.default_rng(300 + n), n)
    z = np.block([[a, r], [-q, -a.T]])
    t, u, sdim = _schur(z, stable_first=True)
    t_ref, u_ref, sdim_ref = sla.schur(z, output="real", sort="lhp")
    assert t.dtype == u.dtype == np.float64
    assert sdim == sdim_ref == 2 * n
    assert float(np.abs(u @ t @ u.T - z).max()) <= 1e-12 * float(np.abs(z).max())
    stable, stable_ref = u[:, :sdim], u_ref[:, :sdim]
    assert float(np.abs(stable @ stable.T - stable_ref @ stable_ref.T).max()) <= 1e-12
    p_ref = u_ref[2 * n:, :sdim] @ np.linalg.inv(u_ref[:2 * n, :sdim])
    p, residual = riccati_stabilizing(a, r, q)
    assert p.dtype == np.float64
    assert float(np.abs(p - p_ref).max()) <= 1e-12 * float(np.abs(p_ref).max())
    assert residual == float(np.abs(a.T @ p + p @ a + p @ r @ p + q).max())


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_real_riccati_rejects_non_finite_entries(bad):
    a, r, q = real_riccati_data(np.random.default_rng(7), 2)
    for k in range(3):
        args = [a.copy(), r.copy(), q.copy()]
        args[k][1, 0] = bad
        with pytest.raises(NumericError, match="non-finite"):
            riccati_stabilizing(*args)


def test_cond_inv_matches_numpy():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 4, 8):
        for decades in (0, 3, 6, 10):
            sv = np.geomspace(1.0, 10.0 ** -decades, n)
            m = random_unitary(rng, n) @ np.diag(sv) @ random_unitary(rng, n)
            cond, inv = _cond_inv(m)
            ref = float(np.linalg.cond(m))
            assert abs(cond - ref) <= 1e-12 * ref
            assert float(np.abs(inv @ m - np.eye(n)).max()) <= 1e-15 * cond * n
    assert _cond_inv(np.zeros((2, 2))) == (math.inf, None)


def test_riccati_rejects_ill_conditioned_stable_subspace():
    # R = 0, A = diag(-1, -2), Q = diag(q1, 1): P = diag(q1 / 2, 1 / 4), and
    # the stable-subspace block U = (I + P^2)^(-1/2) up to a unitary factor
    # has condition number about 0.485 q1
    a = np.diag([-1.0, -2.0]).astype(complex)
    r = np.zeros((2, 2))
    for q1, feasible in ((1e12, True), (1e13, False)):
        q = np.diag([q1, 1.0]).astype(complex)
        _, vecs, _ = schur(np.block([[a, r], [-q, -a.conj().T]]), stable_first=True)
        cond = _cond_inv(vecs[:2, :2])[0]
        assert abs(cond - 0.485 * q1) <= 1e-3 * q1
        if feasible:
            p, _ = riccati_stabilizing(a, r, q)
            assert float(np.abs(p - np.diag([q1 / 2, 0.25])).max()) <= 1e-12 * q1
        else:
            assert cond > RICCATI_COND_MAX
            with pytest.raises(InfeasibleError, match="numerically singular"):
                riccati_stabilizing(a, r, q)


def refined_peak(a, b, c):
    """sup |H(iw)| by a dense grid around every pole, then zooming in on the
    three largest local maxima until the bracket is 1e-12 of its centre."""
    lam = np.linalg.eigvals(a)
    omegas = np.sort(np.concatenate(
        [[0.0]] + [l.imag + abs(l.real) * np.linspace(-6, 6, 2001) for l in lam]))
    mags = np.abs(transfer_scalar(a, b, c, omegas))
    inner = np.flatnonzero((mags[1:-1] >= mags[:-2]) & (mags[1:-1] >= mags[2:])) + 1
    best = float(mags.max())
    for k in inner[np.argsort(mags[inner])[-3:]]:
        lo, hi = omegas[k - 1], omegas[k + 1]
        while hi - lo > 1e-12 * max(abs(lo), abs(hi), 1.0):
            grid = np.linspace(lo, hi, 33)
            vals = np.abs(transfer_scalar(a, b, c, grid))
            j = int(vals.argmax())
            best = max(best, float(vals[j]))
            lo, hi = grid[max(j - 1, 0)], grid[min(j + 1, 32)]
    return best


def count_eigensolves(monkeypatch):
    calls = []
    solve = _linalg._hamiltonian_eigs

    def counted(ham):
        calls.append(ham.shape[0])
        return solve(ham)

    monkeypatch.setattr(_linalg, "_hamiltonian_eigs", counted)
    return calls


def test_hinf_takes_about_one_eigensolve_per_norm(monkeypatch):
    # the Newton climb reaches the peak before the Hamiltonian test, which
    # then confirms it; a second solve is needed only where the climb
    # settles on a lower local peak
    calls = count_eigensolves(monkeypatch)
    rng = np.random.default_rng(21)
    norms = 0
    for n in (2, 4, 8, 16):
        for _ in range(10):
            plant = stable_plant(rng, n)
            hinf_bisect(plant.F, plant.B, plant.C)
            norms += 1
    assert set(calls) == {4 * n for n in (2, 4, 8, 16)}
    assert len(calls) / norms <= 1.2


def test_hinf_of_a_one_pole_response_needs_no_eigensolve(monkeypatch):
    calls = count_eigensolves(monkeypatch)
    rng = np.random.default_rng(22)
    rel_tol = 1e-9
    for _ in range(20):
        a = complex(-rng.uniform(0.01, 10.0), rng.uniform(-5.0, 5.0))
        b, c = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
        h = hinf_bisect(np.array([[a]]), np.array([[b]]), np.array([[c]]), rel_tol=rel_tol)
        assert h == pytest.approx((1.0 + 0.5 * rel_tol) * abs(c * b) / -a.real, rel=1e-15)
        assert h >= refined_peak(np.array([[a]]), np.array([[b]]), np.array([[c]]))
    g, kappa_b = 0.2 - 0.1j, 4.0
    gamma, _, _ = qsiqc_params(from_bilinear_coupling(g, kappa_b))
    assert gamma == pytest.approx(kappa_b / (2.0 * abs(g) ** 2), rel=1e-9)
    assert calls == []


def band_pass_pair(omega, damping, gain):
    """gain s / (s^2 + 2 damping s + omega^2) in companion form: its magnitude
    peaks at w = omega with value gain / (2 damping)."""
    a = np.array([[0.0, 1.0], [-omega ** 2, -2.0 * damping]])
    return a, np.array([[0.0], [1.0]]), np.array([[0.0, gain]])


def test_hinf_level_set_finds_the_higher_of_two_peaks(monkeypatch):
    # a lightly damped pair at w = 1 (peak about 25.5) and a broad one at
    # w = 10 (peak 26 at w = 10, but 25.0 at the imaginary part 8.66 of its
    # poles): the best start is the lower peak, the climb stops there, and
    # the Hamiltonian test at that level exposes the higher one
    a1, b1, c1 = band_pass_pair(1.0, 0.02, 1.0)
    a2, b2, c2 = band_pass_pair(10.0, 5.0, 260.0)
    a = sla.block_diag(a1, a2)
    b, c = np.vstack([b1, b2]), np.hstack([c1, c2])
    calls = count_eigensolves(monkeypatch)
    climbs = []
    climb = _linalg._climb

    def recorded(*args):
        climbs.append(climb(*args))
        return climbs[-1]

    monkeypatch.setattr(_linalg, "_climb", recorded)
    h = hinf_bisect(a, b, c)
    peak = refined_peak(a, b, c)
    assert abs(peak - 26.0) <= 1e-3
    assert climbs[0] < 25.6 and len(calls) == 2
    assert peak <= h <= (1.0 + 1e-9) * peak


@pytest.mark.parametrize("n", range(1, 17))
def test_hinf_is_within_rel_tol_above_the_refined_peak(n):
    rng = np.random.default_rng(400 + n)
    for rel_tol in (1e-9, 1e-6):
        plant = stable_plant(rng, n)
        h = hinf_bisect(plant.F, plant.B, plant.C, rel_tol=rel_tol)
        peak = refined_peak(plant.F, plant.B, plant.C)
        assert peak <= h <= (1.0 + rel_tol) * peak
