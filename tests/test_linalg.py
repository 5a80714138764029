"""Schur-based frequency evaluator and the level-set H-infinity norm."""

import math

import numpy as np
import pytest

from qrobust._linalg import hinf_bisect, transfer_scalar
from qrobust.errors import NumericError, PreconditionError
from qrobust.fockcheck import random_hermitian_structured
from qrobust.model import constants, validate_model
from qrobust.smallgain import compute_F, freq_response


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


def test_transfer_scalar_defective_drift_matches_adjugate():
    # detuning equal to squeezing: F = -kappa/2 I + N with N nilpotent, a
    # Jordan block on which an eigenvector basis is ill-conditioned
    kappa, delta = 1.0, 0.3
    m = np.array([[delta, -delta], [-delta, delta]], dtype=complex)
    e = np.array([[0.7 - 0.2j, -0.4 + 0.9j]])
    plant = compute_F(validate_model(m, math.sqrt(kappa) * np.eye(2),
                                     math.sqrt(2.0) * np.eye(2), e))
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
        assert abs(freq_response(plant, w) - closed) <= 1e-12 * abs(closed)


def test_transfer_scalar_rejects_pole_on_axis():
    a = np.diag([2j, -1.0])
    b, c = np.ones((2, 1)), np.ones((1, 2))
    with pytest.raises(NumericError, match="pole"):
        transfer_scalar(a, b, c, [0.0, 2.0])
    assert np.isfinite(transfer_scalar(a, b, c, [0.0, 2.5])).all()
