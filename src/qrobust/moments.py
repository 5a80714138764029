"""Coupled second-moment dynamics of the plant plus a bilinear uncertainty.

When the perturbation couples the plant output z bilinearly to a single
damped uncertainty mode, the full interconnection is again a linear
quantum system and its second moments X(t) = <xi xi^dagger> obey the
closed Lyapunov ODE

    dX/dt = A_cl X + X A_cl^dagger + D

in the stacked ordering xi = (a, a^#, b, b^#).  This module assembles
A_cl and the vacuum diffusion D, solves for the steady state, and
integrates transients, giving an empirical check of the certified
mean-square bound: for a certified model the plant-sector trace of the
steady state must not exceed the bound.

Certification never consumes these results; certification and moment
propagation are independent computations that meet only in tests and in
the command-line report.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import lyap, schur, spectral_abscissa
from .errors import DimensionError, ModelError, PreconditionError
from .model import constants
from .smallgain import compute_F

__all__ = [
    "ClosedLoopSystem",
    "SecondMomentState",
    "MomentTrajectory",
    "scalar_damping_rate",
    "build_closed_loop",
    "steady_state_moments",
    "integrate_moments",
]

DIVERGENCE_LIMIT = 1e12


@dataclass
class ClosedLoopSystem:
    A_cl: np.ndarray  # 2(n_a + n_b) x 2(n_a + n_b) drift
    D: np.ndarray     # Hermitian PSD vacuum diffusion
    n_a: int
    n_b: int


@dataclass
class SecondMomentState:
    """Steady second moments; ms_value is the plant-sector diagonal sum.

    ms_value equals the steady expectation of the squared plant mode
    vector, the quantity whose boundedness defines mean-square
    stability.
    """

    X: np.ndarray
    ms_value: float


@dataclass
class MomentTrajectory:
    t: np.ndarray
    ms_values: np.ndarray
    diverged: bool
    X_final: np.ndarray


def scalar_damping_rate(n_b_matrix):
    """Damping rate kappa of a single uncertainty mode from its coupling N_b.

    The bilinear-uncertainty reduction needs the b-sector drift
    -J N_b^dagger J N_b / 2 to be a scalar -kappa/2 times the identity;
    anything else cannot be matched to the one-mode sector model.
    """
    n_b_matrix = np.asarray(n_b_matrix, dtype=complex)
    if n_b_matrix.ndim != 2 or n_b_matrix.shape[1] != 2 or n_b_matrix.shape[0] % 2:
        raise DimensionError(
            f"N_b must be 2m x 2 for a single uncertainty mode, got shape {n_b_matrix.shape}")
    m2 = n_b_matrix.shape[0]
    jm = constants(m2 // 2).J
    jb = constants(1).J
    damp = jb @ n_b_matrix.conj().T @ jm @ n_b_matrix
    kappa = complex(damp[0, 0])
    scale = max(float(np.abs(damp).max()), 1e-300)
    if float(np.abs(damp - kappa.real * np.eye(2)).max()) > 1e-10 * scale:
        raise ModelError(
            "uncertainty damping J N_b^dagger J N_b is not a real scalar multiple of I; "
            "the bilinear sector model does not apply")
    if kappa.real <= 0:
        raise ModelError(f"uncertainty damping rate must be positive, got {kappa.real!r}")
    return kappa.real


def build_closed_loop(model, g):
    """Assemble the interconnection drift and diffusion for coupling g.

    The coupling enters the full quadratic Hamiltonian through the
    off-sector block pinned by the commutation relation [b, H] = i g z:
    rows (i g E_tilde; -i g^* E_tilde^# Sigma) against the plant sector.
    The noise map is -J N^dagger J per sector, driven by vacuum with
    Ito covariance diag(I, 0) per noise doubling.
    """
    if model.n_b != 1:
        raise DimensionError(
            f"bilinear coupling needs exactly one uncertainty mode, model has n_b={model.n_b}")
    g = complex(g)
    na, nb = model.n_a, model.n_b
    na2, dim = 2 * na, 2 * (na + nb)
    ma, mb = model.N_a.shape[0] // 2, model.N_b.shape[0] // 2
    e = np.asarray(model.E_tilde, dtype=complex).reshape(-1)

    m_full = np.zeros((dim, dim), dtype=complex)
    m_full[:na2, :na2] = model.M
    m_full[na2, :na2] = 1j * g * e
    m_full[na2 + 1, :na2] = -1j * g.conjugate() * np.concatenate([e[na:], e[:na]]).conj()
    m_full[:na2, na2:] = m_full[na2:, :na2].conj().T
    n_full = np.zeros((2 * (ma + mb), dim), dtype=complex)
    n_full[:2 * ma, :na2] = model.N_a
    n_full[2 * ma:, na2:] = model.N_b
    # the commutation matrices J of the state and of the noise are diagonal
    # +-1, and the vacuum covariance is diagonal 1/0, per sector
    j_state = np.repeat([1.0, -1.0, 1.0, -1.0], [na, na, nb, nb])
    j_noise = np.repeat([1.0, -1.0, 1.0, -1.0], [ma, ma, mb, mb])
    vacuum = np.repeat([1.0, 0.0, 1.0, 0.0], [ma, ma, mb, mb])

    k = -(j_state[:, None] * n_full.conj().T) * j_noise  # -J N^dagger J per sector
    a_cl = -1j * (j_state[:, None] * m_full) + 0.5 * (k @ n_full)
    d = (k * vacuum) @ k.conj().T
    return ClosedLoopSystem(A_cl=a_cl, D=0.5 * (d + d.conj().T), n_a=na, n_b=nb)


def _plant_diagonal_sum(x, n_a):
    diag = np.diagonal(x)[:2 * n_a]
    scale = max(1.0, float(np.abs(x).max()))
    if float(np.abs(diag.imag).max()) > 1e-10 * scale:
        raise PreconditionError("second-moment matrix has a non-real plant diagonal")
    if float(diag.real.min()) < -1e-10 * scale:
        raise PreconditionError("second-moment matrix has a negative plant diagonal entry")
    return float(diag.real.sum())


def steady_state_moments(sys):
    """Steady X from A_cl X + X A_cl^dagger + D = 0; needs a Hurwitz loop.

    A_cl is factored once, for the Hurwitz test (diag T) and the
    Lyapunov solve.
    """
    t, u, _ = schur(sys.A_cl)
    if not float(t.diagonal().real.max()) < 0.0:
        raise PreconditionError(
            "closed loop is not Hurwitz: second moments diverge (mean-square unstable)")
    x = lyap(sys.A_cl, sys.D, schur=(t, u))
    x = 0.5 * (x + x.conj().T)
    return SecondMomentState(X=x, ms_value=_plant_diagonal_sum(x, sys.n_a))


def vacuum_state(sys):
    """<xi xi^dagger> of the joint vacuum: diag(I, 0) per sector."""
    blocks = []
    for n in (sys.n_a, sys.n_b):
        blocks.append(np.diag(np.concatenate([np.ones(n), np.zeros(n)])))
    dim = 2 * (sys.n_a + sys.n_b)
    x0 = np.zeros((dim, dim), dtype=complex)
    x0[:2 * sys.n_a, :2 * sys.n_a] = blocks[0]
    x0[2 * sys.n_a:, 2 * sys.n_a:] = blocks[1]
    return x0


def integrate_moments(sys, T, dt=None, x0=None):
    """Fixed-step 4th-order integration of the moment ODE from vacuum.

    The default step is 0.01 / |spectral abscissa| of the loop drift.
    Integration stops early (diverged=True) once any entry magnitude
    exceeds 1e12, which is how an unstable loop is reported rather than
    as an exception.
    """
    if not (T > 0):
        raise PreconditionError(f"horizon must be positive, got {T!r}")
    if dt is None:
        rate = abs(spectral_abscissa(sys.A_cl))
        if rate == 0.0:
            raise PreconditionError("loop has zero spectral abscissa; supply dt explicitly")
        dt = 0.01 / rate
    if not (0 < dt <= T):
        raise PreconditionError(f"need 0 < dt <= T, got dt={dt!r}, T={T!r}")
    a = sys.A_cl
    ah = a.conj().T

    def deriv(x):
        return a @ x + x @ ah + sys.D

    x = vacuum_state(sys) if x0 is None else np.asarray(x0, dtype=complex).copy()
    steps = int(np.ceil(T / dt))
    times = [0.0]
    values = [_plant_diagonal_sum(x, sys.n_a)]
    diverged = False
    for k in range(steps):
        h = min(dt, T - k * dt)
        k1 = deriv(x)
        k2 = deriv(x + 0.5 * h * k1)
        k3 = deriv(x + 0.5 * h * k2)
        k4 = deriv(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(x).all() or float(np.abs(x).max()) > DIVERGENCE_LIMIT:
            diverged = True
            times.append(min((k + 1) * dt, T))
            values.append(float("inf"))
            break
        times.append(min((k + 1) * dt, T))
        values.append(_plant_diagonal_sum(x, sys.n_a))
    return MomentTrajectory(t=np.array(times), ms_values=np.array(values),
                            diverged=diverged, X_final=x)
