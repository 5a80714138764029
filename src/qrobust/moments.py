"""Coupled second-moment dynamics of the plant plus a bilinear uncertainty.

When the perturbation couples the plant output z bilinearly to a single
damped uncertainty mode, the full interconnection is again a linear
quantum system and its second moments X(t) = <xi xi^dagger> obey the
closed Lyapunov ODE

    dX/dt = A_cl X + X A_cl^dagger + D

in the stacked ordering xi = (a, a^#, b, b^#).  This module assembles
A_cl and the vacuum diffusion D, solves for the steady state, and
propagates transients exactly on a time grid, giving an empirical check
of the certified mean-square bound: for a certified model the
plant-sector trace of the steady state must not exceed the bound.

Certification never consumes these results; certification and moment
propagation are independent computations that meet only in tests and in
the command-line report.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from ._linalg import lyap, schur, spectral_abscissa
from .errors import DimensionError, ModelError, PreconditionError
from .model import constants

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
BLOCK_STEPS = 128  # grid points propagated by one batched product


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


def _plant_diagonal_sums(x, n_a):
    """Plant-sector diagonal sums of a stack of X; raises at the first bad one."""
    diag = np.diagonal(x, axis1=1, axis2=2)[:, :2 * n_a]
    tol = 1e-10 * np.maximum(1.0, np.abs(x.reshape(len(x), -1)).max(axis=1))
    nonreal = np.abs(diag.imag).max(axis=1) > tol
    bad = nonreal | (diag.real.min(axis=1) < -tol)
    if bad.any():
        raise PreconditionError("second-moment matrix has a non-real plant diagonal"
                                if nonreal[bad.argmax()] else
                                "second-moment matrix has a negative plant diagonal entry")
    return diag.real.sum(axis=1)


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
    return SecondMomentState(X=x, ms_value=float(_plant_diagonal_sums(x[None], sys.n_a)[0]))


def vacuum_state(sys):
    """<xi xi^dagger> of the joint vacuum: diag(I, 0) per sector."""
    return np.diag(np.concatenate([np.ones(sys.n_a), np.zeros(sys.n_a),
                                   np.ones(sys.n_b), np.zeros(sys.n_b)])).astype(complex)


def _step_maps(a, d, h, count):
    """Stacks of the exact j-step maps X <- Phi_j X Phi_j^dagger + Q_j, j = 1 .. count.

    Phi_1 = e^{A h} and Q_1 = int_0^h e^{A s} D e^{A^dagger s} ds come from
    one block exponential (Van Loan, IEEE TAC 23 (1978) 395-404):
    expm([[-A, D], [0, A^dagger]] h) = [[., G], [0, Phi^dagger]], Q_1 = Phi G.
    G carries e^{-A h}, whose rounding grows like e^{h |Re lambda|} for the
    fastest mode lambda, so the map is formed at s = h / 2^j with
    s |Re lambda| <= 1 and doubled back up j times through
    Q(2s) = Phi(s) Q(s) Phi(s)^dagger + Q(s) and Phi(2s) = Phi(s)^2; the stacks
    double likewise, Phi_{n+i} = Phi_i Phi_n, Q_{n+i} = Phi_i Q_n Phi_i^dagger + Q_i.
    """
    m = a.shape[0]
    rate = h * float(np.abs(np.linalg.eigvals(a).real).max())
    j = int(np.ceil(np.log2(rate))) if rate > 1.0 else 0
    e = expm((h / 2 ** j) * np.block([[-a, d], [np.zeros_like(a), a.conj().T]]))
    phi = e[m:, m:].conj().T
    q = phi @ e[:m, m:]
    for _ in range(j):
        q = phi @ q @ phi.conj().T + q
        phi = phi @ phi
    phis, qs = phi[None], 0.5 * (q + q.conj().T)[None]
    while len(phis) < count:
        phis, qs = (np.concatenate([phis, phis @ phis[-1]]),
                    np.concatenate([qs, phis @ qs[-1] @ phis.conj().transpose(0, 2, 1) + qs]))
    return phis[:count], phis[:count].conj().transpose(0, 2, 1), qs[:count]


def integrate_moments(sys, T, dt=None, x0=None):
    """Second moments from vacuum, propagated exactly step by step.

    Each step is the exact solution X <- Phi X Phi^dagger + Q_d of the
    moment ODE, taken BLOCK_STEPS at a time through the j-step maps of
    _step_maps.  The default step is 0.01 / |spectral abscissa| of the
    loop drift, the last one shortened to end at T.  Propagation stops
    early (diverged=True) once any entry magnitude exceeds 1e12, which
    is how an unstable loop is reported rather than as an exception.
    """
    if not 0 < T < math.inf:
        raise PreconditionError(f"horizon must be positive and finite, got {T!r}")
    if dt is None:
        rate = abs(spectral_abscissa(sys.A_cl))
        if rate == 0.0:
            raise PreconditionError("loop has zero spectral abscissa; supply dt explicitly")
        dt = 0.01 / rate
    if not (0 < dt <= T):
        raise PreconditionError(f"need 0 < dt <= T, got dt={dt!r}, T={T!r}")
    x = vacuum_state(sys) if x0 is None else np.asarray(x0, dtype=complex).copy()
    steps = int(np.ceil(T / dt))
    last = min(dt, T - (steps - 1) * dt)
    full = steps if last == dt else steps - 1
    values, k, over = [_plant_diagonal_sums(x[None], sys.n_a)], 0, []
    with np.errstate(over="ignore", invalid="ignore"):
        while k < steps and not len(over):
            n = min(full - k, BLOCK_STEPS) or 1
            if k in (0, full):
                phis, phis_h, qs = _step_maps(sys.A_cl, sys.D, dt if k < full else last, n)
            block = phis[:n] @ x @ phis_h[:n] + qs[:n]
            # NaN compares false, so a non-finite entry counts as over the limit
            over = np.flatnonzero(~(np.abs(block).max(axis=(1, 2)) <= DIVERGENCE_LIMIT))[:1]
            block = block[:over[0] + 1] if len(over) else block
            values.append(_plant_diagonal_sums(block[:len(block) - len(over)], sys.n_a))
            x, k = block[-1], k + len(block)
    return MomentTrajectory(t=np.minimum(np.arange(k + 1) * dt, T),
                            ms_values=np.concatenate(values + [[np.inf]] * len(over)),
                            diverged=len(over) > 0, X_final=x)
