"""Sector parameters of a linear (bilinearly coupled) uncertainty block.

The admissible perturbations are described by two time-averaged
integral constraints on the channel z -> w driven through the
uncertainty modes: a gain constraint with parameter gamma and budget
delta1, and a curvature constraint with budget delta2.  When the
perturbation couples bilinearly (w linear in the uncertainty modes, no
quadratic z dependence), the uncertainty is itself a stable linear
system

    d xi = A_u xi dt + B_u z dt + (noise),   w = C_u xi,

and the sector parameters have closed values: gamma is the reciprocal
of the H-infinity norm of C_u (sI - A_u)^{-1} B_u, delta1 is the
zero-input steady-state covariance of w under the driving vacuum noise,
and delta2 = 0 because the curvature output vanishes identically.

For the one-mode bilinear coupling with strength g and damping kappa_b
(from_bilinear_coupling) these reduce to A_u = -kappa_b/2, B_u = g,
C_u = -i g^*, noise covariance kappa_b, hence gamma = kappa_b / (2|g|^2)
and delta1 = |g|^2.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._json import dumps, matrix_from_lists, object_from_json
from ._linalg import hinf_bisect, lyap, schur
from .errors import DimensionError, ModelError, NumericError, PreconditionError

__all__ = [
    "LinearUncertainty",
    "from_bilinear_coupling",
    "qsiqc_params",
    "uncertainty_from_json",
    "uncertainty_to_json",
]

HERMITICITY_RTOL = 1e-12


@dataclass
class LinearUncertainty:
    """State-space data of a linear uncertainty block.

    A_u is the internal drift, B_u the input map from the plant output z,
    C_u the output map to w, and noise_cov the Ito covariance per unit
    time of the driving vacuum noise (Hermitian PSD).
    """

    A_u: np.ndarray      # n_u x n_u
    B_u: np.ndarray      # n_u x 1
    C_u: np.ndarray      # 1 x n_u
    noise_cov: np.ndarray  # n_u x n_u Hermitian PSD


def _validate(u):
    a = np.asarray(u.A_u, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"A_u must be square, got shape {a.shape}")
    n_u = a.shape[0]
    b = np.asarray(u.B_u, dtype=complex).reshape(-1, 1)
    c = np.asarray(u.C_u, dtype=complex).reshape(1, -1)
    if b.shape[0] != n_u or c.shape[1] != n_u:
        raise DimensionError(
            f"B_u and C_u must have {n_u} rows/columns, got {b.shape} and {c.shape}")
    w = np.asarray(u.noise_cov, dtype=complex)
    if w.shape != (n_u, n_u):
        raise DimensionError(f"NoiseCov must be {n_u}x{n_u}, got shape {w.shape}")
    scale = max(float(np.abs(w).max()), 1e-300)
    if float(np.abs(w - w.conj().T).max()) > HERMITICITY_RTOL * scale:
        raise ModelError("NoiseCov is not Hermitian")
    if float(np.linalg.eigvalsh(0.5 * (w + w.conj().T)).min()) < -HERMITICITY_RTOL * scale:
        raise ModelError("NoiseCov is not positive semidefinite")
    return a, b, c, w


_NOT_HURWITZ = "uncertainty drift A_u is not Hurwitz; sector parameters are undefined"


def _hurwitz_schur(a):
    """Schur factorization (T, U) of a Hurwitz A_u; the test reads diag T."""
    t, u, _ = schur(a)
    if not float(t.diagonal().real.max()) < 0.0:
        raise PreconditionError(_NOT_HURWITZ)
    return t, u


def from_bilinear_coupling(g, kappa_b):
    """One-mode uncertainty block for a bilinear coupling of strength g.

    The coupled mode obeys d b = -kappa_b/2 b dt + g z dt + noise and
    the constraint output is w = -i g^* b.  |g|^2 must be finite.
    """
    kappa_b = float(kappa_b)
    if not (kappa_b > 0):
        raise PreconditionError(f"damping rate must be positive, got {kappa_b!r}")
    g = complex(g)
    # a product overflows to inf where abs() of a complex would raise OverflowError
    g_sq = g.real * g.real + g.imag * g.imag
    if not g_sq < math.inf:
        raise PreconditionError(f"coupling strength g = {g!r} has no finite |g|^2")
    return LinearUncertainty(
        A_u=np.array([[-0.5 * kappa_b]], dtype=complex),
        B_u=np.array([[g]], dtype=complex),
        C_u=np.array([[-1j * g.conjugate()]], dtype=complex),
        noise_cov=np.array([[kappa_b]], dtype=complex))


def _gain(a, b, c, tu):
    norm = hinf_bisect(a, b, c, schur=tu)
    return math.inf if norm == 0.0 else 1.0 / norm


def _delta1(a, c, w, tu):
    x = lyap(a, w, schur=tu)
    scale = max(float(np.abs(x).max()), 1e-300)
    if float(np.abs(x - x.conj().T).max()) > 1e-10 * scale:
        raise NumericError("steady-state covariance is not Hermitian")
    if float(np.linalg.eigvalsh(0.5 * (x + x.conj().T)).min()) < -1e-10 * scale:
        raise NumericError("steady-state covariance is not positive semidefinite")
    value = complex((c @ x @ c.conj().T)[0, 0])
    return max(value.real, 0.0)


def qsiqc_params(u):
    """(gamma, delta1, delta2) for the two sector constraints.

    gamma = 1 / ||C_u (sI - A_u)^{-1} B_u||_inf, or +inf for a zero
    channel, is the largest gain parameter the block satisfies; the norm
    is within relative 1e-9 of an attained response value.  delta1 = C_u X
    C_u^dagger, with X the steady covariance solving A_u X + X A_u^dagger
    + NoiseCov = 0.  Raises PreconditionError when A_u is not Hurwitz.

    The block is validated, and A_u factored and tested for Hurwitz,
    once; the H-infinity norm and the Lyapunov solve share that Schur
    factorization.  delta2 = 0: a bilinear coupling has identically zero
    curvature output, so its constraint holds with zero budget.
    """
    a, b, c, w = _validate(u)
    tu = _hurwitz_schur(a)
    return _gain(a, b, c, tu), _delta1(a, c, w, tu), 0.0


_UNC_FIELDS = ("A_u", "B_u", "C_u", "NoiseCov")


def uncertainty_from_json(text):
    """Parse a strict uncertainty file holding A_u, B_u, C_u, NoiseCov."""
    raw = object_from_json(text, "uncertainty file", _UNC_FIELDS)
    mats = {key: matrix_from_lists(raw[key], key) for key in _UNC_FIELDS}
    u = LinearUncertainty(A_u=mats["A_u"], B_u=mats["B_u"], C_u=mats["C_u"],
                          noise_cov=mats["NoiseCov"])
    _validate(u)
    return u


def uncertainty_to_json(u):
    return dumps({
        "A_u": np.atleast_2d(np.asarray(u.A_u, dtype=complex)),
        "B_u": np.asarray(u.B_u, dtype=complex).reshape(-1, 1),
        "C_u": np.asarray(u.C_u, dtype=complex).reshape(1, -1),
        "NoiseCov": np.atleast_2d(np.asarray(u.noise_cov, dtype=complex)),
    }) + "\n"
