"""Dense linear-algebra workhorses shared by the certification modules.

Everything here operates on plain complex ndarrays.  The Riccati solver
is the classical invariant-subspace construction: an ordered complex
Schur factorization of the 4n x 4n matrix [[A, R], [-Q, -A^dagger]]
selects the stable subspace [U; V], and P = V U^{-1} is the stabilizing
solution of A^dagger P + P A + P R P + Q = 0.  Frequency responses and
the H-infinity norm share one complex Schur factorization A = U T U^dagger
per call: responses come from back-substitution on the triangular T,
and the norm from the level-set iteration on the Hamiltonian
[[A, B B^dagger / g], [-C^dagger C / g, -A^dagger]], whose
imaginary-axis eigenvalues i w are exactly the frequencies where the
response magnitude equals g.
"""

import numpy as np
import scipy.linalg as sla

from .errors import InfeasibleError, NumericError, PreconditionError

__all__ = [
    "hermitian_part",
    "spectral_abscissa",
    "lyap",
    "riccati_stabilizing",
    "transfer_scalar",
    "hinf_bisect",
]

# a Hamiltonian eigenvalue lies on the imaginary axis when its real part is
# below AXIS_RTOL times the largest eigenvalue magnitude
AXIS_RTOL = 1e-6
# cap on level-set steps; convergence is quadratic, so reaching it means a
# numerical breakdown
LEVEL_SET_MAX_ITER = 100
# i w is a pole of the response when |i w - lambda| <= POLE_RTOL max(|w|, max |lambda|)
POLE_RTOL = 1e-13
# relative residual allowed for a Riccati solve, scaled by max(1, |A|_max)
RICCATI_RTOL = 1e-8


def hermitian_part(x):
    return 0.5 * (x + x.conj().T)


def spectral_abscissa(a):
    try:
        eigs = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue computation failed: {exc}") from exc
    return float(eigs.real.max())


def lyap(a, q, rtol=1e-10):
    """Solve a X + X a^dagger + q = 0 and verify the residual.

    The residual check is entrywise, relative to |q|_max.
    """
    x = sla.solve_continuous_lyapunov(a, -np.asarray(q, dtype=complex))
    scale = max(float(np.abs(q).max()), 1e-300)
    res = float(np.abs(a @ x + x @ a.conj().T + q).max())
    if res > rtol * scale:
        raise NumericError(
            f"Lyapunov solve residual {res:.3e} exceeds {rtol:.0e} x |Q|_max; "
            "the drift is likely too close to instability")
    return x


def riccati_stabilizing(a, r, q):
    """Stabilizing solution of A^dagger P + P A + P R P + Q = 0.

    Returns (P, residual) with residual the max-entry magnitude of the
    equation evaluated at P.  Raises InfeasibleError when the stable
    invariant subspace does not exist or cannot be inverted, which is
    how an infeasible shift manifests.
    """
    n = a.shape[0]
    z = np.block([[a, r], [-q, -a.conj().T]])
    try:
        _, vecs, sdim = sla.schur(z, output="complex", sort="lhp")
    except Exception as exc:  # scipy raises LinAlgError or SqrtmError-likes
        raise NumericError(f"Schur factorization failed: {exc}") from exc
    if sdim != n:
        raise InfeasibleError(
            f"no stabilizing solution: stable subspace has dimension {sdim}, expected {n}")
    u = vecs[:n, :n]
    v = vecs[n:, :n]
    if np.linalg.cond(u) > 1e12:
        raise InfeasibleError("stable subspace is numerically singular; no stabilizing solution")
    p = hermitian_part(v @ np.linalg.inv(u))
    residual = float(np.abs(a.conj().T @ p + p @ a + p @ r @ p + q).max())
    if residual > RICCATI_RTOL * max(1.0, float(np.abs(a).max())):
        raise NumericError(f"Riccati residual {residual:.3e} exceeds tolerance")
    return p, residual


def _schur_siso(a, b, c):
    """(T, U^dagger b, c U) from the complex Schur form A = U T U^dagger."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    try:
        t, u = sla.schur(a, output="complex")
    except Exception as exc:  # LinAlgError, or ValueError on a non-finite entry
        raise NumericError(f"Schur factorization failed: {exc}") from exc
    bt = u.conj().T @ np.asarray(b, dtype=complex).reshape(n)
    ct = np.asarray(c, dtype=complex).reshape(n) @ u
    return t, bt, ct


def _eval_schur(t, bt, ct, omegas):
    """ct (i w I - t)^{-1} bt for each w, by back-substitution on triangular t."""
    omegas = np.asarray(omegas, dtype=float).reshape(-1)
    n = t.shape[0]
    poles = t.diagonal()
    diag = 1j * omegas[None, :] - poles[:, None]
    scale = np.maximum(np.abs(omegas), float(np.abs(poles).max()))
    near = np.abs(diag).min(axis=0) <= POLE_RTOL * scale
    if near.any():
        raise NumericError(
            f"frequency {float(omegas[np.argmax(near)])!r} is too close to a pole of the response")
    y = np.empty_like(diag)
    for k in range(n - 1, -1, -1):
        y[k] = (bt[k] + t[k, k + 1:] @ y[k + 1:]) / diag[k]
    return ct @ y


def transfer_scalar(a, b, c, omegas):
    """H(i w) = C (i w I - A)^{-1} B for a SISO realization, vectorized.

    One complex Schur factorization A = U T U^dagger per call, then a
    back-substitution on (i w I - T) y = U^dagger B for all w at once:
    O(n^2) work per frequency, backward stable, and no eigenvector
    basis, so defective drifts cost no accuracy.  Raises NumericError
    when i w lies within POLE_RTOL x max(|w|, max |lambda|) of an
    eigenvalue lambda of A.
    """
    return _eval_schur(*_schur_siso(a, b, c), omegas)


# The name predates the level-set method; perfbench/spans.py wraps it by name.
def hinf_bisect(a, b, c, rel_tol=1e-9):
    """Supremum over frequency of |C (iw I - A)^{-1} B|, A Hurwitz.

    Level-set iteration (Bruinsma & Steinbuch 1990; Boyd & Balakrishnan
    1990) on one complex Schur factorization of A, which also supplies
    the Hurwitz test and every frequency evaluation.  The lower bound
    starts at the largest response over w in {0} and the imaginary parts
    of the poles (the magnitude response of a complex-coefficient
    realization is not an even function).  At the level
    g = (1 + 2 rel_tol) x bound, the Hamiltonian
    [[T, b b^dagger / g], [-c^dagger c / g, -T^dagger]] has an
    imaginary-axis eigenvalue i w exactly where |H(i w)| = g; the
    response at the midpoints between consecutive such w becomes the new
    bound.  The iteration stops when fewer than two crossings remain or
    the bound no longer grows by rel_tol, and returns
    (1 + rel_tol) x bound: within rel_tol of a response value actually
    attained.  Convergence is quadratic; a handful of 2n x 2n
    eigensolves is typical.
    """
    t, bt, ct = _schur_siso(a, b, c)
    n = t.shape[0]
    poles = t.diagonal()
    if not float(poles.real.max()) < 0.0:
        raise PreconditionError("H-infinity norm is undefined: drift is not Hurwitz")
    lower = float(np.abs(_eval_schur(t, bt, ct, np.append(0.0, poles.imag))).max())
    if lower == 0.0:
        # the numerator has degree below n; vanishing at n further distinct
        # frequencies means the response is identically zero
        probe = float(np.abs(poles).max()) * np.arange(1, n + 1)
        lower = float(np.abs(_eval_schur(t, bt, ct, probe)).max())
        if lower == 0.0:
            return 0.0
    bb = np.outer(bt, bt.conj())
    cc = np.outer(ct.conj(), ct)
    ham = np.empty((2 * n, 2 * n), dtype=complex)
    ham[:n, :n] = t
    ham[n:, n:] = -t.conj().T
    for _ in range(LEVEL_SET_MAX_ITER):
        level = (1.0 + 2.0 * rel_tol) * lower
        np.multiply(bb, 1.0 / level, out=ham[:n, n:])
        np.multiply(cc, -1.0 / level, out=ham[n:, :n])
        try:
            eigs = np.linalg.eigvals(ham)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"Hamiltonian eigensolve failed: {exc}") from exc
        on_axis = np.abs(eigs.real) < AXIS_RTOL * float(np.abs(eigs).max())
        crossings = np.sort(eigs.imag[on_axis])
        if crossings.size < 2:
            break
        mids = 0.5 * (crossings[:-1] + crossings[1:])
        best = float(np.abs(_eval_schur(t, bt, ct, mids)).max())
        grew = best > (1.0 + rel_tol) * lower
        lower = max(lower, best)
        if not grew:
            break
    else:
        raise NumericError(
            f"H-infinity level-set iteration did not converge in {LEVEL_SET_MAX_ITER} steps")
    return (1.0 + rel_tol) * lower
