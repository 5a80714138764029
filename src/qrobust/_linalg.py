"""Dense linear-algebra workhorses shared by the certification modules.

Everything here operates on plain ndarrays, and every drift is factored
by one routine, `schur`: a single direct LAPACK `zgees` call with its
default workspace, giving the complex Schur form A = U T U^dagger.
`scipy.linalg.schur` runs `zgees` twice per call (a workspace query,
then the factorization) and validates its input again, which on the
1x1 to 4x4 drifts of a one-mode plant costs several times the
factorization itself; `schur` keeps its finiteness and `info` checks
and raises NumericError for both.  Callers that need several results
from one drift factor it once and pass (T, U) on:

- the Hurwitz test and the spectral abscissa read diag T;
- frequency responses are back-substitutions on the triangular T, and
  so are the derivatives a Newton climb on |H(i w)|^2 needs: one
  `ztrsyl` call against a 3 x 3 Jordan block gives H, H' and H'' at
  one frequency;
- the H-infinity norm climbs to a local peak and then confirms it with
  the Hamiltonian [[T, b b^dagger / g], [-c^dagger c / g, -T^dagger]]
  in the Schur basis, whose imaginary-axis eigenvalues i w are exactly
  the frequencies where the response magnitude equals g; one direct
  `zgeev` call per level, usually one level per norm;
- the Lyapunov equation is solved by Bartels-Stewart: one `ztrsyl`
  call on T, then the change of basis back.

The Riccati solver is the classical invariant-subspace construction: a
Schur factorization of the 4n x 4n matrix [[A, R], [-Q, -A^dagger]],
ordered stable-first, selects the stable subspace [U; V], and
P = V U^{-1} is the stabilizing solution of
A^dagger P + P A + P R P + Q = 0.  A real equation stays real, on the
real Schur factorization `dgees` (a third of `zgees`'s time at 64 x 64).
"""

import math

import numpy as np
from scipy.linalg import lapack

from .errors import InfeasibleError, NumericError, PreconditionError

__all__ = [
    "hermitian_part",
    "schur",
    "spectral_abscissa",
    "lyap",
    "riccati_stabilizing",
    "transfer_scalar",
    "hinf_bisect",
]

# a Hamiltonian eigenvalue lies on the imaginary axis when its real part is
# below AXIS_RTOL times the largest eigenvalue magnitude
AXIS_RTOL = 1e-6
# cap on level-set steps; each climbs past the last level, so reaching it
# means a numerical breakdown
LEVEL_SET_MAX_ITER = 100
# cap on the Newton steps of one climb; the Hamiltonian test, not the
# climb, decides convergence
NEWTON_MAX_STEPS = 50
# i w is a pole of the response when |i w - lambda| <= POLE_RTOL max(|w|, max |lambda|)
POLE_RTOL = 1e-13
# relative residual allowed for a Riccati solve, scaled by max(1, |A|_max)
RICCATI_RTOL = 1e-8
# largest condition number of the stable-subspace block U that is inverted
RICCATI_COND_MAX = 1e12


def hermitian_part(x):
    return 0.5 * (x + x.conj().T)


def _require_finite(x, what):
    if not np.isfinite(x).all():
        raise NumericError(f"{what} has a non-finite entry")


def _lhp(lam, *_):
    # zgees passes an eigenvalue, dgees its real and imaginary parts
    return lam.real < 0.0


def _schur(a, stable_first):
    """(T, U, sdim) as `schur` gives them, but from `dgees` when a is real:
    T is then quasi-triangular, and a sorted complex pair counts twice."""
    _require_finite(a, "Schur factorization failed: matrix")
    gees = lapack.zgees if np.iscomplexobj(a) else lapack.dgees
    t, sdim, *_, u, _, info = gees(_lhp, a, sort_t=int(stable_first))
    if info != 0:
        raise NumericError(f"Schur factorization failed: LAPACK {gees.__name__} info {info}")
    return t, u, sdim


def schur(a, stable_first=False):
    """Complex Schur form a = U T U^dagger as (T, U, sdim).

    One direct `zgees` call.  With stable_first the eigenvalues with
    negative real part lead the diagonal of T, and sdim counts them; the
    leading sdim columns of U then span the stable invariant subspace.
    Without it sdim is 0.  Raises NumericError on a non-finite entry or
    a nonzero LAPACK `info`.
    """
    return _schur(np.asarray(a, dtype=complex), stable_first)


def _factored(a, tu):
    """(T, U) of a: the given factorization, or a fresh one."""
    if tu is not None:
        return tu
    t, u, _ = schur(a)
    return t, u


def spectral_abscissa(a):
    """Largest real part of the eigenvalues of a, from its Schur diagonal."""
    return float(schur(a)[0].diagonal().real.max())


def lyap(a, q, rtol=1e-10, schur=None):
    """Solve a X + X a^dagger + q = 0 and verify the residual.

    Bartels-Stewart on the Schur form a = U T U^dagger (passed as
    schur=(T, U), or computed here): one `ztrsyl` call solves
    T Y + Y T^dagger = -U^dagger q U, and X = U Y U^dagger.  The residual
    check is entrywise, relative to |q|_max.
    """
    a = np.asarray(a, dtype=complex)
    q = np.asarray(q, dtype=complex)
    _require_finite(q, "Lyapunov right-hand side")
    t, u = _factored(a, schur)
    y, scale, info = lapack.ztrsyl(t, t, -(u.conj().T @ q @ u), tranb="C")
    if info < 0:
        raise NumericError(f"Lyapunov solve failed: LAPACK ztrsyl info {info}")
    x = (u @ y @ u.conj().T) / scale
    bound = max(float(np.abs(q).max()), 1e-300)
    res = float(np.abs(a @ x + x @ a.conj().T + q).max())
    if not res <= rtol * bound:
        raise NumericError(
            f"Lyapunov solve residual {res:.3e} exceeds {rtol:.0e} x |Q|_max; "
            "the drift is likely too close to instability")
    return x


def _cond_inv(m):
    """(2-norm condition number of m, inverse of m) from one SVD.

    The inverse is None when m is exactly singular.
    """
    try:
        w, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular value decomposition failed: {exc}") from exc
    if not s[-1] > 0.0:
        return math.inf, None
    return float(s[0] / s[-1]), (vh.conj().T / s) @ w.conj().T


def riccati_stabilizing(a, r, q):
    """Stabilizing solution of A^dagger P + P A + P R P + Q = 0.

    Returns (P, residual) with residual the max-entry magnitude of the
    equation evaluated at P.  Raises InfeasibleError when the stable
    invariant subspace does not exist or cannot be inverted, which is
    how an infeasible shift manifests.  With A, R and Q all real the
    Hamiltonian is factored by `dgees` and P is real.
    """
    n = a.shape[0]
    z = np.empty((2 * n, 2 * n), dtype=np.result_type(a, r, q, 1.0))
    z[:n, :n] = a
    z[:n, n:] = r
    np.negative(q, out=z[n:, :n])
    np.negative(a.conj().T, out=z[n:, n:])
    _, vecs, sdim = _schur(z, stable_first=True)
    if sdim != n:
        raise InfeasibleError(
            f"no stabilizing solution: stable subspace has dimension {sdim}, expected {n}")
    cond, u_inv = _cond_inv(vecs[:n, :n])
    if not cond <= RICCATI_COND_MAX:
        raise InfeasibleError("stable subspace is numerically singular; no stabilizing solution")
    p = hermitian_part(vecs[n:, :n] @ u_inv)
    residual = float(np.abs(a.conj().T @ p + p @ a + p @ r @ p + q).max())
    if residual > RICCATI_RTOL * max(1.0, float(np.abs(a).max())):
        raise NumericError(f"Riccati residual {residual:.3e} exceeds tolerance")
    return p, residual


def _project(u, b, c):
    """(U^dagger b, c U): the SISO maps in the Schur basis U."""
    n = u.shape[0]
    b = np.asarray(b, dtype=complex).reshape(n)
    c = np.asarray(c, dtype=complex).reshape(n)
    _require_finite(b, "input map")
    _require_finite(c, "output map")
    return u.conj().T @ b, c @ u


def _eval_schur(t, bt, ct, omegas):
    """ct (i w I - t)^{-1} bt for each w, by back-substitution on triangular t."""
    omegas = np.asarray(omegas, dtype=float).reshape(-1)
    n = t.shape[0]
    poles = t.diagonal()
    diag = 1j * omegas - poles[:, None]
    scale = np.maximum(np.abs(omegas), float(np.abs(poles).max()))
    near = np.abs(diag) <= POLE_RTOL * scale
    if near.any():
        w = omegas[np.argmax(near.any(axis=0))]
        raise NumericError(f"frequency {float(w)!r} is too close to a pole of the response")
    y = np.empty_like(diag)
    np.divide(bt[n - 1], diag[n - 1], out=y[n - 1])
    for k in range(n - 2, -1, -1):
        np.divide(t[k, k + 1:] @ y[k + 1:] + bt[k], diag[k], out=y[k])
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
    t, u, _ = schur(a)
    return _eval_schur(t, *_project(u, b, c), omegas)


def _jet(t, ct, rhs, w):
    """(H, H', H'') at i w as Python complex numbers, derivatives in w, or
    None where i w is numerically a pole.

    One `ztrsyl` call solves T X - X J = rhs for the Jordan block
    J = [[iw, 1, 0], [0, iw, 1], [0, 0, iw]] and rhs = [b, 0, 0].  The
    columns of X are then -y0, y1 and -y2, with y0 = (iw I - T)^{-1} b
    and y_{k+1} = (iw I - T)^{-1} y_k, so H = c y0, H' = -i c y1 and
    H'' = -2 c y2: three back-substitutions in one call.
    """
    iw = 1j * w
    jordan = np.array((iw, 1.0, 0.0, 0.0, iw, 1.0, 0.0, 0.0, iw), dtype=complex).reshape(3, 3)
    x, scale, info = lapack.ztrsyl(t, jordan, rhs, "N", "N", -1)
    if info != 0:
        return None
    h, m1, m2 = ct.dot(x).tolist()
    return -h / scale, -1j * m1 / scale, 2.0 * m2 / scale


def _climb(t, ct, rhs, w, rel_tol):
    """Largest |H(i w)| met by a guarded Newton ascent on f = |H|^2 from w.

    A step -f'/f'' is taken only where f is concave and its predicted gain
    f'^2 / (-2 f'') exceeds rel_tol x f, and kept only if f grows; the
    first step that fails either test ends the climb, so where w is
    already a peak the climb costs one `_jet`.  Every value returned is
    attained; the climb proves nothing about the global peak, which is
    the Hamiltonian test's job.
    """
    jet = _jet(t, ct, rhs, w)
    if jet is None:
        return 0.0
    h, d1, d2 = jet
    f = abs(h) ** 2
    for _ in range(NEWTON_MAX_STEPS):
        slope = 2.0 * (h.conjugate() * d1).real
        curvature = 2.0 * ((h.conjugate() * d2).real + abs(d1) ** 2)
        if not curvature < 0.0:
            break
        step = -slope / curvature
        if not 0.5 * slope * step > rel_tol * f:
            break
        jet = _jet(t, ct, rhs, w + step)
        if jet is None or not abs(jet[0]) ** 2 > f:
            break
        w += step
        h, d1, d2 = jet
        f = abs(h) ** 2
    return math.sqrt(f)


def _hamiltonian_eigs(ham):
    """Eigenvalues of ham by one direct `zgeev` call."""
    eigs, _, _, info = lapack.zgeev(ham, compute_vl=0, compute_vr=0)
    if info != 0:
        raise NumericError(f"Hamiltonian eigensolve failed: LAPACK zgeev info {info}")
    return eigs


# The name predates the level-set method; perfbench/spans.py wraps it by name.
def hinf_bisect(a, b, c, rel_tol=1e-9, schur=None):
    """Supremum over frequency of |C (iw I - A)^{-1} B|, A Hurwitz.

    Level-set iteration (Bruinsma & Steinbuch 1990; Boyd & Balakrishnan
    1990) on one complex Schur factorization of A, which also supplies
    the Hurwitz test and every frequency evaluation, with a Newton climb
    to a local peak before each level-set test (Benner & Mitchell 2018).
    The climb starts from the largest response over w in {0} and the
    imaginary parts of the poles (the magnitude response of a
    complex-coefficient realization is not an even function); each of
    its steps is O(n^2) (`_climb`).  The bound `lower` it reaches is then
    tested at the level g = (1 + rel_tol) x lower: the Hamiltonian
    [[T, b b^dagger / g], [-c^dagger c / g, -T^dagger]] has an
    imaginary-axis eigenvalue i w exactly where |H(i w)| = g.  With no
    such eigenvalue pair, |H| < g at every frequency.  Otherwise the
    climb restarts from the best midpoint between consecutive
    crossings, and the test repeats once the bound passes g; a bound
    that does not pass g means the crossings were tangencies, since
    |H| > g on the whole of any interval between true ones.  Every
    `lower` is an attained response value and every exit follows a
    Hamiltonian test, so the norm lies in [lower, (1 + rel_tol) lower],
    and the value returned, (1 + rel_tol/2) x lower, is within
    rel_tol/2 of it.  One 2n x 2n eigensolve per call is typical, two
    when the climb settles on a lower peak.  A one-pole response
    c b / (iw - a) peaks at w = Im a, so its norm |c b| / |Re a| needs
    no eigensolve; it is scaled by the same 1 + rel_tol/2, so that a
    one-pole response gets the value a larger realization of it would.
    schur=(T, U) supplies the factorization of A when the caller
    already has it.
    """
    t, u = _factored(a, schur)
    bt, ct = _project(u, b, c)
    n = t.shape[0]
    poles = t.diagonal()
    if not float(poles.real.max()) < 0.0:
        raise PreconditionError("H-infinity norm is undefined: drift is not Hurwitz")
    if n == 1:
        return (1.0 + 0.5 * rel_tol) * float(abs(ct[0] * bt[0]) / -poles.real[0])
    starts = np.empty(n + 1)
    starts[0] = 0.0
    starts[1:] = poles.imag
    values = np.abs(_eval_schur(t, bt, ct, starts))
    if not values.any():
        # the numerator has degree below n; vanishing at n further distinct
        # frequencies means the response is identically zero
        starts = float(np.abs(poles).max()) * np.arange(1, n + 1)
        values = np.abs(_eval_schur(t, bt, ct, starts))
        if not values.any():
            return 0.0
    k = int(values.argmax())
    rhs = np.zeros((n, 3), dtype=complex)
    rhs[:, 0] = bt
    lower = max(float(values[k]), _climb(t, ct, rhs, float(starts[k]), rel_tol))
    bb = bt[:, None] * bt.conj()
    cc = ct.conj()[:, None] * ct
    ham = np.empty((2 * n, 2 * n), dtype=complex, order="F")
    ham[:n, :n] = t
    np.negative(t.conj().T, out=ham[n:, n:])
    for _ in range(LEVEL_SET_MAX_ITER):
        level = (1.0 + rel_tol) * lower
        np.multiply(bb, 1.0 / level, out=ham[:n, n:])
        np.multiply(cc, -1.0 / level, out=ham[n:, :n])
        eigs = _hamiltonian_eigs(ham)
        on_axis = np.abs(eigs.real) < AXIS_RTOL * float(np.abs(eigs).max())
        if np.count_nonzero(on_axis) < 2:
            break
        crossings = np.sort(eigs.imag[on_axis])
        mids = 0.5 * (crossings[:-1] + crossings[1:])
        values = np.abs(_eval_schur(t, bt, ct, mids))
        k = int(values.argmax())
        peak = max(float(values[k]), _climb(t, ct, rhs, float(mids[k]), rel_tol))
        lower = max(lower, peak)
        if not peak > level:
            break
    else:
        raise NumericError(
            f"H-infinity level-set iteration did not converge in {LEVEL_SET_MAX_ITER} steps")
    return (1.0 + 0.5 * rel_tol) * lower
