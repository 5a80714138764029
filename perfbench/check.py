"""Independent output checks for the benchmark.

Nothing here calls the certification pipeline.  The plant (F, B, C) is
rebuilt from the model matrices with the formulas of the model format,
the H-infinity norm comes from a dense frequency grid refined around
its peaks, certificates are re-verified from their entries, and moment
trajectories are compared with the closed form

    X(t) = e^{At} (X0 - X_inf) e^{A^dagger t} + X_inf.

Every check returns a list of failure kinds; an empty list means the
output passed.  The checks run outside the timed window.
"""

import math

import numpy as np
import scipy.linalg as sla

HINF_RTOL = 1e-4       # reported H-infinity norm against the grid oracle
GAMMA_RTOL = 1e-6      # reported gain bound against the generator's value
CERT_RTOL = 1e-10      # Hermitian and block-structure residuals of P
TRAJ_RTOL = 1e-6       # moment trajectory against the closed form and the RK4 recurrence
# against the RK4 recurrence where its step is unstable: roundoff seeds the
# growing modes, so two exact implementations differ by more than TRAJ_RTOL
RK4_UNSTABLE_RTOL = 1e-3
AXIS_TOL = 1e-8        # the program's absolute Hamiltonian axis tolerance
# what integrate_moments documents: step 0.01 / |spectral abscissa|, stop
# (diverged) past 1e12, and a plant diagonal that must stay real and >= 0
RK4_STEP_FACTOR = 0.01
DIVERGENCE_LIMIT = 1e12
DIAG_TOL = 1e-10
# tolerances of `qrobust fockcheck`, per identity kind
FOCK_TOL = {"ccr": 1e-12, "double_commutator": 1e-8, "quadratic": 1e-8,
            "decomposition": 1e-7}


def doubled(n):
    """J = diag(I, -I) and Sigma = [[0, I], [I, 0]] of size 2n."""
    eye, zero = np.eye(n), np.zeros((n, n))
    return np.block([[eye, zero], [zero, -eye]]), np.block([[zero, eye], [eye, zero]])


def plant(m, n_a, e):
    """F = -i J M - J N_a^dagger J N_a / 2, B = J Sigma E^T, C = E^# Sigma."""
    n = m.shape[0] // 2
    j, sigma = doubled(n)
    jm, _ = doubled(n_a.shape[0] // 2)
    f = -1j * j @ m - 0.5 * j @ n_a.conj().T @ jm @ n_a
    return f, j @ sigma @ e.T, e.conj() @ sigma


def _response(f, b, c):
    """w -> C (iwI - F)^{-1} B for an array of w, shape (len(w), p, m)."""
    lam, v = np.linalg.eig(f)
    if np.linalg.cond(v) < 1e8:
        cv, vb = c @ v, np.linalg.solve(v, b)
        return lambda w: np.einsum("pk,wk,km->wpm", cv,
                                   1.0 / (1j * w[:, None] - lam[None, :]), vb), lam
    eye = np.eye(f.shape[0])
    return lambda w: c @ np.linalg.solve(1j * w[:, None, None] * eye - f, b), lam


def peak_gain(f, b, c, points=2000):
    """sup over real w of the largest singular value of C (iwI - F)^{-1} B.

    A log grid over [1e-4, 1e4] x |F|_2 on both signs, plus w = 0 and the
    imaginary parts of the poles, locates the peaks; the three largest
    local maxima are then refined by five rounds of a 33-point zoom,
    each shrinking the bracket 16-fold.
    """
    resp, lam = _response(f, b, c)

    def gain(w):
        h = resp(w)
        if h.shape[1:] == (1, 1):
            return np.abs(h[:, 0, 0])
        if h.shape[1:] == (2, 2):  # closed-form top singular value
            fro = (np.abs(h) ** 2).sum(axis=(1, 2))
            det = np.abs(h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]) ** 2
            return np.sqrt(0.5 * (fro + np.sqrt(np.maximum(fro ** 2 - 4.0 * det, 0.0))))
        return np.linalg.svd(h, compute_uv=False)[:, 0]

    scale = max(float(np.linalg.norm(f, 2)), 1e-12)
    mags = np.geomspace(1e-4 * scale, 1e4 * scale, points)
    grid = np.unique(np.concatenate([-mags, [0.0], mags, lam.imag]))
    vals = gain(grid)
    inner = np.flatnonzero((vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:])) + 1
    best = float(vals.max())
    for k in inner[np.argsort(vals[inner])[-3:]]:
        lo, hi = grid[k - 1], grid[k + 1]
        for _ in range(5):
            w = np.linspace(lo, hi, 33)
            v = gain(w)
            j = int(np.argmax(v))
            best = max(best, float(v[j]))
            lo, hi = w[max(j - 1, 0)], w[min(j + 1, 32)]
    return best


def certificate_failures(f, b, c, gamma, p):
    """Re-verify a certificate P: Hermitian, Sigma-structured, P > 0, QMI < 0.

    The inequality F^dagger P + P F + 4 P B B^dagger P + C^dagger C / gamma^2
    is formed here from the caller's F, B and C.
    """
    fails = []
    n = p.shape[0] // 2
    _, sigma = doubled(n)
    pmax = max(float(np.abs(p).max()), 1e-300)
    if float(np.abs(p - p.conj().T).max()) > CERT_RTOL * pmax:
        fails.append("certificate-not-hermitian")
    if float(np.abs(sigma @ p.conj() @ sigma - p).max()) > CERT_RTOL * pmax:
        fails.append("certificate-not-structured")
    ph = 0.5 * (p + p.conj().T)
    if float(np.linalg.eigvalsh(ph).min()) <= 0.0:
        fails.append("certificate-not-positive")
    ig2 = 0.0 if math.isinf(gamma) else 1.0 / gamma ** 2
    lhs = f.conj().T @ ph + ph @ f + 4.0 * ph @ b @ b.conj().T @ ph + ig2 * (c.conj().T @ c)
    if float(np.linalg.eigvalsh(0.5 * (lhs + lhs.conj().T)).max()) >= 0.0:
        fails.append("certificate-qmi-not-negative")
    return fails


def certify_failures(rep, truth):
    """Check one certification outcome against the benchmark's own truth.

    rep holds verdict, hinf, gamma, ms_bound, P (array or None) and
    optionally exit_code; truth holds F, B, C, gamma, hinf (grid oracle,
    None when not Hurwitz), ms_value (None when not computed) and
    whether a certificate matrix is expected in the output.
    Returns (failure kinds, bound ratio or None).
    """
    fails = []
    verdict = rep["verdict"]
    h = truth["hinf"]
    if h is None:
        if verdict != "not-hurwitz":
            fails.append("verdict-mismatch")
    elif verdict == "not-hurwitz":
        fails.append("verdict-mismatch")
    else:
        if abs(rep["hinf"] - h) > HINF_RTOL * h:
            fails.append("hinf-oracle-mismatch")
        half = 0.5 * rep["gamma"]
        if (verdict == "gain-violated" and h < half * (1 - HINF_RTOL)) or \
                (verdict == "certified" and h > half * (1 + HINF_RTOL)):
            fails.append("verdict-mismatch")
    if abs(rep["gamma"] - truth["gamma"]) > GAMMA_RTOL * truth["gamma"]:
        fails.append("gamma-mismatch")
    if "exit_code" in rep and rep["exit_code"] != (0 if verdict == "certified" else 1):
        fails.append("exit-code-mismatch")
    ratio = None
    if verdict == "certified":
        if truth["expects_P"]:
            if rep["P"] is None:
                fails.append("certificate-missing")
            else:
                fails += certificate_failures(truth["F"], truth["B"], truth["C"],
                                              rep["gamma"], rep["P"])
        bound, ms = rep["ms_bound"], truth["ms_value"]
        if not (bound is not None and math.isfinite(bound) and bound > 0):
            fails.append("bound-missing")
        elif ms is None or not ms <= bound:
            fails.append("bound-violated")
        else:
            ratio = ms / bound
    return fails, ratio


def fock_failures(kind, result):
    """Residuals of one `fockcheck` identity case against the suite's tolerance."""
    if kind == "arbitration":
        factor, expected, tol = result
        return [] if abs(factor - expected) <= tol else ["fock-arbitration-off"]
    if kind == "double_commutator":
        (scalar, formula, off_scalar), factor = result
        formula_res = abs(scalar - factor * formula) / max(1.0, abs(scalar))
        residuals = (off_scalar, formula_res)
    else:
        residuals = np.atleast_1d(result)
    return [] if max(residuals) <= FOCK_TOL[kind] else [f"fock-{kind}-over-tolerance"]


def closed_form_ms(a, d, x0, n_a, t):
    """Plant-sector diagonal sum of X(t) on the grid t, and X at t[-1].

    Z = X - X_inf is propagated exactly between grid points with
    Z <- Phi Z Phi^dagger, Phi = e^{A h}; the grid is uniform except for
    its last step.
    """
    x_inf = sla.solve_continuous_lyapunov(a, -d)
    z = x0 - x_inf
    out = np.empty(len(t))
    out[0] = np.diagonal(x0)[:2 * n_a].real.sum()
    phi, h_phi = None, None
    for k in range(1, len(t)):
        h = t[k] - t[k - 1]
        if h != h_phi:
            phi, h_phi = sla.expm(a * h), h
        z = phi @ z @ phi.conj().T
        out[k] = (np.diagonal(z)[:2 * n_a].real.sum()
                  + np.diagonal(x_inf)[:2 * n_a].real.sum())
    return out, z + x_inf


def axis_tolerance_miss(f, b, c, reported):
    """Whether `reported` overestimates |H|_inf by no more than AXIS_TOL explains.

    Near a peak set by a lightly damped pole with real part alpha, the
    Hamiltonian at level |H|_inf (1 + eps) has eigenvalues with real parts
    about |alpha| sqrt(2 eps).  A test that takes real parts below AXIS_TOL
    to be on the axis therefore accepts levels up to
    eps = (AXIS_TOL / alpha)^2 / 2 above the norm; twice that is allowed.
    """
    alpha = float(np.linalg.eigvals(f).real.max())
    if not alpha < 0:
        return False
    h = peak_gain(f, b, c)
    return 0.0 <= (reported - h) / h <= (AXIS_TOL / alpha) ** 2 + 1e-8


def rk4_reference(a, d, x0, n_a, horizon):
    """The fixed-step RK4 recurrence `integrate_moments` documents, computed
    independently, with the event that would end it.

    On x = vec(X) (column-major) the moment ODE dX/dt = A X + X A^dagger + D
    is x' = L x + vec(D) with L = I (x) A + conj(A) (x) I, so one RK4 step of
    length h is x <- P x + Q vec(D), P = sum_{k<=4} (hL)^k / k!,
    Q = h sum_{k<=3} (hL)^k / (k+1)!.  The step is 0.01 / |abscissa of A|,
    the last one shortened to end at the horizon.
    Returns (plant-sector diagonal sums, X at the end, event, step gain),
    where event is None, "diverged" or "not-positive" (a plant diagonal
    entry that is not real or is negative, which the program raises on),
    and the step gain is the spectral radius of P: above 1, the step is
    unstable.
    """
    m = a.shape[0]
    dt = RK4_STEP_FACTOR / abs(float(np.linalg.eigvals(a).real.max()))
    steps = int(math.ceil(horizon / dt))
    big = np.kron(np.eye(m), a) + np.kron(a.conj(), np.eye(m))
    vec_d = d.reshape(-1, order="F")

    def step(h):
        hl = h * big
        pw, p, q = np.eye(m * m), np.eye(m * m), h * np.eye(m * m)
        for k in range(1, 5):
            pw = pw @ hl / k
            p = p + pw
            if k < 4:
                q = q + h * pw / (k + 1)
        return p, q @ vec_d

    def plant_sum(xm):
        diag = np.diagonal(xm)[:2 * n_a]
        scale = max(1.0, float(np.abs(xm).max()))
        if float(np.abs(diag.imag).max()) > DIAG_TOL * scale \
                or float(diag.real.min()) < -DIAG_TOL * scale:
            return None
        return float(diag.real.sum())

    x = x0.reshape(-1, order="F").astype(complex)
    ms = [plant_sum(x0)]
    p, q = step(dt)
    gain = float(np.abs(np.linalg.eigvals(p)).max())
    for k in range(steps):
        if k == steps - 1:
            p, q = step(min(dt, horizon - k * dt))
        x = p @ x + q
        xm = x.reshape(m, m, order="F")
        if not np.isfinite(x).all() or float(np.abs(x).max()) > DIVERGENCE_LIMIT:
            return np.array(ms), xm, "diverged", gain
        ms.append(plant_sum(xm))
        if ms[-1] is None:
            return np.array(ms[:-1]), xm, "not-positive", gain
    return np.array(ms), xm, None, gain


def rk4_meets_closed_form(a, d, x0, n_a, horizon, rtol):
    """Whether the RK4 recurrence of `integrate_moments` (see rk4_reference)
    has a stable step, keeps the plant diagonal non-negative, and stays
    within rtol of the closed form at every step and at the end.

    Computed per mode rather than step by step: with A = S diag(lam) S^-1,
    Z = X - X_inf is S (G o K) S^dagger with K = S^-1 Z0 S^-dagger, where
    mode (i, j) has rate mu = lam_i + conj(lam_j), G = e^{mu t} exactly
    and G = R(h mu)^k after k RK4 steps, R(z) = 1 + z + z^2/2 + z^3/6 +
    z^4/24.  X_inf is a fixed point of both.
    """
    lam, s = np.linalg.eig(a)
    dt = RK4_STEP_FACTOR / abs(float(lam.real.max()))
    steps = int(math.ceil(horizon / dt))
    x_inf = sla.solve_continuous_lyapunov(a, -d)
    s_inv = np.linalg.inv(s)
    k0 = s_inv @ (x0 - x_inf) @ s_inv.conj().T
    mu = (lam[:, None] + lam.conj()[None, :]).ravel()
    plant = slice(0, 2 * n_a)
    # w[p, ij] = S_pi conj(S_pj) K_ij: plant diagonal entry p of S (G o K) S^dagger
    w = (s[plant, :, None] * s[plant, None, :].conj() * k0).reshape(2 * n_a, -1)

    def rk4(z):
        return 1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))

    r = rk4(dt * mu)
    if float(np.abs(r).max()) > 1.0:
        return False
    k = np.arange(steps)[:, None]
    last = rk4((horizon - (steps - 1) * dt) * mu)
    g_rk4 = np.vstack([r ** k, r ** (steps - 1) * last])
    g_ref = np.exp(np.vstack([k * dt, [[horizon]]]) * mu)
    diag_rk4 = (g_rk4 @ w.T).real + np.diagonal(x_inf)[plant].real
    diag_ref = (g_ref @ w.T).real + np.diagonal(x_inf)[plant].real
    if float(diag_rk4[1:].min()) < 0.0:
        return False
    ms_rk4, ms_ref = diag_rk4.sum(axis=1), diag_ref.sum(axis=1)
    z_dev = s @ ((g_rk4[-1] - g_ref[-1]).reshape(k0.shape) * k0) @ s.conj().T
    x_ref = s @ (g_ref[-1].reshape(k0.shape) * k0) @ s.conj().T + x_inf
    return max(_rel_dev(ms_rk4, ms_ref), float(np.abs(z_dev).max() / np.abs(x_ref).max())) <= rtol


def trajectory_failures(traj, a, d, x0, n_a, horizon):
    """Compare a moment trajectory with the closed form; returns (fails, rel err).

    A miss of the closed form, or a divergence, is of the kind known at
    baseline ("...-as-rk4") only where the output is what the RK4 recurrence
    itself gives (see rk4_reference); anything else is a plain failure kind.
    """
    if traj.diverged or not np.isfinite(traj.ms_values).all():
        event = rk4_reference(a, d, x0, n_a, horizon)[2]
        return ["trajectory-diverged" + ("-as-rk4" if event == "diverged" else "")], math.inf
    ref, x_end = closed_form_ms(a, d, x0, n_a, np.asarray(traj.t))
    err = max(_rel_dev(traj.ms_values, ref), _rel_dev(traj.X_final, x_end))
    if err <= TRAJ_RTOL:
        return [], err
    ref_ms, ref_x, event, gain = rk4_reference(a, d, x0, n_a, horizon)
    rk4_tol = TRAJ_RTOL if gain <= 1.0 else RK4_UNSTABLE_RTOL
    as_rk4 = (event is None and ref_ms.shape == traj.ms_values.shape
              and max(_rel_dev(traj.ms_values, ref_ms), _rel_dev(traj.X_final, ref_x)) <= rk4_tol)
    return ["trajectory-closed-form-mismatch" + ("-as-rk4" if as_rk4 else "")], err


def _rel_dev(x, ref):
    """Largest deviation of x from ref: pointwise relative for a trajectory
    of scalars, relative to the largest entry for a matrix."""
    if np.ndim(ref) == 1:
        return float(np.max(np.abs(x - ref) / np.abs(ref)))
    return float(np.abs(x - ref).max() / np.abs(ref).max())
