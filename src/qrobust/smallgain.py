"""Small-gain certification of robust mean-square stability.

Pipeline:  drift extraction -> Hurwitz test -> H-infinity norm of the
scalar uncertainty channel -> structured solution of a strict
Riccati-type matrix inequality -> the constants entering the
mean-square bound.

The plant seen by the uncertainty is the SISO realization

    F = -i J M - (1/2) J N_a^dagger J N_a,
    B = J Sigma E^T,          C = E^# Sigma,
    H(s) = C (sI - F)^{-1} B,

and certification requires F Hurwitz together with ||H||_inf < gamma/2.
A certificate is a positive definite Hermitian P with the doubled-up
block symmetry satisfying the strict inequality

    F^dagger P + P F + 4 P B B^dagger P + (1/gamma^2) C^dagger C < 0.

The margin guarantees an unrestricted Hermitian solution (bounded real
lemma), but the structural constraint is a genuine extra requirement:
for some multi-mode plants with generic complex output rows the
structured feasible set is empty even though the margin holds, so the
solvers below report failure rather than certify.  Finding P when it
does exist is still delicate.  The stabilizing solution of the shifted
Riccati *equation* is generally not block-structured: conjugating the
equation by Sigma swaps the input Gram J C^dagger C J with the
output-side Gram E^dagger E, so the symmetrized matrix
(P + Sigma P^# Sigma)/2 solves neither equation and can lose strict
negativity when the margin is thin.  certify() therefore walks a ladder
of constructions, cheapest first, re-verifying every candidate against
the strict inequality before accepting it:

 1. the shifted equation with symmetrization and shift backtracking
    (the textbook route; accepts the large majority of feasible cases);
 2. a two-channel shifted equation that adds the Sigma-conjugate channel
    B' = -J E^dagger: its coefficients are Sigma-conjugation symmetric,
    so the stabilizing solution is exactly structured and dominates the
    single-channel inequality, at the price of a stronger feasibility
    requirement;
 3. P = p Y with Y the (exactly structured) solution of
    F^dagger Y + Y F = -I and p a one-dimensional convex minimization of
    the inequality's top eigenvalue;
 4. global convex minimization of the top eigenvalue of the inequality's
    Schur-complement form, which is affine in the structured
    parameterization; its failure is evidence of structured
    infeasibility, not of a stalled search.

Every returned certificate records which construction produced it, the
shift used (0 for the shift-free routes), the residual of the equation
that was actually solved, and the verified inequality eigenvalue.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from ._linalg import (hermitian_part, hinf_bisect, lyap, riccati_stabilizing,
                      spectral_abscissa, transfer_scalar)
from .errors import (DimensionError, InfeasibleError, NumericError,
                     PreconditionError)
from .model import constants

__all__ = [
    "PlantMatrices",
    "StructuredP",
    "CertificationReport",
    "COMM_FACTOR",
    "compute_F",
    "is_hurwitz",
    "freq_response",
    "hinf_norm",
    "solve_qmi",
    "comm_constant",
    "noise_trace",
    "qmi_slack",
    "ms_bound",
    "certify",
]

# Factor relating the double commutator [z, [z, V]] to the closed form
# -E Sigma J P^T J E^T.  Fixed repo-wide by the truncated-Fock arbitration
# (qrobust.fockcheck.arbitrate_comm_factor); see that module for the
# independent brute-force check.
COMM_FACTOR = 2.0

HURWITZ_MARGIN_TOL = 1e-9  # strict inequality needs a numerical witness
EPS_START_FACTOR = 1e-2    # shift ladder: eps from 1e-2 |F|_2 ...
EPS_FLOOR_FACTOR = 1e-10   # ... halved down to 1e-10 |F|_2


@dataclass
class PlantMatrices:
    """SISO state-space data of the uncertainty channel."""

    F: np.ndarray  # 2n x 2n drift
    B: np.ndarray  # 2n x 1 input map
    C: np.ndarray  # 1 x 2n output row
    n: int


@dataclass
class StructuredP:
    """A verified certificate for the strict matrix inequality.

    are_residual is the max-entry residual of the Riccati equation the
    producing construction actually solved, evaluated on its own
    solution; it is None for the shift-free constructions, which do not
    solve an equation.  qmi_max_eig is the top eigenvalue of the strict
    inequality left side (no shift) at the returned P and is negative
    for every accepted certificate.
    """

    P: np.ndarray
    eps: float
    route: str
    are_residual: float | None
    structure_residual: float
    min_eig: float
    qmi_max_eig: float


@dataclass
class CertificationReport:
    verdict: str                    # 'certified' | 'gain-violated' | 'not-hurwitz'
    hurwitz: bool
    spectral_abscissa: float
    hinf: float | None              # None when F is not Hurwitz
    gamma: float
    margin: float | None            # gamma/2 - hinf
    delta1: float
    delta2: float
    P: StructuredP | None           # present iff certified
    comm_constant: complex | None
    noise_trace: float | None
    qmi_slack: float | None
    ms_bound: float | None


def compute_F(model):
    """Drift F = -i J M - (1/2) J N_a^dagger J N_a plus the channel maps."""
    n = model.n_a
    cn = constants(n)
    m2 = model.N_a.shape[0]
    jm = constants(m2 // 2).J
    f = -1j * cn.J @ model.M - 0.5 * cn.J @ model.N_a.conj().T @ jm @ model.N_a
    b = cn.J @ cn.Sigma @ model.E_tilde.T
    c = model.E_tilde.conj() @ cn.Sigma
    return PlantMatrices(F=f, B=b, C=c, n=n)


def is_hurwitz(f, margin_tol=HURWITZ_MARGIN_TOL):
    """(all eigenvalues strictly left of -margin_tol, spectral abscissa)."""
    f = np.asarray(f, dtype=complex)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise DimensionError("drift matrix must be square")
    abscissa = spectral_abscissa(f)
    return abscissa < -margin_tol, abscissa


def freq_response(plant, omega):
    """H(i omega) = C (i omega I - F)^{-1} B as a complex scalar (see transfer_scalar)."""
    return complex(transfer_scalar(plant.F, plant.B, plant.C, [float(omega)])[0])


def hinf_norm(plant, rel_tol=1e-9):
    """||H||_inf by the Hamiltonian level-set method, within rel_tol.

    Raises PreconditionError when the drift is not Hurwitz.
    """
    return hinf_bisect(plant.F, plant.B, plant.C, rel_tol=rel_tol)


def _inv_gamma_sq(gamma):
    if not (gamma > 0):
        raise PreconditionError(f"gamma must be positive, got {gamma!r}")
    return 0.0 if math.isinf(gamma) else 1.0 / (gamma * gamma)


def _qmi_lhs(plant, gamma, p):
    ig2 = _inv_gamma_sq(gamma)
    return hermitian_part(
        plant.F.conj().T @ p + p @ plant.F
        + 4.0 * p @ plant.B @ plant.B.conj().T @ p
        + ig2 * (plant.C.conj().T @ plant.C))


def _structure_symmetrize(p, sigma):
    return hermitian_part(0.5 * (p + sigma @ p.conj() @ sigma))


def _certificate(plant, gamma, p, eps, route, are_residual):
    sigma = constants(plant.n).Sigma
    struct_res = float(np.abs(sigma @ p.conj() @ sigma - p).max())
    min_eig = float(np.linalg.eigvalsh(p).min())
    qmi_max = float(np.linalg.eigvalsh(_qmi_lhs(plant, gamma, p)).max())
    return StructuredP(P=p, eps=eps, route=route, are_residual=are_residual,
                       structure_residual=struct_res, min_eig=min_eig,
                       qmi_max_eig=qmi_max)


def _accept(cert):
    if cert.min_eig <= 0:
        raise InfeasibleError(
            f"certificate is not positive definite (min eigenvalue {cert.min_eig:.3e})")
    if cert.qmi_max_eig >= 0:
        raise InfeasibleError(
            f"strict inequality fails after structuring (top eigenvalue {cert.qmi_max_eig:.3e})")
    return cert


def solve_qmi(plant, gamma, eps):
    """Structured certificate from the shifted Riccati equation at one shift.

    Solves F^dagger P + P F + 4 P B B^dagger P + C^dagger C / gamma^2
    + eps I = 0 by the invariant-subspace method, symmetrizes the result
    into the doubled-up class, and re-verifies the strict inequality
    without the shift.  Raises InfeasibleError when no stabilizing
    solution exists at this shift or the symmetrized matrix fails the
    verification; callers back the shift off and retry.
    """
    if eps <= 0:
        raise PreconditionError(f"shift must be positive, got {eps!r}")
    n2 = plant.F.shape[0]
    r = 4.0 * plant.B @ plant.B.conj().T
    q = _inv_gamma_sq(gamma) * (plant.C.conj().T @ plant.C) + eps * np.eye(n2)
    p_raw, residual = riccati_stabilizing(plant.F, r, q)
    p = _structure_symmetrize(p_raw, constants(plant.n).Sigma)
    return _accept(_certificate(plant, gamma, p, eps, "shifted-are", residual))


def _solve_two_channel(plant, gamma, eps):
    """Structured certificate from the channel + Sigma-conjugate channel.

    With B' = -J E^dagger the coefficient matrices 4(B B^dagger +
    B' B'^dagger) and (C^dagger C + E^dagger E)/gamma^2 + eps I are both
    invariant under Sigma-conjugation, so the stabilizing solution is
    itself structured (by uniqueness) and satisfies the single-channel
    inequality with margin at least eps.  Feasibility is stronger than
    the certification condition, hence this is a fallback, not the
    primary route.
    """
    cn = constants(plant.n)
    e = plant.C.conj() @ cn.Sigma  # recover the output row E
    b2 = -cn.J @ e.conj().T
    r = 4.0 * (plant.B @ plant.B.conj().T + b2 @ b2.conj().T)
    q = (_inv_gamma_sq(gamma) * (plant.C.conj().T @ plant.C + e.conj().T @ e)
         + eps * np.eye(2 * plant.n))
    p_raw, residual = riccati_stabilizing(plant.F, r, q)
    p = _structure_symmetrize(p_raw, cn.Sigma)  # exact up to rounding already
    return _accept(_certificate(plant, gamma, p, eps, "two-channel-are", residual))


def _solve_scaled_lyapunov(plant, gamma):
    """Certificate p Y with F^dagger Y + Y F = -I and a 1-D eigenvalue search.

    The Lyapunov solution is exactly structured (conjugating the
    equation by Sigma reproduces it, and the solution is unique), and
    the inequality's top eigenvalue is convex in the scale p.
    """
    cn = constants(plant.n)
    y = _structure_symmetrize(lyap(plant.F.conj().T, np.eye(2 * plant.n)), cn.Sigma)
    if float(np.linalg.eigvalsh(y).min()) <= 0:
        raise InfeasibleError("Lyapunov scaling base is not positive definite")

    def top_eig(log_p):
        p = math.exp(log_p) * y
        return float(np.linalg.eigvalsh(_qmi_lhs(plant, gamma, p)).max())

    res = minimize_scalar(top_eig, bounds=(-40.0, 40.0), method="bounded",
                          options={"xatol": 1e-12})
    p = math.exp(res.x) * y
    return _accept(_certificate(plant, gamma, p, 0.0, "scaled-lyapunov", None))


def _structured_basis(n):
    """Real basis of the Hermitian doubled-up class (dimension 2 n^2 + n)."""
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
    return basis


def _solve_eig_opt(plant, gamma, starts):
    """Last resort: global minimization of the inequality's top eigenvalue.

    The Schur complement turns the quadratic inequality into the affine
    block form [[F'P + PF + C'C/g^2, 2PB], [2B'P, -I]] < 0, so the top
    eigenvalue is convex in the structured coefficients and a smoothed
    (log-sum-exp) gradient descent with decreasing temperature reaches
    the global minimum.  A positive minimum therefore means no
    structured certificate exists at this gamma, which does happen for
    some multi-mode plants even with a positive margin.  P > 0 needs no
    separate constraint: the (1,1) block forces F'P + PF < 0, which for
    Hurwitz F is a Lyapunov certificate of positive definiteness.
    """
    n2 = 2 * plant.n
    basis = _structured_basis(plant.n)
    dim = len(basis)

    a0 = np.zeros((n2 + 1, n2 + 1), dtype=complex)
    a0[:n2, :n2] = _inv_gamma_sq(gamma) * (plant.C.conj().T @ plant.C)
    a0[n2, n2] = -1.0
    blocks = np.zeros((dim, n2 + 1, n2 + 1), dtype=complex)
    for k, e in enumerate(basis):
        blocks[k, :n2, :n2] = plant.F.conj().T @ e + e @ plant.F
        col = 2.0 * (e @ plant.B)[:, 0]
        blocks[k, :n2, n2] = col
        blocks[k, n2, :n2] = col.conj()

    def unpack(theta):
        p = np.zeros((n2, n2), dtype=complex)
        for coeff, mat in zip(theta, basis):
            p = p + coeff * mat
        return p

    def smoothed(theta, tau):
        s = a0 + np.tensordot(theta, blocks, axes=1)
        lam, vec = np.linalg.eigh(s)
        shifted = np.exp((lam - lam[-1]) / tau)
        f = float(lam[-1]) + tau * math.log(float(shifted.sum()))
        weights = shifted / shifted.sum()
        w = (vec * weights) @ vec.conj().T
        grad = np.real(np.einsum("ij,kji->k", w, blocks))
        return f, grad

    # the basis is Frobenius-orthogonal, so projection is coefficient-wise
    thetas = [np.array([np.vdot(g, p0).real / np.vdot(g, g).real for g in basis])
              for p0 in starts]
    identity_start = np.zeros(dim)
    identity_start[:plant.n] = 1.0
    thetas.append(identity_start)
    thetas.append(np.zeros(dim))

    tau_scale = max(1.0, float(np.abs(a0).max()), float(np.abs(blocks).max()))
    taus = tau_scale * np.geomspace(1.0, 1e-8, 14)

    best = None
    for theta0 in thetas:
        theta = theta0
        for tau in taus:
            res = minimize(smoothed, theta, args=(float(tau),), jac=True,
                           method="L-BFGS-B",
                           options={"maxiter": 3000, "ftol": 1e-18, "gtol": 1e-14})
            theta = res.x
        try:
            cert = _accept(_certificate(plant, gamma, hermitian_part(unpack(theta)),
                                        0.0, "eig-opt", None))
        except InfeasibleError:
            continue
        if best is None or cert.qmi_max_eig < best.qmi_max_eig:
            best = cert
    if best is None:
        raise InfeasibleError("no structured certificate found by direct minimization")
    return best


def _qmi_search(plant, gamma):
    """Route ladder; see the module docstring."""
    nf = float(np.linalg.norm(plant.F, 2))
    eps_floor = EPS_FLOOR_FACTOR * nf
    starts = []
    for solver in (solve_qmi, _solve_two_channel):
        eps = EPS_START_FACTOR * nf
        while eps >= eps_floor:
            try:
                return solver(plant, gamma, eps)
            except InfeasibleError:
                eps *= 0.5
            except NumericError:
                eps *= 0.5
    try:
        cert = _solve_scaled_lyapunov(plant, gamma)
        return cert
    except (InfeasibleError, NumericError):
        pass
    try:
        y = lyap(plant.F.conj().T, np.eye(2 * plant.n))
        for scale in (1.0, 0.1, 10.0):
            starts.append(scale * y / max(float(np.abs(y).max()), 1e-12))
    except NumericError:
        pass
    return _solve_eig_opt(plant, gamma, starts)


def comm_constant(p, e_tilde):
    """Double commutator [z, [z, V]] of the output z = E x against V = x^dagger P x.

    A constant (scalar) for any structured Hermitian P; equal to
    COMM_FACTOR * (-E Sigma J P^T J E^T).  The transpose matters for
    complex P: [z, V] = 2 E J P x and [z, x] = -J Sigma E^T, so the
    commutator contracts P between J-weighted copies of E in transposed
    position.  The truncated-Fock oracle pins the prefactor.
    """
    p = np.asarray(p, dtype=complex)
    e = np.asarray(e_tilde, dtype=complex).reshape(1, -1)
    if p.shape[0] != p.shape[1] or p.shape[0] % 2 or e.shape[1] != p.shape[0]:
        raise DimensionError(
            f"P must be 2n x 2n and E a row of length 2n, got {p.shape} and {e.shape}")
    cn = constants(p.shape[0] // 2)
    return COMM_FACTOR * complex(-(e @ cn.Sigma @ cn.J @ p.T @ cn.J @ e.T)[0, 0])


def noise_trace(p, n_a):
    """tr(P J N_a^dagger diag(I, 0) N_a J): the vacuum-noise injection rate under P.

    Real and nonnegative for Hermitian P >= 0, since the traced product
    is P against a Gram matrix W^dagger W with W = diag(I, 0) N_a J.
    """
    p = np.asarray(p, dtype=complex)
    n_a = np.asarray(n_a, dtype=complex)
    if n_a.ndim != 2 or n_a.shape[1] != p.shape[0] or p.shape[0] != p.shape[1]:
        raise DimensionError(
            f"incompatible shapes: P {p.shape}, N_a {n_a.shape}")
    n = p.shape[0] // 2
    m = n_a.shape[0] // 2
    j = constants(n).J
    sel = np.zeros((2 * m, 2 * m))
    sel[:m, :m] = np.eye(m)
    value = complex(np.trace(p @ j @ n_a.conj().T @ sel @ n_a @ j))
    scale = max(1.0, abs(value))
    if abs(value.imag) > 1e-10 * scale:
        raise NumericError(f"noise trace has imaginary part {value.imag:.3e}; P is not Hermitian")
    if value.real < -1e-10 * scale:
        raise NumericError(f"noise trace is negative ({value.real:.3e}); P is not PSD")
    return max(value.real, 0.0)


def qmi_slack(plant, gamma, p):
    """Smallest eigenvalue of minus the inequality left side at P.

    This is the actual slack the mean-square bound divides by, measured
    a posteriori; the construction shift only guarantees it
    approximately, so a slack at or below the shift is flagged as a
    warning, not an error.
    """
    eps = 0.0
    if isinstance(p, StructuredP):
        eps = p.eps
        p = p.P
    lhs = _qmi_lhs(plant, gamma, np.asarray(p, dtype=complex))
    slack = float(np.linalg.eigvalsh(-lhs).min())
    if slack <= 0:
        raise NumericError(
            f"certificate is inconsistent: inequality slack {slack:.3e} is not positive")
    if eps > 0 and slack <= eps:
        warnings.warn(
            f"inequality slack {slack:.3e} does not exceed the construction shift "
            f"{eps:.3e}; the mean-square bound is valid but conservative",
            RuntimeWarning, stacklevel=2)
    return slack


def ms_bound(noise_tr, comm_const, slack, delta1, delta2):
    """Mean-square bound (noise_tr + |comm|^2/4 + delta1 + delta2) / slack."""
    if slack <= 0:
        raise PreconditionError(f"slack must be positive, got {slack!r}")
    if delta1 < 0 or delta2 < 0:
        raise PreconditionError("constraint offsets must be nonnegative")
    return (noise_tr + 0.25 * abs(comm_const) ** 2 + delta1 + delta2) / slack


def certify(model, gamma=math.inf, delta1=0.0, delta2=0.0, *,
            margin_tol=HURWITZ_MARGIN_TOL, hinf_rel_tol=1e-9):
    """Full certification run; every stage's numbers are recorded.

    gamma = +inf means no gain constraint: the 1/gamma^2 term is exactly
    zero and the margin test passes vacuously.  Failure paths still
    report whatever was computable up to that stage.
    """
    _inv_gamma_sq(gamma)  # validates gamma > 0
    if delta1 < 0 or delta2 < 0:
        raise PreconditionError("constraint offsets must be nonnegative")
    plant = compute_F(model)
    hur, abscissa = is_hurwitz(plant.F, margin_tol)
    if not hur:
        return CertificationReport(
            verdict="not-hurwitz", hurwitz=False, spectral_abscissa=abscissa,
            hinf=None, gamma=gamma, margin=None, delta1=delta1, delta2=delta2,
            P=None, comm_constant=None, noise_trace=None, qmi_slack=None,
            ms_bound=None)
    hinf = hinf_norm(plant, rel_tol=hinf_rel_tol)
    margin = gamma / 2.0 - hinf
    if not (hinf < gamma / 2.0):
        return CertificationReport(
            verdict="gain-violated", hurwitz=True, spectral_abscissa=abscissa,
            hinf=hinf, gamma=gamma, margin=margin, delta1=delta1, delta2=delta2,
            P=None, comm_constant=None, noise_trace=None, qmi_slack=None,
            ms_bound=None)
    cert = _qmi_search(plant, gamma)
    mu = comm_constant(cert.P, model.E_tilde)
    lam = noise_trace(cert.P, model.N_a)
    slack = qmi_slack(plant, gamma, cert)
    bound = ms_bound(lam, mu, slack, delta1, delta2)
    return CertificationReport(
        verdict="certified", hurwitz=True, spectral_abscissa=abscissa,
        hinf=hinf, gamma=gamma, margin=margin, delta1=delta1, delta2=delta2,
        P=cert, comm_constant=mu, noise_trace=lam, qmi_slack=slack,
        ms_bound=bound)
