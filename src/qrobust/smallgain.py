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
structured feasible set is empty even though the margin holds.  The
stabilizing solution of the shifted Riccati *equation* is generally not
block-structured: conjugating the equation by Sigma swaps the input
Gram J C^dagger C J with the output-side Gram E^dagger E, so the
symmetrized matrix (P + Sigma P^# Sigma)/2 solves neither equation and
can lose strict negativity when the margin is thin.  certify()
therefore tries three constructions, cheapest first, re-verifying every
candidate against the strict inequality before accepting it:

 1. the shifted equation with symmetrization and shift backtracking
    (the textbook route; accepts the large majority of feasible cases);
 2. a two-channel shifted equation that adds the Sigma-conjugate channel
    B' = -J E^dagger: its coefficients are Sigma-conjugation symmetric,
    so the stabilizing solution is exactly structured and dominates the
    single-channel inequality, at the price of a stronger feasibility
    requirement;
 3. an exact log-barrier solve of the inequality's Schur-complement form,
    a linear matrix inequality in the structured parameterization, for
    the global minimum of its top eigenvalue (route 'eig-opt').  This
    rung is exact, so its failure is not a stalled search: a positive
    dual bound proves that no structured certificate exists at this
    gamma, and InfeasibleError reports it; a minimum within LMI_GAP_TOL
    of zero is reported as not negative.

Every returned certificate records which construction produced it, the
shift used (0 for the shift-free route), the residual of the equation
that was actually solved, and the verified inequality eigenvalue.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

# lyap is unused here, but perfbench/spans.py wraps smallgain.lyap by name
from ._linalg import (hermitian_part, hinf_bisect, lyap, riccati_stabilizing,  # noqa: F401
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
LMI_GAP_TOL = 1e-8         # barrier solve stops once the duality gap (2n+1) mu is this
LMI_MU_START = 1e-2        # barrier weight mu of the first centering
LMI_MU_FACTOR = 0.05       # mu shrinks by this factor after each centering
LMI_CENTER_TOL = 0.25      # a centering ends at this squared Newton decrement
LMI_MAX_STEPS = 1000       # Newton steps over one solve; reaching it is a breakdown


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
    solution; it is None for the shift-free construction, which does not
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


def _structured_basis(n):
    """Real basis of the Hermitian doubled-up class, (2 n^2 + n, 2n, 2n)."""
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
    return np.array(basis, dtype=complex)


def _solve_lmi(plant, gamma):
    """Global minimum of the top eigenvalue of the inequality's Schur form.

    The Schur complement turns the quadratic inequality into the block
    form [[F'P + PF + C'C/g^2, 2PB], [2B'P, -1]] < 0.  Homogenized in
    (P, tau) as S(P, tau) = [[F'P + PF + tau C'C/g^2, 2PB], [2B'P, -tau]]
    and restricted to tr P + tau = 1, it is affine in the real
    coefficients theta of P in the structured basis, and a certificate
    exists iff the minimum of its top eigenvalue is negative (then
    tau > 0 and P / tau is one).  The restriction makes the feasible set
    compact, so the central path stays bounded even where P can grow
    along nearly uncontrollable directions of (F, B) at little cost.

    A primal log-barrier method solves min t subject to S(theta) - tI < 0
    exactly: damped Newton centering on t/mu - log det(tI - S(theta)),
    with mu shrinking from LMI_MU_START by LMI_MU_FACTOR until the
    duality gap (2n+1) mu is at LMI_GAP_TOL.  Near each center the Newton step gives a dual
    point Y with tr Y = 1 and tr(Y dS/dtheta_k) = 0; once it is checked
    positive semidefinite, tr(S(0) Y) is a lower bound on the minimum,
    and when that bound is positive no structured certificate exists at
    this gamma and InfeasibleError reports it.  P > 0 needs no separate
    constraint: the (1,1) block forces F'P + PF < 0, which for Hurwitz F
    is a Lyapunov certificate of positive definiteness.

    The solve runs on the normalized plant F / |F|_2 with gain
    gamma |F|_2, whose inequality is |F|_2^{-2} times the original one
    at P / |F|_2, so it is exactly invariant under time rescaling; the
    certificate |F|_2 P / tau is re-verified on the original plant.
    """
    nf = float(np.linalg.norm(plant.F, 2))
    f = plant.F / nf
    n2 = 2 * plant.n
    basis = _structured_basis(plant.n)
    dim = basis.shape[0]
    # tI - S(theta) = sum_k x_k G_k - a0 over x = (theta, t), with
    # tau = 1 - tr P eliminated
    a0 = np.zeros((n2 + 1, n2 + 1), dtype=complex)
    a0[:n2, :n2] = _inv_gamma_sq(gamma * nf) * (plant.C.conj().T @ plant.C)
    a0[n2, n2] = -1.0
    gens = np.zeros((dim + 1, n2 + 1, n2 + 1), dtype=complex)
    gens[:dim, :n2, :n2] = -(f.conj().T @ basis + basis @ f)
    col = -2.0 * (basis @ plant.B)[:, :, 0]
    gens[:dim, :n2, n2] = col
    gens[:dim, n2, :n2] = col.conj()
    gens[:dim] += np.trace(basis, axis1=1, axis2=2).real[:, None, None] * a0
    gens[dim] = np.eye(n2 + 1)
    flat_gens = gens.reshape(dim + 1, -1)
    gram = (flat_gens.conj() @ flat_gens.T).real  # tr(G_k G_l)

    x = np.zeros(dim + 1)
    x[dim] = float(np.linalg.eigvalsh(a0).max()) + 1.0
    mu = LMI_MU_START
    try:
        for _ in range(LMI_MAX_STEPS):
            z = (x @ flat_gens).reshape(n2 + 1, n2 + 1) - a0
            r_inv = np.linalg.inv(np.linalg.cholesky(z))
            g = r_inv @ gens @ r_inv.conj().T  # congruent generators
            flat = g.reshape(dim + 1, -1).view(float)
            grad = -np.trace(g, axis1=1, axis2=2).real
            grad[dim] += 1.0 / mu
            step = -np.linalg.solve(flat @ flat.T, grad)  # Hessian tr(g_k g_l)
            dec = -float(grad @ step)  # squared Newton decrement
            if not dec >= 0:
                raise NumericError("LMI barrier Hessian is not positive definite")
            if dec > LMI_CENTER_TOL:
                # damped step: stays inside the Dikin ellipsoid, so tI - S stays > 0
                x = x + step / (1.0 + math.sqrt(dec))
                continue
            if x[dim] - (n2 + 1) * mu > 0:
                # Y = mu R^-dagger (I - sum_k step_k g_k) R^-1 meets the dual
                # constraints tr(G_k Y) = [k is t] up to rounding, which the
                # projection onto them removes
                y = mu * (r_inv.conj().T @ (np.eye(n2 + 1) - np.tensordot(step, g, 1)) @ r_inv)
                res = (flat_gens.conj() @ y.reshape(-1)).real
                res[dim] -= 1.0
                y = y - np.tensordot(np.linalg.solve(gram, res), gens, 1)
                lower = float(np.trace(a0 @ y).real)
                if lower > 0 and float(np.linalg.eigvalsh(y).min()) >= 0:
                    raise InfeasibleError(
                        "no structured certificate exists at this gamma: the top eigenvalue "
                        f"of the normalized Schur form is at least {lower:.3e}")
            if mu <= LMI_GAP_TOL / (n2 + 1):
                break
            mu = max(LMI_MU_FACTOR * mu, LMI_GAP_TOL / (n2 + 1))
        else:
            raise NumericError(f"LMI barrier solve did not converge in {LMI_MAX_STEPS} steps")
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"LMI barrier solve failed: {exc}") from exc
    if x[dim] >= 0:
        raise InfeasibleError(
            f"the minimum top eigenvalue of the normalized Schur form, {x[dim]:.3e}, "
            "is not negative")
    p_hat = hermitian_part(np.tensordot(x[:dim], basis, 1))
    p = nf / (1.0 - float(np.trace(p_hat).real)) * p_hat
    return _accept(_certificate(plant, gamma, p, 0.0, "eig-opt", None))


def _qmi_search(plant, gamma):
    """Route ladder; see the module docstring."""
    nf = float(np.linalg.norm(plant.F, 2))
    eps_floor = EPS_FLOOR_FACTOR * nf
    for solver in (solve_qmi, _solve_two_channel):
        eps = EPS_START_FACTOR * nf
        while eps >= eps_floor:
            try:
                return solver(plant, gamma, eps)
            except (InfeasibleError, NumericError):
                eps *= 0.5
    return _solve_lmi(plant, gamma)


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
