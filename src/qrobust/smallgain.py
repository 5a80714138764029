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
block symmetry P = Sigma P^# Sigma satisfying the strict inequality

    F^dagger P + P F + 4 P B B^dagger P + (1/gamma^2) C^dagger C < 0.

The margin guarantees an unrestricted Hermitian solution (bounded real
lemma), but the structural constraint is a genuine extra requirement:
for some multi-mode plants with generic complex output rows the
structured feasible set is empty even though the margin holds.

The unitary quadrature transform T of model.constants makes the
structure real: T Sigma X^# Sigma T^dagger is the complex conjugate of
T X T^dagger, so for every 2n x 2n matrix X

    T (X + Sigma X^# Sigma) T^dagger = 2 Re(T X T^dagger),

P is structured iff P_r = T P T^dagger is real symmetric, and
F_r = T F T^dagger is real because F is Sigma-invariant.  certify()
makes two attempts:

 1. a fast path (solve_qmi, route 'two-channel-are'): the shifted
    Riccati equation at eps = EPS_START_FACTOR |F|_2 with B B^dagger and
    C^dagger C replaced by their Sigma-sums X + Sigma X^# Sigma.  With
    b_r = T B and c_r = C T^dagger it is the real equation

        F_r^T P_r + P_r F_r + P_r R_r P_r + Q_r = 0,
        R_r = 8 Re(b_r b_r^dagger),  Q_r = 2 Re(c_r^dagger c_r) / gamma^2 + eps I,

    so P = T^dagger P_r T is structured, and since the Sigma-sum of a
    positive semidefinite X dominates X, P satisfies the strict
    inequality with margin at least eps.  The sums add the
    Sigma-conjugate channel (-J E^dagger, E), so solvability takes more
    than the margin;
 2. an exact log-barrier solve of the inequality's Schur-complement form,
    a linear matrix inequality over the real symmetric P_r, for the
    global minimum of its top eigenvalue (route 'eig-opt').  This
    attempt is exact, so its failure is not a stalled search: a
    positive dual bound proves that no structured certificate exists at
    this gamma, and InfeasibleError reports it; a minimum within
    LMI_GAP_TOL of zero is reported as not negative.

Every returned certificate records which construction produced it, the
shift used (0 for the shift-free route), the residual of the equation
that was actually solved, and the verified inequality eigenvalue.
"""

import math
from dataclasses import dataclass

import numpy as np

# lyap is unused here, but perfbench/spans.py wraps smallgain.lyap by name
from ._linalg import (hermitian_part, hinf_bisect, lyap, riccati_stabilizing,  # noqa: F401
                      schur)
from .errors import (DimensionError, InfeasibleError, NumericError,
                     PreconditionError)
from .model import constants, sigma_conjugate

__all__ = [
    "PlantMatrices",
    "StructuredP",
    "CertificationReport",
    "COMM_FACTOR",
    "compute_F",
    "is_hurwitz",
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

HURWITZ_MARGIN_TOL = 1e-9  # strict inequality needs a witness: abscissa < -1e-9 |lambda|_max
EPS_START_FACTOR = 1e-2    # the Riccati attempt shifts by eps = 1e-2 |F|_2
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


@dataclass(kw_only=True)
class CertificationReport:
    verdict: str                    # 'certified' | 'gain-violated' | 'not-hurwitz'
    hurwitz: bool
    spectral_abscissa: float
    hinf: float | None = None       # None when F is not Hurwitz
    gamma: float
    margin: float | None = None     # gamma/2 - hinf
    delta1: float
    delta2: float
    P: StructuredP | None = None    # present iff certified, as are the rest
    comm_constant: complex | None = None
    noise_trace: float | None = None
    qmi_slack: float | None = None
    ms_bound: float | None = None


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


def _hurwitz(t, margin_tol):
    """is_hurwitz on the Schur form T of the drift."""
    poles = t.diagonal()
    abscissa = float(poles.real.max())
    return abscissa < -margin_tol * float(np.abs(poles).max()), abscissa


def is_hurwitz(f, margin_tol=HURWITZ_MARGIN_TOL):
    """(all eigenvalues strictly left of -margin_tol |lambda|_max, spectral abscissa).

    The margin is relative to the largest eigenvalue modulus, so the test
    does not depend on the time unit.
    """
    f = np.asarray(f, dtype=complex)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise DimensionError("drift matrix must be square")
    return _hurwitz(schur(f)[0], margin_tol)


def hinf_norm(plant, rel_tol=1e-9, schur=None):
    """||H||_inf by the Hamiltonian level-set method, within rel_tol.

    schur=(T, U) passes on a Schur factorization of the drift already
    computed.  Raises PreconditionError when the drift is not Hurwitz.
    """
    return hinf_bisect(plant.F, plant.B, plant.C, rel_tol=rel_tol, schur=schur)


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


def _structure_symmetrize(p):
    return hermitian_part(0.5 * (p + sigma_conjugate(p)))


def _certificate(plant, gamma, p, eps, route, are_residual):
    struct_res = float(np.abs(sigma_conjugate(p) - p).max())
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
    """Structured certificate from the Sigma-summed Riccati equation at one shift.

    Solves the real equation of the module docstring by the
    invariant-subspace method and re-verifies P = T^dagger P_r T against
    the strict inequality without the shift.  By the Sigma-average
    identity, R_r and Q_r are T R T^dagger and T Q T^dagger for
    R = 4 (B B^dagger + B' B'^dagger), Q = (C^dagger C + E^dagger E) /
    gamma^2 + eps I and B' = -J E^dagger, formed without those complex
    products.  are_residual is the residual riccati_stabilizing reports
    for the real equation.  Raises InfeasibleError when no stabilizing
    solution exists at this shift or P fails the verification; certify()
    then goes on to the exact LMI.
    """
    if eps <= 0:
        raise PreconditionError(f"shift must be positive, got {eps!r}")
    tq = constants(plant.n).T
    tq_h = tq.conj().T
    b_r, c_r = tq @ plant.B, plant.C @ tq_h
    f_r = (tq @ plant.F @ tq_h).real
    r_r = 8.0 * (b_r @ b_r.conj().T).real
    q_r = 2.0 * _inv_gamma_sq(gamma) * (c_r.conj().T @ c_r).real + eps * np.eye(2 * plant.n)
    p_r, residual = riccati_stabilizing(f_r, r_r, q_r)
    p = _structure_symmetrize(tq_h @ p_r @ tq)  # exact up to rounding already
    return _accept(_certificate(plant, gamma, p, eps, "two-channel-are", residual))


def _solve_lmi(plant, gamma):
    """Global minimum of the top eigenvalue of the inequality's Schur form.

    The Schur complement turns the quadratic inequality into the block
    form [[F'P + PF + C'C/g^2, 2PB], [2B'P, -1]] < 0.  Homogenized in
    (P, tau) as S(P, tau) = [[F'P + PF + tau C'C/g^2, 2PB], [2B'P, -tau]]
    and restricted to tr P + tau = 1, it is affine in P, and a certificate
    exists iff the minimum of its top eigenvalue is negative (then
    tau > 0 and P / tau is one).  The restriction makes the feasible set
    compact, so the central path stays bounded even where P can grow
    along nearly uncontrollable directions of (F, B) at little cost.

    P is structured iff P_r = T P T^dagger (T from model.constants) is
    real symmetric, and theta is P_r on and above its diagonal.  The
    unitary congruence by diag(T, 1) turns S into the matrix with (1,1)
    block F_r^T P_r + P_r F_r + tau (C T^dagger)^dagger (C T^dagger)/g^2,
    F_r = T F T^dagger real, and column 2 P_r T B; tr P = tr P_r.  The
    congruence keeps every eigenvalue, and damped Newton steps are
    invariant under the linear change of theta between two real bases
    of the structured class, so iterates, dual point and verdict do not
    depend on the basis in exact arithmetic.

    A primal log-barrier method solves min t subject to S(theta) - tI < 0
    exactly: damped Newton centering on t/mu - log det(tI - S(theta)),
    with mu shrinking from LMI_MU_START by LMI_MU_FACTOR until the
    duality gap (2n+1) mu is at LMI_GAP_TOL.  Near each center the
    Newton step gives a dual point Y with tr Y = 1 and
    tr(Y dS/dtheta_k) = 0; once it is checked positive semidefinite,
    tr(S(0) Y) is a lower bound on the minimum, and when that bound is
    positive no structured certificate exists at this gamma and
    InfeasibleError reports it.  The centering at the last weight starts
    with t within LMI_GAP_TOL / LMI_MU_FACTOR of the minimum, and there
    tI - S(theta) can be singular to working precision: a Cholesky
    factorization fails or the Hessian is indefinite.  The solve then
    ends at the last iterate with tI - S(theta) > 0, as a converged one
    would; at an earlier weight such a breakdown raises NumericError.
    P > 0 needs no separate constraint: the (1,1) block forces
    F'P + PF < 0, which for Hurwitz F is a Lyapunov certificate of
    positive definiteness.

    The solve runs on the normalized plant F / |F|_2 with gain
    gamma |F|_2, whose inequality is |F|_2^{-2} times the original one
    at P / |F|_2, so it is exactly invariant under time rescaling; the
    certificate |F|_2 P / tau, P = T^dagger P_r T made exactly structured,
    is re-verified on the original plant.
    """
    nf = float(np.linalg.norm(plant.F, 2))
    tq = constants(plant.n).T
    tq_h = tq.conj().T
    f_r = (tq @ plant.F @ tq_h).real / nf
    n2 = 2 * plant.n
    rows, cols = np.triu_indices(n2)
    dim = rows.size
    basis = np.zeros((dim, n2, n2))  # svec basis of the real symmetric P_r
    basis[np.arange(dim), rows, cols] = 1.0
    basis[np.arange(dim), cols, rows] = 1.0
    # tI - S(theta) = sum_k x_k G_k - a0 over x = (theta, t), with
    # tau = 1 - tr P_r eliminated
    ct = plant.C @ tq_h
    a0 = np.zeros((n2 + 1, n2 + 1), dtype=complex)
    a0[:n2, :n2] = _inv_gamma_sq(gamma * nf) * (ct.conj().T @ ct)
    a0[n2, n2] = -1.0
    gens = np.zeros((dim + 1, n2 + 1, n2 + 1), dtype=complex)
    gens[:dim, :n2, :n2] = -(f_r.T @ basis + basis @ f_r)
    col = -2.0 * (basis @ (tq @ plant.B))[:, :, 0]
    gens[:dim, :n2, n2] = col
    gens[:dim, n2, :n2] = col.conj()
    gens[:dim] += (rows == cols)[:, None, None] * a0
    gens[dim] = np.eye(n2 + 1)
    flat_gens = gens.reshape(dim + 1, -1)
    gram = (flat_gens.conj() @ flat_gens.T).real  # tr(G_k G_l)

    x = np.zeros(dim + 1)
    x[dim] = float(np.linalg.eigvalsh(a0).max()) + 1.0
    mu, mu_end = LMI_MU_START, LMI_GAP_TOL / (n2 + 1)
    try:
        for _ in range(LMI_MAX_STEPS):
            z = (x @ flat_gens).reshape(n2 + 1, n2 + 1) - a0
            r_inv = np.linalg.inv(np.linalg.cholesky(z))
            last = x  # tI - S(theta) > 0
            g = r_inv @ gens @ r_inv.conj().T  # congruent generators
            flat = g.reshape(dim + 1, -1).view(float)
            grad = -np.trace(g, axis1=1, axis2=2).real
            grad[dim] += 1.0 / mu
            step = -np.linalg.solve(flat @ flat.T, grad)  # Hessian tr(g_k g_l)
            dec = -float(grad @ step)  # squared Newton decrement
            if not dec >= 0:
                raise np.linalg.LinAlgError("barrier Hessian is not positive definite")
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
            if mu <= mu_end:
                break
            mu = max(LMI_MU_FACTOR * mu, mu_end)
        else:
            raise NumericError(f"LMI barrier solve did not converge in {LMI_MAX_STEPS} steps")
    except np.linalg.LinAlgError as exc:
        if mu > mu_end:
            raise NumericError(f"LMI barrier solve failed: {exc}") from exc
    x = last
    if x[dim] >= 0:
        raise InfeasibleError(
            f"the minimum top eigenvalue of the normalized Schur form, {x[dim]:.3e}, "
            "is not negative")
    p_r = np.tensordot(x[:dim], basis, 1)
    p = nf / (1.0 - float(np.trace(p_r))) * _structure_symmetrize(tq_h @ p_r @ tq)
    return _accept(_certificate(plant, gamma, p, 0.0, "eig-opt", None))


def _qmi_search(plant, gamma):
    """The two attempts of the module docstring."""
    eps = EPS_START_FACTOR * float(np.linalg.norm(plant.F, 2))
    try:
        return solve_qmi(plant, gamma, eps)
    except (InfeasibleError, NumericError):
        pass
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
    a posteriori from the matrix P.
    """
    lhs = _qmi_lhs(plant, gamma, np.asarray(p, dtype=complex))
    slack = float(np.linalg.eigvalsh(-lhs).min())
    if slack <= 0:
        raise NumericError(
            f"certificate is inconsistent: inequality slack {slack:.3e} is not positive")
    return slack


def _check_offsets(delta1, delta2):
    if not (0 <= delta1 < math.inf and 0 <= delta2 < math.inf):
        raise PreconditionError(
            f"constraint offsets must be finite and nonnegative, got {delta1!r} and {delta2!r}")


def ms_bound(noise_tr, comm_const, slack, delta1, delta2):
    """Mean-square bound (noise_tr + |comm|^2/4 + delta1 + delta2) / slack.

    Raises PreconditionError when the slack is not finite and positive,
    an offset is not finite and nonnegative, or the bound overflows.
    """
    if not 0 < slack < math.inf:
        raise PreconditionError(f"slack must be finite and positive, got {slack!r}")
    _check_offsets(delta1, delta2)
    comm = abs(comm_const)
    # a product overflows to inf where a float power would raise OverflowError
    numerator = noise_tr + 0.25 * comm * comm + delta1 + delta2
    bound = numerator / slack
    if not bound < math.inf:
        raise PreconditionError(
            f"mean-square bound overflows: numerator {numerator!r} (offsets {delta1!r} "
            f"and {delta2!r}) over slack {slack!r}")
    return bound


def certify(model, gamma=math.inf, delta1=0.0, delta2=0.0):
    """Full certification run; every stage's numbers are recorded.

    gamma = +inf means no gain constraint: the 1/gamma^2 term is exactly
    zero and the margin test passes vacuously.  Failure paths still
    report whatever was computable up to that stage.  One Schur
    factorization of the drift serves the Hurwitz test and the H-infinity
    step; the slack is the certificate's verified -qmi_max_eig.
    """
    _inv_gamma_sq(gamma)  # validates gamma > 0
    _check_offsets(delta1, delta2)
    plant = compute_F(model)
    t, u, _ = schur(plant.F)
    hurwitz, abscissa = _hurwitz(t, HURWITZ_MARGIN_TOL)
    if not hurwitz:
        return CertificationReport(
            verdict="not-hurwitz", hurwitz=False, spectral_abscissa=abscissa,
            gamma=gamma, delta1=delta1, delta2=delta2)
    hinf = hinf_norm(plant, schur=(t, u))
    margin = gamma / 2.0 - hinf
    if not (hinf < gamma / 2.0):
        return CertificationReport(
            verdict="gain-violated", hurwitz=True, spectral_abscissa=abscissa,
            hinf=hinf, gamma=gamma, margin=margin, delta1=delta1, delta2=delta2)
    cert = _qmi_search(plant, gamma)
    mu = comm_constant(cert.P, model.E_tilde)
    lam = noise_trace(cert.P, model.N_a)
    slack = -cert.qmi_max_eig
    bound = ms_bound(lam, mu, slack, delta1, delta2)
    return CertificationReport(
        verdict="certified", hurwitz=True, spectral_abscissa=abscissa,
        hinf=hinf, gamma=gamma, margin=margin, delta1=delta1, delta2=delta2,
        P=cert, comm_constant=mu, noise_trace=lam, qmi_slack=slack,
        ms_bound=bound)
