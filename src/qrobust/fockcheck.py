"""Truncated-Fock-space oracle for the operator identities.

Everything the certification pipeline believes about commutators is
re-derivable by brute force on a truncated Fock space: represent each
mode by an N x N ladder matrix, build the quadratic form V = x^dagger P x
and the output z = E x as matrices, and compare both sides of each
identity entrywise.  Truncation corrupts only matrix elements near the
cutoff, so all comparisons drop the last 4 rows and columns per mode
(the kept products climb at most 2 states above the kept indices, and
entries of a ladder product are exact until an intermediate state
reaches the cutoff).

The checks covered:

  * canonical commutation relations of the truncated ladder matrices;
  * the double commutator [z, [z, V]] is a scalar, and its ratio to the
    closed form -E Sigma J P^T J E^T is a single constant (this is the
    arbitration that pins smallgain.COMM_FACTOR);
  * the three quadratic-form identities used to assemble the generator
    (Hamiltonian commutator, coupling dissipation with its vacuum trace
    term, and the linear commutator [x, V] = 2JPx);
  * the decomposition of [V, S z^k (z^*)^l] into gradient and curvature
    terms for every monomial with k + l <= 3 and b-sector coefficient
    shape S in {I, b, b^dagger, b^dagger b}, formed on one-mode
    matrices since plant and b-sector operators act on different factors.

No check forms an N^2 x N^2 matrix.  The two-mode ladders a (x) I and
I (x) a satisfy [a (x) I, a^dagger (x) I] - I = ([a, a^dagger] - I) (x) I
entrywise and exactly, and commute with each other exactly, so the
two-mode commutation residual is the one-mode residual.  The
decomposition residual is taken from the maxima of its one-mode factors.

All residuals returned are relative (scaled by the larger of 1 and the
magnitude of the quantities compared), so thresholds are plain numbers.
run_suite runs every check on seeded draws and returns the pass/fail
table that `qrobust fockcheck` prints.
"""

import math

import numpy as np

from .errors import (DimensionError, ModelError, NumericError, PreconditionError,
                     ToolkitError)
from .model import constants, structure_residual
from .smallgain import COMM_FACTOR, comm_constant

__all__ = [
    "ladder",
    "COEFF_SHAPES",
    "MONOMIALS",
    "COMM_FACTOR_TOL",
    "check_ccr",
    "check_double_commutator",
    "check_quadratic_identities",
    "check_generator_decomposition",
    "random_hermitian_structured",
    "random_structured_P",
    "random_structured_coupling",
    "arbitrate_comm_factor",
    "run_suite",
]

BOUNDARY_DROP = 4
# b-sector coefficient shapes the decomposition check supports
COEFF_SHAPES = ("I", "b", "b_dag", "b_dag_b")
# every monomial degree pair the decomposition check supports
MONOMIALS = tuple((k, l) for k in range(4) for l in range(4) if k + l <= 3)

COMM_FACTOR_TOL = 1e-8  # spread allowed when arbitrating the constant


def ladder(n):
    """N x N annihilation matrix: entries sqrt(k) on the superdiagonal."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise DimensionError(f"truncation level must be an integer >= 2, got {n!r}")
    return np.diag(np.sqrt(np.arange(1.0, n)), 1).astype(complex)


def _subblock(mat, n, drop=BOUNDARY_DROP):
    """mat on the states kept clear of the cutoff."""
    keep = n - drop
    if keep < 1:
        raise PreconditionError(f"truncation level {n} leaves no interior states")
    return mat[:keep, :keep]


def _comm(x, y):
    return x @ y - y @ x


def _require_drop(n, drop, n_min):
    if n < n_min:
        raise PreconditionError(f"need a truncation level of at least {n_min}, got {n!r}")
    if drop < BOUNDARY_DROP:
        raise PreconditionError(
            f"must drop at least {BOUNDARY_DROP} boundary states, got {drop!r}")
    if n - drop < 2:
        raise PreconditionError(
            f"dropping {drop} of {n} states leaves no interior window")


def _require_structured_p(p):
    p = np.asarray(p, dtype=complex)
    if p.shape != (2, 2):
        raise DimensionError(f"P must be 2x2 (single plant mode), got shape {p.shape}")
    scale = max(float(np.abs(p).max()), 1e-300)
    if float(np.abs(p - p.conj().T).max()) > 1e-12 * scale:
        raise ModelError("P is not Hermitian")
    if structure_residual(p, 1) > 1e-12 * scale:
        raise ModelError("P does not have the doubled-up block symmetry")
    return p


def _require_row(e):
    e = np.asarray(e, dtype=complex).reshape(1, -1)
    if e.shape != (1, 2):
        raise DimensionError(f"E must be a row of length 2, got shape {e.shape}")
    return e


def _quad_form(p, a_op):
    """Matrix of x^dagger P x for x = (a, a^dagger)."""
    xs = (a_op, a_op.conj().T)
    out = np.zeros_like(a_op)
    for i in range(2):
        for j in range(2):
            out = out + p[i, j] * (xs[i].conj().T @ xs[j])
    return out


def _rel_residual(lhs, rhs):
    scale = max(1.0, float(np.abs(lhs).max()), float(np.abs(rhs).max()))
    return float(np.abs(lhs - rhs).max()) / scale


def check_ccr(n_modes, n):
    """Worst commutation-relation residual on the kept subblock.

    [a, a^dagger] = I holds exactly on the first N-1 states of a
    truncated ladder pair (only the corner entry is corrupted).

    The same number serves both mode counts.  The two-mode ladders are
    a (x) I and I (x) a, and [a (x) I, a^dagger (x) I] - I =
    ([a, a^dagger] - I) (x) I holds entrywise and exactly, as does its
    mirror for I (x) a, so on the kept window their residual is the
    one-mode residual.  Each entry of a (x) b is one product, formed in
    either order, so the cross-mode commutators are exactly 0.
    """
    if n_modes not in (1, 2):
        raise DimensionError(f"n_modes must be 1 or 2, got {n_modes!r}")
    if n < 4:
        raise PreconditionError(f"truncation level must be at least 4, got {n!r}")
    a = ladder(n)
    return _rel_residual(_subblock(_comm(a, a.conj().T), n), _subblock(np.eye(n), n))


def check_double_commutator(p, e_tilde, n=30, drop=BOUNDARY_DROP):
    """Brute-force [z, [z, V]] against the closed form.

    Returns (fock_scalar, formula_value, residual): the scalar read off
    the truncated double commutator, the unscaled closed form
    -E Sigma J P^T J E^T, and the relative off-scalar residual (how far
    the truncated matrix is from scalar times identity on the kept
    subblock).  The ratio fock_scalar / formula_value across many P is
    what arbitrate_comm_factor distills into one constant.

    drop sets how many boundary states are excluded; raising it fixes
    the comparison window when different truncation levels are compared
    against each other.
    """
    p = _require_structured_p(p)
    e = _require_row(e_tilde)
    _require_drop(n, drop, 10)
    a = ladder(n)
    z = e[0, 0] * a + e[0, 1] * a.conj().T
    v = _quad_form(p, a)
    sub = _subblock(_comm(z, _comm(z, v)), n, drop)
    keep = sub.shape[0]
    fock_scalar = complex(np.trace(sub) / keep)
    residual = float(np.abs(sub - fock_scalar * np.eye(keep)).max()) \
        / max(1.0, abs(fock_scalar))
    cn = constants(1)
    formula = complex(-(e @ cn.Sigma @ cn.J @ p.T @ cn.J @ e.T)[0, 0])
    return fock_scalar, formula, residual


def check_quadratic_identities(p, m, n_a, n=30, drop=BOUNDARY_DROP):
    """Relative residuals of the three quadratic-form identities.

    1. [V, (1/2) x^dagger M x] = x^dagger (P J M - M J P) x.
    2. For the physical coupling L = (top half of N_a) x,
       (1/2) L^dagger [V, L] + (1/2) [L^dagger, V] L
       = tr(P J N_a^dagger diag(I, 0) N_a J) I
         - (1/2) x^dagger (N_a^dagger J N_a J P + P J N_a^dagger J N_a) x,
       where the left side runs over the physical channels only while
       the right side uses the doubled N_a.
    3. [x, x^dagger P x] = 2 J P x, row by row.
    """
    p = _require_structured_p(p)
    m = np.asarray(m, dtype=complex)
    n_a = np.asarray(n_a, dtype=complex)
    if m.shape != (2, 2):
        raise DimensionError(f"M must be 2x2, got shape {m.shape}")
    if float(np.abs(m - m.conj().T).max()) > 1e-12 * max(float(np.abs(m).max()), 1e-300):
        raise ModelError("M is not Hermitian")
    if n_a.ndim != 2 or n_a.shape[1] != 2 or n_a.shape[0] % 2 or n_a.shape[0] < 2:
        raise DimensionError(f"N_a must be 2m x 2, got shape {n_a.shape}")
    _require_drop(n, drop, 20)
    a = ladder(n)
    cn = constants(1)
    xs = (a, a.conj().T)
    v = _quad_form(p, a)

    lhs1 = _comm(v, 0.5 * _quad_form(m, a))
    rhs1 = _quad_form(p @ cn.J @ m - m @ cn.J @ p, a)
    r1 = _rel_residual(_subblock(lhs1, n, drop), _subblock(rhs1, n, drop))

    mch = n_a.shape[0] // 2
    jm = constants(mch).J
    sel = np.zeros((2 * mch, 2 * mch))
    sel[:mch, :mch] = np.eye(mch)
    lhs2 = np.zeros_like(v)
    for j in range(mch):
        lj = n_a[j, 0] * xs[0] + n_a[j, 1] * xs[1]
        ljd = lj.conj().T
        lhs2 = lhs2 + 0.5 * (ljd @ _comm(v, lj) + _comm(ljd, v) @ lj)
    trace_term = complex(np.trace(p @ cn.J @ n_a.conj().T @ sel @ n_a @ cn.J))
    quad_part = n_a.conj().T @ jm @ n_a @ cn.J @ p + p @ cn.J @ n_a.conj().T @ jm @ n_a
    rhs2 = trace_term * np.eye(v.shape[0]) - 0.5 * _quad_form(quad_part, a)
    r2 = _rel_residual(_subblock(lhs2, n, drop), _subblock(rhs2, n, drop))

    two_jp = 2.0 * cn.J @ p
    r3 = 0.0
    for i in range(2):
        lhs3 = _comm(xs[i], v)
        rhs3 = two_jp[i, 0] * xs[0] + two_jp[i, 1] * xs[1]
        r3 = max(r3, _rel_residual(_subblock(lhs3, n, drop),
                                   _subblock(rhs3, n, drop)))
    return r1, r2, r3


def check_generator_decomposition(k, l, shape, p, e_tilde, n=20, drop=BOUNDARY_DROP):
    """Relative residual of the monomial commutator decomposition.

    For f = S z^k (z^*)^l with S a pure b-sector coefficient,

        [V, f] = k S [V,z] z^{k-1} (z^*)^l
               - l S z^k (z^*)^{l-1} [z^*,V]
               - (1/2) k(k-1) mu S z^{k-2} (z^*)^l
               + (1/2) l(l-1) mu^* S z^k (z^*)^{l-2},

    with mu the arbitrated double-commutator constant.  Note the
    curvature signs: with the commutators placed leftmost/rightmost as
    above, the mu terms enter with these signs (the k = 2 monomial pins
    them, since [V, z^2] = 2[V,z]z - mu follows from mu = [z,[z,V]]).

    Every plant operator is X (x) I and S is I (x) S_b, so both sides are
    (one-mode matrix) (x) S_b, and their kept two-mode blocks are the
    Kronecker products of the kept one-mode blocks.  Every entry of
    kron(X, S_b) is x_ij s_kl, so the maxima of the two sides and of
    their difference are one-mode maxima times max|S_b|, and no
    Kronecker product is formed, so any n >= 16 costs N x N products.
    """
    if not isinstance(k, (int, np.integer)) or not isinstance(l, (int, np.integer)) \
            or k < 0 or l < 0:
        raise PreconditionError(f"monomial degrees must be nonnegative integers, got {k!r}, {l!r}")
    if k + l > 3:
        raise PreconditionError(f"unsupported monomial degree k + l = {k + l}, maximum is 3")
    if shape not in COEFF_SHAPES:
        raise PreconditionError(f"unknown coefficient shape {shape!r}, expected one of {COEFF_SHAPES}")
    _require_drop(n, drop, 16)
    p = _require_structured_p(p)
    e = _require_row(e_tilde)
    a = ladder(n)
    z = e[0, 0] * a + e[0, 1] * a.conj().T
    zs = z.conj().T
    v = _quad_form(p, a)
    s = {
        "I": np.eye(n, dtype=complex),
        "b": a,
        "b_dag": a.conj().T,
        "b_dag_b": a.conj().T @ a,
    }[shape]

    def zz(i, j):
        return np.linalg.matrix_power(z, i) @ np.linalg.matrix_power(zs, j)

    lhs = _comm(v, zz(k, l))
    mu = comm_constant(p, e)
    rhs = np.zeros_like(lhs)
    if k >= 1:
        rhs = rhs + k * (_comm(v, z) @ zz(k - 1, l))
    if l >= 1:
        rhs = rhs - l * (zz(k, l - 1) @ _comm(zs, v))
    if k >= 2:
        rhs = rhs - 0.5 * k * (k - 1) * mu * zz(k - 2, l)
    if l >= 2:
        rhs = rhs + 0.5 * l * (l - 1) * mu.conjugate() * zz(k, l - 2)
    lhs, rhs = _subblock(lhs, n, drop), _subblock(rhs, n, drop)
    s_max = float(np.abs(_subblock(s, n, drop)).max())
    scale = max(1.0, float(np.abs(lhs).max()) * s_max, float(np.abs(rhs).max()) * s_max)
    return float(np.abs(lhs - rhs).max()) * s_max / scale


def random_hermitian_structured(rng, n=1):
    """Random Hermitian matrix with the doubled-up symmetry, entries O(1)."""
    g1 = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
    p1 = 0.5 * (g1 + g1.conj().T)
    g2 = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
    p2 = 0.5 * (g2 + g2.T)
    return np.block([[p1, p2], [p2.conj(), p1.conj()]])


def random_structured_P(rng, n=1):
    """Random positive definite structured Hermitian matrix.

    Shifted by (|min eigenvalue| + 0.1) I, which preserves the block
    symmetry and guarantees strict positivity.
    """
    p = random_hermitian_structured(rng, n)
    shift = abs(float(np.linalg.eigvalsh(p).min())) + 0.1
    return p + shift * np.eye(2 * n)


def random_structured_coupling(rng, m=1, n=1):
    """Random doubled-up coupling matrix (2m x 2n)."""
    top = rng.uniform(-1.0, 1.0, (m, 2 * n)) + 1j * rng.uniform(-1.0, 1.0, (m, 2 * n))
    sigma = constants(n).Sigma
    return np.vstack([top, top.conj() @ sigma])


def arbitrate_comm_factor(trials=50, n=30, seed=0):
    """Measure the constant relating [z, [z, V]] to -E Sigma J P^T J E^T.

    Draws random structured P and random complex output rows E, reads
    off the truncated double commutator, and forms the ratio to the
    unscaled closed form.  All ratios must agree to 1e-8 and be real;
    the common value is returned.  This is the ground truth behind
    smallgain.COMM_FACTOR.
    """
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(trials):
        p = random_structured_P(rng)
        e = rng.uniform(-1.0, 1.0, (1, 2)) + 1j * rng.uniform(-1.0, 1.0, (1, 2))
        fock, formula, residual = check_double_commutator(p, e, n)
        if residual > 1e-8:
            raise NumericError(
                f"double commutator is not a scalar (residual {residual:.3e})")
        if abs(formula) < 1e-6:
            continue  # ratio ill-conditioned for this draw
        ratios.append(fock / formula)
    if len(ratios) < max(2, trials // 2):
        raise NumericError("too few well-conditioned draws to arbitrate the constant")
    ratios = np.array(ratios)
    mean = complex(ratios.mean())
    spread = float(np.abs(ratios - mean).max())
    if spread > COMM_FACTOR_TOL:
        raise NumericError(
            f"double-commutator ratio is not a single constant (spread {spread:.3e}); "
            "the closed form does not match the brute-force value")
    if abs(mean.imag) > COMM_FACTOR_TOL:
        raise NumericError(f"double-commutator ratio is not real ({mean!r})")
    return float(mean.real)


def run_suite(dim, trials, seed):
    """Every check above on draws from default_rng(seed), in a fixed order.

    Returns one (name, count, worst residual, tolerance, passed) row per
    identity.  The two-mode CCR runs at min(dim, 24), the decomposition at
    min(dim, 20) on min(trials, 2) draws, and the arbitration at min(dim, 30).
    """
    if dim < 20:
        raise PreconditionError(f"identity suite needs --dim of at least 20, got {dim}")
    if trials < 1:
        raise PreconditionError(f"--trials must be positive, got {trials}")
    if seed < 0:
        raise PreconditionError(f"--seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    rows = []

    def add(name, count, worst, tol):
        rows.append((name, count, worst, tol, worst <= tol))

    def row():
        return rng.uniform(-1, 1, (1, 2)) + 1j * rng.uniform(-1, 1, (1, 2))

    add("ccr_one_mode", 1, check_ccr(1, dim), 1e-12)
    add("ccr_two_mode", 1, check_ccr(2, min(dim, 24)), 1e-12)

    doubles = [check_double_commutator(random_hermitian_structured(rng), row(), dim)
               for _ in range(trials)]
    add("double_commutator_scalar", trials, max(r for _, _, r in doubles), 1e-8)
    add("double_commutator_formula", trials,
        max(abs(scalar - COMM_FACTOR * formula) / max(1.0, abs(scalar))
            for scalar, formula, _ in doubles), 1e-8)

    quads = [check_quadratic_identities(random_hermitian_structured(rng),
                                        random_hermitian_structured(rng),
                                        random_structured_coupling(rng), dim)
             for _ in range(trials)]
    for i, name in enumerate(("hamiltonian_commutator", "dissipation_term",
                              "state_commutator")):
        add(name, trials, max(r[i] for r in quads), 1e-8)

    decs = []
    for _ in range(min(trials, 2)):
        p, e = random_hermitian_structured(rng), row()
        decs += [check_generator_decomposition(k, l, shape, p, e, min(dim, 20))
                 for k, l in MONOMIALS for shape in COEFF_SHAPES]
    add("generator_decomposition", len(decs), max(decs), 1e-7)

    try:
        deviation = abs(arbitrate_comm_factor(trials=50, n=min(dim, 30), seed=seed)
                        - COMM_FACTOR)
    except ToolkitError:
        deviation = math.inf
    add("comm_factor_arbitration", 50, deviation, COMM_FACTOR_TOL)
    return rows
