"""Truncated-operator oracle: identities that pin every derived constant."""

import numpy as np
import pytest

from qrobust import fockcheck
from qrobust.errors import DimensionError, PreconditionError
from qrobust.fockcheck import (COEFF_SHAPES, MONOMIALS, arbitrate_comm_factor,
                               check_ccr,
                               check_double_commutator,
                               check_generator_decomposition,
                               check_quadratic_identities, ladder,
                               random_hermitian_structured,
                               random_structured_P,
                               random_structured_coupling, run_suite)
from qrobust.smallgain import COMM_FACTOR, comm_constant


def test_ladder_matrix_elements():
    a = ladder(5)
    num = a.conj().T @ a
    assert np.allclose(np.diag(num), [0, 1, 2, 3, 4])
    comm = a @ a.conj().T - num
    assert np.allclose(comm[:4, :4], np.eye(4))


def test_ccr_residuals():
    assert check_ccr(1, 30) <= 1e-12
    assert check_ccr(2, 20) <= 1e-12


def dense_two_mode_ladders(n):
    """a (x) I and I (x) a as dense N^2 x N^2 matrices, from fockcheck.ladder."""
    a, eye = fockcheck.ladder(n), np.eye(n)
    return np.kron(a, eye), np.kron(eye, a)


def dense_ccr_residual(n, drop=4):
    """check_ccr(2, n) formed with dense N^2 x N^2 products."""
    a, b = dense_two_mode_ladders(n)
    keep = n - drop
    idx = (np.arange(keep)[:, None] * n + np.arange(keep)[None, :]).ravel()
    eye = np.eye(idx.size)

    def comm(x, y):
        return x @ y - y @ x

    def rel(c):
        sub = c[np.ix_(idx, idx)]
        return float(np.abs(sub - eye).max()) / max(1.0, float(np.abs(sub).max()))

    worst = max(rel(comm(a, a.conj().T)), rel(comm(b, b.conj().T)))
    for other in (b, b.conj().T):
        worst = max(worst, float(np.abs(comm(a, other)).max()))
    return worst


@pytest.mark.parametrize("n", [5, 16, 20, 24])
def test_two_mode_ccr_equals_the_dense_products(n):
    assert check_ccr(2, n) == dense_ccr_residual(n)


def test_ccr_detects_a_perturbed_ladder(monkeypatch):
    def perturbed(n):
        a = ladder(n)
        a[3, 4] += 1e-6  # inside the kept window of every n >= 9
        return a

    monkeypatch.setattr(fockcheck, "ladder", perturbed)
    assert check_ccr(1, 20) > 1e-8
    assert check_ccr(2, 20) > 1e-8
    assert check_ccr(2, 20) == dense_ccr_residual(20)


def test_two_mode_ccr_equals_the_dense_products_on_a_zero_row(monkeypatch):
    # a ladder along the chain 0 -> 1 -> ... -> 4 -> 6 -> 7 -> ..., which
    # leaves state 5 out: [a, a^dagger] is I on the window except for a
    # zero row 5, where the -1 of the identity meets no commutator entry
    # and alone sets the residual
    def cut(n):
        chain = [k for k in range(n) if k != 5]
        a = np.zeros((n, n), dtype=complex)
        for pos, (i, j) in enumerate(zip(chain, chain[1:])):
            a[i, j] = np.sqrt(pos + 1.0)
        return a

    monkeypatch.setattr(fockcheck, "ladder", cut)
    assert check_ccr(2, 20) == dense_ccr_residual(20) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [8, 16])
def test_two_mode_ccr_equals_the_dense_products_off_the_ladder_pattern(monkeypatch, n):
    # a diagonal puts two nonzero entries in every row of the ladder;
    # the Kronecker identity does not depend on where the entries sit
    def with_diagonal(n):
        return ladder(n) + np.eye(n)

    monkeypatch.setattr(fockcheck, "ladder", with_diagonal)
    assert check_ccr(2, n) == dense_ccr_residual(n)


def test_double_commutator_frozen_values():
    e = np.array([[1.0 + 0.0j, 0.0j]])
    scalar, formula, res = check_double_commutator(
        np.eye(2, dtype=complex), e, 30)
    assert abs(scalar) < 1e-12 and abs(formula) < 1e-12 and res < 1e-12

    p = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    scalar, formula, res = check_double_commutator(p, e, 30)
    assert scalar == pytest.approx(2.0, abs=1e-12)
    assert formula == pytest.approx(1.0, abs=1e-12)
    assert res < 1e-12

    q = 0.3 + 0.4j
    p = np.array([[1.5, q], [np.conj(q), 1.5]])
    scalar, formula, res = check_double_commutator(p, e, 30)
    assert scalar == pytest.approx(2.0 * q, abs=1e-12)
    assert formula == pytest.approx(q, abs=1e-12)


def test_double_commutator_scalar_invariant_in_truncation():
    rng = np.random.default_rng(12)
    p = random_hermitian_structured(rng)
    e = rng.uniform(-1, 1, (1, 2)) + 1j * rng.uniform(-1, 1, (1, 2))
    values = [check_double_commutator(p, e, n)[0] for n in (20, 30, 40)]
    assert abs(values[0] - values[1]) <= 1e-10
    assert abs(values[1] - values[2]) <= 1e-10


def test_residual_monotone_on_fixed_window():
    # identities are exact on the kept window, so enlarging the space
    # while fixing the window cannot add truncation error; only BLAS
    # summation-order roundoff remains
    rng = np.random.default_rng(11)
    for _ in range(5):
        p = random_hermitian_structured(rng)
        e = rng.uniform(-1, 1, (1, 2)) + 1j * rng.uniform(-1, 1, (1, 2))
        m = random_hermitian_structured(rng)
        n_a = random_structured_coupling(rng)
        r_small = check_double_commutator(p, e, 20, drop=4)[2]
        r_big = check_double_commutator(p, e, 40, drop=24)[2]
        assert r_big <= r_small + 1e-14
        q_small = max(check_quadratic_identities(p, m, n_a, 20, drop=4))
        q_big = max(check_quadratic_identities(p, m, n_a, 40, drop=24))
        assert q_big <= q_small + 1e-14


def test_quadratic_identities_random_draws():
    rng = np.random.default_rng(4)
    for _ in range(10):
        p = random_hermitian_structured(rng)
        m = random_hermitian_structured(rng)
        n_a = random_structured_coupling(rng)
        r1, r2, r3 = check_quadratic_identities(p, m, n_a, 30)
        assert r1 <= 1e-8 and r2 <= 1e-8 and r3 <= 1e-8


def test_quadratic_identities_two_channel_coupling():
    rng = np.random.default_rng(6)
    p = random_hermitian_structured(rng)
    m = random_hermitian_structured(rng)
    n_a = random_structured_coupling(rng, m=2)
    r1, r2, r3 = check_quadratic_identities(p, m, n_a, 30)
    assert max(r1, r2, r3) <= 1e-8


def test_generator_decomposition_all_monomials():
    rng = np.random.default_rng(5)
    p = random_hermitian_structured(rng)
    e = rng.uniform(-1, 1, (1, 2)) + 1j * rng.uniform(-1, 1, (1, 2))
    for k, l in MONOMIALS:
        for shape in COEFF_SHAPES:
            assert check_generator_decomposition(k, l, shape, p, e, 16) <= 1e-7


def dense_decomposition_residual(k, l, shape, p, e, n, drop=4):
    """The decomposition identity formed on dense N^2 x N^2 two-mode operators."""
    a, b = dense_two_mode_ladders(n)
    z = e[0, 0] * a + e[0, 1] * a.conj().T
    zs = z.conj().T
    xs = (a, a.conj().T)
    v = sum(p[i, j] * (xs[i].conj().T @ xs[j]) for i in range(2) for j in range(2))
    s = {"I": np.eye(n * n), "b": b, "b_dag": b.conj().T,
         "b_dag_b": b.conj().T @ b}[shape]

    def comm(x, y):
        return x @ y - y @ x

    def zk(j, i):
        return np.linalg.matrix_power(z, j) @ np.linalg.matrix_power(zs, i)

    mu = comm_constant(p, e)
    lhs = comm(v, s @ zk(k, l))
    rhs = np.zeros_like(lhs)
    if k >= 1:
        rhs += k * (s @ comm(v, z) @ zk(k - 1, l))
    if l >= 1:
        rhs -= l * (s @ zk(k, l - 1) @ comm(zs, v))
    if k >= 2:
        rhs -= 0.5 * k * (k - 1) * mu * (s @ zk(k - 2, l))
    if l >= 2:
        rhs += 0.5 * l * (l - 1) * mu.conjugate() * (s @ zk(k, l - 2))
    keep = n - drop
    idx = (np.arange(keep)[:, None] * n + np.arange(keep)[None, :]).ravel()
    lhs, rhs = lhs[np.ix_(idx, idx)], rhs[np.ix_(idx, idx)]
    scale = max(1.0, float(np.abs(lhs).max()), float(np.abs(rhs).max()))
    return float(np.abs(lhs - rhs).max()) / scale


def test_generator_decomposition_matches_dense_two_mode_reference():
    rng = np.random.default_rng(9)
    p = random_hermitian_structured(rng)
    e = rng.uniform(-1, 1, (1, 2)) + 1j * rng.uniform(-1, 1, (1, 2))
    for k, l in ((2, 1), (1, 2)):
        for shape in COEFF_SHAPES:
            dense = dense_decomposition_residual(k, l, shape, p, e, 16)
            one_mode = check_generator_decomposition(k, l, shape, p, e, 16)
            assert abs(one_mode - dense) <= 1e-13


def test_generator_decomposition_degree_zero_is_exact():
    rng = np.random.default_rng(8)
    p = random_hermitian_structured(rng)
    e = rng.uniform(-1, 1, (1, 2)) + 1j * rng.uniform(-1, 1, (1, 2))
    assert check_generator_decomposition(0, 0, "b_dag_b", p, e, 16) == 0.0


def test_generator_decomposition_validation():
    rng = np.random.default_rng(8)
    p = random_hermitian_structured(rng)
    e = np.array([[1.0 + 0.0j, 0.0j]])
    with pytest.raises(PreconditionError):
        check_generator_decomposition(2, 2, "I", p, e, 16)
    with pytest.raises(PreconditionError):
        check_generator_decomposition(1, 0, "nope", p, e, 16)
    with pytest.raises(PreconditionError):
        check_generator_decomposition(1, 0, "I", p, e, 12)
    # no upper cap: the check forms only N x N one-mode matrices
    assert check_generator_decomposition(2, 1, "b_dag_b", p, e, 48) <= 1e-7


def test_structured_p_required():
    from qrobust.errors import ModelError
    e = np.array([[1.0 + 0.0j, 0.0j]])
    bad = np.array([[1.0, 0.5], [0.5, 2.0]], dtype=complex)  # diag breaks symmetry
    with pytest.raises(ModelError):
        check_double_commutator(bad, e, 30)
    with pytest.raises(DimensionError):
        check_double_commutator(np.eye(4, dtype=complex), e, 30)


def test_random_structured_p_is_positive_and_structured():
    from qrobust.model import structure_residual
    rng = np.random.default_rng(14)
    for _ in range(10):
        p = random_structured_P(rng)
        assert float(np.linalg.eigvalsh(p).min()) > 0
        assert structure_residual(p, 1) < 1e-14


def test_arbitrated_factor_matches_repo_constant():
    value = arbitrate_comm_factor(trials=50, n=30, seed=0)
    assert abs(value - COMM_FACTOR) <= 1e-8


# `qrobust fockcheck --dim 20 --trials 1 --seed 3` as printed when every
# check still ran on dense two-mode operators: (name, count, worst, tol);
# the residuals are rounding errors, so another BLAS build may move them
# by a few ulps of 1e-14
CLI_ROWS_20_1_3 = [
    ("ccr_one_mode", 1, 1.7763568394002473e-15, 1e-12),
    ("ccr_two_mode", 1, 1.7763568394002473e-15, 1e-12),
    ("double_commutator_scalar", 1, 4.5550869748145516e-14, 1e-08),
    ("double_commutator_formula", 1, 1.2348325990174009e-15, 1e-08),
    ("hamiltonian_commutator", 1, 1.3749757672812975e-15, 1e-08),
    ("dissipation_term", 1, 1.0174499106594104e-14, 1e-08),
    ("state_commutator", 1, 2.3218410921734436e-15, 1e-08),
    ("generator_decomposition", 40, 8.7719645726832424e-15, 1e-07),
    ("comm_factor_arbitration", 50, 4.4408920985006262e-16, 1e-08),
]


def test_run_suite_reproduces_the_cli_table():
    rows = run_suite(20, 1, 3)
    assert [r[:2] + r[3:] for r in rows] == [
        (name, count, tol, True) for name, count, _, tol in CLI_ROWS_20_1_3]
    for (name, _, worst, _, _), (_, _, expected, _) in zip(rows, CLI_ROWS_20_1_3):
        assert abs(worst - expected) <= 1e-14, name


def test_run_suite_validates_its_arguments():
    with pytest.raises(PreconditionError, match="at least 20"):
        run_suite(19, 1, 0)
    with pytest.raises(PreconditionError, match="positive"):
        run_suite(20, 0, 0)
    with pytest.raises(PreconditionError, match="nonnegative"):
        run_suite(20, 1, -1)
