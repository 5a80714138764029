"""Structured matrices describing a linear quantum cavity model.

A network of n cavity modes is handled in the doubled-up ordering
x = (a_1 .. a_n, a_1^# .. a_n^#), where a_i are the mode annihilation
operators and ^# is entrywise adjoint.  In this ordering a quadratic
Hamiltonian and a linear field coupling are plain matrices, subject to
one block symmetry: a 2m x 2n matrix X is *doubled-up structured* iff

    Sigma_2m . X^# . Sigma_2n = X,  equivalently  X = [[X1, X2],
                                                       [X2^#, X1^#]],

with Sigma the antidiagonal block permutation [[0, I], [I, 0]] and X^#
the entrywise complex conjugate.  The commutation matrix J = diag(I, -I)
encodes [x, x^dagger] = J.

A model consists of

    M        2n_a x 2n_a   Hermitian structured (Hamiltonian quadratic part)
    N_a      2m  x 2n_a    structured (plant field coupling)
    N_b      2m_b x 2n_b   structured (uncertainty-mode damping)
    E_tilde  1 x 2n_a      complex row; the scalar uncertainty output is
                           z = E_tilde . x

All structural checks are entrywise with relative tolerance 1e-12 scaled
by the largest entry magnitude; inputs are user-supplied doubles, so
exact equality is not meaningful.  The coupling row count m is free
(any m >= 1); block dimensions are read off the matrices themselves.
z is restricted to a scalar (single row), and the scattering matrix is
fixed to the identity and never represented.
"""

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from ._json import dumps, matrix_from_lists
from .errors import DimensionError, ModelError

__all__ = [
    "Constants",
    "QuantumModel",
    "constants",
    "sigma_conjugate",
    "structure_residual",
    "validate_model",
    "model_from_json",
    "model_to_json",
]

STRUCTURE_RTOL = 1e-12


@dataclass(frozen=True)
class Constants:
    """Commutation matrix J = diag(I, -I), block swap Sigma = [[0, I], [I, 0]]
    and quadrature transform T = [[I, I], [-iI, iI]] / sqrt 2 (x -> (q, p)):
    T is unitary, and T X T^dagger is real iff X is structured (T^# = T Sigma)."""

    J: np.ndarray
    Sigma: np.ndarray
    T: np.ndarray


@dataclass
class QuantumModel:
    """A validated model; construct via validate_model or model_from_json."""

    n_a: int
    n_b: int
    M: np.ndarray
    N_a: np.ndarray
    N_b: np.ndarray
    E_tilde: np.ndarray


def constants(n):
    """J, Sigma (exact 0/±1 entries) and T of size 2n x 2n.

    Built once per n and shared: the arrays are read-only, so writing
    into them raises ValueError.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DimensionError(f"mode count must be a positive integer, got {n!r}")
    return _constants(int(n))


@functools.lru_cache(maxsize=64)
def _constants(n):
    J = np.diag(np.repeat([1.0, -1.0], n))
    Sigma = np.roll(np.eye(2 * n), n, axis=1)
    T = np.kron([[1.0, 1.0], [-1j, 1j]], np.eye(n)) / math.sqrt(2.0)
    for x in (J, Sigma, T):
        x.flags.writeable = False
    return Constants(J=J, Sigma=Sigma, T=T)


def _as_complex_matrix(x, name):
    x = np.asarray(x, dtype=complex)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    if x.ndim != 2:
        raise DimensionError(f"{name} must be a matrix, got {x.ndim} dimensions")
    if not np.isfinite(x).all():
        bad = np.argwhere(~np.isfinite(x))[0]
        raise ModelError(f"{name} has a non-finite entry at ({bad[0]}, {bad[1]})")
    return x


def _worst_entry(flat):
    """(row, column) of the first largest entry of a matrix of magnitudes."""
    i, j = np.unravel_index(int(np.argmax(flat)), flat.shape)
    return int(i), int(j)


def sigma_conjugate(x):
    """Sigma_rows . X^# . Sigma_cols (rectangular ok).

    Multiplying by Sigma swaps the two halves of the rows (on the left)
    or of the columns (on the right), so the product is four block copies.
    """
    rows, cols = x.shape
    if rows % 2 or cols % 2:
        raise DimensionError(f"doubled-up matrix must have even dimensions, got {rows}x{cols}")
    h, w = rows // 2, cols // 2
    y = np.empty_like(x)
    y[:h, :w] = x[h:, w:]
    y[:h, w:] = x[h:, :w]
    y[h:, :w] = x[:h, w:]
    y[h:, w:] = x[:h, :w]
    return np.conjugate(y, out=y)


def structure_residual(x, n):
    """Max-entry magnitude of Sigma X^# Sigma - X for a 2n x 2n matrix.

    Zero iff X has the doubled-up block form [[X1, X2], [X2^#, X1^#]].
    """
    x = _as_complex_matrix(x, "X")
    if x.shape != (2 * n, 2 * n):
        raise DimensionError(f"expected a {2*n}x{2*n} matrix, got {x.shape[0]}x{x.shape[1]}")
    return float(np.abs(sigma_conjugate(x) - x).max())


def _check_structured(x, name):
    scale = float(np.abs(x).max()) if x.size else 0.0
    delta = np.abs(sigma_conjugate(x) - x)
    res = delta.max()
    if res > STRUCTURE_RTOL * scale:
        raise ModelError(
            f"{name} breaks the doubled-up block symmetry: "
            f"|Sigma {name}^# Sigma - {name}| has magnitude {res:.3e} at entry "
            f"{_worst_entry(delta)} (tolerance {STRUCTURE_RTOL:.0e} x scale {scale:.3e})")


def validate_model(M, N_a, N_b, E_tilde, n_a=None, n_b=None):
    """Check every structural invariant and return a QuantumModel.

    Rejections carry a distinct diagnostic naming the violated invariant
    and the worst-offending entry.  Deterministic: identical inputs give
    identical accept/reject decisions and messages.
    """
    M = _as_complex_matrix(M, "M")
    N_a = _as_complex_matrix(N_a, "N_a")
    N_b = _as_complex_matrix(N_b, "N_b")
    E_tilde = _as_complex_matrix(E_tilde, "E_tilde")

    if M.shape[0] != M.shape[1] or M.shape[0] % 2:
        raise DimensionError(f"M must be square with even size, got {M.shape[0]}x{M.shape[1]}")
    na = M.shape[0] // 2
    if n_a is not None and n_a != na:
        raise DimensionError(f"declared n_a={n_a} but M is {M.shape[0]}x{M.shape[1]}")
    if N_a.shape[1] != 2 * na or N_a.shape[0] % 2 or N_a.shape[0] < 2:
        raise DimensionError(
            f"N_a must be 2m x {2*na} with m >= 1, got {N_a.shape[0]}x{N_a.shape[1]}")
    if N_b.shape[1] % 2 or N_b.shape[0] % 2 or N_b.shape[0] < 2 or N_b.shape[1] < 2:
        raise DimensionError(f"N_b must have even dimensions, got {N_b.shape[0]}x{N_b.shape[1]}")
    nb = N_b.shape[1] // 2
    if n_b is not None and n_b != nb:
        raise DimensionError(f"declared n_b={n_b} but N_b has {N_b.shape[1]} columns")
    if E_tilde.shape != (1, 2 * na):
        raise DimensionError(
            f"E_tilde must be a single row of length {2*na} (z is scalar), "
            f"got {E_tilde.shape[0]}x{E_tilde.shape[1]}")

    scale = float(np.abs(M).max()) if M.size else 0.0
    herm = np.abs(M - M.conj().T)
    herm_res = herm.max()
    if herm_res > STRUCTURE_RTOL * scale:
        raise ModelError(
            f"M is not Hermitian: |M - M^dagger| has magnitude {herm_res:.3e} at entry "
            f"{_worst_entry(herm)} (tolerance {STRUCTURE_RTOL:.0e} x scale {scale:.3e})")
    _check_structured(M, "M")
    _check_structured(N_a, "N_a")
    _check_structured(N_b, "N_b")

    return QuantumModel(n_a=na, n_b=nb, M=M, N_a=N_a, N_b=N_b, E_tilde=E_tilde)


_MODEL_FIELDS = ("n_a", "n_b", "M", "N_a", "N_b", "E_tilde")


def model_from_json(text):
    """Parse a strict model file; see module docstring for the layout.

    Unknown fields are rejected; complex entries must be [re, im] pairs.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(
            f"model file is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ModelError("model file must contain a JSON object")
    unknown = sorted(set(raw) - set(_MODEL_FIELDS))
    if unknown:
        raise ModelError(f"unknown field(s) in model file: {', '.join(unknown)}")
    missing = sorted(set(_MODEL_FIELDS) - set(raw))
    if missing:
        raise ModelError(f"missing field(s) in model file: {', '.join(missing)}")
    for key in ("n_a", "n_b"):
        if not isinstance(raw[key], int) or isinstance(raw[key], bool) or raw[key] < 1:
            raise ModelError(f"{key} must be a positive integer")
    mats = {key: matrix_from_lists(raw[key], key) for key in ("M", "N_a", "N_b", "E_tilde")}
    return validate_model(mats["M"], mats["N_a"], mats["N_b"], mats["E_tilde"],
                          n_a=raw["n_a"], n_b=raw["n_b"])


def model_to_json(model):
    return dumps({
        "n_a": model.n_a,
        "n_b": model.n_b,
        "M": model.M,
        "N_a": model.N_a,
        "N_b": model.N_b,
        "E_tilde": model.E_tilde,
    }) + "\n"
