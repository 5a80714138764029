"""Model container, structure checks, and JSON round trips."""

import numpy as np
import pytest

from qrobust.errors import DimensionError, ModelError
from qrobust.model import (constants, model_from_json, model_to_json,
                           sigma_conjugate, structure_residual, validate_model)


def opa_matrices(chi=0.1, kappa_a=2.0, kappa_b=4.0, bbar=1.0):
    m = np.array([[0.0, -1j * chi * bbar], [1j * chi * np.conj(bbar), 0.0]])
    n_a = np.sqrt(kappa_a) * np.eye(2)
    n_b = np.sqrt(kappa_b) * np.eye(2)
    e_tilde = np.array([[1.0 + 0.0j, 0.0j]])
    return m, n_a, n_b, e_tilde


def test_constants_identities_exact():
    for n in (1, 2, 3):
        cn = constants(n)
        eye = np.eye(2 * n)
        assert np.array_equal(cn.J @ cn.J, eye)
        assert np.array_equal(cn.Sigma @ cn.Sigma, eye)
        assert np.array_equal(cn.Sigma @ cn.J @ cn.Sigma, -cn.J)


def test_quadrature_transform_makes_structured_matrices_real():
    rng = np.random.default_rng(2)
    for n in (1, 2, 5):
        cn = constants(n)
        t = cn.T
        assert np.allclose(t @ t.conj().T, np.eye(2 * n), rtol=0, atol=1e-15)
        assert np.allclose(t.conj(), t @ cn.Sigma, rtol=0, atol=0)
        x = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
        structured = x + sigma_conjugate(x)
        assert np.abs((t @ structured @ t.conj().T).imag).max() <= 1e-14 * np.abs(x).max()
        assert np.abs((t @ x @ t.conj().T).imag).max() > 0.1


def test_structure_residual_examples():
    cn = constants(1)
    assert structure_residual(cn.J, 1) == 2.0
    assert structure_residual(cn.Sigma, 1) == 0.0
    m = opa_matrices()[0]
    assert structure_residual(m, 1) == 0.0


def test_structure_residual_dimension_check():
    with pytest.raises(DimensionError):
        structure_residual(np.eye(3), 1)


def test_validate_model_accepts_opa():
    model = validate_model(*opa_matrices())
    assert model.n_a == 1
    assert model.n_b == 1
    assert model.N_a.shape == (2, 2)
    assert model.E_tilde.shape == (1, 2)


def test_validate_model_infers_block_sizes():
    m, n_a, n_b, e = opa_matrices()
    # m = 2 physical coupling channels on a single mode
    n_a4 = np.vstack([np.array([[1.0, 0.0], [0.5, 0.25]]),
                      np.array([[0.0, 1.0], [0.25, 0.5]])])
    model = validate_model(m, n_a4, n_b, e)
    assert model.N_a.shape == (4, 2)


def test_validate_model_rejects_non_hermitian_m():
    m, n_a, n_b, e = opa_matrices()
    m = m.copy()
    m[0, 1] = 0.3  # breaks Hermiticity against the 0.1j below it
    with pytest.raises(ModelError):
        validate_model(m, n_a, n_b, e)


def test_validate_model_rejects_broken_block_symmetry():
    # Hermitian overall, but the off-diagonal block is not symmetric,
    # which breaks the Sigma-conjugation block form
    a = np.array([[1.0, 0.2], [0.2, 1.0]], dtype=complex)
    b = np.array([[0.0, 0.5], [-0.5, 0.0]], dtype=complex)
    m = np.block([[a, b], [b.conj().T, a.conj()]])
    n_a = np.eye(4)
    n_b = np.eye(2)
    e = np.ones((1, 4), dtype=complex)
    with pytest.raises(ModelError):
        validate_model(m, n_a, n_b, e)


def two_mode_matrices():
    a = np.array([[1.5, 0.2 + 0.1j], [0.2 - 0.1j, -0.5]])
    b = np.array([[0.3, 0.4j], [0.4j, -0.1]])
    m = np.block([[a, b], [b.conj(), a.conj()]])
    return m, 2.0 * np.eye(4, dtype=complex), np.eye(2), np.ones((1, 4))


def test_validate_model_rejection_messages_name_the_worst_entry():
    m, n_a, n_b, e = two_mode_matrices()
    validate_model(m, n_a, n_b, e)
    bad = m.copy()
    bad[3, 1] += 0.25  # |M - M^dagger| ties at (1, 3) and (3, 1): the first is named
    with pytest.raises(ModelError) as info:
        validate_model(bad, n_a, n_b, e)
    assert str(info.value) == (
        "M is not Hermitian: |M - M^dagger| has magnitude 2.500e-01 at entry (1, 3) "
        "(tolerance 1e-12 x scale 1.500e+00)")
    bad = n_a.copy()
    bad[3, 0] = 0.5  # the residual ties at (1, 2) and (3, 0)
    with pytest.raises(ModelError) as info:
        validate_model(m, bad, n_b, e)
    assert str(info.value) == (
        "N_a breaks the doubled-up block symmetry: |Sigma N_a^# Sigma - N_a| has "
        "magnitude 5.000e-01 at entry (1, 2) (tolerance 1e-12 x scale 2.000e+00)")


def test_validate_model_rejects_odd_coupling_rows():
    m, _, n_b, e = opa_matrices()
    with pytest.raises(DimensionError):
        validate_model(m, np.ones((3, 2)), n_b, e)


def test_validate_model_rejects_wrong_output_row():
    m, n_a, n_b, _ = opa_matrices()
    with pytest.raises(DimensionError):
        validate_model(m, n_a, n_b, np.ones((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, 1j * np.inf, -np.inf + 0j])
def test_validate_model_names_the_first_non_finite_entry(bad):
    m, n_a, n_b, e = opa_matrices()
    n_a = n_a.astype(complex)
    n_a[1, 0] = bad
    n_a[1, 1] = bad
    with pytest.raises(ModelError, match=r"N_a has a non-finite entry at \(1, 0\)"):
        validate_model(m, n_a, n_b, e)


def test_json_round_trip_is_exact():
    model = validate_model(*opa_matrices(chi=0.37, kappa_a=1.7, bbar=0.3 - 0.8j))
    text = model_to_json(model)
    back = model_from_json(text)
    assert back.n_a == model.n_a and back.n_b == model.n_b
    for name in ("M", "N_a", "N_b", "E_tilde"):
        assert np.array_equal(getattr(back, name), getattr(model, name))


def test_json_rejects_unknown_field():
    text = model_to_json(validate_model(*opa_matrices()))
    bad = text.replace('"n_a"', '"n_a_extra": 1,\n  "n_a"', 1)
    with pytest.raises(ModelError, match="n_a_extra"):
        model_from_json(bad)


def test_json_rejects_missing_field():
    import json
    doc = json.loads(model_to_json(validate_model(*opa_matrices())))
    del doc["N_b"]
    with pytest.raises(ModelError, match="N_b"):
        model_from_json(json.dumps(doc))


def test_json_syntax_error_reports_position():
    with pytest.raises(ModelError, match="line"):
        model_from_json('{"n_a": 1,,}')


def test_json_rejects_bool_mode_count():
    text = model_to_json(validate_model(*opa_matrices()))
    bad = text.replace('"n_a": 1', '"n_a": true')
    with pytest.raises(ModelError):
        model_from_json(bad)


def test_validate_model_deterministic_diagnostics():
    m, n_a, n_b, e = opa_matrices()
    m = m.copy()
    m[0, 1] = 0.3
    messages = set()
    for _ in range(3):
        with pytest.raises(ModelError) as info:
            validate_model(m, n_a, n_b, e)
        messages.add(str(info.value))
    assert len(messages) == 1


def test_constants_are_cached_and_read_only():
    cn = constants(3)
    assert constants(3) is cn
    assert constants(np.int64(3)) is cn
    with pytest.raises(ValueError):
        cn.J[0, 0] = 5.0
    with pytest.raises(ValueError):
        cn.Sigma[0, 0] = 5.0
    with pytest.raises(ValueError):
        cn.T[0, 0] = 5.0
    assert cn.J[0, 0] == 1.0 and cn.Sigma[0, 0] == 0.0
