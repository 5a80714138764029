"""Sector parameters of the uncertain subsystem."""

import json
import math

import numpy as np
import pytest

from qrobust.errors import ModelError, PreconditionError
from qrobust.uncertainty import (LinearUncertainty, from_bilinear_coupling,
                                 qsiqc_params, uncertainty_from_json,
                                 uncertainty_to_json)


def test_bilinear_coupling_matrices():
    u = from_bilinear_coupling(0.2, 4.0)
    assert np.allclose(u.A_u, [[-2.0]])
    assert np.allclose(u.B_u, [[0.2]])
    assert np.allclose(u.C_u, [[-0.2j]])
    assert np.allclose(u.noise_cov, [[4.0]])


def test_flagship_sector_parameters():
    gamma, delta1, delta2 = qsiqc_params(from_bilinear_coupling(0.2, 4.0))
    assert abs(gamma - 50.0) <= 1e-8 * 50.0
    assert abs(delta1 - 0.04) <= 1e-12
    assert delta2 == 0.0


def test_gamma_scaling_with_damping():
    g = 0.37 - 0.12j
    g1 = qsiqc_params(from_bilinear_coupling(g, 1.5))[0]
    g2 = qsiqc_params(from_bilinear_coupling(g, 3.0))[0]
    assert g2 == pytest.approx(2.0 * g1, rel=1e-8)


def test_delta1_independent_of_damping():
    g = 0.37 - 0.12j
    d1 = qsiqc_params(from_bilinear_coupling(g, 1.5))[1]
    d2 = qsiqc_params(from_bilinear_coupling(g, 3.0))[1]
    assert d1 == pytest.approx(abs(g) ** 2, rel=1e-10)
    assert d2 == pytest.approx(d1, rel=1e-10)


def test_coupling_scaling():
    g = 0.4 + 0.1j
    base_gamma, base_delta, _ = qsiqc_params(from_bilinear_coupling(g, 2.0))
    dbl_gamma, dbl_delta, _ = qsiqc_params(from_bilinear_coupling(2 * g, 2.0))
    assert dbl_gamma == pytest.approx(base_gamma / 4.0, rel=1e-8)
    assert dbl_delta == pytest.approx(4.0 * base_delta, rel=1e-10)


def test_zero_coupling_gives_unbounded_gamma():
    gamma, delta1, _ = qsiqc_params(from_bilinear_coupling(0.0, 2.0))
    assert gamma == math.inf
    assert delta1 == 0.0


def test_nonpositive_damping_rejected():
    with pytest.raises(PreconditionError):
        from_bilinear_coupling(0.2, 0.0)
    with pytest.raises(PreconditionError):
        from_bilinear_coupling(0.2, -1.0)


def test_unstable_internal_dynamics_rejected():
    u = LinearUncertainty(A_u=np.array([[0.5]]), B_u=np.array([[1.0]]),
                          C_u=np.array([[1.0]]), noise_cov=np.array([[1.0]]))
    with pytest.raises(PreconditionError):
        qsiqc_params(u)


def test_noise_cov_must_be_psd():
    u = LinearUncertainty(A_u=np.array([[-1.0]]), B_u=np.array([[1.0]]),
                          C_u=np.array([[1.0]]), noise_cov=np.array([[-1.0]]))
    with pytest.raises(ModelError):
        qsiqc_params(u)


def test_json_round_trip():
    u = from_bilinear_coupling(0.3 - 0.7j, 2.5)
    back = uncertainty_from_json(uncertainty_to_json(u))
    for name in ("A_u", "B_u", "C_u", "noise_cov"):
        assert np.array_equal(getattr(back, name), getattr(u, name))


def test_json_strict_fields():
    text = uncertainty_to_json(from_bilinear_coupling(0.2, 4.0))
    doc = json.loads(text)
    doc["extra"] = 1
    with pytest.raises(ModelError, match="extra"):
        uncertainty_from_json(json.dumps(doc))
    del doc["extra"]
    del doc["NoiseCov"]
    with pytest.raises(ModelError, match="NoiseCov"):
        uncertainty_from_json(json.dumps(doc))


def test_json_syntax_diagnostics():
    with pytest.raises(ModelError, match="line"):
        uncertainty_from_json("{bad json}")
