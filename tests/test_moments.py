"""Closed-loop second moments against the certified bound."""

import numpy as np
import pytest
import scipy.linalg as sla

from qrobust.errors import DimensionError, ModelError, PreconditionError
from qrobust.model import validate_model
from qrobust.moments import (DIVERGENCE_LIMIT, _plant_diagonal_sums, build_closed_loop,
                             integrate_moments, scalar_damping_rate,
                             steady_state_moments, vacuum_state)
from qrobust.opa import OpaParams, build_opa_model, draw_params

FLAGSHIP = OpaParams(chi=0.1, kappa_a=2.0, kappa_b=4.0, abar=1.0, bbar=1.0)

# hand-derived closed-loop matrices for the flagship parameters
FLAGSHIP_A_CL = np.array([
    [-1.0, -0.1, -0.2, 0.0],
    [-0.1, -1.0, 0.0, -0.2],
    [0.2, 0.0, -2.0, 0.0],
    [0.0, 0.2, 0.0, -2.0],
])
FLAGSHIP_D = np.diag([2.0, 0.0, 4.0, 0.0])


def flagship_loop():
    model, g, _ = build_opa_model(FLAGSHIP)
    return build_closed_loop(model, g)


def decoupled_model(kappa_a=2.0, kappa_b=4.0):
    return validate_model(np.zeros((2, 2)), np.sqrt(kappa_a) * np.eye(2),
                          np.sqrt(kappa_b) * np.eye(2),
                          np.array([[1.0 + 0.0j, 0.0j]]))


def test_scalar_damping_rate():
    assert scalar_damping_rate(np.sqrt(4.0) * np.eye(2)) == pytest.approx(4.0)
    with pytest.raises(DimensionError):
        scalar_damping_rate(np.ones((3, 2)))


def test_scalar_damping_rate_rejects_nonpositive():
    # swap-type coupling has |alpha|^2 - |beta|^2 = -1
    with pytest.raises(ModelError):
        scalar_damping_rate(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_flagship_closed_loop_matrices():
    sys = flagship_loop()
    assert np.allclose(sys.A_cl, FLAGSHIP_A_CL, atol=1e-14)
    assert np.allclose(sys.D, FLAGSHIP_D, atol=1e-14)
    assert sys.n_a == 1 and sys.n_b == 1


def test_steady_state_flagship():
    sys = flagship_loop()
    st = steady_state_moments(sys)
    x = st.X
    assert float(np.abs(x - x.conj().T).max()) < 1e-12
    # residual of the moment equation itself
    lhs = sys.A_cl @ x + x @ sys.A_cl.conj().T + sys.D
    assert float(np.abs(lhs).max()) < 1e-12
    assert st.ms_value > 1.0  # squeezing adds photons above vacuum
    assert st.ms_value < 1.1


def test_vacuum_state_counts_modes():
    sys = flagship_loop()
    x0 = vacuum_state(sys)
    assert x0.shape == (4, 4)
    # plant-sector diagonal holds one unit per mode, conjugate slots empty
    assert np.allclose(np.diagonal(x0).real, [1.0, 0.0, 1.0, 0.0])
    assert float(np.abs(x0 - np.diag(np.diagonal(x0))).max()) == 0.0


def test_uncoupled_vacuum_is_exact_steady_state():
    sys = build_closed_loop(decoupled_model(), 0.0)
    st = steady_state_moments(sys)
    assert abs(st.ms_value - 1.0) <= 1e-9


def test_unstable_loop_rejected():
    # weak coupling: the damped second mode cannot rescue the plant
    model, g, _ = build_opa_model(
        OpaParams(chi=1.2, kappa_a=2.0, kappa_b=4.0, abar=0.01, bbar=1.0))
    sys = build_closed_loop(model, g)
    with pytest.raises(PreconditionError, match="diverge"):
        steady_state_moments(sys)


def test_build_closed_loop_needs_single_uncertain_mode():
    model, g, _ = build_opa_model(FLAGSHIP)
    big = validate_model(np.zeros((2, 2)), np.sqrt(2.0) * np.eye(2),
                         np.sqrt(3.0) * np.eye(4),
                         np.array([[1.0 + 0.0j, 0.0j]]), n_b=2)
    with pytest.raises(DimensionError):
        build_closed_loop(big, g)


def test_trajectory_converges_to_steady_state():
    sys = flagship_loop()
    target = steady_state_moments(sys).X
    traj = integrate_moments(sys, 20.0)
    assert not traj.diverged
    assert float(np.abs(traj.X_final - target).max()) < 1e-8
    assert traj.ms_values[-1] == pytest.approx(
        steady_state_moments(sys).ms_value, abs=1e-8)
    assert traj.t[0] == 0.0
    assert traj.t[-1] == pytest.approx(20.0)


def test_trajectory_flags_divergence():
    model, g, _ = build_opa_model(
        OpaParams(chi=1.2, kappa_a=2.0, kappa_b=4.0, abar=0.01, bbar=1.0))
    sys = build_closed_loop(model, g)
    traj = integrate_moments(sys, 400.0, dt=0.01)
    assert traj.diverged
    assert traj.ms_values[-1] == np.inf
    # stopped at the first grid point past the limit, in the middle of a block
    assert len(traj.t) == len(traj.ms_values) < 40001
    assert np.isfinite(traj.ms_values[:-1]).all()
    assert np.abs(traj.X_final).max() > DIVERGENCE_LIMIT


def test_plant_diagonal_check_reports_the_first_bad_matrix():
    good = np.diag([1.0, 0.5, 1.0, 0.0]).astype(complex)
    negative, nonreal = good.copy(), good.copy()
    negative[1, 1], nonreal[0, 0] = -1.0, 1.0 + 1j
    assert _plant_diagonal_sums(np.stack([good, good]), 1).tolist() == [1.5, 1.5]
    with pytest.raises(PreconditionError, match="negative plant diagonal"):
        _plant_diagonal_sums(np.stack([good, negative, nonreal]), 1)
    with pytest.raises(PreconditionError, match="non-real plant diagonal"):
        _plant_diagonal_sums(np.stack([good, nonreal, negative]), 1)
    with pytest.raises(PreconditionError, match="negative plant diagonal"):
        integrate_moments(flagship_loop(), 1.0, x0=negative)


@pytest.mark.parametrize("horizon", [float("nan"), -1.0, 0.0, float("inf")])
def test_integrate_rejects_a_horizon_that_is_not_finite_and_positive(horizon):
    with pytest.raises(PreconditionError, match="horizon must be positive and finite"):
        integrate_moments(flagship_loop(), horizon)


def test_trajectory_monotone_from_vacuum_flagship():
    sys = flagship_loop()
    traj = integrate_moments(sys, 10.0)
    diffs = np.diff(traj.ms_values)
    assert (diffs >= -1e-12).all()


def hurwitz_amplifier_loops(seed, count):
    """The first `count` Hurwitz closed loops of seeded amplifier draws."""
    rng = np.random.default_rng(seed)
    loops = []
    while len(loops) < count:
        model, g, _ = build_opa_model(draw_params(rng))
        sys = build_closed_loop(model, g)
        if float(np.linalg.eigvals(sys.A_cl).real.max()) < 0.0:
            loops.append(sys)
    return loops


def closed_form_errors(sys, traj):
    """Worst relative errors of the trajectory's plant-sector sums and final X
    against X(t) = e^{At}(X0 - X_inf)e^{A^dagger t} + X_inf, X_inf from scipy."""
    x_inf = sla.solve_continuous_lyapunov(sys.A_cl, -sys.D)
    phi = sla.expm(sys.A_cl[None] * traj.t[:, None, None])
    x = phi @ (vacuum_state(sys) - x_inf) @ phi.conj().transpose(0, 2, 1) + x_inf
    ref = np.diagonal(x, axis1=1, axis2=2)[:, :2 * sys.n_a].real.sum(axis=1)
    return (float(np.max(np.abs(traj.ms_values - ref) / ref)),
            float(np.abs(traj.X_final - x[-1]).max() / np.abs(x[-1]).max()))


def test_trajectory_matches_closed_form_at_every_grid_point():
    # seed-1 loops 0 and 8 are lightly damped: a fixed-step RK4 at the
    # default step misses them by 8e-6 and 3e-6
    for sys in [flagship_loop()] + hurwitz_amplifier_loops(1, 20):
        traj = integrate_moments(sys, 20.0)
        assert not traj.diverged
        assert max(closed_form_errors(sys, traj)) <= 1e-12


def test_trajectory_matches_closed_form_on_stiff_nearly_marginal_loops():
    # abscissa -1.0e-3 and -1.1e-4 beside modes near -2: the default step
    # 0.01 / |abscissa| spans 19 and 180 e-folds of the fast modes; the
    # problem's condition grows like 1 / |abscissa|, and so does the bound
    for chi in (0.502, 0.50247):
        model, g, _ = build_opa_model(OpaParams(chi=chi, kappa_a=2.0, kappa_b=4.0,
                                                abar=0.1, bbar=2.0))
        sys = build_closed_loop(model, g)
        abscissa = float(np.linalg.eigvals(sys.A_cl).real.max())
        traj = integrate_moments(sys, 0.2 / abs(abscissa))
        assert not traj.diverged and len(traj.t) == 21
        assert max(closed_form_errors(sys, traj)) <= 1e-15 / abs(abscissa)
