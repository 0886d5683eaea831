"""Newton solves: convergence, certification gates, continuation, invariance."""

import math

import numpy as np
import pytest

from gravortex.equations import (
    EquationKind,
    ProblemSpec,
    initial_state,
    metric_density,
    residual_fields,
)
from gravortex.geometry import POINT_AT_INFINITY, build_grid, integrate, mean_value
from gravortex.sections import Divisor, build_section, rescale
from gravortex.solvers import (
    ContinuationSchedule,
    FailureReason,
    SolverConfig,
    advance_gravitating,
    newton_step,
    solve_eb,
    solve_gravitating,
    solve_vortex,
)

TWO_PI = 2.0 * math.pi


def test_solver_config_validation():
    with pytest.raises(TypeError):  # backtracking is the only damping; there is no knob
        SolverConfig(damping="none")
    assert SolverConfig().newton_tol == 1e-10


def test_continuation_schedule_validation():
    with pytest.raises(ValueError):
        ContinuationSchedule((0.1, 0.2))
    with pytest.raises(ValueError):
        ContinuationSchedule((0.0, 0.2, 0.2))
    with pytest.raises(ValueError):
        ContinuationSchedule(())
    s = ContinuationSchedule((0.0, 0.1))
    assert s.alpha_targets == (0.0, 0.1)


def test_vortex_converges_above_bound(torus24, torus24_section):
    state, report = solve_vortex(torus24, torus24_section, 2.5)
    assert report.converged
    assert report.final_residual <= 1e-10
    assert abs(report.identity.degree_identity) <= 1e-6
    assert report.identity.min_density > 0
    assert report.failure_reason is None
    # the density integral is pinned by the equation: 2*pi*(tau - 2N)
    p = np.exp(2.0 * state.f.values) * torus24_section.norm_sq.values
    assert float(np.dot(torus24.quad_weights, p)) == pytest.approx(math.pi, rel=1e-9)


@pytest.mark.parametrize("tau", [1.8, 2.0])
def test_vortex_fails_below_bound(torus24, torus24_section, tau):
    state, report = solve_vortex(torus24, torus24_section, tau)
    assert not report.converged
    assert report.failure_reason is not None
    assert "bound" in report.message or "N <" in report.message


def test_vortex_independent_of_initial_guess(torus24, torus24_section):
    states = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        guess = rng.uniform(-1.0, 1.0, torus24.node_coords.shape[0])
        state, report = solve_vortex(torus24, torus24_section, 2.5, initial=guess)
        assert report.converged
        states.append(state.f.values)
    for other in states[1:]:
        assert np.max(np.abs(other - states[0])) < 1e-8


def test_newton_step_decreases_residual(torus24, torus24_section):
    spec = ProblemSpec(grid=torus24, section=torus24_section, tau=2.5,
                       kind=EquationKind.VORTEX)
    state = initial_state(spec)
    r0 = np.max(np.abs(residual_fields(state)[0].values))
    state2, info = newton_step(state, SolverConfig())
    assert info["new_residual_norm"] < r0
    assert 0 < info["step_scale"] <= 1.0


def test_gravitating_torus_weak_coupling(torus24, torus24_section):
    state, report = solve_gravitating(torus24, torus24_section, 2.5, 0.05)
    assert report.converged
    assert report.alpha_reached == 0.05
    sup = max(float(np.max(np.abs(r.values))) for r in residual_fields(state))
    assert sup <= 1e-8
    assert report.identity.min_density > 0
    assert abs(report.identity.volume_identity) <= 1e-8
    assert abs(mean_value(state.v)) < 1e-12
    assert abs(report.identity.gauss_bonnet) < 1e-8  # chi = 0


def test_gravitating_alpha_zero_is_vortex(torus24, torus24_section):
    gstate, greport = solve_gravitating(torus24, torus24_section, 2.5, 0.0)
    vstate, vreport = solve_vortex(torus24, torus24_section, 2.5)
    assert greport.converged and vreport.converged
    assert np.max(np.abs(gstate.f.values - vstate.f.values)) < 1e-12
    assert np.max(np.abs(gstate.v.values)) == 0.0


def test_advance_gravitating_warm_start(torus24, torus24_section):
    state, report = solve_gravitating(torus24, torus24_section, 2.5, 0.02)
    assert report.converged
    state2, report2 = advance_gravitating(state, 0.03)
    assert report2.converged
    assert report2.alpha_reached == 0.03
    # warm starts land on the same branch as cold continuation
    cold, creport = solve_gravitating(torus24, torus24_section, 2.5, 0.03)
    assert creport.converged
    assert np.max(np.abs(state2.f.values - cold.f.values)) < 1e-7


def test_gravitating_negative_alpha_rejected(torus24, torus24_section):
    with pytest.raises(ValueError):
        solve_gravitating(torus24, torus24_section, 2.5, -0.1)


def test_eb_requires_sphere_and_bound(torus24, torus24_section, sphere16):
    with pytest.raises(ValueError):
        solve_eb(torus24, torus24_section, 2.5)
    divisor = Divisor(points=((0.0, 0.0), POINT_AT_INFINITY), multiplicities=(1, 1))
    section = build_section(sphere16, divisor)
    with pytest.raises(ValueError):
        solve_eb(sphere16, section, 4.0)  # N = 2 = tau/2 fails strictly


def test_eb_converges_on_polystable_divisor(sphere24, antipodal_section24):
    state, report = solve_eb(sphere24, antipodal_section24, 8.0)
    assert report.converged
    assert report.final_residual <= 1e-10
    assert report.alpha_reached == pytest.approx(1.0 / 16.0)
    assert abs(report.identity.volume_identity) <= 1e-8
    # solution metric integrates its curvature to 4*pi*chi
    assert abs(report.identity.gauss_bonnet) <= 1e-4
    assert report.c_prime == pytest.approx(-0.868053354586, abs=1e-6)


def test_eb_halts_on_unstable_divisor(sphere16):
    divisor = Divisor(points=((0.0, 0.0),), multiplicities=(2,))
    section = build_section(sphere16, divisor)
    state, report = solve_eb(sphere16, section, 8.0)
    assert not report.converged
    assert report.failure_reason is FailureReason.DIVERGENCE
    assert "polystable" in report.message


def test_gravitating_sphere_unstable_stalls(sphere16):
    divisor = Divisor(points=((0.0, 0.0),), multiplicities=(2,))
    section = build_section(sphere16, divisor)
    # a tight budget keeps this quick; the stall is structural, not budgetary
    schedule = ContinuationSchedule((0.0, 0.05), max_step_halvings=2)
    config = SolverConfig(max_newton_iters=12)
    state, report = solve_gravitating(sphere16, section, 8.0, 0.05, schedule, config)
    assert not report.converged
    assert report.alpha_reached < 0.05


def test_scale_invariance_of_gravitating_solution(torus24, torus24_section):
    shift = 0.37
    scaled = rescale(torus24_section, shift)
    base_state, base_report = solve_gravitating(torus24, torus24_section, 2.5, 0.05)
    scaled_state, scaled_report = solve_gravitating(torus24, scaled, 2.5, 0.05)
    assert base_report.converged and scaled_report.converged
    # f absorbs the rescaling, every gauge-invariant quantity survives
    f_shift = scaled_state.f.values - base_state.f.values
    assert np.max(np.abs(f_shift + shift)) < 1e-9
    p_base = np.exp(2 * base_state.f.values) * torus24_section.norm_sq.values
    p_scaled = np.exp(2 * scaled_state.f.values) * scaled.norm_sq.values
    assert np.max(np.abs(p_base - p_scaled)) < 1e-9
    assert np.max(np.abs(base_state.v.values - scaled_state.v.values)) < 1e-9
    assert np.max(np.abs(metric_density(base_state).values
                         - metric_density(scaled_state).values)) < 1e-9


def test_report_serialization_round_trip(torus24, torus24_section):
    _, report = solve_vortex(torus24, torus24_section, 2.5)
    d = report.to_dict()
    assert d["converged"] is True
    assert d["identity"]["volume_identity"] == report.identity.volume_identity
    assert d["failure_reason"] is None


def test_solver_budget_respected(torus24, torus24_section):
    config = SolverConfig(max_newton_iters=1)
    _, report = solve_vortex(torus24, torus24_section, 4.0, config)
    assert not report.converged
    assert report.failure_reason is FailureReason.MAX_ITERS
    assert report.iterations <= 1
