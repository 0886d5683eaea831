"""Chebyshev collocation pieces and the radial EB cross-check."""

import math

import numpy as np
import pytest

from gravortex import radial
from gravortex.radial import (
    RadialEBSolution,
    chebyshev_lobatto,
    clenshaw_curtis_weights,
    solve_eb_radial,
)

TWO_PI = 2.0 * math.pi


def test_clenshaw_curtis_exact_on_polynomials():
    x, _ = chebyshev_lobatto(16)
    w = clenshaw_curtis_weights(16)
    assert float(w.sum()) == pytest.approx(2.0, rel=1e-14)
    assert float(w @ x) == pytest.approx(0.0, abs=1e-15)
    assert float(w @ x**2) == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert float(w @ x**8) == pytest.approx(2.0 / 9.0, rel=1e-13)


def test_clenshaw_curtis_smooth_integrand():
    x, _ = chebyshev_lobatto(32)
    w = clenshaw_curtis_weights(32)
    assert float(w @ np.exp(x)) == pytest.approx(math.e - 1.0 / math.e, rel=1e-14)
    with pytest.raises(ValueError):
        clenshaw_curtis_weights(7)


def test_chebyshev_differentiation_exact_on_polynomials():
    x, d = chebyshev_lobatto(12)
    assert np.max(np.abs(d @ x**3 - 3 * x**2)) < 1e-11
    assert np.max(np.abs(d @ np.ones_like(x))) < 1e-12
    with pytest.raises(ValueError):
        chebyshev_lobatto(1)


def test_radial_solver_validation():
    with pytest.raises(ValueError):
        solve_eb_radial(4.0, 1, 1)  # N = 2 = tau/2 violates the strict bound
    with pytest.raises(ValueError):
        solve_eb_radial(8.0, 0, 0)


def test_radial_solver_converges():
    sol = solve_eb_radial(8.0, 1, 1)
    assert isinstance(sol, RadialEBSolution)
    assert sol.converged
    assert sol.residual <= 1e-8
    assert sol.alpha == pytest.approx(1.0 / 16.0)
    # the volume constraint held at the solution
    w = clenshaw_curtis_weights(sol.xi.size - 1)
    a = (1 - sol.xi) * (1 + sol.xi) / 4.0
    e2u = np.exp(4 * sol.alpha * 8.0 * sol.f - 2 * sol.alpha * np.exp(2 * sol.f) * a
                 + 2 * sol.c_prime)
    assert math.pi * float(w @ e2u) == pytest.approx(TWO_PI, rel=1e-8)


def test_radial_resolutions_agree():
    s_lo = solve_eb_radial(8.0, 1, 1, n_modes=128)
    s_hi = solve_eb_radial(8.0, 1, 1, n_modes=256)
    xi = np.linspace(-1.0, 1.0, 101)
    assert np.max(np.abs(s_lo.interpolate(xi) - s_hi.interpolate(xi))) < 1e-5


def test_radial_interpolation_is_deterministic_and_exact_at_nodes(sphere24):
    from scipy.interpolate import BarycentricInterpolator

    x, _ = chebyshev_lobatto(64)
    sol = RadialEBSolution(xi=x, f=np.exp(x) * np.cos(3.0 * x), c_prime=0.0, tau=8.0,
                           alpha=1.0 / 16.0, converged=True, iterations=0, residual=0.0)
    query = np.concatenate([sphere24._xi_flat, np.linspace(-1.0, 1.0, 57)])
    first, *rest = (sol.interpolate(query) for _ in range(3))
    assert all(np.array_equal(first, other) for other in rest)
    assert first.shape == query.shape
    assert np.max(np.abs(first - BarycentricInterpolator(x, sol.f)(query))) < 1e-13
    # a node, the poles xi = +/-1 included, returns f there exactly
    assert np.array_equal(sol.interpolate(x), sol.f)
    assert np.array_equal(sol.interpolate(np.array([[1.0], [-1.0]])), sol.f[[0, -1], None])


def test_radial_gauge_covariance():
    # a -> e^{2s} a pushes f down by s and c' up by 2 alpha tau s
    base = solve_eb_radial(8.0, 1, 1, log_scale=0.0)
    shifted = solve_eb_radial(8.0, 1, 1, log_scale=2.0)  # s = 1
    assert base.converged and shifted.converged
    assert np.max(np.abs((base.f - shifted.f) - 1.0)) < 1e-4
    assert base.c_prime - shifted.c_prime == pytest.approx(
        -2 * base.alpha * 8.0 * 1.0, abs=1e-6
    )


def test_radial_matches_two_dimensional_eb(sphere24, antipodal_section24):
    from gravortex.solvers import solve_eb

    state, report = solve_eb(sphere24, antipodal_section24, 8.0)
    assert report.converged
    sol = solve_eb_radial(8.0, 1, 1, log_scale=antipodal_section24.normalization)
    assert sol.converged
    f_radial = sol.interpolate(sphere24._xi_flat)
    assert np.max(np.abs(f_radial - state.f.values)) < 1e-3
    assert sol.c_prime == pytest.approx(report.c_prime, abs=1e-6)


def test_radial_asymmetric_multiplicities():
    # (2, 2) antipodal at tau = 12: strictly polystable, solution exists
    sol = solve_eb_radial(12.0, 2, 2, n_modes=160)
    assert sol.converged
    assert sol.residual <= 1e-8


@pytest.mark.parametrize("tau, m_north, m_south", [(8.0, 2, 1), (12.0, 3, 1), (4.0, 1, 0)])
def test_radial_refuses_unstable_antipodal_data(monkeypatch, tau, m_north, m_south):
    # two points are polystable only with equal multiplicity: refused before any set-up
    from gravortex import radial

    def no_setup(_m):
        raise AssertionError("collocation set up for unstable data")

    monkeypatch.setattr(radial, "_even_setup", no_setup)
    with pytest.raises(ValueError, match="equal multiplicity"):
        solve_eb_radial(tau, m_north, m_south)


def test_radial_even_setup_is_cached_read_only_and_exact():
    from gravortex.radial import _even_setup

    xi, mirror, lap, w = _even_setup(16)
    assert _even_setup(16)[2] is lap
    assert not any(a.flags.writeable for a in (xi, mirror, lap, w))
    assert np.max(np.abs(np.abs(xi[mirror]) - np.abs(xi))) < 1e-15
    top = xi[: w.size]
    # folded weights integrate even polynomials over [-1, 1]
    assert float(w @ top**2) == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert float(w @ top**8) == pytest.approx(2.0 / 9.0, rel=1e-13)
    # the folded Laplacian on xi^2 is -2[2(1 - xi^2) - 4 xi^2] = 12 xi^2 - 4
    assert np.max(np.abs(lap @ top**2 - (12.0 * top**2 - 4.0))) < 1e-12


@pytest.mark.parametrize("tau, m", [(8.0, 1), (12.0, 2)])
def test_radial_solution_is_exactly_even(tau, m):
    sol = solve_eb_radial(tau, m, m)
    assert sol.converged
    assert sol.xi.size == 201
    assert np.array_equal(sol.f, sol.f[::-1])


def test_radial_resolutions_agree_to_roundoff():
    xi = np.linspace(-1.0, 1.0, 101)
    sols = [solve_eb_radial(8.0, 1, 1, n_modes=n) for n in (96, 128, 200, 256)]
    assert all(sol.converged for sol in sols)
    ref = sols[-1].interpolate(xi)
    for sol in sols[:-1]:
        assert np.max(np.abs(sol.interpolate(xi) - ref)) <= 1e-10


def test_radial_gauge_shift_is_exact():
    base = solve_eb_radial(8.0, 1, 1, log_scale=0.0)
    shifted = solve_eb_radial(8.0, 1, 1, log_scale=2.0)  # s = 1
    assert np.max(np.abs((base.f - shifted.f) - 1.0)) <= 1e-8
    assert base.c_prime - shifted.c_prime == pytest.approx(-2 * base.alpha * 8.0, abs=1e-9)


@pytest.mark.parametrize("m,tau", [(1, 8.0), (2, 12.0)])  # sphere-eb's two shapes at L=48
def test_radial_gap_at_criterion_3_is_at_roundoff(m, tau):
    from gravortex.geometry import POINT_AT_INFINITY, build_grid
    from gravortex.sections import Divisor, build_section
    from gravortex.solvers import solve_eb

    grid = build_grid("sphere", 48)
    section = build_section(grid, Divisor(((0.0, 0.0), POINT_AT_INFINITY), (m, m)))
    state, report = solve_eb(grid, section, tau)
    assert report.converged
    sol = solve_eb_radial(tau, m, m, log_scale=section.normalization)
    assert sol.converged
    assert np.max(np.abs(state.f.values - sol.interpolate(grid._xi_flat))) <= 1e-8
    assert abs(report.c_prime - sol.c_prime) <= 1e-10


@pytest.mark.parametrize("m, tau", [(1, 8.07), (1, 8.15), (1, 8.23),
                                    (2, 11.88), (2, 11.92), (2, 11.99), (2, 12.12)])
def test_radial_oracle_reaches_the_eb_coupling_in_two_secant_stages(m, tau):
    # the direct stage at alpha_EB from the constrained constant start converges here in 5-6
    # iterations; the ramp behind it, alpha = 0 -> alpha_EB/2 -> alpha_EB with secant starts,
    # took 13-15. One jump from the alpha = 0 solution to alpha_EB took 94 iterations at
    # m=2, tau = 11.88 (it halves) and 17 at 11.92; four constant-predictor stages 25-26
    from gravortex.geometry import POINT_AT_INFINITY, build_grid
    from gravortex.sections import Divisor, build_section

    section = build_section(build_grid("sphere", 48),
                            Divisor(((0.0, 0.0), POINT_AT_INFINITY), (m, m)))
    sol = solve_eb_radial(tau, m, m, log_scale=section.normalization)
    assert sol.converged and sol.iterations <= 16


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("offset", [0.05, None], ids=["near-bound", "tau15"])
def test_radial_oracle_converges_across_its_domain(m, offset):
    tau = 15.0 if offset is None else 4.0 * m + offset
    assert solve_eb_radial(tau, m, m).converged


def test_a_singular_jacobian_ends_the_radial_solve_unconverged(monkeypatch):
    # past the domain, m=1 at tau = 28.55 meets an exactly singular Jacobian (one BLAS thread)
    assert not solve_eb_radial(28.55, 1, 1).converged

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    sol = solve_eb_radial(8.0, 1, 1)
    assert not sol.converged and sol.iterations == 1 and sol.residual > 1e-8


def _forced_ramp(monkeypatch, *args, **kwargs):
    """``solve_eb_radial`` with the direct stage dropped at its first step: a floor of 1 tries
    no step, so the alpha = 0 -> alpha/2 -> alpha ramp runs as it did before the stage."""
    from gravortex import radial

    with monkeypatch.context() as patch:
        patch.setattr(radial, "_DIRECT_FLOOR", 1.0)
        return solve_eb_radial(*args, **kwargs)


@pytest.mark.parametrize("m, tau", [(1, 8.0), (1, 8.15), (1, 8.3),
                                    (2, 11.88), (2, 12.0), (2, 12.12)])  # sphere-eb's points
def test_radial_oracle_starts_at_the_eb_coupling(m, tau):
    # the ramp took 13-17 iterations here; the direct stage takes 5-6 at log_scale 0 and at 2m,
    # the antipodal section's constant on every grid, which criterion 3 passes
    for log_scale in (0.0, 2.0 * m):
        sol = solve_eb_radial(tau, m, m, log_scale=log_scale)
        assert sol.converged and sol.iterations <= 7


def test_a_direct_stage_that_needs_short_steps_gives_way_to_the_ramp(monkeypatch):
    # m=1, tau = 16.05: the first direct step needs t = 1/128, below the floor of 1/8, so the
    # stage is dropped after one step and the ramp (38 iterations alone) returns its solution
    sol = solve_eb_radial(16.05, 1, 1)
    ramp = _forced_ramp(monkeypatch, 16.05, 1, 1)
    assert sol.converged and sol.iterations <= 38 + 2
    assert np.array_equal(sol.f, ramp.f) and sol.c_prime == ramp.c_prime


@pytest.mark.parametrize("m, tau", [(1, 8.0), (2, 12.0)])
def test_the_direct_stage_and_the_ramp_agree(monkeypatch, m, tau):
    # measured: |df| 1.5e-12 and 2.7e-10, |dc'| 4.4e-13 and 2.0e-11 at (1, 8.0) and (2, 12.0);
    # both residuals are below 1e-8 with a Jacobian condition number near 1e6
    sol, ramp = solve_eb_radial(tau, m, m), _forced_ramp(monkeypatch, tau, m, m)
    assert sol.converged and ramp.converged and sol.iterations < ramp.iterations
    assert np.max(np.abs(sol.f - ramp.f)) <= 1e-9
    assert abs(sol.c_prime - ramp.c_prime) <= 1e-10


@pytest.mark.parametrize("m, tau, settled", [(1, 8.0, -1.5612005351462),
                                             (2, 12.0, -1.2404698223722)])
def test_the_direct_stage_ends_on_the_settled_c_prime(m, tau, settled):
    # further Newton steps from either path scatter c' within 4e-13 of ``settled`` (roundoff).
    # The direct stage's last step starts from a residual near 3e-5, and its quadratic remainder
    # leaves c' 1.4e-11 off at m=2; the simplified Newton correction brings it to 4e-13
    assert abs(solve_eb_radial(tau, m, m).c_prime - settled) <= 2e-12


@pytest.mark.parametrize("name, value", [
    ("tau", math.nan), ("tau", math.inf), ("log_scale", math.nan), ("log_scale", math.inf),
    ("n_modes", True), ("n_modes", 8.5), ("n_modes", 1),
])
def test_radial_solver_names_an_invalid_argument(monkeypatch, name, value):
    from gravortex import radial

    def no_setup(_m):
        raise AssertionError("collocation set up for invalid arguments")

    monkeypatch.setattr(radial, "_even_setup", no_setup)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        solve_eb_radial(**{"tau": 8.0, "m_north": 1, "m_south": 1, name: value})


def test_radial_solver_takes_a_numpy_integer_mode_count():
    assert solve_eb_radial(8.0, 1, 1, n_modes=np.int64(64)).converged


def test_each_radial_stage_stops_at_its_iteration_budget(monkeypatch):
    # tau = 8 converges in 6 iterations of the direct stage; on a budget of 2 per stage the
    # direct stage and the alpha = 0 stage of the ramp behind it each spend 2, and the ramp stops
    monkeypatch.setattr(radial, "_MAX_ITERS", 2)
    sol = solve_eb_radial(8.0, 1, 1)
    assert not sol.converged and sol.iterations == 4
