"""Chebyshev collocation pieces and the radial EB cross-check."""

import math

import numpy as np
import pytest

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
