"""Grids, quadrature, spectral Laplacians, and inverse operators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravortex.geometry import (
    ScalarField,
    build_grid,
    conformal_density,
    constant_field,
    field,
    geodesic_distance,
    integrate,
    laplacian_apply,
    laplacian_invert,
    mean_value,
    smoothing_invert,
)

TWO_PI = 2.0 * math.pi


@pytest.mark.parametrize("model,resolution", [("torus", 8), ("torus", 24), ("sphere", 8), ("sphere", 24)])
def test_total_area_is_two_pi(model, resolution):
    grid = build_grid(model, resolution)
    assert grid.quad_weights.sum() == pytest.approx(TWO_PI, rel=1e-13)
    assert integrate(constant_field(grid, 1.0)) == pytest.approx(TWO_PI, rel=1e-13)


def test_euler_characteristic_and_background_curvature():
    torus = build_grid("torus", 8)
    sphere = build_grid("sphere", 8)
    assert torus.euler_characteristic == 0
    assert sphere.euler_characteristic == 2
    assert torus.base_scalar_curvature == 0.0
    assert sphere.base_scalar_curvature == 4.0
    # Gauss-Bonnet for the background: integral of S0 = 4*pi*chi
    assert integrate(constant_field(sphere, sphere.base_scalar_curvature)) == pytest.approx(
        4.0 * math.pi * 2, rel=1e-13
    )


def test_torus_laplacian_eigenmodes(torus24):
    x = torus24.node_coords[:, 0]
    y = torus24.node_coords[:, 1]
    for k, m in [(1, 0), (0, 2), (3, 2)]:
        f = field(torus24, np.cos(2 * math.pi * k * x) * np.cos(2 * math.pi * m * y))
        expected = TWO_PI * (k * k + m * m)
        got = laplacian_apply(f).values
        assert np.max(np.abs(got - expected * f.values)) < 1e-9


def test_sphere_laplacian_eigenmodes(sphere16):
    # degree-l harmonics have positive-Laplacian eigenvalue 2 l (l+1) at area 2*pi
    xi = sphere16._xi_flat
    for l, poly in [(1, xi), (2, 0.5 * (3 * xi**2 - 1))]:
        f = field(sphere16, poly)
        got = laplacian_apply(f).values
        expected = 2.0 * l * (l + 1)
        assert np.max(np.abs(got - expected * f.values)) < 1e-11


def test_laplacian_annihilates_constants(torus24, sphere16):
    for grid in (torus24, sphere16):
        f = constant_field(grid, 3.7)
        assert np.max(np.abs(laplacian_apply(f).values)) < 1e-10


def test_laplacian_invert_round_trip(torus24):
    rng = np.random.default_rng(7)
    raw = rng.standard_normal(torus24.node_coords.shape[0])
    rhs = field(torus24, raw - np.average(raw, weights=torus24.quad_weights))
    u = laplacian_invert(rhs)
    assert abs(mean_value(u)) < 1e-12
    back = laplacian_apply(u)
    assert np.max(np.abs(back.values - rhs.values)) < 1e-8


def test_laplacian_invert_rejects_nonzero_mean(torus24):
    with pytest.raises(ValueError):
        laplacian_invert(constant_field(torus24, 1.0))


def test_smoothing_invert_solves_shifted_problem(sphere16, torus24):
    # sphere transforms are projections, so exactness holds on band-limited data
    xi = sphere16._xi_flat
    rhs = 0.3 + xi + 0.35 * (3 * xi**2 - 1)
    u = smoothing_invert(rhs, sphere16, shift=2.5)
    residual = laplacian_apply(field(sphere16, u)).values + 2.5 * u - rhs
    assert np.max(np.abs(residual)) < 1e-11
    # the torus grid carries exactly one Fourier mode per node, so any data works
    rng = np.random.default_rng(3)
    noise = rng.standard_normal(torus24.node_coords.shape[0])
    u = smoothing_invert(noise, torus24, shift=0.7)
    residual = laplacian_apply(field(torus24, u)).values + 0.7 * u - noise
    assert np.max(np.abs(residual)) < 1e-9


def test_integration_by_parts(torus24):
    # integral of (Delta f) g equals integral of f (Delta g)
    x = torus24.node_coords[:, 0]
    y = torus24.node_coords[:, 1]
    f = field(torus24, np.exp(np.cos(2 * math.pi * x)))
    g = field(torus24, np.sin(2 * math.pi * y) + 0.3 * np.cos(2 * math.pi * 2 * x))
    lhs = integrate(field(torus24, laplacian_apply(f).values * g.values))
    rhs = integrate(field(torus24, f.values * laplacian_apply(g).values))
    assert lhs == pytest.approx(rhs, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    k=st.integers(min_value=0, max_value=4),
    m=st.integers(min_value=0, max_value=4),
    amp=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
def test_laplacian_has_zero_mean(k, m, amp):
    grid = build_grid("torus", 16)
    x = grid.node_coords[:, 0]
    y = grid.node_coords[:, 1]
    f = field(grid, np.exp(amp * np.cos(2 * math.pi * (k * x + m * y))))
    assert abs(integrate(laplacian_apply(f))) < 1e-8


def test_conformal_density_mean_preserved(torus24):
    x = torus24.node_coords[:, 0]
    v = field(torus24, 0.01 * np.cos(2 * math.pi * x))
    w = conformal_density(torus24, v)
    assert integrate(w) == pytest.approx(TWO_PI, rel=1e-12)
    assert np.min(w.values) > 0


def test_scalar_field_validation(torus24):
    with pytest.raises(ValueError):
        ScalarField(torus24, np.zeros(3))
    with pytest.raises(ValueError):
        ScalarField(torus24, np.full(torus24.node_coords.shape[0], np.nan))


def test_grid_checksum_identifies_discretization():
    a = build_grid("torus", 16)
    b = build_grid("torus", 16)
    c = build_grid("torus", 24)
    d = build_grid("sphere", 16)
    assert a.checksum == b.checksum
    assert a.checksum != c.checksum
    assert a.checksum != d.checksum


def test_geodesic_distances():
    # radius 1/sqrt(2) sphere: antipodal distance pi/sqrt(2)
    assert geodesic_distance("sphere", (0.0, 0.0), (math.inf, math.inf)) == pytest.approx(
        math.pi / math.sqrt(2.0), rel=1e-12
    )
    # acos near 1 costs sqrt(eps) of accuracy
    assert geodesic_distance("sphere", (0.3, -0.1), (0.3, -0.1)) < 1e-7
    # flat torus scaled to area 2*pi: shortest wrap of (0.9, 0) is 0.1 side lengths
    assert geodesic_distance("torus", (0.0, 0.0), (0.9, 0.0)) == pytest.approx(
        0.1 * math.sqrt(TWO_PI), rel=1e-12
    )


def test_build_grid_validation():
    with pytest.raises(ValueError):
        build_grid("plane", 8)
    with pytest.raises(ValueError):
        build_grid("torus", 3)
