"""Holomorphic section norms: construction, normalization, curvature identity."""

import math

import numpy as np
import pytest

from gravortex import sections
from gravortex.geometry import POINT_AT_INFINITY, build_grid, geodesic_distance
from gravortex.sections import (
    Divisor,
    build_section,
    rescale,
    sphere_log_norm_raw,
    torus_green_kernel,
    torus_log_norm_raw,
)


def test_divisor_validation():
    with pytest.raises(ValueError):
        Divisor(points=(), multiplicities=())
    with pytest.raises(ValueError):
        Divisor(points=((0.0, 0.0),), multiplicities=(0,))
    with pytest.raises(ValueError):
        Divisor(points=((0.0, 0.0), (0.0, 0.0)), multiplicities=(1, 1))
    d = Divisor(points=((0.0, 0.0), (0.5, 0.5)), multiplicities=(2, 1))
    assert d.total_degree == 3


def test_surface_divisor_compatibility():
    torus = build_grid("torus", 8)
    sphere = build_grid("sphere", 8)
    inf_divisor = Divisor(points=(POINT_AT_INFINITY,), multiplicities=(1,))
    with pytest.raises(ValueError):
        build_section(torus, inf_divisor)
    build_section(sphere, inf_divisor)  # fine there
    # any chart point with an infinite coordinate is THE point at infinity, so two of them
    # are one point twice
    with pytest.raises(ValueError, match="pairwise distinct"):
        Divisor(points=(POINT_AT_INFINITY, (math.inf, 0.0)), multiplicities=(1, 1))
    # distinct chart points that the surface cannot tell apart
    for grid, points in ((sphere, ((0.0, 0.0), (1e-12, 0.0))),
                         (torus, ((0.25, 0.25), (0.25 + 1e-12, 0.25)))):
        with pytest.raises(ValueError, match="points 0 and 1 coincide"):
            build_section(grid, Divisor(points=points, multiplicities=(1, 1)))


def _log_eta_i():
    """log eta(i) by its product, -pi/12 + sum_n log(1 - e^{-2 pi n}): the mean of G0."""
    return -math.pi / 12.0 + sum(math.log1p(-math.exp(-2.0 * math.pi * k)) for k in range(1, 12))


def test_normalization_is_the_closed_form_mean_on_every_grid():
    # C = -mean(log a_raw): sum_finite m_j (1 - log(1 + |p_j|^2)) + m_inf on the sphere,
    # -2N log eta(i) on the torus; bit for bit the same C on every grid, and the quadrature
    # mean of log a falls toward 0 as the grid refines (its log singularity limits the rate)
    cases = (("sphere", ((0.0, 0.0), (1.0, 0.5)), 2.0 - math.log(2.25), (48, 192), 3e-5),
             ("torus", ((0.1, 0.2),), -2.0 * _log_eta_i(), (32, 128, 1024), 5e-7))
    for model, points, c, grids, finest in cases:
        divisor, normalizations, means = Divisor(points, (1,) * len(points)), set(), []
        for resolution in grids:
            grid = build_grid(model, resolution)
            section = build_section(grid, divisor)
            normalizations.add(section.normalization)
            means.append(abs(float(np.average(np.log(section.norm_sq.values),
                                              weights=grid.quad_weights))))
        assert len(normalizations) == 1 and normalizations.pop() == pytest.approx(c, rel=1e-15)
        assert means == sorted(means, reverse=True)
        assert means[-1] < finest
    # a point at infinity counts m_inf, a multiplicity scales its point's term
    three = Divisor(((0.5, 0.0), POINT_AT_INFINITY, (-0.5, 0.0)), (2, 1, 1))
    want = 3.0 * (1.0 - math.log(1.25)) + 1.0
    assert build_section(build_grid("sphere", 16), three).normalization == pytest.approx(want)


def test_antipodal_section_is_one_minus_xi_squared(antipodal_section16):
    # |z|^2 / (1+|z|^2)^2 = (1-xi^2)/4, at C = 1 + 1 for the points at 0 and infinity
    grid = antipodal_section16.grid
    xi = grid._xi_flat
    expected = math.e ** 2 * (1.0 - xi * xi) / 4.0
    assert antipodal_section16.normalization == 2.0
    assert np.max(np.abs(antipodal_section16.norm_sq.values - expected)) < 1e-13
    assert np.all(antipodal_section16.norm_sq.values >= 0.0)


def test_sphere_section_vanishing_orders(sphere16):
    divisor = Divisor(points=((0.0, 0.0), POINT_AT_INFINITY), multiplicities=(1, 1))
    section = build_section(sphere16, divisor)
    # the norm vanishes where the divisor sits and nowhere else on this grid;
    # z = 0 is the north pole, xi = 1, so the nearest node has the largest xi
    near = section.norm_sq.values[np.argmax(sphere16._xi_flat)]
    assert near < 0.1
    assert np.min(section.norm_sq.values) > 0  # nodes never sit exactly on a zero


_CURVATURE_CASES = {
    "torus-one-point": ("torus", ((0.25, 0.25),), (1,)),
    "torus-multiplicity": ("torus", ((0.2, 0.3), (0.7, 0.6)), (1, 2)),
    "sphere-antipodal": ("sphere", ((0.0, 0.0), POINT_AT_INFINITY), (1, 1)),
    "sphere-multiplicity": ("sphere", ((0.5, 0.0), (-0.5, 0.0)), (2, 1)),
    "sphere-three-point": ("sphere", ((0.0, 0.0), POINT_AT_INFINITY, (1.0, 0.0)), (1, 1, 1)),
}


def _chart_curvature(model, divisor, xy, h=2e-3):
    """(1/2) Laplacian(log a) at chart points by a fourth-order 5-point stencil per axis.

    Positive Laplacian -(1/lambda)(d_xx + d_yy) with the chart metric lambda:
    2/(1+|z|^2)^2 on the stereographic sphere, 2*pi on the unit-square torus.
    """
    raw = sphere_log_norm_raw if model == "sphere" else torus_log_norm_raw
    flat = 0.0
    for axis in (np.array([h, 0.0]), np.array([0.0, h])):
        ring = [raw(divisor, xy + k * axis) for k in (-2, -1, 0, 1, 2)]
        flat += (-ring[0] + 16 * ring[1] - 30 * ring[2] + 16 * ring[3] - ring[4]) / (12 * h * h)
    lam = 2.0 / (1.0 + np.sum(xy * xy, axis=1)) ** 2 if model == "sphere" else 2 * math.pi
    return -0.5 * flat / lam


@pytest.mark.parametrize("case", sorted(_CURVATURE_CASES))
def test_curvature_identity_by_chart_differences(case):
    # the closed forms satisfy (1/2) Laplacian(log a) = N away from the divisor.
    # The stencil's error here is at most 2.2e-8; a wrong (1+|z|^2) power or an
    # added 0.05 (y - 1/2)^2 misses by 8.5e-3 or more
    model, points, mults = _CURVATURE_CASES[case]
    divisor = Divisor(points, mults)
    rng = np.random.default_rng(11)
    box = (-2.0, 2.0) if model == "sphere" else (0.0, 1.0)
    xy = np.array([q for q in rng.uniform(*box, size=(200, 2))
                   if min(geodesic_distance(model, tuple(q), p) for p in points) >= 0.3])
    assert len(xy) >= 50
    defect = _chart_curvature(model, divisor, xy) - divisor.total_degree
    assert np.max(np.abs(defect)) < 1e-6


def test_rescale_shifts_scale(torus24_section):
    scaled = rescale(torus24_section, 0.5)
    # a node can sit exactly on the zero, so compare products not ratios
    diff = scaled.norm_sq.values - math.e * torus24_section.norm_sq.values
    assert np.max(np.abs(diff)) < 1e-12
    assert scaled.normalization == pytest.approx(torus24_section.normalization + 1.0)


def _log_theta1_kernel(w):
    """torus_green_kernel at z = w / pi, plus pi y^2: log|theta1(w | i)| by its separable terms."""
    dx, dy = np.real(w) / math.pi, np.imag(w) / math.pi
    return torus_green_kernel(dx, dy) + math.pi * dy * dy


def test_theta1_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    q = mp.exp(-mp.pi)
    for w in (0.3, 0.7 + 0.2j, -1.1 + 0.9j):
        mine = _log_theta1_kernel(complex(w))
        ref = complex(mp.jtheta(1, mp.mpc(w), q))
        # a relative error e in theta1 is an absolute error e in log|theta1|
        assert abs(mine - math.log(abs(ref))) < 1e-13


def test_theta1_is_exact_on_the_wrapped_domain_with_four_terms(monkeypatch):
    # torus_green_kernel sums theta1 at pi (dx + i dy), |dx|, |dy| <= 1/2, where term k is at
    # most e^{-pi (k^2 - 1/4)} of the first: terms from k = 4 on fall below 1.5e-22
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(1904)
    w = math.pi * (rng.uniform(-0.5, 0.5, 300) + 1j * rng.uniform(-0.5, 0.5, 300))
    with mpmath.workdps(30):
        q = mpmath.exp(-mpmath.pi)
        want = np.array([float(mpmath.log(abs(mpmath.jtheta(1, mpmath.mpc(z), q)))) for z in w])

    def worst():
        return float(np.max(np.abs(_log_theta1_kernel(w) - want)))

    assert sections._THETA_TERMS == 4 and worst() < 2e-15
    monkeypatch.setattr(sections, "_THETA_TERMS", 3)  # one term fewer misses near |Im w| = pi/2
    assert worst() > 2e-15


def test_torus_green_kernel_periodicity():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-0.4, 0.4, size=(6, 2))
    base = torus_green_kernel(pts[:, 0], pts[:, 1])
    for shift in ((1.0, 0.0), (0.0, 1.0), (2.0, -1.0)):
        shifted = torus_green_kernel(pts[:, 0] + shift[0], pts[:, 1] + shift[1])
        assert np.max(np.abs(shifted - base)) < 1e-12


def test_torus_multi_point_section():
    grid = build_grid("torus", 32)
    divisor = Divisor(points=((0.2, 0.3), (0.7, 0.6)), multiplicities=(1, 2))
    section = build_section(grid, divisor)
    assert section.divisor.total_degree == 3
    assert section.normalization == pytest.approx(-6.0 * _log_eta_i(), rel=1e-15)

