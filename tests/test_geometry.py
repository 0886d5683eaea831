"""Grids, quadrature, spectral Laplacians, and inverse operators."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravortex.geometry import (
    ScalarField,
    _legendre_tables,
    _spectral,
    _SphereTransform,
    build_grid,
    constant_field,
    field,
    geodesic_distance,
    integrate,
    laplacian_apply,
    laplacian_invert,
    laplacian_values,
    mean_value,
    prolong,
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


def _random_coefficients(sht, rng):
    """Random coefficients in the transform's layout, zero where no harmonic lives."""
    coef = rng.standard_normal((2, sht.lmax + 1, 2, sht.lmax // 2 + 1))
    coef *= sht.degrees() <= sht.lmax
    coef[:, 0, 1] = 0.0  # a real field has real m = 0 coefficients
    return coef


def _legendre_table(lmax, xi):
    """P_lm(xi) as one (m, l - m, node) table, interleaved from the parity pair."""
    p = np.empty((lmax + 1, lmax + 1, xi.shape[0]))
    p[:, 0::2], p[:, 1::2] = _legendre_tables(lmax, xi)
    return p


def _as_lm(sht, coef):
    """The layout's coefficients as a complex A[m, l] table."""
    table = np.zeros((sht.lmax + 1, sht.lmax + 1), dtype=complex)
    ls = np.broadcast_to(sht.degrees()[:, :, 0], coef[:, :, 0].shape)
    for parity, m, k in zip(*np.nonzero(ls <= sht.lmax)):
        table[m, ls[parity, m, k]] = coef[parity, m, 0, k] + 1j * coef[parity, m, 1, k]
    return table


@pytest.mark.parametrize("lmax,bound", [(23, 1e-12), (24, 1e-12), (96, 1e-12), (192, 2e-12)],
                         ids=["23", "24", "96", "192"])
def test_sht_round_trip_every_degree_and_order(lmax, bound):
    # odd and even n_lat (equator node or not); n_lon = 194 = 2 * 97 at L = 96
    sht = _SphereTransform(lmax)
    coef = _random_coefficients(sht, np.random.default_rng(lmax))
    back = sht.analyze(sht.synthesize(coef))
    # relative to the largest coefficient: the old complex-FFT transform
    # missed 1e-12 absolute at L = 96 too (1.6e-12); at L = 192 the weights'
    # own error shows (scipy's roots_legendre read 5.9e-12 to 1.2e-11 here)
    assert np.max(np.abs(back - coef)) <= bound * np.max(np.abs(coef))


def test_gauss_legendre_rule_at_n193_matches_a_30_digit_reference():
    mpmath = pytest.importorskip("mpmath")
    sht = _SphereTransform(192)
    n = sht.n_lat
    nodes, weights = [], []
    with mpmath.workdps(30):
        # (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}
        recurrence = [(mpmath.mpf(2 * k + 1) / (k + 1), mpmath.mpf(k) / (k + 1))
                      for k in range(1, n)]
        for i in range(1, (n + 1) // 2 + 1):  # the northern nodes and the equator, descending
            # Newton on P_n from Tricomi's asymptotic guess
            theta = mpmath.pi * (i - 0.25) / (n + 0.5)
            x, dx = (1 - mpmath.mpf(n - 1) / (8 * n**3)) * mpmath.cos(theta), 1
            while abs(dx) > mpmath.mpf(10) ** -28:
                p0, p1 = mpmath.mpf(1), x
                for a, b in recurrence:
                    p0, p1 = p1, a * x * p1 - b * p0
                dp = n * (x * p1 - p0) / (x * x - 1)
                dx = p1 / dp
                x -= dx
            nodes.append(float(x))
            weights.append(float(2 / ((1 - x * x) * dp * dp)))
    # the rule is symmetric about the equator
    xi_ref = np.array(nodes + [-x for x in nodes[: n // 2][::-1]])
    w_ref = np.array(weights + weights[: n // 2][::-1])
    assert np.max(np.abs(sht.xi - xi_ref)) <= 2e-16
    assert np.max(np.abs(sht.wgl - w_ref)) <= 1e-14


# even and odd n_lat = lmax + 1, at a small band limit and at L = 47, 48
@pytest.mark.parametrize("lmax", [12, 13, 47, 48])
def test_sht_matches_dense_quadrature(lmax):
    sht = _SphereTransform(lmax)
    p = _legendre_table(lmax, sht.xi)
    m = np.arange(lmax + 1)
    cos = np.cos(np.outer(m, sht.phi))  # (m, lon)
    sin = np.sin(np.outer(m, sht.phi))
    rng = np.random.default_rng(lmax)
    # analysis: A[m, l] = sum_j w_j P_lm(x_j) (1/n_lon) sum_k f_jk exp(-i m phi_k)
    f2d = rng.standard_normal((sht.n_lat, sht.n_lon))
    ref = np.zeros((lmax + 1, lmax + 1), dtype=complex)
    for mm in range(lmax + 1):
        c = (f2d @ cos[mm] - 1j * (f2d @ sin[mm])) / sht.n_lon
        ref[mm, mm:] = p[mm, : lmax + 1 - mm] @ (sht.wgl * c)  # p[m, l - m] for l = m..L
    assert np.max(np.abs(_as_lm(sht, sht.analyze(f2d)) - ref)) < 1e-13
    # synthesis: f_jk = sum_{l,m} (1 or 2) P_lm(x_j) Re(A[m, l] exp(i m phi_k))
    coef = _random_coefficients(sht, rng)
    table = _as_lm(sht, coef)
    ref = np.zeros((sht.n_lat, sht.n_lon))
    for mm in range(lmax + 1):
        g = table[mm, mm:] @ p[mm, : lmax + 1 - mm]
        ref += (1.0 if mm == 0 else 2.0) * (np.outer(g.real, cos[mm]) - np.outer(g.imag, sin[mm]))
    assert np.max(np.abs(sht.synthesize(coef) - ref)) < 1e-12


def test_sphere_laplacian_of_nonzonal_harmonics():
    grid = build_grid("sphere", 20)
    sht = grid._sht
    p = _legendre_table(sht.lmax, sht.xi)
    for l, m in [(3, 2), (4, 1), (7, 7), (12, 5)]:  # even and odd l - m
        y = np.outer(p[m, l - m], np.cos(m * sht.phi) + 0.4 * np.sin(m * sht.phi))
        got = laplacian_apply(field(grid, y)).values
        expected = 2.0 * l * (l + 1) * y.reshape(-1)
        assert np.max(np.abs(got - expected)) < 1e-11 * np.max(np.abs(expected))


def test_sht_storage_at_l96():
    # two parity-split tensors on the northern nodes plus one DFT matrix;
    # the padded (L+1)^3 pair it replaced held 14.6 MB
    sht = _SphereTransform(96)
    stored = sum(a.nbytes for a in vars(sht).values() if isinstance(a, np.ndarray))
    assert stored <= 4_000_000


def test_sht_build_peak_at_l96_stays_near_its_storage():
    # the Legendre pair is filled at its stored size: a full (L+1)^2 x n_north transient,
    # sliced into the pair afterwards, peaks at 1.96x the stored bytes; in place it is 1.13x
    tracemalloc.start()
    try:
        sht = _SphereTransform(96)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stored = sum(a.nbytes for a in vars(sht).values() if isinstance(a, np.ndarray))
    assert peak <= 1.5 * stored


def test_laplacian_annihilates_constants(torus24, sphere16):
    for grid in (torus24, sphere16):
        f = constant_field(grid, 3.7)
        assert np.max(np.abs(laplacian_apply(f).values)) < 1e-10


@pytest.mark.parametrize("n", [15, 16])
def test_torus_real_transform_matches_the_complex_fft(n):
    grid = build_grid("torus", n)
    assert grid._eigs.shape == (n, n // 2 + 1)  # the half spectrum
    x, y = grid.node_coords[:, 0], grid.node_coords[:, 1]
    rng = np.random.default_rng(n)
    # a random field plus the highest cosine on both axes (the Nyquist mode for even n)
    values = rng.standard_normal(n * n) + np.cos(TWO_PI * (n // 2) * x) \
        + 0.5 * np.cos(TWO_PI * (n // 2) * y)
    k = np.fft.fftfreq(n, 1.0 / n)
    full = TWO_PI * (k[:, None] ** 2 + k[None, :] ** 2)
    for half, mult in ((grid._eigs, full), (1.0 / (grid._eigs + 0.7), 1.0 / (full + 0.7))):
        want = np.real(np.fft.ifft2(np.fft.fft2(values.reshape(n, n)) * mult)).reshape(-1)
        got = _spectral(grid, values, half)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [16, 32, 48, 64])
def test_torus_transform_is_bit_identical_to_rfft2(n):
    # the 1-D passes axis by axis are rfft2's own: one row and a (2, n_nodes) stack alike
    grid = build_grid("torus", n)
    rng = np.random.default_rng(n)
    mult = 1.0 / (grid._eigs + 0.7)
    for shape, m in (((n * n,), mult), ((2, n * n), np.stack([mult, grid._eigs]))):
        values = rng.standard_normal(shape)
        v2 = values.reshape(shape[:-1] + (n, n))
        want = np.fft.irfft2(np.fft.rfft2(v2) * m, s=(n, n)).reshape(shape)
        assert np.array_equal(_spectral(grid, values, m), want)


@pytest.mark.parametrize("model,resolution", [("torus", 24), ("sphere", 16)])
def test_laplacian_ignores_the_mean(model, resolution):
    grid = build_grid(model, resolution)
    x, y = grid.node_coords[:, 0], grid.node_coords[:, 1]
    values = 0.07 * np.sin(TWO_PI * x) * np.cos(TWO_PI * 2 * y) - 0.45
    base = laplacian_values(grid, values)
    # the mean goes before the transform, so a constant leaves no FFT roundoff behind
    assert np.max(np.abs(laplacian_values(grid, values + 0.45) - base)) <= 1e-14 * np.max(
        np.abs(base))


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


@pytest.mark.parametrize("shift", [0.0, -0.5, math.nan, math.inf])
def test_smoothing_invert_rejects_nonpositive_shift(sphere16, torus24, shift):
    for grid in (sphere16, torus24):
        with pytest.raises(ValueError, match="shift"):
            smoothing_invert(np.zeros(grid.n_nodes), grid, shift=shift)


@pytest.mark.parametrize("model,resolution", [("torus", 16), ("torus", 15), ("sphere", 12),
                                              ("sphere", 13)])
def test_a_stack_of_rows_equals_one_call_per_row(model, resolution):
    # one call for a (k, n_nodes) stack: every row comes out exactly as from its own call
    grid, fine = build_grid(model, resolution), build_grid(model, 2 * resolution)
    rng = np.random.default_rng(resolution)
    stack = rng.standard_normal((3, grid.n_nodes)) + np.array([[0.4], [-2.0], [0.0]])
    shifts = (0.3, 2.5, 1e-6)
    want = [smoothing_invert(row, grid, s) for row, s in zip(stack, shifts)]
    assert np.array_equal(smoothing_invert(stack, grid, shifts), want)
    assert np.array_equal(laplacian_values(grid, stack), [laplacian_values(grid, r) for r in stack])
    assert np.array_equal(prolong(stack, grid, fine), [prolong(r, grid, fine) for r in stack])


@pytest.mark.parametrize("bad", [0.0, -0.5, math.nan, math.inf])
def test_smoothing_invert_rejects_a_stack_with_one_bad_shift(sphere16, torus24, bad):
    for grid in (sphere16, torus24):
        stack = np.zeros((2, grid.n_nodes))
        for shifts in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="shift"):
                smoothing_invert(stack, grid, shifts)
        with pytest.raises(ValueError):  # one shift per row, no fewer and no more
            smoothing_invert(stack, grid, (1.0, 1.0, 1.0))


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


def test_scalar_field_validation(torus24):
    with pytest.raises(ValueError):
        ScalarField(torus24, np.zeros(3))
    with pytest.raises(ValueError):
        ScalarField(torus24, np.full(torus24.node_coords.shape[0], np.nan))


def _torus_band_limited(grid, n_coarse, rng):
    """Random real trigonometric polynomial below the Nyquist mode of an n_coarse grid,
    plus (n_coarse even) a Nyquist cosine, at the nodes of ``grid``."""
    x, y = 2.0 * math.pi * grid.node_coords.T
    top = (n_coarse - 1) // 2
    out = np.zeros(grid.n_nodes)
    for k in range(-top, top + 1):
        for m in range(-top, top + 1):
            a, b = rng.standard_normal(2)
            out += a * np.cos(k * x + m * y) + b * np.sin(k * x + m * y)
    if n_coarse % 2 == 0:
        half = 0.5 * n_coarse  # Nyquist rows, columns and the corner mode
        out += 0.7 * np.cos(half * x) * np.sin(3 * y) + 0.4 * np.cos(half * y)
        out += 0.5 * np.cos(half * x) * np.cos(half * y)
    return out


@pytest.mark.parametrize("n_coarse,n_fine", [(16, 64), (15, 32), (12, 13)])
def test_torus_prolong_is_exact_on_band_limited_data(n_coarse, n_fine):
    coarse, fine = build_grid("torus", n_coarse), build_grid("torus", n_fine)
    got = prolong(_torus_band_limited(coarse, n_coarse, np.random.default_rng(n_coarse)),
                  coarse, fine)
    want = _torus_band_limited(fine, n_coarse, np.random.default_rng(n_coarse))
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def _sphere_band_limited(grid, degree, rng):
    """Sum of powers (a . x)^k, k <= degree, of random directions a: degree <= ``degree``."""
    sht = grid._sht
    xi, phi = np.meshgrid(sht.xi, sht.phi, indexing="ij")
    s = np.sqrt(1.0 - xi * xi)
    unit = np.stack([s * np.cos(phi), s * np.sin(phi), xi], axis=-1).reshape(-1, 3)
    out = np.zeros(grid.n_nodes)
    for k in range(degree + 1):
        a = rng.standard_normal(3)
        out += rng.standard_normal() * (unit @ (a / np.linalg.norm(a))) ** k
    return out


@pytest.mark.parametrize("l_coarse,l_fine", [(12, 48), (13, 24), (24, 96)])
def test_sphere_prolong_is_exact_on_degree_at_most_the_coarse_band_limit(l_coarse, l_fine):
    coarse, fine = build_grid("sphere", l_coarse), build_grid("sphere", l_fine)
    got = prolong(_sphere_band_limited(coarse, l_coarse, np.random.default_rng(l_coarse)),
                  coarse, fine)
    want = _sphere_band_limited(fine, l_coarse, np.random.default_rng(l_coarse))
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_prolong_to_the_same_grid_is_the_identity():
    rng = np.random.default_rng(5)
    for n in (16, 15):  # the torus grid is bijective: any node values
        grid = build_grid("torus", n)
        values = rng.standard_normal(grid.n_nodes)
        assert np.max(np.abs(prolong(values, grid, grid) - values)) < 1e-13
    # the sphere grid holds twice the band-limited dimension: band-limited values
    grid = build_grid("sphere", 13)
    coef = _random_coefficients(grid._sht, rng)
    values = grid._sht.synthesize(coef).reshape(-1)
    assert np.max(np.abs(prolong(values, grid, grid) - values)) < 1e-12


def test_prolong_rejects_a_coarser_or_different_target():
    torus16 = build_grid("torus", 16)
    values = np.zeros(torus16.n_nodes)
    for target in (build_grid("torus", 8), build_grid("sphere", 16)):
        with pytest.raises(ValueError, match="cannot prolong"):
            prolong(values, torus16, target)


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


def test_the_quarter_grid_is_built_once_and_read_only():
    for model, resolution in (("sphere", 49), ("torus", 64)):
        grid = build_grid(model, resolution)
        quarter = grid.quarter_grid
        assert quarter.model is grid.model and quarter.resolution == resolution // 4
        assert grid.quarter_grid is quarter
        with pytest.raises(AttributeError):
            grid.quarter_grid = build_grid(model, resolution // 4)
        assert grid.quarter_grid is quarter


def test_build_grid_validation():
    with pytest.raises(ValueError):
        build_grid("plane", 8)
    with pytest.raises(ValueError):
        build_grid("torus", 3)
    # a non-integer resolution once built the grid of its integer part (48.7 -> n = 48)
    for resolution in (48.7, 8.0, np.float64(8.0), True, "8"):
        with pytest.raises(ValueError, match="integer"):
            build_grid("torus", resolution)
    assert build_grid("sphere", np.int64(8)).resolution == 8
