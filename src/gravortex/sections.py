"""Holomorphic-section data for effective divisors on the model surfaces.

A divisor D = sum_j n_j p_j of total degree N determines (up to a constant)
the background pointwise norm-squared a = |phi|_0^2 of a holomorphic section
vanishing to order n_j at p_j, computed against the degree-N background
hermitian metric whose curvature is the constant N (in the area-2*pi
normalisation).  Equivalently, with the positive Laplacian,

    (1/2) Laplacian(log a) = N    away from the divisor.

Closed forms are used on both surfaces, with C = -mean(log a_raw) over the surface (a_raw at
C = 0), so log a has mean zero and C is the same on every grid:

* sphere: a(z) = e^C |P(z)|^2 / (1+|z|^2)^N in the stereographic chart,
  with P monic vanishing at the finite divisor points; points at infinity
  lower deg P.  C = sum_finite n_j (1 - log(1 + |p_j|^2)) + n_inf, as log|x - p|
  has mean log 2 - 1/2 over the unit sphere.
* torus: a(z) = exp(C + sum_j 2 n_j G0(z - p_j)) where
  G0(z) = log|theta1(pi z | i)| - pi y^2 is the doubly periodic Green-type
  kernel of the square lattice (theta1 with nome q = e^{-pi}).  C = -2N log eta(i),
  eta(i) = Gamma(1/4) / (2 pi^{3/4}), by Jensen's formula on theta1's product
  (Whittaker & Watson, ch. 21).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    POINT_AT_INFINITY,
    ScalarField,
    SurfaceGrid,
    SurfaceModel,
    geodesic_distance,
    laplacian_apply,  # noqa: F401  (unused here; perfbench/tracer.py patches this binding)
)
from .stability import _multiplicities

_THETA_TERMS = 4  # |Im w| <= pi/2 in use: term k is below e^{-pi (k^2 - 1/4)} of the first
_LOG_ETA_I = math.lgamma(0.25) - math.log(2.0) - 0.75 * math.log(math.pi)  # mean of G0


def is_infinity(p) -> bool:
    return isinstance(p, tuple) and len(p) == 2 and math.isinf(p[0])


@dataclass(frozen=True)
class Divisor:
    """Effective divisor: chart points with positive integer multiplicities."""

    points: tuple
    multiplicities: tuple

    def __post_init__(self):
        pts = tuple(
            POINT_AT_INFINITY if is_infinity(p) else (float(p[0]), float(p[1]))
            for p in self.points
        )
        mult = _multiplicities(self.multiplicities)
        if len(pts) != len(mult) or not pts:
            raise ValueError("divisor needs matching, nonempty points and multiplicities")
        if any(m < 1 for m in mult):
            raise ValueError("multiplicities must be positive integers")
        if len(set(pts)) != len(pts):
            raise ValueError("divisor points must be pairwise distinct")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "multiplicities", mult)

    @property
    def total_degree(self) -> int:
        return sum(self.multiplicities)


@dataclass(frozen=True)
class SectionData:
    """Pointwise data of a section vanishing on a divisor.

    Attributes
    ----------
    divisor : Divisor
    grid : SurfaceGrid
    norm_sq : ScalarField
        a = |phi|_0^2 at the nodes.
    normalization : float
        The additive constant C of log(a), a function of the divisor alone in ``build_section``.
    """

    divisor: Divisor
    grid: SurfaceGrid
    norm_sq: ScalarField
    normalization: float


# ---------------------------------------------------------------------------
# closed-form log-norms
# ---------------------------------------------------------------------------


def sphere_log_norm_raw(divisor: Divisor, xy: np.ndarray) -> np.ndarray:
    """Un-normalised log a at stereographic points (n,2); C = 0 convention."""
    x = xy[:, 0]
    y = xy[:, 1]
    n = divisor.total_degree
    out = -n * np.log1p(x * x + y * y)
    for p, m in zip(divisor.points, divisor.multiplicities):
        if is_infinity(p):
            continue
        d2 = (x - p[0]) ** 2 + (y - p[1]) ** 2
        with np.errstate(divide="ignore"):
            out = out + m * np.log(d2)
    return out


def torus_green_kernel(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Doubly periodic kernel G0 with (1/2) Laplacian(2 G0) = 1 away from 0.

    G0(z) = log|theta1(pi z | i)| - pi y^2 at the wrapped offsets; theta1(w | i) = 2 sum_k
    (-1)^k q^{(k+1/2)^2} sin(n w), n = 2k+1, q = e^{-pi}, and at w = a + ib the sine is
    sin(n a) cosh(n b) + i cos(n a) sinh(n b): dx and dy broadcast (an x axis against a y axis
    costs one transcendental per axis point and term).
    """
    dx = np.mod(np.asarray(dx, dtype=float) + 0.5, 1.0) - 0.5
    dy = np.mod(np.asarray(dy, dtype=float) + 0.5, 1.0) - 0.5
    a, b, q = math.pi * dx, math.pi * dy, math.exp(-math.pi)
    re = im = 0.0
    for k in range(_THETA_TERMS):
        n, coeff = 2 * k + 1, 2.0 * (-1.0) ** k * q ** ((k + 0.5) ** 2)
        re = re + (coeff * np.sin(n * a)) * np.cosh(n * b)
        im = im + (coeff * np.cos(n * a)) * np.sinh(n * b)
    with np.errstate(divide="ignore"):
        return np.log(np.hypot(re, im)) - math.pi * dy * dy


def _torus_log_norm(divisor: Divisor, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Un-normalised log a at broadcastable torus coordinates x, y; C = 0 convention."""
    return sum(2.0 * m * torus_green_kernel(x - p[0], y - p[1])
               for p, m in zip(divisor.points, divisor.multiplicities))


def torus_log_norm_raw(divisor: Divisor, xy: np.ndarray) -> np.ndarray:
    """Un-normalised log a at torus points (n,2); C = 0 convention."""
    return _torus_log_norm(divisor, xy[:, 0], xy[:, 1])


# ---------------------------------------------------------------------------
# builder
# ---------------------------------------------------------------------------


def _validate_divisor_on(grid: SurfaceGrid, divisor: Divisor) -> Divisor:
    if grid.model is SurfaceModel.TORUS:
        if any(is_infinity(p) for p in divisor.points):
            raise ValueError("torus divisors cannot contain the point at infinity")
        pts = tuple((p[0] % 1.0, p[1] % 1.0) for p in divisor.points)
        divisor = Divisor(pts, divisor.multiplicities)
    # Divisor holds at most one point at infinity: every chart point at infinity is that one
    pts = divisor.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if geodesic_distance(grid.model, pts[i], pts[j]) < 1e-9:
                raise ValueError(f"divisor points {i} and {j} coincide")
    return divisor


def build_section(grid: SurfaceGrid, divisor: Divisor) -> SectionData:
    """Construct the section data of a divisor on a grid, at the module docstring's C."""
    divisor = _validate_divisor_on(grid, divisor)
    if grid.model is SurfaceModel.SPHERE:
        raw = sphere_log_norm_raw(divisor, grid.node_coords)
        c = sum(m if is_infinity(p) else m * (1.0 - math.log1p(p[0] * p[0] + p[1] * p[1]))
                for p, m in zip(divisor.points, divisor.multiplicities))
    else:  # node (x_i, y_j) is row i n + j: the kernel broadcasts the x axis against the y axis
        n = grid.resolution
        x, y = grid.node_coords[::n, 0], grid.node_coords[:n, 1]
        raw = _torus_log_norm(divisor, x[:, None], y).reshape(-1)
        c = -2.0 * divisor.total_degree * _LOG_ETA_I
    return SectionData(
        divisor=divisor,
        grid=grid,
        norm_sq=ScalarField(grid, np.exp(raw + c)),
        normalization=c,
    )


def rescale(section: SectionData, s: float) -> SectionData:
    """Multiply the section norm by e^{2s} (a -> e^{2s} a)."""
    s = float(s)
    return SectionData(
        divisor=section.divisor,
        grid=section.grid,
        norm_sq=ScalarField(section.grid, section.norm_sq.values * math.exp(2.0 * s)),
        normalization=section.normalization + 2.0 * s,
    )

