"""Spectral geometry on two model surfaces of total area 2*pi.

Two backgrounds are supported:

* ``sphere`` -- the round sphere of radius 1/sqrt(2) (area 2*pi, scalar
  curvature 4), sampled on a Gauss-Legendre x equispaced-longitude grid.
  The resolution parameter is the spherical-harmonic band limit L; the
  grid has (L+1) latitudes and 2(L+1) longitudes.
* ``torus`` -- the flat square torus C/(Z+iZ) rescaled to area 2*pi,
  sampled on an n x n equispaced grid.  The resolution parameter is n.

The sign convention for the Laplacian is geometer's: ``laplacian_apply``
returns a positive semidefinite operator (minus the analyst's Laplacian),
normalised so that on the torus the Fourier mode exp(2*pi*i(kx+my)) has
eigenvalue 2*pi*(k^2+m^2) and on the sphere the degree-l harmonics have
eigenvalue 2*l*(l+1).  Equivalently, in a local conformal chart with
euclidean density lambda (area element lambda dx dy, total area 2*pi),
``laplacian_apply(f) = -(1/lambda) * (f_xx + f_yy)``.

All transforms are spectral: exact on band-limited data, spectrally
accurate on smooth data.  Quadrature weights integrate band-limited
products exactly (Gauss-Legendre in latitude; trapezoid == exact in the
periodic directions).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import roots_legendre

TWO_PI = 2.0 * math.pi

#: Chart marker for the point at infinity of the stereographic plane.
POINT_AT_INFINITY = (math.inf, math.inf)


class SurfaceModel(str, Enum):
    """The two supported background surfaces."""

    SPHERE = "sphere"
    TORUS = "torus"


# ---------------------------------------------------------------------------
# spherical-harmonic machinery
# ---------------------------------------------------------------------------


def _legendre_tables(lmax: int, xi: np.ndarray) -> list[np.ndarray]:
    """Orthonormal associated Legendre functions at the nodes ``xi``.

    Returns a list indexed by order m; entry m is the (n_nodes, lmax+1-m)
    array of P_lm(xi) for l = m..lmax, normalised so that
    integral_{-1}^{1} P_lm(x) P_l'm(x) dx = delta_{l l'}.  Uses the
    standard stable three-term recurrences (no Condon-Shortley phase).
    """
    n = xi.shape[0]
    s = np.sqrt(np.maximum(0.0, 1.0 - xi * xi))
    tables: list[np.ndarray] = []
    # seed: P_mm, built up in m
    pmm = np.full(n, math.sqrt(0.5))
    for m in range(lmax + 1):
        cols = np.empty((n, lmax + 1 - m))
        cols[:, 0] = pmm
        if m + 1 <= lmax:
            cols[:, 1] = math.sqrt(2 * m + 3) * xi * pmm
        for l in range(m + 2, lmax + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            cols[:, l - m] = a * (xi * cols[:, l - m - 1] - b * cols[:, l - m - 2])
        tables.append(cols)
        if m < lmax:
            pmm = pmm * s * math.sqrt((2.0 * m + 3.0) / (2.0 * m + 2.0))
    return tables


class _SphereTransform:
    """Forward/inverse spherical-harmonic transform on the GL x FFT grid.

    The Legendre stage is stored as one padded (order, node, degree) tensor
    so analysis/synthesis are batched matmuls (BLAS) instead of per-order
    Python loops; entries with l < m are structurally zero.
    """

    def __init__(self, lmax: int):
        self.lmax = lmax
        self.n_lat = lmax + 1
        self.n_lon = 2 * (lmax + 1)
        nodes, wgl = roots_legendre(self.n_lat)
        # store north -> south (descending xi) so latitude index runs
        # from the north pole toward the south pole
        self.xi = nodes[::-1].copy()
        self.wgl = wgl[::-1].copy()
        self.phi = TWO_PI * np.arange(self.n_lon) / self.n_lon
        tables = _legendre_tables(lmax, self.xi)
        t3 = np.zeros((lmax + 1, self.n_lat, lmax + 1))
        for m, t in enumerate(tables):
            t3[m, :, m:] = t
        self._t3 = t3  # (m, node, l)
        self._t3t = np.ascontiguousarray(t3.transpose(0, 2, 1))  # (m, l, node)
        self.degrees = np.arange(lmax + 1)

    def analyze(self, f2d: np.ndarray) -> np.ndarray:
        """Packed coefficients A[m, l] (zero for l < m) of a real field."""
        c = np.fft.fft(f2d, axis=1)[:, : self.lmax + 1] / self.n_lon  # (node, m)
        b = c * self.wgl[:, None]
        br = np.stack([b.real.T[:, :, None], b.imag.T[:, :, None]], axis=-1)[..., 0, :]
        ab = np.matmul(self._t3t, br)  # (m, l, 2)
        return ab[..., 0] + 1j * ab[..., 1]

    def synthesize(self, packed: np.ndarray) -> np.ndarray:
        ar = np.stack([packed.real, packed.imag], axis=-1)  # (m, l, 2)
        gb = np.matmul(self._t3, ar)  # (m, node, 2)
        g = (gb[..., 0] + 1j * gb[..., 1]).T  # (node, m)
        c = np.zeros((self.n_lat, self.n_lon), dtype=complex)
        c[:, : self.lmax + 1] = g
        c[:, self.n_lon - self.lmax :] = np.conj(g[:, 1:][:, ::-1])
        return np.real(np.fft.ifft(c, axis=1)) * self.n_lon

    def apply_multiplier(self, f2d: np.ndarray, mult) -> np.ndarray:
        packed = self.analyze(f2d)
        return self.synthesize(packed * mult(self.degrees)[None, :])


# ---------------------------------------------------------------------------
# grids and fields
# ---------------------------------------------------------------------------


class SurfaceGrid:
    """Immutable sampling of one of the model surfaces.

    Attributes
    ----------
    model : SurfaceModel
    resolution : int
        Band limit L (sphere) or grid side n (torus).
    genus : int
        0 or 1.
    base_scalar_curvature : float
        Riemannian scalar curvature of the background metric (4 or 0).
    node_coords : ndarray, shape (n_nodes, 2)
        Chart coordinates per node: stereographic (X, Y) on the sphere,
        fundamental-square (x, y) in [0,1)^2 on the torus.
    quad_weights : ndarray, shape (n_nodes,)
        Quadrature weights for the background area form; they sum to 2*pi.
    """

    def __init__(self, model: SurfaceModel, resolution: int):
        model = SurfaceModel(model)
        if resolution < 4:
            raise ValueError(f"resolution must be >= 4, got {resolution}")
        self.model = model
        self.resolution = int(resolution)
        if model is SurfaceModel.SPHERE:
            self.genus = 0
            self.base_scalar_curvature = 4.0
            sht = _SphereTransform(self.resolution)
            self._sht = sht
            self._shape = (sht.n_lat, sht.n_lon)
            xi2, phi2 = np.meshgrid(sht.xi, sht.phi, indexing="ij")
            st = np.sqrt(np.maximum(0.0, 1.0 - xi2 * xi2))
            # unit-sphere embedding, used for geodesic distances
            self._embed = np.stack(
                [st * np.cos(phi2), st * np.sin(phi2), xi2], axis=-1
            ).reshape(-1, 3)
            r = np.sqrt((1.0 - xi2) / (1.0 + xi2))
            coords = np.stack([r * np.cos(phi2), r * np.sin(phi2)], axis=-1)
            self.node_coords = coords.reshape(-1, 2)
            w2 = 0.5 * sht.wgl[:, None] * (TWO_PI / sht.n_lon) * np.ones((1, sht.n_lon))
            self.quad_weights = w2.reshape(-1)
            self._xi_flat = xi2.reshape(-1)
        else:
            self.genus = 1
            self.base_scalar_curvature = 0.0
            n = self.resolution
            self._shape = (n, n)
            t = np.arange(n) / n
            x2, y2 = np.meshgrid(t, t, indexing="ij")
            self.node_coords = np.stack([x2, y2], axis=-1).reshape(-1, 2)
            self.quad_weights = np.full(n * n, TWO_PI / (n * n))
            k = np.fft.fftfreq(n, d=1.0 / n)
            kx, ky = np.meshgrid(k, k, indexing="ij")
            self._eigs2d = TWO_PI * (kx * kx + ky * ky)
        self.n_nodes = self.node_coords.shape[0]
        h = hashlib.sha256()
        h.update(f"{self.model.value}:{self.resolution}:".encode())
        h.update(np.ascontiguousarray(self.node_coords).tobytes())
        self.checksum = h.hexdigest()
        self.node_coords.setflags(write=False)
        self.quad_weights.setflags(write=False)

    @property
    def euler_characteristic(self) -> int:
        return 2 - 2 * self.genus

    @property
    def area(self) -> float:
        return TWO_PI

    def to2d(self, values: np.ndarray) -> np.ndarray:
        return values.reshape(self._shape)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SurfaceGrid({self.model.value}, resolution={self.resolution})"


def build_grid(model, resolution: int) -> SurfaceGrid:
    """Construct a surface grid.

    Parameters
    ----------
    model : SurfaceModel or str
        "sphere" or "torus".
    resolution : int
        Sphere: spherical-harmonic band limit L (grid is (L+1) x (2L+2)).
        Torus: grid side n (grid is n x n).
    """
    return SurfaceGrid(SurfaceModel(model), resolution)


@dataclass(frozen=True)
class ScalarField:
    """A real scalar field sampled at the nodes of a grid."""

    grid: SurfaceGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape == self.grid._shape:
            v = v.reshape(-1)
        if v.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"field shape {v.shape} does not match grid with {self.grid.n_nodes} nodes"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def grid_id(self) -> str:
        return self.grid.checksum


def field(grid: SurfaceGrid, values) -> ScalarField:
    """Wrap node values (flat or 2-d) as a :class:`ScalarField`."""
    return ScalarField(grid, np.asarray(values, dtype=float))


def constant_field(grid: SurfaceGrid, value: float) -> ScalarField:
    return ScalarField(grid, np.full(grid.n_nodes, float(value)))


def same_grid(a: SurfaceGrid, b: SurfaceGrid) -> bool:
    return a is b or a.checksum == b.checksum


def _require_same_grid(f: ScalarField, grid: SurfaceGrid) -> None:
    if not same_grid(f.grid, grid):
        raise ValueError("field does not live on the given grid")


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def integrate(f: ScalarField) -> float:
    """Integral of f against the background area form (total area 2*pi)."""
    return float(np.dot(f.grid.quad_weights, f.values))


def mean_value(f: ScalarField) -> float:
    """Area average of f."""
    return integrate(f) / TWO_PI


def laplacian_values(grid: SurfaceGrid, values: np.ndarray) -> np.ndarray:
    """Positive background Laplacian of raw node values (the hot-loop form)."""
    v2 = grid.to2d(values)
    if grid.model is SurfaceModel.SPHERE:
        out = grid._sht.apply_multiplier(v2, lambda ls: 2.0 * ls * (ls + 1.0))
    else:
        out = np.real(np.fft.ifft2(np.fft.fft2(v2) * grid._eigs2d))
    return out.reshape(-1)


def laplacian_apply(f: ScalarField) -> ScalarField:
    """Positive background Laplacian of f (spectral; exact on band-limited data)."""
    return ScalarField(f.grid, laplacian_values(f.grid, f.values))


def laplacian_invert(rhs: ScalarField) -> ScalarField:
    """Solve (positive Laplacian) u = rhs for the mean-zero u.

    The right-hand side must have zero integral: ``|integral(rhs)|`` may not
    exceed 1e-10 times the L2 norm of rhs.  Raises ValueError otherwise,
    reporting the offending mean value.
    """
    grid = rhs.grid
    total = integrate(rhs)
    l2 = math.sqrt(float(np.dot(grid.quad_weights, rhs.values**2)))
    if abs(total) > 1e-10 * l2:
        raise ValueError(
            f"laplacian_invert needs a mean-zero right-hand side; "
            f"got mean {total / TWO_PI:.3e}"
        )
    v2 = grid.to2d(rhs.values)
    if grid.model is SurfaceModel.SPHERE:

        def mult(ls):
            lam = 2.0 * ls * (ls + 1.0)
            with np.errstate(divide="ignore"):
                inv = np.where(lam > 0.0, 1.0 / np.where(lam > 0.0, lam, 1.0), 0.0)
            return inv

        out = grid._sht.apply_multiplier(v2, mult)
    else:
        spec = np.fft.fft2(v2)
        lam = grid._eigs2d.copy()
        lam[0, 0] = 1.0
        spec = spec / lam
        spec[0, 0] = 0.0
        out = np.real(np.fft.ifft2(spec))
    u = ScalarField(grid, out.reshape(-1))
    # remove quadrature-level residue of the mean so the result is mean-zero
    return ScalarField(grid, u.values - mean_value(u))


def smoothing_invert(f_values: np.ndarray, grid: SurfaceGrid, shift: float = 1.0) -> np.ndarray:
    """Apply the exact spectral (Laplacian + shift)^{-1} to raw node values.

    Preconditioner helper; shift must be positive.
    """
    v2 = grid.to2d(np.asarray(f_values, dtype=float))
    if grid.model is SurfaceModel.SPHERE:
        out = grid._sht.apply_multiplier(v2, lambda ls: 1.0 / (2.0 * ls * (ls + 1.0) + shift))
    else:
        out = np.real(np.fft.ifft2(np.fft.fft2(v2) / (grid._eigs2d + shift)))
    return out.reshape(-1)


def conformal_density(grid: SurfaceGrid, v: ScalarField) -> ScalarField:
    """Density 1 - (Laplacian v) of the conformal metric relative to the background.

    Positivity is the caller's concern: the field is returned as computed and
    ``min(density.values) > 0`` is the metric-positivity flag.
    """
    _require_same_grid(v, grid)
    lap = laplacian_apply(v)
    return ScalarField(grid, 1.0 - lap.values)


# ---------------------------------------------------------------------------
# chart points and distances
# ---------------------------------------------------------------------------


def _sphere_unit_vector(p) -> np.ndarray:
    if p == POINT_AT_INFINITY or (isinstance(p, tuple) and math.isinf(p[0])):
        return np.array([0.0, 0.0, -1.0])
    x, y = float(p[0]), float(p[1])
    r2 = x * x + y * y
    return np.array([2.0 * x, 2.0 * y, 1.0 - r2]) / (1.0 + r2)


def geodesic_distance(model: SurfaceModel, p, q) -> float:
    """Geodesic distance between two chart points on the area-2*pi surface."""
    model = SurfaceModel(model)
    if model is SurfaceModel.SPHERE:
        a, b = _sphere_unit_vector(p), _sphere_unit_vector(q)
        return math.acos(min(1.0, max(-1.0, float(np.dot(a, b))))) / math.sqrt(2.0)
    dx = (p[0] - q[0]) % 1.0
    dy = (p[1] - q[1]) % 1.0
    dx = min(dx, 1.0 - dx)
    dy = min(dy, 1.0 - dy)
    return math.sqrt(TWO_PI) * math.hypot(dx, dy)


def node_distances(grid: SurfaceGrid, p) -> np.ndarray:
    """Geodesic distance from every grid node to the chart point p."""
    if grid.model is SurfaceModel.SPHERE:
        v = _sphere_unit_vector(p)
        dots = np.clip(grid._embed @ v, -1.0, 1.0)
        return np.arccos(dots) / math.sqrt(2.0)
    dx = (grid.node_coords[:, 0] - p[0]) % 1.0
    dy = (grid.node_coords[:, 1] - p[1]) % 1.0
    dx = np.minimum(dx, 1.0 - dx)
    dy = np.minimum(dy, 1.0 - dy)
    return math.sqrt(TWO_PI) * np.hypot(dx, dy)

