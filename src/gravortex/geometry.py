"""Spectral geometry on two model surfaces of total area 2*pi.

* ``sphere`` -- the round sphere of radius 1/sqrt(2) (area 2*pi, scalar
  curvature 4), sampled on (L+1) Gauss-Legendre latitudes x 2(L+1)
  equispaced longitudes for the spherical-harmonic band limit L; the
  latitude rule is numpy's ``leggauss`` (Golub-Welsch plus one Newton step).
* ``torus`` -- the flat square torus C/(Z+iZ) rescaled to area 2*pi,
  sampled on an n x n equispaced grid (half-spectrum ``_eigs``; ``_spectral`` runs
  numpy's 1-D FFTs axis by axis, the passes of ``rfft2`` without its wrapper).

The Laplacian is the geometer's (positive semidefinite, minus the
analyst's): the torus mode exp(2*pi*i(kx+my)) has eigenvalue
2*pi*(k^2+m^2), the degree-l sphere harmonics 2*l*(l+1).  In a conformal
chart with area element lambda dx dy, ``laplacian_apply(f) =
-(1/lambda) * (f_xx + f_yy)``.  Every operator is a multiplier on the
cached eigenvalue array ``grid._eigs`` (``_spectral``).  The raw-array helpers
(``_spectral``, ``laplacian_values``, ``smoothing_invert`` with one shift per row,
``prolong``) take one (n_nodes,) row or a (k, n_nodes) stack: one FFT pair for the
torus stack, each row bit-identical to its own call; row by row on the sphere, where
folding the stack into the DFT GEMM measured 10 % faster to 25 % slower at L = 12-96.

The sphere transform (``_SphereTransform``) does its longitude DFT as one
real GEMM and its Legendre stage on the northern nodes only, split by the
parity of l - m (one (m, k, node) tensor pair for both directions, which
``_legendre_tables`` fills in place at its stored size).  Transforms are exact
on band-limited data: Gauss-Legendre in latitude and the trapezoid rule in
the periodic directions integrate band-limited products exactly.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

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


def _legendre_tables(lmax: int, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal associated Legendre functions at the nodes ``xi``, split by parity.

    Returns the pair (even, odd) of (order m, k, node) arrays holding P_lm(xi) at
    l = m + 2k and l = m + 2k + 1, and exactly 0 where l > lmax.  Normalised so that
    integral_{-1}^{1} P_lm(x) P_l'm(x) dx = delta_{l l'}, with no Condon-Shortley phase.
    The standard stable three-term recurrence in j = l - m runs over every order with
    m + j <= lmax at once, writing each step into its parity's table in place: at L = 96
    3-5 ms, with a build peak 1.13x the 4.0 MB the transform stores.
    """
    s = np.sqrt(np.maximum(0.0, 1.0 - xi * xi))
    even, odd = tables = (np.zeros((lmax + 1, lmax // 2 + 1, xi.shape[0])),
                          np.zeros((lmax + 1, (lmax + 1) // 2, xi.shape[0])))
    even[0, 0] = math.sqrt(0.5)
    for k in range(lmax):  # the seeds P_mm, built up in m
        even[k + 1, 0] = even[k, 0] * s * math.sqrt((2.0 * k + 3.0) / (2.0 * k + 2.0))
    m = np.arange(lmax + 1)[:, None]
    odd[:lmax, 0] = np.sqrt(2 * m[:lmax] + 3.0) * xi * even[:lmax, 0]
    l = m + np.arange(2, lmax + 1)  # (m, j - 2)
    a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
    b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
    for j in range(2, lmax + 1):
        n = lmax + 1 - j  # the orders with m + j <= lmax
        p1, p2 = tables[(j - 1) % 2][:n, (j - 1) // 2], tables[j % 2][:n, j // 2 - 1]
        tables[j % 2][:n, j // 2] = a[:n, j - 2, None] * (xi * p1 - b[:n, j - 2, None] * p2)
    return even, odd


class _SphereTransform:
    """Real spherical-harmonic transform on the Gauss-Legendre x equispaced grid.

    Coefficients are one real (2, L+1, 2, K) array, K = L//2 + 1, indexed by (parity of
    l - m, order m, real/imaginary part, k) for degree l = m + 2k + parity (``degrees``);
    slots with l > L are zero.  Longitude: one GEMM with the n_lon x 2(L+1) (cos m phi,
    -sin m phi) matrix, and its transpose (orders m >= 1 doubled) back.  Latitude: P_lm(-x) =
    (-1)^{l-m} P_lm(x) on the symmetric nodes, so P_lm is kept on the northern nodes only, in
    one (m, k, node) tensor per parity that serves both directions.  Analysis transforms every
    latitude, folds the spectrum into north +/- mirrored south (equator node at half weight)
    and projects each fold into the coefficients; synthesis writes north = E + O, south = E - O.
    """

    def __init__(self, lmax: int):
        self.lmax = lmax
        self.n_lat = lmax + 1
        self.n_lon = 2 * (lmax + 1)
        nodes, wgl = np.polynomial.legendre.leggauss(self.n_lat)
        # store north -> south (descending xi) so latitude index runs
        # from the north pole toward the south pole
        self.xi = nodes[::-1].copy()
        self.wgl = wgl[::-1].copy()
        self.phi = TWO_PI * np.arange(self.n_lon) / self.n_lon
        n_north = (self.n_lat + 1) // 2
        # analysis weights of the northern nodes, with the DFT's 1/n_lon
        self._w_north = self.wgl[:n_north] / self.n_lon
        self._w_north[self.n_lat // 2 :] *= 0.5  # the equator node; empty when n_lat is even
        mphi = np.outer(self.phi, np.arange(lmax + 1))
        self._dft = np.stack([np.cos(mphi), -np.sin(mphi)], axis=-1).reshape(self.n_lon, -1)
        self._p_even, self._p_odd = _legendre_tables(lmax, self.xi[:n_north])  # (m, k, node)

    def degrees(self) -> np.ndarray:
        """Degree l of every coefficient slot, shape (2, L+1, 1, K)."""
        orders = np.arange(self.lmax + 1)[:, None, None]
        return np.arange(2)[:, None, None, None] + orders + 2 * np.arange(self.lmax // 2 + 1)

    def analyze(self, f2d: np.ndarray) -> np.ndarray:
        """Coefficients, in the layout of the class docstring, of a real field."""
        spec = (f2d @ self._dft).T.reshape(self.lmax + 1, 2, -1)  # (m, re/im, node): one GEMM
        north, south = spec[..., : self._w_north.size], spec[..., : -self._w_north.size - 1 : -1]
        sym = np.empty((2,) + north.shape)  # north +/- mirrored south, weighted in place
        np.add(north, south, out=sym[0])
        np.subtract(north, south, out=sym[1])
        sym *= self._w_north
        coef = np.zeros((2, self.lmax + 1, 2, self.lmax // 2 + 1))
        np.matmul(sym[0], self._p_even.transpose(0, 2, 1), out=coef[0])
        np.matmul(sym[1], self._p_odd.transpose(0, 2, 1), out=coef[1, ..., : self._p_odd.shape[1]])
        return coef

    def synthesize(self, coef: np.ndarray) -> np.ndarray:
        """Real field on the grid from coefficients in the class docstring's layout."""
        n_north = self._w_north.shape[0]
        even = coef[0] @ self._p_even  # (m, re/im, node)
        odd = coef[1, ..., : self._p_odd.shape[1]] @ self._p_odd
        south = (even - odd)[..., self.n_lat - n_north - 1 :: -1]
        rows = np.concatenate([even + odd, south], axis=-1)  # (m, re/im, node)
        rows[1:] *= 2.0  # order m stands for m and -m
        return rows.reshape(-1, self.n_lat).T @ self._dft.T


# ---------------------------------------------------------------------------
# grids and fields
# ---------------------------------------------------------------------------


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
        if not _is_int(resolution) or resolution < 4:
            raise ValueError(f"resolution must be an integer >= 4, got {resolution!r}")
        self.model = model
        self.resolution = int(resolution)
        if model is SurfaceModel.SPHERE:
            self.genus = 0
            self.base_scalar_curvature = 4.0
            sht = self._sht = _SphereTransform(self.resolution)
            self._shape = (sht.n_lat, sht.n_lon)
            r = np.sqrt((1.0 - sht.xi) / (1.0 + sht.xi))  # per latitude, times per longitude
            unit = np.stack([np.cos(sht.phi), np.sin(sht.phi)], axis=-1)
            self.node_coords = np.multiply.outer(r, unit).reshape(-1, 2)
            self.quad_weights = np.repeat(0.5 * sht.wgl * (TWO_PI / sht.n_lon), sht.n_lon)
            self._xi_flat = np.repeat(sht.xi, sht.n_lon)
            ls = sht.degrees()
            self._eigs = 2.0 * ls * (ls + 1.0)
        else:
            self.genus = 1
            self.base_scalar_curvature = 0.0
            n = self.resolution
            self._shape = (n, n)
            t = np.arange(n) / n
            x2, y2 = np.meshgrid(t, t, indexing="ij")
            self.node_coords = np.stack([x2, y2], axis=-1).reshape(-1, 2)
            self.quad_weights = np.full(n * n, TWO_PI / (n * n))
            kx, ky = np.meshgrid(np.fft.fftfreq(n, 1.0 / n), np.fft.rfftfreq(n, 1.0 / n),
                                 indexing="ij")
            self._eigs = TWO_PI * (kx * kx + ky * ky)
        self.n_nodes = self.node_coords.shape[0]
        head = f"{self.model.value}:{self.resolution}:".encode()
        self.checksum = hashlib.sha256(head + self.node_coords.tobytes()).hexdigest()
        self.node_coords.setflags(write=False)
        self.quad_weights.setflags(write=False)

    @property
    def euler_characteristic(self) -> int:
        return 2 - 2 * self.genus

    @property
    def quarter_grid(self) -> SurfaceGrid:
        """The resolution // 4 grid of a sequenced solve's coarse stage: built once, read-only."""
        if "_quarter" not in vars(self):
            self._quarter = SurfaceGrid(self.model, self.resolution // 4)
        return self._quarter

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


def field(grid: SurfaceGrid, values) -> ScalarField:
    """Wrap node values (flat or 2-d) as a :class:`ScalarField`."""
    return ScalarField(grid, np.asarray(values, dtype=float))


def constant_field(grid: SurfaceGrid, value: float) -> ScalarField:
    return ScalarField(grid, np.full(grid.n_nodes, float(value)))


def same_grid(a: SurfaceGrid, b: SurfaceGrid) -> bool:
    return a is b or a.checksum == b.checksum


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def integrate(f: ScalarField) -> float:
    """Integral of f against the background area form (total area 2*pi)."""
    return float(np.dot(f.grid.quad_weights, f.values))


def mean_value(f: ScalarField) -> float:
    """Area average of f."""
    return integrate(f) / TWO_PI


def _spectral(grid: SurfaceGrid, values: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Apply a spectral multiplier (shaped like ``grid._eigs``, or one per row) to node values;
    on the torus ``rfft``, ``fft`` on axis -2 and back: ``irfft2(rfft2(v) * mult)`` bit for bit."""
    if grid.model is SurfaceModel.SPHERE:
        if values.ndim > 1:
            mults = np.broadcast_to(mult, values.shape[:1] + grid._eigs.shape)
            return np.stack([_spectral(grid, row, m) for row, m in zip(values, mults)])
        out = grid._sht.synthesize(grid._sht.analyze(values.reshape(grid._shape)) * mult)
    else:
        coef = np.fft.fft(np.fft.rfft(values.reshape(values.shape[:-1] + grid._shape)), axis=-2)
        coef *= mult
        out = np.fft.irfft(np.fft.ifft(coef, axis=-2), n=grid._shape[1])
    return out.reshape(values.shape)


def laplacian_values(grid: SurfaceGrid, values: np.ndarray) -> np.ndarray:
    """Positive background Laplacian of raw node values, one row or a (k, n_nodes) stack."""
    # the constant mode's FFT roundoff would scale with the mean; Delta drops it anyway
    wq = grid.quad_weights  # one dot per row: each row's arithmetic is that of its own call
    means = np.dot(wq, values) if values.ndim == 1 else np.array([[np.dot(wq, r)] for r in values])
    return _spectral(grid, values - means / TWO_PI, grid._eigs)


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
    lam = grid._eigs
    inverse = np.divide(1.0, lam, out=np.zeros_like(lam), where=lam > 0.0)
    u = ScalarField(grid, _spectral(grid, rhs.values, inverse))
    # remove quadrature-level residue of the mean so the result is mean-zero
    return ScalarField(grid, u.values - mean_value(u))


def smoothing_invert(f_values: np.ndarray, grid: SurfaceGrid, shift: float | tuple = 1.0):
    """Apply the exact spectral (Laplacian + shift)^{-1} to raw node values.

    Preconditioner helper.  ``f_values`` is one row, or a (k, n_nodes) stack with ``shift`` a
    sequence of k shifts, one per row.  Raises ValueError unless every shift is finite and
    positive: at zero the operator is singular, and below zero it is not positive definite.
    """
    values = np.asarray(f_values, dtype=float)
    return _spectral(grid, values, _smoothing_multiplier(grid, shift, values.ndim > 1))


def _smoothing_multiplier(grid: SurfaceGrid, shift, stacked: bool) -> np.ndarray:
    """1/(eigs + shift), one row per shift when ``stacked``; ValueError as ``smoothing_invert``."""
    if not all(math.isfinite(s) and s > 0.0 for s in (shift if stacked else (shift,))):
        raise ValueError(f"smoothing_invert needs finite positive shifts; got {shift!r}")
    if stacked:
        shift = np.reshape(shift, (-1,) + (1,) * grid._eigs.ndim)
    return 1.0 / (grid._eigs + shift)


def prolong(values: np.ndarray, coarse: SurfaceGrid, fine: SurfaceGrid) -> np.ndarray:
    """Node values on ``fine`` of the band-limited interpolant of node values on ``coarse``.

    Zero-pads the coefficients, so band-limited data carry over exactly; a torus
    Nyquist mode (a sampled cosine) is split evenly between +n/2 and -n/2.  A (k, n_nodes)
    stack takes one FFT pair on the torus and goes row by row on the sphere.
    """
    if coarse.model is not fine.model or fine.resolution < coarse.resolution:
        raise ValueError(f"cannot prolong from {coarse!r} to {fine!r}")
    values = np.asarray(values, dtype=float)
    if fine.model is SurfaceModel.SPHERE:
        if values.ndim > 1:
            return np.stack([prolong(row, coarse, fine) for row in values])
        coef = coarse._sht.analyze(values.reshape(coarse._shape))
        padded = np.zeros((2, fine.resolution + 1, 2, fine.resolution // 2 + 1))
        padded[:, : coef.shape[1], :, : coef.shape[3]] = coef
        return fine._sht.synthesize(padded).reshape(-1)
    n, m = coarse.resolution, fine.resolution
    pad = np.zeros((m, n))  # mode map, scaled for numpy's unnormalised FFT
    pad[np.fft.fftfreq(n, 1.0 / n).astype(int) % m, np.arange(n)] = m / n
    if n % 2 == 0:
        pad[:, n // 2] *= 0.5
        pad[n // 2, n // 2] += 0.5 * m / n
    v2 = values.reshape(values.shape[:-1] + coarse._shape)
    return np.real(np.fft.ifft2(pad @ np.fft.fft2(v2) @ pad.T)).reshape(values.shape[:-1] + (-1,))


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

