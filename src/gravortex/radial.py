"""Independent radial collocation solver for axisymmetric EB states.

For an antipodal divisor m * {north} + m * {south} on the round sphere,
the section norm depends only on xi = cos(theta):

    a(xi) = e^{C} (1 - xi^2)^{m} / 2^{N},   N = 2m,

and the Einstein-Bogomol'nyi equation reduces to a one-dimensional ODE for
f(xi) on [-1, 1] (positive-Laplacian convention, area 2*pi):

    -2 [ (1 - xi^2) f'' - 2 xi f' ] + (1/2) e^{2u} (e^{2f} a - tau) + N = 0,
    2u = 4 alpha tau f - 2 alpha e^{2f} a + 2 c',
    pi * integral_{-1}^{1} e^{2u} dxi = 2*pi   (volume gauge, fixes c').

Unequal multiplicities make the divisor unstable: no solution exists.  For
equal ones the dilations z -> lambda z fix both points, so the solutions
form a one-parameter family whose tangent is odd in xi, and on [-1, 1] it
leaves the Jacobian nearly singular.  Its balanced member is the one even
solution, which the two-dimensional solvers keep too, so this solver works
on even f: it collocates at the nodes with xi >= 0 and folds the Laplacian
and the quadrature onto even functions (Boyd, *Chebyshev and Fourier
Spectral Methods*, 2001, ch. 8).

The ODE is solved with Chebyshev-Lobatto collocation, Clenshaw-Curtis
quadrature, and a dense damped Newton iteration in (f, c'), posed at the EB
coupling first and ramped in alpha only when that fails -- sharing no code
with the two-dimensional solvers, so it serves as an independent
cross-check oracle.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .stability import _multiplicities, eb_coupling

# 100 times the roundoff floor of the folded residual, |lap| |f| eps, which is
# about 1e-10 at n_modes = 200 and grows like n_modes**2; the folded Jacobian's
# condition number is about 1e6 there, so f is far more accurate than _TOL.
_TOL = 1e-8
_MAX_ITERS = 80  # Newton iterations per continuation stage
# the direct stage's line search tries t = 1, 1/2, 1/4 and gives up at 1/8: where it needs
# shorter steps (m=1 from tau = 11.55 at log_scale 0) the ramp is cheaper, and so the stage
# costs one iteration there, where without the floor it burned up to _MAX_ITERS
_DIRECT_FLOOR = 0.125


def chebyshev_lobatto(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x_k = cos(pi k / m), k = 0..m, and the differentiation matrix."""
    if m < 2:
        raise ValueError("need at least 3 nodes")
    k = np.arange(m + 1)
    x = np.cos(math.pi * k / m)
    c = np.where((k == 0) | (k == m), 2.0, 1.0) * (-1.0) ** k
    d = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(m + 1))
    d = d - np.diag(d.sum(axis=1))
    return x, d


def clenshaw_curtis_weights(m: int) -> np.ndarray:
    """Quadrature weights on [-1, 1] for the m+1 Chebyshev-Lobatto nodes (m even)."""
    if m % 2 != 0:
        raise ValueError("m must be even")
    j = np.arange(1, m // 2 + 1)
    b = np.where(j == m // 2, 1.0, 2.0) / (4.0 * j * j - 1.0)
    theta = math.pi * np.arange(m + 1) / m
    w = (1.0 - np.cos(2.0 * theta[:, None] * j) @ b) * 2.0 / m
    w[[0, m]] *= 0.5
    return w


@lru_cache(maxsize=8)
def _even_setup(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, mirror map, and the Laplacian and weights folded onto even functions.

    An even f is its values at the h+1 = m/2+1 nodes with xi >= 0, and node k
    holds the value of node mirror[k] = min(k, m-k).  Cached per m, read-only.
    """
    xi, d1 = chebyshev_lobatto(m)
    h = m // 2
    mirror = np.minimum(np.arange(m + 1), m - np.arange(m + 1))
    fold = np.eye(h + 1)[mirror]
    # positive Laplacian of axisymmetric fields, -2[(1-xi^2) D^2 - 2 xi D], rows xi >= 0
    top, d1_top = xi[: h + 1, None], d1[: h + 1]
    lap = -2.0 * ((1.0 - top * top) * (d1_top @ d1) - 2.0 * top * d1_top)
    arrays = (xi, mirror, lap @ fold, clenshaw_curtis_weights(m) @ fold)
    for array in arrays:
        array.setflags(write=False)
    return arrays


@dataclass
class RadialEBSolution:
    """Collocation solution of the radial EB equation."""

    xi: np.ndarray
    f: np.ndarray
    c_prime: float
    tau: float
    alpha: float
    converged: bool
    iterations: int
    residual: float

    def interpolate(self, xi_query: np.ndarray) -> np.ndarray:
        """f at arbitrary xi in [-1, 1], once per distinct xi, and exactly f_k at node k.

        Second barycentric form with the Lobatto weights (-1)^k, halved at both ends.
        """
        weights = (-1.0) ** np.arange(self.xi.size)
        weights[[0, -1]] *= 0.5
        xi, inverse = np.unique(np.asarray(xi_query, dtype=float), return_inverse=True)
        hit = xi[:, None] == self.xi
        c = weights / np.where(hit, 1.0, xi[:, None] - self.xi)
        values = np.where(hit.any(axis=1), hit @ self.f, (c @ self.f) / c.sum(axis=1))
        return values[inverse].reshape(np.shape(xi_query))


def solve_eb_radial(
    tau: float,
    m_north: int = 1,
    m_south: int = 1,
    log_scale: float = 0.0,
    n_modes: int = 200,
) -> RadialEBSolution:
    """Solve the radial EB equation at alpha = 1/(tau N) for the even f.

    First one Newton stage at alpha, started from the constant f with
    (1/2) integral e^{2f} a = tau - 2N (the degree identity) and the c' that
    solves the gauge row there; its line search stops at ``_DIRECT_FLOOR``,
    and it ends on one simplified Newton correction with its last Jacobian
    (Deuflhard, *Newton Methods for Nonlinear Problems*, 2004).  Only if it
    fails do stages at alpha = 0 (from constant f), alpha/2 and alpha run,
    each later one started from the secant through the last two accepted
    stages, halving a failed step up to 12 times; a singular Jacobian in the
    direct stage ends the solve instead.  ``log_scale`` is the additive
    constant C of log a, so the ODE matches a two-dimensional section
    normalised the same way (the equation is covariant under a -> e^{2s} a,
    f -> f - s, but comparing f values requires the same gauge).  Converged
    means a residual sup norm, gauge row included, of at most ``_TOL``.
    Measured at log_scale 0 on tau = 4m + 0.05 + k/2 up to 40.55: m = 2 and 3
    converge throughout, m = 1 up to 20.05 and from 20.55 on no longer.
    Non-finite ``tau`` or ``log_scale``, ``n_modes`` not an integer >= 2, and
    non-integer or unequal multiplicities raise ``ValueError`` before any set-up.
    """
    for name, value in (("tau", tau), ("log_scale", log_scale)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if isinstance(n_modes, bool) or not isinstance(n_modes, numbers.Integral) or n_modes < 2:
        raise ValueError(f"n_modes must be an integer >= 2, got {n_modes!r}")
    m, m_south = _multiplicities((m_north, m_south))
    if m != m_south:
        raise ValueError(f"no EB solution for m_north={m}, m_south={m_south}: two points "
                         "are polystable only with equal multiplicity "
                         "(stability.classify_multiplicities)")
    if m < 1:
        raise ValueError("multiplicities must be positive")
    n, tau = 2 * m, float(tau)
    if not n < tau / 2.0:
        raise ValueError(f"need N < tau/2, got N={n}, tau={tau}")
    alpha_eb = float(eb_coupling(tau, n))
    xi, mirror, lap, w = _even_setup(n_modes + n_modes % 2)
    npts = lap.shape[0]
    with np.errstate(divide="ignore"):  # a vanishes at the pole xi = 1
        top = xi[:npts]
        a = np.exp(log_scale + m * np.log((1.0 - top) * (1.0 + top)) - n * math.log(2.0))
    iterations = 0

    def assemble(fv, cp, alpha):
        # clamp exponents so rejected line-search trials stay finite
        p = np.exp(np.clip(2.0 * fv, -200.0, 200.0)) * a
        two_u = 4.0 * alpha * tau * fv - 2.0 * alpha * p + 2.0 * cp
        e2u = np.exp(np.clip(two_u, -200.0, 200.0))
        r = lap @ fv + 0.5 * e2u * (p - tau) + n
        gauge = 0.5 * float(np.dot(w, e2u)) - 1.0
        return p, e2u, r, gauge

    def run_stage(alpha, fv, cp, floor=2.0**-30, correct=False):
        nonlocal iterations
        jac = None
        for _ in range(_MAX_ITERS):
            p, e2u, r, gauge = assemble(fv, cp, alpha)
            res = max(float(np.max(np.abs(r))), abs(gauge))
            iterations += 1
            if res <= _TOL:
                # the direct stage's last step starts from a residual near 3e-5; its quadratic
                # remainder hides under the residual's roundoff but leaves c' 1e-11 off at m=2
                if correct and jac is not None:
                    step = np.linalg.solve(jac, -np.concatenate([r, [gauge]]))
                    fv, cp = fv + step[:npts], cp + step[npts]
                return fv, cp, res, True
            jac = np.empty((npts + 1, npts + 1))
            jac[:npts, :npts] = lap + np.diag(e2u * (p - 2.0 * alpha * (p - tau) ** 2))
            jac[:npts, npts] = e2u * (p - tau)
            jac[npts, :npts] = 2.0 * alpha * w * e2u * (tau - p)
            jac[npts, npts] = float(np.dot(w, e2u))
            rhs = np.concatenate([r, [gauge]])
            try:
                step = np.linalg.solve(jac, -rhs)
            except np.linalg.LinAlgError:  # singular: met past the domain (m=1, tau=28.55)
                return fv, cp, res, None
            merit0 = float(rhs @ rhs)
            t = 1.0
            while t > floor:
                f_t, cp_t = fv + t * step[:npts], cp + t * step[npts]
                _, _, r_t, g_t = assemble(f_t, cp_t, alpha)
                if float(r_t @ r_t) + g_t * g_t <= (1.0 - 1e-4 * t) * merit0:
                    fv, cp = f_t, cp_t
                    break
                t *= 0.5
            else:
                return fv, cp, res, False
        return fv, cp, res, False

    f = np.full(npts, 0.5 * math.log((tau - 2.0 * n) / (0.5 * float(np.dot(w, a)))))
    e2u = assemble(f, 0.0, alpha_eb)[1]
    f, c_prime, residual, ok = run_stage(alpha_eb, f, -0.5 * math.log(0.5 * float(np.dot(w, e2u))),
                                         _DIRECT_FLOOR, correct=True)
    if ok is False:  # the ramp; after a singular Jacobian ok is None
        f = np.full(npts, 0.5 * math.log(tau / 2.0) - 0.5 * math.log(float(np.max(a))))
        f, c_prime, residual, ok = run_stage(0.0, f, 0.0)
        reached, prev = 0.0, (0.0, f, c_prime)  # prev: the accepted stage before (f, c')
        for target in (0.5 * alpha_eb, alpha_eb):
            while ok and reached < target:
                trial, halvings = target, 0
                while True:  # start from the secant through the last two accepted stages
                    s = (trial - reached) / (reached - prev[0]) if reached > prev[0] else 0.0
                    f_t, cp_t, residual, ok = run_stage(
                        trial, f + s * (f - prev[1]), c_prime + s * (c_prime - prev[2]))
                    if ok or halvings >= 12:
                        break
                    halvings += 1
                    trial = reached + 0.5 * (trial - reached)
                if ok:
                    prev, (f, c_prime, reached) = (reached, f, c_prime), (f_t, cp_t, trial)

    _, _, r, gauge = assemble(f, c_prime, alpha_eb)
    residual = max(float(np.max(np.abs(r))), abs(gauge))
    return RadialEBSolution(xi=xi, f=f[mirror], c_prime=float(c_prime), tau=tau, alpha=alpha_eb,
                            converged=residual <= _TOL, iterations=iterations, residual=residual)
