"""Independent radial collocation solver for axisymmetric EB states.

For an antipodal divisor m_n * {north} + m_s * {south} on the round sphere,
the section norm depends only on xi = cos(theta):

    a(xi) = e^{C} (1 - xi)^{m_n} (1 + xi)^{m_s} / 2^{N},   N = m_n + m_s,

and the Einstein-Bogomol'nyi equation reduces to a one-dimensional ODE for
f(xi) on [-1, 1] (positive-Laplacian convention, area 2*pi):

    -2 [ (1 - xi^2) f'' - 2 xi f' ] + (1/2) e^{2u} (e^{2f} a - tau) + N = 0,
    2u = 4 alpha tau f - 2 alpha e^{2f} a + 2 c',
    pi * integral_{-1}^{1} e^{2u} dxi = 2*pi   (volume gauge, fixes c').

This module solves that ODE with Chebyshev-Lobatto collocation,
Clenshaw-Curtis quadrature, and a dense damped Newton iteration in
(f, c') -- sharing no code with the two-dimensional solvers, so it serves
as an independent cross-check oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stability import eb_coupling

TWO_PI = 2.0 * math.pi

# The residual tolerance sits at the roundoff floor of the dense Chebyshev
# differentiation matrix, whose condition number grows like n_modes**4; the
# interpolation error of the converged solution is far below it.
_TOL = 1e-8
_MAX_ITERS = 80  # Newton iterations per continuation stage


def chebyshev_lobatto(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x_k = cos(pi k / m), k = 0..m, and the differentiation matrix."""
    if m < 2:
        raise ValueError("need at least 3 nodes")
    k = np.arange(m + 1)
    x = np.cos(math.pi * k / m)
    c = np.ones(m + 1)
    c[0] = c[m] = 2.0
    c = c * (-1.0) ** k
    dx = x[:, None] - x[None, :]
    d = np.outer(c, 1.0 / c) / (dx + np.eye(m + 1))
    d = d - np.diag(d.sum(axis=1))
    return x, d


def clenshaw_curtis_weights(m: int) -> np.ndarray:
    """Quadrature weights on [-1, 1] for the m+1 Chebyshev-Lobatto nodes (m even)."""
    if m % 2 != 0:
        raise ValueError("m must be even")
    k = np.arange(m + 1)
    theta = math.pi * k / m
    w = np.ones(m + 1)
    for j in range(1, m // 2 + 1):
        b = 1.0 if j == m // 2 else 2.0
        w = w - b * np.cos(2.0 * j * theta) / (4.0 * j * j - 1.0)
    w = w * 2.0 / m
    w[0] *= 0.5
    w[m] *= 0.5
    return w


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


def _log_a(xi: np.ndarray, m_n: int, m_s: int, log_scale: float) -> np.ndarray:
    n = m_n + m_s
    with np.errstate(divide="ignore"):
        return (
            log_scale
            + m_n * np.log(np.maximum(1.0 - xi, 1e-300))
            + m_s * np.log(np.maximum(1.0 + xi, 1e-300))
            - n * math.log(2.0)
        )


def solve_eb_radial(
    tau: float,
    m_north: int = 1,
    m_south: int = 1,
    log_scale: float = 0.0,
    n_modes: int = 200,
) -> RadialEBSolution:
    """Solve the radial EB equation at alpha = 1/(tau N).

    ``log_scale`` is the additive constant C of log a, so the ODE matches a
    two-dimensional section normalised the same way (the equation is
    covariant under a -> e^{2s} a, f -> f - s, but comparing f values
    requires the same gauge).  Converged means a residual sup norm, gauge
    row included, of at most ``_TOL``.
    """
    m_n, m_s = int(m_north), int(m_south)
    if m_n < 0 or m_s < 0 or m_n + m_s < 1:
        raise ValueError("multiplicities must be nonnegative with positive total degree")
    n = m_n + m_s
    tau = float(tau)
    if not n < tau / 2.0:
        raise ValueError(f"need N < tau/2, got N={n}, tau={tau}")
    alpha_eb = float(eb_coupling(tau, n))
    if n_modes % 2 != 0:
        n_modes += 1
    xi, d1 = chebyshev_lobatto(n_modes)
    d2 = d1 @ d1
    w = clenshaw_curtis_weights(n_modes)
    a = np.exp(_log_a(xi, m_n, m_s, log_scale))
    # positive Laplacian of axisymmetric fields: -2[(1-xi^2) D^2 - 2 xi D]
    lap = -2.0 * ((1.0 - xi * xi)[:, None] * d2 - 2.0 * xi[:, None] * d1)

    npts = xi.size
    amax = float(np.max(a))
    f = np.full(npts, 0.5 * math.log(tau / 2.0) - 0.5 * math.log(amax))
    c_prime = 0.0
    iterations = 0

    def assemble(fv, cp, alpha):
        # clamp exponents so rejected line-search trials stay finite
        p = np.exp(np.clip(2.0 * fv, -200.0, 200.0)) * a
        two_u = 4.0 * alpha * tau * fv - 2.0 * alpha * p + 2.0 * cp
        e2u = np.exp(np.clip(two_u, -200.0, 200.0))
        r = lap @ fv + 0.5 * e2u * (p - tau) + n
        gauge = (math.pi * float(np.dot(w, e2u)) - TWO_PI) / TWO_PI
        return p, e2u, r, gauge

    def run_stage(alpha, fv, cp):
        nonlocal iterations
        res = math.inf
        for _ in range(_MAX_ITERS):
            p, e2u, r, gauge = assemble(fv, cp, alpha)
            res = max(float(np.max(np.abs(r))), abs(gauge))
            iterations += 1
            if res <= _TOL:
                return fv, cp, res, True
            jac = np.zeros((npts + 1, npts + 1))
            mult = e2u * (p - 2.0 * alpha * (p - tau) ** 2)
            jac[:npts, :npts] = lap + np.diag(mult)
            jac[:npts, npts] = e2u * (p - tau)
            de2u_df = e2u * 4.0 * alpha * (tau - p)
            jac[npts, :npts] = math.pi * w * de2u_df / TWO_PI
            jac[npts, npts] = math.pi * float(np.dot(w, 2.0 * e2u)) / TWO_PI
            rhs = np.concatenate([r, [gauge]])
            step = np.linalg.solve(jac, -rhs)
            merit0 = float(rhs @ rhs)
            t = 1.0
            while t > 2.0**-30:
                f_t = fv + t * step[:npts]
                cp_t = cp + t * step[npts]
                _, _, r_t, g_t = assemble(f_t, cp_t, alpha)
                m_t = float(r_t @ r_t) + g_t * g_t
                if m_t <= (1.0 - 1e-4 * t) * merit0:
                    fv, cp = f_t, cp_t
                    break
                t *= 0.5
            else:
                return fv, cp, res, False
        return fv, cp, res, False

    f, c_prime, residual, ok = run_stage(0.0, f, c_prime)
    reached = 0.0
    if ok:
        for target in (alpha_eb * k / 4.0 for k in range(1, 5)):
            while ok and reached < target:
                trial, halvings = target, 0
                while True:
                    f_t, cp_t, residual, ok = run_stage(trial, f, c_prime)
                    if ok or halvings >= 12:
                        break
                    halvings += 1
                    trial = reached + 0.5 * (trial - reached)
                if ok:
                    f, c_prime, reached = f_t, cp_t, trial
            if not ok:
                break

    _, _, r, gauge = assemble(f, c_prime, alpha_eb)
    residual = max(float(np.max(np.abs(r))), abs(gauge))
    return RadialEBSolution(
        xi=xi,
        f=f,
        c_prime=float(c_prime),
        tau=tau,
        alpha=alpha_eb,
        converged=residual <= _TOL,
        iterations=iterations,
        residual=residual,
    )
