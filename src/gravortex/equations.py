"""Problem specs, the residual, and integral diagnostics for the three equation kinds.

All equations live on an area-2*pi background with positive Laplacian
``Delta`` and background curvature constant N (the degree).  Writing
a = |phi|_0^2 for the section norm, P = e^{2f} a, and tau for the symmetry
breaking parameter:

* vortex:        Delta f + (1/2)(P - tau) + N = 0
* gravitating:   Delta f + (1/2)(P - tau) W + N = 0
                 Delta v + W - 1 = 0
                 W = exp(4 alpha tau f - 2 alpha P - 2 c v + 2 c')
* einstein-bogomolnyi (genus 0, c = 0):
                 Delta f + (1/2) e^{2u} (P - tau) + N = 0
                 e^{2u} = exp(4 alpha tau f - 2 alpha P + 2 c')

The coupling sign c is not an input: ``ProblemSpec`` derives it from the
topological constraint, c = chi - 2 alpha tau N for gravitating problems and
c = 0 for vortex and EB problems, so re-posing a spec at another kind or
coupling (``dataclasses.replace``) is consistent by construction.

The additive constant c' is the volume gauge of the conformal factor: it is
determined by Vol(e^{2u} omega_0) = 2*pi, and is stored on the problem spec
(0 for a freshly posed problem).  W depends on c' only through the factor
e^{2c'}, so the volume condition gives it in closed form, c' = -(1/2) log mean(e^{q0})
with q0 the exponent at c' = 0, and W = e^{q0} / mean(e^{q0}): the mean-field form.
The solvers use that form, and set the c' it implies on the state they return.  The
gravitating equations at c = 0, v = 0 reduce exactly to the EB equation, and
at alpha = 0, v = 0, c' = 0 to the vortex equation, so one pointwise kernel,
``_nonlinearity`` (P, the exponent q of W = e^q, the overflow flag), and one
raw-array residual, ``_residual_rows``, serve all three kinds (W = 1 for
vortex).  ``residual_fields`` wraps them for a ``FieldState`` at its spec's c';
``solvers._NewtonSystem`` runs them once per line-search trial on the raw
iterate, with the mean-field W, and holds the Jacobian.

``direct_gve_residual`` evaluates the *unreduced* coupled system (the metric
equation for the conformal density together with the curvature equation) so
that solutions of the scalar reductions can be certified against the system
they came from.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from .geometry import (
    ScalarField,
    SurfaceGrid,
    SurfaceModel,
    constant_field,
    laplacian_apply,
    laplacian_values,
    mean_value,
    same_grid,
)
from .sections import SectionData

_EXP_CLAMP = 700.0
TWO_PI = 2.0 * math.pi


class EquationKind(str, Enum):
    VORTEX = "vortex"
    GRAVITATING = "gravitating"
    EINSTEIN_BOGOMOLNYI = "eb"


@dataclass(frozen=True)
class ProblemSpec:
    """Equation kind plus all of its scalar data on a fixed grid/section.

    ``c`` is derived, not passed: chi - 2 alpha tau N for gravitating
    problems, 0 for vortex and EB problems.
    """

    grid: SurfaceGrid
    section: SectionData
    tau: float
    kind: EquationKind
    alpha: float = 0.0
    c_prime: float = 0.0
    c: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "kind", EquationKind(self.kind))
        for name in ("tau", "alpha", "c_prime"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if not same_grid(self.section.grid, self.grid):
            raise ValueError("section was built on a different grid")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        kind = self.kind
        c = 0.0
        if kind is EquationKind.VORTEX:
            if self.alpha != 0.0 or self.c_prime != 0.0:
                raise ValueError("vortex problems have alpha = c' = 0")
        elif kind is EquationKind.EINSTEIN_BOGOMOLNYI:
            if self.grid.model is not SurfaceModel.SPHERE:
                raise ValueError("the Einstein-Bogomol'nyi equation lives on the sphere")
            if self.alpha <= 0.0:
                raise ValueError("Einstein-Bogomol'nyi problems need alpha > 0")
        else:
            if self.alpha < 0.0:
                raise ValueError("gravitating problems need alpha >= 0")
            c = self.grid.euler_characteristic - 2.0 * self.alpha * self.tau * self.degree
        object.__setattr__(self, "c", c)

    @property
    def degree(self) -> int:
        return self.section.divisor.total_degree


@dataclass(frozen=True)
class FieldState:
    """Unknowns (f, v) attached to a problem spec.

    Invariants: v has zero mean; for vortex and EB kinds v is identically 0.
    """

    f: ScalarField
    v: ScalarField
    spec: ProblemSpec

    def __post_init__(self):
        if not (same_grid(self.f.grid, self.spec.grid) and same_grid(self.v.grid, self.spec.grid)):
            raise ValueError("state fields must live on the problem grid")
        if self.spec.kind is not EquationKind.GRAVITATING:
            if np.any(self.v.values != 0.0):
                raise ValueError("v must be identically zero for this equation kind")
        else:
            scale = max(1.0, float(np.max(np.abs(self.v.values))))
            if abs(mean_value(self.v)) > 1e-9 * scale:
                raise ValueError("v must have zero mean")


def make_state(spec: ProblemSpec, f_values, v_values=None) -> FieldState:
    grid = spec.grid
    f = ScalarField(grid, np.asarray(f_values, dtype=float))
    if v_values is None:
        v = constant_field(grid, 0.0)
    else:
        v = ScalarField(grid, np.asarray(v_values, dtype=float))
    return FieldState(f, v, spec)


def initial_state(spec: ProblemSpec) -> FieldState:
    """Constant f with mean(P) = tau - 2N, the vortex degree identity, and v = 0, on ``spec``
    as given; at or below the degree bound (tau <= 2N), where no constant solves the identity,
    e^{2f} max(a) = tau/2.  The solvers' mean-field W meets the volume condition at any f."""
    a, excess = spec.section.norm_sq, spec.tau - 2.0 * spec.degree
    f = np.full(spec.grid.n_nodes, 0.5 * math.log(excess / mean_value(a)) if excess > 0.0
                else 0.5 * math.log(spec.tau / 2.0) - 0.5 * math.log(float(np.max(a.values))))
    return make_state(spec, f)


# ---------------------------------------------------------------------------
# the pointwise nonlinearity and the residual
# ---------------------------------------------------------------------------


def _clamped_exp(q: np.ndarray) -> np.ndarray:
    return np.exp(np.maximum(np.minimum(q, _EXP_CLAMP), -_EXP_CLAMP))  # np.clip's bits, unwrapped


def _nonlinearity(spec: ProblemSpec, f: np.ndarray, v: np.ndarray, c_prime: float):
    """P = e^{2f} a, the exponent q = 4 alpha tau f - 2 alpha P - 2 c v + 2 c' of the
    conformal weight W (1 for vortex, e^{2u} for EB), and whether 2f passes the guard:
    e^{2f} clamps there and stays finite, and solvers stop instead.  The solvers' W scales
    e^q by its largest value, so q needs no guard."""
    two_f = 2.0 * f
    p = _clamped_exp(two_f) * spec.section.norm_sq.values
    q = 4.0 * spec.alpha * spec.tau * f - 2.0 * spec.alpha * p - 2.0 * spec.c * v + 2.0 * c_prime
    return p, q, bool(np.max(np.abs(two_f)) > _EXP_CLAMP)


def _residual_rows(spec: ProblemSpec, f: np.ndarray, v: np.ndarray, p: np.ndarray,
                   w: np.ndarray) -> list:
    """[R1] for vortex and EB, [R1, R2] for gravitating, from P and W of ``_nonlinearity``."""
    if spec.kind is not EquationKind.GRAVITATING:
        return [laplacian_values(spec.grid, f) + 0.5 * (p - spec.tau) * w + spec.degree]
    lap_f, lap_v = laplacian_values(spec.grid, np.stack([f, v]))
    return [lap_f + 0.5 * (p - spec.tau) * w + spec.degree, lap_v + w - 1.0]


def residual_fields(state: FieldState) -> tuple[ScalarField, ...]:
    """(R1,) for vortex and EB states, (R1, R2) for gravitating states: R1 =
    Delta f + (1/2)(P - tau) W + N and R2 = Delta v + W - 1, with P and W as above."""
    s, f, v = state.spec, state.f.values, state.v.values
    p, q, _ = _nonlinearity(s, f, v, s.c_prime)
    return tuple(ScalarField(s.grid, r) for r in _residual_rows(s, f, v, p, _clamped_exp(q)))


# ---------------------------------------------------------------------------
# curvature diagnostics and the unreduced system
# ---------------------------------------------------------------------------


def scalar_curvature(grid: SurfaceGrid, u: ScalarField) -> ScalarField:
    """Riemannian scalar curvature of e^{2u} g_0: e^{-2u} (S_0 + 2 Delta u)."""
    if not same_grid(u.grid, grid):
        raise ValueError("u does not live on the given grid")
    lap = laplacian_apply(u)
    s0 = grid.base_scalar_curvature
    return ScalarField(grid, np.exp(-2.0 * u.values) * (s0 + 2.0 * lap.values))


def _solved_metric(state: FieldState) -> tuple:
    """(P, W, the density e^{2u} of the solved metric, 2u) from one evaluation of the
    nonlinearity.  The density is 1 - Delta v when v is an unknown (gravitating) and W
    otherwise (then 2u = q, the exponent of W); 2u is None when the density is not positive."""
    s = state.spec
    p, q, _ = _nonlinearity(s, state.f.values, state.v.values, s.c_prime)
    w = _clamped_exp(q)
    if s.kind is not EquationKind.GRAVITATING:
        return p, w, w, q
    dens = 1.0 - laplacian_apply(state.v).values
    return p, w, dens, np.log(dens) if float(np.min(dens)) > 0.0 else None


def conformal_exponent(state: FieldState) -> ScalarField:
    """u with metric e^{2u} g_0: (1/2) log(1 - Delta v) when v is an unknown, else half the
    exponent of W (0 for vortex).  Raises ValueError when the density is not positive."""
    two_u = _solved_metric(state)[3]
    if two_u is None:
        raise ValueError("conformal density 1 - Delta v is not positive")
    return ScalarField(state.spec.grid, 0.5 * two_u)


def metric_density(state: FieldState) -> ScalarField:
    """Conformal density of the solved metric: 1 - Delta v (gravitating) or W."""
    return ScalarField(state.spec.grid, _solved_metric(state)[2])


def direct_gve_residual(state: FieldState) -> tuple[ScalarField, ScalarField]:
    """Residuals of the unreduced coupled system for gravitating/EB states.

    First component: the gauge-field equation
        e^{-2u} (N + Delta f) + (1/2)(P - tau).
    Second component: the curvature equation
        S_eq + alpha * (Delta_omega + tau)(P - tau) - c,
    where S_eq = e^{-2u}(S_0/2 + Delta u) is the curvature normalised so its
    total integral against omega is 2*pi*chi (half the Riemannian scalar
    curvature), the convention in which the constant c = chi - 2 alpha tau N
    is stated at Vol = 2*pi.

    Requires kind Gravitating (with positive density) or EB; a converged
    reduced solution nulls both components to discretisation accuracy.
    """
    s = state.spec
    if s.kind is EquationKind.VORTEX:
        raise ValueError("the unreduced system is defined for gravitating/EB states")
    p, _, _, two_u = _solved_metric(state)
    if two_u is None:
        raise ValueError("conformal density 1 - Delta v is not positive")
    inv = np.exp(-two_u)
    if s.kind is EquationKind.GRAVITATING:
        lap_f, lap_u, lap_p = laplacian_values(s.grid, np.stack([state.f.values, 0.5 * two_u, p]))
    else:  # 2u = 4 alpha tau f - 2 alpha P + 2 c' is affine in f and P
        lap_f, lap_p = laplacian_values(s.grid, np.stack([state.f.values, p]))
        lap_u = 2.0 * s.alpha * s.tau * lap_f - s.alpha * lap_p
    r1 = inv * (s.degree + lap_f) + 0.5 * (p - s.tau)
    s_eq = inv * (0.5 * s.grid.base_scalar_curvature + lap_u)
    r2 = s_eq + s.alpha * (inv * lap_p + s.tau * (p - s.tau)) - s.c
    return ScalarField(s.grid, r1), ScalarField(s.grid, r2)


# ---------------------------------------------------------------------------
# integral identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    """Integral diagnostics of a state (zero for exact solutions).

    degree_identity : integral of P against the solved area form minus
        (2 pi tau - 4 pi N).
    volume_identity : total solved area minus 2 pi.
    gauss_bonnet : integral of the Riemannian scalar curvature against the
        solved area form minus 4 pi chi (NaN when the gravitating density
        fails to be positive, since the metric is then undefined).  A diagnostic
        only: the spectral Laplacian integrates to zero, so it is roundoff at
        every state of positive density, solution or not.
    min_density : minimum of 1 - Delta v (metric positivity flag; 1 when v = 0).
    """

    degree_identity: float
    volume_identity: float
    gauss_bonnet: float
    min_density: float

    def to_dict(self) -> dict:
        return asdict(self)


def identity_report(state: FieldState) -> IdentityReport:
    """The identities from one evaluation of the nonlinearity (``_solved_metric``)."""
    s, grid = state.spec, state.spec.grid
    wq = grid.quad_weights
    p, w, dens, two_u = _solved_metric(state)
    gauss_bonnet = math.nan
    if two_u is not None:
        total = float(np.dot(wq, grid.base_scalar_curvature + laplacian_values(grid, two_u)))
        gauss_bonnet = total - 2.0 * TWO_PI * grid.euler_characteristic
    return IdentityReport(
        degree_identity=float(np.dot(wq, p * w)) - (TWO_PI * s.tau - 2.0 * TWO_PI * s.degree),
        volume_identity=float(np.dot(wq, w)) - TWO_PI,
        gauss_bonnet=gauss_bonnet,
        min_density=1.0 if dens is w else float(np.min(dens)),
    )
