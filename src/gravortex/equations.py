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

The additive constant c' is the volume gauge of the conformal factor: it is
determined by Vol(e^{2u} omega_0) = 2*pi and is stored on the problem spec
(0 for a freshly posed problem; the solvers treat it as an unknown).  The
gravitating equations at c = 0, v = 0 reduce exactly to the EB equation, and
at alpha = 0, v = 0, c' = 0 to the vortex equation, so ``residual_fields``
evaluates one formula for all three kinds (W = exp(0) = 1 for vortex).  Its
Jacobian, bordered by the c' column and the gauge row, is
``solvers._NewtonSystem``.

``direct_gve_residual`` evaluates the *unreduced* coupled system (the metric
equation for the conformal density together with the curvature equation) so
that solutions of the scalar reductions can be certified against the system
they came from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import (
    ScalarField,
    SurfaceGrid,
    SurfaceModel,
    conformal_density,
    constant_field,
    integrate,
    laplacian_apply,
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
    """Equation kind plus all of its scalar data on a fixed grid/section."""

    grid: SurfaceGrid
    section: SectionData
    tau: float
    kind: EquationKind
    alpha: float = 0.0
    c: float = 0.0
    c_prime: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", EquationKind(self.kind))
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "c_prime", float(self.c_prime))
        if not same_grid(self.section.grid, self.grid):
            raise ValueError("section was built on a different grid")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        kind = self.kind
        if kind is EquationKind.VORTEX:
            if self.alpha != 0.0 or self.c != 0.0 or self.c_prime != 0.0:
                raise ValueError("vortex problems have alpha = c = c' = 0")
        elif kind is EquationKind.EINSTEIN_BOGOMOLNYI:
            if self.grid.model is not SurfaceModel.SPHERE:
                raise ValueError("the Einstein-Bogomol'nyi equation lives on the sphere")
            if self.c != 0.0:
                raise ValueError("Einstein-Bogomol'nyi problems have c = 0")
            if self.alpha <= 0.0:
                raise ValueError("Einstein-Bogomol'nyi problems need alpha > 0")
        else:
            if self.alpha < 0.0:
                raise ValueError("gravitating problems need alpha >= 0")
            chi = self.grid.euler_characteristic
            n = self.section.divisor.total_degree
            c_expected = chi - 2.0 * self.alpha * self.tau * n
            if abs(self.c - c_expected) > 1e-9:
                raise ValueError(
                    f"c = {self.c} is inconsistent with the topological constraint "
                    f"(expected {c_expected})"
                )

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
    """Default starting guess: constant f with e^{2f} max(a) = tau/2, v = 0."""
    amax = float(np.max(spec.section.norm_sq.values))
    f0 = 0.5 * math.log(spec.tau / 2.0) - 0.5 * math.log(amax)
    return make_state(spec, np.full(spec.grid.n_nodes, f0))


# ---------------------------------------------------------------------------
# pointwise building blocks
# ---------------------------------------------------------------------------


def _clamped_exp(q: np.ndarray) -> np.ndarray:
    return np.exp(np.clip(q, -_EXP_CLAMP, _EXP_CLAMP))


def _p_of(state: FieldState) -> np.ndarray:
    """P = e^{2f} a."""
    return _clamped_exp(2.0 * state.f.values) * state.spec.section.norm_sq.values


def _weight_exponent(state: FieldState, p: np.ndarray) -> np.ndarray:
    s = state.spec
    return (
        4.0 * s.alpha * s.tau * state.f.values
        - 2.0 * s.alpha * p
        - 2.0 * s.c * state.v.values
        + 2.0 * s.c_prime
    )


def exponent_overflow(state: FieldState) -> bool:
    """True when an exponent in the nonlinearity exceeds the overflow guard.

    Residual evaluations clamp such exponents (staying finite); solvers use
    this flag to mark the state divergent instead of propagating infinities.
    """
    if np.max(np.abs(2.0 * state.f.values)) > _EXP_CLAMP:
        return True
    q = _weight_exponent(state, _p_of(state))
    return bool(np.max(np.abs(q)) > _EXP_CLAMP)


def conformal_weight(state: FieldState) -> ScalarField:
    """The conformal weight W = exp(4 alpha tau f - 2 alpha P - 2 c v + 2 c').

    W multiplies the background area form: exactly 1 for vortex states
    (alpha = c = c' = 0) and e^{2u} for EB states (c = 0, v = 0).
    """
    p = _p_of(state)
    return ScalarField(state.spec.grid, _clamped_exp(_weight_exponent(state, p)))


# ---------------------------------------------------------------------------
# the residual
# ---------------------------------------------------------------------------


def residual_fields(state: FieldState) -> tuple[ScalarField, ...]:
    """(R1,) for vortex and EB states, (R1, R2) for gravitating states.

    R1 = Delta f + (1/2)(P - tau) W + N and R2 = Delta v + W - 1, with the
    conformal weight W of :func:`conformal_weight`.
    """
    s = state.spec
    p = _p_of(state)
    w = _clamped_exp(_weight_exponent(state, p))
    r1 = laplacian_apply(state.f).values + 0.5 * (p - s.tau) * w + s.degree
    if s.kind is not EquationKind.GRAVITATING:
        return (ScalarField(s.grid, r1),)
    r2 = laplacian_apply(state.v).values + w - 1.0
    return ScalarField(s.grid, r1), ScalarField(s.grid, r2)


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


def conformal_exponent(state: FieldState) -> ScalarField:
    """u with metric e^{2u} g_0 for the state's kind.

    Gravitating: (1/2) log(1 - Delta v), which requires the density to be
    positive.  Vortex and EB: half the weight exponent (0 for vortex).
    """
    s = state.spec
    if s.kind is not EquationKind.GRAVITATING:
        p = _p_of(state)
        return ScalarField(s.grid, 0.5 * _weight_exponent(state, p))
    dens = conformal_density(s.grid, state.v)
    if float(np.min(dens.values)) <= 0.0:
        raise ValueError("conformal density 1 - Delta v is not positive")
    return ScalarField(s.grid, 0.5 * np.log(dens.values))


def metric_density(state: FieldState) -> ScalarField:
    """Conformal density of the solved metric: 1 - Delta v (gravitating) or W."""
    if state.spec.kind is EquationKind.GRAVITATING:
        return conformal_density(state.spec.grid, state.v)
    return conformal_weight(state)


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
    u = conformal_exponent(state)
    p = _p_of(state)
    inv = np.exp(-2.0 * u.values)
    lap_f = laplacian_apply(state.f).values
    r1 = inv * (s.degree + lap_f) + 0.5 * (p - s.tau)
    s_eq = inv * (0.5 * s.grid.base_scalar_curvature + laplacian_apply(u).values)
    lap_p = laplacian_apply(ScalarField(s.grid, p)).values
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
        fails to be positive, since the metric is then undefined).
    min_density : minimum of 1 - Delta v (metric positivity flag).
    """

    degree_identity: float
    volume_identity: float
    gauss_bonnet: float
    min_density: float

    def to_dict(self) -> dict:
        return {
            "degree_identity": self.degree_identity,
            "volume_identity": self.volume_identity,
            "gauss_bonnet": self.gauss_bonnet,
            "min_density": self.min_density,
        }


def identity_report(state: FieldState) -> IdentityReport:
    s = state.spec
    p = _p_of(state)
    w = conformal_weight(state)
    n = s.degree
    degree = float(np.dot(s.grid.quad_weights, p * w.values)) - (TWO_PI * s.tau - 2.0 * TWO_PI * n)
    volume = integrate(w) - TWO_PI
    dens = conformal_density(s.grid, state.v)
    min_density = float(np.min(dens.values))
    chi = s.grid.euler_characteristic
    if s.kind is EquationKind.GRAVITATING and min_density <= 0.0:
        gauss_bonnet = math.nan
    else:
        u = conformal_exponent(state)
        total = integrate(
            ScalarField(s.grid, s.grid.base_scalar_curvature + 2.0 * laplacian_apply(u).values)
        )
        gauss_bonnet = total - 2.0 * TWO_PI * chi
    return IdentityReport(
        degree_identity=degree,
        volume_identity=volume,
        gauss_bonnet=gauss_bonnet,
        min_density=min_density,
    )
