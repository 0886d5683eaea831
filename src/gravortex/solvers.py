"""Damped Newton solvers with spectral preconditioning and coupling continuation.

One bordered Newton system, ``_NewtonSystem``, drives all three equation
kinds: it stacks the residual of ``equations.residual_fields`` with the gauge
row, and its ``matvec`` is the only Jacobian in the package.  The unknown
vector is f (vortex), (f, c') (EB), or (f, v, c') (gravitating); the additive
volume-gauge constant c' of the conformal factor is an explicit Newton
unknown, paired with the volume/mean constraints:

* EB rows:          equation residual, then (Vol(e^{2u} omega_0) - 2 pi)/(2 pi);
* gravitating rows: the two equation residuals, then mean(v)
  (the volume constraint is already the mean of the second equation, since
  Delta v integrates to zero).

Linear systems are solved with preconditioned LGMRES; the preconditioner is
the exact spectral (Delta + shift)^{-1} applied blockwise.  Damping is Armijo
backtracking on the quadratic merit (1/2)||R||^2 in the background L2 norm;
the accepted trial's system becomes the next step's system.

Failure taxonomy: MaxIters, Divergence (iterate norm blow-up), Overflow
(nonlinearity exponent beyond the guard), StepFloor (backtracking collapsed).
Reports are certified: ``converged`` additionally requires the integral
identities (degree, volume, Gauss-Bonnet, metric positivity) to hold at
their standard tolerances, and the exact degree bound N < tau * Vol/(4 pi)
(respectively polystability, for EB) to hold for the data -- when the bound
fails the equations have no solution and residual-small iterates are
collapse artefacts, so the report says non-converged and cites the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Optional

import numpy as np
from scipy.sparse.linalg import LinearOperator, lgmres

from . import stability
from .equations import (
    EquationKind,
    FieldState,
    IdentityReport,
    ProblemSpec,
    _clamped_exp,
    _p_of,
    _weight_exponent,
    exponent_overflow,
    identity_report,
    initial_state,
    make_state,
    residual_fields,
)
from .geometry import ScalarField, SurfaceGrid, SurfaceModel, laplacian_values, smoothing_invert
from .sections import SectionData

TWO_PI = 2.0 * math.pi

DEGREE_IDENTITY_TOL = 1e-6
VOLUME_IDENTITY_TOL = 1e-8
GAUSS_BONNET_TOL = 1e-4
_STEP_FLOOR = 2.0**-25


class FailureReason(str, Enum):
    MAX_ITERS = "MaxIters"
    DIVERGENCE = "Divergence"
    OVERFLOW = "Overflow"
    STEP_FLOOR = "StepFloor"


@dataclass(frozen=True)
class SolverConfig:
    """Newton iteration controls."""

    newton_tol: float = 1e-10
    max_newton_iters: int = 50
    armijo_constant: float = 1e-4
    linear_tol: float = 1e-12
    linear_maxiter: int = 8
    divergence_norm: float = 1e6


@dataclass(frozen=True)
class ContinuationSchedule:
    """Ascending coupling targets, starting at 0."""

    alpha_targets: tuple
    max_step_halvings: int = 10

    def __post_init__(self):
        targets = tuple(float(a) for a in self.alpha_targets)
        if not targets or targets[0] != 0.0:
            raise ValueError("the first continuation target must be 0")
        if any(b <= a for a, b in zip(targets, targets[1:])):
            raise ValueError("continuation targets must be strictly ascending")
        object.__setattr__(self, "alpha_targets", targets)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solve, certified against the integral identities."""

    converged: bool
    iterations: int
    final_residual: float
    identity: IdentityReport
    alpha_reached: float
    failure_reason: Optional[FailureReason] = None
    message: str = ""
    c_prime: float = 0.0

    def to_dict(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "identity": self.identity.to_dict(),
            "alpha_reached": self.alpha_reached,
            "failure_reason": None if self.failure_reason is None else self.failure_reason.value,
            "message": self.message,
            "c_prime": self.c_prime,
        }


# ---------------------------------------------------------------------------
# the unified Newton system
# ---------------------------------------------------------------------------


class _NewtonSystem:
    """Bordered residual, Jacobian action, and preconditioner at a frozen state.

    The block layout is fixed per kind in ``__init__``: the f rows; the v rows
    when v is an unknown (gravitating); then the c' column and its gauge row
    (gravitating and EB), which reads mean(v) when v is an unknown and
    (Vol - 2 pi)/(2 pi) otherwise.  Blocks a kind lacks read as zero, so the
    methods share one code path.
    """

    def __init__(self, state: FieldState):
        s = state.spec
        self.state, self.spec, self.grid = state, s, s.grid
        self.n = s.grid.n_nodes
        self.has_v = s.kind is EquationKind.GRAVITATING
        self.bordered = s.kind is not EquationKind.VORTEX
        self.field_rows = (2 if self.has_v else 1) * self.n
        self.size = self.field_rows + int(self.bordered)
        self._volume_offset = 0.0 if self.has_v else TWO_PI
        p = _p_of(state)
        self.w = _clamped_exp(_weight_exponent(state, p))
        # pointwise coefficients of the Jacobian: dW = W (a df - 2c dv + 2 dc),
        # dR1 = Delta df + P W df + (1/2)(P - tau) dW, dR2 = Delta dv + dW
        self._a = 4.0 * s.alpha * (s.tau - p)
        self._pw = p * self.w
        self._half_pt = 0.5 * (p - s.tau)
        # the alpha = 0 guard keeps 0 * (P - tau)^2 from turning an overflow into NaN
        curv = 2.0 * s.alpha * (p - s.tau) ** 2 if s.alpha else 0.0
        wq = self.grid.quad_weights
        mult = self._pw - curv * self.w
        self._shifts = (max(1e-6, float(np.dot(wq, np.abs(mult))) / TWO_PI),)
        if self.has_v:
            shift_v = float(np.dot(wq, np.abs(2.0 * s.c * self.w))) / TWO_PI
            self._shifts += (max(1e-6, shift_v),)
        self._rv = None

    def _split(self, x: np.ndarray):
        """(df, dv, dc) of a vector in the block layout; absent blocks read as 0."""
        n = self.n
        dv = x[n : 2 * n] if self.has_v else 0.0
        dc = float(x[-1]) if self.bordered else 0.0
        return x[:n], dv, dc

    def _stack(self, rows: list, v, w, offset: float) -> np.ndarray:
        """The field rows, then the gauge row on v (v an unknown) or on w."""
        if self.bordered:
            gauge = v if self.has_v else w
            rows = rows + [[(float(np.dot(self.grid.quad_weights, gauge)) - offset) / TWO_PI]]
        return np.concatenate(rows)

    # -- residual -----------------------------------------------------------
    def residual_vector(self) -> tuple[np.ndarray, float]:
        """Stacked residual and its sup norm over every row."""
        if self._rv is None:
            rows = [field.values for field in residual_fields(self.state)]
            r = self._stack(rows, self.state.v.values, self.w, self._volume_offset)
            self._rv = (r, float(np.max(np.abs(r))))
        return self._rv

    # -- Jacobian action ------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        g = self.grid
        df, dv, dc = self._split(x)
        dw = self.w * (self._a * df - 2.0 * self.spec.c * dv + 2.0 * dc)
        rows = [laplacian_values(g, df) + self._pw * df + self._half_pt * dw]
        if self.has_v:
            rows.append(laplacian_values(g, dv) + dw)
        return self._stack(rows, dv, dw, 0.0)

    # -- preconditioner -------------------------------------------------------
    def precond(self, x: np.ndarray) -> np.ndarray:
        """(Delta + shift)^{-1} on each field block; identity on the gauge entry."""
        n, g = self.n, self.grid
        parts = [smoothing_invert(x[k * n : (k + 1) * n], g, shift)
                 for k, shift in enumerate(self._shifts)]
        parts.append(x[self.field_rows :])
        return np.concatenate(parts)

    # -- merit weights --------------------------------------------------------
    def merit(self, vec: np.ndarray) -> float:
        """(1/2) ||vec||^2: L2 on the field rows, 2 pi times the square on the gauge row."""
        wq = self.grid.quad_weights
        total = 0.0
        for r in vec[: self.field_rows].reshape(-1, self.n):
            total += float(np.dot(wq, r * r))
        gauge = vec[self.field_rows :]
        return 0.5 * (total + TWO_PI * float(np.dot(gauge, gauge)))

    def apply_update(self, x: np.ndarray, t: float) -> FieldState:
        """The state moved by t times the Newton direction x (v kept mean-zero)."""
        st, s, g = self.state, self.spec, self.grid
        df, dv, dc = self._split(x)
        new_v = st.v.values + t * dv
        new_v = new_v - float(np.dot(g.quad_weights, new_v)) / TWO_PI
        return FieldState(
            ScalarField(g, st.f.values + t * df),
            ScalarField(g, new_v),
            replace(s, c_prime=s.c_prime + t * dc),
        )


# ---------------------------------------------------------------------------
# Newton iteration
# ---------------------------------------------------------------------------


def newton_step(state: FieldState, config: SolverConfig = SolverConfig(), _system=None):
    """One damped Newton step.

    Returns (new_state, info) where info records residual_norm (sup norm over
    every row of the bordered residual), new_residual_norm, step_scale (0.0
    when no step was taken), flag in {None, "overflow", "step_floor"}, and
    system, the Newton system at new_state (the next step reuses it).
    """
    sys = _system if _system is not None else _NewtonSystem(state)
    r, sup = sys.residual_vector()
    info = {"residual_norm": sup, "new_residual_norm": sup, "step_scale": 0.0, "flag": None,
            "system": sys}
    if exponent_overflow(state):
        info["flag"] = "overflow"
        return state, info
    op = LinearOperator((sys.size, sys.size), matvec=sys.matvec)
    pre = LinearOperator((sys.size, sys.size), matvec=sys.precond)
    d, _ = lgmres(op, -r, M=pre, rtol=config.linear_tol, atol=0.0,
                  maxiter=config.linear_maxiter, inner_m=30)
    theta0 = sys.merit(r)
    t = 1.0
    while True:
        trial = sys.apply_update(d, t)
        if not exponent_overflow(trial):
            trial_sys = _NewtonSystem(trial)
            r2, sup2 = trial_sys.residual_vector()
            if sys.merit(r2) <= (1.0 - 2.0 * config.armijo_constant * t) * theta0:
                info.update(new_residual_norm=sup2, step_scale=t, system=trial_sys)
                return trial, info
        t *= 0.5
        if t < _STEP_FLOOR:
            info["flag"] = "step_floor"
            return state, info


@dataclass
class _LoopResult:
    state: FieldState
    iterations: int
    residual: float
    failure: Optional[FailureReason]
    message: str = ""


_FLAG_FAILURES = {
    "overflow": (FailureReason.OVERFLOW, "nonlinearity exponent exceeded the overflow guard"),
    "step_floor": (FailureReason.STEP_FLOOR,
                   "backtracking line search collapsed below the step floor"),
}


def _newton_loop(state: FieldState, config: SolverConfig) -> _LoopResult:
    if exponent_overflow(state):
        return _LoopResult(state, 0, math.inf, *_FLAG_FAILURES["overflow"])
    sys = _NewtonSystem(state)
    iterations = 0
    while True:
        _, sup = sys.residual_vector()
        norms = max(
            float(np.max(np.abs(state.f.values))), float(np.max(np.abs(state.v.values)))
        )
        if sup <= config.newton_tol:
            return _LoopResult(state, iterations, sup, None)
        if norms > config.divergence_norm:
            return _LoopResult(state, iterations, sup, FailureReason.DIVERGENCE,
                               f"iterate sup-norm {norms:.3e} exceeded the divergence guard")
        if iterations >= config.max_newton_iters:
            return _LoopResult(state, iterations, sup, FailureReason.MAX_ITERS,
                               f"residual {sup:.3e} after {iterations} iterations")
        state, info = newton_step(state, config, _system=sys)
        iterations += 1
        if info["flag"] is not None:
            return _LoopResult(state, iterations, info["residual_norm"],
                               *_FLAG_FAILURES[info["flag"]])
        sys = info["system"]


# ---------------------------------------------------------------------------
# certification helpers
# ---------------------------------------------------------------------------


def _identity_ok(rep: IdentityReport) -> bool:
    return (
        abs(rep.degree_identity) <= DEGREE_IDENTITY_TOL
        and abs(rep.volume_identity) <= VOLUME_IDENTITY_TOL
        and math.isfinite(rep.gauss_bonnet)
        and abs(rep.gauss_bonnet) <= GAUSS_BONNET_TOL
        and rep.min_density > 0.0
    )


def _certify(loop: _LoopResult, alpha_reached: float, extra_gate: Optional[str]) -> SolveReport:
    rep = identity_report(loop.state)
    numeric_ok = loop.failure is None
    message = loop.message
    failure = loop.failure
    converged = numeric_ok
    if numeric_ok and extra_gate is not None:
        # residual-small iterate of an unsolvable problem: collapse artefact
        converged = False
        failure = FailureReason.DIVERGENCE
        message = extra_gate
    elif not numeric_ok and extra_gate is not None:
        message = f"{extra_gate}; {message}" if message else extra_gate
    if converged and not _identity_ok(rep):
        converged = False
        failure = FailureReason.MAX_ITERS
        message = "integral identities failed at the residual-converged state"
    return SolveReport(
        converged=converged,
        iterations=loop.iterations,
        final_residual=loop.residual,
        identity=rep,
        alpha_reached=alpha_reached,
        failure_reason=None if converged else failure,
        message=message,
        c_prime=loop.state.spec.c_prime,
    )


def _bradlow_gate(n: int, tau: float) -> Optional[str]:
    if stability.bradlow_check(n, tau):
        return None
    bound = stability.bradlow_bound(tau)
    return (
        f"no solution at this tau: degree bound fails (N = {n} >= tau*Vol/(4*pi) = {float(bound)})"
    )


def _polystable_gate(section: SectionData) -> Optional[str]:
    cls = stability.classify_divisor(section.divisor)
    if cls.verdict is stability.StabilityVerdict.UNSTABLE:
        return (
            "no solution at this coupling: divisor is not polystable "
            f"(witness point index {cls.witness})"
        )
    return None


# ---------------------------------------------------------------------------
# public solvers
# ---------------------------------------------------------------------------


def solve_vortex(
    grid: SurfaceGrid,
    section: SectionData,
    tau: float,
    config: SolverConfig = SolverConfig(),
    initial: Optional[FieldState] = None,
) -> tuple[FieldState, SolveReport]:
    """Solve the vortex equation at fixed background area 2*pi.

    Returns the final state and a certified report.  When the degree bound
    N < tau*Vol/(4*pi) fails, no solution exists; the iteration still runs
    and the report comes back non-converged citing the violated bound.
    """
    spec = ProblemSpec(grid=grid, section=section, tau=tau, kind=EquationKind.VORTEX)
    if initial is None:
        state = initial_state(spec)
    elif isinstance(initial, FieldState):
        state = make_state(spec, initial.f.values)
    else:
        vals = initial.values if isinstance(initial, ScalarField) else np.asarray(initial)
        state = make_state(spec, vals)
    loop = _newton_loop(state, config)
    gate = _bradlow_gate(section.divisor.total_degree, tau)
    return loop.state, _certify(loop, 0.0, gate)


def default_alpha_targets(alpha: float) -> tuple:
    """The default continuation targets 0, alpha/4, alpha/2, 3 alpha/4, alpha."""
    if alpha == 0.0:
        return (0.0,)
    return tuple(alpha * k / 4.0 for k in range(5))


def _continue_in_alpha(
    anchor: FieldState,
    schedule: ContinuationSchedule,
    spec_at: Callable[[float, float], ProblemSpec],
    lift: Callable[[FieldState, ProblemSpec], FieldState],
    config: SolverConfig,
) -> tuple[FieldState, float, _LoopResult, int]:
    """March the anchor state along ascending alpha targets with bisection."""
    state = anchor
    reached = 0.0
    budget = schedule.max_step_halvings
    total_iters = 0
    last = _LoopResult(anchor, 0, 0.0, None)
    for target in schedule.alpha_targets[1:]:
        attempt = target
        while reached < target:
            trial_spec = spec_at(attempt, state.spec.c_prime)
            loop = _newton_loop(lift(state, trial_spec), config)
            total_iters += loop.iterations
            last = loop
            if loop.failure is None:
                state = loop.state
                reached = attempt
                attempt = target
            else:
                budget -= 1
                mid = 0.5 * (reached + attempt)
                if budget < 0 or mid - reached <= 1e-12 * (1.0 + target):
                    return state, reached, loop, total_iters
                attempt = mid
    return state, reached, last, total_iters


def solve_gravitating(
    grid: SurfaceGrid,
    section: SectionData,
    tau: float,
    alpha: float,
    schedule: Optional[ContinuationSchedule] = None,
    config: SolverConfig = SolverConfig(),
) -> tuple[FieldState, SolveReport]:
    """Solve the gravitating system by continuation in the coupling.

    The anchor at alpha = 0 is the vortex solution with v = 0, c' = 0 (exact
    there); each subsequent target re-poses the problem with
    c = chi - 2*alpha*tau*N and carries (f, v, c') forward, bisecting failed
    steps until ``schedule.max_step_halvings`` is exhausted.
    """
    alpha = float(alpha)
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    if schedule is None:
        schedule = ContinuationSchedule(default_alpha_targets(alpha))
    if schedule.alpha_targets[-1] != alpha:
        raise ValueError("the continuation schedule must end at the requested alpha")
    n = section.divisor.total_degree
    chi = grid.euler_characteristic

    vortex_state, vortex_report = solve_vortex(grid, section, tau, config=config)
    if not vortex_report.converged:
        spec0 = ProblemSpec(
            grid=grid, section=section, tau=tau, kind=EquationKind.GRAVITATING,
            alpha=0.0, c=float(chi), c_prime=0.0,
        )
        state0 = make_state(spec0, vortex_state.f.values)
        loop = _LoopResult(
            state0, vortex_report.iterations, vortex_report.final_residual,
            vortex_report.failure_reason or FailureReason.MAX_ITERS, vortex_report.message,
        )
        return state0, _certify(loop, 0.0, None)

    def spec_at(a: float, c_prime: float) -> ProblemSpec:
        return ProblemSpec(
            grid=grid, section=section, tau=tau, kind=EquationKind.GRAVITATING,
            alpha=a, c=chi - 2.0 * a * tau * n, c_prime=c_prime,
        )

    def lift(state: FieldState, spec: ProblemSpec) -> FieldState:
        return FieldState(state.f, state.v, spec)

    anchor = make_state(spec_at(0.0, 0.0), vortex_state.f.values)
    if alpha == 0.0:
        loop = _LoopResult(anchor, vortex_report.iterations, vortex_report.final_residual, None)
        return anchor, _certify(loop, 0.0, None)
    state, reached, last, iters = _continue_in_alpha(anchor, schedule, spec_at, lift, config)
    message = last.message
    if last.failure is not None:
        message = f"continuation stalled at alpha = {reached} (target {alpha}): {message}"
    # report the last certified state, not the failed trial
    loop = _LoopResult(state, iters + vortex_report.iterations, last.residual, last.failure,
                       message)
    return state, _certify(loop, reached, None)


def advance_gravitating(
    state: FieldState,
    alpha: float,
    config: SolverConfig = SolverConfig(),
) -> tuple[FieldState, SolveReport]:
    """Re-pose an existing state at a new coupling and re-solve (warm start).

    Used by parameter sweeps: the previous converged state seeds the Newton
    iteration at the next coupling directly, with no intermediate
    continuation targets.  On failure the report's ``alpha_reached`` is the
    seed's coupling, the last value actually certified.
    """
    alpha = float(alpha)
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    old = state.spec
    n = old.section.divisor.total_degree
    chi = old.grid.euler_characteristic
    new_spec = ProblemSpec(
        grid=old.grid, section=old.section, tau=old.tau,
        kind=EquationKind.GRAVITATING,
        alpha=alpha, c=chi - 2.0 * alpha * old.tau * n,
        c_prime=old.c_prime,
    )
    loop = _newton_loop(FieldState(state.f, state.v, new_spec), config)
    reached = alpha if loop.failure is None else float(old.alpha)
    return loop.state, _certify(loop, reached, None)


def solve_eb(
    grid: SurfaceGrid,
    section: SectionData,
    tau: float,
    config: SolverConfig = SolverConfig(),
    schedule: Optional[ContinuationSchedule] = None,
) -> tuple[FieldState, SolveReport]:
    """Solve the Einstein-Bogomol'nyi equation at the exact coupling 1/(tau N).

    Genus 0 only; requires N < tau/2.  Continuation ramps alpha from 0 (the
    vortex anchor) to 1/(tau N); the volume gauge c' rides along as a Newton
    unknown.  For non-polystable divisors no solution exists and the report
    is non-converged citing the classification.
    """
    if grid.model is not SurfaceModel.SPHERE:
        raise ValueError("the Einstein-Bogomol'nyi equation lives on the sphere")
    n = section.divisor.total_degree
    if not stability.bradlow_check(n, tau):
        raise ValueError(f"solve_eb requires N < tau/2 (got N = {n}, tau = {tau})")
    alpha_eb = float(stability.eb_coupling(tau, n))
    if schedule is None:
        schedule = ContinuationSchedule(default_alpha_targets(alpha_eb))
    if schedule.alpha_targets[-1] != alpha_eb:
        raise ValueError("the EB continuation schedule must end at alpha = 1/(tau N)")

    vortex_state, vortex_report = solve_vortex(grid, section, tau, config=config)
    gate = _polystable_gate(section)
    if not vortex_report.converged:
        loop = _LoopResult(
            vortex_state, vortex_report.iterations, vortex_report.final_residual,
            vortex_report.failure_reason or FailureReason.MAX_ITERS, vortex_report.message,
        )
        return vortex_state, _certify(loop, 0.0, gate)

    def spec_at(a: float, c_prime: float) -> ProblemSpec:
        if a == 0.0:
            return ProblemSpec(grid=grid, section=section, tau=tau, kind=EquationKind.VORTEX)
        return ProblemSpec(
            grid=grid, section=section, tau=tau, kind=EquationKind.EINSTEIN_BOGOMOLNYI,
            alpha=a, c=0.0, c_prime=c_prime,
        )

    def lift(state: FieldState, spec: ProblemSpec) -> FieldState:
        return make_state(spec, state.f.values)

    anchor = make_state(spec_at(0.0, 0.0), vortex_state.f.values)
    state, reached, last, iters = _continue_in_alpha(anchor, schedule, spec_at, lift, config)
    failure = last.failure
    message = last.message
    if failure is not None:
        message = f"continuation stalled at alpha = {reached} (target {alpha_eb}): {message}"
    loop = _LoopResult(state, iters + vortex_report.iterations, last.residual, failure, message)
    return state, _certify(loop, reached, gate)
