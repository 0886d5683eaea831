"""Damped Newton solvers with spectral preconditioning and coupling continuation.

One bordered Newton system, ``_NewtonSystem``, drives all three equation
kinds: it stacks ``equations._residual_rows`` with the gauge row, and its
``matvec`` is the only Jacobian in the package.  It holds the iterate as raw
arrays, so a line-search trial evaluates the nonlinearity once and builds no
``FieldState`` (accepted steps do).  The unknown vector is f (vortex),
(f, c') (EB), or (f, v, c') (gravitating); the additive volume-gauge constant
c' of the conformal factor is an explicit Newton unknown, paired with the
volume/mean constraints:

* EB rows:          equation residual, then (Vol(e^{2u} omega_0) - 2 pi)/(2 pi);
* gravitating rows: the two equation residuals, then mean(v)
  (the volume constraint is already the mean of the second equation, since
  Delta v integrates to zero).

One GMRES cycle (``gmres``) solves the right-preconditioned J P y = -R, gauge
row scaled by sqrt(n_nodes) so that, on the torus (uniform quadrature weights),
the 2-norm it minimises is the Armijo merit's, to an Eisenstat-Walker forcing
tolerance capped at eta_max (inexact Newton-Krylov; see ``_forcing``); d = P y,
P the spectral (Delta + shift)^{-1} per field block, is assembled from the P v_j
the Krylov loop keeps.  Delta P = I - shift P makes J P y one transform call for
all field blocks (on the sphere exactly for band-limited y; the operator passes
the rest of y through and P drops it), and the true residual J d + R no transform
at all.  Armijo backtracking on (1/2)||R||^2 (background L2) damps d.  When the
full step fails, one product J d with the true Laplacian gives the merit's slope
<R, J d>; a slope not below -2 sigma (1/2)||R||^2 admits no Armijo step (Dennis &
Schnabel 1996, 6.3), and the step ends there, without halving t to the floor.

Failure taxonomy: MaxIters, Divergence (iterate norm blow-up), Overflow
(nonlinearity exponent beyond the guard, or a residual 2-norm beyond the float
range), StepFloor (backtracking collapsed, or no descent), NoSolution (the
residual converged but the exact existence gate rules a solution out),
IdentityFailure (the integral identities fail at the residual-converged state).
A MaxIters or StepFloor message names the GMRES exit code (1) when the last
linear solve stopped short of its tolerance.
Reports are certified: ``converged`` additionally requires the degree and volume
identities at their tolerances, a positive solved metric, and data that pass
``_existence_gate``, the verdict of ``stability.existence_oracle``.  Where it says
NotExists, residual-small iterates are collapse artefacts: the report says NoSolution
and quotes the oracle's theorem tag and reason once.  The gate only decides whether a
solve is sequenced and certifies it; it never cuts a solve short.

Gravitating and EB solves pose their target ``ProblemSpec`` once and run through one
driver, ``_solve_coupled``; every stage poses a ``dataclasses.replace`` of that target.
Data that pass the gate at alpha > 0, on a grid of resolution >= 48, start with one
Newton loop at the target on the quarter grid; else, or on failure, it continues in
alpha (Allgower & Georg, 2003) from the vortex solution at alpha = 0 through the fixed
targets alpha/4, alpha/2, 3 alpha/4 and alpha, each posed from the secant through the
last two certified states, failed steps bisected.  ``ProblemSpec`` validates the
coupling, so a bad alpha is rejected before any Newton loop runs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from . import stability
from .equations import (
    EquationKind,
    FieldState,
    IdentityReport,
    ProblemSpec,
    _clamped_exp,
    _nonlinearity,
    _residual_rows,
    identity_report,
    initial_state,
    make_state,
)
from .equations import residual_fields  # noqa: F401  (perfbench/tracer.py patches this binding)
from .geometry import SurfaceGrid, SurfaceModel, _is_int, laplacian_values, prolong
from .geometry import smoothing_invert
from .sections import SectionData, build_section, rescale

TWO_PI = 2.0 * math.pi

DEGREE_IDENTITY_TOL = 1e-6
VOLUME_IDENTITY_TOL = 1e-8
_STEP_FLOOR = 2.0**-25
_ARMIJO_CONSTANT = 1e-4
_KRYLOV_INNER = 30  # GMRES iterations per linear solve: one cycle, never restarted
_DIVERGENCE_NORM = 1e6  # iterate sup norm beyond which a loop reports Divergence

# Eisenstat-Walker choice 2 (SIAM J. Sci. Comput. 17, 1996).  eta_max = 0.5 and
# 0.9 were measured worse: EB L=48 [0]+[inf] takes 29 and 38 steps against 24.
_EW_GAMMA = 0.9
_EW_EXPONENT = 2.0
_ETA_MAX = 0.1

# alpha-continuation: targets alpha * k / _ALPHA_STEPS for k = 1.._ALPHA_STEPS, and the
# number of failed attempts bisected, over the whole continuation, before it stalls
_ALPHA_STEPS = 4
_MAX_STEP_HALVINGS = 10


class FailureReason(str, Enum):
    MAX_ITERS = "MaxIters"
    DIVERGENCE = "Divergence"
    OVERFLOW = "Overflow"
    STEP_FLOOR = "StepFloor"
    NO_SOLUTION = "NoSolution"
    IDENTITY_FAILURE = "IdentityFailure"


@dataclass(frozen=True)
class SolverConfig:
    """Newton iteration controls: the residual sup-norm tolerance and the step budget.

    Raises ValueError, naming the field, unless ``newton_tol`` is finite and
    positive and ``max_newton_iters`` is an integer >= 1.  Each linear solve
    runs to the Eisenstat-Walker forcing tolerance (see ``_forcing``), derived
    from the residual history and ``newton_tol``; the Armijo constant, the
    GMRES iteration budget and the divergence guard are module constants.
    """

    newton_tol: float = 1e-10
    max_newton_iters: int = 50

    def __post_init__(self):
        if not (math.isfinite(self.newton_tol) and self.newton_tol > 0.0):
            raise ValueError(f"newton_tol must be finite and > 0; got {self.newton_tol!r}")
        if not _is_int(self.max_newton_iters) or self.max_newton_iters < 1:
            raise ValueError(
                f"max_newton_iters must be an integer >= 1; got {self.max_newton_iters!r}")


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
    coarse_resolution: Optional[int] = None  # the coarse grid of a sequenced solve

    def to_dict(self) -> dict:
        out = asdict(self)
        out["failure_reason"] = None if self.failure_reason is None else self.failure_reason.value
        return out


# ---------------------------------------------------------------------------
# the unified Newton system
# ---------------------------------------------------------------------------


class _NewtonSystem:
    """Bordered residual, Jacobian action, preconditioner and Krylov operator at one iterate.

    The iterate is raw arrays f, v (None reads as 0) and c' (default: the
    spec's).  Construction evaluates the nonlinearity once and sets
    ``overflow``; the Jacobian coefficients and shifts are built on first use,
    never for a rejected line-search trial; ``state`` is the validated
    ``FieldState``.  Block layout per kind: the f rows; the v rows when v is
    an unknown (gravitating); then the c' column and its gauge row
    (gravitating and EB), which reads mean(v) when v is an unknown and
    (Vol - 2 pi)/(2 pi) otherwise.  Absent blocks read as zero.
    """

    def __init__(self, spec: ProblemSpec, f: np.ndarray, v: Optional[np.ndarray] = None,
                 c_prime: Optional[float] = None):
        self.spec, self.grid = spec, spec.grid
        self.n = spec.grid.n_nodes
        self.f = f
        self.v = np.zeros(self.n) if v is None else v
        self.c_prime = spec.c_prime if c_prime is None else c_prime
        self.has_v = spec.kind is EquationKind.GRAVITATING
        self.bordered = spec.kind is not EquationKind.VORTEX
        self.field_rows = (2 if self.has_v else 1) * self.n
        self.size = self.field_rows + int(self.bordered)
        self._p, q, self.overflow = _nonlinearity(spec, self.f, self.v, self.c_prime)
        self.w = _clamped_exp(q)
        self._rv = None

    @cached_property
    def state(self) -> FieldState:
        return make_state(replace(self.spec, c_prime=self.c_prime), self.f, self.v)

    @cached_property
    def _jacobian(self) -> tuple:
        """Pointwise coefficients (a, P W, (P - tau)/2) of dW = W (a df - 2c dv + 2 dc),
        dR1 = Delta df + P W df + (1/2)(P - tau) dW and dR2 = Delta dv + dW."""
        s, p = self.spec, self._p
        return 4.0 * s.alpha * (s.tau - p), p * self.w, 0.5 * (p - s.tau)

    @cached_property
    def _shifts(self) -> tuple:
        """The preconditioner's shift for each field block."""
        s, p, w = self.spec, self._p, self.w
        # the alpha = 0 guard keeps 0 * (P - tau)^2 from turning an overflow into NaN
        curv = 2.0 * s.alpha * (p - s.tau) ** 2 if s.alpha else 0.0
        wq = self.grid.quad_weights
        mults = [self._jacobian[1] - curv * w] + ([2.0 * s.c * w] if self.has_v else [])
        return tuple(max(1e-6, float(np.dot(wq, np.abs(m))) / TWO_PI) for m in mults)

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
            rows = _residual_rows(self.spec, self.f, self.v, self._p, self.w)
            r = self._stack(rows, self.v, self.w, 0.0 if self.has_v else TWO_PI)
            self._rv = (r, float(np.max(np.abs(r))))
        return self._rv

    # -- Jacobian action ------------------------------------------------------
    def matvec(self, x: np.ndarray, lap: Optional[list] = None) -> np.ndarray:
        """J x; ``lap`` holds the Laplacians of the field blocks of x when the caller has them."""
        df, dv, dc = self._split(x)
        if lap is None:
            lap = laplacian_values(self.grid, x[: self.field_rows].reshape(-1, self.n))
        a, pw, half_pt = self._jacobian
        dw = self.w * (a * df - 2.0 * self.spec.c * dv + 2.0 * dc)
        rows = [lap[0] + pw * df + half_pt * dw]
        if self.has_v:
            rows.append(lap[1] + dw)
        return self._stack(rows, dv, dw, 0.0)

    def krylov_apply(self, y: np.ndarray, x: Optional[np.ndarray] = None) -> tuple:
        """(P y, D J P y), D the ``krylov_scale``; the Laplacian of each field block of P y is
        read off as y - shift P y, so only P transforms, and nothing does when x = P y is given."""
        if x is None:
            x = self.precond(y)
        n = self.n
        lap = [y[k * n : (k + 1) * n] - shift * x[k * n : (k + 1) * n]
               for k, shift in enumerate(self._shifts)]
        return x, self.krylov_scale(self.matvec(x, lap))

    # -- preconditioner -------------------------------------------------------
    def precond(self, x: np.ndarray) -> np.ndarray:
        """(Delta + shift)^{-1} on the field blocks, in one call; identity on the gauge entry."""
        fields = x[: self.field_rows].reshape(2, self.n) if self.has_v else x[: self.n]
        shift = self._shifts if self.has_v else self._shifts[0]
        out = smoothing_invert(fields, self.grid, shift).reshape(-1)
        return np.concatenate([out, x[self.field_rows :]])

    # -- merit weights --------------------------------------------------------
    def krylov_scale(self, vec: np.ndarray) -> np.ndarray:
        """vec with its gauge row times sqrt(n_nodes), in place: GMRES's 2-norm of it is the
        merit's norm (on the torus (2 pi/n_nodes) ||D vec||^2 = 2 merit(vec))."""
        vec[self.field_rows :] *= math.sqrt(self.n)
        return vec

    @np.errstate(over="ignore")  # a blown-up trial's merit is inf, and the trial is rejected
    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """The merit's inner product: L2 on the field rows, 2 pi times the gauge rows' product."""
        wq, k = self.grid.quad_weights, self.field_rows
        fields = sum(float(np.dot(wq, row)) for row in (a[:k] * b[:k]).reshape(-1, self.n))
        return fields + TWO_PI * float(np.dot(a[k:], b[k:]))

    def merit(self, vec: np.ndarray) -> float:
        """(1/2) <vec, vec>; of the residual r, along a direction d, its slope is <r, J d>."""
        return 0.5 * self.inner(vec, vec)

    def apply_update(self, x: np.ndarray, t: float) -> _NewtonSystem:
        """The system at the iterate moved by t times the Newton direction x, v re-centred to
        mean zero and c' moved by -c times the mean: W reads v only through -2c v + 2c', so this
        gauge move leaves every field row as it was."""
        df, dv, dc = self._split(x)
        v = self.v + t * dv
        mean = float(np.dot(self.grid.quad_weights, v)) / TWO_PI
        return _NewtonSystem(self.spec, self.f + t * df, v - mean,
                             self.c_prime + t * dc - self.spec.c * mean)


# ---------------------------------------------------------------------------
# Newton iteration
# ---------------------------------------------------------------------------


def _forcing(norm: float, prev_norm: Optional[float], newton_tol: float) -> float:
    """Relative GMRES tolerance at residual 2-norm ``norm``, taken after ``krylov_scale``.

    Eisenstat-Walker choice 2, eta = gamma (||F_k|| / ||F_{k-1}||)^2 (eta_max on a
    loop's first step), floored at 0.5 newton_tol / ||F_k|| (Kelley, Solving Nonlinear
    Equations with Newton's Method, 2003) so GMRES does not solve far past the
    Newton tolerance, and capped last at eta_max: near the root the floor exceeds
    eta_max, and a direction that loose need not descend the merit: the loop would
    stall at its own tolerance.  Choice 2's safeguard max(eta, gamma eta_{k-1}^2),
    applied when gamma eta_{k-1}^2 > 0.1, is left out: under the cap it is at most
    gamma eta_max^2 = 0.009.
    """
    eta = _ETA_MAX if prev_norm is None else _EW_GAMMA * (norm / prev_norm) ** _EW_EXPONENT
    return min(max(eta, 0.5 * newton_tol / norm), _ETA_MAX)


def gmres(apply, b: np.ndarray, rtol: float) -> tuple[np.ndarray, int]:
    """One GMRES cycle (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986) for A y = b.

    ``apply(y, x=None)`` returns (P y, A y), A = D J P, and spares P when x = P y is given.
    Up to _KRYLOV_INNER Arnoldi steps from y = 0 (modified Gram-Schmidt, Givens rotations)
    keep P v_j beside each basis vector v_j, so d = P y is their combination and costs no
    further P.  The Arnoldi estimate, or a zero pivot (A singular), only ends the cycle; the
    true residual b - A y, formed once from (y, d), decides the exit code: (d, 0) when it is
    within rtol ||b||, else (d, 1).  Nothing is applied when ||b|| is 0 (code 0) or not
    finite (code 1); d is then 0.
    """
    m = _KRYLOV_INNER
    beta = float(np.linalg.norm(b))
    if beta == 0.0 or not math.isfinite(beta):
        return np.zeros_like(b), 0 if beta == 0.0 else 1
    tol = rtol * beta
    basis, dirs, rot = [b / beta], [], []
    h, g = np.zeros((m + 1, m)), np.zeros(m + 1)
    g[0] = beta
    for j in range(m):
        z, w = apply(basis[j])
        dirs.append(z)
        w_norm = float(np.linalg.norm(w))
        for i, v in enumerate(basis):
            h[i, j] = np.dot(v, w)
            w -= h[i, j] * v
        h[j + 1, j] = np.linalg.norm(w)
        breakdown = not h[j + 1, j] > np.finfo(float).eps * w_norm
        if not breakdown:
            basis.append(w / h[j + 1, j])
        for i, (c, s) in enumerate(rot):
            h[i, j], h[i + 1, j] = c * h[i, j] + s * h[i + 1, j], c * h[i + 1, j] - s * h[i, j]
        rho = math.hypot(h[j, j], h[j + 1, j])
        if rho == 0.0:  # A is singular on the Krylov space: solve on the columns before j
            j -= 1
            break
        c, s = h[j, j] / rho, h[j + 1, j] / rho
        rot.append((c, s))
        h[j, j], g[j], g[j + 1] = rho, c * g[j], -s * g[j]
        if abs(g[j + 1]) < tol or breakdown:
            break
    coef = np.linalg.solve(np.triu(h[: j + 1, : j + 1]), g[: j + 1])
    y, d = np.zeros_like(b), np.zeros_like(b)
    for ci, v, z in zip(coef, basis, dirs):
        y += ci * v
        d += ci * z
    d, w = apply(y, d)
    return d, 0 if float(np.linalg.norm(b - w)) <= tol else 1


lgmres = gmres  # perfbench/tracer.py patches this binding


def newton_step(state: FieldState, _system=None, rtol: float = _ETA_MAX):
    """One damped Newton step d = P y, GMRES solving D J P y = -D r (D: ``krylov_scale``) to rtol.

    Returns (new_state, info) where info records residual_norm (sup norm over
    every row of the bordered residual), new_residual_norm, step_scale (0.0
    when no step was taken), flag in {None, "overflow", "no_descent", "step_floor"}
    ("overflow" also when the merit of the residual is not finite; "no_descent" when the
    full step fails and the merit's slope along d is not below -2 sigma theta0),
    krylov_info (the exit code of the one GMRES cycle: 0 when the true linear
    residual meets rtol, else 1; None when no linear solve ran), and system,
    the Newton system at new_state (the next step reuses it).
    """
    sys = _system if _system is not None else _NewtonSystem(state.spec, state.f.values,
                                                            state.v.values)
    r, sup = sys.residual_vector()
    theta0 = sys.merit(r)
    info = {"residual_norm": sup, "new_residual_norm": sup, "step_scale": 0.0, "flag": None,
            "krylov_info": None, "system": sys}
    if sys.overflow or not math.isfinite(theta0):  # inf <= inf would accept any trial
        info["flag"] = "overflow"
        return state, info
    d, info["krylov_info"] = lgmres(sys.krylov_apply, sys.krylov_scale(-r), rtol)
    t = 1.0
    while True:
        trial = sys.apply_update(d, t)
        if not trial.overflow:
            r2, sup2 = trial.residual_vector()
            if sys.merit(r2) <= (1.0 - 2.0 * _ARMIJO_CONSTANT * t) * theta0:
                info.update(new_residual_norm=sup2, step_scale=t, system=trial)
                return trial.state, info
        # the merit's exact slope along d, from the true Laplacian (krylov_apply's product passes
        # out-of-band content through): no small t passes Armijo unless it is below -2 sigma theta0
        if t == 1.0 and sys.inner(r, sys.matvec(d)) >= -2.0 * _ARMIJO_CONSTANT * theta0:
            info["flag"] = "no_descent"
            return state, info
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
    "no_descent": (FailureReason.STEP_FLOOR, "Newton direction does not descend the merit"),
}


def _krylov_note(code: Optional[int]) -> str:
    """Message suffix naming a GMRES exit code that stopped short of its tolerance."""
    return "" if not code else f" (last GMRES exit code {code})"


def _newton_loop(state: FieldState, config: SolverConfig) -> _LoopResult:
    sys = _NewtonSystem(state.spec, state.f.values, state.v.values)
    if sys.overflow:
        return _LoopResult(state, 0, math.inf, *_FLAG_FAILURES["overflow"])
    iterations = 0
    prev_norm, krylov_info = None, None
    while True:
        r, sup = sys.residual_vector()
        norms = max(float(np.max(np.abs(sys.f))), float(np.max(np.abs(sys.v))))
        if sup <= config.newton_tol:
            return _LoopResult(state, iterations, sup, None)
        if norms > _DIVERGENCE_NORM:
            return _LoopResult(state, iterations, sup, FailureReason.DIVERGENCE,
                               f"iterate sup-norm {norms:.3e} exceeded the divergence guard")
        if iterations >= config.max_newton_iters:
            return _LoopResult(state, iterations, sup, FailureReason.MAX_ITERS,
                               f"residual {sup:.3e} after {iterations} iterations"
                               + _krylov_note(krylov_info))
        with np.errstate(over="ignore"):  # P W near 1e260 passes the exponent guard
            norm = float(np.linalg.norm(sys.krylov_scale(r.copy())))
        if not math.isfinite(norm):
            return _LoopResult(state, iterations, sup, FailureReason.OVERFLOW,
                               f"residual {sup:.3e} has no finite 2-norm")
        rtol, prev_norm = _forcing(norm, prev_norm, config.newton_tol), norm
        state, info = newton_step(state, _system=sys, rtol=rtol)
        iterations += 1
        krylov_info = info["krylov_info"]
        if info["flag"] is not None:
            failure, message = _FLAG_FAILURES[info["flag"]]
            return _LoopResult(state, iterations, info["residual_norm"], failure,
                               message + _krylov_note(krylov_info))
        sys = info["system"]


# ---------------------------------------------------------------------------
# certification helpers
# ---------------------------------------------------------------------------


def _identity_ok(rep: IdentityReport) -> bool:
    return (
        abs(rep.degree_identity) <= DEGREE_IDENTITY_TOL
        and abs(rep.volume_identity) <= VOLUME_IDENTITY_TOL
        and rep.min_density > 0.0
    )


def _certify(loop: _LoopResult, alpha_reached: float, extra_gate: Optional[str]) -> SolveReport:
    rep = identity_report(loop.state)
    failure, message = loop.failure, loop.message
    if extra_gate is not None and failure is None:
        # residual-small iterate of an unsolvable problem: collapse artefact
        failure, message = FailureReason.NO_SOLUTION, extra_gate
    elif extra_gate is not None:
        message = f"{extra_gate}; {message}" if message else extra_gate
    elif failure is None and not _identity_ok(rep):
        failure = FailureReason.IDENTITY_FAILURE
        message = "integral identities failed at the residual-converged state"
    return SolveReport(
        converged=failure is None,
        iterations=loop.iterations,
        final_residual=loop.residual,
        identity=rep,
        alpha_reached=alpha_reached,
        failure_reason=failure,
        message=message,
        c_prime=loop.state.spec.c_prime,
    )


def _existence_gate(section: SectionData, tau: float, alpha: float) -> Optional[str]:
    """The theorem tag and reason of ``stability.existence_oracle`` when it rules a solution
    out at (tau, alpha), else None."""
    rep = stability.existence_oracle(section.grid.genus, section.divisor, tau, alpha)
    ruled_out = rep.verdict is stability.ExistenceVerdict.NOT_EXISTS
    return f"{rep.theorem_tag}: {rep.reason}" if ruled_out else None


# ---------------------------------------------------------------------------
# public solvers
# ---------------------------------------------------------------------------


def solve_vortex(
    grid: SurfaceGrid,
    section: SectionData,
    tau: float,
    config: SolverConfig = SolverConfig(),
    initial: Optional[np.ndarray] = None,
) -> tuple[FieldState, SolveReport]:
    """Solve the vortex equation at fixed background area 2*pi.

    ``initial`` holds node values of f to start from (default: the
    ``initial_state`` guess).  Returns the final state and a certified
    report.  When the degree bound N < tau*Vol/(4*pi) fails, no solution
    exists; the iteration still runs and the report comes back non-converged
    quoting the oracle's verdict (Theorem 3.2).
    """
    spec = ProblemSpec(grid=grid, section=section, tau=tau, kind=EquationKind.VORTEX)
    state = initial_state(spec) if initial is None else make_state(spec, initial)
    loop = _newton_loop(state, config)
    return loop.state, _certify(loop, 0.0, _existence_gate(section, tau, 0.0))


def _continue_in_alpha(anchor: FieldState, problem: ProblemSpec,
                       config: SolverConfig) -> tuple[FieldState, float, _LoopResult, int]:
    """March the anchor state to ``problem``'s alpha through the targets alpha * k / _ALPHA_STEPS.

    The anchor is the solution at alpha = 0, solved by the caller; an attempt poses
    ``problem`` at its coupling, from (f, v, c') extrapolated along the secant through
    the last two certified states (or from the anchor).  A failed attempt is bisected,
    at most _MAX_STEP_HALVINGS times in all.
    """
    state = prev = anchor
    reached = 0.0
    budget = _MAX_STEP_HALVINGS
    total_iters = 0
    last = _LoopResult(anchor, 0, 0.0, None)
    for k in range(1, _ALPHA_STEPS + 1):
        target = problem.alpha * k / _ALPHA_STEPS
        attempt = target
        while reached < target:
            ratio = (attempt - reached) / (reached - prev.spec.alpha) if state is not prev else 0.0
            c = state.spec.c_prime + ratio * (state.spec.c_prime - prev.spec.c_prime)
            trial = make_state(replace(problem, alpha=attempt, c_prime=c),
                               *(a.values + ratio * (a.values - b.values)
                                 for a, b in ((state.f, prev.f), (state.v, prev.v))))
            loop = _newton_loop(trial, config)
            total_iters += loop.iterations
            last = loop
            if loop.failure is None:
                prev, state = state, loop.state
                reached = attempt
                attempt = target
            else:
                budget -= 1
                mid = 0.5 * (reached + attempt)
                if budget < 0 or mid - reached <= 1e-12 * (1.0 + target):
                    return state, reached, loop, total_iters
                attempt = mid
    return state, reached, last, total_iters


def _solve_coupled(target: ProblemSpec, config: SolverConfig) -> tuple[FieldState, SolveReport]:
    """Solve the ``target`` problem, sequenced or continued from the vortex anchor.

    Every stage poses a ``replace`` of ``target``.  Data that pass ``_existence_gate`` at
    alpha > 0 are first solved through the quarter grid when the target grid's resolution is
    >= 48 (``_solve_sequenced``).  Else, or should that fail, one Newton loop solves the
    vortex anchor (``target`` at kind vortex and alpha = 0), which is continued to the target
    (``_continue_in_alpha``) when alpha > 0 and the anchor certifies against the alpha = 0
    gate.  The last certified state, or else the anchor, is certified once against the gate
    at alpha, so a report on data the oracle rules out quotes its verdict once.
    """
    section, tau, alpha = target.section, target.tau, target.alpha
    gate = _existence_gate(section, tau, alpha)
    sequenced, spent = (_solve_sequenced(target, config)
                        if gate is None and alpha > 0.0 and target.grid.resolution >= 48
                        else (None, 0))
    if sequenced is not None:
        return sequenced
    loop = _newton_loop(initial_state(replace(target, kind=EquationKind.VORTEX, alpha=0.0)),
                        config)
    loop.iterations += spent
    state, reached = loop.state, 0.0
    if target.kind is EquationKind.GRAVITATING:
        state = FieldState(state.f, state.v, replace(state.spec, kind=target.kind))
    anchor_gate = _existence_gate(section, tau, 0.0)
    if alpha > 0.0 and loop.failure is None and _certify(loop, 0.0, anchor_gate).converged:
        state, reached, last, iters = _continue_in_alpha(state, target, config)
        message = last.message
        if last.failure is not None:
            message = f"continuation stalled at alpha = {reached} (target {alpha}): {message}"
        # report the last certified state, not the failed trial
        loop = _LoopResult(state, iters + loop.iterations, last.residual, last.failure, message)
    return state, _certify(loop, reached, gate)


def _solve_sequenced(target: ProblemSpec, config: SolverConfig):
    """(solve, Newton steps run): one Newton loop from ``initial_state`` of ``target`` posed on
    its grid's quarter grid, its unknown fields prolonged to the target grid and finished and
    certified there by one Newton loop at the coarse c'; the solve is None when either stage
    fails."""
    grid, section = target.grid, target.section
    cgrid = grid.quarter_grid
    csection = build_section(cgrid, section.divisor)
    csection = rescale(csection, 0.5 * (section.normalization - csection.normalization))
    coarse = _newton_loop(initial_state(replace(target, grid=cgrid, section=csection)), config)
    if not _certify(coarse, target.alpha, None).converged:
        return None, coarse.iterations
    spec = replace(target, c_prime=coarse.state.spec.c_prime)
    if target.kind is EquationKind.GRAVITATING:
        f, v = prolong(np.stack([coarse.state.f.values, coarse.state.v.values]), cgrid, grid)
        mean = float(np.dot(grid.quad_weights, v)) / TWO_PI  # a gauge move, as in apply_update
        v, spec = v - mean, replace(spec, c_prime=spec.c_prime - spec.c * mean)
    else:
        f, v = prolong(coarse.state.f.values, cgrid, grid), None
    loop = _newton_loop(make_state(spec, f, v), config)
    loop.iterations += coarse.iterations
    report = replace(_certify(loop, target.alpha, None), coarse_resolution=cgrid.resolution)
    return (loop.state, report) if report.converged else None, loop.iterations


def solve_gravitating(
    grid: SurfaceGrid,
    section: SectionData,
    tau: float,
    alpha: float,
    config: SolverConfig = SolverConfig(),
) -> tuple[FieldState, SolveReport]:
    """Solve the gravitating system, sequenced or by continuation in the coupling.

    Data that pass the existence gate are first solved at alpha > 0 on the quarter grid of a
    grid of resolution >= 48.  Else, or on failure, the vortex solution (v = c' = 0),
    certified against the alpha = 0 gate, anchors a continuation through alpha/4, alpha/2,
    3 alpha/4 and alpha, each target posed (c = chi - 2*alpha*tau*N) from the secant
    prediction of (f, v, c'), failed steps bisected (``_continue_in_alpha``).
    """
    return _solve_coupled(ProblemSpec(grid, section, tau, EquationKind.GRAVITATING, alpha), config)


def advance_gravitating(
    state: FieldState,
    alpha: float,
    config: SolverConfig = SolverConfig(),
) -> tuple[FieldState, SolveReport]:
    """Re-pose an existing state at a new coupling and re-solve (warm start).

    Used by parameter sweeps: the previous converged state seeds the Newton
    iteration at the next coupling directly, with no intermediate
    continuation targets, and certifies against the existence gate.  When the Newton
    loop fails, ``alpha_reached`` is the seed's coupling, the last value certified.
    """
    spec = replace(state.spec, kind=EquationKind.GRAVITATING, alpha=alpha)
    loop = _newton_loop(FieldState(state.f, state.v, spec), config)
    reached = spec.alpha if loop.failure is None else state.spec.alpha
    return loop.state, _certify(loop, reached, _existence_gate(spec.section, spec.tau, spec.alpha))


def solve_eb(
    grid: SurfaceGrid,
    section: SectionData,
    tau: float,
    config: SolverConfig = SolverConfig(),
) -> tuple[FieldState, SolveReport]:
    """Solve the Einstein-Bogomol'nyi equation at the exact coupling 1/(tau N).

    Genus 0 only; requires N < tau/2.  A sequenced solve's coarse grid starts at
    1/(tau N) directly; else continuation ramps alpha from 0 (the vortex anchor)
    as in ``solve_gravitating``; the volume gauge c' rides along as a Newton
    unknown.  For non-polystable divisors no solution exists and the report
    is non-converged quoting the oracle's verdict (Theorem 3.6 or 3.8).
    """
    if grid.model is not SurfaceModel.SPHERE:
        raise ValueError("the Einstein-Bogomol'nyi equation lives on the sphere")
    n = section.divisor.total_degree
    if not stability.bradlow_check(n, tau):
        raise ValueError(f"solve_eb requires N < tau/2 (got N = {n}, tau = {tau})")
    alpha_eb = float(stability.eb_coupling(tau, n))
    return _solve_coupled(ProblemSpec(grid, section, tau, EquationKind.EINSTEIN_BOGOMOLNYI,
                                      alpha_eb), config)
