"""Damped Newton solvers with spectral preconditioning and coupling continuation.

One Newton system, ``_NewtonSystem``, drives all three equation kinds: it stacks
``equations._residual_rows``, and its ``matvec`` is the only Jacobian in the package.  It
holds the iterate as raw arrays, so a line-search trial evaluates the nonlinearity once and
builds no ``FieldState`` (a Newton loop builds one, when it returns).  The unknowns are f,
plus v for the gravitating kind; the volume gauge c' is not one: ``equations._nonlinearity``
derives it, and W = e^{q0} / mean(e^{q0}) is the mean-field weight of Liouville-type equations
(Caglioti, Lions, Marchioro & Pulvirenti 1992; Tarantello 2008).  The volume constraint holds
at every iterate, the mean of the gravitating second row vanishes by construction, and v's
constant is an exact kernel direction that each update re-centres away.

One GMRES cycle (``gmres``) solves the right-preconditioned J M y = -R, to an
Eisenstat-Walker forcing tolerance capped at eta_max: on a loop's first step eta_max, or the
floor 0.5 newton_tol / ||R|| when a sweep starts the loop on its polynomial prediction
(inexact Newton-Krylov; see ``_forcing``); on the torus (uniform quadrature weights) the 2-norm
it minimises is the Armijo merit's.  d = M y is assembled from the M v_j the Krylov loop keeps.
M = P, the spectral (Delta + shift)^{-1}, one multiplier per field block built once per Newton
step and applied to all blocks in one transform call.  The mean-field weight's variation
dW = W (dq0 - <W dq0>), <.> the area mean, costs J one dot product per product.  ``matvec``'s
Krylov form reads J M y off (y, M y) with no transform, and so does the true residual J d + R:
Delta P = I - shift P (on the sphere exactly for band-limited y; the rest of y passes through,
P drops it).  Armijo backtracking on (1/2)||R||^2 (background L2) damps d.  When the full step
fails, one product J d with the true Laplacian gives the merit's slope <R, J d>; a slope not
below -2 sigma (1/2)||R||^2 admits no Armijo step (Dennis & Schnabel 1996, 6.3), and the step
ends there, without halving t to the floor.

Failure taxonomy: MaxIters, Divergence (iterate norm blow-up), Overflow
(P's exponent 2f beyond the guard, or a residual 2-norm beyond the float range),
StepFloor (backtracking collapsed, or no descent), NoSolution (the
residual converged but the exact existence gate rules a solution out),
IdentityFailure (the degree identity or the metric's positivity fails at the
residual-converged state).
A MaxIters or StepFloor message names the GMRES exit code (1) when the last
linear solve stopped short of its tolerance.
Reports are certified: ``converged`` additionally requires the degree identity at its
tolerance, a positive solved metric, and data that pass ``_existence_gate``, the verdict of
``stability.existence_oracle`` (the volume identity and Gauss-Bonnet hold at every state of
positive density, so they are reported, not gated; c' is read off the state).  Where it says
NotExists, residual-small iterates are collapse artefacts: the report says NoSolution
and quotes the oracle's theorem tag and reason once.  The gate only decides whether a
solve is sequenced and certifies it; it never cuts a solve short.

Every chain of Newton loops is a list of ``ProblemSpec`` stages run by one runner,
``_run_stages``, with one predictor (``_predict``) and one failure rule: a stage is accepted on
its residual, a failed one bisected in alpha within a budget.  A gravitating or EB solve poses
each stage as a ``dataclasses.replace`` of its target (``_solve_coupled``): on data that pass
the gate at alpha > 0 and a grid of resolution >= 48, the target on the quarter grid and then
on its own (Deuflhard, 2004); else, or on failure, the vortex anchor at alpha = 0, then alpha/4,
alpha/2, 3 alpha/4 and alpha (Allgower & Georg, 2003).  A sweep row is one stage.  Only the final
state is certified.  ``ProblemSpec`` validates the coupling, so a bad alpha is rejected before
any Newton loop runs.
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
from .geometry import (SurfaceGrid, SurfaceModel, _is_int, _smoothing_multiplier, _spectral,
                       laplacian_values, prolong)
from .geometry import smoothing_invert  # noqa: F401  (perfbench/tracer.py patches this binding)
from .sections import SectionData, build_section

TWO_PI = 2.0 * math.pi

DEGREE_IDENTITY_TOL = 1e-6
_STEP_FLOOR = 2.0**-25
_ARMIJO_CONSTANT = 1e-4
_KRYLOV_INNER = 30  # GMRES iterations per linear solve: one cycle, never restarted
_DIVERGENCE_NORM = 1e6  # iterate sup norm beyond which a loop reports Divergence

# Eisenstat-Walker choice 2 (SIAM J. Sci. Comput. 17, 1996).  On one perfbench round (seed 4242)
# eta_max = 0.5 and 0.9 take 676 and 681 Newton steps against 644 on `verdicts`, as many elsewhere.
_EW_GAMMA = 0.9
_EW_EXPONENT = 2.0
_ETA_MAX = 0.1

# alpha-continuation: targets alpha * k / _ALPHA_STEPS for k = 1.._ALPHA_STEPS, and the
# number of failed attempts bisected, over the whole continuation, before it stalls
_ALPHA_STEPS = 4
_MAX_STEP_HALVINGS = 10
# grid sequencing: a solve at alpha > 0 on a grid this fine or finer starts on its quarter grid
_SEQUENCED_RESOLUTION = 48


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
    """Residual, Jacobian action, preconditioner and Krylov operator at one iterate.

    The iterate is raw arrays f and v (None reads as 0).  Construction evaluates the
    nonlinearity once (``_nonlinearity``): P, ``overflow``, the derived volume gauge ``c_prime``
    and the mean-field weight W = e^{q0} / mean(e^{q0}), the public residual's W bit for bit.
    The Jacobian coefficients and shifts are built on first use, never for a rejected
    line-search trial, and so is ``state``, the validated ``FieldState``.  Block layout per
    kind: the f rows, then the v rows when v is an unknown (gravitating).
    """

    def __init__(self, spec: ProblemSpec, f: np.ndarray, v: Optional[np.ndarray] = None):
        self.spec, self.grid = spec, spec.grid
        self.n = spec.grid.n_nodes
        self.f = f
        self.v = np.zeros(self.n) if v is None else v
        self.has_v = spec.kind is EquationKind.GRAVITATING
        self.mean_field = spec.kind is not EquationKind.VORTEX
        self.size = (2 if self.has_v else 1) * self.n
        self._p, q, self.c_prime, self.overflow = _nonlinearity(spec, self.f, self.v)
        self.w = _clamped_exp(q)
        self._rv = None

    @cached_property
    def state(self) -> FieldState:
        return make_state(self.spec, self.f, self.v)

    @cached_property
    def _jacobian(self) -> tuple:
        """(W a, P W, (P - tau)/2, -2c W) of W dq0 = W (a df - 2c dv), the mean-field
        dW = W dq0 - W <W dq0> (<.> the area mean), dR1 = Delta df + P W df + (1/2)(P - tau) dW
        and dR2 = Delta dv + dW."""
        s, p, w = self.spec, self._p, self.w
        return w * (4.0 * s.alpha * (s.tau - p)), p * w, 0.5 * (p - s.tau), -2.0 * s.c * w

    @cached_property
    def _shifts(self) -> tuple:
        """The preconditioner's shift for each field block."""
        s, p, w = self.spec, self._p, self.w
        # the alpha = 0 guard keeps 0 * (P - tau)^2 from turning an overflow into NaN
        curv = 2.0 * s.alpha * (p - s.tau) ** 2 if s.alpha else 0.0
        wq = self.grid.quad_weights
        mults = [self._jacobian[1] - curv * w] + ([2.0 * s.c * w] if self.has_v else [])
        return tuple(max(1e-6, float(np.dot(wq, np.abs(m))) / TWO_PI) for m in mults)

    @cached_property
    def _smoother(self) -> np.ndarray:
        """P's multiplier 1/(eigs + shift) per field block, validated as ``smoothing_invert``'s."""
        shift = self._shifts if self.has_v else self._shifts[0]
        return _smoothing_multiplier(self.grid, shift, self.has_v)

    @cached_property
    def _krylov_diag(self) -> np.ndarray:
        """P W - shift: the coefficient of x_f in the f rows of the Krylov form (``matvec``)."""
        return self._jacobian[1] - self._shifts[0]

    # -- residual -----------------------------------------------------------
    def residual_vector(self) -> tuple[np.ndarray, float]:
        """Stacked residual rows and their sup norm."""
        if self._rv is None:
            r = np.concatenate(_residual_rows(self.spec, self.f, self.v, self._p, self.w))
            self._rv = (r, float(np.max(np.abs(r))))
        return self._rv

    # -- Jacobian action ------------------------------------------------------
    def matvec(self, x: np.ndarray, y: Optional[np.ndarray] = None) -> np.ndarray:
        """J x; given y with x = M y = P y, the Krylov form: Delta x read off as y - shift x, so
        the f rows read y_f + (P W - shift) x_f + (1/2)(P - tau) q and the v rows
        y_v - shift_v x_v + q, q = dW the mean-field weight's variation: no transform."""
        n = self.n
        df = x[:n]
        wa, pw, half_pt, wv = self._jacobian
        out, q = np.empty(self.size), wa * df
        if self.has_v:
            dv = x[n:]
            tmp = wv * dv  # then the v rows' scratch array
            q += tmp
        if self.mean_field:  # the rank-one term -W <W dq0>: one dot product
            q -= (float(np.dot(self.grid.quad_weights, q)) / TWO_PI) * self.w
        krylov = y is not None
        out[:] = y if krylov else laplacian_values(self.grid, x.reshape(-1, n)).reshape(-1)
        out[:n] += (self._krylov_diag if krylov else pw) * df
        if self.has_v:
            out[n:] += (np.subtract(q, np.multiply(self._shifts[1], dv, out=tmp), out=tmp)
                        if krylov else q)
        out[:n] += np.multiply(half_pt, q, out=q)  # q's last use: scaled in place
        return out

    def krylov_apply(self, y: np.ndarray, x: Optional[np.ndarray] = None) -> tuple:
        """(M y, J M y): one ``precond``, none when x = M y is given, and one ``matvec`` in
        Krylov form, which transforms nothing."""
        if x is None:
            x = self.precond(y)
        return x, self.matvec(x, y)

    # -- preconditioner -------------------------------------------------------
    def precond(self, y: np.ndarray) -> np.ndarray:
        """M y = P y: the step's ``_smoother`` on every field block, in one transform call."""
        fields = y.reshape(2, self.n) if self.has_v else y
        return _spectral(self.grid, fields, self._smoother).reshape(-1)

    # -- merit ----------------------------------------------------------------
    @np.errstate(over="ignore")  # a blown-up trial's merit is inf, and the trial is rejected
    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """The merit's inner product: L2 on each field block."""
        wq = self.grid.quad_weights
        return sum(float(np.dot(wq, row)) for row in (a * b).reshape(-1, self.n))

    def merit(self, vec: np.ndarray) -> float:
        """(1/2) <vec, vec>; of the residual r, along a direction d, its slope is <r, J d>."""
        return 0.5 * self.inner(vec, vec)

    def apply_update(self, x: np.ndarray, t: float) -> _NewtonSystem:
        """The system at the iterate moved by t times the Newton direction x, v re-centred to
        mean zero: W = e^{q0} / mean(e^{q0}) does not see v's constant, so no row moves."""
        f = self.f + t * x[: self.n]
        if not self.has_v:
            return _NewtonSystem(self.spec, f)
        v = self.v + t * x[self.n :]
        return _NewtonSystem(self.spec, f, v - float(np.dot(self.grid.quad_weights, v)) / TWO_PI)


# ---------------------------------------------------------------------------
# Newton iteration
# ---------------------------------------------------------------------------


def _forcing(norm: float, prev_norm: Optional[float], newton_tol: float,
             start: float = _ETA_MAX) -> float:
    """Relative GMRES tolerance at residual 2-norm ``norm``.

    Eisenstat-Walker choice 2, eta = gamma (||F_k|| / ||F_{k-1}||)^2 (on a loop's first step
    ``start``: eta_max, or 0 for a start on a sweep's prediction, whose one step then solves to
    the floor: the prediction leaves Newton's quadratic convergence one step from the
    tolerance, Dembo, Eisenstat & Steihaug 1982), floored at 0.5 newton_tol / ||F_k||
    (Kelley, Solving Nonlinear Equations with Newton's Method, 2003) so GMRES does not solve
    far past the Newton tolerance, and capped last at eta_max: near the root the floor exceeds
    eta_max, and a direction that loose need not descend the merit: the loop would stall at
    its own tolerance.  Choice 2's safeguard max(eta, gamma eta_{k-1}^2), applied when
    gamma eta_{k-1}^2 > 0.1, is left out: under the cap it is at most gamma eta_max^2 = 0.009.
    """
    eta = start if prev_norm is None else _EW_GAMMA * (norm / prev_norm) ** _EW_EXPONENT
    return min(max(eta, 0.5 * newton_tol / norm), _ETA_MAX)


def gmres(apply, b: np.ndarray, rtol: float) -> tuple[np.ndarray, int]:
    """One GMRES cycle (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986) for A y = b.

    ``apply(y, x=None)`` returns (P y, A y), A = J P, and spares P when x = P y is given.
    Up to _KRYLOV_INNER Arnoldi steps from y = 0 (modified Gram-Schmidt, Givens rotations and
    back substitution on Python floats) keep P v_j beside each basis vector v_j, so d = P y is
    their combination and costs no further P.  The Arnoldi estimate, or a zero pivot (A
    singular), only ends the cycle; the true residual b - A y, formed once from (y, d), decides
    the exit code: (d, 0) when it is within rtol ||b||, else (d, 1); (0, 1) when b . A y <= 0, as
    roundoff (a near-singular R) leaves it: the minimiser over a space holding y = 0 has b . A y =
    ||A y||^2 > 0.  Nothing is applied when ||b|| is 0 (code 0) or not finite (code 1); d is 0.
    """
    beta = math.sqrt(np.dot(b, b))  # np.linalg.norm's arithmetic, without its wrapper
    if beta == 0.0 or not math.isfinite(beta):
        return np.zeros_like(b), 0 if beta == 0.0 else 1
    tol, eps = rtol * beta, float(np.finfo(float).eps)
    basis, dirs, rot, cols, g = [b / beta], [], [], [], [beta]
    for j in range(_KRYLOV_INNER):
        z, w = apply(basis[j])
        dirs.append(z)
        col, w_norm = [], math.sqrt(np.dot(w, w))
        for v in basis:
            col.append(float(np.dot(v, w)))
            w -= col[-1] * v
        col.append(math.sqrt(np.dot(w, w)))
        breakdown = not col[-1] > eps * w_norm
        if not breakdown:
            basis.append(w / col[-1])
        for i, (c, s) in enumerate(rot):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        rho = math.hypot(col[j], col[j + 1])
        if rho == 0.0:  # A is singular on the Krylov space: solve on the columns before j
            break
        rot.append((col[j] / rho, col[j + 1] / rho))
        cols.append(col[:j] + [rho])
        g[j:] = [rot[j][0] * g[j], -rot[j][1] * g[j]]
        if abs(g[j + 1]) < tol or breakdown:
            break
    coef = g[: len(cols)]  # back substitution on the triangular R, column by column
    for k in reversed(range(len(cols))):
        coef[k] /= cols[k][k]
        coef[:k] = [ci - coef[k] * h for ci, h in zip(coef[:k], cols[k])]
    y, d = np.zeros_like(b), np.zeros_like(b)
    for ci, v, z in zip(coef, basis, dirs):
        y += ci * v
        d += ci * z
    r = apply(y, d)[1] - b  # apply spares P, and returns d as given
    if np.dot(b, r) + beta * beta <= 0.0:  # b . A y = b . r + ||b||^2
        return np.zeros_like(b), 1
    return d, 0 if math.sqrt(np.dot(r, r)) <= tol else 1


lgmres = gmres  # perfbench/tracer.py patches this binding


def newton_step(state: Optional[FieldState], _system=None, rtol: float = _ETA_MAX):
    """One damped Newton step d = P y, GMRES solving J P y = -r to rtol.

    Returns (new_state, info) where info records residual_norm (sup norm over
    every residual row), new_residual_norm, step_scale (0.0
    when no step was taken), flag in {None, "overflow", "no_descent", "step_floor"}
    ("overflow" also when the merit of the residual is not finite; "no_descent" when the
    full step fails and the merit's slope along d is not below -2 sigma theta0),
    krylov_info (the exit code of the one GMRES cycle: 0 when the true linear
    residual meets rtol, else 1; None when no linear solve ran), and system, the Newton system at
    the new iterate (the next step reuses it).  Given ``_system``, an accepted step's state is None.
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
    d, info["krylov_info"] = lgmres(sys.krylov_apply, -r, rtol)
    t = 1.0
    while True:
        trial = sys.apply_update(d, t)
        if not trial.overflow:
            r2, sup2 = trial.residual_vector()
            if sys.merit(r2) <= (1.0 - 2.0 * _ARMIJO_CONSTANT * t) * theta0:
                info.update(new_residual_norm=sup2, step_scale=t, system=trial)
                return (trial.state if _system is None else None), info
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
    c_prime: Optional[float] = None  # of ``state``, from the loop's final _NewtonSystem


_FLAG_FAILURES = {
    "overflow": (FailureReason.OVERFLOW, "nonlinearity exponent exceeded the overflow guard"),
    "step_floor": (FailureReason.STEP_FLOOR,
                   "backtracking line search collapsed below the step floor"),
    "no_descent": (FailureReason.STEP_FLOOR, "Newton direction does not descend the merit"),
}


def _krylov_note(code: Optional[int]) -> str:
    """Message suffix naming a GMRES exit code that stopped short of its tolerance."""
    return "" if not code else f" (last GMRES exit code {code})"


def _newton_loop(state: FieldState, config: SolverConfig, predicted: bool = False) -> _LoopResult:
    sys = _NewtonSystem(state.spec, state.f.values, state.v.values)
    if sys.overflow:
        return _LoopResult(state, 0, math.inf, *_FLAG_FAILURES["overflow"], sys.c_prime)
    start = 0.0 if predicted else _ETA_MAX
    iterations = 0
    prev_norm, krylov_info = None, None
    while True:
        r, sup = sys.residual_vector()
        norms = max(float(np.max(np.abs(sys.f))), float(np.max(np.abs(sys.v))))
        if sup <= config.newton_tol:
            return _LoopResult(sys.state, iterations, sup, None, c_prime=sys.c_prime)
        if norms > _DIVERGENCE_NORM:
            return _LoopResult(sys.state, iterations, sup, FailureReason.DIVERGENCE,
                               f"iterate sup-norm {norms:.3e} exceeded the divergence guard",
                               sys.c_prime)
        if iterations >= config.max_newton_iters:
            return _LoopResult(sys.state, iterations, sup, FailureReason.MAX_ITERS,
                               f"residual {sup:.3e} after {iterations} iterations"
                               + _krylov_note(krylov_info), sys.c_prime)
        with np.errstate(over="ignore"):  # P W near 1e260 passes the exponent guard
            norm = float(np.linalg.norm(r))
        if not math.isfinite(norm):
            return _LoopResult(sys.state, iterations, sup, FailureReason.OVERFLOW,
                               f"residual {sup:.3e} has no finite 2-norm", sys.c_prime)
        rtol, prev_norm = _forcing(norm, prev_norm, config.newton_tol, start), norm
        _, info = newton_step(None, _system=sys, rtol=rtol)
        iterations += 1
        krylov_info = info["krylov_info"]
        if info["flag"] is not None:
            failure, message = _FLAG_FAILURES[info["flag"]]
            return _LoopResult(sys.state, iterations, info["residual_norm"], failure,
                               message + _krylov_note(krylov_info), sys.c_prime)
        sys = info["system"]


# ---------------------------------------------------------------------------
# certification helpers
# ---------------------------------------------------------------------------


def _identity_ok(rep: IdentityReport) -> bool:
    return abs(rep.degree_identity) <= DEGREE_IDENTITY_TOL and rep.min_density > 0.0


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
        c_prime=loop.state.c_prime if loop.c_prime is None else loop.c_prime,
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


def _predict(stage: ProblemSpec, certified: list) -> FieldState:
    """The start of ``stage``: ``initial_state`` when nothing is certified yet; else the last
    certified state's unknown fields prolonged to the stage's grid when the grid changes; else
    (f, v) extrapolated to stage.alpha by the Lagrange polynomial in alpha through the last
    certified states, up to three, and v re-centred to mean zero: one state is a warm start, two
    the secant, three a quadratic (Allgower & Georg, 2003, ch. 2).  Only a stage that changes
    grid follows a state on another grid, so these all lie on the stage's grid."""
    if not certified:
        return initial_state(stage)
    last = certified[-1]
    if last.spec.grid is not stage.grid:
        if stage.kind is EquationKind.GRAVITATING:
            f, v = prolong(np.stack([last.f.values, last.v.values]), last.spec.grid, stage.grid)
            return make_state(stage, f, v)
        return make_state(stage, prolong(last.f.values, last.spec.grid, stage.grid))
    points = certified[-3:]
    alphas = [s.spec.alpha for s in points]
    weights = [math.prod((stage.alpha - b) / (a - b) for j, b in enumerate(alphas) if j != i)
               for i, a in enumerate(alphas)]
    f = sum(w * s.f.values for w, s in zip(weights, points))
    v = sum(w * s.v.values for w, s in zip(weights, points))
    return make_state(stage, f, v - float(np.dot(stage.grid.quad_weights, v)) / TWO_PI)


def _run_stages(stages: list, config: SolverConfig, certified: tuple = (), steps: int = 0,
                budget: int = 0, predicted: bool = False) -> tuple[float, _LoopResult]:
    """(alpha reached, loop): one Newton loop per stage in turn, each started by ``_predict``
    from the states certified so far, ``certified`` first, and accepted on its residual.

    A failed attempt is retried at the midpoint of the coupling reached and its own, at most
    ``budget`` times in all; then the run stops.  ``predicted`` runs each loop's first GMRES
    solve to the forcing floor (``_forcing``).  The loop returned holds the last certified state
    (else the failed iterate), the last loop's residual, failure and message, and ``steps`` plus
    every Newton step run."""
    certified, stages = list(certified), list(stages)
    reached = certified[-1].spec.alpha if certified else 0.0
    attempt = stages[0]
    while stages:
        start = _predict(attempt, certified)
        loop = (_newton_loop(start, config, predicted=True) if predicted
                else _newton_loop(start, config))
        steps += loop.iterations
        if loop.failure is None:
            certified.append(loop.state)
            reached = attempt.alpha
            if attempt is stages[0]:
                stages.pop(0)
            attempt = stages[0] if stages else None
            continue
        budget -= 1
        mid = 0.5 * (reached + attempt.alpha)
        if budget < 0 or mid - reached <= 1e-12 * (1.0 + stages[0].alpha):
            break
        attempt = replace(stages[0], alpha=mid)
    state = certified[-1] if certified else loop.state
    c_prime = loop.c_prime if state is loop.state else None
    return reached, _LoopResult(state, steps, loop.residual, loop.failure, loop.message, c_prime)


def _continue_in_alpha(anchor: FieldState, target: ProblemSpec, config: SolverConfig,
                       steps: int) -> tuple[float, _LoopResult]:
    """``_run_stages`` from the certified ``anchor`` at alpha = 0 through ``target`` at the fixed
    couplings alpha * k / _ALPHA_STEPS, failed attempts bisected _MAX_STEP_HALVINGS times in all."""
    stages = [replace(target, alpha=target.alpha * k / _ALPHA_STEPS)
              for k in range(1, _ALPHA_STEPS + 1)]
    return _run_stages(stages, config, (anchor,), steps, _MAX_STEP_HALVINGS)


def _solve_coupled(target: ProblemSpec, config: SolverConfig) -> tuple[FieldState, SolveReport]:
    """Solve ``target`` through stage lists: sequenced on data that pass ``_existence_gate`` at
    alpha > 0 on a grid of resolution >= _SEQUENCED_RESOLUTION; else, or should that fail, the
    vortex anchor, continued (``_continue_in_alpha``) when alpha > 0 and the data pass the
    alpha = 0 gate.  The last run's state is certified once against the gate at alpha, so a
    report on data the oracle rules out quotes its verdict once."""
    section, tau, alpha = target.section, target.tau, target.alpha
    gate = _existence_gate(section, tau, alpha)
    steps = 0
    if gate is None and alpha > 0.0 and target.grid.resolution >= _SEQUENCED_RESOLUTION:
        cgrid = target.grid.quarter_grid
        csection = build_section(cgrid, section.divisor)
        reached, loop = _run_stages([replace(target, grid=cgrid, section=csection), target], config)
        if loop.failure is None:
            report = _certify(loop, reached, gate)
            return loop.state, replace(report, coarse_resolution=cgrid.resolution)
        steps = loop.iterations
    reached, loop = _run_stages([replace(target, kind=EquationKind.VORTEX, alpha=0.0)], config,
                                steps=steps)
    state = loop.state  # with no ramp, certified as posed: a vortex state needs no Laplacian of v
    if target.kind is EquationKind.GRAVITATING:
        state = FieldState(state.f, state.v, replace(state.spec, kind=target.kind))
    if alpha > 0.0 and loop.failure is None and _existence_gate(section, tau, 0.0) is None:
        reached, loop = _continue_in_alpha(state, target, config, loop.iterations)
        state = loop.state
        if loop.failure is not None:
            loop.message = (f"continuation stalled at alpha = {reached} (target {alpha}): "
                            + loop.message)
    return state, _certify(loop, reached, gate)


def solve_gravitating(
    grid: SurfaceGrid,
    section: SectionData,
    tau: float,
    alpha: float,
    config: SolverConfig = SolverConfig(),
) -> tuple[FieldState, SolveReport]:
    """Solve the gravitating system through stage lists (``_solve_coupled``).

    Data that pass the existence gate at alpha > 0, on a grid of resolution >= 48, run alpha on
    the quarter grid, then on the grid.  Else, or on failure, the vortex solution (v = 0) anchors
    the stages alpha/4, alpha/2, 3 alpha/4 and alpha (c = chi - 2*alpha*tau*N), failed stages
    bisected.  The last certified state is reported; the report's c' is derived from it.
    """
    return _solve_coupled(ProblemSpec(grid, section, tau, EquationKind.GRAVITATING, alpha), config)


def advance_gravitating(
    state: FieldState,
    alpha: float,
    config: SolverConfig = SolverConfig(),
    history: tuple = (),
) -> tuple[FieldState, SolveReport]:
    """Re-solve a certified state at a new coupling: one stage, no intermediate targets.

    Used by parameter sweeps: the stage starts from ``state`` (warm start) or, given ``history``,
    the states certified before it in order, on the Lagrange polynomial in alpha through
    ``state`` and the last two of them (``_predict``), its first GMRES solve run to the forcing
    floor (``_forcing``); certified against the existence gate.  When the loop fails,
    the state returned and reported (c', identities, ``alpha_reached``) is ``state``, the last
    certified; the residual and message are the failed loop's.
    """
    spec = replace(state.spec, kind=EquationKind.GRAVITATING, alpha=alpha)
    reached, loop = _run_stages([spec], config, (*history, state), predicted=bool(history))
    return loop.state, _certify(loop, reached, _existence_gate(spec.section, spec.tau, spec.alpha))


def solve_eb(
    grid: SurfaceGrid,
    section: SectionData,
    tau: float,
    config: SolverConfig = SolverConfig(),
) -> tuple[FieldState, SolveReport]:
    """Solve the Einstein-Bogomol'nyi equation at the exact coupling 1/(tau N).

    Genus 0 only; requires N < tau/2.  The stages are ``solve_gravitating``'s: a sequenced
    solve's coarse stage is posed at 1/(tau N) directly; else the stages ramp alpha from the
    vortex anchor at 0.  f is the only unknown: e^{2u} is the mean-field weight
    e^{q0} / mean(e^{q0}), and the report's volume gauge c' = -(1/2) log mean(e^{q0}) is
    derived from the final iterate.  For non-polystable divisors no solution exists and the
    report is non-converged quoting the oracle's verdict (Theorem 3.6 or 3.8).
    """
    if grid.model is not SurfaceModel.SPHERE:
        raise ValueError("the Einstein-Bogomol'nyi equation lives on the sphere")
    n = section.divisor.total_degree
    if not stability.bradlow_check(n, tau):
        raise ValueError(f"solve_eb requires N < tau/2 (got N = {n}, tau = {tau})")
    alpha_eb = float(stability.eb_coupling(tau, n))
    return _solve_coupled(ProblemSpec(grid, section, tau, EquationKind.EINSTEIN_BOGOMOLNYI,
                                      alpha_eb), config)
