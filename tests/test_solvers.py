"""Newton solves: convergence, certification gates, continuation, invariance."""

import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import gravortex
from gravortex import equations, solvers, stability
from gravortex.equations import (
    EquationKind,
    ProblemSpec,
    initial_state,
    make_state,
    metric_density,
    residual_fields,
)
from gravortex.geometry import POINT_AT_INFINITY, _spectral, build_grid, integrate, mean_value
from gravortex.radial import solve_eb_radial
from gravortex.sections import Divisor, build_section, rescale
from gravortex.solvers import (
    FailureReason,
    SolverConfig,
    advance_gravitating,
    newton_step,
    solve_eb,
    solve_gravitating,
    solve_vortex,
)

TWO_PI = 2.0 * math.pi


def test_solver_config_validation():
    with pytest.raises(TypeError):  # backtracking is the only damping; there is no knob
        SolverConfig(damping="none")
    with pytest.raises(TypeError):  # the forcing term sets the linear tolerance
        SolverConfig(linear_tol=1e-12)
    for removed in ("armijo_constant", "linear_maxiter", "divergence_norm"):
        with pytest.raises(TypeError):  # module constants: no caller set them
            SolverConfig(**{removed: 1})
    # a bad setting fails when built, naming the field, not partway through a solve
    bad = [("newton_tol", v) for v in (-1.0, 0.0, math.nan, math.inf)]
    bad += [("max_newton_iters", v) for v in (0, 2.5, True)]
    for name, value in bad:
        with pytest.raises(ValueError, match=f"^{name} "):
            SolverConfig(**{name: value})
    assert SolverConfig().newton_tol == 1e-10
    assert SolverConfig(max_newton_iters=np.int64(1)).max_newton_iters == 1


def test_vortex_converges_above_bound(torus24, torus24_section):
    state, report = solve_vortex(torus24, torus24_section, 2.5)
    assert report.converged
    assert report.final_residual <= 1e-10
    assert abs(report.identity.degree_identity) <= 1e-6
    assert report.identity.min_density > 0
    assert report.failure_reason is None
    # the density integral is pinned by the equation: 2*pi*(tau - 2N)
    p = np.exp(2.0 * state.f.values) * torus24_section.norm_sq.values
    assert float(np.dot(torus24.quad_weights, p)) == pytest.approx(math.pi, rel=1e-9)


@pytest.mark.parametrize("tau", [1.8, 2.0])
def test_vortex_fails_below_bound(torus24, torus24_section, tau):
    state, report = solve_vortex(torus24, torus24_section, tau)
    assert not report.converged
    assert report.failure_reason is not None
    assert "bound" in report.message or "N <" in report.message


def test_vortex_independent_of_initial_guess(torus24, torus24_section):
    states = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        guess = rng.uniform(-1.0, 1.0, torus24.node_coords.shape[0])
        state, report = solve_vortex(torus24, torus24_section, 2.5, initial=guess)
        assert report.converged
        states.append(state.f.values)
    for other in states[1:]:
        assert np.max(np.abs(other - states[0])) < 1e-8


def test_newton_step_decreases_residual(torus24, torus24_section):
    spec = ProblemSpec(grid=torus24, section=torus24_section, tau=2.5,
                       kind=EquationKind.VORTEX)
    state = initial_state(spec)
    r0 = np.max(np.abs(residual_fields(state)[0].values))
    state2, info = newton_step(state)
    assert info["new_residual_norm"] < r0
    assert 0 < info["step_scale"] <= 1.0
    assert info["krylov_info"] == 0


def test_forcing_terms():
    tol = 1e-10
    eta_max = solvers._ETA_MAX
    # first step of a loop
    assert solvers._forcing(1.0, None, tol) == eta_max
    # choice 2: gamma (||F_k|| / ||F_{k-1}||)^2
    eta = solvers._forcing(0.01, 1.0, tol)
    assert eta == pytest.approx(solvers._EW_GAMMA * 1e-4)
    # a slow step would ask for more than eta_max: capped
    assert solvers._forcing(0.9, 1.0, tol) == eta_max
    # near the root the floor 0.5 tol / ||F|| wins over the quadratic rate
    assert solvers._forcing(1e-8, 1e-4, tol) == 0.5 * tol / 1e-8
    # the cap wins over the floor: a loose solve near the root need not descend the merit
    assert solvers._forcing(2e-10, 1e-4, tol) == eta_max
    # a fast step after a slow one keeps the quadratic rate: choice 2's safeguard is gone
    assert solvers._forcing(1e-3, 1.0, tol) == pytest.approx(solvers._EW_GAMMA * 1e-6)
    # a predicted start (start 0): its first step runs to the floor 0.5 tol / ||F_0||
    assert solvers._forcing(1.0, None, tol, 0.0) == 0.5 * tol
    assert solvers._forcing(5.0, None, tol, 0.0) == 0.5 * tol / 5.0
    assert solvers._forcing(1e-8, None, tol, 0.0) == 0.5 * tol / 1e-8
    # the cap still wins where it did
    assert solvers._forcing(2e-10, None, tol, 0.0) == eta_max
    # from the second step on, choice 2 again
    assert solvers._forcing(0.01, 1.0, tol, 0.0) == pytest.approx(solvers._EW_GAMMA * 1e-4)


def test_a_predicted_loop_forces_its_first_step_by_the_start_residual(monkeypatch, torus24,
                                                                       torus24_section):
    state, report = solve_gravitating(torus24, torus24_section, 2.5, 0.02)
    assert report.converged
    start = make_state(replace(state.spec, alpha=0.03), state.f.values, state.v.values)
    system = solvers._NewtonSystem(start.spec, start.f.values, start.v.values)
    floor = 0.5 * SolverConfig().newton_tol / float(np.linalg.norm(system.residual_vector()[0]))
    assert floor < solvers._ETA_MAX
    rtols, step = [], solvers.newton_step
    monkeypatch.setattr(solvers, "newton_step",
                        lambda s, _system, rtol: rtols.append(rtol) or step(s, _system, rtol))
    plain = solvers._newton_loop(start, SolverConfig())
    first_plain, rtols[:] = rtols[0], []
    predicted = solvers._newton_loop(start, SolverConfig(), predicted=True)
    assert plain.failure is None and predicted.failure is None
    assert first_plain == solvers._ETA_MAX and rtols[0] == floor


def test_warm_start_near_the_torus_fold_certifies(torus32):
    # with the forcing floor above eta_max the step to 0.13 stalled at its own tolerance
    # (MaxIters at 1.3e-10), and with the Euclidean Krylov norm the step to 0.14 ended StepFloor
    section = build_section(torus32, Divisor(((0.25, 0.25),), (1,)))
    state, report = solve_gravitating(torus32, section, 6.0, 0.12)
    assert report.converged
    for alpha in (0.13, 0.14):  # steps and certificates only: n=32 under-resolves the digits
        _, warm = advance_gravitating(state, alpha)
        assert warm.converged and warm.alpha_reached == alpha
        assert warm.iterations <= 12


def test_gravitating_sphere_at_twice_the_eb_coupling_certifies(sphere24, antipodal_section24):
    alpha = 2.0 * float(stability.eb_coupling(8.0, 2))  # c = -2
    _, report = solve_gravitating(sphere24, antipodal_section24, 8.0, alpha)
    assert report.converged and report.alpha_reached == alpha


def test_gravitating_sphere_at_c_zero_is_the_eb_solution():
    # at alpha_EB, c = chi - 2 alpha tau N is exactly 0.0 for these data, and the gravitating
    # system reduces to EB: W reads no v, and v only solves Delta v + W - 1 = 0
    grid = build_grid("sphere", 48)
    section = build_section(grid, Divisor(((0.0, 0.0), POINT_AT_INFINITY), (2, 2)))
    eb_state, eb = solve_eb(grid, section, 12.0)
    state, report = solve_gravitating(grid, section, 12.0, float(stability.eb_coupling(12.0, 4)))
    assert state.spec.c == 0.0 and eb.converged and report.converged
    assert np.max(np.abs(state.f.values - eb_state.f.values)) <= 1e-12
    assert abs(report.c_prime - eb.c_prime) <= 1e-13


def test_rescaled_section_costs_no_extra_newton_steps():
    # acceptance criterion 8's gravitating pair: a mean of -0.45 in f once cost 59 steps
    # against 13, from FFT roundoff on the constant mode at newton_tol = 1e-13
    grid = build_grid("torus", 24)
    section = build_section(grid, Divisor(((0.25, 0.25),), (1,)))
    config = SolverConfig(newton_tol=1e-13)
    _, base = solve_gravitating(grid, section, 2.5, 0.05, config)
    _, scaled = solve_gravitating(grid, rescale(section, 0.37), 2.5, 0.05, config)
    assert base.converged and scaled.converged
    assert scaled.iterations <= base.iterations + 2


def test_eb_linear_solves_meet_forcing_tolerance(monkeypatch, sphere16):
    calls = []
    lgmres = solvers.lgmres

    def spy(apply, b, rtol):
        out = lgmres(apply, b, rtol)
        calls.append((rtol, float(np.linalg.norm(b)), out[1]))
        return out

    monkeypatch.setattr(solvers, "lgmres", spy)
    section = build_section(sphere16, Divisor(((0.0, 0.0), POINT_AT_INFINITY), (1, 1)))
    config = SolverConfig()
    _, report = solve_eb(sphere16, section, 8.0, config)
    assert report.converged
    assert len(calls) == report.iterations
    assert all(code == 0 for _, _, code in calls)
    assert all(rtol >= 0.5 * config.newton_tol / norm for rtol, norm, _ in calls)
    assert all(rtol <= solvers._ETA_MAX for rtol, norm, _ in calls
               if norm > 5.0 * config.newton_tol)


def test_step_floor_names_gmres_exit_code(monkeypatch, torus24, torus24_section):
    # a linear solve that gives up at once returns the zero direction: no step descends
    monkeypatch.setattr(solvers, "lgmres", lambda apply, b, rtol: (np.zeros_like(b), 1))
    _, report = solve_vortex(torus24, torus24_section, 2.5)
    assert not report.converged
    assert report.failure_reason is FailureReason.STEP_FLOOR
    assert report.message.endswith("(last GMRES exit code 1)")
    spec = ProblemSpec(grid=torus24, section=torus24_section, tau=2.5,
                       kind=EquationKind.VORTEX)
    _, info = newton_step(initial_state(spec))
    assert info["krylov_info"] == 1
    # d = 0 has slope 0: the step ends after its full-step trial, without backtracking
    assert info["flag"] == "no_descent" and info["step_scale"] == 0.0
    assert report.message.startswith("Newton direction does not descend the merit")


def _vortex_n3(grid):
    """The sphere vortex N=3 (points (0,0), infinity and (1,0)) at tau = 12."""
    return build_section(grid, Divisor(((0.0, 0.0), POINT_AT_INFINITY, (1.0, 0.0)), (1, 1, 1)))


def test_non_descent_direction_ends_the_step_after_one_trial(monkeypatch, sphere24):
    # at L=24 the iterate reaches a residual floor (3.3e-10) that no Newton direction descends:
    # the last step once ran 26 trials, halving t down to the step floor
    steps, trials = [], []
    step, update = solvers.newton_step, solvers._NewtonSystem.apply_update

    def counted_update(self, x, t):
        trials[-1] += 1
        return update(self, x, t)

    def traced_step(*args, **kwargs):
        trials.append(0)
        out = step(*args, **kwargs)
        steps.append((out[1]["step_scale"], out[1]["flag"]))
        return out

    monkeypatch.setattr(solvers._NewtonSystem, "apply_update", counted_update)
    monkeypatch.setattr(solvers, "newton_step", traced_step)
    section = _vortex_n3(sphere24)
    # from the constant e^{2f} max(a) = tau/2, whose first step backtracks
    start = np.full(sphere24.n_nodes, 0.5 * math.log(6.0 / float(np.max(section.norm_sq.values))))
    _, report = solve_vortex(sphere24, section, 12.0, initial=start)
    assert report.failure_reason is FailureReason.STEP_FLOOR and report.iterations == 6
    assert report.message == "Newton direction does not descend the merit"
    assert report.final_residual < 1e-9
    # a descending direction still backtracks: the first step halves once, to t = 1/2
    assert steps[0] == (0.5, None) and trials[0] == 2
    assert steps[-1] == (0.0, "no_descent") and trials[-1] == 1


def test_merit_slope_needs_the_true_laplacian(sphere24):
    # at the floor state GMRES meets its tolerance, and its own product J P y reads the slope
    # as -2 theta0; the true Laplacian of d = P y sees the out-of-band residual it leaves
    state, _ = solve_vortex(sphere24, _vortex_n3(sphere24), 12.0)
    system = solvers._NewtonSystem(state.spec, state.f.values)
    r, _ = system.residual_vector()
    theta0, applied = system.merit(r), []

    def traced(y, x=None):
        applied.append(y.copy())
        return system.krylov_apply(y, x)

    d, code = solvers.gmres(traced, -r, solvers._ETA_MAX)
    assert code == 0
    slope = system.inner(r, system.matvec(d))
    krylov_slope = system.inner(r, system.krylov_apply(applied[-1], d)[1])
    assert krylov_slope == pytest.approx(-2.0 * theta0, rel=1e-3)
    assert slope >= -2.0 * solvers._ARMIJO_CONSTANT * theta0


# ---------------------------------------------------------------------------
# the right-preconditioned Krylov operator
# ---------------------------------------------------------------------------


def _unsolved_system(model, resolution, kind):
    """A Newton system away from any solution: smooth f and v."""
    grid = build_grid(model, resolution)
    if model == "torus":
        divisor = Divisor(((0.25, 0.25), (0.7, 0.6)), (1, 1))
    else:
        divisor = Divisor(((0.0, 0.0), (1.0, 0.5)), (1, 1))
    section = build_section(grid, divisor)
    kind = EquationKind(kind)
    spec = ProblemSpec(grid=grid, section=section, tau=8.0, kind=kind,
                       alpha=0.0 if kind is EquationKind.VORTEX else 0.05)
    x, y = grid.node_coords[:, 0], grid.node_coords[:, 1]
    # less 1/2 log max(a): P = e^{2f} a of a section scaled to node maximum 1, where sphere-8's
    # first full step is rejected and torus-16's accepted
    f = 0.2 * np.cos(2.0 * x) + 0.1 * np.sin(3.0 * y) + 0.4
    f = f - 0.5 * math.log(float(np.max(section.norm_sq.values)))
    v = None
    if kind is EquationKind.GRAVITATING:
        v = 0.05 * np.sin(2.0 * x + y)
        v = v - np.average(v, weights=grid.quad_weights)
    return solvers._NewtonSystem(spec, f, v)


def _krylov_vector(system, seed):
    """Random on the torus; band-limited on the sphere, where the identity is exact."""
    y = np.random.default_rng(seed).standard_normal(system.size)
    if system.grid.model.value == "sphere":
        ones = np.ones_like(system.grid._eigs)
        for k in range(len(system._shifts)):
            block = slice(k * system.n, (k + 1) * system.n)
            y[block] = _spectral(system.grid, y[block], ones)
    return y


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("model,resolution,kind", [  # EB lives on the sphere only
    ("torus", 16, "vortex"), ("torus", 16, "gravitating"),
    ("sphere", 8, "vortex"), ("sphere", 8, "gravitating"), ("sphere", 8, "eb"),
])
def test_krylov_operator_is_jacobian_after_preconditioner(model, resolution, kind):
    # krylov_apply's image of y is J M y, M = P, read off (y, M y) without a transform
    system = _unsolved_system(model, resolution, kind)
    for seed in range(3):
        y = _krylov_vector(system, seed)
        x = system.precond(y)
        want = system.matvec(x)
        got_x, got = system.krylov_apply(y)
        assert np.array_equal(got_x, x) and _rel(got, want) < 1e-12
        # given P y, the same image without applying P again
        assert np.array_equal(system.krylov_apply(y, x)[1], got)
        # negative: Delta P y read off as y alone, without the -shift P y term on the f rows
        wrong = _unsolved_system(model, resolution, kind)
        wrong.__dict__["_krylov_diag"] = wrong._jacobian[1]
        assert _rel(wrong.krylov_apply(y)[1], want) > 1e-6


def test_krylov_norm_is_the_merit(monkeypatch):
    # the torus quadrature weights are uniform, 2 pi / n_nodes, so GMRES's 2-norm of the
    # residual is the merit's norm, every row weighed alike
    system = _unsolved_system("torus", 16, "gravitating")
    r, _ = system.residual_vector()
    weight = TWO_PI / system.n
    assert weight * float(np.dot(r, r)) == pytest.approx(2.0 * system.merit(r), rel=1e-12)
    # and GMRES is handed exactly that norm: -r on the right, J P on the left
    seen = {}
    lgmres = solvers.lgmres

    def spy(apply, b, rtol):
        y = _krylov_vector(system, 3)
        seen["b"], seen["op"] = b.copy(), apply(y)[1]
        seen["want"] = system.matvec(system.precond(y))
        return lgmres(apply, b, rtol)

    monkeypatch.setattr(solvers, "lgmres", spy)
    newton_step(system.state, _system=system)  # the state is only returned should the step fail
    assert np.array_equal(seen["b"], -r)
    assert _rel(seen["op"], seen["want"]) < 1e-12


@pytest.mark.parametrize("kind", ["vortex", "eb"])
def test_krylov_operator_is_identity_out_of_band_on_sphere(kind):
    # P discards the out-of-band part of y; the operator passes it through unchanged
    system = _unsolved_system("sphere", 8, kind)
    y = np.random.default_rng(7).standard_normal(system.size)
    band = _krylov_vector(system, 7)
    assert np.max(np.abs(y - band)) > 0.1
    x = system.precond(y)
    assert np.max(np.abs(x - system.precond(band))) < 1e-12
    gap = system.krylov_apply(y)[1] - system.matvec(x)
    assert np.max(np.abs(gap - (y - band))) < 1e-12


@pytest.mark.parametrize("model,resolution,kind", [
    ("torus", 16, "vortex"), ("torus", 16, "gravitating"),
    ("sphere", 8, "vortex"), ("sphere", 8, "gravitating"), ("sphere", 8, "eb")])
def test_merit_slope_is_its_directional_derivative(model, resolution, kind):
    # <r, J d> in the merit's inner product against a central difference of the merit
    # along the Newton direction d, every unknown moved (v is not re-centred)
    system = _unsolved_system(model, resolution, kind)
    r, _ = system.residual_vector()
    d, _ = solvers.gmres(system.krylov_apply, -r, solvers._ETA_MAX)
    n = system.n

    def merit_at(h):
        v = system.v + h * d[n:] if system.has_v else None
        moved = solvers._NewtonSystem(system.spec, system.f + h * d[:n], v)
        return moved.merit(moved.residual_vector()[0])

    h = 1e-5
    slope = system.inner(r, system.matvec(d))
    assert slope < 0.0
    assert (merit_at(h) - merit_at(-h)) / (2.0 * h) == pytest.approx(slope, rel=1e-8)


@pytest.mark.parametrize("model,resolution", [("torus", 16), ("sphere", 8)])
def test_v_constant_is_a_kernel_direction_of_the_gravitating_system(model, resolution):
    # W = e^{q0} / mean(e^{q0}) does not see v's constant: the residual stays as it was, the
    # derived c' takes the gauge move c' + c, and J (0, 1) vanishes; the volume row holds at
    # either iterate
    system = _unsolved_system(model, resolution, "gravitating")
    moved = solvers._NewtonSystem(system.spec, system.f, system.v + 1.0)
    r, sup = system.residual_vector()
    assert _rel(moved.residual_vector()[0], r) < 1e-13 and sup > 1e-3
    assert moved.c_prime - system.c_prime == pytest.approx(system.spec.c, abs=1e-13)
    wq = system.grid.quad_weights
    for sys_ in (system, moved):
        assert abs(float(np.dot(wq, sys_.w)) / TWO_PI - 1.0) < 1e-14
        assert abs(float(np.dot(wq, sys_.residual_vector()[0][sys_.n:]))) < 1e-12
    zeros, ones = np.zeros(system.n), np.ones(system.n)
    assert np.max(np.abs(system.matvec(np.concatenate([zeros, ones])))) <= 1e-12
    # a constant f is no kernel direction
    assert np.max(np.abs(system.matvec(np.concatenate([ones, zeros])))) > 0.1


def _spy_krylov(monkeypatch, seen):
    """Wrap solvers.lgmres so that ``seen`` gets each solve's (system, b, rtol, d, code), the
    arguments of every operator application, in order, and each solve's count of Krylov
    iterations (applications of P) and true residuals (applications given x = P y)."""
    lgmres = solvers.lgmres

    def spy(apply, b, rtol):
        def traced(y, x=None):
            seen.setdefault("applies", []).append((y.copy(), None if x is None else x.copy()))
            return apply(y, x)
        first = len(seen.get("applies", []))
        d, code = lgmres(traced, b, rtol)
        seen.setdefault("solves", []).append((apply.__self__, b, rtol, d, code))
        given = [x is not None for _, x in seen.get("applies", [])[first:]]
        seen.setdefault("counts", []).append((given.count(False), given.count(True)))
        return d, code

    monkeypatch.setattr(solvers, "lgmres", spy)


@pytest.mark.parametrize("model,resolution", [("torus", 16), ("sphere", 8)])
def test_newton_step_applies_jacobian_once_per_krylov_iteration(monkeypatch, model, resolution):
    system = _unsolved_system(model, resolution, "gravitating" if model == "torus" else "vortex")
    counts = {"matvec": 0, "precond": 0}
    for name in counts:
        def counted(self, *args, _name=name, _fn=getattr(solvers._NewtonSystem, name)):
            counts[_name] += 1
            return _fn(self, *args)
        monkeypatch.setattr(solvers._NewtonSystem, name, counted)
    seen = {}
    _spy_krylov(monkeypatch, seen)
    _, info = newton_step(system.state, _system=system)
    assert info["krylov_info"] == 0 and info["step_scale"] > 0.0
    iterations = sum(x is None for _, x in seen["applies"])
    residuals = len(seen["applies"]) - iterations
    assert iterations > 1 and residuals == 1  # one cycle, one true residual
    assert all(y.any() for y, _ in seen["applies"])  # no zero start vector is applied
    # and one slope product J d when the full step is rejected (sphere-8's first step)
    assert counts["matvec"] == iterations + residuals + (info["step_scale"] < 1.0)
    assert (info["step_scale"] < 1.0) == (model == "sphere")
    # d comes from the stored P v_j: no P beyond one per Krylov iteration
    assert counts["precond"] == iterations


@pytest.mark.parametrize("model,resolution,kind", [
    ("torus", 16, "vortex"), ("torus", 16, "gravitating"),
    ("sphere", 8, "vortex"), ("sphere", 8, "eb"), ("sphere", 8, "gravitating")])
def test_field_blocks_share_one_transform_call(monkeypatch, model, resolution, kind):
    # gravitating: the (2, n_nodes) stack of f and v in one transform call per preconditioner
    # and one Laplacian per residual; vortex and EB: their one block as a 1-D array
    system = _unsolved_system(model, resolution, kind)
    shape = (2, system.n) if kind == "gravitating" else (system.n,)
    seen = {}

    def spy(owner, name, arg=None):
        """Record each call of owner.name, with the shape of its argument ``arg`` if given."""
        fn, seen[name] = getattr(owner, name), []

        def wrapped(*args):
            seen[name].append(None if arg is None else np.shape(args[arg]))
            return fn(*args)
        monkeypatch.setattr(owner, name, wrapped)

    spy(solvers, "_spectral", 1)
    spy(equations, "laplacian_values", 1)
    spy(solvers._NewtonSystem, "precond")
    spy(solvers, "_residual_rows")
    _, info = newton_step(system.state, _system=system)
    assert info["step_scale"] > 0.0 and seen["precond"] and len(seen["_residual_rows"]) >= 2
    assert seen["_spectral"] == [shape] * len(seen["precond"])
    assert seen["laplacian_values"] == [shape] * len(seen["_residual_rows"])


@pytest.mark.parametrize("cut", [None, 1])
def test_newton_direction_is_precond_of_the_krylov_solution(monkeypatch, cut):
    # cut short (cut = 1) at two Krylov iterations, the solve still returns d = P y
    system = _unsolved_system("sphere", 8, "eb")
    if cut is not None:
        monkeypatch.setattr(solvers, "_KRYLOV_INNER", 2)
    seen = {}
    update = solvers._NewtonSystem.apply_update

    def capture(self, x, t):
        seen.setdefault("d", x.copy())
        return update(self, x, t)

    _spy_krylov(monkeypatch, seen)
    monkeypatch.setattr(solvers._NewtonSystem, "apply_update", capture)
    _, info = newton_step(system.state, _system=system)
    assert (info["krylov_info"] == 0) == (cut is None)
    y, d = seen["applies"][-1]  # the solve ends on its true residual at (y, P y)
    assert d is not None and np.array_equal(seen["d"], seen["solves"][0][3])
    assert _rel(seen["d"], system.precond(y)) < 1e-12


def _dense(system):
    """The Krylov operator J M, M = P the preconditioner, as a dense matrix, column by column."""
    return np.column_stack([system.krylov_apply(e)[1] for e in np.eye(system.size)])


@pytest.mark.parametrize("model,resolution,kind", [("torus", 12, "gravitating"),
                                                   ("sphere", 6, "eb")])
def test_gmres_matches_a_dense_solve(model, resolution, kind):
    system = _unsolved_system(model, resolution, kind)
    a = _dense(system)
    b = -system.residual_vector()[0]
    seen = []

    def traced(y, x=None):
        seen.append(y.copy())
        return system.krylov_apply(y, x)

    for rtol in (1e-3, 1e-9):
        seen.clear()
        d, code = solvers.gmres(traced, b, rtol)
        assert code == 0
        y = seen[-1]  # the true residual is taken at the returned y
        assert np.linalg.norm(b - a @ y) <= rtol * np.linalg.norm(b)
        assert _rel(d, system.precond(y)) < 1e-12
    # the dense answer, to the accuracy the tight tolerance buys; on the torus v's constant is
    # the operator's kernel, which b and the Krylov space are orthogonal to: the least-squares
    # answer of least norm
    exact = system.precond(np.linalg.lstsq(a, b, rcond=None)[0])
    assert _rel(d, exact) < 1e-6


@pytest.mark.parametrize("spread,rtol,steps", [(0.05, 1e-3, 3),
                                               (1.0, 1e-12, solvers._KRYLOV_INNER)])
def test_gmres_cycle_is_the_minimal_residual_solution_on_its_krylov_space(spread, rtol, steps):
    # a dense nonsymmetric A = I + spread * G and right preconditioner P: after j Arnoldi steps
    # d = P y, y the minimiser of ||b - A y|| over span(b, A b, ..., A^{j-1} b); the reference
    # spans that space by classical Gram-Schmidt, twice, and solves the least squares densely
    n = 60
    rng = np.random.default_rng(29)
    a = np.eye(n) + spread * rng.standard_normal((n, n)) / math.sqrt(n)
    p = np.eye(n) + 0.1 * rng.standard_normal((n, n)) / math.sqrt(n)
    b = rng.standard_normal(n)
    applied = []

    def apply(y, x=None):
        applied.append(y.copy())
        return (p @ y if x is None else x), a @ y

    d, code = solvers.gmres(apply, b, rtol)
    j = len(applied) - 1  # the last application is the true residual's
    assert j == steps and code == (0 if j < solvers._KRYLOV_INNER else 1)
    basis = [b / np.linalg.norm(b)]
    for _ in range(j - 1):
        w = a @ basis[-1]
        for _ in range(2):
            w -= np.column_stack(basis) @ (np.column_stack(basis).T @ w)
        basis.append(w / np.linalg.norm(w))
    q = np.column_stack(basis)
    y = q @ np.linalg.lstsq(a @ q, b, rcond=None)[0]
    assert _rel(d, p @ y) < 1e-12
    assert _rel(applied[-1], y) < 1e-12


def test_gmres_of_a_zero_right_hand_side_applies_nothing():
    def apply(y, x=None):
        raise AssertionError("no operator application for b = 0 or a non-finite ||b||")

    d, code = solvers.gmres(apply, np.zeros(5), 0.1)
    assert code == 0 and not d.any()
    # an overflowed right-hand side is never reported as solved
    d, code = solvers.gmres(apply, np.array([math.inf, 1.0]), 0.1)
    assert code != 0 and not d.any()


def test_gmres_names_a_singular_operator_with_an_exit_code():
    # a zero pivot leaves no Givens rotation (0 / 0) and a singular triangular solve: the
    # cycle ends on the columns before it, with code 1
    def operator(a):
        return lambda y, x=None: (y.copy() if x is None else x, a @ y)

    b = np.array([1.0, 1.0, 0.0])
    # projection onto e1, pivot zero at j = 1: the least-squares answer on span(b)
    d, code = solvers.gmres(operator(np.diag([1.0, 0.0, 0.0])), b, 1e-3)
    assert code == 1 and np.allclose(d, b, rtol=0.0, atol=1e-15)
    # the zero operator, pivot zero at j = 0: no direction
    d, code = solvers.gmres(operator(np.zeros((3, 3))), b, 1e-3)
    assert code == 1 and not d.any()


@pytest.mark.parametrize("true_gain, kept", [(-1.0, False), (0.0, False), (3.0, True)])
def test_gmres_returns_no_direction_that_ascends_its_own_residual(true_gain, kept):
    # GMRES minimises ||b - A y|| over a space that holds y = 0, so its y has b . A y > 0 unless
    # roundoff undid that (a collapsed iterate's d once had max 4e21 and b . A y = -1.4 |b|^2):
    # then d = 0 with code 1.  Here the last product, the true residual's, disagrees with the
    # Arnoldi products; at 3 y the true residual exceeds |b|, but y still descends it from 0
    def apply(y, x=None):
        return (y.copy(), y.copy()) if x is None else (x, true_gain * y)

    b = np.array([1.0, 2.0, 0.5])
    d, code = solvers.gmres(apply, b, 1e-3)
    assert code == 1 and np.array_equal(d, b if kept else 0.0 * b)


def test_a_singular_jacobian_ends_in_step_floor(monkeypatch, torus24, torus24_section):
    monkeypatch.setattr(solvers._NewtonSystem, "krylov_apply",
                        lambda self, y, x=None: (y.copy() if x is None else x, 0.0 * y))
    _, report = solve_vortex(torus24, torus24_section, 2.5)
    assert report.failure_reason is FailureReason.STEP_FLOOR
    assert report.message.endswith("(last GMRES exit code 1)")


def test_a_descending_direction_still_backtracks_to_the_step_floor(monkeypatch, torus24,
                                                                    torus24_section):
    # every trial overflows, but the Newton direction descends: t halves down to the floor
    update, ts = solvers._NewtonSystem.apply_update, []

    def overflowed(self, x, t):
        ts.append(t)
        trial = update(self, x, t)
        trial.overflow = True
        return trial

    monkeypatch.setattr(solvers._NewtonSystem, "apply_update", overflowed)
    spec = ProblemSpec(grid=torus24, section=torus24_section, tau=2.5,
                       kind=EquationKind.VORTEX)
    _, info = newton_step(initial_state(spec))
    assert info["flag"] == "step_floor" and info["krylov_info"] == 0
    assert ts == [2.0**-k for k in range(26)]


def test_gmres_never_reports_an_unmet_tolerance_as_converged(monkeypatch, torus32):
    # below the degree bound (verdicts class vortex_below_bound, N = 1, tau = 1.83): at the
    # fifth Newton step the Arnoldi estimate meets rtol while the true residual is ~5e9
    # times |b|; the exit code must say so, and the StepFloor message name it.  Each solve
    # is one cycle: one true residual, at most _KRYLOV_INNER iterations
    section = build_section(torus32, Divisor(((0.6923928173339985, 0.1913361931575598),), (1,)))
    seen = {}
    _spy_krylov(monkeypatch, seen)
    _, report = solve_vortex(torus32, section, 1.83)
    assert report.failure_reason is FailureReason.STEP_FLOOR
    codes = [code for *_, code in seen["solves"]]
    assert codes[-1] == 1 and report.iterations == len(codes)
    assert report.message.endswith("(last GMRES exit code 1)")
    assert all(residuals == 1 and iterations <= solvers._KRYLOV_INNER
               for iterations, residuals in seen["counts"])
    for system, b, rtol, d, code in seen["solves"]:
        true = np.linalg.norm(b - system.matvec(d))
        assert (code == 0) == (true <= rtol * np.linalg.norm(b) * (1.0 + 1e-6))


def test_importing_the_package_leaves_scipy_out():
    # numpy is the only runtime dependency: scipy.special alone costs about 24 MB of resident
    # memory, and a sphere grid takes its Gauss-Legendre rule from numpy; a Newton solve on
    # each surface runs first, so a transform that imports scipy lazily shows up too
    code = ("import sys, gravortex as g, gravortex.cli; g.build_grid('sphere', 48)\n"
            "for model, res, point in (('torus', 16, (0.25, 0.25)), ('sphere', 8, (0.0, 0.0))):\n"
            "    grid = g.build_grid(model, res)\n"
            "    section = g.build_section(grid, g.Divisor((point,), (1,)))\n"
            "    assert g.solve_vortex(grid, section, 8.0)[1].converged\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(gravortex.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_line_search_evaluates_the_nonlinearity_once_per_trial(monkeypatch, torus24,
                                                                torus24_section):
    # below the degree bound some steps backtrack, several trials each, until no direction descends
    spec = ProblemSpec(grid=torus24, section=torus24_section, tau=1.85,
                       kind=EquationKind.VORTEX)
    state = initial_state(spec)
    system = solvers._NewtonSystem(spec, state.f.values)
    counts = {"kernel": 0, "states": 0}
    trials = []
    kernel, update, wrap = solvers._nonlinearity, solvers._NewtonSystem.apply_update, \
        solvers.make_state

    def counted_kernel(*args):
        counts["kernel"] += 1
        return kernel(*args)

    def counted_update(self, x, t):
        trials.append(update(self, x, t))
        return trials[-1]

    def counted_wrap(*args):
        counts["states"] += 1
        return wrap(*args)

    def no_residual_fields(_state):
        raise AssertionError("the line search evaluates the residual on raw arrays")

    monkeypatch.setattr(solvers, "_nonlinearity", counted_kernel)
    monkeypatch.setattr(solvers._NewtonSystem, "apply_update", counted_update)
    monkeypatch.setattr(solvers, "make_state", counted_wrap)
    monkeypatch.setattr(solvers, "residual_fields", no_residual_fields)
    per_step = []
    while True:
        state, info = newton_step(state, _system=system)
        accepted = info["step_scale"] > 0.0
        assert counts["kernel"] == len(trials)
        assert counts["states"] == 0  # given its system, a step builds no FieldState
        rejected = trials[:-1] if accepted else trials
        cached = {"_jacobian", "_shifts", "_smoother", "_krylov_diag"}
        assert not any(cached & vars(t).keys() for t in rejected)
        per_step.append(len(trials))
        counts.update(kernel=0, states=0)
        trials.clear()
        if info["flag"] is not None:
            break
        system = info["system"]
    # the last direction cannot descend the merit: one trial, no halving to the floor
    assert info["flag"] == "no_descent" and per_step[-1] == 1
    assert max(per_step) > 1 and len(per_step) > 1


def test_merit_of_a_blown_up_trial_is_inf_without_warnings(torus24, torus24_section):
    spec = ProblemSpec(grid=torus24, section=torus24_section, tau=2.5,
                       kind=EquationKind.VORTEX)
    system = solvers._NewtonSystem(spec, initial_state(spec).f.values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert system.merit(np.full(system.size, 1e228)) == math.inf


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau", [1.85, 1.88])
def test_below_bound_vortex_fails_without_overflow_warnings(torus24, torus24_section, tau):
    # these trials reach residuals near 1e228; their merit must overflow silently
    _, report = solve_vortex(torus24, torus24_section, tau)
    assert not report.converged
    assert report.failure_reason is FailureReason.STEP_FLOOR


@pytest.mark.filterwarnings("error")
def test_overflowing_start_fails_before_any_step(torus24, torus24_section):
    # at 400 the exponent 2f is beyond the guard; at 300 it is not, but P W is about 1e260,
    # so the residual's 2-norm overflows (Armijo once accepted zero steps there, inf <= inf)
    for start in (400.0, 300.0):
        state, report = solve_vortex(torus24, torus24_section, 2.5,
                                     initial=np.full(torus24.n_nodes, start))
        assert not report.converged
        assert report.failure_reason is FailureReason.OVERFLOW
        assert report.iterations == 0
        assert np.all(state.f.values == start)
        if start == 400.0:  # the exponent guard fires before any residual is evaluated
            assert report.final_residual == math.inf
        # a single step flags it too, rather than accept the zero step that inf <= inf allows
        _, info = newton_step(state)
        assert info["flag"] == "overflow" and info["step_scale"] == 0.0
        assert info["krylov_info"] is None
    # the 2-norm overflow reports the residual's finite sup norm
    assert report.final_residual > 1e250 and math.isfinite(report.final_residual)
    assert report.message.endswith("has no finite 2-norm")


def test_gravitating_torus_weak_coupling(torus24, torus24_section):
    state, report = solve_gravitating(torus24, torus24_section, 2.5, 0.05)
    assert report.converged
    assert report.alpha_reached == 0.05
    sup = max(float(np.max(np.abs(r.values))) for r in residual_fields(state))
    assert sup <= 1e-8
    assert report.identity.min_density > 0
    assert abs(report.identity.volume_identity) <= 1e-8
    assert abs(mean_value(state.v)) < 1e-12
    assert abs(report.identity.gauss_bonnet) < 1e-8  # chi = 0


def test_continuation_starts_each_stage_from_the_secant_prediction(monkeypatch, torus24,
                                                                    torus24_section):
    loops = []
    newton_loop = solvers._newton_loop

    def spy(state, config):
        out = newton_loop(state, config)
        loops.append((state, out))
        return out

    monkeypatch.setattr(solvers, "_newton_loop", spy)
    _, report = solve_gravitating(torus24, torus24_section, 2.5, 0.05)
    assert report.converged
    anchor, first = loops[0][1].state, loops[1][0]  # loops[0] solves the vortex anchor
    assert np.array_equal(first.f.values, anchor.f.values)
    certified = [anchor] + [out.state for _, out in loops[1:]]
    # equal steps of alpha / 4: the secant's weights (-1, 2) on the second stage, the
    # quadratic's (1, -3, 3) on the third and fourth
    for k, exact in ((2, (-1.0, 2.0)), (3, (1.0, -3.0, 3.0)), (4, (1.0, -3.0, 3.0))):
        points, trial = certified[max(0, k - 3):k], loops[k][0]
        alphas = [p.spec.alpha for p in points]
        weights = [math.prod((trial.spec.alpha - b) / (a - b)
                             for j, b in enumerate(alphas) if j != i)
                   for i, a in enumerate(alphas)]
        assert weights == pytest.approx(exact)
        for got, field in ((trial.f, "f"), (trial.v, "v")):
            want = sum(w * getattr(p, field).values for w, p in zip(weights, points))
            assert np.allclose(got.values, want, rtol=0.0, atol=1e-13)
        assert np.max(np.abs(trial.f.values - certified[k - 1].f.values)) > 1e-6  # extrapolated


def test_gravitating_alpha_zero_is_vortex(torus24, torus24_section):
    gstate, greport = solve_gravitating(torus24, torus24_section, 2.5, 0.0)
    vstate, vreport = solve_vortex(torus24, torus24_section, 2.5)
    assert greport.converged and vreport.converged
    assert np.max(np.abs(gstate.f.values - vstate.f.values)) < 1e-12
    assert np.max(np.abs(gstate.v.values)) == 0.0


def test_advance_gravitating_warm_start(torus24, torus24_section):
    state, report = solve_gravitating(torus24, torus24_section, 2.5, 0.02)
    assert report.converged
    state2, report2 = advance_gravitating(state, 0.03)
    assert report2.converged
    assert report2.alpha_reached == 0.03
    # warm starts land on the same branch as cold continuation
    cold, creport = solve_gravitating(torus24, torus24_section, 2.5, 0.03)
    assert creport.converged
    assert np.max(np.abs(state2.f.values - cold.f.values)) < 1e-7


def test_predict_is_exact_on_quadratic_branches(torus24, torus24_section):
    rng = np.random.default_rng(0)
    spec = ProblemSpec(torus24, torus24_section, 2.5, EquationKind.GRAVITATING, 0.0)
    f0, f1, f2, v0, v1, v2 = rng.standard_normal((6, torus24.n_nodes))
    v0, v1, v2 = (v - np.dot(torus24.quad_weights, v) / TWO_PI for v in (v0, v1, v2))

    def branch(alpha):
        return make_state(replace(spec, alpha=alpha), f0 + alpha * f1 + alpha**2 * f2,
                          v0 + alpha * v1 + alpha**2 * v2)

    stage = replace(spec, alpha=0.05)
    rows = [branch(a) for a in (0.01, 0.02, 0.04)]  # unequal steps
    start, exact = solvers._predict(stage, rows), branch(0.05)
    assert start.spec is stage
    assert np.allclose(start.f.values, exact.f.values, rtol=0.0, atol=1e-13)
    assert np.allclose(start.v.values, exact.v.values, rtol=0.0, atol=1e-13)
    # only the last three count
    assert np.array_equal(solvers._predict(stage, [branch(0.0)] + rows).f.values, start.f.values)
    # one state: the warm start; two: the secant through them
    warm = solvers._predict(stage, rows[-1:])
    assert np.array_equal(warm.f.values, rows[-1].f.values)
    assert np.allclose(warm.v.values, rows[-1].v.values, rtol=0.0, atol=1e-13)
    secant = solvers._predict(stage, rows[1:])
    ratio = (0.05 - 0.04) / (0.04 - 0.02)
    for got, a, b in ((secant.f, rows[2].f, rows[1].f), (secant.v, rows[2].v, rows[1].v)):
        assert np.allclose(got.values, a.values + ratio * (a.values - b.values),
                           rtol=0.0, atol=1e-13)


def test_advance_on_the_benchmark_sweep_certifies_with_one_step_from_the_fourth_row():
    grid = build_grid("torus", 64)
    section = build_section(grid, Divisor(((0.1, 0.2), (0.6, 0.71)), (1, 1)))
    alphas = [0.035 * k / 7 for k in range(8)]
    state, report = solve_gravitating(grid, section, 6.0, 0.0)
    assert report.converged
    rows, warm = [state], state
    for alpha in alphas[1:]:
        state, report = advance_gravitating(rows[-1], alpha, history=tuple(rows[-3:-1]))
        warm, warm_report = advance_gravitating(warm, alpha)
        assert report.converged and warm_report.converged
        assert abs(report.c_prime - warm_report.c_prime) <= 1e-9
        if len(rows) >= 3:  # the quadratic through the last three
            assert report.iterations == 1
        rows.append(state)


@pytest.mark.parametrize("secant", [False, True], ids=["warm", "secant"])
def test_a_failed_advance_reports_the_state_its_alpha_reached_names(monkeypatch, torus24,
                                                                    torus24_section, secant):
    anchor, _ = solve_gravitating(torus24, torus24_section, 2.5, 0.0)
    state, report = advance_gravitating(anchor, 0.02)
    assert report.converged
    if secant:  # one step from the secant certifies: fail the loop as the budget would not
        monkeypatch.setattr(solvers, "_newton_loop", lambda start, config, predicted: (
            solvers._LoopResult(start, 1, 1.0, FailureReason.MAX_ITERS,
                                "residual 1.000e+00 after 1 iterations")))
    out, failed = advance_gravitating(state, 0.03, SolverConfig(max_newton_iters=1),
                                      (anchor,) if secant else ())
    assert failed.failure_reason is FailureReason.MAX_ITERS and failed.iterations == 1
    assert failed.final_residual > SolverConfig().newton_tol
    assert failed.message == f"residual {failed.final_residual:.3e} after 1 iterations"
    # alpha_reached, c' and the identities all describe the last certified state
    assert failed.alpha_reached == 0.02 and out is state
    assert failed.c_prime == report.c_prime and failed.identity == report.identity


def test_gravitating_negative_alpha_rejected(torus24, torus24_section):
    with pytest.raises(ValueError):
        solve_gravitating(torus24, torus24_section, 2.5, -0.1)


def _no_newton_loop(monkeypatch):
    """Fail the test if any Newton loop runs."""
    monkeypatch.setattr(solvers, "_newton_loop",
                        lambda *args: pytest.fail("a Newton loop ran on rejected data"))


# ProblemSpec's message for each rejected coupling, matched whole
_BAD_ALPHA_MESSAGES = {"-0.1": "gravitating problems need alpha >= 0",
                       "nan": "alpha must be finite, got nan",
                       "inf": "alpha must be finite, got inf"}


@pytest.mark.parametrize("alpha", [-0.1, math.nan, math.inf])
def test_gravitating_coupling_must_be_finite(monkeypatch, torus24, torus24_section, alpha):
    seed = initial_state(ProblemSpec(grid=torus24, section=torus24_section, tau=2.5,
                                     kind=EquationKind.VORTEX))
    # rejected at the boundary, where ProblemSpec is built, before a Newton loop runs
    _no_newton_loop(monkeypatch)
    exact = f"^{re.escape(_BAD_ALPHA_MESSAGES[str(alpha)])}$"
    with pytest.raises(ValueError, match=exact):
        solve_gravitating(torus24, torus24_section, 2.5, alpha)
    with pytest.raises(ValueError, match=exact):
        advance_gravitating(seed, alpha)


@pytest.mark.parametrize("tau", [0.0, -8.0])
def test_eb_rejects_a_non_positive_tau_before_any_newton_loop(monkeypatch, sphere16, tau):
    section = build_section(sphere16, Divisor(((0.0, 0.0), POINT_AT_INFINITY), (1, 1)))
    _no_newton_loop(monkeypatch)
    # the degree bound N < tau/2 is checked before the EB coupling 1/(tau N) is formed
    with pytest.raises(ValueError, match=r"^solve_eb requires N < tau/2 "):
        solve_eb(sphere16, section, tau)


def test_gravitating_anchor_failure_is_the_vortex_report(torus24, torus24_section):
    state, report = solve_gravitating(torus24, torus24_section, 1.8, 0.05)
    _, vreport = solve_vortex(torus24, torus24_section, 1.8)
    # the same anchor loop; each report quotes the oracle's verdict at its own coupling, once
    assert replace(report, message="") == replace(vreport, message="")
    assert report.failure_reason is FailureReason.STEP_FLOOR
    verdict = stability.existence_oracle(1, torus24_section.divisor, 1.8, 0.05)
    assert verdict.theorem_tag == "degree identity"
    assert report.message.startswith(f"degree identity: {verdict.reason}; ")
    assert report.message.count("degree identity") == 1
    assert vreport.message.startswith("Theorem 3.2: decoupled case: degree bound fails")
    assert report.alpha_reached == 0.0
    assert state.spec.kind is EquationKind.GRAVITATING
    assert np.all(state.v.values == 0.0)


def test_eb_requires_sphere_and_bound(torus24, torus24_section, sphere16):
    with pytest.raises(ValueError):
        solve_eb(torus24, torus24_section, 2.5)
    divisor = Divisor(points=((0.0, 0.0), POINT_AT_INFINITY), multiplicities=(1, 1))
    section = build_section(sphere16, divisor)
    with pytest.raises(ValueError):
        solve_eb(sphere16, section, 4.0)  # N = 2 = tau/2 fails strictly


def test_eb_converges_on_polystable_divisor(sphere24, antipodal_section24):
    state, report = solve_eb(sphere24, antipodal_section24, 8.0)
    assert report.converged
    assert report.final_residual <= 1e-10
    assert report.alpha_reached == pytest.approx(1.0 / 16.0)
    assert abs(report.identity.volume_identity) <= 1e-8
    # solution metric integrates its curvature to 4*pi*chi
    assert abs(report.identity.gauss_bonnet) <= 1e-4
    # the value at C = log 4, moved to C = 2 by criterion 8's covariance c' + alpha tau dC
    assert report.c_prime == pytest.approx(-0.868053354586 + (2.0 - math.log(4.0)) / 2.0,
                                           abs=1e-6)


def test_eb_c_prime_on_a_non_antipodal_divisor_is_closed_form():
    # the Mobius maps fixing p and q carry the radial solution to every member of the orbit,
    # and c' = c'_radial(log_scale 0) + (C + m log|p - q|^2) / N is one number on all of it
    # (which member the solve lands on is open, so f is not pinned)
    grid = build_grid("sphere", 128)
    section = build_section(grid, Divisor(((0.0, 0.0), (1.0, 0.5)), (1, 1)))
    _, report = solve_eb(grid, section, 8.0)
    assert report.converged
    radial = solve_eb_radial(8.0, 1, 1, log_scale=0.0)
    assert radial.converged
    want = radial.c_prime + (section.normalization + math.log(1.25)) / 2.0
    assert abs(report.c_prime - want) <= 1e-12


def test_eb_halts_on_unstable_divisor(sphere16):
    divisor = Divisor(points=((0.0, 0.0),), multiplicities=(2,))
    section = build_section(sphere16, divisor)
    state, report = solve_eb(sphere16, section, 8.0)
    assert not report.converged
    assert report.failure_reason is FailureReason.NO_SOLUTION
    assert report.message == (
        "Theorem 3.8: all 2 zeros coincide: no solution for any positive coupling")


def test_eb_anchor_failure_cites_the_gate_first(sphere16):
    section = build_section(sphere16, Divisor(points=((0.0, 0.0),), multiplicities=(2,)))
    _, report = solve_eb(sphere16, section, 8.0, SolverConfig(max_newton_iters=1))
    assert report.failure_reason is FailureReason.MAX_ITERS
    assert report.alpha_reached == 0.0
    assert report.message == (
        "Theorem 3.8: all 2 zeros coincide: no solution for any positive coupling; "
        f"residual {report.final_residual:.3e} after 1 iterations"
    )


def test_identity_failure_has_its_own_reason(monkeypatch, torus24, torus24_section):
    real = solvers.identity_report
    monkeypatch.setattr(solvers, "identity_report",
                        lambda state: replace(real(state), degree_identity=1e-3))
    _, report = solve_vortex(torus24, torus24_section, 2.5)
    assert report.final_residual <= 1e-10  # the residual converged ...
    assert not report.converged  # ... but the certificate fails
    assert report.failure_reason is FailureReason.IDENTITY_FAILURE
    assert "integral identities" in report.message
    assert report.to_dict()["failure_reason"] == "IdentityFailure"


# every certificate condition rejects a real non-solution, with nothing patched


def test_a_loose_newton_tol_fails_the_degree_identity(torus24, torus24_section):
    _, report = solve_vortex(torus24, torus24_section, 2.5, SolverConfig(newton_tol=1e-3))
    assert report.final_residual <= 1e-3
    assert report.failure_reason is FailureReason.IDENTITY_FAILURE
    ident = report.identity
    assert abs(ident.degree_identity) > solvers.DEGREE_IDENTITY_TOL
    assert abs(ident.volume_identity) <= 1e-12 and ident.min_density > 0.0


def test_a_loose_newton_tol_fails_the_volume_identity(sphere16, antipodal_section16):
    # it cannot: W = e^{q0} / mean(e^{q0}) meets the volume constraint at every state, so the
    # volume identity is a diagnostic, not a certificate condition: a loose solve misses none,
    # and here it meets the degree identity too
    _, report = solve_eb(sphere16, antipodal_section16, 8.0, SolverConfig(newton_tol=1e-5))
    assert report.final_residual <= 1e-5 and report.converged
    assert abs(report.identity.volume_identity) <= 1e-12
    assert abs(report.identity.degree_identity) <= solvers.DEGREE_IDENTITY_TOL


def test_a_metric_that_is_not_positive_fails_the_certificate(torus24, torus24_section):
    # at alpha = 0 on the torus c = 0, so W = 1 whatever v is and a constant f meets the
    # degree identity: only the metric 1 - Delta v, negative where Delta v > 1, is wrong
    spec = ProblemSpec(torus24, torus24_section, 2.5, EquationKind.GRAVITATING, 0.0)
    wq, a = torus24.quad_weights, torus24_section.norm_sq.values
    f0 = 0.5 * math.log((TWO_PI * 2.5 - 2.0 * TWO_PI) / float(np.dot(wq, a)))
    v = 0.5 * np.cos(2.0 * math.pi * torus24.node_coords[:, 0])
    state = make_state(spec, np.full(torus24.n_nodes, f0), v - np.average(v, weights=wq))
    report = solvers._certify(solvers._LoopResult(state, 0, 0.0, None), 0.0, None)
    assert report.failure_reason is FailureReason.IDENTITY_FAILURE
    ident = report.identity
    assert ident.min_density < 0.0 and math.isnan(ident.gauss_bonnet)
    assert abs(ident.degree_identity) <= solvers.DEGREE_IDENTITY_TOL
    assert abs(ident.volume_identity) <= 1e-12


def test_certify_takes_c_prime_from_the_loop(monkeypatch, sphere16, antipodal_section16):
    # the loop's final Newton system already derived c': certifying evaluates the nonlinearity
    # once, for the identities, and reports the c' that the state implies, bit for bit
    spec = ProblemSpec(sphere16, antipodal_section16, 8.0, EquationKind.EINSTEIN_BOGOMOLNYI,
                       1.0 / 16.0)
    loop = solvers._newton_loop(initial_state(spec), SolverConfig())
    assert loop.failure is None
    expected = solvers._certify(replace(loop, c_prime=None), spec.alpha, None).to_dict()
    assert expected["c_prime"] == loop.state.c_prime
    calls, kernel = [], equations._nonlinearity

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(equations, "_nonlinearity", counted)
    report = solvers._certify(loop, spec.alpha, None)
    assert len(calls) == 1
    assert report.to_dict() == expected


def test_gauss_bonnet_holds_off_solutions(sphere16, antipodal_section16):
    # the spectral Laplacian integrates to zero: Gauss-Bonnet certifies nothing
    spec = ProblemSpec(sphere16, antipodal_section16, 8.0, EquationKind.EINSTEIN_BOGOMOLNYI,
                       1.0 / 16.0)
    state = make_state(spec, np.random.default_rng(0).standard_normal(sphere16.n_nodes))
    ident = equations.identity_report(state)
    assert abs(ident.gauss_bonnet) <= 1e-10
    assert abs(ident.degree_identity) > 1.0
    assert not solvers._certify(solvers._LoopResult(state, 0, 0.0, None), 0.0, None).converged


def _gate_case(tag):
    """(oracle genus, section, tau, alpha, solve) for data the oracle rules out with ``tag``."""
    torus, sphere = build_grid("torus", 24), build_grid("sphere", 16)
    one = build_section(torus, Divisor(((0.25, 0.25),), (1,)))
    if tag == "Theorem 3.2":
        return 1, one, 1.8, 0.0, lambda: solve_vortex(torus, one, 1.8)
    if tag == "degree identity":
        return 1, one, 2.0, 0.035, lambda: solve_gravitating(torus, one, 2.0, 0.035)
    if tag == "Theorem 3.6":
        antipodal = build_section(sphere, Divisor(((0.0, 0.0), POINT_AT_INFINITY), (1, 1)))
        return 0, antipodal, 4.0, 0.03, lambda: solve_gravitating(sphere, antipodal, 4.0, 0.03)
    if tag == "Theorem 3.6 witness":
        unstable = build_section(sphere, Divisor(((0.0, 0.0), (1.0, 0.0)), (3, 1)))
        return 0, unstable, 12.0, 1.0 / 48.0, lambda: solve_eb(
            sphere, unstable, 12.0, SolverConfig(max_newton_iters=10))
    superimposed = build_section(sphere, Divisor(((0.0, 0.0),), (2,)))
    return 0, superimposed, 8.0, 1.0 / 16.0, lambda: solve_eb(sphere, superimposed, 8.0)


@pytest.mark.parametrize("tag", ["Theorem 3.2", "degree identity", "Theorem 3.6",
                                 "Theorem 3.6 witness", "Theorem 3.8"])
def test_a_report_on_ruled_out_data_quotes_the_oracle_once(tag):
    genus, section, tau, alpha, solve = _gate_case(tag)
    verdict = stability.existence_oracle(genus, section.divisor, tau, alpha)
    assert verdict.verdict is stability.ExistenceVerdict.NOT_EXISTS
    assert verdict.theorem_tag == tag.replace(" witness", "")
    _, report = solve()
    assert not report.converged
    assert report.message.startswith(f"{verdict.theorem_tag}: {verdict.reason}")
    assert report.message.count(verdict.theorem_tag) == 1


def test_gravitating_sphere_unstable_stalls(monkeypatch, sphere16):
    divisor = Divisor(points=((0.0, 0.0),), multiplicities=(2,))
    section = build_section(sphere16, divisor)
    # a tight budget keeps this quick; the stall is structural, not budgetary
    monkeypatch.setattr(solvers, "_MAX_STEP_HALVINGS", 2)
    config = SolverConfig(max_newton_iters=12)
    state, report = solve_gravitating(sphere16, section, 8.0, 0.05, config)
    assert not report.converged
    assert report.alpha_reached < 0.05


def test_scale_invariance_of_gravitating_solution(torus24, torus24_section):
    shift = 0.37
    scaled = rescale(torus24_section, shift)
    base_state, base_report = solve_gravitating(torus24, torus24_section, 2.5, 0.05)
    scaled_state, scaled_report = solve_gravitating(torus24, scaled, 2.5, 0.05)
    assert base_report.converged and scaled_report.converged
    # f absorbs the rescaling, every gauge-invariant quantity survives
    f_shift = scaled_state.f.values - base_state.f.values
    assert np.max(np.abs(f_shift + shift)) < 1e-9
    p_base = np.exp(2 * base_state.f.values) * torus24_section.norm_sq.values
    p_scaled = np.exp(2 * scaled_state.f.values) * scaled.norm_sq.values
    assert np.max(np.abs(p_base - p_scaled)) < 1e-9
    assert np.max(np.abs(base_state.v.values - scaled_state.v.values)) < 1e-9
    assert np.max(np.abs(metric_density(base_state).values
                         - metric_density(scaled_state).values)) < 1e-9


def test_report_serialization_round_trip(torus24, torus24_section):
    _, report = solve_vortex(torus24, torus24_section, 2.5)
    d = report.to_dict()
    assert d["converged"] is True
    assert d["identity"]["volume_identity"] == report.identity.volume_identity
    assert d["failure_reason"] is None


def test_solver_budget_respected(torus24, torus24_section):
    config = SolverConfig(max_newton_iters=1)
    _, report = solve_vortex(torus24, torus24_section, 4.0, config)
    assert not report.converged
    assert report.failure_reason is FailureReason.MAX_ITERS
    assert report.iterations <= 1


# ---------------------------------------------------------------------------
# grid sequencing
# ---------------------------------------------------------------------------


def _eb_case(resolution, m, tau):
    grid = build_grid("sphere", resolution)
    section = build_section(grid, Divisor(((0.0, 0.0), POINT_AT_INFINITY), (m, m)))
    return lambda **kw: solve_eb(grid, section, tau, **kw)


def _torus_case(resolution, alpha=0.035):
    grid = build_grid("torus", resolution)
    section = build_section(grid, Divisor(((0.1, 0.2), (0.6, 0.71)), (1, 1)))
    return lambda **kw: solve_gravitating(grid, section, 6.0, alpha, **kw)


def _loop_grids(monkeypatch):
    """The grid of every Newton loop run from here on."""
    grids, newton_loop = [], solvers._newton_loop
    monkeypatch.setattr(solvers, "_newton_loop",
                        lambda state, config: grids.append(state.spec.grid)
                        or newton_loop(state, config))
    return grids


def _assert_not_sequenced(grids, state):
    """No Newton loop was posed on the half grid: every one ran on the state's grid."""
    assert grids and all(grid is state.spec.grid for grid in grids)


def _cold(monkeypatch, solve):
    """The solve with grid sequencing disabled."""
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_SEQUENCED_RESOLUTION", math.inf)
        grids = _loop_grids(patch)
        state, report = solve()
    _assert_not_sequenced(grids, state)
    return state, report


def _count_newton_steps(monkeypatch):
    steps = []
    step = solvers.newton_step
    monkeypatch.setattr(solvers, "newton_step",
                        lambda *args, **kw: steps.append(1) or step(*args, **kw))
    return steps


@pytest.mark.parametrize("solve,coarse,max_steps", [
    (_eb_case(48, 1, 8.0), 24, 11), (_eb_case(48, 2, 12.0), 24, 11), (_torus_case(64), 32, 6),
    (_torus_case(48), 24, 7)],
    ids=["eb-l48-m1", "eb-l48-m2", "torus-n64-gravitating", "torus-n48-gravitating"])
def test_sequenced_solve_matches_the_cold_solve(monkeypatch, solve, coarse, max_steps):
    cold, cold_report = _cold(monkeypatch, solve)
    steps = _count_newton_steps(monkeypatch)
    grids = _loop_grids(monkeypatch)
    state, report = solve()
    assert grids == [state.spec.grid.half_grid, state.spec.grid]
    assert report.converged and cold_report.converged
    assert report.coarse_resolution == coarse and cold_report.coarse_resolution is None
    assert report.iterations == len(steps) <= max_steps  # Newton steps on both grids
    assert state.spec.grid is cold.spec.grid and state.spec.kind is cold.spec.kind
    assert report.alpha_reached == cold_report.alpha_reached
    assert np.max(np.abs(state.f.values - cold.f.values)) < 1e-10
    assert np.max(np.abs(state.v.values - cold.v.values)) < 1e-10
    assert abs(report.c_prime - cold_report.c_prime) < 1e-10
    assert report.to_dict()["coarse_resolution"] == coarse


def test_the_coarse_stage_starts_at_alpha(monkeypatch):
    grid = build_grid("torus", 64)
    section = build_section(grid, Divisor(((0.1, 0.2), (0.6, 0.71)), (1, 1)))
    starts, newton_loop = [], solvers._newton_loop
    monkeypatch.setattr(solvers, "_newton_loop",
                        lambda state, config: starts.append(state) or newton_loop(state, config))
    _, report = solve_gravitating(grid, section, 6.0, 0.035)
    assert report.converged and report.coarse_resolution == 32
    # one coarse loop at the target coupling, then the fine loop: no anchor, no targets
    coarse, fine = starts
    assert coarse.spec.alpha == fine.spec.alpha == 0.035
    assert coarse.spec.grid is grid.half_grid and fine.spec.grid is grid
    # the coarse loop starts from initial_state of the target posed on the half grid
    start = initial_state(coarse.spec)
    assert coarse.spec.kind is EquationKind.GRAVITATING
    assert np.array_equal(coarse.f.values, start.f.values)
    assert not coarse.v.values.any()


def test_a_failed_coarse_stage_falls_back_along_the_fixed_targets(monkeypatch):
    grid = build_grid("torus", 64)
    section = build_section(grid, Divisor(((0.1, 0.2), (0.6, 0.71)), (1, 1)))
    newton_loop, loops = solvers._newton_loop, []

    def fail_coarse(state, config):
        loops.append(state.spec)
        if state.spec.grid is grid.half_grid:
            return solvers._LoopResult(state, 1, 1.0, FailureReason.MAX_ITERS, "forced")
        return newton_loop(state, config)

    monkeypatch.setattr(solvers, "_newton_loop", fail_coarse)
    _, report = solve_gravitating(grid, section, 6.0, 0.035)
    assert report.converged and report.coarse_resolution is None
    # one failed coarse loop, then the vortex anchor and the four targets on the target grid
    assert [spec.grid is grid for spec in loops] == [False] + [True] * 5
    assert loops[1].kind is EquationKind.VORTEX
    assert [spec.alpha for spec in loops[1:]] == pytest.approx([0.0, 0.00875, 0.0175,
                                                                0.02625, 0.035])
    assert report.alpha_reached == 0.035


def test_continuation_runs_the_anchor_then_four_equal_steps(monkeypatch, torus24,
                                                            torus24_section):
    loops, newton_loop = [], solvers._newton_loop
    monkeypatch.setattr(solvers, "_newton_loop",
                        lambda state, config: loops.append(state.spec) or newton_loop(state, config))
    _, report = solve_gravitating(torus24, torus24_section, 2.5, 0.05)
    assert report.converged and report.alpha_reached == 0.05
    assert loops[0].kind is EquationKind.VORTEX
    assert all(spec.kind is EquationKind.GRAVITATING for spec in loops[1:])
    assert [spec.alpha for spec in loops] == pytest.approx([0.0, 0.0125, 0.025, 0.0375, 0.05])


def test_continuation_stalls_after_the_bisection_budget(monkeypatch, torus24, torus24_section):
    newton_loop, attempts = solvers._newton_loop, []

    def fail_past_the_anchor(state, config):
        if state.spec.kind is EquationKind.VORTEX:
            return newton_loop(state, config)
        attempts.append(state.spec.alpha)
        return solvers._LoopResult(state, 1, 1.0, FailureReason.MAX_ITERS, "forced")

    monkeypatch.setattr(solvers, "_newton_loop", fail_past_the_anchor)
    _, report = solve_gravitating(torus24, torus24_section, 2.5, 0.05)
    assert not report.converged and report.alpha_reached == 0.0
    assert report.message.startswith("continuation stalled at alpha = 0.0")
    # the first target, then each failed attempt bisected until the budget runs out
    assert len(attempts) == solvers._MAX_STEP_HALVINGS + 1 == 11
    assert attempts == pytest.approx([0.0125 / 2**k for k in range(len(attempts))])


def test_sequencing_leaves_the_alpha_zero_anchor_for_warm_starts():
    grid = build_grid("torus", 64)
    section = build_section(grid, Divisor(((0.1, 0.2), (0.6, 0.71)), (1, 1)))
    anchor, report = solve_gravitating(grid, section, 6.0, 0.0)
    assert report.converged and report.coarse_resolution is None
    assert anchor.spec.kind is EquationKind.GRAVITATING and not anchor.v.values.any()
    warm, warm_report = advance_gravitating(anchor, 0.01)
    cold, cold_report = solve_gravitating(grid, section, 6.0, 0.01)
    assert warm_report.converged and cold_report.coarse_resolution == 32
    assert np.max(np.abs(warm.f.values - cold.f.values)) < 1e-9


def test_torus_solves_agree_across_grids_without_a_rescale():
    # the section's C is the same on every grid, so f and c' of one solution compare across
    # grids as they are: c' within 1e-8, f at shared nodes within the n=32 discretization error
    f, c_prime = {}, {}
    for n in (32, 64, 128):
        grid = build_grid("torus", n)
        state, report = solve_gravitating(grid, build_section(grid, Divisor(((0.1, 0.2),), (1,))),
                                          6.0, 0.1)
        assert report.converged
        f[n], c_prime[n] = state.f.values.reshape(n, n), report.c_prime
    assert abs(c_prime[32] - c_prime[64]) <= 1e-8 and abs(c_prime[64] - c_prime[128]) <= 1e-8
    assert np.max(np.abs(f[32] - f[64][::2, ::2])) <= 2e-6
    assert np.max(np.abs(f[64] - f[128][::2, ::2])) <= 2e-11


def test_the_fine_grid_certifies_the_prolonged_coarse_solution(monkeypatch):
    starts = []
    newton_loop = solvers._newton_loop

    def spy(state, config):
        out = newton_loop(state, config)
        starts.append((state, out.iterations))
        return out

    monkeypatch.setattr(solvers, "_newton_loop", spy)
    _, report = _eb_case(48, 1, 8.0)()
    assert report.converged and report.coarse_resolution == 24
    assert all(s.spec.grid.resolution == 24 for s, _ in starts[:-1])
    fine_start, fine_steps = starts[-1]
    assert fine_start.spec.grid.resolution == 48
    # negative: the prolonged coarse solution alone misses the fine stopping test
    _, sup = solvers._NewtonSystem(fine_start.spec, fine_start.f.values,
                                   fine_start.v.values).residual_vector()
    assert sup > SolverConfig().newton_tol and fine_steps >= 1
    assert report.final_residual <= SolverConfig().newton_tol


def _loop_steps(monkeypatch):
    """(grid resolution, Newton steps) of every Newton loop run from here on."""
    loops, newton_loop = [], solvers._newton_loop

    def spy(state, config):
        out = newton_loop(state, config)
        loops.append((state.spec.grid.resolution, out.iterations))
        return out

    monkeypatch.setattr(solvers, "_newton_loop", spy)
    return loops


def test_the_half_grid_solution_certifies_on_the_torus_without_a_fine_step(monkeypatch):
    # the prolonged n = 32 solution already meets newton_tol on n = 64
    loops = _loop_steps(monkeypatch)
    state, report = _torus_case(64)()
    assert report.converged and report.coarse_resolution == 32
    assert loops[0][0] == 32 and loops[1] == (64, 0) and len(loops) == 2
    assert report.iterations == loops[0][1]
    # certified on n = 64: the residual and the identities are those of the n = 64 state
    assert state.spec.grid.resolution == 64
    _, sup = solvers._NewtonSystem(state.spec, state.f.values, state.v.values).residual_vector()
    assert report.final_residual == sup <= SolverConfig().newton_tol
    assert report.identity == equations.identity_report(state)


def test_the_half_grid_start_saves_fine_steps_on_the_sphere(monkeypatch):
    # EB m = 2, tau = 12 at L = 48: at most 2 steps on L = 48 from the prolonged L = 24 solution
    loops = _loop_steps(monkeypatch)
    _, report = _eb_case(48, 2, 12.0)()
    assert report.converged and report.coarse_resolution == 24
    assert [r for r, _ in loops] == [24, 48] and loops[1][1] <= 2


@pytest.mark.parametrize("failing_grid", [24, 48], ids=["coarse", "fine"])
def test_a_failed_stage_gives_exactly_the_cold_report(monkeypatch, failing_grid):
    solve = _eb_case(48, 1, 8.0)
    cold, cold_report = _cold(monkeypatch, solve)
    newton_loop, failed, loops = solvers._newton_loop, [], []

    def fail_once(state, config):
        if state.spec.grid.resolution == failing_grid and not failed:
            failed.append(state)
            out = solvers._LoopResult(state, 1, 1.0, FailureReason.MAX_ITERS, "forced")
        else:
            out = newton_loop(state, config)
        loops.append((state.spec, out.iterations))
        return out

    monkeypatch.setattr(solvers, "_newton_loop", fail_once)
    state, report = solve()
    assert failed and report.coarse_resolution is None
    # the fallback starts at the vortex anchor on the target grid; the steps run before it count
    fallback = next(k for k, (spec, _) in enumerate(loops)
                    if spec.grid.resolution == 48 and spec.kind is EquationKind.VORTEX)
    assert fallback == (1 if failing_grid == 24 else 2)
    sequenced = sum(steps for _, steps in loops[:fallback])
    assert report.iterations == cold_report.iterations + sequenced
    assert report.iterations == sum(steps for _, steps in loops)
    assert replace(report, iterations=cold_report.iterations).to_dict() == cold_report.to_dict()
    assert np.array_equal(state.f.values, cold.f.values)


@pytest.mark.parametrize("solve", [_eb_case(24, 1, 8.0), _torus_case(32)],
                         ids=["eb-l24", "torus-n32"])
def test_small_grids_are_not_sequenced(monkeypatch, solve):
    grids = _loop_grids(monkeypatch)
    state, report = solve()
    _assert_not_sequenced(grids, state)
    assert report.converged and report.coarse_resolution is None


def test_a_failed_existence_gate_is_not_sequenced(monkeypatch):
    grids = _loop_grids(monkeypatch)
    grid = build_grid("sphere", 48)
    section = build_section(grid, Divisor(((0.0, 0.0),), (2,)))
    state, report = solve_eb(grid, section, 8.0, SolverConfig(max_newton_iters=1))
    _assert_not_sequenced(grids, state)
    assert report.message.count("Theorem 3.8: all 2 zeros coincide") == 1
    assert report.coarse_resolution is None


_GATE_POINTS = {"sphere": ((0.0, 0.0), POINT_AT_INFINITY, (1.0, 0.0), (0.5, 0.3)),
                "torus": ((0.1, 0.2), (0.6, 0.7), (0.3, 0.8), (0.85, 0.4))}
_GATE_SHAPES = [(1,), (2,), (1, 1), (2, 1), (3, 1), (1, 1, 1), (2, 2), (2, 1, 1)]


@pytest.mark.parametrize("coupling", ["zero", "small", "eb", "large"])
@pytest.mark.parametrize("model,genus", [("sphere", 0), ("torus", 1)])
def test_existence_gate_fires_exactly_where_the_oracle_says_not_exists(model, genus, coupling):
    grid = build_grid(model, 8)
    fired = 0
    for mults in _GATE_SHAPES:
        section = build_section(grid, Divisor(_GATE_POINTS[model][: len(mults)], mults))
        for tau in (1.5, 2.0, 3.0, 4.0, 5.0, 8.0, 12.0):
            alpha = {"zero": 0.0, "small": 0.01, "large": 1.0,
                     "eb": float(stability.eb_coupling(tau, sum(mults)))}[coupling]
            gate = solvers._existence_gate(section, tau, alpha)
            oracle = stability.existence_oracle(genus, section.divisor, tau, alpha)
            assert (gate is not None) == (oracle.verdict is stability.ExistenceVerdict.NOT_EXISTS)
            fired += gate is not None
    assert 0 < fired < len(_GATE_SHAPES) * 7


def test_unstable_sphere_data_at_positive_coupling_are_not_sequenced(monkeypatch):
    grids = _loop_grids(monkeypatch)
    grid = build_grid("sphere", 48)
    section = build_section(grid, Divisor(((0.0, 0.0), (1.0, 0.0)), (3, 1)))
    monkeypatch.setattr(solvers, "_MAX_STEP_HALVINGS", 0)  # keeps the doomed continuation short
    state, report = solve_gravitating(grid, section, 12.0, 0.01, SolverConfig(max_newton_iters=10))
    _assert_not_sequenced(grids, state)
    assert not report.converged and report.coarse_resolution is None
    assert report.message.count("not polystable (witness point index 0)") == 1


def test_sequenced_eb_prolongs_f_alone(monkeypatch):
    rows, real = [], solvers.prolong
    monkeypatch.setattr(solvers, "prolong",
                        lambda values, *grids: rows.append(values.shape) or real(values, *grids))
    _, report = _eb_case(48, 1, 8.0)()
    assert report.converged and report.coarse_resolution == 24
    assert rows == [(build_grid("sphere", 24).n_nodes,)]  # one row: EB's v is not an unknown
    _, report = _torus_case(64)()
    assert report.converged and rows[1] == (2, build_grid("torus", 32).n_nodes)


def _stage_changes(monkeypatch, solve, target):
    """The ProblemSpec fields each Newton loop of the solve poses differently from ``target``
    (grid and section by identity); each loop's spec must be ``target`` with those replaced."""
    changes, loop = [], solvers._newton_loop

    def spy(state, config):
        spec = state.spec
        changed = {f.name for f in fields(ProblemSpec) if f.init and not (
            getattr(spec, f.name) is getattr(target, f.name)
            or (f.name not in ("grid", "section")
                and getattr(spec, f.name) == getattr(target, f.name)))}
        assert spec == replace(target, **{name: getattr(spec, name) for name in changed})
        changes.append(changed)
        return loop(state, config)

    monkeypatch.setattr(solvers, "_newton_loop", spy)
    _, report = solve()
    assert report.converged
    return changes


def test_every_stage_poses_the_target(monkeypatch):
    # sequenced gravitating: the coarse stage moves the grid, the fine stage nothing
    grid = build_grid("torus", 48)
    section = build_section(grid, Divisor(((0.1, 0.2), (0.6, 0.71)), (1, 1)))
    target = ProblemSpec(grid, section, 6.0, EquationKind.GRAVITATING, 0.035)
    changes = _stage_changes(monkeypatch, lambda: solve_gravitating(grid, section, 6.0, 0.035),
                             target)
    assert changes == [{"grid", "section"}, set()]
    # cold EB: the vortex anchor, then continuation attempts at their alpha
    sphere = build_grid("sphere", 16)
    section = build_section(sphere, Divisor(((0.0, 0.0), POINT_AT_INFINITY), (1, 1)))
    target = ProblemSpec(sphere, section, 8.0, EquationKind.EINSTEIN_BOGOMOLNYI,
                         float(stability.eb_coupling(8.0, 2)))
    changes = _stage_changes(monkeypatch, lambda: solve_eb(sphere, section, 8.0), target)
    assert changes[0] == {"kind", "alpha"}
    assert len(changes) >= 1 + solvers._ALPHA_STEPS
    assert all(changed <= {"alpha"} for changed in changes[1:])
    assert "alpha" not in changes[-1]  # the last attempt is posed at the target coupling


@pytest.mark.parametrize("model,resolution,points,mults,tau,alpha", [
    ("torus", 64, ((0.25, 0.25),), (1,), 2.0, 0.035),
    ("sphere", 48, ((0.0, 0.0), POINT_AT_INFINITY), (1, 1), 4.0, 0.03)],
    ids=["torus-n64", "sphere-l48"])
def test_data_that_fail_the_degree_bound_are_not_sequenced(monkeypatch, model, resolution,
                                                           points, mults, tau, alpha):
    # sequenced through the half grid, these data would certify collapse artefacts
    grid = build_grid(model, resolution)
    section = build_section(grid, Divisor(points, mults))
    assert not stability.bradlow_check(section.divisor.total_degree, tau)

    def solve():
        return solve_gravitating(grid, section, tau, alpha)

    cold, cold_report = _cold(monkeypatch, solve)
    grids = _loop_grids(monkeypatch)
    state, report = solve()
    _assert_not_sequenced(grids, state)
    assert not report.converged and report.failure_reason is FailureReason.NO_SOLUTION
    assert report.coarse_resolution is None and report.message.count("degree bound") == 1
    assert report.to_dict() == cold_report.to_dict()
    assert np.array_equal(state.f.values, cold.f.values)


def test_advance_from_data_that_fail_the_degree_bound_is_no_solution():
    grid = build_grid("torus", 32)
    section = build_section(grid, Divisor(((0.25, 0.25),), (1,)))
    spec = ProblemSpec(grid, section, 2.0, EquationKind.GRAVITATING, 0.0)
    _, report = advance_gravitating(make_state(spec, np.full(grid.n_nodes, -11.5)), 0.035)
    assert report.final_residual <= SolverConfig().newton_tol  # a collapse artefact
    assert not report.converged and report.failure_reason is FailureReason.NO_SOLUTION
    assert report.message.count("degree bound") == 1


def test_warm_started_torus_sweep_to_alpha_0_2_certifies_every_row():
    # every update re-centres v, and W = e^{q0} / mean(e^{q0}) does not see v's constant: a
    # re-centring that moved the field rows once made the line search reject every trial
    # near 0.195
    grid = build_grid("torus", 32)
    section = build_section(grid, Divisor(((0.1, 0.2),), (1,)))
    state, report = solve_gravitating(grid, section, 6.0, 0.0)
    assert report.converged
    for k in range(1, 81):
        state, report = advance_gravitating(state, 0.0025 * k)
        assert report.converged, (0.0025 * k, report.message)
    assert report.alpha_reached == pytest.approx(0.2)


def test_apply_update_recentres_v_as_a_pure_gauge_move(torus32):
    section = build_section(torus32, Divisor(((0.1, 0.2),), (1,)))
    spec = ProblemSpec(torus32, section, 6.0, EquationKind.GRAVITATING, 0.1)
    assert spec.c != 0.0
    n = torus32.n_nodes
    x, y = torus32.node_coords.T
    f = initial_state(spec).f.values + 0.1 * np.cos(2 * math.pi * x)
    v = 0.05 * np.sin(2 * math.pi * y)
    system = solvers._NewtonSystem(spec, f, v)
    rng = np.random.default_rng(7)
    d = np.concatenate([0.1 * rng.standard_normal(n), 0.5 + 0.1 * rng.standard_normal(n)])
    t = 0.5
    trial = system.apply_update(d, t)
    assert abs(mean_value(trial.state.v)) < 1e-14
    # the same rows as the iterate not re-centred, whose derived c' sits c times its mean below
    moved = solvers._NewtonSystem(spec, f + t * d[:n], v + t * d[n:])
    r, _ = trial.residual_vector()
    want = moved.residual_vector()[0]
    assert np.max(np.abs(r - want)) < 1e-13 * np.max(np.abs(want))
    mean = float(np.average(v + t * d[n:], weights=torus32.quad_weights))
    assert trial.c_prime == pytest.approx(moved.c_prime - spec.c * mean, abs=1e-13)


def test_an_iterate_beyond_the_divergence_guard_reports_divergence():
    # c = 2 - 2 alpha tau N = 0 exactly, so v enters no exponent and cannot overflow
    grid = build_grid("sphere", 8)
    section = build_section(grid, Divisor(((0.0, 0.0), POINT_AT_INFINITY), (1, 1)))
    spec = ProblemSpec(grid, section, 8.0, EquationKind.GRAVITATING, 0.0)
    state = make_state(spec, initial_state(spec).f.values, 1e7 * grid._xi_flat)
    _, report = advance_gravitating(state, 1.0 / 16.0)
    assert replace(spec, alpha=1.0 / 16.0).c == 0.0
    assert report.failure_reason is FailureReason.DIVERGENCE and report.iterations == 0
    assert not report.converged and "divergence guard" in report.message


def test_eb_antipodal_at_l192_certifies_against_the_radial_oracle():
    # with the forcing floor above eta_max the fine loop from a prolonged L=48 solution
    # stalled at 2.2e-10, and the cold fallback then failed after 178 steps
    grid = build_grid("sphere", 192)
    section = build_section(grid, Divisor(((0.0, 0.0), POINT_AT_INFINITY), (1, 1)))
    _, report = solve_eb(grid, section, 8.15)
    assert report.converged and report.coarse_resolution == 96
    assert report.iterations <= 30
    radial = solve_eb_radial(8.15, 1, 1, log_scale=section.normalization)
    assert radial.converged
    assert abs(report.c_prime - radial.c_prime) <= 2e-12
