"""End-to-end acceptance checklist.

Each test carries an ``acceptance`` marker; the terminal summary prints one
PASS/FAIL line per criterion.  Tolerances here are contractual — do not
loosen them to make a failing build green.
"""

import math
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from gravortex import (
    Divisor,
    EquationKind,
    POINT_AT_INFINITY,
    ProblemSpec,
    SolverConfig,
    alpha_star,
    build_grid,
    build_section,
    classify_multiplicities,
    direct_gve_residual,
    existence_oracle,
    field,
    identity_report,
    laplacian_apply,
    make_state,
    rescale,
    residual_fields,
    sigma_range,
    solve_eb,
    solve_gravitating,
    solve_vortex,
    topological_constant,
)
from gravortex.radial import solve_eb_radial
from gravortex.solvers import _NewtonSystem

WALL_LIMIT = 10.0  # seconds per individual solve


def _timed_vortex(grid, section, tau, **kwargs):
    start = time.perf_counter()
    state, report = solve_vortex(grid, section, tau, **kwargs)
    elapsed = time.perf_counter() - start
    return state, report, elapsed


# ---------------------------------------------------------------------------
# 1. existence threshold dichotomy on the torus
# ---------------------------------------------------------------------------


@pytest.mark.acceptance(criterion=1, label="vortex existence dichotomy, torus n=64")
def test_vortex_dichotomy_torus_n64():
    grid = build_grid("torus", 64)
    section = build_section(grid, Divisor(((0.25, 0.25),), (1,)))
    for tau in (2.2, 2.5, 4.0):
        state, report, elapsed = _timed_vortex(grid, section, tau)
        assert elapsed <= WALL_LIMIT, f"tau={tau}: solve took {elapsed:.1f}s"
        assert report.converged, f"tau={tau}: {report.message}"
        assert report.final_residual <= 1e-10
        # degree identity: integral of e^{2f} a against the background form
        # equals 2*pi*tau - 4*pi*N
        assert abs(identity_report(state).degree_identity) <= 1e-6
    for tau in (1.8, 2.0):
        _, report, elapsed = _timed_vortex(grid, section, tau)
        assert elapsed <= WALL_LIMIT
        assert not report.converged, f"tau={tau} must sit at or below the degree bound"
        assert report.failure_reason is not None


# ---------------------------------------------------------------------------
# 2. uniqueness under the initial guess
# ---------------------------------------------------------------------------


@pytest.mark.acceptance(criterion=2, label="vortex solution independent of initial guess")
def test_vortex_uniqueness_five_initial_guesses():
    grid = build_grid("torus", 32)
    section = build_section(grid, Divisor(((0.25, 0.25),), (1,)))
    rng = np.random.default_rng(7)
    solutions = []
    for _ in range(5):
        guess = rng.normal(0.0, 0.8, grid.n_nodes)
        state, report = solve_vortex(grid, section, 2.5, initial=guess)
        assert report.converged
        solutions.append(state.f.values)
    worst = max(
        float(np.max(np.abs(a - b))) for a in solutions for b in solutions
    )
    assert worst <= 1e-8


# ---------------------------------------------------------------------------
# 3. Einstein-Bogomol'nyi cross-validation against the radial oracle
# ---------------------------------------------------------------------------


@pytest.mark.acceptance(criterion=3, label="EB solution matches radial oracle, sphere L=48")
def test_eb_cross_validation_sphere_l48():
    grid = build_grid("sphere", 48)
    section = build_section(
        grid, Divisor(((0.0, 0.0), POINT_AT_INFINITY), (1, 1))
    )
    state, report = solve_eb(grid, section, 8.0)
    assert report.converged, report.message

    radial = solve_eb_radial(8.0, 1, 1, log_scale=section.normalization)
    assert radial.converged
    f_radial = radial.interpolate(grid._xi_flat)
    assert np.max(np.abs(state.f.values - f_radial)) <= 1e-4
    assert report.c_prime == pytest.approx(radial.c_prime, abs=1e-6)

    r1, r2 = direct_gve_residual(state)
    assert np.max(np.abs(r1.values)) <= 1e-6
    assert np.max(np.abs(r2.values)) <= 1e-6

    # total curvature of the solved metric: integral of S_omega against omega
    # must equal 4*pi*chi = 8*pi
    assert abs(identity_report(state).gauss_bonnet) <= 1e-4


# ---------------------------------------------------------------------------
# 4. nonexistence: superimposed zeros and unstable divisors
# ---------------------------------------------------------------------------


@pytest.mark.acceptance(criterion=4, label="nonexistence verdicts and solver failure")
def test_nonexistence_superimposed_and_unstable():
    # all zeros at one point: ruled out for every positive coupling
    verdict = existence_oracle(0, (2,), 8, Fraction(1, 16))
    assert verdict.verdict.value == "NotExists"
    assert verdict.theorem_tag == "Theorem 3.8"

    # the solver must fail on the same data (evidence, not proof)
    grid = build_grid("sphere", 24)
    section = build_section(grid, Divisor(((0.0, 0.0),), (2,)))
    _, report = solve_eb(grid, section, 8.0)
    assert not report.converged
    assert report.failure_reason is not None

    # unstable multiplicity split {3, 1}
    verdict = existence_oracle(0, (3, 1), 10, Fraction(1, 100))
    assert verdict.verdict.value == "NotExists"
    assert verdict.theorem_tag == "Theorem 3.6"


# ---------------------------------------------------------------------------
# 5. weak coupling on the torus
# ---------------------------------------------------------------------------


@pytest.mark.acceptance(criterion=5, label="gravitating continuation to alpha=0.05, torus")
def test_weak_coupling_torus():
    grid = build_grid("torus", 32)
    section = build_section(grid, Divisor(((0.25, 0.25),), (1,)))
    state, report = solve_gravitating(grid, section, 2.5, 0.05)
    assert report.converged, report.message
    assert report.alpha_reached == 0.05
    for residual in residual_fields(state):
        assert np.max(np.abs(residual.values)) <= 1e-8
    identity = identity_report(state)
    assert identity.min_density > 0.0
    assert abs(identity.volume_identity) <= 1e-8


# ---------------------------------------------------------------------------
# 6. exact oracles
# ---------------------------------------------------------------------------


def _partitions(n, cap=None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


@pytest.mark.acceptance(criterion=6, label="exact stability, coupling, and slope oracles")
def test_exact_oracles():
    # classification agrees with direct evaluation of the multiplicity
    # conditions for every partition of every degree up to 12
    for n in range(1, 13):
        for mults in _partitions(n):
            verdict = classify_multiplicities(mults).verdict.value
            if all(2 * m < n for m in mults):
                expected = "Stable"
            elif mults == (n // 2, n // 2) and n % 2 == 0:
                expected = "StrictlyPolystable"
            else:
                expected = "Unstable"
            assert verdict == expected, (mults, verdict, expected)

    assert alpha_star(2, 4, 1) == Fraction(1, 4)
    assert alpha_star(3, 6, 2) == Fraction(1, 3)

    for tau, n in ((Fraction(5, 2), 1), (8, 2), (Fraction(17, 3), 4), (12, 5)):
        coupling = 1 / (Fraction(tau) * n)
        assert topological_constant(2, coupling, tau, n) == 0

    # sigma window against the closed-form slopes on a deterministic grid
    cases = 0
    for n1, n2, d1, d2 in product((1, 2, 3), (1, 2, 3), range(0, 7), range(0, 3)):
        mu1, mu2 = Fraction(d1, n1), Fraction(d2, n2)
        if mu1 <= mu2:
            continue
        sigma_m, sigma_M = sigma_range((n1, n2, d1, d2))
        assert sigma_m == mu1 - mu2
        if n1 == n2:
            assert sigma_M == math.inf
        else:
            assert sigma_M == (1 + Fraction(n1 + n2, abs(n1 - n2))) * (mu1 - mu2)
        cases += 1
    assert cases >= 100


# ---------------------------------------------------------------------------
# 7. numerical analysis hygiene
# ---------------------------------------------------------------------------


def _random_band_limited(grid, rng, amplitude=0.3):
    x = grid.node_coords[:, 0]
    y = grid.node_coords[:, 1]
    c = rng.uniform(-1.0, 1.0, size=6)
    if grid.model.value == "torus":
        vals = (
            c[0] * np.cos(2 * math.pi * x) + c[1] * np.sin(2 * math.pi * y)
            + c[2] * np.cos(2 * math.pi * (x + y)) + c[3] * np.sin(4 * math.pi * x)
            + c[4] * np.cos(2 * math.pi * (x - 2 * y)) + c[5]
        )
    else:
        xi = grid._xi_flat
        vals = (
            c[0] * xi + c[1] * (3 * xi**2 - 1) / 2
            + c[2] * (5 * xi**3 - 3 * xi) / 2 + c[5]
        )
    return amplitude * vals


def _mean_zero(grid, values):
    return values - np.average(values, weights=grid.quad_weights)


def _fd_spec(kind):
    if kind in ("eb", "gravitating-sphere"):
        grid = build_grid("sphere", 16)
        section = build_section(
            grid, Divisor(((0.0, 0.0), POINT_AT_INFINITY), (1, 1))
        )
        if kind == "eb":
            return ProblemSpec(grid=grid, section=section, tau=8.0,
                               kind=EquationKind.EINSTEIN_BOGOMOLNYI, alpha=1.0 / 16.0)
        return ProblemSpec(grid=grid, section=section, tau=8.0,
                           kind=EquationKind.GRAVITATING, alpha=0.03)
    grid = build_grid("torus", 24)
    section = build_section(grid, Divisor(((0.25, 0.25),), (1,)))
    if kind == "gravitating":
        return ProblemSpec(grid=grid, section=section, tau=2.5,
                           kind=EquationKind.GRAVITATING, alpha=0.05)
    return ProblemSpec(grid=grid, section=section, tau=2.5, kind=EquationKind.VORTEX)


def _fd_errors(kind, jacobian=lambda system, x: system.matvec(x), trials=20):
    """Relative gaps between central differences of the solver's residual in
    (f, v) and its Jacobian action, one per random direction."""
    eps = 1e-4
    spec = _fd_spec(kind)
    grid = spec.grid
    gravitating = spec.kind is EquationKind.GRAVITATING
    rng = np.random.default_rng(11)
    f0 = _random_band_limited(grid, rng)
    v0 = _mean_zero(grid, _random_band_limited(grid, rng, 0.01)) if gravitating else None
    system = _NewtonSystem(spec, f0, v0)

    errors = []
    for _ in range(trials):
        df = _random_band_limited(grid, rng)
        dv = _mean_zero(grid, _random_band_limited(grid, rng, 0.01)) if gravitating else None

        def residuals(scale):
            v_t = None if dv is None else (v0 + scale * dv)
            return _NewtonSystem(spec, f0 + scale * df, v_t).residual_vector()[0]

        fd = (residuals(eps) - residuals(-eps)) / (2.0 * eps)
        x = df if dv is None else np.concatenate([df, dv])
        assert x.shape == (system.size,)
        lin = jacobian(system, x)
        errors.append(np.max(np.abs(fd - lin)) / (np.max(np.abs(lin)) + 1.0))
    return errors


_FD_KINDS = ["vortex", "gravitating", "gravitating-sphere", "eb"]


@pytest.mark.acceptance(criterion=7, label="linearizations, manufactured solutions, eigenvalues")
@pytest.mark.parametrize("kind", _FD_KINDS)
def test_linearization_fd_twenty_trials(kind):
    assert max(_fd_errors(kind)) < 1e-5


@pytest.mark.parametrize("kind", _FD_KINDS[1:])
def test_linearization_fd_rejects_dropped_c_prime_column(kind):
    # W = e^{q0 + 2c'}, c' = -(1/2) log mean(e^{q0}), varies by W dq0 - W <W dq0>: the rank-one
    # term -W <W dq0> is the c' column times the c' variation; without it the product is the
    # Jacobian at a fixed c'
    def without_rank_one(system, x):
        n, (wa, _, half_pt, wv) = system.n, system._jacobian
        w_dq = wa * x[:n] + (wv * x[n:] if system.has_v else 0.0)
        term = np.average(w_dq, weights=system.grid.quad_weights) * system.w
        out = system.matvec(x)
        out[:n] += half_pt * term
        if system.has_v:
            out[n:] += term
        return out

    # every trial fails the acceptance bound of 1e-5
    assert min(_fd_errors(kind, without_rank_one)) > 1e-5


@pytest.mark.acceptance(criterion=7, label="linearizations, manufactured solutions, eigenvalues")
def test_manufactured_solution_convergence():
    def torus_error(n, steep=5.0):
        grid = build_grid("torus", n)
        x = grid.node_coords[:, 0]
        f = np.exp(steep * np.cos(2 * math.pi * x))
        fxx = f * ((steep * 2 * math.pi * np.sin(2 * math.pi * x)) ** 2
                   - steep * (2 * math.pi) ** 2 * np.cos(2 * math.pi * x))
        exact = -fxx / (2 * math.pi)
        got = laplacian_apply(field(grid, f)).values
        return float(np.max(np.abs(got - exact)))

    def sphere_error(l_max, steep=8.0):
        grid = build_grid("sphere", l_max)
        xi = grid._xi_flat
        f = np.exp(steep * xi)
        exact = -2.0 * ((1 - xi**2) * steep**2 - 2 * xi * steep) * f
        got = laplacian_apply(field(grid, f)).values
        return float(np.max(np.abs(got - exact)))

    t16, t32, t64 = torus_error(16), torus_error(32), torus_error(64)
    assert t16 > 1e-6  # the coarse error is far from the rounding floor
    assert t16 / t32 >= 10.0
    assert t32 / t64 >= 10.0

    s16, s32 = sphere_error(16), sphere_error(32)
    assert s16 > 1e-6
    assert s16 / s32 >= 10.0


@pytest.mark.acceptance(criterion=7, label="linearizations, manufactured solutions, eigenvalues")
def test_laplacian_eigenvalues():
    grid = build_grid("torus", 32)
    x = grid.node_coords[:, 0]
    y = grid.node_coords[:, 1]
    for k, m in ((1, 0), (2, 3), (0, 7), (5, 5)):
        mode = np.cos(2 * math.pi * (k * x + m * y))
        expected = 2 * math.pi * (k**2 + m**2)
        got = laplacian_apply(field(grid, mode)).values
        assert np.max(np.abs(got - expected * mode)) <= 1e-10 * max(expected, 1.0)

    sphere = build_grid("sphere", 24)
    xi = sphere._xi_flat
    legendre = {
        1: xi,
        2: (3 * xi**2 - 1) / 2,
        3: (5 * xi**3 - 3 * xi) / 2,
        4: (35 * xi**4 - 30 * xi**2 + 3) / 8,
        5: (63 * xi**5 - 70 * xi**3 + 15 * xi) / 8,
        6: (231 * xi**6 - 315 * xi**4 + 105 * xi**2 - 5) / 16,
    }
    for degree, mode in legendre.items():
        expected = 2.0 * degree * (degree + 1)
        got = laplacian_apply(field(sphere, mode)).values
        assert np.max(np.abs(got - expected * mode)) <= 1e-10 * expected


# ---------------------------------------------------------------------------
# 8. scale invariance of the normalization
# ---------------------------------------------------------------------------


@pytest.mark.acceptance(criterion=8, label="solutions covariant under section rescaling")
def test_scale_invariance():
    grid = build_grid("torus", 24)
    section = build_section(grid, Divisor(((0.25, 0.25),), (1,)))
    shift = 0.37
    scaled = rescale(section, shift)
    config = SolverConfig(newton_tol=1e-13)

    def check_pair(state_base, state_scaled):
        delta = state_scaled.f.values - state_base.f.values
        assert np.ptp(delta) <= 1e-10          # the shift is a constant ...
        assert abs(delta.mean() + shift) <= 1e-10  # ... equal to -s
        p_base = np.exp(2 * state_base.f.values) * section.norm_sq.values
        p_scaled = np.exp(2 * state_scaled.f.values) * scaled.norm_sq.values
        assert np.max(np.abs(p_scaled - p_base)) <= 1e-10
        assert np.max(np.abs(state_scaled.v.values - state_base.v.values)) <= 1e-10
        id_base = identity_report(state_base)
        id_scaled = identity_report(state_scaled)
        for name in ("degree_identity", "volume_identity", "gauss_bonnet",
                     "min_density"):
            assert abs(getattr(id_scaled, name) - getattr(id_base, name)) <= 1e-10

    state0, report0 = solve_vortex(grid, section, 2.5, config)
    state1, report1 = solve_vortex(grid, scaled, 2.5, config)
    assert report0.converged and report1.converged
    check_pair(state0, state1)

    state0, report0 = solve_gravitating(grid, section, 2.5, 0.05, config)
    state1, report1 = solve_gravitating(grid, scaled, 2.5, 0.05, config)
    assert report0.converged and report1.converged
    check_pair(state0, state1)
    assert report1.c_prime - report0.c_prime == pytest.approx(
        2 * 0.05 * 2.5 * shift, abs=1e-10
    )

    # the genus-0 problem has a dilation modulus, so independent solves may
    # land on different solutions; covariance is checked on the equations:
    # shifting a solution by -s solves the rescaled problem to the same
    # accuracy, and moves the c' it implies by 2*alpha*tau*s.
    sphere = build_grid("sphere", 16)
    eb_section = build_section(
        sphere, Divisor(((0.0, 0.0), POINT_AT_INFINITY), (1, 1))
    )
    eb_state, eb_report = solve_eb(sphere, eb_section, 8.0)
    assert eb_report.converged
    alpha = 1.0 / 16.0
    mapped_spec = ProblemSpec(
        grid=sphere, section=rescale(eb_section, shift), tau=8.0,
        kind=EquationKind.EINSTEIN_BOGOMOLNYI, alpha=alpha,
    )
    mapped = make_state(mapped_spec, eb_state.f.values - shift)
    assert abs(mapped.c_prime - (eb_report.c_prime + 2 * alpha * 8.0 * shift)) <= 1e-10
    for residual in residual_fields(mapped):
        assert np.max(np.abs(residual.values)) <= 1e-10
    id_base = identity_report(eb_state)
    id_mapped = identity_report(mapped)
    for name in ("degree_identity", "volume_identity", "gauss_bonnet",
                 "min_density"):
        assert abs(getattr(id_mapped, name) - getattr(id_base, name)) <= 1e-10
