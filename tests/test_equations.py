"""The residual, the solver's Jacobian, conformal diagnostics, integral identities."""

import math
from dataclasses import replace

import numpy as np
import pytest

from gravortex.equations import (
    EquationKind,
    FieldState,
    ProblemSpec,
    conformal_exponent,
    direct_gve_residual,
    identity_report,
    initial_state,
    make_state,
    metric_density,
    residual_fields,
    scalar_curvature,
)
from gravortex.geometry import (
    POINT_AT_INFINITY,
    _spectral,
    build_grid,
    constant_field,
    field,
    integrate,
    laplacian_apply,
    smoothing_invert,
)
from gravortex.sections import Divisor, SectionData, build_section, rescale
from gravortex.solvers import _NewtonSystem

TWO_PI = 2.0 * math.pi


def _constant_section(grid, value=1.0, degree=1):
    """Synthetic section with constant |phi|^2 for operator-level tests."""
    divisor = Divisor(points=((0.125, 0.375),), multiplicities=(degree,))
    ones = np.full(grid.node_coords.shape[0], value)
    from gravortex.geometry import ScalarField

    return SectionData(
        divisor=divisor,
        grid=grid,
        norm_sq=ScalarField(grid, ones),
        normalization=0.0,
    )


def _smooth(grid, seed, amplitude=0.3):
    x = grid.node_coords[:, 0]
    y = grid.node_coords[:, 1]
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, size=4)
    if grid.model.value == "torus":
        vals = (
            c[0] * np.cos(2 * math.pi * x) + c[1] * np.sin(2 * math.pi * y)
            + c[2] * np.cos(2 * math.pi * (x + y)) + c[3]
        )
    else:
        xi = grid._xi_flat
        vals = c[0] * xi + c[1] * (3 * xi**2 - 1) / 2 + c[3]
    return amplitude * vals


def _mean_zero(grid, values):
    return values - np.average(values, weights=grid.quad_weights)


def _derived_c_prime(grid, q0):
    """The volume gauge c' = -(1/2) log mean(e^{q0}), q0 the exponent of W at c' = 0."""
    return -0.5 * math.log(float(np.dot(grid.quad_weights, np.exp(q0))) / TWO_PI)


def test_problem_spec_validation(torus24, torus24_section, sphere16, antipodal_section16):
    with pytest.raises(ValueError):
        ProblemSpec(grid=torus24, section=torus24_section, tau=-1.0, kind=EquationKind.VORTEX)
    with pytest.raises(ValueError):
        ProblemSpec(grid=torus24, section=torus24_section, tau=2.5,
                    kind=EquationKind.VORTEX, alpha=0.1)
    with pytest.raises(ValueError):  # EB lives on the sphere
        ProblemSpec(grid=torus24, section=torus24_section, tau=2.5,
                    kind=EquationKind.EINSTEIN_BOGOMOLNYI, alpha=0.1)
    with pytest.raises(TypeError):  # c is derived from chi, alpha, tau and N
        ProblemSpec(grid=torus24, section=torus24_section, tau=2.5,
                    kind=EquationKind.GRAVITATING, alpha=0.1, c=1.0)
    with pytest.raises(TypeError):  # c' is derived from the state (FieldState.c_prime)
        ProblemSpec(grid=torus24, section=torus24_section, tau=2.5,
                    kind=EquationKind.GRAVITATING, alpha=0.1, c_prime=0.0)
    spec = ProblemSpec(grid=torus24, section=torus24_section, tau=2.5,
                       kind=EquationKind.GRAVITATING, alpha=0.1)
    assert spec.degree == 1
    assert spec.c == 0 - 2 * 0.1 * 2.5 * 1
    assert replace(spec, alpha=0.2).c == 0 - 2 * 0.2 * 2.5 * 1
    vortex = ProblemSpec(grid=torus24, section=torus24_section, tau=2.5,
                         kind=EquationKind.VORTEX)
    assert vortex.c == 0.0
    assert replace(vortex, kind=EquationKind.GRAVITATING).c == 0.0  # chi = 0 on the torus
    eb = ProblemSpec(grid=sphere16, section=antipodal_section16, tau=8.0,
                     kind=EquationKind.EINSTEIN_BOGOMOLNYI, alpha=1.0 / 16.0)
    assert eb.c == 0.0
    assert replace(eb, kind=EquationKind.GRAVITATING).c == 2 - 2.0 * (1.0 / 16.0) * 8.0 * 2


@pytest.mark.parametrize("name, value", [
    ("tau", math.inf), ("tau", math.nan), ("alpha", math.nan), ("alpha", math.inf),
])
def test_problem_spec_rejects_non_finite(torus24, torus24_section, name, value):
    data = dict(grid=torus24, section=torus24_section, tau=2.5,
                kind=EquationKind.GRAVITATING, alpha=0.1)
    data[name] = value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ProblemSpec(**data)


def test_field_state_validation(torus24, torus24_section):
    spec = ProblemSpec(grid=torus24, section=torus24_section, tau=2.5,
                       kind=EquationKind.VORTEX)
    n = torus24.node_coords.shape[0]
    with pytest.raises(ValueError):  # vortex carries no metric potential
        make_state(spec, np.zeros(n), np.ones(n))
    gspec = ProblemSpec(grid=torus24, section=torus24_section, tau=2.5,
                        kind=EquationKind.GRAVITATING, alpha=0.0)
    with pytest.raises(ValueError):  # v must be mean-zero
        make_state(gspec, np.zeros(n), np.ones(n))
    state = make_state(gspec, np.zeros(n), _mean_zero(torus24, _smooth(torus24, 1, 0.01)))
    assert state.spec is gspec


def test_initial_state_density_scale(torus24, torus24_section):
    # above the degree bound the constant start has mean(P) = tau - 2N
    spec = ProblemSpec(grid=torus24, section=torus24_section, tau=2.5,
                       kind=EquationKind.VORTEX)
    state = initial_state(spec)
    p = np.exp(2.0 * state.f.values) * torus24_section.norm_sq.values
    assert integrate(field(torus24, p)) / TWO_PI == pytest.approx(2.5 - 2.0, rel=1e-12)
    # at or below it no constant solves the degree identity: e^{2f} max(a) = tau/2
    for tau in (2.0, 1.85):
        state = initial_state(replace(spec, tau=tau))
        p = np.exp(2.0 * state.f.values) * torus24_section.norm_sq.values
        assert float(np.max(p)) == pytest.approx(tau / 2.0, rel=1e-12)


def _start_specs(torus24, torus24_section, sphere16, antipodal_section16):
    """A vortex, a gravitating and (on the sphere) an EB problem on each surface."""
    specs = []
    for grid, section, tau, alpha in ((torus24, torus24_section, 2.5, 0.03),
                                      (sphere16, antipodal_section16, 8.0, 1.0 / 16.0)):
        specs.append(ProblemSpec(grid, section, tau, EquationKind.VORTEX))
        specs.append(ProblemSpec(grid, section, tau, EquationKind.GRAVITATING, alpha))
    specs.append(ProblemSpec(sphere16, antipodal_section16, 8.0, EquationKind.EINSTEIN_BOGOMOLNYI,
                             1.0 / 16.0))
    return specs


def test_initial_state_meets_both_scalar_constraints(torus24, torus24_section, sphere16,
                                                     antipodal_section16):
    # the degree identity of the vortex equation, mean(P) = tau - 2N, on the spec as posed;
    # for EB and gravitating kinds the mean-field W meets the volume constraint, mean(W) = 1,
    # in the solver and in the identities of the state it returns
    for spec in _start_specs(torus24, torus24_section, sphere16, antipodal_section16):
        state = initial_state(spec)
        assert state.spec is spec
        assert not state.v.values.any() and np.ptp(state.f.values) == 0.0
        p = np.exp(2.0 * state.f.values) * spec.section.norm_sq.values
        assert abs(integrate(field(spec.grid, p)) / TWO_PI - (spec.tau - 2 * spec.degree)) < 1e-12
        system = _NewtonSystem(spec, state.f.values, state.v.values)
        assert abs(integrate(field(spec.grid, system.w)) / TWO_PI - 1.0) < 1e-15
        rep = identity_report(system.state)
        assert abs(rep.volume_identity) < 1e-12
        assert system.state.spec is spec and system.state.c_prime == system.c_prime
        if spec.kind is EquationKind.VORTEX:
            assert system.c_prime == 0.0 and abs(rep.degree_identity) < 1e-12
        else:
            assert system.c_prime != 0.0


def _random_band_limited(grid, rng, amplitude):
    """Random values on the five lowest Laplacian eigenvalues, scaled to sup ``amplitude``."""
    low = (grid._eigs <= np.unique(grid._eigs)[4]).astype(float)
    values = _spectral(grid, rng.standard_normal(grid.n_nodes), low)
    return amplitude * values / np.max(np.abs(values))


@pytest.mark.parametrize("model,kind", [("sphere", "eb"), ("sphere", "gravitating"),
                                        ("torus", "gravitating")])
def test_one_w_serves_the_residual_the_solver_and_the_identities(
        model, kind, torus24, torus24_section, sphere16, antipodal_section16):
    # W and c' are formed in _nonlinearity alone: at any iterate the public residual, the
    # Newton system's residual and the volume identity read the same W, bit for bit
    grid, section, tau = ((sphere16, antipodal_section16, 8.0) if model == "sphere"
                          else (torus24, torus24_section, 2.5))
    alpha = 1.0 / 16.0 if kind == "eb" else 0.03
    spec = ProblemSpec(grid, section, tau, EquationKind(kind), alpha)
    rng = np.random.default_rng(4242)
    for _ in range(3):
        f = _random_band_limited(grid, rng, 0.5) + rng.uniform(-0.5, 0.5)
        v = _mean_zero(grid, _random_band_limited(grid, rng, 0.01)) if kind != "eb" else None
        state, system = make_state(spec, f, v), _NewtonSystem(spec, f, v)
        rows = np.concatenate([r.values for r in residual_fields(state)])
        assert np.array_equal(rows, system.residual_vector()[0])
        assert state.c_prime == system.c_prime != 0.0
        want = float(np.dot(grid.quad_weights, system.w)) - TWO_PI
        assert identity_report(state).volume_identity == want


def test_initial_state_is_covariant_under_rescale(torus24, torus24_section, sphere16,
                                                  antipodal_section16):
    # a -> e^{2s} a sends the start's f to f - s and its derived c' to c' + 2 alpha tau s
    shift = 0.37
    for spec in _start_specs(torus24, torus24_section, sphere16, antipodal_section16):
        state = initial_state(spec)
        scaled = initial_state(replace(spec, section=rescale(spec.section, shift)))
        assert np.max(np.abs(scaled.f.values - (state.f.values - shift))) < 1e-12
        assert abs(scaled.c_prime - (state.c_prime + 2.0 * spec.alpha * spec.tau * shift)) < 1e-12


def test_vortex_residual_formula(torus24, torus24_section):
    spec = ProblemSpec(grid=torus24, section=torus24_section, tau=2.5,
                       kind=EquationKind.VORTEX)
    f_vals = _smooth(torus24, 2)
    state = make_state(spec, f_vals)
    (r,) = residual_fields(state)
    p = np.exp(2.0 * f_vals) * torus24_section.norm_sq.values
    expected = laplacian_apply(state.f).values + 0.5 * (p - 2.5) + 1
    assert np.max(np.abs(r.values - expected)) < 1e-12


def test_direct_residual_reduces_to_vortex_at_alpha_zero(torus24, torus24_section,
                                                         sphere16, antipodal_section16):
    for grid, section, tau in (
        (torus24, torus24_section, 2.5),
        (sphere16, antipodal_section16, 8.0),
    ):
        gspec = ProblemSpec(grid=grid, section=section, tau=tau,
                            kind=EquationKind.GRAVITATING, alpha=0.0)
        f_vals = _smooth(grid, 3)
        zeros = np.zeros_like(f_vals)
        state = make_state(gspec, f_vals, zeros)
        r1, r2 = direct_gve_residual(state)
        vspec = ProblemSpec(grid=grid, section=section, tau=tau, kind=EquationKind.VORTEX)
        (rv,) = residual_fields(make_state(vspec, f_vals))
        assert np.max(np.abs(r1.values - rv.values)) < 1e-10
        # at u = 0 the curvature equation reads S0/2 - chi = 0 on both models
        assert np.max(np.abs(r2.values)) < 1e-10


@pytest.mark.parametrize("kind", ["vortex", "gravitating", "gravitating-sphere", "eb"])
def test_linearization_matches_finite_differences(kind, torus24, torus24_section,
                                                  sphere16, antipodal_section16):
    # the solver's Jacobian in (f, v), the mean-field W's rank-one term included, against
    # central differences of its residual vector, along smooth deterministic directions
    eps = 1e-4
    if kind == "eb":
        grid, section = sphere16, antipodal_section16
        spec = ProblemSpec(grid=grid, section=section, tau=8.0,
                           kind=EquationKind.EINSTEIN_BOGOMOLNYI, alpha=1.0 / 16.0)
    elif kind == "gravitating-sphere":
        grid, section = sphere16, antipodal_section16
        spec = ProblemSpec(grid=grid, section=section, tau=8.0,
                           kind=EquationKind.GRAVITATING, alpha=0.03)
    elif kind == "gravitating":
        grid, section = torus24, torus24_section
        spec = ProblemSpec(grid=grid, section=section, tau=2.5,
                           kind=EquationKind.GRAVITATING, alpha=0.05)
    else:
        grid, section = torus24, torus24_section
        spec = ProblemSpec(grid=grid, section=section, tau=2.5, kind=EquationKind.VORTEX)
    gravitating = spec.kind is EquationKind.GRAVITATING

    f0 = _smooth(grid, 4)
    v0 = _mean_zero(grid, _smooth(grid, 5, 0.01)) if gravitating else None
    system = _NewtonSystem(spec, f0, v0)

    for trial in range(3):
        df = _smooth(grid, 10 + trial)
        dv = _mean_zero(grid, _smooth(grid, 20 + trial, 0.01)) if gravitating else None

        def residuals(scale):
            v_t = None if dv is None else (v0 + scale * dv)
            return _NewtonSystem(spec, f0 + scale * df, v_t).residual_vector()[0]

        fd = (residuals(eps) - residuals(-eps)) / (2.0 * eps)
        lin = system.matvec(df if dv is None else np.concatenate([df, dv]))
        scale = np.max(np.abs(lin)) + 1.0
        assert np.max(np.abs(fd - lin)) / scale < 1e-5


# (kind, model, n, tau, alpha): every kind on both surfaces, odd and even grids
_SYMMETRY_CASES = [
    ("vortex", "torus", 9, 2.5, 0.0), ("vortex", "sphere", 8, 8.0, 0.0),
    ("eb", "sphere", 9, 8.0, 1.0 / 16.0), ("eb", "sphere", 12, 8.0, 1.0 / 16.0),
    ("gravitating", "torus", 8, 2.5, 0.05), ("gravitating", "torus", 12, 2.5, 0.05),
    ("gravitating", "sphere", 11, 8.0, 0.03),
]


@pytest.mark.parametrize("kind,model,n,tau,alpha", _SYMMETRY_CASES,
                         ids=[f"{k}-{m}{n}" for k, m, n, _, _ in _SYMMETRY_CASES])
def test_weighted_jacobian_is_symmetric(kind, model, n, tau, alpha):
    # the equations are a gradient: w S J is symmetric, w the quadrature weights and
    # S = diag(I, c/(4 alpha) I) for the gravitating (f, v) blocks, I otherwise.  Being exact to
    # roundoff, this sees a one-sided error in the Jacobian far below the FD checks' 1e-5
    grid = build_grid(model, n)
    points = ((0.0, 0.0), POINT_AT_INFINITY) if model == "sphere" else ((0.13, 0.29),)
    section = build_section(grid, Divisor(points=points, multiplicities=(1,) * len(points)))
    spec = ProblemSpec(grid=grid, section=section, tau=tau, kind=EquationKind(kind), alpha=alpha)
    rng = np.random.default_rng(n)

    def band_limited(amplitude):  # a random field through the spectral smoother
        values = smoothing_invert(rng.standard_normal(grid.n_nodes), grid, 1.0)
        return amplitude * values / np.max(np.abs(values))

    gravitating = spec.kind is EquationKind.GRAVITATING
    system = _NewtonSystem(spec, band_limited(0.3), _mean_zero(grid, band_limited(0.1))
                           if gravitating else None)
    jac = np.stack([system.matvec(e) for e in np.eye(system.size)], axis=1)
    scale = [1.0] + ([spec.c / (4.0 * alpha)] if gravitating else [])
    weighted = np.concatenate([s * grid.quad_weights for s in scale])[:, None] * jac
    assert np.linalg.norm(weighted - weighted.T) <= 1e-13 * np.linalg.norm(weighted)


def test_linearized_operator_eigenvalues(torus24):
    # constant section and constant f make the vortex Jacobian Delta + p
    tau = 3.0
    section = _constant_section(torus24, value=1.0)
    spec = ProblemSpec(grid=torus24, section=section, tau=tau, kind=EquationKind.VORTEX)
    f0 = np.full(torus24.node_coords.shape[0], 0.5 * math.log(tau / 2.0))
    system = _NewtonSystem(spec, f0)
    assert system.size == torus24.n_nodes
    x = torus24.node_coords[:, 0]
    y = torus24.node_coords[:, 1]
    for k, m in [(1, 0), (2, 1)]:
        mode = np.cos(2 * math.pi * k * x) * np.cos(2 * math.pi * m * y)
        out = system.matvec(mode)
        lam = TWO_PI * (k * k + m * m) + tau / 2.0
        assert np.max(np.abs(out - lam * mode)) < 1e-10


def test_scalar_curvature_gauss_bonnet(torus24, sphere16):
    for grid in (torus24, sphere16):
        u_vals = _smooth(grid, 6, 0.1)
        u = field(grid, u_vals)
        s = scalar_curvature(grid, u)
        total = integrate(field(grid, s.values * np.exp(2.0 * u_vals)))
        assert total == pytest.approx(4.0 * math.pi * grid.euler_characteristic, abs=1e-8)


def test_metric_density_mean_preserved(torus24, torus24_section):
    spec = ProblemSpec(grid=torus24, section=torus24_section, tau=2.5,
                       kind=EquationKind.GRAVITATING, alpha=0.0)
    x = torus24.node_coords[:, 0]
    state = make_state(spec, np.zeros(torus24.n_nodes), 0.01 * np.cos(2 * math.pi * x))
    w = metric_density(state)
    assert integrate(w) == pytest.approx(TWO_PI, rel=1e-12)
    assert np.min(w.values) > 0


def test_conformal_exponent_and_density(torus24, torus24_section):
    gspec = ProblemSpec(grid=torus24, section=torus24_section, tau=2.5,
                        kind=EquationKind.GRAVITATING, alpha=0.0)
    n = torus24.node_coords.shape[0]
    v = _mean_zero(torus24, _smooth(torus24, 7, 0.005))
    state = make_state(gspec, np.zeros(n), v)
    dens = metric_density(state)
    assert np.max(np.abs(dens.values - (1.0 - laplacian_apply(state.v).values))) < 1e-12
    u = conformal_exponent(state)
    assert np.max(np.abs(np.exp(2.0 * u.values) - dens.values)) < 1e-12
    # a wild v makes the density cross zero; the exponent must refuse
    big = make_state(gspec, np.zeros(n), _mean_zero(torus24, _smooth(torus24, 8, 5.0)))
    with pytest.raises(ValueError):
        conformal_exponent(big)


def test_exponent_overflow_flag(sphere16, antipodal_section16):
    spec = ProblemSpec(grid=sphere16, section=antipodal_section16, tau=8.0,
                       kind=EquationKind.EINSTEIN_BOGOMOLNYI, alpha=1.0 / 16.0)
    n = sphere16.node_coords.shape[0]
    assert not _NewtonSystem(spec, np.zeros(n)).overflow
    assert _NewtonSystem(spec, np.full(n, 400.0)).overflow


def test_identity_report_matches_manual_integrals(torus24, torus24_section):
    gspec = ProblemSpec(grid=torus24, section=torus24_section, tau=2.5,
                        kind=EquationKind.GRAVITATING, alpha=0.05)
    f_vals = _smooth(torus24, 9)
    v_vals = _mean_zero(torus24, _smooth(torus24, 10, 0.01))
    state = make_state(gspec, f_vals, v_vals)
    rep = identity_report(state)
    w = torus24.quad_weights
    p = np.exp(2.0 * f_vals) * torus24_section.norm_sq.values
    q0 = 4 * 0.05 * 2.5 * f_vals - 2 * 0.05 * p - 2 * gspec.c * v_vals
    c_prime = _derived_c_prime(torus24, q0)
    assert state.c_prime == pytest.approx(c_prime, abs=1e-14)
    e = np.exp(q0 + 2 * c_prime)
    assert rep.degree_identity == pytest.approx(
        float(np.dot(w, p * e)) - (TWO_PI * 2.5 - 4.0 * math.pi * 1), rel=1e-12
    )
    # W's mean is 1 by construction: the volume identity is roundoff
    assert abs(rep.volume_identity) < 1e-12
    assert rep.volume_identity == pytest.approx(float(np.dot(w, e)) - TWO_PI, abs=1e-12)
    assert rep.min_density == pytest.approx(
        float(np.min(1.0 - laplacian_apply(state.v).values)), rel=1e-12
    )
    assert rep.to_dict()["degree_identity"] == rep.degree_identity


def test_eb_residual_formula(sphere16, antipodal_section16):
    alpha = 1.0 / 16.0
    spec = ProblemSpec(grid=sphere16, section=antipodal_section16, tau=8.0,
                       kind=EquationKind.EINSTEIN_BOGOMOLNYI, alpha=alpha)
    f_vals = _smooth(sphere16, 11)
    state = make_state(spec, f_vals)
    p = np.exp(2.0 * f_vals) * antipodal_section16.norm_sq.values
    q0 = 4 * alpha * 8.0 * f_vals - 2 * alpha * p
    e2u = np.exp(q0 + 2 * _derived_c_prime(sphere16, q0))
    expected = laplacian_apply(state.f).values + 0.5 * e2u * (p - 8.0) + 2
    (r,) = residual_fields(state)
    assert np.max(np.abs(r.values - expected)) < 1e-11


def test_gravitating_residual_pair(torus24, torus24_section):
    alpha = 0.05
    gspec = ProblemSpec(grid=torus24, section=torus24_section, tau=2.5,
                        kind=EquationKind.GRAVITATING, alpha=alpha)
    f_vals = _smooth(torus24, 12)
    v_vals = _mean_zero(torus24, _smooth(torus24, 13, 0.01))
    state = make_state(gspec, f_vals, v_vals)
    r1, r2 = residual_fields(state)
    p = np.exp(2.0 * f_vals) * torus24_section.norm_sq.values
    q0 = 4 * alpha * 2.5 * f_vals - 2 * alpha * p - 2 * gspec.c * v_vals
    w = np.exp(q0 + 2 * _derived_c_prime(torus24, q0))
    assert np.max(np.abs(r1.values - (laplacian_apply(state.f).values
                                      + 0.5 * (p - 2.5) * w + 1))) < 1e-11
    assert np.max(np.abs(r2.values - (laplacian_apply(state.v).values + w - 1.0))) < 1e-11


def test_specs_and_states_reject_foreign_grids_and_bad_couplings(
        torus24, torus24_section, sphere16, antipodal_section16):
    other = build_grid("torus", 16)
    with pytest.raises(ValueError, match="different grid"):
        ProblemSpec(grid=other, section=torus24_section, tau=2.5, kind=EquationKind.VORTEX)
    for alpha in (0.0, -0.1):
        with pytest.raises(ValueError, match="need alpha > 0"):
            ProblemSpec(grid=sphere16, section=antipodal_section16, tau=8.0,
                        kind=EquationKind.EINSTEIN_BOGOMOLNYI, alpha=alpha)
    with pytest.raises(ValueError, match="need alpha >= 0"):
        ProblemSpec(grid=torus24, section=torus24_section, tau=2.5,
                    kind=EquationKind.GRAVITATING, alpha=-0.1)
    spec = ProblemSpec(grid=torus24, section=torus24_section, tau=2.5,
                       kind=EquationKind.VORTEX)
    with pytest.raises(ValueError, match="problem grid"):
        FieldState(constant_field(other, 0.0), constant_field(torus24, 0.0), spec)
    with pytest.raises(ValueError, match="given grid"):
        scalar_curvature(torus24, constant_field(other, 0.0))


def test_direct_gve_residual_needs_a_metric(torus24, torus24_section):
    n = torus24.n_nodes
    vortex = initial_state(ProblemSpec(grid=torus24, section=torus24_section, tau=2.5,
                                       kind=EquationKind.VORTEX))
    with pytest.raises(ValueError, match="gravitating/EB"):
        direct_gve_residual(vortex)
    gspec = ProblemSpec(grid=torus24, section=torus24_section, tau=2.5,
                        kind=EquationKind.GRAVITATING, alpha=0.01)
    wild = make_state(gspec, np.zeros(n), _mean_zero(torus24, _smooth(torus24, 8, 5.0)))
    assert np.min(metric_density(wild).values) <= 0.0
    with pytest.raises(ValueError, match="not positive"):
        direct_gve_residual(wild)


@pytest.mark.parametrize("model,resolution", [("sphere", 48), ("torus", 32)])
def test_direct_gve_residual_is_its_formula_bit_for_bit(model, resolution):
    # one Laplacian call on the (f, u, P) stack gives each row's own call exactly
    grid = build_grid(model, resolution)
    points = ((0.0, 0.0), POINT_AT_INFINITY) if model == "sphere" else ((0.1, 0.2), (0.6, 0.7))
    section = build_section(grid, Divisor(points, (1, 1)))
    spec = ProblemSpec(grid=grid, section=section, tau=8.0, kind=EquationKind.GRAVITATING,
                       alpha=0.03)
    state = make_state(spec, _smooth(grid, 3), _mean_zero(grid, _smooth(grid, 4, 0.01)))
    s, f, v = spec, state.f, state.v
    p = np.exp(2.0 * f.values) * section.norm_sq.values
    two_u = np.log(1.0 - laplacian_apply(v).values)
    inv = np.exp(-two_u)
    lap_u = laplacian_apply(field(grid, 0.5 * two_u)).values
    lap_p = laplacian_apply(field(grid, p)).values
    r1 = inv * (s.degree + laplacian_apply(f).values) + 0.5 * (p - s.tau)
    r2 = (inv * (0.5 * grid.base_scalar_curvature + lap_u)
          + s.alpha * (inv * lap_p + s.tau * (p - s.tau)) - s.c)
    got = direct_gve_residual(state)
    assert np.array_equal(got[0].values, r1) and np.array_equal(got[1].values, r2)


@pytest.mark.parametrize("points", [((0.0, 0.0), POINT_AT_INFINITY), ((0.0, 0.0), (1.0, 0.5))],
                         ids=["antipodal", "non-antipodal"])
def test_eb_direct_gve_residual_reads_delta_u_off_f_and_p(sphere24, points):
    # EB's 2u = 4 alpha tau f - 2 alpha P + 2c' is affine in (f, P): two Laplacians give the
    # curvature row that the three-row form, with Delta u transformed itself, gives, up to
    # the Laplacian's roundoff, eps 2L(L+1) |u| (3e-12 at L = 48)
    grid = sphere24
    section = build_section(grid, Divisor(points, (1, 1)))
    spec = ProblemSpec(grid=grid, section=section, tau=8.0,
                       kind=EquationKind.EINSTEIN_BOGOMOLNYI, alpha=1.0 / 16.0)
    state = make_state(spec, _smooth(grid, 3))
    s, f = spec, state.f.values
    p = np.exp(2.0 * f) * section.norm_sq.values
    two_u = 4.0 * s.alpha * s.tau * f - 2.0 * s.alpha * p
    two_u += 2.0 * _derived_c_prime(grid, two_u)
    inv = np.exp(-two_u)
    lap_f, lap_u, lap_p = (laplacian_apply(field(grid, x)).values for x in (f, 0.5 * two_u, p))
    r1 = inv * (s.degree + lap_f) + 0.5 * (p - s.tau)
    r2 = (inv * (0.5 * grid.base_scalar_curvature + lap_u)
          + s.alpha * (inv * lap_p + s.tau * (p - s.tau)))
    got = direct_gve_residual(state)
    assert np.max(np.abs(got[0].values - r1)) < 1e-12
    assert np.max(np.abs(got[1].values - r2)) < 1e-12
