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
from gravortex.geometry import field, integrate, laplacian_apply
from gravortex.sections import Divisor, SectionData
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
    ("c_prime", math.nan), ("c_prime", math.inf), ("c_prime", -math.inf),
])
def test_problem_spec_rejects_non_finite(torus24, torus24_section, name, value):
    data = dict(grid=torus24, section=torus24_section, tau=2.5,
                kind=EquationKind.GRAVITATING, alpha=0.1, c_prime=0.0)
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
    spec = ProblemSpec(grid=torus24, section=torus24_section, tau=2.5,
                       kind=EquationKind.VORTEX)
    state = initial_state(spec)
    p = np.exp(2.0 * state.f.values) * torus24_section.norm_sq.values
    assert float(np.max(p)) == pytest.approx(2.5 / 2.0, rel=1e-12)


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


@pytest.mark.parametrize("kind", ["vortex", "gravitating", "eb"])
def test_linearization_matches_finite_differences(kind, torus24, torus24_section,
                                                  sphere16, antipodal_section16):
    # the solver's bordered Jacobian in (f, v, c') against central differences
    # of its residual vector, along smooth deterministic directions
    eps = 1e-4
    if kind == "eb":
        grid, section = sphere16, antipodal_section16
        tau, alpha = 8.0, 1.0 / 16.0
        spec = ProblemSpec(grid=grid, section=section, tau=tau,
                           kind=EquationKind.EINSTEIN_BOGOMOLNYI, alpha=alpha,
                           c_prime=-0.4)
    elif kind == "gravitating":
        grid, section = torus24, torus24_section
        tau, alpha = 2.5, 0.05
        spec = ProblemSpec(grid=grid, section=section, tau=tau,
                           kind=EquationKind.GRAVITATING, alpha=alpha, c_prime=0.1)
    else:
        grid, section = torus24, torus24_section
        spec = ProblemSpec(grid=grid, section=section, tau=2.5, kind=EquationKind.VORTEX)

    f0 = _smooth(grid, 4)
    v0 = _mean_zero(grid, _smooth(grid, 5, 0.01)) if kind == "gravitating" else None
    system = _NewtonSystem(spec, f0, v0)

    for trial in range(3):
        df = _smooth(grid, 10 + trial)
        dv = _mean_zero(grid, _smooth(grid, 20 + trial, 0.01)) if kind == "gravitating" else None
        dc = 0.0 if kind == "vortex" else 0.3 - 0.2 * trial

        def residuals(scale):
            f_t = f0 + scale * df
            v_t = None if dv is None else (v0 + scale * dv)
            spec_t = replace(spec, c_prime=spec.c_prime + scale * dc)
            return _NewtonSystem(spec_t, f_t, v_t).residual_vector()[0]

        fd = (residuals(eps) - residuals(-eps)) / (2.0 * eps)
        blocks = [df] if dv is None else [df, dv]
        if kind != "vortex":
            blocks.append([dc])
        lin = system.matvec(np.concatenate(blocks))
        scale = np.max(np.abs(lin)) + 1.0
        assert np.max(np.abs(fd - lin)) / scale < 1e-5


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
                        kind=EquationKind.GRAVITATING, alpha=0.05, c_prime=0.02)
    f_vals = _smooth(torus24, 9)
    v_vals = _mean_zero(torus24, _smooth(torus24, 10, 0.01))
    state = make_state(gspec, f_vals, v_vals)
    rep = identity_report(state)
    w = torus24.quad_weights
    p = np.exp(2.0 * f_vals) * torus24_section.norm_sq.values
    e = np.exp(4 * 0.05 * 2.5 * f_vals - 2 * 0.05 * p - 2 * gspec.c * v_vals + 2 * 0.02)
    assert rep.degree_identity == pytest.approx(
        float(np.dot(w, p * e)) - (TWO_PI * 2.5 - 4.0 * math.pi * 1), rel=1e-12
    )
    assert rep.volume_identity == pytest.approx(float(np.dot(w, e)) - TWO_PI, rel=1e-12)
    assert rep.min_density == pytest.approx(
        float(np.min(1.0 - laplacian_apply(state.v).values)), rel=1e-12
    )
    assert rep.to_dict()["degree_identity"] == rep.degree_identity


def test_eb_residual_formula(sphere16, antipodal_section16):
    alpha = 1.0 / 16.0
    spec = ProblemSpec(grid=sphere16, section=antipodal_section16, tau=8.0,
                       kind=EquationKind.EINSTEIN_BOGOMOLNYI, alpha=alpha, c_prime=-0.5)
    f_vals = _smooth(sphere16, 11)
    state = make_state(spec, f_vals)
    p = np.exp(2.0 * f_vals) * antipodal_section16.norm_sq.values
    e2u = np.exp(4 * alpha * 8.0 * f_vals - 2 * alpha * p + 2 * -0.5)
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
    w = np.exp(4 * alpha * 2.5 * f_vals - 2 * alpha * p - 2 * gspec.c * v_vals)
    assert np.max(np.abs(r1.values - (laplacian_apply(state.f).values
                                      + 0.5 * (p - 2.5) * w + 1))) < 1e-11
    assert np.max(np.abs(r2.values - (laplacian_apply(state.v).values + w - 1.0))) < 1e-11
