"""Seeded workloads: the operations each benchmark run repeats.

A workload is a fixed list of case classes (a *round*); the seed draws each
case's parameters, and a run repeats the same round in a closed loop, so the
work per round is fixed for a seed and per-layer counts repeat exactly.

Why each workload exists:

* ``torus-sweep`` -- CLI-level warm-started coupling sweeps on the 64x64
  torus plus cold continuation solves at the top coupling.  The FFT path
  with small arrays: the complex FFT pair and per-call Python overhead
  dominate, and neither bisection nor heavy backtracking happens.
* ``sphere-eb`` -- Einstein-Bogomol'nyi solves on north/south divisors
  (m, m), each cross-validated against the radial oracle.  SHT round trips
  dominate, at L=48 (two 0.9 MB Legendre tensors) and L=96 (two 7.3 MB
  tensors, far beyond a 2 MiB L2).
* ``verdicts`` -- existence-frontier mapping with small solves across the
  oracle's verdict classes.  Time goes to failing iterates, so fail-fast and
  line-search changes show here and nowhere else.  Three Exists classes end
  in StepFloor today (a known defect); they stay in the mix and count as
  failed operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from gravortex import cli, equations, geometry, radial, sections, solvers, stability
from gravortex.geometry import POINT_AT_INFINITY

INF = POINT_AT_INFINITY

# torus-sweep: eight couplings from 0 to ALPHA_TOP
ALPHA_TOP = 0.035
SWEEP_POINTS = 8


@dataclass(frozen=True)
class Case:
    """One operation's inputs.

    kind is the entry point: "vortex", "eb", "eb_xval" (EB solve plus radial
    cross-validation), "gravitating" (cold continuation) or "sweep" (CLI).
    """

    cls: str
    kind: str
    model: str
    resolution: int
    points: tuple
    mults: tuple
    tau: float
    alpha: float = 0.0

    @property
    def genus(self) -> int:
        return 0 if self.model == "sphere" else 1

    def divisor(self) -> sections.Divisor:
        return sections.Divisor(self.points, self.mults)

    def oracle_alpha(self) -> float:
        if self.kind in ("eb", "eb_xval"):
            return stability.eb_coupling(self.tau, sum(self.mults))
        return self.alpha

    def sweep_config(self) -> dict:
        return {
            "command": "SweepAlpha",
            "surface": {"model": self.model, "resolution": self.resolution},
            "divisor": [[p[0], p[1], m] for p, m in zip(self.points, self.mults)],
            "tau": self.tau,
            "alpha_values": [self.alpha * k / (SWEEP_POINTS - 1) for k in range(SWEEP_POINTS)],
        }


def _jitter(rng, p, r):
    if p == INF:
        return INF
    return (p[0] + float(rng.uniform(-r, r)), p[1] + float(rng.uniform(-r, r)))


def _scale(rng, value, rel):
    return value * float(rng.uniform(1.0 - rel, 1.0 + rel))


def _torus_pair(rng):
    """Two points half a period apart, up to a small offset, at a random
    translation (the flat torus is homogeneous, so translation only moves
    the sampling)."""
    p = rng.uniform(0.0, 1.0, 2)
    q = (p + 0.5 + rng.uniform(-0.02, 0.02, 2)) % 1.0
    return ((float(p[0]), float(p[1])), (float(q[0]), float(q[1])))


def torus_sweep(rng) -> list[Case]:
    """One sweep and two cold solves at the top coupling; the cold solves are
    the faster class, so op_s.p50 falls on them and op_s.tail on the sweeps.

    tau varies by 1% only: the cold solves' cost moves by half between
    tau = 5.5 and 6.5, which would swamp the run-to-run spread."""
    out = []
    for cls, kind in (("sweep", "sweep"), ("cold", "gravitating"), ("cold", "gravitating")):
        out.append(Case(cls, kind, "torus", 64, _torus_pair(rng), (1, 1),
                        _scale(rng, 6.0, 0.01), ALPHA_TOP))
    return out


def sphere_eb(rng) -> list[Case]:
    """Ten L=48 cross-validations (m = 1 and 2 alternating) and one at L=96.

    An L=96 solve costs about six L=48 ones, so op_s.p50 and op_s.tail fall
    on L=48 operations while L=96 takes about 40% of the busy time, which
    ops_per_s carries.  For m = 1, tau stays inside [8.0, 8.3]: below about
    7.9 the radial oracle needs up to four times its usual 26 iterations, and
    above 8.33 the 2-D continuation needs 35 Newton steps instead of 22.
    """
    shapes = [(48, 1, 8.15), (48, 2, 12.0)] * 5 + [(96, 1, 8.15)]
    out = []
    for resolution, m, tau0 in shapes:
        out.append(Case(f"eb{resolution}", "eb_xval", "sphere", resolution,
                        ((0.0, 0.0), INF), (m, m), _scale(rng, tau0, 0.01)))
    return out


def verdicts(rng) -> list[Case]:
    """Small solves across the oracle's verdict classes (sphere L=24, torus n=32).

    Per round: 8 EB cases (two draws of each class, about 2.5 s each) put
    op_s.tail near the middle of the EB cases; 9 cheap Exists vortices
    balance the EB cases and the sphere vortex, so op_s.p50 falls in the
    middle of the 6 vortices at or below the degree bound.  The EB cases
    take their nominal tau and only small point jitter: their Newton counts
    swing by 30% between nearby data (104 steps at the criterion-4 point,
    about 72 a little off it), which would dominate the spread.
    """
    sph, tor = ("sphere", 24), ("torus", 32)
    out = []
    for _ in range(2):
        out += [
            # NotExists
            Case("superimposed", "eb", *sph, (_jitter(rng, (0.0, 0.0), 0.01),), (2,),
                 _scale(rng, 8.0, 0.005)),
            Case("unstable31", "eb", *sph,
                 (_jitter(rng, (0.0, 0.0), 0.01), _jitter(rng, (0.5, 0.3), 0.01)), (3, 1),
                 _scale(rng, 12.0, 0.005)),
            # Exists, but each ends StepFloor today (known defect)
            Case("eb11_non_antipodal", "eb", *sph,
                 (_jitter(rng, (0.0, 0.0), 0.01), _jitter(rng, (1.0, 0.5), 0.01)), (1, 1),
                 _scale(rng, 8.0, 0.005)),
            Case("eb_three_point", "eb", *sph,
                 (_jitter(rng, (0.0, 0.0), 0.01), INF, _jitter(rng, (1.0, 0.0), 0.01)),
                 (1, 1, 1), _scale(rng, 8.0, 0.005)),
        ]
    out.append(Case("sphere_vortex_n3", "vortex", *sph,
                    (_jitter(rng, (0.0, 0.0), 0.01), INF, _jitter(rng, (1.0, 0.0), 0.01)),
                    (1, 1, 1), _scale(rng, 12.0, 0.005)))
    # the flat torus is homogeneous: the point's position changes only the sampling
    for _ in range(9):
        out.append(Case("vortex_above_bound", "vortex", *tor,
                        (tuple(float(x) for x in rng.uniform(0.0, 1.0, 2)),), (1,),
                        _scale(rng, 3.0, 0.05)))
    for _ in range(6):
        out.append(Case("vortex_below_bound", "vortex", *tor,
                        (tuple(float(x) for x in rng.uniform(0.0, 1.0, 2)),), (1,),
                        _scale(rng, 1.85, 0.02)))
    return out


WORKLOADS = {
    "torus-sweep": torus_sweep,
    "sphere-eb": sphere_eb,
    "verdicts": verdicts,
}


def make_round(name: str, seed: int) -> list[Case]:
    return WORKLOADS[name](np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# set-up and execution
# ---------------------------------------------------------------------------


@dataclass
class Context:
    """Grids and one section per case, built by :func:`setup`."""

    grids: dict = field(default_factory=dict)
    sections: list = field(default_factory=list)


def setup(cases: list[Case]) -> Context:
    """Grid and section construction for one round (the set-up the run times).

    Sweeps build their own grid and section inside the CLI call, which is
    part of that operation.
    """
    ctx = Context()
    for case in cases:
        key = (case.model, case.resolution)
        if key not in ctx.grids:
            ctx.grids[key] = geometry.build_grid(*key)
        if case.kind == "sweep":
            ctx.sections.append(None)
        else:
            ctx.sections.append(sections.build_section(ctx.grids[key], case.divisor()))
    return ctx


@dataclass
class Result:
    state: object = None
    report: object = None
    records: list = None
    radial: object = None
    gap: float = 0.0
    gve: float = 0.0


def execute(case: Case, grid, section) -> Result:
    """The timed part of one operation: the program calls that produce its answer."""
    if case.kind == "sweep":
        config = cli.config_from_dict(case.sweep_config())
        return Result(records=cli.sweep_alpha(config))
    if case.kind == "vortex":
        state, report = solvers.solve_vortex(grid, section, case.tau)
        return Result(state, report)
    if case.kind == "gravitating":
        state, report = solvers.solve_gravitating(grid, section, case.tau, case.alpha)
        return Result(state, report)
    state, report = solvers.solve_eb(grid, section, case.tau)
    if case.kind == "eb":
        return Result(state, report)
    # cross-validation against the radial oracle (criterion 3 of the acceptance suite)
    m_north, m_south = case.mults
    rad = radial.solve_eb_radial(case.tau, m_north, m_south, log_scale=section.normalization)
    gap = float(np.max(np.abs(state.f.values - rad.interpolate(grid._xi_flat))))
    r1, r2 = equations.direct_gve_residual(state)
    gve = max(float(np.max(np.abs(r1.values))), float(np.max(np.abs(r2.values))))
    return Result(state, report, radial=rad, gap=gap, gve=gve)

