"""Tests of the benchmark itself: the correctness gate, the tracer, the
statistics and compare verdicts, and the runner's refusal to run without the
program's sources.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from gravortex import cli, geometry, make_state, solvers  # noqa: E402
from gravortex.geometry import POINT_AT_INFINITY  # noqa: E402
from workloads import Case  # noqa: E402


def _solve(case):
    ctx = workloads.setup([case])
    grid = ctx.grids[(case.model, case.resolution)]
    return workloads.execute(case, grid, ctx.sections[0])


def _perturbed(result, df=0.0, dv=0.0):
    st = result.state
    v = st.v.values + dv * np.cos(2 * np.pi * st.spec.grid.node_coords[:, 0]) if dv else st.v.values
    state = make_state(st.spec, st.f.values + df, v if dv else None)
    return dataclasses.replace(result, state=state)


VORTEX = Case("vortex", "vortex", "torus", 32, ((0.25, 0.25),), (1,), 2.5)
BELOW = Case("below", "vortex", "torus", 32, ((0.25, 0.25),), (1,), 1.8)


def test_gate_accepts_vortex_and_rejects_perturbed_solution():
    result = _solve(VORTEX)
    assert result.report.converged
    assert gate.check(VORTEX, result).ok
    bad = gate.check(VORTEX, _perturbed(result, df=1e-7))
    assert not bad.ok and bad.false_certificate
    assert "missed tolerance" in bad.reason


def test_gate_rejects_wrong_verdicts():
    result = _solve(BELOW)
    assert not result.report.converged
    assert gate.check(BELOW, result).ok  # NotExists and not certified: correct
    forged = dataclasses.replace(result, report=dataclasses.replace(
        result.report, converged=True, failure_reason=None))
    bad = gate.check(BELOW, forged)
    assert not bad.ok and bad.false_certificate and "wrong verdict" in bad.reason

    # a solution exists but none was certified: a failed, not a false, answer
    good = _solve(VORTEX)
    missed = dataclasses.replace(good, report=dataclasses.replace(
        good.report, converged=False, failure_reason=solvers.FailureReason.STEP_FLOOR))
    bad = gate.check(VORTEX, missed)
    assert not bad.ok and not bad.false_certificate and "wrong verdict" in bad.reason


def test_gate_gravitating_tolerances():
    case = Case("cold", "gravitating", "torus", 32, ((0.25, 0.25),), (1,), 2.5, 0.05)
    result = _solve(case)
    assert gate.check(case, result).ok
    bad = gate.check(case, _perturbed(result, dv=1e-6))
    assert not bad.ok and bad.false_certificate


def test_gate_eb_cross_validation():
    case = Case("eb48", "eb_xval", "sphere", 48, ((0.0, 0.0), POINT_AT_INFINITY), (1, 1), 8.3)
    result = _solve(case)
    assert gate.check(case, result).ok
    off = dataclasses.replace(result.radial, c_prime=result.radial.c_prime + 1e-5)
    bad = gate.check(case, dataclasses.replace(result, radial=off))
    assert not bad.ok and "c'" in bad.reason
    bad = gate.check(case, dataclasses.replace(result, gap=2e-4))
    assert not bad.ok and "radial gap" in bad.reason


def test_gate_sweep_rows():
    case = Case("sweep", "sweep", "torus", 16, ((0.25, 0.25), (0.7, 0.6)), (1, 1), 6.0, 0.02)
    result = _solve(case)
    assert len(result.records) == workloads.SWEEP_POINTS
    assert gate.check(case, result).ok
    rec = json.loads(json.dumps(result.records[-1]))
    rec["report"]["final_residual"] = 1e-6
    bad = gate.check(case, dataclasses.replace(result, records=result.records[:-1] + [rec]))
    assert not bad.ok and bad.false_certificate


def test_tracer_counts_repeat_and_match_the_program():
    grid = geometry.build_grid("sphere", 16)
    from gravortex import sections

    section = sections.build_section(
        grid, sections.Divisor(((0.0, 0.0), POINT_AT_INFINITY), (1, 1)))
    original = geometry.laplacian_apply
    totals = []
    for _ in range(2):
        rec = tracer.SpanRecorder()
        with tracer.instrumented(rec):
            _, report = solvers.solve_eb(grid, section, 8.0)
        totals.append(tracer.layer_totals(rec))
    assert geometry.laplacian_apply is original and cli.build_grid is geometry.build_grid
    counts = {k: v for k, v in totals[0].items() if not k.endswith("_s")}
    assert counts == {k: v for k, v in totals[1].items() if not k.endswith("_s")}
    assert counts["solvers.newton_steps"] == report.iterations
    assert counts["solvers.lgmres_calls"] == report.iterations
    assert counts["solvers.stages"] == 4 and counts["solvers.bisections"] == 0
    assert counts["geometry.transform_flops"] > 0 and counts["geometry.transform_bytes"] > 0
    assert 0.0 < counts["solvers.linesearch_accept_ratio"] <= 1.0


def test_tracer_self_time_and_pause():
    rec = tracer.SpanRecorder()
    outer = rec.begin("a")
    inner = rec.begin("b")
    rec.end(inner)
    rec.end(outer)
    rec.starts[:] = [0, 100]
    rec.ends[:] = [1000, 400]
    self_s = rec.self_times()
    assert self_s["a"] == pytest.approx(700e-9) and self_s["b"] == pytest.approx(300e-9)
    with rec.paused():
        assert not rec.enabled
    assert rec.enabled


def test_tail_has_ten_operations_beyond():
    values = [float(i) for i in range(1, 41)]
    value, pct, beyond = run.tail(values)
    assert value == 30.0 and beyond == 10 and sum(v > value for v in values) == 10
    assert pct == pytest.approx(75.0)
    assert run.tail([1.0, 2.0])[0] == 2.0


def test_rounds_are_seeded():
    for name in workloads.WORKLOADS:
        assert workloads.make_round(name, 3) == workloads.make_round(name, 3)
        assert workloads.make_round(name, 3) != workloads.make_round(name, 4)


def test_compare_verdicts():
    base = [1.0, 1.01, 0.99, 1.0, 1.02]
    assert compare.verdict(base, [0.8, 0.81, 0.79, 0.8], "lower", 0.1)[0] == "improved"
    assert compare.verdict(base, [1.3, 1.31, 1.29, 1.3], "lower", 0.1)[0] == "worse"
    assert compare.verdict(base, [1.0, 1.01, 1.0, 0.99], "lower", 0.1)[0] == "unchanged"
    assert compare.verdict(base, [0.5, 1.5, 1.0, 2.0], "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(base, [1.3, 1.31, 1.29], "higher", 0.1)[0] == "improved"


def test_runner_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "verdicts", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
