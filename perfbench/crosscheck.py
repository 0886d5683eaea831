"""Traced counts of the fixed baseline cases, checked for exact repetition.

The cases are the acceptance suite's: the Einstein-Bogomol'nyi solve at
L=48 (criterion 3), the superimposed-divisor EB solve at L=24 (criterion 4)
and the radial oracle of criterion 3.  Each is traced twice; the counts must
agree exactly between the two runs and with the solver's own iteration
count.  They are also printed next to the baseline measured when the
benchmark was defined, which a change to the solver is expected to move.
"""

from __future__ import annotations

import time

import tracer
from gravortex import radial, sections, solvers
from gravortex.geometry import POINT_AT_INFINITY, build_grid

#: counts measured on the commit that introduced the benchmark
BASELINE = {
    "eb_sphere_l48": {"solvers.newton_steps": 22, "solvers.matvecs": 639,
                      "geometry.transform_calls": 1316},
    "eb_superimposed_l24": {"solvers.newton_steps": 104, "solvers.matvecs": 7846,
                            "equations.residual_calls": 960},
}

REPORTED = ("solvers.newton_steps", "solvers.lgmres_calls", "solvers.matvecs",
            "solvers.precond_applies", "geometry.transform_calls",
            "equations.residual_calls", "solvers.linesearch_trials", "solvers.stages",
            "solvers.bisections", "solvers.lgmres_info_nonzero")


def _eb(resolution, points, mults, tau):
    grid = build_grid("sphere", resolution)
    section = sections.build_section(grid, sections.Divisor(points, mults))
    return lambda: solvers.solve_eb(grid, section, tau)[1].iterations


def _radial():
    grid = build_grid("sphere", 48)
    section = sections.build_section(grid, sections.Divisor(((0.0, 0.0), POINT_AT_INFINITY), (1, 1)))
    return lambda: radial.solve_eb_radial(8.0, 1, 1, log_scale=section.normalization).iterations


CASES = {
    "eb_sphere_l48": lambda: _eb(48, ((0.0, 0.0), POINT_AT_INFINITY), (1, 1), 8.0),
    "eb_superimposed_l24": lambda: _eb(24, ((0.0, 0.0),), (2,), 8.0),
    "radial_oracle_200_modes": _radial,
}


def traced_counts(make) -> tuple[dict, int, float]:
    """(per-layer totals, the program's own iteration count, wall seconds)."""
    call = make()
    rec = tracer.SpanRecorder()
    with tracer.instrumented(rec):
        start = time.perf_counter()
        iterations = call()
        seconds = time.perf_counter() - start
    return tracer.layer_totals(rec), iterations, seconds


def main() -> int:
    ok = True
    for name, make in CASES.items():
        first, iterations, seconds = traced_counts(make)
        second, _, seconds2 = traced_counts(make)
        counts = {k: first[k] for k in REPORTED}
        repeat = counts == {k: second[k] for k in REPORTED}
        print(f"{name}: program iterations {iterations}, wall {seconds:.3f} s / {seconds2:.3f} s "
              f"(traced), counts repeat exactly: {repeat}")
        if name.startswith("radial"):
            print(f"  radial.iterations {first['radial.iterations']}, "
                  f"radial.solve_s {first['radial.solve_s']:.4f}")
            ok &= repeat and first["radial.iterations"] == iterations
            continue
        ok &= repeat and counts["solvers.newton_steps"] == iterations
        for key, value in counts.items():
            want = BASELINE[name].get(key)
            note = "" if want is None else (
                "  matches baseline" if want == value else f"  baseline {want}")
            print(f"  {key:<28} {value}{note}")
    print("crosscheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1
