#!/usr/bin/env python3
"""gravortex benchmark: certified-solve latency on three workloads.

Run one workload (from the root of a checkout)::

    python3 perfbench/run.py --workload sphere-eb --seed 1 --seconds 30 --trace 0

prints the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``), one per line with its unit, then one JSON object as the last
line.  Each run also appends a result record, with the machine it ran on, to
``perfbench/out/results.jsonl`` (``--out`` to change).  Traced runs write
their spans to ``perfbench/out/spans-<workload>-seed<seed>.json``.

Other modes::

    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl
    python3 perfbench/run.py --crosscheck

Load is one closed-loop client in one process: the next operation starts
when the previous one returns.  BLAS is pinned to one thread here, before
numpy is imported.  The run repeats the seed's round of operations and
starts no new round once ``--seconds`` have passed; a started round always
finishes, so every run holds whole rounds, and at least two.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 15
#: the reference task's time on the 2-CPU Xeon machine the benchmark was
#: defined on; setup_s is reported in seconds at that reference speed
REF_SECONDS = 0.005
# whole rounds per run at least, so each statistic keeps its place in the
# round's mix when the machine is slow
MIN_ROUNDS = 2
TAIL_BEYOND = 10
WORKLOAD_NAMES = ("torus-sweep", "sphere-eb", "verdicts")


def _import_program():
    """Import gravortex from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "gravortex" / "__init__.py").is_file():
        sys.exit(f"error: no gravortex sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import gravortex

    if Path(gravortex.__file__).resolve().parent != (SRC / "gravortex").resolve():
        sys.exit(f"error: imported gravortex from {gravortex.__file__}, not {SRC}")
    return gravortex


# ---------------------------------------------------------------------------
# machine description
# ---------------------------------------------------------------------------


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def machine(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "llc_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "cpu": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond): the highest percentile with at least
    TAIL_BEYOND operations beyond it; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


# ---------------------------------------------------------------------------
# the measured loop
# ---------------------------------------------------------------------------


class Reference:
    """A fixed task that does not use gravortex, timed right before and right
    after every untraced operation: interpreter work, a 64x64 FFT pair, small
    matmuls and an 8 MB streaming dot product.

    The shared machine's speed drifts by a quarter or more within seconds to
    minutes, for the program and this task alike, so an operation's time
    divided by the mean of its two reference times (unit "ref") stays steady
    where wall seconds do not.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.field = rng.random((64, 64))
        self.matrix = rng.random((96, 96))
        self.vector = rng.random(1 << 20)

    def time(self) -> float:
        import numpy as np

        start = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        for _ in range(20):
            np.fft.ifft2(np.fft.fft2(self.field))
        for _ in range(10):
            self.matrix @ self.matrix
        float(self.vector @ self.vector)
        return time.perf_counter() - start


class Run:
    """Per-operation outcomes of one run."""

    def __init__(self):
        self.reference = Reference()
        self.refs: list = []  # per operation: mean reference time, None when traced
        self.durations: list[float] = []
        self.traced: list[bool] = []
        self.converged: list[bool] = []
        self.failed: list[bool] = []
        self.classes: list[str] = []
        self.inputs: list[int] = []
        self.failures: list[str] = []
        self.false_certificates = 0

    def add(self, index, case, seconds, ref, traced, converged, verdict):
        self.refs.append(ref)
        self.inputs.append(index)
        self.durations.append(seconds)
        self.traced.append(traced)
        self.converged.append(converged)
        self.classes.append(case.cls)
        self.failed.append(not verdict.ok)
        if not verdict.ok:
            self.failures.append(f"{case.cls}: {verdict.reason}")
            self.false_certificates += verdict.false_certificate


def run_round(cases, ctx, run: Run, rec=None) -> None:
    """One pass over the round; traced when a span recorder is given."""
    import gate
    import workloads

    traced = rec is not None
    for i, case in enumerate(cases):
        if rec is None:
            ref_before = run.reference.time()
        else:
            rec.op_id = len(run.durations)
        grid = ctx.grids[(case.model, case.resolution)]
        start = time.perf_counter()
        try:
            result = workloads.execute(case, grid, ctx.sections[i])
            error = None
        except Exception as exc:  # an operation that raises is a failed operation
            result, error = None, f"exception: {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if rec is None:
            ref = 0.5 * (ref_before + run.reference.time())
        else:
            ref, rec.op_id = None, -1
        if error is not None:
            run.add(i, case, seconds, ref, traced, False, gate.Verdict(False, False, error))
            continue
        with rec.paused() if rec is not None else nullcontext():
            verdict = gate.check(case, result)
        if result.records is not None:
            converged = all(r["report"]["converged"] for r in result.records)
        else:
            converged = result.report.converged
        run.add(i, case, seconds, ref, traced, converged, verdict)


def measure(workload: str, seed: int, seconds: float, trace: bool):
    import tracer
    import workloads

    cases = workloads.make_round(workload, seed)
    run = Run()
    setup_times, setup_refs = [], []
    for _ in range(SETUP_REPS):
        ctx = None  # free the previous set-up first, so peak RSS holds one copy
        ref_before = run.reference.time()
        start = time.perf_counter()
        ctx = workloads.setup(cases)
        setup_times.append(time.perf_counter() - start)
        setup_refs.append(0.5 * (ref_before + run.reference.time()))

    rec = tracer.SpanRecorder() if trace else None
    traced_rounds = rounds = 0
    deadline = time.perf_counter() + seconds
    while True:
        run_round(cases, ctx, run)
        rounds += 1
        if trace:
            with tracer.instrumented(rec):
                traced_ctx = workloads.setup(cases)
                run_round(cases, traced_ctx, run, rec)
            traced_rounds += 1
            rounds += 1
        if time.perf_counter() >= deadline and rounds >= MIN_ROUNDS:
            break
    return cases, (setup_times, setup_refs), run, rec, rounds, traced_rounds


def end_to_end(setup, run: Run) -> tuple[dict, dict]:
    """(metrics for the JSON line, wall-clock figures for the result record),
    over the untraced operations."""
    setup_times, setup_refs = setup
    durations = [d for d, t in zip(run.durations, run.traced) if not t]
    converged = [c for c, t in zip(run.converged, run.traced) if not t]
    refs = [r for r in run.refs if r is not None]
    ratios = [d / r for d, r in zip(durations, refs)]
    n = len(durations)
    failed = sum(f for f, t in zip(run.failed, run.traced) if not t)
    tail_value, tail_pct, beyond = tail(durations)
    rejected = [d for d, c in zip(durations, converged) if not c]
    metrics = {
        "op_ref.p50": statistics.median(ratios),
        "op_ref.tail": tail(ratios)[0],
        "op_ref.mean": statistics.fmean(ratios),
        "ok_share": (n - failed) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": REF_SECONDS * statistics.median(
            t / r for t, r in zip(setup_times, setup_refs)),
    }
    wall = {
        "setup_wall_s": statistics.median(setup_times),
        "op_s.p50": statistics.median(durations),
        "op_s.tail": tail_value,
        "ops_per_s": n / sum(durations),
        "reject_s.p50": statistics.median(rejected) if rejected else None,
        "fail_share": failed / n,
        "ref_s": statistics.median(refs),
        "rejections": len(rejected),
        "ops": n,
        "tail_percentile": tail_pct,
        "tail_ops_beyond": beyond,
        "setup_reps": len(setup_times),
    }
    return metrics, wall


def per_layer(run: Run, rec, traced_rounds: int) -> dict:
    import tracer

    out = {}
    for name, value in tracer.layer_totals(rec).items():
        if name != "solvers.linesearch_accept_ratio":
            value = value / traced_rounds
        out[name] = int(value) if float(value).is_integer() else value
    plain = [d for d, t in zip(run.durations, run.traced) if not t]
    traced = [d for d, t in zip(run.durations, run.traced) if t]
    base = statistics.median(plain)
    out["trace.overhead_share"] = (statistics.median(traced) - base) / base
    return out


def class_medians(run: Run) -> dict:
    groups: dict[str, list[float]] = {}
    for cls, d, t in zip(run.classes, run.durations, run.traced):
        if not t:
            groups.setdefault(cls, []).append(d)
    return {cls: statistics.median(v) for cls, v in groups.items()}


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def load_spec() -> dict:
    """BENCHMARK.json: metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main_run(args) -> int:
    _import_program()
    import tracer

    spec = load_spec()
    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    cases, setup, run, rec, rounds, traced_rounds = measure(
        args.workload, args.seed, args.seconds, bool(args.trace))
    info = machine(args.seed)
    n = len(run.durations)
    failed = len(run.failures)
    e2e, extras = end_to_end(setup, run)
    grids = sorted({(c.model, c.resolution) for c in cases})
    tensors = {f"L={r}": tracer.legendre_tensor_bytes(r) for m, r in grids if m == "sphere"}

    print(f"# gravortex benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# machine  nproc={info['nproc']} L2={info['l2_bytes']} B LLC={info['llc_bytes']} B "
          f"numpy {info['numpy']} scipy {info['scipy']} BLAS {info['blas']} "
          f"threads={info['blas_threads']}")
    if tensors:
        print("# legendre tensors  " + "  ".join(f"{k}: {v} B" for k, v in tensors.items())
              + f"  (L2 {info['l2_bytes']} B)")
    print(f"# load  closed loop, 1 client, 1 process; {n} ops in {rounds} rounds of {len(cases)}"
          + (f" ({traced_rounds} traced)" if args.trace else ""))
    for reason in run.failures[:len(cases)]:
        print(f"# failed  {reason}")

    if args.trace:
        metrics = per_layer(run, rec, traced_rounds)
        print("# per-layer metrics per round (one set-up plus one pass over the round); "
              "single-threaded, so no layer waits on another")
    else:
        metrics = e2e
        print(f"# wall clock: op_s.tail is p{extras['tail_percentile']:.4g} "
              f"({extras['tail_ops_beyond']} of {extras['ops']} ops beyond); "
              f"setup is the median of {extras['setup_reps']} set-ups")
        for name, unit, note in (
                ("setup_wall_s", "s", ""), ("op_s.p50", "s", ""), ("op_s.tail", "s", ""),
                ("ops_per_s", "1/s", ""),
                ("reject_s.p50", "s", f"  ({extras['rejections']} non-converged verdicts)"),
                ("fail_share", "share", f"  ({failed} of {extras['ops']} failed)"),
                ("peak_rss_mb", "MB", "")):
            value = metrics[name] if name in metrics else extras[name]
            print(f"{name:<34} {_fmt(value)} {unit}{note}")
        print(f"# gated: op times in units of the reference task ({_fmt(extras['ref_s'])} s "
              f"median in this run); setup_s in seconds at a {REF_SECONDS} s reference")
    if set(metrics) != set(units):
        sys.exit(f"error: measured {sorted(metrics)} but BENCHMARK.json lists {sorted(units)}")
    for name in units:
        print(f"{name:<34} {_fmt(metrics[name])} {units[name]}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": info, "legendre_tensor_bytes": tensors,
        "rounds": rounds, "ops_per_round": len(cases),
        "attempted": n, "failed": failed, "failures": run.failures[:len(cases)],
        "metrics": metrics,
        "end_to_end_extras": extras, "class_medians_s": class_medians(run),
        "op_log": [[i, d, t] for i, d, t in zip(run.inputs, run.durations, run.traced)],
        "ref_log": run.refs,
    }
    out = Path(args.out) if args.out else HERE / "out" / "results.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    if rec is not None:
        rec.write(str(out.parent / f"spans-{args.workload}-seed{args.seed}.json"))

    print(json.dumps({
        "correct": run.false_certificates == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file to append to (JSON lines)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two result files")
    parser.add_argument("--crosscheck", action="store_true",
                        help="trace the fixed baseline cases twice and check their counts")
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(args.compare[0], args.compare[1], load_spec())
    if args.crosscheck:
        _import_program()
        import crosscheck

        return crosscheck.main()
    if args.workload is None:
        parser.error("--workload is required")
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
