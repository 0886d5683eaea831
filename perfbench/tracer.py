"""In-memory span recorder that instruments gravortex from outside.

Spans are recorded around the calls into each layer by patching the module
attributes that callers look up at call time.  Several gravortex modules
import functions by name, so the binding each caller uses is the one patched:

* ``equations`` and ``sections`` import ``laplacian_apply`` by name;
  ``solvers._lap_values`` re-imports it from ``geometry`` on every call, and
  ``geometry.conformal_density`` looks it up in ``geometry``;
* ``solvers`` binds ``smoothing_invert``, ``lgmres``, ``residual_fields``
  and ``identity_report`` by name, and reaches ``stability`` through the
  module;
* ``cli`` binds the grid, section and solver entry points by name;
* ``radial`` binds ``eb_coupling`` by name.

Matvecs and preconditioner applications are counted by wrapping the operator
callables that ``solvers.lgmres`` receives (``_NewtonSystem.matvec`` and
``.precond``); the count includes the one call of each that scipy's
``LinearOperator`` makes per Newton step to infer its dtype.  Continuation
stages and bisections come from the module attribute ``solvers._newton_loop``,
which ``solvers._continue_in_alpha`` looks up on every attempt.  Tracing inside the
program would replace these hooks.

The run is single-threaded, so spans nest strictly and no layer waits on
another: self time is a span's duration minus the time its direct children
cover.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from gravortex import cli, equations, geometry, radial, sections, solvers, stability

_now = time.perf_counter_ns


class SpanRecorder:
    """Spans (name, start, end, parent, operation id) kept in flat lists."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self.counts: Counter = Counter()
        self.flops = 0.0
        self.bytes = 0.0
        self.op_id = -1
        self.enabled = True
        self._stack: list[int] = []
        # (continuation span index, failed) per Newton loop run inside a continuation
        self.loop_outcomes: list[tuple[int, bool]] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.op_ids.append(self.op_id)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(_now())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = _now()
        self._stack.pop()

    def enclosing(self, name: str) -> int:
        """Index of the innermost open span called ``name``, or -1."""
        for idx in reversed(self._stack):
            if self.names[idx] == name:
                return idx
        return -1

    @contextmanager
    def paused(self):
        """Let calls through unrecorded (used around the benchmark's own checks)."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def self_times(self) -> Counter:
        """Seconds of self time per span name."""
        child = [0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[idx] - self.starts[idx]
        out: Counter = Counter()
        for idx, name in enumerate(self.names):
            out[name] += (self.ends[idx] - self.starts[idx] - child[idx]) * 1e-9
        return out

    def span_counts(self) -> Counter:
        return Counter(self.names)

    def continuation_totals(self) -> tuple[int, int]:
        """(stages, bisections): Newton-loop attempts made by alpha-continuation,
        and failed attempts that were retried at a halved coupling step."""
        stages = len(self.loop_outcomes)
        bisections = 0
        for (span, failed), nxt in zip(self.loop_outcomes, self.loop_outcomes[1:] + [(-1, False)]):
            if failed and nxt[0] == span:
                bisections += 1
        return stages, bisections

    def write(self, path: str) -> None:
        """Write every span as [name, start_ns, end_ns, parent, op] plus the counters."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0
        rows = [
            [index[n], s - t0, e - t0, p, o]
            for n, s, e, p, o in zip(self.names, self.starts, self.ends, self.parents, self.op_ids)
        ]
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "names": table, "spans": rows, "counts": dict(self.counts)},
                      handle, separators=(",", ":"))


# ---------------------------------------------------------------------------
# computed transform work (operation counts and compulsory bytes, not measured)
# ---------------------------------------------------------------------------


def _fft_flops(n: int) -> float:
    """Conventional 5 n log2 n flop count of one complex FFT of length n."""
    return 5.0 * n * math.log2(n)


def _sht_work(sht) -> tuple[float, float]:
    """Flops and bytes of one analyze or synthesize at band limit L.

    One (L+1)-row FFT pass plus the batched Legendre matmul, which streams a
    whole (L+1)^3 float64 tensor.
    """
    l1 = sht.lmax + 1
    flops = sht.n_lat * _fft_flops(sht.n_lon) + 4.0 * l1 ** 3
    nbytes = 8.0 * l1 ** 3 + 8.0 * sht.n_lat * sht.n_lon + 16.0 * l1 * l1
    return flops, nbytes


def _fft2_work(a) -> tuple[float, float]:
    n0, n1 = a.shape[-2], a.shape[-1]
    flops = n0 * _fft_flops(n1) + n1 * _fft_flops(n0)
    return flops, 16.0 * n0 * n1 + a.itemsize * n0 * n1


def legendre_tensor_bytes(lmax: int) -> int:
    """Bytes of the two (L+1)^3 Legendre tensors one sphere grid holds."""
    return 2 * 8 * (lmax + 1) ** 3


# ---------------------------------------------------------------------------
# patching
# ---------------------------------------------------------------------------


class Instrumentation:
    """Installs the wrappers for one recorder; ``uninstall`` restores the originals."""

    # (module, attribute, span name): plain call spans
    _SPANS = [
        (geometry, "laplacian_apply", "geometry.laplacian"),
        (equations, "laplacian_apply", "geometry.laplacian"),
        (sections, "laplacian_apply", "geometry.laplacian"),
        (geometry, "smoothing_invert", "geometry.smoothing"),
        (solvers, "smoothing_invert", "geometry.smoothing"),
        (geometry, "build_grid", "geometry.build_grid"),
        (cli, "build_grid", "geometry.build_grid"),
        (sections, "build_section", "sections.build_section"),
        (cli, "build_section", "sections.build_section"),
        (equations, "residual_fields", "equations.residual"),
        (solvers, "residual_fields", "equations.residual"),
        (equations, "identity_report", "equations.identity"),
        (solvers, "identity_report", "equations.identity"),
        (cli, "identity_report", "equations.identity"),
        (equations, "direct_gve_residual", "equations.direct_gve"),
        (solvers, "solve_vortex", "solvers.solve_vortex"),
        (solvers, "solve_gravitating", "solvers.solve_gravitating"),
        (cli, "solve_gravitating", "solvers.solve_gravitating"),
        (solvers, "advance_gravitating", "solvers.advance_gravitating"),
        (cli, "advance_gravitating", "solvers.advance_gravitating"),
        (solvers, "solve_eb", "solvers.solve_eb"),
        (solvers, "_continue_in_alpha", "solvers.continuation"),
        (cli, "sweep_alpha", "cli.sweep_alpha"),
        (cli, "config_from_dict", "cli.config_from_dict"),
        (stability, "existence_oracle", "stability.oracle"),
        (stability, "bradlow_check", "stability.oracle"),
        (stability, "bradlow_bound", "stability.oracle"),
        (stability, "classify_divisor", "stability.oracle"),
        (stability, "classify_multiplicities", "stability.oracle"),
        (stability, "eb_coupling", "stability.oracle"),
        (radial, "eb_coupling", "stability.oracle"),
    ]

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, name, fn, after=None):
        rec = self.rec

        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            idx = rec.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.end(idx)
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> "Instrumentation":
        rec = self.rec
        for owner, attr, name in self._SPANS:
            self._patch(owner, attr, self._span(name, getattr(owner, attr)))

        # transforms: SHT analyze/synthesize on the sphere, fft2/ifft2 on the torus
        def sht_after(args, _out):
            flops, nbytes = _sht_work(args[0])
            rec.flops += flops
            rec.bytes += nbytes

        def fft_after(args, _out):
            flops, nbytes = _fft2_work(np.asarray(args[0]))
            rec.flops += flops
            rec.bytes += nbytes

        sht = geometry._SphereTransform
        self._patch(sht, "analyze", self._span("geometry.sht_analyze", sht.analyze, sht_after))
        self._patch(sht, "synthesize", self._span("geometry.sht_synthesize", sht.synthesize, sht_after))
        self._patch(np.fft, "fft2", self._span("geometry.fft2", np.fft.fft2, fft_after))
        self._patch(np.fft, "ifft2", self._span("geometry.ifft2", np.fft.ifft2, fft_after))

        # Newton steps, and accepted steps for the line-search ratio
        def step_after(_args, out):
            if out[1]["step_scale"] > 0.0:
                rec.counts["solvers.steps_accepted"] += 1

        self._patch(solvers, "newton_step",
                    self._span("solvers.newton_step", solvers.newton_step, step_after))

        # every line-search trial builds its trial state through apply_update
        orig_update = solvers._NewtonSystem.apply_update

        def apply_update(system, x, t):
            if rec.enabled:
                rec.counts["solvers.linesearch_trials"] += 1
            return orig_update(system, x, t)

        self._patch(solvers._NewtonSystem, "apply_update", apply_update)

        # continuation stages and bisections
        def loop_after(_args, out):
            span = rec.enclosing("solvers.continuation")
            if span >= 0:
                rec.loop_outcomes.append((span, out.failure is not None))

        self._patch(solvers, "_newton_loop",
                    self._span("solvers.newton_loop", solvers._newton_loop, loop_after))

        # Jacobian and preconditioner applications: the operator callables
        # newton_step hands to lgmres (LinearOperator also calls each once
        # to infer its dtype, outside lgmres)
        system = solvers._NewtonSystem
        self._patch(system, "matvec", self._span("solvers.matvec", system.matvec))
        self._patch(system, "precond", self._span("solvers.precond", system.precond))

        # LGMRES span and exit code
        def lgmres_after(_args, out):
            if out[1] != 0:
                rec.counts["solvers.lgmres_info_nonzero"] += 1

        self._patch(solvers, "lgmres", self._span("solvers.lgmres", solvers.lgmres, lgmres_after))

        # the radial oracle reports its own Newton iteration count
        def radial_after(_args, out):
            rec.counts["radial.iterations"] += out.iterations

        self._patch(radial, "solve_eb_radial",
                    self._span("radial.solve", radial.solve_eb_radial, radial_after))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


@contextmanager
def instrumented(rec: SpanRecorder):
    inst = Instrumentation(rec).install()
    try:
        yield rec
    finally:
        inst.uninstall()


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def layer_totals(rec: SpanRecorder) -> dict:
    """Per-layer totals over everything the recorder saw; BENCHMARK.json lists
    them, with their units, as the per_layer metrics (plus trace.overhead_share)."""
    calls = rec.span_counts()
    self_s = rec.self_times()
    stages, bisections = rec.continuation_totals()
    trials = rec.counts["solvers.linesearch_trials"]
    transform_calls = calls["geometry.sht_analyze"] + calls["geometry.fft2"]
    return {
        "geometry.laplacian_calls": calls["geometry.laplacian"],
        "geometry.smoothing_calls": calls["geometry.smoothing"],
        "geometry.transform_calls": transform_calls,
        "geometry.transform_s": sum(self_s[n] for n in (
            "geometry.sht_analyze", "geometry.sht_synthesize", "geometry.fft2", "geometry.ifft2")),
        "geometry.transform_flops": rec.flops,
        "geometry.transform_bytes": rec.bytes,
        "geometry.grid_build_s": self_s["geometry.build_grid"],
        "sections.build_s": self_s["sections.build_section"],
        "solvers.newton_steps": calls["solvers.newton_step"],
        "solvers.lgmres_calls": calls["solvers.lgmres"],
        "solvers.matvecs": calls["solvers.matvec"],
        "solvers.precond_applies": calls["solvers.precond"],
        "solvers.lgmres_info_nonzero": rec.counts["solvers.lgmres_info_nonzero"],
        "solvers.lgmres_s": self_s["solvers.lgmres"],
        "solvers.matvec_s": self_s["solvers.matvec"],
        "solvers.precond_s": self_s["solvers.precond"],
        "solvers.newton_s": self_s["solvers.newton_step"] + self_s["solvers.newton_loop"],
        "solvers.linesearch_trials": trials,
        "solvers.linesearch_accept_ratio":
            rec.counts["solvers.steps_accepted"] / trials if trials else 0.0,
        "solvers.stages": stages,
        "solvers.bisections": bisections,
        "equations.residual_calls": calls["equations.residual"],
        "equations.residual_s": self_s["equations.residual"],
        "equations.identity_calls": calls["equations.identity"],
        "equations.identity_s": self_s["equations.identity"],
        "stability.oracle_s": self_s["stability.oracle"],
        "radial.solve_s": self_s["radial.solve"],
        "radial.iterations": rec.counts["radial.iterations"],
        "cli.self_s": self_s["cli.sweep_alpha"] + self_s["cli.config_from_dict"],
    }
