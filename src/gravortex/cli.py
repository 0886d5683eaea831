"""Command-line interface, run configuration, and result serialization.

A run is described by a JSON config file (plus ``--set`` overrides); every
physical quantity is normalised to the background area 2*pi convention used
throughout the library.  Result records are deterministic JSON
(``sort_keys``), byte-identical across runs except for the ``wall_time``
field, and echo the full config so they can be re-run.

tau, alpha, and sigma accept rational strings ("1/16") as well as numbers;
rational strings are kept exact all the way into the algebraic oracles, so
boundary cases like alpha*tau*N == 1 classify correctly.

Exit codes: 0 success, 1 usage/config error, 2 solver did not converge.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time
from fractions import Fraction
from typing import Optional

from . import __version__
from .equations import conformal_exponent, metric_density, scalar_curvature
from .equations import identity_report  # noqa: F401  (perfbench/tracer.py patches this binding)
from .geometry import POINT_AT_INFINITY, SurfaceGrid, build_grid
from .sections import Divisor, SectionData, build_section
from .solvers import (
    ContinuationSchedule,
    SolverConfig,
    advance_gravitating,
    default_alpha_targets,
    solve_eb,
    solve_gravitating,
    solve_vortex,
)
from .stability import classify_divisor, existence_oracle, sigma_range, sigma_slope

COMMANDS = (
    "Classify",
    "SolveVortex",
    "SolveGravitating",
    "SolveEB",
    "SweepAlpha",
    "Triple",
    "Oracle",
)

_SOLVE_KINDS = {
    "vortex": "SolveVortex",
    "gravitating": "SolveGravitating",
    "eb": "SolveEB",
}


class ConfigError(Exception):
    """Invalid configuration; carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


def _as_fraction(value, path: str) -> Fraction:
    if isinstance(value, bool):
        raise ConfigError(path, "expected a number")
    try:
        if isinstance(value, str):
            return Fraction(value.strip())
        if isinstance(value, (int, float)):
            return Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ConfigError(path, f"cannot parse {value!r} as a number") from None
    raise ConfigError(path, "expected a number")


def _canonical_real(value, path: str):
    """Normalise a numeric config entry: rational strings stay exact strings."""
    frac = _as_fraction(value, path)
    if isinstance(value, str):
        return str(frac)
    return float(value)


def parse_real(value, path: str) -> float:
    """Accept int/float or a rational string like '1/16'; return a float."""
    out = float(_as_fraction(value, path))
    if not math.isfinite(out):
        raise ConfigError(path, "value must be finite")
    return out


def _expect_int(value, path: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, "expected an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}")
    return value


def _reject_unknown(mapping: dict, allowed, path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown field")


def _normalize_divisor(entries, path: str) -> tuple:
    if not isinstance(entries, (list, tuple)):
        raise ConfigError(path, "expected a list of [x, y, m] or ['inf', m] entries")
    out = []
    for i, entry in enumerate(entries):
        epath = f"{path}[{i}]"
        if not isinstance(entry, (list, tuple)):
            raise ConfigError(epath, "expected [x, y, m] or ['inf', m]")
        if len(entry) == 2 and entry[0] == "inf":
            out.append(("inf", _expect_int(entry[1], f"{epath}[1]", 1)))
        elif len(entry) == 3:
            x = parse_real(entry[0], f"{epath}[0]")
            y = parse_real(entry[1], f"{epath}[1]")
            out.append((x, y, _expect_int(entry[2], f"{epath}[2]", 1)))
        else:
            raise ConfigError(epath, "expected [x, y, m] or ['inf', m]")
    return tuple(out)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully explicit run description; round-trips through to_dict/from_dict.

    tau, alpha, sigma hold either a float or an exact rational string; use
    the ``*_value`` properties for solver floats and ``*_rational`` for the
    algebraic oracles.
    """

    command: str
    surface_model: str = "torus"
    surface_resolution: int = 16
    divisor: tuple = ()
    tau: object = 2.5
    alpha: object = 0.0
    alpha_values: tuple = ()
    genus: int = 0
    triple: Optional[tuple] = None
    sigma: Optional[object] = None
    solver: SolverConfig = SolverConfig()
    schedule_targets: Optional[tuple] = None
    max_step_halvings: int = ContinuationSchedule.max_step_halvings
    record_path: Optional[str] = None
    fields_csv: Optional[str] = None
    sweep_jsonl: Optional[str] = None
    summary_csv: str = "sweep_summary.csv"

    @property
    def tau_value(self) -> float:
        return float(self.tau_rational)

    @property
    def tau_rational(self) -> Fraction:
        return _as_fraction(self.tau, "tau")

    @property
    def alpha_value(self) -> float:
        return float(self.alpha_rational)

    @property
    def alpha_rational(self) -> Fraction:
        return _as_fraction(self.alpha, "alpha")

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "surface": {"model": self.surface_model, "resolution": self.surface_resolution},
            "divisor": [list(entry) for entry in self.divisor],
            "tau": self.tau,
            "alpha": self.alpha,
            "alpha_values": list(self.alpha_values),
            "genus": self.genus,
            "triple": None if self.triple is None else list(self.triple),
            "sigma": self.sigma,
            "solver": dataclasses.asdict(self.solver),
            "schedule": {
                "alpha_targets": None if self.schedule_targets is None
                                 else list(self.schedule_targets),
                "max_step_halvings": self.max_step_halvings,
            },
            "output": {
                "record_path": self.record_path,
                "fields_csv": self.fields_csv,
                "sweep_jsonl": self.sweep_jsonl,
                "summary_csv": self.summary_csv,
            },
        }


_TOP_KEYS = (
    "command", "surface", "divisor", "tau", "alpha", "alpha_values", "genus", "triple",
    "sigma", "solver", "schedule", "output",
)


def config_from_dict(data: dict) -> RunConfig:
    """Validate a nested config mapping; unknown keys are rejected with their path."""
    if not isinstance(data, dict):
        raise ConfigError("config", "expected a JSON object")
    _reject_unknown(data, _TOP_KEYS, "")
    command = data.get("command")
    if command not in COMMANDS:
        raise ConfigError("command", f"expected one of {', '.join(COMMANDS)}")

    surface = data.get("surface", {})
    if not isinstance(surface, dict):
        raise ConfigError("surface", "expected an object")
    _reject_unknown(surface, ("model", "resolution"), "surface")
    model = surface.get("model", RunConfig.surface_model)
    if model not in ("torus", "sphere"):
        raise ConfigError("surface.model", "expected 'torus' or 'sphere'")
    resolution = _expect_int(surface.get("resolution", RunConfig.surface_resolution),
                             "surface.resolution", 4)

    divisor = _normalize_divisor(data.get("divisor", []), "divisor")
    tau = _canonical_real(data.get("tau", RunConfig.tau), "tau")
    if _as_fraction(tau, "tau") <= 0:
        raise ConfigError("tau", "must be positive")
    alpha = _canonical_real(data.get("alpha", RunConfig.alpha), "alpha")

    raw_alphas = data.get("alpha_values", [])
    if not isinstance(raw_alphas, (list, tuple)):
        raise ConfigError("alpha_values", "expected a list")
    alpha_values = tuple(
        parse_real(a, f"alpha_values[{i}]") for i, a in enumerate(raw_alphas)
    )

    genus = _expect_int(data.get("genus", RunConfig.genus), "genus", 0)

    triple = data.get("triple")
    if triple is not None:
        if not isinstance(triple, (list, tuple)) or len(triple) != 4:
            raise ConfigError("triple", "expected [n1, n2, d1, d2]")
        triple = tuple(_expect_int(v, f"triple[{i}]") for i, v in enumerate(triple))
    sigma = data.get("sigma")
    if sigma is not None:
        sigma = _canonical_real(sigma, "sigma")

    solver_data = data.get("solver", {})
    if not isinstance(solver_data, dict):
        raise ConfigError("solver", "expected an object")
    _reject_unknown(solver_data, [f.name for f in dataclasses.fields(SolverConfig)], "solver")
    kwargs = dict(solver_data)
    if "newton_tol" in kwargs:
        kwargs["newton_tol"] = parse_real(kwargs["newton_tol"], "solver.newton_tol")
    try:
        solver = SolverConfig(**kwargs)
    except ValueError as exc:  # SolverConfig's message starts with the field name
        raise ConfigError(f"solver.{str(exc).split()[0]}", str(exc)) from None

    schedule = data.get("schedule", {})
    if not isinstance(schedule, dict):
        raise ConfigError("schedule", "expected an object")
    _reject_unknown(schedule, ("alpha_targets", "max_step_halvings"), "schedule")
    targets = schedule.get("alpha_targets")
    if targets is not None:
        if not isinstance(targets, (list, tuple)):
            raise ConfigError("schedule.alpha_targets", "expected a list or null")
        targets = tuple(
            parse_real(a, f"schedule.alpha_targets[{i}]") for i, a in enumerate(targets)
        )
    halvings = _expect_int(schedule.get("max_step_halvings", RunConfig.max_step_halvings),
                           "schedule.max_step_halvings", 0)

    output = data.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("output", "expected an object")
    _reject_unknown(output, ("record_path", "fields_csv", "sweep_jsonl", "summary_csv"),
                    "output")

    def _opt_path(key, default=None):
        value = output.get(key, default)
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"output.{key}", "expected a path string or null")
        return value

    summary = _opt_path("summary_csv", RunConfig.summary_csv)
    if summary is None:
        raise ConfigError("output.summary_csv", "expected a path string")

    return RunConfig(
        command=command,
        surface_model=model,
        surface_resolution=resolution,
        divisor=divisor,
        tau=tau,
        alpha=alpha,
        alpha_values=alpha_values,
        genus=genus,
        triple=triple,
        sigma=sigma,
        solver=solver,
        schedule_targets=targets,
        max_step_halvings=halvings,
        record_path=_opt_path("record_path"),
        fields_csv=_opt_path("fields_csv"),
        sweep_jsonl=_opt_path("sweep_jsonl"),
        summary_csv=summary,
    )


def _build_divisor(config: RunConfig) -> Divisor:
    if not config.divisor:
        raise ConfigError("divisor", "at least one divisor point is required")
    points, mults = [], []
    for entry in config.divisor:
        if entry[0] == "inf":
            points.append(POINT_AT_INFINITY)
            mults.append(entry[1])
        else:
            points.append((entry[0], entry[1]))
            mults.append(entry[2])
    try:
        return Divisor(points=tuple(points), multiplicities=tuple(mults))
    except ValueError as exc:
        raise ConfigError("divisor", str(exc)) from None


def _frac_str(value) -> Optional[str]:
    if value is None:
        return None
    if isinstance(value, float) and math.isinf(value):
        return None
    return str(Fraction(value))


def _record(config: RunConfig, *, verdict=None, report=None,
            wall_time=0.0, grid: Optional[SurfaceGrid] = None) -> dict:
    return {
        "config": config.to_dict(),
        "verdict": verdict,
        "report": None if report is None else report.to_dict(),
        "identity": None if report is None else report.identity.to_dict(),
        "wall_time": wall_time,
        "version": __version__,
        "grid_checksum": None if grid is None else grid.checksum,
    }


def _dump_fields(state, path: str) -> None:
    grid = state.spec.grid
    density = metric_density(state)
    try:
        s_values = scalar_curvature(grid, conformal_exponent(state)).values
    except ValueError:
        s_values = [math.nan] * grid.node_coords.shape[0]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "y", "f", "v", "density", "S"])
        coords = grid.node_coords
        for i in range(coords.shape[0]):
            writer.writerow([
                repr(float(coords[i, 0])), repr(float(coords[i, 1])),
                repr(float(state.f.values[i])), repr(float(state.v.values[i])),
                repr(float(density.values[i])), repr(float(s_values[i])),
            ])


def _solve_setup(config: RunConfig) -> tuple[SurfaceGrid, SectionData]:
    grid = build_grid(config.surface_model, config.surface_resolution)
    divisor = _build_divisor(config)
    try:
        section = build_section(grid, divisor)
    except ValueError as exc:
        raise ConfigError("divisor", str(exc)) from None
    return grid, section


def _has_default_schedule(config: RunConfig) -> bool:
    return (config.schedule_targets is None
            and config.max_step_halvings == RunConfig.max_step_halvings)


def _reject_schedule(config: RunConfig) -> None:
    """Commands other than SolveGravitating run no configurable continuation."""
    if not _has_default_schedule(config):
        raise ConfigError("schedule", f"{config.command} does not take a continuation schedule")


def _schedule_for(config: RunConfig, alpha: float) -> Optional[ContinuationSchedule]:
    if _has_default_schedule(config):
        return None
    targets = config.schedule_targets
    if targets is None:
        targets = default_alpha_targets(alpha)
    if not targets or targets[-1] != alpha:
        raise ConfigError("schedule.alpha_targets", f"must end at alpha = {alpha}")
    try:
        return ContinuationSchedule(targets, config.max_step_halvings)
    except ValueError as exc:
        raise ConfigError("schedule.alpha_targets", str(exc)) from None


def run(config: RunConfig) -> dict:
    """Dispatch one non-sweep command; returns the result record."""
    start = time.perf_counter()
    if config.command == "Classify":
        divisor = _build_divisor(config)
        cls = classify_divisor(divisor)
        verdict = {
            "verdict": cls.verdict.value,
            "witness": list(cls.witness) if isinstance(cls.witness, tuple) else cls.witness,
        }
        return _record(config, verdict=verdict, wall_time=time.perf_counter() - start)

    if config.command == "Oracle":
        divisor = _build_divisor(config)
        report = existence_oracle(
            config.genus, divisor, config.tau_rational, config.alpha_rational,
        )
        return _record(config, verdict=report.to_dict(),
                       wall_time=time.perf_counter() - start)

    if config.command == "Triple":
        if config.triple is None:
            raise ConfigError("triple", "the Triple command requires [n1, n2, d1, d2]")
        try:
            sigma_m, sigma_big = sigma_range(config.triple)
        except ValueError as exc:
            raise ConfigError("triple", str(exc)) from None
        verdict = {
            "triple": list(config.triple),
            "sigma_m": _frac_str(sigma_m),
            "sigma_M": _frac_str(sigma_big),
            "sigma": None,
            "degree": None,
            "slope": None,
        }
        if config.sigma is not None:
            sigma = _as_fraction(config.sigma, "sigma")
            deg, slope = sigma_slope(config.triple, sigma)
            verdict["sigma"] = str(sigma)
            verdict["degree"] = _frac_str(deg)
            verdict["slope"] = _frac_str(slope)
        return _record(config, verdict=verdict, wall_time=time.perf_counter() - start)

    if config.command in ("SolveVortex", "SolveGravitating", "SolveEB"):
        grid, section = _solve_setup(config)
        tau, alpha = config.tau_value, config.alpha_value
        try:
            if config.command == "SolveVortex":
                _reject_schedule(config)
                state, report = solve_vortex(grid, section, tau, config.solver)
            elif config.command == "SolveGravitating":
                if alpha < 0.0:
                    raise ConfigError("alpha", "must be >= 0")
                state, report = solve_gravitating(
                    grid, section, tau, alpha,
                    _schedule_for(config, alpha), config.solver,
                )
            else:
                if alpha != 0.0:
                    raise ConfigError(
                        "alpha", "the EB coupling is determined by tau and N; leave alpha at 0"
                    )
                _reject_schedule(config)
                state, report = solve_eb(grid, section, tau, config.solver)
        except ValueError as exc:  # solve_eb rejects the torus, then N >= tau/2
            field = "config" if config.command != "SolveEB" else (
                "tau" if config.surface_model == "sphere" else "surface.model")
            raise ConfigError(field, str(exc)) from None
        if config.fields_csv is not None:
            _dump_fields(state, config.fields_csv)
        return _record(config, report=report, wall_time=time.perf_counter() - start, grid=grid)

    raise ConfigError("command", f"unhandled command {config.command!r}")


def sweep_alpha(config: RunConfig) -> list[dict]:
    """Warm-started sweep over ascending couplings; one record per alpha.

    Each record echoes the sweep config with ``alpha`` set to the coupling
    it reports on, so the summary and the JSONL stream identify their rows.
    Failures are recorded and the sweep carries on, warm-starting from the
    last converged state.
    """
    alphas = config.alpha_values
    if not alphas:
        raise ConfigError("alpha_values", "a sweep needs at least one alpha")
    if alphas[0] != 0.0:
        raise ConfigError("alpha_values[0]", "the first alpha must be 0 (continuation anchor)")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ConfigError("alpha_values", "alphas must be strictly ascending")
    _reject_schedule(config)
    grid, section = _solve_setup(config)
    tau = config.tau_value

    records = []
    last_good = None
    for alpha in alphas:
        start = time.perf_counter()
        if alpha == 0.0 or last_good is None:
            state, report = solve_gravitating(
                grid, section, tau, alpha, None, config.solver,
            )
        else:
            state, report = advance_gravitating(last_good, alpha, config.solver)
        if report.converged:
            last_good = state
        echo = dataclasses.replace(config, alpha=alpha)
        records.append(_record(echo, report=report, wall_time=time.perf_counter() - start,
                               grid=grid))
    return records


def _write_summary(records: list[dict], path: str) -> None:
    deterministic = ["iterations", "alpha_reached", "failure_reason", "coarse_resolution"]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["alpha", "converged", "final_residual", "min_density", "gauss_bonnet"]
                        + deterministic)  # None is written as an empty cell
        for rec in records:
            writer.writerow([
                repr(float(rec["config"]["alpha"])),
                "true" if rec["report"]["converged"] else "false",
                repr(float(rec["report"]["final_residual"])),
                repr(float(rec["identity"]["min_density"])),
                repr(float(rec["identity"]["gauss_bonnet"])),
            ] + [rec["report"][key] for key in deterministic])


def _apply_overrides(data: dict, pairs: list) -> dict:
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError("--set", f"expected key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(key, "path does not address an object")
        node[parts[-1]] = value
    return data


def _load_config(args, command: str) -> RunConfig:
    data: dict = {}
    if args.config is not None:
        try:
            with open(args.config) as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ConfigError("--config", str(exc)) from None
        except json.JSONDecodeError as exc:
            raise ConfigError("--config", f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("--config", "expected a JSON object")
    for key in ("surface", "output"):
        if key in data and not isinstance(data[key], dict):
            raise ConfigError(key, "expected an object")

    for name in ("tau", "alpha", "sigma"):
        value = getattr(args, name, None)
        if value is not None:
            data[name] = value
    if getattr(args, "model", None) is not None:
        data.setdefault("surface", {})["model"] = args.model
    if getattr(args, "resolution", None) is not None:
        data.setdefault("surface", {})["resolution"] = args.resolution
    if getattr(args, "genus", None) is not None:
        data["genus"] = args.genus
    if getattr(args, "alphas", None) is not None:
        data["alpha_values"] = [a for a in args.alphas.split(",") if a]
    if getattr(args, "triple", None) is not None:
        parts = args.triple.split(",")
        if len(parts) != 4:
            raise ConfigError("--triple", "expected n1,n2,d1,d2")
        try:
            data["triple"] = [int(p) for p in parts]
        except ValueError:
            raise ConfigError("--triple", "expected four integers") from None
    if getattr(args, "fields_csv", None) is not None:
        data.setdefault("output", {})["fields_csv"] = args.fields_csv
    if getattr(args, "record", None) is not None:
        key = "sweep_jsonl" if command == "SweepAlpha" else "record_path"
        data.setdefault("output", {})[key] = args.record
    if getattr(args, "summary_csv", None) is not None:
        data.setdefault("output", {})["summary_csv"] = args.summary_csv
    _apply_overrides(data, args.set or [])
    data["command"] = command
    return config_from_dict(data)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravortex",
        description="Vortex, gravitating-vortex, and Einstein-Bogomol'nyi solves "
                    "on area-2*pi model surfaces, with exact stability oracles.",
    )
    parser.add_argument("--version", action="version", version=f"gravortex {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config field (dotted path, JSON value)")

    p = sub.add_parser("classify", help="GIT stability of a divisor on the sphere")
    common(p)

    p = sub.add_parser("solve", help="run one solve")
    common(p)
    p.add_argument("--kind", choices=sorted(_SOLVE_KINDS), default="vortex")
    p.add_argument("--model", choices=["torus", "sphere"])
    p.add_argument("--resolution", type=int)
    p.add_argument("--tau")
    p.add_argument("--alpha")
    p.add_argument("--fields-csv", dest="fields_csv")
    p.add_argument("--record", help="also write the record to this path")

    p = sub.add_parser("sweep", help="warm-started sweep over couplings")
    common(p)
    p.add_argument("--model", choices=["torus", "sphere"])
    p.add_argument("--resolution", type=int)
    p.add_argument("--tau")
    p.add_argument("--alphas", help="comma-separated couplings starting at 0")
    p.add_argument("--record", help="JSONL output path")
    p.add_argument("--summary-csv", dest="summary_csv")

    p = sub.add_parser("triple", help="slope arithmetic for holomorphic triples")
    common(p)
    p.add_argument("--triple", help="n1,n2,d1,d2")
    p.add_argument("--sigma")

    p = sub.add_parser("oracle", help="existence verdict from the classification theorems")
    common(p)
    p.add_argument("--genus", type=int)
    p.add_argument("--tau")
    p.add_argument("--alpha")
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        if args.subcommand == "solve":
            command = _SOLVE_KINDS[args.kind]
        elif args.subcommand == "sweep":
            command = "SweepAlpha"
        elif args.subcommand == "classify":
            command = "Classify"
        elif args.subcommand == "triple":
            command = "Triple"
        else:
            command = "Oracle"
        config = _load_config(args, command)

        if command == "SweepAlpha":
            records = sweep_alpha(config)
            lines = [json.dumps(rec, sort_keys=True) for rec in records]
            for line in lines:
                print(line)
            if config.sweep_jsonl is not None:
                with open(config.sweep_jsonl, "w") as handle:
                    handle.write("\n".join(lines) + "\n")
            _write_summary(records, config.summary_csv)
            return 0

        record = run(config)
        line = json.dumps(record, sort_keys=True)
        print(line)
        if config.record_path is not None:
            with open(config.record_path, "w") as handle:
                handle.write(line + "\n")
        if record["report"] is not None and not record["report"]["converged"]:
            return 2
        return 0
    except ConfigError as exc:
        print(json.dumps({"error": {"field": exc.path, "message": exc.message}},
                         sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
