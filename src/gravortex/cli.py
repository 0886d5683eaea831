"""Command-line interface, run configuration, and result serialization.

A run is described by a JSON config file (plus ``--set`` overrides); every
physical quantity is normalised to the background area 2*pi convention used
throughout the library.  Result records are deterministic JSON
(``sort_keys``), byte-identical across runs except for the ``wall_time``
field, and echo the full config so they can be re-run.  They are strict JSON:
a non-finite float (an overflowed residual, say) is written as ``null``.

tau, alpha, and sigma accept rational strings ("1/16") as well as numbers;
rational strings are kept exact all the way into the algebraic oracles, so
boundary cases like alpha*tau*N == 1 classify correctly.

Exit codes: 0 success, 1 usage/config error, 2 solver did not converge.  Output files open
before the first solve, so an unwritable path exits 1 at once, with only its error printed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import Optional

from . import __version__
from .equations import conformal_exponent, metric_density, scalar_curvature
from .equations import identity_report  # noqa: F401  (perfbench/tracer.py patches this binding)
from .geometry import POINT_AT_INFINITY, SurfaceGrid, _is_int, build_grid
from .sections import Divisor, SectionData, build_section
from .solvers import SolverConfig, advance_gravitating, solve_eb, solve_gravitating, solve_vortex
from .stability import _frac, classify_divisor, existence_oracle, sigma_range, sigma_slope

_SOLVE_KINDS = {
    "vortex": "SolveVortex",
    "gravitating": "SolveGravitating",
    "eb": "SolveEB",
}
# the command each subcommand runs; "solve" runs the one its --kind names
_SUBCOMMANDS = {
    "classify": "Classify",
    "solve": _SOLVE_KINDS,
    "sweep": "SweepAlpha",
    "triple": "Triple",
    "oracle": "Oracle",
}
COMMANDS = tuple(name for entry in _SUBCOMMANDS.values()
                 for name in (entry.values() if isinstance(entry, dict) else [entry]))


class ConfigError(Exception):
    """Invalid configuration; carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


def _as_fraction(value, path: str) -> Fraction:
    try:  # the one reader of exact numbers, its errors as ConfigError on ``path``
        return _frac(value)
    except TypeError:
        raise ConfigError(path, "expected a number") from None
    except (ValueError, ZeroDivisionError):
        raise ConfigError(path, f"cannot parse {value!r} as a number") from None


def _canonical_real(value, path: str):
    """Normalise a numeric config entry: rational strings stay exact strings."""
    frac = _as_fraction(value, path)
    if isinstance(value, str):
        return str(frac)
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range stays exact, like "1e400"
        return str(frac)


def parse_real(value, path: str) -> float:
    """Accept int/float or a rational string like '1/16'; return a finite float."""
    try:
        return float(_as_fraction(value, path))
    except OverflowError:  # a rational beyond the float range
        raise ConfigError(path, "value must be finite") from None


def _expect_int(value, path: str, minimum: Optional[int] = None) -> int:
    if not _is_int(value):
        raise ConfigError(path, "expected an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}")
    return value


def _block(data: dict, name: str, allowed) -> dict:
    """``data[name]`` ({} when absent, ``data`` itself for ""): an object of ``allowed`` keys."""
    node = data.get(name, {}) if name else data
    if not isinstance(node, dict):
        raise ConfigError(name, "expected an object")
    for key in node:
        if key not in allowed:
            raise ConfigError(f"{name}.{key}" if name else key, "unknown field")
    return node


def _set_path(data: dict, path: str, value) -> None:
    """Set the entry at the dotted ``path``, creating the objects on the way (ConfigError on
    the first block on the way that is not one)."""
    *blocks, key = path.split(".")
    node = data
    for i, block in enumerate(blocks):
        node = node.setdefault(block, {})
        if not isinstance(node, dict):
            raise ConfigError(".".join(blocks[: i + 1]), "expected an object")
    node[key] = value


def _nullable(parse):
    return lambda value, path: None if value is None else parse(value, path)


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


def _model(value, path: str) -> str:
    if value not in ("torus", "sphere"):
        raise ConfigError(path, "expected 'torus' or 'sphere'")
    return value


def _tau(value, path: str):
    tau = _canonical_real(value, path)
    if _as_fraction(tau, path) <= 0:
        raise ConfigError(path, "must be positive")
    return tau


def _reals(values, path: str) -> tuple:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(path, "expected a list")
    return tuple(parse_real(a, f"{path}[{i}]") for i, a in enumerate(values))


def _triple(value, path: str) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        raise ConfigError(path, "expected [n1, n2, d1, d2]")
    return tuple(_expect_int(v, f"{path}[{i}]") for i, v in enumerate(value))


def _path_string(value, path: str, nullable: bool = False) -> Optional[str]:
    if value is None and nullable:
        return None
    if not isinstance(value, str):
        raise ConfigError(path, "expected a path string" + (" or null" if nullable else ""))
    return value


# The run-config format: each dotted path of the JSON config (and of --set)
# maps to its RunConfig field and to the parser that validates an entry given
# at that path.  RunConfig holds the defaults; the "solver" block is
# SolverConfig's fields and "command" is set by the subcommand.  Parsing,
# records (RunConfig.to_dict) and the flags (whose dest is their path) all
# read this table.
_FORMAT = {
    "surface.model": ("surface_model", _model),
    "surface.resolution": ("surface_resolution", lambda v, p: _expect_int(v, p, 4)),
    "divisor": ("divisor", _normalize_divisor),
    "tau": ("tau", _tau),
    "alpha": ("alpha", _canonical_real),
    "alpha_values": ("alpha_values", _reals),
    "genus": ("genus", lambda v, p: _expect_int(v, p, 0)),
    "triple": ("triple", _nullable(_triple)),
    "sigma": ("sigma", _nullable(_canonical_real)),
    "output.record_path": ("record_path", lambda v, p: _path_string(v, p, nullable=True)),
    "output.fields_csv": ("fields_csv", lambda v, p: _path_string(v, p, nullable=True)),
    "output.summary_csv": ("summary_csv", _path_string),
}


def _listed(value):
    return [_listed(item) for item in value] if isinstance(value, tuple) else value


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
    record_path: Optional[str] = None
    fields_csv: Optional[str] = None
    summary_csv: str = "sweep_summary.csv"

    @property
    def tau_value(self) -> float:
        return parse_real(self.tau, "tau")

    @property
    def tau_rational(self) -> Fraction:
        return _as_fraction(self.tau, "tau")

    @property
    def alpha_value(self) -> float:
        return parse_real(self.alpha, "alpha")

    @property
    def alpha_rational(self) -> Fraction:
        return _as_fraction(self.alpha, "alpha")

    def to_dict(self) -> dict:
        data = {"command": self.command, "solver": dataclasses.asdict(self.solver)}
        for path, (name, _) in _FORMAT.items():
            _set_path(data, path, _listed(getattr(self, name)))
        return data


def config_from_dict(data: dict) -> RunConfig:
    """Validate a nested config mapping; unknown keys are rejected with their path."""
    if not isinstance(data, dict):
        raise ConfigError("config", "expected a JSON object")
    _block(data, "", {"command", "solver", *(path.split(".")[0] for path in _FORMAT)})
    command = data.get("command")
    if command not in COMMANDS:
        raise ConfigError("command", f"expected one of {', '.join(COMMANDS)}")

    fields = {"command": command}
    for path, (name, parse) in _FORMAT.items():  # absent entries keep RunConfig's defaults
        block, _, key = path.rpartition(".")
        keys = [p.rpartition(".")[2] for p in _FORMAT if p.startswith(f"{block}.")]
        node = _block(data, block, keys) if block else data
        if key in node:
            fields[name] = parse(node[key], path)

    solver = dict(_block(data, "solver", [f.name for f in dataclasses.fields(SolverConfig)]))
    if "newton_tol" in solver:
        solver["newton_tol"] = parse_real(solver["newton_tol"], "solver.newton_tol")
    try:
        fields["solver"] = SolverConfig(**solver)
    except ValueError as exc:  # SolverConfig's message starts with the field name
        raise ConfigError(f"solver.{str(exc).split()[0]}", str(exc)) from None
    return RunConfig(**fields)


def _build_divisor(config: RunConfig) -> Divisor:
    """The divisor of the normalised ``[x, y, m]`` / ``["inf", m]`` entries."""
    points = tuple(POINT_AT_INFINITY if e[0] == "inf" else (e[0], e[1]) for e in config.divisor)
    try:
        return Divisor(points=points, multiplicities=tuple(e[-1] for e in config.divisor))
    except ValueError as exc:
        raise ConfigError("divisor", str(exc)) from None


def _frac_str(value) -> Optional[str]:
    """``value`` as an exact rational string; None for None and for an infinite float."""
    absent = value is None or (isinstance(value, float) and math.isinf(value))
    return None if absent else str(Fraction(value))


def _finite_or_null(value):
    """``value`` with every non-finite float, however deeply nested, replaced by None."""
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _record(config: RunConfig, *, verdict=None, report=None,
            wall_time=0.0, grid: Optional[SurfaceGrid] = None) -> dict:
    return _finite_or_null({
        "config": config.to_dict(),
        "verdict": verdict,
        "report": None if report is None else report.to_dict(),
        "identity": None if report is None else report.identity.to_dict(),
        "wall_time": wall_time,
        "version": __version__,
        "grid_checksum": None if grid is None else grid.checksum,
    })


def _open_output(path: Optional[str], field: str):
    """``path`` opened for writing (a null context for None); ConfigError on ``field`` if not."""
    if path is None:
        return contextlib.nullcontext()
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise ConfigError(field, str(exc)) from None


def _dump_fields(state, handle) -> None:
    grid = state.spec.grid
    density = metric_density(state)
    try:
        s_values = scalar_curvature(grid, conformal_exponent(state)).values
    except ValueError:
        s_values = [math.nan] * grid.node_coords.shape[0]
    writer = csv.writer(handle)
    writer.writerow(["x", "y", "f", "v", "density", "S"])
    columns = (*grid.node_coords.T, state.f.values, state.v.values, density.values, s_values)
    writer.writerows([repr(float(x)) for x in row] for row in zip(*columns))


def _solve_setup(config: RunConfig) -> tuple[SurfaceGrid, SectionData]:
    grid = build_grid(config.surface_model, config.surface_resolution)
    divisor = _build_divisor(config)
    try:
        section = build_section(grid, divisor)
    except ValueError as exc:
        raise ConfigError("divisor", str(exc)) from None
    return grid, section


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
        with _open_output(config.fields_csv, "output.fields_csv") as fields:
            try:
                if config.command == "SolveGravitating":
                    if alpha < 0.0:
                        raise ConfigError("alpha", "must be >= 0")
                    state, report = solve_gravitating(grid, section, tau, alpha, config.solver)
                else:
                    eb = config.command == "SolveEB"
                    if alpha != 0.0:
                        reason = ("the EB coupling is determined by tau and N" if eb
                                  else "the vortex equations have no coupling")
                        raise ConfigError("alpha", f"{reason}; leave alpha at 0")
                    state, report = (solve_eb if eb else solve_vortex)(grid, section, tau,
                                                                       config.solver)
            except ValueError as exc:  # solve_eb rejects the torus
                field = "surface.model" if config.command == "SolveEB" else "config"
                raise ConfigError(field, str(exc)) from None
            if fields is not None:
                _dump_fields(state, fields)
        return _record(config, report=report, wall_time=time.perf_counter() - start, grid=grid)

    raise ConfigError("command", f"unhandled command {config.command!r}")


def sweep_alpha(config: RunConfig) -> list[dict]:
    """Predictor-corrector sweep over ascending couplings; one record per alpha.

    Each record echoes the sweep config with ``alpha`` set to the coupling
    it reports on, so the summary and the JSONL stream identify their rows.
    Failures are recorded and the sweep carries on from the last certified state, on the
    secant through the last two once there are two and on the quadratic through the last three
    once there are three (``advance_gravitating``).
    """
    alphas = config.alpha_values
    if not alphas:
        raise ConfigError("alpha_values", "a sweep needs at least one alpha")
    if alphas[0] != 0.0:
        raise ConfigError("alpha_values[0]", "the first alpha must be 0 (continuation anchor)")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ConfigError("alpha_values", "alphas must be strictly ascending")
    grid, section = _solve_setup(config)
    tau = config.tau_value

    records = []
    certified = ()  # the last three certified rows
    for alpha in alphas:
        start = time.perf_counter()
        if alpha == 0.0 or not certified:
            state, report = solve_gravitating(grid, section, tau, alpha, config.solver)
        else:
            state, report = advance_gravitating(certified[-1], alpha, config.solver,
                                                certified[:-1])
        if report.converged:
            certified = (*certified[-2:], state)
        echo = dataclasses.replace(config, alpha=alpha)
        records.append(_record(echo, report=report, wall_time=time.perf_counter() - start,
                               grid=grid))
    return records


def _write_summary(records: list[dict], handle) -> None:
    deterministic = ["iterations", "alpha_reached", "failure_reason", "coarse_resolution"]
    writer = csv.writer(handle)
    writer.writerow(["alpha", "converged", "final_residual", "min_density", "gauss_bonnet"]
                    + deterministic)  # None is written as an empty cell
    for rec in records:  # csv writes a float as its repr(), which round-trips exactly
        rep, ident = rec["report"], rec["identity"]
        writer.writerow([rec["config"]["alpha"], "true" if rep["converged"] else "false",
                         rep["final_residual"], ident["min_density"], ident["gauss_bonnet"]]
                        + [rep[key] for key in deterministic])


def _json_float(text: str):
    """A JSON float literal; beyond the float range (``1e400``) its exact string, which the
    number fields read as an exact rational, as they read ``--tau 1e400``."""
    value = float(text)
    return value if math.isfinite(value) else text


def _load_config(args, command: str) -> RunConfig:
    data: dict = {}
    if args.config is not None:
        try:
            with open(args.config) as handle:
                data = json.load(handle, parse_float=_json_float)
        except OSError as exc:
            raise ConfigError("--config", str(exc)) from None
        except json.JSONDecodeError as exc:
            raise ConfigError("--config", f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("--config", "expected a JSON object")

    flags = {path: value for path, value in vars(args).items()
             if path in _FORMAT and value is not None}
    if "triple" in flags:
        parts = flags["triple"].split(",")
        if len(parts) != 4:
            raise ConfigError("--triple", "expected n1,n2,d1,d2")
        try:
            flags["triple"] = [int(p) for p in parts]
        except ValueError:
            raise ConfigError("--triple", "expected four integers") from None
    for path, value in flags.items():
        _set_path(data, path, value)
    for pair in args.set or []:
        if "=" not in pair:
            raise ConfigError("--set", f"expected key=value, got {pair!r}")
        path, raw = pair.split("=", 1)
        try:
            value = json.loads(raw, parse_float=_json_float)
        except json.JSONDecodeError:
            value = raw
        _set_path(data, path, value)
    data["command"] = command
    return config_from_dict(data)


def _build_parser() -> argparse.ArgumentParser:
    """Each flag's dest is the config path it sets (see _FORMAT)."""
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

    def surface(p):
        p.add_argument("--model", dest="surface.model", choices=["torus", "sphere"])
        p.add_argument("--resolution", dest="surface.resolution", metavar="RESOLUTION", type=int)
        p.add_argument("--tau")

    p = sub.add_parser("classify", help="GIT stability of a divisor on the sphere")
    common(p)

    p = sub.add_parser("solve", help="run one solve")
    common(p)
    p.add_argument("--kind", choices=sorted(_SOLVE_KINDS), default="vortex")
    surface(p)
    p.add_argument("--alpha")
    p.add_argument("--fields-csv", dest="output.fields_csv", metavar="FIELDS_CSV")
    p.add_argument("--record", dest="output.record_path", metavar="RECORD",
                   help="also write the record to this path")

    p = sub.add_parser("sweep", help="warm-started sweep over couplings")
    common(p)
    surface(p)
    p.add_argument("--alphas", dest="alpha_values", metavar="ALPHAS",
                   type=lambda text: [a for a in text.split(",") if a],
                   help="comma-separated couplings starting at 0")
    p.add_argument("--record", dest="output.record_path", metavar="RECORD",
                   help="JSONL output path")
    p.add_argument("--summary-csv", dest="output.summary_csv", metavar="SUMMARY_CSV")

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
        command = _SUBCOMMANDS[args.subcommand]
        if args.subcommand == "solve":
            command = command[args.kind]
        config = _load_config(args, command)

        sweep = command == "SweepAlpha"
        # the records' file and the other output are both open while the solves run
        paths = {config.record_path, config.summary_csv if sweep else config.fields_csv}
        if None not in paths and len({os.path.realpath(p) for p in paths}) < 2:
            raise ConfigError("output.record_path", "one file cannot hold two outputs")
        with (_open_output(config.record_path, "output.record_path") as record,
              _open_output(config.summary_csv if sweep else None, "output.summary_csv") as summary):
            records = sweep_alpha(config) if sweep else [run(config)]
            # _record wrote non-finite floats as None, so the records are strict JSON
            text = "".join(json.dumps(r, sort_keys=True, allow_nan=False) + "\n" for r in records)
            print(text, end="")
            if record is not None:
                record.write(text)
            if sweep:
                _write_summary(records, summary)
                return 0
        report = records[0]["report"]
        return 2 if report is not None and not report["converged"] else 0
    except ConfigError as exc:
        print(json.dumps({"error": {"field": exc.path, "message": exc.message}},
                         sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
