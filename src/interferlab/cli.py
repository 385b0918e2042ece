"""Reproducible command-line experiment runs with JSON/CSV output.

Every subcommand accepts only the options that can change its output.  It
resolves them from flags, an optional JSON config file, and defaults (in that
precedence), echoes the resolved values into the output metadata along with
the backend, dimension, path count and format it derives, and writes
deterministic bytes for a given (command, config, seed) triple.  Exit codes:
0 success, 2 usage or input error, 3 scientific anomaly, 4 numerical-tolerance
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .core import (
    InfeasibleError,
    SystemMismatchError,
    ValidationError,
    _require_count,
    classical_system,
    composite_system,
    ket_state,
    phase_unitary,
    projector_effect,
    quantum_system,
)
from .paths import (
    NotAPhaseError,
    PathRankError,
    basis_experiment,
    detection_order,
)
from .interference import (
    VERDICT_ABSENT,
    VERDICT_PRESENT,
    interference_pattern_sweep,
    second_order_witness,
    third_order_scan_quantum,
)
from .control import (
    anyonic_exchange_unitary,
    build_controlled,
    classify_particle,
    exchange_experiment,
    extract_kickback,
    swap_exchange_unitary,
)
from .oracle import build_oracle, run_deutsch
from .serialize import _JSON_KINDS, complex_matrix_from_dict, state_from_dict

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ANOMALY = 3
EXIT_TOLERANCE = 4

SEED_ENV_VAR = "INTERFERLAB_SEED"

# The most a run may hold in its largest array (for mz-sweep and sorkin, its
# rows), estimated from the resolved input before any work: the channel
# matrix of `exchange --dim 6` (215 MB) and `--dim 7` (738 MB) is under it,
# that of `--dim 8` (2.1 GB) over it.
SIZE_CAP_BYTES = 1 << 30
# Bytes held per mz-sweep grid point and per sorkin trial, as numbers, Python
# floats and output text; tracemalloc peaks read 0.3 KB (CSV) and 1.0 KB (JSON)
# per grid point, 1.9 KB per order-3 trial and 0.4 KB per order-2 phase.
_POINT_BYTES = 1024
_TRIAL_BYTES = 2048

_LIBRARY_ERRORS = (
    ValidationError,
    SystemMismatchError,
    NotAPhaseError,
    PathRankError,
    InfeasibleError,
)


class CliError(Exception):
    """Error carrying a CLI exit code."""

    def __init__(self, message: str, code: int = EXIT_USAGE) -> None:
        super().__init__(message)
        self.code = code


# option -> (type, default, help); None means unset or derived by the command
_OPTIONS: dict[str, tuple] = {
    "theory": (str, "quantum", "backend: quantum or classical"),
    "dim": (int, 2, "dimension of each exchanged factor"),
    "trials": (int, None, "number of sampled trials"),
    "seed": (int, None, f"rng seed (default: ${SEED_ENV_VAR})"),
    "format": (str, None, "output format (default: the first one listed above)"),
    "out": (str, None, "output file (default: stdout)"),
    "config": (str, None, "JSON config file (flags take precedence)"),
    "grid_points": (int, 200, "number of grid points"),
    "angle_min": (float, 0.0, "first grid angle"),
    "angle_max": (float, math.pi, "last grid angle"),
    "order": (int, None, "interference order to scan"),
    "unitaries": (str, None, "JSON file with branch unitaries (row-major [re, im] entries)"),
    "function": (str, None, "function table as a bit string, e.g. 01"),
    "state": (str, None, "sym, antisym, or anyon:THETA"),
    "angles": (str, None, "comma-separated phase angles, e.g. 0,0,1.5"),
}

# option type -> the JSON kind (serialize._JSON_KINDS) a config value must have
_JSON_TYPES = {int: "integer", float: "number", str: "string"}

_SHARED = ("out", "config")

# command -> (help, output formats with the default first, options read beyond _SHARED)
_COMMANDS: dict[str, tuple[str, tuple[str, ...], tuple[str, ...]]] = {
    "mz-sweep": (
        "two-path pattern over a phase grid",
        ("csv", "json"),
        ("grid_points", "angle_min", "angle_max", "format"),
    ),
    "sorkin": (
        "interference-order scan (order 2 or 3)",
        ("json", "csv"),
        ("order", "trials", "seed", "theory", "format"),
    ),
    "kickback": (
        "extract the kicked phase of branch unitaries",
        ("json",),
        ("unitaries", "seed"),
    ),
    "deutsch": ("single-query parity of a two-bit function", ("json",), ("function",)),
    "exchange": ("classify exchange statistics of a state", ("json",), ("state", "seed", "dim")),
    "phase-order": ("detection order of a diagonal phase", ("json",), ("angles",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interferlab",
        description="Path-experiment, interference, kick-back, and oracle runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for command, (summary, formats, own) in _COMMANDS.items():
        description = f"{summary}; output formats: {', '.join(formats)}"
        sp = sub.add_parser(command, help=summary, description=description)
        for key in own + _SHARED:
            cast, _, text = _OPTIONS[key]
            sp.add_argument("--" + key.replace("_", "-"), type=cast, help=text)
    return parser


def _negative_numbers(token: str) -> bool:
    """Whether the token is a number, or a comma list of numbers, led by '-'."""
    try:
        [float(part) for part in token.split(",")]
    except ValueError:
        return False
    return token.startswith("-")


def _join_negative_values(argv: list[str]) -> list[str]:
    """Rewrite `--option -1,2` as `--option=-1,2`.

    argparse takes a token starting with '-' for an option unless it is a
    plain negative number, so values like -1e-3 or -1,2 need the `=` form.
    """
    joined: list[str] = []
    for token in argv:
        option = joined[-1] if joined else ""
        if (
            option.startswith("--")
            and option[2:].replace("-", "_") in _OPTIONS
            and _negative_numbers(token)
        ):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _read_json(path: str, what: str) -> object:
    """The parsed content of a JSON file; exit 2 when it cannot be read or parsed."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise CliError(f"cannot read {what} file: {err}") from err
    except json.JSONDecodeError as err:
        raise CliError(f"{what} file is not valid JSON: {err}") from err


def _resolve_config(command: str, args: argparse.Namespace) -> dict:
    """Merge flags over config-file values over defaults."""
    keys = _COMMANDS[command][2] + _SHARED
    file_values: dict = {}
    if args.config is not None:
        file_values = _read_json(args.config, "config")
        if not isinstance(file_values, dict):
            raise CliError("config file must hold a JSON object")
        unknown = set(file_values) - set(keys)
        if unknown:
            raise CliError(
                f"unknown config keys {sorted(unknown)}; allowed: {sorted(keys)}"
            )
    resolved = {}
    for key in keys:
        cast, default, _ = _OPTIONS[key]
        value = getattr(args, key)
        if value is None and file_values.get(key) is not None:
            value = file_values[key]
            kind = _JSON_TYPES[cast]
            if not _JSON_KINDS[kind](value):
                raise CliError(f"config key {key!r} must be a JSON {kind}, got {value!r}")
            value = cast(value)
        resolved[key] = default if value is None else value
    if "seed" in resolved and resolved["seed"] is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is not None:
            try:
                resolved["seed"] = int(env)
            except ValueError as err:
                raise CliError(f"{SEED_ENV_VAR} is not an integer: {env!r}") from err
    _validate_common(command, resolved)
    return resolved


def _validate_common(command: str, cfg: dict) -> None:
    if cfg.get("theory", "quantum") not in ("quantum", "classical"):
        raise CliError(f"unknown theory {cfg['theory']!r}; use quantum or classical")
    for key, least in (("dim", 2), ("trials", 1), ("seed", 0), ("grid_points", 1)):
        if cfg.get(key) is not None:
            _require_count(cfg[key], least, key.replace("_", "-"))
    for key, value in cfg.items():
        if _OPTIONS[key][0] is float and not math.isfinite(value):
            raise CliError(f"{key.replace('_', '-')} must be finite, got {value!r}")
    if "format" in cfg:
        allowed = _COMMANDS[command][1]
        if cfg["format"] is None:
            cfg["format"] = allowed[0]
        if cfg["format"] not in allowed:
            raise CliError(
                f"{command} supports format {', '.join(allowed)}; got {cfg['format']!r}"
            )


def _require_seed(cfg: dict, command: str) -> int:
    if cfg["seed"] is None:
        raise CliError(
            f"{command} is randomized: pass --seed or set ${SEED_ENV_VAR}"
        )
    return cfg["seed"]


def _require_size(need: int, what: str) -> None:
    """Exit 2 when the estimate of what a run will hold passes SIZE_CAP_BYTES."""
    if need > SIZE_CAP_BYTES:
        raise CliError(
            f"{what} needs {need:,} bytes ({need / 2**30:,.1f} GiB), over the size cap "
            f"of {SIZE_CAP_BYTES:,} bytes ({SIZE_CAP_BYTES / 2**30:,.1f} GiB)"
        )


def _metadata(command: str, cfg: dict, dim: int, paths: int) -> dict:
    """Document skeleton carrying the resolved configuration for provenance.

    Besides the options read, the config records the values the command
    derives: its dimension and number of paths, and, where it has no option
    for them, the quantum backend and the JSON format of this document.
    """
    config = {"theory": "quantum", "format": "json", **cfg, "dim": dim, "paths": paths}
    return {"metadata": {"command": command, "config": {k: config[k] for k in sorted(config)}}}


def _json_document(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_document(header: list[str], rows: list[list[float]]) -> str:
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join(row_format % tuple(row) for row in rows)


def _run_mz_sweep(cfg: dict) -> tuple[str, int]:
    _require_size(_POINT_BYTES * cfg["grid_points"], "the phase grid")
    system = quantum_system(2)
    experiment = basis_experiment(system)
    uniform = np.array([1.0, 1.0]) / math.sqrt(2.0)
    state = ket_state(system, uniform)
    effect = projector_effect(system, uniform)
    deltas = np.linspace(cfg["angle_min"], cfg["angle_max"], cfg["grid_points"])
    grid = np.column_stack([np.zeros_like(deltas), deltas])
    rows = interference_pattern_sweep(state, effect, experiment, grid)[:, 1:].tolist()
    if cfg["format"] == "csv":
        return _csv_document(["delta_phi", "probability"], rows), EXIT_OK
    payload = _metadata("mz-sweep", cfg, 2, 2)
    payload["rows"] = [
        {"delta_phi": dphi, "probability": prob} for dphi, prob in rows
    ]
    return _json_document(payload), EXIT_OK


def _run_sorkin(cfg: dict) -> tuple[str, int]:
    order = cfg["order"]
    if order not in (2, 3):
        raise CliError(f"order must be 2 or 3, got {order}")
    if order == 3 and cfg["theory"] != "quantum":
        raise CliError("the third-order scan runs on the quantum backend only")
    if cfg["trials"] is None:
        cfg["trials"] = 256 if order == 2 else 1000
    randomized = cfg["theory"] == "quantum"
    # the classical scan enumerates its phases and never builds the stack
    if randomized:
        _require_size(_TRIAL_BYTES * cfg["trials"], "the trial stack")
    seed = _require_seed(cfg, "sorkin") if randomized else (cfg["seed"] or 0)
    make = quantum_system if cfg["theory"] == "quantum" else classical_system
    experiment = basis_experiment(make(order))
    if order == 2:
        report = second_order_witness(experiment, seed=seed, phase_samples=cfg["trials"])
    else:
        report = third_order_scan_quantum(experiment, trials=cfg["trials"], seed=seed)
    expected = VERDICT_PRESENT if (order == 2 and randomized) else VERDICT_ABSENT
    if report.verdict == expected:
        code = EXIT_OK
    elif report.verdict in (VERDICT_PRESENT, VERDICT_ABSENT):
        code = EXIT_ANOMALY
    else:
        code = EXIT_TOLERANCE
    if cfg["format"] == "csv":
        n_angles = len(report.samples[0].angles) if report.samples else 0
        header = [f"theta_{i}" for i in range(n_angles)] + ["lhs", "rhs", "residual"]
        rows = [
            [*s.angles, s.lhs, s.rhs, s.residual] for s in report.samples
        ]
        return _csv_document(header, rows), code
    payload = _metadata("sorkin", cfg, order, order)
    payload.update(report.to_json_dict())
    return _json_document(payload), code


def _run_kickback(cfg: dict) -> tuple[str, int]:
    if cfg["unitaries"] is None:
        raise CliError("kickback needs --unitaries FILE")
    seed = _require_seed(cfg, "kickback")
    data = _read_json(cfg["unitaries"], "unitaries")
    if not isinstance(data, dict) or not isinstance(data.get("unitaries"), list):
        raise CliError('unitaries file must hold {"unitaries": [matrix, ...]}')
    try:
        mats = [complex_matrix_from_dict(m) for m in data["unitaries"]]
    except _LIBRARY_ERRORS as err:
        raise CliError(f"bad unitary descriptor: {err}") from err
    _require_count(len(mats), 2, "branch unitary count")
    if mats[0].ndim != 2:
        raise CliError(f"branch 0 has shape {mats[0].shape}, expected a square matrix")
    d_target = mats[0].shape[0]
    _require_size(8 * (len(mats) * d_target) ** 4, "the controlled channel matrix")
    fixed = None
    if "fixed_state" in data and data["fixed_state"] is not None:
        try:
            fixed = state_from_dict(data["fixed_state"])
        except _LIBRARY_ERRORS as err:
            raise CliError(f"bad fixed-state descriptor: {err}") from err
    try:
        controlled = build_controlled(mats, quantum_system(d_target), seed=seed)
    except _LIBRARY_ERRORS as err:
        raise CliError(f"cannot build the controlled transformation: {err}") from err
    try:
        result = extract_kickback(controlled, fixed, seed=seed)
    except ValidationError as err:
        raise CliError(str(err), EXIT_TOLERANCE) from err
    payload = _metadata("kickback", cfg, d_target, len(mats))
    payload.update(result.to_json_dict())
    return _json_document(payload), EXIT_OK


def _run_deutsch(cfg: dict) -> tuple[str, int]:
    bits = cfg["function"]
    if bits is None:
        raise CliError("deutsch needs --function BITS (e.g. --function 01)")
    if len(bits) != 2 or set(bits) - {"0", "1"}:
        raise CliError(f"function must be two bits like 01, got {bits!r}")
    oracle = build_oracle(tuple(int(b) for b in bits))
    result = run_deutsch(oracle)
    payload = _metadata("deutsch", cfg, 2, 2)
    payload["parity"] = result.parity
    payload["queries"] = result.queries
    payload["prob"] = float(result.probability)
    return _json_document(payload), EXIT_OK


def _exchange_state_spec(spec: str) -> tuple[str, float | None]:
    lowered = spec.strip().lower()
    if lowered in ("sym", "antisym"):
        return lowered, None
    if lowered.startswith("anyon:"):
        try:
            theta = float(lowered.partition(":")[2])
        except ValueError as err:
            raise CliError(f"bad anyon angle in {spec!r}: {err}") from err
        if not math.isfinite(theta):
            raise CliError(f"state anyon angle must be finite, got {spec!r}")
        return "anyon", theta
    raise CliError(f"state must be sym, antisym, or anyon:THETA, got {spec!r}")


def _run_exchange(cfg: dict) -> tuple[str, int]:
    if cfg["state"] is None:
        raise CliError("exchange needs --state sym|antisym|anyon:THETA")
    kind, injected = _exchange_state_spec(cfg["state"])
    seed = _require_seed(cfg, "exchange")
    d = cfg["dim"]
    _require_size(8 * (2 * d * d) ** 4, "the controlled exchange channel matrix")
    factor = quantum_system(d)
    system = composite_system(factor, factor)
    amplitudes = np.zeros(d * d, dtype=complex)
    amplitudes[0 * d + 1] = 1.0 / math.sqrt(2.0)
    amplitudes[1 * d + 0] = (-1.0 if kind == "antisym" else 1.0) / math.sqrt(2.0)
    state = ket_state(system, amplitudes)
    if kind == "anyon":
        op = anyonic_exchange_unitary(state, injected)
    else:
        op = swap_exchange_unitary(d)
    try:
        theta = exchange_experiment(state, op, seed=seed)
    except ValidationError as err:
        raise CliError(str(err), EXIT_TOLERANCE) from err
    particle = classify_particle(theta)
    payload = _metadata("exchange", cfg, d, 2)
    payload["class"] = particle.kind.capitalize()
    payload["theta"] = float(particle.theta)
    return _json_document(payload), EXIT_OK


def _run_phase_order(cfg: dict) -> tuple[str, int]:
    if cfg["angles"] is None:
        raise CliError("phase-order needs --angles LIST (e.g. --angles 0,0,1.5)")
    try:
        angles = [float(a) for a in str(cfg["angles"]).split(",")]
    except ValueError as err:
        raise CliError(f"bad angle list {cfg['angles']!r}: {err}") from err
    if not all(map(math.isfinite, angles)):
        raise CliError(f"angles must be finite, got {cfg['angles']!r}")
    _require_count(len(angles), 2, "angle count")
    system = quantum_system(len(angles))
    experiment = basis_experiment(system)
    transformation = phase_unitary(system, angles)
    order = detection_order(transformation, experiment)
    payload = _metadata("phase-order", cfg, len(angles), len(angles))
    payload["angles"] = angles
    payload["order"] = order
    return _json_document(payload), EXIT_OK


_RUNNERS = {
    "mz-sweep": _run_mz_sweep,
    "sorkin": _run_sorkin,
    "kickback": _run_kickback,
    "deutsch": _run_deutsch,
    "exchange": _run_exchange,
    "phase-order": _run_phase_order,
}


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as err:
        raise CliError(f"cannot write output file: {err}") from err


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_join_negative_values(argv))
    except SystemExit as err:
        return int(err.code or 0)
    try:
        cfg = _resolve_config(args.command, args)
        text, code = _RUNNERS[args.command](cfg)
        _emit(text, cfg["out"])
        return code
    except CliError as err:
        print(f"interferlab: error: {err}", file=sys.stderr)
        return err.code
    except _LIBRARY_ERRORS as err:
        print(f"interferlab: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as err:
        detail = f" ({err})" if str(err) else ""
        print(f"interferlab: error: not enough memory for this input{detail}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
