"""JSON descriptors for systems, states, effects, unitaries, and experiments.

Complex matrices travel as row-major [real, imag] pairs with an explicit
shape; quantum states travel in amplitude or density form, classical ones as
probability vectors.  These descriptors are what the command-line interface
reads and writes.
"""

from __future__ import annotations

import importlib.resources
import json
import math

import numpy as np

from .core import (
    CLASSICAL,
    QUANTUM,
    Effect,
    StateVector,
    SystemType,
    ValidationError,
    effect_from_matrix,
    effect_matrix,
    density_matrix,
    ket_state,
    state_from_density,
)
from .paths import Path, PathExperiment, make_experiment


def complex_matrix_to_dict(mat: np.ndarray) -> dict:
    mat = np.asarray(mat, dtype=complex)
    return {
        "shape": list(mat.shape),
        "entries": [[float(z.real), float(z.imag)] for z in mat.reshape(-1)],
    }


def _field(data: object, key: str, what: str) -> object:
    if not isinstance(data, dict) or key not in data:
        raise ValidationError(f"malformed {what} descriptor: no key {key!r} in {data!r}")
    return data[key]


# as in config files, a bool is no number and a float no integer
_JSON_KINDS = {
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}
_JSON_KINDS["non-negative integer"] = lambda v: _JSON_KINDS["integer"](v) and v >= 0
_JSON_KINDS["[real, imag] pair"] = lambda v: (
    isinstance(v, list) and len(v) == 2 and all(map(_JSON_KINDS["number"], v)))


def _json_list(values: object, kind: str, what: str) -> list:
    """values, once it is a JSON list whose every item is of the kind."""
    bad = [v for v in values if not _JSON_KINDS[kind](v)] if isinstance(values, list) else [values]
    if bad:
        raise ValidationError(f"{what}: expected JSON {kind}s, got {bad[0]!r}")
    return values


def complex_matrix_from_dict(data: dict) -> np.ndarray:
    shape = _json_list(_field(data, "shape", "matrix"), "non-negative integer", "matrix shape")
    pairs = _json_list(_field(data, "entries", "matrix"), "[real, imag] pair", "matrix entries")
    if len(pairs) != math.prod(shape):
        raise ValidationError(
            f"descriptor holds {len(pairs)} entries for shape {tuple(shape)}"
        )
    return np.array([complex(re, im) for re, im in pairs]).reshape(shape)


def system_to_dict(system: SystemType) -> dict:
    return {"theory": system.theory, "dim": system.dim, "factors": list(system.factors)}


def system_from_dict(data: dict) -> SystemType:
    theory = str(_field(data, "theory", "system"))
    (dim,) = _json_list([_field(data, "dim", "system")], "integer", "system dim")
    factors = _json_list(data.get("factors", []), "integer", "system factors")
    return SystemType(theory, dim, tuple(factors))


def state_to_dict(state: StateVector) -> dict:
    base = {"system": system_to_dict(state.system)}
    if state.system.theory == QUANTUM:
        base["form"] = "density"
        base["matrix"] = complex_matrix_to_dict(density_matrix(state))
    else:
        base["form"] = "probabilities"
        base["values"] = [float(x) for x in state.coeffs]
    return base


def state_from_dict(data: dict) -> StateVector:
    system = system_from_dict(_field(data, "system", "state"))
    form = data.get("form")
    if form == "density":
        return state_from_density(
            system, complex_matrix_from_dict(_field(data, "matrix", "state")))
    if form == "amplitude":
        pairs = _json_list(_field(data, "amplitudes", "state"), "[real, imag] pair", "amplitudes")
        return ket_state(system, np.array([complex(re, im) for re, im in pairs]))
    if form == "probabilities":
        if system.theory != CLASSICAL:
            raise ValidationError("probability vectors describe classical states")
        values = _json_list(_field(data, "values", "state"), "number", "state values")
        return StateVector(system, values)
    raise ValidationError(f"unknown state form {form!r}")


def effect_to_dict(effect: Effect) -> dict:
    base = {"system": system_to_dict(effect.system)}
    if effect.system.theory == QUANTUM:
        base["form"] = "operator"
        base["matrix"] = complex_matrix_to_dict(effect_matrix(effect))
    else:
        base["form"] = "values"
        base["values"] = [float(x) for x in effect.coeffs]
    return base


def effect_from_dict(data: dict) -> Effect:
    system = system_from_dict(_field(data, "system", "effect"))
    form = data.get("form")
    if form == "operator":
        return effect_from_matrix(
            system, complex_matrix_from_dict(_field(data, "matrix", "effect")))
    if form == "values":
        if system.theory != CLASSICAL:
            raise ValidationError("plain value vectors describe classical effects")
        values = _json_list(_field(data, "values", "effect"), "number", "effect values")
        return Effect(system, values)
    raise ValidationError(f"unknown effect form {form!r}")


def experiment_to_dict(experiment: PathExperiment) -> dict:
    return {
        "paths": [
            {"state": state_to_dict(p.state), "effect": effect_to_dict(p.effect)}
            for p in experiment.paths
        ],
    }


def experiment_from_dict(data: dict) -> PathExperiment:
    try:
        if "epsilon_support" in data:
            raise ValidationError("'epsilon_support' is not supported: support is fixed at EPS_EQ")
        paths = [
            Path(state_from_dict(p["state"]), effect_from_dict(p["effect"]))
            for p in data["paths"]
        ]
    except (KeyError, TypeError) as err:
        raise ValidationError(f"malformed experiment descriptor: {err}") from err
    return make_experiment(paths)


def load_schema(command: str) -> dict:
    """Shipped JSON schema for a command-line subcommand's JSON output."""
    name = command.replace("-", "_") + ".schema.json"
    ref = importlib.resources.files("interferlab").joinpath("schemas", name)
    try:
        return json.loads(ref.read_text(encoding="utf-8"))
    except FileNotFoundError as err:
        raise ValidationError(f"no schema shipped for command {command!r}") from err
