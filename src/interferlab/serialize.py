"""JSON descriptors for complex matrices and states, and the output schemas.

Complex matrices travel as row-major [real, imag] pairs with an explicit
shape; quantum states travel in amplitude or density form, classical ones as
probability vectors.  The command-line interface reads these descriptors: the
kickback branch unitaries and the optional fixed state.
"""

from __future__ import annotations

import importlib.resources
import json
import math

import numpy as np

from .core import (
    CLASSICAL,
    StateVector,
    SystemType,
    ValidationError,
    ket_state,
    state_from_density,
)


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
    "string": lambda v: isinstance(v, str),
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


def _system_from_dict(data: dict) -> SystemType:
    theory = str(_field(data, "theory", "system"))
    (dim,) = _json_list([_field(data, "dim", "system")], "integer", "system dim")
    factors = _json_list(data.get("factors", []), "integer", "system factors")
    return SystemType(theory, dim, tuple(factors))


def state_from_dict(data: dict) -> StateVector:
    system = _system_from_dict(_field(data, "system", "state"))
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


def load_schema(command: str) -> dict:
    """Shipped JSON schema for a command-line subcommand's JSON output."""
    name = command.replace("-", "_") + ".schema.json"
    ref = importlib.resources.files("interferlab").joinpath("schemas", name)
    try:
        return json.loads(ref.read_text(encoding="utf-8"))
    except FileNotFoundError as err:
        raise ValidationError(f"no schema shipped for command {command!r}") from err
