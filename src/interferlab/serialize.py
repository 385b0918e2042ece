"""JSON descriptors for systems, states, effects, unitaries, and experiments.

Complex matrices travel as row-major [real, imag] pairs with an explicit
shape; quantum states travel in amplitude or density form, classical ones as
probability vectors.  These descriptors are what the command-line interface
reads and writes.
"""

from __future__ import annotations

import importlib.resources
import json

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


def complex_matrix_from_dict(data: dict) -> np.ndarray:
    try:
        shape = tuple(int(s) for s in data["shape"])
        entries = data["entries"]
    except (KeyError, TypeError) as err:
        raise ValidationError(f"malformed complex matrix descriptor: {err}") from err
    if len(entries) != int(np.prod(shape)):
        raise ValidationError(
            f"descriptor holds {len(entries)} entries for shape {shape}"
        )
    flat = np.array([complex(re, im) for re, im in entries])
    return flat.reshape(shape)


def system_to_dict(system: SystemType) -> dict:
    return {"theory": system.theory, "dim": system.dim, "factors": list(system.factors)}


def system_from_dict(data: dict) -> SystemType:
    try:
        return SystemType(
            str(data["theory"]), int(data["dim"]), tuple(data.get("factors", ()))
        )
    except (KeyError, TypeError) as err:
        raise ValidationError(f"malformed system descriptor: {err}") from err


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
    system = system_from_dict(data["system"])
    form = data.get("form")
    if form == "density":
        return state_from_density(system, complex_matrix_from_dict(data["matrix"]))
    if form == "amplitude":
        amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
        return ket_state(system, amps)
    if form == "probabilities":
        if system.theory != CLASSICAL:
            raise ValidationError("probability vectors describe classical states")
        return StateVector(system, np.asarray(data["values"], dtype=float))
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
    system = system_from_dict(data["system"])
    form = data.get("form")
    if form == "operator":
        return effect_from_matrix(system, complex_matrix_from_dict(data["matrix"]))
    if form == "values":
        if system.theory != CLASSICAL:
            raise ValidationError("plain value vectors describe classical effects")
        return Effect(system, np.asarray(data["values"], dtype=float))
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
