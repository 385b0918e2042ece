"""Tests for the JSON descriptors and shipped output schemas."""

import math

import numpy as np
import pytest

from interferlab import (
    ValidationError,
    classical_system,
    complex_matrix_from_dict,
    complex_matrix_to_dict,
    density_matrix,
    ket_state,
    load_schema,
    quantum_system,
    random_state,
    state_from_dict,
)

QUBIT = {"theory": "quantum", "dim": 2}

# a literal state descriptor on each system
STATE_DOCS = {
    quantum_system(3): {
        "system": {"theory": "quantum", "dim": 3},
        "form": "amplitude",
        "amplitudes": [[1, 0], [0, 0], [0, 0]],
    },
    classical_system(4): {
        "system": {"theory": "classical", "dim": 4},
        "form": "probabilities",
        "values": [0.25, 0.25, 0.25, 0.25],
    },
    quantum_system(4, (2, 2)): {
        "system": {"theory": "quantum", "dim": 4, "factors": [2, 2]},
        "form": "amplitude",
        "amplitudes": [[0, 0], [0, 1], [0, 0], [0, 0]],
    },
}


def system_from_dict(doc):
    """Read a system descriptor where the package reads one: in a state descriptor.

    The state has no form, so a system the reader accepts ends in an unknown
    form error, which fails the caller's check for a rejected system.
    """
    try:
        state_from_dict({"system": doc})
    except ValidationError as err:
        assert "unknown state form" not in str(err), f"system {doc!r} was accepted"
        raise


def test_complex_matrix_round_trip():
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    doc = complex_matrix_to_dict(mat)
    assert doc["shape"] == [3, 2]
    assert len(doc["entries"]) == 6
    back = complex_matrix_from_dict(doc)
    assert np.max(np.abs(back - mat)) < 1e-15


def test_complex_matrix_rejects_malformed_descriptors():
    with pytest.raises(ValidationError):
        complex_matrix_from_dict({"entries": [[1.0, 0.0]]})
    with pytest.raises(ValidationError):
        complex_matrix_from_dict({"shape": [2, 2], "entries": [[1.0, 0.0]]})


@pytest.mark.parametrize("system", list(STATE_DOCS))
def test_system_round_trip(system):
    assert state_from_dict(STATE_DOCS[system]).system == system


def test_system_descriptor_requires_fields():
    with pytest.raises(ValidationError):
        system_from_dict({"dim": 2})


@pytest.mark.parametrize(
    "build,doc",
    [
        (system_from_dict, {"theory": "quantum", "dim": 2.9}),
        (system_from_dict, {"theory": "quantum", "dim": True}),
        (system_from_dict, {"theory": "quantum", "dim": 4, "factors": [2.0, 2]}),
        (system_from_dict, {"theory": "quantum", "dim": 4, "factors": [-2, -2]}),
        (complex_matrix_from_dict, {"shape": [2.9, 2], "entries": [[1, 0]] * 4}),
        (complex_matrix_from_dict, {"shape": [-2, -2], "entries": [[1, 0]] * 4}),
        (complex_matrix_from_dict, {"shape": [1, 1], "entries": [[True, 0]]}),
        (state_from_dict, "amplitude"),
    ],
)
def test_descriptors_take_json_integers_and_numbers_only(build, doc):
    with pytest.raises(ValidationError):
        build(doc)


@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_quantum_state_round_trips_in_density_form(kind):
    rng = np.random.default_rng(5)
    state = random_state(quantum_system(3), rng, kind=kind)
    doc = {
        "system": {"theory": "quantum", "dim": 3},
        "form": "density",
        "matrix": complex_matrix_to_dict(density_matrix(state)),
    }
    back = state_from_dict(doc)
    assert np.max(np.abs(back.coeffs - state.coeffs)) < 1e-12


def test_amplitude_form_builds_the_matching_pure_state():
    amps = np.array([1.0, 1j]) / math.sqrt(2.0)
    doc = {
        "system": QUBIT,
        "form": "amplitude",
        "amplitudes": [[float(a.real), float(a.imag)] for a in amps],
    }
    state = state_from_dict(doc)
    want = density_matrix(ket_state(quantum_system(2), amps))
    assert np.max(np.abs(density_matrix(state) - want)) < 1e-12


def test_classical_state_round_trips_as_probabilities():
    state = random_state(classical_system(4), np.random.default_rng(7))
    doc = {
        "system": {"theory": "classical", "dim": 4},
        "form": "probabilities",
        "values": [float(x) for x in state.coeffs],
    }
    back = state_from_dict(doc)
    assert np.max(np.abs(back.coeffs - state.coeffs)) < 1e-12


def test_state_form_guards():
    with pytest.raises(ValidationError):
        state_from_dict({"system": QUBIT, "form": "bloch"})
    with pytest.raises(ValidationError):
        state_from_dict(
            {"system": QUBIT, "form": "probabilities", "values": [0.5, 0.5]}
        )


@pytest.mark.parametrize(
    "command",
    ["mz-sweep", "sorkin", "kickback", "deutsch", "exchange", "phase-order"],
)
def test_every_command_ships_a_schema(command):
    schema = load_schema(command)
    assert schema["$schema"].endswith("2020-12/schema")
    assert "metadata" in schema["required"]


def test_unknown_command_has_no_schema():
    with pytest.raises(ValidationError):
        load_schema("teleport")
