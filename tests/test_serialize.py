"""Tests for the JSON descriptors and shipped output schemas."""

import math

import numpy as np
import pytest

from interferlab import (
    ValidationError,
    basis_experiment,
    classical_system,
    complex_matrix_from_dict,
    complex_matrix_to_dict,
    density_matrix,
    effect_from_dict,
    effect_matrix,
    effect_to_dict,
    experiment_from_dict,
    experiment_to_dict,
    haar_unitary,
    ket_state,
    load_schema,
    make_experiment,
    Path,
    projector_effect,
    quantum_system,
    random_effect,
    random_state,
    state_from_dict,
    state_to_dict,
    system_from_dict,
    system_to_dict,
)


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


@pytest.mark.parametrize(
    "system",
    [quantum_system(3), classical_system(4), quantum_system(4, (2, 2))],
)
def test_system_round_trip(system):
    assert system_from_dict(system_to_dict(system)) == system


def test_system_descriptor_requires_fields():
    with pytest.raises(ValidationError):
        system_from_dict({"dim": 2})


@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_quantum_state_round_trips_in_density_form(kind):
    rng = np.random.default_rng(5)
    state = random_state(quantum_system(3), rng, kind=kind)
    doc = state_to_dict(state)
    assert doc["form"] == "density"
    back = state_from_dict(doc)
    assert np.max(np.abs(back.coeffs - state.coeffs)) < 1e-12


def test_amplitude_form_builds_the_matching_pure_state():
    amps = np.array([1.0, 1j]) / math.sqrt(2.0)
    doc = {
        "system": system_to_dict(quantum_system(2)),
        "form": "amplitude",
        "amplitudes": [[float(a.real), float(a.imag)] for a in amps],
    }
    state = state_from_dict(doc)
    want = density_matrix(ket_state(quantum_system(2), amps))
    assert np.max(np.abs(density_matrix(state) - want)) < 1e-12


def test_classical_state_round_trips_as_probabilities():
    state = random_state(classical_system(4), np.random.default_rng(7))
    doc = state_to_dict(state)
    assert doc["form"] == "probabilities"
    back = state_from_dict(doc)
    assert np.max(np.abs(back.coeffs - state.coeffs)) < 1e-12


def test_state_form_guards():
    with pytest.raises(ValidationError):
        state_from_dict({"system": system_to_dict(quantum_system(2)), "form": "bloch"})
    with pytest.raises(ValidationError):
        state_from_dict(
            {
                "system": system_to_dict(quantum_system(2)),
                "form": "probabilities",
                "values": [0.5, 0.5],
            }
        )


def test_effect_round_trips_on_both_backends():
    rng = np.random.default_rng(11)
    quantum = random_effect(quantum_system(3), rng)
    doc = effect_to_dict(quantum)
    assert doc["form"] == "operator"
    back = effect_from_dict(doc)
    assert np.max(np.abs(effect_matrix(back) - effect_matrix(quantum))) < 1e-12
    classical = random_effect(classical_system(3), rng)
    back = effect_from_dict(effect_to_dict(classical))
    assert np.max(np.abs(back.coeffs - classical.coeffs)) < 1e-12


def test_effect_form_guards():
    with pytest.raises(ValidationError):
        effect_from_dict({"system": system_to_dict(quantum_system(2)), "form": "povm"})
    with pytest.raises(ValidationError):
        effect_from_dict(
            {
                "system": system_to_dict(quantum_system(2)),
                "form": "values",
                "values": [1.0, 0.0],
            }
        )


@pytest.mark.parametrize(
    "system", [quantum_system(2), quantum_system(3), classical_system(3)]
)
def test_experiment_round_trip_preserves_paths(system):
    experiment = basis_experiment(system)
    doc = experiment_to_dict(experiment)
    assert set(doc) == {"paths"}
    back = experiment_from_dict(doc)
    assert back.system == system
    for original, restored in zip(experiment.paths, back.paths):
        assert np.max(np.abs(original.state.coeffs - restored.state.coeffs)) < 1e-12
        assert np.max(np.abs(original.effect.coeffs - restored.effect.coeffs)) < 1e-12


def test_rotated_experiment_round_trip():
    system = quantum_system(3)
    v = haar_unitary(3, np.random.default_rng(13))
    paths = [
        Path(ket_state(system, v[:, k]), projector_effect(system, v[:, k]))
        for k in range(3)
    ]
    experiment = make_experiment(paths)
    back = experiment_from_dict(experiment_to_dict(experiment))
    for original, restored in zip(experiment.paths, back.paths):
        assert np.max(np.abs(original.state.coeffs - restored.state.coeffs)) < 1e-12
        assert np.max(np.abs(original.effect.coeffs - restored.effect.coeffs)) < 1e-12


def test_experiment_descriptor_guards():
    with pytest.raises(ValidationError):
        experiment_from_dict({})
    with pytest.raises(ValidationError):
        experiment_from_dict(None)


def test_experiment_descriptor_rejects_a_support_threshold():
    doc = experiment_to_dict(basis_experiment(quantum_system(2)))
    with pytest.raises(ValidationError, match="epsilon_support"):
        experiment_from_dict({**doc, "epsilon_support": 1e-7})


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
