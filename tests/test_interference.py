"""Tests for interference patterns, restriction choices, and order scans."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from interferlab import (
    EPS_EQ,
    VERDICT_ABSENT,
    VERDICT_PRESENT,
    VERDICT_INCONCLUSIVE,
    EffectChoice,
    NotAPhaseError,
    StateVector,
    SystemMismatchError,
    ValidationError,
    apply,
    basis_effect,
    basis_experiment,
    classical_system,
    detection_order,
    effect_matrix,
    filter_choice,
    filtered_effect,
    haar_unitary,
    identity_transformation,
    interference_pattern_sweep,
    ket_state,
    make_experiment,
    masked_effect,
    pair,
    pattern,
    phase_unitary,
    projector_effect,
    quantum_system,
    second_order_witness,
    SorkinReport,
    SorkinSample,
    sorkin_residual,
    third_order_scan_quantum,
    unit_effect,
    unitary_channel,
    Path,
)


def uniform_pattern(dim):
    """Uniform-superposition pattern over the computational basis experiment."""
    system = quantum_system(dim)
    experiment = basis_experiment(system)
    amps = np.ones(dim) / math.sqrt(dim)
    state = ket_state(system, amps)
    effect = projector_effect(system, amps)
    return system, experiment, state, effect


def test_two_path_pattern_is_cosine_squared():
    system, experiment, state, effect = uniform_pattern(2)
    full = pattern(state, effect, experiment)
    for dphi in np.linspace(0.0, 2.0 * math.pi, 64):
        got = full(phase_unitary(system, [0.0, dphi]))
        assert abs(got - math.cos(dphi / 2.0) ** 2) < 1e-12


def test_pattern_rejects_non_phases():
    system, experiment, state, effect = uniform_pattern(2)
    x = unitary_channel(system, np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(NotAPhaseError):
        pattern(state, effect, experiment)(x)


def test_pattern_values_stay_in_range():
    rng = np.random.default_rng(101)
    system, experiment, state, effect = uniform_pattern(3)
    full = pattern(state, effect, experiment)
    for _ in range(200):
        value = full(phase_unitary(system, rng.uniform(0.0, 2.0 * math.pi, 3)))
        assert -EPS_EQ <= value <= 1.0 + EPS_EQ


def test_filtered_effect_is_the_projector_sandwich():
    rng = np.random.default_rng(103)
    system = quantum_system(3)
    experiment = basis_experiment(system)
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    psi /= np.linalg.norm(psi)
    e = projector_effect(system, psi)
    got = filtered_effect(e, (0, 2), experiment)
    proj = np.diag([1.0, 0.0, 1.0])
    want = proj @ effect_matrix(e) @ proj
    np.testing.assert_allclose(effect_matrix(got), want, atol=1e-12)


def test_masked_effect_zeroes_excluded_outcomes():
    system = classical_system(3)
    experiment = basis_experiment(system)
    e = unit_effect(system)
    got = masked_effect(e, (1,), experiment)
    np.testing.assert_allclose(got.coeffs, [0.0, 1.0, 0.0], atol=1e-12)


def test_restriction_dispatch_is_theory_specific():
    quantum_exp = basis_experiment(quantum_system(2))
    classical_exp = basis_experiment(classical_system(2))
    with pytest.raises(SystemMismatchError):
        masked_effect(unit_effect(quantum_exp.system), (0,), quantum_exp)
    with pytest.raises(SystemMismatchError):
        filtered_effect(unit_effect(classical_exp.system), (0,), classical_exp)


def test_effect_choice_rejects_support_leaks():
    system = quantum_system(3)
    experiment = basis_experiment(system)
    leaky = basis_effect(system, 2)
    with pytest.raises(ValidationError):
        EffectChoice(experiment, {frozenset({0}): leaky})
    with pytest.raises(ValidationError):
        EffectChoice(experiment, {frozenset({0, 1, 2}): basis_effect(system, 0)})


def test_filter_choice_covers_all_proper_subsets():
    system = quantum_system(3)
    experiment = basis_experiment(system)
    choice = filter_choice(unit_effect(system), experiment)
    want = {
        frozenset(s)
        for size in range(1, 3)
        for s in itertools.combinations(range(3), size)
    }
    assert set(choice.assignments) == want


def manual_residual(state, effect, experiment, transformation, choice):
    """Inclusion-exclusion residual computed by direct enumeration in the test."""
    n = experiment.n
    moved = apply(transformation, state)
    lhs = pair(effect, moved)
    rhs = 0.0
    for size in range(1, n):
        for subset in itertools.combinations(range(n), size):
            rhs += (-1.0) ** (n - size + 1) * pair(choice[subset], moved)
    return lhs, rhs, lhs - rhs


def test_three_path_signs_are_pairs_minus_singles():
    rng = np.random.default_rng(107)
    system, experiment, state, effect = uniform_pattern(3)
    choice = filter_choice(effect, experiment)
    t = phase_unitary(system, rng.uniform(0.0, 2.0 * math.pi, 3))
    moved = apply(t, state)
    pairs = sum(
        pair(choice[s], moved) for s in itertools.combinations(range(3), 2)
    )
    singles = sum(
        pair(choice[s], moved) for s in itertools.combinations(range(3), 1)
    )
    lhs, rhs, residual = sorkin_residual(state, effect, experiment, t, choice)
    assert abs(rhs - (pairs - singles)) < 1e-12
    assert abs(residual - (lhs - pairs + singles)) < 1e-12


def test_two_path_signs_are_plus_singles():
    rng = np.random.default_rng(109)
    system, experiment, state, effect = uniform_pattern(2)
    choice = filter_choice(effect, experiment)
    t = phase_unitary(system, [0.0, float(rng.uniform(0.0, 2.0 * math.pi))])
    moved = apply(t, state)
    singles = pair(choice[(0,)], moved) + pair(choice[(1,)], moved)
    _, rhs, _ = sorkin_residual(state, effect, experiment, t, choice)
    assert abs(rhs - singles) < 1e-12


def test_four_path_signs_alternate():
    rng = np.random.default_rng(113)
    system, experiment, state, effect = uniform_pattern(4)
    choice = filter_choice(effect, experiment)
    t = phase_unitary(system, rng.uniform(0.0, 2.0 * math.pi, 4))
    lhs, rhs, residual = sorkin_residual(state, effect, experiment, t, choice)
    want = manual_residual(state, effect, experiment, t, choice)
    assert abs(lhs - want[0]) < 1e-12
    assert abs(rhs - want[1]) < 1e-12
    assert abs(residual - want[2]) < 1e-12


def test_qutrit_residual_closed_forms():
    """Full, pair, and single terms of the uniform qutrit pattern."""
    rng = np.random.default_rng(127)
    system, experiment, state, effect = uniform_pattern(3)
    choice = filter_choice(effect, experiment)
    for _ in range(25):
        theta = rng.uniform(0.0, 2.0 * math.pi, 3)
        t = phase_unitary(system, theta)
        moved = apply(t, state)
        lhs = pair(effect, moved)
        want_lhs = abs(np.exp(1j * theta).sum()) ** 2 / 9.0
        assert abs(lhs - want_lhs) < 1e-12
        for i, j in itertools.combinations(range(3), 2):
            got = pair(choice[(i, j)], moved)
            want = (2.0 + 2.0 * math.cos(theta[i] - theta[j])) / 9.0
            assert abs(got - want) < 1e-12
        for i in range(3):
            assert abs(pair(choice[(i,)], moved) - 1.0 / 9.0) < 1e-12


def test_residual_checks_the_choice_experiment():
    system, experiment, state, effect = uniform_pattern(3)
    other = basis_experiment(quantum_system(4))
    choice = filter_choice(unit_effect(other.system), other)
    t = phase_unitary(system, [0.0, 1.0, 2.0])
    with pytest.raises(SystemMismatchError):
        sorkin_residual(state, effect, experiment, t, choice)


def test_second_order_witness_quantum_hits_half():
    experiment = basis_experiment(quantum_system(2))
    report = second_order_witness(experiment, seed=0)
    assert report.order == 2
    assert report.verdict == VERDICT_PRESENT
    assert abs(report.max_abs_residual - 0.5) < 1e-6
    assert report.witness is not None
    for sample in report.samples:
        assert -EPS_EQ <= sample.lhs <= 1.0 + EPS_EQ


def test_second_order_witness_classical_is_exactly_zero():
    experiment = basis_experiment(classical_system(2))
    report = second_order_witness(experiment, seed=0)
    assert report.verdict == VERDICT_ABSENT
    assert report.max_abs_residual == 0.0
    assert report.witness is None


def test_classical_masked_choice_residual_is_zero():
    system = classical_system(2)
    experiment = basis_experiment(system)
    state = StateVector(system, np.array([0.5, 0.5]))
    effect = basis_effect(system, 0)
    choice = filter_choice(effect, experiment)
    lhs, rhs, residual = sorkin_residual(
        state, effect, experiment, identity_transformation(system), choice
    )
    assert residual == 0.0
    assert abs(lhs - 0.5) < 1e-12


def test_third_order_scan_is_absent_for_quantum():
    experiment = basis_experiment(quantum_system(3))
    report = third_order_scan_quantum(experiment, trials=200, seed=1)
    assert report.order == 3
    assert report.trials == 200
    assert len(report.samples) == 200
    assert report.verdict == VERDICT_ABSENT
    assert report.max_abs_residual < 1e-9
    assert report.witness is None


@pytest.mark.parametrize(
    "residuals, worst, verdict",
    [
        ((), 0.0, VERDICT_ABSENT),
        ((1e-10, -3e-8), 3e-8, VERDICT_INCONCLUSIVE),
        ((0.2, -0.5, 0.5), 0.5, VERDICT_PRESENT),
    ],
)
def test_sorkin_report_derives_its_summary_from_the_samples(residuals, worst, verdict):
    assert [f.name for f in dataclasses.fields(SorkinReport)] == ["order", "samples", "witness"]
    samples = tuple(SorkinSample((), 0.0, 0.0, r) for r in residuals)
    report = SorkinReport(3, samples, None)
    assert report.trials == len(residuals)
    assert report.max_abs_residual == worst
    assert report.verdict == verdict
    assert report.to_json_dict() == {
        "order": 3,
        "trials": len(residuals),
        "max_abs_residual": worst,
        "verdict": verdict,
        "witness": None,
    }


def test_third_order_scan_guards():
    with pytest.raises(SystemMismatchError):
        third_order_scan_quantum(basis_experiment(classical_system(3)))
    with pytest.raises(ValidationError):
        third_order_scan_quantum(basis_experiment(quantum_system(4)))
    with pytest.raises(ValidationError):
        third_order_scan_quantum(basis_experiment(quantum_system(3)), trials=0)


def test_second_order_witness_needs_two_paths():
    with pytest.raises(ValidationError):
        second_order_witness(basis_experiment(quantum_system(3)))


def test_detectable_phase_implies_present_verdict():
    """Random two-path experiments whose phase is pairwise visible."""
    rng = np.random.default_rng(131)
    for trial in range(50):
        v = haar_unitary(2, rng)
        system = quantum_system(2)
        paths = [
            Path(ket_state(system, v[:, i]), projector_effect(system, v[:, i]))
            for i in range(2)
        ]
        experiment = make_experiment(paths)
        dphi = rng.uniform(0.5, 2.0 * math.pi - 0.5)
        u = v @ np.diag(np.exp(1j * np.array([0.0, dphi]))) @ v.conj().T
        t = unitary_channel(system, u)
        assert detection_order(t, experiment) == 2
        report = second_order_witness(experiment, seed=trial, phase_samples=64)
        assert report.verdict == VERDICT_PRESENT


def test_pattern_sweep_rows_and_guards():
    system, experiment, state, effect = uniform_pattern(2)
    grid = [(0.0, 0.0), (0.0, math.pi)]
    rows = interference_pattern_sweep(state, effect, experiment, grid)
    assert rows.shape == (2, 3)
    np.testing.assert_allclose(rows[:, 2], [1.0, 0.0], atol=1e-12)
    with pytest.raises(SystemMismatchError):
        interference_pattern_sweep(state, effect, experiment, [(0.0, 0.0, 0.0)])
    with pytest.raises(ValidationError):
        interference_pattern_sweep(state, effect, experiment, np.empty((0, 2)))
