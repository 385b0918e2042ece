"""Tests for interference patterns, restriction choices, and order scans."""

import collections
import dataclasses
import itertools
import math

import numpy as np
import pytest

import interferlab
from interferlab import control, core, interference, paths
from interferlab import (
    EPS_EQ,
    VERDICT_ABSENT,
    VERDICT_PRESENT,
    VERDICT_INCONCLUSIVE,
    Effect,
    EffectChoice,
    NotAPhaseError,
    StateVector,
    SystemMismatchError,
    Transformation,
    ValidationError,
    apply,
    basis_effect,
    basis_experiment,
    basis_state,
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
    permutation_transformation,
    phase_unitary,
    projector_effect,
    quantum_system,
    random_effect,
    random_state,
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


def spread_classical_paths():
    """Two classical(4) paths: the first state spreads over outcomes 0 and 1,
    and the second path's effect also fires on outcome 3, which no state covers."""
    system = classical_system(4)
    return make_experiment([
        (StateVector(system, [0.5, 0.5, 0.0, 0.0]), Effect(system, [1.0, 1.0, 0.0, 0.0])),
        (StateVector(system, [0.0, 0.0, 1.0, 0.0]), Effect(system, [0.0, 0.0, 1.0, 1.0])),
    ])


def test_masked_effect_scales_each_outcome_by_the_subset_path_effects():
    experiment = spread_classical_paths()
    effect = Effect(experiment.system, [0.2, 0.4, 0.6, 0.8])
    assert masked_effect(effect, (0,), experiment).coeffs.tolist() == [0.2, 0.4, 0.0, 0.0]
    assert masked_effect(effect, (1,), experiment).coeffs.tolist() == [0.0, 0.0, 0.6, 0.8]


def test_classical_residual_vanishes_on_every_phase_of_spread_paths():
    experiment = spread_classical_paths()
    system = experiment.system
    state = StateVector(system, [0.25, 0.25, 0.5, 0.0])
    effect = unit_effect(system)
    choice = filter_choice(effect, experiment)
    phases = paths.enumerate_classical_phases(experiment)
    assert len(phases) == 4
    for phase in phases:
        _, _, residual = sorkin_residual(state, effect, experiment, phase, choice)
        assert abs(residual) <= EPS_EQ


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


# Differential tests: the stacked scans against their per-point loops.  The
# reference functions below are the loops as they were, kept here only, as the
# definition the stacks must reproduce bit for bit.


def sweep_reference(state, effect, experiment, grid):
    """interference_pattern_sweep as it was, one channel per point, then clipped."""
    kets = experiment.kets
    rows = np.empty((len(grid), experiment.n + 1))
    for r, angles in enumerate(grid):
        u = kets @ np.diag(np.exp(1j * angles)) @ kets.conj().T
        rows[r, : experiment.n] = angles
        rows[r, experiment.n] = pair(effect, apply(unitary_channel(experiment.system, u), state))
    rows[:, experiment.n] = np.clip(rows[:, experiment.n], 0.0, 1.0)
    return rows


def second_order_reference(experiment, seed, phase_samples):
    """The quantum second-order witness as it was, one channel per phase."""
    system = experiment.system
    kets = experiment.kets
    uniform = (kets[:, 0] + kets[:, 1]) / math.sqrt(2.0)
    state = ket_state(system, uniform)
    effect = projector_effect(system, uniform)
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 2.0 * math.pi, phase_samples, endpoint=False)
    extra = rng.uniform(0.0, 2.0 * math.pi, max(phase_samples // 8, 1))
    values = []
    for dphi in np.concatenate([grid, extra]):
        u = kets @ np.diag(np.exp(1j * np.array([0.0, dphi]))) @ kets.conj().T
        values.append(pair(effect, apply(unitary_channel(system, u), state)))
    return np.asarray(values)


def third_order_reference(experiment, trials, rng):
    """third_order_scan_quantum as it was: a state, effect, channel and choice per trial.

    Returns the samples and the (state, effect) of the first trial of largest
    |residual|, the trial the witness is built from.
    """
    system = experiment.system
    kets = experiment.kets
    samples = []
    worst = (-1.0, None, None)
    for _ in range(trials):
        state = random_state(system, rng, kind="pure")
        psi = rng.standard_normal(system.dim) + 1j * rng.standard_normal(system.dim)
        effect = projector_effect(system, psi / np.linalg.norm(psi))
        angles = rng.uniform(0.0, 2.0 * math.pi, experiment.n)
        u = kets @ np.diag(np.exp(1j * angles)) @ kets.conj().T
        transformation = unitary_channel(system, u)
        choice = filter_choice(effect, experiment)
        lhs, rhs, residual = sorkin_residual(state, effect, experiment, transformation, choice)
        samples.append(SorkinSample(tuple(angles), lhs, rhs, residual))
        if abs(residual) > worst[0]:
            worst = (abs(residual), state, effect)
    return tuple(samples), worst[1], worst[2]


def rotated_experiment(dim, seed):
    system = quantum_system(dim)
    v = haar_unitary(dim, np.random.default_rng(seed))
    return make_experiment(
        (ket_state(system, v[:, k]), projector_effect(system, v[:, k])) for k in range(dim)
    )


def path_experiments(dim):
    return [basis_experiment(quantum_system(dim)), rotated_experiment(dim, 50 + dim)]


def assert_witness_is(report, samples, state, effect):
    """The report's witness is the given trial's state and effect, at its angles."""
    worst = max(samples, key=lambda s: abs(s.residual))
    assert report.witness.angles == worst.angles
    assert np.array_equal(report.witness.state.coeffs, state.coeffs)
    assert np.array_equal(report.witness.effect.coeffs, effect.coeffs)


@pytest.mark.parametrize("trials", [1, 7, 200])
@pytest.mark.parametrize("seed", [7, 20260817])
def test_third_order_scan_equals_the_per_trial_loop(monkeypatch, trials, seed):
    for experiment in path_experiments(3):
        report = third_order_scan_quantum(experiment, trials=trials, seed=seed)
        samples, state, effect = third_order_reference(
            experiment, trials, np.random.default_rng(seed)
        )
        assert report.samples == samples
        assert report.witness is None
        # a negative bound makes every scan emit its witness
        with monkeypatch.context() as m:
            m.setattr(interference, "EPS_EQ", -1.0)
            report = third_order_scan_quantum(experiment, trials=trials, seed=seed)
        assert_witness_is(report, samples, state, effect)


def test_third_order_scan_keeps_the_first_of_tied_worst_trials(monkeypatch):
    monkeypatch.setattr(interference, "EPS_EQ", -1.0)
    experiment = basis_experiment(quantum_system(3))
    # the basis experiment's residuals are often exactly 0.0 or a few ulps, so
    # ties happen; which seeds tie depends on rounding, so take the first one
    for seed in range(40):
        report = third_order_scan_quantum(experiment, trials=200, seed=seed)
        worst = max(abs(s.residual) for s in report.samples)
        tied = [t for t, s in enumerate(report.samples) if abs(s.residual) == worst]
        if len(tied) > 1:
            break
    else:
        pytest.fail("no seed in range(40) gives a tied worst trial")
    samples, state, effect = third_order_reference(experiment, 200, np.random.default_rng(seed))
    assert_witness_is(report, samples, state, effect)
    assert samples[tied[0]].angles != samples[tied[-1]].angles


def test_the_scans_leave_a_passed_generator_where_the_loops_did():
    experiment = rotated_experiment(3, 5)
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    third_order_scan_quantum(experiment, trials=13, seed=rng)
    third_order_reference(experiment, 13, ref)
    assert rng.random() == ref.random()
    two_path = basis_experiment(quantum_system(2))
    second_order_witness(two_path, seed=rng, phase_samples=40)
    second_order_reference(two_path, ref, 40)
    assert rng.random() == ref.random()


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_pattern_sweep_equals_the_per_point_loop(monkeypatch, dim):
    rng = np.random.default_rng(900 + dim)
    for experiment in path_experiments(dim):
        state = random_state(experiment.system, rng, kind="mixed")
        effect = random_effect(experiment.system, rng)
        grid = rng.uniform(-2.0 * math.pi, 4.0 * math.pi, (37, dim))
        want = sweep_reference(state, effect, experiment, grid)
        assert np.array_equal(interference_pattern_sweep(state, effect, experiment, grid), want)
        # three rows per block: the grid spans thirteen blocks
        with monkeypatch.context() as m:
            m.setattr(core, "_BLOCK_ENTRIES", 3 * dim**4)
            got = interference_pattern_sweep(state, effect, experiment, grid)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", [7, 20260817])
@pytest.mark.parametrize("phase_samples", [1, 64, 256])
def test_second_order_witness_equals_the_per_phase_loop(monkeypatch, seed, phase_samples):
    for experiment in path_experiments(2):
        values = second_order_reference(experiment, seed, phase_samples)
        for block_entries in (core._BLOCK_ENTRIES, 5 * 2**4):
            monkeypatch.setattr(core, "_BLOCK_ENTRIES", block_entries)
            report = second_order_witness(experiment, seed=seed, phase_samples=phase_samples)
            assert np.array_equal([s.lhs for s in report.samples], values)
            best = 0.5 * (values.max() + values.min())
            assert [s.residual for s in report.samples] == (values - best).tolist()
            kets = experiment.kets
            uniform = (kets[:, 0] + kets[:, 1]) / math.sqrt(2.0)
            system = experiment.system
            state, effect = ket_state(system, uniform), projector_effect(system, uniform)
            assert_witness_is(report, report.samples, state, effect)


def test_pattern_sweep_rejects_non_finite_angles():
    system, experiment, state, effect = uniform_pattern(2)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="NaN or infinity"):
            interference_pattern_sweep(state, effect, experiment, [(0.0, bad)])


def test_scan_costs_do_not_grow_with_the_trials(monkeypatch):
    """One factorization per stacked check and no channel per point, at any size."""
    counts = collections.Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in ("cholesky", "eigvalsh"):  # the state and the effect checks
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    channel = counting("unitary_channel", core.unitary_channel)
    for module in (interferlab, core, paths, control, interference):
        if hasattr(module, "unitary_channel"):
            monkeypatch.setattr(module, "unitary_channel", channel)
    three_path = basis_experiment(quantum_system(3))
    system, two_path, state, effect = uniform_pattern(2)

    def cost(run):
        counts.clear()
        run()
        return dict(counts)

    for size in (10, 200):
        scan = cost(lambda: third_order_scan_quantum(three_path, trials=size, seed=1))
        grid = np.column_stack([np.zeros(size), np.linspace(0.0, math.pi, size)])
        sweep = cost(lambda: interference_pattern_sweep(state, effect, two_path, grid))
        if size == 10:
            small = (scan, sweep)
            # the stacked checks still run
            assert scan["cholesky"] >= 1 and sweep["cholesky"] >= 1
            assert scan["eigvalsh"] >= 1
    assert (scan, sweep) == small


Q2, Q3, C2, C3 = quantum_system(2), quantum_system(3), classical_system(2), classical_system(3)
QUBIT_PATHS, BIT_PATHS, TRIT_PATHS = (basis_experiment(s) for s in (Q2, C2, C3))
# two paths on a classical trit: the second path's effect fires on outcomes 1 and 2
TRIT_TWO_PATHS = make_experiment([
    (basis_state(C3, 0), basis_effect(C3, 0)),
    (basis_state(C3, 1), Effect(C3, [0.0, 1.0, 1.0])),
])


def residual(experiment, choice, transformation=None):
    system = experiment.system
    transformation = transformation or identity_transformation(system)
    return sorkin_residual(
        basis_state(system, 0), basis_effect(system, 0), experiment, transformation, choice)


# (call, what it gives): every public entry point of interference that checks
# a system type, given a mismatched one, and the branches Tier-1 would not run
INTERFERENCE_CASES = {
    "pattern-state": (lambda: pattern(basis_state(Q3, 0), basis_effect(Q2, 0), QUBIT_PATHS),
                      (SystemMismatchError, "pattern state is quantum(3), expected quantum(2)")),
    "pattern-effect": (lambda: pattern(basis_state(Q2, 0), basis_effect(Q3, 0), QUBIT_PATHS),
                       (SystemMismatchError, "pattern effect is quantum(3), expected quantum(2)")),
    # a dephasing map fixes every which-path effect, but it is not reversible
    "pattern-dephased": (lambda: pattern(basis_state(Q2, 0), basis_effect(Q2, 0), QUBIT_PATHS)(
        Transformation(Q2, Q2, np.diag([1.0, 0.0, 0.0, 1.0]))),
        (NotAPhaseError, "transformation is not reversible")),
    "filtered-classical": (lambda: filtered_effect(basis_effect(C2, 0), [0], BIT_PATHS), (
        SystemMismatchError, "projector filtering needs a quantum system, got classical(2)")),
    "filtered-system": (lambda: filtered_effect(basis_effect(Q3, 0), [0], QUBIT_PATHS),
                        (SystemMismatchError, "effect is quantum(3), expected quantum(2)")),
    "filtered-empty": (lambda: filtered_effect(basis_effect(Q2, 0), [], QUBIT_PATHS),
                       (ValidationError, "invalid path subset [] for 2 paths")),
    "masked-quantum": (lambda: masked_effect(basis_effect(Q2, 0), [0], QUBIT_PATHS), (
        SystemMismatchError, "outcome masking needs a classical system, got quantum(2)")),
    "masked-system": (lambda: masked_effect(basis_effect(C3, 0), [0], BIT_PATHS),
                      (SystemMismatchError, "effect is classical(3), expected classical(2)")),
    "masked-outside": (lambda: masked_effect(basis_effect(C2, 0), [2], BIT_PATHS),
                       (ValidationError, "invalid path subset [2] for 2 paths")),
    "masked-float": (lambda: masked_effect(basis_effect(C2, 0), [1.7], BIT_PATHS),
                     (ValidationError, "invalid path subset [1.7] for 2 paths")),
    "filtered-float": (lambda: filtered_effect(basis_effect(Q2, 0), [0, 1.0], QUBIT_PATHS),
                       (ValidationError, "invalid path subset [0, 1.0] for 2 paths")),
    "choice-system": (lambda: EffectChoice(QUBIT_PATHS, {frozenset({0}): basis_effect(Q3, 0)}),
                      (SystemMismatchError, "effect is quantum(3), expected quantum(2)")),
    "choice-bool-key": (lambda: EffectChoice(QUBIT_PATHS, {frozenset({True}): basis_effect(Q2, 1)}),
        (ValidationError, "invalid path subset [True] for 2 paths")),
    "choice-float-key": (lambda: EffectChoice(QUBIT_PATHS, {frozenset({0.0}): basis_effect(Q2, 0)}),
        (ValidationError, "invalid path subset [0.0] for 2 paths")),
    "choice-empty-key": (lambda: EffectChoice(QUBIT_PATHS, {frozenset(): basis_effect(Q2, 0)}),
                         (ValidationError, "invalid path subset [] for 2 paths")),
    "residual-choice-system": (lambda: residual(
        QUBIT_PATHS, filter_choice(basis_effect(C2, 0), BIT_PATHS)),
        (SystemMismatchError, "choice's system is classical(2), expected quantum(2)")),
    "residual-choice-paths": (lambda: residual(
        TRIT_PATHS, filter_choice(basis_effect(C3, 0), TRIT_TWO_PATHS)),
        (SystemMismatchError, "choice's path count is 2, expected 3")),
    "residual-not-a-phase": (lambda: residual(
        BIT_PATHS, filter_choice(basis_effect(C2, 0), BIT_PATHS),
        permutation_transformation(C2, [1, 0])),
        (NotAPhaseError, "transformation moves the effect of path 0 (deviation 1.0)")),
    "residual-missing-subset": (lambda: residual(
        BIT_PATHS, EffectChoice(BIT_PATHS, {frozenset({0}): basis_effect(C2, 0)})),
        (ValidationError, "choice is missing subset [1]")),
    "third-order-classical": (lambda: third_order_scan_quantum(TRIT_PATHS), (
        SystemMismatchError, "third-order scan needs a quantum system, got classical(3)")),
    "third-order-float-trials": (lambda: third_order_scan_quantum(basis_experiment(Q3), trials=2.5),
                                 (ValidationError, "trials must be an integer, got 2.5")),
    "second-order-negative-samples": (lambda: second_order_witness(QUBIT_PATHS, phase_samples=-3),
                                      (ValidationError, "phase samples must be >= 1, got -3")),
    "second-order-float-samples": (lambda: second_order_witness(QUBIT_PATHS, phase_samples=2.5),
                                   (ValidationError, "phase samples must be an integer, got 2.5")),
    "second-order-no-samples": (lambda: second_order_witness(QUBIT_PATHS, phase_samples=0),
                                (ValidationError, "phase samples must be >= 1, got 0")),
    "sweep-angles": (lambda: interference_pattern_sweep(
        basis_state(Q2, 0), basis_effect(Q2, 0), QUBIT_PATHS, [[0.0, 0.0, 0.0]]),
        (SystemMismatchError, "angle vector has shape (3,), expected (2,)")),
    "sweep-state": (lambda: interference_pattern_sweep(
        basis_state(Q3, 0), basis_effect(Q2, 0), QUBIT_PATHS, [[0.0, 0.0]]),
        (SystemMismatchError, "pattern state is quantum(3), expected quantum(2)")),
}


@pytest.mark.parametrize("call, want", INTERFERENCE_CASES.values(), ids=INTERFERENCE_CASES)
def test_interference_rejections_give_the_exact_error(call, want, outcome):
    assert outcome(call) == want
