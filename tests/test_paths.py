"""Tests for path experiments, supports, phases, and detectability orders."""

import itertools
import math

import numpy as np
import pytest

from interferlab import (
    EPS_EQ,
    EPS_PSD,
    Effect,
    NotAPhaseError,
    Path,
    PathRankError,
    StateVector,
    SystemMismatchError,
    Transformation,
    ValidationError,
    basis_effect,
    basis_experiment,
    basis_state,
    classical_system,
    compose_seq,
    detection_order,
    effect_from_matrix,
    enumerate_classical_phases,
    haar_unitary,
    identity_transformation,
    is_n_undetectable,
    is_phase,
    is_superposition,
    ket_state,
    make_experiment,
    maximally_mixed,
    permutation_transformation,
    phase_relative_angles,
    phase_unitary,
    projector_effect,
    quantum_system,
    random_unitary,
    search_detecting_effect,
    state_from_density,
    support_of_effect,
    support_of_state,
    transform_effect,
    transformations_close,
    unit_effect,
    unitary_channel,
)
from interferlab.core import _haar
from interferlab.paths import _subset_effects


def wrapped_spread(angles):
    """Largest circular distance of any angle from zero."""
    return float(np.max(np.abs(np.angle(np.exp(1j * np.asarray(angles))))))


def test_path_requires_unit_pairing():
    system = quantum_system(2)
    with pytest.raises(ValidationError):
        Path(basis_state(system, 0), basis_effect(system, 1))


def test_experiment_requires_disjoint_paths():
    system = quantum_system(2)
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    paths = [
        Path(basis_state(system, 0), basis_effect(system, 0)),
        Path(ket_state(system, plus), projector_effect(system, plus)),
    ]
    with pytest.raises(ValidationError):
        make_experiment(paths)


def test_experiment_requires_effects_resolving_unit():
    system = quantum_system(3)
    paths = [
        Path(basis_state(system, 0), basis_effect(system, 0)),
        Path(basis_state(system, 1), basis_effect(system, 1)),
    ]
    with pytest.raises(ValidationError):
        make_experiment(paths)


def test_quantum_paths_must_be_rank_one():
    system = quantum_system(4)
    block = state_from_density(system, np.diag([0.5, 0.5, 0.0, 0.0]))
    block_effect = effect_from_matrix(system, np.diag([1.0, 1.0, 0.0, 0.0]))
    rest = state_from_density(system, np.diag([0.0, 0.0, 0.5, 0.5]))
    rest_effect = effect_from_matrix(system, np.diag([0.0, 0.0, 1.0, 1.0]))
    with pytest.raises(PathRankError):
        make_experiment([(block, block_effect), (rest, rest_effect)])


def test_path_kets_are_computed_once_and_read_only():
    system = quantum_system(3)
    v = haar_unitary(3, np.random.default_rng(5))
    experiment = make_experiment(
        [(ket_state(system, v[:, i]), projector_effect(system, v[:, i])) for i in range(3)]
    )
    kets = experiment.kets
    assert kets is experiment.kets
    assert not kets.flags.writeable
    with pytest.raises(ValueError):
        kets[0, 0] = 0.0
    # each column is its path's ket up to a global phase
    overlaps = np.abs(np.einsum("ij,ij->j", v.conj(), kets))
    assert float(np.max(np.abs(overlaps - 1.0))) < 1e-12
    with pytest.raises(SystemMismatchError):
        basis_experiment(classical_system(3)).kets


def test_single_path_is_rejected():
    system = quantum_system(2)
    with pytest.raises(ValidationError):
        make_experiment(
            [Path(basis_state(system, 0), Effect(system, np.zeros(4) + basis_effect(system, 0).coeffs + basis_effect(system, 1).coeffs))]
        )


@pytest.mark.parametrize("make", [quantum_system, classical_system])
def test_basis_experiment_supports(make):
    system = make(3)
    experiment = basis_experiment(system)
    assert experiment.n == 3
    for i in range(3):
        assert support_of_state(basis_state(system, i), experiment) == {i}
        assert support_of_effect(basis_effect(system, i), experiment) == {i}


def test_quantum_superposition_supports_all_paths():
    system = quantum_system(3)
    experiment = basis_experiment(system)
    uniform = ket_state(system, np.ones(3) / math.sqrt(3.0))
    assert support_of_state(uniform, experiment) == {0, 1, 2}
    assert is_superposition(uniform, experiment)


def test_mixture_on_several_paths_is_not_a_superposition():
    system = quantum_system(2)
    experiment = basis_experiment(system)
    mixed = state_from_density(system, np.diag([0.5, 0.5]))
    assert support_of_state(mixed, experiment) == {0, 1}
    assert not is_superposition(mixed, experiment)


def test_classical_states_are_never_superpositions():
    system = classical_system(3)
    experiment = basis_experiment(system)
    spread = StateVector(system, np.array([0.4, 0.3, 0.3]))
    assert not is_superposition(spread, experiment)


def test_support_threshold_is_respected():
    system = quantum_system(2)
    experiment = basis_experiment(system)
    # the pairing with path 1 is `weight`, on either side of the EPS_EQ threshold
    for weight, support in [(10 * EPS_EQ, {0, 1}), (0.1 * EPS_EQ, {0})]:
        state = ket_state(system, np.array([math.sqrt(1.0 - weight), math.sqrt(weight)]))
        assert support_of_state(state, experiment) == support


def test_support_of_effect_uses_path_states():
    system = quantum_system(3)
    experiment = basis_experiment(system)
    e = effect_from_matrix(system, np.diag([1.0, 0.0, 0.3]))
    assert support_of_effect(e, experiment) == {0, 2}


def test_diagonal_phases_are_phases():
    system = quantum_system(3)
    experiment = basis_experiment(system)
    t = phase_unitary(system, [0.0, 0.4, 1.1])
    assert is_phase(t, experiment)


def test_basis_swap_is_not_a_phase():
    system = quantum_system(2)
    experiment = basis_experiment(system)
    x = unitary_channel(system, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert not is_phase(x, experiment)


def test_classical_phase_group_is_identity_only():
    system = classical_system(3)
    experiment = basis_experiment(system)
    assert is_phase(identity_transformation(system), experiment)
    swap = permutation_transformation(system, (1, 0, 2))
    assert not is_phase(swap, experiment)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_phase_relative_angles_recover_the_input(dim):
    rng = np.random.default_rng(71)
    system = quantum_system(dim)
    experiment = basis_experiment(system)
    for _ in range(20):
        angles = rng.uniform(0.0, 2.0 * math.pi, dim)
        t = phase_unitary(system, angles)
        got = phase_relative_angles(t, experiment)
        want = (angles - angles[0]) % (2.0 * math.pi)
        np.testing.assert_allclose(
            np.exp(1j * got), np.exp(1j * want), atol=1e-10
        )


def test_phase_angles_work_on_rotated_path_bases():
    rng = np.random.default_rng(73)
    system = quantum_system(3)
    v = haar_unitary(3, rng)
    paths = [
        Path(ket_state(system, v[:, i]), projector_effect(system, v[:, i]))
        for i in range(3)
    ]
    experiment = make_experiment(paths)
    angles = np.array([0.0, 0.9, 2.4])
    u = v @ np.diag(np.exp(1j * angles)) @ v.conj().T
    t = unitary_channel(system, u)
    assert is_phase(t, experiment)
    got = phase_relative_angles(t, experiment)
    np.testing.assert_allclose(np.exp(1j * got), np.exp(1j * angles), atol=1e-10)


def test_non_phase_raises_not_a_phase_error():
    system = quantum_system(2)
    experiment = basis_experiment(system)
    x = unitary_channel(system, np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(NotAPhaseError):
        phase_relative_angles(x, experiment)


def test_phase_group_is_closed_under_composition_and_inverse():
    rng = np.random.default_rng(79)
    system = quantum_system(3)
    experiment = basis_experiment(system)
    for _ in range(20):
        t1 = phase_unitary(system, rng.uniform(0.0, 2.0 * math.pi, 3))
        t2 = phase_unitary(system, rng.uniform(0.0, 2.0 * math.pi, 3))
        assert is_phase(compose_seq(t1, t2), experiment)
        assert is_phase(t1.inverse(), experiment)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_undetectability_is_monotone_in_the_order(dim):
    rng = np.random.default_rng(83)
    system = quantum_system(dim)
    experiment = basis_experiment(system)
    candidates = [np.zeros(dim), np.full(dim, 1.3)]
    candidates += [rng.uniform(0.0, 2.0 * math.pi, dim) for _ in range(8)]
    for angles in candidates:
        t = phase_unitary(system, angles)
        flags = [is_n_undetectable(t, experiment, k) for k in range(1, dim + 1)]
        for lower, higher in itertools.combinations(range(len(flags)), 2):
            assert not (flags[higher] and not flags[lower])


def test_order_one_never_detects_a_phase():
    system = quantum_system(3)
    experiment = basis_experiment(system)
    t = phase_unitary(system, [0.0, 1.0, 2.0])
    assert is_n_undetectable(t, experiment, 1)
    assert is_n_undetectable(t, experiment, 1, method="search", trials=100, seed=0)


def test_detection_order_is_two_or_nothing():
    system = quantum_system(3)
    experiment = basis_experiment(system)
    assert detection_order(phase_unitary(system, [0.0, 0.0, 0.0]), experiment) is None
    assert detection_order(phase_unitary(system, [0.5, 0.5, 0.5]), experiment) is None
    assert detection_order(phase_unitary(system, [0.0, 0.0, 1.5]), experiment) == 2


def test_classical_detection_order_is_none():
    system = classical_system(3)
    experiment = basis_experiment(system)
    assert detection_order(identity_transformation(system), experiment) is None
    assert is_n_undetectable(identity_transformation(system), experiment, 3)


def test_search_finds_a_pairwise_detecting_effect():
    system = quantum_system(3)
    experiment = basis_experiment(system)
    t = phase_unitary(system, [0.0, 0.0, 1.5])
    found = search_detecting_effect(t, experiment, max_support=2, trials=100, seed=5)
    assert found is not None
    assert len(support_of_effect(found, experiment)) <= 2
    moved = found.coeffs @ t.matrix
    assert float(np.max(np.abs(moved - found.coeffs))) > EPS_PSD


def test_search_cannot_falsify_a_trivial_phase():
    system = quantum_system(3)
    experiment = basis_experiment(system)
    t = phase_unitary(system, [0.7, 0.7, 0.7])
    assert search_detecting_effect(t, experiment, max_support=3, trials=100, seed=5) is None


def test_search_reruns_give_the_same_witness_bytes():
    system = quantum_system(4)
    v = haar_unitary(4, np.random.default_rng(17))
    experiment = make_experiment(
        (ket_state(system, v[:, k]), projector_effect(system, v[:, k])) for k in range(4)
    )
    phases = np.exp(1j * np.array([0.0, 0.4, 2.2, 5.0]))
    t = unitary_channel(system, (v * phases) @ v.conj().T)
    first = search_detecting_effect(t, experiment, max_support=2, trials=50, seed=9)
    again = search_detecting_effect(t, experiment, max_support=2, trials=50, seed=9)
    assert first is not None
    assert first.coeffs.tobytes() == again.coeffs.tobytes()


def subset_effect_bank(experiment, indices, count, rng):
    """Random effects supported on the given basis paths, built with plain numpy."""
    dim = experiment.system.dim
    k = len(indices)
    bank = []
    for _ in range(count):
        v = haar_unitary(k, rng)
        block = (v * rng.uniform(0.0, 1.0, k)) @ v.conj().T
        mat = np.zeros((dim, dim), dtype=complex)
        mat[np.ix_(indices, indices)] = block
        bank.append(effect_from_matrix(experiment.system, mat).coeffs)
    return np.array(bank)


def subset_effects_reference(experiment, indices, trials, rng):
    """_subset_effects one validated Effect per trial, from the same two bulk draws.

    W = kets V and W diag(u) W^dag are summed one path at a time, with the
    operands in the order the stack uses.
    """
    kets = experiment.kets[:, list(indices)]
    k = len(indices)
    normals = rng.standard_normal((trials, 2, k, k))
    vals = rng.random((trials, k))
    out = np.empty((trials, experiment.system.vector_space_dim))
    for t in range(trials):
        v = _haar(normals[t, 0] + 1j * normals[t, 1])
        # row j of W^T is sum_i V[i, j] ket_i
        wt = sum(np.outer(v[i], kets[:, i]) for i in range(k))
        mat = sum(np.outer(wt[j] * vals[t, j], wt[j].conj()) for j in range(k))
        out[t] = effect_from_matrix(experiment.system, mat).coeffs
    return out


@pytest.mark.parametrize("dim", [3, 4, 6])
def test_subset_effects_equal_the_validated_loop(dim):
    system = quantum_system(dim)
    v = haar_unitary(dim, np.random.default_rng(dim))
    rotated = make_experiment(
        (ket_state(system, v[:, k]), projector_effect(system, v[:, k])) for k in range(dim)
    )
    for experiment in (basis_experiment(system), rotated):
        for size in (1, 2, 3):
            indices = tuple(range(size))
            got = _subset_effects(experiment, indices, 300, np.random.default_rng(size))
            want = subset_effects_reference(
                experiment, indices, 300, np.random.default_rng(size)
            )
            assert np.array_equal(got, want)


def is_phase_reference(t, experiment):
    """is_phase as it was: one validated pulled-back Effect per path."""
    return (
        t.out_system == experiment.system
        and t.reversible
        and all(
            float(np.max(np.abs(transform_effect(t, p.effect).coeffs - p.effect.coeffs))) <= EPS_EQ
            for p in experiment.paths
        )
    )


def test_is_phase_agrees_with_the_pulled_back_effects():
    rng = np.random.default_rng(41)
    cases = []
    for dim in (2, 3, 4):
        system = quantum_system(dim)
        v = haar_unitary(dim, rng)
        rotated = make_experiment(
            (ket_state(system, v[:, k]), projector_effect(system, v[:, k])) for k in range(dim)
        )
        for experiment in (basis_experiment(system), rotated):
            kets = experiment.kets
            for _ in range(4):
                angles = rng.uniform(0.0, 2.0 * math.pi, dim)
                u = (kets * np.exp(1j * angles)) @ kets.conj().T
                cases.append((unitary_channel(system, u), experiment, True))
                cases.append((random_unitary(system, rng), experiment, False))
            for eps in (1e-6, 1e-12):
                tilt = np.eye(dim, dtype=complex)
                tilt[:2, :2] = [[math.cos(eps), -math.sin(eps)], [math.sin(eps), math.cos(eps)]]
                cases.append((unitary_channel(system, kets @ tilt @ kets.conj().T), experiment, None))
            if dim == 2:
                cases.append((DEPHASE, experiment, False))
    classical = classical_system(3)
    for perm in itertools.permutations(range(3)):
        cases.append((
            permutation_transformation(classical, perm),
            basis_experiment(classical),
            perm == (0, 1, 2),
        ))
    for t, experiment, expected in cases:
        got = is_phase(t, experiment)
        assert got == is_phase_reference(t, experiment)
        assert expected is None or got == expected


def test_closed_form_agrees_with_search_on_many_qutrit_phases():
    """500 random phases against a 200-effect bank per path subset."""
    rng = np.random.default_rng(89)
    system = quantum_system(3)
    experiment = basis_experiment(system)
    subsets = [
        s
        for size in range(1, 4)
        for s in itertools.combinations(range(3), size)
    ]
    banks = {s: subset_effect_bank(experiment, list(s), 200, rng) for s in subsets}
    for trial in range(500):
        if trial % 10 == 0:
            angles = np.full(3, rng.uniform(0.0, 2.0 * math.pi))
        else:
            angles = rng.uniform(0.0, 2.0 * math.pi, 3)
        t = phase_unitary(system, angles)
        detectable_closed = not is_n_undetectable(t, experiment, 3)
        detected = False
        for subset in subsets:
            stack = banks[subset]
            moved = stack @ t.matrix
            if float(np.max(np.abs(moved - stack))) > EPS_PSD:
                detected = True
                break
        assert detected == detectable_closed, (angles, detected, detectable_closed)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_classical_phase_enumeration_finds_only_identity(dim):
    system = classical_system(dim)
    experiment = basis_experiment(system)
    found = enumerate_classical_phases(experiment)
    assert len(found) == 1
    assert transformations_close(found[0], identity_transformation(system))


def test_phase_enumeration_guards():
    with pytest.raises(ValidationError):
        enumerate_classical_phases(basis_experiment(classical_system(9)))
    with pytest.raises(SystemMismatchError):
        enumerate_classical_phases(basis_experiment(quantum_system(3)))


def test_no_phase_is_pair_blind_yet_triple_visible():
    """Dense angle sweep: 2-undetectable forces 3-undetectable.

    The relative angles decide both orders, so any phase invisible to all
    pairwise effects is invisible to every effect; checked on a 10^4-point
    grid through the angle extraction, with the order flags cross-checked on
    a subsample and on every trivial point.
    """
    rng = np.random.default_rng(97)
    system = quantum_system(3)
    experiment = basis_experiment(system)
    grid = rng.uniform(0.0, 2.0 * math.pi, (10_000, 3))
    grid[::25] = grid[::25, :1]  # sprinkle in trivial phases (equal angles)
    for i, angles in enumerate(grid):
        t = phase_unitary(system, angles)
        relative = phase_relative_angles(t, experiment)
        trivially_zero = wrapped_spread(relative) <= EPS_EQ
        if trivially_zero or i % 20 == 0:
            two = is_n_undetectable(t, experiment, 2)
            three = is_n_undetectable(t, experiment, 3)
            assert two == trivially_zero
            assert three == trivially_zero
            assert not (two and not three)


def test_enumeration_rejects_invalid_order():
    system = quantum_system(2)
    experiment = basis_experiment(system)
    t = phase_unitary(system, [0.0, 1.0])
    with pytest.raises(ValidationError):
        is_n_undetectable(t, experiment, 0)
    with pytest.raises(ValidationError):
        is_n_undetectable(t, experiment, 2, method="guess")


Q2, Q3, C2, C3 = quantum_system(2), quantum_system(3), classical_system(2), classical_system(3)
QUBIT_PATHS, BIT_PATHS = basis_experiment(Q2), basis_experiment(C2)
# reversible, but it moves the which-path effects
HADAMARD = unitary_channel(Q2, np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))
HADAMARD_SHIFT = float(np.max(np.abs(
    HADAMARD.matrix.T @ QUBIT_PATHS.paths[0].effect.coeffs - QUBIT_PATHS.paths[0].effect.coeffs)))
# prepares the maximally mixed qutrit whatever the qubit held: unit-preserving, out of Q2
REPLACE = Transformation(Q2, Q3, np.outer(maximally_mixed(Q3).coeffs, unit_effect(Q2).coeffs))
# kills every coherence and keeps the diagonal: it fixes every which-path
# effect, but its matrix is singular, so it is not reversible
DEPHASE = Transformation(Q2, Q2, np.diag([1.0, 0.0, 0.0, 1.0]))
# an orthogonal map on qutrit coefficients that keeps the diagonal and swaps
# the 0-1 coefficients with the 1-2 ones: it reads as reversible and fixes
# every which-path effect, yet moves coherence 0-1 onto 1-2
_moves = np.arange(9)
_moves[[1, 3, 4, 6]] = [3, 1, 6, 4]
SWAP_COHERENCES = Transformation(Q3, Q3, np.eye(9)[_moves])
QUTRIT_PATHS = basis_experiment(Q3)
BIT_FLIP = permutation_transformation(C2, [1, 0])

# (call, what it gives): every public entry point of paths that checks a
# system type, given a mismatched one, and the branches Tier-1 would not run
PATHS_CASES = {
    "path": (lambda: Path(basis_state(Q2, 0), basis_effect(Q3, 0)),
             (SystemMismatchError, "path effect is quantum(3), expected quantum(2)")),
    "make-experiment": (lambda: make_experiment(
        [(basis_state(Q2, 0), basis_effect(Q2, 0)), (basis_state(Q3, 1), basis_effect(Q3, 1))]),
        (SystemMismatchError, "path 1 is quantum(3), expected quantum(2)")),
    "kets-classical": (lambda: BIT_PATHS.kets, (
        SystemMismatchError, "path ket needs a quantum system, got classical(2)")),
    "support-of-state": (lambda: support_of_state(basis_state(Q3, 0), QUBIT_PATHS),
                         (SystemMismatchError, "state is quantum(3), expected quantum(2)")),
    "support-of-effect": (lambda: support_of_effect(basis_effect(C2, 0), QUBIT_PATHS),
                          (SystemMismatchError, "effect is classical(2), expected quantum(2)")),
    "superposition-one-path": (lambda: is_superposition(basis_state(Q2, 1), QUBIT_PATHS), False),
    "is-phase-input": (lambda: is_phase(identity_transformation(Q3), QUBIT_PATHS), (
        SystemMismatchError, "transformation input is quantum(3), expected quantum(2)")),
    "is-phase-output": (lambda: is_phase(REPLACE, QUBIT_PATHS), False),
    "angles-classical": (lambda: phase_relative_angles(identity_transformation(C2), BIT_PATHS), (
        SystemMismatchError, "relative phase angles needs a quantum system, got classical(2)")),
    "is-phase-dephased": (lambda: is_phase(DEPHASE, QUBIT_PATHS), False),
    "is-phase-swapped-coherences": (lambda: is_phase(SWAP_COHERENCES, QUTRIT_PATHS), True),
    "angles-dephased": (lambda: phase_relative_angles(DEPHASE, QUBIT_PATHS), (
        NotAPhaseError, "transformation is not reversible")),
    "angles-swapped-coherences": (lambda: phase_relative_angles(SWAP_COHERENCES, QUTRIT_PATHS), (
        NotAPhaseError, "path coherence 0-1 is not phase-transported: |magnitude - 1| "
        "(1.0 > EPS_DECISION = 1e-06)")),
    "undetectable-dephased": (lambda: is_n_undetectable(DEPHASE, QUBIT_PATHS, 2), (
        NotAPhaseError, "transformation is not reversible")),
    "undetectable-dephased-search": (lambda: is_n_undetectable(
        DEPHASE, QUBIT_PATHS, 2, method="search"), (
        NotAPhaseError, "transformation is not reversible")),
    "undetectable-classical-flip": (lambda: is_n_undetectable(BIT_FLIP, BIT_PATHS, 2), (
        NotAPhaseError, "transformation moves the effect of path 0 (deviation 1.0)")),
    "search-classical": (lambda: search_detecting_effect(
        identity_transformation(C2), BIT_PATHS, 1), (
        SystemMismatchError, "effect search needs a quantum system, got classical(2)")),
    "search-not-a-phase": (lambda: search_detecting_effect(HADAMARD, QUBIT_PATHS, 1), (
        NotAPhaseError, f"transformation moves the effect of path 0 (deviation {HADAMARD_SHIFT!r})")),
    "search-output": (lambda: search_detecting_effect(REPLACE, QUBIT_PATHS, 1), (
        NotAPhaseError, "transformation output is quantum(3), expected quantum(2)")),
    "enumerate-quantum": (lambda: enumerate_classical_phases(QUBIT_PATHS), (
        SystemMismatchError, "phase enumeration needs a classical system, got quantum(2)")),
    "search-no-trials": (lambda: search_detecting_effect(
        identity_transformation(Q2), QUBIT_PATHS, 1, trials=0),
        (ValidationError, "trials must be >= 1, got 0")),
    "search-negative-trials": (lambda: search_detecting_effect(
        identity_transformation(Q2), QUBIT_PATHS, 1, trials=-1),
        (ValidationError, "trials must be >= 1, got -1")),
    "search-no-support": (lambda: search_detecting_effect(
        identity_transformation(Q2), QUBIT_PATHS, 0),
        (ValidationError, "max support must be >= 1, got 0")),
    "undetectable-float-order": (lambda: is_n_undetectable(
        identity_transformation(Q2), QUBIT_PATHS, 1.5),
        (ValidationError, "order must be an integer, got 1.5")),
    # pairings 1, effects resolving the unit effect, and one cross pairing of
    # 5e-9: within every other check's tolerance, so only disjointness refuses it
    "experiment-near-disjoint": (lambda: make_experiment([
        (basis_state(C3, 0), basis_effect(C3, 0)),
        (basis_state(C3, 1), Effect(C3, [5e-9, 1.0, 0.0])),
        (basis_state(C3, 2), Effect(C3, [-5e-9, 0.0, 1.0]))]), (
        ValidationError,
        "paths 1 and 0 are not disjoint: |cross pairing| (5e-09 > EPS_EQ = 1e-09)")),
    "enumerate-above-cap": (lambda: enumerate_classical_phases(
        basis_experiment(classical_system(9))), (
        ValidationError, "refusing to enumerate 9! permutations (dimension cap 8)")),
}


@pytest.mark.parametrize("call, want", PATHS_CASES.values(), ids=PATHS_CASES)
def test_paths_rejections_give_the_exact_error(call, want, outcome):
    assert outcome(call) == want
