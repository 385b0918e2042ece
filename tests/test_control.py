"""Tests for controlled transformations, kick-back, and exchange statistics."""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interferlab import control
from interferlab import (
    EPS_EQ,
    ControlledTransformation,
    InfeasibleError,
    NotAPhaseError,
    SystemMismatchError,
    ValidationError,
    anyonic_exchange_unitary,
    apply,
    basis_effect,
    basis_experiment,
    basis_state,
    build_controlled,
    classical_system,
    classify_particle,
    common_fixed_state,
    compose_seq,
    composite_system,
    control_target_swap_check,
    density_matrix,
    distinguishing_measurement,
    exchange_experiment,
    extract_kickback,
    haar_unitary,
    identity_transformation,
    ket_state,
    maximally_mixed,
    multi_path_permutation_experiment,
    phase_unitary,
    quantum_system,
    realize_phase_as_kickback,
    swap_exchange_unitary,
    transformations_close,
    unitary_channel,
    verify_control_contract,
    verify_superposition_preservation,
)

Z = np.diag([1.0, -1.0])
X = np.array([[0.0, 1.0], [1.0, 0.0]])


def random_branches(rng, n, dim):
    """n independent Haar unitaries of the given dimension."""
    return [haar_unitary(dim, rng) for _ in range(n)]


def wrapped_gap(a, b):
    """Distance between two angle arrays on the circle."""
    diff = (np.asarray(a) - np.asarray(b)) % (2.0 * math.pi)
    return float(np.max(np.minimum(diff, 2.0 * math.pi - diff)))


def test_composite_matches_block_unitary_conjugation():
    rng = np.random.default_rng(7)
    for d_c, d_t in [(2, 2), (2, 3), (3, 2)]:
        unitaries = random_branches(rng, d_c, d_t)
        controlled = build_controlled(unitaries, quantum_system(d_t))
        block = np.zeros((d_c * d_t, d_c * d_t), dtype=complex)
        for i, u in enumerate(unitaries):
            block[i * d_t : (i + 1) * d_t, i * d_t : (i + 1) * d_t] = u
        for _ in range(5):
            ket_c = haar_unitary(d_c, rng)[:, 0]
            ket_t = haar_unitary(d_t, rng)[:, 0]
            joint = ket_state(
                composite_system(quantum_system(d_c), quantum_system(d_t)),
                np.kron(ket_c, ket_t),
            )
            moved = apply(controlled.composite, joint)
            want = block @ np.kron(ket_c, ket_t)
            assert (
                np.max(np.abs(density_matrix(moved) - np.outer(want, want.conj())))
                < 1e-10
            )


def test_contract_deviations_are_numerically_zero():
    rng = np.random.default_rng(11)
    controlled = build_controlled(random_branches(rng, 3, 3), quantum_system(3))
    report = verify_control_contract(controlled, trials=40, seed=5)
    assert report["trials"] == 40
    assert report["max_branch_deviation"] < 1e-12
    assert report["max_filter_deviation"] < 1e-12
    filt = verify_superposition_preservation(controlled, trials=40, seed=5)
    assert filt["max_deviation"] < 1e-12
    assert filt.keys() == {"max_deviation", "trials"}


def test_build_rejects_bad_branches():
    target = quantum_system(2)
    with pytest.raises(ValidationError):
        build_controlled([np.eye(2)], target)
    with pytest.raises(ValidationError):
        build_controlled([np.eye(2), 2.0 * np.eye(2)], target)
    with pytest.raises(SystemMismatchError):
        build_controlled([np.eye(2), np.eye(3)], target)
    with pytest.raises(SystemMismatchError):
        build_controlled([np.eye(2), Z], classical_system(2))


def test_build_rejects_bad_control_kets():
    target = quantum_system(2)
    with pytest.raises(SystemMismatchError, match=r"control kets has shape \(3, 3\)"):
        build_controlled([np.eye(2), Z], target, control_kets=np.eye(3))
    skewed = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValidationError, match="control kets is not unitary"):
        build_controlled([np.eye(2), Z], target, control_kets=skewed)


DERIVED = ("control_system", "control_states", "control_effects", "branch_transforms", "composite")


def test_controlled_map_stores_only_its_defining_data():
    names = [f.name for f in dataclasses.fields(ControlledTransformation)]
    assert names == ["target_system", "branch_unitaries", "control_kets", "designated_target"]
    for name in DERIVED:
        assert isinstance(vars(ControlledTransformation)[name], functools.cached_property), name
    controlled = build_controlled([np.eye(2), Z], quantum_system(2))
    for name in DERIVED:
        assert getattr(controlled, name) is getattr(controlled, name), name


def test_controlled_map_keeps_read_only_copies_of_its_arrays():
    branches = [np.eye(2, dtype=complex), Z.astype(complex)]
    kets = np.eye(2, dtype=complex)
    controlled = build_controlled(branches, quantum_system(2), control_kets=kets)
    branches[1][1, 1] = 5.0
    kets[0, 0] = 5.0
    assert controlled.branch_unitaries[1][1, 1] == -1.0
    assert controlled.control_kets[0, 0] == 1.0
    for array in (*controlled.branch_unitaries, controlled.control_kets):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 0.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_derived_control_data_matches_the_old_constructions(n):
    rng = np.random.default_rng(40 + n)
    for d_t in (1, 2, 3):
        kets = haar_unitary(n, rng)
        branches = random_branches(rng, n, d_t)
        controlled = build_controlled(branches, quantum_system(d_t), control_kets=kets)
        old_effects = distinguishing_measurement(controlled.control_states).effects
        assert len(old_effects) == len(controlled.control_effects) == n
        for got, want in zip(controlled.control_effects, old_effects):
            assert float(np.max(np.abs(got.coeffs - want.coeffs))) <= 1e-12
        block = np.zeros((n * d_t, n * d_t), dtype=complex)
        for i, u in enumerate(branches):
            block += np.kron(np.outer(kets[:, i], kets[:, i].conj()), u)
        want = unitary_channel(composite_system(quantum_system(n), quantum_system(d_t)), block)
        assert float(np.max(np.abs(controlled.composite.matrix - want.matrix))) <= 1e-12


def test_filtering_detects_mislabeled_branches():
    controlled = build_controlled([np.eye(2), Z], quantum_system(2))
    swapped = dataclasses.replace(
        controlled, branch_unitaries=controlled.branch_unitaries[::-1]
    )
    vars(swapped)["composite"] = controlled.composite
    report = verify_superposition_preservation(swapped, trials=10, seed=3)
    assert report["max_deviation"] > 0.1


@pytest.mark.parametrize("count", [0, -5])
def test_contract_checks_reject_sample_counts_below_one(count):
    target = quantum_system(2)
    with pytest.raises(ValidationError, match=f"verification samples must be >= 1, got {count}"):
        build_controlled([np.eye(2), Z], target, verify_samples=count)
    controlled = build_controlled([np.eye(2), Z], target)
    with pytest.raises(ValidationError, match=f"verification samples must be >= 1, got {count}"):
        verify_control_contract(controlled, trials=count)
    with pytest.raises(ValidationError, match=f"verification samples must be >= 1, got {count}"):
        verify_superposition_preservation(controlled, trials=count)
    with pytest.raises(ValidationError, match=f"verification samples must be >= 1, got {count}"):
        extract_kickback(controlled, basis_state(target, 1), verify_samples=count)


def test_one_sample_is_enough_for_the_contract_checks():
    controlled = build_controlled([np.eye(2), Z], quantum_system(2), verify_samples=1)
    assert verify_control_contract(controlled, trials=1)["trials"] == 1
    result = extract_kickback(controlled, basis_state(quantum_system(2), 1), verify_samples=1)
    assert result.kickback_residual < 1e-9


def test_composite_is_reversible():
    rng = np.random.default_rng(13)
    controlled = build_controlled(random_branches(rng, 2, 4), quantum_system(4))
    assert controlled.composite.reversible
    roundtrip = compose_seq(controlled.composite.inverse(), controlled.composite)
    identity = identity_transformation(controlled.composite.in_system)
    assert transformations_close(roundtrip, identity, tol=1e-10)


def test_common_fixed_state_of_identity_and_sign_flip():
    state = common_fixed_state([np.eye(2), Z])
    assert state is not None
    assert np.max(np.abs(state.coeffs - basis_state(quantum_system(2), 0).coeffs)) < 1e-9


def test_no_common_fixed_state_for_noncommuting_branches():
    assert common_fixed_state([Z, X]) is None


def test_common_fixed_state_finds_shared_eigenvector():
    rng = np.random.default_rng(17)
    v = haar_unitary(3, rng)
    w = np.eye(3, dtype=complex)
    w[1:, 1:] = haar_unitary(2, rng)
    a = v @ np.diag(np.exp(1j * np.array([0.3, 1.1, 2.0]))) @ v.conj().T
    b = (v @ w) @ np.diag(np.exp(1j * np.array([0.9, 0.2, 2.5]))) @ (v @ w).conj().T
    state = common_fixed_state([a, b])
    assert state is not None
    shared = v[:, 0]
    assert np.max(np.abs(density_matrix(state) - np.outer(shared, shared.conj()))) < 1e-8


def test_common_fixed_state_rejects_dim_mismatch():
    with pytest.raises(SystemMismatchError):
        common_fixed_state([np.eye(2), Z], quantum_system(3))
    with pytest.raises(ValidationError):
        common_fixed_state([])


def one_qr_per_cluster(u):
    """The eigenphase clusters of a unitary, each basis from its own QR call."""
    vals, vecs = np.linalg.eig(u)
    angles = np.angle(vals) % (2.0 * math.pi)
    order = np.argsort(angles)
    angles, vecs = angles[order], vecs[:, order]
    groups = [[0]]
    for i in range(1, len(angles)):
        if angles[i] - angles[groups[-1][-1]] < 1e-8:
            groups[-1].append(i)
        else:
            groups.append([i])
    if len(groups) > 1 and (2.0 * math.pi - angles[groups[-1][0]]) + angles[0] < 1e-8:
        groups[0] = groups.pop() + groups[0]
    return [np.linalg.qr(vecs[:, g])[0] for g in groups]


def exhaustive_fixed_state(unitaries, system):
    """common_fixed_state level by level, with no prune: every pair takes the SVD."""
    d = system.dim
    candidates = [((), np.eye(d, dtype=complex))]
    for u in unitaries:
        clusters = one_qr_per_cluster(u)
        refined = []
        for key, space in candidates:
            for ci, eigenspace in enumerate(clusters):
                meet = control._intersect_subspaces(space, eigenspace)
                if meet.shape[1] > 0:
                    refined.append((key + (ci,), meet))
        if not refined:
            return None
        candidates = refined
    candidates.sort(key=lambda kv: kv[0])
    space = candidates[0][1]
    for j in range(d):
        v = space @ (space.conj().T @ np.eye(d, dtype=complex)[:, j])
        if np.linalg.norm(v) > 1e-6:
            v = v / np.linalg.norm(v)
            lead = np.argmax(np.abs(v))
            return ket_state(system, v * np.exp(-1j * np.angle(v[lead])))
    raise AssertionError("empty candidate subspace survived refinement")


# eigenphase pools per family: repeated phases make degenerate clusters, and
# phases within EPS_PSD of 0 and of 2 pi merge across the wrap
PHASE_POOLS = {
    "diagonal": None,
    "commuting": (0.0, 1.0, 2.5),
    "wrap-around": (0.0, 1e-10, 2.0 * math.pi - 1e-10, 2.0 * math.pi - 3e-9, 3.0),
    "non-commuting last": (0.0, 1.0),
}


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(sorted(PHASE_POOLS)),
    n=st.integers(1, 4),
    dim=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_pruned_fixed_state_search_equals_the_exhaustive_refinement(family, n, dim, seed):
    rng = np.random.default_rng(seed)
    pool = PHASE_POOLS[family]
    if pool is None:
        frame = np.eye(dim)
        phases = rng.uniform(0.0, 2.0 * math.pi, (n, dim))
    else:
        frame = haar_unitary(dim, rng)
        phases = rng.choice(pool, (n, dim))
    branches = [(frame * np.exp(1j * row)) @ frame.conj().T for row in phases]
    if family == "non-commuting last":
        branches.append(haar_unitary(dim, rng))
    system = quantum_system(dim)
    got = common_fixed_state(branches, system)
    want = exhaustive_fixed_state(branches, system)
    if want is None:
        assert got is None
    else:
        assert got is not None and np.array_equal(got.coeffs, want.coeffs)


def test_fixed_state_search_prunes_the_empty_intersections(monkeypatch):
    calls = []
    original = control._intersect_subspaces

    def counted(a, b):
        meet = original(a, b)
        calls.append(meet.shape[1])
        return meet

    monkeypatch.setattr(control, "_intersect_subspaces", counted)
    rng = np.random.default_rng(8)
    branches = [np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 6))) for _ in range(2)]
    state = common_fixed_state(branches)
    # the first cluster against the identity, then the one cluster of the
    # second branch that meets it; the other five are pruned without an SVD
    assert calls == [1, 1]
    want = exhaustive_fixed_state(branches, quantum_system(6))
    # level by level with no prune: 6 + 36 SVDs, 30 of them empty
    assert calls[2:].count(1) == 12 and len(calls) == 2 + 42
    assert np.array_equal(state.coeffs, want.coeffs)


def unitarity_gap(u):
    return float(np.max(np.abs(u.conj().T @ u - np.eye(len(u)))))


def not_unitary(label, gap):
    return f"{label} is not unitary: max|U^dag U - I| ({gap!r} > EPS_EQ = 1e-09)"


def not_pure(what, state):
    """The message core._pure_ket gives: its residual is 1 - the top eigenvalue."""
    top = np.linalg.eigh(density_matrix(state))[0][-1]
    return f"{what}: 1 - top eigenvalue ({float(1.0 - top)!r} > EPS_PSD = 1e-08)"


def test_public_entry_points_keep_their_exact_check_messages():
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])
    gap = unitarity_gap(skew)
    system, sym, _ = two_particle_states()
    skew4 = np.kron(skew, np.eye(2))
    qubit, bit = quantum_system(2), classical_system(2)
    sign = build_controlled([np.eye(2), Z], qubit)
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    cases = [
        (lambda: common_fixed_state([np.eye(2), skew]),
         ValidationError, not_unitary("branch 1", gap)),
        (lambda: common_fixed_state([np.eye(2), np.eye(3)]),
         SystemMismatchError, "branch 1 has shape (3, 3), expected (2, 2)"),
        (lambda: common_fixed_state([np.eye(2)], quantum_system(3)),
         SystemMismatchError, "branch 0 has shape (2, 2), expected (3, 3)"),
        (lambda: common_fixed_state([np.eye(2), Z], bit),
         SystemMismatchError, "common fixed state needs a quantum system, got classical(2)"),
        (lambda: build_controlled([skew, np.eye(2)], qubit),
         ValidationError, not_unitary("branch 0", gap)),
        (lambda: build_controlled([np.eye(2), Z], qubit, control_kets=skew),
         ValidationError, not_unitary("control kets", gap)),
        (lambda: build_controlled([np.eye(2), Z], bit),
         SystemMismatchError, "controlled transformation needs a quantum system, got classical(2)"),
        (lambda: build_controlled([np.eye(2)], qubit),
         ValidationError, "branch count must be >= 2, got 1"),
        (lambda: multi_path_permutation_experiment([skew4], sym),
         ValidationError, not_unitary("branch 1", unitarity_gap(skew4))),
        (lambda: multi_path_permutation_experiment([np.eye(4), np.eye(3)], sym),
         SystemMismatchError, "branch 2 has shape (3, 3), expected (4, 4)"),
        (lambda: multi_path_permutation_experiment([], sym),
         ValidationError, "branch count must be >= 2, got 1"),
        (lambda: multi_path_permutation_experiment([np.eye(2)], basis_state(bit, 0)),
         SystemMismatchError, "controlled transformation needs a quantum system, got classical(2)"),
        (lambda: extract_kickback(sign, basis_state(quantum_system(3), 0)),
         SystemMismatchError, "fixed state is quantum(3), expected quantum(2)"),
        (lambda: control_target_swap_check(build_controlled([np.eye(3)] * 2, quantum_system(3))),
         SystemMismatchError, "target dimension is 3, expected 2"),
        (lambda: control_target_swap_check(build_controlled([np.eye(2), Z], qubit, hadamard)),
         ValidationError, "swap comparison assumes the computational control basis: max|K - I| "
         f"({float(np.max(np.abs(hadamard - np.eye(2))))!r} > EPS_EQ = 1e-09)"),
        (lambda: anyonic_exchange_unitary(basis_state(quantum_system(4), 0), 1.0),
         SystemMismatchError, "particle state's factor tuple is (4,), expected (4, 4)"),
        (lambda: anyonic_exchange_unitary(maximally_mixed(system), 1.0), InfeasibleError,
         not_pure("anyonic exchange needs a pure state", maximally_mixed(system))),
        (lambda: anyonic_exchange_unitary(basis_state(system, 1), 1.0), InfeasibleError,
         "state is not swap-symmetric, so the injected phase would not be clean: "
         "max|S psi - psi| (1.0 > EPS_EQ = 1e-09)"),
        (lambda: extract_kickback(sign, maximally_mixed(qubit)), InfeasibleError,
         not_pure("fixed state is not pure", maximally_mixed(qubit))),
        (lambda: realize_phase_as_kickback(identity_transformation(bit), basis_experiment(bit)),
         SystemMismatchError, "relative phase angles needs a quantum system, got classical(2)"),
        (lambda: build_controlled([np.eye(2), Z], qubit, verify_samples=2.5),
         ValidationError, "verification samples must be an integer, got 2.5"),
        (lambda: build_controlled([np.eye(2), Z], qubit, verify_samples=True),
         ValidationError, "verification samples must be an integer, got True"),
        (lambda: swap_exchange_unitary(-2),
         ValidationError, "factor dimension must be >= 1, got -2"),
        (lambda: swap_exchange_unitary(1.5),
         ValidationError, "factor dimension must be an integer, got 1.5"),
        (lambda: swap_exchange_unitary(0),
         ValidationError, "factor dimension must be >= 1, got 0"),
        (lambda: extract_kickback(sign, basis_effect(qubit, 1)),
         SystemMismatchError, "fixed state is Effect, expected quantum(2)"),
        (lambda: common_fixed_state([np.array(1.0)]),
         SystemMismatchError, "branch 0 has shape (), expected (1, 1)"),
        (lambda: common_fixed_state([]),
         ValidationError, "branch count must be >= 1, got 0"),
        (lambda: build_controlled([np.eye(2), Z], qubit, seed=-1),
         ValidationError, "seed must be >= 0, got -1"),
        (lambda: extract_kickback(sign, seed=2.5),
         ValidationError, "seed must be an integer, got 2.5"),
    ]
    for call, kind, message in cases:
        with pytest.raises(kind) as err:
            call()
        assert str(err.value) == message


def test_the_kickback_path_checks_each_unitary_once(monkeypatch):
    checked = []
    original = control._as_unitary

    def counted(mat, dim, label):
        checked.append(label)
        return original(mat, dim, label)

    monkeypatch.setattr(control, "_as_unitary", counted)
    controlled = build_controlled([np.eye(2), Z], quantum_system(2))
    assert checked == ["branch 0", "branch 1", "control kets"]
    checked.clear()
    extract_kickback(controlled)
    assert checked == []
    _, sym, _ = two_particle_states()
    multi_path_permutation_experiment([swap_exchange_unitary(2), np.eye(4)], sym)
    assert checked == ["branch 0", "branch 1", "branch 2", "control kets"]


def test_the_constructor_checks_its_input_with_the_exact_messages():
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])
    gap = unitarity_gap(skew)
    qubit = quantum_system(2)
    cases = [
        ((classical_system(2), [np.eye(2), np.eye(2)], np.eye(2)),
         SystemMismatchError, "controlled transformation needs a quantum system, got classical(2)"),
        ((qubit, [np.eye(2)], np.eye(1)),
         ValidationError, "branch count must be >= 2, got 1"),
        ((qubit, [np.eye(2), skew], np.eye(2)),
         ValidationError, not_unitary("branch 1", gap)),
        ((qubit, [np.eye(3), Z], np.eye(2)),
         SystemMismatchError, "branch 0 has shape (3, 3), expected (2, 2)"),
        ((qubit, [np.eye(2), Z], skew),
         ValidationError, not_unitary("control kets", gap)),
        ((qubit, [np.eye(2), Z], np.eye(2), basis_state(quantum_system(3), 0)),
         SystemMismatchError, "designated target is quantum(3), expected quantum(2)"),
        ((qubit, [np.eye(2), Z], np.eye(2), basis_effect(qubit, 0)),
         SystemMismatchError, "designated target is Effect, expected quantum(2)"),
        ((qubit, [np.eye(2), Z], np.eye(2), "not a state"),
         SystemMismatchError, "designated target is str, expected quantum(2)"),
    ]
    for args, kind, message in cases:
        with pytest.raises(kind) as err:
            ControlledTransformation(*args)
        assert str(err.value) == message


def test_kickback_of_controlled_sign_on_designated_state():
    controlled = build_controlled([np.eye(2), Z], quantum_system(2))
    result = extract_kickback(
        controlled, basis_state(quantum_system(2), 1), verify_samples=100
    )
    assert wrapped_gap(result.angles, [0.0, math.pi]) < 1e-12
    assert result.kickback_residual < 1e-9
    assert result.phase_residual < 1e-9
    doc = result.to_json_dict()
    assert doc["angles"] == [float(a) for a in result.angles]
    assert len(doc["fixed_state_coeffs"]) == 4


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_the_kicked_transform_fixes_every_control_projector(n, seed):
    # Q = K diag(e^{i phi}) K^dag moves each |k_i><k_i| by at most about
    # 2 sqrt(n) max|K^dag K - I|, which Haar kets hold at rounding level
    rng = np.random.default_rng(seed)
    kets = haar_unitary(n, rng)
    phases = rng.uniform(0.0, 2.0 * math.pi, n)
    qubit = quantum_system(2)
    branches = [np.diag([1.0, np.exp(1j * phi)]) for phi in phases]
    controlled = build_controlled(branches, qubit, control_kets=kets)
    result = extract_kickback(controlled, basis_state(qubit, 1))
    assert result.phase_residual <= EPS_EQ
    assert wrapped_gap(result.angles, phases - phases[0]) <= 1e-9


def test_default_fixed_state_kicks_trivially_for_sign_flip():
    controlled = build_controlled([np.eye(2), Z], quantum_system(2))
    result = extract_kickback(controlled)
    assert wrapped_gap(result.angles, [0.0, 0.0]) < 1e-12
    assert transformations_close(
        result.transform, identity_transformation(controlled.control_system)
    )


def test_kickback_rejects_moved_or_mixed_fixed_states():
    controlled = build_controlled([np.eye(2), Z], quantum_system(2))
    plus = ket_state(quantum_system(2), np.array([1.0, 1.0]) / math.sqrt(2.0))
    with pytest.raises(InfeasibleError):
        extract_kickback(controlled, plus)
    with pytest.raises(InfeasibleError):
        extract_kickback(controlled, maximally_mixed(quantum_system(2)))
    with pytest.raises(SystemMismatchError):
        extract_kickback(controlled, basis_state(quantum_system(3), 0))


def test_kickback_infeasible_without_common_fixed_state():
    controlled = build_controlled([Z, X], quantum_system(2))
    with pytest.raises(InfeasibleError):
        extract_kickback(controlled)


def test_identity_phase_realizes_as_trivial_kickback():
    experiment = basis_experiment(quantum_system(2))
    phase = identity_transformation(quantum_system(2))
    controlled = build_controlled(
        realize_phase_as_kickback(phase, experiment).branch_unitaries,
        quantum_system(2),
    )
    result = extract_kickback(controlled, basis_state(quantum_system(2), 1))
    assert wrapped_gap(result.angles, [0.0, 0.0]) < 1e-12


@pytest.mark.parametrize("angles", [(0.0, math.pi), (0.0, 1.0, 2.5)])
def test_realized_phase_kicks_back_its_own_angles(angles):
    system = quantum_system(len(angles))
    experiment = basis_experiment(system)
    phase = phase_unitary(system, angles)
    controlled = realize_phase_as_kickback(phase, experiment)
    assert controlled.designated_target is not None
    result = extract_kickback(controlled, controlled.designated_target)
    assert wrapped_gap(result.angles, angles) < 1e-9
    # without a fixed state the kick-back reads the designated target too
    default = extract_kickback(controlled)
    assert default.fixed_state is controlled.designated_target
    assert wrapped_gap(default.angles, angles) < 1e-9


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_random_phases_round_trip_through_kickback(dim):
    rng = np.random.default_rng(100 + dim)
    system = quantum_system(dim)
    experiment = basis_experiment(system)
    for _ in range(5):
        angles = np.concatenate([[0.0], rng.uniform(0.0, 2.0 * math.pi, dim - 1)])
        controlled = realize_phase_as_kickback(
            phase_unitary(system, angles), experiment
        )
        result = extract_kickback(controlled, controlled.designated_target)
        assert wrapped_gap(result.angles, angles) < 1e-9


def test_realization_rejects_non_phases():
    system = quantum_system(2)
    experiment = basis_experiment(system)
    with pytest.raises(NotAPhaseError):
        realize_phase_as_kickback(unitary_channel(system, X), experiment)


def test_swap_check_on_controlled_sign():
    controlled = build_controlled([np.eye(2), Z], quantum_system(2))
    report = control_target_swap_check(controlled)
    assert report["equal"]
    assert report["deviation"] < 1e-9
    columns = np.array(report["kicked_columns"])
    assert wrapped_gap(columns[0], [0.0, 0.0]) < 1e-12
    assert wrapped_gap(columns[1], [0.0, math.pi]) < 1e-12


def test_swap_check_on_random_diagonal_branches():
    rng = np.random.default_rng(23)
    branches = [np.diag(np.exp(1j * rng.uniform(0, 2 * math.pi, 3))) for _ in range(3)]
    controlled = build_controlled(branches, quantum_system(3))
    report = control_target_swap_check(controlled)
    assert report["equal"]
    assert report["deviation"] < 1e-9


def test_swap_check_guards():
    with pytest.raises(NotAPhaseError):
        control_target_swap_check(build_controlled([np.eye(2), X], quantum_system(2)))
    with pytest.raises(SystemMismatchError):
        control_target_swap_check(
            build_controlled([np.eye(3), np.diag([1.0, -1.0, 1.0])], quantum_system(3))
        )


@pytest.mark.parametrize(
    "theta, kind, canonical",
    [
        (0.0, "boson", 0.0),
        (2.0 * math.pi, "boson", 0.0),
        (1e-12, "boson", 0.0),
        (math.pi, "fermion", math.pi),
        (-math.pi, "fermion", math.pi),
        (math.pi + 1e-12, "fermion", math.pi),
        (2.2, "anyon", 2.2),
        (-1.0, "anyon", 2.0 * math.pi - 1.0),
    ],
)
def test_classify_particle_wraps_to_canonical_angles(theta, kind, canonical):
    particle = classify_particle(theta)
    assert particle.kind == kind
    assert abs(particle.theta - canonical) < 1e-9


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_classify_particle_rejects_non_finite_angles(theta):
    with pytest.raises(ValidationError, match="NaN or infinity"):
        classify_particle(theta)


def test_classify_particle_rejects_unknown_kind():
    from interferlab import ParticleClass

    with pytest.raises(ValidationError):
        ParticleClass("photon", 0.0)


def two_particle_states(factor_dim=2):
    """Symmetric and antisymmetric two-particle states on equal factors."""
    system = quantum_system(factor_dim * factor_dim, (factor_dim, factor_dim))
    sym = np.zeros(factor_dim * factor_dim)
    antisym = np.zeros(factor_dim * factor_dim)
    sym[1], sym[factor_dim] = 1.0, 1.0
    antisym[1], antisym[factor_dim] = 1.0, -1.0
    return (
        system,
        ket_state(system, sym / math.sqrt(2.0)),
        ket_state(system, antisym / math.sqrt(2.0)),
    )


def test_exchange_angle_separates_bosons_from_fermions():
    system, sym, antisym = two_particle_states()
    swap = swap_exchange_unitary(2)
    assert classify_particle(exchange_experiment(sym, swap)).kind == "boson"
    theta = exchange_experiment(antisym, swap)
    assert classify_particle(theta).kind == "fermion"
    assert abs(theta - math.pi) < 1e-9


def test_anyonic_exchange_injects_the_requested_angle():
    system, sym, _ = two_particle_states()
    for theta in [0.4, 2.2, 5.0]:
        u = anyonic_exchange_unitary(sym, theta)
        got = exchange_experiment(sym, u)
        assert abs(got - theta) < 1e-9
        assert classify_particle(got).kind == "anyon"


def test_exchange_class_survives_local_basis_changes():
    rng = np.random.default_rng(29)
    system, sym, antisym = two_particle_states()
    swap = swap_exchange_unitary(2)
    for _ in range(20):
        v = haar_unitary(2, rng)
        local = np.kron(v, v)
        moved_sym = ket_state(system, local @ np.array([0, 1, 1, 0]) / math.sqrt(2))
        moved_anti = ket_state(system, local @ np.array([0, 1, -1, 0]) / math.sqrt(2))
        assert classify_particle(exchange_experiment(moved_sym, swap)).kind == "boson"
        assert (
            classify_particle(exchange_experiment(moved_anti, swap)).kind == "fermion"
        )


def test_multi_path_permutations_extend_the_two_branch_angle():
    system, sym, _ = two_particle_states()
    swap = swap_exchange_unitary(2)
    braided = anyonic_exchange_unitary(sym, 2.2)
    angles = multi_path_permutation_experiment([swap, braided], sym)
    assert angles.shape == (2,)
    assert abs(angles[0] - exchange_experiment(sym, swap)) < 1e-9
    assert abs(angles[1] - 2.2) < 1e-9


def test_anyonic_exchange_guards():
    system, sym, antisym = two_particle_states()
    with pytest.raises(InfeasibleError):
        anyonic_exchange_unitary(antisym, 1.0)
    with pytest.raises(InfeasibleError):
        anyonic_exchange_unitary(maximally_mixed(system), 1.0)
    with pytest.raises(SystemMismatchError):
        anyonic_exchange_unitary(basis_state(quantum_system(4), 0), 1.0)
    uneven = quantum_system(6, (2, 3))
    with pytest.raises(SystemMismatchError):
        anyonic_exchange_unitary(basis_state(uneven, 0), 1.0)
    # a non-finite angle is refused before numpy's exp can warn or return NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for theta in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match="exchange angle holds NaN or infinity"):
                anyonic_exchange_unitary(sym, theta)


def test_exchange_requires_the_state_to_be_fixed():
    system, sym, _ = two_particle_states()
    lopsided = basis_state(system, 1)
    with pytest.raises(InfeasibleError):
        exchange_experiment(lopsided, swap_exchange_unitary(2))
