"""Tests for the real-vector state/effect/transformation substrate."""

import math

import numpy as np
import pytest

from interferlab import core
from interferlab import (
    EPS_EQ,
    EPS_PSD,
    Effect,
    InfeasibleError,
    StateVector,
    SystemMismatchError,
    Transformation,
    ValidationError,
    apply,
    basis_effect,
    basis_state,
    build_controlled,
    channel_from_matrix,
    classical_system,
    compose_seq,
    composite_system,
    density_matrix,
    distinguishing_measurement,
    dynamically_faithful_state,
    effect_from_matrix,
    effect_matrix,
    extract_kickback,
    haar_unitary,
    hermitian_basis,
    identity_transformation,
    ket_state,
    marginalize,
    maximally_mixed,
    pair,
    partial_pair,
    permutation_transformation,
    phase_unitary,
    projector_effect,
    quantum_system,
    random_effect,
    random_state,
    random_unitary,
    state_from_density,
    tensor_effects,
    tensor_states,
    tensor_transformations,
    transform_effect,
    transformations_close,
    unit_effect,
    unitary_channel,
)


def draw_reversible(system, rng):
    """A Haar unitary on a quantum system, a uniform permutation on a classical one."""
    if system.theory == core.QUANTUM:
        return random_unitary(system, rng)
    return permutation_transformation(system, rng.permutation(system.dim))


def random_density(dim, rng, rank=None):
    """Random density matrix built with plain numpy, independent of the library."""
    rank = rank or dim
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_hermitian_basis_is_orthonormal(dim):
    basis = hermitian_basis(dim)
    assert basis.shape == (dim * dim, dim, dim)
    np.testing.assert_allclose(basis[0], np.eye(dim) / math.sqrt(dim), atol=1e-12)
    for b in basis:
        np.testing.assert_allclose(b, b.conj().T, atol=1e-12)
    gram = np.einsum("iab,jba->ij", basis, basis)
    np.testing.assert_allclose(gram, np.eye(dim * dim), atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_density_round_trip(dim):
    rng = np.random.default_rng(7)
    system = quantum_system(dim)
    for _ in range(20):
        rho = random_density(dim, rng)
        state = state_from_density(system, rho)
        np.testing.assert_allclose(density_matrix(state), rho, atol=1e-12)


def test_quantum_pairing_is_the_trace_formula():
    rng = np.random.default_rng(11)
    system = quantum_system(3)
    for _ in range(25):
        rho = random_density(3, rng)
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
        proj = np.outer(psi, psi.conj())
        got = pair(effect_from_matrix(system, proj), state_from_density(system, rho))
        want = float(np.real(np.trace(proj @ rho)))
        assert abs(got - want) < 1e-12


def test_basis_pairings_are_kronecker_deltas():
    system = quantum_system(3)
    for i in range(3):
        for j in range(3):
            got = pair(basis_effect(system, i), basis_state(system, j))
            assert abs(got - (1.0 if i == j else 0.0)) < 1e-12


def test_uniform_superposition_pairs_half_with_basis_effects():
    system = quantum_system(2)
    plus = ket_state(system, np.array([1.0, 1.0]) / math.sqrt(2.0))
    for i in range(2):
        assert abs(pair(basis_effect(system, i), plus) - 0.5) < 1e-12


def test_classical_pairing_is_the_dot_product():
    system = classical_system(4)
    rng = np.random.default_rng(3)
    p = rng.uniform(0.1, 1.0, 4)
    p /= p.sum()
    e = rng.uniform(0.0, 1.0, 4)
    got = pair(Effect(system, e), StateVector(system, p))
    assert abs(got - float(e @ p)) < 1e-12


def test_state_validation_rejects_bad_inputs():
    q = quantum_system(2)
    with pytest.raises(ValidationError):
        state_from_density(q, np.diag([1.5, -0.5]))
    with pytest.raises(ValidationError):
        state_from_density(q, np.diag([0.7, 0.7]))
    c = classical_system(3)
    with pytest.raises(ValidationError):
        StateVector(c, np.array([0.5, 0.6, -0.1]))
    with pytest.raises(ValidationError):
        ket_state(q, np.array([1.0, 1.0]))


@pytest.mark.parametrize("make", [ket_state, projector_effect])
def test_amplitude_constructors_check_shape_norm_and_theory(make):
    q = quantum_system(2)
    for wrong in ([1.0, 0.0, 0.0], [[1.0, 0.0]], 1.0):
        with pytest.raises(SystemMismatchError, match="does not fit dimension 2"):
            make(q, wrong)
    with pytest.raises(ValidationError, match="not normalized"):
        make(q, [1.0, 1.0])
    with pytest.raises(SystemMismatchError, match="quantum systems only"):
        make(classical_system(2), [1.0, 0.0])
    amps = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    want = state_from_density(q, np.outer(amps, amps.conj())).coeffs
    assert np.array_equal(make(q, amps).coeffs, want)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_are_rejected(bad):
    q, c = quantum_system(2), classical_system(2)
    builds = [
        lambda: StateVector(c, [bad, 1.0]),
        lambda: StateVector(q, [bad] * 4, check=False),
        lambda: ket_state(q, [bad, 1.0]),
        lambda: Effect(q, [bad] * 4),
        lambda: Effect(c, [bad, 0.0], check=False),
        lambda: Transformation(q, q, np.full((4, 4), bad)),
        lambda: phase_unitary(q, [0.0, bad]),
        lambda: unitary_channel(q, np.diag([1.0, bad])),
    ]
    for build in builds:
        with pytest.raises(ValidationError):
            build()


def test_effect_validation_rejects_bad_spectra():
    q = quantum_system(2)
    with pytest.raises(ValidationError):
        effect_from_matrix(q, np.diag([1.2, 0.0]))
    with pytest.raises(ValidationError):
        effect_from_matrix(q, np.diag([-0.2, 0.5]))
    c = classical_system(2)
    with pytest.raises(ValidationError):
        Effect(c, np.array([1.1, 0.0]))


def test_system_mismatch_raises():
    q2, q3 = quantum_system(2), quantum_system(3)
    with pytest.raises(SystemMismatchError):
        pair(unit_effect(q3), basis_state(q2, 0))
    with pytest.raises(SystemMismatchError):
        apply(identity_transformation(q3), basis_state(q2, 0))
    with pytest.raises(SystemMismatchError):
        compose_seq(identity_transformation(q2), identity_transformation(q3))


@pytest.mark.parametrize("make", [quantum_system, classical_system])
def test_reversibles_preserve_normalization(make):
    rng = np.random.default_rng(5)
    system = make(3)
    u = unit_effect(system)
    for _ in range(25):
        t = draw_reversible(system, rng)
        s = random_state(system, rng)
        assert abs(pair(u, apply(t, s)) - 1.0) < EPS_EQ


def test_compose_seq_is_associative():
    rng = np.random.default_rng(9)
    system = quantum_system(3)
    for _ in range(10):
        a, b, c = (random_unitary(system, rng) for _ in range(3))
        left = compose_seq(compose_seq(a, b), c)
        right = compose_seq(a, compose_seq(b, c))
        assert transformations_close(left, right)


def test_tensor_of_pure_states_is_pure():
    rng = np.random.default_rng(13)
    qa, qb = quantum_system(2), quantum_system(3)
    for _ in range(10):
        a = random_state(qa, rng, kind="pure")
        b = random_state(qb, rng, kind="pure")
        rho = density_matrix(tensor_states(a, b))
        vals = np.linalg.eigvalsh(rho)
        assert vals[-1] > 1.0 - EPS_PSD
        assert np.abs(vals[:-1]).max() < EPS_PSD


@pytest.mark.parametrize("make", [quantum_system, classical_system])
def test_maximally_mixed_is_fixed_by_random_reversibles(make):
    rng = np.random.default_rng(17)
    system = make(3)
    mixed = maximally_mixed(system)
    for _ in range(1000):
        t = draw_reversible(system, rng)
        assert np.max(np.abs(apply(t, mixed).coeffs - mixed.coeffs)) <= EPS_EQ


def test_bell_state_marginals_are_maximally_mixed():
    q2 = quantum_system(2)
    bell = dynamically_faithful_state(q2)
    for factor in (0, 1):
        np.testing.assert_allclose(
            density_matrix(marginalize(bell, factor)), np.eye(2) / 2.0, atol=1e-12
        )


def test_marginal_of_product_recovers_factors():
    rng = np.random.default_rng(19)
    qa, qb = quantum_system(2), quantum_system(3)
    a = random_state(qa, rng, kind="mixed")
    b = random_state(qb, rng, kind="mixed")
    joint = tensor_states(a, b)
    for factor, want in enumerate((a, b)):
        got = marginalize(joint, factor)
        assert got.system == want.system
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= EPS_EQ


def test_partial_pair_matches_matrix_conditioning():
    rng = np.random.default_rng(23)
    qa, qb = quantum_system(2), quantum_system(2)
    joint_system = composite_system(qa, qb)
    rho = random_density(4, rng)
    joint = state_from_density(joint_system, rho)
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi /= np.linalg.norm(psi)
    e = np.outer(psi, psi.conj())
    got = partial_pair(joint, effect_from_matrix(qa, e), 0)
    want = np.einsum("ab,ajbk->jk", e.T, rho.reshape(2, 2, 2, 2))
    np.testing.assert_allclose(density_matrix(got), want, atol=1e-12)


def test_partial_pair_weights_give_the_full_pairing():
    rng = np.random.default_rng(29)
    qa, qb = quantum_system(2), quantum_system(3)
    joint = tensor_states(random_state(qa, rng), random_state(qb, rng))
    ea = random_effect(qa, rng)
    conditional = partial_pair(joint, ea, 0)
    total = pair(unit_effect(qb), conditional)
    want = pair(tensor_effects(ea, unit_effect(qb)), joint)
    assert abs(total - want) < 1e-12


def test_faithful_state_discriminates_transformations():
    rng = np.random.default_rng(31)
    system = quantum_system(2)
    faithful = dynamically_faithful_state(system)
    ident = identity_transformation(system)
    checked = 0
    while checked < 100:
        t1 = random_unitary(system, rng)
        t2 = random_unitary(system, rng)
        if float(np.max(np.abs(t1.matrix - t2.matrix))) <= 10 * EPS_EQ:
            continue
        moved1 = apply(tensor_transformations(t1, ident), faithful)
        moved2 = apply(tensor_transformations(t2, ident), faithful)
        assert np.max(np.abs(moved1.coeffs - moved2.coeffs)) > EPS_EQ
        checked += 1


def test_unitary_channel_matches_conjugation():
    rng = np.random.default_rng(37)
    system = quantum_system(3)
    for _ in range(10):
        u = haar_unitary(3, rng)
        t = unitary_channel(system, u)
        rho = random_density(3, rng)
        got = density_matrix(apply(t, state_from_density(system, rho)))
        np.testing.assert_allclose(got, u @ rho @ u.conj().T, atol=1e-12)


def test_unitary_channel_quotients_global_phase():
    system = quantum_system(3)
    u = haar_unitary(3, np.random.default_rng(41))
    a = unitary_channel(system, u)
    b = unitary_channel(system, np.exp(1j * 0.7) * u)
    assert transformations_close(a, b)


def test_unitary_channel_rejects_non_unitary():
    system = quantum_system(2)
    with pytest.raises(ValidationError):
        unitary_channel(system, np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_channel_from_matrix_round_trips_a_unitary_channel():
    system = quantum_system(2)
    u = haar_unitary(2, np.random.default_rng(43))
    t = unitary_channel(system, u)
    rebuilt = channel_from_matrix(system, system, t.matrix, reversible=True)
    assert transformations_close(t, rebuilt)
    assert rebuilt.reversible


def test_channel_from_matrix_rejects_the_transpose_map():
    system = quantum_system(2)
    basis = hermitian_basis(2)
    # rho -> rho^T in coefficient form: M[j, k] = Tr(B_j B_k^T)
    m = np.einsum("jab,kab->jk", basis, basis).real
    with pytest.raises(ValidationError):
        channel_from_matrix(system, system, m)


def test_transform_effect_is_the_pullback():
    rng = np.random.default_rng(47)
    system = quantum_system(3)
    t = random_unitary(system, rng)
    e = random_effect(system, rng)
    s = random_state(system, rng)
    assert abs(pair(transform_effect(t, e), s) - pair(e, apply(t, s))) < 1e-12


def test_transform_operator_matches_conjugation():
    """A channel matrix moves any Hermitian operator, not only a state, by
    conjugation: phase_relative_angles reads path coherences this way."""
    rng = np.random.default_rng(53)
    system = quantum_system(3)
    u = haar_unitary(3, rng)
    t = unitary_channel(system, u)
    op = rng.standard_normal((3, 3))
    op = op + op.T
    moved = core._decode(t.matrix @ core._encode(op.astype(complex), 3), 3)
    np.testing.assert_allclose(moved, u @ op @ u.conj().T, atol=1e-12)


def test_permutation_transformation_moves_classical_points():
    system = classical_system(3)
    t = permutation_transformation(system, (1, 2, 0))
    for i, target in enumerate((1, 2, 0)):
        moved = apply(t, basis_state(system, i)).coeffs
        assert np.max(np.abs(moved - basis_state(system, target).coeffs)) <= EPS_EQ
    assert t.reversible
    assert transformations_close(
        compose_seq(t.inverse(), t), identity_transformation(system)
    )


def test_classical_channel_rejects_negative_entries():
    system = classical_system(2)
    with pytest.raises(ValidationError):
        channel_from_matrix(system, system, np.array([[1.2, -0.2], [-0.2, 1.2]]))


def test_distinguishing_measurement_separates_basis_states():
    system = quantum_system(3)
    states = [basis_state(system, i) for i in range(3)]
    m = distinguishing_measurement(states)
    for i, e in enumerate(m.effects[:3]):
        for j, s in enumerate(states):
            assert abs(pair(e, s) - (1.0 if i == j else 0.0)) < 1e-10


def test_distinguishing_measurement_names_the_overlapping_pair():
    system = quantum_system(2)
    plus = ket_state(system, np.array([1.0, 1.0]) / math.sqrt(2.0))
    with pytest.raises(InfeasibleError, match="0 and 1"):
        distinguishing_measurement([basis_state(system, 0), plus])


def mixed_fixed_state_kickback():
    target = quantum_system(2)
    controlled = build_controlled([np.eye(2), np.diag([1.0, -1.0])], target, seed=0)
    extract_kickback(controlled, maximally_mixed(target))


def plus_state():
    return ket_state(quantum_system(2), np.array([1.0, 1.0]) / math.sqrt(2.0))


@pytest.mark.parametrize(
    "fail, label",
    [
        (mixed_fixed_state_kickback, "top eigenvalue"),
        (lambda: distinguishing_measurement([maximally_mixed(quantum_system(2))]),
         "top eigenvalue"),
        (lambda: distinguishing_measurement([basis_state(quantum_system(2), 0), plus_state()]),
         "overlap"),
    ],
    ids=["kickback-mixed-fixed-state", "mixed-state", "overlapping-states"],
)
def test_infeasibility_messages_print_bare_floats(fail, label):
    # numpy 2 reprs a numpy scalar as np.float64(...); numpy 1 as a bare float
    with pytest.raises(InfeasibleError) as info:
        fail()
    message = str(info.value)
    assert "np." not in message
    value = message.split(f"({label} ", 1)[1].split(")", 1)[0]
    assert value == repr(float(value))
    assert abs(float(value) - 0.5) < 1e-12


def test_random_state_kinds():
    rng = np.random.default_rng(59)
    system = quantum_system(3)
    pure = random_state(system, rng, kind="pure")
    vals = np.linalg.eigvalsh(density_matrix(pure))
    assert vals[-1] > 1.0 - EPS_PSD
    mixed = random_state(system, rng, kind="mixed")
    assert abs(np.trace(density_matrix(mixed)) - 1.0) < 1e-12
    with pytest.raises(ValidationError):
        random_state(system, rng, kind="cloudy")


def test_random_effect_spectrum_is_contained():
    rng = np.random.default_rng(61)
    system = quantum_system(3)
    for _ in range(10):
        e = random_effect(system, rng)
        vals = np.linalg.eigvalsh(effect_matrix(e))
        assert vals.min() > -EPS_PSD and vals.max() < 1.0 + EPS_PSD


def test_probabilities_stay_in_range():
    rng = np.random.default_rng(67)
    for system in (quantum_system(3), classical_system(3)):
        for _ in range(50):
            p = pair(random_effect(system, rng), random_state(system, rng))
            assert -EPS_EQ <= p <= 1.0 + EPS_EQ


def test_composite_system_bookkeeping():
    qa, qb = quantum_system(2), quantum_system(3)
    joint = composite_system(qa, qb)
    assert joint.dim == 6
    assert joint.factors == (2, 3)
    assert joint.is_composite
    assert joint.vector_space_dim == 36
    with pytest.raises(SystemMismatchError):
        composite_system(qa, classical_system(2))
