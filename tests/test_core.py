"""Tests for the real-vector state/effect/transformation substrate."""

import ast
import dataclasses
import functools
import math
import pathlib

import numpy as np
import pytest

from interferlab import core
from interferlab import (
    EPS_EQ,
    EPS_PSD,
    Effect,
    InfeasibleError,
    Measurement,
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
        with pytest.raises(SystemMismatchError, match=r"amplitude vector has shape .*, expected"):
            make(q, wrong)
    with pytest.raises(ValidationError, match="not normalized"):
        make(q, [1.0, 1.0])
    with pytest.raises(SystemMismatchError, match="amplitude vector needs a quantum system"):
        make(classical_system(2), [1.0, 0.0])
    amps = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    want = state_from_density(q, np.outer(amps, amps.conj())).coeffs
    assert np.array_equal(make(q, amps).coeffs, want)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_are_rejected(bad):
    # each input names what held the value; a later check would refuse it too,
    # as a NaN or infinite residual, but would not say why
    q, c = quantum_system(2), classical_system(2)
    builds = {
        "state vector": lambda: StateVector(c, [bad, 1.0]),
        "amplitude vector": lambda: ket_state(q, [bad, 1.0]),
        "effect vector": lambda: Effect(q, [bad] * 4),
        "transformation matrix": lambda: Transformation(q, q, np.full((4, 4), bad)),
        "phase angles": lambda: phase_unitary(q, [0.0, bad]),
        "matrix": lambda: unitary_channel(q, np.diag([1.0, bad])),
    }
    for what, build in builds.items():
        with pytest.raises(ValidationError, match=f"^{what} holds NaN or infinity$"):
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


@pytest.mark.parametrize("make", [quantum_system, classical_system])
def test_marginalize_keeping_every_factor_returns_the_state(make):
    rng = np.random.default_rng(37)
    joint = tensor_states(random_state(make(2), rng), random_state(make(3), rng))
    assert marginalize(joint, [1, 0]) is joint


def test_partial_pair_needs_a_composite_state():
    q2 = quantum_system(2)
    with pytest.raises(SystemMismatchError, match=r"factor index 0 is out of range\(0\)"):
        partial_pair(basis_state(q2, 0), basis_effect(q2, 0), 0)


@pytest.mark.parametrize("make", [quantum_system, classical_system])
@pytest.mark.parametrize("index", [-1, 3])
def test_basis_indices_out_of_range_are_rejected(make, index):
    system = make(3)
    with pytest.raises(SystemMismatchError, match=rf"basis index {index} is out of range\(3\)"):
        basis_state(system, index)
    with pytest.raises(SystemMismatchError, match=rf"basis index {index} is out of range\(3\)"):
        basis_effect(system, index)


def test_unitary_channel_rejects_a_classical_system():
    with pytest.raises(SystemMismatchError, match="unitary channel needs a quantum system"):
        unitary_channel(classical_system(2), np.eye(2))


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
    rebuilt = channel_from_matrix(system, system, t.matrix)
    assert transformations_close(t, rebuilt)
    assert rebuilt.reversible


def amplitude_damping(gamma):
    """Qubit amplitude damping from its Kraus operators: CPTP and invertible, not orthogonal."""
    basis = hermitian_basis(2)
    kraus = (np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]]),
             np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]]))
    moved = sum(k @ basis @ k.conj().T for k in kraus)
    # M[j, k] = Tr(B_j K B_k K^dag), summed over the Kraus operators
    return channel_from_matrix(Q2, Q2, np.einsum("jab,kba->jk", basis, moved).real)


def test_transformation_stores_its_systems_and_matrix_only():
    assert isinstance(vars(Transformation)["reversible"], functools.cached_property)
    t = phase_unitary(Q2, [0.0, 0.3])
    assert "reversible" not in vars(t)
    assert t.reversible and vars(t)["reversible"] is True


@pytest.mark.parametrize("cls, fields, dropped", [
    (StateVector, ["system", "coeffs"], "check"),
    (Effect, ["system", "coeffs"], "check"),
    (Transformation, ["in_system", "out_system", "matrix"], "reversible"),
])
def test_values_take_their_fields_and_no_flag(cls, fields, dropped):
    assert [f.name for f in dataclasses.fields(cls)] == fields
    c2 = classical_system(2)
    args = (c2, c2, np.eye(2)) if cls is Transformation else (c2, [1.0, 0.0])
    with pytest.raises(TypeError):
        cls(*args, **{dropped: False})


@pytest.mark.parametrize("make", [ket_state, projector_effect])
def test_ket_state_and_projector_effect_share_one_amplitude_rule(make):
    # |psi^dag psi - 1| = 2 eps + eps**2: inside EPS_EQ at the first two; the
    # CORE_CASES rows ket-state-norm and projector-effect-norm pin 0.6e-9
    for eps in (0.3e-9, 0.45e-9):
        make(Q2, [1.0 + eps, 0.0])
    with pytest.raises(ValidationError, match=r"^amplitudes are not normalized: \|psi\^dag"):
        make(Q2, [1.0 + 1.1e-9, 0.0])


def test_reversibility_is_read_from_the_matrix():
    rng = np.random.default_rng(59)
    unitary = unitary_channel(Q3, haar_unitary(3, rng))
    phase = phase_unitary(Q3, [0.0, 0.4, 1.1])
    cycle = permutation_transformation(C3, (1, 2, 0))
    reversible = [
        unitary,
        phase,
        cycle,
        identity_transformation(Q2),
        identity_transformation(C3),
        compose_seq(phase, unitary),
        compose_seq(cycle, cycle),
        tensor_transformations(unitary_channel(Q2, haar_unitary(2, rng)), phase),
        tensor_transformations(permutation_transformation(C2, (1, 0)), cycle),
        # a raw transformation reads reversible whenever its matrix is orthogonal
        Transformation(C2, C2, np.eye(2)),
    ]
    for t in reversible:
        assert t.reversible
        back = t.inverse()
        assert np.array_equal(back.matrix, t.matrix.T)
        assert transformations_close(compose_seq(back, t), identity_transformation(t.in_system))
    damping = amplitude_damping(0.3)
    assert np.linalg.matrix_rank(damping.matrix) == 4
    # prepares the maximally mixed qutrit whatever the qubit held
    replace = Transformation(Q2, Q3, np.outer(maximally_mixed(Q3).coeffs, unit_effect(Q2).coeffs))
    for t in (damping, replace):
        assert not t.reversible
        with pytest.raises(InfeasibleError, match="^transformation is not reversible$"):
            t.inverse()


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
        (mixed_fixed_state_kickback, "1 - top eigenvalue"),
        (lambda: distinguishing_measurement([maximally_mixed(quantum_system(2))]),
         "1 - top eigenvalue"),
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
    value = message.split(f"{label} (", 1)[1].split(" > ", 1)[0]
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


def test_system_factors_must_multiply_to_the_dimension_exactly():
    # 2**32 * (2**32 + 1) is 2**32 modulo 2**64, so an int64 product accepts it
    with pytest.raises(ValidationError, match="does not split"):
        core.SystemType(core.QUANTUM, 2**32, (2**32, 2**32 + 1))
    assert core.SystemType(core.QUANTUM, 6, (2, 3)).factors == (2, 3)


def test_numpy_integer_dimensions_are_stored_as_int():
    system = quantum_system(np.int64(6), (np.int64(2), np.int64(3)))
    assert type(system.dim) is int and system.vector_space_dim == 36
    assert [type(f) for f in system.factors] == [int, int]


def test_the_count_guard_passes_at_its_least_value_and_refuses_bools():
    core._require_count(2, 2, "count")
    core._require_count(np.int64(2), 2, "count")
    for value, want in ((1, "count must be >= 2, got 1"),
                        (True, "count must be an integer, got True"),
                        (np.bool_(True), f"count must be an integer, got {np.bool_(True)!r}"),
                        (2.0, "count must be an integer, got 2.0"),
                        ("2", "count must be an integer, got '2'")):
        with pytest.raises(ValidationError) as err:
            core._require_count(value, 2, "count")
        assert str(err.value) == want


Q2, Q3, C2, C3 = quantum_system(2), quantum_system(3), classical_system(2), classical_system(3)
JOINT = tensor_states(basis_state(Q2, 0), basis_state(Q3, 0))

# (call, what it gives): every public entry point of core that checks a system
# type, given a mismatched one, and the other rejections Tier-1 would not run
CORE_CASES = {
    "unknown-theory": (lambda: core.SystemType("qubit", 2),
                       (ValidationError, "unknown theory backend 'qubit'")),
    "dimension-zero": (lambda: core.SystemType(core.QUANTUM, 0),
                       (ValidationError, "system dimension must be >= 1, got 0")),
    "dimension-float": (lambda: quantum_system(2.5),
                        (ValidationError, "system dimension must be an integer, got 2.5")),
    "dimension-integral-float": (lambda: basis_state(quantum_system(2.0), 0),
                                 (ValidationError, "system dimension must be an integer, got 2.0")),
    "dimension-bool": (lambda: quantum_system(True),
                       (ValidationError, "system dimension must be an integer, got True")),
    "factor-float": (lambda: quantum_system(4, (2.0, 2.0)),
                     (ValidationError, "factor must be an integer, got 2.0")),
    "composite-system": (lambda: composite_system(Q2, C2), (
        SystemMismatchError, "second factor needs a quantum system, got classical(2)")),
    "state-vector": (lambda: StateVector(Q2, [1.0, 0.0]), (
        SystemMismatchError, "state vector has shape (2,), expected (4,)")),
    "effect-vector": (lambda: Effect(Q2, [1.0, 0.0]), (
        SystemMismatchError, "effect vector has shape (2,), expected (4,)")),
    "transformation-theory": (lambda: Transformation(Q2, C2, np.eye(2, 4)), (
        SystemMismatchError, "transformation output needs a quantum system, got classical(2)")),
    "transformation-shape": (lambda: Transformation(Q2, Q2, np.eye(2)), (
        SystemMismatchError, "transformation matrix has shape (2, 2), expected (4, 4)")),
    "inverse-irreversible": (lambda: Transformation(C2, C2, [[1.0, 0.5], [0.0, 0.5]]).inverse(),
                             (InfeasibleError, "transformation is not reversible")),
    "measurement-empty": (lambda: Measurement(Q2, ()),
                          (ValidationError, "measurement effect count must be >= 1, got 0")),
    "measurement-system": (lambda: Measurement(Q2, (basis_effect(Q2, 0), basis_effect(Q3, 0))),
                           (SystemMismatchError, "effect 1 is quantum(3), expected quantum(2)")),
    "measurement-sum": (lambda: Measurement(C2, (basis_effect(C2, 0),)), (
        ValidationError,
        "effects do not sum to the unit effect: max deviation (1.0 > EPS_EQ = 1e-09)")),
    "pair": (lambda: pair(basis_effect(Q3, 0), basis_state(Q2, 0)),
             (SystemMismatchError, "state is quantum(2), expected quantum(3)")),
    "apply": (lambda: apply(identity_transformation(Q3), basis_state(Q2, 0)),
              (SystemMismatchError, "state is quantum(2), expected quantum(3)")),
    "transform-effect": (lambda: transform_effect(identity_transformation(C3), basis_effect(C2, 0)),
                         (SystemMismatchError, "effect is classical(2), expected classical(3)")),
    "compose-seq": (lambda: compose_seq(identity_transformation(Q3), identity_transformation(Q2)),
                    (SystemMismatchError, "first's output is quantum(2), expected quantum(3)")),
    "tensor-states": (lambda: tensor_states(basis_state(C2, 0), basis_state(Q2, 0)), (
        SystemMismatchError, "second factor needs a classical system, got quantum(2)")),
    "tensor-effects": (lambda: tensor_effects(basis_effect(Q2, 0), basis_effect(C2, 0)), (
        SystemMismatchError, "second factor needs a quantum system, got classical(2)")),
    "tensor-transformations": (lambda: tensor_transformations(
        identity_transformation(Q2), identity_transformation(C2)), (
        SystemMismatchError, "second factor needs a quantum system, got classical(2)")),
    "marginalize-nothing": (lambda: marginalize(JOINT, []),
                            (ValidationError, "kept factor count must be >= 1, got 0")),
    "marginalize-twice": (lambda: marginalize(JOINT, [1, 1]),
                          (ValidationError, "duplicate factors in keep selector (1, 1)")),
    "marginalize-index": (lambda: marginalize(JOINT, 2),
                          (SystemMismatchError, "factor index 2 is out of range(2)")),
    "partial-pair-single": (lambda: partial_pair(basis_state(Q2, 0), basis_effect(Q2, 0), 0),
                            (SystemMismatchError, "factor index 0 is out of range(0)")),
    "partial-pair-index": (lambda: partial_pair(JOINT, basis_effect(Q2, 0), -1),
                           (SystemMismatchError, "factor index -1 is out of range(2)")),
    "partial-pair-effect": (lambda: partial_pair(JOINT, basis_effect(Q3, 0), 0),
                            (SystemMismatchError, "effect is quantum(3), expected quantum(2)")),
    "partial-pair-float": (lambda: partial_pair(JOINT, basis_effect(Q2, 0), 1.0),
                           (SystemMismatchError, "factor index 1.0 is out of range(2)")),
    "faithful-classical": (lambda: dynamically_faithful_state(C2), (
        InfeasibleError, "classical composites carry no dynamically faithful state in this sense")),
    "density-matrix": (lambda: density_matrix(basis_state(C2, 0)), (
        SystemMismatchError, "density matrix needs a quantum system, got classical(2)")),
    "effect-matrix": (lambda: effect_matrix(basis_effect(C2, 0)), (
        SystemMismatchError, "effect matrix needs a quantum system, got classical(2)")),
    "state-from-density-theory": (lambda: state_from_density(C2, np.eye(2) / 2), (
        SystemMismatchError, "density matrix needs a quantum system, got classical(2)")),
    "state-from-density-shape": (lambda: state_from_density(Q2, np.eye(3) / 3), (
        SystemMismatchError, "density matrix has shape (3, 3), expected (2, 2)")),
    "effect-from-matrix-theory": (lambda: effect_from_matrix(C2, np.eye(2)), (
        SystemMismatchError, "effect matrix needs a quantum system, got classical(2)")),
    "effect-from-matrix-shape": (lambda: effect_from_matrix(Q3, np.eye(2)), (
        SystemMismatchError, "effect matrix has shape (2, 2), expected (3, 3)")),
    "effect-from-matrix-hermitian": (lambda: effect_from_matrix(Q2, [[0, 1], [0, 0]]), (
        ValidationError,
        f"matrix is not Hermitian: max|Im Tr(B_k X)| ({float(1.0 / np.sqrt(2.0))!r} "
        "> EPS_PSD = 1e-08)")),
    "ket-state-theory": (lambda: ket_state(C2, [1.0, 0.0]), (
        SystemMismatchError, "amplitude vector needs a quantum system, got classical(2)")),
    "projector-effect-shape": (lambda: projector_effect(Q2, [1.0, 0.0, 0.0]), (
        SystemMismatchError, "amplitude vector has shape (3,), expected (2,)")),
    "basis-state": (lambda: basis_state(Q2, 2),
                    (SystemMismatchError, "basis index 2 is out of range(2)")),
    "basis-effect": (lambda: basis_effect(C2, -1),
                     (SystemMismatchError, "basis index -1 is out of range(2)")),
    "basis-state-float": (lambda: basis_state(Q2, 1.0),
                          (SystemMismatchError, "basis index 1.0 is out of range(2)")),
    "basis-effect-float": (lambda: basis_effect(C2, 1.5),
                           (SystemMismatchError, "basis index 1.5 is out of range(2)")),
    # a bool is never an index: numpy would read True as a mask
    "basis-state-bool": (lambda: basis_state(Q2, True),
                         (SystemMismatchError, "basis index True is out of range(2)")),
    "ket-state-norm": (lambda: ket_state(Q2, [1.0 + 0.6e-9, 0.0]), (
        ValidationError, "amplitudes are not normalized: |psi^dag psi - 1| "
        f"({(1.0 + 0.6e-9) * (1.0 + 0.6e-9) - 1.0!r} > EPS_EQ = 1e-09)")),
    "projector-effect-norm": (lambda: projector_effect(Q2, [1.0 + 0.6e-9, 0.0]), (
        ValidationError, "amplitudes are not normalized: |psi^dag psi - 1| "
        f"({(1.0 + 0.6e-9) * (1.0 + 0.6e-9) - 1.0!r} > EPS_EQ = 1e-09)")),
    "distinguish-nothing": (lambda: distinguishing_measurement([]),
                            (ValidationError, "distinguished state count must be >= 1, got 0")),
    "distinguish-system": (lambda: distinguishing_measurement(
        [basis_state(Q2, 0), basis_state(Q3, 1)]),
        (SystemMismatchError, "state 1 is quantum(3), expected quantum(2)")),
    "distinguish-spread": (lambda: distinguishing_measurement([maximally_mixed(C2)]), (
        InfeasibleError, "state 0 is not a point mass: 1 - top weight (0.5 > EPS_PSD = 1e-08)")),
    "distinguish-overlap": (lambda: distinguishing_measurement(
        [basis_state(Q3, 0), basis_state(Q3, 1), basis_state(Q3, 1)]), (
        InfeasibleError, "states 1 and 2 are not distinguishable: overlap (1.0 > EPS_EQ = 1e-09)")),
    "distinguish-same-point": (lambda: distinguishing_measurement(
        [basis_state(C2, 1), basis_state(C2, 1)]),
        (InfeasibleError, "states 0 and 1 are not distinguishable (same point mass)")),
    "unitary-channel-theory": (lambda: unitary_channel(C2, np.eye(2)), (
        SystemMismatchError, "unitary channel needs a quantum system, got classical(2)")),
    "unitary-channel-shape": (lambda: unitary_channel(Q2, np.eye(3)),
                              (SystemMismatchError, "matrix has shape (3, 3), expected (2, 2)")),
    "phase-unitary": (lambda: phase_unitary(Q2, [0.0, 0.0, 0.0]),
                      (SystemMismatchError, "phase angles has shape (3,), expected (2,)")),
    "permutation-theory": (lambda: permutation_transformation(Q2, [1, 0]), (
        SystemMismatchError, "permutation needs a classical system, got quantum(2)")),
    "permutation-repeat": (lambda: permutation_transformation(C3, [0, 0, 1]),
                           (ValidationError, "[0, 0, 1] is not a permutation of range(3)")),
    "permutation-float": (lambda: permutation_transformation(C2, [1.0, 0.0]),
                          (ValidationError, "[1.0, 0.0] is not a permutation of range(2)")),
    "permutation-bool": (lambda: permutation_transformation(C2, [True, False]),
                         (ValidationError, "[True, False] is not a permutation of range(2)")),
    "haar-negative": (lambda: haar_unitary(-1, 0),
                      (ValidationError, "unitary dimension must be >= 1, got -1")),
    "haar-float": (lambda: haar_unitary(2.5, 0),
                   (ValidationError, "unitary dimension must be an integer, got 2.5")),
    "haar-zero": (lambda: haar_unitary(0, 0),
                  (ValidationError, "unitary dimension must be >= 1, got 0")),
    # a seed is an integer >= 0, never a bool, or a Generator
    "seed-negative": (lambda: random_state(Q2, -1),
                      (ValidationError, "seed must be >= 0, got -1")),
    "seed-float": (lambda: random_state(Q2, 2.5),
                   (ValidationError, "seed must be an integer, got 2.5")),
    "seed-bool": (lambda: random_state(Q2, True),
                  (ValidationError, "seed must be an integer, got True")),
    # refused before U^dag U overflows, so numpy never warns
    "unitary-overflow": (lambda: unitary_channel(Q2, [[1e308 + 1e308j, 0.0], [0.0, 1.0]]), (
        ValidationError,
        "matrix is not unitary: max|u_ij| - 1 (1.4142135623730951e+308 > EPS_EQ = 1e-09)")),
    "nan-residual": (lambda: core._require_within(math.nan, EPS_EQ, "residual"),
                     (ValidationError, "residual (nan > EPS_EQ = 1e-09)")),
    "random-unitary": (lambda: random_unitary(C2, 0), (
        SystemMismatchError, "unitary channel needs a quantum system, got classical(2)")),
    "channel-from-matrix": (lambda: channel_from_matrix(Q2, Q3, np.eye(4)), (
        SystemMismatchError, "transformation matrix has shape (4, 4), expected (9, 4)")),
}


@pytest.mark.parametrize("call, want", CORE_CASES.values(), ids=CORE_CASES)
def test_core_rejections_give_the_exact_error(call, want, outcome):
    assert outcome(call) == want


# the helpers in core that raise SystemMismatchError, each with one message form
SYSTEM_GUARDS = {"_require_same", "_require_theory", "_require_shape", "_require_index"}


SRC = pathlib.Path(core.__file__).resolve().parent
TOLERANCES = {"EPS_EQ", "EPS_PSD", "EPS_DECISION"}


def owned_nodes(path):
    """Every AST node of a file with its innermost enclosing function's name, or None."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owner = {}
    for fn in ast.walk(tree):  # an outer function comes before the ones nested in it
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((node, fn.name) for node in ast.walk(fn))
    return [(node, owner.get(node)) for node in ast.walk(tree)]


def named(node):
    return getattr(node, "id", getattr(node, "attr", None))


def system_mismatch_raises(path):
    """The innermost enclosing function of each `raise SystemMismatchError` in a file."""
    found = []
    for node, fn in owned_nodes(path):
        exc = node.exc if isinstance(node, ast.Raise) else None
        if named(exc.func if isinstance(exc, ast.Call) else exc) == "SystemMismatchError":
            found.append(fn)
    return found


def test_system_mismatches_are_raised_by_the_core_helpers_only():
    found = sorted(
        (path.name, name) for path in SRC.glob("*.py") for name in system_mismatch_raises(path)
    )
    assert found == [("core.py", name) for name in sorted(SYSTEM_GUARDS)]


def tolerance_guards(path):
    """(function, line) of each `if` that tests an EPS_* constant and starts with a raise,
    and the source of the bound passed to each _require_within call, in a file."""
    raises, bounds = [], []
    for node, fn in owned_nodes(path):
        if isinstance(node, ast.If) and isinstance(node.body[0], ast.Raise) and any(
            (named(n) or "").startswith("EPS_") for n in ast.walk(node.test)
        ):
            raises.append((fn, node.lineno))
        if isinstance(node, ast.Call) and named(node.func) == "_require_within":
            bound = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "bound")]
            bounds.append(ast.unparse(bound[0]))
    return raises, bounds


def test_tolerance_rejections_are_raised_by_the_core_helper_only():
    found = {path.name: tolerance_guards(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: raises for name, (raises, _) in found.items() if raises} == {}
    bounds = {bound for _, passed in found.values() for bound in passed}
    assert bounds and bounds <= TOLERANCES


@pytest.mark.parametrize("name", sorted(TOLERANCES))
def test_the_tolerance_guard_passes_at_its_bound_and_names_it_one_ulp_above(name):
    bound = getattr(core, name)
    core._require_within(bound, bound, "unused")
    over = np.nextafter(bound, 1.0)
    with pytest.raises(InfeasibleError) as err:
        core._require_within(over, bound, "check {} on {!r}", 2, "x", error=InfeasibleError)
    assert str(err.value) == f"check 2 on 'x' ({float(over)!r} > {name} = {bound!r})"
