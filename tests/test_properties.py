"""Property tests: algebraic invariants and the stacked kernel paths.

A stack is computed row by row through one matmul call, so every stacked row
must equal the single-row result exactly, not just within a tolerance.  The
one exception is noted at the partial-pairing test.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from interferlab import control, core
from interferlab import (
    EPS_EQ,
    EPS_PSD,
    Effect,
    apply,
    basis_state,
    build_controlled,
    channel_from_matrix,
    classical_system,
    classify_particle,
    compose_seq,
    composite_system,
    density_matrix,
    distinguishing_measurement,
    effect_matrix,
    extract_kickback,
    filtered_effect,
    haar_unitary,
    ket_state,
    make_experiment,
    marginalize,
    pair,
    partial_pair,
    projector_effect,
    quantum_system,
    random_effect,
    random_state,
    random_unitary,
    tensor_effects,
    tensor_states,
    tensor_transformations,
    third_order_scan_quantum,
    unit_effect,
    unitary_channel,
)
from interferlab.paths import _subset_effects

TOL = 1e-12
dims = st.integers(1, 5)
seeds = st.integers(0, 2**32 - 1)
kinds = st.sampled_from(["pure", "mixed"])
stack_shapes = st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple)
SETTINGS = settings(max_examples=40, deadline=None)


def random_hermitian_stack(shape, dim, rng):
    g = rng.standard_normal((*shape, dim, dim)) + 1j * rng.standard_normal((*shape, dim, dim))
    return (g + np.swapaxes(g, -1, -2).conj()) / 2.0


@SETTINGS
@given(dim_a=dims, dim_b=dims, seed=seeds, kind_a=kinds, kind_b=kinds)
def test_tensor_states_is_the_kron_of_the_density_matrices(dim_a, dim_b, seed, kind_a, kind_b):
    rng = np.random.default_rng(seed)
    a = random_state(quantum_system(dim_a), rng, kind=kind_a)
    b = random_state(quantum_system(dim_b), rng, kind=kind_b)
    got = density_matrix(tensor_states(a, b))
    want = np.kron(density_matrix(a), density_matrix(b))
    assert float(np.max(np.abs(got - want))) <= TOL


@SETTINGS
@given(dim_a=dims, dim_b=dims, seed=seeds)
def test_tensor_effects_is_the_kron_of_the_effect_matrices(dim_a, dim_b, seed):
    rng = np.random.default_rng(seed)
    a = random_effect(quantum_system(dim_a), rng)
    b = random_effect(quantum_system(dim_b), rng)
    got = effect_matrix(tensor_effects(a, b))
    want = np.kron(effect_matrix(a), effect_matrix(b))
    assert float(np.max(np.abs(got - want))) <= TOL


@SETTINGS
@given(dim=dims, shape=stack_shapes, seed=seeds)
def test_stacked_encode_and_decode_equal_the_rows(dim, shape, seed):
    rng = np.random.default_rng(seed)
    mats = random_hermitian_stack(shape, dim, rng)
    coeffs = core._encode(mats, dim)
    decoded = core._decode(coeffs, dim)
    assert coeffs.shape == (*shape, dim * dim)
    assert decoded.shape == (*shape, dim, dim)
    for index in np.ndindex(*shape):
        assert np.array_equal(coeffs[index], core._encode(mats[index], dim))
        assert np.array_equal(decoded[index], core._decode(coeffs[index], dim))
    assert float(np.max(np.abs(decoded - mats))) <= TOL


@SETTINGS
@given(dim_a=dims, dim_b=dims, rows=st.integers(1, 6), seed=seeds)
def test_stacked_tensor_products_equal_tensor_states(dim_a, dim_b, rows, seed):
    rng = np.random.default_rng(seed)
    qa, qb = quantum_system(dim_a), quantum_system(dim_b)
    a = [random_state(qa, rng, kind="mixed") for _ in range(rows)]
    b = [random_state(qb, rng, kind="pure") for _ in range(rows)]
    stacked = core._tensor_coeffs(
        qa, qb, np.array([s.coeffs for s in a]), np.array([s.coeffs for s in b])
    )
    crossed = core._tensor_coeffs(qa, qb, a[0].coeffs, np.array([s.coeffs for s in b]))
    for i in range(rows):
        assert np.array_equal(stacked[i], tensor_states(a[i], b[i]).coeffs)
        assert np.array_equal(crossed[i], tensor_states(a[0], b[i]).coeffs)


@SETTINGS
@given(dim_a=dims, dim_b=dims, rows=st.integers(1, 6), factor=st.integers(0, 1), seed=seeds)
def test_stacked_partial_pairing_equals_partial_pair(dim_a, dim_b, rows, factor, seed):
    rng = np.random.default_rng(seed)
    joint = composite_system(quantum_system(dim_a), quantum_system(dim_b))
    states = [random_state(joint, rng, kind="mixed") for _ in range(rows)]
    paired = quantum_system(joint.factors[factor])
    effects = [random_effect(paired, rng) for _ in range(3)]
    got = core._pair_factor(
        joint, np.array([s.coeffs for s in states]), np.array([e.coeffs for e in effects]),
        factor,
    )
    # einsum reduces onto a one-dimensional remainder with another kernel,
    # so only there the rows may differ from partial_pair in the last bits
    exact = joint.factors[1 - factor] > 1
    for j, effect in enumerate(effects):
        for i, state in enumerate(states):
            want = partial_pair(state, effect, factor).coeffs
            assert float(np.max(np.abs(got[j, i] - want))) <= TOL
            assert np.array_equal(got[j, i], want) or not exact


@SETTINGS
@given(dim=dims, shape=stack_shapes, seed=seeds)
def test_decode_then_encode_returns_the_coefficients(dim, shape, seed):
    coeffs = np.random.default_rng(seed).standard_normal((*shape, dim * dim))
    back = core._encode(core._decode(coeffs, dim), dim)
    assert float(np.max(np.abs(back - coeffs))) <= TOL


@SETTINGS
@given(dim=dims, seed=seeds)
def test_channel_of_a_product_is_the_composed_channel(dim, seed):
    rng = np.random.default_rng(seed)
    system = quantum_system(dim)
    u, v = haar_unitary(dim, rng), haar_unitary(dim, rng)
    got = unitary_channel(system, u @ v).matrix
    want = compose_seq(unitary_channel(system, u), unitary_channel(system, v)).matrix
    assert float(np.max(np.abs(got - want))) <= TOL


@SETTINGS
@given(dim_a=dims, dim_b=dims, seed=seeds)
def test_tensor_transformations_is_the_channel_of_the_kron(dim_a, dim_b, seed):
    rng = np.random.default_rng(seed)
    qa, qb = quantum_system(dim_a), quantum_system(dim_b)
    u, v = haar_unitary(dim_a, rng), haar_unitary(dim_b, rng)
    got = tensor_transformations(unitary_channel(qa, u), unitary_channel(qb, v)).matrix
    want = unitary_channel(composite_system(qa, qb), np.kron(u, v)).matrix
    assert float(np.max(np.abs(got - want))) <= TOL


@SETTINGS
@given(dim_a=dims, dim_b=dims, seed=seeds, kind_a=kinds, kind_b=kinds)
def test_marginals_of_a_product_state_are_its_factors(dim_a, dim_b, seed, kind_a, kind_b):
    rng = np.random.default_rng(seed)
    a = random_state(quantum_system(dim_a), rng, kind=kind_a)
    b = random_state(quantum_system(dim_b), rng, kind=kind_b)
    joint = tensor_states(a, b)
    for factor, want in enumerate((a, b)):
        got = marginalize(joint, factor)
        assert got.system == want.system
        assert float(np.max(np.abs(got.coeffs - want.coeffs))) <= TOL


# the composite properties below hold on both backends
theories = st.sampled_from([quantum_system, classical_system])


def random_channel(system, rng):
    """A Haar unitary channel (quantum) or a random column-stochastic matrix (classical)."""
    if system.theory == core.QUANTUM:
        return random_unitary(system, rng)
    return channel_from_matrix(system, system, rng.dirichlet(np.ones(system.dim), system.dim).T)


@SETTINGS
@given(make=theories, sizes=st.lists(st.integers(1, 3), min_size=3, max_size=3), seed=seeds,
       keep=st.sampled_from([(0, 1), (0, 2), (1, 2)]))
def test_marginals_of_a_three_factor_product_are_its_factors(make, sizes, seed, keep):
    rng = np.random.default_rng(seed)
    states = [random_state(make(d), rng, kind="mixed") for d in sizes]
    joint = tensor_states(tensor_states(states[0], states[1]), states[2])
    for factor, want in enumerate(states):
        got = marginalize(joint, factor)
        assert got.system == want.system
        assert float(np.max(np.abs(got.coeffs - want.coeffs))) <= TOL
    got = marginalize(joint, keep)
    want = tensor_states(states[keep[0]], states[keep[1]])
    assert got.system == want.system
    assert float(np.max(np.abs(got.coeffs - want.coeffs))) <= TOL


@SETTINGS
@given(make=theories, dim_a=dims, dim_b=dims, seed=seeds)
def test_product_effects_pair_with_product_states_factor_by_factor(make, dim_a, dim_b, seed):
    rng = np.random.default_rng(seed)
    a, b = (random_state(make(d), rng, kind="mixed") for d in (dim_a, dim_b))
    e, f = (random_effect(make(d), rng) for d in (dim_a, dim_b))
    got = pair(tensor_effects(e, f), tensor_states(a, b))
    assert abs(got - pair(e, a) * pair(f, b)) <= TOL


@SETTINGS
@given(make=theories, dim_a=dims, dim_b=dims, seed=seeds)
def test_tensor_transformations_act_factor_by_factor(make, dim_a, dim_b, seed):
    rng = np.random.default_rng(seed)
    a, b = (random_state(make(d), rng, kind="mixed") for d in (dim_a, dim_b))
    t, u = (random_channel(make(d), rng) for d in (dim_a, dim_b))
    got = apply(tensor_transformations(t, u), tensor_states(a, b))
    want = tensor_states(apply(t, a), apply(u, b))
    assert got.system == want.system
    assert float(np.max(np.abs(got.coeffs - want.coeffs))) <= TOL


@SETTINGS
@given(make=theories, sizes=st.lists(st.integers(1, 3), min_size=2, max_size=3), seed=seeds,
       data=st.data())
def test_partial_pairing_the_unit_effect_is_marginalizing(make, sizes, seed, data):
    system = make(sizes[0])
    for d in sizes[1:]:
        system = composite_system(system, make(d))
    state = random_state(system, np.random.default_rng(seed), kind="mixed")
    factor = data.draw(st.integers(0, len(sizes) - 1))
    got = partial_pair(state, unit_effect(make(sizes[factor])), factor)
    want = marginalize(state, [i for i in range(len(sizes)) if i != factor])
    assert got.system == want.system
    assert float(np.max(np.abs(got.coeffs - want.coeffs))) <= TOL


@SETTINGS
@given(dim=st.integers(1, 6), data=st.data())
def test_classical_distinguishing_effects_resolve_the_unit_effect(dim, data):
    system = classical_system(dim)
    points = data.draw(st.lists(st.integers(0, dim - 1), min_size=1, unique=True))
    states = [basis_state(system, p) for p in points]
    effects = distinguishing_measurement(states).effects
    # one effect per state, and the complement when the points leave some out
    assert len(effects) == len(points) + (len(points) < dim)
    total = np.sum([e.coeffs for e in effects], axis=0)
    assert np.array_equal(total, unit_effect(system).coeffs)
    for i, effect in enumerate(effects):
        for j, state in enumerate(states):
            assert pair(effect, state) == (1.0 if i == j else 0.0)


inside = st.floats(0.0, 0.99)
outside = st.floats(1.01, 1e3)
signs = st.sampled_from([-1.0, 1.0])


@SETTINGS
@given(scale=inside, sign=signs)
def test_angles_within_tolerance_of_zero_or_pi_are_bosons_or_fermions(scale, sign):
    offset = sign * scale * EPS_EQ
    for base in (0.0, 2.0 * math.pi):
        assert classify_particle(base + offset).kind == "boson"
    fermion = classify_particle(math.pi + offset)
    assert (fermion.kind, fermion.theta) == ("fermion", math.pi)


@SETTINGS
@given(scale=outside, sign=signs)
def test_angles_past_tolerance_of_zero_or_pi_are_anyons(scale, sign):
    offset = sign * scale * EPS_EQ
    for base in (0.0, math.pi, 2.0 * math.pi):
        particle = classify_particle(base + offset)
        assert particle.kind == "anyon"
        assert abs(particle.theta - (base + offset) % (2.0 * math.pi)) <= TOL


@settings(max_examples=15, deadline=None)
@given(n=st.integers(2, 4), dim=st.integers(1, 3), seed=seeds)
def test_kickback_recovers_random_diagonal_phases(n, dim, seed):
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * math.pi, (n, dim))
    target = quantum_system(dim)
    controlled = build_controlled([np.diag(np.exp(1j * row)) for row in phases], target)
    column = int(rng.integers(dim))
    result = extract_kickback(controlled, basis_state(target, column))
    want = (phases[:, column] - phases[0, column]) % (2.0 * math.pi)
    gap = (result.angles - want) % (2.0 * math.pi)
    assert float(np.max(np.minimum(gap, 2.0 * math.pi - gap))) <= 1e-9


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_third_order_residual_vanishes_on_random_qutrit_paths(seed):
    rng = np.random.default_rng(seed)
    system = quantum_system(3)
    basis = haar_unitary(3, rng)
    paths = [(ket_state(system, k), projector_effect(system, k)) for k in basis.T]
    report = third_order_scan_quantum(make_experiment(paths), trials=20, seed=rng)
    assert report.verdict == "absent"


@settings(max_examples=20, deadline=None)
@given(dim=st.integers(2, 6), size=st.integers(1, 3), seed=seeds)
def test_subset_effects_are_effects_that_fire_only_inside_the_subset(dim, size, seed):
    rng = np.random.default_rng(seed)
    system = quantum_system(dim)
    basis = haar_unitary(dim, rng)
    experiment = make_experiment(
        (ket_state(system, k), projector_effect(system, k)) for k in basis.T
    )
    indices = tuple(sorted(rng.choice(dim, min(size, dim), replace=False).tolist()))
    rows = _subset_effects(experiment, indices, 20, rng)
    spectra = np.linalg.eigvalsh(core._decode(rows, dim))
    assert spectra.min() >= -EPS_PSD and spectra.max() <= 1.0 + EPS_PSD
    outside = [p.state.coeffs for i, p in enumerate(experiment.paths) if i not in indices]
    if outside:
        assert float(np.max(np.abs(rows @ np.array(outside).T))) <= EPS_EQ


@SETTINGS
@given(sizes=st.lists(dims, min_size=1, max_size=2), trials=st.integers(1, 6), seed=seeds)
def test_sampled_rows_pass_the_state_check(sizes, trials, seed):
    systems = [quantum_system(d) for d in sizes]
    stacks = control._sample_stacks(systems, trials, np.random.default_rng(seed))
    for system, rows in zip(systems, stacks):
        core._check_states(system, rows)


@SETTINGS
@given(dim=st.integers(2, 5), seed=seeds, data=st.data())
def test_filtered_effects_pass_the_effect_check(dim, seed, data):
    rng = np.random.default_rng(seed)
    system = quantum_system(dim)
    experiment = make_experiment(
        (ket_state(system, k), projector_effect(system, k)) for k in haar_unitary(dim, rng).T
    )
    subset = data.draw(st.sets(st.integers(0, dim - 1), min_size=1))
    restricted = filtered_effect(random_effect(system, rng), subset, experiment)
    Effect(system, restricted.coeffs, check=True)
