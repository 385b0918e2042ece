"""Property tests for the stacked codec, tensor and partial-pairing paths.

A stack is computed row by row through one matmul call, so every stacked row
must equal the single-row result exactly, not just within a tolerance.  The
one exception is noted at the partial-pairing test.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from interferlab import core
from interferlab import (
    composite_system,
    density_matrix,
    effect_matrix,
    partial_pair,
    quantum_system,
    random_effect,
    random_state,
    tensor_effects,
    tensor_states,
)

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
