"""Differential tests: the matmul basis kernels against their einsum forms.

The reference functions below are the original multi-operand einsum kernels,
kept here only, as the definition the flat-basis matmuls must reproduce.
"""

import numpy as np
import pytest

from interferlab import core
from interferlab import (
    Effect,
    StateVector,
    channel_from_matrix,
    composite_system,
    haar_unitary,
    hermitian_basis,
    pair,
    quantum_system,
    random_effect,
    random_state,
    random_unitary,
    unitary_channel,
)

TOL = 1e-12
DIMS = [1, 2, 3, 4, 5, 6]
COMPOSITES = [(2, 2), (2, 3), (3, 2), (3, 3)]


def ref_encode(mat, dim):
    return np.einsum("kij,ji->k", hermitian_basis(dim), mat).real


def ref_unitary_channel(u, dim):
    basis = hermitian_basis(dim)
    moved = np.einsum("ab,kbc,dc->kad", u, basis, u.conj())
    return np.einsum("jmn,knm->jk", basis, moved).real


def ref_product_basis_change(dim_a, dim_b):
    dim = dim_a * dim_b
    prod = np.einsum(
        "imn,jpq->ijmpnq", hermitian_basis(dim_a), hermitian_basis(dim_b)
    ).reshape(dim_a * dim_a * dim_b * dim_b, dim, dim)
    return np.einsum("kmn,lnm->kl", hermitian_basis(dim), prod).real


def ref_choi_matrix(matrix, din, dout):
    c_in = hermitian_basis(din).transpose(0, 2, 1)
    moved = np.einsum("jk,kab->jab", matrix.astype(complex), c_in)
    te = np.einsum("jab,jmn->abmn", moved, hermitian_basis(dout))
    return te.transpose(2, 0, 3, 1).reshape(dout * din, dout * din)


def random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def assert_close(got, want):
    assert got.shape == want.shape
    assert float(np.max(np.abs(got - want))) <= TOL


@pytest.mark.parametrize("dim", DIMS)
def test_encode_and_decode_match_the_einsum_forms(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(5):
        herm = random_hermitian(dim, rng)
        coeffs = core._encode(herm, dim)
        assert_close(coeffs, ref_encode(herm, dim))
        assert_close(core._decode(coeffs, dim), herm)
        want = np.tensordot(coeffs, hermitian_basis(dim), axes=([0], [0]))
        assert_close(core._decode(coeffs, dim), want)


@pytest.mark.parametrize("dim", DIMS)
def test_encode_accepts_transposed_views_and_real_matrices(dim):
    rng = np.random.default_rng(200 + dim)
    herm = random_hermitian(dim, rng)
    for view in (herm.T, random_hermitian(2 * dim, rng)[::2, ::2]):
        assert dim == 1 or not view.flags.c_contiguous
        assert_close(core._encode(view, dim), ref_encode(view, dim))
    sym = rng.standard_normal((dim, dim))
    sym = sym + sym.T
    assert sym.dtype == np.float64
    assert_close(core._encode(sym, dim), ref_encode(sym, dim))
    assert_close(core._encode(sym[::-1, ::-1], dim), ref_encode(sym[::-1, ::-1], dim))


@pytest.mark.parametrize("dim", DIMS)
def test_encode_still_rejects_non_hermitian_input(dim):
    if dim == 1:
        mat = np.array([[1j]])
    else:
        mat = np.zeros((dim, dim), dtype=complex)
        mat[0, 1] = 1.0
    with pytest.raises(core.ValidationError):
        core._encode(mat, dim)


@pytest.mark.parametrize("dim", DIMS)
def test_unitary_channel_matches_the_einsum_form(dim):
    rng = np.random.default_rng(300 + dim)
    for _ in range(3):
        u = haar_unitary(dim, rng)
        got = unitary_channel(quantum_system(dim), u).matrix
        assert_close(got, ref_unitary_channel(u, dim))


@pytest.mark.parametrize("dim", DIMS)
def test_unitary_matrices_equal_unitary_channel_on_every_stacked_matrix(dim):
    rng = np.random.default_rng(350 + dim)
    stack = np.array([haar_unitary(dim, rng) for _ in range(6)]).reshape(2, 3, dim, dim)
    got = core._unitary_matrices(stack)
    assert got.shape == (2, 3, dim * dim, dim * dim)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(got[idx], unitary_channel(quantum_system(dim), stack[idx]).matrix)


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_rowpair_equals_pair_on_every_row(dim):
    rng = np.random.default_rng(360 + dim)
    system = quantum_system(dim)
    states = np.array([random_state(system, rng, kind="mixed").coeffs for _ in range(40)])
    effects = np.array([random_effect(system, rng).coeffs for _ in range(40)])
    want = [pair(Effect(system, e), StateVector(system, s)) for e, s in zip(effects, states)]
    assert core._rowpair(effects, states).tolist() == want
    # one effect row broadcasts against the stack
    one = [pair(Effect(system, effects[0]), StateVector(system, s)) for s in states]
    assert core._rowpair(effects[0], states).tolist() == one


@pytest.mark.parametrize("dims", COMPOSITES)
def test_composite_unitary_channel_matches_the_einsum_form(dims):
    rng = np.random.default_rng(400 + 10 * dims[0] + dims[1])
    system = composite_system(quantum_system(dims[0]), quantum_system(dims[1]))
    u = haar_unitary(system.dim, rng)
    assert_close(unitary_channel(system, u).matrix, ref_unitary_channel(u, system.dim))


@pytest.mark.parametrize("dims", [(a, b) for a in (1, 2) for b in DIMS] + COMPOSITES)
def test_product_basis_change_matches_the_einsum_form(dims):
    got = core._product_basis_change.__wrapped__(*dims)
    want = ref_product_basis_change(*dims)
    assert_close(got, want)
    assert_close(got @ got.T, np.eye(got.shape[0]))


@pytest.mark.parametrize("dim", DIMS)
def test_choi_matrix_matches_the_einsum_form(dim):
    rng = np.random.default_rng(500 + dim)
    system = quantum_system(dim)
    t = random_unitary(system, rng)
    assert_close(core._choi_matrix(t), ref_choi_matrix(t.matrix, dim, dim))


@pytest.mark.parametrize("dims", COMPOSITES)
def test_choi_matrix_matches_between_different_dimensions(dims):
    # a trace-and-replace channel maps a din system into a dout one
    din, dout = dims
    rng = np.random.default_rng(600 + 10 * din + dout)
    sigma = random_hermitian(dout, rng)
    sigma = sigma @ sigma.conj().T
    sigma /= np.trace(sigma).real
    matrix = np.zeros((dout * dout, din * din))
    matrix[:, 0] = core._encode(sigma, dout) * np.sqrt(din)
    t = channel_from_matrix(quantum_system(din), quantum_system(dout), matrix)
    assert_close(core._choi_matrix(t), ref_choi_matrix(matrix, din, dout))


def test_unitary_check_is_shared_and_keeps_its_wording():
    system = quantum_system(2)
    with pytest.raises(core.ValidationError, match=r"matrix is not unitary \(deviation"):
        unitary_channel(system, np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(core.SystemMismatchError):
        unitary_channel(system, np.eye(3))
    with pytest.raises(core.ValidationError, match=r"branch 1 is not unitary \(deviation"):
        core._as_unitary(2.0 * np.eye(2), 2, "branch 1")
