"""Differential tests: the structured basis kernels against dense references.

The kernels read the Gell-Mann basis through an index layout and never build
it.  The reference functions below read hermitian_basis(d) as a dense stack,
kept here only, as the definition the structured kernels must reproduce to
1e-12.  Stacked kernels must also equal their one-row results bit for bit.
"""

import os
import subprocess
import sys

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
    tensor_transformations,
    unitary_channel,
)

TOL = 1e-12
DIMS = [1, 2, 3, 4, 5, 6, 7, 8]
COMPOSITES = [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 6), (2, 12)]


def flat_basis(dim):
    """Row k is the row-major vec(B_k)."""
    return hermitian_basis(dim).reshape(dim * dim, dim * dim)


def ref_encode(mat, dim):
    # Tr(B_k X) = vec(B_k) . vec(X^T)
    return (flat_basis(dim) @ np.asarray(mat).T.reshape(-1)).real


def ref_decode(coeffs, dim):
    return (coeffs @ flat_basis(dim)).reshape(dim, dim)


def ref_unitary_channel(u, dim):
    # column k is the encoding of U B_k U^dag
    moved = u @ hermitian_basis(dim) @ u.conj().T
    return (flat_basis(dim) @ moved.transpose(0, 2, 1).reshape(dim * dim, -1).T).real


def ref_product_basis_change(dim_a, dim_b):
    dim = dim_a * dim_b
    prod = np.einsum(
        "imn,jpq->ijmpnq", hermitian_basis(dim_a), hermitian_basis(dim_b)
    ).reshape(dim_a * dim_a * dim_b * dim_b, dim * dim)
    # Tr(C_k P_l) = vec(C_k) . vec(P_l^T), and P_l is Hermitian
    return (flat_basis(dim) @ prod.conj().T).real


def ref_choi_matrix(matrix, din, dout):
    c_in = hermitian_basis(din).transpose(0, 2, 1)
    moved = np.einsum("jk,kab->jab", matrix.astype(complex), c_in)
    te = np.einsum("jab,jmn->abmn", moved, hermitian_basis(dout))
    return te.transpose(2, 0, 3, 1).reshape(dout * din, dout * din)


def gell_mann(dim):
    """The basis as Bertlmann and Krammer define it, one matrix at a time."""
    mats = [np.eye(dim, dtype=complex) / np.sqrt(dim)]
    for k in range(1, dim):
        for j in range(k):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = m[k, j] = 1.0 / np.sqrt(2.0)
            mats.append(m)
    for k in range(1, dim):
        for j in range(k):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = -1j / np.sqrt(2.0)
            m[k, j] = 1j / np.sqrt(2.0)
            mats.append(m)
    for k in range(1, dim):
        m = np.zeros((dim, dim), dtype=complex)
        m[:k, :k] = np.eye(k)
        m[k, k] = -k
        mats.append(m / np.sqrt(k * (k + 1)))
    return np.array(mats)


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
        assert_close(core._decode(coeffs, dim), ref_decode(coeffs, dim))


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


def depolarized(t, p):
    """The channel t followed by depolarizing with weight p: CPTP, not unitary."""
    shrink = np.full(t.out_system.vector_space_dim, 1.0 - p)
    shrink[0] = 1.0
    return channel_from_matrix(t.in_system, t.out_system, shrink[:, None] * t.matrix)


def ref_tensor_transformations(a, b):
    r_in = ref_product_basis_change(a.in_system.dim, b.in_system.dim)
    r_out = ref_product_basis_change(a.out_system.dim, b.out_system.dim)
    return r_out @ np.kron(a.matrix, b.matrix) @ r_in.T


@pytest.mark.parametrize("dims", [(a, b) for a in (1, 2) for b in DIMS] + COMPOSITES)
def test_product_basis_change_matches_the_einsum_form(dims):
    # tensor_transformations applies the product-basis change in the einsum form
    da, db = dims
    sa, sb = quantum_system(da), quantum_system(db)
    rng = np.random.default_rng(450 + 10 * da + db)
    ua, ub = haar_unitary(da, rng), haar_unitary(db, rng)
    a, b = unitary_channel(sa, ua), unitary_channel(sb, ub)
    got = tensor_transformations(a, b)
    assert got.in_system == got.out_system == composite_system(sa, sb)
    assert_close(got.matrix, ref_tensor_transformations(a, b))
    assert_close(got.matrix, unitary_channel(got.in_system, np.kron(ua, ub)).matrix)
    noisy_a, noisy_b = depolarized(a, 0.3), depolarized(b, 0.6)
    assert_close(tensor_transformations(noisy_a, noisy_b).matrix,
                 ref_tensor_transformations(noisy_a, noisy_b))


def test_tensor_transformations_of_an_isometry_between_different_dimensions():
    # V rho V^dag embeds a qubit into a qutrit: column k is the encoding of V B_k V^dag
    rng = np.random.default_rng(470)
    v = haar_unitary(3, rng)[:, :2]
    moved = v @ hermitian_basis(2) @ v.conj().T
    embed = channel_from_matrix(
        quantum_system(2), quantum_system(3), np.array([core._encode(m, 3) for m in moved]).T)
    other = depolarized(random_unitary(quantum_system(2), rng), 0.5)
    for a, b in ((embed, other), (other, embed), (embed, embed)):
        got = tensor_transformations(a, b)
        assert got.matrix.shape == (a.out_system.dim ** 2 * b.out_system.dim ** 2,
                                    a.in_system.dim ** 2 * b.in_system.dim ** 2)
        assert_close(got.matrix, ref_tensor_transformations(a, b))


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
    gap = r" is not unitary: max\|U\^dag U - I\| \({} > EPS_EQ = 1e-09\)$"
    with pytest.raises(core.ValidationError, match="^matrix" + gap.format(r"1\.0")):
        unitary_channel(system, np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(core.SystemMismatchError):
        unitary_channel(system, np.eye(3))
    with pytest.raises(core.ValidationError, match="^branch 1" + gap.format(r"2\.0")):
        core._as_unitary(np.ones((2, 2)), 2, "branch 1")
    # an entry of modulus above 1 is refused before U^dag U is formed
    entry = r"^branch 1 is not unitary: max\|u_ij\| - 1 \(1\.0 > EPS_EQ = 1e-09\)$"
    with pytest.raises(core.ValidationError, match=entry):
        core._as_unitary(2.0 * np.eye(2), 2, "branch 1")


def test_hermitian_basis_is_the_gell_mann_definition():
    for dim in DIMS:
        assert_close(hermitian_basis(dim), gell_mann(dim))


@pytest.mark.parametrize("dim", DIMS)
def test_stacked_encode_and_decode_equal_their_one_row_results(dim):
    rng = np.random.default_rng(700 + dim)
    mats = np.array([random_hermitian(dim, rng) for _ in range(6)]).reshape(2, 3, dim, dim)
    coeffs = core._encode(mats, dim)
    decoded = core._decode(coeffs, dim)
    assert coeffs.shape == (2, 3, dim * dim) and decoded.shape == mats.shape
    for idx in np.ndindex(2, 3):
        assert np.array_equal(coeffs[idx], core._encode(mats[idx], dim))
        assert np.array_equal(decoded[idx], core._decode(coeffs[idx], dim))
        assert_close(coeffs[idx], ref_encode(mats[idx], dim))


@pytest.mark.parametrize("dims", COMPOSITES)
def test_tensor_coeffs_match_the_product_basis_and_each_stacked_row(dims):
    da, db = dims
    sa, sb = quantum_system(da), quantum_system(db)
    rng = np.random.default_rng(800 + 10 * da + db)
    a = np.array([random_state(sa, rng, kind="mixed").coeffs for _ in range(3)])
    b = np.array([random_effect(sb, rng).coeffs for _ in range(4)])
    got = core._tensor_coeffs(sa, sb, a[:, None, :], b)
    change = ref_product_basis_change(da, db)
    assert got.shape == (3, 4, da * da * db * db)
    for i, j in np.ndindex(3, 4):
        assert np.array_equal(got[i, j], core._tensor_coeffs(sa, sb, a[i], b[j]))
        assert_close(got[i, j], change @ np.kron(a[i], b[j]))


@pytest.mark.parametrize("dims", COMPOSITES)
def test_composite_unitary_stacks_equal_unitary_channel(dims):
    system = composite_system(quantum_system(dims[0]), quantum_system(dims[1]))
    rng = np.random.default_rng(900 + 10 * dims[0] + dims[1])
    stack = np.array([haar_unitary(system.dim, rng) for _ in range(2)])
    got = core._unitary_matrices(stack)
    for i in range(2):
        assert np.array_equal(got[i], unitary_channel(system, stack[i]).matrix)


def test_import_builds_no_layout_and_no_basis():
    probe = (
        "import interferlab.cli; from interferlab import core; "
        "print(core._layout.cache_info().currsize, core.hermitian_basis.cache_info().currsize)"
    )
    src = os.path.dirname(os.path.dirname(core.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout
    assert out.split() == ["0", "0"]
