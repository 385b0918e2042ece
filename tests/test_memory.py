"""The memory rule in core: one copy of each channel matrix, and stacked kernels
whose temporaries stay within the block budget without moving a bit.

Block tests shrink core._BLOCK_ENTRIES so that every stack spans at least three
blocks, and compare each row with a one-row call.  Memory guards measure peak
traced allocation with tracemalloc, which numpy reports to and which does not
depend on the allocator or the host.
"""

import math
import tracemalloc

import numpy as np
import pytest

from interferlab import core, interference
from interferlab import (
    Transformation,
    ValidationError,
    basis_experiment,
    build_controlled,
    extract_kickback,
    haar_unitary,
    quantum_system,
    random_effect,
    random_state,
    tensor_transformations,
    unitary_channel,
)


def spans_blocks(monkeypatch, rows, row_entries, blocks=3):
    """Shrink the budget so `rows` rows of `row_entries` entries fill `blocks` blocks or more."""
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", row_entries * max(1, rows // (blocks + 1)))
    assert len(core._blocks(rows, row_entries)) >= blocks


def state_stack(dim, rows, seed):
    rng = np.random.default_rng(seed)
    system = quantum_system(dim)
    return np.stack([random_state(system, rng, kind="mixed").coeffs for _ in range(rows)])


def encoded(diag):
    """Coefficients of diag(diag) on a system of dimension len(diag)."""
    return core._encode(np.diag(np.asarray(diag, dtype=complex)), len(diag))


def error_message(call):
    with pytest.raises(ValidationError) as info:
        call()
    return str(info.value)


# ---------------------------------------------------------------------------
# block boundaries


def test_state_and_effect_checks_accept_every_block(monkeypatch):
    d, rows = 3, 11
    states = state_stack(d, rows, 1)
    effects = np.stack([random_effect(quantum_system(d), s).coeffs for s in range(rows)])
    spans_blocks(monkeypatch, rows, 2 * d * d)
    core._check_states(quantum_system(d), states)
    core._check_effects(quantum_system(d), effects)


def test_a_non_positive_row_in_the_last_block_reports_the_stack_minimum(monkeypatch):
    d, rows = 3, 11
    system = quantum_system(d)
    stack = state_stack(d, rows, 2)
    stack[1] = encoded([1.05, -0.05, 0.0])   # the first block fails too, less badly
    stack[-1] = encoded([1.25, -0.25, 0.0])
    whole = error_message(lambda: core._check_states(system, stack))
    low = min(np.linalg.eigvalsh(core._decode(row, d))[0] for row in stack)
    assert whole == (
        f"state is not positive: -(lowest eigenvalue) ({-float(low)!r} > EPS_PSD = 1e-08)")
    spans_blocks(monkeypatch, rows, 2 * d * d)
    assert error_message(lambda: core._check_states(system, stack)) == whole


def test_an_effect_outside_the_unit_interval_in_the_last_block_reports_the_stack_range(
    monkeypatch,
):
    d, rows = 3, 11
    system = quantum_system(d)
    stack = np.stack([random_effect(system, s).coeffs for s in range(rows)])
    # the highest value lies in the first block and the lowest in the last
    stack[0] = encoded([1.5, 0.5, 0.25])
    stack[-1] = encoded([0.75, 0.5, -0.25])
    whole = error_message(lambda: core._check_effects(system, stack))
    spectra = [np.linalg.eigvalsh(core._decode(row, d)) for row in stack]
    low, high = min(s[0] for s in spectra), max(s[-1] for s in spectra)
    assert whole == (
        f"effect pairing range [{float(low)!r}, {float(high)!r}] leaves [0, 1]: "
        f"max(-low, high - 1) ({max(-float(low), float(high) - 1.0)!r} > EPS_PSD = 1e-08)")
    spans_blocks(monkeypatch, rows, 2 * d * d)
    assert error_message(lambda: core._check_effects(system, stack)) == whole


def test_an_unnormalised_row_in_the_last_block_reports_the_first_worst_norm(monkeypatch):
    # at d = 4 the unit pairing is 2 c_0, exact: rows of pairing 0.5 and 1.5
    # deviate equally, by the residual reported
    d, rows = 4, 12
    system = quantum_system(d)
    stack = state_stack(d, rows, 3)
    stack[-2, 0] = 0.25
    stack[-1, 0] = 0.75
    whole = error_message(lambda: core._check_states(system, stack))
    assert whole == "state is not normalized: |unit pairing - 1| (0.5 > EPS_EQ = 1e-09)"
    spans_blocks(monkeypatch, rows, 2 * d * d)
    assert error_message(lambda: core._check_states(system, stack)) == whole


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3)])
def test_tensor_coeffs_rows_equal_one_row_calls(monkeypatch, dims):
    da, db = dims
    sa, sb = quantum_system(da), quantum_system(db)
    a = state_stack(da, 4, 4)[:, None]
    b = state_stack(db, 5, 5)
    want = np.array(
        [[core._tensor_coeffs(sa, sb, a[i, 0], b[j]) for j in range(5)] for i in range(4)])
    spans_blocks(monkeypatch, 20, 4 * (da * db) ** 2)
    got = core._tensor_coeffs(sa, sb, a, b)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_stacked_unitary_matrices_equal_one_unitary_calls(monkeypatch, d):
    u = np.stack([haar_unitary(d, seed) for seed in range(7)])
    want = np.stack([unitary_channel(quantum_system(d), one).matrix for one in u])
    p = d * (d - 1) // 2
    spans_blocks(monkeypatch, p, 2 * p * len(u), blocks=min(3, p))
    assert np.array_equal(core._unitary_matrices(u), want)


def test_one_large_unitary_builds_its_pair_rows_in_blocks(monkeypatch):
    d = 9
    p = d * (d - 1) // 2
    u = haar_unitary(d, 11)
    want = unitary_channel(quantum_system(d), u).matrix
    spans_blocks(monkeypatch, p, 2 * p)
    assert np.array_equal(core._unitary_matrices(u), want)


@pytest.mark.parametrize("shared", [True, False])
def test_phase_moved_rows_equal_one_row_calls(monkeypatch, shared):
    d, rows = 3, 10
    system = quantum_system(d)
    experiment = basis_experiment(system)
    angles = np.random.default_rng(6).uniform(0.0, 2.0 * math.pi, (rows, d))
    states = state_stack(d, 1 if shared else rows, 7)
    states = states[0] if shared else states
    want = np.concatenate([
        interference._phase_moved(
            experiment, angles[r : r + 1], states if shared else states[r : r + 1])
        for r in range(rows)
    ])
    spans_blocks(monkeypatch, rows, (d * d) ** 2)
    assert np.array_equal(interference._phase_moved(experiment, angles, states), want)


def test_finiteness_is_checked_in_every_block(monkeypatch):
    rows, cols = 40, 16
    matrix = np.ones((rows, cols))
    spans_blocks(monkeypatch, rows, cols)
    assert matrix.size > core._BLOCK_ENTRIES
    core._require_finite(matrix, "matrix")
    matrix[-1, -1] = np.nan
    message = error_message(lambda: core._require_finite(matrix, "matrix"))
    assert message == "matrix holds NaN or infinity"


def test_huge_finite_entries_pass_the_finiteness_check_without_a_warning(monkeypatch):
    # a check that summed the entries would overflow here, which warns
    rows, cols = 40, 16
    matrix = np.full((rows, cols), 1e308)
    spans_blocks(monkeypatch, rows, cols)
    core._require_finite(matrix, "matrix")
    matrix[-1, -1] = -np.inf
    message = error_message(lambda: core._require_finite(matrix, "matrix"))
    assert message == "matrix holds NaN or infinity"


# ---------------------------------------------------------------------------
# peak memory


def traced_peak(call) -> tuple[int, object]:
    """Peak bytes traced while `call` runs, above what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - before, result


def test_unitary_channel_keeps_one_matrix_and_small_temporaries():
    system = quantum_system(32)
    u = haar_unitary(32, 1)
    unitary_channel(quantum_system(2), haar_unitary(2, 0))
    core._layout(32)
    peak, t = traced_peak(lambda: unitary_channel(system, u))
    assert peak <= 1.5 * t.matrix.nbytes


def test_tensor_transformations_peak_is_a_few_matrices():
    a = unitary_channel(quantum_system(6), haar_unitary(6, 2))
    b = unitary_channel(quantum_system(6), haar_unitary(6, 3))
    peak, t = traced_peak(lambda: tensor_transformations(a, b))
    assert peak <= 5 * t.matrix.nbytes


def test_controlled_build_and_kickback_peak_is_a_few_composites():
    target = quantum_system(6)
    rng = np.random.default_rng(5)
    branches = [np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 6))) for _ in range(4)]

    def run():
        controlled = build_controlled(branches, target, seed=1)
        extract_kickback(controlled, seed=1)
        return controlled

    run()
    peak, controlled = traced_peak(run)
    assert peak <= 3 * controlled.composite.matrix.nbytes


def test_the_finiteness_check_allocates_within_the_budget():
    matrix = np.ones((1024, 1024))
    peak, _ = traced_peak(lambda: core._require_finite(matrix, "matrix"))
    assert peak <= 8 * core._BLOCK_ENTRIES


# ---------------------------------------------------------------------------
# what Transformation copies


def test_transformation_copies_a_callers_writable_array():
    system = quantum_system(2)
    matrix = np.eye(4)
    t = Transformation(system, system, matrix)
    matrix[1, 1] = 2.0
    assert t.matrix[1, 1] == 1.0
    assert not np.shares_memory(t.matrix, matrix)
    assert not t.matrix.flags.writeable


def test_transformation_copies_a_read_only_view_of_a_writable_array():
    system = quantum_system(2)
    base = np.eye(4)
    view = base[:]
    view.setflags(write=False)
    t = Transformation(system, system, view)
    base[1, 1] = 2.0
    assert t.matrix[1, 1] == 1.0
    assert not np.shares_memory(t.matrix, base)


def test_transformation_copies_a_callers_locked_array():
    system = quantum_system(2)
    matrix = np.eye(4)
    matrix.setflags(write=False)
    t = Transformation(system, system, matrix)
    # the caller owns the array, so the caller can unlock it again
    matrix.setflags(write=True)
    matrix[1, 1] = 2.0
    assert t.matrix[1, 1] == 1.0
    assert not np.shares_memory(t.matrix, matrix)


def test_the_constructors_private_path_keeps_every_check():
    system = quantum_system(2)
    matrix = np.eye(4)
    matrix[1, 1] = np.nan
    message = error_message(lambda: core._channel(system, system, matrix))
    assert message == "transformation matrix holds NaN or infinity"
    matrix = 2.0 * np.eye(4)
    message = error_message(lambda: core._channel(system, system, matrix))
    # the unit effect is sqrt(2) e_0, which 2 I moves by sqrt(2)
    assert message == ("transformation does not preserve the unit effect: max deviation "
                       f"({float(np.sqrt(2.0))!r} > EPS_EQ = 1e-09)")


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_transformation_converts_a_read_only_array_of_another_type(dtype):
    system = quantum_system(2)
    matrix = np.eye(4, dtype=dtype)
    matrix.setflags(write=False)
    t = Transformation(system, system, matrix)
    assert t.matrix.dtype == np.float64
    assert np.array_equal(t.matrix, np.eye(4))


def test_unitary_channel_matrix_is_the_one_it_built():
    matrix = unitary_channel(quantum_system(3), haar_unitary(3, 4)).matrix
    assert matrix.flags.owndata
    assert not matrix.flags.writeable
