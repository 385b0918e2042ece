"""Tests for kick-back oracles and one-query parity protocols."""

import itertools
import math

import numpy as np
import pytest

from interferlab import core, oracle as oracle_module
from interferlab import (
    DecisionFunction,
    OracleInstance,
    ValidationError,
    apply,
    basis_state,
    build_controlled,
    build_oracle,
    ket_state,
    kickback_signature,
    pair,
    projector_effect,
    quantum_system,
    run_deutsch,
    run_pairwise,
    tensor_effects,
    tensor_states,
    unit_effect,
)


def all_tables(n):
    """Every bit table on n inputs."""
    return [bits for bits in itertools.product((0, 1), repeat=n)]


def test_decision_function_validation():
    f = DecisionFunction((0, 1, 1))
    assert f.n == 3
    assert [f(i) for i in range(3)] == [0, 1, 1]
    with pytest.raises(ValidationError):
        DecisionFunction((1,))
    with pytest.raises(ValidationError):
        DecisionFunction((0, 2))
    # non-bits are refused before conversion, not truncated to bits
    for table in ((0.5, 1), (1.9, 0), ("1", "0")):
        with pytest.raises(ValidationError, match="contains non-bits"):
            DecisionFunction(table)
    with pytest.raises(ValidationError, match=r"table \(0.7, 1\) contains non-bits"):
        run_deutsch(build_oracle((0.7, 1)))
    assert DecisionFunction((1.0, 0)).table == (1, 0)


@pytest.mark.parametrize("table", all_tables(2))
def test_single_query_parity_on_every_two_bit_function(table):
    oracle = build_oracle(table)
    result = run_deutsch(oracle)
    assert result.parity == table[0] ^ table[1]
    assert result.queries == 1
    assert abs(result.probability - 1.0) < 1e-12
    assert oracle.query_count == 1


def test_parity_readout_never_consults_the_table():
    oracle = build_oracle((0, 1))
    oracle.function = DecisionFunction((0, 0))
    assert run_deutsch(oracle).parity == 1


def test_query_count_tracks_every_application():
    oracle = build_oracle((0, 1))
    assert oracle.query_count == 0
    prepared = tensor_states(
        basis_state(oracle.controlled.control_system, 0),
        basis_state(oracle.controlled.target_system, 0),
    )
    oracle.query(prepared)
    oracle.query(prepared)
    assert oracle.query_count == 2
    run_deutsch(oracle)
    assert oracle.query_count == 3


def test_deutsch_requires_two_inputs():
    with pytest.raises(ValidationError):
        run_deutsch(build_oracle((0, 1, 0)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pairwise_parity_matches_table_on_all_functions(n):
    for table in all_tables(n):
        oracle = build_oracle(table)
        for i, j in itertools.combinations(range(n), 2):
            result = run_pairwise(oracle, i, j)
            assert result.parity == table[i] ^ table[j]
            assert result.queries == 1
            assert abs(result.probability - 1.0) < 1e-12


def test_pairwise_rejects_bad_level_pairs():
    oracle = build_oracle((0, 1, 1))
    # every bad pair, a non-integer or bool level included, is the same ValidationError
    for i, j in ((1, 1), (0, 3), (-1, 0), (0.0, 1), (False, True)):
        with pytest.raises(ValidationError) as info:
            run_pairwise(oracle, i, j)
        assert str(info.value) == f"invalid control level pair ({i}, {j}) for 3 levels"
    # at two levels numpy would read (False, True) as masks and build a mixed readout
    with pytest.raises(ValidationError, match=r"pair \(False, True\) for 2 levels"):
        run_pairwise(build_oracle((0, 1)), False, True)


@pytest.mark.parametrize("n", [2, 3])
def test_kickback_signature_is_the_gauged_sign_table(n):
    for table in all_tables(n):
        oracle = build_oracle(table)
        signs = kickback_signature(oracle)
        want = [(-1) ** (bit ^ table[0]) for bit in table]
        assert signs[0] == 1
        assert list(signs) == want


def test_kickback_signature_spends_no_queries():
    oracle = build_oracle((1, 0))
    assert list(kickback_signature(oracle)) == [1, -1]
    assert oracle.query_count == 0


def test_signature_disagreement_bit_matches_pairwise_parity():
    for table in all_tables(3):
        oracle = build_oracle(table)
        signs = kickback_signature(oracle)
        for i, j in itertools.combinations(range(3), 2):
            assert (signs[i] != signs[j]) == bool(run_pairwise(oracle, i, j).parity)


def reference_readout(n, i, j):
    """The pairwise readout built inline from the public constructors."""
    control, target = quantum_system(n), quantum_system(2)
    superpose = np.zeros(n, dtype=complex)
    superpose[i] = superpose[j] = 1.0 / math.sqrt(2.0)
    antipose = np.zeros(n, dtype=complex)
    antipose[i], antipose[j] = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
    prepared = tensor_states(ket_state(control, superpose), basis_state(target, 1))
    stay = tensor_effects(projector_effect(control, superpose), unit_effect(target))
    flip = tensor_effects(projector_effect(control, antipose), unit_effect(target))
    return prepared, stay, flip


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cached_readout_is_bit_for_bit_the_inline_one(n):
    oracle_module._pair_readout.cache_clear()
    table = tuple(k % 2 for k in range(n))
    oracle = build_oracle(table)
    control, target = oracle.controlled.control_system, oracle.controlled.target_system
    for i, j in itertools.permutations(range(n), 2):
        want = reference_readout(n, i, j)
        got = oracle_module._pair_readout(control, target, i, j)
        for w, g in zip(want, got):
            assert np.array_equal(w.coeffs, g.coeffs)
        moved = apply(oracle.controlled.composite, want[0])
        p_stay, p_flip = pair(want[1], moved), pair(want[2], moved)
        result = run_pairwise(oracle, i, j)
        assert result.probability == (p_flip if result.parity else p_stay)


def test_readout_effects_are_validated_once_per_key(monkeypatch):
    oracle_module._pair_readout.cache_clear()
    first, second = build_oracle((0, 1, 1)), build_oracle((1, 1, 0))
    joint = core.composite_system(quantum_system(3), quantum_system(2))
    checked = []
    real = core._check_effects

    def counting(system, coeffs):
        checked.append(system)
        return real(system, coeffs)

    monkeypatch.setattr(core, "_check_effects", counting)
    assert run_pairwise(first, 0, 2).parity == 1
    assert checked.count(joint) == 2
    checked.clear()
    assert run_pairwise(second, 0, 2).parity == 1
    assert checked == []


def test_query_count_rises_by_one_per_pairwise_call():
    oracle = build_oracle((0, 1, 1, 0))
    pairs = [(0, 1), (2, 3), (0, 1), (1, 0), (0, 1)]
    for calls, (i, j) in enumerate(pairs, start=1):
        run_pairwise(oracle, i, j)
        assert oracle.query_count == calls


def test_readout_cache_is_bounded():
    assert oracle_module._pair_readout.cache_info().maxsize is not None


def phase_oracle():
    """An oracle whose second branch kicks the angle pi/2, not a sign."""
    branches = [np.eye(2), np.diag([1.0, 1j])]
    return OracleInstance(DecisionFunction((0, 1)), build_controlled(branches, quantum_system(2)))


def test_pairwise_rejects_a_non_deterministic_readout():
    with pytest.raises(RuntimeError, match="oracle readout is not deterministic"):
        run_pairwise(phase_oracle(), 0, 1)


def test_signature_rejects_a_non_sign_kick():
    with pytest.raises(RuntimeError, match="kicked a non-sign angle"):
        kickback_signature(phase_oracle())


def test_pairwise_rejects_a_query_that_is_not_counted():
    class Uncounted(OracleInstance):
        def query(self, state):
            return apply(self.controlled.composite, state)

    built = build_oracle((0, 1))
    uncounted = Uncounted(built.function, built.controlled)
    with pytest.raises(RuntimeError, match="protocol spent 0 queries"):
        run_pairwise(uncounted, 0, 1)
