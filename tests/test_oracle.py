"""Tests for kick-back oracles and one-query parity protocols."""

import itertools

import pytest

from interferlab import (
    DecisionFunction,
    ValidationError,
    basis_state,
    build_oracle,
    kickback_signature,
    run_deutsch,
    run_pairwise,
    tensor_states,
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
    with pytest.raises(ValidationError):
        run_pairwise(oracle, 1, 1)
    with pytest.raises(ValidationError):
        run_pairwise(oracle, 0, 3)


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
