"""Differential tests: the stacked contract and kick-back checks against loops.

The reference functions below are the original per-sample loops, kept here
only, as the definition the stacked checks in `control` must reproduce: the
same samples from the same generator, the same deviations to 1e-12 and the
same worst branch.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from interferlab import control, core
from interferlab import (
    StateVector,
    Transformation,
    ValidationError,
    apply,
    basis_state,
    build_controlled,
    classical_system,
    extract_kickback,
    haar_unitary,
    maximally_mixed,
    pair,
    partial_pair,
    quantum_system,
    random_state,
    random_unitary,
    state_from_density,
    superposition_preservation_report,
    tensor_states,
    verify_control_contract,
)

TOL = 1e-12
SHAPES = [(2, 2), (3, 2), (2, 3), (4, 3)]


def ref_samples(system, trials, rng):
    kinds = ["pure", "mixed"]
    return [random_state(system, rng, kind=kinds[t % 2]) for t in range(trials)]


def ref_filter_report(composite, effects, branches, control, target, trials, seed):
    rng = np.random.default_rng(seed)
    max_dev, worst_branch = 0.0, 0
    for t in range(trials):
        omega = random_state(control, rng, kind="mixed" if t % 2 else "pure")
        sigma = random_state(target, rng, kind="pure" if t % 2 else "mixed")
        moved = apply(composite, tensor_states(omega, sigma))
        for i, effect in enumerate(effects):
            got = partial_pair(moved, effect, 0)
            want = pair(effect, omega) * apply(branches[i], sigma).coeffs
            dev = float(np.max(np.abs(got.coeffs - want)))
            if dev > max_dev:
                max_dev, worst_branch = dev, i
    return {"max_deviation": max_dev, "worst_branch": worst_branch, "trials": trials}


def ref_contract(controlled, trials, seed):
    rng = np.random.default_rng(seed)
    branch_dev = 0.0
    for sigma in ref_samples(controlled.target_system, trials, rng):
        for i, state in enumerate(controlled.control_states):
            out = apply(controlled.composite, tensor_states(state, sigma))
            want = tensor_states(state, apply(controlled.branch_transforms[i], sigma))
            branch_dev = max(branch_dev, float(np.max(np.abs(out.coeffs - want.coeffs))))
    filt = ref_filter_report(
        controlled.composite,
        controlled.control_effects,
        controlled.branch_transforms,
        controlled.control_system,
        controlled.target_system,
        trials,
        rng,
    )
    return {
        "max_branch_deviation": branch_dev,
        "max_filter_deviation": filt["max_deviation"],
        "trials": trials,
    }


def ref_kickback_deviation(controlled, transform, fixed_state, trials, seed):
    rng = np.random.default_rng(seed)
    kb_dev = 0.0
    for sigma in ref_samples(controlled.control_system, trials, rng):
        lhs = apply(controlled.composite, tensor_states(sigma, fixed_state))
        rhs = tensor_states(apply(transform, sigma), fixed_state)
        kb_dev = max(kb_dev, float(np.max(np.abs(lhs.coeffs - rhs.coeffs))))
    return kb_dev


def with_composite(controlled, composite):
    """A copy of the controlled map whose cached composite is the given one."""
    copy = dataclasses.replace(controlled)
    vars(copy)["composite"] = composite
    return copy


def built_and_broken(n, d):
    rng = np.random.default_rng(10 * n + d)
    target = quantum_system(d)
    built = build_controlled([haar_unitary(d, rng) for _ in range(n)], target, seed=3)
    broken = with_composite(built, random_unitary(built.composite.in_system, 99))
    return built, broken


def assert_reports_agree(got, want):
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, float):
            assert abs(got[key] - value) <= TOL, key
        else:
            assert got[key] == value, key


@pytest.mark.parametrize("n,d", SHAPES)
@pytest.mark.parametrize("broken", [False, True])
def test_contract_report_matches_the_loop(n, d, broken):
    controlled = built_and_broken(n, d)[broken]
    for seed in (0, 7):
        want = ref_contract(controlled, 20, seed)
        assert_reports_agree(verify_control_contract(controlled, trials=20, seed=seed), want)
    if broken:
        assert want["max_branch_deviation"] > 0.1
        assert want["max_filter_deviation"] > 0.1


@pytest.mark.parametrize("n,d", SHAPES)
@pytest.mark.parametrize("broken", [False, True])
def test_filter_report_matches_the_loop(n, d, broken):
    controlled = built_and_broken(n, d)[broken]
    args = (
        controlled.composite,
        controlled.control_effects,
        controlled.branch_transforms,
        controlled.control_system,
        controlled.target_system,
    )
    for trials, seed in ((20, 0), (9, 5)):
        want = ref_filter_report(*args, trials, seed)
        got = superposition_preservation_report(*args, trials=trials, seed=seed)
        assert_reports_agree(got, want)


def phase_controlled(n, d):
    rng = np.random.default_rng(100 * n + d)
    branches = [np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, d))) for _ in range(n)]
    return build_controlled(branches, quantum_system(d), seed=2)


@pytest.mark.parametrize("n,d", SHAPES)
def test_kickback_residual_matches_the_loop(n, d):
    controlled = phase_controlled(n, d)
    fixed = basis_state(controlled.target_system, d - 1)
    for samples, seed in ((20, 0), (7, 4)):
        result = extract_kickback(controlled, fixed, verify_samples=samples, seed=seed)
        want = ref_kickback_deviation(controlled, result.transform, fixed, samples, seed)
        assert abs(result.kickback_residual - want) <= TOL


@pytest.mark.parametrize("n,d", SHAPES)
def test_broken_kickback_reports_the_loop_deviation(n, d):
    controlled = phase_controlled(n, d)
    fixed = basis_state(controlled.target_system, 0)
    transform = extract_kickback(controlled, fixed).transform
    broken = with_composite(controlled, random_unitary(controlled.composite.in_system, 99))
    with pytest.raises(ValidationError, match="kick-back equation failed") as err:
        extract_kickback(broken, fixed, seed=1)
    got = float(re.search(r"deviation (\S+)\)", str(err.value)).group(1))
    assert abs(got - ref_kickback_deviation(broken, transform, fixed, 20, 1)) <= TOL


def single_row_error(system, row):
    with pytest.raises(ValidationError) as err:
        StateVector(system, row)
    return str(err.value)


@pytest.mark.parametrize("system", [quantum_system(3), classical_system(3)])
def test_stack_check_fires_on_one_unnormalized_row(system):
    rng = np.random.default_rng(1)
    stack = np.array([random_state(system, rng, kind="mixed").coeffs for _ in range(6)])
    stack[4] = 2.0 * maximally_mixed(system).coeffs
    message = single_row_error(system, stack[4])
    assert message.startswith("state is not normalized: unit pairing")
    with pytest.raises(ValidationError) as err:
        core._check_states(system, stack)
    assert str(err.value) == message


def test_stack_check_fires_on_one_row_with_a_negative_eigenvalue():
    rng = np.random.default_rng(2)
    system = quantum_system(3)
    stack = np.array([random_state(system, rng, kind="mixed").coeffs for _ in range(6)])
    core._check_states(system, stack)
    stack[2] = core._encode(np.diag([0.75, 0.5, -0.25]).astype(complex), 3)
    message = single_row_error(system, stack[2])
    prefix = "state is not positive: lowest eigenvalue "
    assert message.startswith(prefix)
    with pytest.raises(ValidationError, match=prefix) as err:
        core._check_states(system, stack)
    low = float(str(err.value)[len(prefix):])
    assert abs(low - float(message[len(prefix):])) <= TOL
    assert abs(low + 0.25) <= TOL


def test_stack_check_fires_on_a_negative_classical_entry():
    system = classical_system(3)
    stack = np.array([[0.2, 0.3, 0.5], [0.6, 0.6, -0.2], [1.0, 0.0, 0.0]])
    message = single_row_error(system, stack[1])
    with pytest.raises(ValidationError) as err:
        core._check_states(system, stack)
    assert str(err.value) == message == "state is not positive: lowest eigenvalue -0.2"


def leaky_composite(controlled):
    """A map that keeps the unit effect but leaves the state space."""
    system = controlled.composite.in_system
    flip = np.eye(system.vector_space_dim)
    flip[1:, 1:] *= -3.0
    leaky = Transformation(system, system, flip)
    with pytest.raises(ValidationError, match="state is not positive"):
        apply(leaky, state_from_density(system, np.diag([1.0, 0.0, 0.0, 0.0])))
    return with_composite(controlled, leaky)


def test_each_check_validates_the_composite_outputs(monkeypatch):
    controlled = leaky_composite(phase_controlled(2, 2))

    def unreachable(*args, **kwargs):
        raise AssertionError("the branch check let an invalid output through")

    # the branch check must reject the outputs itself, before the filter check
    with monkeypatch.context() as m:
        m.setattr(control, "superposition_preservation_report", unreachable)
        with pytest.raises(ValidationError, match="state is not positive"):
            verify_control_contract(controlled)
    with pytest.raises(ValidationError, match="state is not positive"):
        superposition_preservation_report(
            controlled.composite,
            controlled.control_effects,
            controlled.branch_transforms,
            controlled.control_system,
            controlled.target_system,
        )
    with pytest.raises(ValidationError, match="state is not positive"):
        extract_kickback(controlled, basis_state(controlled.target_system, 1))
