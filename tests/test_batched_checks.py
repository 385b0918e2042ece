"""Differential tests: the stacked contract and kick-back checks against loops.

The reference functions below are per-sample loops over seeded Haar-pure
states, kept here only, as the definition the stacked checks in `control` must
reproduce: the same samples from the same generator and the same deviations
to 1e-12.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from interferlab import control, core
from interferlab import (
    Effect,
    StateVector,
    Transformation,
    ValidationError,
    apply,
    basis_state,
    build_controlled,
    classical_system,
    extract_kickback,
    haar_unitary,
    ket_state,
    maximally_mixed,
    pair,
    partial_pair,
    projector_effect,
    quantum_system,
    random_effect,
    random_state,
    random_unitary,
    state_from_density,
    tensor_states,
    unitary_channel,
    verify_control_contract,
    verify_superposition_preservation,
)

TOL = 1e-12
Z = np.diag([1.0, -1.0])
SHAPES = [(2, 2), (3, 2), (2, 3), (4, 3)]


def ref_samples(system, trials, rng):
    return [random_state(system, rng, kind="pure") for _ in range(trials)]


def ref_filter_report(composite, effects, branches, control, target, trials, seed):
    rng = np.random.default_rng(seed)
    max_dev = 0.0
    for _ in range(trials):
        omega = random_state(control, rng, kind="pure")
        sigma = random_state(target, rng, kind="pure")
        moved = apply(composite, tensor_states(omega, sigma))
        for i, effect in enumerate(effects):
            got = partial_pair(moved, effect, 0)
            want = pair(effect, omega) * apply(branches[i], sigma).coeffs
            max_dev = max(max_dev, float(np.max(np.abs(got.coeffs - want))))
    return {"max_deviation": max_dev, "trials": trials}


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
        got = verify_superposition_preservation(controlled, trials=trials, seed=seed)
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
    got = residual_of(str(err.value))
    assert abs(got - ref_kickback_deviation(broken, transform, fixed, 20, 1)) <= TOL


def ref_sample_stacks(systems, trials, rng):
    """_sample_stacks as a loop: one pure random_state per draw, in draw order."""
    rows = [[] for _ in systems]
    for _ in range(trials):
        for j, system in enumerate(systems):
            rows[j].append(random_state(system, rng, kind="pure").coeffs)
    return [np.array(r) for r in rows]


@pytest.mark.parametrize(
    "dims", [(2,), (3,), (4,), (6,), (2, 3), (4, 2), (3, 6), (1,), (2, 1), (1, 3)])
def test_sample_stacks_equal_the_random_state_loop(dims):
    systems = [quantum_system(d) for d in dims]
    for trials, seed in ((1, 0), (9, 5), (20, 7)):
        got = control._sample_stacks(systems, trials, np.random.default_rng(seed))
        want = ref_sample_stacks(systems, trials, np.random.default_rng(seed))
        assert len(got) == len(systems)
        for rows, ref in zip(got, want):
            assert np.array_equal(rows, ref)
            assert rows.flags.c_contiguous


@pytest.mark.parametrize("dims", [(2,), (3, 4), (2, 9), (8,)])
def test_sample_stacks_leave_the_generator_where_the_loop_did(dims):
    systems = [quantum_system(d) for d in dims]
    for trials, seed in ((2, 0), (7, 5), (200, 20260817)):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = control._sample_stacks(systems, trials, rng)
        want = ref_sample_stacks(systems, trials, ref)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert rng.random() == ref.random()


def test_sample_stacks_take_one_bulk_draw():
    class Counted:
        def __init__(self, rng):
            self.rng, self.shapes = rng, []

        def standard_normal(self, shape):
            self.shapes.append(shape)
            return self.rng.standard_normal(shape)

    rng = Counted(np.random.default_rng(3))
    control._sample_stacks([quantum_system(d) for d in (3, 2, 4)], 6, rng)
    assert rng.shapes == [(6, 18)]


def test_interleaved_sample_stacks_equal_the_loop_and_its_generator_state():
    keys = [((2,), 5), ((3, 4), 7), ((2,), 5), ((2,), 9), ((4, 2), 1), ((3, 4), 7), ((2,), 5)]
    rng, ref = np.random.default_rng(61), np.random.default_rng(61)
    for dims, trials in keys:
        systems = [quantum_system(d) for d in dims]
        got = control._sample_stacks(systems, trials, rng)
        want = ref_sample_stacks(systems, trials, ref)
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
    assert rng.random() == ref.random()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_control_projectors_equal_the_one_ket_constructors(n):
    rng = np.random.default_rng(70 + n)
    system = quantum_system(n)
    for _ in range(5):
        kets = haar_unitary(n, rng)
        controlled = control.ControlledTransformation(quantum_system(2), [np.eye(2)] * n, kets)
        assert not controlled._projectors.flags.writeable
        for i, ket in enumerate(kets.T):
            state, effect = ket_state(system, ket), projector_effect(system, ket)
            assert np.array_equal(controlled._projectors[i], state.coeffs)
            assert np.array_equal(controlled._projectors[i], effect.coeffs)
            assert np.array_equal(controlled.control_states[i].coeffs, state.coeffs)
            assert np.array_equal(controlled.control_effects[i].coeffs, effect.coeffs)


def test_control_projectors_are_not_checked_again(monkeypatch):
    # the constructor's unitarity check on the kets already bounds each
    # projector's normalization, and a rank-1 projector is positive; only the
    # filter check, which pairs them as effects, checks them as its own stack
    calls = []
    for module in (core, control):
        for name in ("_check_states", "_check_effects"):
            monkeypatch.setattr(module, name, lambda system, coeffs, _name=name:
                                calls.append((_name, system.dim, coeffs.shape)))
    controlled = control.ControlledTransformation(quantum_system(2), [np.eye(2)] * 3, np.eye(3))
    assert len(controlled.control_states) == len(controlled.control_effects) == 3
    assert calls == []
    control.verify_superposition_preservation(controlled, trials=2)
    assert [c for c in calls if c[0] == "_check_effects"] == [("_check_effects", 3, (3, 9))]
    with pytest.raises(ValidationError, match="control kets is not unitary"):
        control.ControlledTransformation(quantum_system(2), [Z] * 2, 1.01 * np.eye(2))


@pytest.mark.parametrize("n,d", SHAPES)
def test_stacked_branch_action_equals_the_per_branch_products(n, d):
    controlled = built_and_broken(n, d)[0]
    (sigmas,) = control._sample_stacks((controlled.target_system,), 20, np.random.default_rng(d))
    acted = control._branched(controlled, sigmas)
    fixed = random_state(controlled.target_system, 5).coeffs
    moved = control._branched(controlled, fixed)
    assert acted.shape == (n,) + sigmas.shape
    for i, u in enumerate(controlled.branch_unitaries):
        matrix = unitary_channel(controlled.target_system, u).matrix
        assert np.array_equal(acted[i], core._rowwise(matrix, sigmas))
        assert np.array_equal(moved[i], matrix @ fixed)


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_random_states_equal_the_validated_constructors(d):
    system = quantum_system(d)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = g @ g.conj().T
        pure = ket_state(system, psi / np.linalg.norm(psi))
        mixed = state_from_density(system, rho / np.trace(rho).real)
        rng = np.random.default_rng(seed)
        assert np.array_equal(random_state(system, rng, kind="pure").coeffs, pure.coeffs)
        assert np.array_equal(random_state(system, rng, kind="mixed").coeffs, mixed.coeffs)


def residual_of(message):
    """The residual a core._require_within message reports."""
    return float(re.fullmatch(r".* \((\S+) > EPS_\w+ = \S+\)", message).group(1))


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
    assert message.startswith("state is not normalized: |unit pairing - 1| (")
    with pytest.raises(ValidationError) as err:
        core._check_states(system, stack)
    assert str(err.value) == message


@pytest.mark.parametrize("system", [quantum_system(2), classical_system(2)])
def test_stack_check_reports_the_first_worst_normalization(system):
    base = maximally_mixed(system).coeffs
    stack = np.array([base, base * (1.0 - 3e-9), base, base * (1.0 + 3e-9), base * 1.5])
    for rows in (stack[:4], stack[[0, 3, 1]], stack):
        norms = (rows @ core.unit_effect(system).coeffs).tolist()
        worst = max(norms, key=lambda x: abs(x - 1.0))  # the first of the largest
        with pytest.raises(ValidationError) as err:
            core._check_states(system, rows)
        assert str(err.value) == (
            f"state is not normalized: |unit pairing - 1| ({abs(worst - 1.0)!r} > EPS_EQ = 1e-09)")


def test_stack_check_fires_on_one_row_with_a_negative_eigenvalue():
    rng = np.random.default_rng(2)
    system = quantum_system(3)
    stack = np.array([random_state(system, rng, kind="mixed").coeffs for _ in range(6)])
    core._check_states(system, stack)
    stack[2] = core._encode(np.diag([0.75, 0.5, -0.25]).astype(complex), 3)
    message = single_row_error(system, stack[2])
    prefix = "state is not positive: -(lowest eigenvalue) ("
    assert message.startswith(prefix)
    with pytest.raises(ValidationError) as err:
        core._check_states(system, stack)
    assert str(err.value).startswith(prefix)
    low = -residual_of(str(err.value))
    assert abs(low + residual_of(message)) <= TOL
    assert abs(low + 0.25) <= TOL


def density_with_lowest_eigenvalue(dim, low, rng):
    """A unit-trace Hermitian matrix in a random basis whose lowest eigenvalue is low."""
    spectrum = np.full(dim, (1.0 - low) / (dim - 1))
    spectrum[0] = low
    u = haar_unitary(dim, rng)
    return (u * spectrum) @ u.conj().T


def counting_linalg(monkeypatch):
    calls = {"cholesky": 0, "eigvalsh": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("dim", [2, 3, 6, 24])
def test_positivity_certificate_rejects_below_the_tolerance_with_the_spectrum_message(
    monkeypatch, dim
):
    rng = np.random.default_rng(30 + dim)
    coeffs = core._encode(density_with_lowest_eigenvalue(dim, -2.0 * core.EPS_PSD, rng), dim)
    low = float(np.linalg.eigvalsh(core._decode(coeffs, dim))[0])
    assert abs(low + 2.0 * core.EPS_PSD) <= 1e-15
    calls = counting_linalg(monkeypatch)
    with pytest.raises(ValidationError) as err:
        StateVector(quantum_system(dim), coeffs)
    assert str(err.value) == (
        f"state is not positive: -(lowest eigenvalue) ({-low!r} > EPS_PSD = 1e-08)")
    # the factorization failed, so the spectrum decided
    assert calls == {"cholesky": 1, "eigvalsh": 1}


@pytest.mark.parametrize("dim", [2, 3, 6, 24])
def test_positivity_certificate_accepts_within_the_tolerance_without_a_spectrum(
    monkeypatch, dim
):
    rng = np.random.default_rng(40 + dim)
    stack = np.array([
        core._encode(density_with_lowest_eigenvalue(dim, low, rng), dim)
        for low in (-0.5 * core.EPS_PSD, 0.0, 0.25 / dim)
    ])
    calls = counting_linalg(monkeypatch)
    core._check_states(quantum_system(dim), stack)
    assert calls == {"cholesky": 1, "eigvalsh": 0}


def test_stack_check_fires_on_a_negative_classical_entry():
    system = classical_system(3)
    stack = np.array([[0.2, 0.3, 0.5], [0.6, 0.6, -0.2], [1.0, 0.0, 0.0]])
    message = single_row_error(system, stack[1])
    with pytest.raises(ValidationError) as err:
        core._check_states(system, stack)
    assert str(err.value) == message == (
        "state is not positive: -(lowest eigenvalue) (0.2 > EPS_PSD = 1e-08)")


def test_effect_stack_check_fires_on_one_row_outside_the_unit_interval():
    rng = np.random.default_rng(4)
    system = quantum_system(3)
    stack = np.array([random_effect(system, rng).coeffs for _ in range(6)])
    core._check_effects(system, stack)
    stack[3] = core._encode(np.diag([1.25, 0.5, 0.0]).astype(complex), 3)
    with pytest.raises(ValidationError, match=r"leaves \[0, 1\]"):
        Effect(system, stack[3])
    with pytest.raises(ValidationError, match=r"effect pairing range \[") as err:
        core._check_effects(system, stack)
    high = float(str(err.value).split(", ")[1].split("]")[0])
    assert abs(high - 1.25) <= TOL


def test_effect_stack_check_fires_on_a_negative_classical_entry():
    system = classical_system(3)
    stack = np.array([[0.2, 0.3, 0.5], [0.6, 0.6, -0.2], [1.0, 0.0, 0.0]])
    with pytest.raises(ValidationError) as err:
        core._check_effects(system, stack)
    assert str(err.value) == (
        "effect pairing range [-0.2, 1.0] leaves [0, 1]: max(-low, high - 1) "
        "(0.2 > EPS_PSD = 1e-08)")


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
        m.setattr(control, "verify_superposition_preservation", unreachable)
        with pytest.raises(ValidationError, match="state is not positive"):
            verify_control_contract(controlled)
    with pytest.raises(ValidationError, match="state is not positive"):
        verify_superposition_preservation(controlled)
    with pytest.raises(ValidationError, match="state is not positive"):
        extract_kickback(controlled, basis_state(controlled.target_system, 1))


def identity_controlled():
    """Two identity branches on a qubit, unverified: the composite is the identity."""
    return control.ControlledTransformation(quantum_system(2), [np.eye(2)] * 2, np.eye(2))


def test_construction_refuses_a_composite_that_breaks_the_branch_equation():
    # the factor swap sends |1><1| (x) sigma to sigma (x) |1><1|, not to
    # |1><1| (x) branch 1 of sigma
    controlled = identity_controlled()
    joint = controlled.composite.in_system
    swapped = with_composite(controlled, unitary_channel(joint, control.swap_exchange_unitary(2)))
    with pytest.raises(ValidationError) as err:
        control._verified(swapped, 20, 0)
    found = re.fullmatch(r"controlled contract failed at construction: max branch deviation "
                         r"\((\S+) > EPS_EQ = 1e-09\)", str(err.value))
    assert found and float(found.group(1)) > 1.0


def control_dephasing(rho, kick):
    """A unit-preserving map on control (x) qubit target, control index major:
    it keeps the control-diagonal blocks, halves the off-diagonal block X and
    adds +-kick (X + X^dag) to the two diagonal blocks."""
    out = rho.copy()
    x = rho[..., :2, 2:]
    out[..., :2, 2:] = x / 2
    out[..., 2:, :2] = rho[..., 2:, :2] / 2
    moved = kick * (x + x.conj().swapaxes(-1, -2))
    out[..., :2, :2] += moved
    out[..., 2:, 2:] -= moved
    return out


def test_construction_refuses_a_composite_that_breaks_only_the_filter_equation():
    # no CPTP composite can: one that fixes every |k_i><k_i| (x) sigma has
    # Kraus operators diagonal in the control basis, so it only dephases, and
    # filtering then returns each branch exactly.  This map of the same kind
    # also moves weight between the branch blocks; it stays positive on the
    # seed-0 samples
    controlled = identity_controlled()
    joint = controlled.composite.in_system
    basis = core.hermitian_basis(4)
    planted = with_composite(controlled, Transformation(
        joint, joint, core._encode(control_dephasing(basis, 1e-6), 4).T))
    assert verify_control_contract(planted)["max_branch_deviation"] <= 1e-15
    with pytest.raises(ValidationError) as err:
        control._verified(planted, 20, 0)
    assert re.fullmatch(r"controlled contract failed at construction: max filter deviation "
                        r"\((.+) > EPS_EQ = 1e-09\)", str(err.value))
