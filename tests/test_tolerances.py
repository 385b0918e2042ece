"""The package's one tolerance policy: where it lives, and that it holds at d = 6..12.

Every threshold is one of three absolute constants stated in `core`.  The
probes below draw valid objects at dimensions 6 to 12 and check that no
absolute threshold rejects them, so that a tolerance that should scale with
the dimension shows up here first.
"""

import ast
import dataclasses
import inspect
import math
import pathlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import interferlab
from interferlab import (
    EPS_EQ,
    PathExperiment,
    apply,
    build_controlled,
    classify_particle,
    common_fixed_state,
    control_target_swap_check,
    effect_matrix,
    extract_kickback,
    haar_unitary,
    ket_state,
    pair,
    quantum_system,
    random_effect,
    random_state,
    random_unitary,
    tensor_effects,
    tensor_states,
    tensor_transformations,
    transform_effect,
    unit_effect,
)
from interferlab import control, core, paths

SRC = pathlib.Path(interferlab.__file__).resolve().parent
POLICY = {"EPS_EQ": 1e-9, "EPS_PSD": 1e-8, "EPS_DECISION": 1e-6}
REMOVED = (
    "EPS_NORM",
    "KICKBACK_TOL",
    "DECISION_TOL",
    "DETECT_TOL",
    "PRESENCE_THRESHOLD",
    "ABSENCE_THRESHOLD",
)


def small_float_literals(path):
    """(line, value) of every float literal in (0, 1e-3) outside core's policy block."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    policy = {
        id(node.value)
        for node in tree.body
        if path.name == "core.py"
        and isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] in [[name] for name in POLICY]
    }
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < node.value < 1e-3
        and id(node) not in policy
    ]


def test_thresholds_are_named_only_in_the_core_policy_block():
    found = {path.name: small_float_literals(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: lits for name, lits in found.items() if lits} == {}
    assert {name: getattr(core, name) for name in POLICY} == POLICY


def test_the_package_exports_the_three_tolerances_only():
    for name in POLICY:
        assert name in interferlab.__all__
    for name in REMOVED:
        assert not hasattr(interferlab, name)
        assert name not in interferlab.__all__


def test_no_function_takes_a_tolerance_knob():
    assert [f.name for f in dataclasses.fields(PathExperiment)] == ["paths"]
    for fn in (
        classify_particle,
        control_target_swap_check,
        control._eigenphase_clusters,
        control._intersect_subspaces,
        paths.make_experiment,
        paths.basis_experiment,
    ):
        params = inspect.signature(fn).parameters
        assert "tol" not in params and "epsilon_support" not in params, fn.__name__


big_dims = st.integers(6, 12)
seeds = st.integers(0, 2**32 - 1)
kinds = st.sampled_from(["pure", "mixed"])
# every ordered pair of factors >= 2 whose composite is 6..12
factor_pairs = st.sampled_from(
    [(a, b) for a in range(2, 7) for b in range(2, 7) if 6 <= a * b <= 12]
)


@settings(max_examples=20, deadline=None)
@given(dim=big_dims, seed=seeds, kind=kinds)
def test_states_effects_and_channels_pass_at_large_d(dim, seed, kind):
    rng = np.random.default_rng(seed)
    system = quantum_system(dim)
    state = random_state(system, rng, kind=kind)
    effect = random_effect(system, rng)
    channel = random_unitary(system, rng)
    moved = apply(channel, state)
    pulled = transform_effect(channel, effect)
    assert abs(pair(unit_effect(system), moved) - 1.0) <= EPS_EQ
    assert abs(pair(pulled, state) - pair(effect, moved)) <= EPS_EQ


@settings(max_examples=20, deadline=None)
@given(factors=factor_pairs, seed=seeds, kind_a=kinds, kind_b=kinds)
def test_tensor_products_pass_up_to_composite_12(factors, seed, kind_a, kind_b):
    rng = np.random.default_rng(seed)
    a, b = (quantum_system(f) for f in factors)
    state = tensor_states(random_state(a, rng, kind=kind_a), random_state(b, rng, kind=kind_b))
    effect = tensor_effects(random_effect(a, rng), random_effect(b, rng))
    channel = tensor_transformations(random_unitary(a, rng), random_unitary(b, rng))
    moved = apply(channel, state)
    pulled = transform_effect(channel, effect)
    assert abs(pair(pulled, state) - pair(effect, moved)) <= EPS_EQ
    assert float(np.linalg.eigvalsh(effect_matrix(pulled))[-1]) <= 1.0 + EPS_EQ


@settings(max_examples=8, deadline=None)
@given(dim=big_dims, n=st.integers(2, 3), seed=seeds)
def test_controlled_maps_and_kickback_pass_at_large_d(dim, n, seed):
    """Phases diagonal in a Haar basis: every basis ket is a common fixed state."""
    rng = np.random.default_rng(seed)
    target = quantum_system(dim)
    basis = haar_unitary(dim, rng)
    phases = rng.uniform(0.0, 2.0 * math.pi, (n, dim))
    branches = [(basis * np.exp(1j * row)) @ basis.conj().T for row in phases]
    controlled = build_controlled(branches, target, seed=rng)
    assert common_fixed_state(branches, target) is not None
    column = int(rng.integers(dim))
    result = extract_kickback(controlled, ket_state(target, basis[:, column]), seed=rng)
    want = (phases[:, column] - phases[0, column]) % (2.0 * math.pi)
    gap = (result.angles - want) % (2.0 * math.pi)
    assert float(np.max(np.minimum(gap, 2.0 * math.pi - gap))) <= 1e-9
