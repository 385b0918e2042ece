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


def nodes_by_function(path):
    """(name of the innermost def around it, node) for every node of a module;
    the name is "" at module level."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            name = child.name if is_def else where
            found.append((name, child))
            visit(child, name)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_partial_contractions_run_only_in_pair_factor():
    """_pair_factor is the one partial-contraction kernel, on both backends."""
    kernels = {"einsum", "tensordot"}
    found = {
        (path.name, where)
        for path in sorted(SRC.glob("*.py"))
        for where, node in nodes_by_function(path)
        if getattr(node, "attr", None) in kernels or getattr(node, "id", None) in kernels
    }
    assert found == {("core.py", "_pair_factor")}


# (file, function, literal) -> why that comparison may take a bare float literal
FLOAT_COMPARISONS = {
    ("control.py", "_first_meet", 0.5):
        "the principal-cosine bound that common_fixed_state's docstring proves: below it, "
        "no singular value of the pair's SVD comes near EPS_PSD",
}


def test_comparisons_take_no_bare_float_literal():
    """A cut is one of the three tolerances, or an exact bound listed with its reason."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for where, node in nodes_by_function(path):
            if isinstance(node, ast.Compare):
                for operand in (node.left, *node.comparators):
                    if isinstance(operand, ast.UnaryOp):
                        operand = operand.operand
                    if isinstance(operand, ast.Constant) and isinstance(operand.value, float):
                        found.add((path.name, where, operand.value))
    assert found == set(FLOAT_COMPARISONS)


# (file, function) -> why it may test for an integer type besides core._is_integer
INTEGER_TESTS = {
    ("core.py", "_normalize_keep"):
        "it tells one factor index from a sequence of them; _require_index then checks each",
}


def test_integers_are_told_apart_only_by_the_core_predicate():
    """No module decides for itself what an integer is: a bool is never one."""
    found = {
        (path.name, where)
        for path in sorted(SRC.glob("*.py"))
        for where, node in nodes_by_function(path)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
        and any(getattr(n, "attr", None) == "integer" for n in ast.walk(node.args[1]))
    }
    assert found == {("core.py", "_is_integer"), *INTEGER_TESTS}


def if_conditions(test):
    """The test of an `if`, or each operand of its and/or chains."""
    if isinstance(test, ast.BoolOp):
        for value in test.values:
            yield from if_conditions(value)
    else:
        yield test


def looks_like_a_count_check(condition):
    """A comparison with < or <= against an integer literal, or `not` of a bare
    name or attribute: the shapes a hand-written minimum-count check takes."""
    if isinstance(condition, ast.UnaryOp) and isinstance(condition.op, ast.Not):
        return isinstance(condition.operand, (ast.Name, ast.Attribute))
    if not isinstance(condition, ast.Compare):
        return False
    operands = [o.operand if isinstance(o, ast.UnaryOp) else o
                for o in (condition.left, *condition.comparators)]
    return any(isinstance(op, (ast.Lt, ast.LtE)) for op in condition.ops) and any(
        isinstance(o, ast.Constant) and type(o.value) is int for o in operands)


# (file, function) -> why its `if` of that shape may raise: each decides structure
STRUCTURAL_RAISES = {
    ("core.py", "inverse"): "reversibility is read from the matrix; nothing is counted",
    ("interference.py", "_path_subset"):
        "an empty subset is one of the invalid path subsets its one message names",
}


def test_minimum_counts_are_checked_only_by_the_core_guard():
    """Every count a caller passes goes through core._require_count."""
    found = {
        (path.name, where)
        for path in sorted(SRC.glob("*.py"))
        for where, node in nodes_by_function(path)
        if isinstance(node, ast.If) and where != "_require_count"
        and any(map(looks_like_a_count_check, if_conditions(node.test)))
        and any(isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt))
    }
    assert found == set(STRUCTURAL_RAISES)


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
    assert channel.reversible
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
    assert channel.reversible
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
    assert controlled.composite.reversible
    assert common_fixed_state(branches, target) is not None
    column = int(rng.integers(dim))
    result = extract_kickback(controlled, ket_state(target, basis[:, column]), seed=rng)
    want = (phases[:, column] - phases[0, column]) % (2.0 * math.pi)
    gap = (result.angles - want) % (2.0 * math.pi)
    assert float(np.max(np.minimum(gap, 2.0 * math.pi - gap))) <= 1e-9
