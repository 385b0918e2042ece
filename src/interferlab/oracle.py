"""Kick-back oracles: black-box bit functions queried through a controlled map.

An oracle wraps the controlled transformation whose branch i applies a target
sign flip exactly when f(i) = 1.  Protocols receive only the composite (never
the function table) and pay one query per application, so parity extraction in
a single query is an accounting fact, not a bookkeeping convention.

The readout of a pairwise protocol (its prepared state and its two effects)
depends only on the systems and the level pair, never on the function table.
Its amplitudes and tensor products are checked, once per (control, target,
i, j) in a process, and it is then shared by every oracle with those systems:
per (n, i, j) for the qubit-target oracles of build_oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    EPS_DECISION,
    Effect,
    StateVector,
    SystemType,
    ValidationError,
    _is_integer,
    _require_count,
    apply,
    basis_state,
    ket_state,
    pair,
    projector_effect,
    quantum_system,
    tensor_effects,
    tensor_states,
    unit_effect,
)
from .control import (
    ControlledTransformation,
    build_controlled,
    classify_particle,
    extract_kickback,
)


@dataclass(frozen=True)
class DecisionFunction:
    """A function from n control levels to bits, held as its value table."""

    table: tuple[int, ...]

    def __post_init__(self) -> None:
        table = tuple(self.table)
        _require_count(len(table), 2, "decision function input count")
        if any(b not in (0, 1) for b in table):
            raise ValidationError(f"table {table} contains non-bits")
        object.__setattr__(self, "table", tuple(int(b) for b in table))

    @property
    def n(self) -> int:
        return len(self.table)

    def __call__(self, i: int) -> int:
        return self.table[i]


class OracleInstance:
    """A built oracle plus its query counter.

    The counter increments exactly once per application of the composite; it
    is the only mutable state in the package.
    """

    def __init__(self, function: DecisionFunction, controlled: ControlledTransformation):
        self.function = function
        self.controlled = controlled
        self._query_count = 0

    @property
    def query_count(self) -> int:
        return self._query_count

    def query(self, state: StateVector) -> StateVector:
        """Apply the oracle composite once, paying one query."""
        self._query_count += 1
        return apply(self.controlled.composite, state)


def build_oracle(function: DecisionFunction | tuple[int, ...]) -> OracleInstance:
    """Oracle for a bit function: branch i flips the target sign iff f(i) = 1."""
    if not isinstance(function, DecisionFunction):
        function = DecisionFunction(tuple(function))
    z = np.diag([1.0, -1.0])
    branches = [np.linalg.matrix_power(z, bit) for bit in function.table]
    controlled = build_controlled(branches, quantum_system(2))
    return OracleInstance(function, controlled)


@dataclass(frozen=True)
class ParityResult:
    parity: int
    probability: float
    queries: int


# States and effects are frozen with read-only coefficients, so one cached
# readout per key serves every oracle.
@functools.lru_cache(maxsize=64)
def _pair_readout(
    control: SystemType, target: SystemType, i: int, j: int
) -> tuple[StateVector, Effect, Effect]:
    """Prepared state and stay/flip effects of the pairwise protocol on levels i, j.

    The control is balanced across i and j, the target on its flip-sensitive
    state; the effects measure the control along the balanced/anti-balanced
    pair and ignore the target.

    Worst case: an entry holds three vectors of (n*d)**2 floats, 3/(n*d)**2
    of the oracle's own channel matrix.  With the qubit target, that matrix
    reaches the CLI's 1 GiB size cap at n = 53, where an entry is
    3 * 106**2 * 8 B, about 270 KB, so the 64 entries hold at most 18 MB.
    The benchmark's n = 4 oracle needs 6 entries, about 9 KB.
    """
    superpose = np.zeros(control.dim, dtype=complex)
    superpose[i] = superpose[j] = 1.0 / math.sqrt(2.0)
    antipose = np.zeros(control.dim, dtype=complex)
    antipose[i], antipose[j] = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
    prepared = tensor_states(ket_state(control, superpose), basis_state(target, 1))
    stay = tensor_effects(projector_effect(control, superpose), unit_effect(target))
    flip = tensor_effects(projector_effect(control, antipose), unit_effect(target))
    return prepared, stay, flip


def run_pairwise(oracle: OracleInstance, i: int, j: int) -> ParityResult:
    """Single-query parity f(i) xor f(j) for any two levels of an n-input oracle.

    Prepares the target on the flip-sensitive state and the control balanced
    across levels i and j, queries once, and measures the control along the
    balanced/anti-balanced pair (see _pair_readout).
    """
    control = oracle.controlled.control_system
    n = control.dim
    if not all(_is_integer(k) and 0 <= k < n for k in (i, j)) or i == j:
        raise ValidationError(f"invalid control level pair ({i}, {j}) for {n} levels")
    prepared, stay, flip = _pair_readout(control, oracle.controlled.target_system, i, j)
    before = oracle.query_count
    moved = oracle.query(prepared)
    spent = oracle.query_count - before
    if spent != 1:
        raise RuntimeError(f"protocol spent {spent} queries, expected exactly 1")
    p_stay, p_flip = pair(stay, moved), pair(flip, moved)
    if p_stay > 1.0 - EPS_DECISION and p_flip < EPS_DECISION:
        return ParityResult(0, p_stay, spent)
    if p_flip > 1.0 - EPS_DECISION and p_stay < EPS_DECISION:
        return ParityResult(1, p_flip, spent)
    raise RuntimeError(
        f"oracle readout is not deterministic: p_stay={p_stay!r}, p_flip={p_flip!r}"
    )


def run_deutsch(oracle: OracleInstance) -> ParityResult:
    """Single-query parity f(0) xor f(1) of a two-input oracle."""
    if oracle.function.n != 2:
        raise ValidationError(
            f"the two-input protocol needs n = 2, got n = {oracle.function.n}"
        )
    return run_pairwise(oracle, 0, 1)


# kicked angles 0 and pi, as classify_particle names them
_SIGNS = {"boson": 1, "fermion": -1}


def kickback_signature(oracle: OracleInstance) -> np.ndarray:
    """Branch signs (-1)^f(i), gauge-fixed so the first sign is +1.

    Reads the kicked phase on the target's flip-sensitive state; structural
    analysis of the oracle, not a counted black-box query.
    """
    target = oracle.controlled.target_system
    result = extract_kickback(oracle.controlled, basis_state(target, 1))
    signs = np.empty(len(result.angles), dtype=int)
    for idx, angle in enumerate(result.angles):
        kind = classify_particle(angle).kind
        if kind not in _SIGNS:
            raise RuntimeError(f"branch {idx} kicked a non-sign angle {float(angle)!r}")
        signs[idx] = _SIGNS[kind]
    return signs
