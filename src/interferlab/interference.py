"""Interference patterns and the order-by-order inclusion-exclusion residual.

The order-n residual compares a full n-path probability against the alternating
sum of its restrictions to proper path subsets.  A nonzero residual at order n
means the theory shows genuine n-path interference; quantum theory stops at
order 2.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    CLASSICAL,
    EPS_DECISION,
    EPS_EQ,
    QUANTUM,
    Effect,
    StateVector,
    Transformation,
    ValidationError,
    _blocks,
    _check_effects,
    _check_states,
    _decode,
    _derived,
    _encode,
    _is_integer,
    _pure_densities,
    _require_count,
    _require_finite,
    _require_same,
    _require_shape,
    _require_theory,
    _rng,
    _rowpair,
    _rowwise,
    _unitary_matrices,
    apply,
    ket_state,
    pair,
    projector_effect,
)
from .paths import PathExperiment, _require_phase, enumerate_classical_phases, support_of_effect

VERDICT_PRESENT = "present"
VERDICT_ABSENT = "absent"
VERDICT_INCONCLUSIVE = "inconclusive"

@dataclass(frozen=True, eq=False)
class InterferencePattern:
    """Probability of one effect after one preparation, as a function of phase."""

    experiment: PathExperiment
    state: StateVector
    effect: Effect

    def __post_init__(self) -> None:
        _require_same(self.state.system, self.experiment.system, "pattern state")
        _require_same(self.effect.system, self.experiment.system, "pattern effect")

    def __call__(self, transformation: Transformation) -> float:
        _require_phase(transformation, self.experiment)
        return pair(self.effect, apply(transformation, self.state))


def pattern(state: StateVector, effect: Effect, experiment: PathExperiment) -> InterferencePattern:
    return InterferencePattern(experiment, state, effect)


def _path_subset(indices: Iterable[int], n: int) -> list[int]:
    """The distinct path indices, sorted; refused unless each is an integer in range(n)."""
    idx = list(indices)
    if not idx or not all(_is_integer(i) and 0 <= i < n for i in idx):
        raise ValidationError(f"invalid path subset {idx} for {n} paths")
    return sorted(set(int(i) for i in idx))


def filtered_effect(
    effect: Effect, indices: Iterable[int], experiment: PathExperiment
) -> Effect:
    """Restriction of a quantum effect to a path subset by projector sandwich."""
    system = experiment.system
    _require_theory(system, QUANTUM, "projector filtering")
    _require_same(effect.system, system, "effect")
    idx = _path_subset(indices, experiment.n)
    # P E P is an effect whenever E is; _encode still checks Hermiticity
    return _derived(Effect, system, _filtered_coeffs(effect.coeffs, idx, experiment))


def _filtered_coeffs(
    coeffs: np.ndarray, idx: Sequence[int], experiment: PathExperiment
) -> np.ndarray:
    """Coefficients of P E P for each effect row, P the projector onto paths idx.

    Row-exact (see core._rowwise), and C-contiguous so that _rowpair on the
    rows gives pair's bits.
    """
    kets = experiment.kets[:, list(idx)]
    proj = kets @ kets.conj().T
    dim = experiment.system.dim
    return _encode(proj @ _decode(coeffs, dim) @ proj, dim)


def masked_effect(
    effect: Effect, indices: Iterable[int], experiment: PathExperiment
) -> Effect:
    """Restriction of a classical effect to a path subset: each outcome scaled by
    the subset's path effects.  They resolve the unit effect, so the restrictions
    to disjoint subsets add, and every residual of order 2 or more vanishes."""
    system = experiment.system
    _require_theory(system, CLASSICAL, "outcome masking")
    _require_same(effect.system, system, "effect")
    idx = _path_subset(indices, experiment.n)
    mask = sum(experiment.paths[i].effect.coeffs for i in idx)
    return _derived(Effect, system, effect.coeffs * mask)


@dataclass(frozen=True, eq=False)
class EffectChoice:
    """Restricted effects, one per proper path subset, for the residual sum."""

    experiment: PathExperiment
    assignments: Mapping[frozenset[int], Effect]

    def __post_init__(self) -> None:
        n = self.experiment.n
        frozen = {frozenset(_path_subset(k, n)): v for k, v in dict(self.assignments).items()}
        object.__setattr__(self, "assignments", frozen)
        for subset, effect in frozen.items():
            if len(subset) == n:  # _path_subset refused the empty one
                raise ValidationError(
                    f"subset {sorted(subset)} is not a nonempty proper path subset"
                )
            found = support_of_effect(effect, self.experiment)
            if not found <= subset:
                raise ValidationError(
                    f"effect for subset {sorted(subset)} has support {sorted(found)}"
                )

    def __getitem__(self, subset: Iterable[int]) -> Effect:
        return self.assignments[frozenset(subset)]


def filter_choice(effect: Effect, experiment: PathExperiment) -> EffectChoice:
    """Canonical restriction choice: projector filtering of one parent effect."""
    restrict = filtered_effect if experiment.system.theory == QUANTUM else masked_effect
    full = range(experiment.n)
    assignments = {
        frozenset(subset): restrict(effect, subset, experiment)
        for size in range(1, experiment.n)
        for subset in itertools.combinations(full, size)
    }
    return EffectChoice(experiment, assignments)


def _signed_subsets(n: int):
    """(sign, subset) of the order-n residual sum: nonempty proper subsets by size."""
    for size in range(1, n):
        sign = (-1.0) ** (n - size + 1)
        for subset in itertools.combinations(range(n), size):
            yield sign, subset


def sorkin_residual(
    state: StateVector,
    effect: Effect,
    experiment: PathExperiment,
    transformation: Transformation,
    choice: EffectChoice,
) -> tuple[float, float, float]:
    """(lhs, rhs, residual) of the order-n inclusion-exclusion identity.

    lhs is the full-experiment probability; rhs sums the restricted
    probabilities over nonempty proper subsets I with sign (-1)^(n-|I|+1).
    """
    n = experiment.n
    _require_same(choice.experiment.system, experiment.system, "choice's system")
    _require_same(choice.experiment.n, n, "choice's path count")
    _require_phase(transformation, experiment)
    moved = apply(transformation, state)
    lhs = pair(effect, moved)
    rhs = 0.0
    for sign, subset in _signed_subsets(n):
        key = frozenset(subset)
        if key not in choice.assignments:
            raise ValidationError(f"choice is missing subset {sorted(subset)}")
        rhs += sign * pair(choice[key], moved)
    return lhs, rhs, lhs - rhs


@dataclass(frozen=True)
class SorkinSample:
    angles: tuple[float, ...]
    lhs: float
    rhs: float
    residual: float


@dataclass(frozen=True, eq=False)
class SorkinWitness:
    state: StateVector
    effect: Effect
    angles: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class SorkinReport:
    """Outcome of an interference-order scan; the summary derives from the samples."""

    order: int
    samples: tuple[SorkinSample, ...]
    witness: SorkinWitness | None

    @property
    def trials(self) -> int:
        return len(self.samples)

    @property
    def max_abs_residual(self) -> float:
        return max((abs(s.residual) for s in self.samples), default=0.0)

    @property
    def verdict(self) -> str:
        worst = self.max_abs_residual
        if worst > EPS_DECISION:
            return VERDICT_PRESENT
        return VERDICT_ABSENT if worst < EPS_EQ else VERDICT_INCONCLUSIVE

    def to_json_dict(self) -> dict:
        witness = None
        if self.witness is not None:
            witness = {
                "angles": list(self.witness.angles),
                "state_coeffs": [float(x) for x in self.witness.state.coeffs],
                "effect_coeffs": [float(x) for x in self.witness.effect.coeffs],
            }
        return {
            "order": self.order,
            "trials": self.trials,
            "max_abs_residual": self.max_abs_residual,
            "verdict": self.verdict,
            "witness": witness,
        }


def _report(order: int, samples: list[SorkinSample], witness_at: Callable) -> SorkinReport:
    """The scan's report; the witness is the first trial of largest |residual|, and
    witness_at(trial) builds its (state, effect) only when that exceeds EPS_EQ."""
    worst = max(range(len(samples)), key=lambda t: abs(samples[t].residual))
    witness = None
    if abs(samples[worst].residual) > EPS_EQ:
        witness = SorkinWitness(*witness_at(worst), samples[worst].angles)
    return SorkinReport(order, tuple(samples), witness)


def _phase_moved(
    experiment: PathExperiment, angles: np.ndarray, states: np.ndarray
) -> np.ndarray:
    """Coefficients of the states after the phase of each row of angles.

    Row r is, bit for bit, the coefficients of apply(unitary_channel(system,
    K diag(e^{i angles[r]}) K^dag), state), K the path kets, for `states` one
    contiguous row per angle row or one row shared by all (see _rowpair).
    Each phase is built from the path kets, so it is not checked; the moved
    rows get apply's state check, stacked.  The channels are built in blocks
    of rows under core's block budget, d**4 entries per row; every step is
    row-exact, so the block size changes no bit.
    """
    system = experiment.system
    kets = experiment.kets
    path = np.arange(experiment.n)
    out = np.empty((len(angles), system.vector_space_dim))
    for block in _blocks(len(angles), system.vector_space_dim**2):
        theta = angles[block]
        diag = np.zeros(theta.shape + (experiment.n,), dtype=complex)
        diag[:, path, path] = np.exp(1j * theta)
        u = kets @ diag @ kets.conj().T
        out[block] = _rowwise(_unitary_matrices(u), states if states.ndim == 1 else states[block])
        _check_states(system, out[block])
    return out


def second_order_witness(
    experiment: PathExperiment,
    seed: int | np.random.Generator = 0,
    phase_samples: int = 256,
) -> SorkinReport:
    """Second-order scan: best constant approximation to the two-path pattern.

    The single-path statistics of a phase are constant, so the residual against
    any restriction choice differs from the pattern by a constant.  The report
    therefore minimizes over that constant: max_abs_residual is
    min_c sup_T |pattern(T) - c| over the sampled phases.

    The quantum phases run as one stack (see _phase_moved): the random
    angles are one draw, and every value equals, bit for bit, what a loop of
    pair(effect, apply(channel, state)) with one channel per phase gives.
    """
    if experiment.n != 2:
        raise ValidationError(f"second-order scan needs a 2-path experiment, got {experiment.n}")
    _require_count(phase_samples, 1, "phase samples")
    system = experiment.system
    if system.theory == CLASSICAL:
        half = 0.5 * (experiment.paths[0].state.coeffs + experiment.paths[1].state.coeffs)
        state = _derived(StateVector, system, half)
        effect = experiment.paths[0].effect
        values = np.array(
            [pair(effect, apply(t, state)) for t in enumerate_classical_phases(experiment)]
        )
        angle_sets: list[tuple[float, ...]] = [()] * len(values)
    else:
        kets = experiment.kets
        uniform = (kets[:, 0] + kets[:, 1]) / math.sqrt(2.0)
        state = ket_state(system, uniform)
        effect = projector_effect(system, uniform)
        rng = _rng(seed)
        # structured grid guarantees the extremes; random angles add coverage
        grid = np.linspace(0.0, 2.0 * math.pi, phase_samples, endpoint=False)
        extra = rng.uniform(0.0, 2.0 * math.pi, max(phase_samples // 8, 1))
        deltas = np.concatenate([grid, extra])
        phases = np.column_stack([np.zeros_like(deltas), deltas])
        values = _rowpair(effect.coeffs, _phase_moved(experiment, phases, state.coeffs))
        angle_sets = [(0.0, float(dphi)) for dphi in deltas]
    best_const = 0.5 * (values.max() + values.min())
    samples = [
        SorkinSample(angles, float(v), float(best_const), float(v - best_const))
        for angles, v in zip(angle_sets, values)
    ]
    return _report(2, samples, lambda _: (state, effect))


def third_order_scan_quantum(
    experiment: PathExperiment,
    trials: int = 1000,
    seed: int | np.random.Generator = 0,
) -> SorkinReport:
    """Third-order scan over random preparations, effects, and phase angles.

    Uses the projector-filtered restriction of each sampled effect, the choice
    under which quantum theory's residual vanishes identically.

    The draws stay per trial and in order (state, effect, angles), so a
    Generator passed as `seed` ends where a loop building one state, effect,
    channel and filter_choice per trial would leave it.  The linear algebra
    runs on the stack of trials, row-exact, so every angle, lhs, rhs,
    residual and the witness equal that loop's bit for bit.  The effects get
    Effect's spectrum check as one batched check.
    """
    _require_theory(experiment.system, QUANTUM, "third-order scan")
    if experiment.n != 3:
        raise ValidationError(f"third-order scan needs a 3-path experiment, got {experiment.n}")
    _require_count(trials, 1, "trials")
    rng = _rng(seed)
    system = experiment.system
    # per trial: the real and imaginary parts of the state's and the effect's
    # amplitudes, one standard_normal call, then the angles; random() and
    # uniform(0, 1) return the same doubles, and 2 pi * u is uniform's product
    normals = np.empty((trials, 2, 2, system.dim))
    angles = np.empty((trials, experiment.n))
    for t in range(trials):
        rng.standard_normal(out=normals[t])
        rng.random(out=angles[t])
    angles *= 2.0 * math.pi
    rho = _pure_densities(normals[:, :, 0] + 1j * normals[:, :, 1]).swapaxes(0, 1)
    states, effects = _encode(rho, system.dim)
    _check_effects(system, effects)
    moved = _phase_moved(experiment, angles, states)
    lhs = _rowpair(effects, moved)
    rhs = np.zeros(trials)
    for sign, subset in _signed_subsets(experiment.n):
        rhs += sign * _rowpair(_filtered_coeffs(effects, subset, experiment), moved)
    residual = lhs - rhs
    samples = [
        SorkinSample(tuple(a), lhs_t, rhs_t, res_t)
        for a, lhs_t, rhs_t, res_t in zip(angles, lhs.tolist(), rhs.tolist(), residual.tolist())
    ]

    def witness_at(t: int) -> tuple[StateVector, Effect]:
        # copies, so that a witness does not keep the trial stacks alive
        state, effect = states[t].copy(), effects[t].copy()
        return _derived(StateVector, system, state), _derived(Effect, system, effect)

    return _report(3, samples, witness_at)


def interference_pattern_sweep(
    state: StateVector,
    effect: Effect,
    experiment: PathExperiment,
    angle_grid: Sequence[Sequence[float]],
) -> np.ndarray:
    """Probability table over a grid of phase-angle vectors.

    Returns an array with one row per grid point: the angles followed by the
    probability.  The grid runs as one stack (see _phase_moved); each
    probability equals, bit for bit, what a loop of pair(effect,
    apply(channel, state)) with one channel per point gives, clipped to
    [0, 1].
    """
    grid = np.atleast_2d(np.asarray(angle_grid, dtype=float))
    if grid.size == 0:
        raise ValidationError("angle grid is empty")
    _require_shape(grid.shape[1:], (experiment.n,), "angle vector")
    _require_finite(grid, "phase angles")
    pattern(state, effect, experiment)  # checks the systems once
    rows = np.empty((grid.shape[0], experiment.n + 1))
    rows[:, : experiment.n] = grid
    values = _rowpair(effect.coeffs, _phase_moved(experiment, grid, state.coeffs))
    # a validated state and effect pair inside [0, 1] up to rounding
    rows[:, experiment.n] = np.clip(values, 0.0, 1.0)
    return rows
