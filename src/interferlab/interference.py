"""Interference patterns and the order-by-order inclusion-exclusion residual.

The order-n residual compares a full n-path probability against the alternating
sum of its restrictions to proper path subsets.  A nonzero residual at order n
means the theory shows genuine n-path interference; quantum theory stops at
order 2.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    CLASSICAL,
    EPS_DECISION,
    EPS_EQ,
    QUANTUM,
    Effect,
    StateVector,
    SystemMismatchError,
    Transformation,
    ValidationError,
    _encode,
    _rng,
    apply,
    effect_matrix,
    ket_state,
    pair,
    projector_effect,
    random_state,
    unitary_channel,
)
from .paths import (
    NotAPhaseError,
    PathExperiment,
    enumerate_classical_phases,
    is_phase,
    support_of_effect,
)

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
        if self.state.system != self.experiment.system:
            raise SystemMismatchError("pattern state does not live on the experiment's system")
        if self.effect.system != self.experiment.system:
            raise SystemMismatchError("pattern effect does not live on the experiment's system")

    def __call__(self, transformation: Transformation) -> float:
        if not is_phase(transformation, self.experiment):
            raise NotAPhaseError("patterns are evaluated on phase transformations only")
        return pair(self.effect, apply(transformation, self.state))


def pattern(state: StateVector, effect: Effect, experiment: PathExperiment) -> InterferencePattern:
    return InterferencePattern(experiment, state, effect)


def filtered_effect(
    effect: Effect, indices: Iterable[int], experiment: PathExperiment
) -> Effect:
    """Restriction of a quantum effect to a path subset by projector sandwich."""
    system = experiment.system
    if system.theory != QUANTUM:
        raise SystemMismatchError(
            "projector filtering is quantum; classical restriction is masked_effect"
        )
    if effect.system != system:
        raise SystemMismatchError("effect does not live on the experiment's system")
    idx = sorted(set(int(i) for i in indices))
    if not idx or not set(idx) <= set(range(experiment.n)):
        raise ValidationError(f"invalid path subset {idx} for {experiment.n} paths")
    kets = experiment.kets[:, idx]
    proj = kets @ kets.conj().T
    # P E P is an effect whenever E is; _encode still checks Hermiticity
    return Effect(system, _encode(proj @ effect_matrix(effect) @ proj, system.dim), check=False)


def masked_effect(
    effect: Effect, indices: Iterable[int], experiment: PathExperiment
) -> Effect:
    """Restriction of a classical effect to a path subset by outcome masking."""
    system = experiment.system
    if system.theory != CLASSICAL:
        raise SystemMismatchError("outcome masking is classical; use filtered_effect")
    if effect.system != system:
        raise SystemMismatchError("effect does not live on the experiment's system")
    idx = set(int(i) for i in indices)
    if not idx or not idx <= set(range(experiment.n)):
        raise ValidationError(f"invalid path subset {sorted(idx)} for {experiment.n} paths")
    mask = np.zeros(system.dim)
    for i in idx:
        mask += (experiment.paths[i].state.coeffs > 0.5).astype(float)
    return Effect(system, effect.coeffs * mask)


@dataclass(frozen=True, eq=False)
class EffectChoice:
    """Restricted effects, one per proper path subset, for the residual sum."""

    experiment: PathExperiment
    assignments: Mapping[frozenset[int], Effect]

    def __post_init__(self) -> None:
        frozen = {frozenset(k): v for k, v in dict(self.assignments).items()}
        object.__setattr__(self, "assignments", frozen)
        full = frozenset(range(self.experiment.n))
        for subset, effect in frozen.items():
            if not subset or not subset < full:
                raise ValidationError(
                    f"subset {sorted(subset)} is not a nonempty proper path subset"
                )
            if effect.system != self.experiment.system:
                raise SystemMismatchError("choice effect lives on the wrong system")
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
    if choice.experiment.system != experiment.system or choice.experiment.n != n:
        raise SystemMismatchError("choice was built for a different experiment")
    if not is_phase(transformation, experiment):
        raise NotAPhaseError("patterns are evaluated on phase transformations only")
    moved = apply(transformation, state)
    lhs = pair(effect, moved)
    rhs = 0.0
    for size in range(1, n):
        sign = (-1.0) ** (n - size + 1)
        for subset in itertools.combinations(range(n), size):
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


def _report(order: int, samples: list[SorkinSample], state, effect) -> SorkinReport:
    worst = max(samples, key=lambda s: abs(s.residual), default=None)
    witness = None
    if worst is not None and abs(worst.residual) > EPS_EQ:
        witness = SorkinWitness(state, effect, worst.angles)
    return SorkinReport(order, tuple(samples), witness)


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
    """
    if experiment.n != 2:
        raise ValidationError(f"second-order scan needs a 2-path experiment, got {experiment.n}")
    system = experiment.system
    if system.theory == CLASSICAL:
        half = 0.5 * (experiment.paths[0].state.coeffs + experiment.paths[1].state.coeffs)
        state = StateVector(system, half)
        effect = experiment.paths[0].effect
        values = []
        angle_sets: list[tuple[float, ...]] = []
        for t in enumerate_classical_phases(experiment):
            values.append(pair(effect, apply(t, state)))
            angle_sets.append(())
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
        values = []
        angle_sets = []
        # each channel is a phase by construction: diagonal in the path kets
        for dphi in deltas:
            u = kets @ np.diag(np.exp(1j * np.array([0.0, dphi]))) @ kets.conj().T
            values.append(pair(effect, apply(unitary_channel(system, u), state)))
            angle_sets.append((0.0, float(dphi)))
    values_arr = np.asarray(values)
    best_const = 0.5 * (values_arr.max() + values_arr.min())
    samples = [
        SorkinSample(angles, float(v), float(best_const), float(v - best_const))
        for angles, v in zip(angle_sets, values_arr)
    ]
    return _report(2, samples, state, effect)


def third_order_scan_quantum(
    experiment: PathExperiment,
    trials: int = 1000,
    seed: int | np.random.Generator = 0,
) -> SorkinReport:
    """Third-order scan over random preparations, effects, and phase angles.

    Uses the projector-filtered restriction of each sampled effect, the choice
    under which quantum theory's residual vanishes identically.
    """
    if experiment.system.theory != QUANTUM:
        raise SystemMismatchError("the third-order scan samples quantum phases")
    if experiment.n != 3:
        raise ValidationError(f"third-order scan needs a 3-path experiment, got {experiment.n}")
    if trials < 1:
        raise ValidationError("need at least one trial")
    rng = _rng(seed)
    system = experiment.system
    kets = experiment.kets
    samples = []
    worst = (0.0, None, None)
    for _ in range(trials):
        state = random_state(system, rng, kind="pure")
        psi = rng.standard_normal(system.dim) + 1j * rng.standard_normal(system.dim)
        effect = projector_effect(system, psi / np.linalg.norm(psi))
        angles = rng.uniform(0.0, 2.0 * math.pi, experiment.n)
        u = kets @ np.diag(np.exp(1j * angles)) @ kets.conj().T
        transformation = unitary_channel(system, u)
        choice = filter_choice(effect, experiment)
        lhs, rhs, residual = sorkin_residual(state, effect, experiment, transformation, choice)
        samples.append(SorkinSample(tuple(angles), lhs, rhs, residual))
        if abs(residual) >= worst[0]:
            worst = (abs(residual), state, effect)
    return _report(3, samples, worst[1], worst[2])


def interference_pattern_sweep(
    state: StateVector,
    effect: Effect,
    experiment: PathExperiment,
    angle_grid: Sequence[Sequence[float]],
) -> np.ndarray:
    """Probability table over a grid of phase-angle vectors.

    Returns an array with one row per grid point: the angles followed by the
    probability.
    """
    grid = np.atleast_2d(np.asarray(angle_grid, dtype=float))
    if grid.size == 0:
        raise ValidationError("angle grid is empty")
    if grid.shape[1] != experiment.n:
        raise SystemMismatchError(
            f"angle vectors of length {grid.shape[1]} do not fit {experiment.n} paths"
        )
    system = experiment.system
    kets = experiment.kets
    pattern(state, effect, experiment)  # checks the systems once
    rows = np.empty((grid.shape[0], experiment.n + 1))
    # each channel is a phase by construction: diagonal in the path kets
    for r, angles in enumerate(grid):
        u = kets @ np.diag(np.exp(1j * angles)) @ kets.conj().T
        rows[r, : experiment.n] = angles
        rows[r, experiment.n] = pair(effect, apply(unitary_channel(system, u), state))
    return rows
