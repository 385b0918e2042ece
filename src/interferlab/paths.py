"""Path experiments: which-path structure, phase transformations, detectability.

An n-path experiment is a list of (state, effect) pairs on one system with
unit pairing on the diagonal, zero pairing off the diagonal, and effects that
resolve the unit effect.  Phase transformations are the reversible maps that
fix every which-path effect; their detectability order is graded by the size
of the effect supports needed to see them.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    CLASSICAL,
    EPS_DECISION,
    EPS_EQ,
    EPS_PSD,
    QUANTUM,
    Effect,
    StateVector,
    SystemType,
    Transformation,
    ValidationError,
    _decode,
    _derived,
    _encode,
    _haar,
    _readonly,
    _require_count,
    _require_same,
    _require_theory,
    _require_within,
    _rng,
    basis_effect,
    basis_state,
    density_matrix,
    pair,
    permutation_transformation,
    unit_effect,
)


class NotAPhaseError(ValueError):
    """The transformation is not a phase: not reversible, or it moves a which-path effect."""


class PathRankError(ValueError):
    """A path state or effect has rank above 1; only rank-1 paths are supported."""


@dataclass(frozen=True, eq=False)
class Path:
    """A preparation/detection pair with unit pairing."""

    state: StateVector
    effect: Effect

    def __post_init__(self) -> None:
        _require_same(self.effect.system, self.state.system, "path effect")
        _require_within(abs(pair(self.effect, self.state) - 1.0), EPS_EQ,
                        "path pairing is not 1: |pairing - 1|")


@dataclass(frozen=True, eq=False)
class PathExperiment:
    """Pairwise disjoint paths whose effects resolve the unit effect."""

    paths: tuple[Path, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "paths", tuple(self.paths))
        _require_count(len(self.paths), 2, "path count")
        system = self.paths[0].state.system
        for i, p in enumerate(self.paths):
            _require_same(p.state.system, system, f"path {i}")
        for i, j in itertools.permutations(range(len(self.paths)), 2):
            _require_within(abs(pair(self.paths[i].effect, self.paths[j].state)), EPS_EQ,
                            "paths {} and {} are not disjoint: |cross pairing|", i, j)
        total = np.sum([p.effect.coeffs for p in self.paths], axis=0)
        _require_within(np.max(np.abs(total - unit_effect(system).coeffs)), EPS_EQ,
                        "path effects do not resolve the unit effect: max deviation")
        if system.theory == QUANTUM:
            self.kets  # fills the cache; raises PathRankError on rank >= 2 paths

    @property
    def system(self) -> SystemType:
        return self.paths[0].state.system

    @property
    def n(self) -> int:
        return len(self.paths)

    @cached_property
    def kets(self) -> np.ndarray:
        """Kets of the rank-1 quantum paths, one column per path, read-only."""
        _require_theory(self.system, QUANTUM, "path ket")
        kets = []
        for i, p in enumerate(self.paths):
            vals, vecs = np.linalg.eigh(density_matrix(p.state))
            _require_within(max(1.0 - vals[-1], abs(vals[:-1]).max()), EPS_PSD,
                            "path {} state has rank above 1 (spectrum {!r}): "
                            "max(1 - top eigenvalue, max|other eigenvalues|)", i, vals,
                            error=PathRankError)
            kets.append(vecs[:, -1])
        return _readonly(np.column_stack(kets))


def make_experiment(paths: Iterable[Path | tuple[StateVector, Effect]]) -> PathExperiment:
    """Validated path experiment from (state, effect) pairs."""
    built = [p if isinstance(p, Path) else Path(*p) for p in paths]
    return PathExperiment(tuple(built))


def basis_experiment(system: SystemType) -> PathExperiment:
    """The computational-basis experiment: one path per basis outcome."""
    paths = [
        Path(basis_state(system, i), basis_effect(system, i)) for i in range(system.dim)
    ]
    return PathExperiment(tuple(paths))


def support_of_state(state: StateVector, experiment: PathExperiment) -> frozenset[int]:
    """Paths whose effect fires on the state above the support threshold."""
    return frozenset(
        i for i, p in enumerate(experiment.paths) if pair(p.effect, state) > EPS_EQ
    )


def support_of_effect(effect: Effect, experiment: PathExperiment) -> frozenset[int]:
    """Paths whose state triggers the effect above the support threshold."""
    _require_same(effect.system, experiment.system, "effect")
    return frozenset(
        i for i, p in enumerate(experiment.paths) if pair(effect, p.state) > EPS_EQ
    )


def is_superposition(state: StateVector, experiment: PathExperiment) -> bool:
    """True when the state sits on several paths but outside their mixtures.

    Quantum rule: support on at least two paths plus off-diagonal coherence in
    the path basis.  Classical states are never superpositions.
    """
    support = support_of_state(state, experiment)
    if experiment.system.theory == CLASSICAL:
        return False
    if len(support) < 2:
        return False
    kets = experiment.kets
    rho = density_matrix(state)
    overlap = kets.conj().T @ rho @ kets
    off = overlap - np.diag(np.diag(overlap))
    return float(np.max(np.abs(off))) > EPS_EQ


def is_phase(transformation: Transformation, experiment: PathExperiment) -> bool:
    """True when the transformation maps the experiment's system to itself, is
    reversible (Transformation.reversible) and fixes every which-path effect
    within EPS_EQ; a SystemMismatchError when its input is on another system."""
    return _phase_failure(transformation, experiment) is None


def _require_phase(transformation: Transformation, experiment: PathExperiment) -> None:
    """The one not-a-phase guard: NotAPhaseError naming the condition is_phase failed."""
    if failure := _phase_failure(transformation, experiment):
        raise NotAPhaseError(failure)


def _phase_failure(transformation: Transformation, experiment: PathExperiment) -> str | None:
    """Why the transformation is not a phase of the experiment; None when it is."""
    _require_same(transformation.in_system, experiment.system, "transformation input")
    if transformation.out_system != experiment.system:
        return f"transformation output is {transformation.out_system}, expected {experiment.system}"
    if not transformation.reversible:
        return "transformation is not reversible"
    # transform_effect's arithmetic, without building an Effect per path
    m = transformation.matrix.T
    for i, p in enumerate(experiment.paths):
        dev = float(np.max(np.abs(m @ p.effect.coeffs - p.effect.coeffs)))
        if dev > EPS_EQ:
            return f"transformation moves the effect of path {i} (deviation {dev!r})"
    return None


def phase_relative_angles(
    transformation: Transformation, experiment: PathExperiment
) -> np.ndarray:
    """Diagonal phase angles of a quantum phase transformation, gauged to path 0.

    Every reversible map fixing the which-path effects of a rank-1 experiment
    is conjugation by a phase diagonal in the path basis; the relative angles
    are read off from how the channel transports path coherences.
    """
    _require_theory(experiment.system, QUANTUM, "relative phase angles")
    _require_phase(transformation, experiment)
    kets = experiment.kets
    d = experiment.system.dim
    angles = np.zeros(experiment.n)
    for j in range(1, experiment.n):
        coherence = np.outer(kets[:, 0], kets[:, j].conj())
        op = coherence + coherence.conj().T
        moved = _decode(transformation.matrix @ _encode(op, d), d)
        val = kets[:, 0].conj() @ moved @ kets[:, j]
        _require_within(abs(abs(val) - 1.0), EPS_DECISION,
                        "path coherence 0-{} is not phase-transported: |magnitude - 1|", j,
                        error=NotAPhaseError)
        angles[j] = -np.angle(val) % (2.0 * math.pi)
    return angles


def is_n_undetectable(
    transformation: Transformation,
    experiment: PathExperiment,
    order: int,
    method: str = "closed-form",
    trials: int = 200,
    seed: int | np.random.Generator = 0,
) -> bool:
    """Whether every effect supported on at most `order` paths fixes under T.

    Closed form (quantum, rank-1 paths): undetectable at order >= 2 exactly
    when all relative phase angles vanish mod 2 pi; order 1 never detects a
    phase.  Classical phases are the identity, hence undetectable at every
    order.  The search method instead samples random effects per subset and
    can only falsify.
    """
    _require_count(order, 1, "order")
    if method not in ("closed-form", "search"):
        raise ValidationError(f"unknown method {method!r}")
    if experiment.system.theory == CLASSICAL:
        _require_phase(transformation, experiment)
        return True
    if method == "search":
        found = search_detecting_effect(
            transformation, experiment, max_support=order, trials=trials, seed=seed
        )
        return found is None
    angles = phase_relative_angles(transformation, experiment)
    if order == 1:
        return True
    # the largest distance of any angle from 0 on the circle
    return float(np.max(np.abs(np.angle(np.exp(1j * angles))))) <= EPS_EQ


def detection_order(
    transformation: Transformation, experiment: PathExperiment
) -> int | None:
    """Smallest support size whose effects see the phase; None when none do.

    A quantum phase with any nonvanishing relative angle is caught by an
    effect on the corresponding path pair, so the order is 2 or nothing.
    """
    return None if is_n_undetectable(transformation, experiment, 2) else 2


def _subset_effects(
    experiment: PathExperiment,
    indices: tuple[int, ...],
    trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Stack of random effect covectors supported inside the given paths.

    Each W diag(u) W^dag, with W the path kets times a Haar V and u in
    [0, 1], is an effect by construction, so the stack is encoded without an
    Effect's check.  The draws are two bulk calls: every trial's real and
    imaginary Gaussian matrices, standard_normal((trials, 2, k, k)), then
    every trial's spectrum, random((trials, k)).  Both products are sums of
    outer products, one path at a time and elementwise, so each trial's
    matrix is bit for bit what that trial alone gives; a gemm over the
    trials would round differently, and a matmul per trial costs more.
    """
    kets = experiment.kets.T[list(indices)]  # one C-contiguous ket per row
    k = len(indices)
    normals = rng.standard_normal((trials, 2, k, k))
    vals = rng.random((trials, k))
    v = _haar(normals[:, 0] + 1j * normals[:, 1])
    # row j of W^T is sum_i V[i, j] ket_i
    wt = v[:, 0, :, None] * kets[0]
    for i in range(1, k):
        wt += v[:, i, :, None] * kets[i]
    scaled, conj = wt * vals[:, :, None], wt.conj()
    mats = scaled[:, 0, :, None] * conj[:, 0, None, :]
    for j in range(1, k):
        mats += scaled[:, j, :, None] * conj[:, j, None, :]
    return _encode(mats, experiment.system.dim)


def search_detecting_effect(
    transformation: Transformation,
    experiment: PathExperiment,
    max_support: int,
    trials: int = 200,
    seed: int | np.random.Generator = 0,
) -> Effect | None:
    """Randomized hunt for an effect on few paths that the phase moves.

    Returns a detecting effect with support on at most `max_support` paths,
    or None when all sampled effects are fixed within tolerance.  Subsets
    are tried by size, then in lexicographic order, and the first one with a
    moved effect ends the search.  Each subset takes its draws from the one
    seeded stream in turn, as two bulk calls (see _subset_effects).
    """
    _require_theory(experiment.system, QUANTUM, "effect search")
    _require_phase(transformation, experiment)
    _require_count(max_support, 1, "max support")
    _require_count(trials, 1, "trials")
    rng = _rng(seed)
    size_cap = min(max_support, experiment.n)
    for size in range(1, size_cap + 1):
        for indices in itertools.combinations(range(experiment.n), size):
            stack = _subset_effects(experiment, indices, trials, rng)
            moved = stack @ transformation.matrix
            dev = np.max(np.abs(moved - stack), axis=1)
            hit = int(np.argmax(dev))
            if dev[hit] > EPS_PSD:
                return _derived(Effect, experiment.system, stack[hit].copy())
    return None


# the largest dimension whose d! permutations enumerate_classical_phases walks
_ENUMERATION_CAP = 8


def enumerate_classical_phases(experiment: PathExperiment) -> list[Transformation]:
    """All classical reversible transformations fixing the which-path effects.

    Exhaustive over permutations, so guarded to dimension _ENUMERATION_CAP.
    """
    system = experiment.system
    _require_theory(system, CLASSICAL, "phase enumeration")
    if system.dim > _ENUMERATION_CAP:
        raise ValidationError(f"refusing to enumerate {system.dim}! permutations "
                              f"(dimension cap {_ENUMERATION_CAP})")
    found = []
    for perm in itertools.permutations(range(system.dim)):
        t = permutation_transformation(system, perm)
        if is_phase(t, experiment):
            found.append(t)
    return found
