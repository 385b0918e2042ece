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
    SystemMismatchError,
    SystemType,
    Transformation,
    ValidationError,
    _decode,
    _encode,
    _haar,
    _readonly,
    basis_effect,
    basis_state,
    density_matrix,
    pair,
    permutation_transformation,
    unit_effect,
)


class NotAPhaseError(ValueError):
    """The transformation does not fix every which-path effect."""


class PathRankError(ValueError):
    """A path state or effect has rank above 1; only rank-1 paths are supported."""


@dataclass(frozen=True, eq=False)
class Path:
    """A preparation/detection pair with unit pairing."""

    state: StateVector
    effect: Effect

    def __post_init__(self) -> None:
        if self.state.system != self.effect.system:
            raise SystemMismatchError("path state and effect live on different systems")
        p = pair(self.effect, self.state)
        if abs(p - 1.0) > EPS_EQ:
            raise ValidationError(f"path pairing is {p!r}, expected 1")


@dataclass(frozen=True, eq=False)
class PathExperiment:
    """Pairwise disjoint paths whose effects resolve the unit effect."""

    paths: tuple[Path, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "paths", tuple(self.paths))
        if len(self.paths) < 2:
            raise ValidationError("a path experiment needs at least two paths")
        system = self.paths[0].state.system
        for p in self.paths[1:]:
            if p.state.system != system:
                raise SystemMismatchError("paths live on different systems")
        for i, j in itertools.permutations(range(len(self.paths)), 2):
            val = pair(self.paths[i].effect, self.paths[j].state)
            if abs(val) > EPS_EQ:
                raise ValidationError(
                    f"paths {i} and {j} are not disjoint: cross pairing {val!r}"
                )
        total = np.sum([p.effect.coeffs for p in self.paths], axis=0)
        dev = float(np.max(np.abs(total - unit_effect(system).coeffs)))
        if dev > EPS_EQ:
            raise ValidationError(
                f"path effects do not resolve the unit effect (deviation {dev!r})"
            )
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
        if self.system.theory != QUANTUM:
            raise SystemMismatchError("path kets exist for quantum experiments only")
        kets = []
        for i, p in enumerate(self.paths):
            vals, vecs = np.linalg.eigh(density_matrix(p.state))
            if vals[-1] < 1.0 - EPS_PSD or abs(vals[:-1]).max() > EPS_PSD:
                raise PathRankError(f"path {i} state has rank above 1 (spectrum {vals!r})")
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
    if state.system != experiment.system:
        raise SystemMismatchError("state does not live on the experiment's system")
    return frozenset(
        i for i, p in enumerate(experiment.paths) if pair(p.effect, state) > EPS_EQ
    )


def support_of_effect(effect: Effect, experiment: PathExperiment) -> frozenset[int]:
    """Paths whose state triggers the effect above the support threshold."""
    if effect.system != experiment.system:
        raise SystemMismatchError("effect does not live on the experiment's system")
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
    """True when the transformation is reversible and fixes every path effect."""
    if transformation.in_system != experiment.system:
        raise SystemMismatchError("transformation does not act on the experiment's system")
    if transformation.out_system != experiment.system:
        return False
    if not transformation.reversible:
        return False
    # transform_effect's arithmetic, without building an Effect per path
    m = transformation.matrix.T
    return all(
        float(np.max(np.abs(m @ p.effect.coeffs - p.effect.coeffs))) <= EPS_EQ
        for p in experiment.paths
    )


def phase_relative_angles(
    transformation: Transformation, experiment: PathExperiment
) -> np.ndarray:
    """Diagonal phase angles of a quantum phase transformation, gauged to path 0.

    Every reversible map fixing the which-path effects of a rank-1 experiment
    is conjugation by a phase diagonal in the path basis; the relative angles
    are read off from how the channel transports path coherences.
    """
    if experiment.system.theory != QUANTUM:
        raise SystemMismatchError("relative phase angles exist for quantum experiments only")
    if not is_phase(transformation, experiment):
        raise NotAPhaseError("transformation does not fix the which-path effects")
    kets = experiment.kets
    d = experiment.system.dim
    angles = np.zeros(experiment.n)
    for j in range(1, experiment.n):
        coherence = np.outer(kets[:, 0], kets[:, j].conj())
        op = coherence + coherence.conj().T
        moved = _decode(transformation.matrix @ _encode(op, d), d)
        val = kets[:, 0].conj() @ moved @ kets[:, j]
        if abs(abs(val) - 1.0) > EPS_DECISION:
            raise NotAPhaseError(
                f"path coherence 0-{j} is not phase-transported (magnitude {float(abs(val))!r})"
            )
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
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    if method not in ("closed-form", "search"):
        raise ValidationError(f"unknown method {method!r}")
    if experiment.system.theory == CLASSICAL:
        if not is_phase(transformation, experiment):
            raise NotAPhaseError("transformation does not fix the which-path effects")
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

    Each V diag(u) V^dag with u in [0, 1] is an effect by construction, so the
    stack is encoded without an Effect's check.  The draws are made trial by
    trial, in order; only the QR and the products run on the stack.
    """
    kets = experiment.kets[:, list(indices)]
    k = len(indices)
    # per trial: the real then the imaginary Gaussian matrix, one call, then
    # the spectrum; random() returns the doubles uniform(0, 1) does
    normals = np.empty((trials, 2, k, k))
    vals = np.empty((trials, k))
    for t in range(trials):
        rng.standard_normal(out=normals[t])
        rng.random(out=vals[t])
    v = _haar(normals[:, 0] + 1j * normals[:, 1])
    blocks = (v * vals[:, None, :]) @ v.conj().swapaxes(-1, -2)
    return _encode(kets @ blocks @ kets.conj().T, experiment.system.dim)


def search_detecting_effect(
    transformation: Transformation,
    experiment: PathExperiment,
    max_support: int,
    trials: int = 200,
    seed: int | np.random.Generator = 0,
) -> Effect | None:
    """Randomized hunt for an effect on few paths that the phase moves.

    Returns a detecting effect with support on at most `max_support` paths,
    or None when all sampled effects are fixed within tolerance.
    """
    if experiment.system.theory != QUANTUM:
        raise SystemMismatchError("effect search applies to quantum experiments")
    if not is_phase(transformation, experiment):
        raise NotAPhaseError("transformation does not fix the which-path effects")
    rng = np.random.default_rng(seed)
    size_cap = min(max_support, experiment.n)
    for size in range(1, size_cap + 1):
        for indices in itertools.combinations(range(experiment.n), size):
            stack = _subset_effects(experiment, indices, trials, rng)
            moved = stack @ transformation.matrix
            dev = np.max(np.abs(moved - stack), axis=1)
            hit = int(np.argmax(dev))
            if dev[hit] > EPS_PSD:
                return Effect(experiment.system, stack[hit], check=False)
    return None


def enumerate_classical_phases(
    experiment: PathExperiment, max_dim: int = 8
) -> list[Transformation]:
    """All classical reversible transformations fixing the which-path effects.

    Exhaustive over permutations, so guarded to small dimensions.
    """
    system = experiment.system
    if system.theory != CLASSICAL:
        raise SystemMismatchError("phase enumeration is exhaustive for classical only")
    if system.dim > max_dim:
        raise ValidationError(
            f"refusing to enumerate {system.dim}! permutations (max_dim={max_dim})"
        )
    found = []
    for perm in itertools.permutations(range(system.dim)):
        t = permutation_transformation(system, perm)
        if is_phase(t, experiment):
            found.append(t)
    return found
