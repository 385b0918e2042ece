"""Controlled transformations, phase kick-back, and exchange statistics.

A controlled transformation applies branch unitary U_i to the target when the
control sits on basis state i, and is itself one reversible map on the
composite.  When every branch fixes a common target state, running the control
through in superposition kicks a phase back onto it; the kicked angles are the
branch eigenphases on that state, gauged so branch 0 carries angle zero.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    EPS_DECISION,
    EPS_EQ,
    EPS_PSD,
    QUANTUM,
    Effect,
    InfeasibleError,
    StateVector,
    SystemMismatchError,
    SystemType,
    Transformation,
    ValidationError,
    _as_unitary,
    _channel,
    _check_effects,
    _check_states,
    _encode,
    _pair_factor,
    _pure_densities,
    _readonly,
    _require_finite,
    _rowpair,
    _rowwise,
    _tensor_coeffs,
    basis_state,
    composite_system,
    density_matrix,
    ket_state,
    quantum_system,
    unitary_channel,
)
from .paths import NotAPhaseError, PathExperiment, phase_relative_angles


@dataclass(frozen=True, eq=False)
class ControlledTransformation:
    """A branch-indexed reversible transformation on control (x) target.

    Stores the branch unitaries and one control ket per branch (columns), as
    read-only copies; everything else derives from them once, on first use.
    The constructor checks them; build_controlled also verifies the contract.
    """

    target_system: SystemType
    branch_unitaries: tuple[np.ndarray, ...]
    control_kets: np.ndarray
    designated_target: StateVector | None = None

    def __post_init__(self) -> None:
        if self.target_system.theory != QUANTUM:
            raise SystemMismatchError("controlled transformations are built on the quantum backend")
        n, d = len(self.branch_unitaries), self.target_system.dim
        if n < 2:
            raise ValidationError("need at least two branches to control on")
        unitaries = tuple(_readonly(np.array(_as_unitary(u, d, f"branch {i}")))
                          for i, u in enumerate(self.branch_unitaries))
        object.__setattr__(self, "branch_unitaries", unitaries)
        kets = _readonly(np.array(_as_unitary(self.control_kets, n, "control kets")))
        object.__setattr__(self, "control_kets", kets)

    @property
    def n_branches(self) -> int:
        return len(self.branch_unitaries)

    @cached_property
    def control_system(self) -> SystemType:
        return quantum_system(self.n_branches)

    @cached_property
    def control_states(self) -> tuple[StateVector, ...]:
        return tuple(StateVector(self.control_system, c, check=False) for c in self._projectors)

    @cached_property
    def control_effects(self) -> tuple[Effect, ...]:
        """Projectors onto the control kets: effect i fires exactly on branch i."""
        return tuple(Effect(self.control_system, c, check=False) for c in self._projectors)

    @cached_property
    def _projectors(self) -> np.ndarray:
        """Coefficients of |k_i><k_i|, one row per control ket.

        The control states and effects share this stack.  It is encoded
        row-exactly, so row i is bit for bit ket_state's and
        projector_effect's, and checked once as a state stack and once as an
        effect stack.
        """
        kets = np.ascontiguousarray(self.control_kets.T)
        coeffs = _readonly(_encode(kets[:, :, None] * kets.conj()[:, None, :], self.n_branches))
        _check_states(self.control_system, coeffs)
        _check_effects(self.control_system, coeffs)
        return coeffs

    @cached_property
    def branch_transforms(self) -> tuple[Transformation, ...]:
        return tuple(unitary_channel(self.target_system, u) for u in self.branch_unitaries)

    @cached_property
    def composite(self) -> Transformation:
        """Conjugation by the block sum of |k_i><k_i| (x) U_i over the branches."""
        block = sum(
            np.kron(np.outer(k, k.conj()), u)
            for k, u in zip(self.control_kets.T, self.branch_unitaries)
        )
        return unitary_channel(composite_system(self.control_system, self.target_system), block)


def build_controlled(
    branch_unitaries: Sequence[np.ndarray],
    target_system: SystemType,
    control_kets: np.ndarray | None = None,
    verify_samples: int = 20,
    seed: int | np.random.Generator = 0,
) -> ControlledTransformation:
    """Construct and verify the controlled transformation of the given branches.

    The control kets default to the computational basis of an n-level quantum
    system.  The contract is checked on random target states: branch i acts
    on the target whenever the control is prepared on ket i, and filtering
    the control on (k_i| after the composite yields branch i weighted by the
    control overlap.
    """
    kets = np.eye(len(branch_unitaries)) if control_kets is None else control_kets
    built = ControlledTransformation(target_system, branch_unitaries, kets)
    return _verified(built, verify_samples, seed)


def _verified(
    built: ControlledTransformation, verify_samples: int, seed: int | np.random.Generator
) -> ControlledTransformation:
    """The map, once its contract holds on random samples; its constructor checked its arrays."""
    report = verify_control_contract(built, trials=verify_samples, seed=seed)
    if report["max_branch_deviation"] > EPS_EQ or report["max_filter_deviation"] > EPS_EQ:
        raise ValidationError(f"controlled contract failed at construction: {report}")
    return built


def verify_control_contract(
    controlled: ControlledTransformation,
    trials: int = 20,
    seed: int | np.random.Generator = 0,
) -> dict:
    """Check the two defining equations on random target states.

    Returns max deviations for branch action on control basis states and for
    control filtering on superposed controls.  The samples are checked as one
    stack, each channel applied by one matmul; every intermediate state is
    still validated, by one batched check per system, and each deviation is
    bit for bit the one a sample-by-sample check would compute.
    """
    _require_samples(trials)
    rng = np.random.default_rng(seed)
    (sigmas,) = _sample_stacks((controlled.target_system,), trials, rng)
    # axis 0 runs over the control basis states, axis 1 over the samples
    controls = controlled._projectors[:, None, :]
    branched = _branched(controlled, sigmas)
    _check_states(controlled.target_system, branched.reshape(-1, sigmas.shape[1]))
    branch_dev = _product_deviation(controlled, (controls, sigmas), (controls, branched))
    filt = verify_superposition_preservation(controlled, trials=trials, seed=rng)
    return {
        "max_branch_deviation": branch_dev,
        "max_filter_deviation": filt["max_deviation"],
        "trials": trials,
    }


def _product_deviation(
    controlled: ControlledTransformation,
    prepared: tuple[np.ndarray, np.ndarray],
    wanted: tuple[np.ndarray, np.ndarray],
) -> float:
    """max |composite(w (x) s) - w' (x) s'| over the broadcast (control, target)
    stack pairs, once the three composite stacks pass one state check."""
    control, target = controlled.control_system, controlled.target_system
    composite = controlled.composite
    dim = composite.matrix.shape[1]
    before = _tensor_coeffs(control, target, *prepared).reshape(-1, dim)
    want = _tensor_coeffs(control, target, *wanted).reshape(-1, dim)
    after = _rowwise(composite.matrix, before)
    _check_states(composite.in_system, np.concatenate([before, after, want]))
    return float(np.max(np.abs(after - want)))


def _require_samples(trials: int) -> None:
    if trials < 1:
        raise ValidationError(f"need at least one verification sample, got {trials}")


def _branched(controlled: ControlledTransformation, rows: np.ndarray) -> np.ndarray:
    """Every branch channel applied to the rows, axis 0 over the branches.

    Each branch's _rowwise is one gemv per row, so every result is bit for
    bit the branch's own; only these results are stacked, never the channel
    matrices themselves.
    """
    return np.stack([_rowwise(t.matrix, rows) for t in controlled.branch_transforms])


def _sample_stacks(
    systems: Sequence[SystemType], trials: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Coefficient stacks of seeded random states, one stack per system.

    Each trial draws one state per system, in order; system j's state in
    trial t is pure when t + j is even and mixed otherwise, drawn as
    core._random_density draws it.  Every draw is standard normal, so one
    bulk draw sliced in that order gives the same numbers and leaves the
    Generator where the per-state draws did.  Trials 2r and 2r + 1 draw the
    same sizes in the same order and fill row r of the bulk draw, so each
    (system, trial parity) is a column slice.  The densities are built as
    stacks, bit for bit as one at a time, and each stack is one unchecked
    row-exact encode, C-contiguous for the row-exact matmuls downstream.
    """
    dims = [system.dim for system in systems]
    # a draw takes a real then an imaginary part: d numbers each when pure, d * d when mixed
    first = 2 * sum(d if j % 2 == 0 else d * d for j, d in enumerate(dims))
    block = 2 * sum(d + d * d for d in dims)
    rows = np.empty((-(-trials // 2), block))
    rng.standard_normal(out=rows.reshape(-1)[: trials // 2 * block + trials % 2 * first])
    rhos = [np.empty((trials, d, d), dtype=complex) for d in dims]
    at = 0
    for h in (0, 1):
        count = len(range(h, trials, 2))
        for j, (rho, d) in enumerate(zip(rhos, dims)):
            # the kind follows the parity, not the size: at d = 1 both take 2 numbers
            shape = (d,) if (h + j) % 2 == 0 else (d, d)
            size = d ** len(shape)
            part = rows[:count, at : at + 2 * size].reshape(count, 2, *shape)
            at += 2 * size
            z = part[:, 0] + 1j * part[:, 1]
            if len(shape) == 1:
                rho[h::2] = _pure_densities(z)
            else:
                g = z @ z.conj().swapaxes(-1, -2)
                rho[h::2] = g / np.trace(g, axis1=-2, axis2=-1).real[:, None, None]
    return [_encode(rho, d) for rho, d in zip(rhos, dims)]


def verify_superposition_preservation(
    controlled: ControlledTransformation,
    trials: int = 50,
    seed: int | np.random.Generator = 0,
) -> dict:
    """Deviation of control filtering from weighted branch action.

    For random control states w and target states sigma, compares
    (i| filtering of composite(w (x) sigma) against pair(i, w) times branch i
    of sigma.  Returns the maximum coefficient deviation over all samples and
    branches; a genuinely controlled composite sits at numerical zero.  The
    samples are checked as one stack, like verify_control_contract's.
    """
    _require_samples(trials)
    rng = np.random.default_rng(seed)
    control, target = controlled.control_system, controlled.target_system
    joint = controlled.composite.in_system
    omegas, sigmas = _sample_stacks((control, target), trials, rng)
    prepared = _tensor_coeffs(control, target, omegas, sigmas)
    moved = _rowwise(controlled.composite.matrix, prepared)
    branched = _branched(controlled, sigmas)
    _check_states(joint, np.concatenate([prepared, moved]))
    _check_states(target, branched.reshape(-1, sigmas.shape[1]))
    effects = controlled._projectors
    got = _pair_factor(joint, moved, effects, 0)
    # one dot product per weight, as pair() takes it
    weights = _rowpair(effects[:, None], omegas)[..., None]
    # rows are trials and columns branches: the loop order the first maximum wins in
    devs = np.max(np.abs(got - weights * branched), axis=-1).T
    _, worst_branch = np.unravel_index(np.argmax(devs), devs.shape)
    return {
        "max_deviation": float(devs.max()),
        "worst_branch": int(worst_branch),
        "trials": trials,
    }


def _eigenphase_clusters(u: np.ndarray) -> list[np.ndarray]:
    """Eigenspaces of a unitary, clustered by eigenphase on the circle.

    Returns orthonormal basis columns per cluster, sorted by eigenphase in
    [0, 2 pi).  The clusters of one size share one stacked QR call, which is
    bit for bit the QRs one at a time.
    """
    vals, vecs = np.linalg.eig(u)
    angles = np.angle(vals) % (2.0 * math.pi)
    order = np.argsort(angles)
    angles, vecs = angles[order], vecs[:, order]
    groups: list[list[int]] = [[0]]
    for i in range(1, len(angles)):
        if angles[i] - angles[groups[-1][-1]] < EPS_PSD:
            groups[-1].append(i)
        else:
            groups.append([i])
    # the circle wraps: a cluster at 2 pi belongs with one at 0
    if len(groups) > 1 and (2.0 * math.pi - angles[groups[-1][0]]) + angles[0] < EPS_PSD:
        groups[0] = groups.pop() + groups[0]
    bases = {}
    for size in {len(g) for g in groups}:
        same = [i for i, g in enumerate(groups) if len(g) == size]
        q, _ = np.linalg.qr(np.stack([vecs[:, groups[i]] for i in same]))
        bases.update(zip(same, q))
    return [bases[i] for i in range(len(groups))]


def _intersect_subspaces(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the intersection of two column spaces."""
    stacked = np.hstack([a, -b])
    _, svals, vh = np.linalg.svd(stacked)
    null_mask = np.zeros(vh.shape[0], dtype=bool)
    null_mask[: len(svals)] = svals < EPS_PSD
    null_mask[len(svals):] = True
    null = vh[null_mask].conj().T
    if null.shape[1] == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    vectors = a @ null[: a.shape[1]]
    q, r = np.linalg.qr(vectors)
    keep = np.abs(np.diag(r)) > EPS_PSD
    return q[:, keep]


def common_fixed_state(
    branch_unitaries: Sequence[np.ndarray],
    target_system: SystemType | None = None,
) -> StateVector | None:
    """A pure target state every branch fixes, or None when none exists.

    Simultaneous eigenvectors are found by refining the whole space against
    each branch's eigenphase clusters in turn.  The refinement runs depth
    first in cluster-index order and stops at the first path whose
    intersection stays nonempty through every branch: the path with the
    lowest cluster indices, the one a full level-by-level refinement would
    pick after sorting, reached through the same intersections.  The
    representative is the first computational basis vector's projection,
    so the result is deterministic.  The {identity, diag(1, -1)} pair
    yields basis state 0.

    Most (space, eigenspace) pairs meet in nothing, and a pair is pruned
    before its SVD when the spaces A (k columns) and B (m columns), both
    orthonormal, have k + m <= d and |A^dag B|_F**2 < 1/2.  The squared
    Frobenius norm bounds the largest squared principal cosine, so every
    cosine is below 1/sqrt(2), and the singular values of [A, -B] are
    sqrt(1 -+ cos) for each cosine and 1 for the rest: the smallest is at
    least sqrt(1 - 1/sqrt(2)) > 0.54, and rounding moves it by far less.
    With k + m <= d the SVD has no columns beyond its singular values, and
    _intersect_subspaces keeps only singular values below EPS_PSD, so it
    would return nothing for the pair.  Every surviving pair takes that SVD
    unchanged, so pruning changes no bit of the result.
    """
    if not branch_unitaries:
        raise ValidationError("need at least one branch")
    d = np.asarray(branch_unitaries[0]).shape[0]
    system = target_system if target_system is not None else quantum_system(d)
    if system.dim != d:
        raise SystemMismatchError(f"branches of size {d} do not fit system dim {system.dim}")
    unitaries = [_as_unitary(u, d, f"branch {i}") for i, u in enumerate(branch_unitaries)]
    return _common_fixed_state(unitaries, system)


def _common_fixed_state(
    unitaries: Sequence[np.ndarray], system: SystemType
) -> StateVector | None:
    """common_fixed_state on branches already checked unitary on the system."""
    d = system.dim
    space = _first_meet(np.eye(d, dtype=complex), [_eigenphase_clusters(u) for u in unitaries])
    if space is None:
        return None
    # canonical representative: first basis vector with weight in the subspace
    for j in range(d):
        v = space @ (space.conj().T @ np.eye(d, dtype=complex)[:, j])
        if np.linalg.norm(v) > EPS_DECISION:
            v = v / np.linalg.norm(v)
            lead = np.argmax(np.abs(v))
            v = v * np.exp(-1j * np.angle(v[lead]))
            return ket_state(system, v)
    raise InfeasibleError("empty candidate subspace survived refinement")


def _first_meet(space: np.ndarray, levels: list[list[np.ndarray]]) -> np.ndarray | None:
    """The first nonempty meet of the space with one cluster per level, in
    cluster-index order, depth first; None when every path empties."""
    if not levels:
        return space
    d = space.shape[0]
    for eigenspace in levels[0]:
        # the prune of common_fixed_state's docstring: no SVD can meet here
        if space.shape[1] + eigenspace.shape[1] <= d:
            overlap = space.conj().T @ eigenspace
            if np.vdot(overlap, overlap).real < 0.5:
                continue
        meet = _intersect_subspaces(space, eigenspace)
        if meet.shape[1] > 0:
            found = _first_meet(meet, levels[1:])
            if found is not None:
                return found
    return None


@dataclass(frozen=True, eq=False)
class KickbackResult:
    """Kicked phase extracted from a controlled transformation and fixed state."""

    fixed_state: StateVector
    angles: np.ndarray
    transform: Transformation
    kickback_residual: float
    phase_residual: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "angles", _readonly(np.array(self.angles, dtype=float)))

    def to_json_dict(self) -> dict:
        return {
            "fixed_state_coeffs": [float(x) for x in self.fixed_state.coeffs],
            "angles": [float(a) for a in self.angles],
            "kickback_residual": self.kickback_residual,
            "phase_residual": self.phase_residual,
        }


def extract_kickback(
    controlled: ControlledTransformation,
    fixed_state: StateVector | None = None,
    verify_samples: int = 20,
    seed: int | np.random.Generator = 0,
) -> KickbackResult:
    """Kicked phase of a controlled transformation on a commonly fixed target.

    The fixed state defaults to a computed common fixed state.  A supplied one
    is re-verified: each branch must fix it, which for a pure state means the
    ket is a simultaneous eigenvector.  Angles are the branch eigenphases
    gauged so branch 0 sits at zero; the returned transform acts on the
    control and fixes all which-path effects of the control basis.

    The kick-back equation is checked on random control states as one stack,
    each channel applied by one matmul; every intermediate state is still
    validated, by one batched check per system.
    """
    _require_samples(verify_samples)
    if fixed_state is None:
        fixed_state = _common_fixed_state(controlled.branch_unitaries, controlled.target_system)
        if fixed_state is None:
            raise InfeasibleError("branches share no fixed state to kick back from")
    if fixed_state.system != controlled.target_system:
        raise SystemMismatchError("fixed state does not live on the target system")
    moved = _branched(controlled, fixed_state.coeffs)
    deviations = np.max(np.abs(moved - fixed_state.coeffs), axis=-1)
    worst = int(np.argmax(deviations))
    if deviations[worst] > EPS_EQ:
        raise InfeasibleError(
            f"branch {worst} moves the target state (deviation {float(deviations[worst])!r})"
        )
    vals, vecs = np.linalg.eigh(density_matrix(fixed_state))
    if vals[-1] < 1.0 - EPS_PSD:
        raise InfeasibleError(
            f"fixed state is not pure (top eigenvalue {float(vals[-1])!r}); "
            "kick-back needs a pure fixed state"
        )
    psi = vecs[:, -1]
    raw = np.empty(controlled.n_branches)
    for i, u in enumerate(controlled.branch_unitaries):
        moved = u @ psi
        eig = np.vdot(psi, moved)
        residue = float(np.max(np.abs(moved - eig * psi)))
        if residue > EPS_PSD or abs(abs(eig) - 1.0) > EPS_PSD:
            raise InfeasibleError(
                f"branch {i} does not phase the fixed state (residue {residue!r})"
            )
        raw[i] = np.angle(eig)
    angles = (raw - raw[0]) % (2.0 * math.pi)
    kets = controlled.control_kets
    q_matrix = (kets * np.exp(1j * angles)) @ kets.conj().T
    transform = unitary_channel(controlled.control_system, q_matrix)
    control = controlled.control_system
    (sigmas,) = _sample_stacks((control,), verify_samples, np.random.default_rng(seed))
    kicked = _rowwise(transform.matrix, sigmas)
    _check_states(control, kicked)
    kb_dev = _product_deviation(
        controlled, (sigmas, fixed_state.coeffs), (kicked, fixed_state.coeffs))
    effects = controlled._projectors
    phase_dev = float(np.max(np.abs(_rowwise(transform.matrix.T, effects) - effects)))
    if kb_dev > EPS_EQ:
        raise ValidationError(f"kick-back equation failed verification (deviation {kb_dev!r})")
    if phase_dev > EPS_EQ:
        raise ValidationError(f"kicked transform moves a which-path effect ({phase_dev!r})")
    return KickbackResult(
        fixed_state=fixed_state,
        angles=angles,
        transform=transform,
        kickback_residual=kb_dev,
        phase_residual=phase_dev,
    )


def realize_phase_as_kickback(
    phase: Transformation,
    control_experiment: PathExperiment,
    seed: int | np.random.Generator = 0,
) -> ControlledTransformation:
    """Controlled transformation whose kick-back reproduces a given phase.

    Branches act on a qubit target as diag(1, e^{i w_i}) with w_i the phase's
    relative angles, so the designated fixed state |1><1| kicks back exactly
    those angles.  The two-path zero/pi phase yields the controlled-sign gate.
    """
    angles = phase_relative_angles(phase, control_experiment)
    target = quantum_system(2)
    branches = [np.diag([1.0, np.exp(1j * a)]) for a in angles]
    built = ControlledTransformation(
        target, branches, control_experiment.kets, basis_state(target, 1))
    return _verified(built, verify_samples=20, seed=seed)


def control_target_swap_check(controlled: ControlledTransformation) -> dict:
    """Verify the two factorizations of a doubly diagonal controlled map.

    When every branch is diagonal in the computational target basis, swapping
    the factors exposes the same composite as controlled-from-the-target with
    branches read off column by column (ungauged eigenphases, so the identity
    is exact at channel level).  Returns the kicked-phase table and deviation.
    """
    d_c, d_t = controlled.control_system.dim, controlled.target_system.dim
    if d_c != d_t:
        raise SystemMismatchError(
            f"swap comparison needs equal factors, got {d_c} and {d_t}"
        )
    if float(np.max(np.abs(controlled.control_kets - np.eye(d_c)))) > EPS_EQ:
        raise ValidationError("swap comparison assumes the computational control basis")
    betas = np.empty((controlled.n_branches, d_t))
    for i, u in enumerate(controlled.branch_unitaries):
        off = u - np.diag(np.diag(u))
        if float(np.max(np.abs(off))) > EPS_EQ:
            raise NotAPhaseError(
                f"branch {i} is not diagonal in the target basis; "
                "both factorizations need phase branches"
            )
        betas[i] = np.angle(np.diag(u))
    swapped_branches = [np.diag(np.exp(1j * betas[:, j])) for j in range(d_t)]
    rebuilt = build_controlled(swapped_branches, controlled.control_system)
    swap = unitary_channel(
        composite_system(controlled.control_system, controlled.target_system),
        swap_exchange_unitary(d_c),
    )
    conjugated = _channel(
        swap.in_system,
        swap.out_system,
        swap.matrix @ controlled.composite.matrix @ swap.matrix,
        True,
    )
    deviation = float(np.max(np.abs(conjugated.matrix - rebuilt.composite.matrix)))
    return {
        "deviation": deviation,
        "equal": deviation <= EPS_EQ,
        "kicked_columns": betas.T.tolist(),
    }


# ---------------------------------------------------------------------------
# exchange statistics


@dataclass(frozen=True)
class ParticleClass:
    """Label for the kicked exchange angle: boson 0, fermion pi, else anyon."""

    kind: str
    theta: float

    def __post_init__(self) -> None:
        if self.kind not in ("boson", "fermion", "anyon"):
            raise ValidationError(f"unknown particle kind {self.kind!r}")


def classify_particle(theta: float) -> ParticleClass:
    _require_finite(theta, "exchange angle")
    wrapped = float(theta) % (2.0 * math.pi)
    if min(wrapped, 2.0 * math.pi - wrapped) <= EPS_EQ:
        return ParticleClass("boson", 0.0)
    if abs(wrapped - math.pi) <= EPS_EQ:
        return ParticleClass("fermion", math.pi)
    return ParticleClass("anyon", wrapped)


def exchange_experiment(
    particle_state: StateVector,
    exchange_op: np.ndarray,
    seed: int | np.random.Generator = 0,
) -> float:
    """Kicked angle of controlling identity versus one exchange of the state.

    The exchange operation must fix the state; the returned angle is its
    eigenphase on the state's ket, read out through the two-branch kick-back.
    """
    return float(multi_path_permutation_experiment([exchange_op], particle_state, seed)[0])


def multi_path_permutation_experiment(
    permutation_ops: Sequence[np.ndarray],
    particle_state: StateVector,
    seed: int | np.random.Generator = 0,
) -> np.ndarray:
    """Kicked angles of a family of permutation-induced operations.

    Branch 0 is the identity gauge and operation j is branch j + 1, the name
    its errors carry; returns the angles of branches 1..n.  Every operation
    must fix the state, or the kick-back extraction reports the offending branch.
    """
    system = particle_state.system
    controlled = build_controlled([np.eye(system.dim), *permutation_ops], system, seed=seed)
    result = extract_kickback(controlled, particle_state, seed=seed)
    return result.angles[1:]


def swap_exchange_unitary(factor_dim: int) -> np.ndarray:
    """The unitary exchanging two factors of equal dimension."""
    # row (j, i) is basis vector (i, j): the identity with its rows transposed
    n = factor_dim
    return np.eye(n * n)[np.arange(n * n).reshape(n, n).T.reshape(-1)]


def anyonic_exchange_unitary(
    particle_state: StateVector, theta: float
) -> np.ndarray:
    """Exchange with an injected eigenphase on a swap-symmetric state.

    Composes the factor swap with a phase on the state's ray, so the state
    stays fixed while its exchange eigenphase becomes theta.
    """
    system = particle_state.system
    if len(system.factors) != 2 or system.factors[0] != system.factors[1]:
        raise SystemMismatchError("anyonic exchange needs two equal factors")
    vals, vecs = np.linalg.eigh(density_matrix(particle_state))
    if vals[-1] < 1.0 - EPS_PSD:
        raise InfeasibleError("anyonic exchange needs a pure state")
    psi = vecs[:, -1]
    swap = swap_exchange_unitary(system.factors[0])
    if float(np.max(np.abs(swap @ psi - psi))) > EPS_EQ:
        raise InfeasibleError("state is not swap-symmetric; injected phase would not be clean")
    ray = np.outer(psi, psi.conj())
    return swap @ (np.eye(system.dim) + (np.exp(1j * theta) - 1.0) * ray)
