"""States, effects, and transformations for finite-dimensional operational theories.

Two backends share one real linear-algebra substrate.  Quantum systems encode
density operators as real coefficient vectors over an orthonormal Hermitian
operator basis (identity first, then the generalized Gell-Mann matrices), so a
state on a d-level system is a length d**2 real vector, an effect is a real
covector of the same length, and a channel is a real matrix acting on
coefficients.  Classical systems use probability vectors, sub-unit effect
vectors, and stochastic matrices.  Complex amplitudes appear only inside the
quantum constructors; every closed circuit evaluates to a real probability via
a plain dot product.

All values are immutable after construction and all operations are pure
functions, so they are safe to share across threads.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from dataclasses import InitVar, dataclass

import numpy as np

# Tolerance policy: every threshold in the package is one of three absolute
# values, whatever the dimension.  EPS_EQ bounds quantities equal in exact
# arithmetic (norms, pairings, unitarity, support, verification residuals);
# EPS_PSD bounds values read from a decomposition or an encoding (spectra,
# singular values, eigenphase gaps, an encoding's imaginary part);
# EPS_DECISION bounds a probability or magnitude read as yes or no.  Inputs
# are finite (_require_finite), so every deviation is a number.
EPS_EQ = 1e-9
EPS_PSD = 1e-8
EPS_DECISION = 1e-6

# Validation policy: data is checked once, where it enters: the StateVector,
# Effect and Transformation constructors on caller arrays, ket_state,
# projector_effect, state_from_density, effect_from_matrix,
# channel_from_matrix, _as_unitary, the serialize descriptors and
# PathExperiment.  A value derived from validated values by a step that
# preserves validity (a seeded draw, a projector sandwich, a phase built from
# path kets) is not checked again (check=False, or bare coefficients).  apply,
# transform_effect, the tensor products and the verify functions keep their
# checks: a raw reversible=True Transformation need not preserve positivity.

QUANTUM = "quantum"
CLASSICAL = "classical"


class SystemMismatchError(ValueError):
    """Objects from incompatible systems were combined."""


class ValidationError(ValueError):
    """A construction-time invariant failed."""


class InfeasibleError(ValueError):
    """The requested object does not exist for the given input."""


def _rng(seed: int | np.random.Generator) -> np.random.Generator:
    return np.random.default_rng(seed)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _require_finite(a: np.ndarray | float, what: str) -> None:
    if not np.isfinite(a).all():
        raise ValidationError(f"{what} holds NaN or infinity")


@dataclass(frozen=True)
class SystemType:
    """A finite-dimensional system: theory tag, dimension, declared tensor factors."""

    theory: str
    dim: int
    factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.theory not in (QUANTUM, CLASSICAL):
            raise ValidationError(f"unknown theory backend {self.theory!r}")
        if self.dim < 1:
            raise ValidationError(f"system dimension must be >= 1, got {self.dim}")
        factors = self.factors or (self.dim,)
        if int(np.prod(factors)) != self.dim:
            raise ValidationError(
                f"composite descriptor {factors} does not multiply to dim {self.dim}"
            )
        object.__setattr__(self, "factors", tuple(int(f) for f in factors))

    @property
    def vector_space_dim(self) -> int:
        return self.dim * self.dim if self.theory == QUANTUM else self.dim

    @property
    def is_composite(self) -> bool:
        return len(self.factors) > 1


def quantum_system(dim: int, factors: Sequence[int] = ()) -> SystemType:
    return SystemType(QUANTUM, dim, tuple(factors))


def classical_system(dim: int, factors: Sequence[int] = ()) -> SystemType:
    return SystemType(CLASSICAL, dim, tuple(factors))


def composite_system(a: SystemType, b: SystemType) -> SystemType:
    """Parallel composite of two systems of the same theory."""
    if a.theory != b.theory:
        raise SystemMismatchError(
            f"cannot compose {a.theory} with {b.theory}: mixed backends never compose"
        )
    return SystemType(a.theory, a.dim * b.dim, a.factors + b.factors)


@functools.lru_cache(maxsize=None)
def hermitian_basis(dim: int) -> np.ndarray:
    """Orthonormal Hermitian basis of the d x d operators, Tr(B_i B_j) = delta_ij.

    Ordering: identity/sqrt(d), then the symmetric, antisymmetric, and diagonal
    generalized Gell-Mann matrices.  B_0 proportional to the identity is relied
    on throughout (unit effect, maximally mixed state).

    The kernels read the stack through its flat (d**2, d**2) reshape view B,
    whose row k is the row-major vec(B_k).  Each B_k is Hermitian, so
    conj(B_k) = B_k^T and Tr(B_k X) = B[k] . vec(X^T): the one view serves
    both encode (B @ vec(X^T)) and decode (c @ B), with no conjugated copy.
    """
    mats = [np.eye(dim, dtype=complex) / np.sqrt(dim)]
    for k in range(1, dim):
        for j in range(k):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = m[k, j] = 1.0 / np.sqrt(2.0)
            mats.append(m)
    for k in range(1, dim):
        for j in range(k):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = -1j / np.sqrt(2.0)
            m[k, j] = 1j / np.sqrt(2.0)
            mats.append(m)
    for k in range(1, dim):
        m = np.zeros((dim, dim), dtype=complex)
        m[:k, :k] = np.eye(k)
        m[k, k] = -k
        mats.append(m / np.sqrt(k * (k + 1)))
    return _readonly(np.array(mats))


def _flat_basis(dim: int) -> np.ndarray:
    return hermitian_basis(dim).reshape(dim * dim, dim * dim)


def _re_gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re(a @ conj(b).T) as one real matmul over the interleaved float views.

    Leading axes of `b` are a stack; each matrix gets its own product.
    """
    return a.view(float) @ b.view(float).swapaxes(-1, -2)


def _rowwise(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """matrix @ row for every row of a stack, in one matmul call.

    Each row gets its own BLAS matrix-vector product, so a stacked row is bit
    for bit what the product of that row alone gives; a gemm would round
    differently and move the noise-level residuals the checks report.
    """
    return np.matmul(matrix, rows[..., None])[..., 0]


def _rowpair(effects: np.ndarray, states: np.ndarray) -> np.ndarray:
    """effect . state for every row pair of two stacks, in one matmul call.

    Each pair gets its own BLAS dot, so a stacked value is bit for bit what
    pair gives on that row alone, provided the rows are contiguous: a dot
    over strided rows (an encoding's .real view) rounds differently.
    """
    return np.matmul(effects[..., None, :], states[..., :, None])[..., 0, 0]


def _encode(mat: np.ndarray, dim: int) -> np.ndarray:
    """Coefficients of a Hermitian matrix in the orthonormal basis.

    Leading axes of `mat` are a stack, encoded row by row (see _rowwise).
    """
    vecs = mat.swapaxes(-1, -2).reshape(mat.shape[:-2] + (dim * dim,))
    coeffs = _rowwise(_flat_basis(dim), vecs)
    if np.abs(coeffs.imag).max() > EPS_PSD:
        raise ValidationError("matrix is not Hermitian within tolerance")
    return coeffs.real


def _decode(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """Hermitian matrix with the given basis coefficients.

    Leading axes of `coeffs` are a stack, decoded row by row (see _rowwise).
    """
    flat = (coeffs[..., None, :] @ _flat_basis(dim))[..., 0, :]
    return flat.reshape(coeffs.shape[:-1] + (dim, dim))


@functools.lru_cache(maxsize=None)
def _product_basis_change(dim_a: int, dim_b: int) -> np.ndarray:
    """Orthogonal map from product-basis coefficients to canonical ones.

    The product basis {A_i (x) B_j} and the canonical basis of dimension
    dim_a*dim_b are both orthonormal and Hermitian, so the change of basis is
    the real orthogonal matrix Tr(C_k P_l) = Re(C @ conj(P).T): row k of the
    flat canonical basis C is the row-major vec(C_k) (see hermitian_basis),
    row (i, j) of P is vec(A_i (x) B_j), and P_l is Hermitian.
    """
    a, b = hermitian_basis(dim_a), hermitian_basis(dim_b)
    dim = dim_a * dim_b
    prod = a[:, None, :, None, :, None] * b[None, :, None, :, None, :]
    return _readonly(_re_gram(_flat_basis(dim), prod.reshape(dim * dim, dim * dim)))


@dataclass(frozen=True, eq=False)
class StateVector:
    """A normalized state: real coefficient vector over the system's basis."""

    system: SystemType
    coeffs: np.ndarray
    check: InitVar[bool] = True

    def __post_init__(self, check: bool) -> None:
        arr = _readonly(np.array(self.coeffs, dtype=float))
        object.__setattr__(self, "coeffs", arr)
        if arr.shape != (self.system.vector_space_dim,):
            raise SystemMismatchError(
                f"state vector of length {arr.shape} does not fit system "
                f"(expected {self.system.vector_space_dim})"
            )
        _require_finite(arr, "state vector")
        if check:
            self._validate()

    def _validate(self) -> None:
        _check_states(self.system, self.coeffs[None])


def _check_states(system: SystemType, coeffs: np.ndarray) -> None:
    """Raise ValidationError unless every row of the stack is a normalized state.

    Quantum rows are decoded by one real gemm over the interleaved float view
    of the basis and checked by one batched eigvalsh; only their spectrum is
    used, so the decode need not round like _decode.  The error reports the
    worst row.
    """
    # Python reductions: on StateVector's one-row stacks numpy's cost more
    norms = (coeffs @ unit_effect(system).coeffs).tolist()
    norm = max(norms, key=lambda x: abs(x - 1.0))
    if abs(norm - 1.0) > EPS_EQ:
        raise ValidationError(f"state is not normalized: unit pairing {norm!r}")
    if system.theory == QUANTUM:
        d = system.dim
        mats = (coeffs @ _flat_basis(d).view(float)).view(complex).reshape(-1, d, d)
        low = min(np.linalg.eigvalsh(mats)[:, 0].tolist())
    else:
        low = float(coeffs.min())
    if low < -EPS_PSD:
        raise ValidationError(f"state is not positive: lowest eigenvalue {low!r}")


@dataclass(frozen=True, eq=False)
class Effect:
    """An effect: real covector whose pairing with any state lies in [0, 1]."""

    system: SystemType
    coeffs: np.ndarray
    check: InitVar[bool] = True

    def __post_init__(self, check: bool) -> None:
        arr = _readonly(np.array(self.coeffs, dtype=float))
        object.__setattr__(self, "coeffs", arr)
        if arr.shape != (self.system.vector_space_dim,):
            raise SystemMismatchError(
                f"effect vector of length {arr.shape} does not fit system "
                f"(expected {self.system.vector_space_dim})"
            )
        _require_finite(arr, "effect vector")
        if check:
            self._validate()

    def _validate(self) -> None:
        _check_effects(self.system, self.coeffs[None])


def _check_effects(system: SystemType, coeffs: np.ndarray) -> None:
    """Raise ValidationError unless every row of the stack is an effect.

    Pairing bounds are extremized on pure states, so the spectrum of the
    decoded operator is the exact check: one batched eigvalsh over the stack.
    The error reports the lowest and highest values over all rows.
    """
    if system.theory == QUANTUM:
        eigs = np.linalg.eigvalsh(_decode(coeffs, system.dim))
        low, high = float(eigs[:, 0].min()), float(eigs[:, -1].max())
    else:
        low, high = float(coeffs.min()), float(coeffs.max())
    if low < -EPS_PSD or high > 1.0 + EPS_PSD:
        raise ValidationError(f"effect pairing range [{low!r}, {high!r}] leaves [0, 1]")


@dataclass(frozen=True, eq=False)
class Transformation:
    """A channel: real matrix acting on coefficient vectors."""

    in_system: SystemType
    out_system: SystemType
    matrix: np.ndarray
    reversible: bool = False

    def __post_init__(self) -> None:
        if self.in_system.theory != self.out_system.theory:
            raise SystemMismatchError("transformation cannot change theory backend")
        arr = _readonly(np.array(self.matrix, dtype=float))
        object.__setattr__(self, "matrix", arr)
        shape = (self.out_system.vector_space_dim, self.in_system.vector_space_dim)
        if arr.shape != shape:
            raise SystemMismatchError(
                f"transformation matrix shape {arr.shape} does not fit systems "
                f"(expected {shape})"
            )
        _require_finite(arr, "transformation matrix")
        # Unit-effect preservation holds for every transformation we admit.
        pulled = unit_effect(self.out_system).coeffs @ arr
        dev = float(np.max(np.abs(pulled - unit_effect(self.in_system).coeffs)))
        if dev > EPS_EQ:
            raise ValidationError(
                f"transformation does not preserve the unit effect (deviation {dev!r})"
            )

    def inverse(self) -> "Transformation":
        if not self.reversible:
            raise InfeasibleError("transformation is not marked reversible")
        inv = np.linalg.inv(self.matrix)
        return Transformation(self.out_system, self.in_system, inv, reversible=True)


@dataclass(frozen=True, eq=False)
class Measurement:
    """A finite collection of effects summing to the unit effect."""

    system: SystemType
    effects: tuple[Effect, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "effects", tuple(self.effects))
        if not self.effects:
            raise ValidationError("measurement needs at least one effect")
        for e in self.effects:
            if e.system != self.system:
                raise SystemMismatchError("measurement mixes effects from different systems")
        total = np.sum([e.coeffs for e in self.effects], axis=0)
        dev = float(np.max(np.abs(total - unit_effect(self.system).coeffs)))
        if dev > EPS_EQ:
            raise ValidationError(f"effects do not sum to the unit effect (deviation {dev!r})")


# ---------------------------------------------------------------------------
# pairing and circuit composition


def pair(effect: Effect, state: StateVector) -> float:
    """Probability of an effect on a state (a closed circuit)."""
    if effect.system != state.system:
        raise SystemMismatchError(
            f"effect on {effect.system} cannot pair with state on {state.system}"
        )
    return float(effect.coeffs @ state.coeffs)


def apply(transformation: Transformation, state: StateVector) -> StateVector:
    """Run a state through a channel."""
    if transformation.in_system != state.system:
        raise SystemMismatchError(
            f"transformation expects {transformation.in_system}, got {state.system}"
        )
    return StateVector(transformation.out_system, transformation.matrix @ state.coeffs)


def transform_effect(transformation: Transformation, effect: Effect) -> Effect:
    """Pull an effect back through a channel: the covector (e|T."""
    if transformation.out_system != effect.system:
        raise SystemMismatchError(
            f"effect on {effect.system} cannot follow a transformation into "
            f"{transformation.out_system}"
        )
    return Effect(transformation.in_system, transformation.matrix.T @ effect.coeffs)


def compose_seq(second: Transformation, first: Transformation) -> Transformation:
    """Sequential composition: run `first`, then `second`."""
    if first.out_system != second.in_system:
        raise SystemMismatchError(
            f"cannot compose: first outputs {first.out_system}, "
            f"second expects {second.in_system}"
        )
    return Transformation(
        first.in_system,
        second.out_system,
        second.matrix @ first.matrix,
        reversible=first.reversible and second.reversible,
    )


def identity_transformation(system: SystemType) -> Transformation:
    return Transformation(
        system, system, np.eye(system.vector_space_dim), reversible=True
    )


# ---------------------------------------------------------------------------
# tensor structure


def _tensor_coeffs(
    system_a: SystemType, system_b: SystemType, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Coefficients of a (x) b on the composite.

    The leading axes of `a` and `b` broadcast as a stack: one row-wise
    Kronecker product, then one product-basis matmul (see _rowwise).
    """
    prod = a[..., :, None] * b[..., None, :]
    prod = prod.reshape(*prod.shape[:-2], -1)
    if system_a.theory == QUANTUM:
        prod = _rowwise(_product_basis_change(system_a.dim, system_b.dim), prod)
    return prod


def tensor_states(a: StateVector, b: StateVector) -> StateVector:
    system = composite_system(a.system, b.system)
    return StateVector(system, _tensor_coeffs(a.system, b.system, a.coeffs, b.coeffs))


def tensor_effects(a: Effect, b: Effect) -> Effect:
    system = composite_system(a.system, b.system)
    return Effect(system, _tensor_coeffs(a.system, b.system, a.coeffs, b.coeffs))


def tensor_transformations(a: Transformation, b: Transformation) -> Transformation:
    in_system = composite_system(a.in_system, b.in_system)
    out_system = composite_system(a.out_system, b.out_system)
    prod = np.kron(a.matrix, b.matrix)
    if in_system.theory == QUANTUM:
        r_in = _product_basis_change(a.in_system.dim, b.in_system.dim)
        r_out = _product_basis_change(a.out_system.dim, b.out_system.dim)
        prod = r_out @ prod @ r_in.T
    return Transformation(
        in_system, out_system, prod, reversible=a.reversible and b.reversible
    )


def _kept_system(system: SystemType, keep: tuple[int, ...]) -> SystemType:
    dims = [system.factors[i] for i in keep]
    if len(dims) == 1:
        return SystemType(system.theory, dims[0])
    return SystemType(system.theory, int(np.prod(dims)), tuple(dims))


def _normalize_keep(system: SystemType, keep: int | Sequence[int]) -> tuple[int, ...]:
    kept = (keep,) if isinstance(keep, (int, np.integer)) else tuple(keep)
    if not kept:
        raise ValidationError("must keep at least one factor")
    if len(set(kept)) != len(kept):
        raise ValidationError(f"duplicate factors in keep selector {kept}")
    for i in kept:
        if not 0 <= i < len(system.factors):
            raise SystemMismatchError(
                f"factor index {i} out of range for composite {system.factors}"
            )
    return tuple(sorted(int(i) for i in kept))


def marginalize(state: StateVector, keep: int | Sequence[int]) -> StateVector:
    """Discard all factors of a composite state except the selected ones."""
    system = state.system
    kept = _normalize_keep(system, keep)
    if len(kept) == len(system.factors):
        return state
    out_system = _kept_system(system, kept)
    n = len(system.factors)
    if system.theory == QUANTUM:
        rho = _decode(state.coeffs, system.dim).reshape(system.factors * 2)
        # einsum with repeated labels traces out the discarded factors
        labels = list(range(n)) + [i if i not in kept else i + n for i in range(n)]
        out = np.einsum(rho, labels, [i for i in kept] + [i + n for i in kept])
        out = out.reshape(out_system.dim, out_system.dim)
        return StateVector(out_system, _encode(out, out_system.dim))
    p = state.coeffs.reshape(system.factors)
    drop = tuple(i for i in range(n) if i not in kept)
    return StateVector(out_system, p.sum(axis=drop).reshape(-1))


def partial_pair(state: StateVector, effect: Effect, factor: int) -> StateVector:
    """Pair an effect with one factor of a composite state.

    Returns the conditional state on the remaining factors.  Its unit pairing
    equals the probability of the effect, so the result is subnormalized and
    skips the normalization check.
    """
    system = state.system
    if not system.is_composite:
        raise SystemMismatchError("partial pairing needs a composite state")
    if not 0 <= factor < len(system.factors):
        raise SystemMismatchError(
            f"factor index {factor} out of range for composite {system.factors}"
        )
    if effect.system.theory != system.theory or effect.system.dim != system.factors[factor]:
        raise SystemMismatchError(
            f"effect on {effect.system} cannot pair with factor {factor} "
            f"of composite {system.factors}"
        )
    kept = tuple(i for i in range(len(system.factors)) if i != factor)
    out_system = _kept_system(system, kept)
    if system.theory == QUANTUM:
        out = _pair_factor(system, state.coeffs, effect.coeffs[None], factor)[0]
        return StateVector(out_system, out, check=False)
    p = state.coeffs.reshape(system.factors)
    e = effect.coeffs
    out = np.tensordot(e, p, axes=([0], [factor]))
    return StateVector(out_system, out.reshape(-1), check=False)


def _pair_factor(
    system: SystemType, coeffs: np.ndarray, effects: np.ndarray, factor: int
) -> np.ndarray:
    """Quantum partial pairing of one factor, for every effect and state.

    `coeffs` is a stack of composite states (any leading axes) and `effects`
    a 2-D stack of effect rows on the factor; returns the remaining factors'
    coefficients, indexed (effect, *stack).  The states are decoded once.
    """
    n = len(system.factors)
    stack = coeffs.shape[:-1]
    kept = [i for i in range(n) if i != factor]
    dim = int(np.prod([system.factors[i] for i in kept]))
    rho = _decode(coeffs, system.dim).reshape(*stack, *system.factors * 2)
    e_mats = _decode(effects, system.factors[factor])
    # out_{r,s} = sum_{a,b} E_{ab} rho_{(..b..r..),(..a..s..)}
    rho_labels = list(range(2 * n))
    rho_labels[factor] = 2 * n + 1         # row index of the paired factor
    rho_labels[n + factor] = 2 * n         # column index of the paired factor
    out = np.einsum(
        e_mats, [2 * n + 2, 2 * n, 2 * n + 1],
        rho, [Ellipsis, *rho_labels],
        [2 * n + 2, Ellipsis, *kept, *(n + i for i in kept)],
    )
    return _encode(out.reshape(len(effects), *stack, dim, dim), dim)


# ---------------------------------------------------------------------------
# distinguished states, effects, and measurements


# Effects are frozen with read-only coefficients, so one cached instance per
# system serves every caller.
@functools.lru_cache(maxsize=None)
def unit_effect(system: SystemType) -> Effect:
    if system.theory == QUANTUM:
        coeffs = np.zeros(system.vector_space_dim)
        coeffs[0] = np.sqrt(system.dim)
    else:
        coeffs = np.ones(system.dim)
    return Effect(system, coeffs, check=False)


def maximally_mixed(system: SystemType) -> StateVector:
    """The unique state invariant under every reversible transformation."""
    if system.theory == QUANTUM:
        coeffs = np.zeros(system.vector_space_dim)
        coeffs[0] = 1.0 / np.sqrt(system.dim)
        return StateVector(system, coeffs, check=False)
    return StateVector(system, np.full(system.dim, 1.0 / system.dim), check=False)


def dynamically_faithful_state(system: SystemType) -> StateVector:
    """A bipartite state on (system, system) that separates transformations.

    Quantum backend: the normalized maximally entangled state, whose
    one-sided image T (x) id determines T uniquely.
    """
    if system.theory != QUANTUM:
        raise InfeasibleError(
            "classical composites carry no dynamically faithful state in this sense"
        )
    d = system.dim
    ket = np.eye(d).reshape(-1) / np.sqrt(d)
    rho = np.outer(ket, ket.conj())
    comp = composite_system(system, system)
    return StateVector(comp, _encode(rho, comp.dim))


def density_matrix(state: StateVector) -> np.ndarray:
    """Decode a quantum state back to its density operator."""
    if state.system.theory != QUANTUM:
        raise SystemMismatchError("only quantum states decode to density matrices")
    return _decode(state.coeffs, state.system.dim)


def effect_matrix(effect: Effect) -> np.ndarray:
    if effect.system.theory != QUANTUM:
        raise SystemMismatchError("only quantum effects decode to operators")
    return _decode(effect.coeffs, effect.system.dim)


def state_from_density(system: SystemType, rho: np.ndarray) -> StateVector:
    if system.theory != QUANTUM:
        raise SystemMismatchError("density matrices describe quantum states only")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (system.dim, system.dim):
        raise SystemMismatchError(
            f"density matrix shape {rho.shape} does not fit dimension {system.dim}"
        )
    return StateVector(system, _encode(rho, system.dim))


def effect_from_matrix(system: SystemType, mat: np.ndarray) -> Effect:
    if system.theory != QUANTUM:
        raise SystemMismatchError("operator effects describe quantum systems only")
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (system.dim, system.dim):
        raise SystemMismatchError(
            f"effect matrix shape {mat.shape} does not fit dimension {system.dim}"
        )
    return Effect(system, _encode(mat, system.dim))


def _ket_projector(system: SystemType, amplitudes: Sequence[complex]) -> np.ndarray:
    """Coefficients of |psi><psi| for a normalized amplitude vector psi."""
    if system.theory != QUANTUM:
        raise SystemMismatchError("amplitude vectors describe quantum systems only")
    psi = np.asarray(amplitudes, dtype=complex)
    if psi.shape != (system.dim,):
        raise SystemMismatchError(
            f"amplitude vector of shape {psi.shape} does not fit dimension {system.dim}"
        )
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > EPS_EQ:
        raise ValidationError(f"amplitudes are not normalized: |psi| = {norm!r}")
    return _encode(np.outer(psi, psi.conj()), system.dim)


def ket_state(system: SystemType, amplitudes: Sequence[complex]) -> StateVector:
    """Pure quantum state from a normalized amplitude vector."""
    return StateVector(system, _ket_projector(system, amplitudes))


def projector_effect(system: SystemType, amplitudes: Sequence[complex]) -> Effect:
    """Rank-1 projector effect from a normalized amplitude vector."""
    return Effect(system, _ket_projector(system, amplitudes))


def basis_state(system: SystemType, index: int) -> StateVector:
    """Computational basis state (quantum) or point mass (classical)."""
    if not 0 <= index < system.dim:
        raise SystemMismatchError(f"basis index {index} out of range for dim {system.dim}")
    if system.theory == QUANTUM:
        psi = np.zeros(system.dim)
        psi[index] = 1.0
        return ket_state(system, psi)
    p = np.zeros(system.dim)
    p[index] = 1.0
    return StateVector(system, p)


def basis_effect(system: SystemType, index: int) -> Effect:
    """Projector onto a computational basis state, or a classical indicator."""
    if not 0 <= index < system.dim:
        raise SystemMismatchError(f"basis index {index} out of range for dim {system.dim}")
    if system.theory == QUANTUM:
        psi = np.zeros(system.dim)
        psi[index] = 1.0
        return projector_effect(system, psi)
    e = np.zeros(system.dim)
    e[index] = 1.0
    return Effect(system, e)


def distinguishing_measurement(states: Sequence[StateVector]) -> Measurement:
    """Measurement whose j-th effect fires with certainty exactly on state j.

    Input states must be pure and perfectly distinguishable; the effect list is
    padded with the complement effect when they do not already resolve the
    unit effect.
    """
    states = list(states)
    if not states:
        raise ValidationError("need at least one state to distinguish")
    system = states[0].system
    for s in states[1:]:
        if s.system != system:
            raise SystemMismatchError("states to distinguish live on different systems")
    if system.theory == QUANTUM:
        kets = []
        for i, s in enumerate(states):
            vals, vecs = np.linalg.eigh(density_matrix(s))
            if vals[-1] < 1.0 - EPS_PSD:
                raise InfeasibleError(f"state {i} is not pure (top eigenvalue {vals[-1]!r})")
            kets.append(vecs[:, -1])
        for i, j in itertools.combinations(range(len(states)), 2):
            overlap = abs(np.vdot(kets[i], kets[j])) ** 2
            if overlap > EPS_EQ:
                raise InfeasibleError(
                    f"states {i} and {j} are not distinguishable (overlap {overlap!r})"
                )
        effects = [projector_effect(system, k) for k in kets]
    else:
        points = []
        for i, s in enumerate(states):
            top = int(np.argmax(s.coeffs))
            if s.coeffs[top] < 1.0 - EPS_PSD:
                raise InfeasibleError(f"state {i} is not a point mass")
            points.append(top)
        for i, j in itertools.combinations(range(len(states)), 2):
            if points[i] == points[j]:
                raise InfeasibleError(
                    f"states {i} and {j} are not distinguishable (same point mass)"
                )
        effects = [basis_effect(system, p) for p in points]
    total = np.sum([e.coeffs for e in effects], axis=0)
    complement = unit_effect(system).coeffs - total
    if float(np.max(np.abs(complement))) > EPS_EQ:
        effects.append(Effect(system, complement))
    return Measurement(system, tuple(effects))


# ---------------------------------------------------------------------------
# transformation constructors


def _as_unitary(mat: np.ndarray, dim: int, label: str) -> np.ndarray:
    """The matrix as a complex d x d array, checked to be unitary."""
    u = np.asarray(mat, dtype=complex)
    if u.shape != (dim, dim):
        raise SystemMismatchError(f"{label} has shape {u.shape}, expected {(dim, dim)}")
    _require_finite(u, label)
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(dim))))
    if dev > EPS_EQ:
        raise ValidationError(f"{label} is not unitary (deviation {dev!r})")
    return u


def unitary_channel(system: SystemType, unitary: np.ndarray) -> Transformation:
    """Conjugation channel of a unitary; the quantum reversible constructor.

    M[j, k] = Tr(B_j U B_k U^dag) = Re(B @ conj(X).T), X the flat stack of the
    Hermitian U B_k U^dag.
    """
    if system.theory != QUANTUM:
        raise SystemMismatchError("unitary channels describe quantum systems only")
    u = _as_unitary(unitary, system.dim, "matrix")
    return Transformation(system, system, _unitary_matrices(u), reversible=True)


def _unitary_matrices(u: np.ndarray) -> np.ndarray:
    """unitary_channel's matrix for each unitary; leading axes of `u` are a stack.

    Each unitary gets its own products, so a stacked matrix is bit for bit
    what unitary_channel gives on that unitary alone.
    """
    d = u.shape[-1]
    u = u[..., None, :, :]
    moved = u @ hermitian_basis(d) @ u.conj().swapaxes(-1, -2)
    return _re_gram(_flat_basis(d), moved.reshape(moved.shape[:-3] + (d * d, d * d)))


def phase_unitary(system: SystemType, angles: Sequence[float]) -> Transformation:
    """Conjugation by a diagonal phase in the computational basis."""
    theta = np.asarray(angles, dtype=float)
    if theta.shape != (system.dim,):
        raise SystemMismatchError(
            f"need {system.dim} angles for dimension {system.dim}, got {theta.shape}"
        )
    _require_finite(theta, "phase angles")
    return unitary_channel(system, np.diag(np.exp(1j * theta)))


def permutation_transformation(system: SystemType, perm: Sequence[int]) -> Transformation:
    """Relabeling of classical outcomes; the classical reversible constructor."""
    if system.theory != CLASSICAL:
        raise SystemMismatchError("permutation transformations are classical")
    perm = list(perm)
    if sorted(perm) != list(range(system.dim)):
        raise ValidationError(f"{perm} is not a permutation of range({system.dim})")
    matrix = np.zeros((system.dim, system.dim))
    for src, dst in enumerate(perm):
        matrix[dst, src] = 1.0
    return Transformation(system, system, matrix, reversible=True)


def channel_from_matrix(
    in_system: SystemType,
    out_system: SystemType,
    matrix: np.ndarray,
    reversible: bool = False,
) -> Transformation:
    """Validated generic channel: CPTP for quantum, stochastic for classical."""
    t = Transformation(in_system, out_system, matrix, reversible=reversible)
    if in_system.theory == QUANTUM:
        low = float(np.linalg.eigvalsh(_choi_matrix(t))[0])
        if low < -EPS_PSD:
            raise ValidationError(
                f"map is not completely positive (operator eigenvalue {low!r})"
            )
    else:
        low = float(t.matrix.min())
        if low < -EPS_PSD:
            raise ValidationError(f"stochastic matrix has negative entry {low!r}")
    if reversible:
        inv = np.linalg.inv(t.matrix)
        channel_from_matrix(out_system, in_system, inv, reversible=False)
    return t


def _choi_matrix(t: Transformation) -> np.ndarray:
    """Block operator whose positivity certifies complete positivity."""
    din, dout = t.in_system.dim, t.out_system.dim
    # row k of T^T @ B_out is vec T(B_k); summing B_k[b, a] T(B_k) over k gives
    # T(E_ab), so w[(b, a), (m, n)] = T(E_ab)[m, n]
    w = _flat_basis(din).T @ (t.matrix.T @ _flat_basis(dout))
    w = w.reshape(din, din, dout, dout).transpose(2, 1, 3, 0)
    return w.reshape(dout * din, dout * din)


# ---------------------------------------------------------------------------
# seeded randomness


def _haar(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from complex Gaussian matrices, via QR with the phase fixed.

    Leading axes of `z` are a stack; each matrix gets its own QR, so a stacked
    draw is bit for bit what one matrix at a time gives (Mezzadri, *How to
    generate random matrices from the classical compact groups*).
    """
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def haar_unitary(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the phase convention fixed."""
    rng = _rng(seed)
    return _haar(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))


def random_unitary(system: SystemType, seed: int | np.random.Generator) -> Transformation:
    if system.theory != QUANTUM:
        raise SystemMismatchError("random unitaries describe quantum systems only")
    return unitary_channel(system, haar_unitary(system.dim, seed))


def random_reversible(system: SystemType, seed: int | np.random.Generator) -> Transformation:
    """Seeded reversible transformation for either backend."""
    if system.theory == QUANTUM:
        return random_unitary(system, seed)
    rng = _rng(seed)
    return permutation_transformation(system, rng.permutation(system.dim))


def _random_density(dim: int, rng: np.random.Generator, kind: str) -> np.ndarray:
    """Density matrix of one Haar-pure or Hilbert-Schmidt-mixed draw."""
    if kind == "pure":
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi = psi / np.linalg.norm(psi)
        return np.outer(psi, psi.conj())
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_state(
    system: SystemType, seed: int | np.random.Generator, kind: str = "pure"
) -> StateVector:
    """Seeded random state: Haar pure or Hilbert-Schmidt mixed (quantum);
    point mass or flat-Dirichlet vector (classical)."""
    rng = _rng(seed)
    if kind not in ("pure", "mixed"):
        raise ValidationError(f"unknown state kind {kind!r}")
    if system.theory == QUANTUM:
        rho = _random_density(system.dim, rng, kind)
        return StateVector(system, _encode(rho, system.dim), check=False)
    if kind == "pure":
        return basis_state(system, int(rng.integers(system.dim)))
    return StateVector(system, rng.dirichlet(np.ones(system.dim)), check=False)


def random_effect(system: SystemType, seed: int | np.random.Generator) -> Effect:
    """Seeded random effect with spectrum drawn uniformly from [0, 1]."""
    rng = _rng(seed)
    if system.theory == QUANTUM:
        v = haar_unitary(system.dim, rng)
        vals = rng.uniform(0.0, 1.0, system.dim)
        return Effect(system, _encode((v * vals) @ v.conj().T, system.dim), check=False)
    return Effect(system, rng.uniform(0.0, 1.0, system.dim))


# ---------------------------------------------------------------------------
# operator transport and comparisons


def transform_operator(t: Transformation, mat: np.ndarray) -> np.ndarray:
    """Action of a quantum channel on an arbitrary Hermitian operator."""
    if t.in_system.theory != QUANTUM:
        raise SystemMismatchError("operator transport is quantum only")
    return _decode(t.matrix @ _encode(np.asarray(mat, dtype=complex), t.in_system.dim),
                   t.out_system.dim)


def states_close(a: StateVector, b: StateVector, tol: float = EPS_EQ) -> bool:
    return a.system == b.system and float(np.max(np.abs(a.coeffs - b.coeffs))) <= tol


def effects_close(a: Effect, b: Effect, tol: float = EPS_EQ) -> bool:
    return a.system == b.system and float(np.max(np.abs(a.coeffs - b.coeffs))) <= tol


def transformations_close(a: Transformation, b: Transformation, tol: float = EPS_EQ) -> bool:
    """Channel-level equality; the encoding already quotients global phase."""
    return (
        a.in_system == b.in_system
        and a.out_system == b.out_system
        and float(np.max(np.abs(a.matrix - b.matrix))) <= tol
    )
