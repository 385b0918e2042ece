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

The basis is never held as a dense array on the working paths.  Each
coefficient sits on one off-diagonal pair or on the diagonal, so encoding,
decoding, unitary channels and tensor products are gathers over a per-dimension
index layout (_Layout) plus small Helmert products: O(d**2) per state and
O(d**4) per channel.  All three tensor products (of states, of effects and of
transformations) go through the one kernel _tensor_coeffs; no basis change
between the product basis and the composite basis is stored.  Both partial
contractions, marginals and partial pairings, go through the one kernel
_pair_factor on both backends: a marginal pairs the unit effect.

Memory rule: at most one live copy of each channel matrix, and kernel
temporaries bounded by one block budget.  Transformation copies the array it
is given; the package's constructors hand the fresh matrix they built to
_channel, which keeps it without a copy.  The stacked kernels
(_check_states, _check_effects, _tensor_coeffs, _unitary_matrices,
_require_finite and interference._phase_moved) work one block of rows at a
time, so that no temporary they make holds more than _BLOCK_ENTRIES float64
entries (a complex entry counts two) unless one row of the stack alone is
larger.  Each block is row-exact, so the block size changes no bit of any
result or message.

All values are immutable after construction and all operations are pure
functions, so they are safe to share across threads.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

# Tolerance policy: every threshold in the package is one of three absolute
# values, whatever the dimension.  EPS_EQ bounds quantities equal in exact
# arithmetic (norms, pairings, unitarity, support, verification residuals);
# EPS_PSD bounds values read from a decomposition or an encoding (spectra,
# singular values, eigenphase gaps, an encoding's imaginary part);
# EPS_DECISION bounds a probability or magnitude read as yes or no.  Inputs
# are finite (_require_finite), and a NaN deviation fails its check.
EPS_EQ = 1e-9
EPS_PSD = 1e-8
EPS_DECISION = 1e-6

# Positivity rule: a stack of density matrices is certified positive by
# batched Cholesky factorizations of rho + EPS_PSD * I, which exist when every
# eigenvalue of rho exceeds -EPS_PSD (up to rounding, about D * 1e-16 for a
# D x D matrix).  Only when one fails do batched eigvalsh calls find the lowest
# eigenvalue, which then decides and is reported, so every rejection and its
# message are the spectrum test's.

# Validation policy: data is checked once, where it enters.  StateVector and
# Effect copy and check every array they are given; ket_state and
# projector_effect check |psi^dag psi - 1| <= EPS_EQ, the normalization of
# the projector they build; state_from_density, effect_from_matrix,
# channel_from_matrix, _as_unitary, PathExperiment and
# ControlledTransformation check their inputs.  A value the package derives
# from validated ones by a step that keeps validity (a seeded draw, a partial
# trace, a projector sandwich, a phase built from path kets) is built by
# _derived without a check, or stays bare coefficients.  _channel keeps
# Transformation's checks, cheap beside building the matrix, as a product of
# channels can drift off the unit effect.  apply, transform_effect and the
# tensor products keep theirs: a raw transformation need not preserve
# positivity.  The verify functions check what the map under test produced;
# they do not re-check the outputs of the package's own validated branch
# channels or of the kicked transform.  Every SystemMismatchError comes from
# one of four helpers below, each with one message form: _require_same
# ("{what} is {found}, expected {want}"), _require_theory ("{what} needs a
# {theory} system, got {system}"), _require_shape ("{what} has shape
# {found}, expected {want}") and _require_index ("{what} {index} is out of
# range({count})", also for a non-integer index).  Every check that rejects
# a residual past a tolerance calls a fifth, _require_within ("{what}
# ({residual} > {constant name} = {value})"); predicates and rank cuts
# compare inline, as they decide structure, not pass or fail.  An integer is
# an int or np.integer, never a bool, and every count and seed a caller
# passes meets a sixth, _require_count ("{what} must be an integer, got
# {value!r}" or "{what} must be >= {least}, got {value!r}").

QUANTUM = "quantum"
CLASSICAL = "classical"


class SystemMismatchError(ValueError):
    """Objects from incompatible systems were combined."""


class ValidationError(ValueError):
    """A construction-time invariant failed."""


class InfeasibleError(ValueError):
    """The requested object does not exist for the given input."""


# The block budget of the memory rule above: 2**16 float64 entries, 512 KiB
_BLOCK_ENTRIES = 1 << 16


def _blocks(rows: int, row_entries: int) -> list[slice]:
    """Consecutive slices of `rows` rows, each holding at most _BLOCK_ENTRIES
    entries at `row_entries` per row, and at least one row; none when rows is 0."""
    # most stacks fit in one block, and the small-stack checks run this per call
    if rows * row_entries <= _BLOCK_ENTRIES:
        return [slice(0, rows)] if rows else []
    step = max(1, _BLOCK_ENTRIES // max(1, row_entries))
    return [slice(start, start + step) for start in range(0, rows, step)]


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _require_finite(a: np.ndarray | float, what: str) -> None:
    # an array larger than one block is checked a block of leading-axis rows at
    # a time, so the bool array never outgrows the budget
    a = np.asarray(a)
    blocks = (...,) if a.size <= _BLOCK_ENTRIES else _blocks(len(a), a[0].size)
    for b in blocks:
        if not np.isfinite(a[b]).all():
            raise ValidationError(f"{what} holds NaN or infinity")


def _require_same(found: object, want: object, what: str) -> None:
    if found != want:
        raise SystemMismatchError(f"{what} is {found}, expected {want}")


def _require_theory(system: SystemType, theory: str, what: str) -> None:
    if system.theory != theory:
        raise SystemMismatchError(f"{what} needs a {theory} system, got {system}")


def _require_shape(shape: tuple[int, ...], want: tuple[int, ...], what: str) -> None:
    if shape != want:
        raise SystemMismatchError(f"{what} has shape {shape}, expected {want}")


def _is_integer(value: object) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_index(index: int, count: int, what: str) -> None:
    if not (_is_integer(index) and 0 <= index < count):
        raise SystemMismatchError(f"{what} {index} is out of range({count})")


def _require_count(value: int, least: int, what: str) -> None:
    if not _is_integer(value):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{what} must be >= {least}, got {value!r}")


_BOUND_NAMES = {EPS_EQ: "EPS_EQ", EPS_PSD: "EPS_PSD", EPS_DECISION: "EPS_DECISION"}


def _require_within(residual: float, bound: float, what: str, *fields: object,
                    error: type[ValueError] = ValidationError) -> None:
    """Raise `error` unless residual <= bound, one of the three constants, so a
    NaN residual fails.  `what` names the check and its residual; its {} slots
    take `fields` on failure only, so a passing check formats no string."""
    if not residual <= bound:
        raise error(
            f"{what.format(*fields)} ({float(residual)!r} > {_BOUND_NAMES[bound]} = {bound!r})")


@dataclass(frozen=True)
class SystemType:
    """A finite-dimensional system: theory tag, dimension, declared tensor factors."""

    theory: str
    dim: int
    factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.theory not in (QUANTUM, CLASSICAL):
            raise ValidationError(f"unknown theory backend {self.theory!r}")
        for what, value in [("system dimension", self.dim)] + [("factor", f) for f in self.factors]:
            _require_count(value, 1, what)
        object.__setattr__(self, "dim", int(self.dim))
        factors = self.factors or (self.dim,)
        if math.prod(factors) != self.dim:
            raise ValidationError(
                f"composite descriptor {factors} does not split dim {self.dim} into factors >= 1"
            )
        object.__setattr__(self, "factors", tuple(int(f) for f in factors))

    def __str__(self) -> str:
        return f"{self.theory}({' x '.join(map(str, self.factors))})"

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
    _require_theory(b, a.theory, "second factor")
    return SystemType(a.theory, a.dim * b.dim, a.factors + b.factors)


@dataclass(frozen=True, eq=False)
class _Layout:
    """Where each coefficient of hermitian_basis(dim) lives in a d x d matrix.

    Pair p is (lo[p], hi[p]) with lo < hi, hi the outer loop: basis element
    1 + p is symmetric on the pair, 1 + P + p antisymmetric (P pairs).  Row r
    of the Helmert matrix `helmert` is the diagonal of basis element
    diag_slots[r]; row 0, 1/sqrt(d) everywhere, is the identity's.  For a
    Hermitian X the coefficients are sqrt(2) Re X[lo, hi], -sqrt(2) Im X[lo, hi]
    and helmert @ diag(X).

    The remaining fields are flat gather indices and weights: _encode forms
    every coefficient as a sum of two weighted entries of one float source
    (enc_index row 0 and row 1), and _decode scales one gather of the
    coefficients into the float view of vec(X), then writes the diagonal.
    """

    lo: np.ndarray
    hi: np.ndarray
    helmert: np.ndarray
    helmert_t: np.ndarray
    diag_slots: np.ndarray
    enc_index: np.ndarray
    enc_weight: np.ndarray
    dec_index: np.ndarray
    dec_weight: np.ndarray


@functools.lru_cache(maxsize=None)
def _layout(dim: int) -> _Layout:
    n = dim * dim
    hi, lo = np.tril_indices(dim, -1)
    p = len(lo)
    s = 1.0 / np.sqrt(2.0)
    helmert = np.zeros((dim, dim))
    helmert[0] = 1.0 / np.sqrt(dim)
    for r in range(1, dim):
        helmert[r, :r] = 1.0 / np.sqrt(r * (r + 1))
        helmert[r, r] = -r / np.sqrt(r * (r + 1))
    diag_slots = np.concatenate([[0], np.arange(1 + 2 * p, n)]).astype(np.intp)
    sym, anti = 1 + np.arange(p), 1 + p + np.arange(p)
    up, down, diag = lo * dim + hi, hi * dim + lo, np.arange(dim) * (dim + 1)
    # _encode's source is the float view of [vec(X), cumsum(diag X)]: complex
    # entry i has its real part at 2i and its imaginary part at 2i + 1.
    # Outputs [0, n) are Re Tr(B_k X), outputs [n, 2n) Im Tr(B_k X).
    acc = n + np.arange(dim)
    pairs = np.zeros((2 * n, 2), dtype=np.intp)
    weights = np.zeros((2 * n, 2))
    for part in (0, 1):
        rows = part * n
        pairs[rows] = 2 * acc[-1] + part
        weights[rows] = helmert[0, 0], 0.0
        pairs[rows + sym] = np.column_stack([2 * up + part, 2 * down + part])
        weights[rows + sym] = s
        if part == 0:  # (Im X[hi, lo] - Im X[lo, hi]) / sqrt 2
            pairs[rows + anti] = np.column_stack([2 * down + 1, 2 * up + 1])
        else:  # (Re X[lo, hi] - Re X[hi, lo]) / sqrt 2
            pairs[rows + anti] = np.column_stack([2 * up, 2 * down])
        weights[rows + anti] = s, -s
        # helmert row r: the sum of the first r diagonal entries, less r times entry r
        r = np.arange(1, dim)
        pairs[rows + diag_slots[1:]] = np.column_stack(
            [2 * acc[r - 1] + part, 2 * diag[r] + part])
        weights[rows + diag_slots[1:]] = np.column_stack([helmert[r, 0], helmert[r, r]])
    # _decode: Re X[lo, hi] = Re X[hi, lo] = c_sym / sqrt 2 and
    # Im X[hi, lo] = -Im X[lo, hi] = c_anti / sqrt 2; the diagonal's real parts
    # are written afterwards, and its imaginary parts are 0 * c_0
    dec_index = np.zeros(2 * n, dtype=np.intp)
    dec_weight = np.zeros(2 * n)
    dec_index[2 * up] = dec_index[2 * down] = sym
    dec_index[2 * up + 1] = dec_index[2 * down + 1] = anti
    dec_weight[2 * up] = dec_weight[2 * down] = dec_weight[2 * down + 1] = s
    dec_weight[2 * up + 1] = -s
    return _Layout(
        lo, hi, _readonly(helmert), _readonly(np.ascontiguousarray(helmert.T)), diag_slots,
        np.ascontiguousarray(pairs.T), np.ascontiguousarray(weights.T), dec_index, dec_weight,
    )


@functools.lru_cache(maxsize=None)
def hermitian_basis(dim: int) -> np.ndarray:
    """Orthonormal Hermitian basis of the d x d operators, Tr(B_i B_j) = delta_ij.

    Ordering: identity/sqrt(d), then the symmetric, antisymmetric, and diagonal
    generalized Gell-Mann matrices (Bertlmann and Krammer, *Bloch vectors for
    qudits*).  B_0 proportional to the identity is relied on throughout (unit
    effect, maximally mixed state).

    The basis is sparse: one pair of entries per off-diagonal element, plus a
    Helmert block on the diagonal.  The kernels read it through that index
    layout and never build this dense stack; it is the decode of each unit
    coefficient vector, kept for reference and for the Choi matrix.
    """
    return _readonly(_decode(np.eye(dim * dim), dim))


def _rowwise(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """matrix @ row for every row of a stack, in one matmul call.

    Each row gets its own BLAS matrix-vector product, so a stacked row is bit
    for bit what the product of that row alone gives; a gemm would round
    differently and move the noise-level residuals the checks report.
    """
    if rows.ndim == 1:
        return matrix @ rows
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

    Each coefficient is Re Tr(B_k X), a sum of two products over the flat
    matrix and the running sums of its diagonal (see _Layout); the imaginary
    parts Im Tr(B_k X) come from the same gathers and must vanish.  Every
    step is elementwise or runs along one row, so a stack of matrices
    (leading axes) is encoded row-exactly.  The result is a fresh
    C-contiguous array, not a view that keeps the wider gather alive.
    """
    lay, n = _layout(dim), dim * dim
    x = np.asarray(mat, dtype=complex)
    flat = x.reshape(x.shape[:-2] + (n,))
    running = np.add.accumulate(flat[..., :: dim + 1], axis=-1)
    src = np.concatenate([flat, running], axis=-1).view(float)
    terms = src.take(lay.enc_index, axis=-1)
    terms *= lay.enc_weight
    imag = terms[..., 0, n:] + terms[..., 1, n:]
    # the bare ufunc reduction: ndarray.max adds a Python layer per call
    _require_within(np.maximum.reduce(np.abs(imag, out=imag), axis=None), EPS_PSD,
                    "matrix is not Hermitian: max|Im Tr(B_k X)|")
    return terms[..., 0, :n] + terms[..., 1, :n]


def _decode(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """Hermitian matrix with the given basis coefficients.

    Off-diagonal entries are scaled coefficients, one gather; the diagonal is
    the Helmert product, row by row (see _rowwise).  Leading axes of
    `coeffs` are a stack.
    """
    lay, stack = _layout(dim), coeffs.shape[:-1]
    flat = coeffs.take(lay.dec_index, axis=-1)
    flat *= lay.dec_weight
    flat[..., :: 2 * (dim + 1)] = _rowwise(lay.helmert_t, coeffs.take(lay.diag_slots, axis=-1))
    return flat.view(complex).reshape(stack + (dim, dim))


@dataclass(frozen=True, eq=False)
class StateVector:
    """A normalized state: real coefficient vector over the system's basis."""

    system: SystemType
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = _readonly(np.array(self.coeffs, dtype=float))
        object.__setattr__(self, "coeffs", arr)
        _require_shape(arr.shape, (self.system.vector_space_dim,), "state vector")
        _require_finite(arr, "state vector")
        _check_states(self.system, arr[None])


def _check_states(system: SystemType, coeffs: np.ndarray) -> None:
    """Raise ValidationError unless every row of the stack is a normalized state.

    Quantum rows are decoded and certified positive by a batched Cholesky
    factorization of rho + EPS_PSD * I (see the positivity rule at the top),
    one block of rows at a time; only when a block fails does a batched
    eigvalsh, again by blocks, find the lowest eigenvalue over the whole
    stack.  The error reports the worst residual over the stack.
    """
    norms = coeffs @ unit_effect(system).coeffs
    _require_within(np.abs(norms - 1.0).max(), EPS_EQ,
                    "state is not normalized: |unit pairing - 1|")
    if system.theory == QUANTUM:
        d = system.dim
        blocks = _blocks(len(coeffs), 2 * d * d)
        for b in blocks:
            mats = _decode(coeffs[b], d)
            mats.reshape(-1, d * d)[:, :: d + 1] += EPS_PSD
            try:
                np.linalg.cholesky(mats)
            except np.linalg.LinAlgError:
                break
        else:
            return
        low = min(float(np.linalg.eigvalsh(_decode(coeffs[b], d))[:, 0].min()) for b in blocks)
    else:
        low = float(coeffs.min())
    _require_within(-low, EPS_PSD, "state is not positive: -(lowest eigenvalue)")


@dataclass(frozen=True, eq=False)
class Effect:
    """An effect: real covector whose pairing with any state lies in [0, 1]."""

    system: SystemType
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = _readonly(np.array(self.coeffs, dtype=float))
        object.__setattr__(self, "coeffs", arr)
        _require_shape(arr.shape, (self.system.vector_space_dim,), "effect vector")
        _require_finite(arr, "effect vector")
        _check_effects(self.system, arr[None])


def _check_effects(system: SystemType, coeffs: np.ndarray) -> None:
    """Raise ValidationError unless every row of the stack is an effect.

    Pairing bounds are extremized on pure states, so the spectrum of the
    decoded operator is the exact check: a batched eigvalsh, one block of rows
    at a time.  The error reports the lowest and highest values over all rows.
    """
    if system.theory == QUANTUM:
        d = system.dim
        low, high = np.inf, -np.inf
        for b in _blocks(len(coeffs), 2 * d * d):
            eigs = np.linalg.eigvalsh(_decode(coeffs[b], d))
            low, high = min(low, float(eigs[:, 0].min())), max(high, float(eigs[:, -1].max()))
    else:
        low, high = float(coeffs.min()), float(coeffs.max())
    _require_within(max(-low, high - 1.0), EPS_PSD,
                    "effect pairing range [{!r}, {!r}] leaves [0, 1]: max(-low, high - 1)",
                    low, high)


@dataclass(frozen=True, eq=False)
class Transformation:
    """A real matrix carrying input coefficients to output ones; nothing else is stored.

    The matrix must preserve the unit effect; positivity is channel_from_matrix's
    check, and reversibility is read from the matrix on first use.  The matrix
    is copied, so the caller's array can change afterwards without touching
    the transformation; the package's constructors build through _channel
    instead, which keeps the fresh matrix they made without a copy.
    """

    in_system: SystemType
    out_system: SystemType
    matrix: np.ndarray

    def __post_init__(self) -> None:
        self._admit(copy=True)

    def _admit(self, copy: bool) -> None:
        """Lock the matrix, a float copy of it when `copy`, and check it."""
        _require_theory(self.out_system, self.in_system.theory, "transformation output")
        arr = _readonly(np.array(self.matrix, dtype=float) if copy else self.matrix)
        object.__setattr__(self, "matrix", arr)
        shape = (self.out_system.vector_space_dim, self.in_system.vector_space_dim)
        _require_shape(arr.shape, shape, "transformation matrix")
        _require_finite(arr, "transformation matrix")
        # Unit-effect preservation holds for every transformation we admit.
        pulled = unit_effect(self.out_system).coeffs @ arr
        _require_within(np.max(np.abs(pulled - unit_effect(self.in_system).coeffs)), EPS_EQ,
                        "transformation does not preserve the unit effect: max deviation")

    @functools.cached_property
    def reversible(self) -> bool:
        """True when the matrix is square and orthogonal: max|M^T M - I| <= EPS_EQ.

        On channels these are exactly the reversible ones in both backends:
        conjugations by a unitary, since the Hermitian basis is orthonormal,
        and permutations of outcomes.
        """
        m = self.matrix
        return m.shape[0] == m.shape[1] and float(np.abs(m.T @ m - np.eye(len(m))).max()) <= EPS_EQ

    def inverse(self) -> "Transformation":
        """The transformation undoing this one, M^T, when it is reversible."""
        if not self.reversible:
            raise InfeasibleError("transformation is not reversible")
        return _channel(self.out_system, self.in_system, self.matrix.T.copy())


def _channel(in_system: SystemType, out_system: SystemType, matrix: np.ndarray) -> Transformation:
    """Transformation(in_system, out_system, matrix) without its copy.

    For a fresh float64 matrix that nothing else holds, as the package's
    constructors build: it is locked and checked as Transformation does, and
    kept as the transformation's one copy.
    """
    t = object.__new__(Transformation)
    vars(t).update(in_system=in_system, out_system=out_system, matrix=matrix)
    t._admit(copy=False)
    return t


def _derived(cls: type, system: SystemType, coeffs: np.ndarray) -> StateVector | Effect:
    """cls(system, coeffs) without its copy and checks, for a fresh float64 vector
    the package derived by a step that keeps validity: locked and kept as is."""
    v = object.__new__(cls)
    vars(v).update(system=system, coeffs=_readonly(coeffs))
    return v


@dataclass(frozen=True, eq=False)
class Measurement:
    """A finite collection of effects summing to the unit effect."""

    system: SystemType
    effects: tuple[Effect, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "effects", tuple(self.effects))
        _require_count(len(self.effects), 1, "measurement effect count")
        for i, e in enumerate(self.effects):
            _require_same(e.system, self.system, f"effect {i}")
        total = np.sum([e.coeffs for e in self.effects], axis=0)
        _require_within(np.max(np.abs(total - unit_effect(self.system).coeffs)), EPS_EQ,
                        "effects do not sum to the unit effect: max deviation")


# ---------------------------------------------------------------------------
# pairing and circuit composition


def pair(effect: Effect, state: StateVector) -> float:
    """Probability of an effect on a state (a closed circuit)."""
    _require_same(state.system, effect.system, "state")
    return float(effect.coeffs @ state.coeffs)


def apply(transformation: Transformation, state: StateVector) -> StateVector:
    """Run a state through a channel."""
    _require_same(state.system, transformation.in_system, "state")
    return StateVector(transformation.out_system, transformation.matrix @ state.coeffs)


def transform_effect(transformation: Transformation, effect: Effect) -> Effect:
    """Pull an effect back through a channel: the covector (e|T."""
    _require_same(effect.system, transformation.out_system, "effect")
    return Effect(transformation.in_system, transformation.matrix.T @ effect.coeffs)


def compose_seq(second: Transformation, first: Transformation) -> Transformation:
    """Sequential composition: run `first`, then `second`."""
    _require_same(first.out_system, second.in_system, "first's output")
    return _channel(first.in_system, second.out_system, second.matrix @ first.matrix)


def identity_transformation(system: SystemType) -> Transformation:
    return _channel(system, system, np.eye(system.vector_space_dim))


# ---------------------------------------------------------------------------
# tensor structure


def _tensor_coeffs(
    system_a: SystemType, system_b: SystemType, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Coefficients of a (x) b on the composite.

    The leading axes of `a` and `b` broadcast as a stack.  Quantum rows are
    decoded, multiplied as a row-wise Kronecker product and encoded again,
    O(D**2) per row for the composite dimension D; every step is row-exact.
    The products are formed and encoded one block of stack rows at a time,
    4 D**2 entries per row for _encode's gather.  This is the one kernel
    behind tensor_states, tensor_effects and tensor_transformations.
    """
    if system_a.theory != QUANTUM:
        prod = a[..., :, None] * b[..., None, :]
        return prod.reshape(*prod.shape[:-2], -1)
    da, db = system_a.dim, system_b.dim
    dim = da * db
    ma, mb = _decode(a, da), _decode(b, db)
    broadcast = np.broadcast(ma[..., 0, 0], mb[..., 0, 0])
    stack = broadcast.shape
    blocks = _blocks(broadcast.size, 4 * dim * dim)
    if len(blocks) <= 1:  # the whole stack at once, without gathering its rows
        prod = ma[..., :, None, :, None] * mb[..., None, :, None, :]
        return _encode(prod.reshape(stack + (dim, dim)), dim)
    # each stack row's position among the rows of ma and of mb
    rows_a, rows_b = (
        np.broadcast_to(np.arange(m[..., 0, 0].size).reshape(m.shape[:-2]), stack).reshape(-1)
        for m in (ma, mb)
    )
    ma, mb = ma.reshape(-1, da, da), mb.reshape(-1, db, db)
    out = np.empty(stack + (dim * dim,))
    flat = out.reshape(-1, dim * dim)
    for block in blocks:
        prod = ma[rows_a[block], :, None, :, None] * mb[rows_b[block], None, :, None, :]
        flat[block] = _encode(prod.reshape(-1, dim, dim), dim)
    return out


def tensor_states(a: StateVector, b: StateVector) -> StateVector:
    system = composite_system(a.system, b.system)
    return StateVector(system, _tensor_coeffs(a.system, b.system, a.coeffs, b.coeffs))


def tensor_effects(a: Effect, b: Effect) -> Effect:
    system = composite_system(a.system, b.system)
    return Effect(system, _tensor_coeffs(a.system, b.system, a.coeffs, b.coeffs))


def tensor_transformations(a: Transformation, b: Transformation) -> Transformation:
    """Parallel composite of two channels: A_i (x) B_j goes to T_a(A_i) (x) T_b(B_j).

    Rows of `basis` and `moved` hold those two products' coefficients; the
    product basis is orthonormal, so the composite matrix is moved^T basis.
    """
    in_system = composite_system(a.in_system, b.in_system)
    out_system = composite_system(a.out_system, b.out_system)
    n_a, n_b = a.in_system.vector_space_dim, b.in_system.vector_space_dim
    basis = _tensor_coeffs(a.in_system, b.in_system, np.eye(n_a)[:, None], np.eye(n_b))
    moved = _tensor_coeffs(a.out_system, b.out_system, a.matrix.T[:, None], b.matrix.T)
    prod = moved.reshape(n_a * n_b, -1).T @ basis.reshape(n_a * n_b, -1)
    return _channel(in_system, out_system, prod)


def _kept_system(system: SystemType, keep: tuple[int, ...]) -> SystemType:
    dims = [system.factors[i] for i in keep]
    return SystemType(system.theory, math.prod(dims), tuple(dims))


def _normalize_keep(system: SystemType, keep: int | Sequence[int]) -> tuple[int, ...]:
    kept = (keep,) if isinstance(keep, (int, np.integer)) else tuple(keep)
    _require_count(len(kept), 1, "kept factor count")
    if len(set(kept)) != len(kept):
        raise ValidationError(f"duplicate factors in keep selector {kept}")
    for i in kept:
        _require_index(i, len(system.factors), "factor index")
    return tuple(sorted(int(i) for i in kept))


def marginalize(state: StateVector, keep: int | Sequence[int]) -> StateVector:
    """Discard all factors of a composite state except the selected ones: pair
    each other factor with its unit effect, last first, so earlier indices stay."""
    system = state.system
    kept = _normalize_keep(system, keep)
    for factor in reversed(range(len(system.factors))):
        if factor not in kept:
            state = partial_pair(state, unit_effect(_kept_system(system, (factor,))), factor)
    return state


def partial_pair(state: StateVector, effect: Effect, factor: int) -> StateVector:
    """Pair an effect with one factor of a composite state (see _pair_factor).

    Returns the conditional state on the remaining factors.  Its unit pairing
    equals the probability of the effect, so the result is subnormalized and
    built unchecked.
    """
    system = state.system
    # pairing the only factor would keep none, so a one-factor state has no factor to pair
    _require_index(factor, len(system.factors) if system.is_composite else 0, "factor index")
    _require_same(effect.system, _kept_system(system, (factor,)), "effect")
    out_system = _kept_system(system, tuple(i for i in range(len(system.factors)) if i != factor))
    out = _pair_factor(system, state.coeffs, effect.coeffs[None], factor)[0]
    return _derived(StateVector, out_system, out)


def _pair_factor(
    system: SystemType, coeffs: np.ndarray, effects: np.ndarray, factor: int
) -> np.ndarray:
    """Partial pairing of one factor, for every effect and state.

    `coeffs` is a stack of composite states (any leading axes) and `effects`
    a 2-D stack of effect rows on the factor; returns the remaining factors'
    coefficients, indexed (effect, *stack).  The one partial contraction on
    both backends: one classical tensordot, or quantum states decoded once.
    """
    n = len(system.factors)
    stack = coeffs.shape[:-1]
    kept = [i for i in range(n) if i != factor]
    dim = math.prod(system.factors[i] for i in kept)
    if system.theory != QUANTUM:
        p = coeffs.reshape(*stack, *system.factors)
        out = np.tensordot(effects, p, axes=([1], [len(stack) + factor]))
        return out.reshape(len(effects), *stack, dim)
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
    return _derived(Effect, system, coeffs)


def maximally_mixed(system: SystemType) -> StateVector:
    """The unique state invariant under every reversible transformation."""
    if system.theory == QUANTUM:
        coeffs = np.zeros(system.vector_space_dim)
        coeffs[0] = 1.0 / np.sqrt(system.dim)
        return _derived(StateVector, system, coeffs)
    return _derived(StateVector, system, np.full(system.dim, 1.0 / system.dim))


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
    return _derived(StateVector, comp, _encode(rho, comp.dim))


def density_matrix(state: StateVector) -> np.ndarray:
    """Decode a quantum state back to its density operator."""
    _require_theory(state.system, QUANTUM, "density matrix")
    return _decode(state.coeffs, state.system.dim)


def effect_matrix(effect: Effect) -> np.ndarray:
    _require_theory(effect.system, QUANTUM, "effect matrix")
    return _decode(effect.coeffs, effect.system.dim)


def state_from_density(system: SystemType, rho: np.ndarray) -> StateVector:
    _require_theory(system, QUANTUM, "density matrix")
    rho = np.asarray(rho, dtype=complex)
    _require_shape(rho.shape, (system.dim, system.dim), "density matrix")
    return StateVector(system, _encode(rho, system.dim))


def effect_from_matrix(system: SystemType, mat: np.ndarray) -> Effect:
    _require_theory(system, QUANTUM, "effect matrix")
    mat = np.asarray(mat, dtype=complex)
    _require_shape(mat.shape, (system.dim, system.dim), "effect matrix")
    return Effect(system, _encode(mat, system.dim))


def _ket_projector(system: SystemType, amplitudes: Sequence[complex]) -> np.ndarray:
    """Coefficients of |psi><psi| for a normalized amplitude vector psi."""
    _require_theory(system, QUANTUM, "amplitude vector")
    psi = np.asarray(amplitudes, dtype=complex)
    _require_shape(psi.shape, (system.dim,), "amplitude vector")
    _require_finite(psi, "amplitude vector")
    _require_within(abs(float(np.vdot(psi, psi).real) - 1.0), EPS_EQ,
                    "amplitudes are not normalized: |psi^dag psi - 1|")
    return _encode(np.outer(psi, psi.conj()), system.dim)


def ket_state(system: SystemType, amplitudes: Sequence[complex]) -> StateVector:
    """Pure quantum state from a normalized amplitude vector."""
    return _derived(StateVector, system, _ket_projector(system, amplitudes))


def projector_effect(system: SystemType, amplitudes: Sequence[complex]) -> Effect:
    """Rank-1 projector effect from a normalized amplitude vector."""
    return _derived(Effect, system, _ket_projector(system, amplitudes))


def basis_state(system: SystemType, index: int) -> StateVector:
    """Computational basis state (quantum) or point mass (classical)."""
    return _basis(StateVector, system, index)


def basis_effect(system: SystemType, index: int) -> Effect:
    """Projector onto a computational basis state, or a classical indicator."""
    return _basis(Effect, system, index)


def _basis(cls: type, system: SystemType, index: int) -> StateVector | Effect:
    _require_index(index, system.dim, "basis index")
    unit = np.zeros(system.dim)
    unit[index] = 1.0
    quantum = system.theory == QUANTUM
    return _derived(cls, system, _encode(np.diag(unit), system.dim) if quantum else unit)


def _pure_ket(state: StateVector, what: str, *fields: object) -> np.ndarray:
    """The ket of a pure quantum state, the top eigenvector of its density
    matrix; InfeasibleError `what` when the top eigenvalue falls short of 1."""
    vals, vecs = np.linalg.eigh(density_matrix(state))
    _require_within(1.0 - vals[-1], EPS_PSD, what + ": 1 - top eigenvalue", *fields,
                    error=InfeasibleError)
    return vecs[:, -1]


def distinguishing_measurement(states: Sequence[StateVector]) -> Measurement:
    """Measurement whose j-th effect fires with certainty exactly on state j.

    Input states must be pure and perfectly distinguishable; the effect list is
    padded with the complement effect when they do not already resolve the
    unit effect.
    """
    states = list(states)
    _require_count(len(states), 1, "distinguished state count")
    system = states[0].system
    for i, s in enumerate(states):
        _require_same(s.system, system, f"state {i}")
    if system.theory == QUANTUM:
        kets = [_pure_ket(s, "state {} is not pure", i) for i, s in enumerate(states)]
        for i, j in itertools.combinations(range(len(states)), 2):
            _require_within(abs(np.vdot(kets[i], kets[j])) ** 2, EPS_EQ,
                            "states {} and {} are not distinguishable: overlap", i, j,
                            error=InfeasibleError)
        effects = [projector_effect(system, k) for k in kets]
    else:
        points = []
        for i, s in enumerate(states):
            top = int(np.argmax(s.coeffs))
            _require_within(1.0 - s.coeffs[top], EPS_PSD,
                            "state {} is not a point mass: 1 - top weight", i,
                            error=InfeasibleError)
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
    """The matrix as a complex d x d array, checked to be unitary: first its
    entries, which a unitary holds to modulus <= 1, so U^dag U cannot overflow."""
    u = np.asarray(mat, dtype=complex)
    _require_shape(u.shape, (dim, dim), label)
    _require_finite(u, label)
    _require_within(np.max(np.abs(u)) - 1.0, EPS_EQ, "{} is not unitary: max|u_ij| - 1", label)
    _require_within(np.max(np.abs(u.conj().T @ u - np.eye(dim))), EPS_EQ,
                    "{} is not unitary: max|U^dag U - I|", label)
    return u


def unitary_channel(system: SystemType, unitary: np.ndarray) -> Transformation:
    """Conjugation channel of a unitary; the quantum reversible constructor.

    M[j, k] = Tr(B_j U B_k U^dag): column k is the encoding of U B_k U^dag.
    """
    _require_theory(system, QUANTUM, "unitary channel")
    u = _as_unitary(unitary, system.dim, "matrix")
    return _channel(system, system, _unitary_matrices(u))


_ROOT2 = np.sqrt(2.0)


def _unitary_matrices(u: np.ndarray) -> np.ndarray:
    """unitary_channel's matrix for each unitary; leading axes of `u` are a stack.

    With pairs (m, n) for rows and (j, l) for columns (see _Layout), let
    T1 = U[m, j] conj U[n, l] and T2 = U[m, l] conj U[n, j].  The symmetric
    and antisymmetric blocks are Re(T1 + T2), -Im(T1 + T2), Im(T1 - T2) and
    Re(T1 - T2), read off T1 + conj T2 and i (T1 - conj T2); the blocks
    touching the diagonal are Helmert products of U[m, a] conj U[n, a],
    U[b, j] conj U[b, l] and |U[b, a]|**2.  That is O(d**4) with no basis
    array.  Every product is elementwise or one matmul per matrix, so a
    stacked matrix is bit for bit what unitary_channel gives on that unitary
    alone.  The pair block is built one block of pair rows at a time, 2 P
    entries per row and unitary (P pairs); a stack of unitaries is its
    caller's block (interference._phase_moved builds a block of angles at a
    time), so its other temporaries stay under d**4 entries per unitary.
    """
    d = u.shape[-1]
    lay = _layout(d)
    p = len(lay.lo)
    stack = u.shape[:-2]
    out = np.empty(stack + (d * d, d * d))
    # rows and columns of the pair block, split as (sym or anti, pair)
    pair_block = out[..., 1 : 1 + 2 * p, 1 : 1 + 2 * p].reshape(stack + (2, p, 2, p))
    u_lo, u_hi = u.take(lay.lo, axis=-2), u.take(lay.hi, axis=-2).conj()
    for rows in _blocks(p, 2 * p * u[..., 0, 0].size):
        a, b = u_lo[..., rows, :], u_hi[..., rows, :]
        t1 = a.take(lay.lo, axis=-1) * b.take(lay.hi, axis=-1)
        t2 = (a.take(lay.hi, axis=-1) * b.take(lay.lo, axis=-1)).conj()
        # a complex entry's (real, imaginary) parts land in the (sym, anti) columns
        pair_block[..., 0, rows, :, :] = (t1 + t2).view(float).reshape(
            t1.shape + (2,)).swapaxes(-1, -2)
        pair_block[..., 1, rows, :, :] = ((t1 - t2) * 1j).view(float).reshape(
            t1.shape + (2,)).swapaxes(-1, -2)
    # the diagonal columns, U diag(h_r) U^dag read on every row, and the
    # diagonal rows, U B_k U^dag read on the diagonal for the pair columns
    moved = (u_lo * u_hi) @ lay.helmert_t * _ROOT2
    dd = lay.helmert @ (u * u.conj()).real @ lay.helmert_t
    out[..., lay.diag_slots] = np.concatenate(
        [dd[..., :1, :], moved.real, -moved.imag, dd[..., 1:, :]], axis=-2)
    seen = lay.helmert @ (u.take(lay.lo, axis=-1) * u.take(lay.hi, axis=-1).conj()) * _ROOT2
    out[..., lay.diag_slots, 1 : 1 + 2 * p] = np.concatenate([seen.real, seen.imag], axis=-1)
    return out


def phase_unitary(system: SystemType, angles: Sequence[float]) -> Transformation:
    """Conjugation by a diagonal phase in the computational basis."""
    theta = np.asarray(angles, dtype=float)
    _require_shape(theta.shape, (system.dim,), "phase angles")
    _require_finite(theta, "phase angles")
    return unitary_channel(system, np.diag(np.exp(1j * theta)))


def permutation_transformation(system: SystemType, perm: Sequence[int]) -> Transformation:
    """Relabeling of classical outcomes; the classical reversible constructor."""
    _require_theory(system, CLASSICAL, "permutation")
    perm = list(perm)
    if not all(map(_is_integer, perm)) or sorted(perm) != list(range(system.dim)):
        raise ValidationError(f"{perm} is not a permutation of range({system.dim})")
    matrix = np.zeros((system.dim, system.dim))
    for src, dst in enumerate(perm):
        matrix[dst, src] = 1.0
    return _channel(system, system, matrix)


def channel_from_matrix(
    in_system: SystemType, out_system: SystemType, matrix: np.ndarray
) -> Transformation:
    """Validated generic channel: CPTP for quantum, stochastic for classical."""
    t = Transformation(in_system, out_system, matrix)
    _require_channel(t)
    return t


def _require_channel(t: Transformation) -> None:
    """Raise ValidationError unless t is CPTP (quantum) or stochastic (classical)."""
    if t.in_system.theory == QUANTUM:
        _require_within(-np.linalg.eigvalsh(_choi_matrix(t))[0], EPS_PSD,
                        "map is not completely positive: -(lowest Choi eigenvalue)")
    else:
        _require_within(-t.matrix.min(), EPS_PSD,
                        "stochastic matrix has a negative entry: -(lowest entry)")


def _choi_matrix(t: Transformation) -> np.ndarray:
    """Block operator whose positivity certifies complete positivity."""
    din, dout = t.in_system.dim, t.out_system.dim
    # row k of the flat basis B is the row-major vec(B_k), and row k of
    # T^T @ B_out is vec T(B_k); summing B_k[b, a] T(B_k) over k gives T(E_ab),
    # so w[(b, a), (m, n)] = T(E_ab)[m, n]
    b_in = hermitian_basis(din).reshape(din * din, din * din)
    b_out = hermitian_basis(dout).reshape(dout * dout, dout * dout)
    w = b_in.T @ (t.matrix.T @ b_out)
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


def _rng(seed: int | np.random.Generator) -> np.random.Generator:
    """numpy's generator for the seed; a Generator passes through unchanged."""
    if not isinstance(seed, np.random.Generator):
        _require_count(seed, 0, "seed")
    return np.random.default_rng(seed)


def haar_unitary(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the phase convention fixed."""
    _require_count(dim, 1, "unitary dimension")
    rng = _rng(seed)
    return _haar(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))


def random_unitary(system: SystemType, seed: int | np.random.Generator) -> Transformation:
    """Haar-random unitary channel; unitary_channel checks the system's theory."""
    return unitary_channel(system, haar_unitary(system.dim, seed))


def _random_density(dim: int, rng: np.random.Generator, kind: str) -> np.ndarray:
    """Density matrix of one Haar-pure or Hilbert-Schmidt-mixed draw."""
    if kind == "pure":
        return _pure_densities(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _pure_densities(z: np.ndarray) -> np.ndarray:
    """|psi><psi| with psi = z / |z| for each row z of a stack.

    The norm dots over the strided real and imaginary parts, as
    np.linalg.norm does, so a stacked density is bit for bit one row's.
    """
    psi = z / np.sqrt(_rowpair(z.real, z.real) + _rowpair(z.imag, z.imag))[..., None]
    return psi[..., :, None] * psi.conj()[..., None, :]


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
        return _derived(StateVector, system, _encode(rho, system.dim))
    if kind == "pure":
        return basis_state(system, int(rng.integers(system.dim)))
    return _derived(StateVector, system, rng.dirichlet(np.ones(system.dim)))


def random_effect(system: SystemType, seed: int | np.random.Generator) -> Effect:
    """Seeded random effect with spectrum drawn uniformly from [0, 1]."""
    rng = _rng(seed)
    if system.theory == QUANTUM:
        v = haar_unitary(system.dim, rng)
        vals = rng.uniform(0.0, 1.0, system.dim)
        return _derived(Effect, system, _encode((v * vals) @ v.conj().T, system.dim))
    return _derived(Effect, system, rng.uniform(0.0, 1.0, system.dim))


# ---------------------------------------------------------------------------
# comparisons


def transformations_close(a: Transformation, b: Transformation, tol: float = EPS_EQ) -> bool:
    """Channel-level equality; the encoding already quotients global phase."""
    return (
        a.in_system == b.in_system
        and a.out_system == b.out_system
        and float(np.max(np.abs(a.matrix - b.matrix))) <= tol
    )
