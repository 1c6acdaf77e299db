"""Exact linear operators on truncated Fock spaces and hybrid qubit-qumode spaces.

Every other module builds on the primitives here: a layout describing the
tensor structure (the shared ancilla, if any, then qumodes), dense operators
on that layout, and states (pure vectors or density matrices) with explicit
truncation-tail bookkeeping.

Conventions
-----------
* A layout holds at most one qubit: the single auxiliary qubit (ancilla)
  that every gate and the parity measurement share.  When present it is
  tensor axis 0, a 2-dim factor; the qumodes follow in index order.  So an
  (ancilla, rest) split is always ``reshape(2, rest, ...)``.
* Ancilla basis: ``|0>`` is the +1 eigenstate of the Pauli Z operator.
* The 50:50 beam splitter between modes (a, b) is ``exp(pi/4 (a_b a_a^dag -
  a_b^dag a_a))``.  With this generator the single-photon action is
  ``B |1,0> = (|1,0> - |0,1>)/sqrt(2)`` and ``B |0,1> = (|1,0> +
  |0,1>)/sqrt(2)`` (frozen by a golden test).
* Operators are dense numpy arrays; target dimensions stay dense-feasible by
  design and sparsity is a non-goal.  Number-conserving generators are
  exponentiated block-by-block in total excitation, which equals the full
  matrix exponential of the truncated generator to machine precision.
* Applying a truncated displacement does not renormalize the state; the
  truncation tail is recorded so callers can assert it stays under budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm as _expm


class LayoutError(ValueError):
    """Operator/state layout mismatch or invalid axis index."""


_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

KET_PLUS = np.array([1, 1], dtype=complex) / math.sqrt(2)
KET_MINUS = np.array([1, -1], dtype=complex) / math.sqrt(2)


@dataclass(frozen=True)
class SpaceLayout:
    """Tensor structure of a hybrid space: the ancilla at axis 0, then qumodes.

    Parameters
    ----------
    qubit_count : 1 for a layout with the shared ancilla (axis 0, dimension
        2), 0 for a mode-only layout; any other value raises LayoutError.
    mode_cutoffs : per-mode Fock dimension d_i; mode i holds |0>..|d_i - 1>.
    """

    qubit_count: int
    mode_cutoffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mode_cutoffs", tuple(int(d) for d in self.mode_cutoffs))
        if self.qubit_count not in (0, 1):
            raise LayoutError(f"qubit_count must be 0 or 1 (the shared ancilla), "
                              f"got {self.qubit_count}")
        if any(d < 2 for d in self.mode_cutoffs):
            raise LayoutError("every mode cutoff must be >= 2")

    @property
    def n_modes(self) -> int:
        return len(self.mode_cutoffs)

    @property
    def dims(self) -> tuple[int, ...]:
        return (2,) * self.qubit_count + self.mode_cutoffs

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims, dtype=np.int64))

    def mode_axis(self, mode: int) -> int:
        if not 0 <= mode < self.n_modes:
            raise LayoutError(f"mode index {mode} out of range [0, {self.n_modes})")
        return self.qubit_count + mode

    def require_ancilla(self) -> None:
        if self.qubit_count != 1:
            raise LayoutError("layout has no ancilla")

    def basis_index(self, qubits: tuple[int, ...] = (), modes: tuple[int, ...] = ()) -> int:
        """Flat index of the product basis state |ancilla>|modes...>; `qubits`
        is the ancilla label, (0,) or (1,), or () on a mode-only layout."""
        if len(qubits) != self.qubit_count or len(modes) != self.n_modes:
            raise LayoutError("basis labels must cover every qubit and mode")
        labels = tuple(qubits) + tuple(modes)
        for lab, dim in zip(labels, self.dims):
            if not 0 <= lab < dim:
                raise LayoutError(f"basis label {lab} outside dimension {dim}")
        return int(np.ravel_multi_index(labels, self.dims))


class TruncatedOperator:
    """Dense complex operator on a :class:`SpaceLayout`.

    Instances are immutable.
    """

    __slots__ = ("layout", "matrix")

    def __init__(self, layout: SpaceLayout, matrix: np.ndarray, copy: bool = True):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (layout.total_dim, layout.total_dim):
            raise LayoutError(
                f"matrix shape {matrix.shape} does not match layout dimension {layout.total_dim}"
            )
        if copy:
            matrix = matrix.copy()
        matrix.setflags(write=False)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedOperator is immutable")

    # -- algebra -----------------------------------------------------------

    def _require_same_layout(self, other: "TruncatedOperator"):
        if self.layout != other.layout:
            raise LayoutError("operators live on different layouts")

    def __matmul__(self, other):
        if isinstance(other, TruncatedOperator):
            self._require_same_layout(other)
            return TruncatedOperator(self.layout, self.matrix @ other.matrix, copy=False)
        return self.matrix @ other

    def __add__(self, other: "TruncatedOperator"):
        self._require_same_layout(other)
        return TruncatedOperator(self.layout, self.matrix + other.matrix, copy=False)

    def __sub__(self, other: "TruncatedOperator"):
        self._require_same_layout(other)
        return TruncatedOperator(self.layout, self.matrix - other.matrix, copy=False)

    def __mul__(self, scalar):
        return TruncatedOperator(self.layout, self.matrix * complex(scalar), copy=False)

    __rmul__ = __mul__

    def adjoint(self) -> "TruncatedOperator":
        return TruncatedOperator(self.layout, self.matrix.conj().T, copy=False)

    # -- flags ---------------------------------------------------------------

    def is_unitary(self, tol: float = 1e-10) -> bool:
        dev = np.abs(self.matrix.conj().T @ self.matrix - np.eye(self.layout.total_dim)).max()
        return bool(dev <= tol)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return bool(np.abs(self.matrix - self.matrix.conj().T).max() <= tol)


def matrix_exponential(op: TruncatedOperator) -> TruncatedOperator:
    """Matrix exponential via scipy's scaled-and-squared Pade method."""
    return TruncatedOperator(op.layout, _expm(op.matrix), copy=False)


# ---------------------------------------------------------------------------
# embedding helpers
# ---------------------------------------------------------------------------


def _kron_chain(factors) -> np.ndarray:
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def _embed_single(layout: SpaceLayout, axis: int, small: np.ndarray) -> np.ndarray:
    factors = [np.eye(d, dtype=complex) for d in layout.dims]
    factors[axis] = small
    return _kron_chain(factors)


def _embed_diagonal(layout: SpaceLayout, axis_diags: dict[int, np.ndarray]) -> np.ndarray:
    """Diagonal operator assembled from per-axis diagonal factors."""
    diag = np.ones(1)
    for ax, d in enumerate(layout.dims):
        factor = axis_diags.get(ax, np.ones(d))
        diag = np.kron(diag, factor)
    return np.diag(diag.astype(complex))


def tensor_embed(op: TruncatedOperator, layout: SpaceLayout,
                 mode_map: tuple[int, ...]) -> TruncatedOperator:
    """Embed an operator from a mode-only sub-layout into `layout`, identity
    elsewhere.  ``mode_map[j]`` is the target mode in `layout` of mode j of
    ``op.layout``.
    """
    sub = op.layout
    if sub.qubit_count or len(mode_map) != sub.n_modes:
        raise LayoutError("the sub-layout must be mode-only and mode_map must cover it")
    axes = [layout.mode_axis(m) for m in mode_map]
    if len(set(axes)) != len(axes):
        raise LayoutError("target axes must be distinct")
    for sub_dim, ax in zip(sub.dims, axes):
        if layout.dims[ax] != sub_dim:
            raise LayoutError("sub-layout dimension does not match target axis")
    rest = [ax for ax in range(len(layout.dims)) if ax not in axes]
    rest_dim = int(np.prod([layout.dims[ax] for ax in rest], dtype=np.int64)) if rest else 1
    big = np.kron(op.matrix, np.eye(rest_dim, dtype=complex))
    # permute (sub axes..., rest axes...) -> layout order, on rows and columns
    tensor_dims = list(sub.dims) + [layout.dims[ax] for ax in rest]
    n = len(layout.dims)
    big = big.reshape(tensor_dims + tensor_dims)
    src_order = axes + rest  # position p of the kron tensor holds layout axis src_order[p]
    perm = [src_order.index(ax) for ax in range(n)]
    big = big.transpose(perm + [p + n for p in perm]).reshape(layout.total_dim, layout.total_dim)
    return TruncatedOperator(layout, big, copy=False)


def apply_local(array: np.ndarray, dims: tuple[int, ...], matrix: np.ndarray,
                axes: tuple[int, ...]) -> np.ndarray:
    """Apply `matrix` to the given tensor axes of a flat state (or batch).

    `array` has shape ``(total_dim,)`` or ``(total_dim, batch)``; `matrix` is
    square over the product of ``dims[axes]``.  Returns a new array of the
    same shape.  This contracts without materializing the embedded operator.
    """
    batched = array.ndim == 2
    batch = array.shape[1] if batched else 1
    work = array.reshape(tuple(dims) + (batch,))
    n = len(dims)
    axes = tuple(axes)
    front = list(axes) + [ax for ax in range(n) if ax not in axes] + [n]
    work = work.transpose(front)
    sub_dim = int(np.prod([dims[ax] for ax in axes], dtype=np.int64))
    rest_shape = work.shape[len(axes):]
    work = matrix @ work.reshape(sub_dim, -1)
    work = work.reshape([dims[ax] for ax in axes] + list(rest_shape))
    inv = np.argsort(front)
    work = work.transpose(inv)
    out = work.reshape(-1, batch)
    return out if batched else out[:, 0]


def apply_diag_local(array: np.ndarray, dims: tuple[int, ...], diag: np.ndarray,
                     axes: tuple[int, ...]) -> np.ndarray:
    """Apply a diagonal operator (joint diagonal over `axes`) to a flat state/batch."""
    batched = array.ndim == 2
    batch = array.shape[1] if batched else 1
    n = len(dims)
    work = array.reshape(tuple(dims) + (batch,))
    front = list(axes) + [ax for ax in range(n) if ax not in axes] + [n]
    work = work.transpose(front)
    sub_dim = int(np.prod([dims[ax] for ax in axes], dtype=np.int64))
    rest = work.shape[len(axes):]
    work = work.reshape(sub_dim, -1) * diag[:, None]
    work = work.reshape([dims[ax] for ax in axes] + list(rest))
    work = work.transpose(np.argsort(front))
    out = work.reshape(-1, batch)
    return out if batched else out[:, 0]


# ---------------------------------------------------------------------------
# single-mode building blocks
# ---------------------------------------------------------------------------


def _destroy_matrix(d: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1).astype(complex)


def _parity_diag(d: int) -> np.ndarray:
    return (-1.0) ** np.arange(d)


def pair_excitation_blocks(d: int) -> list[np.ndarray]:
    """Flat indices ``i * d + j`` of the two-mode states |i, j> grouped by total
    excitation t = i + j, for t = 0 .. 2d - 2; each block is ordered by i.

    Every number-conserving two-mode operator is block diagonal in this split.
    Blocks with t >= d are truncated: they hold 2d - 1 - t states, not t + 1.
    """
    totals = np.add.outer(np.arange(d), np.arange(d)).ravel()
    return [np.flatnonzero(totals == t) for t in range(2 * d - 1)]


def _beam_splitter_block(d: int, idx: np.ndarray) -> np.ndarray:
    """exp of the beam-splitter generator on one total-excitation block.

    On the block's states |i, t - i> the generator pi/4 (a_b a_a^dag -
    a_b^dag a_a) is real, antisymmetric and tridiagonal in i, with
    <i+1, t-i-1| G |i, t-i> = pi/4 sqrt(i + 1) sqrt(t - i) (the SU(2) picture
    of Campos, Saleh & Teich, PRA 40, 1371 (1989)).
    """
    i, j = np.divmod(idx[:-1], d)
    sub = (np.pi / 4) * (np.sqrt(i + 1.0) * np.sqrt(j))
    gen = np.diag(sub, k=-1) - np.diag(sub, k=1)
    return _expm(gen.astype(complex))


# ---------------------------------------------------------------------------
# operator constructors
# ---------------------------------------------------------------------------


def identity(layout: SpaceLayout) -> TruncatedOperator:
    return TruncatedOperator(layout, np.eye(layout.total_dim, dtype=complex), copy=False)


def annihilation(layout: SpaceLayout, mode: int) -> TruncatedOperator:
    """Ladder-down operator with <n-1|a|n> = sqrt(n), embedded in the layout."""
    ax = layout.mode_axis(mode)
    return TruncatedOperator(layout, _embed_single(layout, ax, _destroy_matrix(layout.dims[ax])),
                             copy=False)


def number(layout: SpaceLayout, mode: int) -> TruncatedOperator:
    ax = layout.mode_axis(mode)
    d = layout.dims[ax]
    return TruncatedOperator(
        layout, _embed_diagonal(layout, {ax: np.arange(d, dtype=float)}), copy=False)


def parity(layout: SpaceLayout, mode: int) -> TruncatedOperator:
    """Fock parity sum_n (-1)^n |n><n| = exp(i pi a^dag a); squares to I exactly."""
    ax = layout.mode_axis(mode)
    return TruncatedOperator(
        layout, _embed_diagonal(layout, {ax: _parity_diag(layout.dims[ax])}), copy=False)


def displacement(layout: SpaceLayout, mode: int, alpha: complex) -> TruncatedOperator:
    """exp(alpha a^dag - alpha* a) on the truncated space.

    The truncated generator is anti-Hermitian, so the result is unitary on
    the truncated space; its action is only faithful on states whose support
    keeps |alpha|^2 well below the cutoff.  States are not renormalized after
    application; check the truncation tail instead.
    """
    ax = layout.mode_axis(mode)
    d = layout.dims[ax]
    a = _destroy_matrix(d)
    small = _expm(alpha * a.conj().T - np.conj(alpha) * a)
    return TruncatedOperator(layout, _embed_single(layout, ax, small), copy=False)


def beam_splitter_5050(layout: SpaceLayout, mode_a: int, mode_b: int) -> TruncatedOperator:
    """50:50 beam splitter exp(pi/4 (a_b a_a^dag - a_b^dag a_a)).

    Block diagonal in total excitation; exactly unitary within every block,
    and identical to the ideal beam splitter on blocks whose total fits under
    both cutoffs.  Golden sign convention: B|1,0> = (|1,0> - |0,1>)/sqrt(2).
    """
    if mode_a == mode_b:
        raise LayoutError("beam splitter needs two distinct modes")
    da, db = layout.dims[layout.mode_axis(mode_a)], layout.dims[layout.mode_axis(mode_b)]
    if da != db:
        raise LayoutError("beam splitter modes must share one cutoff")
    sub = SpaceLayout(0, (da, da))
    mat = np.zeros((sub.total_dim, sub.total_dim), dtype=complex)
    for idx in pair_excitation_blocks(da):
        mat[np.ix_(idx, idx)] = _beam_splitter_block(da, idx)
    small = TruncatedOperator(sub, mat, copy=False)
    return tensor_embed(small, layout, mode_map=(mode_a, mode_b))


def two_mode_swap(layout: SpaceLayout, mode_a: int, mode_b: int) -> TruncatedOperator:
    """Permutation |m>|n> <-> |n>|m>; Hermitian, unitary, squares to I exactly.

    Conjugation sends the first mode's ladder operator to the second's:
    S a_a S^dag = a_b.
    """
    if mode_a == mode_b:
        raise LayoutError("swap needs two distinct modes")
    da, db = layout.dims[layout.mode_axis(mode_a)], layout.dims[layout.mode_axis(mode_b)]
    if da != db:
        raise LayoutError("swap modes must share one cutoff")
    sub = SpaceLayout(0, (da, db))
    perm = np.zeros((da * db, da * db), dtype=complex)
    for m in range(da):
        for n in range(db):
            perm[n * db + m, m * db + n] = 1.0
    return tensor_embed(TruncatedOperator(sub, perm, copy=False), layout,
                        mode_map=(mode_a, mode_b))


def controlled_parity(layout: SpaceLayout, mode: int) -> TruncatedOperator:
    """exp(i pi/2 (I - Z) a^dag a): identity on the ancilla |0> block, Fock parity on |1>.

    Diagonal sign matrix, so it squares to the identity exactly.
    """
    layout.require_ancilla()
    ax = layout.mode_axis(mode)
    off = _embed_diagonal(layout, {0: np.array([1.0, 0.0])})
    on = _embed_diagonal(layout, {0: np.array([0.0, 1.0]), ax: _parity_diag(layout.dims[ax])})
    return TruncatedOperator(layout, off + on, copy=False)


def controlled_parity_diag(layout: SpaceLayout, mode: int) -> np.ndarray:
    """Joint diagonal of the controlled-parity over (ancilla, mode) axes, for streaming."""
    d = layout.dims[layout.mode_axis(mode)]
    return np.concatenate([np.ones(d), _parity_diag(d)])


def qubit_rotation_matrix(axis: str, angle: float) -> np.ndarray:
    """exp(i angle sigma) on the ancilla alone: cos(angle) I + i sin(angle) sigma."""
    sig = _PAULI[axis.lower()]
    return math.cos(angle) * np.eye(2, dtype=complex) + 1j * math.sin(angle) * sig


def qubit_rotation(layout: SpaceLayout, axis: str, angle: float) -> TruncatedOperator:
    """exp(i angle sigma) on the ancilla, embedded in the layout."""
    layout.require_ancilla()
    small = qubit_rotation_matrix(axis, angle)
    return TruncatedOperator(layout, np.kron(small, np.eye(layout.total_dim // 2)), copy=False)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


class StateError(ValueError):
    """Invalid state construction or failed state invariant."""


class HybridState:
    """Pure vector or density matrix over (ancilla) x (qumodes).

    The truncation tail - total probability weight sitting on the top Fock
    level of any mode - is recorded at construction and after every
    :meth:`apply`; it is never silently discarded.
    """

    __slots__ = ("layout", "data", "kind", "truncation_tail")

    def __init__(self, layout: SpaceLayout, data: np.ndarray, kind: str, copy: bool = True):
        if kind not in ("pure", "density"):
            raise StateError("kind must be 'pure' or 'density'")
        data = np.asarray(data, dtype=complex)
        dim = layout.total_dim
        want = (dim,) if kind == "pure" else (dim, dim)
        if data.shape != want:
            raise StateError(f"state shape {data.shape} does not match layout ({want})")
        if copy:
            data = data.copy()
        self.layout = layout
        self.data = data
        self.kind = kind
        self.truncation_tail = self._compute_tail()

    # -- constructors --------------------------------------------------------

    @classmethod
    def pure(cls, layout: SpaceLayout, vector: np.ndarray) -> "HybridState":
        return cls(layout, vector, "pure")

    @classmethod
    def density(cls, layout: SpaceLayout, matrix: np.ndarray) -> "HybridState":
        return cls(layout, matrix, "density")

    @classmethod
    def basis(cls, layout: SpaceLayout, qubits: tuple[int, ...] = (),
              modes: tuple[int, ...] = ()) -> "HybridState":
        vec = np.zeros(layout.total_dim, dtype=complex)
        vec[layout.basis_index(qubits, modes)] = 1.0
        return cls(layout, vec, "pure", copy=False)

    # -- core ----------------------------------------------------------------

    @property
    def is_pure(self) -> bool:
        return self.kind == "pure"

    def trace(self) -> float:
        if self.is_pure:
            return float(np.vdot(self.data, self.data).real)
        return float(np.trace(self.data).real)

    def to_density(self) -> "HybridState":
        if self.is_pure:
            return HybridState(self.layout, np.outer(self.data, self.data.conj()),
                               "density", copy=False)
        return self

    def expectation(self, op: TruncatedOperator) -> complex:
        if op.layout != self.layout:
            raise LayoutError("operator layout does not match state")
        if self.is_pure:
            return complex(np.vdot(self.data, op.matrix @ self.data))
        return complex(np.einsum("ij,ji->", op.matrix, self.data))

    def apply(self, op: TruncatedOperator) -> "HybridState":
        """U|psi> or U rho U^dag.  No renormalization; tail is re-recorded."""
        if op.layout != self.layout:
            raise LayoutError("operator layout does not match state")
        if self.is_pure:
            return HybridState(self.layout, op.matrix @ self.data, "pure", copy=False)
        return HybridState(self.layout, op.matrix @ self.data @ op.matrix.conj().T,
                           "density", copy=False)

    def normalized(self) -> "HybridState":
        t = self.trace()
        if t <= 0:
            raise StateError("cannot normalize a null state")
        scale = 1.0 / math.sqrt(t) if self.is_pure else 1.0 / t
        return HybridState(self.layout, self.data * scale, self.kind, copy=False)

    def populations(self) -> np.ndarray:
        """Diagonal probabilities in the product basis."""
        if self.is_pure:
            return np.abs(self.data) ** 2
        return np.real(np.diag(self.data)).copy()

    def mode_populations(self, mode: int) -> np.ndarray:
        ax = self.layout.mode_axis(mode)
        p = self.populations().reshape(self.layout.dims)
        other = tuple(i for i in range(len(self.layout.dims)) if i != ax)
        return p.sum(axis=other)

    def reduced_qubit(self) -> np.ndarray:
        """2x2 reduced density matrix of the ancilla."""
        self.layout.require_ancilla()
        rest = self.layout.total_dim // 2
        if self.is_pure:
            psi = self.data.reshape(2, rest)
            return psi @ psi.conj().T
        return np.trace(self.data.reshape(2, rest, 2, rest), axis1=1, axis2=3)

    def _compute_tail(self) -> float:
        dims = self.layout.dims
        if self.layout.n_modes == 0:
            return 0.0
        p = self.populations().reshape(dims)
        tail = 0.0
        for mode in range(self.layout.n_modes):
            ax = self.layout.mode_axis(mode)
            sl = [slice(None)] * len(dims)
            sl[ax] = dims[ax] - 1
            tail += float(p[tuple(sl)].sum())
        return tail

    def validate(self, trace_tol: float = 1e-8, herm_tol: float = 1e-12,
                 psd_floor: float = -1e-10) -> None:
        """Check the state invariants; raise StateError on violation."""
        if abs(self.trace() - 1.0) > trace_tol:
            raise StateError(f"trace {self.trace()} deviates from 1 beyond {trace_tol}")
        if not self.is_pure:
            if np.abs(self.data - self.data.conj().T).max() > herm_tol:
                raise StateError("density matrix is not Hermitian to tolerance")
            lo = float(np.linalg.eigvalsh(self.data).min())
            if lo < psd_floor:
                raise StateError(f"density matrix eigenvalue {lo} below floor {psd_floor}")


def plus_state_with_modes(layout: SpaceLayout, modes: tuple[int, ...]) -> HybridState:
    """|+> on the ancilla tensor a Fock product state on the modes."""
    layout.require_ancilla()
    v0 = HybridState.basis(layout, (0,), tuple(modes)).data
    v1 = HybridState.basis(layout, (1,), tuple(modes)).data
    return HybridState(layout, (v0 + v1) / math.sqrt(2), "pure", copy=False)
