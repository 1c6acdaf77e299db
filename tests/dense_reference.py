"""Dense references that the tests check the package's routes against.

The package runs every logical gate on a mode pair's total-excitation blocks
(`encoding.pair_block_gate`), starts circuits from closed-form parity-branch
weights (`thermal.even_odd_weights`) and integrates the master equation
through per-block propagators.  This module holds the direct, dense forms of
the same physics, for small cutoffs only:

* the parity, number, controlled parity, swap, beam splitter and ancilla
  rotation as full matrices on a layout, rebuilt from the structured forms
  that `fock` gives the package (diagonals, a permutation, blocks of one
  total excitation) and embedded with identities elsewhere (`tensor_embed`);
* the logical operators and the ancilla-mediated gates as full hybrid
  matrices on a layout (`gate_UZ`, `gate_UX`, `gate_UZZ`), with the maps they
  induce on the mode factor and their ancilla leakage;
* the truncated thermal density matrix, its projection by the parity
  operator, and the two-mode encoded initial state;
* the printed Lindblad right-hand side on the whole (ancilla, mode) space;
* scipy's Pade matrix exponential, the cross-check of the package's eigh
  exponential `fock.unitary_exponential`;
* the abstract 2^K qubit-space oracle as dense Kronecker products, the
  cross-check of `msuqc.qubit_space_oracle`.

Test modules import it after ``conftest.py`` has pinned the BLAS threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from tqpsim import fock, msuqc, thermal
from tqpsim.fock import HybridState, SpaceLayout, TruncatedOperator
from tqpsim.opensys import NoiseParams
from tqpsim.thermal import ThermalSpec

INVOLUTION_TOL = 1e-10
PROJECTION_FLOOR = 1e-12


def matrix_exponential(op: TruncatedOperator | np.ndarray) -> TruncatedOperator | np.ndarray:
    """Matrix exponential via scipy's scaled-and-squared Pade method, of an
    operator on a layout or of a plain matrix."""
    if isinstance(op, TruncatedOperator):
        return TruncatedOperator(op.layout, expm(op.matrix), copy=False)
    return expm(op)


# ---------------------------------------------------------------------------
# dense operators on a layout, from the package's structured forms
# ---------------------------------------------------------------------------


def _embed_diagonal(layout: SpaceLayout, axis_diags: dict[int, np.ndarray]) -> TruncatedOperator:
    """Diagonal operator assembled from per-axis diagonal factors."""
    diag = np.ones(1)
    for ax, d in enumerate(layout.dims):
        diag = np.kron(diag, axis_diags.get(ax, np.ones(d)))
    return TruncatedOperator(layout, np.diag(diag.astype(complex)), copy=False)


def tensor_embed(op: TruncatedOperator, layout: SpaceLayout,
                 mode_map: tuple[int, ...]) -> TruncatedOperator:
    """Embed an operator from a mode-only sub-layout into `layout`, identity
    elsewhere.  ``mode_map[j]`` is the target mode in `layout` of mode j of
    ``op.layout``.  An identity embed returns `op` itself.
    """
    sub = op.layout
    if sub.qubit_count or len(mode_map) != sub.n_modes:
        raise fock.LayoutError("the sub-layout must be mode-only and mode_map must cover it")
    if layout == sub and tuple(mode_map) == tuple(range(sub.n_modes)):
        return op
    axes = [layout.mode_axis(m) for m in mode_map]
    if len(set(axes)) != len(axes):
        raise fock.LayoutError("target axes must be distinct")
    for sub_dim, ax in zip(sub.dims, axes):
        if layout.dims[ax] != sub_dim:
            raise fock.LayoutError("sub-layout dimension does not match target axis")
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


def single_mode(layout: SpaceLayout, mode: int, small: np.ndarray) -> TruncatedOperator:
    """A d x d matrix on one mode of `layout`, identity elsewhere."""
    d = layout.dims[layout.mode_axis(mode)]
    return tensor_embed(TruncatedOperator(SpaceLayout(0, (d,)), small, copy=False), layout,
                        (mode,))


def annihilation(layout: SpaceLayout, mode: int) -> TruncatedOperator:
    """`fock.annihilation` on one mode of `layout`."""
    return single_mode(layout, mode, fock.annihilation(layout.dims[layout.mode_axis(mode)]))


def displacement(layout: SpaceLayout, mode: int, alpha: complex) -> TruncatedOperator:
    """`fock.displacement` on one mode of `layout`."""
    return single_mode(layout, mode,
                       fock.displacement(layout.dims[layout.mode_axis(mode)], alpha))


def identity(layout: SpaceLayout) -> TruncatedOperator:
    return TruncatedOperator(layout, np.eye(layout.total_dim, dtype=complex), copy=False)


def number(layout: SpaceLayout, mode: int) -> TruncatedOperator:
    ax = layout.mode_axis(mode)
    return _embed_diagonal(layout, {ax: np.arange(layout.dims[ax], dtype=float)})


def parity(layout: SpaceLayout, mode: int) -> TruncatedOperator:
    ax = layout.mode_axis(mode)
    return _embed_diagonal(layout, {ax: fock.parity_diag(layout.dims[ax])})


def _controlled_parity_diag(layout: SpaceLayout, mode: int) -> np.ndarray:
    """The diagonal of :func:`controlled_parity` over the whole layout."""
    layout.require_ancilla()
    ax = layout.mode_axis(mode)
    shape = [2] + [1] * layout.n_modes
    shape[ax] = layout.dims[ax]
    return np.broadcast_to(fock.controlled_parity_diag(shape[ax]).reshape(shape),
                           layout.dims).ravel()


def controlled_parity(layout: SpaceLayout, mode: int) -> TruncatedOperator:
    """exp(i pi/2 (I - Z) a^dag a) from `fock.controlled_parity_diag`."""
    diag = _controlled_parity_diag(layout, mode)
    return TruncatedOperator(layout, np.diag(diag.astype(complex)), copy=False)


def qubit_rotation(layout: SpaceLayout, axis: str, angle: float) -> TruncatedOperator:
    """exp(i angle sigma) on the ancilla, embedded in the layout."""
    layout.require_ancilla()
    small = fock.qubit_rotation_matrix(axis, angle)
    return TruncatedOperator(layout, np.kron(small, np.eye(layout.total_dim // 2)), copy=False)


def _pair_cutoff(layout: SpaceLayout, mode_a: int, mode_b: int) -> int:
    if mode_a == mode_b:
        raise fock.LayoutError("a pair operator needs two distinct modes")
    da, db = layout.dims[layout.mode_axis(mode_a)], layout.dims[layout.mode_axis(mode_b)]
    if da != db:
        raise fock.LayoutError("pair operator modes must share one cutoff")
    return da


def beam_splitter_5050(layout: SpaceLayout, mode_a: int, mode_b: int) -> TruncatedOperator:
    """`fock.beam_splitter_5050`'s blocks written into a dense pair matrix."""
    d = _pair_cutoff(layout, mode_a, mode_b)
    mat = np.zeros((d * d, d * d), dtype=complex)
    for idx, block in zip(fock.pair_excitation_blocks(d), fock.beam_splitter_5050(d)):
        mat[np.ix_(idx, idx)] = block
    return tensor_embed(TruncatedOperator(SpaceLayout(0, (d, d)), mat, copy=False), layout,
                        (mode_a, mode_b))


def two_mode_swap(layout: SpaceLayout, mode_a: int, mode_b: int) -> TruncatedOperator:
    """The permutation matrix of `fock.two_mode_swap`."""
    d = _pair_cutoff(layout, mode_a, mode_b)
    mat = np.eye(d * d, dtype=complex)[fock.two_mode_swap(d)]
    return tensor_embed(TruncatedOperator(SpaceLayout(0, (d, d)), mat, copy=False), layout,
                        (mode_a, mode_b))


# ---------------------------------------------------------------------------
# logical operators and dense ancilla-mediated gates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogicalQubitRef:
    """Logical qubit k on modes (2k, 2k+1) of a layout; the two modes must
    share one cutoff."""

    index: int

    def mode_pair(self) -> tuple[int, int]:
        return (2 * self.index, 2 * self.index + 1)


def _check_pair(layout: SpaceLayout, ref: LogicalQubitRef) -> tuple[int, int]:
    ma, mb = ref.mode_pair()
    da = layout.dims[layout.mode_axis(ma)]
    db = layout.dims[layout.mode_axis(mb)]
    if da != db:
        raise fock.LayoutError("logical qubit modes must share one cutoff")
    return ma, mb


def logical_Z(layout: SpaceLayout, ref: LogicalQubitRef) -> TruncatedOperator:
    """Fock parity of the pair's second mode, embedded in the layout."""
    _, mb = _check_pair(layout, ref)
    return parity(layout, mb)


def logical_X(layout: SpaceLayout, ref: LogicalQubitRef) -> TruncatedOperator:
    """Two-mode swap of the pair, embedded in the layout."""
    ma, mb = _check_pair(layout, ref)
    return two_mode_swap(layout, ma, mb)


def pair_parity(layout: SpaceLayout, ref: LogicalQubitRef) -> TruncatedOperator:
    """Product of both modes' parities; -1 on every encoded state."""
    ma, mb = _check_pair(layout, ref)
    return parity(layout, ma) @ parity(layout, mb)


def exponential_hermitian_unitary(op: TruncatedOperator, theta: float) -> TruncatedOperator:
    """cos(theta) I + i sin(theta) O for an involution O (O^2 = I).

    This is the closed form every ancilla-mediated gate is checked against.
    """
    dev = np.abs((op @ op).matrix - np.eye(op.layout.total_dim)).max()
    if dev > INVOLUTION_TOL:
        raise ValueError(f"operator is not an involution: ||O^2 - I||_max = {dev:.3e}")
    mat = math.cos(theta) * np.eye(op.layout.total_dim) + 1j * math.sin(theta) * op.matrix
    return TruncatedOperator(op.layout, mat, copy=False)


def _conjugated_rotation(layout: SpaceLayout, c: np.ndarray, theta: float) -> TruncatedOperator:
    """C R_X(theta) C for the diagonal C with diagonal `c`, entry by entry."""
    R = qubit_rotation(layout, "x", theta).matrix
    return TruncatedOperator(layout, c[:, None] * R * c[None, :], copy=False)


def gate_UZ(layout: SpaceLayout, ref: LogicalQubitRef, theta: float) -> TruncatedOperator:
    """C R_X(theta) C: exp(i theta Z_L) on the modes, ancilla |+> -> |+>."""
    _, mb = _check_pair(layout, ref)
    return _conjugated_rotation(layout, _controlled_parity_diag(layout, mb), theta)


def gate_UX(layout: SpaceLayout, ref: LogicalQubitRef, theta: float) -> TruncatedOperator:
    """B^dag C R_X(theta) C B: exp(i theta X_L) on the modes."""
    ma, mb = _check_pair(layout, ref)
    B = beam_splitter_5050(layout, ma, mb)
    return B.adjoint() @ _conjugated_rotation(layout, _controlled_parity_diag(layout, mb),
                                              theta) @ B


def gate_UZZ(layout: SpaceLayout, ref_k: LogicalQubitRef, ref_l: LogicalQubitRef,
             theta: float) -> TruncatedOperator:
    """C_l C_k R_X(theta) C_k C_l: exp(i theta Z_L (x) Z_L) across two pairs."""
    _, mbk = _check_pair(layout, ref_k)
    _, mbl = _check_pair(layout, ref_l)
    c = _controlled_parity_diag(layout, mbl) * _controlled_parity_diag(layout, mbk)
    return _conjugated_rotation(layout, c, theta)


def _from_plus_block(gate: TruncatedOperator, bra: np.ndarray) -> np.ndarray:
    """<bra|_A gate |+>_A, an operator on the mode factor."""
    gate.layout.require_ancilla()
    rest = gate.layout.total_dim // 2
    return np.einsum("a,aibj,b->ij", bra.conj(), gate.matrix.reshape(2, rest, 2, rest),
                     fock.KET_PLUS)


def mode_factor_of_gate(gate: TruncatedOperator) -> np.ndarray:
    """<+|_A gate |+>_A: the induced map on the non-ancilla factor.

    Valid when the gate preserves |+> on the ancilla; the complementary
    block <-|gate|+> measures the ancilla leakage.
    """
    return _from_plus_block(gate, fock.KET_PLUS)


def ancilla_leakage(gate: TruncatedOperator) -> float:
    """Spectral norm of <-|gate|+>; zero when the ancilla returns to |+> exactly."""
    return float(np.linalg.norm(_from_plus_block(gate, fock.KET_MINUS), 2))


# ---------------------------------------------------------------------------
# dense thermal states and parity projection
# ---------------------------------------------------------------------------


class CutoffError(ValueError):
    """Requested cutoff too small for the requested Boltzmann tail."""


class ProjectionError(ValueError):
    """Projection onto a numerically empty branch."""


def resolved_cutoff(spec: ThermalSpec) -> int:
    """The spec's cutoff, else the smallest one whose tail is below its tolerance."""
    if spec.cutoff is not None:
        return spec.cutoff
    return thermal.required_cutoff(spec.mean_excitation, spec.tail_tol)


def thermal_state(spec: ThermalSpec) -> HybridState:
    """Truncated single-mode thermal density matrix, trace-renormalized.

    Raises CutoffError if the exact geometric tail beyond the cutoff is not
    below ``spec.tail_tol``.
    """
    d = resolved_cutoff(spec)
    q = spec.boltzmann_ratio
    tail = q ** d
    if tail >= spec.tail_tol:
        raise CutoffError(
            f"cutoff {d} leaves Boltzmann tail {tail:.3e} >= {spec.tail_tol:.1e} "
            f"at mean excitation {spec.mean_excitation}")
    w = thermal.thermal_weights(spec.mean_excitation, d)
    w = w / w.sum()
    layout = SpaceLayout(0, (d,))
    return HybridState.density(layout, np.diag(w.astype(complex)))


def parity_project(state: HybridState, mode: int, parity_sign: int) -> tuple[HybridState, float]:
    """Project one mode onto even (+1) or odd (-1) Fock parity.

    Returns the renormalized post-projection state and the outcome
    probability Tr(Pi rho Pi) / Tr(rho) with Pi = (I +- P)/2.
    """
    if parity_sign not in (+1, -1):
        raise ValueError("parity_sign must be +1 or -1")
    layout = state.layout
    P = parity(layout, mode)
    eye = np.eye(layout.total_dim)
    proj = (eye + parity_sign * P.matrix) / 2.0
    if state.is_pure:
        vec = proj @ state.data
        p = float(np.vdot(vec, vec).real) / state.trace()
        if p < PROJECTION_FLOOR:
            raise ProjectionError(f"branch probability {p:.3e} below {PROJECTION_FLOOR:.0e}")
        return HybridState.pure(layout, vec / math.sqrt(p * state.trace())), p
    mat = proj @ state.data @ proj
    p = float(np.trace(mat).real) / state.trace()
    if p < PROJECTION_FLOOR:
        raise ProjectionError(f"branch probability {p:.3e} below {PROJECTION_FLOOR:.0e}")
    return HybridState.density(layout, mat / (p * state.trace())), p


def tqp_initial_state(spec: ThermalSpec) -> HybridState:
    """Two-mode logical-zero state: odd-projected thermal (x) even-projected thermal.

    Built from the closed-form geometric branch weights, which coincide with
    projecting the truncated thermal state (and stay well defined at zero
    temperature, where the pair is |1><1| (x) |0><0|).  The two-mode parity
    expectation is -1 exactly and the second-mode parity expectation (the
    logical Z readout) is +1 exactly.
    """
    d = resolved_cutoff(spec)
    q = spec.boltzmann_ratio
    if q ** d >= spec.tail_tol:
        raise CutoffError(
            f"cutoff {d} leaves Boltzmann tail {q ** d:.3e} >= {spec.tail_tol:.1e}")
    w_odd = thermal.even_odd_weights(spec.mean_excitation, d, -1)
    w_even = thermal.even_odd_weights(spec.mean_excitation, d, +1)
    layout = SpaceLayout(0, (d, d))
    return HybridState.density(layout, np.diag(np.kron(w_odd, w_even).astype(complex)))


# ---------------------------------------------------------------------------
# the printed master equation
# ---------------------------------------------------------------------------


def lindblad_rhs(state: HybridState | np.ndarray, h: TruncatedOperator,
                 noise: NoiseParams) -> np.ndarray:
    """The printed master-equation right-hand side, evaluated once.

    Accepts a density-matrix state (or a raw density matrix) and the system
    Hamiltonian; returns d(rho)/dt as an array.  The trace of the result is
    zero to numerical precision.
    """
    if isinstance(state, HybridState):
        if state.is_pure:
            raise fock.StateError("master-equation right-hand side needs a density matrix")
        layout, rho = state.layout, state.data
    else:
        layout, rho = h.layout, np.asarray(state, dtype=complex)
    if layout.n_modes != 1:
        raise fock.LayoutError("open-system model expects one mode")
    a = annihilation(layout, 0).matrix
    out = -1j * (h.matrix @ rho - rho @ h.matrix)
    for rate, op in ((noise.rate_down, a), (noise.rate_up, a.conj().T)):
        op_dag_op = op.conj().T @ op
        out += rate * (op @ rho @ op.conj().T - 0.5 * (op_dag_op @ rho + rho @ op_dag_op))
    return out


# ---------------------------------------------------------------------------
# the abstract qubit-space oracle by dense Kronecker products
# ---------------------------------------------------------------------------

_PX = np.array([[0, 1], [1, 0]], dtype=complex)
_PZ = np.array([[1, 0], [0, -1]], dtype=complex)


def qubit_space_oracle(circuit) -> float:
    """Probability of |0...0> after the circuit, each gate exp(i angle P) a
    dense 2^K x 2^K matrix with its Pauli string P a Kronecker product."""
    k = circuit.qubit_count

    def embed(factors: dict) -> np.ndarray:
        out = np.array([[1.0 + 0j]])
        for i in range(k):
            out = np.kron(out, factors.get(i, np.eye(2)))
        return out

    psi = np.zeros(2 ** k, dtype=complex)
    psi[0] = 1.0
    eye = np.eye(2 ** k)
    for gate in msuqc.step_gates(circuit):
        if gate[0] == "zz":
            _, ka, kb, ang = gate
            op = embed({ka: _PZ, kb: _PZ})
        else:
            axis, ka, ang = gate
            op = embed({ka: _PX if axis == "x" else _PZ})
        psi = (math.cos(ang) * eye + 1j * math.sin(ang) * op) @ psi
    return float(abs(psi[0]) ** 2)
