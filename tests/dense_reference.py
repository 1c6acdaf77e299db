"""Dense references that the tests check the package's routes against.

The package runs every logical gate as cos(theta) + i sin(theta) L for the
logical Pauli L on a mode pair's total-excitation blocks, with no ancilla
(`msuqc._PairBlocks.step`), runs circuits as a sum over Z_L paths, starts
circuits from closed-form parity-branch weights (`thermal.even_odd_weights`),
integrates the master equation through per-block propagators and scans the
squeeze generator's null space sector by sector.  This module holds the
literal and dense forms of the same physics, for small cutoffs where they
are dense.  Every dense operator and state here
is a plain numpy array over the flat index of a :class:`SpaceLayout`, this
module's own description of the tensor order (the shared ancilla, if any,
at axis 0, then the qumodes):

* the parity, number, controlled parity, swap, beam splitter and ancilla
  rotation as full matrices on a layout, rebuilt from the structured forms
  that `fock` gives the package (diagonals, a permutation, blocks of one
  total excitation) and embedded with identities elsewhere (`tensor_embed`);
* the logical operators and the ancilla-mediated gates as full hybrid
  matrices on a layout (`gate_UZ`, `gate_UX`, `gate_UZZ`), with the maps they
  induce on the mode factor and their ancilla leakage;
* the literal ancilla circuit C R_X(theta) C (between B and B^dag for X) on
  every block of a mode pair, with the ancilla axis and the check that the
  ancilla returns to |+> (`literal_pair_blocks`, `pair_block_gate`): the
  cross-check of the package's gate, which holds since C^2 = I;
* the joint enumeration of every entangler branch of a circuit, 2^e
  branches for e entanglers (`joint_branch_run`): the cross-check of the
  engine's sum over Z_L paths;
* the collective squeeze generator of a mode pair as one dense matrix
  (`squeeze_generator_pair`), the cross-check of the columns
  `nsverify.dfs_nonexistence` builds per sector;
* the collective noise channel E (x) E as the Kronecker product of its
  single-mode factor (`collective_channel`) and the kept-sector commutator
  on whole d^2 x d^2 matrices (`commutation_check`): the cross-check of
  `nsverify.commutation_check`, which reads each entry off the factors;
* product basis vectors (`basis`);
* the truncated thermal density matrix, its projection by the parity
  operator, and the two-mode encoded initial state;
* the nondemolition parity measurement as the literal controlled parity on
  a state (`apply_controlled_parity`) and the ancilla's X-basis readout
  (`x_basis_branches`), and the parity readout of a gate by dense
  conjugation of |+><+| (x) the thermal state (`dense_gate_readout`): the
  cross-check of `opensys.fidelity_point`'s readout off the gate's |+, k>
  columns and off the diagonals of the bath route's ancilla blocks;
* any pulse schedule's unitary segment by segment (`simulate_schedule`,
  with the bare wait `bare_rotation`): the cross-check of the sector blocks
  that `pulses.sequence_unitary` powers;
* the printed Lindblad right-hand side on the whole (ancilla, mode) space;
* each timed segment's no-jump generator, built from the printed equation
  (`no_jump_generator`): the generator the trajectory cross-check steps
  with, apart from the one `opensys` builds;
* each (q, q') block's whole d^2 x d^2 Liouvillian (`block_liouvillian`)
  and the master equation through its Pade exponential per segment
  (`block_pade_master`): the cross-check of `opensys.evolve_master`, which
  factors each segment through the damped mode's Gaussian structure;
* scipy's Pade matrix exponential, the cross-check of both of the
  package's exponentials: the eigh `fock.unitary_exponential` and the
  numpy Pade `fock.pade_exponential`;
* the abstract 2^K qubit-space oracle as dense Kronecker products, the
  cross-check of `msuqc.qubit_space_oracle`.

Test modules import it after ``conftest.py`` has pinned the BLAS threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from tqpsim import fock, msuqc, opensys, pulses, thermal
from tqpsim.opensys import NoiseParams
from tqpsim.pulses import FreeEvolution, PulseSchedule, QubitRotation
from tqpsim.thermal import ThermalSpec

INVOLUTION_TOL = 1e-10
PROJECTION_FLOOR = 1e-12
KET_MINUS = np.array([1, -1], dtype=complex) / math.sqrt(2)


def matrix_exponential(op: np.ndarray) -> np.ndarray:
    """Matrix exponential via scipy's scaled-and-squared Pade method."""
    return expm(op)


@dataclass(frozen=True)
class SpaceLayout:
    """Tensor order of a dense hybrid space: `qubit_count` (0, or 1 for the
    shared ancilla at axis 0, dimension 2), then one axis per mode, mode i
    holding |0> .. |mode_cutoffs[i] - 1>."""

    qubit_count: int
    mode_cutoffs: tuple[int, ...]

    @property
    def n_modes(self) -> int:
        return len(self.mode_cutoffs)

    @property
    def dims(self) -> tuple[int, ...]:
        return (2,) * self.qubit_count + tuple(self.mode_cutoffs)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def mode_axis(self, mode: int) -> int:
        if not 0 <= mode < self.n_modes:
            raise fock.LayoutError(f"mode index {mode} out of range [0, {self.n_modes})")
        return self.qubit_count + mode

    def require_ancilla(self) -> None:
        if self.qubit_count != 1:
            raise fock.LayoutError("layout has no ancilla")

    def basis_index(self, qubits: tuple[int, ...] = (), modes: tuple[int, ...] = ()) -> int:
        """Flat index of the product basis state |ancilla>|modes...>; `qubits`
        is the ancilla label, (0,) or (1,), or () on a mode-only layout."""
        return int(np.ravel_multi_index(tuple(qubits) + tuple(modes), self.dims))


def basis(layout: SpaceLayout, qubits: tuple[int, ...] = (),
          modes: tuple[int, ...] = ()) -> np.ndarray:
    """The product basis vector |ancilla>|modes...> on `layout`."""
    vec = np.zeros(layout.total_dim, dtype=complex)
    vec[layout.basis_index(qubits, modes)] = 1.0
    return vec


# ---------------------------------------------------------------------------
# dense operators on a layout, from the package's structured forms
# ---------------------------------------------------------------------------


def _embed_diagonal(layout: SpaceLayout, axis_diags: dict[int, np.ndarray]) -> np.ndarray:
    """Diagonal operator assembled from per-axis diagonal factors."""
    diag = np.ones(1)
    for ax, d in enumerate(layout.dims):
        diag = np.kron(diag, axis_diags.get(ax, np.ones(d)))
    return np.diag(diag.astype(complex))


def tensor_embed(op: np.ndarray, layout: SpaceLayout,
                 mode_map: tuple[int, ...]) -> np.ndarray:
    """Embed an operator on modes ``mode_map`` of `layout` (in that order)
    into the whole layout, identity elsewhere.  An identity embed (every
    mode in order, no ancilla) returns `op` itself.
    """
    axes = [layout.mode_axis(m) for m in mode_map]
    if len(set(axes)) != len(axes):
        raise fock.LayoutError("target axes must be distinct")
    sub_dims = [layout.dims[ax] for ax in axes]
    if op.shape != (math.prod(sub_dims),) * 2:
        raise fock.LayoutError("operator dimension does not match the target axes")
    if axes == list(range(len(layout.dims))):
        return op
    rest = [ax for ax in range(len(layout.dims)) if ax not in axes]
    rest_dim = math.prod(layout.dims[ax] for ax in rest)
    big = np.kron(op, np.eye(rest_dim, dtype=complex))
    # permute (sub axes..., rest axes...) -> layout order, on rows and columns
    tensor_dims = sub_dims + [layout.dims[ax] for ax in rest]
    n = len(layout.dims)
    big = big.reshape(tensor_dims + tensor_dims)
    src_order = axes + rest  # position p of the kron tensor holds layout axis src_order[p]
    perm = [src_order.index(ax) for ax in range(n)]
    return big.transpose(perm + [p + n for p in perm]).reshape(layout.total_dim,
                                                               layout.total_dim)


def single_mode(layout: SpaceLayout, mode: int, small: np.ndarray) -> np.ndarray:
    """A d x d matrix on one mode of `layout`, identity elsewhere."""
    return tensor_embed(small, layout, (mode,))


def annihilation(layout: SpaceLayout, mode: int) -> np.ndarray:
    """`fock.annihilation` on one mode of `layout`."""
    return single_mode(layout, mode, fock.annihilation(layout.dims[layout.mode_axis(mode)]))


def displacement(layout: SpaceLayout, mode: int, alpha: complex) -> np.ndarray:
    """`fock.displacement` on one mode of `layout`."""
    return single_mode(layout, mode,
                       fock.displacement(layout.dims[layout.mode_axis(mode)], alpha))


def identity(layout: SpaceLayout) -> np.ndarray:
    return np.eye(layout.total_dim, dtype=complex)


def number(layout: SpaceLayout, mode: int) -> np.ndarray:
    ax = layout.mode_axis(mode)
    return _embed_diagonal(layout, {ax: np.arange(layout.dims[ax], dtype=float)})


def parity(layout: SpaceLayout, mode: int) -> np.ndarray:
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


def controlled_parity(layout: SpaceLayout, mode: int) -> np.ndarray:
    """exp(i pi/2 (I - Z) a^dag a) from `fock.controlled_parity_diag`."""
    return np.diag(_controlled_parity_diag(layout, mode).astype(complex))


def qubit_rotation(layout: SpaceLayout, axis: str, angle: float) -> np.ndarray:
    """exp(i angle sigma) on the ancilla, embedded in the layout."""
    layout.require_ancilla()
    small = fock.qubit_rotation_matrix(axis, angle)
    return np.kron(small, np.eye(layout.total_dim // 2))


def _pair_cutoff(layout: SpaceLayout, mode_a: int, mode_b: int) -> int:
    if mode_a == mode_b:
        raise fock.LayoutError("a pair operator needs two distinct modes")
    da, db = layout.dims[layout.mode_axis(mode_a)], layout.dims[layout.mode_axis(mode_b)]
    if da != db:
        raise fock.LayoutError("pair operator modes must share one cutoff")
    return da


def beam_splitter_5050(layout: SpaceLayout, mode_a: int, mode_b: int) -> np.ndarray:
    """`fock.beam_splitter_5050`'s blocks written into a dense pair matrix."""
    d = _pair_cutoff(layout, mode_a, mode_b)
    mat = np.zeros((d * d, d * d), dtype=complex)
    for idx, block in zip(fock.pair_excitation_blocks(d), fock.beam_splitter_5050(d)):
        mat[np.ix_(idx, idx)] = block
    return tensor_embed(mat, layout, (mode_a, mode_b))


def two_mode_swap(layout: SpaceLayout, mode_a: int, mode_b: int) -> np.ndarray:
    """The permutation matrix of `fock.two_mode_swap`."""
    d = _pair_cutoff(layout, mode_a, mode_b)
    return tensor_embed(np.eye(d * d, dtype=complex)[fock.two_mode_swap(d)], layout,
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
    _pair_cutoff(layout, ma, mb)
    return ma, mb


def logical_Z(layout: SpaceLayout, ref: LogicalQubitRef) -> np.ndarray:
    """Fock parity of the pair's second mode, embedded in the layout."""
    _, mb = _check_pair(layout, ref)
    return parity(layout, mb)


def logical_X(layout: SpaceLayout, ref: LogicalQubitRef) -> np.ndarray:
    """Two-mode swap of the pair, embedded in the layout."""
    ma, mb = _check_pair(layout, ref)
    return two_mode_swap(layout, ma, mb)


def pair_parity(layout: SpaceLayout, ref: LogicalQubitRef) -> np.ndarray:
    """Product of both modes' parities; -1 on every encoded state."""
    ma, mb = _check_pair(layout, ref)
    return parity(layout, ma) @ parity(layout, mb)


def exponential_hermitian_unitary(op: np.ndarray, theta: float) -> np.ndarray:
    """cos(theta) I + i sin(theta) O for an involution O (O^2 = I).

    This is the closed form every ancilla-mediated gate is checked against.
    """
    eye = np.eye(op.shape[0])
    dev = np.abs(op @ op - eye).max()
    if dev > INVOLUTION_TOL:
        raise ValueError(f"operator is not an involution: ||O^2 - I||_max = {dev:.3e}")
    return math.cos(theta) * eye + 1j * math.sin(theta) * op


def _conjugated_rotation(layout: SpaceLayout, c: np.ndarray, theta: float) -> np.ndarray:
    """C R_X(theta) C for the diagonal C with diagonal `c`, entry by entry."""
    return c[:, None] * qubit_rotation(layout, "x", theta) * c[None, :]


def gate_UZ(layout: SpaceLayout, ref: LogicalQubitRef, theta: float) -> np.ndarray:
    """C R_X(theta) C: exp(i theta Z_L) on the modes, ancilla |+> -> |+>."""
    _, mb = _check_pair(layout, ref)
    return _conjugated_rotation(layout, _controlled_parity_diag(layout, mb), theta)


def gate_UX(layout: SpaceLayout, ref: LogicalQubitRef, theta: float) -> np.ndarray:
    """B^dag C R_X(theta) C B: exp(i theta X_L) on the modes."""
    ma, mb = _check_pair(layout, ref)
    B = beam_splitter_5050(layout, ma, mb)
    return B.conj().T @ _conjugated_rotation(layout, _controlled_parity_diag(layout, mb),
                                             theta) @ B


def gate_UZZ(layout: SpaceLayout, ref_k: LogicalQubitRef, ref_l: LogicalQubitRef,
             theta: float) -> np.ndarray:
    """C_l C_k R_X(theta) C_k C_l: exp(i theta Z_L (x) Z_L) across two pairs."""
    _, mbk = _check_pair(layout, ref_k)
    _, mbl = _check_pair(layout, ref_l)
    c = _controlled_parity_diag(layout, mbl) * _controlled_parity_diag(layout, mbk)
    return _conjugated_rotation(layout, c, theta)


def _from_plus_block(gate: np.ndarray, bra: np.ndarray) -> np.ndarray:
    """<bra|_A gate |+>_A, an operator on the mode factor of a gate whose
    ancilla is axis 0."""
    rest = gate.shape[0] // 2
    return np.einsum("a,aibj,b->ij", bra.conj(), gate.reshape(2, rest, 2, rest),
                     fock.KET_PLUS)


def mode_factor_of_gate(gate: np.ndarray) -> np.ndarray:
    """<+|_A gate |+>_A: the induced map on the non-ancilla factor.

    Valid when the gate preserves |+> on the ancilla; the complementary
    block <-|gate|+> measures the ancilla leakage.
    """
    return _from_plus_block(gate, fock.KET_PLUS)


def ancilla_leakage(gate: np.ndarray) -> float:
    """Spectral norm of <-|gate|+>; zero when the ancilla returns to |+> exactly."""
    return float(np.linalg.norm(_from_plus_block(gate, KET_MINUS), 2))


def squeeze_generator_pair(cutoff: int) -> np.ndarray:
    """a_1^2 - a_1^dag^2 + a_2^2 - a_2^dag^2 on a mode pair with one cutoff, as
    the whole cutoff^2 x cutoff^2 matrix of products of Kronecker embeddings."""
    a, eye = fock.annihilation(cutoff), np.eye(cutoff)
    a1, a2 = np.kron(a, eye), np.kron(eye, a)
    return (a1 @ a1 - a1.conj().T @ a1.conj().T
            + a2 @ a2 - a2.conj().T @ a2.conj().T)


def collective_channel(single: np.ndarray) -> np.ndarray:
    """E (x) E on a mode pair from its single-mode factor E (flat index i d + j)."""
    return np.kron(single, single)


def commutation_check(noise: np.ndarray, logical: np.ndarray) -> float:
    """Max-abs entry of [E, L] between the pair states of total excitation <=
    d // 3, for two d^2 x d^2 matrices of one cutoff d:
    E[keep] L[:, keep] - L[keep] E[:, keep]."""
    d = math.isqrt(len(noise))
    assert noise.shape == logical.shape == (d * d, d * d)
    keep = np.concatenate(fock.pair_excitation_blocks(d)[:d // 3 + 1])
    return float(np.abs(noise[keep] @ logical[:, keep] - logical[keep] @ noise[:, keep]).max())


# ---------------------------------------------------------------------------
# the literal ancilla circuit on a mode pair's total-excitation blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiteralPairBlocks:
    """Every total-excitation block t = 0 .. 2d - 2 of a mode pair, zero padded
    to d states, in the order and padding of ``msuqc._PairBlocks`` with unit
    weights, plus the ancilla: `bs` holds the beam splitter's blocks
    (T, 1, d, d), `cp` the controlled-parity diagonal (T, 2, d, 1), `first`
    the first-mode Fock number (-1 on padding) and `parity` the second-mode
    parity (0 on padding), both (T, 1, d, 1); `initial` is |+> (x) one column
    per block state (T, 2, d, d) and `columns` (T, d) marks the columns that
    hold one."""

    bs: np.ndarray
    cp: np.ndarray
    first: np.ndarray
    parity: np.ndarray
    initial: np.ndarray
    columns: np.ndarray


def literal_pair_blocks(cutoff: int) -> LiteralPairBlocks:
    """The operands of :func:`pair_block_gate` on every block of a mode pair,
    read from `fock`'s beam-splitter blocks and controlled-parity diagonal."""
    d = cutoff
    blocks = fock.pair_excitation_blocks(d)
    nb = len(blocks)
    bs = np.zeros((nb, 1, d, d), dtype=complex)
    cp = np.zeros((nb, 2, d, 1), dtype=complex)
    first = np.full((nb, 1, d, 1), -1)
    parity = np.zeros((nb, 1, d, 1))
    initial = np.zeros((nb, 2, d, d), dtype=complex)
    controlled = fock.controlled_parity_diag(d).reshape(2, d)
    for b, (idx, block) in enumerate(zip(blocks, fock.beam_splitter_5050(d))):
        m = idx.size
        i, j = np.divmod(idx, d)
        bs[b, 0, :m, :m] = block
        cp[b, :, :m, 0] = controlled[:, j]
        first[b, 0, :m, 0] = i
        parity[b, 0, :m, 0] = (-1.0) ** j
        initial[b, :, np.arange(m), np.arange(m)] = 1 / math.sqrt(2)
    return LiteralPairBlocks(bs, cp, first, parity, initial, first[:, 0, :, 0] >= 0)


ANCILLA_RETURN_TOL = 1e-10


def pair_block_gate(state: np.ndarray, axis: str, theta: float, bs: np.ndarray,
                    cp: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """exp(i theta Z_L) (`axis` "z") or exp(i theta X_L) (`axis` "x") on one
    mode pair, by its literal ancilla circuit: C R_X(theta) C, between B and
    B^dag for X.  The cross-check of the package's gate,
    ``msuqc._PairBlocks.step``, which applies cos(theta) + i sin(theta) L
    to the mode pair alone.

    The pair is held by total-excitation block.  `state` has shape
    (T, 2, n, c): block, ancilla Z level, state within the block and column.
    `bs` holds the 50:50 beam splitter's blocks, shaped (T, 1, n, n), and
    `cp` the controlled-parity diagonal, shaped (T, 2, n, 1).  Blocks are
    zero padded to n states and c columns; `columns`, shaped (T, c), marks
    the columns that hold a state.  Returns the new state.  Raises
    ``fock.StateError`` if any such column's ancilla weight on |->, relative
    to the column's norm, exceeds ``ANCILLA_RETURN_TOL``.
    """
    if axis not in ("z", "x"):
        raise ValueError(f"axis must be 'z' or 'x', got {axis!r}")
    if axis == "x":
        state = bs @ state
    # R_X(theta) = cos(theta) I + i sin(theta) X on the ancilla axis, where X swaps
    # its two slices
    controlled = cp * state
    state = math.cos(theta) * controlled
    controlled *= 1j * math.sin(theta)
    state += controlled[:, ::-1]
    state *= cp
    if axis == "x":
        state = bs.conj().transpose(0, 1, 3, 2) @ state
    w_minus = (np.abs(state[:, 0] - state[:, 1]) ** 2).sum(axis=1) / 2
    w_tot = (np.abs(state) ** 2).sum(axis=(1, 2))
    leak = float(np.max(w_minus[columns] / w_tot[columns]))
    if leak > ANCILLA_RETURN_TOL:
        raise fock.StateError(f"ancilla failed to return to |+>: weight {leak:.3e}")
    return state


# ---------------------------------------------------------------------------
# the joint branch enumeration of a circuit's entanglers
# ---------------------------------------------------------------------------


def joint_branch_run(circuit, pairs, masks) -> tuple[list[float], float]:
    """``msuqc._run_on_pairs`` by enumerating every entangler branch jointly,
    with no budget: the cross-check of the engine's Z_L path sum, taking the
    same arguments and returning the same values.

    An entangler exp(i gamma P_a P_b) splits every branch into cos(gamma) I
    and i sin(gamma) P_a P_b, so the state is a sum of 2^e pair-product
    branches for e entanglers and the expectation of a product of per-pair
    diagonal masks factorizes over pairs: a 2^e x 2^e matrix of coefficient
    products times each pair's gram, gathered at the branches' state indices.
    A rotation is ``_PairBlocks.step`` with the other angle 0.
    """
    # states[p][s] lists the distinct states of stack s of pair p; a branch is
    # a coefficient and the index of its state in every pair's lists
    states = [[[stack.initial] for stack in stacks] for stacks in pairs]
    coeffs = np.ones(1, dtype=complex)
    index = np.zeros((1, len(pairs)), dtype=int)
    for gate in msuqc.step_gates(circuit):
        if gate[0] == "zz":
            _, ka, kb, ang = gate
            flipped = index.copy()
            for p in (ka, kb):
                flipped[:, p] += len(states[p][0])
                states[p] = [vs + [stack.parity * v for v in vs]
                             for stack, vs in zip(pairs[p], states[p])]
            index = np.concatenate([index, flipped])
            coeffs = np.concatenate([math.cos(ang) * coeffs, 1j * math.sin(ang) * coeffs])
        else:
            axis, p, ang = gate
            angles = (ang, 0.0) if axis == "x" else (0.0, ang)
            states[p] = [[stack.step(v, *angles) for v in vs]
                         for stack, vs in zip(pairs[p], states[p])]
    values = []
    for observable in masks:
        terms = np.outer(coeffs.conj(), coeffs)
        for p, (stacks, mask) in enumerate(zip(pairs, observable)):
            gram = sum(stack.gram(np.stack(vs), m) for stack, vs, m in zip(stacks, states[p], mask))
            terms = terms * gram[np.ix_(index[:, p], index[:, p])]
        values.append(float(terms.sum().real))
    broken = [sum(stack.broken_weight for stack in stacks) for stacks in pairs]
    return values, 1.0 - math.prod(1.0 - w for w in broken)


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


def thermal_state(spec: ThermalSpec) -> np.ndarray:
    """Truncated single-mode thermal density matrix, d x d, trace-renormalized.

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
    return np.diag(w.astype(complex))


def parity_project(layout: SpaceLayout, state: np.ndarray, mode: int,
                   parity_sign: int) -> tuple[np.ndarray, float]:
    """Project one mode of a state on `layout`, a vector or a density matrix,
    onto even (+1) or odd (-1) Fock parity.

    Returns the renormalized post-projection state and the outcome
    probability Tr(Pi rho Pi) / Tr(rho) with Pi = (I +- P)/2.
    """
    if parity_sign not in (+1, -1):
        raise ValueError("parity_sign must be +1 or -1")
    proj = (np.eye(layout.total_dim) + parity_sign * parity(layout, mode)) / 2.0
    pure = state.ndim == 1
    out = proj @ state if pure else proj @ state @ proj
    weight = (lambda x: np.vdot(x, x).real) if pure else (lambda x: np.trace(x).real)
    total = weight(state)
    p = float(weight(out)) / total
    if p < PROJECTION_FLOOR:
        raise ProjectionError(f"branch probability {p:.3e} below {PROJECTION_FLOOR:.0e}")
    return out / (math.sqrt(p * total) if pure else p * total), p


def tqp_initial_state(spec: ThermalSpec) -> np.ndarray:
    """Two-mode logical-zero state, a d^2 x d^2 density matrix: odd-projected
    thermal (x) even-projected thermal.

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
    return np.diag(np.kron(w_odd, w_even).astype(complex))


# ---------------------------------------------------------------------------
# the literal parity measurement and the dense readout of a gate
# ---------------------------------------------------------------------------


def apply_controlled_parity(state: np.ndarray) -> np.ndarray:
    """C|psi> or C rho C for the controlled parity C on the ancilla and one
    mode: a ``(2, d)`` pure state or a ``(2, d, 2, d)`` density array, with the
    same shape returned.  C is diagonal, so this is an entry-wise product.
    Any other shape raises ``fock.LayoutError``."""
    d = state.shape[1] if state.ndim in (2, 4) else 0
    if state.shape not in ((2, d), (2, d, 2, d)):
        raise fock.LayoutError(f"controlled parity acts on a (2, d) or (2, d, 2, d) array, "
                               f"got shape {state.shape}")
    c = fock.controlled_parity_diag(d).reshape(2, d)
    return c * state if state.ndim == 2 else c[:, :, None, None] * state * c


def x_basis_branches(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unnormalised + and - branches of an X-basis readout of the ancilla
    (axis 0) on a flat pure state or a density matrix; the + branch is the
    even one after `apply_controlled_parity`.

    With the ancilla's Z components psi_q (blocks rho_qq'), the branches are
    (psi_0 +- psi_1)/sqrt(2), or (rho_00 + rho_11 +- (rho_01 + rho_10))/2 on
    the rest of the space.  Their norms (traces) are the branch probabilities.
    """
    rest = data.shape[0] // 2
    if data.ndim == 1:
        psi = data.reshape(2, rest)
        return (psi[0] + psi[1]) / math.sqrt(2), (psi[0] - psi[1]) / math.sqrt(2)
    rho = data.reshape(2, rest, 2, rest)
    diag, off = rho[0, :, 0] + rho[1, :, 1], rho[0, :, 1] + rho[1, :, 0]
    return (diag + off) / 2.0, (diag - off) / 2.0


def branch_readout(rho: np.ndarray) -> tuple[float, float, float, float]:
    """(p+, p-, fidelity, truncation tail) of a 2d x 2d (ancilla, mode)
    density matrix after the controlled parity, read out through
    `x_basis_branches` with `opensys.fidelity_point`'s conventions."""
    d = rho.shape[0] // 2
    tail = float(rho.diagonal().real.reshape(2, d)[:, -1].sum())
    probs, traces = [], []
    for sign, branch in zip((+1, -1), x_basis_branches(rho)):
        pops = branch.diagonal().real
        p = float(pops.sum())
        probs.append(p)
        traces.append(1.0 + sign * float(pops @ fock.parity_diag(d)) / p
                      if p >= opensys.DEGENERATE_BRANCH_FLOOR else 2.0)
    return probs[0], probs[1], traces[0] * traces[1] / 4.0, tail


def dense_gate_readout(gate: np.ndarray, n_mean: float) -> tuple[float, float, float, float]:
    """`branch_readout` of |+><+| (x) the renormalised thermal state
    conjugated by a 2d x 2d (ancilla, mode) gate as one dense product.  The
    cross-check of the column readout of `opensys.fidelity_point`'s closed
    routes."""
    d = gate.shape[0] // 2
    rho = gate @ opensys._thermal_with_ancilla(n_mean, d).reshape(2 * d, 2 * d) @ gate.conj().T
    return branch_readout(rho)


# ---------------------------------------------------------------------------
# pulse schedules segment by segment
# ---------------------------------------------------------------------------


def bare_rotation(nu: float, t: float, cutoff: int) -> np.ndarray:
    """exp(-i nu t a^dag a) on (ancilla, mode): the ideal waiting evolution."""
    return np.diag(np.kron(np.ones(2), np.exp(-1j * nu * t * np.arange(cutoff))))


def simulate_schedule(schedule: PulseSchedule, params, cutoff: int) -> np.ndarray:
    """Unitary of the whole schedule on (ancilla, mode), segments in time
    order: the cross-check of `pulses.sequence_unitary`'s sector blocks.

    The unitary is held as a (2, d, 2d) array, its rows split by ancilla Z
    level.  Free evolutions apply the closed-form per-level blocks U_pm(t)
    as one batched product; rotations are ideal and instantaneous, the 2 x 2
    ancilla matrix acting on the level axis; waiting periods are ideal bare
    evolutions, a diagonal phase on every level.
    """
    d = cutoff
    free_cache: dict[float, np.ndarray] = {}
    u = np.eye(2 * d, dtype=complex).reshape(2, d, 2 * d)
    for seg in schedule.segments:
        if isinstance(seg, QubitRotation):
            u = pulses._on_ancilla(fock.qubit_rotation_matrix(seg.axis, seg.angle), u)
        elif isinstance(seg, FreeEvolution):
            if seg.duration not in free_cache:
                free_cache[seg.duration] = pulses._free_blocks(params, seg.duration, d)
            u = free_cache[seg.duration] @ u
        else:
            u = np.exp(-1j * params.nu * seg.duration * np.arange(d))[:, None] * u
    return u.reshape(2 * d, 2 * d)


# ---------------------------------------------------------------------------
# the printed master equation
# ---------------------------------------------------------------------------


def lindblad_rhs(rho: np.ndarray, h: np.ndarray, noise: NoiseParams) -> np.ndarray:
    """The printed master-equation right-hand side, evaluated once.

    `rho` is a (2, d, 2, d) density array, as ``opensys`` holds it, and `h`
    the 2d x 2d system Hamiltonian; returns d(rho)/dt in the shape of `rho`.
    The trace of the result is zero to numerical precision.  A pure (2, d)
    state raises ``fock.StateError``.
    """
    if rho.ndim != 4:
        raise fock.StateError("master-equation right-hand side needs a density array")
    d = rho.shape[1]
    mat = rho.reshape(2 * d, 2 * d)
    a = annihilation(SpaceLayout(1, (d,)), 0)
    out = -1j * (h @ mat - mat @ h)
    for rate, op in ((noise.rate_down, a), (noise.rate_up, a.conj().T)):
        op_dag_op = op.conj().T @ op
        out += rate * (op @ mat @ op.conj().T - 0.5 * (op_dag_op @ mat + mat @ op_dag_op))
    return out.reshape(rho.shape)


def no_jump_generator(noise: NoiseParams, seg_type: type, d: int) -> np.ndarray:
    """The (2, d, d) no-jump generator of a timed segment of type `seg_type`,
    one d x d block per ancilla Z level, built from the printed master
    equation: K_q = H_q - i/2 (r_down a^dag a + r_up a a^dag), H_q from
    `pulses.level_hamiltonians` with the coupling off while waiting."""
    a = annihilation(SpaceLayout(0, (d,)), 0)
    eta = noise.eta if seg_type is FreeEvolution else 0.0
    decay = noise.rate_down * a.conj().T @ a + noise.rate_up * a @ a.conj().T
    return pulses.level_hamiltonians(noise.nu, eta, d) - 0.5j * decay


def block_liouvillian(noise: NoiseParams, seg_type: type, q: int, q2: int,
                      d: int) -> np.ndarray:
    """The d^2 x d^2 generator of the (q, q') block of rho in a timed segment
    of type `seg_type` (unit duration), on the row-major vec of the block:

        d/dt rho_qq' = -i K_q rho_qq' + i rho_qq' K_q'^dag
                       + r_down a rho_qq' a^dag + r_up a^dag rho_qq' a,

    with K the segment's no-jump generator (`no_jump_generator`)."""
    a, eye = annihilation(SpaceLayout(0, (d,)), 0), np.eye(d)
    k = no_jump_generator(noise, seg_type, d)
    # row-major vec(A X B) = (A kron B^T) vec(X)
    jumps = noise.rate_down * np.kron(a, a.conj()) + noise.rate_up * np.kron(a.conj().T, a.T)
    return -1j * (np.kron(k[q], eye) - np.kron(eye, k[q2].conj())) + jumps


def block_pade_master(rho: np.ndarray, schedule, noise: NoiseParams) -> np.ndarray:
    """The master equation through the exponential of each block's whole
    Liouvillian (`block_liouvillian`): the cross-check of
    `opensys.evolve_master`'s factored route.

    Takes and returns a (2, d, 2, d) density array.  Exact on the truncated
    model up to rounding.  Each block's Liouvillian times the segment's
    duration is exponentiated by the scaled and squared Pade
    `fock.pade_exponential`, built once per (segment, q <= q') and reused
    (one per waiting segment, whose uncoupled blocks share a generator); the
    (q', q) block is set to the adjoint of the evolved (q, q') block.
    Instantaneous rotations are exact 2 x 2 conjugations on the ancilla
    axes.  A generator whose entries or 1-norm overflow is a ValueError
    naming the noise and the cutoff.
    """
    d = rho.shape[1]
    rho = np.array(rho, dtype=complex)
    props = {}
    for seg in schedule.segments:
        if isinstance(seg, QubitRotation):
            r = fock.qubit_rotation_matrix(seg.axis, seg.angle)
            rho = np.einsum("pq,qasb,rs->parb", r, rho, r.conj())
            continue
        if seg.duration == 0.0:
            continue
        for q in range(2):
            for q2 in range(q, 2):
                # while waiting the coupling is off and every block shares one generator
                key = (seg, q, q2) if isinstance(seg, FreeEvolution) else (seg, 0, 0)
                if key not in props:
                    with np.errstate(over="ignore", invalid="ignore"):
                        gen = block_liouvillian(noise, type(seg), *key[1:], d)
                        gen *= seg.duration  # in place: one d^2 x d^2 array less
                        norm = np.abs(gen).sum(axis=0).max()
                    if not math.isfinite(norm):  # NaN too: an entry or the 1-norm overflowed
                        raise ValueError(f"the master equation's generator is not finite "
                                         f"(noise {noise!r}, cutoff {d})")
                    props[key] = fock.pade_exponential(gen)
                rho[q, :, q2, :] = (props[key] @ rho[q, :, q2, :].reshape(-1)).reshape(d, d)
                if q2 != q:  # rho is Hermitian: the (q', q) block is the adjoint
                    rho[q2, :, q, :] = rho[q, :, q2, :].conj().T
    return rho


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
