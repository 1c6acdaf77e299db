"""The ancilla-mediated logical gates and parity measurement of the
two-qumode parity encoding.

A logical qubit lives on a pair of qumodes holding one odd- and one
even-parity state.  Logical Z is the Fock parity of the pair's second mode;
logical X is the two-mode swap.  Arbitrary-angle exponentials of these
involutions are realized with the single shared auxiliary qubit (the
ancilla, tensor axis 0 of every hybrid layout) prepared in |+>, conjugating
an ancilla X rotation by controlled-parity operations (beam-splitter
conjugation turns the parity into the swap):

    C R_X(theta) C          -> exp(i theta Z_L)   on the mode factor
    B^dag C R_X(theta) C B  -> exp(i theta X_L)

Both circuits are written once, in :func:`pair_block_gate`, on a mode pair
held by blocks of fixed total excitation (every gate conserves it), and
``msuqc`` runs its circuits through that function.  The dense hybrid
matrices of the same gates, and of the two-pair entangler
C_l C_k R_X(theta) C_k C_l -> exp(i theta Z_L Z_L), are the tests'
cross-check and live with them.

The ancilla returns to |+> exactly after each gate, so one ancilla serves
every gate and the nondemolition parity measurement; no function here takes
an ancilla index.  The measurement's X-basis readout of the ancilla
(`x_basis_branches`) is the only one in the package: every
``opensys.fidelity_point`` route reads its branches through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .fock import HybridState

ANCILLA_RETURN_TOL = 1e-10
BRANCH_FLOOR = 1e-12


class AncillaError(ValueError):
    """Auxiliary qubit not in |+> to tolerance."""


class BranchError(ValueError):
    """Measurement forced onto a numerically empty branch."""


# ---------------------------------------------------------------------------
# ancilla-mediated gates
# ---------------------------------------------------------------------------


def pair_block_gate(state: np.ndarray, axis: str, theta: float, bs: np.ndarray,
                    cp: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """exp(i theta Z_L) (`axis` "z") or exp(i theta X_L) (`axis` "x") on one
    mode pair, by its literal ancilla circuit: C R_X(theta) C, between B and
    B^dag for X.

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
    # its two slices; in place on this function's own arrays, and no copy of the
    # state outlives the rotation
    controlled = cp * state
    state = math.cos(theta) * controlled
    controlled *= 1j * math.sin(theta)
    state += controlled[:, ::-1]
    state *= cp
    del controlled
    if axis == "x":
        state = bs.conj().transpose(0, 1, 3, 2) @ state
    w_minus = (np.abs(state[:, 0] - state[:, 1]) ** 2).sum(axis=1) / 2
    w_tot = (np.abs(state) ** 2).sum(axis=(1, 2))
    leak = float(np.max(w_minus[columns] / w_tot[columns]))
    if leak > ANCILLA_RETURN_TOL:
        raise fock.StateError(f"ancilla failed to return to |+>: weight {leak:.3e}")
    return state


# ---------------------------------------------------------------------------
# nondemolition parity measurement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParityMeasurement:
    """One branch of the ancilla-mediated parity measurement.

    `sign` +1 marks the even branch.  `state` is the full post-measurement
    state with the ancilla deterministically reset to |+> so it can be
    reused; the mode factor has definite parity.  `state` is None for a
    branch whose probability is numerically zero.
    """

    sign: int
    probability: float
    state: HybridState | None


def _check_ancilla_plus(state: HybridState) -> None:
    red = state.reduced_qubit()
    tr = float(np.trace(red).real)
    fid = float((fock.KET_PLUS.conj() @ red @ fock.KET_PLUS).real) / tr
    if 1.0 - fid > ANCILLA_RETURN_TOL:
        raise AncillaError(f"ancilla |+> fidelity deficit {1.0 - fid:.3e} exceeds tolerance")


def apply_controlled_parity(state: HybridState, mode: int) -> np.ndarray:
    """The data of C|psi> or C rho C, for the controlled parity C on the
    ancilla and `mode`; C is diagonal, so this is an entry-wise product."""
    layout = state.layout
    ax = layout.mode_axis(mode)
    c = fock.apply_diag_local(np.ones(layout.total_dim), layout.dims,
                              fock.controlled_parity_diag(layout.dims[ax]), (0, ax))
    return c * state.data if state.is_pure else c[:, None] * state.data * c


def x_basis_branches(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unnormalised + and - branches of an X-basis readout of the ancilla
    (axis 0) on a flat pure state or a density matrix.

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


def parity_measurement_branches(state: HybridState,
                                mode: int) -> tuple[ParityMeasurement, ParityMeasurement]:
    """Deterministic mode: both measurement branches with their probabilities,
    even first.  Controlled parity, then an X-basis readout of the ancilla
    (:func:`x_basis_branches`); the + branch is the even one."""
    layout = state.layout
    _check_ancilla_plus(state)
    total = state.trace()
    plus_dm = np.outer(fock.KET_PLUS, fock.KET_PLUS.conj())
    out = []
    for sign, branch in zip((+1, -1), x_basis_branches(apply_controlled_parity(state, mode))):
        if state.is_pure:
            p = float((np.abs(branch) ** 2).sum()) / total
        else:
            p = float(np.trace(branch).real) / total
        if p < BRANCH_FLOOR:
            post = None
        elif state.is_pure:
            post = HybridState.pure(layout, np.kron(fock.KET_PLUS, branch / math.sqrt(p * total)))
        else:
            post = HybridState.density(layout, np.kron(plus_dm, branch / (p * total)))
        out.append(ParityMeasurement(sign, p, post))
    return tuple(out)


def parity_measurement(state: HybridState, mode: int,
                       rng: np.random.Generator) -> ParityMeasurement:
    """Sample one parity-measurement outcome with the supplied generator.

    Nondemolition: measuring the returned state again gives the same outcome
    with probability one (up to numerical tolerance).
    """
    even, odd = parity_measurement_branches(state, mode)
    pick = even if rng.random() < even.probability else odd
    if pick.state is None:
        raise BranchError(
            f"sampled branch {pick.sign:+d} has probability {pick.probability:.3e} "
            f"below {BRANCH_FLOOR:.0e}")
    return pick
