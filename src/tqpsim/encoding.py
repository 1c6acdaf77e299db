"""The ancilla-mediated logical gates and parity measurement of the
two-qumode parity encoding.

A logical qubit lives on a pair of qumodes holding one odd- and one
even-parity state.  Logical Z is the Fock parity of the pair's second mode;
logical X is the two-mode swap.  Arbitrary-angle exponentials of these
involutions are realized with the single shared auxiliary qubit (the
ancilla, tensor axis 0 of every hybrid state array) prepared in |+>, conjugating
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
an ancilla index.  The measurement of one mode's parity is
`apply_controlled_parity` on the ``(2, d)`` or ``(2, d, 2, d)`` array of the
ancilla and that mode, then the X-basis readout of the ancilla,
`x_basis_branches`, whose + branch is the even one.  That readout is the only
one in the package: every ``opensys.fidelity_point`` route reads its
branches through it.
"""

from __future__ import annotations

import math

import numpy as np

from . import fock

ANCILLA_RETURN_TOL = 1e-10


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
