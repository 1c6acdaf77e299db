"""The nondemolition parity measurement of the two-qumode parity encoding.

A logical qubit lives on a pair of qumodes holding one odd- and one
even-parity state.  Logical Z is the Fock parity of the pair's second mode;
logical X is the two-mode swap.  The hybrid interaction realizes
arbitrary-angle exponentials of these involutions with the single shared
auxiliary qubit (the ancilla, tensor axis 0 of every hybrid state array)
prepared in |+>, conjugating an ancilla X rotation by controlled-parity
operations (beam-splitter conjugation turns the parity into the swap):

    C R_X(theta) C          -> exp(i theta Z_L)   on the mode factor
    B^dag C R_X(theta) C B  -> exp(i theta X_L)

The ancilla returns to |+> exactly after each gate, so ``msuqc`` applies the
logical Paulis to the mode pairs alone.  The literal circuits, on a mode
pair's blocks and as dense hybrid matrices (with the two-pair entangler
C_l C_k R_X(theta) C_k C_l -> exp(i theta Z_L Z_L)), are the tests'
cross-check and live with them.

The measurement of one mode's parity is `apply_controlled_parity` on the
``(2, d)`` or ``(2, d, 2, d)`` array of the ancilla and that mode, then the
X-basis readout of the ancilla, `x_basis_branches`, whose + branch is the
even one; no function here takes an ancilla index.  The density-matrix
routes of ``opensys.fidelity_point`` read their branches through it; its
ideal-sequence route reads the same populations off the gate's columns.
"""

from __future__ import annotations

import math

import numpy as np

from . import fock


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
