"""Logical operators and gates for the two-qumode parity encoding.

A logical qubit lives on a pair of qumodes holding one odd- and one
even-parity state.  Logical Z is the Fock parity of the pair's second mode;
logical X is the two-mode swap.  Arbitrary-angle exponentials of these
involutions are realized with the single shared auxiliary qubit (the
ancilla, tensor axis 0 of every hybrid layout) prepared in |+>, conjugating
an ancilla X rotation by controlled-parity operations (beam-splitter
conjugation turns the parity into the swap):

    C R_X(theta) C          -> exp(i theta Z_L)   on the mode factor
    B^dag C R_X(theta) C B  -> exp(i theta X_L)
    C_l C_k R_X(theta) C_k C_l -> exp(i theta Z_L Z_L)

The ancilla returns to |+> exactly after each gate, so one ancilla serves
every gate and the nondemolition parity measurement; no function here takes
an ancilla index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .fock import HybridState, SpaceLayout, TruncatedOperator

ANCILLA_RETURN_TOL = 1e-10
INVOLUTION_TOL = 1e-10
BRANCH_FLOOR = 1e-12


class AncillaError(ValueError):
    """Auxiliary qubit not in |+> to tolerance."""


class BranchError(ValueError):
    """Measurement forced onto a numerically empty branch."""


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
    return fock.parity(layout, mb)


def logical_X(layout: SpaceLayout, ref: LogicalQubitRef) -> TruncatedOperator:
    """Two-mode swap of the pair, embedded in the layout."""
    ma, mb = _check_pair(layout, ref)
    return fock.two_mode_swap(layout, ma, mb)


def pair_parity(layout: SpaceLayout, ref: LogicalQubitRef) -> TruncatedOperator:
    """Product of both modes' parities; -1 on every encoded state."""
    ma, mb = _check_pair(layout, ref)
    return fock.parity(layout, ma) @ fock.parity(layout, mb)


def exponential_hermitian_unitary(op: TruncatedOperator, theta: float) -> TruncatedOperator:
    """cos(theta) I + i sin(theta) O for an involution O (O^2 = I).

    This is the closed form every ancilla-mediated gate is checked against.
    """
    dev = np.abs((op @ op).matrix - np.eye(op.layout.total_dim)).max()
    if dev > INVOLUTION_TOL:
        raise ValueError(f"operator is not an involution: ||O^2 - I||_max = {dev:.3e}")
    mat = math.cos(theta) * np.eye(op.layout.total_dim) + 1j * math.sin(theta) * op.matrix
    return TruncatedOperator(op.layout, mat, copy=False)


# ---------------------------------------------------------------------------
# ancilla-mediated gates
# ---------------------------------------------------------------------------


def gate_UZ(layout: SpaceLayout, ref: LogicalQubitRef, theta: float) -> TruncatedOperator:
    """C R_X(theta) C: exp(i theta Z_L) on the modes, ancilla |+> -> |+>."""
    _, mb = _check_pair(layout, ref)
    C = fock.controlled_parity(layout, mb)
    R = fock.qubit_rotation(layout, "x", theta)
    return C @ R @ C


def gate_UX(layout: SpaceLayout, ref: LogicalQubitRef, theta: float) -> TruncatedOperator:
    """B^dag C R_X(theta) C B: exp(i theta X_L) on the modes."""
    ma, mb = _check_pair(layout, ref)
    B = fock.beam_splitter_5050(layout, ma, mb)
    C = fock.controlled_parity(layout, mb)
    R = fock.qubit_rotation(layout, "x", theta)
    return B.adjoint() @ C @ R @ C @ B


def gate_UZZ(layout: SpaceLayout, ref_k: LogicalQubitRef, ref_l: LogicalQubitRef,
             theta: float) -> TruncatedOperator:
    """C_l C_k R_X(theta) C_k C_l: exp(i theta Z_L (x) Z_L) across two pairs."""
    _, mbk = _check_pair(layout, ref_k)
    _, mbl = _check_pair(layout, ref_l)
    Ck = fock.controlled_parity(layout, mbk)
    Cl = fock.controlled_parity(layout, mbl)
    R = fock.qubit_rotation(layout, "x", theta)
    return Cl @ Ck @ R @ Ck @ Cl


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


def variant_conjugate(v: TruncatedOperator, op: TruncatedOperator) -> TruncatedOperator:
    """V O V^dag: transports an operator to a unitarily transformed encoding."""
    if v.layout != op.layout:
        raise fock.LayoutError("variant unitary and operator live on different layouts")
    return v @ op @ v.adjoint()


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


def _measure_branches(state: HybridState, mode: int) -> list[ParityMeasurement]:
    """Controlled parity, then an X-basis readout of the ancilla.

    With the ancilla's Z components psi_q (rho_qq') after the controlled
    parity, the + (even) and - (odd) branches are (psi_0 +- psi_1)/sqrt(2),
    or (rho_00 + rho_11 +- (rho_01 + rho_10))/2 for a density matrix.
    """
    layout = state.layout
    _check_ancilla_plus(state)
    work = state.apply(fock.controlled_parity(layout, mode)).data
    rest = layout.total_dim // 2
    total = state.trace()
    plus_dm = np.outer(fock.KET_PLUS, fock.KET_PLUS.conj())
    out = []
    for sign in (+1, -1):
        if state.is_pure:
            psi = work.reshape(2, rest)
            branch = (psi[0] + sign * psi[1]) / math.sqrt(2)
            p = float((np.abs(branch) ** 2).sum()) / total
        else:
            rho = work.reshape(2, rest, 2, rest)
            branch = (rho[0, :, 0] + rho[1, :, 1] + sign * (rho[0, :, 1] + rho[1, :, 0])) / 2.0
            p = float(np.trace(branch).real) / total
        if p < BRANCH_FLOOR:
            post = None
        elif state.is_pure:
            post = HybridState.pure(layout, np.kron(fock.KET_PLUS, branch / math.sqrt(p * total)))
        else:
            post = HybridState.density(layout, np.kron(plus_dm, branch / (p * total)))
        out.append(ParityMeasurement(sign, p, post))
    return out


def parity_measurement_branches(state: HybridState,
                                mode: int) -> tuple[ParityMeasurement, ParityMeasurement]:
    """Deterministic mode: both measurement branches with their probabilities."""
    even, odd = _measure_branches(state, mode)
    return even, odd


def parity_measurement(state: HybridState, mode: int,
                       rng: np.random.Generator) -> ParityMeasurement:
    """Sample one parity-measurement outcome with the supplied generator.

    Nondemolition: measuring the returned state again gives the same outcome
    with probability one (up to numerical tolerance).
    """
    even, odd = _measure_branches(state, mode)
    pick = even if rng.random() < even.probability else odd
    if pick.state is None:
        raise BranchError(
            f"sampled branch {pick.sign:+d} has probability {pick.probability:.3e} "
            f"below {BRANCH_FLOOR:.0e}")
    return pick
