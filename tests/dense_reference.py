"""Dense references that the tests check the package's routes against.

The package runs every logical gate on a mode pair's total-excitation blocks
(`encoding.pair_block_gate`), starts circuits from closed-form parity-branch
weights (`thermal.even_odd_weights`) and integrates the master equation
through per-block propagators.  This module holds the direct, dense forms of
the same physics, for small cutoffs only:

* the logical operators and the ancilla-mediated gates as full hybrid
  matrices on a layout (`gate_UZ`, `gate_UX`, `gate_UZZ`), with the maps they
  induce on the mode factor and their ancilla leakage;
* the truncated thermal density matrix, its projection by the parity
  operator, and the two-mode encoded initial state;
* the printed Lindblad right-hand side on the whole (ancilla, mode) space.

Test modules import it after ``conftest.py`` has pinned the BLAS threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tqpsim import fock, thermal
from tqpsim.fock import HybridState, SpaceLayout, TruncatedOperator
from tqpsim.opensys import NoiseParams
from tqpsim.thermal import ThermalSpec

INVOLUTION_TOL = 1e-10
PROJECTION_FLOOR = 1e-12


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
    P = fock.parity(layout, mode)
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
    a = fock.annihilation(layout, 0).matrix
    out = -1j * (h.matrix @ rho - rho @ h.matrix)
    for rate, op in ((noise.rate_down, a), (noise.rate_up, a.conj().T)):
        op_dag_op = op.conj().T @ op
        out += rate * (op @ rho @ op.conj().T - 0.5 * (op_dag_op @ rho + rho @ op_dag_op))
    return out
