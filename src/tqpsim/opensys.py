"""Open-system dynamics of the hybrid qubit-qumode system.

The mode couples to a hot background through the standard damping dissipators

    rho' = -i [H, rho] + (nu/Q)(N_th + 1) D{a} rho + (nu/Q) N_th D{a^dag} rho

with D{O} rho = O rho O^dag - 1/2 {O^dag O, rho}.  Two solvers are provided:
the master equation through exact per-block segment propagators (the
Hamiltonian is diagonal in the ancilla's Z basis and the jumps act on the
mode alone, so each (q, q') block of rho evolves on its own), and a
Monte-Carlo wavefunction unravelling that carries all trajectories as columns
of one array through exact per-segment non-Hermitian propagators, bisecting
the jump time (dyadically) only in the columns whose norm crossed their
threshold.

On top of these sit the measurement-fidelity curves for the engineered
controlled-parity (closed-system by default: the dominant error there is the
quartic excitation-dependent term of the pulse sequence, not bath noise),
the closed-form initialisation-error estimate for the parity encoding, and
the comparison against dissipative-cooling error in the unresolved-sideband
regime.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm as _expm
from scipy.optimize import minimize as _minimize

from . import fock, pulses
from .fock import HybridState, SpaceLayout, TruncatedOperator
from .pulses import (FreeEvolution, HybridHamiltonianParams, PulseSchedule,
                     QubitRotation, WaitingPeriod)
from .thermal import required_cutoff, thermal_weights

DEGENERATE_BRANCH_FLOOR = 1e-9
JUMP_BISECTION_LEVELS = 40


class ConvergenceError(RuntimeError):
    """A numerical optimisation failed to converge."""


@dataclass(frozen=True)
class NoiseParams:
    """Rates for the damped hybrid system, all in units of the mode frequency.

    Q is the mode quality factor; N_th the background occupation; the
    engineered qubit decay/dephasing rates and the drive detuning/Rabi
    frequency only enter the cooling comparison.
    """

    Q: float
    nu: float = 1.0
    eta: float = 0.0
    N_th: float = 0.0
    Gamma_dc: float = 0.0
    Gamma_dp: float = 0.0
    Delta: float = 0.0
    Omega: float = 0.0

    def __post_init__(self):
        if self.Q <= 0:
            raise ValueError("quality factor must be positive")
        for name in ("nu", "eta", "N_th", "Gamma_dc", "Gamma_dp", "Delta", "Omega"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def rate_down(self) -> float:
        return self.nu / self.Q * (self.N_th + 1.0)

    @property
    def rate_up(self) -> float:
        return self.nu / self.Q * self.N_th

    def hybrid_params(self) -> HybridHamiltonianParams:
        return HybridHamiltonianParams(eta=self.eta, nu=self.nu)


@dataclass(frozen=True)
class FidelityPoint:
    """One point of a measurement-fidelity curve.

    `fidelity` is Tr(rho_plus (I + P)) Tr(rho_minus (I - P)) / 4 over the
    normalized post-measurement branches; a branch with probability below
    1e-9 contributes a factor 1 (an empty branch carries no infidelity
    evidence).  `baseline` is the thermal ground-state fidelity 1/(n+1).
    """

    mean_excitation: float
    fidelity: float
    repetitions: int
    eta: float
    p_plus: float
    p_minus: float
    baseline: float
    cutoff: int


# ---------------------------------------------------------------------------
# Lindblad right-hand side
# ---------------------------------------------------------------------------


class _DampedModeModel:
    """Precomputed operators for one (<=1 qubit, 1 mode) layout."""

    def __init__(self, layout: SpaceLayout, noise: NoiseParams):
        if layout.n_modes != 1 or layout.qubit_count > 1:
            raise fock.LayoutError("open-system model expects one mode and at most one qubit")
        self.noise = noise
        self.d = layout.mode_cutoffs[0]
        self.a = fock.annihilation(layout, 0).matrix
        self.a_mode = self.a[:self.d, :self.d]  # a on the mode alone (one ancilla level)
        self.ad = self.a.conj().T
        self.ada = self.ad @ self.a
        self.aad = self.a @ self.ad
        self.n_diag = np.diag(self.ada).real.copy()
        if layout.qubit_count == 1:
            coupling = fock.qubit_pauli(layout, 0, "z").matrix @ (self.a + self.ad)
        else:
            coupling = self.a + self.ad
        self.h_free_lab = noise.nu * self.ada + noise.nu * noise.eta * coupling
        self.h_wait_lab = noise.nu * self.ada
        # anti-Hermitian no-jump term: H - i/2 sum_k L_k^dag L_k = H + decay
        self.decay = -0.5j * (noise.rate_down * self.ada + noise.rate_up * self.aad)

    def segment_hamiltonian(self, seg: FreeEvolution | WaitingPeriod) -> np.ndarray:
        """Lab-frame Hamiltonian of a timed segment (the coupling is off while waiting)."""
        return self.h_free_lab if isinstance(seg, FreeEvolution) else self.h_wait_lab

    def dissipator(self, rho: np.ndarray) -> np.ndarray:
        r1, r2 = self.noise.rate_down, self.noise.rate_up
        out = np.zeros_like(rho)
        if r1:
            out += r1 * (self.a @ rho @ self.ad
                         - 0.5 * (self.ada @ rho + rho @ self.ada))
        if r2:
            out += r2 * (self.ad @ rho @ self.a
                         - 0.5 * (self.aad @ rho + rho @ self.aad))
        return out

    def rhs_lab(self, rho: np.ndarray, h: np.ndarray) -> np.ndarray:
        return -1j * (h @ rho - rho @ h) + self.dissipator(rho)

    def block(self, q: int) -> slice:
        """Rows of ancilla level q (the whole space without an ancilla)."""
        return slice(q * self.d, (q + 1) * self.d)

    def block_generator(self, seg: FreeEvolution | WaitingPeriod, q: int,
                        q2: int) -> np.ndarray:
        """Liouvillian of the (q, q') ancilla block of rho during a timed
        segment, row-major vectorised.

        With K = H + decay restricted to ancilla level q, the block obeys
        rho' = -i K_q rho + i rho K_q'^dag + r_down a rho a^dag + r_up a^dag rho a,
        and vec(A X B) = (A kron B^T) vec(X).
        """
        k = self.segment_hamiltonian(seg) + self.decay
        kq, kq2 = k[self.block(q), self.block(q)], k[self.block(q2), self.block(q2)]
        a = self.a_mode
        eye = np.eye(self.d)
        return (-1j * (np.kron(kq, eye) - np.kron(eye, kq2.conj()))
                + self.noise.rate_down * np.kron(a, a.conj())
                + self.noise.rate_up * np.kron(a.conj().T, a.T))


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
    model = _DampedModeModel(layout, noise)
    return model.rhs_lab(rho, h.matrix)


# ---------------------------------------------------------------------------
# master-equation integration
# ---------------------------------------------------------------------------


def evolve_master(state: HybridState, schedule: PulseSchedule,
                  noise: NoiseParams) -> HybridState:
    """Evolve a state through a pulse schedule under the master equation.

    Exact up to rounding.  The lab-frame Hamiltonian is diagonal in the
    ancilla's Z basis and the jump operators act on the mode alone, so each
    (q, q') block of rho evolves on its own under a d^2 x d^2 Liouvillian.
    Its exponential is built once per (segment, q <= q') and reused (one per
    waiting segment, whose uncoupled blocks share a generator); the (q', q)
    block is set to the adjoint of the evolved (q, q') block.  Instantaneous
    rotations are applied as exact conjugations.
    """
    model = _DampedModeModel(state.layout, noise)
    levels = range(2 ** state.layout.qubit_count)
    rho = state.to_density().data.copy()
    props: dict[tuple[FreeEvolution | WaitingPeriod, int, int], np.ndarray] = {}
    for seg in schedule.expand_waiting().segments:
        if isinstance(seg, QubitRotation):
            r = fock.qubit_rotation(state.layout, 0, seg.axis, seg.angle).matrix
            rho = r @ rho @ r.conj().T
            continue
        if seg.duration == 0.0:
            continue
        for q in levels:
            for q2 in levels[q:]:
                # while waiting the coupling is off and every block shares one generator
                key = (seg, q, q2) if isinstance(seg, FreeEvolution) else (seg, 0, 0)
                if key not in props:
                    props[key] = _expm(seg.duration * model.block_generator(seg, q, q2))
                blk = (model.block(q), model.block(q2))
                rho[blk] = (props[key] @ rho[blk].reshape(-1)).reshape(model.d, model.d)
                if q2 != q:  # rho is Hermitian: the (q', q) block is the adjoint
                    rho[model.block(q2), model.block(q)] = rho[blk].conj().T
    return HybridState.density(state.layout, rho)


def trace_distance_matrices(rho: np.ndarray, sigma: np.ndarray) -> float:
    diff = rho - sigma
    diff = (diff + diff.conj().T) / 2.0
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())


def trace_distance(a: HybridState, b: HybridState) -> float:
    return trace_distance_matrices(a.to_density().data, b.to_density().data)


# ---------------------------------------------------------------------------
# quantum-jump unravelling
# ---------------------------------------------------------------------------


@dataclass
class JumpEnsemble:
    mean_state: HybridState
    jump_counts: np.ndarray
    n_trajectories: int

    @property
    def mean_jumps(self) -> float:
        return float(self.jump_counts.mean())


class _SegmentPropagators:
    """Dyadic ladder of no-jump propagators for one segment type.

    The no-jump Hamiltonian is diagonal in the ancilla's Z basis, so level j
    (covering duration/2^j) is stored as one d x d block per ancilla level,
    stacked to (levels, d, d); it acts on (levels, d, n) column batches.
    """

    def __init__(self, k_blocks: np.ndarray, duration: float):
        self.k_blocks = k_blocks
        self.duration = duration
        self._ladder: dict[int, np.ndarray] = {}

    def level(self, j: int) -> np.ndarray:
        if j not in self._ladder:
            self._ladder[j] = _expm(-1j * (self.duration / 2 ** j) * self.k_blocks)
        return self._ladder[j]


def _decompose_for_trajectories(state: HybridState):
    """Mixture weights and pure-state columns for the unravelling input."""
    if state.is_pure:
        v = state.data / math.sqrt(state.trace())
        return np.array([1.0]), v[:, None]
    rho = state.data
    off = rho - np.diag(np.diag(rho))
    if np.abs(off).max() < 1e-12:
        w = np.real(np.diag(rho)).copy()
        keep = np.flatnonzero(w > 1e-14)
        cols = np.zeros((rho.shape[0], keep.size), dtype=complex)
        cols[keep, np.arange(keep.size)] = 1.0
        return w[keep] / w.sum(), cols
    lam, vec = np.linalg.eigh(rho)
    keep = np.flatnonzero(lam > 1e-12)
    return lam[keep] / lam[keep].sum(), vec[:, keep]


def _bisect_jumps(psi: np.ndarray, r_target: float, ladder: _SegmentPropagators,
                  jump_ops, rng: np.random.Generator):
    """Carry one trajectory across a segment whose full step fell below its
    norm threshold: walk it in dyadic chunks and bisect around each jump.

    `psi` is one (levels, d, 1) column; returns (psi, r_target, jumps).
    """
    jumps = 0
    stack = [1, 1]  # levels; level j covers duration/2^j (level 0 crossed)
    while stack:
        j = stack.pop()
        cand = ladder.level(j) @ psi
        n2 = float(np.vdot(cand, cand).real)
        if n2 >= r_target:
            psi = cand
            continue
        if j >= JUMP_BISECTION_LEVELS:
            # jump happens inside an interval shorter than 2^-40 of the
            # segment: apply it at the chunk start
            norms = np.array([rate * float(np.vdot(op @ psi, op @ psi).real)
                              for rate, op in jump_ops])
            pick = rng.choice(len(jump_ops), p=norms / norms.sum())
            jumped = jump_ops[pick][1] @ psi
            psi = jumped / np.linalg.norm(jumped)
            r_target = rng.random()
            jumps += 1
            stack.append(j)  # redo the chunk after the jump
            continue
        stack.append(j + 1)  # second half (processed after the first)
        stack.append(j + 1)  # first half
    return psi, r_target, jumps


def jump_unravelling(state: HybridState, schedule: PulseSchedule, noise: NoiseParams,
                     rng: np.random.Generator, n_traj: int) -> JumpEnsemble:
    """Monte-Carlo wavefunction unravelling of the master equation.

    Pure trajectories evolve under the non-Hermitian effective Hamiltonian
    H - i/2 [(nu/Q)(N_th+1) a^dag a + (nu/Q) N_th a a^dag]; jumps apply a or
    a^dag at the printed rates.  Mixed inputs are sampled from their
    Fock-basis mixture weights (general inputs from their eigenbasis).  The
    ensemble mean converges to the master equation at the Monte-Carlo rate.

    All trajectories are columns of one (levels, d, n_traj) array.  Each
    timed segment's full-length propagator is applied to every column at
    once, one d x d block per ancilla level, and rotations act on the
    ancilla axis.  A column keeps that step while its norm^2 stays at or
    above its random threshold; only the columns that fell below it are
    walked one by one through the dyadic jump-time bisection.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be at least 1")
    model = _DampedModeModel(state.layout, noise)
    levels = range(2 ** state.layout.qubit_count)
    props: dict[FreeEvolution | WaitingPeriod, _SegmentPropagators] = {}
    segs = schedule.expand_waiting().segments
    for seg in segs:
        if isinstance(seg, (FreeEvolution, WaitingPeriod)) and seg.duration > 0 \
                and seg not in props:
            k = model.segment_hamiltonian(seg) + model.decay
            props[seg] = _SegmentPropagators(
                np.stack([k[model.block(q), model.block(q)] for q in levels]),
                seg.duration)
    jump_ops = [(noise.rate_down, model.a_mode), (noise.rate_up, model.a_mode.conj().T)]
    weights, columns = _decompose_for_trajectories(state)
    psi = columns[:, rng.choice(weights.size, size=n_traj, p=weights)]
    psi = psi.reshape(len(levels), model.d, n_traj)
    r_target = rng.random(n_traj)
    jump_counts = np.zeros(n_traj, dtype=int)

    for seg in segs:
        if isinstance(seg, QubitRotation):
            r = fock.qubit_rotation_matrix(seg.axis, seg.angle)
            psi = (r @ psi.reshape(len(levels), -1)).reshape(psi.shape)
            continue
        if seg.duration == 0.0:
            continue
        ladder = props[seg]
        stepped = ladder.level(0) @ psi
        crossed = np.flatnonzero((np.abs(stepped) ** 2).sum(axis=(0, 1)) < r_target)
        for c in crossed:
            stepped[..., c:c + 1], r_target[c], jumps = _bisect_jumps(
                psi[..., c:c + 1], r_target[c], ladder, jump_ops, rng)
            jump_counts[c] += jumps
        psi = stepped
    psi = psi.reshape(-1, n_traj)
    psi = psi / np.linalg.norm(psi, axis=0)
    return JumpEnsemble(HybridState.density(state.layout, psi @ psi.conj().T / n_traj),
                        jump_counts, n_traj)


def short_time_jump_probability(state: HybridState, noise: NoiseParams,
                                dt: float) -> tuple[float, float]:
    """(simulated, closed-form) jump probability over one short interval dt.

    The closed form is (2 N_th <n> + N_th + <n>) (nu/Q) dt; the simulated
    value is the norm loss of the no-jump propagator averaged over the
    mixture.
    """
    model = _DampedModeModel(state.layout, noise)
    k = _expm(-1j * dt * (model.h_free_lab + model.decay))
    weights, cols = _decompose_for_trajectories(state)
    evolved = k @ cols
    survive = (np.abs(evolved) ** 2).sum(axis=0)
    simulated = float(np.dot(weights, 1.0 - survive))
    n_mean = float(np.dot(weights, (np.abs(cols) ** 2 * model.n_diag[:, None]).sum(axis=0)))
    closed = (2 * noise.N_th * n_mean + noise.N_th + n_mean) * noise.nu / noise.Q * dt
    return simulated, closed


# ---------------------------------------------------------------------------
# measurement-fidelity curves
# ---------------------------------------------------------------------------


def _thermal_with_ancilla(n_mean: float, cutoff: int) -> HybridState:
    layout = SpaceLayout(1, (cutoff,))
    w = thermal_weights(n_mean, cutoff)
    w = w / w.sum()
    plus_dm = np.outer(fock.KET_PLUS, fock.KET_PLUS.conj())
    return HybridState.density(layout, np.kron(plus_dm, np.diag(w.astype(complex))))


def _parity_branch_factors(rho: np.ndarray, d: int) -> tuple[float, float, float, float]:
    """Measure the ancilla in the X basis; return p+, p-, and the parity
    traces Tr(rho_+ (I+P)) and Tr(rho_- (I-P)) over normalized branches."""
    h = np.kron(fock.HADAMARD, np.eye(d))
    work = h @ rho @ h.conj().T
    parity = (-1.0) ** np.arange(d)
    blocks = work.reshape(2, d, 2, d)
    t_plus = t_minus = 2.0
    probs = []
    for bit, sign in ((0, +1), (1, -1)):
        blk = blocks[bit, :, bit, :]
        p = float(np.trace(blk).real)
        probs.append(p)
        if p >= DEGENERATE_BRANCH_FLOOR:
            par = float((np.diag(blk).real * parity).sum()) / p
            if sign > 0:
                t_plus = 1.0 + par
            else:
                t_minus = 1.0 - par
    return probs[0], probs[1], t_plus, t_minus


def fidelity_cutoff(n_mean: float, tail_tol: float = 1e-6, headroom: int = 4) -> int:
    """Tail-controlled cutoff for one fidelity point (reported per point)."""
    return required_cutoff(n_mean, tail_tol, 10) + headroom


def fidelity_point(n_mean: float, config: tuple[int, float],
                   noise: NoiseParams | str = "ideal-sequence",
                   cutoff: int | None = None) -> FidelityPoint:
    """Logical-qubit fidelity of the engineered parity measurement.

    `config` is (repetitions, eta).  With `noise="ideal-sequence"` (default)
    the engineered controlled-parity runs closed-system, so the infidelity
    comes from the sequence's high-order excitation-dependent error alone;
    `noise="exact-gate"` uses the exact controlled-parity (fidelity 1, a
    consistency anchor); a NoiseParams adds bath damping via the master
    equation, with its coupling taken from `config` (its own eta is ignored).
    """
    reps, eta = config
    if cutoff is None:
        cutoff = fidelity_cutoff(n_mean)
    d = cutoff
    state = _thermal_with_ancilla(n_mean, d)
    nu = noise.nu if isinstance(noise, NoiseParams) else 1.0
    params = HybridHamiltonianParams(eta=eta, nu=nu)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # configs stay well under eta = 0.05
        if noise == "exact-gate":
            gate = fock.controlled_parity(state.layout, 0, 0)
            rho = gate.matrix @ state.data @ gate.matrix.conj().T
        elif noise == "ideal-sequence":
            gate = pulses.engineered_controlled_parity(params, d, reps)
            rho = gate.matrix @ state.data @ gate.matrix.conj().T
        elif isinstance(noise, NoiseParams):
            sched = pulses.build_h2_sequence(params, reps)
            evolved = evolve_master(state, sched, replace(noise, eta=eta))
            chi = 64.0 * reps * eta ** 2
            corr = fock.qubit_rotation(state.layout, 0, "z", chi / 2.0).matrix
            rho = corr @ evolved.data @ corr.conj().T
        else:
            raise ValueError(f"unknown noise mode {noise!r}")
    p_plus, p_minus, t_plus, t_minus = _parity_branch_factors(rho, d)
    return FidelityPoint(
        mean_excitation=n_mean,
        fidelity=t_plus * t_minus / 4.0,
        repetitions=reps, eta=eta,
        p_plus=p_plus, p_minus=p_minus,
        baseline=1.0 / (n_mean + 1.0),
        cutoff=d)


# ---------------------------------------------------------------------------
# initialisation-error estimates
# ---------------------------------------------------------------------------


def epsilon_tqp(noise: NoiseParams, n_mean: float, eta: float | None = None) -> float:
    """Closed-form parity-encoding initialisation error
    (2 N_th <n> + N_th + <n>) * 9 pi / (64 eta^2 Q).

    This is the total jump probability over the controlled-parity duration
    implied by the quoted coupling strength.  Derived in the hot-background
    regime N_th >> <n>; a warning flags calls outside it.
    """
    if eta is None:
        eta = noise.eta
    if eta <= 0:
        raise ValueError("eta must be positive")
    if noise.N_th < 10 * max(n_mean, 1.0):
        warnings.warn("initialisation-error estimate assumes N_th >> <n>", stacklevel=2)
    rate = 2 * noise.N_th * n_mean + noise.N_th + n_mean
    return rate * 9 * math.pi / (64 * eta ** 2 * noise.Q)


def epsilon_tqp_trajectory_check(noise: NoiseParams, n_mean: float,
                                 rng: np.random.Generator, n_traj: int = 2000,
                                 cutoff: int | None = None) -> tuple[float, float]:
    """(closed form, trajectory-integrated jump count) over the implied duration.

    Runs the engineered schedule for the sequence count covering
    9 pi/(64 eta^2 nu) and counts quantum jumps; the closed form is the
    expected count to first order.
    """
    eta = noise.eta
    if eta <= 0:
        raise ValueError("noise parameters need a positive eta")
    closed = epsilon_tqp(noise, n_mean)
    reps = pulses.coupling_implied_sequences(eta)
    if cutoff is None:
        cutoff = required_cutoff(n_mean, 1e-6, 10) + 6
    state = _thermal_with_ancilla(n_mean, cutoff)
    sched = pulses.build_h2_sequence(noise.hybrid_params(), reps)
    ens = jump_unravelling(state, sched, noise, rng, n_traj)
    return closed, ens.mean_jumps


# ---------------------------------------------------------------------------
# cooling comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoolingComparison:
    """Optimized unresolved-sideband cooling rate and the error comparison.

    `gamma_c` is the cooling rate maximized over drive detuning and Rabi
    frequency; `scaling_ratio` divides it by eta^2 nu Gamma_dc / Gamma_dp
    (order one when Gamma_dc << nu << Gamma_dp); `epsilon_cool` is the
    heating/cooling balance N_th (nu/Q) / gamma_c.  When a mean excitation
    is supplied, `epsilon_tqp` and `advantage_flag` report whether the
    parity encoding wins, which happens for <n> << Gamma_dp / Gamma_dc.
    """

    gamma_c: float
    delta_opt: float
    omega_opt: float
    epsilon_cool: float
    scaling_ratio: float
    sideband_unresolved: bool
    epsilon_tqp: float | None = None
    advantage_flag: bool | None = None


def cooling_rate(noise: NoiseParams, delta: float, omega: float) -> float:
    """Unresolved-sideband cooling rate at one drive working point:

        4 eta^2 nu^2 Gdc Gdp Delta Omega^2
        / [nu (Gdp^2 + Delta^2 + Omega^2) (Gdc (Gdp^2 + Delta^2) + Gdp Omega^2)]
    """
    eta, nu = noise.eta, noise.nu
    gdc, gdp = noise.Gamma_dc, noise.Gamma_dp
    num = 4 * eta ** 2 * nu ** 2 * gdc * gdp * delta * omega ** 2
    den = nu * (gdp ** 2 + delta ** 2 + omega ** 2) \
        * (gdc * (gdp ** 2 + delta ** 2) + gdp * omega ** 2)
    if den == 0.0:
        return 0.0
    return num / den


def cooling_comparison(noise: NoiseParams, n_mean: float | None = None,
                       grid_points: int = 32) -> CoolingComparison:
    """Maximize the cooling rate over (Delta, Omega) and compare error budgets.

    Coarse log-grid over [1e-2, 1e4] nu in both drive parameters, refined
    with Nelder-Mead in log space; the optimization domain is reported
    implicitly through the optimum found.
    """
    if noise.Gamma_dc <= 0 or noise.Gamma_dp <= 0:
        raise ValueError("cooling comparison needs positive engineered rates")
    span = np.logspace(-2, 4, grid_points) * noise.nu
    best_val, best_xy = 0.0, (noise.nu, noise.nu)
    for d_ in span:
        for o_ in span:
            v = cooling_rate(noise, d_, o_)
            if v > best_val:
                best_val, best_xy = v, (d_, o_)
    res = _minimize(lambda x: -cooling_rate(noise, math.exp(x[0]), math.exp(x[1])),
                    np.log(best_xy), method="Nelder-Mead",
                    options={"xatol": 1e-10, "fatol": 1e-16, "maxiter": 5000})
    if not res.success and -res.fun <= best_val:
        raise ConvergenceError("cooling-rate optimization failed to refine the grid optimum")
    gamma_c = float(-res.fun)
    delta_opt, omega_opt = (float(math.exp(v)) for v in res.x)
    scale = noise.eta ** 2 * noise.nu * noise.Gamma_dc / noise.Gamma_dp
    eps_cool = noise.N_th * (noise.nu / noise.Q) / gamma_c
    unresolved = noise.Gamma_dc < 0.1 * noise.nu < 0.1 ** 2 * noise.Gamma_dp
    eps_tqp = adv = None
    if n_mean is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            eps_tqp = epsilon_tqp(noise, n_mean)
        adv = bool(eps_tqp < 0.1 * eps_cool)
    return CoolingComparison(
        gamma_c=gamma_c, delta_opt=delta_opt, omega_opt=omega_opt,
        epsilon_cool=eps_cool, scaling_ratio=gamma_c / scale,
        sideband_unresolved=unresolved, epsilon_tqp=eps_tqp, advantage_flag=adv)
