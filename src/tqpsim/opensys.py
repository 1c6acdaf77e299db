"""Open-system dynamics of the hybrid qubit-qumode system.

The mode couples to a hot background through the standard damping dissipators

    rho' = -i [H, rho] + (nu/Q)(N_th + 1) D{a} rho + (nu/Q) N_th D{a^dag} rho

with D{O} rho = O rho O^dag - 1/2 {O^dag O, rho}.  The Hamiltonian is
diagonal in the ancilla's Z basis (`pulses.level_hamiltonians`) and the jumps
act on the mode alone, so every solver works on one d x d block per ancilla
level and never builds an operator on the whole (ancilla, mode) space.  Two
solvers are provided: the master equation through exact per-block segment
propagators (each (q, q') block of rho evolves on its own), and a Monte-Carlo
wavefunction unravelling that carries all trajectories as columns of one
array through exact per-segment non-Hermitian propagators, bisecting the jump
time (dyadically) only in the columns whose norm crossed their threshold.
`lindblad_rhs`, the printed right-hand side on the whole space, is kept as
the independent reference the tests integrate.

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

from . import fock, pulses
from .fock import HybridState, SpaceLayout, TruncatedOperator
from .pulses import (FreeEvolution, HybridHamiltonianParams, PulseSchedule,
                     QubitRotation, WaitingPeriod)
from .thermal import required_cutoff, thermal_weights

DEGENERATE_BRANCH_FLOOR = 1e-9
JUMP_BISECTION_LEVELS = 40


@dataclass(frozen=True)
class NoiseParams:
    """Rates for the damped hybrid system, all in units of the mode frequency.

    Q is the mode quality factor; N_th the background occupation; the
    engineered qubit decay/dephasing rates only enter the cooling comparison,
    which optimises over the drive itself.
    """

    Q: float
    nu: float = 1.0
    eta: float = 0.0
    N_th: float = 0.0
    Gamma_dc: float = 0.0
    Gamma_dp: float = 0.0

    def __post_init__(self):
        if self.Q <= 0:
            raise ValueError("quality factor must be positive")
        for name in ("nu", "eta", "N_th", "Gamma_dc", "Gamma_dp"):
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
# the damped hybrid model and the Lindblad right-hand side
# ---------------------------------------------------------------------------


def _check_layout(layout: SpaceLayout) -> None:
    if layout.n_modes != 1:
        raise fock.LayoutError("open-system model expects one mode")


class _DampedModeModel:
    """The damped hybrid model on a one-mode layout, per ancilla level.

    `k[FreeEvolution]` and `k[WaitingPeriod]` are (levels, d, d) stacks of the
    no-jump generator K = H - i/2 [r_down a^dag a + r_up a a^dag] of a timed
    segment, one block per ancilla Z level (the coupling is off while
    waiting); without an ancilla the mode sees the Z = +1 level.  `a` acts on
    the mode alone.
    """

    def __init__(self, layout: SpaceLayout, noise: NoiseParams):
        _check_layout(layout)
        self.layout = layout
        self.d = layout.mode_cutoffs[0]
        self.levels = 2 ** layout.qubit_count
        self.a = fock.annihilation(SpaceLayout(0, (self.d,)), 0).matrix
        ad = self.a.conj().T
        decay = -0.5j * (noise.rate_down * ad @ self.a + noise.rate_up * self.a @ ad)
        self.k = {seg: pulses.level_hamiltonians(noise.nu, eta, self.d)[:self.levels] + decay
                  for seg, eta in ((FreeEvolution, noise.eta), (WaitingPeriod, 0.0))}

    def rotation(self, seg: QubitRotation) -> np.ndarray:
        """The 2 x 2 ancilla rotation of `seg`."""
        self.layout.require_ancilla()
        return fock.qubit_rotation_matrix(seg.axis, seg.angle)


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
    _check_layout(layout)
    a = fock.annihilation(layout, 0).matrix
    out = -1j * (h.matrix @ rho - rho @ h.matrix)
    for rate, op in ((noise.rate_down, a), (noise.rate_up, a.conj().T)):
        op_dag_op = op.conj().T @ op
        out += rate * (op @ rho @ op.conj().T - 0.5 * (op_dag_op @ rho + rho @ op_dag_op))
    return out


# ---------------------------------------------------------------------------
# master-equation integration
# ---------------------------------------------------------------------------


def evolve_master(state: HybridState, schedule: PulseSchedule,
                  noise: NoiseParams) -> HybridState:
    """Evolve a state through a pulse schedule under the master equation.

    Exact up to rounding.  The lab-frame Hamiltonian is diagonal in the
    ancilla's Z basis and the jump operators act on the mode alone, so rho is
    held as a (levels, d, levels, d) array and each (q, q') block evolves on
    its own under a d^2 x d^2 Liouvillian:

        d/dt rho_qq' = -i K_q rho_qq' + i rho_qq' K_q'^dag
                       + r_down a rho_qq' a^dag + r_up a^dag rho_qq' a.

    Its exponential is built once per (segment, q <= q') and reused (one per
    waiting segment, whose uncoupled blocks share a generator); the (q', q)
    block is set to the adjoint of the evolved (q, q') block.  Instantaneous
    rotations are exact 2 x 2 conjugations on the ancilla axes.
    """
    model = _DampedModeModel(state.layout, noise)
    levels, d, a, eye = model.levels, model.d, model.a, np.eye(model.d)
    # row-major vec(A X B) = (A kron B^T) vec(X)
    jumps = noise.rate_down * np.kron(a, a.conj()) + noise.rate_up * np.kron(a.conj().T, a.T)
    rho = state.to_density().data.reshape(levels, d, levels, d).copy()
    props: dict[tuple[FreeEvolution | WaitingPeriod, int, int], np.ndarray] = {}
    for seg in schedule.expand_waiting().segments:
        if isinstance(seg, QubitRotation):
            r = model.rotation(seg)
            rho = np.einsum("pq,qasb,rs->parb", r, rho, r.conj())
            continue
        if seg.duration == 0.0:
            continue
        for q in range(levels):
            for q2 in range(q, levels):
                # while waiting the coupling is off and every block shares one generator
                key = (seg, q, q2) if isinstance(seg, FreeEvolution) else (seg, 0, 0)
                if key not in props:
                    k = model.k[type(seg)]
                    gen = -1j * (np.kron(k[q], eye) - np.kron(eye, k[q2].conj())) + jumps
                    props[key] = _expm(seg.duration * gen)
                rho[q, :, q2, :] = (props[key] @ rho[q, :, q2, :].reshape(-1)).reshape(d, d)
                if q2 != q:  # rho is Hermitian: the (q', q) block is the adjoint
                    rho[q2, :, q, :] = rho[q, :, q2, :].conj().T
    return HybridState.density(state.layout, rho.reshape(levels * d, levels * d))


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
    segs = schedule.expand_waiting().segments
    props = {seg: _SegmentPropagators(model.k[type(seg)], seg.duration) for seg in set(segs)
             if isinstance(seg, (FreeEvolution, WaitingPeriod)) and seg.duration > 0}
    jump_ops = [(noise.rate_down, model.a), (noise.rate_up, model.a.conj().T)]
    weights, columns = _decompose_for_trajectories(state)
    psi = columns[:, rng.choice(weights.size, size=n_traj, p=weights)]
    psi = psi.reshape(model.levels, model.d, n_traj)
    r_target = rng.random(n_traj)
    jump_counts = np.zeros(n_traj, dtype=int)

    for seg in segs:
        if isinstance(seg, QubitRotation):
            r = model.rotation(seg)
            psi = (r @ psi.reshape(model.levels, -1)).reshape(psi.shape)
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
    value is the norm loss of the trajectories' no-jump propagator over a
    free evolution of length dt, averaged over the mixture.
    """
    model = _DampedModeModel(state.layout, noise)
    weights, cols = _decompose_for_trajectories(state)
    cols = cols.reshape(model.levels, model.d, -1)
    evolved = _SegmentPropagators(model.k[FreeEvolution], dt).level(0) @ cols
    survive = (np.abs(evolved) ** 2).sum(axis=(0, 1))
    simulated = float(np.dot(weights, 1.0 - survive))
    pops = (np.abs(cols) ** 2).sum(axis=0)
    n_mean = float(np.dot(weights, np.arange(model.d) @ pops))
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
    traces Tr(rho_+ (I+P)) and Tr(rho_- (I-P)) over normalized branches.

    In the ancilla's Z blocks rho_qq' the branches are
    <+-|rho|+-> = (rho_00 + rho_11 +- (rho_01 + rho_10)) / 2; only their
    Fock populations enter.
    """
    pops = np.einsum("pnqn->pqn", rho.reshape(2, d, 2, d)).real
    parity = (-1.0) ** np.arange(d)
    probs, traces = [], []
    for sign in (+1, -1):
        branch = (pops[0, 0] + pops[1, 1] + sign * (pops[0, 1] + pops[1, 0])) / 2.0
        p = float(branch.sum())
        probs.append(p)
        traces.append(1.0 + sign * float(branch @ parity) / p
                      if p >= DEGENERATE_BRANCH_FLOOR else 2.0)
    return probs[0], probs[1], traces[0], traces[1]


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
    if noise == "exact-gate":
        gate = fock.controlled_parity(state.layout, 0)
        rho = gate.matrix @ state.data @ gate.matrix.conj().T
    elif noise == "ideal-sequence":
        gate = pulses.engineered_controlled_parity(params, d, reps)
        rho = gate.matrix @ state.data @ gate.matrix.conj().T
    elif isinstance(noise, NoiseParams):
        # the engineered gate's frame correction exp(i chi/2 Z), chi = 64 R eta^2
        frame = PulseSchedule((QubitRotation("z", 32.0 * reps * eta ** 2),))
        sched = pulses.build_h2_sequence(params, reps) + frame
        rho = evolve_master(state, sched, replace(noise, eta=eta)).data
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


def cooling_comparison(noise: NoiseParams, n_mean: float | None = None) -> CoolingComparison:
    """Maximize the cooling rate over (Delta, Omega) and compare error budgets.

    The maximum is exact.  With A = Gdp^2 + Delta^2 and x = Omega^2 the rate
    is 4 eta^2 nu Gdc Gdp Delta x / [(A + x)(Gdc A + Gdp x)].  Its x-derivative
    vanishes where Gdc A^2 = Gdp x^2, i.e. x = A sqrt(Gdc/Gdp), and there the
    rate is 4 eta^2 nu Gdc Gdp Delta / [A (sqrt(Gdp) + sqrt(Gdc))^2].  Since
    Delta / (Gdp^2 + Delta^2) peaks at Delta = Gdp,

        Delta* = Gdp,  Omega*^2 = 2 Gdp^(3/2) Gdc^(1/2),
        gamma_c = 2 eta^2 nu Gdc / (sqrt(Gdp) + sqrt(Gdc))^2.
    """
    gdc, gdp = noise.Gamma_dc, noise.Gamma_dp
    if noise.eta <= 0 or noise.nu <= 0 or gdc <= 0 or gdp <= 0:
        raise ValueError("cooling comparison needs positive eta, nu and engineered rates")
    gamma_c = 2 * noise.eta ** 2 * noise.nu * gdc / (math.sqrt(gdp) + math.sqrt(gdc)) ** 2
    delta_opt, omega_opt = gdp, math.sqrt(2 * gdp ** 1.5 * gdc ** 0.5)
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
