"""Open-system dynamics of the hybrid qubit-qumode system.

The mode couples to a hot background through the standard damping dissipators

    rho' = -i [H, rho] + (nu/Q)(N_th + 1) D{a} rho + (nu/Q) N_th D{a^dag} rho

with D{O} rho = O rho O^dag - 1/2 {O^dag O, rho}.  The Hamiltonian is
diagonal in the ancilla's Z basis (`pulses.level_hamiltonians`) and the jumps
act on the mode alone, so every segment propagator is one d x d block per
ancilla level.  Two solvers are provided: the master equation through exact
per-block segment propagators (each (q, q') block of rho evolves on its
own), and a Monte-Carlo wavefunction unravelling that carries all
trajectories as columns of one array.  The unravelling screens every column
with one composed no-jump propagator per period of the schedule (its only
operator on the whole (ancilla, mode) space), then walks just the columns
whose norm crossed their threshold through the period's per-segment
propagators, finding each jump time by a Newton root find in the eigenbasis
of the segment's no-jump generator, with the same random draws as a walk of
every column.  The printed right-hand side on the whole space is the
independent reference the tests integrate; it lives with them.

On top of these sit the measurement-fidelity curves for the engineered
controlled-parity (closed-system by default: the dominant error there is the
quartic excitation-dependent term of the pulse sequence, not bath noise),
the closed-form initialisation-error estimate for the parity encoding, and
the comparison against dissipative-cooling error in the unresolved-sideband
regime.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm as _expm

from . import fock, pulses
from .fock import HybridState, SpaceLayout
from .pulses import (FreeEvolution, HybridHamiltonianParams, PulseSchedule,
                     QubitRotation, WaitingPeriod)
from .thermal import required_cutoff, thermal_weights

DEGENERATE_BRANCH_FLOOR = 1e-9
# largest |p+ + p- - 1| a master-equation fidelity point accepts
BRANCH_TRACE_TOL = 1e-9
# largest condition number of a no-jump eigenvector matrix V the trajectories accept
EIGENBASIS_COND_LIMIT = 1e6


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
        if not 0 < self.Q < math.inf:  # NaN fails every comparison
            raise ValueError(f"quality factor Q must be finite and positive, got {self.Q!r}")
        for name in ("nu", "eta", "N_th", "Gamma_dc", "Gamma_dp"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, "
                                 f"got {getattr(self, name)!r}")

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
# the damped hybrid model
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
        self.noise = noise
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
    """No-jump propagators of one timed segment type from one eigenbasis.

    The (levels, d, d) no-jump generator, one d x d block per ancilla level,
    is diagonalised once, K = V diag(lam) V^-1, so the propagator over any
    tau is V exp(-i lam tau) V^-1.  A V whose condition number exceeds
    EIGENBASIS_COND_LIMIT (K near defective) is refused.
    """

    def __init__(self, model: _DampedModeModel, seg_type: type):
        k = model.k[seg_type]
        self.lam, self.v = np.linalg.eig(k)
        cond = float(np.linalg.cond(self.v).max())
        if cond > EIGENBASIS_COND_LIMIT:
            raise ValueError(f"no-jump eigenbasis too ill-conditioned (cond {cond:.3g} > "
                             f"{EIGENBASIS_COND_LIMIT:g}) at Q = {model.noise.Q!r}, "
                             f"eta = {model.noise.eta!r}, cutoff {model.d}")
        self.v_inv = np.linalg.inv(self.v)
        # the diagonal of r_down a^dag a + r_up a a^dag, the truncation's top entry included
        self.jump_rates = -2.0 * k[0].diagonal().imag

    def step(self, tau: float) -> np.ndarray:
        """The (levels, d, d) propagator over `tau`; it acts on (levels, d, n) columns."""
        return (self.v * np.exp(-1j * tau * self.lam)[:, None, :]) @ self.v_inv

    def jumps_across(self, psi: np.ndarray, r_target: float, duration: float, jump_ops,
                     rng: np.random.Generator):
        """Carry one (levels, d, 1) column across a segment of `duration` whose
        full step fell below its norm threshold; returns (psi, r_target, jumps).

        A jump time, the root of f(tau) = |V exp(-i lam tau) V^-1 psi|^2 -
        r_target, is bracketed to tol = duration 2^-40 by Newton steps on the
        exact slope -<psi(tau)|diag(jump_rates)|psi(tau)>, bisecting when a
        step leaves the bracket (a step under tol/2 ends the search from the
        left end, or is carried tol/4 past the root from the right end).  The
        jump, applied at the left end (f >= 0), draws one operator and one new
        threshold; the rest of the segment is searched again only if its end
        point crosses that threshold.
        """
        jumps, remaining, tol = 0, duration, duration * 2.0 ** -40
        while True:
            c = self.v_inv @ psi
            lo, hi, tau, at_tau = 0.0, remaining, 0.0, psi
            while True:  # on exit psi is the column at lo
                pops = (np.abs(at_tau) ** 2).sum(axis=(0, 2))
                f, slope = float(pops.sum()) - r_target, -float(self.jump_rates @ pops)
                if f >= 0.0:
                    lo, psi = tau, at_tau
                else:
                    hi = tau
                step = -f / slope if slope < 0.0 else math.inf
                if hi - lo <= tol or (f >= 0.0 and step < 0.5 * tol):
                    break
                if abs(step) < 0.5 * tol:
                    step -= 0.25 * tol
                if not lo < tau + step < hi:
                    step = 0.5 * (lo + hi) - tau
                tau += step
                at_tau = self.v @ (np.exp(-1j * tau * self.lam)[..., None] * c)
            norms = np.array([rate * float(np.vdot(op @ psi, op @ psi).real)
                              for rate, op in jump_ops])
            pick = rng.choice(len(jump_ops), p=norms / norms.sum())
            jumped = jump_ops[pick][1] @ psi
            psi = jumped / np.linalg.norm(jumped)
            r_target = rng.random()
            jumps += 1
            remaining -= lo
            end = self.v @ (np.exp(-1j * remaining * self.lam)[..., None] * (self.v_inv @ psi))
            if float(np.vdot(end, end).real) >= r_target:
                return end, r_target, jumps


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


def _schedule_period(segs: tuple) -> int:
    """Length of the shortest prefix of `segs` whose repetition is `segs`
    (the whole length when nothing shorter repeats; 1 when `segs` is empty)."""
    n = len(segs)
    return next((p for p in range(1, n) if n % p == 0 and segs[p:] == segs[:n - p]),
                max(n, 1))


def jump_unravelling(state: HybridState, schedule: PulseSchedule, noise: NoiseParams,
                     rng: np.random.Generator, n_traj: int) -> JumpEnsemble:
    """Monte-Carlo wavefunction unravelling of the master equation.

    Pure trajectories evolve under the non-Hermitian effective Hamiltonian
    H - i/2 [(nu/Q)(N_th+1) a^dag a + (nu/Q) N_th a a^dag]; jumps apply a or
    a^dag at the printed rates.  Mixed inputs are sampled from their
    Fock-basis mixture weights (general inputs from their eigenbasis).  The
    ensemble mean converges to the master equation at the Monte-Carlo rate.

    All trajectories are columns of one (levels, d, n_traj) array.  The
    schedule (zero-duration segments dropped) is cut into repeats of its
    shortest repeating prefix, the period (the whole schedule when nothing
    repeats); the period's composed no-jump propagator, one
    (levels d) x (levels d) matrix, screens every column at once.  The
    no-jump norm never grows (d|psi|^2/dt = -<r_down a^dag a + r_up a a^dag>
    <= 0, rotations are unitary), so a column that ends a period at or above
    its random threshold crossed it nowhere inside.  Only the other columns
    are walked through the period segment by segment: each timed segment's
    full-length propagator, one d x d block per ancilla level, then the
    Newton jump-time root find (`_SegmentPropagators.jumps_across`) in column
    order for the columns that fell below their threshold.  The random draws
    therefore come in the order a segment-by-segment walk of every column
    makes them.  Raises ValueError when a no-jump generator is too close to
    defective for its eigenbasis (see EIGENBASIS_COND_LIMIT).
    """
    if isinstance(n_traj, bool) or not isinstance(n_traj, numbers.Integral):
        raise ValueError(f"n_traj must be an integer, got {n_traj!r}")
    if n_traj < 1:
        raise ValueError("n_traj must be at least 1")
    model = _DampedModeModel(state.layout, noise)
    segs = tuple(seg for seg in schedule.expand_waiting().segments
                 if isinstance(seg, QubitRotation) or seg.duration > 0)
    rotations = {seg: model.rotation(seg) for seg in set(segs) if isinstance(seg, QubitRotation)}
    props = {kind: _SegmentPropagators(model, kind)
             for kind in {type(seg) for seg in segs} - {QubitRotation}}
    steps = {seg: props[type(seg)].step(seg.duration) for seg in set(segs) - set(rotations)}

    def no_jump_step(seg, cols):
        if isinstance(seg, QubitRotation):
            return (rotations[seg] @ cols.reshape(model.levels, -1)).reshape(cols.shape)
        return steps[seg] @ cols

    period = _schedule_period(segs)
    dim = model.levels * model.d
    window = np.eye(dim, dtype=complex).reshape(model.levels, model.d, dim)
    for seg in segs[:period]:
        window = no_jump_step(seg, window)
    window = window.reshape(dim, dim)

    jump_ops = [(noise.rate_down, model.a), (noise.rate_up, model.a.conj().T)]
    weights, columns = _decompose_for_trajectories(state)
    psi = columns[:, rng.choice(weights.size, size=n_traj, p=weights)]
    psi = psi.reshape(model.levels, model.d, n_traj)
    r_target = rng.random(n_traj)
    jump_counts = np.zeros(n_traj, dtype=int)

    for start in range(0, len(segs), period):
        screened = (window @ psi.reshape(dim, n_traj)).reshape(psi.shape)
        # the margin keeps rounding in the composed product from hiding a crossing
        walk = np.flatnonzero((np.abs(screened) ** 2).sum(axis=(0, 1))
                              < r_target * (1.0 + 1e-12))
        cols, r_walk = psi[..., walk], r_target[walk]
        for seg in segs[start:start + period]:
            stepped = no_jump_step(seg, cols)
            if not isinstance(seg, QubitRotation):
                crossed = np.flatnonzero((np.abs(stepped) ** 2).sum(axis=(0, 1)) < r_walk)
                for c in crossed:
                    stepped[..., c:c + 1], r_walk[c], jumps = props[type(seg)].jumps_across(
                        cols[..., c:c + 1], r_walk[c], seg.duration, jump_ops, rng)
                    jump_counts[walk[c]] += jumps
            cols = stepped
        screened[..., walk] = cols
        r_target[walk] = r_walk
        psi = screened
    psi = psi.reshape(-1, n_traj)
    psi = psi / np.linalg.norm(psi, axis=0)
    return JumpEnsemble(HybridState.density(state.layout, psi @ psi.conj().T / n_traj),
                        jump_counts, n_traj)


def short_time_jump_probability(state: HybridState, noise: NoiseParams,
                                dt: float) -> tuple[float, float]:
    """(simulated, closed-form) jump probability over one short interval dt.

    The closed form is (2 N_th <n> + N_th + <n>) (nu/Q) dt; the simulated
    value is the norm loss of the trajectories' no-jump propagator
    V exp(-i lam dt) V^-1 over a free evolution of length dt, averaged over
    the mixture.  `dt` must be finite and positive.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    model = _DampedModeModel(state.layout, noise)
    weights, cols = _decompose_for_trajectories(state)
    cols = cols.reshape(model.levels, model.d, -1)
    evolved = _SegmentPropagators(model, FreeEvolution).step(dt) @ cols
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
    A branch probability that is not finite or leaves [-1e-9, 1 + 1e-9], as
    when the master equation diverges, raises ValueError.  So does a
    master-equation run whose p+ + p- misses 1 by more than
    ``BRANCH_TRACE_TOL``: it lost trace while keeping each probability in
    range.  The closed routes conjugate by a unitary, so their sum misses 1
    only by the rounding of that unitary, which grows with the repetition
    count (about 2e-9 at 10^6 repetitions); it is not checked.
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
    if not all(-1e-9 <= p <= 1.0 + 1e-9 for p in (p_plus, p_minus)):  # NaN fails too
        raise ValueError(f"branch probabilities p+ = {p_plus}, p- = {p_minus} are not "
                         f"probabilities: the run diverged (noise {noise!r}, cutoff {d})")
    if isinstance(noise, NoiseParams) and abs(p_plus + p_minus - 1.0) > BRANCH_TRACE_TOL:
        raise ValueError(f"branch probabilities p+ = {p_plus}, p- = {p_minus} sum to "
                         f"{p_plus + p_minus}, not 1: the run lost trace (noise {noise!r}, "
                         f"cutoff {d})")
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


def expected_jump_count(noise: NoiseParams, n0: float, duration: float) -> float:
    """Expected quantum-jump count of the damped mode over time T = `duration`
    from mean excitation n0:

        kappa [(2N + 1)(N T + (n0 - N)(1 - e^{-kappa T}) / kappa) + N T],

    with kappa = nu/Q and N = N_th.  The jump rate is kappa [(2N + 1) <n> + N]
    and <n> relaxes as N + (n0 - N) e^{-kappa t}, so the count is exact up to
    the O(eta^2) displacement of the coupled mode.  As kappa T -> 0 it tends to
    kappa T (2 N n0 + N + n0): `epsilon_tqp` when T = 9 pi/(64 eta^2 nu).
    """
    kappa, n_th = noise.nu / noise.Q, noise.N_th
    relaxing = -math.expm1(-kappa * duration) / kappa  # integral of e^{-kappa t} over T
    return kappa * ((2 * n_th + 1) * (n_th * duration + (n0 - n_th) * relaxing)
                    + n_th * duration)


def epsilon_tqp_trajectory_check(noise: NoiseParams, n_mean: float,
                                 rng: np.random.Generator, n_traj: int = 2000,
                                 cutoff: int | None = None) -> tuple[float, float]:
    """(expected jump count, trajectory-integrated jump count) of the engineered
    schedule over the implied duration.

    Runs the schedule for the sequence count covering 9 pi/(64 eta^2 nu)
    (`pulses.coupling_implied_sequences`, rounded to whole sequences) and
    counts quantum jumps.  The reference is `expected_jump_count` over that
    schedule's own duration from the initial state's mean excitation, bath
    heating included; its first-order limit over the implied duration is
    `epsilon_tqp`.
    """
    eta = noise.eta
    if eta <= 0:
        raise ValueError("noise parameters need a positive eta")
    reps = pulses.coupling_implied_sequences(eta)
    if cutoff is None:
        cutoff = required_cutoff(n_mean, 1e-6, 10) + 6
    state = _thermal_with_ancilla(n_mean, cutoff)
    sched = pulses.build_h2_sequence(noise.hybrid_params(), reps)
    n0 = float(state.mode_populations(0) @ np.arange(cutoff))
    ens = jump_unravelling(state, sched, noise, rng, n_traj)
    return expected_jump_count(noise, n0, sched.total_time), ens.mean_jumps


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
