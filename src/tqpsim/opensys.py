"""Open-system dynamics of the hybrid qubit-qumode system.

The mode couples to a hot background through the standard damping dissipators

    rho' = -i [H, rho] + (nu/Q)(N_th + 1) D{a} rho + (nu/Q) N_th D{a^dag} rho

with D{O} rho = O rho O^dag - 1/2 {O^dag O, rho}.  A state is a plain array:
(levels, d) for a pure state, (levels, d, levels, d) for a density matrix,
with levels 2 when the ancilla is present (axis 0) and 1 for the mode alone;
every function reads levels and d from the shape, and any other shape is a
``fock.LayoutError``.  The Hamiltonian is diagonal in the ancilla's Z basis
(`pulses.level_hamiltonians`) and the jumps act on the mode alone, so every
segment propagator is one d x d block per ancilla level.  Two solvers are
provided: the master equation through exact per-block segment propagators
(each (q, q') block of rho evolves on its own, under the scaled and squared
Pade exponential of its d^2 x d^2 Liouvillian, `fock.pade_exponential`,
numpy alone), and a Monte-Carlo wavefunction unravelling that carries all
trajectories as columns of one array.  The unravelling screens every column
with composed no-jump propagators, the only operators on the whole (ancilla,
mode) space: one per block of about sqrt(P) of the schedule's P periods, and
one per period for the columns a block screen flags.  It walks just the
columns whose norm crossed their threshold in a period through that period's
per-segment propagators, finding each jump time by a Newton root find in the
eigenbasis of the segment's no-jump generator and reading the jump's weights
off the same Fock populations, with the same random draws as a walk of every
column.  The printed right-hand side on the whole space is the independent
reference the tests integrate; it lives with them.

On top of these sit the measurement-fidelity curves for the engineered
controlled-parity (closed-system by default: the dominant error there is the
quartic excitation-dependent term of the pulse sequence, not bath noise),
the closed-form initialisation-error estimate for the parity encoding, and
the comparison against dissipative-cooling error in the unresolved-sideband
regime.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import encoding, fock, pulses
from .pulses import (FreeEvolution, HybridHamiltonianParams, PulseSchedule,
                     QubitRotation, WaitingPeriod)
from .thermal import required_cutoff, thermal_weights

DEGENERATE_BRANCH_FLOOR = 1e-9
# largest |p+ + p- - 1| a fidelity point accepts
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
    `truncation_tail` is the output state's population on the top Fock
    level |cutoff - 1>, both branches together: the weight the truncation
    may have distorted.
    """

    mean_excitation: float
    fidelity: float
    repetitions: int
    eta: float
    p_plus: float
    p_minus: float
    baseline: float
    cutoff: int
    truncation_tail: float


# ---------------------------------------------------------------------------
# the damped hybrid model
# ---------------------------------------------------------------------------


def _levels_and_cutoff(state: np.ndarray) -> tuple[int, int]:
    """(levels, d) of a state array; see the module docstring."""
    levels, d = state.shape[:2] if state.ndim in (2, 4) else (0, 0)
    if levels not in (1, 2) or d < 1 or state.shape not in ((levels, d), (levels, d) * 2):
        raise fock.LayoutError(f"an open-system state is a (levels, d) or (levels, d, levels, d) "
                               f"array with levels 1 or 2, got shape {state.shape}")
    return levels, d


class _DampedModeModel:
    """The damped hybrid model of one mode with cutoff d, per ancilla level.

    `k[FreeEvolution]` and `k[WaitingPeriod]` are (levels, d, d) stacks of the
    no-jump generator K = H - i/2 [r_down a^dag a + r_up a a^dag] of a timed
    segment, one block per ancilla Z level (the coupling is off while
    waiting); with levels 1 (no ancilla) the mode sees the Z = +1 level.
    `a` acts on the mode alone.
    """

    def __init__(self, levels: int, d: int, noise: NoiseParams):
        self.noise, self.levels, self.d = noise, levels, d
        self.a = fock.annihilation(self.d)
        ad = self.a.conj().T
        decay = -0.5j * (noise.rate_down * ad @ self.a + noise.rate_up * self.a @ ad)
        self.k = {seg: pulses.level_hamiltonians(noise.nu, eta, self.d)[:self.levels] + decay
                  for seg, eta in ((FreeEvolution, noise.eta), (WaitingPeriod, 0.0))}

    def rotation(self, seg: QubitRotation) -> np.ndarray:
        """The 2 x 2 ancilla rotation of `seg`; LayoutError without an ancilla."""
        if self.levels != 2:
            raise fock.LayoutError("an ancilla rotation needs a state with an ancilla")
        return fock.qubit_rotation_matrix(seg.axis, seg.angle)


# ---------------------------------------------------------------------------
# master-equation integration
# ---------------------------------------------------------------------------


def evolve_master(state: np.ndarray, schedule: PulseSchedule,
                  noise: NoiseParams) -> np.ndarray:
    """Evolve a state through a pulse schedule under the master equation.

    Returns the (levels, d, levels, d) density array.  Exact up to rounding.
    The lab-frame Hamiltonian is diagonal in the ancilla's Z basis and the
    jump operators act on the mode alone, so each (q, q') block of rho
    evolves on its own under a d^2 x d^2 Liouvillian:

        d/dt rho_qq' = -i K_q rho_qq' + i rho_qq' K_q'^dag
                       + r_down a rho_qq' a^dag + r_up a^dag rho_qq' a.

    The Liouvillian is not normal, so no eigh: its exponential is the scaled
    and squared Pade `fock.pade_exponential`, built once per (segment,
    q <= q') and reused (one per waiting segment, whose uncoupled blocks
    share a generator); the (q', q) block is set to the adjoint of the
    evolved (q, q') block.  Instantaneous rotations are exact 2 x 2
    conjugations on the ancilla axes.  A generator whose entries or 1-norm
    overflow is a ValueError naming the noise and the cutoff.
    """
    levels, d = _levels_and_cutoff(state)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        model = _DampedModeModel(levels, d, noise)
        a, eye = model.a, np.eye(d)
        # row-major vec(A X B) = (A kron B^T) vec(X)
        jumps = noise.rate_down * np.kron(a, a.conj()) + noise.rate_up * np.kron(a.conj().T, a.T)
    rho = np.array(np.multiply.outer(state, state.conj()) if state.ndim == 2 else state,
                   dtype=complex)
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
                    with np.errstate(over="ignore", invalid="ignore"):
                        gen = -1j * (np.kron(k[q], eye) - np.kron(eye, k[q2].conj())) + jumps
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


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of rho - sigma, for two density arrays over one
    space, each a square matrix or a (levels, d, levels, d) array."""
    dim = math.isqrt(np.size(rho))
    diff = np.reshape(rho, (dim, dim)) - np.reshape(sigma, (dim, dim))
    diff = (diff + diff.conj().T) / 2.0
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())


# ---------------------------------------------------------------------------
# quantum-jump unravelling
# ---------------------------------------------------------------------------


@dataclass
class JumpEnsemble:
    """Trajectory end states, normalised, as the columns of one (levels d) x
    n_trajectories array; `shape` is one state's (levels, d)."""

    columns: np.ndarray
    shape: tuple[int, int]
    jump_counts: np.ndarray
    n_trajectories: int

    @property
    def mean_jumps(self) -> float:
        return float(self.jump_counts.mean())

    @functools.cached_property
    def mean_state(self) -> np.ndarray:
        """The ensemble mean as a (levels, d, levels, d) array, built on first read."""
        psi = self.columns
        return (psi @ psi.conj().T / self.n_trajectories).reshape(self.shape * 2)


class _SegmentPropagators:
    """No-jump propagators of one timed segment type from one eigenbasis, and
    the jumps that interrupt them.

    The (levels, d, d) no-jump generator, one d x d block per ancilla level,
    is diagonalised once, K = V diag(lam) V^-1, so the propagator over any
    tau is V exp(-i lam tau) V^-1.  A V whose condition number exceeds
    EIGENBASIS_COND_LIMIT (K near defective) is refused.  The jump operators
    a and a^dag act on the mode alone; their weights are read off a column's
    Fock populations (`jump_weights`).
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
        self._lam_col = self.lam[..., None]
        # rows on |psi|^2 flattened over (level, Fock number): the norm, and its
        # decay rate, the diagonal of r_down a^dag a + r_up a a^dag (the
        # truncation's top entry included)
        self._norm_and_decay = np.tile(np.stack([np.ones(model.d), -2.0 * k[0].diagonal().imag]),
                                       model.levels)
        self.jump_ops = (model.a, model.a.conj().T)
        n = np.arange(model.d, dtype=float)
        # a^dag |d-1> = 0 after truncation: the top level carries no a^dag weight
        self._jump_weight_rows = np.tile(np.stack([model.noise.rate_down * n,
                                                   model.noise.rate_up * np.append(n[1:], 0.0)]),
                                         model.levels)

    def step(self, tau: float) -> np.ndarray:
        """The (levels, d, d) propagator over `tau`; it acts on (levels, d, n) columns."""
        return (self.v * np.exp(-1j * tau * self.lam)[:, None, :]) @ self.v_inv

    def jump_weights(self, squares: np.ndarray) -> np.ndarray:
        """(r_down |a psi|^2, r_up |a^dag psi|^2) of a column psi from `squares`,
        its |psi|^2 flattened over (level, Fock number): the squares weighted
        by n and by n + 1 (0 on the top level)."""
        return self._jump_weight_rows @ squares

    def _eigen_scaled(self, psi: np.ndarray) -> np.ndarray:
        """V with each eigenvector scaled by psi's coefficient on it: its product
        with exp(-i lam tau) is the no-jump column at tau."""
        return self.v * (self.v_inv @ psi).transpose(0, 2, 1)

    def jumps_across(self, psi: np.ndarray, r_target: float, duration: float,
                     rng: np.random.Generator):
        """Carry one (levels, d, 1) column across a segment of `duration` whose
        full step fell below its norm threshold; returns (psi, r_target, jumps).

        A jump time, the root of f(tau) = |V exp(-i lam tau) V^-1 psi|^2 -
        r_target, is bracketed to tol = duration 2^-40 by Newton steps on the
        exact slope -<psi(tau)|diag(r_down n + r_up (n + 1))|psi(tau)>,
        bisecting when a step leaves the bracket (a step under tol/2 ends the
        search from the left end, or is carried tol/4 past the root from the
        right end).  Each iterate's |psi(tau)|^2 gives both f and the slope,
        and that of the left end (f >= 0), where the jump is applied, gives
        the two jump weights (`jump_weights`).  The jump draws one uniform for
        the operator (`_pick_jump`, the draw of ``rng.choice``) and one new
        threshold; the rest of the segment is searched again only if its end
        point crosses that threshold.
        """
        jumps, remaining, tol = 0, duration, duration * 2.0 ** -40
        scaled = self._eigen_scaled(psi)
        while True:
            lo, hi, tau, at_tau = 0.0, remaining, 0.0, psi
            while True:  # on exit psi is the column at lo and lo_squares its |psi|^2
                squares = np.abs(at_tau.reshape(-1)) ** 2
                norm2, decay = (self._norm_and_decay @ squares).tolist()
                f = norm2 - r_target
                if f >= 0.0:
                    lo, psi, lo_squares = tau, at_tau, squares
                else:
                    hi = tau
                step = f / decay if decay > 0.0 else math.inf
                if hi - lo <= tol or (f >= 0.0 and step < 0.5 * tol):
                    break
                if abs(step) < 0.5 * tol:
                    step -= 0.25 * tol
                if not lo < tau + step < hi:
                    step = 0.5 * (lo + hi) - tau
                tau += step
                at_tau = scaled @ np.exp(-1j * tau * self._lam_col)
            jumped = self.jump_ops[_pick_jump(self.jump_weights(lo_squares), rng)] @ psi
            psi = jumped / math.sqrt(np.vdot(jumped, jumped).real)
            r_target = rng.random()
            jumps += 1
            remaining -= lo
            scaled = self._eigen_scaled(psi)
            end = scaled @ np.exp(-1j * remaining * self._lam_col)
            if np.vdot(end, end).real >= r_target:
                return end, r_target, jumps


def _pick_jump(weights: np.ndarray, rng: np.random.Generator) -> int:
    """0 (a) or 1 (a^dag) with probabilities proportional to `weights`, from
    one uniform: the draw, and the normalised threshold p_a / (p_a + p_adag),
    of ``rng.choice(2, p=weights / weights.sum())``."""
    w_down, w_up = weights.tolist()
    p_down, p_up = w_down / (w_down + w_up), w_up / (w_down + w_up)
    return 0 if rng.random() < p_down / (p_down + p_up) else 1


def _decompose_for_trajectories(state: np.ndarray):
    """Mixture weights and pure-state columns of a state array, over the flat
    (level, Fock number) index."""
    levels, d = _levels_and_cutoff(state)
    if state.ndim == 2:
        v = state.reshape(-1).astype(complex)
        v /= math.sqrt(np.vdot(v, v).real)
        return np.array([1.0]), v[:, None]
    rho = state.reshape(levels * d, levels * d)
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


def _column_norms(cols: np.ndarray) -> np.ndarray:
    """Squared norm of each column (last index) of a C-contiguous complex
    array, with no temporary of the array's size: the sum of squares of its
    real and imaginary parts, read as float pairs."""
    parts = cols.reshape(math.prod(cols.shape[:-1]), cols.shape[-1]).view(np.float64)
    squares = np.einsum("ij,ij->j", parts, parts)
    return squares[0::2] + squares[1::2]


def _schedule_period(segs: tuple) -> int:
    """Length of the shortest prefix of `segs` whose repetition is `segs`
    (the whole length when nothing shorter repeats; 1 when `segs` is empty)."""
    n = len(segs)
    return next((p for p in range(1, n) if n % p == 0 and segs[p:] == segs[:n - p]),
                max(n, 1))


def jump_unravelling(state: np.ndarray, schedule: PulseSchedule, noise: NoiseParams,
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
    repeats).  The no-jump norm never grows (d|psi|^2/dt =
    -<r_down a^dag a + r_up a a^dag> <= 0, rotations are unitary), so a
    column that ends a stretch of the schedule at or above its random
    threshold crossed it nowhere inside.  The screen has two levels, both
    composed no-jump propagators, each one (levels d) x (levels d) matrix:
    the period's, and its power for a block of B = floor(sqrt(P)) periods of
    the schedule's P, taken from the schedule alone so that neither the P/B
    block screens of every column nor the B period screens of a flagged
    column dominate.  A column whose block-screened norm stays at or above
    its threshold takes the block product.  Only the others go through the
    block period by period, as does every column through a block of one
    period or the short last block: a column whose period-screened norm
    falls below its threshold is walked through the period segment by
    segment, each timed segment's full-length propagator, one d x d block
    per ancilla level, then the Newton jump-time root find
    (`_SegmentPropagators.jumps_across`) in column order for the columns
    that fell below their threshold.  Only a walked column draws, and a
    column the screens skip has no crossing to draw for, so the draws come
    in the order a segment-by-segment walk of every column makes them.
    Raises ValueError when a no-jump generator is too close to defective for
    its eigenbasis (see EIGENBASIS_COND_LIMIT).
    """
    if isinstance(n_traj, bool) or not isinstance(n_traj, numbers.Integral):
        raise ValueError(f"n_traj must be an integer, got {n_traj!r}")
    if n_traj < 1:
        raise ValueError("n_traj must be at least 1")
    model = _DampedModeModel(*_levels_and_cutoff(state), noise)
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
    n_periods = len(segs) // period
    dim = model.levels * model.d
    window = np.eye(dim, dtype=complex).reshape(model.levels, model.d, dim)
    for seg in segs[:period]:
        window = no_jump_step(seg, window)
    window = window.reshape(dim, dim)
    block = max(math.isqrt(n_periods), 1)
    block_window = np.linalg.matrix_power(window, block)

    def screen(prop, cols, r_cols):
        """(prop @ cols, the indices of the columns whose screened norm is below
        their threshold, those columns of `cols`)."""
        screened = (prop @ cols.reshape(dim, -1)).reshape(cols.shape)
        # the margin keeps rounding in the composed product from hiding a crossing
        walk = np.flatnonzero(_column_norms(screened) < r_cols * (1.0 + 1e-12))
        return screened, walk, cols[..., walk]

    weights, columns = _decompose_for_trajectories(state)
    psi = columns[:, rng.choice(weights.size, size=n_traj, p=weights)]
    psi = np.ascontiguousarray(psi.reshape(model.levels, model.d, n_traj))
    r_target = rng.random(n_traj)
    jump_counts = np.zeros(n_traj, dtype=int)

    everything = np.arange(n_traj)
    for first in range(0, n_periods, block):
        count = min(block, n_periods - first)
        if count == block > 1:  # a whole block: only the columns its screen flags walk it
            psi, ids, cols = screen(block_window, psi, r_target)
            r_cols = r_target[ids]
        else:  # one period, or the short last block: every column walks it
            # (psi lets go of the columns, so no stale copy of them stays alive)
            ids, r_cols, cols, psi = everything, r_target, psi, None
        for _ in range(count):
            cols, walk, sub = screen(window, cols, r_cols)
            r_sub = r_cols[walk]
            for seg in segs[:period]:
                stepped = no_jump_step(seg, sub)
                if not isinstance(seg, QubitRotation):
                    for c in np.flatnonzero(_column_norms(stepped) < r_sub):
                        stepped[..., c:c + 1], r_sub[c], jumps = props[type(seg)].jumps_across(
                            sub[..., c:c + 1], float(r_sub[c]), seg.duration, rng)
                        jump_counts[ids[walk[c]]] += jumps
                sub = stepped
            cols[..., walk] = sub
            r_cols[walk] = r_sub
        if psi is None:
            psi = cols
        else:
            psi[..., ids] = cols
            r_target[ids] = r_cols
    psi = psi.reshape(dim, n_traj)
    psi /= np.sqrt(_column_norms(psi))
    return JumpEnsemble(psi, (model.levels, model.d), jump_counts, n_traj)


def short_time_jump_probability(state: np.ndarray, noise: NoiseParams,
                                dt: float) -> tuple[float, float]:
    """(simulated, closed-form) jump probability over one short interval dt.

    The closed form is (2 N_th <n> + N_th + <n>) (nu/Q) dt; the simulated
    value is the norm loss of the trajectories' no-jump propagator
    V exp(-i lam dt) V^-1 over a free evolution of length dt, averaged over
    the mixture.  `dt` must be finite and positive.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    model = _DampedModeModel(*_levels_and_cutoff(state), noise)
    weights, cols = _decompose_for_trajectories(state)
    cols = cols.reshape(model.levels, model.d, -1)
    evolved = _SegmentPropagators(model, FreeEvolution).step(dt) @ cols
    survive = _column_norms(evolved)
    simulated = float(np.dot(weights, 1.0 - survive))
    pops = (np.abs(cols) ** 2).sum(axis=0)
    n_mean = float(np.dot(weights, np.arange(model.d) @ pops))
    closed = (2 * noise.N_th * n_mean + noise.N_th + n_mean) * noise.nu / noise.Q * dt
    return simulated, closed


# ---------------------------------------------------------------------------
# measurement-fidelity curves
# ---------------------------------------------------------------------------


def _thermal_with_ancilla(n_mean: float, cutoff: int) -> np.ndarray:
    """|+><+| on the ancilla times the truncated, renormalised thermal state
    of one mode: a (2, cutoff, 2, cutoff) density array."""
    w = thermal_weights(n_mean, cutoff)
    w = w / w.sum()
    plus_dm = np.outer(fock.KET_PLUS, fock.KET_PLUS.conj())
    return np.kron(plus_dm, np.diag(w.astype(complex))).reshape(2, cutoff, 2, cutoff)


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
    The ancilla starts in |+>, the mode thermal with weights w_k.  The
    ideal-sequence route never forms the state: the gate is block diagonal
    in the two sectors of Z (x) exp(i pi a^dag a) (`pulses.sequence_unitary`),
    and branch +-'s population of Fock level n is sum_k w_k |<+-, n|G|+, k>|^2,
    read off the gate's |+, k> columns in O(d^2).  The other two routes
    evolve the density matrix and read it out through
    ``encoding.x_basis_branches``.  All three share the rest: the branch
    probabilities, the parity traces, and the truncation tail, the top Fock
    level's population summed over both branches.
    A branch probability that is not finite or leaves [-1e-9, 1 + 1e-9], as
    when the master equation diverges, raises ValueError.  So does a run
    whose p+ + p- misses 1 by more than ``BRANCH_TRACE_TOL``: it lost trace
    while keeping each probability in range.
    """
    reps, eta = config
    if cutoff is None:
        cutoff = fidelity_cutoff(n_mean)
    d = cutoff
    nu = noise.nu if isinstance(noise, NoiseParams) else 1.0
    params = HybridHamiltonianParams(eta=eta, nu=nu)
    if noise == "ideal-sequence":
        w = thermal_weights(n_mean, d)
        # gate[q, n, q', k]; its |+, k> column, read out in the X basis, has
        # amplitude (c_0 +- c_1) / 2 on branch +-, c_q = gate[q, :, 0, k] + gate[q, :, 1, k]
        cols = pulses.engineered_controlled_parity(params, d, reps).reshape(2, d, 2, d).sum(axis=2)
        amps = np.stack([cols[0] + cols[1], cols[0] - cols[1]]) / 2.0
        pops = (amps.real ** 2 + amps.imag ** 2) @ (w / w.sum())
    else:
        state = _thermal_with_ancilla(n_mean, d)
        if noise == "exact-gate":
            rho = encoding.apply_controlled_parity(state)
        elif isinstance(noise, NoiseParams):
            sched = pulses.build_h2_sequence(params, reps) + PulseSchedule(
                (pulses.frame_correction(eta, reps),))
            rho = evolve_master(state, sched, replace(noise, eta=eta))
        else:
            raise ValueError(f"unknown noise mode {noise!r}")
        # only the Fock populations of each branch enter
        pops = np.stack([b.diagonal().real
                         for b in encoding.x_basis_branches(rho.reshape(2 * d, 2 * d))])
    probs = [float(p) for p in pops.sum(axis=1)]
    # Tr(rho_s (I + s P)) over the normalized branch s
    traces = [1.0 + sign * float(pop @ fock.parity_diag(d)) / p
              if p >= DEGENERATE_BRANCH_FLOOR else 2.0
              for sign, pop, p in zip((+1, -1), pops, probs)]
    (p_plus, p_minus), (t_plus, t_minus) = probs, traces
    if not all(-1e-9 <= p <= 1.0 + 1e-9 for p in (p_plus, p_minus)):  # NaN fails too
        raise ValueError(f"branch probabilities p+ = {p_plus}, p- = {p_minus} are not "
                         f"probabilities: the run diverged (noise {noise!r}, cutoff {d})")
    if abs(p_plus + p_minus - 1.0) > BRANCH_TRACE_TOL:
        raise ValueError(f"branch probabilities p+ = {p_plus}, p- = {p_minus} sum to "
                         f"{p_plus + p_minus}, not 1: the run lost trace (noise {noise!r}, "
                         f"cutoff {d})")
    return FidelityPoint(
        mean_excitation=n_mean,
        fidelity=t_plus * t_minus / 4.0,
        repetitions=reps, eta=eta,
        p_plus=p_plus, p_minus=p_minus,
        baseline=1.0 / (n_mean + 1.0),
        cutoff=d, truncation_tail=float(pops[:, -1].sum()))


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
    n0 = float(np.einsum("qaqa->a", state).real @ np.arange(cutoff))
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
