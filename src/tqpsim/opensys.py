"""Open-system dynamics of the hybrid qubit-qumode system.

The mode couples to a hot background through the standard damping dissipators

    rho' = -i [H, rho] + (nu/Q)(N_th + 1) D{a} rho + (nu/Q) N_th D{a^dag} rho

with D{O} rho = O rho O^dag - 1/2 {O^dag O, rho}.  A state is a (2, d, 2, d)
density array, the ancilla on axes 0 and 2 and the mode on axes 1 and 3;
every solver reads d from the shape, and any other shape is a
``fock.LayoutError``.  The Hamiltonian is diagonal in the ancilla's Z basis
(`pulses.level_hamiltonians`) and the jumps act on the mode alone, so every
segment propagator is one d x d block per ancilla level.  Two solvers are
provided: the master equation, each (q, q') block of rho evolving on its
own through factors of d x d matrices (`evolve_master`: a waiting segment
is the damped mode's channel, which keeps each diagonal of a block; a free
segment wraps that channel in conditional displacements and dephases the
ancilla coherence, the polaron solution of the damped driven oscillator;
numpy alone, no d^2 x d^2 array), and a Monte-Carlo wavefunction
unravelling that carries all trajectories as columns of one array.  The
unravelling screens every column with composed no-jump propagators, the
only operators on the whole (ancilla, mode) space: one per block of about
sqrt(P) of the schedule's P periods, and one per period for the columns a
block screen flags.  It walks just the columns whose norm crossed their
threshold in a period through that period's per-segment propagators.  All
the columns that cross in one segment have their jump times found together,
one Newton root find in the eigenbasis of the segment's no-jump generator
whose numerics cover the whole stack while each column keeps its own
bracket and stopping test; the jump's weights are read off the same Fock
populations, and the random draws are those of a walk of every column, one
column at a time.
The printed right-hand side on the whole space, and the exponential of each
block's whole Liouvillian, are the independent references the tests check
against; they live with them.

On top of these sit the measurement-fidelity curves for the engineered
controlled-parity (closed-system by default: the dominant error there is the
quartic excitation-dependent term of the pulse sequence, not bath noise),
the closed-form initialisation-error estimate for the parity encoding, and
the comparison against dissipative-cooling error in the unresolved-sideband
regime.

The measured quantity is the nondemolition parity measurement of the
two-qumode parity encoding: the controlled parity C, which applies the mode
parity on ancilla |1>, acts on the ancilla in |+> and one mode, and the
ancilla is read out in the X basis, its + branch the even one.  The same C
makes the encoding's gates, C R_X(theta) C -> exp(i theta Z_L) on the mode
pair and B^dag C R_X(theta) C B -> exp(i theta X_L), with the ancilla back
in |+> after each (``msuqc``).  `fidelity_point` reads the two branches off
the gate's |+, k> columns on the closed routes and off the diagonals of
rho's ancilla blocks under a bath; the literal density-matrix route, C rho C
and then the X-basis branches, is the tests' cross-check.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import fock, pulses
from .pulses import FreeEvolution, HybridHamiltonianParams, PulseSchedule, QubitRotation
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
        for name in ("Q", "nu"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails every comparison
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {getattr(self, name)!r}")
        for name in ("eta", "N_th", "Gamma_dc", "Gamma_dp"):
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
    may have distorted.  `trace_defect` is |p_plus + p_minus - 1|, which a
    point keeps within ``BRANCH_TRACE_TOL``.
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
    trace_defect: float


# ---------------------------------------------------------------------------
# states and schedules
# ---------------------------------------------------------------------------


def _cutoff(state: np.ndarray) -> int:
    """d of a (2, d, 2, d) density array; any other shape is a LayoutError."""
    d = state.shape[1] if state.ndim == 4 else 0
    if d < 1 or state.shape != (2, d, 2, d):
        raise fock.LayoutError(f"an open-system state is a (2, d, 2, d) density array, "
                               f"got shape {state.shape}")
    return d


def _segments(schedule: PulseSchedule) -> tuple[tuple, dict]:
    """The schedule's segments with the zero-duration ones dropped (each is
    the identity; kept, it would stop the rotations around it fusing), and
    each rotation's 2 x 2 ancilla matrix."""
    segs = tuple(seg for seg in schedule.segments
                 if isinstance(seg, QubitRotation) or seg.duration > 0.0)
    return segs, {seg: fock.qubit_rotation_matrix(seg.axis, seg.angle)
                  for seg in set(segs) if isinstance(seg, QubitRotation)}


# ---------------------------------------------------------------------------
# master-equation integration
# ---------------------------------------------------------------------------


def _phi1(w: complex) -> complex:
    """phi_1(w) = (e^w - 1)/w; expm1 keeps it accurate for small w.  Below
    |w| = 1e-5 the Taylor head 1 + w/2 + w^2/6 (relative error about
    |w|^3/24) stands in: numpy divides a subnormal complex w by itself to
    inf + nan j, not 1."""
    if abs(w) < 1e-5:
        return 1.0 + w / 2.0 + w * w / 6.0
    return np.expm1(w) / w


def _phi1_slope(x: complex, y: complex) -> complex:
    """(phi_1(x) - phi_1(y))/(x - y), the divided difference of exp at 0, x
    and y: by its Taylor series sum_n h_n/(n + 2)!, h_n = x^n + x^(n-1) y +
    ... + y^n, where |x|, |y| < 1; in closed form elsewhere."""
    if max(abs(x), abs(y)) < 1.0:
        total, h_n = 0.0, 1.0
        for n in range(18):
            total += h_n / math.factorial(n + 2)
            h_n = x * h_n + y ** (n + 1)
        return total
    return (_phi1(x) - _phi1(y)) / (x - y)


def _free_factors(noise: NoiseParams, tau: float) -> tuple[complex, complex, float]:
    """(alpha, beta, ln c) of a free segment of duration `tau` on ancilla
    level 0; level 1 takes -alpha and -beta.  See `evolve_master`."""
    g, kappa, n_th = noise.eta * noise.nu, noise.nu / noise.Q, noise.N_th
    if g == 0.0:  # no coupling: the segment is a wait
        return 0j, 0j, 0.0
    # a numpy scalar: an overflow gives inf, which the caller refuses, not OverflowError
    mu = np.complex128(complex(kappa / 2.0, noise.nu))
    relax = _phi1(-kappa * tau)
    b_conj = 1j * tau * _phi1_slope(-mu * tau, -kappa * tau) / relax
    a_conj = 1j * tau * _phi1(-mu.conjugate() * tau) - b_conj * np.exp(-mu.conjugate() * tau)
    # the integral of |P|^2 over the segment, P(t) = (1 - e^(-mu t))/mu
    spread = tau * (1.0 - 2.0 * _phi1(-mu * tau).real + relax) / abs(mu) / abs(mu)
    log_c = -2.0 * (2.0 * n_th + 1.0) * g * g * (
        kappa * spread + np.expm1(-kappa * tau) * abs(b_conj) ** 2)
    return g * np.conj(a_conj), g * np.conj(b_conj), float(log_c)


class _DiagonalChannel:
    """The waiting channel of the damped mode, Phi_t = exp(t L0), on d x d blocks.

    L0 X = -i nu [a^dag a, X] + r_down (a X a^dag - {a^dag a, X}/2)
    + r_up (a^dag X a - {a a^dag, X}/2) maps each diagonal j - i of X onto
    itself, coupling X[i, j] to X[i + 1, j + 1] and X[i - 1, j - 1] only.  So
    row k of the (d, d) layout `slots` holds the entries (p, (p + k) mod d),
    p = 0 .. d - 1, as flat indices into the block: diagonal k followed by
    diagonal k - d, which together hold d entries.  `generator` is L0 on each
    row, a (d, d, d) stack of tridiagonal matrices with no hop across the
    seam between the two diagonals, so each is block diagonal and its
    exponential is exactly that of its two diagonals.
    """

    def __init__(self, d: int, noise: NoiseParams):
        i = np.broadcast_to(np.arange(d), (d, d))
        j = (i + np.arange(d)[:, None]) % d
        self.d, self.slots = d, i * d + j
        up = np.where(i < d - 1, i + 1.0, 0.0) + np.where(j < d - 1, j + 1.0, 0.0)  # a a^dag
        rd, ru = noise.rate_down, noise.rate_up
        # X[i + 1, j + 1] sits next along the row unless j + 1 leaves the block
        hop = np.where(j[:, :-1] < d - 1, np.sqrt((i[:, :-1] + 1.0) * (j[:, :-1] + 1.0)), 0.0)
        p = np.arange(d)
        self.generator = np.zeros((d, d, d), dtype=complex)
        self.generator[:, p, p] = -1j * noise.nu * (i - j) - 0.5 * (rd * (i + j) + ru * up)
        self.generator[:, p[:-1], p[1:]] = rd * hop  # r_down a X a^dag reads X[i + 1, j + 1]
        self.generator[:, p[1:], p[:-1]] = ru * hop  # r_up a^dag X a reads X[i - 1, j - 1]

    def apply(self, prop: np.ndarray, blocks: np.ndarray) -> np.ndarray:
        """A (d, d, d) propagator stack on (n, d, d) blocks: gather the rows,
        one batched product, scatter them back."""
        n, d = len(blocks), self.d
        flat = blocks.reshape(n, d * d).T
        out = np.empty_like(flat)
        out[self.slots] = prop @ flat[self.slots]
        return out.T.reshape(n, d, d)


def evolve_master(state: np.ndarray, schedule: PulseSchedule,
                  noise: NoiseParams) -> np.ndarray:
    """Evolve a state through a pulse schedule under the master equation.

    Returns the (2, d, 2, d) density array.  The lab-frame
    Hamiltonian is diagonal in the ancilla's Z basis and the jump operators
    act on the mode alone, so each (q, q') block X of rho evolves on its own:

        X' = L0 X - i g_q (a + a^dag) X + i g_q' X (a + a^dag),

    with L0 the waiting generator (`_DiagonalChannel`) and g_q = s_q eta nu,
    s_q = +1 on ancilla level 0 (Z = +1) and -1 on level 1; while waiting the
    coupling is off.  Only the blocks with q <= q' are evolved, all at once;
    each (q', q) block is set to the adjoint of the evolved (q, q') block.
    Instantaneous rotations are exact 2 x 2 conjugations on the ancilla axes,
    one per run of adjacent rotations (by their product).

    Waiting segments.  L0 keeps the diagonal i - j of |i><j| (phase
    covariance), so Phi_tau = exp(tau L0) is 2d - 1 tridiagonal blocks, held
    in pairs as d blocks of d x d; those of every timed duration are
    exponentiated in one stacked `fock.pade_exponential`.  This is exact on
    the truncated model.

    Free segments: conditional displacements around the waiting channel,

        X -> c_qq' D(alpha_q) Phi_tau(D(beta_q) X D(beta_q')^dag) D(alpha_q')^dag,

    alpha_q = s_q eta nu a, beta_q = s_q eta nu b, c_qq = 1, c_01 = c.  With
    mu = i nu + kappa/2 (kappa = nu/Q), P(t) = (1 - e^(-mu t))/mu (level q's
    mean field from vacuum is -i g_q P(t)), phi_1(w) = (e^w - 1)/w and
    e[0, x, y] = (phi_1(x) - phi_1(y))/(x - y):

        b^* = i tau e[0, -mu tau, -kappa tau] / phi_1(-kappa tau),
        a^* = i tau phi_1(-mu^* tau) - b^* e^(-mu^* tau),
        ln c = -2 (2 N_th + 1) eta^2 nu^2 (kappa int_0^tau |P|^2 - |b|^2 (1 - e^(-kappa tau))).

    Derivation (the polaron, or conditional-displacement, solution of the
    damped driven oscillator: Gambetta et al., PRA 77, 012112 (2008)).  On
    S = (a., a^dag., .a, .a^dag), the left and right products, the coupling
    is v.S with v = (-i g_q, -i g_q, i g_q', i g_q'); commutators of such
    terms are scalars, [u.S, w.S] = (u1 w2 - u2 w1) - (u3 w4 - u4 w3); and
    ad L0 maps u.S to (M u).S with

        M = [[i nu + c, 0, r_down, 0], [0, -(i nu + c), 0, -r_up],
             [-r_up, 0, i nu - c, 0], [0, r_down, 0, -(i nu - c)]],

    c = (r_down + r_up)/2, eigenvalues +-i nu +- kappa/2.  So exp(tau L) =
    exp(l.S + sigma) exp(tau L0) with l = M^-1 (e^(tau M) - 1) v, and since
    exp(tau L0) e^(u.S) = e^((e^(tau M) u).S) exp(tau L0), the form above
    holds when l = u(alpha_q, alpha_q') + e^(tau M) u(beta_q, beta_q'), u(x,
    y) = (-x^*, x, y^*, -y) being D(x) X D(y)^dag.  That is two equations,
    a^* + b^* e^(lam tau) = i (e^(lam tau) - 1)/lam at lam = i nu +- kappa/2,
    solved above as divided differences (they merge as kappa -> 0, where the
    split of the mean field between alpha and beta becomes free).  The
    scalar is linear in 2 N_th + 1; at N_th = 0 the vacuum's blocks stay
    coherent-state dyads, whose coefficient decays by kappa |p_0 - p_1|^2/2 =
    2 kappa g^2 |P|^2, less the overlap <beta_1|beta_0>^(1 - e^(-kappa tau))
    that Phi_tau applies itself.  Every coefficient is bounded at any Q:
    |b| <= tau, |a| <= 2 tau and -8 (2 N_th + 1) eta^2 nu tau <= ln c <= 0.

    The form is exact on the untruncated model.  Truncated, the two
    displacements are unitary d x d exponentials (one `fock.unitary_exponential`
    stack for all free durations; level 1 takes their adjoints), Phi_tau is
    the truncated waiting channel and 0 < c <= 1, so each segment is a
    conditional unitary, an ancilla dephasing, id (x) Phi_tau and a
    conditional unitary: trace preserving and completely positive at any
    cutoff.  It differs from the exponential of the truncated Liouvillian at
    the top levels; the tests hold that route as the cross-check.  No
    d^2 x d^2 array is formed: the set-up is O(d^4) and a segment O(d^3).

    A rate, free-segment coefficient or waiting-block generator that is not
    finite (its entries or 1-norm overflow) is a ValueError naming the noise
    and the cutoff, raised before any exponential is taken.
    """
    d = _cutoff(state)
    rho = np.array(state, dtype=complex)
    segs, rotations = _segments(schedule)
    taus = sorted({seg.duration for seg in segs if not isinstance(seg, QubitRotation)})
    free_taus = sorted({seg.duration for seg in segs if isinstance(seg, FreeEvolution)})
    left, right = np.triu_indices(2)
    off = left != right
    refusal = f"the master equation's generator is not finite (noise {noise!r}, cutoff {d})"
    props, free = {}, {}
    if taus:
        if not math.isfinite(noise.rate_down):  # the largest rate
            raise ValueError(refusal)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            channel = _DiagonalChannel(d, noise)
            gens = channel.generator * np.array(taus)[:, None, None, None]
            factors = np.array([_free_factors(noise, tau) for tau in free_taus]).reshape(-1, 3)
            finite = np.isfinite(np.abs(gens).sum(axis=-2)).all() and np.isfinite(factors).all()
        if not finite:  # NaN too: an entry or the 1-norm overflowed
            raise ValueError(refusal)
        props = dict(zip(taus, fock.pade_exponential(gens)))
        a = fock.annihilation(d)
        # D(x) = exp(x a^dag - x^* a) for alpha and beta of each free duration
        amps = factors[:, :2, None, None]
        shifts = fock.unitary_exponential(amps * a.T - amps.conj() * a)
        for tau, (_, _, log_c), shift in zip(free_taus, factors, shifts):
            # per ancilla level: D(alpha_q), D(beta_q); level 1's are the adjoints
            level = np.stack([shift, shift.conj().swapaxes(-1, -2)])
            scale = np.where(off, math.exp(log_c.real), 1.0)[:, None, None]
            free[tau] = (scale, level[left, 0], level[right, 0].conj().swapaxes(-1, -2),
                         level[left, 1], level[right, 1].conj().swapaxes(-1, -2))
    for rotating, run in itertools.groupby(segs, key=lambda seg: seg in rotations):
        if rotating:  # one conjugation per run of adjacent rotations
            r = functools.reduce(np.matmul, [rotations[seg] for seg in reversed(list(run))])
            rho = np.einsum("pq,qasb,rs->parb", r, rho, r.conj())
            continue
        for seg in run:
            blocks = rho[left, :, right, :]
            if isinstance(seg, FreeEvolution):
                scale, e_left, e_right, f_left, f_right = free[seg.duration]
                inner = channel.apply(props[seg.duration], f_left @ blocks @ f_right)
                blocks = scale * (e_left @ inner @ e_right)
            else:
                blocks = channel.apply(props[seg.duration], blocks)
            rho[left, :, right, :] = blocks
            # rho is Hermitian: each (q', q) block is the adjoint of its (q, q') block
            rho[right[off], :, left[off], :] = blocks[off].conj().swapaxes(-1, -2)
    return rho


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of rho - sigma, for two density arrays over one
    space, each a square matrix or a (2, d, 2, d) array."""
    dim = math.isqrt(np.size(rho))
    diff = np.reshape(rho, (dim, dim)) - np.reshape(sigma, (dim, dim))
    diff = (diff + diff.conj().T) / 2.0
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())


# ---------------------------------------------------------------------------
# quantum-jump unravelling
# ---------------------------------------------------------------------------


@dataclass
class JumpEnsemble:
    """Trajectory end states, normalised, as the columns of one 2d x
    n_trajectories array, each row a flat (ancilla level, Fock number) index."""

    columns: np.ndarray
    jump_counts: np.ndarray
    n_trajectories: int

    @property
    def mean_jumps(self) -> float:
        return float(self.jump_counts.mean())

    @functools.cached_property
    def mean_state(self) -> np.ndarray:
        """The ensemble mean as a (2, d, 2, d) array, built on first read."""
        psi, d = self.columns, len(self.columns) // 2
        return (psi @ psi.conj().T / self.n_trajectories).reshape(2, d, 2, d)


class _SegmentPropagators:
    """No-jump propagators of one timed segment type from one eigenbasis, and
    the jumps that interrupt them.

    The (2, d, d) no-jump generator of a timed segment, one d x d block per
    ancilla Z level, K_q = H_q - i/2 (r_down a^dag a + r_up a a^dag) with H_q
    from `pulses.level_hamiltonians` (the coupling is off while waiting), is
    diagonalised once, K = V diag(lam) V^-1, so the propagator over any tau
    is V exp(-i lam tau) V^-1.  A V whose condition number exceeds
    EIGENBASIS_COND_LIMIT (K near defective) is refused.  The jump operators
    a and a^dag act on the mode alone; their weights are read off a column's
    Fock populations (`_read`).
    """

    def __init__(self, noise: NoiseParams, d: int, seg_type: type):
        a = fock.annihilation(d)
        ad = a.conj().T
        decay = -0.5j * (noise.rate_down * ad @ a + noise.rate_up * a @ ad)
        eta = noise.eta if seg_type is FreeEvolution else 0.0
        k = pulses.level_hamiltonians(noise.nu, eta, d) + decay
        self.lam, self.v = np.linalg.eig(k)
        cond = float(np.linalg.cond(self.v).max())
        if cond > EIGENBASIS_COND_LIMIT:
            raise ValueError(f"no-jump eigenbasis too ill-conditioned (cond {cond:.3g} > "
                             f"{EIGENBASIS_COND_LIMIT:g}) at Q = {noise.Q!r}, "
                             f"eta = {noise.eta!r}, cutoff {d}")
        self.v_inv = np.linalg.inv(self.v)
        self._phase = -1j * self.lam[..., None]  # times tau, the exponent of each eigenvector
        self.jump_ops = np.stack([a, ad])
        # V^-1 a and V^-1 a^dag per level: the eigen-coefficients of a jumped column
        self._jumped_coefficients = (self.v_inv @ self.jump_ops[:, None])[:, None]
        n = np.arange(d, dtype=float)
        n_up = np.append(n[1:], 0.0)  # a^dag |d-1> = 0 after truncation
        # rows on the squares of a column's real and imaginary parts, flattened
        # over (level, Fock number, part): its norm, the norm's decay rate (the
        # diagonal of r_down a^dag a + r_up a a^dag, the truncation's top entry
        # included), the two jump weights r_down |a psi|^2 and r_up |a^dag psi|^2,
        # and |a psi|^2 and |a^dag psi|^2
        reads = np.stack([np.ones(d), -2.0 * k[0].diagonal().imag,
                          noise.rate_down * n, noise.rate_up * n_up, n, n_up], axis=1)
        self._reads = np.repeat(np.tile(reads, (2, 1)), 2, axis=0)

    def step(self, tau: float) -> np.ndarray:
        """The (2, d, d) propagator over `tau`; it acts on (2, d, n) columns."""
        return (self.v * np.exp(-1j * tau * self.lam)[:, None, :]) @ self.v_inv

    def _read(self, cols: np.ndarray) -> list:
        """[norm^2, decay rate, r_down |a psi|^2, r_up |a^dag psi|^2, |a psi|^2,
        |a^dag psi|^2] of each column psi of an (n, 2, d, 1) stack, as
        Python floats.  One product per column, so a column's reads do not
        depend on the others in the stack."""
        parts = np.square(cols.view(np.float64)).reshape(len(cols), 1, -1)
        return (parts @ self._reads)[:, 0].tolist()

    def _jump_candidates(self, psi: np.ndarray, r_target: list, remaining: list,
                         tol: float) -> list:
        """Find the first jump time of each column of a (2, d, k) stack
        within its `remaining` time (see `jumps_across`) and form both of its
        candidate jumps.

        Returns, per column, (its reads at the jump time, its column there,
        the time left after the jump, both candidate jumps carried over that
        time as a (2, 2, d, 1) stack, unnormalised, and their squared
        norms).  Each Newton iterate is one evaluation of the whole stack; the
        control is per column, in floats, and a column whose bracket is
        closed keeps its last iterate until every bracket is.  Every product
        is per column, so a column's result does not depend on the others.
        """
        k = len(r_target)
        at = psi.transpose(2, 0, 1)[..., None]  # (k, 2, d, 1): each column at tau = 0
        coefficients = self.v_inv @ at  # on the eigenvectors of K
        los, his, taus = [0.0] * k, list(remaining), [0.0] * k  # each column's bracket, iterate
        found = [None] * k  # per column: (lo, its column there, its reads there)
        # the iterates again, as a complex (k, 1, 1, 1) array: their product
        # with the exponents then needs no cast
        iterates = np.zeros(k, dtype=complex)
        iterate_cols = iterates.reshape(k, 1, 1, 1)
        searching = range(k)
        while True:
            reads, still_open = self._read(at), []
            for c in searching:
                read, lo, hi, tau = reads[c], los[c], his[c], taus[c]
                f = read[0] - r_target[c]
                if f >= 0.0:
                    lo, found[c] = tau, (tau, at[c:c + 1], read)
                else:
                    hi = tau
                step = f / read[1] if read[1] > 0.0 else math.inf
                if hi - lo <= tol or (f >= 0.0 and step < 0.5 * tol):
                    continue
                if abs(step) < 0.5 * tol:
                    step -= 0.25 * tol
                if not lo < tau + step < hi:
                    step = 0.5 * (lo + hi) - tau
                los[c], his[c], taus[c] = lo, hi, tau + step
                iterates[c] = tau + step
                still_open.append(c)
            if not still_open:
                break
            searching = still_open
            at = self.v @ (coefficients * np.exp(iterate_cols * self._phase))
        t_lo, lo_cols, lo_reads = zip(*found)
        at_lo = np.concatenate(lo_cols)
        left = [t - t0 for t, t0 in zip(remaining, t_lo)]
        ends = self.v @ ((self._jumped_coefficients @ at_lo)
                         * np.exp(np.array(left, dtype=complex).reshape(k, 1, 1, 1) * self._phase))
        end_norms = self._read(ends.reshape(2 * k, *ends.shape[2:]))
        return [(lo_reads[c], at_lo[c], left[c], ends[:, c],
                 (end_norms[c][0], end_norms[k + c][0])) for c in range(k)]

    def jumps_across(self, psi: np.ndarray, r_target: np.ndarray, duration: float,
                     rng: np.random.Generator):
        """Carry a (2, d, k) stack of columns across a segment of
        `duration` whose full step took each below its norm threshold
        `r_target[c]`; returns (the stack at the segment's end, the columns'
        new thresholds, their jump counts), the last two as lists.

        A jump time, the root of f(tau) = |V exp(-i lam tau) V^-1 psi|^2 -
        r_target, is bracketed to tol = duration 2^-40 by Newton steps on the
        exact slope -<psi(tau)|diag(r_down n + r_up (n + 1))|psi(tau)>,
        bisecting when a step leaves the bracket (a step under tol/2 ends the
        search from the left end, or is carried tol/4 past the root from the
        right end).  Each iterate's populations give f, the slope and, at the
        left end (f >= 0), where the jump is applied, the two jump weights
        (`_read`).  Every column is searched at once, and both of its
        candidate jumps, a psi and a^dag psi, are carried to the segment's end
        before any draw.  Then, column by column, a jump draws one uniform for
        the operator (`_pick_jump`, the draw of ``rng.choice``) and one new
        threshold; a column whose chosen end point crosses that threshold is
        searched again over the rest of the segment, as a stack of one, and
        finishes its draws before the next column draws.  So the draws are
        those of one column at a time.  The jumped columns are renormalised
        together at the end.
        """
        tol = duration * 2.0 ** -40
        thresholds, jumps, ends, scales = [], [], [], []
        for candidate in self._jump_candidates(psi, r_target.tolist(),
                                               [duration] * psi.shape[-1], tol):
            count = 0
            while True:
                reads, at_lo, left, end, end_norms = candidate
                pick = _pick_jump(reads[2:4], rng)
                r_new = rng.random()
                count += 1
                norm2 = reads[4 + pick]  # of the jumped column
                if end_norms[pick] / norm2 >= r_new:
                    break
                jumped = self.jump_ops[pick] @ at_lo / math.sqrt(norm2)
                (candidate,) = self._jump_candidates(jumped, [r_new], [left], tol)
            thresholds.append(r_new)
            jumps.append(count)
            ends.append(end[pick])
            scales.append(1.0 / math.sqrt(norm2))
        return np.concatenate(ends, axis=-1) * scales, thresholds, jumps


def _pick_jump(weights, rng: np.random.Generator) -> int:
    """0 (a) or 1 (a^dag) with probabilities proportional to the two
    `weights`, from one uniform: the draw, and the normalised threshold
    p_a / (p_a + p_adag), of ``rng.choice(2, p=weights / weights.sum())``."""
    w_down, w_up = weights
    p_down, p_up = w_down / (w_down + w_up), w_up / (w_down + w_up)
    return 0 if rng.random() < p_down / (p_down + p_up) else 1


def _decompose_for_trajectories(rho: np.ndarray, d: int):
    """Mixture weights and pure-state columns of a (2, d, 2, d) density array,
    its eigendecomposition over the flat (level, Fock number) index."""
    lam, vec = np.linalg.eigh(rho.reshape(2 * d, 2 * d))
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
    a^dag at the printed rates.  The input density is sampled from its
    eigenbasis.  The ensemble mean converges to the master equation at the
    Monte-Carlo rate.

    All trajectories are columns of one (2, d, n_traj) array.  The
    schedule (zero-duration segments dropped) is cut into repeats of its
    shortest repeating prefix, the period (the whole schedule when nothing
    repeats).  The no-jump norm never grows (d|psi|^2/dt =
    -<r_down a^dag a + r_up a a^dag> <= 0, rotations are unitary), so a
    column that ends a stretch of the schedule at or above its random
    threshold crossed it nowhere inside.  The screen has two levels, both
    composed no-jump propagators, each one 2d x 2d matrix: the period's,
    and its power for a block of B = floor(sqrt(P)) periods of the
    schedule's P, taken from the schedule alone so that neither the P/B
    block screens of every column nor the B period screens of a flagged
    column dominate (a short last block takes the power for its own
    length).  A column whose block-screened norm stays at or above its
    threshold takes the block product.  Only the others go through the
    block period by period: a column whose period-screened norm falls below
    its threshold is walked through the period segment by segment, each
    timed segment's full-length propagator, one d x d block per ancilla
    level.  The columns that fall below their threshold in a segment go, as
    one stack, through the Newton jump-time root find
    (`_SegmentPropagators.jumps_across`), which draws for them in column
    order.  Only a walked column draws, and a column the screens skip has no
    crossing to draw for, so the draws come in the order a
    segment-by-segment walk of every column makes them.
    Raises ValueError when a no-jump generator is too close to defective for
    its eigenbasis (see EIGENBASIS_COND_LIMIT).
    """
    fock.checked_int("n_traj", n_traj, 1)
    d = _cutoff(state)
    segs, rotations = _segments(schedule)
    props = {kind: _SegmentPropagators(noise, d, kind)
             for kind in {type(seg) for seg in segs} - {QubitRotation}}
    steps = {seg: props[type(seg)].step(seg.duration) for seg in set(segs) - set(rotations)}

    def no_jump_step(seg, cols):
        if isinstance(seg, QubitRotation):
            return (rotations[seg] @ cols.reshape(2, -1)).reshape(cols.shape)
        return steps[seg] @ cols

    period = _schedule_period(segs)
    n_periods = len(segs) // period
    dim = 2 * d
    window = np.eye(dim, dtype=complex).reshape(2, d, dim)
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

    weights, columns = _decompose_for_trajectories(state, d)
    psi = columns[:, rng.choice(weights.size, size=n_traj, p=weights)]
    psi = np.ascontiguousarray(psi.reshape(2, d, n_traj))
    r_target = rng.random(n_traj)
    jump_counts = np.zeros(n_traj, dtype=int)

    for first in range(0, n_periods, block):
        count = min(block, n_periods - first)
        span = block_window if count == block else np.linalg.matrix_power(window, count)
        # only the columns the block's screen flags walk it
        psi, ids, cols = screen(span, psi, r_target)
        r_cols = r_target[ids]
        for _ in range(count):
            cols, walk, sub = screen(window, cols, r_cols)
            r_sub = r_cols[walk]
            for seg in segs[:period]:
                stepped = no_jump_step(seg, sub)
                if not isinstance(seg, QubitRotation):
                    crossed = np.flatnonzero(_column_norms(stepped) < r_sub)
                    if crossed.size:
                        seg_props = props[type(seg)]
                        stepped[..., crossed], r_sub[crossed], jumps = seg_props.jumps_across(
                            sub[..., crossed], r_sub[crossed], seg.duration, rng)
                        jump_counts[ids[walk[crossed]]] += jumps
                sub = stepped
            cols[..., walk] = sub
            r_cols[walk] = r_sub
        psi[..., ids] = cols
        r_target[ids] = r_cols
    psi = psi.reshape(dim, n_traj)
    psi /= np.sqrt(_column_norms(psi))
    return JumpEnsemble(psi, jump_counts, n_traj)


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
    d = _cutoff(state)
    weights, cols = _decompose_for_trajectories(state, d)
    cols = cols.reshape(2, d, -1)
    evolved = _SegmentPropagators(noise, d, FreeEvolution).step(dt) @ cols
    survive = _column_norms(evolved)
    simulated = float(np.dot(weights, 1.0 - survive))
    pops = (np.abs(cols) ** 2).sum(axis=0)
    n_mean = float(np.dot(weights, np.arange(d) @ pops))
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


def fidelity_point(n_mean: float, config: tuple[int, float],
                   noise: NoiseParams | str = "ideal-sequence",
                   cutoff: int | None = None) -> FidelityPoint:
    """Logical-qubit fidelity of the engineered parity measurement.

    `config` is (repetitions, eta).  With `noise="ideal-sequence"` (default)
    the engineered controlled-parity runs closed-system, so the infidelity
    comes from the sequence's high-order excitation-dependent error alone;
    `noise="exact-gate"` uses the exact controlled-parity (fidelity 1, a
    consistency anchor); a NoiseParams adds bath damping via the master
    equation, with its coupling taken from `config`: the bath's own eta must
    be 0 or that coupling, else ValueError.
    The default cutoff is 4 above the smallest one >= 10 whose thermal tail
    is below 1e-6; a cutoff that is not an integer >= 2 is a ValueError.
    The ancilla starts in |+>, the mode thermal with weights w_k.  The two
    closed routes never form the state: branch +-'s population of Fock level
    n is sum_k w_k |<+-, n|G|+, k>|^2, read off the gate G's |+, k> columns
    in O(d^2).  The engineered gate is block diagonal in the two sectors of
    Z (x) exp(i pi a^dag a) (`pulses.sequence_unitary`); the exact one is
    the diagonal `fock.controlled_parity_diag`.  The bath route evolves the
    density matrix and reads its branches off the diagonals of the ancilla
    blocks rho_qq'.  All three share the rest: the branch probabilities, the
    parity traces, and the truncation tail, the top Fock level's population
    summed over both branches.
    A branch probability that is not finite or leaves [-1e-9, 1 + 1e-9], as
    when the master equation diverges, raises ValueError.  So does a run
    whose p+ + p- misses 1 by more than ``BRANCH_TRACE_TOL``: it lost trace
    while keeping each probability in range.
    """
    reps, eta = config
    d = required_cutoff(n_mean, 1e-6, 10) + 4 if cutoff is None \
        else fock.checked_int("cutoff", cutoff, 2)
    nu = noise.nu if isinstance(noise, NoiseParams) else 1.0
    params = HybridHamiltonianParams(eta=eta, nu=nu)
    if noise in ("ideal-sequence", "exact-gate"):
        gate = (pulses.engineered_controlled_parity(params, d, reps) if noise == "ideal-sequence"
                else np.diag(fock.controlled_parity_diag(d)))
        w = thermal_weights(n_mean, d)
        # gate[q, n, q', k]; its |+, k> column, read out in the X basis, has
        # amplitude (c_0 +- c_1) / 2 on branch +-, c_q = gate[q, :, 0, k] + gate[q, :, 1, k]
        cols = gate.reshape(2, d, 2, d).sum(axis=2)
        amps = np.stack([cols[0] + cols[1], cols[0] - cols[1]]) / 2.0
        pops = (amps.real ** 2 + amps.imag ** 2) @ (w / w.sum())
    elif isinstance(noise, NoiseParams):
        if noise.eta not in (0.0, eta):
            raise ValueError(f"the bath's eta = {noise.eta!r} disagrees with the configured "
                             f"eta = {eta!r}")
        sched = pulses.build_h2_sequence(params, reps) + PulseSchedule(
            (pulses.frame_correction(eta, reps),))
        rho = evolve_master(_thermal_with_ancilla(n_mean, d), sched, replace(noise, eta=eta))
        # branch +- of the ancilla's X-basis readout is (rho_00 + rho_11 +- (rho_01 + rho_10))/2
        # on the mode; only its Fock populations, the diagonals, enter
        blocks = rho.diagonal(axis1=1, axis2=3)  # blocks[q, q'] is the diagonal of rho_qq'
        diag, off = blocks[0, 0] + blocks[1, 1], blocks[0, 1] + blocks[1, 0]
        pops = np.stack([((diag + off) / 2.0).real, ((diag - off) / 2.0).real])
    else:
        raise ValueError(f"unknown noise mode {noise!r}")
    probs = [float(p) for p in pops.sum(axis=1)]
    # Tr(rho_s (I + s P)) over the normalized branch s
    traces = [1.0 + sign * float(pop @ fock.parity_diag(d)) / p
              if p >= DEGENERATE_BRANCH_FLOOR else 2.0
              for sign, pop, p in zip((+1, -1), pops, probs)]
    (p_plus, p_minus), (t_plus, t_minus) = probs, traces
    if not all(-1e-9 <= p <= 1.0 + 1e-9 for p in (p_plus, p_minus)):  # NaN fails too
        raise ValueError(f"branch probabilities p+ = {p_plus}, p- = {p_minus} are not "
                         f"probabilities: the run diverged (noise {noise!r}, cutoff {d})")
    trace_defect = abs(p_plus + p_minus - 1.0)
    if trace_defect > BRANCH_TRACE_TOL:
        raise ValueError(f"branch probabilities p+ = {p_plus}, p- = {p_minus} sum to "
                         f"{p_plus + p_minus}, not 1: the run lost trace (noise {noise!r}, "
                         f"cutoff {d})")
    return FidelityPoint(
        mean_excitation=n_mean,
        fidelity=t_plus * t_minus / 4.0,
        repetitions=reps, eta=eta,
        p_plus=p_plus, p_minus=p_minus,
        baseline=1.0 / (n_mean + 1.0),
        cutoff=d, truncation_tail=float(pops[:, -1].sum()), trace_defect=trace_defect)


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
    `epsilon_tqp`.  A cutoff that is not an integer >= 2 is a ValueError.
    """
    eta = noise.eta
    if eta <= 0:
        raise ValueError("noise parameters need a positive eta")
    reps = pulses.coupling_implied_sequences(eta)
    cutoff = required_cutoff(n_mean, 1e-6, 10) + 6 if cutoff is None \
        else fock.checked_int("cutoff", cutoff, 2)
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
