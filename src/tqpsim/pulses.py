"""Engineering a dispersive qubit-number coupling from first-order dynamics.

The native interaction is H = nu a^dag a + nu eta Z (a + a^dag).  Free
evolutions of duration pi/nu, conjugated by fast pi/4 ancilla rotations,
realize qubit-conditioned displacements; a closed loop of four of them picks
up a geometric phase proportional to Z, and interleaving quarter-period
waiting rotations makes the phase excitation-dependent.  One full engineered
sequence is the 16-segment loop (four displacement groups, each followed by
a quarter-period waiting segment) and lasts 18 pi / nu; it approximates

    exp(-i 64 eta^2 Z (a^dag a + 1/2))

with a residual whose leading excitation-dependent part scales like
eta^4 (a^dag a)^2 (an eta^2 global phase is removed by gauging; comparisons
here are all phase-gauged).

Repetition bookkeeping.  Accumulating a conditional phase of pi per
excitation - a full controlled-parity - takes R = pi / (128 eta^2)
sequences, i.e. eta = sqrt(pi / 128 R); the standard configurations pair
R in {50, 100, 200} with eta in {0.0222, 0.0157, 0.0111}.  The quoted
effective coupling strength lambda = (32/9) eta^2 nu corresponds instead to
a controlled-parity duration of pi/(2 lambda) = 9 pi/(64 eta^2 nu); the two
conventions differ by a factor of pi and both are exposed (`effective_coupling`
returns the quoted strength; `repetitions_for_controlled_parity` uses the
phase calibration).  Error estimates built on the quoted coupling use its
own implied duration, keeping them self-consistent.

Block structure.  H is diagonal in the ancilla's Z basis, one d x d block
per level (`level_hamiltonians`), and the rotations act on the ancilla
alone.  `simulate_schedule` therefore holds the unitary as a (2, d, 2d)
array, rows split by ancilla level: a free evolution multiplies the two
closed-form level blocks into it in one batched product, a rotation applies
its 2 x 2 matrix to the level axis, and a bare waiting period scales every
level by the same diagonal phase.  No 2d x 2d segment matrix is built.  A free
evolution's level blocks are D(alpha) and D(alpha)^dag = D(-alpha) from one
`fock.unitary_exponential`, so the module needs numpy alone.

The engineered sequence has a finer split.  It commutes with the hybrid
parity Z (x) exp(i pi a^dag a), the parity of the quantum Rabi model (Braak,
PRL 107, 100401 (2011)): each conjugated free evolution couples the mode
through R Z R^dag, one of +-X and +-Y, which anticommutes with Z, by
a + a^dag, which anticommutes with the mode parity; the waits and the frame
correction are diagonal.  So `sequence_unitary` builds the displacement
group's two d x d sector blocks (`fock.parity_sectors`) in closed form and
powers them, not one 2d x 2d matrix; `simulate_schedule` stays the general
route and cross-checks it.  Every operator the module returns is a plain
2d x 2d array, ancilla level major.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from . import fock

SEQUENCE_PERIODS = 18.0  # one engineered sequence lasts 18 pi / nu


@dataclass(frozen=True)
class HybridHamiltonianParams:
    """First-order coupling H = nu a^dag a + nu eta Z (a + a^dag).

    eta is dimensionless and must stay in the weak-coupling regime; values
    above 0.05 trigger a warning, above 0.2 an error.
    """

    eta: float
    nu: float = 1.0

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError("eta must be non-negative")
        if self.eta > 0.2:
            raise ValueError(f"eta = {self.eta} outside the supported weak-coupling range")
        if self.eta > 0.05:
            warnings.warn(f"eta = {self.eta} is large for the engineered sequence; "
                          "residuals grow like eta^4", stacklevel=2)


@dataclass(frozen=True)
class FreeEvolution:
    duration: float


@dataclass(frozen=True)
class QubitRotation:
    """Ideal instantaneous ancilla rotation exp(i angle sigma_axis)."""

    axis: str
    angle: float

    def __post_init__(self):
        if not isinstance(self.axis, str) or self.axis.lower() not in ("x", "y", "z"):
            raise ValueError(f"rotation axis must be x, y or z, got {self.axis!r}")


@dataclass(frozen=True)
class WaitingPeriod:
    """Bare-oscillator evolution.  With `flip_interval` set, the coupling is
    cancelled dynamically by flipping the qubit every `flip_interval`;
    otherwise the segment is an ideal eta = 0 evolution."""

    duration: float
    flip_interval: float | None = None


Segment = FreeEvolution | QubitRotation | WaitingPeriod


@dataclass(frozen=True)
class PulseSchedule:
    segments: tuple[Segment, ...]

    def __post_init__(self):
        for seg in self.segments:
            if isinstance(seg, (FreeEvolution, WaitingPeriod)) and seg.duration < 0:
                raise ValueError("segment durations must be non-negative")
            if isinstance(seg, WaitingPeriod) and seg.flip_interval is not None \
                    and seg.flip_interval > seg.duration:
                raise ValueError("flip interval cannot exceed the waiting duration")

    @property
    def total_time(self) -> float:
        return sum(s.duration for s in self.segments
                   if isinstance(s, (FreeEvolution, WaitingPeriod)))

    def __add__(self, other: "PulseSchedule") -> "PulseSchedule":
        return PulseSchedule(self.segments + other.segments)

    def repeated(self, times: int) -> "PulseSchedule":
        return PulseSchedule(self.segments * times)

    def expand_waiting(self) -> "PulseSchedule":
        """Rewrite flip-cancelled waiting periods as rotations + free evolutions.

        `flip_interval` is an upper bound; the actual half-interval divides
        the duration exactly so the expanded schedule keeps the same total
        time.
        """
        out = []
        for seg in self.segments:
            if isinstance(seg, WaitingPeriod) and seg.flip_interval is not None:
                n_pairs = max(1, math.ceil(seg.duration / (2 * seg.flip_interval)))
                half = seg.duration / (2 * n_pairs)
                for _ in range(n_pairs):
                    out.append(FreeEvolution(half))
                    out.append(QubitRotation("x", -math.pi / 2))
                    out.append(FreeEvolution(half))
                    out.append(QubitRotation("x", math.pi / 2))
            else:
                out.append(seg)
        return PulseSchedule(tuple(out))

    def to_json_dict(self) -> dict:
        segs = []
        for seg in self.segments:
            if isinstance(seg, FreeEvolution):
                segs.append({"type": "free", "duration": seg.duration})
            elif isinstance(seg, QubitRotation):
                segs.append({"type": "rotation", "axis": seg.axis, "angle": seg.angle})
            else:
                segs.append({"type": "waiting", "duration": seg.duration,
                             "flip_interval": seg.flip_interval})
        return {"segments": segs, "total_time": self.total_time}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")


# ---------------------------------------------------------------------------
# propagators
# ---------------------------------------------------------------------------


def level_hamiltonians(nu: float, eta: float, cutoff: int) -> np.ndarray:
    """[H_+, H_-], H_pm = nu a^dag a +- nu eta (a + a^dag) on the mode: H is
    one d x d block per ancilla Z level, level 0 (qubit |0>, Z = +1) first."""
    a = fock.annihilation(cutoff)
    n, x = nu * np.diag(np.arange(cutoff)), nu * eta * (a + a.conj().T)
    return np.stack([n + x, n - x])


def _on_levels(blocks: np.ndarray) -> np.ndarray:
    """(ancilla, mode) matrix with the (2, d, d) `blocks` on its Z levels, level 0 first."""
    d = blocks.shape[-1]
    mat = np.zeros((2, d, 2, d), dtype=complex)
    mat[[0, 1], :, [0, 1]] = blocks
    return mat.reshape(2 * d, 2 * d)


def hamiltonian(params: HybridHamiltonianParams, cutoff: int) -> np.ndarray:
    """H = nu a^dag a + nu eta Z (a + a^dag) on (ancilla, mode)."""
    return _on_levels(level_hamiltonians(params.nu, params.eta, cutoff))


def _free_blocks(params: HybridHamiltonianParams, t: float, cutoff: int) -> np.ndarray:
    """[U_+(t), U_-(t)]: exp(-i t H) as one d x d block per ancilla Z level."""
    nu, eta = params.nu, params.eta
    phase = np.exp(1j * eta ** 2 * (nu * t - math.sin(nu * t)))
    rot = phase * np.exp(-1j * nu * t * np.arange(cutoff))[:, None]
    disp = fock.displacement(cutoff, -eta * (np.exp(1j * nu * t) - 1.0))
    return rot * np.stack([disp, disp.conj().T])


def exact_free_propagator(params: HybridHamiltonianParams, t: float,
                          cutoff: int) -> np.ndarray:
    """Closed-form exp(-i t H), block per qubit branch:

        U_pm(t) = e^{i eta^2 (nu t - sin nu t)} e^{-i nu t a^dag a}
                  D(-/+ eta (e^{i nu t} - 1))

    The branch for qubit |0> (Z = +1) is U_+.
    """
    return _on_levels(_free_blocks(params, t, cutoff))


def bare_rotation(nu: float, t: float, cutoff: int) -> np.ndarray:
    """exp(-i nu t a^dag a) on (ancilla, mode): the ideal waiting evolution."""
    return np.diag(np.kron(np.ones(2), np.exp(-1j * nu * t * np.arange(cutoff))))


def _on_ancilla(r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The 2 x 2 ancilla matrix `r` applied to the rows of `u`, which are
    split by ancilla level first."""
    return (r @ u.reshape(2, -1)).reshape(u.shape)


def simulate_schedule(schedule: PulseSchedule, params: HybridHamiltonianParams,
                      cutoff: int) -> np.ndarray:
    """Unitary of the whole schedule on (ancilla, mode), segments in time order.

    The unitary is held as a (2, d, 2d) array, its rows split by ancilla Z
    level.  Free evolutions apply the closed-form per-level blocks U_pm(t)
    as one batched product; rotations are ideal and instantaneous, the 2 x 2
    ancilla matrix acting on the level axis; waiting periods without a flip
    interval are ideal bare evolutions, a diagonal phase on every level, and
    with one they are simulated as the explicit flip sequence.
    """
    d = cutoff
    free_cache: dict[float, np.ndarray] = {}
    u = np.eye(2 * d, dtype=complex).reshape(2, d, 2 * d)
    for seg in schedule.expand_waiting().segments:
        if isinstance(seg, QubitRotation):
            u = _on_ancilla(fock.qubit_rotation_matrix(seg.axis, seg.angle), u)
        elif isinstance(seg, FreeEvolution):
            if seg.duration not in free_cache:
                free_cache[seg.duration] = _free_blocks(params, seg.duration, d)
            u = free_cache[seg.duration] @ u
        else:
            u = np.exp(-1j * params.nu * seg.duration * np.arange(d))[:, None] * u
    return u.reshape(2 * d, 2 * d)


# ---------------------------------------------------------------------------
# the engineered sequence
# ---------------------------------------------------------------------------


# the ancilla rotation after each of the displacement group's four free
# evolutions; the rotation before it is its inverse
_GROUP_TURNS = (("x", math.pi / 4), ("y", math.pi / 4), ("x", -math.pi / 4), ("y", -math.pi / 4))


def _displacement_group(params: HybridHamiltonianParams,
                        flip_interval: float | None = None) -> PulseSchedule:
    """Four conjugated free evolutions + one waiting quarter period (4.5 pi/nu);
    `flip_interval` is in units of 1/nu.  One sequence is four groups."""
    pi, scale = math.pi, 1.0 / params.nu
    free = FreeEvolution(pi * scale)
    segs = [seg for axis, angle in _GROUP_TURNS
            for seg in (QubitRotation(axis, -angle), free, QubitRotation(axis, angle))]
    return PulseSchedule(tuple(segs) + (
        WaitingPeriod(pi / 2 * scale, None if flip_interval is None else flip_interval * scale),))


def _group_sector_blocks(params: HybridHamiltonianParams, cutoff: int) -> np.ndarray:
    """The displacement group's unitary as its two d x d blocks on the parity
    sectors of `fock.parity_sectors`, in closed form.

    A free evolution is E + O Z with E and O the even- and odd-(n' - n) parts
    of U_+, since the parity P sends a + a^dag to its negative and so
    U_- = P U_+ P.  Conjugated by a turn r it is E + O sigma', sigma' = r Z r^dag
    one of +-X, +-Y; in sector s, whose state at Fock number n sits on
    ancilla level q_s(n), its entry (n', n) is U_+[n', n] where n' - n is even
    (q_s(n') = q_s(n)) and U_+[n', n] sigma'[q_s(n'), q_s(n)] where it is odd.
    The quarter-period wait is the phase exp(-i pi n / 2) on both levels.
    """
    d = cutoff
    u_plus = _free_blocks(params, math.pi / params.nu, d)[0]
    levels = fock.parity_sectors(d) // d  # q_s(n), shape (2, d)
    odd = np.subtract.outer(np.arange(d), np.arange(d)) % 2 == 1
    group = np.eye(d, dtype=complex)
    for axis, angle in _GROUP_TURNS:
        r = fock.qubit_rotation_matrix(axis, angle)
        sigma = (r * [1, -1]) @ r.conj().T  # r Z r^dag
        group = np.where(odd, sigma[levels[:, :, None], levels[:, None, :]], 1) * u_plus @ group
    return np.exp(-0.5j * math.pi * np.arange(d))[:, None] * group


def build_h2_sequence(params: HybridHamiltonianParams, repetitions: int = 1,
                      flip_interval: float | None = None) -> PulseSchedule:
    """Engineered dispersive-coupling schedule: `repetitions` full sequences.

    Each sequence is the displacement group raised to the fourth power
    (16 free evolutions of pi/nu, 4 quarter-period waits) and lasts
    18 pi / nu.  Durations are in units of 1/nu for nu = 1; general nu
    scales every duration by 1/nu.
    """
    _check_repetitions(repetitions)
    return _displacement_group(params, flip_interval).repeated(4 * repetitions)


def _check_repetitions(repetitions) -> None:
    if isinstance(repetitions, bool) or not isinstance(repetitions, numbers.Integral) \
            or repetitions < 1:
        raise ValueError(f"repetitions must be an integer >= 1, got {repetitions!r}")


def sequence_unitary(params: HybridHamiltonianParams, cutoff: int,
                     repetitions: int = 1) -> np.ndarray:
    """Unitary of `repetitions` engineered sequences: the displacement
    group's unitary raised to the power 4R by repeated squaring.

    The group commutes with the hybrid parity Z (x) exp(i pi a^dag a): each
    conjugated free evolution couples the mode through +-X or +-Y, which
    anticommutes with Z, by a + a^dag, which anticommutes with the mode
    parity, and the wait is diagonal.  So the power is taken on the two d x d
    sector blocks (`_group_sector_blocks`) and scattered into the 2d x 2d
    result, whose entries between the sectors are exactly 0.

    The power's departure from unitarity grows linearly with R; one
    Newton-Schulz step U (3I - U^dag U) / 2 per block squares it, so the
    result is unitary to rounding at any repetition count.
    """
    _check_repetitions(repetitions)
    d = cutoff
    u = np.linalg.matrix_power(_group_sector_blocks(params, d), 4 * repetitions)
    u = u @ (3.0 * np.eye(d) - u.conj().swapaxes(1, 2) @ u) / 2.0
    idx = fock.parity_sectors(d)
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    out[idx[:, :, None], idx[:, None, :]] = u
    return out


def dispersive_target(params: HybridHamiltonianParams, cutoff: int,
                      repetitions: int = 1) -> np.ndarray:
    """exp(-i 64 R eta^2 Z (a^dag a + 1/2)): the ideal engineered unitary."""
    chi = 64.0 * repetitions * params.eta ** 2
    ns = np.arange(cutoff) + 0.5
    return np.diag(np.concatenate([np.exp(-1j * chi * ns), np.exp(1j * chi * ns)]))


def gauged_distance(u: np.ndarray, v: np.ndarray, n_max: int | None = None) -> float:
    """Largest entry-wise distance between two (ancilla, mode) unitaries up to
    a global phase.

    Restricted to Fock levels <= n_max on both qubit branches (default: full
    cutoff minus 6, excluding truncation-edge artifacts); the phase gauge
    maximizes |Tr(U^dag V)|.
    """
    d = u.shape[0] // 2
    if n_max is None:
        n_max = max(d - 6, 1)
    keep = [q * d + n for q in range(2) for n in range(min(n_max + 1, d))]
    us, vs = u[np.ix_(keep, keep)], v[np.ix_(keep, keep)]
    tr = np.trace(us.conj().T @ vs)
    phase = tr / abs(tr) if abs(tr) > 1e-300 else 1.0
    return float(np.abs(us * phase - vs).max())


def sequence_residual(params: HybridHamiltonianParams, cutoff: int,
                      repetitions: int = 1, n_max: int | None = None) -> float:
    """Phase-gauged distance of the simulated sequence from its dispersive target."""
    return gauged_distance(sequence_unitary(params, cutoff, repetitions),
                           dispersive_target(params, cutoff, repetitions),
                           n_max=n_max)


# ---------------------------------------------------------------------------
# coupling bookkeeping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EffectiveCoupling:
    """Quoted dispersive strength and schedule timing.

    `lam` is the quoted strength (32/9) eta^2 nu, whose implied
    controlled-parity duration is pi / (2 lam); `total_time` is the actual
    schedule duration repetitions * 18 pi / nu.  `conditional_phase` is the
    accumulated phase per excitation between the qubit branches,
    128 * repetitions * eta^2 (pi for a calibrated controlled-parity).
    """

    lam: float
    total_time: float
    repetitions: int
    conditional_phase: float

    @property
    def controlled_parity_time(self) -> float:
        return math.pi / (2.0 * self.lam)


def effective_coupling(params: HybridHamiltonianParams, repetitions: int) -> EffectiveCoupling:
    lam = (32.0 / 9.0) * params.eta ** 2 * params.nu
    total = repetitions * SEQUENCE_PERIODS * math.pi / params.nu
    return EffectiveCoupling(
        lam=lam, total_time=total, repetitions=repetitions,
        conditional_phase=128.0 * repetitions * params.eta ** 2)


def repetitions_for_controlled_parity(eta: float) -> int:
    """Sequences needed for a conditional phase of pi per excitation."""
    return max(1, round(math.pi / (128.0 * eta ** 2)))


def eta_for_repetitions(repetitions: int) -> float:
    """Coupling that makes `repetitions` sequences an exact controlled-parity."""
    return math.sqrt(math.pi / (128.0 * repetitions))


def coupling_implied_sequences(eta: float) -> int:
    """Sequence count covering the quoted-coupling duration 9 pi/(64 eta^2 nu)."""
    return max(1, round(1.0 / (128.0 * eta ** 2)))


def measurement_configs() -> tuple[tuple[int, float], ...]:
    """The standard (repetitions, eta) pairs: 50, 100 and 200 phase-calibrated
    sequences (eta = 0.0222, 0.0157, 0.0111)."""
    return tuple((r, eta_for_repetitions(r)) for r in (50, 100, 200))


def frame_correction(eta: float, repetitions: int) -> QubitRotation:
    """The engineered gate's ancilla correction exp(i chi/2 Z), chi = 64 R eta^2.

    It compensates the constant half-excitation phase of `repetitions`
    sequences (chi = 128 R eta^2 / 2 per branch).  The residual mode-frame
    rotation exp(-i chi N) relative to the exact controlled parity commutes
    with every parity readout and with diagonal inputs, and is left in place.
    """
    return QubitRotation("z", 64.0 * repetitions * eta ** 2 / 2.0)


def engineered_controlled_parity(params: HybridHamiltonianParams, cutoff: int,
                                 repetitions: int | None = None) -> np.ndarray:
    """Controlled-parity built from engineered sequences, followed by
    :func:`frame_correction`."""
    if repetitions is None:
        repetitions = repetitions_for_controlled_parity(params.eta)
    u = sequence_unitary(params, cutoff, repetitions)
    corr = frame_correction(params.eta, repetitions)
    return _on_ancilla(fock.qubit_rotation_matrix(corr.axis, corr.angle), u)


# ---------------------------------------------------------------------------
# waiting-period cancellation
# ---------------------------------------------------------------------------


def flip_cancellation_residual(params: HybridHamiltonianParams, duration: float,
                               flip_interval: float, cutoff: int,
                               n_max: int | None = None) -> float:
    """Phase-gauged distance of the dynamically cancelled waiting period (the
    qubit flipped every `flip_interval`) from the bare evolution
    exp(-i duration nu a^dag a); the error is second order in the flip interval.
    """
    sched = PulseSchedule((WaitingPeriod(duration, flip_interval),))
    approx = simulate_schedule(sched, params, cutoff)
    ideal = bare_rotation(params.nu, duration, cutoff)
    return gauged_distance(approx, ideal, n_max=n_max)
