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
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from . import fock
from .fock import SpaceLayout, TruncatedOperator

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
    axis: str
    angle: float


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


def _hybrid_layout(cutoff: int) -> SpaceLayout:
    return SpaceLayout(1, (cutoff,))


def level_hamiltonians(nu: float, eta: float, cutoff: int) -> np.ndarray:
    """[H_+, H_-], H_pm = nu a^dag a +- nu eta (a + a^dag) on the mode: H is
    one d x d block per ancilla Z level, level 0 (qubit |0>, Z = +1) first."""
    a = fock.annihilation(SpaceLayout(0, (cutoff,)), 0).matrix
    n, x = nu * np.diag(np.arange(cutoff)), nu * eta * (a + a.conj().T)
    return np.stack([n + x, n - x])


def hamiltonian(params: HybridHamiltonianParams, cutoff: int) -> TruncatedOperator:
    """H = nu a^dag a + nu eta Z (a + a^dag) on (ancilla, mode)."""
    blocks = level_hamiltonians(params.nu, params.eta, cutoff)
    return TruncatedOperator(_hybrid_layout(cutoff), block_diag(*blocks), copy=False)


def exact_free_propagator(params: HybridHamiltonianParams, t: float,
                          cutoff: int) -> TruncatedOperator:
    """Closed-form exp(-i t H), block per qubit branch:

        U_pm(t) = e^{i eta^2 (nu t - sin nu t)} e^{-i nu t a^dag a}
                  D(-/+ eta (e^{i nu t} - 1))

    The branch for qubit |0> (Z = +1) is U_+.
    """
    lay = _hybrid_layout(cutoff)
    d = cutoff
    nu, eta = params.nu, params.eta
    phase = np.exp(1j * eta ** 2 * (nu * t - math.sin(nu * t)))
    rot = np.diag(np.exp(-1j * nu * t * np.arange(d)))
    sub = SpaceLayout(0, (d,))
    blocks = []
    for sign in (+1, -1):
        alpha = -sign * eta * (np.exp(1j * nu * t) - 1.0)
        disp = fock.displacement(sub, 0, alpha).matrix
        blocks.append(phase * rot @ disp)
    return TruncatedOperator(lay, block_diag(*blocks), copy=False)


def bare_rotation(nu: float, t: float, cutoff: int) -> TruncatedOperator:
    """exp(-i nu t a^dag a) on (ancilla, mode): the ideal waiting evolution."""
    lay = _hybrid_layout(cutoff)
    diag = np.kron(np.ones(2), np.exp(-1j * nu * t * np.arange(cutoff)))
    return TruncatedOperator(lay, np.diag(diag), copy=False)


def simulate_schedule(schedule: PulseSchedule, params: HybridHamiltonianParams,
                      cutoff: int) -> TruncatedOperator:
    """Unitary of the whole schedule on (ancilla, mode), segments in time order.

    Free evolutions use the closed-form propagator; rotations are ideal and
    instantaneous; waiting periods without a flip interval are ideal bare
    evolutions, with one they are simulated as the explicit flip sequence.
    """
    lay = _hybrid_layout(cutoff)
    sched = schedule.expand_waiting()
    free_cache: dict[float, np.ndarray] = {}
    u = np.eye(lay.total_dim, dtype=complex)
    for seg in sched.segments:
        if isinstance(seg, QubitRotation):
            mat = fock.qubit_rotation(lay, 0, seg.axis, seg.angle).matrix
        elif isinstance(seg, FreeEvolution):
            if seg.duration not in free_cache:
                free_cache[seg.duration] = exact_free_propagator(
                    params, seg.duration, cutoff).matrix
            mat = free_cache[seg.duration]
        else:
            mat = bare_rotation(params.nu, seg.duration, cutoff).matrix
        u = mat @ u
    return TruncatedOperator(lay, u, copy=False)


# ---------------------------------------------------------------------------
# the engineered sequence
# ---------------------------------------------------------------------------


def _displacement_group() -> tuple[Segment, ...]:
    """Four conjugated free evolutions + one waiting quarter period (4.5 pi/nu)."""
    pi = math.pi
    return (
        QubitRotation("x", -pi / 4), FreeEvolution(pi), QubitRotation("x", pi / 4),
        QubitRotation("y", -pi / 4), FreeEvolution(pi), QubitRotation("y", pi / 4),
        QubitRotation("x", pi / 4), FreeEvolution(pi), QubitRotation("x", -pi / 4),
        QubitRotation("y", pi / 4), FreeEvolution(pi), QubitRotation("y", -pi / 4),
        WaitingPeriod(pi / 2),
    )


def build_h2_sequence(params: HybridHamiltonianParams, repetitions: int = 1,
                      flip_interval: float | None = None) -> PulseSchedule:
    """Engineered dispersive-coupling schedule: `repetitions` full sequences.

    Each sequence is the displacement group raised to the fourth power
    (16 free evolutions of pi/nu, 4 quarter-period waits) and lasts
    18 pi / nu.  Durations are in units of 1/nu for nu = 1; general nu
    scales every duration by 1/nu.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    group = _displacement_group()
    if flip_interval is not None:
        group = tuple(WaitingPeriod(s.duration, flip_interval)
                      if isinstance(s, WaitingPeriod) else s for s in group)
    if params.nu != 1.0:
        scale = 1.0 / params.nu
        group = tuple(
            FreeEvolution(s.duration * scale) if isinstance(s, FreeEvolution)
            else (WaitingPeriod(s.duration * scale,
                                None if s.flip_interval is None else s.flip_interval * scale)
                  if isinstance(s, WaitingPeriod) else s)
            for s in group)
    return PulseSchedule(group * 4).repeated(repetitions)


def sequence_unitary(params: HybridHamiltonianParams, cutoff: int,
                     repetitions: int = 1) -> TruncatedOperator:
    """Unitary of `repetitions` engineered sequences (fast matrix-power path)."""
    one = simulate_schedule(build_h2_sequence(params, 1), params, cutoff)
    mat = np.linalg.matrix_power(one.matrix, repetitions)
    return TruncatedOperator(one.layout, mat, copy=False)


def dispersive_target(params: HybridHamiltonianParams, cutoff: int,
                      repetitions: int = 1) -> TruncatedOperator:
    """exp(-i 64 R eta^2 Z (a^dag a + 1/2)): the ideal engineered unitary."""
    lay = _hybrid_layout(cutoff)
    chi = 64.0 * repetitions * params.eta ** 2
    ns = np.arange(cutoff) + 0.5
    diag = np.concatenate([np.exp(-1j * chi * ns), np.exp(1j * chi * ns)])
    return TruncatedOperator(lay, np.diag(diag), copy=False)


def gauged_distance(u: TruncatedOperator | np.ndarray, v: TruncatedOperator | np.ndarray,
                    n_max: int | None = None) -> float:
    """Largest entry-wise distance between two (ancilla, mode) unitaries up to
    a global phase.

    Restricted to Fock levels <= n_max on both qubit branches (default: full
    cutoff minus 6, excluding truncation-edge artifacts); the phase gauge
    maximizes |Tr(U^dag V)|.
    """
    um = u.matrix if isinstance(u, TruncatedOperator) else u
    vm = v.matrix if isinstance(v, TruncatedOperator) else v
    d = um.shape[0] // 2
    if n_max is None:
        n_max = max(d - 6, 1)
    keep = [q * d + n for q in range(2) for n in range(min(n_max + 1, d))]
    us, vs = um[np.ix_(keep, keep)], vm[np.ix_(keep, keep)]
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


def engineered_controlled_parity(params: HybridHamiltonianParams, cutoff: int,
                                 repetitions: int | None = None) -> TruncatedOperator:
    """Controlled-parity built from engineered sequences.

    Applies the deterministic single-qubit Z correction exp(i chi/2 Z) that
    compensates the constant half-excitation phase (chi = 128 R eta^2 / 2 per
    branch).  The residual mode-frame rotation exp(-i chi N) relative to the
    exact controlled parity commutes with every parity readout and with
    diagonal inputs, and is left in place.
    """
    if repetitions is None:
        repetitions = repetitions_for_controlled_parity(params.eta)
    u = sequence_unitary(params, cutoff, repetitions)
    chi = 64.0 * repetitions * params.eta ** 2
    corr = fock.qubit_rotation(u.layout, 0, "z", chi / 2.0)
    return corr @ u


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
