"""Thermal, parity-projected, and two-mode parity-encoded initial states.

Also the entropy bookkeeping: von Neumann entropies in bits, the closed-form
entropy of the parity-encoded pair state, the triviality crossover in the
mean excitation, and erasure (Landauer) costs in units of k_B T ln 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .fock import HybridState, SpaceLayout

PROJECTION_FLOOR = 1e-12
ENTROPY_EIGENVALUE_FLOOR = 1e-14


class CutoffError(ValueError):
    """Requested cutoff too small for the requested Boltzmann tail."""


class ProjectionError(ValueError):
    """Projection onto a numerically empty branch."""


@dataclass(frozen=True)
class ThermalSpec:
    """Single-mode thermal state parameters.

    ``exp(-beta) = n/(n+1)`` for mean excitation n; n = 0 is the pure vacuum
    (beta = +inf).  If `cutoff` is None it is raised from the default until
    the Boltzmann tail beyond the cutoff drops below `tail_tol`.
    """

    mean_excitation: float
    cutoff: int | None = None
    tail_tol: float = 1e-8

    def __post_init__(self):
        if self.mean_excitation < 0:
            raise ValueError("mean excitation must be non-negative")
        if self.tail_tol <= 0:
            raise ValueError("tail tolerance must be positive")

    @property
    def boltzmann_ratio(self) -> float:
        """exp(-beta) = n/(n+1)."""
        n = self.mean_excitation
        return n / (n + 1.0)

    def resolved_cutoff(self) -> int:
        if self.cutoff is not None:
            return self.cutoff
        return required_cutoff(self.mean_excitation, self.tail_tol)


def required_cutoff(mean_excitation: float, tail_tol: float = 1e-8, start: int = 20) -> int:
    """Smallest cutoff >= `start` whose geometric tail q^d is below `tail_tol`."""
    d = max(int(start), 2)
    q = mean_excitation / (mean_excitation + 1.0)
    if q == 0.0:
        return d
    while q ** d >= tail_tol:
        d += 1
    return d


def thermal_weights(mean_excitation: float, cutoff: int) -> np.ndarray:
    """Unnormalized (1-q) q^n for n < cutoff; q = n/(n+1)."""
    q = mean_excitation / (mean_excitation + 1.0)
    if q == 0.0:
        w = np.zeros(cutoff)
        w[0] = 1.0
        return w
    return (1.0 - q) * q ** np.arange(cutoff)


def thermal_state(spec: ThermalSpec) -> HybridState:
    """Truncated single-mode thermal density matrix, trace-renormalized.

    Raises CutoffError if the exact geometric tail beyond the cutoff is not
    below ``spec.tail_tol``.
    """
    d = spec.resolved_cutoff()
    q = spec.boltzmann_ratio
    tail = q ** d
    if tail >= spec.tail_tol:
        raise CutoffError(
            f"cutoff {d} leaves Boltzmann tail {tail:.3e} >= {spec.tail_tol:.1e} "
            f"at mean excitation {spec.mean_excitation}")
    w = thermal_weights(spec.mean_excitation, d)
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


def even_odd_weights(mean_excitation: float, cutoff: int, parity_sign: int) -> np.ndarray:
    """Closed-form diagonal of the parity-projected thermal state.

    Even branch: (1-q^2) q^(2n) on |2n>; odd branch: (1-q^2) q^(2n) on |2n+1>.
    Renormalized over the truncated support.
    """
    q = mean_excitation / (mean_excitation + 1.0)
    w = np.zeros(cutoff)
    offset = 0 if parity_sign == +1 else 1
    ns = np.arange(offset, cutoff, 2)
    w[ns] = (1.0 - q * q) * q ** (ns - offset) if q > 0 else 0.0
    if q == 0.0:
        w[:] = 0.0
        w[offset] = 1.0
    return w / w.sum()


def tqp_initial_state(spec: ThermalSpec) -> HybridState:
    """Two-mode logical-zero state: odd-projected thermal (x) even-projected thermal.

    Built from the closed-form geometric branch weights, which coincide with
    projecting the truncated thermal state (and stay well defined at zero
    temperature, where the pair is |1><1| (x) |0><0|).  The two-mode parity
    expectation is -1 exactly and the second-mode parity expectation (the
    logical Z readout) is +1 exactly.
    """
    d = spec.resolved_cutoff()
    q = spec.boltzmann_ratio
    if q ** d >= spec.tail_tol:
        raise CutoffError(
            f"cutoff {d} leaves Boltzmann tail {q ** d:.3e} >= {spec.tail_tol:.1e}")
    w_odd = even_odd_weights(spec.mean_excitation, d, -1)
    w_even = even_odd_weights(spec.mean_excitation, d, +1)
    layout = SpaceLayout(0, (d, d))
    return HybridState.density(layout, np.diag(np.kron(w_odd, w_even).astype(complex)))


def von_neumann_entropy(state: HybridState) -> float:
    """Entropy in bits: -sum lambda log2 lambda over eigenvalues above 1e-14.

    A pure state has entropy zero by definition.  Raises on eigenvalues that
    are negative beyond tolerance.
    """
    if state.is_pure:
        return 0.0
    lam = np.linalg.eigvalsh(state.data)
    if lam.min() < -1e-10:
        raise fock.StateError(f"density matrix eigenvalue {lam.min():.3e} below -1e-10")
    lam = lam[lam > ENTROPY_EIGENVALUE_FLOOR]
    return float(-(lam * np.log2(lam)).sum())


# ---------------------------------------------------------------------------
# closed forms and the triviality comparison
# ---------------------------------------------------------------------------


def thermal_entropy_bits(mean_excitation: float) -> float:
    """(n+1) log2(n+1) - n log2 n; the trivially-mixed pair entropy."""
    n = mean_excitation
    if n == 0:
        return 0.0
    return (n + 1) * math.log2(n + 1) - n * math.log2(n)


def effective_pair_excitation(mean_excitation: float) -> float:
    """n^2 / (2n + 1), the geometric mean occupation of each projected branch."""
    n = mean_excitation
    return n * n / (2 * n + 1)


def tqp_entropy_bits(mean_excitation: float) -> float:
    """Closed-form entropy of the parity-encoded pair: 2[(m+1)log2(m+1) - m log2 m]."""
    m = effective_pair_excitation(mean_excitation)
    if m == 0:
        return 0.0
    return 2.0 * ((m + 1) * math.log2(m + 1) - m * math.log2(m))


def crossover_mean_excitation(tol: float = 1e-4) -> float:
    """Bisection root of S_pair(n) = S_thermal(n); lies near 0.8."""
    f = lambda n: tqp_entropy_bits(n) - thermal_entropy_bits(n)
    lo, hi = 0.3, 1.5
    if not (f(lo) < 0 < f(hi)):
        raise RuntimeError("crossover bracketing failed")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class EntropyReport:
    """Entropy accounting for one mean excitation.

    Landauer costs are entropy differences in bits; the k_B T ln 2 factor is
    a unit label, not computed.  `s_tqp_spectral` is the eigenvalue entropy
    of the constructed pair state (sum of the two projected single-mode
    entropies; exact for a tensor product) and must track the closed form.
    """

    mean_excitation: float
    s_thermal: float
    s_tqp: float
    s_tqp_spectral: float
    n_tilde: float
    crossover_flag: bool
    landauer_pure: float
    landauer_tqp: float


def entropy_report(spec: ThermalSpec) -> EntropyReport:
    n = spec.mean_excitation
    s_th = thermal_entropy_bits(n)
    s_tqp = tqp_entropy_bits(n)
    # spectral side at a tighter tail than preparation, so the closed-form
    # agreement is comfortably truncation-limited rather than marginal
    d = spec.cutoff if spec.cutoff is not None else required_cutoff(n, spec.tail_tol * 1e-2)
    one_mode = SpaceLayout(0, (d,))
    s_spec = 0.0
    for sign in (-1, +1):
        w = even_odd_weights(n, d, sign)
        branch = HybridState.density(one_mode, np.diag(w.astype(complex)))
        s_spec += von_neumann_entropy(branch)
    return EntropyReport(
        mean_excitation=n,
        s_thermal=s_th,
        s_tqp=s_tqp,
        s_tqp_spectral=s_spec,
        n_tilde=effective_pair_excitation(n),
        crossover_flag=bool(s_tqp > s_th),
        landauer_pure=s_th,
        landauer_tqp=2.0 * s_th - s_tqp,
    )
