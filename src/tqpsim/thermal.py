"""Thermal and parity-projected initial states, held by their closed-form
Fock-basis weights, and the cutoffs that bound their truncation tails.

The weights of the parity-projected branches (`even_odd_weights`) are what
the circuit runs start from.  The dense thermal density matrix and its
projection by the parity operator, which those weights reproduce, are the
tests' cross-check and live with them.

Also the entropy bookkeeping: the closed-form entropy of the parity-encoded
pair state in bits, checked against the spectral entropy of its Fock weights
(each branch is diagonal, so its weights are its eigenvalues), the
triviality crossover in the mean excitation, and erasure (Landauer) costs in
units of k_B T ln 2.  Every state here is a plain weight vector over one
mode's Fock levels |0> .. |d - 1>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ENTROPY_EIGENVALUE_FLOOR = 1e-14


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
        boltzmann_ratio(self.mean_excitation)  # rejects n < 0
        if self.tail_tol <= 0:
            raise ValueError("tail tolerance must be positive")

    @property
    def boltzmann_ratio(self) -> float:
        """exp(-beta) = n/(n+1)."""
        return boltzmann_ratio(self.mean_excitation)


def boltzmann_ratio(mean_excitation: float) -> float:
    """q = exp(-beta) = n/(n+1) of a thermal mode with mean excitation n >= 0."""
    if not 0.0 <= mean_excitation < math.inf:
        raise ValueError(f"mean excitation must be finite and non-negative, got {mean_excitation}")
    return mean_excitation / (mean_excitation + 1.0)


def required_cutoff(mean_excitation: float, tail_tol: float = 1e-8, start: int = 20) -> int:
    """Smallest cutoff >= `start` whose geometric tail q^d is below `tail_tol`."""
    if not tail_tol > 0:  # q^d never drops below 0
        raise ValueError(f"tail tolerance must be positive, got {tail_tol}")
    d = max(int(start), 2)
    q = boltzmann_ratio(mean_excitation)
    while q ** d >= tail_tol:
        d += 1
    return d


def thermal_weights(mean_excitation: float, cutoff: int) -> np.ndarray:
    """Unnormalized (1-q) q^n for n < cutoff; q = n/(n+1)."""
    q = boltzmann_ratio(mean_excitation)
    return (1.0 - q) * q ** np.arange(cutoff)


def even_odd_weights(mean_excitation: float, cutoff: int, parity_sign: int) -> np.ndarray:
    """Closed-form diagonal of the parity-projected thermal state.

    Even branch: (1-q^2) q^(2n) on |2n>; odd branch: (1-q^2) q^(2n) on |2n+1>.
    Renormalized over the truncated support.
    """
    q = boltzmann_ratio(mean_excitation)
    w = np.zeros(cutoff)
    offset = 0 if parity_sign == +1 else 1
    ns = np.arange(offset, cutoff, 2)
    w[ns] = (1.0 - q * q) * q ** (ns - offset)
    return w / w.sum()


def _spectrum_entropy_bits(lam: np.ndarray) -> float:
    """-sum lambda log2 lambda over the entries of `lam` above 1e-14."""
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
    Each branch is diagonal, so its eigenvalues are its Fock weights.
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
    s_spec = 0.0
    for sign in (-1, +1):
        s_spec += _spectrum_entropy_bits(even_odd_weights(n, d, sign))
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
