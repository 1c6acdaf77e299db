"""Noiseless-subsystem checks for the two-mode parity encoding.

Two collective noise channels act identically on both modes of a pair: a
phase shift exp(i phi a^dag a) (x) exp(i phi a^dag a) and a squeeze
exp(xi (a^2 - a^dag^2)) (x) exp(xi (a^2 - a^dag^2)).  Both commute with the
encoded logical operators (second-mode parity and two-mode swap), so the
encoding rides out these channels; the commutators are evaluated on
excitation-bounded subspaces where truncation is harmless, together with a
mandatory non-commuting negative control so a broken check cannot pass
silently.  Every operator is a plain d^2 x d^2 matrix on a mode pair with
one cutoff d (flat index i d + j for |i, j>), and the cutoff is the only
other input.

By contrast, no pure two-mode state can be a decoherence-free subspace of
both channels: such a state would have to be a simultaneous eigenstate of
the total number operator and of a_1^2 - a_1^dag^2 + a_2^2 - a_2^dag^2, and
the latter annihilates no state of fixed total excitation.  The report
verifies this by SVD null spaces per total-excitation sector M (the general
statement for all M follows by induction and stays analytic; the numerics
cover M up to `max_total`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import fock

SQUEEZE_PARAM_MAX = 0.3
NULLSPACE_RELATIVE_THRESHOLD = 1e-8


def collective_noise(kind: str, parameter: float, cutoff: int) -> np.ndarray:
    """Two-mode collective channel acting identically on both modes of a pair
    with one cutoff: a cutoff^2 x cutoff^2 matrix, flat index i * cutoff + j
    for |i, j>.

    kind "phase": exp(i phi N) on each mode (exactly unitary, diagonal);
    kind "squeeze": exp(xi (a^2 - a^dag^2)) on each mode, real and exactly
    zero between even and odd levels.  The squeeze
    generator is anti-Hermitian, so the truncated exponential is unitary,
    but it is only faithful on number-bounded subspaces; |xi| <= 0.3 is
    enforced and callers should confine test states to n <= d/3.
    """
    d = cutoff
    if kind == "phase":
        single = np.diag(np.exp(1j * parameter * np.arange(d)))
    elif kind == "squeeze":
        if abs(parameter) > SQUEEZE_PARAM_MAX:
            raise ValueError(f"|xi| <= {SQUEEZE_PARAM_MAX} keeps truncation effects bounded")
        # the generator is real and keeps Fock parity: exponentiate each parity
        # block and keep the real part (the imaginary part is rounding), so the
        # two modes' factors commute exactly under the swap
        a = fock.annihilation(d).real
        gen = parameter * (a @ a - a.T @ a.T)
        single = np.zeros((d, d))
        for idx in (np.arange(0, d, 2), np.arange(1, d, 2)):
            single[np.ix_(idx, idx)] = fock.unitary_exponential(gen[np.ix_(idx, idx)]).real
    else:
        raise ValueError("kind must be 'phase' or 'squeeze'")
    return np.kron(single, single).astype(complex, copy=False)


def encoded_logicals(cutoff: int) -> dict[str, np.ndarray]:
    """Dense logical Z (second-mode parity) and X (swap) on a mode pair with
    one cutoff, from `fock`'s parity diagonal and swap permutation."""
    d = cutoff
    z_like = np.diag(np.tile(fock.parity_diag(d), d).astype(complex))
    x_like = np.eye(d * d, dtype=complex)[fock.two_mode_swap(d)]
    return {"second_mode_parity": z_like, "swap": x_like}


def commutation_check(noise: np.ndarray, logical: np.ndarray,
                      max_total: int | None = None) -> float:
    """Max-abs matrix element of [E, L] between states with bounded total excitation.

    Both operators act on one mode pair with one cutoff d, as d^2 x d^2
    matrices; any other shape raises ``fock.LayoutError``.  The restriction
    (default: total excitation <= d/3) removes truncation-edge artifacts of
    the squeeze exponential; the claim being checked is algebraic and
    survives the restriction.  Only the kept rows and columns are computed,
    E[keep] L[:, keep] - L[keep] E[:, keep]: k^2 D work for k kept states of
    the D-dimensional pair space, not D^3.
    """
    d = math.isqrt(noise.shape[0]) if noise.ndim == 2 else 0
    if d < 1 or not (noise.shape == logical.shape == (d * d, d * d)):
        raise fock.LayoutError(f"commutation check needs two d^2 x d^2 matrices of one "
                               f"cutoff d, got shapes {noise.shape} and {logical.shape}")
    if max_total is None:
        max_total = d // 3
    if max_total < 0:
        raise ValueError(f"max_total must be non-negative, got {max_total}")
    keep = np.concatenate(fock.pair_excitation_blocks(d)[:max_total + 1])
    comm = noise[keep] @ logical[:, keep] - logical[keep] @ noise[:, keep]
    return float(np.abs(comm).max())


@dataclass(frozen=True)
class SectorNullReport:
    total_excitation: int
    subspace_dim: int
    null_dim: int
    smallest_singular_value: float
    eigvec_candidates_found: int


@dataclass(frozen=True)
class DfsReport:
    """Results of the pure-encoding nonexistence scan.

    `sectors` hold the per-total-excitation null spaces of the collective
    squeeze generator restricted to each fixed-number subspace; every null
    dimension must be zero.  `commutators` are the encoded-operator
    residuals for the same channels (with the negative control, which must
    NOT vanish), exhibiting the mixed encoding's resilience side by side.
    Sectors beyond `max_total` are covered by the analytic induction
    argument, not numerically.
    """

    max_total: int
    cutoff: int
    sv_threshold: float
    sectors: tuple[SectorNullReport, ...]
    commutators: dict = field(default_factory=dict)
    negative_control: float = 0.0

    @property
    def all_null_dims_zero(self) -> bool:
        return all(s.null_dim == 0 for s in self.sectors)

    def to_json_dict(self) -> dict:
        return {
            "max_total_excitation": self.max_total,
            "cutoff": self.cutoff,
            "singular_value_threshold": self.sv_threshold,
            "sectors": [{
                "total_excitation": s.total_excitation,
                "subspace_dim": s.subspace_dim,
                "null_dim": s.null_dim,
                "smallest_singular_value": s.smallest_singular_value,
                "eigvec_candidates_found": s.eigvec_candidates_found,
            } for s in self.sectors],
            "all_null_dims_zero": self.all_null_dims_zero,
            "encoded_operator_commutators": self.commutators,
            "negative_control_commutator": self.negative_control,
            "note": ("sectors above max_total_excitation are covered by the "
                     "induction argument, not numerically"),
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")


def _squeeze_generator_columns(cutoff: int, idx: np.ndarray) -> np.ndarray:
    """Columns `idx` (flat indices i * cutoff + j) of the collective squeeze
    generator a_1^2 - a_1^dag^2 + a_2^2 - a_2^dag^2 on a mode pair with one
    cutoff: column (i, j) is sq[:, i] (x) e_j + e_i (x) sq[:, j] for the
    one-mode sq = a^2 - a^dag^2, a cutoff^2 x idx.size array."""
    a = fock.annihilation(cutoff)
    sq = a @ a - a.conj().T @ a.conj().T
    i, j = np.divmod(idx, cutoff)
    k = np.arange(idx.size)
    cols = np.zeros((cutoff, cutoff, idx.size), dtype=sq.dtype)
    cols[:, j, k] = sq[:, i]
    cols[i, :, k] += sq[:, j].T
    return cols.reshape(cutoff * cutoff, idx.size)


def dfs_nonexistence(max_total: int = 8, cutoff: int | None = None,
                     rng: np.random.Generator | None = None) -> DfsReport:
    """Scan fixed-total-excitation sectors for squeeze-generator null vectors.

    For each M <= max_total the generator maps the (M+1)-dimensional sector
    into the sectors M +- 2; a simultaneous eigenstate of both collective
    channels would be a null vector of that map.  Reports null dimensions
    (SVD, relative threshold 1e-8) and a random-combination eigenvector
    search, plus the encoded-operator commutators for contrast.  Only the
    generator's columns of the scanned sectors are built, each from the
    one-mode a^2 - a^dag^2.
    """
    if max_total < 0:
        raise ValueError(f"max_total must be non-negative, got {max_total}")
    if cutoff is None:
        cutoff = max_total + 3
    if max_total + 2 >= cutoff:
        raise ValueError("cutoff must exceed max_total + 2 for exact sector images")
    if rng is None:
        rng = np.random.default_rng(0)
    blocks = fock.pair_excitation_blocks(cutoff)
    sectors = []
    for m in range(0, max_total + 1):
        idx = blocks[m]
        restricted = _squeeze_generator_columns(cutoff, idx)
        svals = np.linalg.svd(restricted, compute_uv=False)
        thresh = NULLSPACE_RELATIVE_THRESHOLD * svals.max()
        null_dim = int((svals < thresh).sum())
        # random-combination search: no unit vector in the sector may be an
        # eigenvector of the generator (its image must leave the sector)
        found = 0
        for _ in range(25):
            c = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
            c /= np.linalg.norm(c)
            img = restricted @ c
            lifted = np.zeros(cutoff * cutoff, dtype=complex)
            lifted[idx] = c
            ev = np.vdot(lifted, img)
            residual = np.linalg.norm(img - ev * lifted)
            if residual < 1e-6:
                found += 1
        sectors.append(SectorNullReport(
            total_excitation=m, subspace_dim=idx.size, null_dim=null_dim,
            smallest_singular_value=float(svals.min()),
            eigvec_candidates_found=found))
    comms = {}
    logicals = encoded_logicals(cutoff)
    for kind, par in (("phase", 0.7), ("squeeze", 0.2)):
        e = collective_noise(kind, par, cutoff)
        for name, op in logicals.items():
            comms[f"{kind}_vs_{name}"] = commutation_check(e, op)
    a = fock.annihilation(cutoff)
    quad = np.kron(np.eye(cutoff), a + a.conj().T)
    neg = commutation_check(collective_noise("phase", 0.7, cutoff), quad)
    return DfsReport(max_total=max_total, cutoff=cutoff,
                     sv_threshold=NULLSPACE_RELATIVE_THRESHOLD,
                     sectors=tuple(sectors), commutators=comms, negative_control=neg)
