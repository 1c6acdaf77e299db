"""Noiseless-subsystem checks for the two-mode parity encoding.

Two collective noise channels act identically on both modes of a pair: a
phase shift exp(i phi a^dag a) (x) exp(i phi a^dag a) and a squeeze
exp(xi (a^2 - a^dag^2)) (x) exp(xi (a^2 - a^dag^2)).  Both commute with the
encoded logical operators (second-mode parity and two-mode swap), so the
encoding rides out these channels; the commutators are evaluated on
excitation-bounded subspaces where truncation is harmless, together with a
mandatory non-commuting negative control so a broken check cannot pass
silently.  A mode pair has one cutoff d (flat index i d + j for |i, j>), and
no d^2 x d^2 matrix is built: a channel E (x) E is held as its single-mode
factor E, a logical I (x) B as B, the swap S as `fock.two_mode_swap`'s
involution, and the commutator entry between kept states (i, j) and (i', j')
is E[i, i'] [E, B][j, j'] with I (x) B, E[i, j'] E[j, i'] - E[j, i'] E[i, j']
with S.

By contrast, no pure two-mode state can be a decoherence-free subspace of
both channels: such a state would have to be a simultaneous eigenstate of
the total number operator and of a_1^2 - a_1^dag^2 + a_2^2 - a_2^dag^2, and
the latter annihilates no state of fixed total excitation.  The report
verifies this by SVD null spaces per total-excitation sector M (the general
statement for all M follows by induction and stays analytic; the numerics
cover M up to `max_total`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import fock

SQUEEZE_PARAM_MAX = 0.3
NULLSPACE_RELATIVE_THRESHOLD = 1e-8


def collective_noise(kind: str, parameter: float, cutoff: int) -> np.ndarray:
    """Single-mode factor E, a complex cutoff x cutoff matrix, of the
    collective channel E (x) E on a mode pair with one cutoff.

    kind "phase": exp(i phi N) (exactly unitary, diagonal);
    kind "squeeze": exp(xi (a^2 - a^dag^2)), real and exactly zero between
    even and odd levels.  The squeeze generator is anti-Hermitian, so the
    truncated exponential is unitary, but it is only faithful on
    number-bounded subspaces; |xi| <= 0.3 is enforced and callers should
    confine test states to n <= d/3.  A squeeze that is not finite, or a
    cutoff that is not an integer >= 2, is a ValueError.
    """
    d = fock.checked_int("cutoff", cutoff, 2)
    if kind == "phase":
        single = np.diag(np.exp(1j * parameter * np.arange(d)))
    elif kind == "squeeze":
        if not abs(parameter) <= SQUEEZE_PARAM_MAX:  # NaN fails too
            raise ValueError(f"|xi| <= {SQUEEZE_PARAM_MAX} keeps truncation effects bounded, "
                             f"got {parameter!r}")
        # the generator is real and keeps Fock parity: exponentiate each parity
        # block and keep the real part (the imaginary part is rounding), so the
        # two products of each swap residual entry agree exactly
        a = fock.annihilation(d).real
        gen = parameter * (a @ a - a.T @ a.T)
        single = np.zeros((d, d))
        for idx in (np.arange(0, d, 2), np.arange(1, d, 2)):
            single[np.ix_(idx, idx)] = fock.unitary_exponential(gen[np.ix_(idx, idx)]).real
    else:
        raise ValueError("kind must be 'phase' or 'squeeze'")
    return single.astype(complex, copy=False)


def encoded_logicals(cutoff: int) -> dict[str, np.ndarray]:
    """Logical Z (second-mode parity) as the B of I (x) B and X as the swap's
    involution, on a mode pair with one cutoff (`commutation_check`'s forms)."""
    return {"second_mode_parity": np.diag(fock.parity_diag(cutoff)),
            "swap": fock.two_mode_swap(cutoff)}


def commutation_check(noise: np.ndarray, logical: np.ndarray) -> float:
    """Max-abs matrix element of [E (x) E, L] between states of total excitation <= d // 3.

    `noise` is the d x d factor E; `logical` is the d x d B of L = I (x) B or
    the d^2-entry involution s of S = I[s] (`fock.two_mode_swap`); any other
    shape raises ``fock.LayoutError``.  The restriction removes
    truncation-edge artifacts of the squeeze exponential; the claim being
    checked is algebraic and survives it.  The k^2 entries between k kept
    states are read off the factors.
    """
    d = noise.shape[0] if noise.ndim == 2 else 0
    if d < 1 or noise.shape != (d, d) or logical.shape not in ((d, d), (d * d,)):
        raise fock.LayoutError(f"commutation check needs a d x d factor and a d x d or d^2 "
                               f"logical of one cutoff d, got {noise.shape} and {logical.shape}")
    keep = np.concatenate(fock.pair_excitation_blocks(d)[:d // 3 + 1])
    i, j = np.divmod(keep, d)
    if logical.ndim == 2:
        comm = noise[np.ix_(i, i)] * (noise @ logical - logical @ noise)[np.ix_(j, j)]
    else:
        # (E (x) E) S holds (E (x) E)[r, s[c]] and S (E (x) E) holds (E (x) E)[s[r], c]
        si, sj = np.divmod(logical[keep], d)
        comm = noise[np.ix_(i, si)] * noise[np.ix_(j, sj)] \
            - noise[np.ix_(si, i)] * noise[np.ix_(sj, j)]
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
    commutators: dict
    negative_control: float

    @property
    def all_null_dims_zero(self) -> bool:
        return all(s.null_dim == 0 for s in self.sectors)

    def to_json_dict(self) -> dict:
        return {
            "max_total_excitation": self.max_total,
            "cutoff": self.cutoff,
            "singular_value_threshold": self.sv_threshold,
            "sectors": [asdict(s) for s in self.sectors],
            "all_null_dims_zero": self.all_null_dims_zero,
            "encoded_operator_commutators": self.commutators,
            "negative_control_commutator": self.negative_control,
            "note": ("sectors above max_total_excitation are covered by the "
                     "induction argument, not numerically"),
        }


def _squeeze_generator_columns(cutoff: int, idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows `rows` of columns `idx` (flat indices i * cutoff + j) of the
    collective squeeze generator a_1^2 - a_1^dag^2 + a_2^2 - a_2^dag^2 on a
    mode pair with one cutoff, a rows.size x idx.size array: column (i, j) is
    sq[:, i] (x) e_j + e_i (x) sq[:, j] for the one-mode sq = a^2 - a^dag^2."""
    a = fock.annihilation(cutoff)
    sq = a @ a - a.conj().T @ a.conj().T
    ri, rj = (x[:, None] for x in np.divmod(rows, cutoff))
    i, j = np.divmod(idx, cutoff)
    return sq[ri, i] * (rj == j) + (ri == i) * sq[rj, j]


def dfs_nonexistence(max_total: int = 8, cutoff: int | None = None,
                     rng: np.random.Generator | None = None) -> DfsReport:
    """Scan fixed-total-excitation sectors for squeeze-generator null vectors.

    For each M <= max_total the generator maps the (M+1)-dimensional sector
    into the sectors M +- 2; a simultaneous eigenstate of both collective
    channels would be a null vector of that map.  Reports null dimensions
    (SVD, relative threshold 1e-8) and a random-combination eigenvector
    search, plus the encoded-operator commutators for contrast.  Only the
    generator's entries from each scanned sector into sectors M and M +- 2
    are built, each from the one-mode a^2 - a^dag^2.  A `max_total` that is
    not an integer >= 0, or a cutoff that is not an integer >= 2, is a
    ValueError.
    """
    max_total = fock.checked_int("max_total", max_total, 0)
    cutoff = max_total + 3 if cutoff is None else fock.checked_int("cutoff", cutoff, 2)
    if max_total + 2 >= cutoff:
        raise ValueError("cutoff must exceed max_total + 2 for exact sector images")
    if rng is None:
        rng = np.random.default_rng(0)
    sectors = []
    blocks = fock.pair_excitation_blocks(cutoff)
    for m, idx in enumerate(blocks[:max_total + 1]):
        # sector m's image lies in sectors m +- 2; its own rows (zero) come first
        rows = np.concatenate([idx] + [blocks[t] for t in (m - 2, m + 2) if t >= 0])
        restricted = _squeeze_generator_columns(cutoff, idx, rows)
        svals = np.linalg.svd(restricted, compute_uv=False)
        null_dim = int((svals < NULLSPACE_RELATIVE_THRESHOLD * svals.max()).sum())
        # random-combination search: no unit vector in the sector may be an
        # eigenvector of the generator (its image must leave the sector)
        # 25 unit vectors as columns, drawn as 25 successive (real, imaginary) pairs
        draws = rng.standard_normal((25, 2, idx.size))
        c = (draws[:, 0] + 1j * draws[:, 1]).T
        c /= np.linalg.norm(c, axis=0)
        img = restricted @ c
        img[:idx.size] -= (c.conj() * img[:idx.size]).sum(axis=0) * c  # minus <c|G|c> c
        found = int((np.linalg.norm(img, axis=0) < 1e-6).sum())
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
    neg = commutation_check(collective_noise("phase", 0.7, cutoff), a + a.conj().T)
    return DfsReport(max_total=max_total, cutoff=cutoff,
                     sv_threshold=NULLSPACE_RELATIVE_THRESHOLD,
                     sectors=tuple(sectors), commutators=comms, negative_control=neg)
