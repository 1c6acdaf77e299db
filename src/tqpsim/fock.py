"""Exact operators on truncated Fock spaces and on the hybrid ancilla-qumode space.

Every other module builds on the primitives here, all plain numpy arrays:
a single-mode operator is a d x d matrix, a mode pair's gate takes the form
its conservation law allows, and a state's axes are its tensor factors.

Conventions
-----------
* A hybrid space holds at most one qubit: the single auxiliary qubit
  (ancilla) that every gate and the parity measurement share.  When present
  it is tensor axis 0, a 2-dim factor; the qumodes follow in index order,
  mode i holding |0> .. |d_i - 1>.  So a flat array splits as
  ``reshape(2, rest, ...)``, and an (ancilla, mode) state is a ``(2, d)``
  vector or a ``(2, d, 2, d)`` density array.
* Ancilla basis: ``|0>`` is the +1 eigenstate of the Pauli Z operator.
* The 50:50 beam splitter between modes (a, b) is ``exp(pi/4 (a_b a_a^dag -
  a_b^dag a_a))``.  With this generator the single-photon action is
  ``B |1,0> = (|1,0> - |0,1>)/sqrt(2)`` and ``B |0,1> = (|1,0> +
  |0,1>)/sqrt(2)`` (frozen by a golden test).
* Mode-pair gates conserve total excitation: the beam splitter is held as
  its blocks, the swap as a permutation, parities and number as diagonals.
  The beam splitter's blocks are built once per cutoff and kept, read-only,
  in a small cache of the most recent cutoffs.  ``msuqc`` keeps the pair
  layouts it builds from them and reuses one only while
  ``beam_splitter_5050`` returns the same block objects (``is``).
* The hybrid parity Z (x) exp(i pi a^dag a) splits an (ancilla, mode) space
  into two sectors of d states each (`parity_sectors`); the engineered
  pulse sequence is block diagonal in them.
* Every exponential is computed with numpy alone, and both take a stack of
  matrices on the last two axes.  An anti-Hermitian generator G is
  exponentiated by one ``eigh`` of iG (`unitary_exponential`), taken block
  by block in total excitation when G conserves number, which equals the
  full exponential to machine precision.  A non-normal generator (the
  master equation's waiting channel) goes through [13/13] Pade with scaling
  and squaring (`pade_exponential`).
* Applying a truncated displacement does not renormalize the state; the
  weight left on the top Fock level is the truncation tail, which the
  result that owns the state reports (``msuqc.ComputationResult``,
  ``opensys.FidelityPoint``).
"""

from __future__ import annotations

import functools
import math

import numpy as np


class LayoutError(ValueError):
    """An array whose shape does not fit the tensor structure it is used on."""


class StateError(ValueError):
    """A state that fails an invariant, such as an ancilla that did not return."""


_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

KET_PLUS = np.array([1, 1], dtype=complex) / math.sqrt(2)


def checked_int(name: str, value, least: int) -> int:
    """`value`, an integer >= `least` (numpy's too, not bool), as an int; else ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def unitary_exponential(gen: np.ndarray) -> np.ndarray:
    """exp(G) for an anti-Hermitian G, or a stack of them on the last two axes:
    V e^{-iW} V^dag from the eigendecomposition iG = V W V^dag."""
    w, v = np.linalg.eigh(1j * np.asarray(gen))
    return (v * np.exp(-1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


# numerator coefficients b_0 .. b_13 of the [13/13] Pade approximant of exp, over b_0 so
# that exp(0) = I exactly, and the largest 1-norm at which its backward error stays
# below the unit roundoff (Higham 2005)
_PADE_13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0))
PADE_THETA_13 = 5.371920351148152


def pade_exponential(gen: np.ndarray) -> np.ndarray:
    """exp(G) for any square G, or a stack of them on the last two axes, by
    [13/13] Pade with scaling and squaring (Higham, SIAM J. Matrix Anal.
    Appl. 26, 1179 (2005)): A = G / 2^s with ||A||_1 <= PADE_THETA_13, then
    r(A) = (V - U)^-1 (V + U) squared s times, U odd and V even in A.  Each
    matrix of a stack takes its own s, so it gets what it would alone.  An
    array that is not a (stack of) square matrices, or is not finite, is a
    ValueError."""
    a = np.asarray(gen, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"the exponential needs square matrices, got shape {a.shape}")
    norms = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)
    if not np.isfinite(norms).all():
        raise ValueError("the exponential needs a finite matrix")
    s = np.array([math.ceil(math.log2(norm / PADE_THETA_13)) if norm > PADE_THETA_13 else 0
                  for norm in norms.ravel().tolist()], dtype=int).reshape(norms.shape)
    if s.any():
        a = a * np.ldexp(1.0, -s)[..., None, None]
    b, eye = _PADE_13, np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for done in range(s.max(initial=0)):
        if s.min() > done:
            r = r @ r
        else:  # only the matrices that still need a squaring take it
            more = s > done
            r[more] = r[more] @ r[more]
    return r


# ---------------------------------------------------------------------------
# local application on tensor axes
# ---------------------------------------------------------------------------


def _on_axes(array: np.ndarray, dims: tuple[int, ...], axes: tuple[int, ...], act) -> np.ndarray:
    """`act` on the (product of ``dims[axes]``, rest) matrix view of a flat
    state or batch of shape ``(total_dim,)`` or ``(total_dim, batch)``."""
    batched = array.ndim == 2
    batch = array.shape[1] if batched else 1
    n = len(dims)
    axes = tuple(axes)
    front = list(axes) + [ax for ax in range(n) if ax not in axes] + [n]
    work = array.reshape(tuple(dims) + (batch,)).transpose(front)
    sub_shape = [dims[ax] for ax in axes]
    rest_shape = list(work.shape[len(axes):])
    work = act(work.reshape(int(np.prod(sub_shape, dtype=np.int64)), -1))
    out = work.reshape(sub_shape + rest_shape).transpose(np.argsort(front)).reshape(-1, batch)
    return out if batched else out[:, 0]


# `perfbench/tracing.py` wraps `apply_local` and `apply_diag_local` by name,
# so both stay while the benchmark traces them, though no module here calls them.
def apply_local(array: np.ndarray, dims: tuple[int, ...], matrix: np.ndarray,
                axes: tuple[int, ...]) -> np.ndarray:
    """Apply `matrix` to the given tensor axes of a flat state (or batch).

    `array` has shape ``(total_dim,)`` or ``(total_dim, batch)``; `matrix` is
    square over the product of ``dims[axes]``.  Returns a new array of the
    same shape.  This contracts without materializing the embedded operator.
    """
    return _on_axes(array, dims, axes, lambda work: matrix @ work)


def apply_diag_local(array: np.ndarray, dims: tuple[int, ...], diag: np.ndarray,
                     axes: tuple[int, ...]) -> np.ndarray:
    """Apply a diagonal operator (joint diagonal over `axes`) to a flat state/batch."""
    return _on_axes(array, dims, axes, lambda work: work * diag[:, None])


# ---------------------------------------------------------------------------
# single-mode building blocks
# ---------------------------------------------------------------------------


def annihilation(d: int) -> np.ndarray:
    """Ladder-down operator on one mode, d x d, with <n-1|a|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1).astype(complex)


def displacement(d: int, alpha: complex) -> np.ndarray:
    """exp(alpha a^dag - alpha* a) on one mode, d x d.

    The truncated generator is anti-Hermitian, so the result is unitary on
    the truncated space; its action is only faithful on states whose support
    keeps |alpha|^2 well below the cutoff.  Callers check the truncation
    tail rather than renormalizing.
    """
    a = annihilation(d)
    return unitary_exponential(alpha * a.conj().T - np.conj(alpha) * a)


def parity_diag(d: int) -> np.ndarray:
    """Diagonal of the Fock parity sum_n (-1)^n |n><n| = exp(i pi a^dag a)."""
    return (-1.0) ** np.arange(d)


def pair_number(d: int) -> np.ndarray:
    """Diagonal of a mode pair's total number: i + j at the flat index i * d + j."""
    return np.add.outer(np.arange(d, dtype=float), np.arange(d, dtype=float)).ravel()


def pair_excitation_blocks(d: int) -> list[np.ndarray]:
    """Flat indices ``i * d + j`` of the two-mode states |i, j> grouped by total
    excitation t = i + j, for t = 0 .. 2d - 2; each block is ordered by i.

    Every number-conserving two-mode operator is block diagonal in this split.
    Blocks with t >= d are truncated: they hold 2d - 1 - t states, not t + 1.
    """
    totals = np.add.outer(np.arange(d), np.arange(d)).ravel()
    return [np.flatnonzero(totals == t) for t in range(2 * d - 1)]


def _beam_splitter_block(d: int, idx: np.ndarray) -> np.ndarray:
    """exp of the beam-splitter generator on one total-excitation block.

    On the block's states |i, t - i> the generator pi/4 (a_b a_a^dag -
    a_b^dag a_a) is real, antisymmetric and tridiagonal in i, with
    <i+1, t-i-1| G |i, t-i> = pi/4 sqrt(i + 1) sqrt(t - i) (the SU(2) picture
    of Campos, Saleh & Teich, PRA 40, 1371 (1989)).
    """
    i, j = np.divmod(idx[:-1], d)
    sub = (np.pi / 4) * (np.sqrt(i + 1.0) * np.sqrt(j))
    return unitary_exponential(np.diag(sub, k=-1) - np.diag(sub, k=1))


# ---------------------------------------------------------------------------
# operator constructors
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _beam_splitter_blocks(cutoff: int) -> tuple[np.ndarray, ...]:
    blocks = tuple(_beam_splitter_block(cutoff, idx) for idx in pair_excitation_blocks(cutoff))
    for block in blocks:
        block.setflags(write=False)
    return blocks


def beam_splitter_5050(cutoff: int) -> list[np.ndarray]:
    """50:50 beam splitter exp(pi/4 (a_b a_a^dag - a_b^dag a_a)) on a mode pair,
    as its blocks: entry t acts on ``pair_excitation_blocks(cutoff)[t]``.

    Exactly unitary within every block, and identical to the ideal beam
    splitter on blocks whose total fits under the cutoff (t < cutoff).
    Golden sign convention: B|1,0> = (|1,0> - |0,1>)/sqrt(2).

    The blocks of the last few cutoffs are cached and read-only; each call
    returns a new list of them.  A cutoff that is not an integer >= 1 is a
    ValueError.
    """
    return list(_beam_splitter_blocks(checked_int("cutoff", cutoff, 1)))


def two_mode_swap(cutoff: int) -> np.ndarray:
    """Permutation |m>|n> <-> |n>|m> of a mode pair, as the flat-index involution
    s with (S psi)[k] = psi[s[k]]; S is Hermitian, unitary, squares to I exactly.

    Conjugation sends the first mode's ladder operator to the second's:
    S a_a S^dag = a_b.
    """
    m, n = np.divmod(np.arange(cutoff * cutoff), cutoff)
    return n * cutoff + m


def controlled_parity_diag(d: int) -> np.ndarray:
    """Diagonal of exp(i pi/2 (I - Z) a^dag a) over the (ancilla, mode) axes:
    ones on the ancilla |0> block, the Fock parity on |1>; squares to 1 exactly."""
    return np.concatenate([np.ones(d), parity_diag(d)])


def parity_sectors(d: int) -> np.ndarray:
    """Flat (ancilla level, mode) indices q d + n of the +1 and -1 eigenspaces
    of the hybrid parity Z (x) exp(i pi a^dag a), as a (2, d) array, each row
    ordered by n: the +1 sector holds |0, even n> and |1, odd n>, the -1
    sector |1, even n> and |0, odd n>."""
    n = np.arange(d)
    return np.stack([n % 2, 1 - n % 2]) * d + n


def qubit_rotation_matrix(axis: str, angle: float) -> np.ndarray:
    """exp(i angle sigma) on the ancilla alone: cos(angle) I + i sin(angle) sigma."""
    sig = _PAULI[axis.lower()]
    return math.cos(angle) * np.eye(2, dtype=complex) + 1j * math.sin(angle) * sig
