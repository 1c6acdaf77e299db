"""Multi-qubit logical circuits on pure and mixed initial states.

The central claim being verified: a computation started from the mixed
product of parity-projected thermal states returns exactly the same final
measurement probability as the same circuit on any single pure basis pair,
because every gate acts identically on every basis pair.  Three independent
routes compute that probability:

* ``run_mixed`` is the production mixed-state route.  It evolves the
  diagonal initial mixture through the literal ancilla circuits, one mode
  pair's total-excitation block at a time.
* ``run_pure`` evolves one pure basis-pair product state through the same
  ancilla circuits on the full dense hybrid space.
* ``qubit_space_oracle`` is the ground truth in the abstract 2^K logical
  space.

The test suite keeps a fourth, dense route at tiny cutoffs as a cross-check
of ``run_mixed``: full gate unitaries conjugating the whole density matrix.

Circuit convention: steps are applied in list order; within one step the
entangling rotations act first, then the X rotations, then the Z rotations
(the product is written Z-rotations leftmost, so they act last).  The JSON
wire format is ``{"version": 1, "qubits": K, "steps": [{"phi": [...K],
"theta": [...K], "gamma": [...K-1]}, ...]}`` with angles in radians.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import fock
from .fock import HybridState, SpaceLayout
from .thermal import ThermalSpec, even_odd_weights, required_cutoff

CIRCUIT_FORMAT_VERSION = 1
ANCILLA_RETURN_TOL = 1e-10
SUPPORT_LEAK_TOL = 1e-9
DEFAULT_CUTOFF_ONE_QUBIT = 20
DEFAULT_CUTOFF_TWO_QUBIT = 8
MAX_MIXED_BRANCHES = 1024


class CircuitFormatError(ValueError):
    """Malformed circuit document."""


class DimensionBudgetError(ValueError):
    """Requested simulation exceeds the dense-simulation budget."""


@dataclass(frozen=True)
class CircuitStep:
    """One computational step: per-qubit Z angles, X angles, and K-1 nearest-
    neighbour entangler angles (qubit k with qubit k-1)."""

    phi: tuple[float, ...]
    theta: tuple[float, ...]
    gamma: tuple[float, ...]


@dataclass(frozen=True)
class LogicalCircuit:
    qubit_count: int
    steps: tuple[CircuitStep, ...]

    def __post_init__(self):
        k = self.qubit_count
        if k < 1:
            raise CircuitFormatError("qubit_count must be >= 1")
        for i, s in enumerate(self.steps):
            if len(s.phi) != k or len(s.theta) != k or len(s.gamma) != k - 1:
                raise CircuitFormatError(
                    f"step {i}: angle lists must have lengths {k}, {k}, {k - 1}")
            for ang in (*s.phi, *s.theta, *s.gamma):
                if not math.isfinite(ang):
                    raise CircuitFormatError(f"step {i}: non-finite angle {ang}")

    # -- wire format ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "version": CIRCUIT_FORMAT_VERSION,
            "qubits": self.qubit_count,
            "steps": [{"phi": list(s.phi), "theta": list(s.theta), "gamma": list(s.gamma)}
                      for s in self.steps],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "LogicalCircuit":
        allowed = {"version", "qubits", "steps"}
        unknown = set(doc) - allowed
        if unknown:
            raise CircuitFormatError(f"unknown circuit keys: {sorted(unknown)}")
        version = doc.get("version", CIRCUIT_FORMAT_VERSION)
        if version != CIRCUIT_FORMAT_VERSION:
            raise CircuitFormatError(f"unsupported circuit format version {version}")
        if "qubits" not in doc or "steps" not in doc:
            raise CircuitFormatError("circuit document needs 'qubits' and 'steps'")
        steps = []
        for i, s in enumerate(doc["steps"]):
            extra = set(s) - {"phi", "theta", "gamma"}
            if extra:
                raise CircuitFormatError(f"step {i}: unknown keys {sorted(extra)}")
            steps.append(CircuitStep(tuple(float(x) for x in s.get("phi", [])),
                                     tuple(float(x) for x in s.get("theta", [])),
                                     tuple(float(x) for x in s.get("gamma", []))))
        return cls(int(doc["qubits"]), tuple(steps))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "LogicalCircuit":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def random_circuit(rng: np.random.Generator, qubit_count: int, n_steps: int) -> LogicalCircuit:
    steps = tuple(
        CircuitStep(tuple(rng.uniform(-np.pi, np.pi, qubit_count)),
                    tuple(rng.uniform(-np.pi, np.pi, qubit_count)),
                    tuple(rng.uniform(-np.pi, np.pi, max(qubit_count - 1, 0))))
        for _ in range(n_steps))
    return LogicalCircuit(qubit_count, steps)


def step_gates(circuit: LogicalCircuit):
    """Canonical gate order shared by every execution route.

    Yields ("zz", k, k-1, angle), ("x", k, angle), ("z", k, angle) tuples in
    the order they act on the state.
    """
    for s in circuit.steps:
        for k, ang in enumerate(s.gamma):
            yield ("zz", k + 1, k, ang)
        for k, ang in enumerate(s.theta):
            yield ("x", k, ang)
        for k, ang in enumerate(s.phi):
            yield ("z", k, ang)


@dataclass
class ComputationResult:
    probability: float
    mode: str
    qubit_count: int
    cutoff: int
    basis_indices: tuple[tuple[int, int], ...] | None = None
    mean_excitation: float | None = None
    seed: int | None = None
    truncation_tail: float = 0.0


# ---------------------------------------------------------------------------
# abstract qubit-space reference
# ---------------------------------------------------------------------------

_PX = np.array([[0, 1], [1, 0]], dtype=complex)
_PZ = np.array([[1, 0], [0, -1]], dtype=complex)


def qubit_space_oracle(circuit: LogicalCircuit) -> float:
    """Ground truth in the abstract 2^K logical space with 2x2 Pauli algebra."""
    k = circuit.qubit_count
    if k > 10:
        raise DimensionBudgetError("oracle supports at most 10 logical qubits")
    dim = 2 ** k

    def embed(mat, qubit):
        out = np.array([[1.0 + 0j]])
        for i in range(k):
            out = np.kron(out, mat if i == qubit else np.eye(2))
        return out

    def embed2(mat_a, qa, mat_b, qb):
        out = np.array([[1.0 + 0j]])
        for i in range(k):
            f = mat_a if i == qa else (mat_b if i == qb else np.eye(2))
            out = np.kron(out, f)
        return out

    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    eye = np.eye(dim)
    for gate in step_gates(circuit):
        if gate[0] == "zz":
            _, ka, kb, ang = gate
            op = embed2(_PZ, ka, _PZ, kb)
        elif gate[0] == "x":
            _, ka, ang = gate
            op = embed(_PX, ka)
        else:
            _, ka, ang = gate
            op = embed(_PZ, ka)
        psi = (math.cos(ang) * eye + 1j * math.sin(ang) * op) @ psi
    return float(abs(psi[0]) ** 2)


# ---------------------------------------------------------------------------
# physical primitives, streamed onto state batches
# ---------------------------------------------------------------------------


def _pair_modes(k: int) -> tuple[int, int]:
    return (2 * k, 2 * k + 1)


class _PhysicalEngine:
    """Streams the ancilla-mediated gate circuits onto a batched state vector.

    Layout: one shared ancilla qubit, then modes (2k, 2k+1) per logical
    qubit.  Works on a (total_dim, batch) array of pure-state columns.
    """

    def __init__(self, qubit_count: int, cutoff: int):
        self.k = qubit_count
        self.d = cutoff
        self.layout = SpaceLayout(1, (cutoff,) * (2 * qubit_count))
        self.dims = self.layout.dims
        self._cdiag = fock.controlled_parity_diag(self.layout, 0, 0)  # same for every mode
        self._bs = fock.beam_splitter_5050(SpaceLayout(0, (cutoff, cutoff)), 0, 1).matrix

    def plus_basis_column(self, modes: tuple[int, ...]) -> np.ndarray:
        v0 = np.zeros(self.layout.total_dim, dtype=complex)
        v0[self.layout.basis_index((0,), modes)] = 1 / math.sqrt(2)
        v0[self.layout.basis_index((1,), modes)] = 1 / math.sqrt(2)
        return v0

    def _apply_controlled_parity(self, work, k):
        ax_mode = self.layout.mode_axis(_pair_modes(k)[1])
        return fock.apply_diag_local(work, self.dims, self._cdiag, (0, ax_mode))

    def _apply_ancilla_rx(self, work, angle):
        rot = fock.qubit_rotation_matrix("x", angle)
        return fock.apply_local(work, self.dims, rot, (0,))

    def _apply_beam_splitter(self, work, k, dagger=False):
        ma, mb = _pair_modes(k)
        mat = self._bs
        if dagger:
            mat = mat.conj().T
        axes = (self.layout.mode_axis(ma), self.layout.mode_axis(mb))
        return fock.apply_local(work, self.dims, mat, axes)

    def apply_gate(self, work: np.ndarray, gate) -> np.ndarray:
        if gate[0] == "z":
            _, k, ang = gate
            work = self._apply_controlled_parity(work, k)
            work = self._apply_ancilla_rx(work, ang)
            work = self._apply_controlled_parity(work, k)
        elif gate[0] == "x":
            _, k, ang = gate
            work = self._apply_beam_splitter(work, k)
            work = self._apply_controlled_parity(work, k)
            work = self._apply_ancilla_rx(work, ang)
            work = self._apply_controlled_parity(work, k)
            work = self._apply_beam_splitter(work, k, dagger=True)
        else:
            _, ka, kb, ang = gate
            work = self._apply_controlled_parity(work, kb)
            work = self._apply_controlled_parity(work, ka)
            work = self._apply_ancilla_rx(work, ang)
            work = self._apply_controlled_parity(work, ka)
            work = self._apply_controlled_parity(work, kb)
        return work

    def ancilla_minus_weight(self, work: np.ndarray) -> float:
        """Worst-case squared weight on the ancilla |-> component (per column)."""
        t = work.reshape((2, -1) if work.ndim == 1 else (2, -1, work.shape[1]))
        minus = (t[0] - t[1]) / math.sqrt(2)
        w_minus = (np.abs(minus) ** 2).sum(axis=0)
        w_tot = (np.abs(work) ** 2).sum(axis=0)
        return float(np.max(w_minus / w_tot))

    def readout_mask(self) -> np.ndarray:
        """Diagonal of the product of (I + Z_L)/2 projectors over all qubits."""
        mask = np.ones(1)
        for ax, dim in enumerate(self.dims):
            if ax == 0:
                f = np.ones(2)
            else:
                mode = ax - 1
                if mode % 2 == 1:  # second mode of its pair
                    f = ((1.0 + (-1.0) ** np.arange(dim)) / 2.0)
                else:
                    f = np.ones(dim)
            mask = np.kron(mask, f)
        return mask

    def support_mask(self, basis_indices) -> np.ndarray:
        """Diagonal mask of the per-qubit basis-pair subspace (ancilla free)."""
        mask = np.ones((2,), dtype=float)
        for (m, n) in basis_indices:
            pm = np.zeros((self.d, self.d))
            for (i, j) in ((2 * m + 1, 2 * n), (2 * n, 2 * m + 1)):
                pm[i, j] = 1.0
            mask = np.kron(mask, pm.ravel())
        return mask


def _check_basis_indices(basis_indices, qubit_count, cutoff):
    if len(basis_indices) != qubit_count:
        raise ValueError("need one (m, n) basis pair per logical qubit")
    out = []
    for (m, n) in basis_indices:
        if m < 0 or n < 0:
            raise ValueError("basis indices must be non-negative")
        if 2 * m + 1 >= cutoff or 2 * n >= cutoff:
            raise DimensionBudgetError(
                f"basis pair ({m}, {n}) does not fit under cutoff {cutoff}")
        out.append((int(m), int(n)))
    return tuple(out)


def run_pure(circuit: LogicalCircuit, basis_indices, cutoff: int | None = None,
             check_support: bool = True) -> ComputationResult:
    """Evolve one pure basis-pair product state through the physical circuits.

    The shared ancilla is carried explicitly; its return to |+> is asserted
    after every gate.  The result is the expectation of the product of
    (I + Z_L)/2 readout projectors.
    """
    k = circuit.qubit_count
    if cutoff is None:
        cutoff = DEFAULT_CUTOFF_ONE_QUBIT if k == 1 else DEFAULT_CUTOFF_TWO_QUBIT
        # beam-splitter spreading stays exact while the pair total fits
        need = max(2 * m + 1 + 2 * n + 1 for (m, n) in basis_indices)
        cutoff = max(cutoff, need)
    if k > 2 and cutoff ** (2 * k) * 2 > 4_000_000:
        raise DimensionBudgetError("pure run exceeds the dense dimension budget")
    basis_indices = _check_basis_indices(basis_indices, k, cutoff)
    eng = _PhysicalEngine(k, cutoff)
    modes = []
    for (m, n) in basis_indices:
        modes.extend((2 * m + 1, 2 * n))
    work = eng.plus_basis_column(tuple(modes))
    for gate in step_gates(circuit):
        work = eng.apply_gate(work, gate)
        leak = eng.ancilla_minus_weight(work)
        if leak > ANCILLA_RETURN_TOL:
            raise fock.StateError(f"ancilla failed to return to |+>: weight {leak:.3e}")
    a = float((eng.readout_mask() * np.abs(work) ** 2).sum())
    if check_support:
        pop_in = float((eng.support_mask(basis_indices) * np.abs(work) ** 2).sum())
        leak = 1.0 - pop_in
        if leak > SUPPORT_LEAK_TOL:
            raise fock.StateError(
                f"population {leak:.3e} left the encoded basis-pair subspace")
    state = HybridState.pure(eng.layout, work)
    return ComputationResult(a, "pure", k, cutoff, basis_indices=basis_indices,
                             truncation_tail=state.truncation_tail)


# ---------------------------------------------------------------------------
# mixed runs
# ---------------------------------------------------------------------------


def mixed_equivalence_cutoff(mean_excitation: float, pair_weight_tol: float = 1e-7,
                             tail_tol: float = 1e-8, start: int = 8) -> int:
    """Cutoff for mixed runs: thermal tail below `tail_tol` and joint weight of
    pair states with total excitation >= d below `pair_weight_tol` (those are
    the blocks where the truncated beam splitter deviates from the ideal one).
    """
    d = required_cutoff(mean_excitation, tail_tol, start)
    horizon = 4 * d + 64
    w_odd = even_odd_weights(mean_excitation, horizon, -1)
    w_even = even_odd_weights(mean_excitation, horizon, +1)
    while True:
        totals = np.add.outer(np.arange(horizon), np.arange(horizon))
        joint = np.outer(w_odd, w_even)
        broken = float(joint[totals >= d].sum())
        if broken < pair_weight_tol:
            return d
        d += 1


class _PairBlocks:
    """One mode pair's mixture columns, stacked by total excitation t.

    Every pair gate conserves t = i + j, so a column that starts on the Fock
    state |i, j> of the diagonal initial mixture stays in block t.  A pair
    state is an array of shape (T, 2, n, c): occupied block, ancilla, state
    within the block (ordered by i) and mixture column, zero padded to the
    largest block n and the largest column count c.  The ancilla starts in
    |+> on every column.
    """

    def __init__(self, w_odd: np.ndarray, w_even: np.ndarray, cutoff: int):
        d = cutoff
        w_pair = np.outer(w_odd, w_even).ravel()
        blocks = [(t, idx) for t, idx in enumerate(fock.pair_excitation_blocks(d))
                  if (w_pair[idx] > 0.0).any()]
        nb = len(blocks)
        n = max(idx.size for _, idx in blocks)
        c = max(np.count_nonzero(w_pair[idx]) for _, idx in blocks)
        bs_full = fock.beam_splitter_5050(SpaceLayout(0, (d, d)), 0, 1).matrix
        cp_full = fock.controlled_parity_diag(SpaceLayout(1, (d,)), 0, 0).reshape(2, d)
        self.bs = np.zeros((nb, 1, n, n), dtype=complex)
        self.cp = np.zeros((nb, 2, n, 1), dtype=complex)
        self.parity = np.zeros((nb, 1, n, 1))  # second-mode Fock parity
        self.weight = np.zeros((nb, c))
        self.initial = np.zeros((nb, 2, n, c), dtype=complex)
        for b, (_, idx) in enumerate(blocks):
            m = idx.size
            j = idx % d
            self.bs[b, 0, :m, :m] = bs_full[np.ix_(idx, idx)]
            self.cp[b, :, :m, 0] = cp_full[:, j]
            self.parity[b, 0, :m, 0] = (-1.0) ** j
            occupied = np.flatnonzero(w_pair[idx] > 0.0)
            self.weight[b, :occupied.size] = w_pair[idx[occupied]]
            self.initial[b, :, occupied, np.arange(occupied.size)] = 1 / math.sqrt(2)
        self.columns = self.weight > 0.0
        # weight of the blocks the truncated beam splitter does not treat ideally
        self.broken_weight = float(sum(w_pair[idx].sum() for t, idx in blocks if t >= d))

    def single_pair_gate(self, v, gate):
        """The literal ancilla circuit of a Z or X rotation, on every block:
        CP Rx CP, between B and B^dag for X; the ancilla must return to |+>."""
        kind, _, ang = gate
        if kind == "x":
            v = self.bs @ v
        rx = fock.qubit_rotation_matrix("x", ang)
        v = self.cp * np.einsum("ab,tbnc->tanc", rx, self.cp * v)
        if kind == "x":
            v = self.bs.conj().transpose(0, 1, 3, 2) @ v
        w_minus = (np.abs(v[:, 0] - v[:, 1]) ** 2).sum(axis=1) / 2
        w_tot = (np.abs(v) ** 2).sum(axis=(1, 2))
        leak = float(np.max(w_minus[self.columns] / w_tot[self.columns]))
        if leak > ANCILLA_RETURN_TOL:
            raise fock.StateError(f"ancilla failed to return to |+>: weight {leak:.3e}")
        return v

    def readout_gram(self, states) -> np.ndarray:
        """G[s, r] = sum over columns of weight * <v_s| (I + P_b)/2 |v_r>."""
        mask = (1.0 + self.parity) / 2 * self.weight[:, None, None, :]
        stack = np.stack(states)
        n = len(states)
        return stack.reshape(n, -1).conj() @ (stack * mask).reshape(n, -1).T


def run_mixed(circuit: LogicalCircuit, spec: ThermalSpec,
              cutoff: int | None = None) -> ComputationResult:
    """Run the circuit on the product of parity-projected thermal pair states.

    The initial state is diagonal in the Fock basis and every gate conserves
    each pair's total excitation, so each pair's mixture columns are evolved
    inside their own total-excitation block (:class:`_PairBlocks`), the
    truncated blocks with t >= cutoff included.  Z and X rotations run the
    literal ancilla circuits on those blocks and the ancilla's return to |+>
    is asserted after every gate.  An entangler exp(i gamma P_a P_b) splits
    every branch into cos(gamma) I and i sin(gamma) P_a P_b, so the state is
    a sum of pair-product branches and the readout expectation factorizes
    over pairs.  Any number of logical qubits is accepted up to
    ``MAX_MIXED_BRANCHES`` branches (2 to the number of entanglers).  The
    evaluation is deterministic, with no Monte-Carlo sampling.  Readout is
    the product of second-mode parity projectors, never an individual-Fock-
    state projector.

    ``truncation_tail`` is the joint mixture weight of the blocks where any
    pair's total excitation reaches the cutoff; there the truncated beam
    splitter differs from the ideal one.
    """
    k = circuit.qubit_count
    n_entanglers = sum(len(s.gamma) for s in circuit.steps)
    if 2 ** n_entanglers > MAX_MIXED_BRANCHES:
        raise DimensionBudgetError(
            f"{n_entanglers} entanglers exceed the mixed-run budget of "
            f"{MAX_MIXED_BRANCHES} branches")
    if cutoff is None:
        start = DEFAULT_CUTOFF_ONE_QUBIT if k == 1 else DEFAULT_CUTOFF_TWO_QUBIT
        cutoff = required_cutoff(spec.mean_excitation, spec.tail_tol, start)
    q = spec.boltzmann_ratio
    if q ** cutoff >= spec.tail_tol:
        raise DimensionBudgetError(
            f"cutoff {cutoff} leaves thermal tail {q ** cutoff:.2e} >= {spec.tail_tol:.0e}")
    w_odd = even_odd_weights(spec.mean_excitation, cutoff, -1)
    w_even = even_odd_weights(spec.mean_excitation, cutoff, +1)
    pair = _PairBlocks(w_odd, w_even, cutoff)
    # states[p] lists the distinct states of pair p; a branch is a coefficient
    # and the index of its state in every pair's list
    states = [[pair.initial] for _ in range(k)]
    coeffs = np.ones(1, dtype=complex)
    index = np.zeros((1, k), dtype=int)
    for gate in step_gates(circuit):
        if gate[0] == "zz":
            _, ka, kb, ang = gate
            flipped = index.copy()
            for p in (ka, kb):
                flipped[:, p] += len(states[p])
                states[p] = states[p] + [pair.parity * v for v in states[p]]
            index = np.concatenate([index, flipped])
            coeffs = np.concatenate([math.cos(ang) * coeffs, 1j * math.sin(ang) * coeffs])
        else:
            states[gate[1]] = [pair.single_pair_gate(v, gate) for v in states[gate[1]]]
    terms = np.outer(coeffs.conj(), coeffs)
    for p in range(k):
        terms = terms * pair.readout_gram(states[p])[np.ix_(index[:, p], index[:, p])]
    return ComputationResult(float(terms.sum().real), "mixed", k, cutoff,
                             mean_excitation=spec.mean_excitation,
                             truncation_tail=1.0 - (1.0 - pair.broken_weight) ** k)
