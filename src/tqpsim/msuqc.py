"""Multi-qubit logical circuits on pure and mixed initial states.

The central claim being verified: a computation started from the mixed
product of parity-projected thermal states returns exactly the same final
measurement probability as the same circuit on any single pure basis pair,
because every gate acts identically on every basis pair.  Two independent
routes compute that probability:

* ``run_mixed`` and ``run_pure`` share one engine.  The diagonal initial
  state (the thermal mixture, or one basis pair as a one-hot mixture)
  evolves through the literal ancilla circuits, one mode pair's
  total-excitation block at a time.  Z and X rotations run
  ``encoding.pair_block_gate``, the one definition of those circuits.
* ``qubit_space_oracle`` is the ground truth in the abstract 2^K logical
  space.

The test suite keeps a third, dense route at tiny cutoffs as a cross-check
of both runs: its dense hybrid gate unitaries (``tests/dense_reference.py``)
conjugate the whole density matrix.

Circuit convention: steps are applied in list order; within one step the
entangling rotations act first, then the X rotations, then the Z rotations
(the product is written Z-rotations leftmost, so they act last).  The JSON
wire format is ``{"version": 1, "qubits": K, "steps": [{"phi": [...K],
"theta": [...K], "gamma": [...K-1]}, ...]}`` with angles in radians.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import encoding, fock
from .fock import SpaceLayout
from .thermal import ThermalSpec, even_odd_weights, required_cutoff

CIRCUIT_FORMAT_VERSION = 1
SUPPORT_LEAK_TOL = 1e-9
DEFAULT_CUTOFF_ONE_QUBIT = 20
DEFAULT_CUTOFF_TWO_QUBIT = 8
MAX_MIXED_BRANCHES = 1024


class CircuitFormatError(ValueError):
    """Malformed circuit document."""


class DimensionBudgetError(ValueError):
    """Requested simulation exceeds the dense-simulation budget."""


def _is_number(value) -> bool:
    """A JSON number (bool is an int subclass, but not a JSON number)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
        """Parse the wire format; any malformed document raises CircuitFormatError."""
        if not isinstance(doc, dict):
            raise CircuitFormatError("circuit document must be a JSON object")
        allowed = {"version", "qubits", "steps"}
        unknown = set(doc) - allowed
        if unknown:
            raise CircuitFormatError(f"unknown circuit keys: {sorted(unknown)}")
        version = doc.get("version", CIRCUIT_FORMAT_VERSION)
        if isinstance(version, bool) or version != CIRCUIT_FORMAT_VERSION:
            raise CircuitFormatError(f"unsupported circuit format version {version}")
        if "qubits" not in doc or "steps" not in doc:
            raise CircuitFormatError("circuit document needs 'qubits' and 'steps'")
        qubits, raw_steps = doc["qubits"], doc["steps"]
        if isinstance(qubits, bool) or not isinstance(qubits, int):
            raise CircuitFormatError(f"'qubits' must be an integer, got {qubits!r}")
        if not isinstance(raw_steps, list):
            raise CircuitFormatError(f"'steps' must be a list, got {raw_steps!r}")
        steps = []
        for i, s in enumerate(raw_steps):
            if not isinstance(s, dict):
                raise CircuitFormatError(f"step {i}: must be a JSON object, got {s!r}")
            extra = set(s) - {"phi", "theta", "gamma"}
            if extra:
                raise CircuitFormatError(f"step {i}: unknown keys {sorted(extra)}")
            angles = [s.get(key, []) for key in ("phi", "theta", "gamma")]
            if not all(isinstance(a, list) and all(map(_is_number, a)) for a in angles):
                raise CircuitFormatError(f"step {i}: phi, theta and gamma must be lists "
                                         "of numbers")
            steps.append(CircuitStep(*(tuple(float(x) for x in a) for a in angles)))
        return cls(qubits, tuple(steps))

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
# the pair-block engine shared by pure and mixed runs
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
    |+> on every column.  ``bs``, ``cp`` and ``columns`` are the block
    operators and column mask that ``encoding.pair_block_gate`` takes.
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
        cp_full = fock.controlled_parity_diag(SpaceLayout(1, (d,)), 0).reshape(2, d)
        self.bs = np.zeros((nb, 1, n, n), dtype=complex)
        self.cp = np.zeros((nb, 2, n, 1), dtype=complex)
        self.first = np.full((nb, 1, n, 1), -1)  # first-mode Fock number, -1 on padding
        self.parity = np.zeros((nb, 1, n, 1))  # second-mode Fock parity
        self.weight = np.zeros((nb, c))
        self.initial = np.zeros((nb, 2, n, c), dtype=complex)
        for b, (_, idx) in enumerate(blocks):
            m = idx.size
            i, j = np.divmod(idx, d)
            self.bs[b, 0, :m, :m] = bs_full[np.ix_(idx, idx)]
            self.cp[b, :, :m, 0] = cp_full[:, j]
            self.first[b, 0, :m, 0] = i
            self.parity[b, 0, :m, 0] = (-1.0) ** j
            occupied = np.flatnonzero(w_pair[idx] > 0.0)
            self.weight[b, :occupied.size] = w_pair[idx[occupied]]
            self.initial[b, :, occupied, np.arange(occupied.size)] = 1 / math.sqrt(2)
        self.columns = self.weight > 0.0
        self.readout_mask = (1.0 + self.parity) / 2  # (I + Z_L)/2
        # weight of the blocks the truncated beam splitter does not treat ideally
        self.broken_weight = float(sum(w_pair[idx].sum() for t, idx in blocks if t >= d))

    def gram(self, states, mask) -> np.ndarray:
        """G[s, r] = sum over columns of weight * <v_s| M |v_r>, for a mask M
        diagonal in the block states, shaped (T, 1, n, 1)."""
        weighted = mask * self.weight[:, None, None, :]
        stack = np.stack(states)
        n = len(states)
        return stack.reshape(n, -1).conj() @ (stack * weighted).reshape(n, -1).T


def _run_on_pairs(circuit: LogicalCircuit, pairs: list[_PairBlocks],
                  masks: list[list[np.ndarray]]) -> tuple[list[float], float]:
    """Evolve logical qubit p's initial mixture ``pairs[p]`` through the circuit.

    Z and X rotations run the literal ancilla circuits on one pair's blocks
    (``encoding.pair_block_gate``), and the ancilla's return to |+> is
    asserted after every gate.  An entangler exp(i gamma P_a P_b) splits
    every branch into cos(gamma) I and i sin(gamma) P_a P_b, so the state is
    a sum of pair-product branches and the expectation of a product of
    per-pair diagonal masks factorizes over pairs.  ``masks[o][p]`` is pair
    p's mask in observable o.  Returns the expectation of every observable
    and the truncation tail: the joint weight of the blocks where any pair's
    total excitation reaches the cutoff.
    """
    n_entanglers = sum(len(s.gamma) for s in circuit.steps)
    if 2 ** n_entanglers > MAX_MIXED_BRANCHES:
        raise DimensionBudgetError(
            f"{n_entanglers} entanglers exceed the budget of {MAX_MIXED_BRANCHES} branches")
    # states[p] lists the distinct states of pair p; a branch is a coefficient
    # and the index of its state in every pair's list
    states = [[pair.initial] for pair in pairs]
    coeffs = np.ones(1, dtype=complex)
    index = np.zeros((1, len(pairs)), dtype=int)
    for gate in step_gates(circuit):
        if gate[0] == "zz":
            _, ka, kb, ang = gate
            flipped = index.copy()
            for p in (ka, kb):
                flipped[:, p] += len(states[p])
                states[p] = states[p] + [pairs[p].parity * v for v in states[p]]
            index = np.concatenate([index, flipped])
            coeffs = np.concatenate([math.cos(ang) * coeffs, 1j * math.sin(ang) * coeffs])
        else:
            axis, p, ang = gate
            pair = pairs[p]
            states[p] = [encoding.pair_block_gate(v, axis, ang, pair.bs, pair.cp, pair.columns)
                         for v in states[p]]
    values = []
    for observable in masks:
        terms = np.outer(coeffs.conj(), coeffs)
        for p, (pair, mask) in enumerate(zip(pairs, observable)):
            terms = terms * pair.gram(states[p], mask)[np.ix_(index[:, p], index[:, p])]
        values.append(float(terms.sum().real))
    return values, 1.0 - math.prod(1.0 - pair.broken_weight for pair in pairs)


def _check_basis_indices(basis_indices, qubit_count, cutoff):
    if len(basis_indices) != qubit_count:
        raise ValueError("need one (m, n) basis pair per logical qubit")
    out = []
    for (m, n) in basis_indices:
        if m < 0 or n < 0:
            raise ValueError("basis indices must be non-negative")
        if 2 * m + 1 + 2 * n >= cutoff:
            raise DimensionBudgetError(
                f"basis pair ({m}, {n}) has total excitation {2 * m + 1 + 2 * n}, "
                f"not below cutoff {cutoff}")
        out.append((int(m), int(n)))
    return tuple(out)


def run_pure(circuit: LogicalCircuit, basis_indices,
             cutoff: int | None = None) -> ComputationResult:
    """Run the circuit on one pure basis-pair product state.

    Logical qubit p starts in |2m+1, 2n> for its basis pair (m, n), with the
    ancilla in |+>.  That state is a one-hot diagonal mixture, so it runs on
    the engine of :func:`run_mixed` with one :class:`_PairBlocks` per qubit,
    and the ancilla's return to |+> is asserted after every gate.  The result
    is the expectation of the product of (I + Z_L)/2 readout projectors.

    Every pair's total excitation 2m+1+2n must lie below the cutoff, where
    the truncated beam splitter is ideal (else ``DimensionBudgetError``); the
    default cutoff is raised to fit.  ``StateError`` is raised if more than
    ``SUPPORT_LEAK_TOL`` of the population leaves the product of the encoded
    basis-pair subspaces {|2m+1, 2n>, |2n, 2m+1>}.
    """
    k = circuit.qubit_count
    if cutoff is None:
        cutoff = DEFAULT_CUTOFF_ONE_QUBIT if k == 1 else DEFAULT_CUTOFF_TWO_QUBIT
        cutoff = max(cutoff, max(2 * m + 1 + 2 * n + 1 for (m, n) in basis_indices))
    basis_indices = _check_basis_indices(basis_indices, k, cutoff)
    one_hot = np.eye(cutoff)
    pairs = [_PairBlocks(one_hot[2 * m + 1], one_hot[2 * n], cutoff) for (m, n) in basis_indices]
    support = [np.isin(pair.first, (2 * m + 1, 2 * n)).astype(float)
               for pair, (m, n) in zip(pairs, basis_indices)]
    (a, pop_in), tail = _run_on_pairs(
        circuit, pairs, [[pair.readout_mask for pair in pairs], support])
    leak = 1.0 - pop_in
    if leak > SUPPORT_LEAK_TOL:
        raise fock.StateError(f"population {leak:.3e} left the encoded basis-pair subspace")
    return ComputationResult(a, "pure", k, cutoff, basis_indices=basis_indices,
                             truncation_tail=tail)


def run_mixed(circuit: LogicalCircuit, spec: ThermalSpec,
              cutoff: int | None = None) -> ComputationResult:
    """Run the circuit on the product of parity-projected thermal pair states.

    The initial state is diagonal in the Fock basis and every gate conserves
    each pair's total excitation, so each pair's mixture columns are evolved
    inside their own total-excitation block (:class:`_PairBlocks`), the
    truncated blocks with t >= cutoff included; every pair shares one
    :class:`_PairBlocks`.  Z and X rotations run the literal ancilla circuits
    on those blocks and the ancilla's return to |+> is asserted after every
    gate; entanglers split pair-product branches (:func:`_run_on_pairs`).
    Any number of logical qubits is accepted up to ``MAX_MIXED_BRANCHES``
    branches (2 to the number of entanglers).  The evaluation is
    deterministic, with no Monte-Carlo sampling.  Readout is the product of
    second-mode parity projectors, never an individual-Fock-state projector.

    ``truncation_tail`` is the joint mixture weight of the blocks where any
    pair's total excitation reaches the cutoff; there the truncated beam
    splitter differs from the ideal one.  The cutoff is ``cutoff``, else
    ``spec.cutoff``, else the smallest one above the default whose thermal
    tail is below ``spec.tail_tol``; a ``cutoff`` that differs from a set
    ``spec.cutoff`` is a ValueError.
    """
    k = circuit.qubit_count
    if spec.cutoff is not None:
        if cutoff not in (None, spec.cutoff):
            raise ValueError(f"cutoff {cutoff} differs from the spec's cutoff {spec.cutoff}")
        cutoff = spec.cutoff
    elif cutoff is None:
        start = DEFAULT_CUTOFF_ONE_QUBIT if k == 1 else DEFAULT_CUTOFF_TWO_QUBIT
        cutoff = required_cutoff(spec.mean_excitation, spec.tail_tol, start)
    q = spec.boltzmann_ratio
    if q ** cutoff >= spec.tail_tol:
        raise DimensionBudgetError(
            f"cutoff {cutoff} leaves thermal tail {q ** cutoff:.2e} >= {spec.tail_tol:.0e}")
    w_odd = even_odd_weights(spec.mean_excitation, cutoff, -1)
    w_even = even_odd_weights(spec.mean_excitation, cutoff, +1)
    pair = _PairBlocks(w_odd, w_even, cutoff)
    (a,), tail = _run_on_pairs(circuit, [pair] * k, [[pair.readout_mask] * k])
    return ComputationResult(a, "mixed", k, cutoff, mean_excitation=spec.mean_excitation,
                             truncation_tail=tail)
