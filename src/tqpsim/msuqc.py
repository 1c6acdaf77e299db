"""Multi-qubit logical circuits on pure and mixed initial states.

The central claim being verified: a computation started from the mixed
product of parity-projected thermal states returns exactly the same final
measurement probability as the same circuit on any single pure basis pair,
because every gate acts identically on every basis pair.  Two independent
routes compute that probability:

* ``run_mixed`` and ``run_pure`` share one engine.  The diagonal initial
  state (the thermal mixture, or one basis pair as a one-hot mixture)
  evolves one mode pair's total-excitation block at a time.  A pair's
  blocks are held as a few stacks of blocks of similar size (size classes),
  zero padded within each stack, so the padding stays within 1.3 times the
  blocks' own entries.  A step's rotations are one product per block, of
  cos + i sin of Z_L, the second-mode parity, and of X_L = B^dag P B
  (``fock.beam_splitter_5050``); entanglers make the circuit a sum over Z_L
  paths, contracted as a chain over the pairs (:func:`_run_on_pairs`).
* ``qubit_space_oracle`` is the ground truth in the abstract 2^K logical
  space.

The hybrid interaction realises a rotation as C R_X(theta) C on the shared
ancilla in |+> (between B and B^dag for X; the two-pair entangler is
C_l C_k R_X(gamma) C_k C_l -> exp(i gamma Z_L Z_L)).  The controlled parity
C holds the parity P, which is +-1, on ancilla |1>, so C^2 = I
(``algebra-check``) and the circuit maps |+> (x) psi to
|+> (x) (cos(theta) + i sin(theta) P) psi exactly: the engine carries no
ancilla.  C alone, followed by the ancilla's X-basis readout, is the
nondemolition measurement of one mode's parity, its + branch the even one
(``opensys.fidelity_point``).  The literal circuit, with its
ancilla-return check, is the tests' cross-check (``tests/dense_reference.py``),
pinned against the engine's gate on every block; so is a dense route at tiny
cutoffs, whose hybrid gate unitaries conjugate the whole density matrix.

Circuit convention: steps are applied in list order; within one step the
entangling rotations act first, then the X rotations, then the Z rotations
(the product is written Z-rotations leftmost, so they act last).  The JSON
wire format is ``{"version": 1, "qubits": K, "steps": [{"phi": [...K],
"theta": [...K], "gamma": [...K-1]}, ...]}`` with angles in radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .thermal import ThermalSpec, even_odd_weights, required_cutoff

CIRCUIT_FORMAT_VERSION = 1
SUPPORT_LEAK_TOL = 1e-9
DEFAULT_CUTOFF_ONE_QUBIT = 20
DEFAULT_CUTOFF_TWO_QUBIT = 8
MAX_PAIR_STATES = 1024  # branch states per pair, 2^(steps-1) when K >= 2
PAIR_WEIGHT_TOL = 1e-7  # joint weight a mixed run's cutoff leaves in truncated blocks


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
    truncation_tail: float
    basis_indices: tuple[tuple[int, int], ...] | None = None
    mean_excitation: float | None = None


# ---------------------------------------------------------------------------
# abstract qubit-space reference
# ---------------------------------------------------------------------------

def qubit_space_oracle(circuit: LogicalCircuit) -> float:
    """Ground truth in the abstract 2^K logical space.

    The state is a (2,) * K tensor, qubit q on axis q, and each gate
    exp(i angle P) = cos(angle) I + i sin(angle) P applies its Pauli string P
    by its action: Z_q is a +-1 sign along axis q and X_q flips axis q.
    """
    k = circuit.qubit_count
    if k > 10:
        raise DimensionBudgetError("oracle supports at most 10 logical qubits")
    z = [np.array([1.0, -1.0]).reshape((2,) + (1,) * (k - 1 - q)) for q in range(k)]
    psi = np.zeros((2,) * k, dtype=complex)
    psi[(0,) * k] = 1.0
    for gate in step_gates(circuit):
        if gate[0] == "zz":
            _, ka, kb, ang = gate
            flipped = z[ka] * z[kb] * psi
        elif gate[0] == "x":
            _, ka, ang = gate
            flipped = np.flip(psi, axis=ka)
        else:
            _, ka, ang = gate
            flipped = z[ka] * psi
        psi = math.cos(ang) * psi + 1j * math.sin(ang) * flipped
    return float(abs(psi[(0,) * k]) ** 2)


# ---------------------------------------------------------------------------
# the pair-block engine shared by pure and mixed runs
# ---------------------------------------------------------------------------


def mixed_equivalence_cutoff(mean_excitation: float) -> int:
    """Cutoff for mixed runs: at least 8, thermal tail below 1e-8, and joint
    weight of pair states with total excitation >= d below ``PAIR_WEIGHT_TOL``
    (those are the blocks where the truncated beam splitter deviates from the
    ideal one).
    """
    d = required_cutoff(mean_excitation, 1e-8, 8)
    horizon = 4 * d + 64
    w_odd = even_odd_weights(mean_excitation, horizon, -1)
    w_even = even_odd_weights(mean_excitation, horizon, +1)
    # joint weight per total excitation t, then of every total >= t (0 past the last)
    per_total = np.bincount(np.add.outer(np.arange(horizon), np.arange(horizon)).ravel(),
                            weights=np.outer(w_odd, w_even).ravel())
    broken = np.append(np.cumsum(per_total[::-1])[::-1], 0.0)
    return d + int(np.flatnonzero(broken[d:] < PAIR_WEIGHT_TOL)[0])


def check_thermal_tail(spec: ThermalSpec, cutoff: int) -> None:
    """Refuse a cutoff whose thermal tail q^cutoff is not below
    ``spec.tail_tol`` (``DimensionBudgetError``): the rule of every mixed run."""
    tail = spec.boltzmann_ratio ** cutoff
    if tail >= spec.tail_tol:
        raise DimensionBudgetError(
            f"cutoff {cutoff} leaves mean excitation {spec.mean_excitation} a thermal tail "
            f"{tail:.2e}, not below {spec.tail_tol:.0e}")


class _PairBlocks:
    """One stack of a mode pair's mixture columns, held by total excitation t.

    Every pair gate conserves t = i + j, so a column that starts on the Fock
    state |i, j> of the diagonal initial mixture stays in block t.  A stack's
    state is an array of shape (T, n, c): block, state within the block
    (ordered by i) and mixture column, zero padded to the stack's largest
    block n and largest column count c.  The logical Paulis are held per
    block: Z_L as the second-mode parity diagonal ``parity`` and X_L as
    ``x_logical`` = B^dag P B, read from `fock`'s beam-splitter blocks
    (the truncated blocks t >= d included).

    The stack holds the occupied blocks `totals`; `bs` is
    ``fock.beam_splitter_5050`` at the cutoff.  Circuits hold a pair as the
    size-class stacks of :func:`_pair_stacks`, which pad far less than one
    stack of every block.
    """

    def __init__(self, w_odd: np.ndarray, w_even: np.ndarray, cutoff: int, *,
                 totals: np.ndarray, bs: list[np.ndarray]):
        d = cutoff
        w_pair = np.outer(w_odd, w_even).ravel()
        all_blocks = fock.pair_excitation_blocks(d)
        blocks = [(t, all_blocks[t]) for t in totals]
        nb = len(blocks)
        n = max(idx.size for _, idx in blocks)
        c = max(np.count_nonzero(w_pair[idx]) for _, idx in blocks)
        self.x_logical = np.zeros((nb, n, n), dtype=complex)
        self.first = np.full((nb, n, 1), -1)  # first-mode Fock number, -1 on padding
        self.parity = np.zeros((nb, n, 1))  # second-mode Fock parity
        self.weight = np.zeros((nb, c))
        self.initial = np.zeros((nb, n, c), dtype=complex)
        for b, (t, idx) in enumerate(blocks):
            m = idx.size
            i, j = np.divmod(idx, d)
            self.first[b, :m, 0] = i
            self.parity[b, :m, 0] = (-1.0) ** j
            self.x_logical[b, :m, :m] = bs[t].conj().T @ (self.parity[b, :m] * bs[t])
            occupied = np.flatnonzero(w_pair[idx] > 0.0)
            self.weight[b, :occupied.size] = w_pair[idx[occupied]]
            self.initial[b, occupied, np.arange(occupied.size)] = 1.0
        self.projectors = np.stack([1.0 + self.parity, 1.0 - self.parity]) / 2  # (I +- Z_L)/2
        # weight of the blocks the truncated beam splitter does not treat ideally
        self.broken_weight = float(sum(w_pair[idx].sum() for t, idx in blocks if t >= d))

    def step(self, states: np.ndarray, theta: float, phi: float) -> np.ndarray:
        """exp(i phi Z_L) exp(i theta X_L) states, for states shaped
        (..., T, n, c): one step's X then Z rotation, one product per block."""
        m = 1j * math.sin(theta) * self.x_logical
        m += math.cos(theta) * np.eye(m.shape[1])
        m *= math.cos(phi) + 1j * math.sin(phi) * self.parity
        return m @ states

    def split(self, states: np.ndarray) -> np.ndarray:
        """The Z_L branches of `states` (branch, T, n, c): Pi_+ states, then
        Pi_- states, along the branch axis, Pi_+- = (1 +- Z_L)/2."""
        return (self.projectors[:, None] * states).reshape(-1, *states.shape[1:])

    def gram(self, states: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """G[s, r] = sum over columns of weight * <v_s| M |v_r>, for states v
        (branch, T, n, c) and a diagonal mask M, shaped (T, n, 1); by block."""
        weighted = mask * self.weight[:, None, :]
        flat = (len(states), -1)
        g = np.zeros((len(states), len(states)), dtype=complex)
        for b, w in enumerate(weighted):
            g += states[:, b].reshape(flat).conj() @ (states[:, b] * w).reshape(flat).T
        return g


STACK_PADDING = 1.3  # padded entries of a pair's stacks, at most, per entry its blocks hold


def _pair_stacks(w_odd: np.ndarray, w_even: np.ndarray, cutoff: int) -> list[_PairBlocks]:
    """A mode pair's occupied blocks as size-class stacks of :class:`_PairBlocks`.

    One stack pads every block to the largest block size and column count:
    at d = 48 and <n> = 2 it holds 2.9 times the entries of the blocks.  The
    blocks are sorted by (size, column count) and cut into the fewest runs
    whose padded entries total at most ``STACK_PADDING`` times the blocks'
    own, the cuts placed by dynamic programming to pad least.  The stacks
    share one read of ``fock.beam_splitter_5050``.
    """
    d = cutoff
    w_pair = np.outer(w_odd, w_even).ravel()
    blocks = sorted((idx.size, np.count_nonzero(w_pair[idx]), t)
                    for t, idx in enumerate(fock.pair_excitation_blocks(d))
                    if (w_pair[idx] > 0.0).any())
    n, c, totals = (np.array(x) for x in zip(*blocks))
    nb = len(blocks)
    # padded[a, b]: the entries of one stack of the sorted blocks a .. b-1
    padded = np.full((nb + 1, nb + 1), np.inf)
    for a in range(nb):
        padded[a, a + 1:] = np.arange(1, nb - a + 1) * n[a:] * np.maximum.accumulate(c[a:])
    least, starts = padded[0], []  # least[b]: fewest padded entries of blocks 0 .. b-1
    while least[nb] > STACK_PADDING * (n * c).sum():
        candidates = least[:, None] + padded  # one more stack, starting at block a
        starts.append(candidates.argmin(axis=0))
        least = candidates.min(axis=0)
    cuts = [nb]
    for start in reversed(starts):
        cuts.append(int(start[cuts[-1]]))
    cuts = [0] + cuts[::-1]
    bs = fock.beam_splitter_5050(d)
    return [_PairBlocks(w_odd, w_even, d, totals=totals[a:b], bs=bs)
            for a, b in zip(cuts, cuts[1:])]


def _run_on_pairs(circuit: LogicalCircuit, pairs: list[list[_PairBlocks]],
                  masks: list[list[list[np.ndarray]]]) -> tuple[list[float], float]:
    """Evolve logical qubit p's initial mixture, the stacks ``pairs[p]``,
    through the circuit as a sum over Z_L paths, one pair at a time.

    exp(i gamma Z_a Z_b) = sum over z_a, z_b = +-1 of exp(i gamma z_a z_b)
    Pi_{z_a} (x) Pi_{z_b}, Pi_+- = (1 +- Z_L)/2, and a step's entanglers act
    before its rotations R_s, so pair p's branch states are R_S Pi_{z_S} ...
    R_2 Pi_{z_2} R_1 v_0, the latest outcome the most significant index.
    Step 1 does not branch: every initial column has second-mode parity +1
    (logical |0>), so its entanglers are a global phase, and with K >= 2 a
    pair holds 2^(steps-1) states.  The expectation of a product of per-pair
    diagonal masks (``masks[o][p]``, one per stack) is a chain of the
    pairs' grams G_p (Vidal, PRL 91, 147902 (2003)): U = G_0, then
    U <- (E^dag U E) * G_{p+1} entry by entry, the sum of U, with link p's E
    the Kronecker product over steps 2.. of e^{i gamma z z'}.  Returns every
    observable's expectation and the truncation tail: the joint weight of
    the blocks where any pair's total excitation reaches the cutoff.
    """
    branching = circuit.qubit_count > 1
    if branching and 2 ** (len(circuit.steps) - 1) > MAX_PAIR_STATES:
        raise DimensionBudgetError(f"{len(circuit.steps)} steps exceed the budget of "
                                   f"{MAX_PAIR_STATES} states per pair")
    links = [np.ones((1, 1))] * (circuit.qubit_count - 1)
    for step in circuit.steps[1:]:
        links = [np.kron(np.exp(1j * g * np.array([[1, -1], [-1, 1]])), e)
                 for g, e in zip(step.gamma, links)]
    for p, stacks in enumerate(pairs):
        states = [stack.initial[None] for stack in stacks]
        for s, step in enumerate(circuit.steps):
            if s and branching:
                states = [stack.split(v) for stack, v in zip(stacks, states)]
            states = [stack.step(v, step.theta[p], step.phi[p]) for stack, v in zip(stacks, states)]
        grams = np.array([sum(stack.gram(v, m) for stack, v, m in zip(stacks, states, obs[p]))
                          for obs in masks])
        u = grams if p == 0 else (links[p - 1].conj().T @ u @ links[p - 1]) * grams
    broken = [sum(stack.broken_weight for stack in stacks) for stacks in pairs]
    return [float(v.real) for v in u.sum(axis=(1, 2))], 1.0 - math.prod(1.0 - w for w in broken)


def run_pure(circuit: LogicalCircuit, basis_indices,
             cutoff: int | None = None) -> ComputationResult:
    """Run the circuit on one pure basis-pair product state.

    Logical qubit p starts in |2m+1, 2n> for its basis pair (m, n).  That
    state is a one-hot diagonal mixture, so it runs on the engine of
    :func:`run_mixed` with the stacks of :func:`_pair_stacks` per qubit (one
    block, so one stack).  The result is the expectation of the product of
    (I + Z_L)/2 readout projectors.

    Basis indices that are not integers >= 0, or a cutoff not >= 2, are a
    ValueError.  Every pair's total excitation 2m+1+2n must lie below the cutoff, where
    the truncated beam splitter is ideal (else ``DimensionBudgetError``); the
    default cutoff is raised to fit.  ``StateError`` is raised if more than
    ``SUPPORT_LEAK_TOL`` of the population leaves the product of the encoded
    basis-pair subspaces {|2m+1, 2n>, |2n, 2m+1>}.
    """
    k = circuit.qubit_count
    if len(basis_indices) != k:
        raise ValueError("need one (m, n) basis pair per logical qubit")
    basis_indices = tuple((fock.checked_int("basis index", m, 0),
                           fock.checked_int("basis index", n, 0)) for (m, n) in basis_indices)
    if cutoff is None:
        cutoff = DEFAULT_CUTOFF_ONE_QUBIT if k == 1 else DEFAULT_CUTOFF_TWO_QUBIT
        cutoff = max(cutoff, max(2 * m + 1 + 2 * n + 1 for (m, n) in basis_indices))
    cutoff = fock.checked_int("cutoff", cutoff, 2)
    for (m, n) in basis_indices:
        if 2 * m + 1 + 2 * n >= cutoff:
            raise DimensionBudgetError(
                f"basis pair ({m}, {n}) has total excitation {2 * m + 1 + 2 * n}, "
                f"not below cutoff {cutoff}")
    one_hot = np.eye(cutoff)
    pairs = [_pair_stacks(one_hot[2 * m + 1], one_hot[2 * n], cutoff) for (m, n) in basis_indices]
    readout = [[stack.projectors[0] for stack in stacks] for stacks in pairs]
    support = [[np.isin(stack.first, (2 * m + 1, 2 * n)).astype(float) for stack in stacks]
               for stacks, (m, n) in zip(pairs, basis_indices)]
    (a, pop_in), tail = _run_on_pairs(circuit, pairs, [readout, support])
    leak = 1.0 - pop_in
    if leak > SUPPORT_LEAK_TOL:
        raise fock.StateError(f"population {leak:.3e} left the encoded basis-pair subspace")
    return ComputationResult(a, "pure", k, cutoff, tail, basis_indices=basis_indices)


def run_mixed(circuit: LogicalCircuit, spec: ThermalSpec,
              cutoff: int | None = None) -> ComputationResult:
    """Run the circuit on the product of parity-projected thermal pair states.

    The initial state is diagonal in the Fock basis and every gate conserves
    each pair's total excitation, so each pair's mixture columns are evolved
    inside their own total-excitation block, the truncated blocks with
    t >= cutoff included.  The blocks are held as size-class stacks
    (:func:`_pair_stacks`), which pad at most 1.3 times the blocks' own
    entries, and every pair shares one list of them, built from one call of
    ``fock.beam_splitter_5050`` (cached per cutoff).  The circuit runs as a
    sum over Z_L paths, a pair holding 2^(steps-1) branch states since step
    1 meets logical |0> on every pair, contracted as a chain of the pairs'
    grams (:func:`_run_on_pairs`).  Any number of logical qubits is
    accepted; with K >= 2 the steps are bounded by ``MAX_PAIR_STATES``
    (else ``DimensionBudgetError``).  The evaluation is deterministic.
    Readout is the product of second-mode parity projectors, never an
    individual-Fock-state projector.

    ``truncation_tail`` is the joint mixture weight of the blocks where any
    pair's total excitation reaches the cutoff; there the truncated beam
    splitter differs from the ideal one.  The cutoff is ``cutoff``, else
    ``spec.cutoff``, else the smallest one above the default whose thermal
    tail is below ``spec.tail_tol``; a ``cutoff`` that differs from a set
    ``spec.cutoff``, or one that is not an integer >= 2, is a ValueError,
    and one whose tail is not below it a ``DimensionBudgetError``
    (:func:`check_thermal_tail`).
    """
    k = circuit.qubit_count
    if spec.cutoff is not None:
        if cutoff not in (None, spec.cutoff):
            raise ValueError(f"cutoff {cutoff} differs from the spec's cutoff {spec.cutoff}")
        cutoff = spec.cutoff
    elif cutoff is None:
        start = DEFAULT_CUTOFF_ONE_QUBIT if k == 1 else DEFAULT_CUTOFF_TWO_QUBIT
        cutoff = required_cutoff(spec.mean_excitation, spec.tail_tol, start)
    cutoff = fock.checked_int("cutoff", cutoff, 2)
    check_thermal_tail(spec, cutoff)
    w_odd = even_odd_weights(spec.mean_excitation, cutoff, -1)
    w_even = even_odd_weights(spec.mean_excitation, cutoff, +1)
    stacks = _pair_stacks(w_odd, w_even, cutoff)
    (a,), tail = _run_on_pairs(circuit, [stacks] * k,
                               [[[stack.projectors[0] for stack in stacks]] * k])
    return ComputationResult(a, "mixed", k, cutoff, tail, mean_excitation=spec.mean_excitation)
