import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as dense
from dense_reference import SpaceLayout
from tqpsim import fock, msuqc, thermal
from tqpsim.msuqc import CircuitStep, LogicalCircuit
from tqpsim.thermal import ThermalSpec


def dense_mixed_probability(circuit, pair_weights, cutoff):
    """Cross-check of run_mixed and run_pure: the full state of the ancilla
    and all modes, carried through the full gate unitaries.  Pair k starts
    in the diagonal state ``pair_weights[k]`` over |i, j> (flat index
    i * cutoff + j).  The density matrix is held as its mixture columns
    sqrt(w) |+> (x) |basis state>, one per nonzero weight w of the product
    state, so rho = cols cols^dag and each gate is one product with the
    columns.  Tiny cutoffs only."""
    k = circuit.qubit_count
    layout = SpaceLayout(1, (cutoff,) * (2 * k))
    assert layout.total_dim <= 3000
    w = np.ones(1)
    for pw in pair_weights:
        w = np.kron(w, pw)
    keep = np.flatnonzero(w)
    cols = np.zeros((2, w.size, keep.size), dtype=complex)
    cols[:, keep, np.arange(keep.size)] = np.multiply.outer(fock.KET_PLUS, np.sqrt(w[keep]))
    cols = cols.reshape(layout.total_dim, keep.size)
    refs = [dense.LogicalQubitRef(i) for i in range(k)]
    for gate in msuqc.step_gates(circuit):
        if gate[0] == "z":
            u = dense.gate_UZ(layout, refs[gate[1]], gate[2])
        elif gate[0] == "x":
            u = dense.gate_UX(layout, refs[gate[1]], gate[2])
        else:
            u = dense.gate_UZZ(layout, refs[gate[1]], refs[gate[2]], gate[3])
        cols = u @ cols
    # the readout projectors are diagonal: Tr(readout rho) = diag(readout) . diag(rho)
    readout = np.ones(layout.total_dim)
    for ref in refs:
        readout = readout * (1.0 + np.diagonal(dense.logical_Z(layout, ref)).real) / 2
    return float(readout @ (np.abs(cols) ** 2).sum(axis=1))


def thermal_pairs(spec, k, cutoff):
    """Per-pair weights of the parity-projected thermal pair state."""
    n = spec.mean_excitation
    w = np.kron(thermal.even_odd_weights(n, cutoff, -1), thermal.even_odd_weights(n, cutoff, +1))
    return [w] * k


def basis_pairs(basis_indices, cutoff):
    """Per-pair weights of the pure basis-pair state |2m+1, 2n>."""
    out = []
    for (m, n) in basis_indices:
        w = np.zeros(cutoff * cutoff)
        w[(2 * m + 1) * cutoff + 2 * n] = 1.0
        out.append(w)
    return out


def single_qubit(phi=0.0, theta=0.0):
    return LogicalCircuit(1, (CircuitStep((phi,), (theta,), ()),))


def test_empty_circuit_is_identity():
    circ = LogicalCircuit(1, ())
    assert msuqc.qubit_space_oracle(circ) == 1.0
    assert msuqc.run_pure(circ, [(0, 0)]).probability == pytest.approx(1.0, abs=1e-12)


def test_pure_x_rotation_bloch_oracle():
    # <0_L| e^{i theta X} |0_L> = cos(theta)
    for theta in (math.pi / 2, math.pi / 4, 0.3):
        circ = single_qubit(theta=theta)
        want = math.cos(theta) ** 2
        assert msuqc.qubit_space_oracle(circ) == pytest.approx(want, abs=1e-12)
        assert msuqc.run_pure(circ, [(0, 0)]).probability == pytest.approx(want, abs=1e-10)


def test_z_rotations_leave_a_at_one():
    for phi in (0.3, 1.2, -2.0):
        circ = single_qubit(phi=phi)
        assert msuqc.run_pure(circ, [(1, 2)]).probability == pytest.approx(1.0, abs=1e-10)


def test_oracle_two_qubit_entangler_value():
    # single gamma step on |00>: A = |cos(gamma)|^2 since ZZ|00> = |00>
    circ = LogicalCircuit(2, (CircuitStep((0, 0), (0, 0), (0.7,)),))
    assert msuqc.qubit_space_oracle(circ) == pytest.approx(1.0, abs=1e-12)
    circ2 = LogicalCircuit(2, (CircuitStep((0, 0), (math.pi / 4, 0), (math.pi / 4,)),))
    a = msuqc.qubit_space_oracle(circ2)
    r2 = msuqc.run_pure(circ2, [(0, 0), (0, 0)]).probability
    assert r2 == pytest.approx(a, abs=1e-10)


def test_pure_agrees_with_oracle_random_circuits():
    rng = np.random.default_rng(100)
    for _ in range(6):
        k = int(rng.integers(1, 3))
        circ = msuqc.random_circuit(rng, k, int(rng.integers(1, 4)))
        a = msuqc.qubit_space_oracle(circ)
        bases = [tuple((int(rng.integers(0, 2)), int(rng.integers(0, 2))) for _ in range(k))
                 for _ in range(3)]
        for b in bases:
            r = msuqc.run_pure(circ, b)
            assert abs(r.probability - a) < 1e-8


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pure_matches_oracle_on_random_angles_and_basis_pairs(k):
    rng = np.random.default_rng(200 + k)
    for _ in range(5):
        circ = msuqc.random_circuit(rng, k, int(rng.integers(1, 4)))
        pairs = [tuple(int(x) for x in rng.integers(0, 4, 2)) for _ in range(k)]
        assert abs(msuqc.run_pure(circ, pairs).probability
                   - msuqc.qubit_space_oracle(circ)) <= 1e-10


def test_basis_relabeling_invariance():
    rng = np.random.default_rng(5)
    circ = msuqc.random_circuit(rng, 1, 2)
    values = [msuqc.run_pure(circ, [b]).probability for b in ((0, 0), (1, 2), (2, 1))]
    assert max(values) - min(values) < 1e-10


def test_mixed_zero_temperature_reduces_to_pure():
    rng = np.random.default_rng(50)
    circ = msuqc.random_circuit(rng, 1, 2)
    a_pure = msuqc.run_pure(circ, [(0, 0)]).probability
    a_mixed = msuqc.run_mixed(circ, ThermalSpec(0.0), cutoff=12).probability
    assert abs(a_mixed - a_pure) < 1e-10


def test_mixed_single_qubit_equivalence():
    rng = np.random.default_rng(51)
    circ = msuqc.random_circuit(rng, 1, 2)
    a_oracle = msuqc.qubit_space_oracle(circ)
    d = msuqc.mixed_equivalence_cutoff(1.0)
    res = msuqc.run_mixed(circ, ThermalSpec(1.0), cutoff=d)
    assert abs(res.probability - a_oracle) < 1e-8


def test_mixed_two_qubit_entangler_against_oracle():
    circ = LogicalCircuit(2, (CircuitStep((0.4, -0.2), (0.5, 1.1), (math.pi / 4,)),))
    a_oracle = msuqc.qubit_space_oracle(circ)
    d = msuqc.mixed_equivalence_cutoff(0.5)
    res = msuqc.run_mixed(circ, ThermalSpec(0.5), cutoff=d)
    assert abs(res.probability - a_oracle) < 1e-8


def test_mixed_methods_cross_validate():
    # the block engine against the dense density-matrix route
    rng = np.random.default_rng(52)
    spec = ThermalSpec(0.4, cutoff=10, tail_tol=1e-3)
    circ = msuqc.random_circuit(rng, 1, 2)
    a_blocks = msuqc.run_mixed(circ, spec, cutoff=10).probability
    assert abs(a_blocks - dense_mixed_probability(circ, thermal_pairs(spec, 1, 10), 10)) < 1e-10
    spec2 = ThermalSpec(0.15, cutoff=5, tail_tol=1e-2)
    circ2 = LogicalCircuit(2, (CircuitStep((0.3, 0.7), (0.2, -0.4), (0.6,)),))
    a_blocks2 = msuqc.run_mixed(circ2, spec2, cutoff=5).probability
    assert abs(a_blocks2 - dense_mixed_probability(circ2, thermal_pairs(spec2, 2, 5), 5)) < 1e-10


def test_pure_matches_dense_route():
    # one qubit, and two qubits with a different basis pair on each
    rng = np.random.default_rng(53)
    circ = msuqc.random_circuit(rng, 1, 2)
    a_pure = msuqc.run_pure(circ, [(1, 2)], cutoff=8).probability
    assert abs(a_pure - dense_mixed_probability(circ, basis_pairs([(1, 2)], 8), 8)) < 1e-10
    circ2 = msuqc.random_circuit(rng, 2, 1)
    a_pure2 = msuqc.run_pure(circ2, [(1, 0), (0, 1)], cutoff=4).probability
    dense2 = dense_mixed_probability(circ2, basis_pairs([(1, 0), (0, 1)], 4), 4)
    assert abs(a_pure2 - dense2) < 1e-10


_angles = st.floats(-math.pi, math.pi, allow_nan=False)


@settings(max_examples=12, deadline=None)
@given(k=st.sampled_from([1, 2]), cutoff=st.integers(3, 4),
       n_mean=st.floats(0.0, 0.6), data=st.data())
def test_mixed_engine_matches_dense_route_on_random_angles(k, cutoff, n_mean, data):
    steps = tuple(CircuitStep(tuple(data.draw(_angles) for _ in range(k)),
                              tuple(data.draw(_angles) for _ in range(k)),
                              tuple(data.draw(_angles) for _ in range(k - 1)))
                  for _ in range(data.draw(st.integers(1, 2))))
    circ = LogicalCircuit(k, steps)
    spec = ThermalSpec(n_mean, tail_tol=1.0)
    a_blocks = msuqc.run_mixed(circ, spec, cutoff=cutoff).probability
    dense = dense_mixed_probability(circ, thermal_pairs(spec, k, cutoff), cutoff)
    assert abs(a_blocks - dense) < 1e-10


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("n_mean", [0.3, 0.5])
def test_mixed_three_and_four_qubits_against_oracle(k, n_mean):
    circ = msuqc.random_circuit(np.random.default_rng(60 + k), k, 2)
    d = msuqc.mixed_equivalence_cutoff(n_mean)
    res = msuqc.run_mixed(circ, ThermalSpec(n_mean), cutoff=d)
    a_oracle = msuqc.qubit_space_oracle(circ)
    assert abs(res.probability - a_oracle) < 1e-8
    pure = msuqc.run_pure(circ, [(p % 2, (p + 1) % 3) for p in range(k)])
    assert abs(pure.probability - a_oracle) < 1e-8


def test_mixed_truncation_tail_is_broken_block_weight():
    n_mean, pair_weight_tol = 0.5, 1e-7
    d = msuqc.mixed_equivalence_cutoff(n_mean, pair_weight_tol=pair_weight_tol)
    circ = msuqc.random_circuit(np.random.default_rng(61), 2, 1)
    res = msuqc.run_mixed(circ, ThermalSpec(n_mean), cutoff=d)
    w = np.outer(thermal.even_odd_weights(n_mean, d, -1), thermal.even_odd_weights(n_mean, d, +1))
    broken = np.add.outer(np.arange(d), np.arange(d)) >= d
    brute = sum(w[i1, j1] * w[i2, j2]
                for i1, j1, i2, j2 in np.ndindex(d, d, d, d)
                if broken[i1, j1] or broken[i2, j2])
    assert res.truncation_tail == pytest.approx(brute, rel=1e-9)
    assert 0.0 < res.truncation_tail < 2 * pair_weight_tol


def test_gram_block_by_block_equals_one_stacked_product():
    # a pair's gram is summed over its size-class stacks, each block by block
    d, n_mean = 16, 1.0
    stacks = msuqc._pair_stacks(thermal.even_odd_weights(n_mean, d, -1),
                                thermal.even_odd_weights(n_mean, d, +1), d)
    assert len(stacks) > 1
    rng = np.random.default_rng(3)
    states = [[stack.initial, stack.parity * stack.initial] for stack in stacks]
    for _ in range(3):
        for stack, vs in zip(stacks, states):
            v = (rng.standard_normal(stack.initial.shape)
                 + 1j * rng.standard_normal(stack.initial.shape)) * stack.columns[:, None, None, :]
            vs.append(v / np.linalg.norm(v))
    n_states = len(states[0])
    flat = np.concatenate([np.stack(vs).reshape(n_states, -1) for vs in states], axis=1)
    weighted = np.concatenate([
        np.broadcast_to(stack.readout_mask * stack.weight[:, None, None, :],
                        stack.initial.shape).ravel() for stack in stacks])
    one_product = flat.conj() @ (flat * weighted).T
    summed = sum(stack.gram(vs, stack.readout_mask) for stack, vs in zip(stacks, states))
    assert np.abs(summed - one_product).max() <= 1e-15


def test_size_class_stacks_hold_the_blocks_with_little_padding():
    # d = 48, <n> = 2: one stack pads to 2.9 times the entries of the blocks
    d, n_mean = 48, 2.0
    w_odd = thermal.even_odd_weights(n_mean, d, -1)
    w_even = thermal.even_odd_weights(n_mean, d, +1)
    single = msuqc._PairBlocks(w_odd, w_even, d)
    stacks = msuqc._pair_stacks(w_odd, w_even, d)
    real = 2 * int(np.sum((single.first[:, 0, :, 0] >= 0).sum(axis=1)
                          * single.columns.sum(axis=1)))
    assert real == 36896 and single.initial.size == 108288
    assert sum(stack.initial.size for stack in stacks) <= 1.5 * real
    # the stacks hold every block of the single stack once, with its columns
    def blocks(pair):  # each block's first-mode Fock numbers and column weights
        return sorted((tuple(i[i >= 0]), tuple(w[w > 0]))
                      for i, w in zip(pair.first[:, 0, :, 0], pair.weight))
    assert sorted(b for stack in stacks for b in blocks(stack)) == blocks(single)
    assert sum(stack.broken_weight for stack in stacks) == pytest.approx(single.broken_weight,
                                                                        rel=1e-12)


def test_pair_blocks_allocate_no_pair_space_operator():
    # a dense d^2 x d^2 beam splitter at d = 48 would hold d^4 * 16 B = 85 MB
    import tracemalloc

    d, n_mean = 48, 2.0
    w_odd = thermal.even_odd_weights(n_mean, d, -1)
    w_even = thermal.even_odd_weights(n_mean, d, +1)
    tracemalloc.start()
    try:
        msuqc._PairBlocks(w_odd, w_even, d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < d ** 4 * 16 / 10


def test_mixed_ancilla_return_check_raises(monkeypatch):
    # a controlled "parity" with a phase i on the |1> block is no involution,
    # so CP Rx CP leaves the ancilla off |+>
    real = fock.controlled_parity_diag

    def broken(*args):
        diag = real(*args).astype(complex)
        diag[diag.size // 2:] *= 1j
        return diag
    monkeypatch.setattr(fock, "controlled_parity_diag", broken)
    with pytest.raises(fock.StateError, match="ancilla failed to return"):
        msuqc.run_mixed(single_qubit(phi=0.7), ThermalSpec(0.3), cutoff=14)


def test_pure_support_check_raises(monkeypatch):
    # the half-angle beam splitter, exp(G / 2) on every total-excitation block,
    # still conserves number but is not 50:50, so an X rotation leaves the
    # basis-pair subspace; it replaces the function msuqc calls, so the
    # per-cutoff cache of the real blocks is neither bypassed nor filled
    def half_block(d, idx):
        i, j = np.divmod(idx[:-1], d)
        sub = (math.pi / 8) * (np.sqrt(i + 1.0) * np.sqrt(j))
        return fock.unitary_exponential(np.diag(sub, k=-1) - np.diag(sub, k=1))

    def half(d):
        return [half_block(d, idx) for idx in fock.pair_excitation_blocks(d)]
    real = fock.beam_splitter_5050(6)[5]
    assert np.abs(half(6)[5] @ half(6)[5] - real).max() < 1e-14  # a square root
    monkeypatch.setattr(fock, "beam_splitter_5050", half)
    with pytest.raises(fock.StateError, match="left the encoded basis-pair subspace"):
        msuqc.run_pure(single_qubit(theta=0.3), [(1, 0)])


def test_equivalence_cutoff_grows_with_temperature():
    d_half = msuqc.mixed_equivalence_cutoff(0.5)
    d_two = msuqc.mixed_equivalence_cutoff(2.0)
    assert d_half < d_two
    q = 2.0 / 3.0
    assert q ** d_two < 1e-8


def test_equivalence_cutoffs_on_a_grid():
    grid = np.linspace(0.0, 2.0, 21)
    assert [msuqc.mixed_equivalence_cutoff(float(n)) for n in grid] == [
        8, 8, 11, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36, 38, 40, 42, 44, 46, 48]


@pytest.mark.parametrize("k", range(1, 11))
def test_oracle_matches_dense_kronecker_products(k):
    circ = msuqc.random_circuit(np.random.default_rng(100 + k), k, 2)
    assert abs(msuqc.qubit_space_oracle(circ) - dense.qubit_space_oracle(circ)) <= 1e-14


def test_circuit_validation_and_budget():
    with pytest.raises(msuqc.CircuitFormatError):
        LogicalCircuit(1, (CircuitStep((0.1, 0.2), (0.3,), ()),))
    with pytest.raises(msuqc.CircuitFormatError):
        LogicalCircuit(1, (CircuitStep((math.nan,), (0.0,), ()),))
    with pytest.raises(msuqc.DimensionBudgetError):
        msuqc.run_pure(LogicalCircuit(1, ()), [(5, 5)], cutoff=8)
    # pair (1, 1) has total excitation 5: it must lie below the cutoff
    for cutoff in (4, 5):
        with pytest.raises(msuqc.DimensionBudgetError):
            msuqc.run_pure(single_qubit(theta=0.3), [(1, 1)], cutoff=cutoff)
    with pytest.raises(msuqc.DimensionBudgetError):
        msuqc.run_mixed(msuqc.random_circuit(np.random.default_rng(0), 2, 1),
                        ThermalSpec(1.0), cutoff=8)
    many_entanglers = msuqc.random_circuit(np.random.default_rng(0), 6, 3)  # 15 entanglers
    with pytest.raises(msuqc.DimensionBudgetError):
        msuqc.run_mixed(many_entanglers, ThermalSpec(0.0), cutoff=8)


def test_wire_format_round_trip_and_rejection(tmp_path):
    rng = np.random.default_rng(1)
    circ = msuqc.random_circuit(rng, 2, 2)
    path = tmp_path / "circuit.json"
    circ.dump(path)
    loaded = LogicalCircuit.load(path)
    assert loaded == circ
    doc = circ.to_json_dict()
    assert doc["version"] == msuqc.CIRCUIT_FORMAT_VERSION
    doc["extra"] = 1
    with pytest.raises(msuqc.CircuitFormatError):
        LogicalCircuit.from_json_dict(doc)
    doc2 = circ.to_json_dict()
    doc2["version"] = 99
    with pytest.raises(msuqc.CircuitFormatError):
        LogicalCircuit.from_json_dict(doc2)
    # version field optional on read (assumed current)
    doc3 = circ.to_json_dict()
    del doc3["version"]
    assert LogicalCircuit.from_json_dict(doc3) == circ


@pytest.mark.parametrize("change", [
    {"steps": 5},
    {"steps": [{"phi": 5, "theta": [0.2], "gamma": []}]},
    {"qubits": "x"},
    {"steps": [{"phi": ["a"], "theta": [0.2], "gamma": []}]},
    {"qubits": 1.7},
    {"qubits": True},
    {"version": True},
])
def test_malformed_circuit_documents_are_format_errors(change):
    doc = {"version": 1, "qubits": 1, "steps": [{"phi": [0.1], "theta": [0.2], "gamma": []}]}
    LogicalCircuit.from_json_dict(doc)
    doc.update(change)
    with pytest.raises(msuqc.CircuitFormatError):
        LogicalCircuit.from_json_dict(doc)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 4), n_steps=st.integers(0, 3), data=st.data())
def test_wire_format_round_trip_random_circuits(k, n_steps, data):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    steps = tuple(CircuitStep(*(tuple(data.draw(finite) for _ in range(n)) for n in (k, k, k - 1)))
                  for _ in range(n_steps))
    circ = LogicalCircuit(k, steps)
    assert LogicalCircuit.from_json_dict(circ.to_json_dict()) == circ
    assert LogicalCircuit.from_json_dict(json.loads(json.dumps(circ.to_json_dict()))) == circ


def test_run_mixed_takes_the_spec_cutoff():
    circ = single_qubit(phi=0.3, theta=0.8)
    spec = ThermalSpec(0.5, cutoff=12, tail_tol=1e-5)
    res = msuqc.run_mixed(circ, spec)
    assert res.cutoff == 12
    assert res.probability == msuqc.run_mixed(circ, ThermalSpec(0.5, tail_tol=1e-5),
                                              cutoff=12).probability
    assert msuqc.run_mixed(circ, spec, cutoff=12).cutoff == 12
    with pytest.raises(ValueError, match="differs"):
        msuqc.run_mixed(circ, spec, cutoff=14)


def test_result_metadata():
    circ = single_qubit(theta=0.4)
    res = msuqc.run_pure(circ, [(0, 1)])
    assert res.mode == "pure"
    assert res.basis_indices == ((0, 1),)
    assert 0.0 <= res.probability <= 1.0 + 1e-9
    resm = msuqc.run_mixed(circ, ThermalSpec(0.3))
    assert resm.mode == "mixed"
    assert resm.mean_excitation == 0.3
