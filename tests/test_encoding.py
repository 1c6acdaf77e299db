import math

import numpy as np
import pytest
from scipy.linalg import expm

from tqpsim import encoding, fock, thermal
from tqpsim.encoding import LogicalQubitRef
from tqpsim.fock import HybridState, SpaceLayout


REF = LogicalQubitRef(0)


def test_logical_operators_on_basis_states():
    lay = SpaceLayout(0, (6, 6))
    z_l = encoding.logical_Z(lay, REF)
    x_l = encoding.logical_X(lay, REF)
    psi0 = HybridState.basis(lay, (), (1, 0))   # odd (x) even
    psi1 = HybridState.basis(lay, (), (0, 1))
    assert np.abs(psi0.apply(z_l).data - psi0.data).max() == 0.0
    assert np.abs(psi1.apply(z_l).data + psi1.data).max() == 0.0
    assert np.abs(psi0.apply(x_l).data - psi1.data).max() == 0.0


def test_pauli_anticommutator_on_random_pair_states():
    lay = SpaceLayout(0, (8, 8))
    z_l = encoding.logical_Z(lay, REF)
    x_l = encoding.logical_X(lay, REF)
    anti = (x_l @ z_l + z_l @ x_l).matrix
    m, n = 1, 2
    v0 = HybridState.basis(lay, (), (2 * m + 1, 2 * n)).data
    v1 = HybridState.basis(lay, (), (2 * n, 2 * m + 1)).data
    rng = np.random.default_rng(9)
    for _ in range(20):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = c[0] * v0 + c[1] * v1
        v /= np.linalg.norm(v)
        assert np.linalg.norm(anti @ v) < 1e-12


def test_gate_identity_at_zero_angle():
    lay = SpaceLayout(1, (6, 6))
    for gate in (encoding.gate_UZ(lay, REF, 0.0), encoding.gate_UX(lay, REF, 0.0)):
        assert np.abs(gate.matrix - np.eye(lay.total_dim)).max() < 1e-14


def test_gate_uz_phases_against_direct_exponential():
    lay = SpaceLayout(1, (8, 8))
    theta = math.pi / 2
    gate = encoding.gate_UZ(lay, REF, theta)
    mode_map = encoding.mode_factor_of_gate(gate)
    sub = SpaceLayout(0, (8, 8))
    oracle = expm(1j * theta * fock.parity(sub, 1).matrix)
    assert np.abs(mode_map - oracle).max() < 1e-10
    # |odd>|even> picks up e^{i theta}, the swapped state e^{-i theta}
    i_oe = sub.basis_index((), (1, 0))
    i_eo = sub.basis_index((), (0, 1))
    assert mode_map[i_oe, i_oe] == pytest.approx(1j, abs=1e-12)
    assert mode_map[i_eo, i_eo] == pytest.approx(-1j, abs=1e-12)


def test_gate_ux_matches_swap_exponential_oracle():
    lay = SpaceLayout(1, (6, 6))
    sub = SpaceLayout(0, (6, 6))
    s = fock.two_mode_swap(sub, 0, 1)
    rng = np.random.default_rng(4)
    totals = (np.arange(6)[:, None] + np.arange(6)[None, :]).ravel()
    keep = np.flatnonzero(totals <= 5)
    for theta in rng.uniform(-math.pi, math.pi, 10):
        gate = encoding.gate_UX(lay, REF, theta)
        mode_map = encoding.mode_factor_of_gate(gate)
        oracle = encoding.exponential_hermitian_unitary(s, theta).matrix
        err = np.abs((mode_map - oracle)[np.ix_(keep, keep)]).max()
        assert err < 1e-9
        assert encoding.ancilla_leakage(gate) < 1e-10


def test_gate_uzz_matches_pair_parity_oracle():
    lay = SpaceLayout(1, (5, 5, 5, 5))
    gate = encoding.gate_UZZ(lay, LogicalQubitRef(0), LogicalQubitRef(1), 0.9)
    sub = SpaceLayout(0, (5, 5, 5, 5))
    o = fock.parity(sub, 1) @ fock.parity(sub, 3)
    oracle = encoding.exponential_hermitian_unitary(o, 0.9)
    assert np.abs(encoding.mode_factor_of_gate(gate) - oracle.matrix).max() < 1e-12
    assert encoding.ancilla_leakage(gate) < 1e-12


def test_exponential_hermitian_unitary_closed_form():
    lay = SpaceLayout(0, (6,))
    p = fock.parity(lay, 0)
    assert np.abs(encoding.exponential_hermitian_unitary(p, math.pi / 2).matrix
                  - 1j * p.matrix).max() < 1e-15
    assert np.abs(encoding.exponential_hermitian_unitary(p, math.pi).matrix
                  + np.eye(6)).max() < 1e-14
    lay2 = SpaceLayout(0, (6, 6))
    pp = fock.parity(lay2, 0) @ fock.parity(lay2, 1)
    closed = encoding.exponential_hermitian_unitary(pp, 0.3).matrix
    pade = expm(0.3j * pp.matrix)
    assert np.abs(closed - pade).max() < 1e-12
    a = fock.annihilation(lay, 0)
    with pytest.raises(ValueError):
        encoding.exponential_hermitian_unitary(a, 0.5)


def test_total_pair_parity_conserved_by_gates():
    lay = SpaceLayout(1, (6, 6))
    pp = encoding.pair_parity(lay, REF)
    rng = np.random.default_rng(8)
    for gate in (encoding.gate_UZ(lay, REF, 0.8), encoding.gate_UX(lay, REF, -1.1),
                 fock.beam_splitter_5050(lay, 0, 1)):
        comm = gate.matrix @ pp.matrix - pp.matrix @ gate.matrix
        assert np.abs(comm).max() < 1e-10


def test_parity_measurement_vacuum_and_superposition():
    lay = SpaceLayout(1, (6,))
    vac = fock.plus_state_with_modes(lay, (0,))
    even, odd = encoding.parity_measurement_branches(vac, 0)
    assert even.probability == pytest.approx(1.0, abs=1e-12)
    assert odd.state is None
    sup = HybridState.pure(lay, (HybridState.basis(lay, (0,), (0,)).data
                                 + HybridState.basis(lay, (0,), (1,)).data
                                 + HybridState.basis(lay, (1,), (0,)).data
                                 + HybridState.basis(lay, (1,), (1,)).data) / 2.0)
    even, odd = encoding.parity_measurement_branches(sup, 0)
    assert even.probability == pytest.approx(0.5, abs=1e-12)
    assert odd.probability == pytest.approx(0.5, abs=1e-12)
    assert even.state.mode_populations(0)[0] == pytest.approx(1.0, abs=1e-12)
    assert odd.state.mode_populations(0)[1] == pytest.approx(1.0, abs=1e-12)


def test_parity_measurement_thermal_branch_statistics():
    d = 30
    w = thermal.thermal_weights(1.0, d)
    w /= w.sum()
    lay = SpaceLayout(1, (d,))
    plus_dm = np.outer(fock.KET_PLUS, fock.KET_PLUS.conj())
    st = HybridState.density(lay, np.kron(plus_dm, np.diag(w.astype(complex))))
    even, odd = encoding.parity_measurement_branches(st, 0)
    assert even.probability == pytest.approx(2.0 / 3.0, abs=1e-8)
    assert np.abs(even.state.mode_populations(0)
                  - thermal.even_odd_weights(1.0, d, +1)).max() < 1e-10
    assert np.abs(odd.state.mode_populations(0)
                  - thermal.even_odd_weights(1.0, d, -1)).max() < 1e-10


def test_parity_measurement_nondemolition_and_sampling():
    lay = SpaceLayout(1, (8,))
    st = HybridState.pure(lay, (HybridState.basis(lay, (0,), (2,)).data
                                + HybridState.basis(lay, (0,), (3,)).data
                                + HybridState.basis(lay, (1,), (2,)).data
                                + HybridState.basis(lay, (1,), (3,)).data) / 2.0)
    rng = np.random.default_rng(17)
    first = encoding.parity_measurement(st, 0, rng)
    again = encoding.parity_measurement(first.state, 0, rng)
    assert again.sign == first.sign
    assert again.probability == pytest.approx(1.0, abs=1e-10)
    # identical seeds reproduce the outcome
    r1 = encoding.parity_measurement(st, 0, np.random.default_rng(123))
    r2 = encoding.parity_measurement(st, 0, np.random.default_rng(123))
    assert r1.sign == r2.sign


def test_parity_measurement_requires_plus_ancilla():
    lay = SpaceLayout(1, (6,))
    bad = HybridState.basis(lay, (1,), (0,))
    with pytest.raises(encoding.AncillaError):
        encoding.parity_measurement_branches(bad, 0)


def test_variant_conjugate_identity_and_beam_splitter():
    lay = SpaceLayout(1, (6, 6))
    c = fock.controlled_parity(lay, 1)
    assert np.abs(encoding.variant_conjugate(fock.identity(lay), c).matrix
                  - c.matrix).max() == 0.0
    v = fock.beam_splitter_5050(lay, 0, 1)
    cv = encoding.variant_conjugate(v, c)
    rx = fock.qubit_rotation(lay, "x", 0.6)
    gate = cv @ rx @ cv
    mode_map = encoding.mode_factor_of_gate(gate)
    # conjugated circuit implements e^{i theta V (I (x) P) V^dag}
    sub = SpaceLayout(0, (6, 6))
    vb = fock.beam_splitter_5050(sub, 0, 1)
    conj = encoding.variant_conjugate(vb, fock.parity(sub, 1))
    oracle = expm(0.6j * conj.matrix)
    totals = (np.arange(6)[:, None] + np.arange(6)[None, :]).ravel()
    keep = np.flatnonzero(totals <= 5)
    assert np.abs((mode_map - oracle)[np.ix_(keep, keep)]).max() < 1e-9


def test_variant_conjugation_preserves_pauli_algebra():
    # the logical algebra holds on encoded states; conjugation transports it
    # to the transformed basis V|odd>|even>
    sub = SpaceLayout(0, (8, 8))
    z_l = fock.parity(sub, 1)
    x_l = fock.two_mode_swap(sub, 0, 1)
    rng = np.random.default_rng(21)
    v0 = HybridState.basis(sub, (), (1, 2)).data
    v1 = HybridState.basis(sub, (), (2, 1)).data
    for _ in range(10):
        # random parity-structured two-mode unitary: beam splitters and
        # phase shifts keep truncation exact on fitting blocks
        v = fock.identity(sub)
        for _ in range(rng.integers(1, 4)):
            v = v @ fock.beam_splitter_5050(sub, 0, 1)
            phase = np.diag(np.kron(np.exp(1j * rng.uniform(0, 2 * np.pi) * np.arange(8)),
                                    np.exp(1j * rng.uniform(0, 2 * np.pi) * np.arange(8))))
            v = v @ fock.TruncatedOperator(sub, phase)
        zv = encoding.variant_conjugate(v, z_l)
        xv = encoding.variant_conjugate(v, x_l)
        anti = (zv @ xv + xv @ zv).matrix
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi = v.matrix @ (c[0] * v0 + c[1] * v1)
        psi /= np.linalg.norm(psi)
        assert np.linalg.norm(anti @ psi) < 1e-9
        assert np.linalg.norm((zv @ zv).matrix @ psi - psi) < 1e-9
        # transformed Z still labels the transformed basis states
        assert np.vdot(v.matrix @ v0, zv.matrix @ (v.matrix @ v0)).real == pytest.approx(1.0, abs=1e-9)
        assert np.vdot(v.matrix @ v1, zv.matrix @ (v.matrix @ v1)).real == pytest.approx(-1.0, abs=1e-9)
