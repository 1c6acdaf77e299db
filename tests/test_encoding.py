import math

import numpy as np
import pytest
from scipy.linalg import expm

import dense_reference as dense
from dense_reference import LogicalQubitRef, SpaceLayout
from tqpsim import encoding, fock, msuqc, thermal


REF = LogicalQubitRef(0)


def test_logical_operators_on_basis_states():
    lay = SpaceLayout(0, (6, 6))
    z_l = dense.logical_Z(lay, REF)
    x_l = dense.logical_X(lay, REF)
    psi0 = dense.basis(lay, (), (1, 0))   # odd (x) even
    psi1 = dense.basis(lay, (), (0, 1))
    assert np.abs(z_l @ psi0 - psi0).max() == 0.0
    assert np.abs(z_l @ psi1 + psi1).max() == 0.0
    assert np.abs(x_l @ psi0 - psi1).max() == 0.0


def test_pauli_anticommutator_on_random_pair_states():
    lay = SpaceLayout(0, (8, 8))
    z_l = dense.logical_Z(lay, REF)
    x_l = dense.logical_X(lay, REF)
    anti = x_l @ z_l + z_l @ x_l
    m, n = 1, 2
    v0 = dense.basis(lay, (), (2 * m + 1, 2 * n))
    v1 = dense.basis(lay, (), (2 * n, 2 * m + 1))
    rng = np.random.default_rng(9)
    for _ in range(20):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = c[0] * v0 + c[1] * v1
        v /= np.linalg.norm(v)
        assert np.linalg.norm(anti @ v) < 1e-12


def test_gate_identity_at_zero_angle():
    lay = SpaceLayout(1, (6, 6))
    for gate in (dense.gate_UZ(lay, REF, 0.0), dense.gate_UX(lay, REF, 0.0)):
        assert np.abs(gate - np.eye(lay.total_dim)).max() < 1e-14


def test_gate_uz_phases_against_direct_exponential():
    lay = SpaceLayout(1, (8, 8))
    theta = math.pi / 2
    gate = dense.gate_UZ(lay, REF, theta)
    mode_map = dense.mode_factor_of_gate(gate)
    sub = SpaceLayout(0, (8, 8))
    oracle = expm(1j * theta * dense.parity(sub, 1))
    assert np.abs(mode_map - oracle).max() < 1e-10
    # |odd>|even> picks up e^{i theta}, the swapped state e^{-i theta}
    i_oe = sub.basis_index((), (1, 0))
    i_eo = sub.basis_index((), (0, 1))
    assert mode_map[i_oe, i_oe] == pytest.approx(1j, abs=1e-12)
    assert mode_map[i_eo, i_eo] == pytest.approx(-1j, abs=1e-12)


def test_gate_ux_matches_swap_exponential_oracle():
    lay = SpaceLayout(1, (6, 6))
    sub = SpaceLayout(0, (6, 6))
    s = dense.two_mode_swap(sub, 0, 1)
    rng = np.random.default_rng(4)
    totals = (np.arange(6)[:, None] + np.arange(6)[None, :]).ravel()
    keep = np.flatnonzero(totals <= 5)
    for theta in rng.uniform(-math.pi, math.pi, 10):
        gate = dense.gate_UX(lay, REF, theta)
        mode_map = dense.mode_factor_of_gate(gate)
        oracle = dense.exponential_hermitian_unitary(s, theta)
        err = np.abs((mode_map - oracle)[np.ix_(keep, keep)]).max()
        assert err < 1e-9
        assert dense.ancilla_leakage(gate) < 1e-10


def test_gate_uzz_matches_pair_parity_oracle():
    lay = SpaceLayout(1, (5, 5, 5, 5))
    gate = dense.gate_UZZ(lay, LogicalQubitRef(0), LogicalQubitRef(1), 0.9)
    sub = SpaceLayout(0, (5, 5, 5, 5))
    o = dense.parity(sub, 1) @ dense.parity(sub, 3)
    oracle = dense.exponential_hermitian_unitary(o, 0.9)
    assert np.abs(dense.mode_factor_of_gate(gate) - oracle).max() < 1e-12
    assert dense.ancilla_leakage(gate) < 1e-12


def test_block_gate_matches_dense_reference_gate():
    # the gate that circuits run, on every total-excitation block of the pair
    # (the truncated blocks t >= d included), against the dense hybrid gate
    # applied to |+> (x) |i, j> for every pair state
    rng = np.random.default_rng(16)
    for d in (5, 8, 12):
        lay = SpaceLayout(1, (d, d))
        pair = msuqc._PairBlocks(np.ones(d), np.ones(d), d)
        blocks = fock.pair_excitation_blocks(d)
        assert pair.bs.shape[0] == len(blocks) == 2 * d - 1
        for theta in rng.uniform(-math.pi, math.pi, 10):
            for axis, dense_gate in (("z", dense.gate_UZ), ("x", dense.gate_UX)):
                out = encoding.pair_block_gate(pair.initial, axis, theta, pair.bs, pair.cp,
                                               pair.columns)
                u = dense_gate(lay, REF, theta).reshape(2, d * d, 2, d * d)
                want = np.einsum("axby,b->axy", u, fock.KET_PLUS)
                got = np.zeros_like(want)
                for t, idx in enumerate(blocks):
                    m = idx.size
                    got[:, idx[:, None], idx] = out[t, :, :m, :m]
                assert np.abs(got - want).max() <= 1e-12


def test_block_gate_refuses_an_unknown_axis():
    pair = msuqc._PairBlocks(np.ones(4), np.ones(4), 4)
    with pytest.raises(ValueError, match="axis"):
        encoding.pair_block_gate(pair.initial, "y", 0.3, pair.bs, pair.cp, pair.columns)


def test_exponential_hermitian_unitary_closed_form():
    lay = SpaceLayout(0, (6,))
    p = dense.parity(lay, 0)
    assert np.abs(dense.exponential_hermitian_unitary(p, math.pi / 2)
                  - 1j * p).max() < 1e-15
    assert np.abs(dense.exponential_hermitian_unitary(p, math.pi)
                  + np.eye(6)).max() < 1e-14
    lay2 = SpaceLayout(0, (6, 6))
    pp = dense.parity(lay2, 0) @ dense.parity(lay2, 1)
    closed = dense.exponential_hermitian_unitary(pp, 0.3)
    pade = expm(0.3j * pp)
    assert np.abs(closed - pade).max() < 1e-12
    a = dense.annihilation(lay, 0)
    with pytest.raises(ValueError):
        dense.exponential_hermitian_unitary(a, 0.5)


def test_total_pair_parity_conserved_by_gates():
    lay = SpaceLayout(1, (6, 6))
    pp = dense.pair_parity(lay, REF)
    rng = np.random.default_rng(8)
    for gate in (dense.gate_UZ(lay, REF, 0.8), dense.gate_UX(lay, REF, -1.1),
                 dense.beam_splitter_5050(lay, 0, 1)):
        comm = gate @ pp - pp @ gate
        assert np.abs(comm).max() < 1e-10


def _parity_readout(state):
    """The production parity measurement of the mode of a (2, d) or
    (2, d, 2, d) state: the controlled parity, then the ancilla's X-basis
    readout.  Returns (probability, mode populations) of the + (even) and -
    (odd) branches, the populations normalised."""
    d = state.shape[1]
    flat = encoding.apply_controlled_parity(state).reshape((2 * d,) * (state.ndim // 2))
    out = []
    for branch in encoding.x_basis_branches(flat):
        pops = np.abs(branch) ** 2 if branch.ndim == 1 else branch.diagonal().real
        out.append((float(pops.sum()), pops / max(pops.sum(), 1e-300)))
    return out


def test_parity_measurement_vacuum_and_superposition():
    d = 6
    vac = np.zeros((2, d), dtype=complex)
    vac[:, 0] = fock.KET_PLUS
    (p_even, pops), (p_odd, _) = _parity_readout(vac)
    assert p_even == pytest.approx(1.0, abs=1e-12)
    assert p_odd < 1e-12
    assert pops[0] == pytest.approx(1.0, abs=1e-12)
    sup = np.zeros((2, d), dtype=complex)
    sup[:, :2] = 0.5  # |+> (x) (|0> + |1>) / sqrt(2)
    (p_even, even), (p_odd, odd) = _parity_readout(sup)
    assert p_even == pytest.approx(0.5, abs=1e-12)
    assert p_odd == pytest.approx(0.5, abs=1e-12)
    assert even[0] == pytest.approx(1.0, abs=1e-12)
    assert odd[1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_x_basis_branches_match_ancilla_projectors(seed):
    # (I +- X)/2 on the ancilla sends rho to |+-><+-| (x) branch, psi to |+-> (x) branch
    rng = np.random.default_rng(seed)
    rest = 12
    m = rng.standard_normal((2 * rest, 2 * rest)) + 1j * rng.standard_normal((2 * rest, 2 * rest))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    psi = m[:, 0] / np.linalg.norm(m[:, 0])
    x = np.array([[0, 1], [1, 0]])
    for proj, ket, branch, vec in zip(((np.eye(2) + x) / 2, (np.eye(2) - x) / 2),
                                      (fock.KET_PLUS, dense.KET_MINUS),
                                      encoding.x_basis_branches(rho),
                                      encoding.x_basis_branches(psi)):
        full = np.kron(proj, np.eye(rest))
        assert np.abs(full @ rho @ full - np.kron(proj, branch)).max() <= 1e-15
        assert np.abs(full @ psi - np.kron(ket, vec)).max() <= 1e-15


def test_parity_measurement_thermal_branch_statistics():
    d = 30
    w = thermal.thermal_weights(1.0, d)
    w /= w.sum()
    plus_dm = np.outer(fock.KET_PLUS, fock.KET_PLUS.conj())
    st = np.kron(plus_dm, np.diag(w.astype(complex))).reshape(2, d, 2, d)
    (p_even, even), (_, odd) = _parity_readout(st)
    assert p_even == pytest.approx(2.0 / 3.0, abs=1e-8)
    assert np.abs(even - thermal.even_odd_weights(1.0, d, +1)).max() < 1e-10
    assert np.abs(odd - thermal.even_odd_weights(1.0, d, -1)).max() < 1e-10


def test_parity_measurement_nondemolition():
    # the + branch of |+> (x) (|2> + |3>) / sqrt(2), its ancilla re-prepared in
    # |+>, is measured again: it lands on + with no weight on -
    d = 8
    st = np.zeros((2, d), dtype=complex)
    st[:, 2:4] = 0.5
    flat = encoding.apply_controlled_parity(st).reshape(-1)
    plus, _ = encoding.x_basis_branches(flat)
    again = np.multiply.outer(fock.KET_PLUS, plus / np.linalg.norm(plus))
    (p_plus, _), (p_minus, _) = _parity_readout(again)
    assert p_plus == pytest.approx(1.0, abs=1e-12)
    assert p_minus <= 1e-12


def test_controlled_parity_refuses_other_shapes():
    for shape in ((12,), (3, 4), (2, 4, 2, 5), (2, 4, 2)):
        with pytest.raises(fock.LayoutError):
            encoding.apply_controlled_parity(np.zeros(shape, dtype=complex))


def test_variant_conjugate_identity_and_beam_splitter():
    lay = SpaceLayout(1, (6, 6))
    c = dense.controlled_parity(lay, 1)
    ident = dense.identity(lay)
    assert np.abs(ident @ c @ ident.conj().T - c).max() == 0.0
    v = dense.beam_splitter_5050(lay, 0, 1)
    cv = v @ c @ v.conj().T
    rx = dense.qubit_rotation(lay, "x", 0.6)
    gate = cv @ rx @ cv
    mode_map = dense.mode_factor_of_gate(gate)
    # conjugated circuit implements e^{i theta V (I (x) P) V^dag}
    sub = SpaceLayout(0, (6, 6))
    vb = dense.beam_splitter_5050(sub, 0, 1)
    conj = vb @ dense.parity(sub, 1) @ vb.conj().T
    oracle = expm(0.6j * conj)
    totals = (np.arange(6)[:, None] + np.arange(6)[None, :]).ravel()
    keep = np.flatnonzero(totals <= 5)
    assert np.abs((mode_map - oracle)[np.ix_(keep, keep)]).max() < 1e-9


def test_variant_conjugation_preserves_pauli_algebra():
    # the logical algebra holds on encoded states; conjugation transports it
    # to the transformed basis V|odd>|even>
    sub = SpaceLayout(0, (8, 8))
    z_l = dense.parity(sub, 1)
    x_l = dense.two_mode_swap(sub, 0, 1)
    rng = np.random.default_rng(21)
    v0 = dense.basis(sub, (), (1, 2))
    v1 = dense.basis(sub, (), (2, 1))
    for _ in range(10):
        # random parity-structured two-mode unitary: beam splitters and
        # phase shifts keep truncation exact on fitting blocks
        v = dense.identity(sub)
        for _ in range(rng.integers(1, 4)):
            v = v @ dense.beam_splitter_5050(sub, 0, 1)
            phase = np.diag(np.kron(np.exp(1j * rng.uniform(0, 2 * np.pi) * np.arange(8)),
                                    np.exp(1j * rng.uniform(0, 2 * np.pi) * np.arange(8))))
            v = v @ phase
        zv = v @ z_l @ v.conj().T
        xv = v @ x_l @ v.conj().T
        anti = zv @ xv + xv @ zv
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi = v @ (c[0] * v0 + c[1] * v1)
        psi /= np.linalg.norm(psi)
        assert np.linalg.norm(anti @ psi) < 1e-9
        assert np.linalg.norm(zv @ zv @ psi - psi) < 1e-9
        # transformed Z still labels the transformed basis states
        assert np.vdot(v @ v0, zv @ (v @ v0)).real == pytest.approx(1.0, abs=1e-9)
        assert np.vdot(v @ v1, zv @ (v @ v1)).real == pytest.approx(-1.0, abs=1e-9)
