import math

import numpy as np
import pytest
from scipy.linalg import expm

import dense_reference as dense
from tqpsim import fock, nsverify
from tqpsim.fock import HybridState, SpaceLayout


def test_layout_validation():
    lay = SpaceLayout(1, (6, 8))
    assert lay.total_dim == 2 * 6 * 8
    assert lay.dims == (2, 6, 8)
    with pytest.raises(fock.LayoutError):
        SpaceLayout(0, (1,))
    with pytest.raises(fock.LayoutError):
        SpaceLayout(-1, (4,))
    with pytest.raises(fock.LayoutError):
        SpaceLayout(2, (4,))  # one shared ancilla at most
    with pytest.raises(fock.LayoutError):
        lay.mode_axis(2)


def test_ancilla_operators_need_an_ancilla():
    modes_only = SpaceLayout(0, (4,))
    for build in (lambda: dense.controlled_parity(modes_only, 0),
                  lambda: dense.qubit_rotation(modes_only, "x", 0.3),
                  lambda: fock.plus_state_with_modes(modes_only, (1,)),
                  lambda: HybridState.basis(modes_only, (), (1,)).reduced_qubit()):
        with pytest.raises(fock.LayoutError):
            build()


def test_annihilation_lowest_dimension():
    lay = SpaceLayout(0, (2,))
    a = dense.annihilation(lay, 0)
    assert np.allclose(a.matrix, [[0, 1], [0, 0]])
    one = HybridState.basis(lay, (), (1,))
    out = one.apply(a)
    assert np.allclose(out.data, [1, 0])


def test_annihilation_vacuum_and_ladder_coefficient():
    for d in (2, 5, 9):
        lay = SpaceLayout(0, (d,))
        vac = HybridState.basis(lay, (), (0,))
        assert np.linalg.norm(vac.apply(dense.annihilation(lay, 0)).data) == 0.0
    lay = SpaceLayout(0, (6,))
    a = dense.annihilation(lay, 0)
    # ladder coefficient oracle: <n-1|a|n> = sqrt(n)
    assert a.matrix[2, 3] == pytest.approx(math.sqrt(3), abs=1e-15)
    with pytest.raises(fock.LayoutError):
        dense.annihilation(lay, 1)


def test_parity_definition_and_exponential_form():
    lay = SpaceLayout(0, (12,))
    p = dense.parity(lay, 0)
    assert p.matrix[0, 0] == 1.0 and p.matrix[1, 1] == -1.0
    assert p.is_hermitian() and p.is_unitary()
    assert np.abs((p @ p).matrix - np.eye(12)).max() == 0.0
    n = dense.number(lay, 0)
    from_exp = dense.matrix_exponential(1j * math.pi * n)
    assert np.abs(from_exp.matrix - p.matrix).max() < 1e-10


def test_parity_thermal_expectation_geometric_sum():
    # oracle: independent geometric series sum_n (-1)^n (1-q) q^n, truncated
    # where the exact tail is below 1e-10
    n_mean = 1.0
    q = n_mean / (n_mean + 1.0)
    d = 40
    assert q ** d < 1e-10
    series = sum((-1.0) ** n * (1 - q) * q ** n for n in range(d))
    lay = SpaceLayout(0, (d,))
    w = (1 - q) * q ** np.arange(d)
    rho = HybridState.density(lay, np.diag(w / w.sum()).astype(complex))
    val = rho.expectation(dense.parity(lay, 0)).real
    assert val == pytest.approx(series, abs=1e-10)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-9)  # 1/(2<n>+1)


def test_displacement_zero_and_inverse_pair():
    lay = SpaceLayout(0, (14,))
    d0 = dense.displacement(lay, 0, 0.0)
    assert np.abs(d0.matrix - np.eye(14)).max() < 1e-14
    d = dense.displacement(lay, 0, 0.4 + 0.2j)
    dinv = dense.displacement(lay, 0, -(0.4 + 0.2j))
    assert np.abs((d @ dinv).matrix - np.eye(14)).max() < 1e-10
    assert d.is_unitary(1e-10)


def test_displacement_coherent_overlap_series_oracle():
    alpha = 0.3
    # series oracle for exp(-|alpha|^2 / 2)
    x = -abs(alpha) ** 2 / 2.0
    series, term = 0.0, 1.0
    for k in range(1, 40):
        series += term
        term *= x / k
    lay = SpaceLayout(0, (20,))
    d = dense.displacement(lay, 0, alpha)
    assert abs(d.matrix[0, 0] - series) < 1e-8


def test_beam_splitter_vacuum_golden_sign_and_number_conservation():
    lay = SpaceLayout(0, (8, 8))
    b = dense.beam_splitter_5050(lay, 0, 1)
    vac = HybridState.basis(lay, (), (0, 0))
    assert np.abs(vac.apply(b).data - vac.data).max() < 1e-14
    # golden test freezing the sign convention of the printed generator
    out = HybridState.basis(lay, (), (1, 0)).apply(b)
    i10 = lay.basis_index((), (1, 0))
    i01 = lay.basis_index((), (0, 1))
    assert out.data[i10] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert out.data[i01] == pytest.approx(-1 / math.sqrt(2), abs=1e-12)
    n_tot = dense.number(lay, 0) + dense.number(lay, 1)
    assert np.abs((b @ n_tot - n_tot @ b).matrix).max() < 1e-12
    with pytest.raises(fock.LayoutError):
        dense.beam_splitter_5050(lay, 0, 0)


@pytest.mark.parametrize("cutoff", [7, 16])
def test_beam_splitter_matches_generator_exponential(cutoff):
    # block-wise construction equals the dense matrix exponential
    lay = SpaceLayout(0, (cutoff, cutoff))
    a0 = dense.annihilation(lay, 0).matrix
    a1 = dense.annihilation(lay, 1).matrix
    gen = (math.pi / 4) * (a1 @ a0.conj().T - a1.conj().T @ a0)
    assert np.abs(dense.beam_splitter_5050(lay, 0, 1).matrix - expm(gen)).max() < 1e-12


def test_unitary_exponential_matches_scipy_expm():
    # every eigh exponential the package takes, against scipy's Pade expm
    # (complex input: scipy's real-input expm is 4e-13 off on the truncated blocks)
    d = 48
    a = fock.annihilation(d)
    gen = (math.pi / 4) * (np.kron(a.T, a) - np.kron(a, a.T))  # a_b a_a^dag - a_b^dag a_a
    for idx in fock.pair_excitation_blocks(d):
        block = gen[np.ix_(idx, idx)]
        assert np.abs(fock._beam_splitter_block(d, idx) - expm(block)).max() <= 1e-13
    for d in (48, 200):
        a = fock.annihilation(d)
        disp = fock.displacement(d, 1.3)
        assert np.abs(disp - expm(1.3 * (a.conj().T - a))).max() <= 1e-13
    d = 24
    a = fock.annihilation(d)
    single = expm(0.3 * (a @ a - a.conj().T @ a.conj().T))
    squeeze = nsverify.collective_noise("squeeze", 0.3, SpaceLayout(0, (d, d))).matrix
    assert np.abs(squeeze - np.kron(single, single)).max() <= 1e-13
    # a stack is exponentiated element by element
    gens = np.stack([1.3 * (a.conj().T - a), 0.3 * (a @ a - a.conj().T @ a.conj().T)])
    stacked = fock.unitary_exponential(gens)
    assert all(np.abs(u - expm(g)).max() <= 1e-13 for u, g in zip(stacked, gens))


def test_identity_embed_returns_the_operator():
    lay = SpaceLayout(0, (5, 5))
    op = dense.beam_splitter_5050(lay, 0, 1)
    assert dense.tensor_embed(op, lay, (0, 1)) is op
    swapped = dense.tensor_embed(op, lay, (1, 0))
    s = dense.two_mode_swap(lay, 0, 1).matrix
    assert np.abs(swapped.matrix - s @ op.matrix @ s).max() < 1e-15


def test_pair_excitation_blocks_partition_the_pair_space():
    d = 5
    blocks = fock.pair_excitation_blocks(d)
    assert len(blocks) == 2 * d - 1
    assert sorted(np.concatenate(blocks).tolist()) == list(range(d * d))
    for t, idx in enumerate(blocks):
        i, j = np.divmod(idx, d)
        assert np.all(i + j == t) and np.all(np.diff(i) > 0)
        assert idx.size == min(t, 2 * d - 2 - t) + 1


def test_pair_forms_keep_to_the_excitation_blocks():
    d = 6
    blocks = fock.pair_excitation_blocks(d)
    assert [b.shape for b in fock.beam_splitter_5050(d)] == [(i.size, i.size) for i in blocks]
    swap = fock.two_mode_swap(d)
    assert np.array_equal(swap[swap], np.arange(d * d))  # an involution
    total = fock.pair_number(d)
    assert np.array_equal(total[swap], total)
    for t, idx in enumerate(blocks):
        assert np.all(total[idx] == t)


def test_beam_splitter_blocks_are_built_once_per_cutoff_and_read_only():
    d = 9
    first, second = fock.beam_splitter_5050(d), fock.beam_splitter_5050(d)
    assert first is not second and len(first) == 2 * d - 1
    assert all(a is b for a, b in zip(first, second))
    assert all(a is b for a, b in zip(first, fock.beam_splitter_5050(np.int64(d))))
    for block, idx in zip(first, fock.pair_excitation_blocks(d)):
        assert np.array_equal(block, fock._beam_splitter_block(d, idx))
        with pytest.raises(ValueError):
            block[0, 0] = 2.0
    first.clear()  # each call's list is the caller's own
    assert len(fock.beam_splitter_5050(d)) == 2 * d - 1


@pytest.mark.parametrize("cutoff", [0, -1, True, False, 2.0, "3", None])
def test_beam_splitter_refuses_a_cutoff_that_is_no_positive_integer(cutoff):
    before = fock._beam_splitter_blocks.cache_info()
    with pytest.raises(ValueError, match="cutoff must be an integer >= 1"):
        fock.beam_splitter_5050(cutoff)
    assert fock._beam_splitter_blocks.cache_info() == before  # never looked up


def test_two_mode_swap_action_and_conjugation():
    lay = SpaceLayout(0, (7, 7))
    s = dense.two_mode_swap(lay, 0, 1)
    out = HybridState.basis(lay, (), (2, 5)).apply(s)
    assert abs(out.data[lay.basis_index((), (5, 2))] - 1.0) == 0.0
    assert np.abs((s @ s).matrix - np.eye(49)).max() == 0.0
    a0 = dense.annihilation(lay, 0)
    a1 = dense.annihilation(lay, 1)
    assert np.abs((s @ a0 @ s.adjoint()).matrix - a1.matrix).max() < 1e-12


def test_swap_commutes_with_collective_phase():
    lay = SpaceLayout(0, (10, 10))
    s = dense.two_mode_swap(lay, 0, 1)
    phi = 0.7
    e = np.diag(np.kron(np.exp(1j * phi * np.arange(10)),
                        np.exp(1j * phi * np.arange(10))))
    comm = e @ s.matrix - s.matrix @ e
    assert np.abs(comm).max() < 1e-10


def test_controlled_parity_blocks_and_projection_identity():
    lay = SpaceLayout(1, (16,))
    c = dense.controlled_parity(lay, 0)
    for n in (0, 3, 7):
        st = HybridState.basis(lay, (0,), (n,))
        assert np.abs(st.apply(c).data - st.data).max() == 0.0
    st = HybridState.basis(lay, (1,), (3,))
    assert np.abs(st.apply(c).data + st.data).max() == 0.0
    assert np.abs((c @ c).matrix - np.eye(32)).max() == 0.0
    # |+>|Psi> -> |+>(I+P)|Psi>/2 + |->(I-P)|Psi>/2 for random Psi
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    psi /= np.linalg.norm(psi)
    full = np.kron(fock.KET_PLUS, psi)
    out = c.matrix @ full
    pvec = (-1.0) ** np.arange(16)
    even = (psi + pvec * psi) / 2
    odd = (psi - pvec * psi) / 2
    expect = np.kron(fock.KET_PLUS, even) + np.kron(fock.KET_MINUS, odd)
    assert np.abs(out - expect).max() < 1e-12


def test_compose_adjoint_exponential_algebra():
    lay = SpaceLayout(0, (6,))
    zero = fock.TruncatedOperator(lay, np.zeros((6, 6)))
    assert np.abs(dense.matrix_exponential(zero).matrix - np.eye(6)).max() == 0.0
    rng = np.random.default_rng(0)
    a = fock.TruncatedOperator(lay, rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    b = fock.TruncatedOperator(lay, rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    lhs = (a @ b).adjoint().matrix
    rhs = (b.adjoint() @ a.adjoint()).matrix
    assert np.abs(lhs - rhs).max() < 1e-12
    with pytest.raises(fock.LayoutError):
        a @ dense.identity(SpaceLayout(0, (7,)))


def test_constructed_unitaries_meet_tolerance():
    lay = SpaceLayout(1, (12, 12))
    ops = [
        dense.parity(lay, 0),
        dense.two_mode_swap(lay, 0, 1),
        dense.controlled_parity(lay, 1),
        dense.beam_splitter_5050(lay, 0, 1),
        dense.displacement(lay, 0, 0.5),
        dense.qubit_rotation(lay, "x", 0.8),
    ]
    for op in ops:
        assert op.is_unitary(1e-10)


def test_operator_immutability_and_flag_cache():
    lay = SpaceLayout(0, (4,))
    p = dense.parity(lay, 0)
    with pytest.raises(AttributeError):
        p.matrix = np.eye(4)
    with pytest.raises(ValueError):
        p.matrix[0, 0] = 5.0
    assert p.is_hermitian(1e-12) and p.is_hermitian(1e-12)  # repeated calls agree


def test_tensor_embed_nonadjacent_axes():
    big = SpaceLayout(1, (3, 4, 3))
    sub = SpaceLayout(0, (3, 3))
    s = dense.two_mode_swap(sub, 0, 1)
    emb = dense.tensor_embed(s, big, mode_map=(2, 0))
    st = HybridState.basis(big, (1,), (1, 2, 0))
    out = st.apply(emb)
    assert abs(out.data[big.basis_index((1,), (0, 2, 1))] - 1.0) < 1e-14
    with pytest.raises(fock.LayoutError):
        dense.tensor_embed(s, big, mode_map=(0, 1))  # dimension mismatch


def test_apply_local_matches_embedded_operator():
    rng = np.random.default_rng(11)
    big = SpaceLayout(1, (4, 5))
    sub = SpaceLayout(0, (5,))
    d = dense.displacement(sub, 0, 0.2)
    emb = dense.tensor_embed(d, big, mode_map=(1,))
    psi = rng.standard_normal(big.total_dim) + 1j * rng.standard_normal(big.total_dim)
    direct = emb.matrix @ psi
    local = fock.apply_local(psi, big.dims, d.matrix, (2,))
    assert np.abs(direct - local).max() < 1e-13
    batch = rng.standard_normal((big.total_dim, 3)) + 1j * rng.standard_normal((big.total_dim, 3))
    assert np.abs(emb.matrix @ batch - fock.apply_local(batch, big.dims, d.matrix, (2,))).max() < 1e-13


def test_state_invariants_and_tail_accounting():
    lay = SpaceLayout(0, (10,))
    st = HybridState.basis(lay, (), (9,))
    assert st.truncation_tail == pytest.approx(1.0)
    st0 = HybridState.basis(lay, (), (0,))
    assert st0.truncation_tail == 0.0
    st0.validate()
    # a large displacement pushes weight into the cutoff; the state is not
    # silently renormalized and the tail is recorded
    pushed = st0.apply(dense.displacement(lay, 0, 2.2))
    assert pushed.truncation_tail > 1e-4
    bad = HybridState.density(lay, np.diag(np.linspace(1, 2, 10)).astype(complex))
    with pytest.raises(fock.StateError):
        bad.validate()


def test_reduced_qubit_and_mode_populations():
    lay = SpaceLayout(1, (5,))
    st = fock.plus_state_with_modes(lay, (2,))
    red = st.reduced_qubit()
    assert np.abs(red - np.array([[0.5, 0.5], [0.5, 0.5]])).max() < 1e-14
    pops = st.mode_populations(0)
    assert pops[2] == pytest.approx(1.0)
    dm = st.to_density()
    assert np.abs(dm.reduced_qubit() - red).max() < 1e-14
