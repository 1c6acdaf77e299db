import cmath
import math

import numpy as np
import pytest
from scipy.linalg import expm

import dense_reference as dense
from dense_reference import SpaceLayout
from tqpsim import fock, nsverify, opensys, pulses


def _is_unitary(u, tol=1e-10):
    return np.abs(u.conj().T @ u - np.eye(len(u))).max() <= tol


def test_ancilla_operators_need_an_ancilla():
    modes_only = SpaceLayout(0, (4,))
    for build in (lambda: dense.controlled_parity(modes_only, 0),
                  lambda: dense.qubit_rotation(modes_only, "x", 0.3)):
        with pytest.raises(fock.LayoutError):
            build()


def test_annihilation_lowest_dimension():
    lay = SpaceLayout(0, (2,))
    a = dense.annihilation(lay, 0)
    assert np.allclose(a, [[0, 1], [0, 0]])
    assert np.allclose(a @ dense.basis(lay, (), (1,)), [1, 0])


def test_annihilation_vacuum_and_ladder_coefficient():
    for d in (2, 5, 9):
        lay = SpaceLayout(0, (d,))
        vac = dense.basis(lay, (), (0,))
        assert np.linalg.norm(dense.annihilation(lay, 0) @ vac) == 0.0
    lay = SpaceLayout(0, (6,))
    a = dense.annihilation(lay, 0)
    # ladder coefficient oracle: <n-1|a|n> = sqrt(n)
    assert a[2, 3] == pytest.approx(math.sqrt(3), abs=1e-15)
    with pytest.raises(fock.LayoutError):
        dense.annihilation(lay, 1)


def test_parity_definition_and_exponential_form():
    lay = SpaceLayout(0, (12,))
    p = dense.parity(lay, 0)
    assert p[0, 0] == 1.0 and p[1, 1] == -1.0
    assert np.abs(p - p.conj().T).max() <= 1e-12 and _is_unitary(p)
    assert np.abs(p @ p - np.eye(12)).max() == 0.0
    n = dense.number(lay, 0)
    from_exp = dense.matrix_exponential(1j * math.pi * n)
    assert np.abs(from_exp - p).max() < 1e-10


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
    rho = np.diag(w / w.sum()).astype(complex)
    val = np.trace(dense.parity(lay, 0) @ rho).real
    assert val == pytest.approx(series, abs=1e-10)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-9)  # 1/(2<n>+1)


def test_displacement_zero_and_inverse_pair():
    lay = SpaceLayout(0, (14,))
    d0 = dense.displacement(lay, 0, 0.0)
    assert np.abs(d0 - np.eye(14)).max() < 1e-14
    d = dense.displacement(lay, 0, 0.4 + 0.2j)
    dinv = dense.displacement(lay, 0, -(0.4 + 0.2j))
    assert np.abs(d @ dinv - np.eye(14)).max() < 1e-10
    assert _is_unitary(d, 1e-10)


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
    assert abs(d[0, 0] - series) < 1e-8


def test_beam_splitter_vacuum_golden_sign_and_number_conservation():
    lay = SpaceLayout(0, (8, 8))
    b = dense.beam_splitter_5050(lay, 0, 1)
    vac = dense.basis(lay, (), (0, 0))
    assert np.abs(b @ vac - vac).max() < 1e-14
    # golden test freezing the sign convention of the printed generator
    out = b @ dense.basis(lay, (), (1, 0))
    i10 = lay.basis_index((), (1, 0))
    i01 = lay.basis_index((), (0, 1))
    assert out[i10] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert out[i01] == pytest.approx(-1 / math.sqrt(2), abs=1e-12)
    n_tot = dense.number(lay, 0) + dense.number(lay, 1)
    assert np.abs(b @ n_tot - n_tot @ b).max() < 1e-12
    with pytest.raises(fock.LayoutError):
        dense.beam_splitter_5050(lay, 0, 0)


@pytest.mark.parametrize("cutoff", [7, 16])
def test_beam_splitter_matches_generator_exponential(cutoff):
    # block-wise construction equals the dense matrix exponential
    lay = SpaceLayout(0, (cutoff, cutoff))
    a0 = dense.annihilation(lay, 0)
    a1 = dense.annihilation(lay, 1)
    gen = (math.pi / 4) * (a1 @ a0.conj().T - a1.conj().T @ a0)
    assert np.abs(dense.beam_splitter_5050(lay, 0, 1) - expm(gen)).max() < 1e-12


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
    squeeze = nsverify.collective_noise("squeeze", 0.3, d)
    assert np.abs(np.kron(squeeze, squeeze) - np.kron(single, single)).max() <= 1e-13
    # a stack is exponentiated element by element
    gens = np.stack([1.3 * (a.conj().T - a), 0.3 * (a @ a - a.conj().T @ a.conj().T)])
    stacked = fock.unitary_exponential(gens)
    assert all(np.abs(u - expm(g)).max() <= 1e-13 for u, g in zip(stacked, gens))


@pytest.mark.parametrize("d", [4, 12, 24])
def test_pade_exponential_matches_scipy_expm_on_every_master_equation_block(d, monkeypatch):
    # one H2 sequence takes two stacked exponentials per run: the Pade of the
    # waiting channel's d blocks at its two durations (the free evolution's and
    # the wait's), and the eigh of the free evolution's two displacements
    seen = []
    for name in ("pade_exponential", "unitary_exponential"):
        def recorded(gen, exponential=getattr(fock, name)):
            seen.append((np.array(gen), exponential(gen)))
            return seen[-1][1]
        monkeypatch.setattr(fock, name, recorded)
    eta = pulses.eta_for_repetitions(50)
    sched = pulses.build_h2_sequence(pulses.HybridHamiltonianParams(eta=eta), 1)
    for q in (100.0, 300.0, 1e4, 1e6):
        opensys.evolve_master(opensys._thermal_with_ancilla(0.5, d), sched,
                              opensys.NoiseParams(Q=q, N_th=0.5, eta=eta))
    assert [gen.shape for gen, _ in seen] == [(2, d, d, d), (1, 2, d, d)] * 4
    for gens, exps in seen:
        for gen, exp in zip(gens.reshape(-1, d, d), exps.reshape(-1, d, d)):
            assert np.abs(exp - expm(gen)).max() <= 1e-12


def test_pade_exponential_edge_cases():
    for n in (1, 5):
        zero = np.zeros((n, n))
        assert np.array_equal(fock.pade_exponential(zero), np.eye(n))
    for z in (0.3 + 2j, -7.0 + 1j, 12.5 - 3j, -40.0, 30j):  # exp's relative condition is |z|
        assert abs(fock.pade_exponential([[z]])[0, 0] - cmath.exp(z)) \
            <= 2e-15 * max(1.0, abs(z)) * abs(cmath.exp(z))
    # a 1-norm of exactly PADE_THETA_13, the largest taken unscaled, and one ulp above it
    theta = fock.PADE_THETA_13
    for top in (theta, np.nextafter(theta, math.inf)):
        gen = np.array([[top, 1.0 - 2.0j], [0.0, -2.0]])
        assert np.abs(gen).sum(axis=0).max() == top
        exp = expm(gen.astype(complex))
        assert np.abs(fock.pade_exponential(gen) - exp).max() <= 1e-14 * np.abs(exp).max()
    for bad in (np.ones((2, 3)), np.ones(4), np.ones((2, 2, 3)), np.ones(()),
                np.array([[1.0, np.nan], [0.0, 1.0]]), np.array([[np.inf]]),
                np.stack([np.eye(2), np.full((2, 2), np.inf)])):
        with pytest.raises(ValueError):
            fock.pade_exponential(bad)
    # a stack on the last two axes: each matrix as alone, with its own scaling
    rng = np.random.default_rng(7)
    stack = (rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))) \
        * np.array([0.0, 0.1, 1.0, 4.0, 30.0, 300.0])[:, None, None].reshape(2, 3, 1, 1)
    exps = fock.pade_exponential(stack)
    assert exps.shape == stack.shape
    for gen, exp in zip(stack.reshape(-1, 4, 4), exps.reshape(-1, 4, 4)):
        alone = fock.pade_exponential(gen)
        assert np.abs(exp - alone).max() <= 1e-15 * np.abs(alone).max()


def test_identity_embed_returns_the_operator():
    lay = SpaceLayout(0, (5, 5))
    op = dense.beam_splitter_5050(lay, 0, 1)
    assert dense.tensor_embed(op, lay, (0, 1)) is op
    swapped = dense.tensor_embed(op, lay, (1, 0))
    s = dense.two_mode_swap(lay, 0, 1)
    assert np.abs(swapped - s @ op @ s).max() < 1e-15


def test_pair_excitation_blocks_partition_the_pair_space():
    d = 5
    blocks = fock.pair_excitation_blocks(d)
    assert len(blocks) == 2 * d - 1
    assert sorted(np.concatenate(blocks).tolist()) == list(range(d * d))
    for t, idx in enumerate(blocks):
        i, j = np.divmod(idx, d)
        assert np.all(i + j == t) and np.all(np.diff(i) > 0)
        assert idx.size == min(t, 2 * d - 2 - t) + 1


@pytest.mark.parametrize("d", [1, 2, 5])
def test_parity_sectors_partition_the_hybrid_space(d):
    idx = fock.parity_sectors(d)
    assert idx.shape == (2, d)
    assert sorted(idx.ravel().tolist()) == list(range(2 * d))
    assert np.array_equal(idx % d, np.tile(np.arange(d), (2, 1)))  # each row ordered by n
    hybrid_parity = np.kron([1, -1], fock.parity_diag(d))  # Z (x) exp(i pi a^dag a)
    assert np.array_equal(hybrid_parity[idx], np.array([[1] * d, [-1] * d]))


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
    out = s @ dense.basis(lay, (), (2, 5))
    assert abs(out[lay.basis_index((), (5, 2))] - 1.0) == 0.0
    assert np.abs(s @ s - np.eye(49)).max() == 0.0
    a0 = dense.annihilation(lay, 0)
    a1 = dense.annihilation(lay, 1)
    assert np.abs(s @ a0 @ s.conj().T - a1).max() < 1e-12


def test_swap_commutes_with_collective_phase():
    lay = SpaceLayout(0, (10, 10))
    s = dense.two_mode_swap(lay, 0, 1)
    phi = 0.7
    e = np.diag(np.kron(np.exp(1j * phi * np.arange(10)),
                        np.exp(1j * phi * np.arange(10))))
    comm = e @ s - s @ e
    assert np.abs(comm).max() < 1e-10


def test_controlled_parity_blocks_and_projection_identity():
    lay = SpaceLayout(1, (16,))
    c = dense.controlled_parity(lay, 0)
    for n in (0, 3, 7):
        st = dense.basis(lay, (0,), (n,))
        assert np.abs(c @ st - st).max() == 0.0
    st = dense.basis(lay, (1,), (3,))
    assert np.abs(c @ st + st).max() == 0.0
    assert np.abs(c @ c - np.eye(32)).max() == 0.0
    # |+>|Psi> -> |+>(I+P)|Psi>/2 + |->(I-P)|Psi>/2 for random Psi
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    psi /= np.linalg.norm(psi)
    full = np.kron(fock.KET_PLUS, psi)
    out = c @ full
    pvec = (-1.0) ** np.arange(16)
    even = (psi + pvec * psi) / 2
    odd = (psi - pvec * psi) / 2
    expect = np.kron(fock.KET_PLUS, even) + np.kron(dense.KET_MINUS, odd)
    assert np.abs(out - expect).max() < 1e-12


def test_compose_adjoint_exponential_algebra():
    assert np.abs(dense.matrix_exponential(np.zeros((6, 6))) - np.eye(6)).max() == 0.0
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    # exp(A)^dag = exp(A^dag), and exp(A) exp(-A) = I
    ea = dense.matrix_exponential(a)
    assert np.abs(ea.conj().T - dense.matrix_exponential(a.conj().T)).max() < 1e-12
    assert np.abs(ea @ dense.matrix_exponential(-a) - np.eye(6)).max() < 1e-10
    # (AB)^dag = B^dag A^dag
    assert np.abs((a @ b).conj().T - b.conj().T @ a.conj().T).max() < 1e-12


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
        assert _is_unitary(op, 1e-10)


def test_tensor_embed_nonadjacent_axes():
    big = SpaceLayout(1, (3, 4, 3))
    sub = SpaceLayout(0, (3, 3))
    s = dense.two_mode_swap(sub, 0, 1)
    emb = dense.tensor_embed(s, big, mode_map=(2, 0))
    out = emb @ dense.basis(big, (1,), (1, 2, 0))
    assert abs(out[big.basis_index((1,), (0, 2, 1))] - 1.0) < 1e-14
    with pytest.raises(fock.LayoutError):
        dense.tensor_embed(s, big, mode_map=(0, 1))  # dimension mismatch


def test_apply_local_matches_embedded_operator():
    rng = np.random.default_rng(11)
    big = SpaceLayout(1, (4, 5))
    sub = SpaceLayout(0, (5,))
    d = dense.displacement(sub, 0, 0.2)
    emb = dense.tensor_embed(d, big, mode_map=(1,))
    psi = rng.standard_normal(big.total_dim) + 1j * rng.standard_normal(big.total_dim)
    direct = emb @ psi
    local = fock.apply_local(psi, big.dims, d, (2,))
    assert np.abs(direct - local).max() < 1e-13
    batch = rng.standard_normal((big.total_dim, 3)) + 1j * rng.standard_normal((big.total_dim, 3))
    assert np.abs(emb @ batch - fock.apply_local(batch, big.dims, d, (2,))).max() < 1e-13


def test_state_invariants_and_tail_accounting():
    # a large displacement pushes weight into the cutoff; the state is not
    # silently renormalized, and the weight on the top level is the tail
    d = 10
    vac = np.zeros(d)
    vac[0] = 1.0
    pushed = fock.displacement(d, 2.2) @ vac
    assert np.linalg.norm(pushed) == pytest.approx(1.0, abs=1e-12)
    assert abs(pushed[-1]) ** 2 > 1e-4
    assert abs((fock.displacement(d, 0.0) @ vac)[-1]) == 0.0
