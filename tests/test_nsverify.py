import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import dense_reference as dense
from dense_reference import SpaceLayout
from tqpsim import fock, nsverify


D = 24
LAY = SpaceLayout(0, (D, D))


def test_zero_parameter_channels_are_identity():
    for kind in ("phase", "squeeze"):
        e = dense.collective_channel(nsverify.collective_noise(kind, 0.0, D))
        assert np.abs(e - np.eye(LAY.total_dim)).max() < 1e-14


def test_phase_channel_at_pi_is_double_parity():
    e = dense.collective_channel(nsverify.collective_noise("phase", math.pi, D))
    pp = dense.parity(LAY, 0) @ dense.parity(LAY, 1)
    assert np.abs(e - pp).max() < 1e-12


def test_encoded_logicals_are_the_dense_logicals():
    logicals = nsverify.encoded_logicals(D)
    assert np.array_equal(np.kron(np.eye(D), logicals["second_mode_parity"]),
                          dense.parity(LAY, 1))
    assert np.array_equal(np.eye(D * D)[logicals["swap"]], dense.two_mode_swap(LAY, 0, 1))


def test_commutation_check_needs_one_cutoff():
    # a non-square factor
    p = np.diag(fock.parity_diag(6))
    with pytest.raises(fock.LayoutError):
        nsverify.commutation_check(np.zeros((6, 8)), p)
    # nor may the factor and the logical belong to pairs of different cutoffs
    e = nsverify.collective_noise("phase", 0.7, 6)
    for logical in nsverify.encoded_logicals(7).values():
        with pytest.raises(fock.LayoutError):
            nsverify.commutation_check(e, logical)
    for shape in ((36,), (36, 35), (6, 6, 6)):
        with pytest.raises(fock.LayoutError):
            nsverify.commutation_check(np.zeros(shape), p)
    with pytest.raises(fock.LayoutError):
        nsverify.commutation_check(e, np.zeros((36, 36)))


@pytest.mark.parametrize("kind,par", [("phase", 0.7), ("squeeze", 0.2)])
def test_commutation_check_matches_full_product(kind, par):
    # the entries read off the factors against the kept rows and columns of the
    # d^2 x d^2 matrices, and both against the full product restricted afterwards,
    # on the states of total excitation <= d // 3: |0, 0> alone at d = 2
    for d in (2, 7, D):
        lay = SpaceLayout(0, (d, d))
        single = nsverify.collective_noise(kind, par, d)
        e = dense.collective_channel(single)
        a = fock.annihilation(d)
        a1 = dense.annihilation(lay, 1)
        keep = np.concatenate(fock.pair_excitation_blocks(d)[:d // 3 + 1])
        for op, full_op in ((np.diag(fock.parity_diag(d)), dense.parity(lay, 1)),
                            (fock.two_mode_swap(d), dense.two_mode_swap(lay, 0, 1)),
                            (a + a.conj().T, a1 + a1.conj().T)):
            full = e @ full_op - full_op @ e
            ref = np.abs(full[np.ix_(keep, keep)]).max()
            factored = nsverify.commutation_check(single, op)
            assert abs(factored - dense.commutation_check(e, full_op)) <= 1e-15
            assert abs(factored - ref) <= 1e-15


def test_channels_invert_and_squeeze_bound():
    e = dense.collective_channel(nsverify.collective_noise("phase", 0.7, D))
    einv = dense.collective_channel(nsverify.collective_noise("phase", -0.7, D))
    assert np.abs(e @ einv - np.eye(LAY.total_dim)).max() < 1e-12
    with pytest.raises(ValueError):
        nsverify.collective_noise("squeeze", 0.5, D)
    with pytest.raises(ValueError):
        nsverify.collective_noise("amplitude", 0.1, D)


@pytest.mark.parametrize("kind,values", [
    ("phase", (0.3, 0.7, math.pi / 2, math.pi)),
    ("squeeze", (0.05, 0.1, 0.2)),
])
def test_all_listed_commutators_vanish(kind, values):
    z_like = np.diag(fock.parity_diag(D))
    x_like = fock.two_mode_swap(D)
    for par in values:
        e = nsverify.collective_noise(kind, par, D)
        assert nsverify.commutation_check(e, z_like) <= 1e-8
        assert nsverify.commutation_check(e, x_like) <= 1e-8


def test_negative_control_commutator_is_large():
    e = nsverify.collective_noise("phase", 0.7, D)
    a = fock.annihilation(D)
    quad = a + a.conj().T
    assert nsverify.commutation_check(e, quad) > 0.1


def test_dfs_sector_zero_image_structure():
    # the squeeze generator sends |0,0> to -sqrt(2)(|2,0> + |0,2>)
    lay = SpaceLayout(0, (5, 5))
    img = nsverify._squeeze_generator_columns(5, np.array([lay.basis_index((), (0, 0))]),
                                              np.arange(25))[:, 0]
    i20 = lay.basis_index((), (2, 0))
    i02 = lay.basis_index((), (0, 2))
    assert img[i20] == pytest.approx(-math.sqrt(2), abs=1e-14)
    assert img[i02] == pytest.approx(-math.sqrt(2), abs=1e-14)
    assert np.abs(img).max() > 0


@pytest.mark.parametrize("d", range(3, 21))
def test_squeeze_generator_columns_match_the_dense_generator(d):
    full = dense.squeeze_generator_pair(d)
    every = np.arange(d * d)
    blocks = fock.pair_excitation_blocks(d)
    for m, idx in enumerate(blocks):
        assert np.abs(nsverify._squeeze_generator_columns(d, idx, every)
                      - full[:, idx]).max() <= 1e-15
        # the rows the scan keeps: sector m itself and the sectors m +- 2
        rows = np.concatenate([idx] + [blocks[t] for t in (m - 2, m + 2) if 0 <= t < len(blocks)])
        assert np.abs(nsverify._squeeze_generator_columns(d, idx, rows)
                      - full[np.ix_(rows, idx)]).max() <= 1e-15
        assert not np.delete(full[:, idx], rows, axis=0).any()
    cols = nsverify._squeeze_generator_columns(d, every[::-1], every[::-1])
    assert np.abs(cols - full[::-1, ::-1]).max() <= 1e-15


def test_dfs_nonexistence_report():
    rep = nsverify.dfs_nonexistence(8)
    assert rep.all_null_dims_zero
    assert len(rep.sectors) == 9
    for s in rep.sectors:
        assert s.null_dim == 0
        assert s.smallest_singular_value >= 1e-3
        assert s.eigvec_candidates_found == 0
        assert s.subspace_dim == s.total_excitation + 1
    assert rep.negative_control > 0.1
    assert all(v <= 1e-8 for v in rep.commutators.values())


def test_dfs_report_serializes():
    rep = nsverify.dfs_nonexistence(3)
    doc = rep.to_json_dict()
    assert doc["all_null_dims_zero"] is True
    assert len(doc["sectors"]) == 4
    assert json.loads(json.dumps(doc)) == doc
    with pytest.raises(ValueError):
        nsverify.dfs_nonexistence(8, cutoff=9)


def test_dfs_nonexistence_builds_no_pair_matrix():
    # the dense channels, logicals and negative control at d = 43 held 30 MB each
    # and peaked at 283 MB; one d^2 x d^2 complex matrix is d^4 * 16 B
    d = 40 + 3
    tracemalloc.start()
    try:
        rep = nsverify.dfs_nonexistence(40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.cutoff == d and rep.all_null_dims_zero
    assert peak < d ** 4 * 16 / 10


def test_noise_acts_trivially_on_encoded_subsystem():
    # collective phase noise before or after a logical-Z rotation leaves the
    # parity-measurement statistics unchanged
    d = 12
    lay = SpaceLayout(1, (d, d))
    ref = dense.LogicalQubitRef(0)
    rng = np.random.default_rng(33)
    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v0 = dense.basis(lay, (0,), (1, 2))
    v0b = dense.basis(lay, (1,), (1, 2))
    v1 = dense.basis(lay, (0,), (2, 1))
    v1b = dense.basis(lay, (1,), (2, 1))
    psi = (c[0] * (v0 + v0b) + c[1] * (v1 + v1b)) / math.sqrt(2)
    psi /= np.linalg.norm(psi)

    gate = dense.gate_UZ(lay, ref, 0.6)
    e = nsverify.collective_noise("phase", 0.7, d)
    noise2 = np.kron(e, e)
    noise_full = dense.tensor_embed(noise2, lay, mode_map=(0, 1))

    c_second = dense.controlled_parity(lay, 1)

    def readout(state):
        """Branch probabilities of the second mode's parity measurement: the
        controlled parity, then the ancilla's X-basis readout."""
        return [float(np.linalg.norm(b) ** 2) for b in dense.x_basis_branches(c_second @ state)]

    pb = readout(gate @ (noise_full @ psi))
    pa = readout(noise_full @ (gate @ psi))
    assert pb[0] == pytest.approx(pa[0], abs=1e-8)
    assert pb[1] == pytest.approx(pa[1], abs=1e-8)


@pytest.mark.parametrize("call, value", [
    (lambda: nsverify.collective_noise("phase", 0.3, 2.5), "2.5"),
    (lambda: nsverify.collective_noise("squeeze", math.inf, 6), "inf"),
    (lambda: nsverify.collective_noise("squeeze", math.nan, 6), "nan"),
    (lambda: nsverify.dfs_nonexistence(2.5), "2.5"),
    (lambda: nsverify.dfs_nonexistence(-1), "-1"),
    (lambda: nsverify.dfs_nonexistence(2, cutoff=5.5), "5.5"),
    pytest.param(lambda: nsverify.collective_noise("phase", math.nan, 4), "nan", id="phase-nan"),
])
def test_entry_points_reject_bad_arguments(call, value):
    # each is a ValueError naming the value, raised before any numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"got {re.escape(value)}$"):
            call()
