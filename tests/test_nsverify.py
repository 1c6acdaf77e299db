import math

import numpy as np
import pytest

import dense_reference as dense
from tqpsim import encoding, fock, nsverify
from tqpsim.fock import HybridState, SpaceLayout


LAY = SpaceLayout(0, (24, 24))


def test_zero_parameter_channels_are_identity():
    for kind in ("phase", "squeeze"):
        e = nsverify.collective_noise(kind, 0.0, LAY)
        assert np.abs(e.matrix - np.eye(LAY.total_dim)).max() < 1e-14


def test_phase_channel_at_pi_is_double_parity():
    e = nsverify.collective_noise("phase", math.pi, LAY)
    pp = dense.parity(LAY, 0) @ dense.parity(LAY, 1)
    assert np.abs(e.matrix - pp.matrix).max() < 1e-12


def test_commutation_check_needs_one_cutoff():
    lay = SpaceLayout(0, (6, 8))
    e = nsverify.collective_noise("phase", 0.7, lay)
    with pytest.raises(fock.LayoutError):
        nsverify.commutation_check(e, dense.parity(lay, 1))


@pytest.mark.parametrize("kind,par", [("phase", 0.7), ("squeeze", 0.2)])
def test_commutation_check_matches_full_product(kind, par):
    # only the kept rows and columns are multiplied; the full-product
    # commutator restricted afterwards is the cross-check
    d = LAY.mode_cutoffs[0]
    e = nsverify.collective_noise(kind, par, LAY)
    a1 = dense.annihilation(LAY, 1)
    for op in (dense.parity(LAY, 1), dense.two_mode_swap(LAY, 0, 1), a1 + a1.adjoint()):
        full = e.matrix @ op.matrix - op.matrix @ e.matrix
        for max_total in (0, None, 2 * d - 2):
            top = d // 3 if max_total is None else max_total
            keep = np.concatenate(fock.pair_excitation_blocks(d)[:top + 1])
            ref = np.abs(full[np.ix_(keep, keep)]).max()
            assert abs(nsverify.commutation_check(e, op, max_total) - ref) <= 1e-15


def test_commutation_check_needs_a_non_negative_bound():
    e = nsverify.collective_noise("phase", 0.7, LAY)
    with pytest.raises(ValueError, match="max_total"):
        nsverify.commutation_check(e, dense.parity(LAY, 1), max_total=-1)


def test_channels_invert_and_squeeze_bound():
    e = nsverify.collective_noise("phase", 0.7, LAY)
    einv = nsverify.collective_noise("phase", -0.7, LAY)
    assert np.abs((e @ einv).matrix - np.eye(LAY.total_dim)).max() < 1e-12
    with pytest.raises(ValueError):
        nsverify.collective_noise("squeeze", 0.5, LAY)
    with pytest.raises(ValueError):
        nsverify.collective_noise("amplitude", 0.1, LAY)


@pytest.mark.parametrize("kind,values", [
    ("phase", (0.3, 0.7, math.pi / 2, math.pi)),
    ("squeeze", (0.05, 0.1, 0.2)),
])
def test_all_listed_commutators_vanish(kind, values):
    z_like = dense.parity(LAY, 1)
    x_like = dense.two_mode_swap(LAY, 0, 1)
    for par in values:
        e = nsverify.collective_noise(kind, par, LAY)
        assert nsverify.commutation_check(e, z_like) <= 1e-8
        assert nsverify.commutation_check(e, x_like) <= 1e-8


def test_negative_control_commutator_is_large():
    e = nsverify.collective_noise("phase", 0.7, LAY)
    a1 = dense.annihilation(LAY, 1)
    quad = a1 + a1.adjoint()
    assert nsverify.commutation_check(e, quad) > 0.1


def test_dfs_sector_zero_image_structure():
    # the squeeze generator sends |0,0> to -sqrt(2)(|2,0> + |0,2>)
    lay = SpaceLayout(0, (5, 5))
    gen = nsverify._squeeze_generator_pair(5)
    img = gen @ HybridState.basis(lay, (), (0, 0)).data
    i20 = lay.basis_index((), (2, 0))
    i02 = lay.basis_index((), (0, 2))
    assert img[i20] == pytest.approx(-math.sqrt(2), abs=1e-14)
    assert img[i02] == pytest.approx(-math.sqrt(2), abs=1e-14)
    assert np.abs(img).max() > 0


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


def test_dfs_report_serializes(tmp_path):
    rep = nsverify.dfs_nonexistence(3)
    doc = rep.to_json_dict()
    assert doc["all_null_dims_zero"] is True
    assert len(doc["sectors"]) == 4
    path = tmp_path / "report.json"
    rep.dump(path)
    assert path.exists()
    with pytest.raises(ValueError):
        nsverify.dfs_nonexistence(8, cutoff=9)


def test_noise_acts_trivially_on_encoded_subsystem():
    # collective phase noise before or after a logical-Z rotation leaves the
    # parity-measurement statistics unchanged
    d = 12
    lay = SpaceLayout(1, (d, d))
    ref = dense.LogicalQubitRef(0)
    rng = np.random.default_rng(33)
    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v0 = HybridState.basis(lay, (0,), (1, 2)).data
    v0b = HybridState.basis(lay, (1,), (1, 2)).data
    v1 = HybridState.basis(lay, (0,), (2, 1)).data
    v1b = HybridState.basis(lay, (1,), (2, 1)).data
    psi = (c[0] * (v0 + v0b) + c[1] * (v1 + v1b)) / math.sqrt(2)
    psi /= np.linalg.norm(psi)
    state = HybridState.pure(lay, psi)

    gate = dense.gate_UZ(lay, ref, 0.6)
    sub = SpaceLayout(0, (d, d))
    noise2 = nsverify.collective_noise("phase", 0.7, sub)
    noise_full = dense.tensor_embed(noise2, lay, mode_map=(0, 1))

    before = state.apply(noise_full).apply(gate)
    after = state.apply(gate).apply(noise_full)
    pb = encoding.parity_measurement_branches(before, 1)
    pa = encoding.parity_measurement_branches(after, 1)
    assert pb[0].probability == pytest.approx(pa[0].probability, abs=1e-8)
    assert pb[1].probability == pytest.approx(pa[1].probability, abs=1e-8)
