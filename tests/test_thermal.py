import math
import re

import numpy as np
import pytest

import dense_reference as dense
from dense_reference import SpaceLayout
from tqpsim import fock, thermal
from tqpsim.thermal import ThermalSpec


def _one_mode(rho):
    return SpaceLayout(0, (rho.shape[0],))


def test_thermal_state_zero_temperature():
    st = dense.thermal_state(ThermalSpec(0.0))
    pops = st.diagonal().real
    assert pops[0] == pytest.approx(1.0)
    assert pops[1:].max() == 0.0


def test_thermal_state_geometric_probabilities():
    st = dense.thermal_state(ThermalSpec(1.0))
    p = st.diagonal().real
    for n, want in enumerate((0.5, 0.25, 0.125)):
        assert p[n] == pytest.approx(want, abs=1e-7)


def test_thermal_state_mean_excitation_defining_property():
    for n_mean in (0.5, 1.0, 2.0, 4.0):
        st = dense.thermal_state(ThermalSpec(n_mean, tail_tol=1e-12))
        n_op = dense.number(_one_mode(st), 0)
        assert np.trace(n_op @ st).real == pytest.approx(n_mean, abs=1e-8)


def test_thermal_state_cutoff_too_small():
    with pytest.raises(dense.CutoffError):
        dense.thermal_state(ThermalSpec(2.0, cutoff=8))


@pytest.mark.parametrize("tail_tol", [0.0, -1e-8, math.nan])
def test_required_cutoff_refuses_a_tail_tolerance_it_cannot_reach(tail_tol):
    for n in (0.0, 1.0):  # q^d falls to 0 but never below it
        with pytest.raises(ValueError, match="tail tolerance"):
            thermal.required_cutoff(n, tail_tol)


@pytest.mark.parametrize("n", [-1.0, -1e-9, math.inf])
def test_invalid_mean_excitation_is_rejected(n):
    for build in (thermal.boltzmann_ratio, thermal.required_cutoff, ThermalSpec,
                  lambda n: thermal.thermal_weights(n, 10),
                  lambda n: thermal.even_odd_weights(n, 10, +1)):
        with pytest.raises(ValueError, match="mean excitation"):
            build(n)


@pytest.mark.parametrize("kwargs, value", [
    ({"cutoff": 1}, "1"), ({"cutoff": 0}, "0"), ({"cutoff": -3}, "-3"),
    ({"cutoff": True}, "True"), ({"cutoff": 2.5}, "2.5"), ({"cutoff": 12.0}, "12.0"),
    ({"cutoff": "12"}, "'12'"),
    ({"tail_tol": 0.0}, "0.0"), ({"tail_tol": -1e-8}, "-1e-08"),
    ({"tail_tol": math.nan}, "nan"), ({"tail_tol": math.inf}, "inf"),
])
def test_thermal_spec_refuses_a_bad_cutoff_or_tail_tolerance(kwargs, value):
    # a ValueError naming the value, before any numpy warning: at cutoff 1 the
    # odd branch is empty and even_odd_weights divides 0 by 0
    with pytest.raises(ValueError, match=f"got {re.escape(value)}$"):
        ThermalSpec(0.5, **kwargs)


def test_thermal_spec_takes_numpy_integer_cutoffs():
    for cutoff in (np.int32(2), np.int64(40)):
        rep = thermal.entropy_report(ThermalSpec(0.5, cutoff=cutoff))
        assert rep == thermal.entropy_report(ThermalSpec(0.5, cutoff=int(cutoff)))
    assert abs(rep.s_tqp_spectral - rep.s_tqp) < 1e-6


def test_parity_project_vacuum_and_thermal():
    vac = dense.thermal_state(ThermalSpec(0.0))
    post, p = dense.parity_project(_one_mode(vac), vac, 0, +1)
    assert p == pytest.approx(1.0)
    assert np.abs(post - vac).max() < 1e-14
    with pytest.raises(dense.ProjectionError):
        dense.parity_project(_one_mode(vac), vac, 0, -1)

    th = dense.thermal_state(ThermalSpec(1.0))
    post, p = dense.parity_project(_one_mode(th), th, 0, +1)
    assert p == pytest.approx(2.0 / 3.0, abs=1e-8)  # (1 + 1/(2<n>+1)) / 2
    par = dense.parity(_one_mode(post), 0)
    assert np.trace(par @ post).real == pytest.approx(1.0, abs=1e-14)


def test_parity_project_idempotent():
    th = dense.thermal_state(ThermalSpec(1.5))
    once, _ = dense.parity_project(_one_mode(th), th, 0, -1)
    twice, p2 = dense.parity_project(_one_mode(th), once, 0, -1)
    assert p2 == pytest.approx(1.0, abs=1e-12)
    assert np.abs(twice - once).max() < 1e-12


def test_projected_branches_match_printed_geometric_forms():
    n_mean = 1.3
    th = dense.thermal_state(ThermalSpec(n_mean))
    d = th.shape[0]
    q = n_mean / (n_mean + 1.0)
    for sign in (+1, -1):
        post, _ = dense.parity_project(_one_mode(th), th, 0, sign)
        pops = post.diagonal().real
        offset = 0 if sign == +1 else 1
        # printed branch form: (1 - q^2) q^(2n) on |2n + offset>
        want = np.zeros(d)
        ns = np.arange(offset, d, 2)
        want[ns] = (1 - q * q) * q ** (ns - offset)
        want /= want.sum()
        assert np.abs(pops - want).max() < 1e-10
        assert np.abs(pops - thermal.even_odd_weights(n_mean, d, sign)).max() < 1e-12


def test_tqp_initial_state_zero_temperature_and_parities():
    pair0 = dense.tqp_initial_state(ThermalSpec(0.0))
    d = math.isqrt(pair0.shape[0])
    pops = pair0.diagonal().real.reshape(d, d)
    assert pops[1, 0] == pytest.approx(1.0)
    pair = dense.tqp_initial_state(ThermalSpec(2.0))
    # the parities are diagonal, so their expectations are populations . diagonal
    pops = pair.diagonal().real
    d0 = d1 = math.isqrt(pair.shape[0])
    z_l = np.tile(fock.parity_diag(d1), d0)
    p_first = np.repeat(fock.parity_diag(d0), d1)
    assert pops @ z_l == pytest.approx(1.0, abs=1e-13)
    assert pops @ p_first == pytest.approx(-1.0, abs=1e-13)
    assert pops @ (p_first * z_l) == pytest.approx(-1.0, abs=1e-13)


def _entropy_bits(rho):
    """The von Neumann entropy of a density matrix in bits, from its spectrum."""
    return thermal._spectrum_entropy_bits(np.linalg.eigvalsh(rho))


def test_von_neumann_entropy_reference_values():
    # the spectral entropy that `entropy_report` takes of each branch's weights
    assert thermal._spectrum_entropy_bits(np.array([0.0, 0.0, 1.0, 0.0])) == 0.0
    assert thermal._spectrum_entropy_bits(np.array([0.5, 0.5])) == pytest.approx(1.0, abs=1e-14)
    assert thermal._spectrum_entropy_bits(np.full(4, 0.25)) == pytest.approx(2.0, abs=1e-14)
    # thermal <n> = 1: (n+1)log2(n+1) - n log2 n = 2 bits
    th = dense.thermal_state(ThermalSpec(1.0, tail_tol=1e-12))
    assert _entropy_bits(th) == pytest.approx(2.0, abs=1e-7)


def test_entropy_report_reference_point():
    rep = thermal.entropy_report(ThermalSpec(1.0))
    assert rep.n_tilde == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep.s_thermal == pytest.approx(2.0, abs=1e-12)
    assert abs(rep.s_tqp - rep.s_tqp_spectral) < 1e-6
    assert rep.landauer_pure == rep.s_thermal
    assert rep.landauer_tqp == pytest.approx(2 * rep.s_thermal - rep.s_tqp, abs=1e-12)


def test_crossover_flags_and_landauer_ordering():
    low = thermal.entropy_report(ThermalSpec(0.5))
    high = thermal.entropy_report(ThermalSpec(1.5))
    assert not low.crossover_flag
    assert high.crossover_flag
    # 2 S_th - S_pair < S_th exactly when S_pair > S_th
    assert (high.landauer_tqp < high.landauer_pure) == high.crossover_flag
    assert (low.landauer_tqp < low.landauer_pure) == low.crossover_flag


def test_crossover_root_location():
    root = thermal.crossover_mean_excitation()
    assert 0.7 <= root <= 0.9
    assert thermal.tqp_entropy_bits(root + 0.01) > thermal.thermal_entropy_bits(root + 0.01)
    assert thermal.tqp_entropy_bits(root - 0.01) < thermal.thermal_entropy_bits(root - 0.01)


def test_two_mode_spectral_entropy_additivity():
    # the report uses per-branch entropies; validate against the eigenvalue
    # entropy of the actual two-mode pair state
    pair = dense.tqp_initial_state(ThermalSpec(1.0))
    direct = _entropy_bits(pair)
    assert direct == pytest.approx(thermal.tqp_entropy_bits(1.0), abs=1e-6)


def test_closed_form_agreement_on_coarse_grid():
    for n in (0.05, 0.3, 0.7, 1.0, 2.0, 3.5, 5.0):
        rep = thermal.entropy_report(ThermalSpec(n))
        assert abs(rep.s_tqp - rep.s_tqp_spectral) < 1e-6
