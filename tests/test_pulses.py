import math
import warnings

import numpy as np
import pytest

import dense_reference as dense
from tqpsim import fock, pulses
from tqpsim.pulses import (FreeEvolution, HybridHamiltonianParams, PulseSchedule,
                           QubitRotation, WaitingPeriod)


def params(eta, nu=1.0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return HybridHamiltonianParams(eta=eta, nu=nu)


def test_params_validation():
    with pytest.raises(ValueError):
        HybridHamiltonianParams(eta=-0.1)
    with pytest.raises(ValueError):
        HybridHamiltonianParams(eta=0.3)
    with pytest.warns(UserWarning):
        HybridHamiltonianParams(eta=0.1)


def test_free_propagator_identity_and_full_period():
    p = params(0.03)
    u0 = pulses.exact_free_propagator(p, 0.0, 16)
    assert np.abs(u0 - np.eye(32)).max() < 1e-14
    # one full period: global phase e^{i 2 pi eta^2} times identity
    u = pulses.exact_free_propagator(p, 2 * math.pi, 16)
    target = np.exp(1j * 2 * math.pi * p.eta ** 2) * np.eye(32)
    assert np.abs(u - target).max() < 1e-10


def test_free_propagator_half_period_closed_form():
    # at t = pi/nu: e^{-i pi N} D(Z 2 eta) up to a global phase
    p = params(0.04)
    d = 20
    u = pulses.exact_free_propagator(p, math.pi, d)
    rot = np.diag(np.exp(-1j * math.pi * np.arange(d)))
    target = np.zeros((2 * d, 2 * d), dtype=complex)
    target[:d, :d] = rot @ fock.displacement(d, 2 * p.eta)
    target[d:, d:] = rot @ fock.displacement(d, -2 * p.eta)
    assert pulses.gauged_distance(u, target, n_max=d - 6) < 1e-12


def test_free_propagator_matches_matrix_exponential():
    d = 26
    for eta in (0.02, 0.05):
        p = params(eta)
        h = pulses.hamiltonian(p, d)
        for t in (0.7, math.pi, 2.5 * math.pi, 4 * math.pi):
            u_cf = pulses.exact_free_propagator(p, t, d)
            u_ex = dense.matrix_exponential(-1j * t * h)
            assert pulses.gauged_distance(u_cf, u_ex, n_max=d // 2) < 1e-8


def test_sequence_decoupled_limit():
    p = params(0.0)
    u = pulses.sequence_unitary(p, 10)
    # eta = 0: pure phase evolution, exactly qubit-mode factorized
    target = pulses.dispersive_target(p, 10)
    assert pulses.gauged_distance(u, target, n_max=9) < 1e-12
    t = u.reshape(2, 10, 2, 10)
    assert np.abs(t[0, :, 1, :]).max() < 1e-14


def test_sequence_residual_cubic_bound_and_halving():
    # residual vs the dispersive closed form on n <= 6: bounded by C eta^3
    # with C fitted at eta = 0.04, and dropping by >= 4x when eta halves
    r4 = pulses.sequence_residual(params(0.04), 28, n_max=6)
    r2 = pulses.sequence_residual(params(0.02), 28, n_max=6)
    c_fit = r4 / 0.04 ** 3
    assert r2 <= c_fit * 0.02 ** 3
    assert r4 / r2 >= 4.0


def test_sequence_timing():
    p = params(0.02)
    sched = pulses.build_h2_sequence(p, 3)
    assert sched.total_time == pytest.approx(3 * 18 * math.pi, rel=1e-12)
    with pytest.raises(ValueError):
        pulses.build_h2_sequence(p, 0)


def test_effective_coupling_bookkeeping():
    eta = 0.016
    p = params(eta)
    reps = pulses.coupling_implied_sequences(eta)
    ec = pulses.effective_coupling(p, reps)
    assert ec.lam == pytest.approx((32.0 / 9.0) * eta ** 2, rel=1e-12)
    assert ec.total_time == pytest.approx(reps * 18 * math.pi, rel=1e-12)
    # rounded sequence count reproduces the coupling-implied duration
    assert ec.total_time == pytest.approx(ec.controlled_parity_time, rel=0.05)
    assert ec.controlled_parity_time == pytest.approx(9 * math.pi / (64 * eta ** 2), rel=1e-12)


def test_standard_configs_match_quoted_pairs():
    # repetition counts 50/100/200 pair with eta printed as 0.022/0.016/0.011
    quoted = {50: 0.022, 100: 0.016, 200: 0.011}
    for reps, eta in pulses.measurement_configs():
        assert float(f"{eta:.2g}") == quoted[reps]
        assert pulses.repetitions_for_controlled_parity(eta) == reps
        ec = pulses.effective_coupling(params(eta), reps)
        assert ec.conditional_phase == pytest.approx(math.pi, rel=1e-12)
    # the printed two-digit eta values land within 5% of the quoted counts
    for eta_printed, reps_quoted in ((0.022, 50), (0.016, 100), (0.011, 200)):
        got = pulses.repetitions_for_controlled_parity(eta_printed)
        assert abs(got - reps_quoted) / reps_quoted <= 0.05


def test_waiting_flip_cancellation():
    # eta = 0: nothing to cancel, exact for any interval
    res0 = pulses.flip_cancellation_residual(params(0.0), math.pi / 2, 0.05, 16, n_max=6)
    assert res0 < 1e-12
    p = params(0.05)
    res1 = pulses.flip_cancellation_residual(p, math.pi / 2, 0.01, 20, n_max=6)
    assert res1 <= 1e-3
    # the per-pair error is second order in the interval, but over a quarter
    # period the pairs add as an oscillatory sum: total scales linearly, so
    # quartering the interval wins a factor ~4
    res2 = pulses.flip_cancellation_residual(p, math.pi / 2, 0.0025, 20, n_max=6)
    assert res1 / res2 >= 3.0
    # over a full oscillator period the pair errors cancel exactly
    full = pulses.flip_cancellation_residual(p, 2 * math.pi, 0.01, 20, n_max=6)
    assert full < 1e-10


def test_schedule_serialization_and_expansion(tmp_path):
    p = params(0.02)
    sched = pulses.build_h2_sequence(p, 1, flip_interval=0.05)
    doc = sched.to_json_dict()
    assert doc["total_time"] == pytest.approx(18 * math.pi)
    kinds = {s["type"] for s in doc["segments"]}
    assert kinds == {"free", "rotation", "waiting"}
    path = tmp_path / "schedule.json"
    sched.dump(path)
    assert path.exists()
    expanded = sched.expand_waiting()
    assert not any(isinstance(s, WaitingPeriod) and s.flip_interval is not None
                   for s in expanded.segments)
    assert expanded.total_time == pytest.approx(sched.total_time, rel=1e-9)
    with pytest.raises(ValueError):
        PulseSchedule((WaitingPeriod(0.1, 0.5),))


def test_engineered_controlled_parity_branch_phases():
    reps, eta = pulses.measurement_configs()[0]
    c = pulses.engineered_controlled_parity(params(eta), 24, reps)
    diag = np.diag(c)
    ph0 = np.unwrap(np.angle(diag[:6]))
    ph1 = np.unwrap(np.angle(diag[24:30]))
    rel = (ph1 - ph0) / math.pi
    # conditional phase ~ pi per excitation (small quartic droop at larger n)
    for n in range(1, 6):
        assert rel[n] - rel[0] == pytest.approx(n, abs=0.1 * n * n + 0.05)


def test_simulate_schedule_matches_dense_exponentials(dense_schedule_unitary):
    # the closed-form schedule unitary against dense matrix exponentials
    p = params(0.03)
    sched = pulses.build_h2_sequence(p, 1)
    u_fast = pulses.simulate_schedule(sched, p, 20)
    u_slow = dense_schedule_unitary(sched, p, 20)
    assert pulses.gauged_distance(u_fast, u_slow, n_max=10) < 1e-8


def _cross_check_case(case):
    eta50 = pulses.eta_for_repetitions(50)
    if case == "engineered-d66":
        return params(eta50), 66, pulses.build_h2_sequence(params(eta50), 1)
    if case == "flip-cancelled-waiting":
        sched = PulseSchedule((WaitingPeriod(0.7), FreeEvolution(0.4), QubitRotation("Y", 0.3),
                               WaitingPeriod(math.pi / 2, 0.05), QubitRotation("z", -0.2)))
        return params(0.05), 20, sched
    if case == "nu-2":
        p = params(0.03, nu=2.0)
        return p, 24, pulses.build_h2_sequence(p, 2, flip_interval=0.05)
    return params(0.03), 12, PulseSchedule(())


@pytest.mark.parametrize("case", ["engineered-d66", "flip-cancelled-waiting", "nu-2", "empty"])
def test_simulate_schedule_matches_dense_segment_product(dense_segment_product, case):
    # the per-ancilla-level blocks against the product of dense 2d x 2d segments
    p, d, sched = _cross_check_case(case)
    u = pulses.simulate_schedule(sched, p, d)
    assert np.abs(u - dense_segment_product(sched, p, d)).max() <= 1e-12
    if case == "empty":
        assert np.array_equal(u, np.eye(2 * d))


def test_engineered_controlled_parity_matches_dense_route(dense_segment_product):
    reps, eta = pulses.measurement_configs()[2]  # R = 200
    p, d = params(eta), 66
    one = dense_segment_product(pulses.build_h2_sequence(p, 1), p, d)
    corr = dense.qubit_rotation(fock.SpaceLayout(1, (d,)), "z", 32.0 * reps * eta ** 2)
    # the power of the one-sequence matrix's unitary polar factor, by SVD: a raw
    # power would carry R times the product's rounding away from unitarity
    w, _, vh = np.linalg.svd(one)
    ref = corr.matrix @ np.linalg.matrix_power(w @ vh, reps)
    got = pulses.engineered_controlled_parity(p, d, reps)
    assert np.abs(got - ref).max() <= 1e-12


@pytest.mark.parametrize("reps", [0, -1, 2.5, True, "3"])
def test_repetitions_must_be_a_positive_integer(reps):
    p = params(0.03)
    with pytest.raises(ValueError, match="repetitions"):
        pulses.sequence_unitary(p, 8, reps)
    with pytest.raises(ValueError, match="repetitions"):
        pulses.engineered_controlled_parity(p, 8, reps)


def test_numpy_integer_repetitions_are_accepted():
    p = params(0.03)
    u = pulses.sequence_unitary(p, 8, np.int64(3))
    assert np.array_equal(u, pulses.sequence_unitary(p, 8, 3))


@pytest.mark.parametrize("axis", ["w", "", "xy", None])
def test_rotation_axis_is_checked_at_construction(axis):
    with pytest.raises(ValueError, match="axis"):
        QubitRotation(axis, 0.1)
    assert QubitRotation("X", 0.1).axis == "X"
