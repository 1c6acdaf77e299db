import math
import re
import warnings

import numpy as np
import pytest

import dense_reference as dense
from tqpsim import fock, pulses
from tqpsim.opensys import NoiseParams
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


def test_params_refuse_nan_coupling_and_a_frequency_not_finite_and_positive():
    # unchecked, each fails deep inside a run: a LinAlgError in sequence_unitary,
    # a ZeroDivisionError in build_h2_sequence or fidelity_point
    cases = [(HybridHamiltonianParams, {"eta": math.nan}, "eta"),
             (HybridHamiltonianParams, {"eta": 0.02, "nu": math.inf}, "nu"),
             (HybridHamiltonianParams, {"eta": 0.02, "nu": math.nan}, "nu"),
             (HybridHamiltonianParams, {"eta": 0.02, "nu": 0.0}, "nu"),
             (NoiseParams, {"Q": 1.0, "nu": 0.0}, "nu")]
    for cls, kwargs, field in cases:
        with pytest.raises(ValueError, match=f"^{field} must be"):
            cls(**kwargs)


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


def test_standard_configs_match_quoted_pairs():
    # repetition counts 50/100/200 pair with eta printed as 0.022/0.016/0.011,
    # each a conditional phase 128 R eta^2 of pi per excitation
    quoted = {50: 0.022, 100: 0.016, 200: 0.011}
    for reps, eta in pulses.measurement_configs():
        assert float(f"{eta:.2g}") == quoted[reps]
        assert 128.0 * reps * eta ** 2 == pytest.approx(math.pi, rel=1e-12)
    # the printed two-digit eta values land within 5% of the quoted counts
    for eta_printed, reps_quoted in ((0.022, 50), (0.016, 100), (0.011, 200)):
        got = round(math.pi / (128.0 * eta_printed ** 2))
        assert abs(got - reps_quoted) / reps_quoted <= 0.05


def test_quoted_coupling_sequences_cover_its_implied_duration():
    # the quoted strength (32/9) eta^2 nu implies a controlled parity of
    # pi / (2 lambda) = 9 pi / (64 eta^2 nu); whole sequences of 18 pi / nu cover it
    eta = 0.016
    sched = pulses.build_h2_sequence(params(eta), pulses.coupling_implied_sequences(eta))
    assert sched.total_time == pytest.approx(9 * math.pi / (64 * eta ** 2), rel=0.05)


def test_schedule_expansion():
    p = params(0.02)
    sched = pulses.build_h2_sequence(p, 1)
    assert sched.total_time == pytest.approx(18 * math.pi)
    assert {type(s) for s in sched.segments} == {FreeEvolution, QubitRotation, WaitingPeriod}
    # four displacement groups: 16 free evolutions of pi/nu and 4 quarter-period waits
    assert [type(s) for s in sched.segments].count(FreeEvolution) == 16
    assert [s for s in sched.segments if isinstance(s, WaitingPeriod)] == [
        WaitingPeriod(math.pi / 2)] * 4


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
    u_fast = dense.simulate_schedule(sched, p, 20)
    u_slow = dense_schedule_unitary(sched, p, 20)
    assert pulses.gauged_distance(u_fast, u_slow, n_max=10) < 1e-8


def _flipped(duration, pairs):
    """A wait of `duration` with the coupling cancelled by flipping the qubit:
    `pairs` times a free half, an x rotation of -pi/2, a free half and one of
    +pi/2."""
    half = FreeEvolution(duration / (2 * pairs))
    return (half, QubitRotation("x", -math.pi / 2), half, QubitRotation("x", math.pi / 2)) * pairs


def _cross_check_case(case):
    eta50 = pulses.eta_for_repetitions(50)
    if case == "engineered-d66":
        return params(eta50), 66, pulses.build_h2_sequence(params(eta50), 1)
    if case == "flip-cancelled-waiting":
        sched = PulseSchedule((WaitingPeriod(0.7), FreeEvolution(0.4), QubitRotation("Y", 0.3),
                               *_flipped(math.pi / 2, 16), QubitRotation("z", -0.2)))
        return params(0.05), 20, sched
    if case == "nu-2":
        # two sequences with every quarter-period wait written out as flips
        p = params(0.03, nu=2.0)
        segs = [part for seg in pulses.build_h2_sequence(p, 2).segments
                for part in (_flipped(seg.duration, 16) if isinstance(seg, WaitingPeriod)
                             else (seg,))]
        return p, 24, PulseSchedule(tuple(segs))
    return params(0.03), 12, PulseSchedule(())


@pytest.mark.parametrize("case", ["engineered-d66", "flip-cancelled-waiting", "nu-2", "empty"])
def test_simulate_schedule_matches_dense_segment_product(dense_segment_product, case):
    # the per-ancilla-level blocks against the product of dense 2d x 2d segments
    p, d, sched = _cross_check_case(case)
    u = dense.simulate_schedule(sched, p, d)
    assert np.abs(u - dense_segment_product(sched, p, d)).max() <= 1e-12
    if case == "empty":
        assert np.array_equal(u, np.eye(2 * d))


def test_engineered_controlled_parity_matches_dense_route(dense_segment_product):
    reps, eta = pulses.measurement_configs()[2]  # R = 200
    p, d = params(eta), 66
    one = dense_segment_product(pulses.build_h2_sequence(p, 1), p, d)
    corr = dense.qubit_rotation(dense.SpaceLayout(1, (d,)), "z", 32.0 * reps * eta ** 2)
    # the power of the one-sequence matrix's unitary polar factor, by SVD: a raw
    # power would carry R times the product's rounding away from unitarity
    w, _, vh = np.linalg.svd(one)
    ref = corr @ np.linalg.matrix_power(w @ vh, reps)
    got = pulses.engineered_controlled_parity(p, d, reps)
    assert np.abs(got - ref).max() <= 1e-12


def _between_sectors(u: np.ndarray) -> np.ndarray:
    """The entries of a 2d x 2d (ancilla, mode) matrix that join the two
    sectors of the hybrid parity Z (x) exp(i pi a^dag a)."""
    idx = fock.parity_sectors(len(u) // 2)
    off = np.ones(u.shape, dtype=bool)
    off[idx[:, :, None], idx[:, None, :]] = False
    return u[off]


@pytest.mark.parametrize("d", [3, 14, 66])
def test_displacement_group_splits_into_parity_sectors(d):
    # the segment by segment group joins the sectors by rounding alone, and its
    # sector blocks are the closed-form ones sequence_unitary powers
    idx = fock.parity_sectors(d)
    for p in [params(eta) for _, eta in pulses.measurement_configs()] + [params(0.03, nu=2.0)]:
        group = dense.simulate_schedule(pulses._displacement_group(p), p, d)
        assert np.abs(_between_sectors(group)).max() <= 1e-14
        blocks = group[idx[:, :, None], idx[:, None, :]]
        assert np.abs(pulses._group_sector_blocks(p, d) - blocks).max() <= 1e-13


def test_engineered_controlled_parity_is_zero_between_parity_sectors():
    for reps, eta in pulses.measurement_configs():
        u = pulses.engineered_controlled_parity(params(eta), 24, reps)
        assert not _between_sectors(u).any()


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


@pytest.mark.parametrize("call, value", [
    (lambda: PulseSchedule((FreeEvolution(math.nan),)), "nan"),
    (lambda: PulseSchedule((WaitingPeriod(math.inf),)), "inf"),
    (lambda: PulseSchedule((FreeEvolution(-0.1),)), "-0.1"),
    (lambda: QubitRotation("x", math.nan), "nan"),
    (lambda: QubitRotation("y", -math.inf), "-inf"),
])
def test_segments_refuse_values_that_are_not_finite(call, value):
    # each is a ValueError naming the value; unchecked, evolve_master dropped a
    # NaN duration as if it were 0 and returned an all-NaN state for a NaN angle
    with pytest.raises(ValueError, match=f"got {re.escape(value)}$"):
        call()
