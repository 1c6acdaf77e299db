import copy
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.linalg import expm

import dense_reference as dense
from dense_reference import SpaceLayout
from tqpsim import fock, opensys, pulses, thermal
from tqpsim.opensys import NoiseParams


def _plus_fock(n_mode: int, cutoff: int) -> np.ndarray:
    """|+> (x) |n_mode>, a (2, cutoff) pure state."""
    psi = np.zeros((2, cutoff), dtype=complex)
    psi[:, n_mode] = fock.KET_PLUS
    return psi


def _density(psi: np.ndarray) -> np.ndarray:
    return np.multiply.outer(psi, psi.conj())


def _plus_fock_density(n_mode: int, cutoff: int) -> np.ndarray:
    return _density(_plus_fock(n_mode, cutoff))


def _flat(rho: np.ndarray) -> np.ndarray:
    """A (levels, d, levels, d) density array as a (levels d) x (levels d) matrix."""
    return rho.reshape(rho.shape[0] * rho.shape[1], -1)


def _plus_thermal(n_mean: float, d: int) -> np.ndarray:
    w = thermal.thermal_weights(n_mean, d)
    w /= w.sum()
    plus = np.outer(fock.KET_PLUS, fock.KET_PLUS.conj())
    return np.kron(plus, np.diag(w.astype(complex))).reshape(2, d, 2, d)


def _random_density(d, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((2 * d, 2 * d)) + 1j * rng.standard_normal((2 * d, 2 * d))
    rho = m @ m.conj().T
    return (rho / np.trace(rho)).reshape(2, d, 2, d)


def hparams(eta, nu=1.0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return pulses.HybridHamiltonianParams(eta=eta, nu=nu)


def rk4_reference(rho: np.ndarray, schedule: pulses.PulseSchedule,
                  noise: NoiseParams, dt: float) -> np.ndarray:
    """Plain lab-frame fixed-step RK4 on `lindblad_rhs`, the independent
    cross-check of the exact segment propagators in `evolve_master`, on a
    (2, d, 2, d) density array."""
    d = rho.shape[1]
    h = {seg: pulses.hamiltonian(hparams(eta, noise.nu), d)
         for seg, eta in ((pulses.FreeEvolution, noise.eta), (pulses.WaitingPeriod, 0.0))}
    for seg in schedule.segments:
        if isinstance(seg, pulses.QubitRotation):
            r = dense.qubit_rotation(SpaceLayout(1, (d,)), seg.axis, seg.angle)
            rho = (r @ _flat(rho) @ r.conj().T).reshape(rho.shape)
            continue
        nsteps = max(1, math.ceil(seg.duration / dt))
        step = seg.duration / nsteps

        def rhs(r, h_seg=h[type(seg)]):
            return dense.lindblad_rhs(r, h_seg, noise)

        for _ in range(nsteps):
            k1 = rhs(rho)
            k2 = rhs(rho + (step / 2) * k1)
            k3 = rhs(rho + (step / 2) * k2)
            k4 = rhs(rho + step * k3)
            rho = rho + (step / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return rho


def test_noise_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(Q=0.0)
    with pytest.raises(ValueError):
        NoiseParams(Q=10.0, N_th=-1.0)
    n = NoiseParams(Q=100.0, N_th=2.0)
    assert n.rate_down == pytest.approx(0.03)
    assert n.rate_up == pytest.approx(0.02)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["Q", "nu", "eta", "N_th", "Gamma_dc", "Gamma_dp"])
def test_noise_params_must_be_finite(field, value):
    with pytest.raises(ValueError, match="must be finite"):
        NoiseParams(**{"Q": 10.0, field: value})


def test_rhs_trace_free_and_closed_system_limit():
    d = 10
    h = pulses.hamiltonian(hparams(0.02), d)
    rng = np.random.default_rng(0)
    m = rng.standard_normal((2 * d, 2 * d)) + 1j * rng.standard_normal((2 * d, 2 * d))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    state = rho.reshape(2, d, 2, d)
    deriv = _flat(dense.lindblad_rhs(state, h, NoiseParams(Q=50.0, N_th=1.3, eta=0.02)))
    assert abs(np.trace(deriv)) < 1e-12
    deriv_closed = _flat(dense.lindblad_rhs(state, h, NoiseParams(Q=1e300, eta=0.02)))
    comm = -1j * (h @ rho - rho @ h)
    assert np.abs(deriv_closed - comm).max() < 1e-12


def test_rhs_decay_rate_of_single_excitation():
    # H = 0, N_th = 0, rho = |1><1|: d<n>/dt = -nu/Q
    d = 8
    st = _plus_fock_density(1, d)
    deriv = _flat(dense.lindblad_rhs(st, np.zeros((2 * d, 2 * d)), NoiseParams(Q=25.0)))
    nvec = np.kron(np.ones(2), np.arange(d))
    assert float((np.diag(deriv).real * nvec).sum()) == pytest.approx(-1 / 25.0, abs=1e-12)


def test_master_equation_thermalizes_to_bath_occupation():
    noise = NoiseParams(Q=5.0, N_th=0.5)
    d = 14
    sched = pulses.PulseSchedule((pulses.WaitingPeriod(20 * noise.Q / noise.nu),))
    out = _flat(opensys.evolve_master(_plus_fock_density(0, d), sched, noise))
    nvec = np.kron(np.ones(2), np.arange(d))
    n_final = float((np.diag(out).real * nvec).sum())
    assert n_final == pytest.approx(0.5, abs=1e-3)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-8)


def test_evolve_master_zero_schedule_and_frames_agree():
    noise = NoiseParams(Q=40.0, N_th=0.3, eta=0.03)
    st = _plus_fock_density(1, 10)
    out = opensys.evolve_master(st, pulses.PulseSchedule(()), noise)
    assert np.abs(out - st).max() < 1e-14
    sched = pulses.PulseSchedule((pulses.FreeEvolution(1.7),
                                  pulses.QubitRotation("x", 0.4),
                                  pulses.WaitingPeriod(0.9)))
    exact = opensys.evolve_master(st, sched, noise)
    reference = rk4_reference(st, sched, noise, dt=0.01)
    assert opensys.trace_distance(exact, reference) < 1e-6


@settings(max_examples=20, deadline=None)
@given(q=st.floats(1.0, 1e3), n_th=st.floats(0.0, 2.0), eta=st.floats(0.0, 0.2),
       d=st.sampled_from([3, 4, 5]), durations=st.lists(st.floats(0.0, 5.0), min_size=1,
                                                        max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
# free segments shorter than the smallest normal double
@example(q=1.0, n_th=0.0, eta=0.125, d=3, durations=[2.225073858507203e-309], seed=0)
@example(q=1.0, n_th=0.0, eta=0.125, d=3, durations=[2.2250738585e-313], seed=0)
def test_evolve_master_keeps_trace_hermiticity_and_positivity(q, n_th, eta, d,
                                                              durations, seed):
    st_in = _random_density(d, seed)
    segs = []
    for i, t in enumerate(durations):
        segs.append(pulses.FreeEvolution(t) if i % 2 == 0 else pulses.WaitingPeriod(t))
        segs.append(pulses.QubitRotation("xy"[i % 2], 0.3 * (i + 1)))
    out = _flat(opensys.evolve_master(st_in, pulses.PulseSchedule(tuple(segs)),
                                      NoiseParams(Q=q, N_th=n_th, eta=eta)))
    assert abs(np.trace(out) - 1.0) < 1e-12
    assert np.abs(out - out.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() >= -1e-10


def _low_density(d, levels_kept, seed):
    """A random (2, d, 2, d) density supported on the lowest `levels_kept` Fock levels."""
    rng = np.random.default_rng(seed)
    m = np.zeros((2, d, 2, d), dtype=complex)
    shape = (2, levels_kept, 2, levels_kept)
    m[:, :levels_kept, :, :levels_kept] = (rng.standard_normal(shape)
                                           + 1j * rng.standard_normal(shape))
    m = _flat(m)
    rho = m @ m.conj().T
    return (rho / np.trace(rho)).reshape(2, d, 2, d)


def _plus_thermal_weights(n_mean, d):
    """|+><+| (x) the thermal weights of levels 0 .. d - 1, not renormalised, so
    that two cutoffs share their common entries."""
    plus = np.outer(fock.KET_PLUS, fock.KET_PLUS.conj())
    return np.kron(plus, np.diag(thermal.thermal_weights(n_mean, d).astype(complex))).reshape(
        2, d, 2, d)


def test_closed_system_master_matches_unitary(dense_schedule_unitary):
    p = hparams(0.03)
    sched = pulses.build_h2_sequence(p, 1)
    noise = NoiseParams(Q=1e300, eta=0.03)
    d = 16
    st = _plus_thermal(0.5, d)
    evolved = _flat(opensys.evolve_master(st, sched, noise))
    u = dense.simulate_schedule(sched, p, d)
    ref = u @ _flat(st) @ u.conj().T
    assert opensys.trace_distance(evolved, ref) < 1e-6
    # the master equation and the dense unitary truncate the model differently
    # (5.8e-8 apart on this input): they agree on a state far below the cutoff,
    # and the master equation at d and at d + 8 agrees on the lowest levels
    wide = 30
    low = _low_density(wide, wide // 3, 5)
    u_dense = dense_schedule_unitary(sched, p, wide)
    assert opensys.trace_distance(opensys.evolve_master(low, sched, noise),
                                  u_dense @ _flat(low) @ u_dense.conj().T) < 1e-12
    small, large = (opensys.evolve_master(_plus_thermal_weights(0.5, n), sched, noise)
                    for n in (d, d + 8))
    kept = d - 8
    assert opensys.trace_distance(small[:, :kept, :, :kept], large[:, :kept, :, :kept]) < 1e-12
    assert np.trace(evolved).real == pytest.approx(1.0, abs=1e-8)
    herm = np.abs(evolved - evolved.conj().T).max()
    assert herm < 1e-10
    assert np.linalg.eigvalsh(evolved).min() > -1e-8


@pytest.mark.parametrize("levels", [1, 2])
def test_waiting_segments_match_the_block_liouvillian(levels):
    # the waiting channel is exact on the truncated model: any input, any
    # rates, and the ancilla on level 0 alone or on both levels
    for d in (1, 2, 5, 9):
        rho = _random_density(d, 100 + d)
        if levels == 1:  # only the (0, 0) block is populated
            block = rho[0, :, 0, :] / np.trace(rho[0, :, 0, :])
            rho = np.zeros_like(rho)
            rho[0, :, 0, :] = block
        for q, n_th in ((0.5, 3.0), (5.0, 0.5), (300.0, 0.0), (1e300, 2.0)):
            for tau in (0.3, math.pi / 2, 7.0):
                sched = pulses.PulseSchedule((pulses.WaitingPeriod(tau),))
                noise = NoiseParams(Q=q, N_th=n_th, eta=0.05)
                got = opensys.evolve_master(rho, sched, noise)
                assert np.abs(got - dense.block_pade_master(rho, sched, noise)).max() <= 1e-12


@pytest.mark.parametrize("q", [5.0, 300.0, 1e4, 1e300])
@pytest.mark.parametrize("d", [6, 20, 40])
def test_free_blocks_match_the_block_liouvillian_on_low_levels(d, q):
    # one free evolution of the sequence's length on a state supported on levels
    # <= d/3, against the exponential of each block's truncated Liouvillian
    # applied to it.  The routes truncate differently: the factored one takes
    # [a, a^dag] = 1 in its displacements, which the cutoff breaks by
    # d |d-1><d-1|.  Where the state stays below the top level they agree to
    # rounding; where it reaches it (d = 6, and the heated state at d = 20,
    # Q = 5) the gap is bounded by d (g tau)^2 times the top level's amplitude
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import expm_multiply
    noise = NoiseParams(Q=q, N_th=0.5, eta=pulses.eta_for_repetitions(50))
    rho = _low_density(d, d // 3 + 1, d)
    seg = pulses.FreeEvolution(math.pi)
    got = opensys.evolve_master(rho, pulses.PulseSchedule((seg,)), noise)
    top = float(np.einsum("qaqa->a", got).real[-1])
    if d == 6 or (d, q) == (20, 5.0):
        bound = d * (noise.eta * noise.nu * seg.duration) ** 2 * math.sqrt(top)
    else:
        assert top < 1e-14
        bound = 1e-12
    for level, level2 in ((0, 0), (0, 1), (1, 1)):
        gen = dense.block_liouvillian(noise, pulses.FreeEvolution, level, level2, d)
        ref = expm_multiply(csr_matrix(gen * seg.duration),
                            rho[level, :, level2, :].reshape(-1)).reshape(d, d)
        assert np.abs(got[level, :, level2, :] - ref).max() <= bound
        assert np.abs(got[level2, :, level, :] - ref.conj().T).max() <= bound


@pytest.mark.parametrize("d", [8, 12, 16, 20])
def test_thermal_input_matches_the_block_liouvillian_within_the_truncation_tail(d):
    # the ensemble benchmark's input and schedule: the two routes differ by
    # less than the weight the output keeps on the top level
    noise = NoiseParams(Q=300.0, N_th=0.5, eta=pulses.eta_for_repetitions(50))
    sched = pulses.build_h2_sequence(noise.hybrid_params(), 1)
    rho = opensys._thermal_with_ancilla(0.5, d)
    got = opensys.evolve_master(rho, sched, noise)
    ref = dense.block_pade_master(rho, sched, noise)
    tail = float(np.einsum("qaqa->a", got).real[-1])
    assert opensys.trace_distance(got, ref) <= tail
    flat = _flat(got)
    assert abs(np.trace(flat) - 1.0) <= 1e-12
    assert np.abs(flat - flat.conj().T).max() <= 1e-12


@pytest.mark.parametrize("d", [12, 20])
def test_cutoffs_d_and_d_plus_8_agree_on_the_lowest_levels(d):
    # the first d - 8 levels at cutoffs d and d + 8 agree to within the
    # thermal weight of level d - 1
    noise = NoiseParams(Q=300.0, N_th=0.5, eta=pulses.eta_for_repetitions(50))
    sched = pulses.build_h2_sequence(noise.hybrid_params(), 1)
    small, large = (opensys.evolve_master(_plus_thermal_weights(0.5, n), sched, noise)
                    for n in (d, d + 8))
    kept = d - 8
    assert opensys.trace_distance(small[:, :kept, :, :kept], large[:, :kept, :, :kept]) \
        <= thermal.thermal_weights(0.5, d)[-1]


def test_free_segment_coefficients_are_bounded_and_solve_the_one_sided_form():
    # alpha, beta and ln c of every free segment are finite and bounded at any
    # Q; where exp(tau M) stays small (its entries grow as 4 N_th e^(kappa
    # tau/2)) they solve exp(tau L) = exp(l.S + sigma) exp(tau L0),
    # l = tau phi_1(tau M) v, sigma = tau^2/2 [v, phi_2(tau M) v]
    eta, nu = 0.0222, 1.3
    g = eta * nu

    def bracket(u, w):  # [u.S, w.S]
        return u[0] * w[1] - u[1] * w[0] - u[2] * w[3] + u[3] * w[2]

    for n_th in (0.0, 0.5, 100.0):
        for tau in (math.pi / 2, math.pi, 5.0):
            for q in np.logspace(-300, 300, 61):
                noise = NoiseParams(Q=q, N_th=n_th, eta=eta, nu=nu)
                alpha, beta, log_c = opensys._free_factors(noise, tau)
                assert np.isfinite([alpha, beta, log_c]).all()
                assert abs(beta) <= g * tau * (1 + 1e-12)
                assert abs(alpha) <= 2 * g * tau * (1 + 1e-12)
                assert -8 * (2 * n_th + 1) * g * eta * tau <= log_c <= 0.0
                if nu / q * tau > 5.0 or n_th > 1.0:
                    continue
                rd, ru, c = noise.rate_down, noise.rate_up, (noise.rate_down + noise.rate_up) / 2
                m = np.array([[1j * nu + c, 0, rd, 0], [0, -(1j * nu + c), 0, -ru],
                              [-ru, 0, 1j * nu - c, 0], [0, rd, 0, -(1j * nu - c)]])
                aug = np.zeros((12, 12), dtype=complex)
                aug[:4, :4], aug[:4, 4:8], aug[4:8, 8:] = m, np.eye(4), np.eye(4)
                ex = expm(tau * aug)
                grow, phi1, phi2 = ex[:4, :4], ex[:4, 4:8], ex[:4, 8:]
                for s, s2, scalar in ((1, 1, 0.0), (1, -1, log_c), (-1, -1, 0.0)):
                    v = np.array([-1j * s * g, -1j * s * g, 1j * s2 * g, 1j * s2 * g])
                    # D(x) X D(y)^dag is exp(u.S) with u = (-x^*, x, y^*, -y)
                    u_out = np.array([-np.conj(s * alpha), s * alpha,
                                      np.conj(s2 * alpha), -s2 * alpha])
                    u_in = np.array([-np.conj(s * beta), s * beta, np.conj(s2 * beta), -s2 * beta])
                    # relative to the largest of the terms that cancel
                    terms = [np.abs(u_out), np.abs(grow) @ np.abs(u_in), np.abs(phi1) @ np.abs(v)]
                    assert np.abs(u_out + grow @ u_in - phi1 @ v).max() <= 1e-12 * np.max(terms)
                    sigma = 0.5 * bracket(v, phi2 @ v)
                    terms = [np.abs(v) @ np.abs(phi2) @ np.abs(v),
                             np.abs(u_out) @ np.abs(grow) @ np.abs(u_in)]
                    assert abs(sigma - 0.5 * bracket(u_out, grow @ u_in) - scalar) \
                        <= 1e-12 * max(terms)


@pytest.mark.parametrize("tau", [5e-324, 1e-310, 2.2e-309, 1e-300])
def test_free_factors_stay_finite_on_subnormal_durations(tau):
    # -mu tau is a complex subnormal (or nearly): the segment is the identity
    noise = NoiseParams(Q=1.0, N_th=0.0, eta=0.125)
    alpha, beta, log_c = opensys._free_factors(noise, tau)
    assert np.isfinite([alpha, beta, log_c]).all()
    assert log_c == 0.0


def test_jump_unravelling_noiseless_is_deterministic():
    p = hparams(0.03)
    sched = pulses.build_h2_sequence(p, 1)
    d = 12
    v = _plus_fock(1, d)
    noise = NoiseParams(Q=1e300, eta=0.03)
    ens = opensys.jump_unravelling(_density(v), sched, noise, np.random.default_rng(1), 2)
    assert ens.mean_jumps == 0.0
    u = dense.simulate_schedule(sched, p, d)
    ref = u @ _flat(_density(v)) @ u.conj().T
    # closed-form vs exponential propagators differ near the cutoff edge
    assert opensys.trace_distance(ens.mean_state, ref) < 1e-7


def test_short_time_jump_probability_closed_form():
    st = opensys._thermal_with_ancilla(1.0, 27)
    noise = NoiseParams(Q=1e6, N_th=100.0, eta=0.016)
    sim, closed = opensys.short_time_jump_probability(st, noise, 1e-3)
    assert closed == pytest.approx((2 * 100 * 1 + 100 + 1) * 1e-6 * 1e-3, rel=1e-6)
    assert abs(sim - closed) / closed < 0.05


def test_short_time_jump_probability_matches_expm_reference():
    # the survival probability is Tr(U rho U^dag) with U = expm(-i dt K) on the
    # whole (ancilla, mode) space, K = H - i/2 (r_down a^dag a + r_up a a^dag)
    d = 12
    st = opensys._thermal_with_ancilla(1.0, d)
    noise = NoiseParams(Q=50.0, N_th=0.7, eta=0.05)
    a = dense.annihilation(SpaceLayout(1, (d,)), 0)
    k = pulses.hamiltonian(hparams(noise.eta), d) - 0.5j * (
        noise.rate_down * a.conj().T @ a + noise.rate_up * a @ a.conj().T)
    for dt in (1e-3, 0.7, 5.0):
        u = expm(-1j * dt * k)
        reference = 1.0 - np.trace(u @ _flat(st) @ u.conj().T).real
        sim, _ = opensys.short_time_jump_probability(st, noise, dt)
        assert abs(sim - reference) <= 1e-12


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
def test_short_time_jump_probability_needs_a_finite_positive_interval(dt):
    st = opensys._thermal_with_ancilla(1.0, 8)
    with pytest.raises(ValueError):
        opensys.short_time_jump_probability(st, NoiseParams(Q=1e6, N_th=100.0, eta=0.016), dt)


def test_trajectories_converge_to_master_small_case():
    noise = NoiseParams(Q=30.0, N_th=0.4, eta=0.03)
    d = 12
    st = _plus_thermal(0.5, d)
    sched = pulses.build_h2_sequence(hparams(0.03), 1)
    master = opensys.evolve_master(st, sched, noise)
    ens = opensys.jump_unravelling(st, sched, noise, np.random.default_rng(42), 600)
    assert opensys.trace_distance(master, ens.mean_state) <= 3 / math.sqrt(600)
    assert ens.mean_jumps > 0.5  # the regime genuinely produces jumps


def _diagonal_density(d):
    """A Fock-diagonal input: 0.7 |0><0| + 0.3 |1><1| beside a thermal mode."""
    w = np.kron([0.7, 0.3], thermal.thermal_weights(0.5, d))
    return np.diag(w / w.sum()).astype(complex).reshape(2, d, 2, d)


def _noisy_unravelling_case(d=8):
    noise = NoiseParams(Q=30.0, N_th=0.4, eta=0.03)
    return noise, pulses.build_h2_sequence(hparams(0.03), 1), _diagonal_density(d)


def test_jump_unravelling_seeded_runs_are_identical():
    noise, sched, st = _noisy_unravelling_case()
    a, b = (opensys.jump_unravelling(st, sched, noise, np.random.default_rng(5), 200)
            for _ in range(2))
    assert a.mean_jumps > 0.0
    assert np.array_equal(a.jump_counts, b.jump_counts)
    assert np.array_equal(a.mean_state, b.mean_state)


def _eigen_mixture(rho):
    """Weights and columns of a (2, d, 2, d) density's eigenvectors above
    1e-12: the mixture the unravelling samples its start columns from."""
    lam, vec = np.linalg.eigh(_flat(rho))
    keep = np.flatnonzero(lam > 1e-12)
    return lam[keep] / lam[keep].sum(), vec[:, keep]


def test_jump_unravelling_without_jumps_matches_per_trajectory_loop():
    # with Q = 1e300 no column crosses its threshold and both routes are exact
    d, n_traj, seed = 8, 40, 3
    noise = NoiseParams(Q=1e300, eta=0.03)
    sched = pulses.build_h2_sequence(hparams(0.03), 1)
    st = _diagonal_density(d)
    ens = opensys.jump_unravelling(st, sched, noise, np.random.default_rng(seed), n_traj)
    assert ens.mean_jumps == 0.0
    h = {pulses.FreeEvolution: pulses.hamiltonian(hparams(0.03), d),
         pulses.WaitingPeriod: pulses.hamiltonian(hparams(0.0), d)}
    # the unravelling's first draw picks every start column of the input's eigenbasis
    weights, columns = _eigen_mixture(st)
    starts = np.random.default_rng(seed).choice(weights.size, size=n_traj, p=weights)
    ref = np.zeros((2 * d, 2 * d), dtype=complex)
    for start in starts:
        psi = columns[:, start]
        for seg in sched.segments:
            if isinstance(seg, pulses.QubitRotation):
                psi = dense.qubit_rotation(SpaceLayout(1, (d,)), seg.axis, seg.angle) @ psi
            else:
                psi = expm(-1j * seg.duration * h[type(seg)]) @ psi
        ref += np.outer(psi, psi.conj()) / n_traj
    assert np.abs(_flat(ens.mean_state) - ref).max() <= 1e-12


JUMP_BISECTION_LEVELS = 40


class DyadicLadder:
    """Dyadic ladder of no-jump propagators for one segment: level j (covering
    duration/2^j) is expm(-i duration/2^j K), one d x d block per ancilla
    level stacked to (levels, d, d)."""

    def __init__(self, k_blocks, duration):
        self.k_blocks = k_blocks
        self.duration = duration
        self._ladder = {}

    def level(self, j):
        if j not in self._ladder:
            self._ladder[j] = expm(-1j * (self.duration / 2 ** j) * self.k_blocks)
        return self._ladder[j]


def bisect_jumps(psi, r_target, ladder, jump_ops, rng):
    """Carry one (levels, d, 1) column across a segment whose full step fell
    below its norm threshold: walk it in dyadic chunks and bisect around each
    jump, applied at the start of a chunk of duration/2^40.  Returns
    (psi, r_target, jumps)."""
    jumps = 0
    stack = [1, 1]  # levels; level j covers duration/2^j (level 0 crossed)
    while stack:
        j = stack.pop()
        cand = ladder.level(j) @ psi
        n2 = float(np.vdot(cand, cand).real)
        if n2 >= r_target:
            psi = cand
            continue
        if j >= JUMP_BISECTION_LEVELS:
            norms = np.array([rate * float(np.vdot(op @ psi, op @ psi).real)
                              for rate, op in jump_ops])
            pick = rng.choice(len(jump_ops), p=norms / norms.sum())
            jumped = jump_ops[pick][1] @ psi
            psi = jumped / np.linalg.norm(jumped)
            r_target = rng.random()
            jumps += 1
            stack.append(j)  # redo the chunk after the jump
            continue
        stack.append(j + 1)  # second half (processed after the first)
        stack.append(j + 1)  # first half
    return psi, r_target, jumps


def per_segment_unravelling(state, schedule, noise, rng, n_traj):
    """Every column stepped through every timed segment by `expm`, crossed
    columns bisected on a dyadic ladder in column order: the cross-check of
    the period screening and the eigenbasis root find in `jump_unravelling`,
    which must make the same random draws."""
    d = state.shape[1]
    segs = schedule.segments
    props = {seg: DyadicLadder(dense.no_jump_generator(noise, type(seg), d), seg.duration)
             for seg in set(segs)
             if isinstance(seg, (pulses.FreeEvolution, pulses.WaitingPeriod)) and seg.duration > 0}
    a = dense.annihilation(SpaceLayout(0, (d,)), 0)
    jump_ops = [(noise.rate_down, a), (noise.rate_up, a.conj().T)]
    weights, columns = _eigen_mixture(state)
    psi = columns[:, rng.choice(weights.size, size=n_traj, p=weights)]
    psi = psi.reshape(2, d, n_traj)
    r_target = rng.random(n_traj)
    jump_counts = np.zeros(n_traj, dtype=int)
    for seg in segs:
        if isinstance(seg, pulses.QubitRotation):
            r = fock.qubit_rotation_matrix(seg.axis, seg.angle)
            psi = (r @ psi.reshape(2, -1)).reshape(psi.shape)
            continue
        if seg.duration == 0.0:
            continue
        ladder = props[seg]
        stepped = ladder.level(0) @ psi
        crossed = np.flatnonzero((np.abs(stepped) ** 2).sum(axis=(0, 1)) < r_target)
        for c in crossed:
            stepped[..., c:c + 1], r_target[c], jumps = bisect_jumps(
                psi[..., c:c + 1], r_target[c], ladder, jump_ops, rng)
            jump_counts[c] += jumps
        psi = stepped
    psi = psi.reshape(-1, n_traj)
    psi = psi / np.linalg.norm(psi, axis=0)
    return jump_counts, psi @ psi.conj().T / n_traj


def _unravelling_cases():
    rotated = pulses.PulseSchedule((
        pulses.FreeEvolution(1.1), pulses.QubitRotation("x", 0.4), pulses.FreeEvolution(0.0),
        pulses.WaitingPeriod(0.7), pulses.QubitRotation("y", -0.3), pulses.FreeEvolution(0.5)))
    noisy = NoiseParams(Q=30.0, N_th=0.4, eta=0.03)
    return {
        "engineered": (_diagonal_density(8), pulses.build_h2_sequence(hparams(0.03), 2), noisy),
        "no-repeat": (_random_density(6, 13), rotated, NoiseParams(Q=5.0, N_th=0.6, eta=0.05)),
        "several-jumps": (opensys._thermal_with_ancilla(0.5, 14),
                          pulses.PulseSchedule((pulses.FreeEvolution(4.0),
                                                pulses.QubitRotation("x", 0.7))),
                          NoiseParams(Q=2.0, N_th=1.0, eta=0.1)),
        "empty": (_diagonal_density(6), pulses.PulseSchedule(()), noisy),
        # 124 periods, so blocks of 11 with a short last block of 3; most
        # columns pass whole blocks without a jump
        "hot-bath-blocks": (opensys._thermal_with_ancilla(1.0, 10),
                            pulses.build_h2_sequence(hparams(0.016), 31),
                            NoiseParams(Q=1e6, N_th=100.0, eta=0.016)),
        # about 0.8 jumps per trajectory and unit time: tens of columns cross
        # in every segment, and some of them twice
        "crowded": (opensys._thermal_with_ancilla(1.0, 10),
                    pulses.PulseSchedule((pulses.FreeEvolution(0.8),
                                          pulses.QubitRotation("x", 0.5),
                                          pulses.WaitingPeriod(0.6),
                                          pulses.QubitRotation("y", 0.3)) * 2),
                    NoiseParams(Q=5.0, N_th=1.0, eta=0.08)),
    }


@pytest.mark.parametrize("case", ["engineered", "no-repeat", "several-jumps", "empty",
                                  "hot-bath-blocks", "crowded"])
def test_period_screening_matches_per_segment_unravelling(case, monkeypatch):
    st, sched, noise = _unravelling_cases()[case]
    searches = []  # (columns searched together, their jump counts) per segment
    search = opensys._SegmentPropagators.jumps_across

    def recorded(self, psi, r_target, duration, rng):
        out = search(self, psi, r_target, duration, rng)
        searches.append((psi.shape[-1], max(out[2])))
        return out

    monkeypatch.setattr(opensys._SegmentPropagators, "jumps_across", recorded)
    ens = opensys.jump_unravelling(st, sched, noise, np.random.default_rng(17), 200)
    counts, mean = per_segment_unravelling(st, sched, noise, np.random.default_rng(17), 200)
    assert np.array_equal(ens.jump_counts, counts)
    assert np.abs(_flat(ens.mean_state) - mean).max() <= 1e-12
    if case == "empty":
        assert ens.mean_jumps == 0.0
    else:
        assert ens.mean_jumps > 0.0
    if case == "crowded":
        assert min(k for k, _ in searches) >= 20
        assert max(jumps for _, jumps in searches) >= 2


def test_stacked_jump_search_matches_one_column_at_a_time():
    # k columns searched together end where k searches of one column each
    # end, with the same thresholds, jump counts and draws
    d, k, duration = 6, 16, 2.0
    noise = NoiseParams(Q=2.0, N_th=0.8, eta=0.1)
    props = opensys._SegmentPropagators(noise, d, pulses.FreeEvolution)
    rng = np.random.default_rng(23)
    psi = rng.standard_normal((2, d, k)) + 1j * rng.standard_normal((2, d, k))
    psi /= np.linalg.norm(psi.reshape(-1, k), axis=0)
    end_norms = np.linalg.norm((props.step(duration) @ psi).reshape(-1, k), axis=0) ** 2
    r_target = end_norms + rng.random(k) * (1.0 - end_norms)  # every full step crosses
    stacked, single = np.random.default_rng(5), np.random.default_rng(5)
    out, thresholds, jumps = props.jumps_across(psi, r_target, duration, stacked)
    assert out.shape == psi.shape
    for c in range(k):
        one, (threshold,), (count,) = props.jumps_across(psi[..., c:c + 1], r_target[c:c + 1],
                                                         duration, single)
        assert np.abs(one[..., 0] - out[..., c]).max() <= 1e-12
        assert threshold == thresholds[c]
        assert count == jumps[c]
    assert stacked.bit_generator.state == single.bit_generator.state
    assert max(jumps) >= 2  # some column crossed again inside the segment


@pytest.mark.parametrize("d", [3, 8])
def test_jump_weights_and_pick_match_operator_norms_and_rng_choice(d):
    # weights from |psi|^2 against rate |O psi|^2 with the truncated operators
    # (a^dag |d-1> = 0), and the one-uniform pick against rng.choice
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1).astype(complex)
    rng = np.random.default_rng(d)
    for n_th in (0.0, 0.8):
        noise = NoiseParams(Q=7.0, N_th=n_th, eta=0.05)
        props = opensys._SegmentPropagators(noise, d, pulses.FreeEvolution)
        for trial in range(100):
            psi = rng.standard_normal((2, d, 1)) + 1j * rng.standard_normal((2, d, 1))
            psi[:, -1] *= 4.0 * rng.random()  # anything from none to most on the top level
            if trial == 0:
                psi[:, :-1] = 0.0  # the top level alone: no a^dag weight at all
            weights = np.array(props._read(psi[None])[0][2:4])
            expected = [rate * np.vdot(op @ psi, op @ psi).real
                        for rate, op in ((noise.rate_down, a), (noise.rate_up, a.conj().T))]
            np.testing.assert_allclose(weights, expected, rtol=1e-14, atol=0.0)
            chooser = copy.deepcopy(rng)
            assert opensys._pick_jump(weights, rng) == chooser.choice(2, p=weights / weights.sum())
            assert rng.bit_generator.state == chooser.bit_generator.state


@settings(max_examples=25, deadline=None)
@given(q=st.floats(1.0, 50.0), n_th=st.floats(0.0, 1.0), eta=st.floats(0.0, 0.2),
       d=st.integers(3, 6), durations=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_root_find_matches_dyadic_ladder(q, n_th, eta, d, durations, seed):
    segs = []
    for i, t in enumerate(durations):
        segs.append(pulses.FreeEvolution(t) if i % 2 == 0 else pulses.WaitingPeriod(t))
        segs.append(pulses.QubitRotation("xy"[i % 2], 0.3 * (i + 1)))
    sched = pulses.PulseSchedule(tuple(segs))
    noise = NoiseParams(Q=q, N_th=n_th, eta=eta)
    st_in = _random_density(d, seed)
    ens = opensys.jump_unravelling(st_in, sched, noise, np.random.default_rng(seed), 50)
    counts, _ = per_segment_unravelling(st_in, sched, noise, np.random.default_rng(seed), 50)
    assert np.array_equal(ens.jump_counts, counts)


def test_ill_conditioned_no_jump_eigenbasis_is_refused():
    # strong damping at a large coupling: K nearly defective, cond(V) ~ 1e9
    noise = NoiseParams(Q=0.5, eta=3.0)
    st = opensys._thermal_with_ancilla(0.5, 40)
    sched = pulses.PulseSchedule((pulses.FreeEvolution(0.1),))
    with pytest.raises(ValueError, match=r"cond .* Q = 0\.5, eta = 3\.0, cutoff 40"):
        opensys.jump_unravelling(st, sched, noise, np.random.default_rng(0), 10)
    with pytest.raises(ValueError, match="cond"):
        opensys.short_time_jump_probability(st, noise, 1e-3)
    # waiting segments alone have a diagonal K and pass
    wait = pulses.PulseSchedule((pulses.WaitingPeriod(0.1),))
    opensys.jump_unravelling(st, wait, noise, np.random.default_rng(0), 10)


@pytest.mark.parametrize("n_traj", [2.5, True, "3", None])
def test_trajectory_count_must_be_an_integer(n_traj):
    noise, sched, st = _noisy_unravelling_case(4)
    with pytest.raises(ValueError):
        opensys.jump_unravelling(st, sched, noise, np.random.default_rng(0), n_traj)
    hot = NoiseParams(Q=1e6, N_th=100.0, eta=0.016)
    with pytest.raises(ValueError):
        opensys.epsilon_tqp_trajectory_check(hot, 1.0, np.random.default_rng(0), n_traj=n_traj,
                                             cutoff=4)


@pytest.mark.parametrize("kind", ["diagonal", "non-diagonal"])
def test_jump_unravelling_matches_master_for_each_input_kind(kind):
    d, n_traj = 8, 600
    noise, sched, st = _noisy_unravelling_case(d)
    if kind == "non-diagonal":
        st = _random_density(d, 11)
    master = opensys.evolve_master(st, sched, noise)
    ens = opensys.jump_unravelling(st, sched, noise, np.random.default_rng(9), n_traj)
    assert ens.mean_jumps > 0.0
    assert opensys.trace_distance(master, ens.mean_state) <= 3 / math.sqrt(n_traj)


def test_jump_unravelling_several_jumps_in_one_segment():
    # one long segment at a high jump rate: columns jump repeatedly inside it,
    # each jump bisected and its chunk redone
    d, n_traj = 14, 400
    noise = NoiseParams(Q=2.0, N_th=1.0, eta=0.1)
    sched = pulses.PulseSchedule((pulses.FreeEvolution(4.0), pulses.QubitRotation("x", 0.7)))
    st = opensys._thermal_with_ancilla(0.5, d)
    master = opensys.evolve_master(st, sched, noise)
    ens = opensys.jump_unravelling(st, sched, noise, np.random.default_rng(4), n_traj)
    assert ens.mean_jumps > 2.0
    assert opensys.trace_distance(master, ens.mean_state) <= 3 / math.sqrt(n_traj)
    # the mean count is the master equation's jump rate integrated over the segment
    a = dense.annihilation(SpaceLayout(1, (d,)), 0)
    rate_op = noise.rate_down * a.conj().T @ a + noise.rate_up * a @ a.conj().T
    times = np.linspace(0.0, 4.0, 21)
    rates = [np.trace(rate_op @ _flat(opensys.evolve_master(
        st, pulses.PulseSchedule((pulses.FreeEvolution(t),)), noise))).real
        for t in times]
    expected = simpson(rates, x=times)
    stderr = ens.jump_counts.std() / math.sqrt(n_traj)
    assert abs(ens.mean_jumps - expected) <= 4 * stderr


@pytest.mark.parametrize("shape", [(16,), (3, 8), (2, 8, 2), (2, 8, 2, 7), (2, 8, 1, 8),
                                   (3, 8, 3, 8), (0, 8), (2, 0, 2, 0), (2, 8), (1, 8),
                                   (1, 8, 1, 8)])
def test_open_system_state_shape_is_checked(shape):
    # a state is a (2, d, 2, d) density array: no pure state, no mode alone
    noise, sched, _ = _noisy_unravelling_case(4)
    state = np.zeros(shape, dtype=complex)
    for run in (lambda: opensys.evolve_master(state, sched, noise),
                lambda: opensys.jump_unravelling(state, sched, noise, np.random.default_rng(0), 2),
                lambda: opensys.short_time_jump_probability(state, noise, 1e-3)):
        with pytest.raises(fock.LayoutError, match=re.escape("(2, d, 2, d)")):
            run()
    assert issubclass(fock.LayoutError, ValueError)  # the CLI's usage-error path


@pytest.mark.parametrize("n_traj", [0, -1])
def test_trajectory_count_must_be_positive(n_traj):
    noise, sched, st = _noisy_unravelling_case(4)
    with pytest.raises(ValueError):
        opensys.jump_unravelling(st, sched, noise, np.random.default_rng(0), n_traj)
    hot = NoiseParams(Q=1e6, N_th=100.0, eta=0.016)
    with pytest.raises(ValueError):
        opensys.epsilon_tqp_trajectory_check(hot, 1.0, np.random.default_rng(0), n_traj=n_traj,
                                             cutoff=4)


def test_fidelity_exact_gate_is_one():
    for n_mean in (0.2, 1.0, 3.0):
        pt = opensys.fidelity_point(n_mean, (50, pulses.eta_for_repetitions(50)),
                                    noise="exact-gate")
        assert pt.fidelity == pytest.approx(1.0, abs=1e-10)
        assert pt.p_plus + pt.p_minus == pytest.approx(1.0, abs=1e-8)
        assert pt.baseline == pytest.approx(1 / (n_mean + 1))


def test_fidelity_point_reports_the_truncation_tail():
    # the exact gate is diagonal, so the tail is the thermal input's top-level weight
    config = (50, pulses.eta_for_repetitions(50))
    exact = opensys.fidelity_point(4.0, config, noise="exact-gate", cutoff=12)
    w = thermal.thermal_weights(4.0, 12)
    assert exact.truncation_tail == pytest.approx(w[-1] / w.sum(), rel=1e-14)
    # the engineered gate at <n> = 4: negligible at the default cutoff, not at 12
    default = opensys.fidelity_point(4.0, config)
    assert default.cutoff == 66
    assert default.truncation_tail == pytest.approx(4.7546e-7, rel=1e-4)
    small = opensys.fidelity_point(4.0, config, cutoff=12)
    assert small.truncation_tail == pytest.approx(1.8794e-2, rel=1e-4)


def test_fidelity_point_takes_coupling_from_config():
    # a bath without its own eta still runs the configured coupling
    config = (50, pulses.eta_for_repetitions(50))
    ideal = opensys.fidelity_point(0.5, config)
    closed_bath = opensys.fidelity_point(0.5, config, noise=NoiseParams(Q=1e300))
    assert closed_bath.fidelity == pytest.approx(ideal.fidelity, abs=1e-6)


def test_fidelity_point_refuses_a_bath_whose_eta_disagrees_with_the_config():
    # a bath's own eta may be 0 or the configured coupling; any other is refused
    config = (50, pulses.eta_for_repetitions(50))
    unset = opensys.fidelity_point(0.5, config, noise=NoiseParams(Q=1e4, N_th=0.5), cutoff=8)
    same = opensys.fidelity_point(0.5, config, noise=NoiseParams(Q=1e4, N_th=0.5, eta=config[1]),
                                  cutoff=8)
    assert same == unset
    refusal = rf"eta = 0\.03 disagrees .* eta = {re.escape(repr(config[1]))}"
    with pytest.raises(ValueError, match=refusal):
        opensys.fidelity_point(0.5, config, noise=NoiseParams(Q=1e4, N_th=0.5, eta=0.03),
                               cutoff=8)


_CONFIG_50 = (50, pulses.eta_for_repetitions(50))


@pytest.mark.parametrize("call, value", [
    (lambda: opensys.fidelity_point(0.5, _CONFIG_50, cutoff=2.5), "2.5"),
    (lambda: opensys.fidelity_point(0.5, _CONFIG_50, cutoff=True), "True"),
    (lambda: opensys.fidelity_point(0.5, _CONFIG_50, cutoff=1), "1"),
    (lambda: opensys.fidelity_point(0.5, _CONFIG_50, cutoff=0), "0"),
    (lambda: opensys.epsilon_tqp_trajectory_check(NoiseParams(Q=1e6, N_th=100.0, eta=0.016), 1.0,
                                                  np.random.default_rng(0), cutoff=2.5), "2.5"),
])
def test_cutoffs_must_be_integers_of_at_least_two(call, value):
    # each is a ValueError naming the value, raised before any numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"got {re.escape(value)}$"):
            call()


def test_fidelity_point_refuses_an_overflowing_generator_naming_noise_and_cutoff():
    # rates of 1e307 overflow the Liouvillian's 1-norm: refused before any warning
    noise = NoiseParams(Q=1e-307)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"\(noise NoiseParams\(Q=1e-307.*cutoff 6\)"):
            opensys.fidelity_point(0.5, (1, pulses.eta_for_repetitions(50)), noise=noise, cutoff=6)


@pytest.mark.parametrize("n_mean", [0.2, 4.0])
def test_closed_fidelity_point_keeps_trace_at_the_largest_repetition_count(n_mean):
    # 10^6 sequences, the most the CLI accepts: the engineered gate's power
    # stays unitary to rounding, so the closed route passes the trace check
    reps = 10 ** 6
    pt = opensys.fidelity_point(n_mean, (reps, pulses.eta_for_repetitions(reps)))
    assert pt.trace_defect == abs(pt.p_plus + pt.p_minus - 1.0) <= opensys.BRANCH_TRACE_TOL


def test_fidelity_config_ordering_at_reference_point(measurement_configs):
    pts = [opensys.fidelity_point(2.0, cfg) for cfg in measurement_configs]
    f50, f100, f200 = (p.fidelity for p in pts)
    assert f200 > f100 > f50
    assert all(p.fidelity > 1.0 / 3.0 for p in pts)  # above the thermal baseline


def test_fidelity_degenerate_branch_convention():
    # zero temperature: the odd branch is empty and contributes factor 1
    pt = opensys.fidelity_point(0.0, (50, pulses.eta_for_repetitions(50)),
                                noise="exact-gate", cutoff=10)
    assert pt.p_minus < 1e-9
    assert pt.fidelity == pytest.approx(1.0, abs=1e-9)


def test_epsilon_closed_form_values_and_scaling():
    noise = NoiseParams(Q=1e6, N_th=0.0, eta=0.016)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert opensys.epsilon_tqp(noise, 0.0) == 0.0
    noise_hot = NoiseParams(Q=1e6, N_th=100.0, eta=0.016)
    e1 = opensys.epsilon_tqp(noise_hot, 1.0)
    assert e1 == pytest.approx(301 * 9 * math.pi / (64 * 0.016 ** 2 * 1e6), rel=1e-12)
    e2 = opensys.epsilon_tqp(noise_hot, 1.0, eta=0.032)
    assert e1 / e2 == pytest.approx(4.0, rel=1e-12)
    with pytest.warns(UserWarning):
        opensys.epsilon_tqp(NoiseParams(Q=1e6, N_th=1.0, eta=0.016), 1.0)


def test_expected_jump_count_first_order_limit():
    # kappa T -> 0 over the implied duration 9 pi/(64 eta^2 nu): the closed form
    noise = NoiseParams(Q=1e12, N_th=100.0, eta=0.016)
    implied = 9 * math.pi / (64 * 0.016 ** 2)
    exact = opensys.expected_jump_count(noise, 1.0, implied)
    assert exact == pytest.approx(opensys.epsilon_tqp(noise, 1.0), rel=1e-7)
    # a cold bath only drains the initial excitation
    cold = NoiseParams(Q=10.0, eta=0.016)
    assert opensys.expected_jump_count(cold, 1.5, 20.0) == pytest.approx(
        1.5 * -math.expm1(-2.0), rel=1e-14)


def test_trajectory_check_follows_the_exact_count_at_large_kappa_t():
    # kappa T = 4 over four sequences: the mode relaxes towards N_th during the
    # run, so the first-order closed form overshoots by many standard errors
    eta = math.sqrt(1 / 512)
    duration = 4 * 18 * math.pi
    noise = NoiseParams(Q=duration / 4.0, N_th=0.5, eta=eta)
    n_traj, cutoff = 400, 14
    expected, traj = opensys.epsilon_tqp_trajectory_check(
        noise, 1.0, np.random.default_rng(5), n_traj=n_traj, cutoff=cutoff)
    # the same run again, for the spread of the jump counts
    ens = opensys.jump_unravelling(opensys._thermal_with_ancilla(1.0, cutoff),
                                   pulses.build_h2_sequence(noise.hybrid_params(), 4),
                                   noise, np.random.default_rng(5), n_traj)
    assert ens.mean_jumps == traj
    stderr = ens.jump_counts.std() / math.sqrt(n_traj)
    assert abs(traj - expected) <= 3 * stderr
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # N_th is not >> <n> here
        first_order = opensys.epsilon_tqp(noise, 1.0)
    assert abs(traj - first_order) > 6 * stderr


@pytest.mark.parametrize("q, n_th", [(1e-300, 1.0), (1.0, 1e12)])
def test_fidelity_point_refuses_a_diverged_master_equation(q, n_th):
    # the first overflows to NaN in the exponential's squarings, which numpy
    # reports; the second loses trace (p+ + p- = 0.929 at this cutoff); neither
    # may report a fidelity
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=r"Q=.*N_th=.*cutoff 6"):
            opensys.fidelity_point(0.5, (1, pulses.eta_for_repetitions(50)),
                                   noise=NoiseParams(Q=q, N_th=n_th), cutoff=6)
    assert any(issubclass(w.category, RuntimeWarning) for w in caught) == (q == 1e-300)


def test_fidelity_point_stays_finite_deep_in_the_overdamped_regime():
    # at kappa = nu/Q >> nu the mode follows the bath at once and only
    # dephases the ancilla during each free segment (motional narrowing), at
    # the rate 8 g^2 (2 N_th + 1) Q/nu / (1 + 4 Q^2), g = eta nu, N_th = 0: an
    # ancilla alone, rotated as scheduled, is the independent reference.  At
    # Q = 1e-10 this moves p+ by 5e-12 from Q = 1e-300; at Q = 1e-6 by 4.9e-8
    reps, eta = 1, pulses.eta_for_repetitions(50)
    sched = pulses.build_h2_sequence(pulses.HybridHamiltonianParams(eta=eta), reps) + \
        pulses.PulseSchedule((pulses.frame_correction(eta, reps),))
    for q in (1e-300, 1e-10, 1e-6):
        pt = opensys.fidelity_point(0.5, (reps, eta), noise=NoiseParams(Q=q), cutoff=6)
        rate = 8.0 * eta ** 2 * q / (1.0 + 4.0 * q ** 2)
        anc = np.full((2, 2), 0.5, dtype=complex)  # |+><+|
        for seg in sched.segments:
            if isinstance(seg, pulses.QubitRotation):
                r = fock.qubit_rotation_matrix(seg.axis, seg.angle)
                anc = r @ anc @ r.conj().T
            elif isinstance(seg, pulses.FreeEvolution):
                coherence = math.exp(-rate * seg.duration)
                anc = anc * np.array([[1.0, coherence], [coherence, 1.0]])
        p_plus = 0.5 * (anc[0, 0] + anc[1, 1] + anc[0, 1] + anc[1, 0]).real
        assert abs(pt.p_plus - p_plus) <= 1e-13
        assert abs(pt.p_minus - (1.0 - p_plus)) <= 1e-13


@pytest.mark.parametrize("q", [1e-6, 1e-10])
def test_free_segment_matches_a_high_precision_exponential_deep_in_the_overdamped_regime(q):
    # a 40-digit exponential of the coherence block's truncated Liouvillian:
    # the factored route agrees to rounding (1.8e-15), where the
    # double-precision Pade of the same Liouvillian is 2.9e-10 off at Q = 1e-6
    import mpmath
    d = 4
    noise = NoiseParams(Q=q, eta=pulses.eta_for_repetitions(50))
    x0 = np.random.default_rng(3).standard_normal((d, d)) * (1.0 + 0.5j)
    rho = np.zeros((2, d, 2, d), dtype=complex)
    rho[0, :, 1, :], rho[1, :, 0, :] = x0, x0.conj().T
    seg = pulses.FreeEvolution(math.pi)
    got = opensys.evolve_master(rho, pulses.PulseSchedule((seg,)), noise)[0, :, 1, :]
    with mpmath.workdps(40):
        gen = mpmath.matrix((dense.block_liouvillian(noise, pulses.FreeEvolution, 0, 1, d)
                             * seg.duration).tolist())
        exact = mpmath.expm(gen) * mpmath.matrix(x0.reshape(-1).tolist())
    exact = np.array(exact.tolist(), dtype=complex).reshape(d, d)
    assert np.abs(got - exact).max() <= 1e-13


def test_fidelity_point_refuses_a_master_equation_that_lost_trace():
    # each branch probability stays in [0, 1] (p+ = p- = 0.566), but their
    # sum is 1.131: the run may not report a fidelity
    with pytest.raises(ValueError, match=r"lost trace .*Q=1\.0.*N_th=1000000000000\.0.*cutoff 4"):
        opensys.fidelity_point(0.5, (50, pulses.eta_for_repetitions(50)),
                               noise=NoiseParams(Q=1.0, N_th=1e12), cutoff=4)


def test_open_system_solvers_load_no_scipy():
    # in a fresh process: this one has loaded scipy for the cross-checks
    env = dict(os.environ)
    src = str(Path(opensys.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = """if True:
        import sys
        import numpy as np
        from tqpsim import opensys, pulses
        eta = pulses.eta_for_repetitions(50)
        noise = opensys.NoiseParams(Q=300.0, N_th=0.5, eta=eta)
        state = opensys._thermal_with_ancilla(0.5, 6)
        sched = pulses.build_h2_sequence(noise.hybrid_params(), 1)
        opensys.evolve_master(state, sched, noise)
        opensys.jump_unravelling(state, sched, noise, np.random.default_rng(0), 20)
        opensys.fidelity_point(0.5, (50, eta), noise=noise, cutoff=6)
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_bath_fidelity_point_stays_small_in_a_fresh_process():
    # n = 2 at 200 sequences (d = 39): the per-block d^2 x d^2 Pade
    # propagators peaked at 634 MB there at 50 sequences
    env = dict(os.environ)
    src = str(Path(opensys.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # VmHWM is the high-water mark of the process's own memory map (ru_maxrss
    # also holds the RSS of the parent it was forked from)
    script = """if True:
        import re, sys
        from tqpsim import opensys, pulses
        pt = opensys.fidelity_point(2.0, (200, pulses.eta_for_repetitions(200)),
                                    noise=opensys.NoiseParams(Q=1e4, N_th=0.5))
        status = open("/proc/self/status").read()
        print(pt.cutoff, re.search(r"VmHWM:\\s*(\\d+) kB", status).group(1),
              any(m.split(".")[0] == "scipy" for m in sys.modules))
    """
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    cutoff, peak_kb, scipy_loaded = proc.stdout.split()
    assert cutoff == "39"
    assert int(peak_kb) / 1024 < 150
    assert scipy_loaded == "False"


def test_cooling_rate_zeros_and_optimum_scaling():
    noise = NoiseParams(Q=1e6, N_th=100.0, eta=0.016, Gamma_dc=0.01, Gamma_dp=100.0)
    assert opensys.cooling_rate(noise, 0.0, 1.0) == 0.0
    assert opensys.cooling_rate(noise, 1.0, 0.0) == 0.0
    comp = opensys.cooling_comparison(noise, n_mean=1.0)
    assert 0.25 <= comp.scaling_ratio <= 4.0
    assert comp.sideband_unresolved
    assert comp.epsilon_cool == pytest.approx(100.0 * 1e-6 / comp.gamma_c, rel=1e-12)
    # parity-encoding advantage at <n> = 1 and Gamma_dp/Gamma_dc = 1e4
    assert comp.epsilon_tqp / comp.epsilon_cool < 0.1
    assert comp.advantage_flag


@pytest.mark.parametrize("eta, gdc, gdp", [(0.016, 0.01, 100.0), (0.1, 0.3, 3.0)])
def test_cooling_optimum_is_the_closed_form_maximum(eta, gdc, gdp):
    noise = NoiseParams(Q=1e6, N_th=100.0, eta=eta, Gamma_dc=gdc, Gamma_dp=gdp)
    comp = opensys.cooling_comparison(noise)
    assert opensys.cooling_rate(noise, comp.delta_opt, comp.omega_opt) == pytest.approx(
        comp.gamma_c, rel=1e-12)
    span = np.logspace(-3, 5, 161)
    rates = [opensys.cooling_rate(noise, d, o) for d in span for o in span]
    assert max(rates) <= comp.gamma_c * (1 + 1e-12)
    with pytest.raises(ValueError):
        opensys.cooling_comparison(replace(noise, eta=0.0))


def test_pure_state_rhs_rejected():
    st = _plus_fock(0, 6)
    h = pulses.hamiltonian(hparams(0.0), 6)
    with pytest.raises(fock.StateError):
        dense.lindblad_rhs(st, h, NoiseParams(Q=10.0))


@pytest.mark.filterwarnings("ignore:eta = .* is large for the engineered sequence:UserWarning")
@pytest.mark.parametrize("reps", [1, 50, 200, 10 ** 6])
@pytest.mark.parametrize("n_mean", [0.0, 0.2, 1.0, 4.0, 10.0])
def test_column_readout_matches_dense_conjugation(n_mean, reps):
    # the ideal-sequence route reads p+-, the fidelity and the tail off the
    # gate's |+, k> columns; the same gate on the dense thermal state agrees
    config = (reps, pulses.eta_for_repetitions(reps))
    pt = opensys.fidelity_point(n_mean, config)
    gate = pulses.engineered_controlled_parity(
        pulses.HybridHamiltonianParams(eta=config[1]), pt.cutoff, reps)
    ref = dense.dense_gate_readout(gate, n_mean)
    got = (pt.p_plus, pt.p_minus, pt.fidelity, pt.truncation_tail)
    assert np.abs(np.subtract(got, ref)).max() <= 1e-12


@pytest.mark.parametrize("reps", [50, 100, 200])
def test_exact_gate_column_readout_matches_the_literal_density_route(reps):
    # the exact gate's |+, k> columns against C rho C read out through the
    # ancilla's X-basis branches, on the default fidelity-sweep grid
    config = (reps, pulses.eta_for_repetitions(reps))
    for n_mean in [round(0.2 + i * 0.2, 12) for i in range(20)]:
        pt = opensys.fidelity_point(n_mean, config, noise="exact-gate")
        d = pt.cutoff
        rho = dense.apply_controlled_parity(opensys._thermal_with_ancilla(n_mean, d))
        ref = dense.branch_readout(rho.reshape(2 * d, 2 * d))
        got = (pt.p_plus, pt.p_minus, pt.fidelity, pt.truncation_tail)
        assert np.abs(np.subtract(got, ref)).max() <= 1e-15


def test_bath_readout_is_the_x_basis_branches_bit_for_bit(monkeypatch):
    # the bath route reads its branch populations off the diagonals of rho's
    # ancilla blocks; the X-basis branches of the same rho give the same bits
    states = []
    evolve = opensys.evolve_master
    monkeypatch.setattr(opensys, "evolve_master",
                        lambda *args: states.append(evolve(*args)) or states[-1])
    pt = opensys.fidelity_point(0.5, (50, pulses.eta_for_repetitions(50)),
                                noise=NoiseParams(Q=1e4, N_th=0.5))
    (rho,) = states
    d = pt.cutoff
    # the branches' Fock populations, stacked and reduced as fidelity_point does
    pops = np.stack([b.diagonal().real for b in dense.x_basis_branches(rho.reshape(2 * d, 2 * d))])
    probs = [float(p) for p in pops.sum(axis=1)]
    traces = [1.0 + sign * float(pop @ fock.parity_diag(d)) / p
              for sign, pop, p in zip((+1, -1), pops, probs)]
    assert (pt.p_plus, pt.p_minus) == tuple(probs)
    assert pt.fidelity == traces[0] * traces[1] / 4.0
    assert pt.truncation_tail == float(pops[:, -1].sum())
