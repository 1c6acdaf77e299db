import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.linalg import expm

import dense_reference as dense
from tqpsim import fock, opensys, pulses, thermal
from tqpsim.fock import HybridState, SpaceLayout
from tqpsim.opensys import NoiseParams


def _plus_fock_density(n_mode: int, cutoff: int) -> HybridState:
    lay = SpaceLayout(1, (cutoff,))
    rho_mode = np.zeros((cutoff, cutoff), dtype=complex)
    rho_mode[n_mode, n_mode] = 1.0
    plus = np.outer(fock.KET_PLUS, fock.KET_PLUS.conj())
    return HybridState.density(lay, np.kron(plus, rho_mode))


def _random_density(d, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((2 * d, 2 * d)) + 1j * rng.standard_normal((2 * d, 2 * d))
    rho = m @ m.conj().T
    return HybridState.density(SpaceLayout(1, (d,)), rho / np.trace(rho))


def hparams(eta, nu=1.0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return pulses.HybridHamiltonianParams(eta=eta, nu=nu)


def rk4_reference(state: HybridState, schedule: pulses.PulseSchedule,
                  noise: NoiseParams, dt: float) -> HybridState:
    """Plain lab-frame fixed-step RK4 on `lindblad_rhs`, the independent
    cross-check of the exact segment propagators in `evolve_master`."""
    d = state.layout.mode_cutoffs[0]
    h = {pulses.FreeEvolution: pulses.hamiltonian(hparams(noise.eta, noise.nu), d),
         pulses.WaitingPeriod: pulses.hamiltonian(hparams(0.0, noise.nu), d)}
    rho = state.to_density().data
    for seg in schedule.expand_waiting().segments:
        if isinstance(seg, pulses.QubitRotation):
            r = fock.qubit_rotation(state.layout, seg.axis, seg.angle).matrix
            rho = r @ rho @ r.conj().T
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
    return HybridState.density(state.layout, rho)


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
    lay = SpaceLayout(1, (d,))
    h = pulses.hamiltonian(hparams(0.02), d)
    rng = np.random.default_rng(0)
    m = rng.standard_normal((2 * d, 2 * d)) + 1j * rng.standard_normal((2 * d, 2 * d))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    state = HybridState.density(lay, rho)
    deriv = dense.lindblad_rhs(state, h, NoiseParams(Q=50.0, N_th=1.3, eta=0.02))
    assert abs(np.trace(deriv)) < 1e-12
    deriv_closed = dense.lindblad_rhs(state, h, NoiseParams(Q=1e300, eta=0.02))
    comm = -1j * (h.matrix @ rho - rho @ h.matrix)
    assert np.abs(deriv_closed - comm).max() < 1e-12


def test_rhs_decay_rate_of_single_excitation():
    # H = 0, N_th = 0, rho = |1><1|: d<n>/dt = -nu/Q
    d = 8
    lay = SpaceLayout(1, (d,))
    st = _plus_fock_density(1, d)
    h0 = fock.TruncatedOperator(lay, np.zeros((2 * d, 2 * d)))
    deriv = dense.lindblad_rhs(st, h0, NoiseParams(Q=25.0))
    nvec = np.kron(np.ones(2), np.arange(d))
    assert float((np.diag(deriv).real * nvec).sum()) == pytest.approx(-1 / 25.0, abs=1e-12)


def test_master_equation_thermalizes_to_bath_occupation():
    noise = NoiseParams(Q=5.0, N_th=0.5)
    d = 14
    sched = pulses.PulseSchedule((pulses.WaitingPeriod(20 * noise.Q / noise.nu),))
    out = opensys.evolve_master(_plus_fock_density(0, d), sched, noise)
    nvec = np.kron(np.ones(2), np.arange(d))
    n_final = float((np.diag(out.data).real * nvec).sum())
    assert n_final == pytest.approx(0.5, abs=1e-3)
    assert out.trace() == pytest.approx(1.0, abs=1e-8)


def test_evolve_master_zero_schedule_and_frames_agree():
    noise = NoiseParams(Q=40.0, N_th=0.3, eta=0.03)
    st = _plus_fock_density(1, 10)
    out = opensys.evolve_master(st, pulses.PulseSchedule(()), noise)
    assert np.abs(out.data - st.data).max() < 1e-14
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
def test_evolve_master_keeps_trace_hermiticity_and_positivity(q, n_th, eta, d,
                                                              durations, seed):
    st_in = _random_density(d, seed)
    segs = []
    for i, t in enumerate(durations):
        segs.append(pulses.FreeEvolution(t) if i % 2 == 0 else pulses.WaitingPeriod(t))
        segs.append(pulses.QubitRotation("xy"[i % 2], 0.3 * (i + 1)))
    out = opensys.evolve_master(st_in, pulses.PulseSchedule(tuple(segs)),
                                NoiseParams(Q=q, N_th=n_th, eta=eta)).data
    assert abs(np.trace(out) - 1.0) < 1e-12
    assert np.abs(out - out.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() >= -1e-10


def test_closed_system_master_matches_unitary(dense_schedule_unitary):
    p = hparams(0.03)
    sched = pulses.build_h2_sequence(p, 1)
    noise = NoiseParams(Q=1e300, eta=0.03)
    d = 16
    lay = SpaceLayout(1, (d,))
    w = thermal.thermal_weights(0.5, d)
    w /= w.sum()
    plus = np.outer(fock.KET_PLUS, fock.KET_PLUS.conj())
    st = HybridState.density(lay, np.kron(plus, np.diag(w.astype(complex))))
    evolved = opensys.evolve_master(st, sched, noise)
    u = pulses.simulate_schedule(sched, p, d)
    ref = u.matrix @ st.data @ u.matrix.conj().T
    assert opensys.trace_distance_matrices(evolved.data, ref) < 1e-6
    u_dense = dense_schedule_unitary(sched, p, d)
    ref_dense = u_dense.matrix @ st.data @ u_dense.matrix.conj().T
    assert opensys.trace_distance_matrices(evolved.data, ref_dense) < 1e-12
    assert evolved.trace() == pytest.approx(1.0, abs=1e-8)
    herm = np.abs(evolved.data - evolved.data.conj().T).max()
    assert herm < 1e-10
    assert np.linalg.eigvalsh(evolved.data).min() > -1e-8


def test_jump_unravelling_noiseless_is_deterministic():
    p = hparams(0.03)
    sched = pulses.build_h2_sequence(p, 1)
    d = 12
    lay = SpaceLayout(1, (d,))
    v = fock.plus_state_with_modes(lay, (1,))
    noise = NoiseParams(Q=1e300, eta=0.03)
    ens = opensys.jump_unravelling(v, sched, noise, np.random.default_rng(1), 2)
    assert ens.mean_jumps == 0.0
    u = pulses.simulate_schedule(sched, p, d)
    ref = u.matrix @ np.outer(v.data, v.data.conj()) @ u.matrix.conj().T
    # closed-form vs exponential propagators differ near the cutoff edge
    assert opensys.trace_distance_matrices(ens.mean_state.data, ref) < 1e-7


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
    a = fock.annihilation(st.layout, 0).matrix
    k = pulses.hamiltonian(hparams(noise.eta), d).matrix - 0.5j * (
        noise.rate_down * a.conj().T @ a + noise.rate_up * a @ a.conj().T)
    for dt in (1e-3, 0.7, 5.0):
        u = expm(-1j * dt * k)
        reference = 1.0 - np.trace(u @ st.data @ u.conj().T).real
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
    lay = SpaceLayout(1, (d,))
    w = thermal.thermal_weights(0.5, d)
    w /= w.sum()
    plus = np.outer(fock.KET_PLUS, fock.KET_PLUS.conj())
    st = HybridState.density(lay, np.kron(plus, np.diag(w.astype(complex))))
    sched = pulses.build_h2_sequence(hparams(0.03), 1)
    master = opensys.evolve_master(st, sched, noise)
    ens = opensys.jump_unravelling(st, sched, noise, np.random.default_rng(42), 600)
    assert opensys.trace_distance(master, ens.mean_state) <= 3 / math.sqrt(600)
    assert ens.mean_jumps > 0.5  # the regime genuinely produces jumps


def _diagonal_density(d):
    """Fock-diagonal input (the unravelling samples its diagonal directly)."""
    w = np.kron([0.7, 0.3], thermal.thermal_weights(0.5, d))
    return HybridState.density(SpaceLayout(1, (d,)), np.diag(w / w.sum()).astype(complex))


def _noisy_unravelling_case(d=8):
    noise = NoiseParams(Q=30.0, N_th=0.4, eta=0.03)
    return noise, pulses.build_h2_sequence(hparams(0.03), 1), _diagonal_density(d)


def test_jump_unravelling_seeded_runs_are_identical():
    noise, sched, st = _noisy_unravelling_case()
    a, b = (opensys.jump_unravelling(st, sched, noise, np.random.default_rng(5), 200)
            for _ in range(2))
    assert a.mean_jumps > 0.0
    assert np.array_equal(a.jump_counts, b.jump_counts)
    assert np.array_equal(a.mean_state.data, b.mean_state.data)


def test_jump_unravelling_without_jumps_matches_per_trajectory_loop():
    # with Q = 1e300 no column crosses its threshold and both routes are exact
    d, n_traj, seed = 8, 40, 3
    noise = NoiseParams(Q=1e300, eta=0.03)
    sched = pulses.build_h2_sequence(hparams(0.03), 1)
    st = _diagonal_density(d)
    ens = opensys.jump_unravelling(st, sched, noise, np.random.default_rng(seed), n_traj)
    assert ens.mean_jumps == 0.0
    h = {pulses.FreeEvolution: pulses.hamiltonian(hparams(0.03), d).matrix,
         pulses.WaitingPeriod: pulses.hamiltonian(hparams(0.0), d).matrix}
    # the unravelling's first draw picks every start column of the diagonal input
    weights = np.real(np.diag(st.data))
    starts = np.random.default_rng(seed).choice(weights.size, size=n_traj, p=weights)
    ref = np.zeros((2 * d, 2 * d), dtype=complex)
    for start in starts:
        psi = np.zeros(2 * d, dtype=complex)
        psi[start] = 1.0
        for seg in sched.expand_waiting().segments:
            if isinstance(seg, pulses.QubitRotation):
                psi = fock.qubit_rotation(st.layout, seg.axis, seg.angle).matrix @ psi
            else:
                psi = expm(-1j * seg.duration * h[type(seg)]) @ psi
        ref += np.outer(psi, psi.conj()) / n_traj
    assert np.abs(ens.mean_state.data - ref).max() <= 1e-12


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
    model = opensys._DampedModeModel(state.layout, noise)
    segs = schedule.expand_waiting().segments
    props = {seg: DyadicLadder(model.k[type(seg)], seg.duration)
             for seg in set(segs)
             if isinstance(seg, (pulses.FreeEvolution, pulses.WaitingPeriod)) and seg.duration > 0}
    jump_ops = [(noise.rate_down, model.a), (noise.rate_up, model.a.conj().T)]
    weights, columns = opensys._decompose_for_trajectories(state)
    psi = columns[:, rng.choice(weights.size, size=n_traj, p=weights)]
    psi = psi.reshape(model.levels, model.d, n_traj)
    r_target = rng.random(n_traj)
    jump_counts = np.zeros(n_traj, dtype=int)
    for seg in segs:
        if isinstance(seg, pulses.QubitRotation):
            r = model.rotation(seg)
            psi = (r @ psi.reshape(model.levels, -1)).reshape(psi.shape)
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
    w = thermal.thermal_weights(0.5, 8)
    mode_only = HybridState.density(SpaceLayout(0, (8,)), np.diag(w / w.sum()).astype(complex))
    noisy = NoiseParams(Q=30.0, N_th=0.4, eta=0.03)
    return {
        "engineered": (_diagonal_density(8), pulses.build_h2_sequence(hparams(0.03), 2), noisy),
        "no-repeat": (_random_density(6, 13), rotated, NoiseParams(Q=5.0, N_th=0.6, eta=0.05)),
        "several-jumps": (opensys._thermal_with_ancilla(0.5, 14),
                          pulses.PulseSchedule((pulses.FreeEvolution(4.0),
                                                pulses.QubitRotation("x", 0.7))),
                          NoiseParams(Q=2.0, N_th=1.0, eta=0.1)),
        "mode-only": (mode_only, pulses.PulseSchedule((
            pulses.FreeEvolution(1.1), pulses.WaitingPeriod(0.6), pulses.FreeEvolution(0.9))),
            NoiseParams(Q=20.0, N_th=0.7, eta=0.03)),
        "empty": (_diagonal_density(6), pulses.PulseSchedule(()), noisy),
    }


@pytest.mark.parametrize("case", ["engineered", "no-repeat", "several-jumps", "mode-only",
                                  "empty"])
def test_period_screening_matches_per_segment_unravelling(case):
    st, sched, noise = _unravelling_cases()[case]
    ens = opensys.jump_unravelling(st, sched, noise, np.random.default_rng(17), 200)
    counts, mean = per_segment_unravelling(st, sched, noise, np.random.default_rng(17), 200)
    assert np.array_equal(ens.jump_counts, counts)
    assert np.abs(ens.mean_state.data - mean).max() <= 1e-12
    if case == "empty":
        assert ens.mean_jumps == 0.0
    else:
        assert ens.mean_jumps > 0.0


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


@pytest.mark.parametrize("kind", ["pure", "diagonal", "non-diagonal"])
def test_jump_unravelling_matches_master_for_each_input_kind(kind):
    d, n_traj = 8, 600
    noise, sched, st = _noisy_unravelling_case(d)
    if kind == "pure":
        st = fock.plus_state_with_modes(SpaceLayout(1, (d,)), (1,))
    elif kind == "non-diagonal":  # sampled from its eigenbasis
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
    a = fock.annihilation(st.layout, 0).matrix
    rate_op = noise.rate_down * a.conj().T @ a + noise.rate_up * a @ a.conj().T
    times = np.linspace(0.0, 4.0, 21)
    rates = [np.trace(rate_op @ opensys.evolve_master(
        st, pulses.PulseSchedule((pulses.FreeEvolution(t),)), noise).data).real
        for t in times]
    expected = simpson(rates, x=times)
    stderr = ens.jump_counts.std() / math.sqrt(n_traj)
    assert abs(ens.mean_jumps - expected) <= 4 * stderr


def test_mode_only_layout_is_the_ancilla_zero_block():
    # without an ancilla the mode sees the Z = +1 level: every solver must agree
    # with the (0, 0) block of the same run with the ancilla held in |0><0|
    d, n_traj = 8, 400
    noise = NoiseParams(Q=20.0, N_th=0.7, eta=0.03)
    sched = pulses.PulseSchedule((pulses.FreeEvolution(1.1), pulses.WaitingPeriod(0.6),
                                  pulses.FreeEvolution(0.9)))
    block = _random_density(d, 21).data[:d, :d]
    rho = block / np.trace(block)
    mode_only = HybridState.density(SpaceLayout(0, (d,)), rho)
    zero = np.diag([1.0, 0.0]).astype(complex)
    with_ancilla = HybridState.density(SpaceLayout(1, (d,)), np.kron(zero, rho))
    master = opensys.evolve_master(mode_only, sched, noise).data
    reference = opensys.evolve_master(with_ancilla, sched, noise).data
    assert np.abs(master - reference[:d, :d]).max() <= 1e-14
    ens = opensys.jump_unravelling(mode_only, sched, noise, np.random.default_rng(3), n_traj)
    assert ens.mean_jumps > 0.0
    assert opensys.trace_distance_matrices(ens.mean_state.data, master) <= 3 / math.sqrt(n_traj)
    h_mode = fock.TruncatedOperator(SpaceLayout(0, (d,)),
                                    pulses.level_hamiltonians(1.0, 0.03, d)[0])
    h = pulses.hamiltonian(hparams(0.03), d)
    deriv = dense.lindblad_rhs(mode_only, h_mode, noise)
    assert np.abs(deriv - dense.lindblad_rhs(with_ancilla, h, noise)[:d, :d]).max() <= 1e-14
    rotated = sched + pulses.PulseSchedule((pulses.QubitRotation("x", 0.3),))
    with pytest.raises(fock.LayoutError):
        opensys.evolve_master(mode_only, rotated, noise)
    with pytest.raises(fock.LayoutError):
        opensys.jump_unravelling(mode_only, rotated, noise, np.random.default_rng(0), 2)


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


def test_fidelity_point_takes_coupling_from_config():
    # a bath without its own eta still runs the configured coupling
    config = (50, pulses.eta_for_repetitions(50))
    ideal = opensys.fidelity_point(0.5, config)
    closed_bath = opensys.fidelity_point(0.5, config, noise=NoiseParams(Q=1e300))
    assert closed_bath.fidelity == pytest.approx(ideal.fidelity, abs=1e-6)


def test_fidelity_config_ordering_at_reference_point():
    pts = [opensys.fidelity_point(2.0, cfg) for cfg in pulses.measurement_configs()]
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


@pytest.mark.parametrize("q, n_th", [(1e-300, 0.0), (1.0, 1e12)])
def test_fidelity_point_refuses_a_diverged_master_equation(q, n_th):
    # the first runs to NaN, the second to p+ = 1.005 at this cutoff
    # (3.7e272 at cutoff 20); neither may report a fidelity
    with pytest.raises(ValueError, match=r"Q=.*N_th=.*cutoff 6"):
        opensys.fidelity_point(0.5, (1, pulses.eta_for_repetitions(50)),
                               noise=NoiseParams(Q=q, N_th=n_th), cutoff=6)


def test_fidelity_point_refuses_a_master_equation_that_lost_trace():
    # each branch probability stays in [0, 1] (p+ = p- = 0.436), but their
    # sum is 0.872: the run may not report a fidelity
    with pytest.raises(ValueError, match=r"lost trace .*Q=1\.0.*N_th=1000000000000\.0.*cutoff 4"):
        opensys.fidelity_point(0.5, (50, pulses.eta_for_repetitions(50)),
                               noise=NoiseParams(Q=1.0, N_th=1e12), cutoff=4)


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
    lay = SpaceLayout(1, (6,))
    st = fock.plus_state_with_modes(lay, (0,))
    h = pulses.hamiltonian(hparams(0.0), 6)
    with pytest.raises(fock.StateError):
        dense.lindblad_rhs(st, h, NoiseParams(Q=10.0))
