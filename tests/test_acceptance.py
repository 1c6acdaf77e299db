"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with `pytest -s` or in the
captured output) and asserts its runtime budget.  Run as

    pytest tests/test_acceptance.py -v -s
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

import dense_reference as dense
from dense_reference import SpaceLayout
from tqpsim import cli, fock, msuqc, nsverify, opensys, pulses, thermal
from tqpsim.thermal import ThermalSpec


def _report(num: int, name: str, passed: bool, detail: str, elapsed: float,
            budget: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {num} ({name}): {detail} "
          f"[{elapsed:.1f}s / budget {budget:.0f}s]")
    assert passed, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget"


def hp(eta):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return pulses.HybridHamiltonianParams(eta=eta)


def test_criterion_1_algebra_suite():
    t0 = time.monotonic()
    tol = 1e-10
    worst = 0.0
    rng = np.random.default_rng(1)
    for d in (6, 12, 20):
        lay = SpaceLayout(1, (d, d))
        eye = np.eye(lay.total_dim)
        p = dense.parity(lay, 1)
        s = dense.two_mode_swap(lay, 0, 1)
        c = dense.controlled_parity(lay, 1)
        b = dense.beam_splitter_5050(lay, 0, 1)
        n = dense.number(lay, 0) + dense.number(lay, 1)
        worst = max(worst,
                    np.abs(p @ p - eye).max(),
                    np.abs(s @ s - eye).max(),
                    np.abs(c @ c - eye).max(),
                    np.abs(b.conj().T @ b - eye).max(),
                    np.abs(b @ n - n @ b).max(),
                    np.abs(s @ n - n @ s).max())
        # Pauli algebra on every encoded pair that fits under the cutoff
        anti = s @ p + p @ s
        zmat, xmat = p, s
        for m in range((d - 1) // 2):
            for k in range(d // 2):
                if 2 * m + 1 >= d or 2 * k >= d:
                    continue
                v0 = dense.basis(lay, (0,), (2 * m + 1, 2 * k))
                v1 = dense.basis(lay, (0,), (2 * k, 2 * m + 1))
                worst = max(worst,
                            np.linalg.norm(zmat @ v0 - v0),
                            np.linalg.norm(zmat @ v1 + v1),
                            np.linalg.norm(xmat @ v0 - v1),
                            np.linalg.norm(anti @ v0),
                            np.linalg.norm(anti @ v1))
        # number-parity conservation of the involved unitaries
        pp = dense.parity(lay, 0) @ p
        for u in (b, s, c):
            worst = max(worst, np.abs(u @ pp - pp @ u).max())
    elapsed = time.monotonic() - t0
    _report(1, "algebra suite", worst <= tol,
            f"worst residual {worst:.2e} <= {tol:.0e} for d in (6, 12, 20)",
            elapsed, 30.0)


def test_criterion_2_gate_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    gate_tol, anc_tol = 1e-9, 1e-10
    worst_gate, worst_anc = 0.0, 0.0
    for _ in range(30):
        theta = float(rng.uniform(-math.pi, math.pi))
        m = int(rng.integers(0, 3))   # 2m+1 <= 5
        n = int(rng.integers(0, 3))   # 2n   <= 5 (readout-mode label 2n <= 4)
        d = 2 * m + 1 + 2 * n + 1 + 1  # beam-splitter spreading headroom
        d = max(d, 6)
        # the literal Z and X circuits (pinned against the engine's gate in
        # test_msuqc): the block circuit on every total-excitation block t of
        # the pair, applied to |+> (x) (identity columns); the gate is block
        # diagonal, so <+|G|+> and <-|G|+> are compared block by block
        pair = dense.literal_pair_blocks(d)
        first = pair.first[:, 0, :, 0]  # first-mode Fock number, -1 on padding
        inside = (first[:, :, None] >= 0) & (first[:, None, :] >= 0)
        t = np.arange(2 * d - 1)[:, None, None]
        eye = np.eye(first.shape[1])
        parity = eye * pair.parity[:, 0, :, 0][:, None, :]
        swap = (first[:, :, None] + first[:, None, :] == t).astype(float)
        for axis, op, keep in (("z", parity, inside), ("x", swap, inside & (t <= d - 1))):
            g = dense.pair_block_gate(pair.initial, axis, theta, pair.bs, pair.cp,
                                      pair.columns)
            plus = (g[:, 0] + g[:, 1]) / math.sqrt(2)
            minus = (g[:, 0] - g[:, 1]) / math.sqrt(2)
            oracle = math.cos(theta) * eye + 1j * math.sin(theta) * op
            worst_gate = max(worst_gate, np.abs(plus - oracle)[keep].max())
            worst_anc = max(worst_anc, np.linalg.norm(minus, 2, axis=(1, 2)).max())

        # the entangler touches only the two readout modes and the ancilla;
        # spectator modes factor out exactly, so the check lives on one pair
        # of readout modes
        lay2 = SpaceLayout(1, (6, 6))
        czz = dense.controlled_parity(lay2, 0) @ dense.controlled_parity(lay2, 1) \
            @ dense.qubit_rotation(lay2, "x", theta) \
            @ dense.controlled_parity(lay2, 1) @ dense.controlled_parity(lay2, 0)
        sub2 = SpaceLayout(0, (6, 6))
        ozz = dense.exponential_hermitian_unitary(
            dense.parity(sub2, 0) @ dense.parity(sub2, 1), theta)
        worst_gate = max(worst_gate,
                         np.abs(dense.mode_factor_of_gate(czz) - ozz).max())
        worst_anc = max(worst_anc, dense.ancilla_leakage(czz))
    elapsed = time.monotonic() - t0
    ok = worst_gate <= gate_tol and worst_anc ** 2 <= anc_tol
    _report(2, "gate equivalence", ok,
            f"worst map deviation {worst_gate:.2e} <= {gate_tol:.0e}, "
            f"worst ancilla fidelity deficit {worst_anc ** 2:.2e} <= {anc_tol:.0e}",
            elapsed, 120.0)


def test_criterion_3_mixed_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(3)
    tol = 1e-6
    n_means = (0.5, 1.0, 2.0)
    worst = 0.0
    for i in range(20):
        k = 1 if i % 2 == 0 else 2
        n_mean = n_means[i % 3]
        circuit = msuqc.random_circuit(rng, k, int(rng.integers(1, 4)))
        a_oracle = msuqc.qubit_space_oracle(circuit)
        cutoff = msuqc.mixed_equivalence_cutoff(n_mean)
        res = msuqc.run_mixed(circuit, ThermalSpec(n_mean), cutoff=cutoff)
        worst = max(worst, abs(res.probability - a_oracle))
    elapsed = time.monotonic() - t0
    _report(3, "pure/mixed equivalence", worst <= tol,
            f"max |A_mixed - A_oracle| {worst:.2e} <= {tol:.0e} over 20 circuits, "
            f"K in (1, 2), <n> in {n_means}",
            elapsed, 600.0)


def test_criterion_4_entropy_crossover():
    t0 = time.monotonic()
    root = thermal.crossover_mean_excitation()
    worst = 0.0
    for n in np.round(np.arange(0.05, 5.0001, 0.05), 10):
        rep = thermal.entropy_report(ThermalSpec(float(n)))
        worst = max(worst, abs(rep.s_tqp - rep.s_tqp_spectral))
    elapsed = time.monotonic() - t0
    ok = 0.7 <= root <= 0.9 and worst <= 1e-6
    _report(4, "entropy crossover", ok,
            f"root {root:.4f} in [0.7, 0.9]; closed form vs spectral "
            f"{worst:.2e} <= 1e-06 on [0.05, 5] step 0.05",
            elapsed, 10.0)


def test_criterion_5_interaction_engineering():
    t0 = time.monotonic()
    r_04 = pulses.sequence_residual(hp(0.04), 28, n_max=6)
    r_02 = pulses.sequence_residual(hp(0.02), 28, n_max=6)
    factor = r_04 / r_02
    worst_prop = 0.0
    d = 26
    for eta in (0.02, 0.05):
        p = hp(eta)
        h = pulses.hamiltonian(p, d)
        for t in (0.9, math.pi, 2 * math.pi, 4 * math.pi):
            u_cf = pulses.exact_free_propagator(p, t, d)
            u_ex = dense.matrix_exponential(-1j * t * h)
            worst_prop = max(worst_prop, pulses.gauged_distance(u_cf, u_ex, n_max=d // 2))
    elapsed = time.monotonic() - t0
    ok = factor >= 4.0 and worst_prop <= 1e-8
    _report(5, "interaction engineering", ok,
            f"residual halving factor {factor:.1f} >= 4; free-propagator "
            f"closed form vs exponential {worst_prop:.2e} <= 1e-08",
            elapsed, 60.0)


def test_criterion_6_fidelity_curves():
    t0 = time.monotonic()
    grid = np.round(np.arange(0.2, 4.0001, 0.2), 10)
    configs = pulses.measurement_configs()
    curves = {}
    for reps, eta in configs:
        curves[reps] = [opensys.fidelity_point(float(n), (reps, eta)).fidelity
                        for n in grid]
    ordering = all(h >= l for l, h in zip(curves[50], curves[100])) and \
        all(h >= l for l, h in zip(curves[100], curves[200]))
    monotone = all(all(c[i + 1] <= c[i] + 1e-3 for i in range(len(c) - 1))
                   for c in curves.values())
    above = all(f > 1.0 / (n + 1.0)
                for c in curves.values() for n, f in zip(grid, c) if n >= 1.0)
    elapsed = time.monotonic() - t0
    ok = ordering and monotone and above
    _report(6, "measurement-fidelity curves", ok,
            f"ordering {ordering}, monotone(1e-3) {monotone}, above baseline "
            f"for <n> >= 1 {above}; F(200 reps) at <n>=4: {curves[200][-1]:.4f}",
            elapsed, 1800.0)


def test_criterion_7_open_system_consistency():
    t0 = time.monotonic()
    # short-time jump probability against the closed form
    st = opensys._thermal_with_ancilla(1.0, 27)
    noise = opensys.NoiseParams(Q=1e6, N_th=100.0, eta=0.016)
    sim, closed_p = opensys.short_time_jump_probability(st, noise, 1e-3)
    short_ok = abs(sim - closed_p) / closed_p <= 0.05
    # closed-form error estimate vs trajectory jump counting
    rng = np.random.default_rng(7)
    closed_eps, traj_eps = opensys.epsilon_tqp_trajectory_check(noise, 1.0, rng,
                                                                n_traj=2000)
    eps_ok = abs(traj_eps - closed_eps) / closed_eps <= 0.20
    # ensemble mean vs master equation on a noisy engineered point
    eta50 = pulses.eta_for_repetitions(50)
    noise_pt = opensys.NoiseParams(Q=300.0, N_th=0.5, eta=eta50)
    d = 20
    st_pt = opensys._thermal_with_ancilla(0.5, d)
    sched = pulses.build_h2_sequence(noise_pt.hybrid_params(), 5)
    master = opensys.evolve_master(st_pt, sched, noise_pt)
    ens = opensys.jump_unravelling(st_pt, sched, noise_pt,
                                   np.random.default_rng(77), 2000)
    dist = opensys.trace_distance(master, ens.mean_state)
    bound = 3.0 / math.sqrt(2000)
    traj_ok = dist <= bound
    elapsed = time.monotonic() - t0
    ok = short_ok and eps_ok and traj_ok
    _report(7, "open-system consistency", ok,
            f"short-dt jump prob rel err {abs(sim - closed_p) / closed_p:.2e} <= 5%; "
            f"expected jump count {closed_eps:.3f} vs trajectories {traj_eps:.3f} "
            f"(ratio {traj_eps / closed_eps:.2f}, within 20%); "
            f"ensemble vs master trace distance {dist:.4f} <= {bound:.4f}",
            elapsed, 1200.0)


def test_criterion_8_noiseless_subsystem():
    t0 = time.monotonic()
    z_like = np.diag(fock.parity_diag(24))
    x_like = fock.two_mode_swap(24)
    worst_comm = 0.0
    for phi in (0.3, 0.7, math.pi / 2, math.pi):
        e = nsverify.collective_noise("phase", phi, 24)
        worst_comm = max(worst_comm, nsverify.commutation_check(e, z_like),
                         nsverify.commutation_check(e, x_like))
    for xi in (0.05, 0.1, 0.2):
        e = nsverify.collective_noise("squeeze", xi, 24)
        worst_comm = max(worst_comm, nsverify.commutation_check(e, z_like),
                         nsverify.commutation_check(e, x_like))
    rep = nsverify.dfs_nonexistence(8)
    null_ok = all(s.null_dim == 0 for s in rep.sectors if s.total_excitation >= 1)
    sv_min = min(s.smallest_singular_value for s in rep.sectors)
    elapsed = time.monotonic() - t0
    ok = worst_comm <= 1e-8 and null_ok and sv_min >= 1e-3 \
        and rep.negative_control > 0.1
    _report(8, "noiseless subsystem", ok,
            f"worst commutator {worst_comm:.2e} <= 1e-08; null dims zero for "
            f"M in [1, 8] with min singular value {sv_min:.3f} >= 1e-3; "
            f"negative control {rep.negative_control:.2f} > 0.1",
            elapsed, 60.0)


def test_criterion_9_reproducibility(tmp_path):
    t0 = time.monotonic()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_min": 0.2, "n_max": 1.2, "n_step": 0.2}))
    bodies = []
    for name in ("r1", "r2"):
        out = tmp_path / f"{name}.csv"
        code = cli.main(["entropy-sweep", "--config", str(cfg),
                         "--out", str(out), "--seed", "97"])
        assert code == 0
        bodies.append(out.read_bytes())
    fcfg = tmp_path / "fcfg.json"
    fcfg.write_text(json.dumps({"n_min": 1.0, "n_max": 2.0, "n_step": 0.5,
                                "repetitions": [50]}))
    for name in ("f1", "f2"):
        out = tmp_path / f"{name}.csv"
        code = cli.main(["fidelity-sweep", "--config", str(fcfg),
                         "--out", str(out), "--seed", "97"])
        assert code == 0
        bodies.append(out.read_bytes())
    elapsed = time.monotonic() - t0
    ok = bodies[0] == bodies[1] and bodies[2] == bodies[3]
    _report(9, "reproducibility", ok,
            "identical seed + config give byte-identical CSV bodies "
            "(entropy and fidelity sweeps)", elapsed, 120.0)
