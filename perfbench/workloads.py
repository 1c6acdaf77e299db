"""The three workloads of the tqpsim benchmark.

Each workload is a closed loop with one client: its operations run back to
back in one process, the next starting when the previous one has returned.
Work is grouped in *passes*.  A pass is the unit a user waits for -- one
verified result -- and every pass of a workload does the same amount of work,
so medians over passes stay comparable however many passes fit in a run.
The seed only draws the inputs (circuit angles, random-number streams, CLI
seeds); the program receives the generated inputs and nothing else.

An operation returns ``(passed, info)``.  ``passed`` is the verdict of its
correctness gate; ``info`` holds informational error margins keyed by their
per-layer metric name.  An operation that raises counts as failed.

Workloads and why they exist:

``mixed-circuits``
    Criterion 3 of the acceptance suite: random logical circuits on
    parity-projected thermal mixtures, ``mixed_equivalence_cutoff`` then
    ``run_mixed``, each checked against ``qubit_space_oracle`` to 1e-6.
    Stresses ``fock`` operator construction (``beam_splitter_5050`` at
    cutoffs up to 48) and gate application (``apply_local`` /
    ``apply_diag_local``), ``msuqc`` and the ``thermal`` mixture set-up and
    cutoff search.  It bypasses ``opensys``, ``pulses``, ``nsverify`` and
    ``cli``.
``open-system``
    Criterion 7's three checks: short-time jump probability (5 %), the
    initialisation-error estimate against trajectory jump counting (2000
    trajectories, 20 %), and the trajectory ensemble against the certified
    master equation (trace distance <= 3/sqrt(2000)).  The last check runs
    at cutoff 12 with one engineered sequence instead of criterion 7's
    cutoff 20 with five, which would take over a minute.  Nearly all time
    goes to ``opensys.evolve_master`` and ``opensys.jump_unravelling``.  It
    bypasses ``msuqc``.
``cli-suite``
    ``cli.main`` in-process at default configuration for ``entropy-sweep``,
    ``algebra-check``, ``ns-check`` and ``fidelity-sweep``; each must exit 0
    with its own checks passed, and the benchmark re-checks the outputs.  It
    is the only workload for ``pulses``, ``nsverify``, ``cli``/``_io`` and the
    closed-system ``opensys.fidelity_point``, and it uses ``fock`` through
    dense operators embedded on hybrid layouts rather than streamed pair
    blocks.  ``msuqc-demo`` is left out because it repeats
    ``mixed-circuits``.  A ``fidelity-sweep`` with a ``bath`` is left out
    because its master-equation points take of the order of 15 minutes each.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from tqpsim import cli, msuqc, opensys, pulses
from tqpsim._io import sidecar_path
from tqpsim.pulses import FreeEvolution, PulseSchedule, QubitRotation, WaitingPeriod
from tqpsim.thermal import ThermalSpec


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], tuple[bool, dict]]


@dataclass(frozen=True)
class Workload:
    warm_up: Callable[[], None]
    make_pass: Callable[[int], list[Op]]


# ---------------------------------------------------------------------------
# mixed-circuits
# ---------------------------------------------------------------------------

MIXED_TOL = 1e-6
MIXED_MEANS = (0.5, 1.0, 2.0)
# (qubits, mean excitation, steps) of the circuits of one pass: criterion 3's
# cycle of K and <n>, with the step count fixed per position so that every
# seed does the same work.  Each K meets every step count 1-3.
MIXED_SHAPE = tuple((1 + i % 2, MIXED_MEANS[i % 3], 1 + (i // 2) % 3) for i in range(6))


def random_circuit_doc(rng: np.random.Generator, qubits: int, steps: int) -> dict:
    """A circuit in the program's JSON wire format with uniform random angles."""
    def angles(n):
        return [float(a) for a in rng.uniform(-math.pi, math.pi, n)]
    return {"version": msuqc.CIRCUIT_FORMAT_VERSION, "qubits": qubits,
            "steps": [{"phi": angles(qubits), "theta": angles(qubits),
                       "gamma": angles(qubits - 1)} for _ in range(steps)]}


def _mixed_op(circuit, n_mean, reference):
    cutoff = msuqc.mixed_equivalence_cutoff(n_mean)
    result = msuqc.run_mixed(circuit, ThermalSpec(n_mean), cutoff=cutoff)
    expected = (reference or msuqc.qubit_space_oracle)(circuit)
    dev = abs(result.probability - expected)
    return dev <= MIXED_TOL, {"msuqc.max_dev": dev}


def _mixed_warm_up():
    for qubits in (1, 2):
        doc = random_circuit_doc(np.random.default_rng(0), qubits, 1)
        circuit = msuqc.LogicalCircuit.from_json_dict(doc)
        _mixed_op(circuit, 0.1, None)
        # cutoff 16 also warms the sparse beam-splitter path the workload takes
        msuqc.run_mixed(circuit, ThermalSpec(0.1), cutoff=16)


def mixed_circuits(seed: int, shape=MIXED_SHAPE, reference=None) -> Workload:
    """`reference` replaces the oracle (for testing the correctness gate)."""
    rng = np.random.default_rng(seed)

    def make_pass(_index):
        return [Op(f"k{k}-n{n_mean}-s{steps}",
                   partial(_mixed_op,
                           msuqc.LogicalCircuit.from_json_dict(random_circuit_doc(rng, k, steps)),
                           n_mean, reference))
                for k, n_mean, steps in shape]
    return Workload(_mixed_warm_up, make_pass)


# ---------------------------------------------------------------------------
# open-system
# ---------------------------------------------------------------------------

HOT_BATH = {"Q": 1e6, "N_th": 100.0, "eta": 0.016}
N_TRAJ = 2000
ENSEMBLE_CUTOFF = 12


def _short_time_op(cutoff=27):
    state = opensys._thermal_with_ancilla(1.0, cutoff)
    sim, closed = opensys.short_time_jump_probability(
        state, opensys.NoiseParams(**HOT_BATH), 1e-3)
    return abs(sim - closed) / closed <= 0.05, {}


def _epsilon_op(rng, n_traj, cutoff):
    closed, traj = opensys.epsilon_tqp_trajectory_check(
        opensys.NoiseParams(**HOT_BATH), 1.0, rng, n_traj=n_traj, cutoff=cutoff)
    ratio = traj / closed
    return abs(ratio - 1.0) <= 0.20, {"opensys.eps_ratio": ratio}


def _ensemble_op(rng, n_traj, cutoff, schedule=None):
    noise = opensys.NoiseParams(Q=300.0, N_th=0.5, eta=pulses.eta_for_repetitions(50))
    state = opensys._thermal_with_ancilla(0.5, cutoff)
    if schedule is None:
        schedule = pulses.build_h2_sequence(noise.hybrid_params(), 1)
    master = opensys.evolve_master(state, schedule, noise)
    ensemble = opensys.jump_unravelling(state, schedule, noise, rng, n_traj)
    dist = opensys.trace_distance(master, ensemble.mean_state)
    return dist <= 3.0 / math.sqrt(n_traj), {"opensys.master_vs_ensemble_dist": dist}


def _open_warm_up():
    rng = np.random.default_rng(0)
    _short_time_op(cutoff=6)
    _epsilon_op(rng, 2, 4)
    tiny = PulseSchedule((FreeEvolution(0.2), QubitRotation("x", 0.5), WaitingPeriod(0.1)))
    _ensemble_op(rng, 5, 4, tiny)


def open_system(seed: int, n_traj: int = N_TRAJ, ensemble_cutoff: int = ENSEMBLE_CUTOFF,
                eps_cutoff: int | None = None) -> Workload:
    def make_pass(index):
        return [Op("short-time-jump", _short_time_op),
                Op("epsilon-trajectories",
                   partial(_epsilon_op, np.random.default_rng([seed, index, 1]), n_traj,
                           eps_cutoff)),
                Op("ensemble-vs-master",
                   partial(_ensemble_op, np.random.default_rng([seed, index, 2]), n_traj,
                           ensemble_cutoff))]
    return Workload(_open_warm_up, make_pass)


# ---------------------------------------------------------------------------
# cli-suite
# ---------------------------------------------------------------------------

CLI_COMMANDS = ("entropy-sweep", "algebra-check", "ns-check", "fidelity-sweep")
# the CLI's default grids and tolerances, re-checked here against its outputs
CLI_DEFAULTS = {
    "entropy-sweep": {"n_min": 0.1, "n_max": 2.0, "n_step": 0.1},
    "algebra-check": {"cutoffs": [6, 12, 20], "residual_tol": 1e-10},
    "ns-check": {"commutator_tol": 1e-8},
    "fidelity-sweep": {"n_min": 0.2, "n_max": 4.0, "n_step": 0.2,
                       "repetitions": [50, 100, 200]},
}
TINY_CLI_CONFIGS = {
    "entropy-sweep": {"n_min": 0.5, "n_max": 0.6, "n_step": 0.1},
    "algebra-check": {"cutoffs": [4], "n_random_states": 2},
    "ns-check": {"max_total": 2, "phases": [0.3], "squeezes": [0.05]},
    "fidelity-sweep": {"n_min": 0.5, "n_max": 0.5, "n_step": 0.5, "repetitions": [50]},
}


def _grid_len(cfg) -> int:
    return int(round((cfg["n_max"] - cfg["n_min"]) / cfg["n_step"])) + 1


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _thermal_entropy_bits(n: float) -> float:
    return (n + 1) * math.log2(n + 1) - n * math.log2(n)


def _check_entropy(out, cfg):
    meta = json.loads(sidecar_path(out).read_text())
    rows = _csv_rows(out)
    return (meta["closed_form_vs_spectral_ok"] and 0.7 <= meta["crossover_root"] <= 0.9
            and len(rows) == _grid_len(cfg)
            and all(math.isclose(float(r["S_thermal"]), _thermal_entropy_bits(float(r["n_mean"])),
                                 rel_tol=1e-9) for r in rows))


def _check_algebra(out, cfg):
    doc = json.loads(out.read_text())
    return (doc["passed"] and len(doc["results"]) == len(cfg["cutoffs"])
            and all(v <= cfg["residual_tol"]
                    for res in doc["results"] for v in res["residuals"].values()))


def _check_ns(out, cfg):
    doc = json.loads(out.read_text())
    report = doc["dfs_report"]
    return (doc["passed"] and report["all_null_dims_zero"]
            and report["negative_control_commutator"] > 0.1
            and all(c["residual"] <= cfg["commutator_tol"]
                    for c in doc["commutators"]))


def _check_fidelity(out, cfg):
    meta = json.loads(sidecar_path(out).read_text())
    rows = _csv_rows(out)
    return (meta["checks_passed"]
            and len(rows) == _grid_len(cfg) * len(cfg["repetitions"])
            and all(0.0 < float(r["fidelity"]) <= 1.0 + 1e-9
                    and math.isclose(float(r["baseline"]), 1.0 / (float(r["n_mean"]) + 1.0),
                                     rel_tol=1e-10) for r in rows))


_CLI_CHECKS = {"entropy-sweep": _check_entropy, "algebra-check": _check_algebra,
               "ns-check": _check_ns, "fidelity-sweep": _check_fidelity}


def _cli_op(command, out_dir: Path, seed: int, config: dict | None):
    out = out_dir / (command + (".csv" if command.endswith("sweep") else ".json"))
    out.unlink(missing_ok=True)
    sidecar_path(out).unlink(missing_ok=True)
    argv = [command, "--out", str(out), "--seed", str(seed)]
    if config is not None:
        cfg_path = out_dir / f"{command}.config.json"
        cfg_path.write_text(json.dumps(config))
        argv += ["--config", str(cfg_path)]
    if cli.main(argv) != 0:
        return False, {}
    return _CLI_CHECKS[command](out, {**CLI_DEFAULTS[command], **(config or {})}), {}


def _cli_ops(out_dir: Path, seed: int, configs: dict | None) -> list[Op]:
    out_dir.mkdir(parents=True, exist_ok=True)
    return [Op(cmd, partial(_cli_op, cmd, out_dir, seed,
                            None if configs is None else configs[cmd]))
            for cmd in CLI_COMMANDS]


def cli_suite(seed: int, out_dir: Path, configs: dict | None = None) -> Workload:
    """`configs` maps each command to a config; None runs the defaults."""
    rng = np.random.default_rng(seed)

    def warm_up():
        for op in _cli_ops(out_dir / "warmup", 0, TINY_CLI_CONFIGS):
            op.run()

    def make_pass(_index):
        return _cli_ops(out_dir, int(rng.integers(2 ** 63)), configs)
    return Workload(warm_up, make_pass)


def build(name: str, seed: int, out_dir: Path) -> Workload:
    if name == "mixed-circuits":
        return mixed_circuits(seed)
    if name == "open-system":
        return open_system(seed)
    if name == "cli-suite":
        return cli_suite(seed, out_dir / "cli")
    raise ValueError(f"unknown workload {name!r}")
