"""Command-line driver: every experiment as a subcommand with config files,
seeds, and CSV/JSON outputs.

Subcommands: entropy-sweep, fidelity-sweep, algebra-check, msuqc-demo,
ns-check.  Options: --config PATH (JSON), --seed U64, --out PATH,
--cutoff INT, --threads INT; flags override config-file values.  The thread
count is resolved flag > TQPSIM_THREADS environment variable > library
default, and is applied to the BLAS thread pools before numpy is imported;
called in a process that has already loaded numpy, `main` leaves the
thread variables alone and notes a differing request on stderr.

Exit codes: 0 success, 1 acceptance-check failure, 2 usage error.  Outputs
embed the tool version, the fully resolved configuration, the seed, cutoffs
and tolerances; rerunning with identical seed and config produces
byte-identical CSV bodies.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from ._io import format_value, sidecar_path, write_csv, write_json

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

_DEFAULTS = {
    "entropy-sweep": {
        "n_min": 0.1, "n_max": 2.0, "n_step": 0.1,
        "agreement_tol": 1e-6,
    },
    "fidelity-sweep": {
        "n_min": 0.2, "n_max": 4.0, "n_step": 0.2,
        "repetitions": [50, 100, 200],
        "noise": "ideal-sequence",
        "bath": None,  # {"Q": ..., "N_th": ..., "nu": ...} switches the master equation on
        "ordering_slack": 0.0,
        "monotonic_slack": 1e-3,
    },
    "algebra-check": {
        "cutoffs": [6, 12, 20],
        "residual_tol": 1e-10,
        "n_random_states": 20,
    },
    "msuqc-demo": {
        "n_circuits": 20,
        "qubit_counts": [1, 2],
        "mean_excitations": [0.5, 1.0, 2.0],
        "max_steps": 3,
        "equivalence_tol": 1e-6,
    },
    "ns-check": {
        "max_total": 8,
        "phases": [0.3, 0.7, math.pi / 2, math.pi],
        "squeezes": [0.05, 0.1, 0.2],
        "commutator_tol": 1e-8,
        "negative_control_min": 0.1,
        "min_singular_value": 1e-3,
    },
}


class UsageError(Exception):
    pass


def _matches_default(value, default) -> bool:
    """True if `value` has the JSON type of `default`: ints pass for floats,
    lists are checked element-wise, and a None default accepts an object."""
    if default is None:
        return value is None or isinstance(value, dict)
    if isinstance(value, bool):  # no default is a bool, and bool passes as int
        return False
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, list):
        return isinstance(value, list) and all(_matches_default(v, default[0]) for v in value)
    return isinstance(value, type(default))


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text} in config")
    return value


def _resolve_config(command: str, args) -> dict:
    cfg = dict(_DEFAULTS[command])
    if args.config is not None:
        try:
            with open(args.config) as fh:  # NaN, +-Infinity and overflowing floats refused
                loaded = json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}")
        if not isinstance(loaded, dict):
            raise UsageError(f"config {args.config} must hold a JSON object")
        unknown = set(loaded) - set(cfg)
        if unknown:
            raise UsageError(f"unknown config keys for {command}: {sorted(unknown)}")
        for key, value in loaded.items():
            if not _matches_default(value, cfg[key]):
                raise UsageError(f"config key {key!r}: {value!r} does not match the type "
                                 f"of its default {cfg[key]!r}")
            if value == []:
                raise UsageError(f"config key {key!r} must not be an empty list")
            if (key.endswith(("_tol", "_slack")) or key == "min_singular_value") and value < 0:
                raise UsageError(f"config key {key!r} must not be negative, got {value!r}")
        cfg.update(loaded)
    # a zero count or an empty grid would check nothing and still exit 0
    for key in ("n_step", "n_circuits", "max_steps", "n_random_states"):
        if cfg.get(key, 1) <= 0:
            raise UsageError(f"{key} must be positive")
    if any(r <= 0 for r in cfg.get("repetitions", ())):
        raise UsageError("repetitions must be positive")
    if cfg.get("n_max", 0.0) < cfg.get("n_min", 0.0):
        raise UsageError(f"n_max {cfg['n_max']} is below n_min {cfg['n_min']}")
    if args.cutoff is not None and args.cutoff < 2:  # 0 would silently mean "no override"
        raise UsageError(f"--cutoff must be at least 2, got {args.cutoff}")
    cfg["seed"] = args.seed
    cfg["cutoff_override"] = args.cutoff
    return cfg


def _metadata(command: str, cfg: dict, extra: dict | None = None) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    meta = {
        "tool": "tqpsim",
        "version": __version__,
        "command": command,
        "config": {k: v for k, v in cfg.items()},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS + ("TQPSIM_THREADS",)},
    }
    if extra:
        meta.update(extra)
    return meta


def _grid(lo: float, hi: float, step: float) -> list[float]:
    n = int(round((hi - lo) / step)) + 1
    return [round(lo + i * step, 12) for i in range(n)]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_entropy_sweep(cfg: dict, out: str) -> int:
    from . import thermal

    grid = _grid(cfg["n_min"], cfg["n_max"], cfg["n_step"])
    rows = []
    ok = True
    for n in grid:
        spec = thermal.ThermalSpec(n, cutoff=cfg["cutoff_override"])
        rep = thermal.entropy_report(spec)
        rows.append((rep.mean_excitation, rep.s_thermal, rep.s_tqp, rep.n_tilde,
                     rep.landauer_pure, rep.landauer_tqp, rep.crossover_flag))
        if abs(rep.s_tqp - rep.s_tqp_spectral) > cfg["agreement_tol"]:
            ok = False
    root = thermal.crossover_mean_excitation()
    write_csv(out, ["n_mean", "S_thermal", "S_tqp", "n_tilde",
                    "landauer_pure", "landauer_tqp", "crossover_flag"], rows)
    write_json(sidecar_path(out), _metadata("entropy-sweep", cfg, {
        "crossover_root": root,
        "closed_form_vs_spectral_ok": ok,
        "rows": len(rows),
    }))
    if not (0.7 <= root <= 0.9):
        ok = False
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_fidelity_sweep(cfg: dict, out: str) -> int:
    from . import opensys, pulses

    grid = _grid(cfg["n_min"], cfg["n_max"], cfg["n_step"])
    reps_list = list(cfg["repetitions"])
    configs = [(r, pulses.eta_for_repetitions(r)) for r in reps_list]
    noise, bath = cfg["noise"], cfg["bath"]
    if bath is not None:
        if noise != _DEFAULTS["fidelity-sweep"]["noise"]:
            raise ValueError("bath switches the master equation on; it cannot be "
                             f"combined with noise {noise!r}")
        if "Q" not in bath or not set(bath) <= {"Q", "N_th", "nu"} or not all(
                _matches_default(v, 0.0) for v in bath.values()):
            raise ValueError("bath must map Q and optionally N_th and nu to numbers "
                             f"(eta follows the repetition count), got {bath!r}")
        noise = opensys.NoiseParams(**bath)
    rows = []
    curves: dict[int, list[float]] = {r: [] for r in reps_list}
    for reps, eta in configs:
        for n in grid:
            pt = opensys.fidelity_point(n, (reps, eta), noise=noise,
                                        cutoff=cfg["cutoff_override"])
            rows.append((pt.mean_excitation, pt.eta, pt.repetitions, pt.fidelity,
                         pt.p_plus, pt.p_minus, pt.baseline, pt.cutoff,
                         cfg["seed"] if cfg["seed"] is not None else 0))
            curves[reps].append(pt.fidelity)
    ok = True
    ordered = sorted(reps_list)
    for lo, hi in zip(ordered, ordered[1:]):
        if not all(b >= a - cfg["ordering_slack"]
                   for a, b in zip(curves[lo], curves[hi])):
            ok = False
    for r in reps_list:
        c = curves[r]
        if not all(c[i + 1] <= c[i] + cfg["monotonic_slack"] for i in range(len(c) - 1)):
            ok = False
        for n, f in zip(grid, c):
            if n >= 1.0 and f <= 1.0 / (n + 1.0):
                ok = False
    write_csv(out, ["n_mean", "eta", "repetitions", "fidelity", "p_plus",
                    "p_minus", "baseline", "cutoff", "seed"], rows)
    write_json(sidecar_path(out), _metadata("fidelity-sweep", cfg, {
        "checks_passed": ok,
        "configs": [{"repetitions": r, "eta": e} for r, e in configs],
        "rows": len(rows),
    }))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_algebra_check(cfg: dict, out: str) -> int:
    import numpy as np

    from . import encoding, fock

    tol = cfg["residual_tol"]
    cutoffs = [cfg["cutoff_override"]] if cfg["cutoff_override"] else cfg["cutoffs"]
    rng = np.random.default_rng(cfg["seed"] if cfg["seed"] is not None else 0)
    results = []
    ok = True
    for d in cutoffs:
        lay = fock.SpaceLayout(1, (d, d))
        eye = np.eye(lay.total_dim)
        P = fock.parity(lay, 1)
        S = fock.two_mode_swap(lay, 0, 1)
        C = fock.controlled_parity(lay, 1)
        B = fock.beam_splitter_5050(lay, 0, 1)
        N = fock.number(lay, 0) + fock.number(lay, 1)
        checks = {
            "parity_squared": np.abs((P @ P).matrix - eye).max(),
            "swap_squared": np.abs((S @ S).matrix - eye).max(),
            "controlled_parity_squared": np.abs((C @ C).matrix - eye).max(),
            "beam_splitter_unitary": np.abs(
                (B.adjoint() @ B).matrix - eye).max(),
            "beam_splitter_number_conservation": np.abs((B @ N - N @ B).matrix).max(),
            "swap_number_conservation": np.abs((S @ N - N @ S).matrix).max(),
        }
        # Pauli algebra on random encoded states of one fixed basis pair
        m, n = 1, 2
        if 2 * m + 1 < d and 2 * n < d:
            anticomm = (S @ P + P @ S).matrix
            worst = 0.0
            for _ in range(cfg["n_random_states"]):
                c0, c1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                v = c0 * fock.HybridState.basis(lay, (0,), (2 * m + 1, 2 * n)).data \
                    + c1 * fock.HybridState.basis(lay, (0,), (2 * n, 2 * m + 1)).data
                v /= np.linalg.norm(v)
                worst = max(worst, float(np.linalg.norm(anticomm @ v)))
            checks["pauli_anticommutator_on_pair"] = worst
        results.append({"cutoff": d, "residuals": {k: float(v) for k, v in checks.items()}})
        if max(checks.values()) > tol:
            ok = False
    write_json(out, _metadata("algebra-check", cfg, {
        "results": results, "passed": ok,
    }))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_msuqc_demo(cfg: dict, out: str) -> int:
    import numpy as np

    from . import msuqc, thermal

    rng = np.random.default_rng(cfg["seed"] if cfg["seed"] is not None else 0)
    records = []
    worst = 0.0
    n_means = list(cfg["mean_excitations"])
    qubit_counts = list(cfg["qubit_counts"])
    for i in range(cfg["n_circuits"]):
        k = qubit_counts[i % len(qubit_counts)]
        n_mean = n_means[i % len(n_means)]
        circuit = msuqc.random_circuit(rng, k, int(rng.integers(1, cfg["max_steps"] + 1)))
        a_oracle = msuqc.qubit_space_oracle(circuit)
        cutoff = cfg["cutoff_override"] or msuqc.mixed_equivalence_cutoff(n_mean)
        res = msuqc.run_mixed(circuit, thermal.ThermalSpec(n_mean), cutoff=cutoff)
        dev = abs(res.probability - a_oracle)
        worst = max(worst, dev)
        records.append({
            "circuit": circuit.to_json_dict(),
            "qubits": k, "mean_excitation": n_mean, "cutoff": cutoff,
            "a_oracle": a_oracle, "a_mixed": res.probability,
            "deviation": dev, "truncation_tail": res.truncation_tail,
        })
    ok = worst <= cfg["equivalence_tol"]
    write_json(out, _metadata("msuqc-demo", cfg, {
        "runs": records, "worst_deviation": worst, "passed": ok,
    }))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_ns_check(cfg: dict, out: str) -> int:
    import numpy as np

    from . import fock, nsverify

    rng = np.random.default_rng(cfg["seed"] if cfg["seed"] is not None else 0)
    cutoff = cfg["cutoff_override"] or 24
    lay = fock.SpaceLayout(0, (cutoff, cutoff))
    z_like = fock.parity(lay, 1)
    x_like = fock.two_mode_swap(lay, 0, 1)
    residuals = []
    ok = True
    for kind, values in (("phase", cfg["phases"]), ("squeeze", cfg["squeezes"])):
        for par in values:
            e = nsverify.collective_noise(kind, par, lay)
            for name, op in (("second_mode_parity", z_like), ("swap", x_like)):
                r = nsverify.commutation_check(e, op)
                residuals.append({"kind": kind, "parameter": par,
                                  "logical_operator": name, "residual": r})
                if r > cfg["commutator_tol"]:
                    ok = False
    report = nsverify.dfs_nonexistence(cfg["max_total"], rng=rng)
    if not report.all_null_dims_zero:
        ok = False
    if min(s.smallest_singular_value for s in report.sectors) < cfg["min_singular_value"]:
        ok = False
    if report.negative_control <= cfg["negative_control_min"]:
        ok = False
    write_json(out, _metadata("ns-check", cfg, {
        "commutators": residuals,
        "dfs_report": report.to_json_dict(),
        "passed": ok,
    }))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


_COMMANDS = {
    "entropy-sweep": _cmd_entropy_sweep,
    "fidelity-sweep": _cmd_fidelity_sweep,
    "algebra-check": _cmd_algebra_check,
    "msuqc-demo": _cmd_msuqc_demo,
    "ns-check": _cmd_ns_check,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tqpsim",
        description="two-qumode parity encoding simulator and verification suite")
    parser.add_argument("--version", action="version", version=f"tqpsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="master seed (u64)")
        p.add_argument("--out", type=str, required=True, help="output path")
        p.add_argument("--cutoff", type=int, default=None, help="Fock cutoff override")
        p.add_argument("--threads", type=int, default=None,
                       help="BLAS thread count (overrides TQPSIM_THREADS)")
    return parser


def _apply_threads(threads: int | None) -> None:
    """Write the BLAS thread variables, which BLAS reads once, when numpy
    loads.  Once numpy is loaded (an in-process `main` call) they would take
    no effect, so they are left alone and a differing request is noted."""
    if threads is None:
        env = os.environ.get("TQPSIM_THREADS")
        if not env:
            return
        try:
            threads = int(env)
        except ValueError:
            raise UsageError(f"TQPSIM_THREADS must be an integer, got {env!r}")
    if threads < 1:
        raise UsageError(f"thread count must be positive, got {threads}")
    if "numpy" in sys.modules:
        if any(os.environ.get(var) != str(threads) for var in BLAS_THREAD_VARS):
            print(f"note: numpy is already loaded, so the BLAS thread count stays as it "
                  f"was; {threads} threads not applied", file=sys.stderr)
        return
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_threads(args.threads)
        cfg = _resolve_config(args.command, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](cfg, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
