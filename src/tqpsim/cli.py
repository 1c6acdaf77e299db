"""Command-line driver: every experiment as a subcommand with config files,
seeds, and CSV/JSON outputs.

Subcommands: entropy-sweep, fidelity-sweep, algebra-check, msuqc-demo,
ns-check.  Options: --config PATH (JSON), --seed U64, --out PATH,
--cutoff INT, --threads INT; flags override config-file values.  One table,
`_COMMANDS`, gives each subcommand's runner, largest --cutoff, and every config
key's default and rule (JSON type and range, bounded so that no accepted
config outgrows MEMORY_BUDGET_MB); besides it, only the n_min/n_max/n_step
grid, the bath's limits, --cutoff and --seed are checked.  The thread count (flag >
TQPSIM_THREADS > library default) is applied to the BLAS thread pools before
numpy is imported; once numpy is loaded `main` leaves them alone and notes a
differing request on stderr.

algebra-check reads every residual off the forms `fock` gives circuits
(diagonals, a permutation, blocks of one total excitation) and builds no
matrix on the whole space: squares and B^dag B per block, commutators with
the total number per block or permutation entry, and the Pauli
anticommutator on the random pair states as S(Pv) + P(Sv).  ns-check reads
its commutators off each channel's single-mode factor, the parity logical's
single-mode matrix and the swap's involution, with no pair matrix either.

Each runner returns its acceptance checks as `Check` records with fixed bounds;
its outputs list them under `checks` beside the tool version, the fully
resolved configuration, the seed and cutoffs.  Exit codes: 0 success, 1 when
some check fails, 2 usage error.  Identical seed and config give byte-identical CSV bodies.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

from . import __version__
from ._io import sidecar_path, write_csv, write_json

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MEMORY_BUDGET_MB = 1024  # peak RSS of any accepted config at one BLAS thread
GRID_POINTS_MAX = 2000  # points of the n_min .. n_max grid in steps of n_step
LIST_ITEMS_MAX = 100
# a bath walks every segment of the schedule at O(d^3): the default grid takes minutes
BATH_N_MAX, BATH_REPETITIONS_MAX, BATH_CUTOFF_MAX = 4.0, 200, 66
# the acceptance bounds, one per check (the README's checks table)
AGREEMENT_TOL, CROSSOVER_WINDOW = 1e-6, (0.7, 0.9)  # entropy-sweep
ORDERING_SLACK, MONOTONIC_SLACK = 0.0, 1e-3  # fidelity-sweep
RESIDUAL_TOL, EQUIVALENCE_TOL = 1e-10, 1e-6  # algebra-check, msuqc-demo
COMMUTATOR_TOL, MIN_SINGULAR_VALUE, NEGATIVE_CONTROL_MIN = 1e-8, 1e-3, 0.1  # ns-check


class UsageError(Exception):
    pass


def _number(lo, hi=sys.float_info.max, integer=False, above=False) -> tuple:
    """Rule (text, test): a JSON number (whole if `integer`), lo <= (< if `above`) x <= hi.
    NaN, infinities and overflowing literals fail it."""
    types = (int,) if integer else (int, float)
    return (f"{'an integer' if integer else 'a number'} {'>' if above else '>='} {lo:g}"
            + (f" and <= {hi:g}" if hi < sys.float_info.max else ""),
            lambda v: type(v) in types and (lo < v if above else lo <= v) and v <= hi)


def _list(item: tuple) -> tuple:
    return (f"a list of 1 to {LIST_ITEMS_MAX} items, each {item[0]}",
            lambda v: type(v) is list and 0 < len(v) <= LIST_ITEMS_MAX and all(map(item[1], v)))


def _bath(**fields: tuple) -> tuple:
    """null, or an object with Q and any of the other `fields`."""
    return ("null or an object with Q and any of: "
            + ", ".join(f"{key} {rule[0]}" for key, rule in fields.items()),
            lambda v: v is None or (type(v) is dict and "Q" in v and set(v) <= set(fields)
                                    and all(fields[key][1](x) for key, x in v.items())))


_NOISES = ("ideal-sequence", "exact-gate")


def _resolve_config(command: str, args) -> dict:
    _, cutoff_max, table = _COMMANDS[command]
    cfg = {key: default for key, (default, _) in table.items()}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}")
        if not isinstance(loaded, dict):
            raise UsageError(f"config {args.config} must hold a JSON object")
        unknown = set(loaded) - set(cfg)
        if unknown:
            raise UsageError(f"unknown config keys for {command}: {sorted(unknown)}")
        cfg.update(loaded)
    for key, (_, (what, test)) in table.items():
        if not test(cfg[key]):
            raise UsageError(f"config key {key!r} must be {what}, got {cfg[key]!r}")
    if "n_step" in cfg:  # the grid climbs from n_min and ends at n_max, up to rounding
        lo, hi, step = cfg["n_min"], cfg["n_max"], cfg["n_step"]
        if not 0 <= (hi - lo) / step <= GRID_POINTS_MAX - 1 or _grid(lo, hi, step)[-1] > hi + 1e-9:
            raise UsageError(f"n_min {lo} to n_max {hi} in steps of n_step {step} must make "
                             f"a grid of 1 to {GRID_POINTS_MAX} points ending at n_max")
    if cfg.get("bath") is not None and (
            cfg["noise"] != _NOISES[0] or cfg["n_max"] > BATH_N_MAX
            or max(cfg["repetitions"]) > BATH_REPETITIONS_MAX
            or (args.cutoff or 0) > BATH_CUTOFF_MAX):
        raise UsageError(f"bath switches the master equation on; it takes noise {_NOISES[0]!r}, "
                         f"n_max <= {BATH_N_MAX}, repetitions <= {BATH_REPETITIONS_MAX} "
                         f"and --cutoff <= {BATH_CUTOFF_MAX}")
    if args.cutoff is not None and not 2 <= args.cutoff <= cutoff_max:
        raise UsageError(f"--cutoff must be 2 to {cutoff_max} for {command}, got {args.cutoff}")
    if args.seed is not None and not 0 <= args.seed < 2 ** 64:
        raise UsageError(f"--seed must be 0 to 2^64 - 1, got {args.seed}")
    cfg["seed"] = args.seed
    cfg["cutoff_override"] = args.cutoff
    return cfg


class Check(NamedTuple):
    """One acceptance check: a run's worst `value` against `bound`, a number or a
    [lo, hi] window.  A NaN value fails; None, where nothing is compared, passes."""

    name: str
    value: float | None
    bound: float | tuple[float, float]
    passed: bool


def _check(name: str, values: list, compare: str, bound: float) -> Check:
    """The worst of `values` against `bound` under `compare` ('<=', '>=' or '>'), by
    np.max or np.min, which keep a NaN that builtin max and min can drop."""
    import numpy as np

    if len(values) == 0:
        return Check(name, None, bound, True)
    value = float((np.max if compare == "<=" else np.min)(values))
    return Check(name, value, bound,
                 {"<=": value <= bound, ">=": value >= bound, ">": value > bound}[compare])


def _metadata(command: str, cfg: dict, checks: list[Check], extra: dict) -> dict:
    import numpy

    scipy = sys.modules.get("scipy")  # no tqpsim module imports it; a caller may have
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    query = _blas_thread_query()
    return {
        "tool": "tqpsim",
        "version": __version__,
        "command": command,
        "config": {k: v for k, v in cfg.items()},
        "numpy": numpy.__version__,
        "scipy": getattr(scipy, "__version__", None),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS + ("TQPSIM_THREADS",)},
        "blas_threads": None if query is None else query(),
        "checks": [check._asdict() for check in checks],
        **extra,
    }


@functools.cache
def _blas_thread_query():
    """The thread-count query of the OpenBLAS bundled with numpy, through
    ctypes; None where that library or its query is missing.  Looked up once:
    it reports the pool's size at each call."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parents[1] / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            query = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        query.argtypes, query.restype = [], ctypes.c_int
        return query
    return None


def _grid(lo: float, hi: float, step: float) -> list[float]:
    n = int(round((hi - lo) / step)) + 1
    return [round(lo + i * step, 12) for i in range(n)]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_entropy_sweep(cfg: dict, out: str) -> list[Check]:
    from . import thermal

    rows, deviations = [], []
    for n in _grid(cfg["n_min"], cfg["n_max"], cfg["n_step"]):
        rep = thermal.entropy_report(thermal.ThermalSpec(n, cutoff=cfg["cutoff_override"]))
        rows.append((rep.mean_excitation, rep.s_thermal, rep.s_tqp, rep.n_tilde,
                     rep.landauer_pure, rep.landauer_tqp, rep.crossover_flag))
        deviations.append(abs(rep.s_tqp - rep.s_tqp_spectral))
    root = thermal.crossover_mean_excitation()
    checks = [_check("closed_form_vs_spectral", deviations, "<=", AGREEMENT_TOL),
              Check("crossover_root", root, CROSSOVER_WINDOW,
                    CROSSOVER_WINDOW[0] <= root <= CROSSOVER_WINDOW[1])]
    write_csv(out, ["n_mean", "S_thermal", "S_tqp", "n_tilde",
                    "landauer_pure", "landauer_tqp", "crossover_flag"], rows)
    write_json(sidecar_path(out), _metadata("entropy-sweep", cfg, checks, {
        "crossover_root": checks[1].value,
        "closed_form_vs_spectral_ok": checks[0].passed,
        "rows": len(rows),
    }))
    return checks


def _cmd_fidelity_sweep(cfg: dict, out: str) -> list[Check]:
    from . import opensys, pulses

    grid = _grid(cfg["n_min"], cfg["n_max"], cfg["n_step"])
    reps_list = list(cfg["repetitions"])
    configs = [(r, pulses.eta_for_repetitions(r)) for r in reps_list]
    noise = cfg["noise"] if cfg["bath"] is None else opensys.NoiseParams(**cfg["bath"])
    rows = []
    curves: dict[int, list[float]] = {r: [] for r in reps_list}
    max_tail = max_defect = 0.0
    for reps, eta in configs:
        for n in grid:
            pt = opensys.fidelity_point(n, (reps, eta), noise=noise,
                                        cutoff=cfg["cutoff_override"])
            rows.append((pt.mean_excitation, pt.eta, pt.repetitions, pt.fidelity,
                         pt.p_plus, pt.p_minus, pt.baseline, pt.cutoff, cfg["seed"] or 0))
            curves[reps].append(pt.fidelity)
            max_tail = max(max_tail, pt.truncation_tail)
            max_defect = max(max_defect, pt.trace_defect)
    ordered = sorted(reps_list)
    # a curve's fall below one of fewer repetitions, its rises, its margins over 1/(n + 1)
    shortfalls = [a - b for lo, hi in zip(ordered, ordered[1:])
                  for a, b in zip(curves[lo], curves[hi])]
    rises = [b - a for c in curves.values() for a, b in zip(c, c[1:])]
    margins = [f - 1.0 / (n + 1.0) for c in curves.values() for n, f in zip(grid, c) if n >= 1.0]
    checks = [_check("ordering", shortfalls, "<=", ORDERING_SLACK),
              _check("monotonic", rises, "<=", MONOTONIC_SLACK),
              _check("above_baseline", margins, ">", 0.0)]
    write_csv(out, ["n_mean", "eta", "repetitions", "fidelity", "p_plus",
                    "p_minus", "baseline", "cutoff", "seed"], rows)
    write_json(sidecar_path(out), _metadata("fidelity-sweep", cfg, checks, {
        "checks_passed": all(check.passed for check in checks),
        "configs": [{"repetitions": r, "eta": e} for r, e in configs],
        "max_trace_defect": max_defect,
        "max_truncation_tail": max_tail,
        "rows": len(rows),
    }))
    return checks


def _cmd_algebra_check(cfg: dict, out: str) -> list[Check]:
    import numpy as np

    from . import fock

    cutoffs = [cfg["cutoff_override"]] if cfg["cutoff_override"] else cfg["cutoffs"]
    rng = np.random.default_rng(cfg["seed"] or 0)
    results = []
    for d in cutoffs:
        # the forms circuits use, on one mode pair |i, j> (flat index i d + j): P
        # (second mode), C (ancilla and second mode) and N as diagonals, S as a
        # permutation, B as blocks; all but C act alike on both ancilla levels, so
        # each residual on the hybrid layout equals its value here
        P = np.tile(fock.parity_diag(d), d)
        C = fock.controlled_parity_diag(d)
        N = fock.pair_number(d)
        S = fock.two_mode_swap(d)
        B = list(zip(fock.beam_splitter_5050(d), fock.pair_excitation_blocks(d)))
        residuals = {
            "parity_squared": np.abs(P * P - 1).max(),
            # S^2 = I exactly when s[s[k]] = k; otherwise |S^2 - I| holds entries 1
            "swap_squared": float((S[S] != np.arange(S.size)).any()),
            "controlled_parity_squared": np.abs(C * C - 1).max(),
            "beam_splitter_unitary": np.max([np.abs(b.conj().T @ b - np.eye(len(b))).max()
                                             for b, _ in B]),
            # [B, N] holds b_kl (n_l - n_k) in each block; [S, N] holds n[s[k]] - n[k]
            "beam_splitter_number_conservation": np.max(
                [np.abs(b * np.subtract.outer(N[idx], N[idx])).max() for b, idx in B]),
            "swap_number_conservation": np.abs(N[S] - N).max(),
        }
        # Pauli algebra on random encoded states v = E c of one fixed basis pair, E its
        # two basis columns: S(Pv) + P(Sv) = (S (P E) + P (S E)) c for every state at once.
        # Column e of S is the indicator of s[k] = e, so only rows k with s[k] in the
        # pair can be nonzero
        m, n = 1, 2
        if 2 * m + 1 < d and 2 * n < d:
            pair = [(2 * m + 1) * d + 2 * n, 2 * n * d + 2 * m + 1]
            coeffs = np.array([rng.standard_normal(2) + 1j * rng.standard_normal(2)
                               for _ in range(cfg["n_random_states"])]).T
            coeffs /= np.linalg.norm(coeffs, axis=0)
            rows = np.flatnonzero(np.isin(S, pair))
            on_pair = (S[rows, None] == pair) * (P[pair][None, :] + P[rows, None])
            residuals["pauli_anticommutator_on_pair"] = np.linalg.norm(
                on_pair @ coeffs, axis=0).max()
        results.append({"cutoff": d, "residuals": {k: float(v) for k, v in residuals.items()}})
    # one check per residual, its worst over the cutoffs that have it
    names = dict.fromkeys(name for r in results for name in r["residuals"])
    checks = [_check(name, [r["residuals"][name] for r in results if name in r["residuals"]],
                     "<=", RESIDUAL_TOL) for name in names]
    write_json(out, _metadata("algebra-check", cfg, checks, {
        "results": results, "passed": all(check.passed for check in checks),
    }))
    return checks


def _cmd_msuqc_demo(cfg: dict, out: str) -> list[Check]:
    import numpy as np

    from . import msuqc, thermal

    n_means = list(cfg["mean_excitations"])
    if cfg["cutoff_override"]:  # run_mixed's tail rule, checked before any circuit runs
        for n_mean in n_means:
            msuqc.check_thermal_tail(thermal.ThermalSpec(n_mean), cfg["cutoff_override"])
    rng = np.random.default_rng(cfg["seed"] or 0)
    records = []
    qubit_counts = list(cfg["qubit_counts"])
    for i in range(cfg["n_circuits"]):
        k = qubit_counts[i % len(qubit_counts)]
        n_mean = n_means[i % len(n_means)]
        circuit = msuqc.random_circuit(rng, k, int(rng.integers(1, cfg["max_steps"] + 1)))
        a_oracle = msuqc.qubit_space_oracle(circuit)
        cutoff = cfg["cutoff_override"] or msuqc.mixed_equivalence_cutoff(n_mean)
        res = msuqc.run_mixed(circuit, thermal.ThermalSpec(n_mean), cutoff=cutoff)
        records.append({
            "circuit": circuit.to_json_dict(),
            "qubits": k, "mean_excitation": n_mean, "cutoff": cutoff,
            "a_oracle": a_oracle, "a_mixed": res.probability,
            "deviation": abs(res.probability - a_oracle), "truncation_tail": res.truncation_tail,
        })
    checks = [_check("mixed_vs_oracle", [r["deviation"] for r in records], "<=", EQUIVALENCE_TOL)]
    write_json(out, _metadata("msuqc-demo", cfg, checks, {
        "runs": records, "worst_deviation": checks[0].value, "passed": checks[0].passed,
    }))
    return checks


def _cmd_ns_check(cfg: dict, out: str) -> list[Check]:
    import numpy as np

    from . import nsverify

    rng = np.random.default_rng(cfg["seed"] or 0)
    cutoff = cfg["cutoff_override"] or 24
    logicals = nsverify.encoded_logicals(cutoff)
    residuals = []
    for kind, values in (("phase", cfg["phases"]), ("squeeze", cfg["squeezes"])):
        for par in values:
            e = nsverify.collective_noise(kind, par, cutoff)
            for name, op in logicals.items():
                r = nsverify.commutation_check(e, op)
                residuals.append({"kind": kind, "parameter": par,
                                  "logical_operator": name, "residual": r})
    # --cutoff sets the scan's cutoff too; without it the scan takes max_total + 3
    report = nsverify.dfs_nonexistence(cfg["max_total"], cutoff=cfg["cutoff_override"], rng=rng)
    checks = [_check("commutator", [r["residual"] for r in residuals], "<=", COMMUTATOR_TOL),
              _check("null_dim", [s.null_dim for s in report.sectors], "<=", 0),
              _check("min_singular_value", [s.smallest_singular_value for s in report.sectors],
                     ">=", MIN_SINGULAR_VALUE),
              _check("negative_control", [report.negative_control], ">", NEGATIVE_CONTROL_MIN)]
    write_json(out, _metadata("ns-check", cfg, checks, {
        "commutators": residuals,
        "dfs_report": report.to_json_dict(),
        "passed": all(check.passed for check in checks),
    }))
    return checks


# command: (runner, largest --cutoff, {key: (default, rule)}); the README lists
# the peak memory measured at each upper bound
_COMMANDS = {
    "entropy-sweep": (_cmd_entropy_sweep, 500, {
        "n_min": (0.1, _number(0, 20)), "n_max": (2.0, _number(0, 20)),
        "n_step": (0.1, _number(0, above=True)),
    }),
    "fidelity-sweep": (_cmd_fidelity_sweep, 200, {
        "n_min": (0.2, _number(0, 10)), "n_max": (4.0, _number(0, 10)),
        "n_step": (0.2, _number(0, above=True)),
        "repetitions": ([50, 100, 200], _list(_number(1, 10 ** 6, integer=True))),
        "noise": (_NOISES[0], (" or ".join(map(repr, _NOISES)), lambda v: v in _NOISES)),
        # the master equation's trace defect |p+ + p- - 1| grows as (N_th + 1) / Q; Q >= 100
        # holds it far under opensys.BRANCH_TRACE_TOL (README gives the measurements)
        "bath": (None, _bath(Q=_number(100), N_th=_number(0, 100), nu=_number(1e-6, 1e6))),
    }),
    "algebra-check": (_cmd_algebra_check, 100, {
        "cutoffs": ([6, 12, 20], _list(_number(2, 100, integer=True))),
        "n_random_states": (20, _number(1, 1000, integer=True)),
    }),
    "msuqc-demo": (_cmd_msuqc_demo, 86, {
        "n_circuits": (20, _number(1, 1000, integer=True)),
        "qubit_counts": ([1, 2], _list(_number(1, 10, integer=True))),
        "mean_excitations": ([0.5, 1.0, 2.0], _list(_number(0, 4))),
        "max_steps": (3, _number(1, 5, integer=True)),
    }),
    "ns-check": (_cmd_ns_check, 103, {
        "max_total": (8, _number(0, 100, integer=True)),
        "phases": ([0.3, 0.7, math.pi / 2, math.pi], _list(_number(-2 * math.pi, 2 * math.pi))),
        "squeezes": ([0.05, 0.1, 0.2], _list(_number(-0.3, 0.3))),
    }),
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
        checks = _COMMANDS[args.command][0](cfg, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if all(check.passed for check in checks) else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
