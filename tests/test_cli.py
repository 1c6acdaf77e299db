import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tqpsim import cli, thermal
from tqpsim._io import sidecar_path


def run(args):
    return cli.main(args)


def test_entropy_sweep_output_and_columns(tmp_path):
    out = tmp_path / "entropy.csv"
    assert run(["entropy-sweep", "--out", str(out), "--seed", "1"]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["n_mean", "S_thermal", "S_tqp", "n_tilde",
                      "landauer_pure", "landauer_tqp", "crossover_flag"]
    assert len(lines) - 1 == 20  # grid [0.1, 2.0] step 0.1
    meta = json.loads((tmp_path / "entropy.csv.meta.json").read_text())
    assert 0.7 <= meta["crossover_root"] <= 0.9
    assert meta["version"]
    # the pair-entropy column reproduces the closed form
    for line in lines[1:]:
        vals = line.split(",")
        n = float(vals[0])
        assert abs(float(vals[2]) - thermal.tqp_entropy_bits(n)) < 1e-6
        assert abs(float(vals[3]) - thermal.effective_pair_excitation(n)) < 1e-9


def test_reproducible_csv_bodies(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_min": 0.2, "n_max": 1.0, "n_step": 0.2}))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["entropy-sweep", "--config", str(cfg), "--out", str(out1), "--seed", "9"]) == 0
    assert run(["entropy-sweep", "--config", str(cfg), "--out", str(out2), "--seed", "9"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_unknown_config_key_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"n_minimum": 0.1}))
    out = tmp_path / "x.csv"
    assert run(["entropy-sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_algebra_check_passes(tmp_path):
    out = tmp_path / "algebra.json"
    assert run(["algebra-check", "--out", str(out), "--seed", "2"]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert [r["cutoff"] for r in doc["results"]] == [6, 12, 20]
    worst = max(max(r["residuals"].values()) for r in doc["results"])
    assert worst <= 1e-10


def dense_algebra_residuals(d, rng, n_random_states):
    """algebra-check's residuals at cutoff `d` by dense (2 d^2) x (2 d^2)
    products of the hybrid operators, rebuilt from the same structured forms:
    the cross-check of its structural route."""
    import dense_reference as dense

    lay = dense.SpaceLayout(1, (d, d))
    eye = np.eye(lay.total_dim)
    P = dense.parity(lay, 1)
    S = dense.two_mode_swap(lay, 0, 1)
    C = dense.controlled_parity(lay, 1)
    B = dense.beam_splitter_5050(lay, 0, 1)
    N = dense.number(lay, 0) + dense.number(lay, 1)
    checks = {
        "parity_squared": np.abs(P @ P - eye).max(),
        "swap_squared": np.abs(S @ S - eye).max(),
        "controlled_parity_squared": np.abs(C @ C - eye).max(),
        "beam_splitter_unitary": np.abs(B.conj().T @ B - eye).max(),
        "beam_splitter_number_conservation": np.abs(B @ N - N @ B).max(),
        "swap_number_conservation": np.abs(S @ N - N @ S).max(),
    }
    m, n = 1, 2
    if 2 * m + 1 < d and 2 * n < d:
        anticomm = S @ P + P @ S
        worst = 0.0
        for _ in range(n_random_states):
            c0, c1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v = c0 * dense.basis(lay, (0,), (2 * m + 1, 2 * n)) \
                + c1 * dense.basis(lay, (0,), (2 * n, 2 * m + 1))
            v /= np.linalg.norm(v)
            worst = max(worst, float(np.linalg.norm(anticomm @ v)))
        checks["pauli_anticommutator_on_pair"] = worst
    return {k: float(v) for k, v in checks.items()}


@pytest.mark.parametrize("seed", [None, 2, 11])
def test_algebra_check_matches_dense_products(tmp_path, seed):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cutoffs": [6, 12]}))
    out = tmp_path / "algebra.json"
    seed_args = [] if seed is None else ["--seed", str(seed)]
    assert run(["algebra-check", "--config", str(cfg), "--out", str(out)] + seed_args) == 0
    rng = np.random.default_rng(0 if seed is None else seed)
    for result in json.loads(out.read_text())["results"]:
        dense = dense_algebra_residuals(result["cutoff"], rng, 20)
        structural = result["residuals"]
        assert list(structural) == sorted(dense)  # write_json sorts keys
        for name, value in dense.items():
            assert abs(structural[name] - value) <= 1e-15, name
            assert (structural[name] == 0.0) == (value == 0.0), name


def _shift(v, k):
    v = v.copy()
    v[k] += 1e-6
    return v


# each structured form with its entry at |1, 0> moved: level 0 of the parity
# diagonals, |1, 0> of the total number, the beam splitter's t = 1 block on the
# diagonal at |1, 0>, and the swap sending |1, 0> to itself (its 1 moved onto
# the diagonal)
PERTURBED = {
    "parity-diagonal": ("parity_diag", lambda v, d: _shift(v, 0)),
    "two_mode_swap-diagonal": ("two_mode_swap",
                               lambda v, d: np.where(np.arange(v.size) == d, d, v)),
    "controlled_parity-diagonal": ("controlled_parity_diag", lambda v, d: _shift(v, 0)),
    "beam_splitter_5050-diagonal": ("beam_splitter_5050",
                                    lambda v, d: v[:1] + [_shift(v[1], (1, 1))] + v[2:]),
    "number-diagonal": ("pair_number", lambda v, d: _shift(v, d)),
}


@pytest.mark.parametrize("case", PERTURBED)
def test_algebra_check_fails_on_a_perturbed_operator(tmp_path, monkeypatch, case):
    from tqpsim import fock

    form, move = PERTURBED[case]
    original = getattr(fock, form)
    monkeypatch.setattr(fock, form, lambda d: move(original(d), d))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cutoffs": [6]}))
    out = tmp_path / "algebra.json"
    assert run(["algebra-check", "--config", str(cfg), "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["passed"] is False
    assert max(doc["results"][0]["residuals"].values()) > 1e-7


def _fresh_run(command: str, config: dict, tmp_path,
               *flags: str) -> tuple[int, list[str], dict, float]:
    """Run one subcommand in a fresh process, with extra command-line `flags`:
    its exit code, the scipy modules it loaded, its metadata and the
    process's peak RSS in MB.  The peak is VmHWM, the high-water mark of the
    process's own memory map: ru_maxrss also holds the RSS of the parent
    process it was forked from."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / ("out.csv" if command.endswith("-sweep") else "out.json")
    code = ("import json, re, sys; from tqpsim import cli; "
            f"code = cli.main([{command!r}, '--config', {str(cfg)!r}, '--out', {str(out)!r}, "
            f"*{list(flags)!r}]); "
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))); "
            "status = open('/proc/self/status').read(); "
            "print(int(re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1)) / 1024); "
            "sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    meta = sidecar_path(out) if out.suffix == ".csv" else out
    *_, loaded, peak_mb = proc.stdout.splitlines()
    return proc.returncode, json.loads(loaded), json.loads(meta.read_text()), float(peak_mb)


# small configs that reach every route of every command, the master equation of a
# bath included; none needs scipy
EVERY_COMMAND_RUNS = {
    "entropy-sweep": ("entropy-sweep", {"n_min": 0.5, "n_max": 1.0, "n_step": 0.5}),
    "algebra-check": ("algebra-check", {"cutoffs": [6]}),
    "ns-check": ("ns-check", {"max_total": 2, "phases": [0.3], "squeezes": [0.05]}),
    "fidelity-sweep": ("fidelity-sweep",
                       {"n_min": 0.5, "n_max": 1.0, "n_step": 0.5, "repetitions": [50]}),
    "fidelity-sweep-bath": ("fidelity-sweep", {"n_min": 0.5, "n_max": 0.5, "repetitions": [50],
                                               "bath": {"Q": 1e4, "N_th": 0.5}}),
    "msuqc-demo": ("msuqc-demo", {"n_circuits": 2, "max_steps": 1, "mean_excitations": [0.5]}),
}


@pytest.mark.parametrize("run_id", EVERY_COMMAND_RUNS)
def test_every_command_loads_no_scipy(run_id, tmp_path):
    code, loaded, meta, _ = _fresh_run(*EVERY_COMMAND_RUNS[run_id], tmp_path)
    assert code == 0
    assert loaded == []
    assert meta["scipy"] is None


def test_algebra_check_allocates_only_blocks(tmp_path):
    # the dense hybrid operators at d = 32 held 67 MB each and peaked near 500 MB
    code, _, meta, peak_mb = _fresh_run("algebra-check", {"cutoffs": [32]}, tmp_path)
    assert code == 0 and meta["passed"] is True
    assert peak_mb < 150


def test_ns_check_at_the_max_total_bound_builds_no_pair_matrix(tmp_path):
    # the dense channels and logicals on the d^2-dimensional pair space peaked at
    # 323 MB at max_total 40; at max_total 100 (d = 103) one of them alone is 1.8 GB
    code, _, meta, peak_mb = _fresh_run("ns-check", {"max_total": 100}, tmp_path)
    assert code == 0 and meta["passed"] is True
    assert peak_mb < 150


def test_msuqc_demo_at_the_max_steps_row_stays_small(tmp_path):
    # four qubits at n = 2 (d = 48) and up to three steps: one stack per pair
    # padded its blocks to 2.9 times their entries and peaked at 389 MB; the
    # size-class stacks with the ancilla axis peaked at 188 MB, without it 114 MB
    code, _, meta, peak_mb = _fresh_run(
        "msuqc-demo", {"qubit_counts": [4], "mean_excitations": [2.0], "max_steps": 3,
                       "n_circuits": 4}, tmp_path, "--seed", "7")
    assert code == 0 and meta["passed"] is True
    assert peak_mb < 160


def test_msuqc_demo_at_four_steps_keeps_few_states_per_pair(tmp_path):
    # three qubits at n = 2 (d = 48), up to four steps: enumerating every
    # entangler branch held 2^8 states of the middle pair and peaked at 231 MB;
    # the Z_L path sum holds 2^3 states per pair
    code, _, meta, peak_mb = _fresh_run(
        "msuqc-demo", {"qubit_counts": [3], "mean_excitations": [2.0], "max_steps": 4,
                       "n_circuits": 4}, tmp_path, "--seed", "0")
    assert code == 0 and meta["passed"] is True
    assert peak_mb < 100


def test_fidelity_sweep_at_the_cutoff_bound_stays_small(tmp_path):
    # d = 200 at n = 10 for the three default repetition counts: the 2d x 2d
    # unitary's power and the dense conjugated state peaked at 48 MB; the sector
    # blocks and the column readout at 39 MB
    code, _, meta, peak_mb = _fresh_run(
        "fidelity-sweep", {"n_min": 10, "n_max": 10}, tmp_path, "--cutoff", "200")
    assert code == 0 and meta["checks_passed"] is True
    assert peak_mb < 100


def test_sidecar_records_the_blas_pool_size(tmp_path, monkeypatch):
    # with no thread variable set, only --threads 1 pins the fresh process's pool
    monkeypatch.delenv("TQPSIM_THREADS", raising=False)
    for var in cli.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    code, _, meta, _ = _fresh_run("entropy-sweep", {"n_min": 0.5, "n_max": 0.5}, tmp_path,
                                  "--threads", "1")
    assert code == 0
    assert meta["blas_threads"] == 1


def test_sidecar_records_null_blas_threads_without_the_bundled_openblas(tmp_path, monkeypatch):
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    libs = tmp_path / "numpy.libs"
    out = tmp_path / "e.csv"
    try:
        cli._blas_thread_query.cache_clear()
        assert cli._blas_thread_query() is None  # no numpy.libs beside numpy
        libs.mkdir()
        (libs / "libscipy_openblas64_.so").write_bytes(b"not a library")
        cli._blas_thread_query.cache_clear()
        assert cli._blas_thread_query() is None  # an OpenBLAS that does not load
        assert run(["entropy-sweep", "--out", str(out)]) == 0
        assert json.loads(sidecar_path(out).read_text())["blas_threads"] is None
    finally:
        cli._blas_thread_query.cache_clear()


def test_fidelity_sweep_small_grid(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_min": 0.5, "n_max": 2.0, "n_step": 0.5,
                               "repetitions": [50, 100]}))
    out = tmp_path / "fid.csv"
    assert run(["fidelity-sweep", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) - 1 == 8  # 2 configs x 4 grid points
    rows = [line.split(",") for line in lines[1:]]
    for r in rows:
        n, fid, baseline = float(r[0]), float(r[3]), float(r[6])
        assert abs(baseline - 1.0 / (n + 1.0)) < 1e-9
        if n >= 1.0:
            assert fid > baseline
    meta = json.loads((tmp_path / "fid.csv.meta.json").read_text())
    assert meta["checks_passed"] is True


def test_fidelity_sweep_records_its_largest_truncation_tail(tmp_path):
    # at cutoff 12 the tails of n = 0.5 .. 2 span 5e-6 .. 4e-3; the sidecar keeps
    # the largest, the CSV none
    from tqpsim import opensys, pulses

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_min": 0.5, "n_max": 2.0, "n_step": 0.5,
                               "repetitions": [50, 100]}))
    out = tmp_path / "fid.csv"
    assert run(["fidelity-sweep", "--config", str(cfg), "--out", str(out), "--cutoff", "12"]) == 0
    tails = [opensys.fidelity_point(n, (r, pulses.eta_for_repetitions(r)), cutoff=12)
             .truncation_tail for r in (50, 100) for n in (0.5, 1.0, 1.5, 2.0)]
    meta = json.loads((tmp_path / "fid.csv.meta.json").read_text())
    assert meta["max_truncation_tail"] == max(tails) > 1e-3
    assert "tail" not in out.read_text().splitlines()[0]


def test_fidelity_sweep_default_config(tmp_path):
    out = tmp_path / "fid.csv"
    assert run(["fidelity-sweep", "--out", str(out), "--seed", "5"]) == 0
    assert len(out.read_text().strip().splitlines()) - 1 == 60  # 3 configs x 20 grid points
    meta = json.loads((tmp_path / "fid.csv.meta.json").read_text())
    assert meta["checks_passed"] is True
    assert meta["rows"] == 60


def test_fidelity_sweep_with_bath(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_min": 0.5, "n_max": 0.5, "repetitions": [50],
                               "bath": {"Q": 1e4, "N_th": 0.5}}))
    out = tmp_path / "fid.csv"
    assert run(["fidelity-sweep", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
    (row,) = out.read_text().strip().splitlines()[1:]
    assert 0.5 < float(row.split(",")[3]) <= 1.0


def test_msuqc_demo_small(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_circuits": 3, "max_steps": 2,
                               "mean_excitations": [0.5], "qubit_counts": [1]}))
    out = tmp_path / "demo.json"
    assert run(["msuqc-demo", "--config", str(cfg), "--out", str(out), "--seed", "4"]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["worst_deviation"] <= 1e-6
    assert len(doc["runs"]) == 3


def test_msuqc_demo_three_qubits(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"qubit_counts": [3], "n_circuits": 1}))
    out = tmp_path / "demo.json"
    assert run(["msuqc-demo", "--config", str(cfg), "--out", str(out), "--seed", "4"]) == 0
    (record,) = json.loads(out.read_text())["runs"]
    assert record["qubits"] == 3
    assert "method" not in record
    assert 0.0 < record["truncation_tail"] < 1e-6


def test_msuqc_demo_ten_qubits(tmp_path):
    # at seed 0 the circuits draw 3 and 2 steps, 27 and 18 entanglers
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"qubit_counts": [10], "n_circuits": 2}))
    out = tmp_path / "demo.json"
    assert run(["msuqc-demo", "--config", str(cfg), "--out", str(out), "--seed", "0"]) == 0
    assert [len(r["circuit"]["steps"]) for r in json.loads(out.read_text())["runs"]] == [3, 2]


@pytest.mark.parametrize("command, config", [
    ("entropy-sweep", {"n_step": 0}),
    ("entropy-sweep", {"n_min": "a"}),
    ("fidelity-sweep", {"repetitions": [0]}),
    ("fidelity-sweep", {"repetitions": []}),
    ("algebra-check", {"cutoffs": []}),
    ("msuqc-demo", {"qubit_counts": []}),
    ("fidelity-sweep", {"bath": {"Q": 1e4, "temperature": 1.0}}),
    ("fidelity-sweep", {"bath": {"Q": 1e4, "eta": 0.01}}),
    ("fidelity-sweep", {"bath": {"N_th": 0.5}}),
    ("fidelity-sweep", {"bath": {"Q": "high"}}),
    ("fidelity-sweep", {"bath": {"Q": 1e4, "Gamma_dc": 3.0}}),
    ("fidelity-sweep", {"bath": {"Q": 1e4, "Delta": 3.0}}),
    ("fidelity-sweep", {"noise": "exact-gate", "bath": {"Q": 1e4}}),
    ("msuqc-demo", {"mean_excitations": [-1.0]}),
    ("fidelity-sweep", {"n_min": -1.0, "n_max": 0.0}),
    ("entropy-sweep", {"n_min": 1.0, "n_max": 0.5}),
    ("fidelity-sweep", {"n_min": 1.0, "n_max": 0.5}),
    ("msuqc-demo", {"n_circuits": -1}),
    ("algebra-check", {"n_random_states": 0}),
    ("msuqc-demo", {"max_steps": 0}),
    ("ns-check", {"max_total": -1}),
    ("fidelity-sweep", {"bath": {"Q": math.nan}, "n_min": 0.5, "n_max": 0.5,
                        "repetitions": [50]}),
    ("entropy-sweep", {"n_max": math.inf}),
    ("entropy-sweep", {"n_step": math.nan}),
    ("ns-check", {"min_singular_value": math.nan}),
    ("ns-check", {"commutator_tol": math.nan}),
    ("entropy-sweep", {"agreement_tol": math.nan}),
    ("fidelity-sweep", {"monotonic_slack": math.nan}),
    ("msuqc-demo", {"equivalence_tol": math.nan}),
    ("algebra-check", {"residual_tol": -1.0}),
    # sizes beyond the memory budget
    ("algebra-check", {"cutoffs": [120]}),
    ("ns-check", {"max_total": 400}),
    ("msuqc-demo", {"mean_excitations": [1000.0], "n_circuits": 1}),
    ("fidelity-sweep", {"n_min": 20.0, "n_max": 20.0, "repetitions": [50], "bath": {"Q": 1e4}}),
    ("entropy-sweep", {"n_step": 1e-9}),
    ("fidelity-sweep", {"n_min": 0.5, "n_max": 0.5, "repetitions": [10 ** 30],
                        "bath": {"Q": 1e4}}),
    ("msuqc-demo", {"qubit_counts": [1000000000], "n_circuits": 1}),
    ("msuqc-demo", {"max_steps": 1000000000, "qubit_counts": [1], "n_circuits": 1}),
    # a ZeroDivisionError, NaN results, and a grid point beyond n_max
    ("fidelity-sweep", {"n_min": 0.5, "n_max": 0.5, "repetitions": [50],
                        "bath": {"Q": 1e4, "nu": 0.0}}),
    ("fidelity-sweep", {"n_min": 0.5, "n_max": 0.5, "repetitions": [50], "bath": {"Q": 1e-300}}),
    ("ns-check", {"phases": [1e308]}),
    ("entropy-sweep", {"n_min": 0.0, "n_max": 1.0, "n_step": 0.6}),
    # a bath whose master equation loses more trace than BRANCH_TRACE_TOL at run time
    ("fidelity-sweep", {"n_min": 2.0, "n_max": 2.0, "repetitions": [200],
                        "bath": {"Q": 1, "N_th": 100}}),
    ("ns-check", {"max_total": 101}),
    ("msuqc-demo", {"max_steps": 6}),
    ("msuqc-demo", {"mean_excitations": [4.5]}),
])
def test_invalid_config_value_is_usage_error(tmp_path, capsys, command, config):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "x.csv"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert any(key in err for key in config)  # the message names the offending key
    assert not out.exists()


@pytest.mark.parametrize("command, config, flags, env", [
    ("fidelity-sweep", {"n_min": -1.0, "n_max": 0.0}, ["--cutoff", "10"], None),
    ("algebra-check", {}, ["--cutoff", "0"], None),
    ("entropy-sweep", {}, ["--threads", "-2"], None),
    ("entropy-sweep", {}, [], "abc"),
    ("msuqc-demo", {}, ["--cutoff", "87"], None),
    ("msuqc-demo", {"n_circuits": 3}, ["--cutoff", "20"], None),
])
def test_invalid_flag_or_thread_environment_is_usage_error(tmp_path, capsys, monkeypatch,
                                                           command, config, flags, env):
    if env is not None:
        monkeypatch.setenv("TQPSIM_THREADS", env)
    threads_before = os.environ.get("OMP_NUM_THREADS")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "x.csv"
    assert run([command, "--config", str(cfg), "--out", str(out)] + flags) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()
    assert os.environ.get("OMP_NUM_THREADS") == threads_before


def test_msuqc_demo_refuses_a_small_cutoff_before_any_circuit(tmp_path, capsys, monkeypatch):
    # --cutoff 20 leaves <n> = 0.5 a tail of 2.9e-10 and <n> = 1 one of 9.5e-7
    from tqpsim import msuqc

    runs = []
    monkeypatch.setattr(msuqc, "run_mixed", lambda *a, **k: runs.append(a))
    out = tmp_path / "m.json"
    assert run(["msuqc-demo", "--out", str(out), "--cutoff", "20"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --cutoff 20 is too small for mean excitation 1.0")
    assert runs == [] and not out.exists()


def test_entropy_sweep_cutoff_below_two_is_usage_error(tmp_path, capsys, monkeypatch):
    out = tmp_path / "e.csv"
    assert run(["entropy-sweep", "--out", str(out), "--cutoff", "1"]) == 2
    assert "--cutoff must be 2 to 500 for entropy-sweep, got 1" in capsys.readouterr().err
    # behind the --cutoff rule ThermalSpec refuses the value itself, and main exits 2
    resolve = cli._resolve_config
    monkeypatch.setattr(cli, "_resolve_config",
                        lambda command, args: {**resolve(command, args), "cutoff_override": 1})
    assert run(["entropy-sweep", "--out", str(out)]) == 2
    assert "error: cutoff must be an integer >= 2, got 1" in capsys.readouterr().err
    assert not out.exists()


def test_ns_check(tmp_path):
    out = tmp_path / "ns.json"
    assert run(["ns-check", "--out", str(out), "--seed", "5"]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["dfs_report"]["all_null_dims_zero"] is True
    assert doc["dfs_report"]["negative_control_commutator"] > 0.1
    assert doc["dfs_report"]["cutoff"] == 8 + 3  # max_total + 3 without --cutoff


def test_ns_check_cutoff_reaches_the_null_space_scan(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_total": 6}))
    out = tmp_path / "ns.json"
    assert run(["ns-check", "--config", str(cfg), "--out", str(out), "--cutoff", "12"]) == 0
    assert json.loads(out.read_text())["dfs_report"]["cutoff"] == 12
    # the scan needs a cutoff above max_total + 2
    for cutoff in ("8", "5"):
        out = tmp_path / f"ns{cutoff}.json"
        assert run(["ns-check", "--config", str(cfg), "--out", str(out), "--cutoff", cutoff]) == 2
        assert "cutoff must exceed max_total + 2" in capsys.readouterr().err
        assert not out.exists()


def test_metadata_embeds_resolved_config(tmp_path):
    out = tmp_path / "entropy.csv"
    run(["entropy-sweep", "--out", str(out), "--seed", "31"])
    meta = json.loads((tmp_path / "entropy.csv.meta.json").read_text())
    cfg = meta["config"]
    assert cfg["seed"] == 31
    assert "n_min" in cfg and "n_step" in cfg and "agreement_tol" in cfg
    assert "cutoff_override" in cfg


def test_sidecar_records_libraries_and_thread_variables(tmp_path):
    import scipy

    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        assert run(["entropy-sweep", "--out", str(out), "--seed", "5"]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["numpy"] == np.__version__
    assert meta["scipy"] == scipy.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert meta["blas"] == {"name": blas["name"], "version": blas["version"]}
    # a fresh process applies TQPSIM_THREADS=1 to every BLAS pool before numpy loads
    env = {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_VARS}
    env["TQPSIM_THREADS"] = "1"
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "c.csv"
    subprocess.run([sys.executable, "-m", "tqpsim.cli", "entropy-sweep", "--out", str(out),
                    "--seed", "5"], env=env, check=True)
    assert out.read_bytes() == outs[0].read_bytes()
    meta = json.loads((tmp_path / "c.csv.meta.json").read_text())
    assert meta["threads"] == {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                               "MKL_NUM_THREADS": "1", "TQPSIM_THREADS": "1"}


def test_threads_flag_after_numpy_loaded_changes_nothing(tmp_path, capsys, monkeypatch):
    # in process numpy is loaded, so the BLAS pools keep their size: the
    # variables stay as they are and a differing request is noted once
    monkeypatch.delenv("TQPSIM_THREADS", raising=False)
    for var in cli.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    env_before = dict(os.environ)
    out = tmp_path / "e.csv"
    assert run(["entropy-sweep", "--out", str(out), "--threads", "2"]) == 0
    assert dict(os.environ) == env_before
    notes = [line for line in capsys.readouterr().err.splitlines() if line.startswith("note:")]
    assert len(notes) == 1
    meta = json.loads((tmp_path / "e.csv.meta.json").read_text())
    assert meta["threads"] == {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                               "MKL_NUM_THREADS": "1", "TQPSIM_THREADS": None}
    # a request that matches the variables needs no note
    assert run(["entropy-sweep", "--out", str(out), "--threads", "1"]) == 0
    assert "note:" not in capsys.readouterr().err
    assert dict(os.environ) == env_before


# In-range values kept small, so that one run takes milliseconds: a key's
# draw is kept only if its table rule accepts it.
_SMALL = {
    # grid points on quarters, so that most grids end at n_max
    "n_min": st.sampled_from([0, 0.25, 0.5]) | st.floats(0, 0.6),
    "n_max": st.sampled_from([0, 0.25, 0.5]) | st.floats(0, 0.6),
    "n_step": st.sampled_from([0.25, 0.5]) | st.floats(0.25, 1),
    "repetitions": st.lists(st.integers(1, 3), min_size=1, max_size=2),
    "noise": st.sampled_from(["ideal-sequence", "exact-gate"]),
    "bath": st.none() | st.fixed_dictionaries(
        {"Q": st.floats(1, 1e6)}, optional={"N_th": st.floats(0, 2), "nu": st.floats(0.5, 2)}),
    "cutoffs": st.lists(st.integers(2, 8), min_size=1, max_size=2),
    "n_random_states": st.integers(1, 3),
    "n_circuits": st.integers(1, 2),
    "qubit_counts": st.lists(st.integers(1, 3), min_size=1, max_size=2),
    "mean_excitations": st.lists(st.floats(0, 1), min_size=1, max_size=2),
    "max_steps": st.integers(1, 2),
    "max_total": st.integers(0, 4),
    "phases": st.lists(st.floats(-7, 7), min_size=1, max_size=2),
    "squeezes": st.lists(st.floats(-0.3, 0.3), min_size=1, max_size=2),
}
_TOLERANCE = st.floats(0, 1)  # every other key is a tolerance, slack or threshold
_ARBITRARY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


@st.composite
def _command_and_config(draw):
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    table = cli._COMMANDS[command][2]
    config = {}
    for key, (_, (_, test)) in table.items():  # tolerances may keep their defaults
        if key in _SMALL or draw(st.booleans()):
            config[key] = draw(_SMALL.get(key, _TOLERANCE).filter(test))
    if draw(st.booleans()):  # one key, any JSON: wrong types, out of range, huge, NaN
        config[draw(st.sampled_from(sorted(table)))] = draw(_ARBITRARY_JSON)
    cutoff = draw(st.none() | st.integers(2, 8) | st.integers())
    return command, config, [] if cutoff is None else ["--cutoff", str(cutoff)]


# small drawn repetition counts give a large eta, which HybridHamiltonianParams
# warns about; that warning is expected here and only that one is silenced
@pytest.mark.filterwarnings("ignore:eta = .* is large for the engineered sequence:UserWarning")
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_command_and_config())
def test_any_config_exits_cleanly(case):
    command, config, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run([command, "--config", str(cfg), "--out", str(out), "--seed", "1"] + flags)
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        if code == 2:
            assert len(errors) == 1 and not out.exists() and not cli.sidecar_path(out).exists()
        else:
            assert code in (0, 1) and not errors and out.exists()


def test_readme_documents_every_config_key_and_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    assert f"{cli.MEMORY_BUDGET_MB} MB" in section
    for command, (_, cutoff_max, table) in cli._COMMANDS.items():
        assert f"| `{command}` | `--cutoff` | none | an integer >= 2 and <= {cutoff_max} |" \
            in section
        for key, (default, (what, _)) in table.items():
            assert f"| `{command}` | `{key}` | `{json.dumps(default)}` | {what} |" in section
