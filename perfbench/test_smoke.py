"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is emitted, that the
correctness gate counts wrong results and exceptions as failures, and that
the benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.add_source_path()

import tracing  # noqa: E402
import workloads  # noqa: E402
from tqpsim import fock, msuqc  # noqa: E402

# a layer each workload must reach through the traced wrappers
EXERCISED = {"mixed-circuits": "fock.beam_splitter_5050",
             "open-system": "opensys.jump_unravelling",
             "cli-suite": "pulses.sequence_unitary"}


def tiny(name, tmp_path, reference=None):
    if name == "mixed-circuits":
        return workloads.mixed_circuits(1, shape=((1, 0.1, 1), (2, 0.1, 2)), reference=reference)
    if name == "open-system":
        return workloads.open_system(1, n_traj=20, ensemble_cutoff=4, eps_cutoff=4)
    return workloads.cli_suite(1, tmp_path, workloads.TINY_CLI_CONFIGS)


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == tracing.per_layer_metrics()


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_is_emitted(name, tmp_path):
    workload = tiny(name, tmp_path)
    workload.warm_up()
    plain = run.run_passes(workload, 0)
    assert plain["attempted"] > 0
    if name != "open-system":  # its statistical gates need the full trajectory count
        assert plain["failed"] == 0
    assert list(run.end_to_end(plain, [1.0])) == [m[0] for m in run.END_TO_END]

    original = fock.beam_splitter_5050
    tracer = tracing.Tracer()
    traced = run.run_passes(workload, 0, tracer)
    assert fock.beam_splitter_5050 is original  # wrappers removed after tracing
    layers = run.per_layer(traced, tracer)
    assert list(layers) == [m[0] for m in tracing.per_layer_metrics()]
    assert layers[f"{EXERCISED[name]}.calls"]["value"] > 0


def test_wrong_reference_and_exceptions_count_as_failures(tmp_path):
    wrong = tiny("mixed-circuits", tmp_path,
                 reference=lambda circuit: msuqc.qubit_space_oracle(circuit) + 1e-3)
    result = run.run_passes(wrong, 0)
    assert result["failed"] == result["attempted"] == 2

    def boom():
        raise RuntimeError("boom")
    raising = workloads.Workload(lambda: None, lambda _: [workloads.Op("boom", boom)])
    result = run.run_passes(raising, 0)
    assert result["failed"] == result["attempted"] == 1


def test_same_seed_gives_same_inputs():
    def circuits(seed):
        return [op.run.args[0] for op in workloads.mixed_circuits(seed).make_pass(0)]
    assert circuits(3) == circuits(3)
    assert circuits(3) != circuits(4)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-suite",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
