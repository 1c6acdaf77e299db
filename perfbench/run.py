"""tqpsim benchmark: seeded workloads, verified outputs, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload mixed-circuits --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports ``tqpsim`` from
``src/`` of that checkout and exits with status 2 if there is none.  It runs
whole passes of the workload (see ``workloads.py``) until ``--seconds`` have
elapsed, at least one, and checks every operation against its reference.

With ``--trace 0`` it reports the end-to-end metrics:

- ``setup_s``: imports plus a warm-up on tiny inputs the workload does not
  use, measured in this process and in two fresh child processes; median.
- ``wall_s``: median time of one pass, i.e. to one verified result.
- ``op_p50_s``: median operation latency; the operation count is
  ``attempted``.
- ``peak_rss_mb``: peak resident memory of this process up to the end of
  its first pass (set-up plus one verified result).

``fail_frac`` (failed / attempted) is printed with them; the JSON result
carries it as ``failed`` and ``attempted``.  With ``--trace 1`` it alternates
untraced and traced passes (at least one of each) and reports the per-layer
metrics of ``tracing.py``, per traced pass, plus the tracing overhead (median
traced minus median untraced pass time).

BLAS thread pools are pinned to one thread before numpy loads.  The last line
of standard output is the JSON result; the line before it records the
environment.  Results and spans are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "TQPSIM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402  (the thread pinning above must precede numpy)
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("mixed-circuits", "open-system", "cli-suite")
SETUP_PROBES = 2  # fresh processes, besides this one, that time the set-up
END_TO_END = (  # (name, unit, better, bound)
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("op_p50_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


class SourceMissing(RuntimeError):
    pass


def add_source_path() -> None:
    """Put this checkout's ``src/`` first on the import path."""
    src = ROOT / "src"
    if not (src / "tqpsim" / "__init__.py").is_file():
        raise SourceMissing(f"no tqpsim sources under {src}")
    sys.path.insert(0, str(src))


def set_up(name: str, seed: int):
    """Import the program, build the workload and warm it up; (workload, seconds)."""
    t0 = time.perf_counter()
    import tqpsim
    import workloads
    if Path(tqpsim.__file__).resolve().parent != ROOT / "src" / "tqpsim":
        raise SourceMissing(f"imported tqpsim from {tqpsim.__file__}, not from this checkout")
    workload = workloads.build(name, seed, OUT_DIR)
    workload.warm_up()
    return workload, time.perf_counter() - t0


def probe_set_up(name: str, seed: int) -> float:
    """Time the set-up in a fresh child process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--setup-probe"], capture_output=True, text=True, timeout=150, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_passes(workload, seconds: float, tracer=None) -> dict:
    """Run whole passes until `seconds` have elapsed.

    With a tracer, even passes run untraced and odd passes traced, and at
    least one of each runs.
    """
    walls = {False: [], True: []}
    op_times, margins = [], {}
    attempted = failed = 0
    start = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        ops = workload.make_pass(index)
        if traced:
            tracer.install()
        t_pass = time.perf_counter()
        try:
            for i, op in enumerate(ops):
                if traced:
                    tracer.run_id = f"{index}.{i}"
                t0 = time.perf_counter()
                try:
                    ok, info = op.run()
                except Exception as exc:  # a raising operation is a failed one
                    ok, info = False, {}
                    print(f"op {op.name} (pass {index}) raised {exc!r}", file=sys.stderr)
                op_times.append(time.perf_counter() - t0)
                attempted += 1
                if not ok:
                    failed += 1
                    print(f"op {op.name} (pass {index}) failed its check", file=sys.stderr)
                for key, value in info.items():
                    margins[key] = max(margins.get(key, value), value)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(time.perf_counter() - t_pass)
        if index == 0:
            # later passes can reuse heap the allocator kept, or not, so their
            # peak varies from process to process; the first pass's does not
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        index += 1
        if time.perf_counter() - start >= seconds and (tracer is None or index >= 2):
            break
    return {"walls": walls[False], "traced_walls": walls[True], "op_times": op_times,
            "margins": margins, "peak_rss_mb": peak_rss_mb, "attempted": attempted, "failed": failed}


def end_to_end(run: dict, setup_samples: list[float]) -> dict:
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(run["walls"]),
        "op_p50_s": statistics.median(run["op_times"]),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}


def per_layer(run: dict, tracer) -> dict:
    passes = len(run["traced_walls"])
    values = {k: v / passes for k, v in tracer.layer_totals().items()}
    values.update({k: v / passes for k, v in tracer.counts.items()})
    values.update(tracer.peaks)
    busy = values["opensys.jump_unravelling.busy_s"]
    values["opensys.jump_unravelling.traj_per_s"] = (
        values.get("opensys.jump_unravelling.trajectories", 0.0) / busy if busy else 0.0)
    values.update(run["margins"])
    values["trace.overhead_s"] = (statistics.median(run["traced_walls"])
                                  - statistics.median(run["walls"]))
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit, _ in tracing.per_layer_metrics()}


def git_revision() -> str | None:
    """The checked-out commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_revision": git_revision(),
        "seed": seed,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        add_source_path()
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        _, setup_s = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_samples = [] if args.trace else [probe_set_up(args.workload, args.seed)
                                           for _ in range(SETUP_PROBES)]
    workload, setup_s = set_up(args.workload, args.seed)
    setup_samples.append(setup_s)
    tracer = tracing.Tracer() if args.trace else None
    run = run_passes(workload, args.seconds, tracer)
    metrics = per_layer(run, tracer) if tracer else end_to_end(run, setup_samples)

    env = environment(args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    fail_frac = run["failed"] / run["attempted"]
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps({
        "workload": args.workload, "environment": env, "metrics": metrics,
        "fail_frac": fail_frac, "attempted": run["attempted"], "failed": run["failed"],
        "pass_walls_s": run["walls"], "traced_pass_walls_s": run["traced_walls"],
        "op_times_s": run["op_times"], "setup_samples_s": setup_samples}, indent=1))
    if tracer:
        tracer.dump(OUT_DIR / f"spans-{stem}.json")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_frac = {fail_frac:.6g} ({run['failed']} of {run['attempted']} ops failed)")
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
