"""Traced runs: spans around the calls into each tqpsim layer.

The spans are recorded from the benchmark's side.  Each named function is
replaced, for the traced passes only, by a wrapper installed where its
callers look it up: the module attribute for calls written ``module.f(...)``
or made inside the defining module, and the importing module's binding for
names taken in by ``from ... import``.  ``msuqc`` imports ``required_cutoff``
and ``even_odd_weights`` that way, so those two are wrapped in ``msuqc`` and
measure the mixed-circuit cutoff search only.

Spans (name, start, end, parent, run id) are kept in memory and written out
when the run ends.  A layer's busy time sums its outermost spans; its self
time subtracts the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, layer name)
LAYERS = (
    ("fock", "beam_splitter_5050", "fock.beam_splitter_5050"),
    ("fock", "two_mode_swap", "fock.two_mode_swap"),
    ("fock", "apply_local", "fock.apply_local"),
    ("fock", "apply_diag_local", "fock.apply_diag_local"),
    ("msuqc", "run_mixed", "msuqc.run_mixed"),
    ("msuqc", "qubit_space_oracle", "msuqc.qubit_space_oracle"),
    ("msuqc", "mixed_equivalence_cutoff", "msuqc.mixed_equivalence_cutoff"),
    ("msuqc", "required_cutoff", "thermal.required_cutoff"),
    ("msuqc", "even_odd_weights", "thermal.even_odd_weights"),
    ("opensys", "evolve_master", "opensys.evolve_master"),
    ("opensys", "jump_unravelling", "opensys.jump_unravelling"),
    ("opensys", "fidelity_point", "opensys.fidelity_point"),
    ("pulses", "sequence_unitary", "pulses.sequence_unitary"),
    ("pulses", "engineered_controlled_parity", "pulses.engineered_controlled_parity"),
    ("pulses", "build_h2_sequence", "pulses.build_h2_sequence"),
    ("thermal", "entropy_report", "thermal.entropy_report"),
    ("nsverify", "collective_noise", "nsverify.collective_noise"),
    ("nsverify", "commutation_check", "nsverify.commutation_check"),
    ("nsverify", "dfs_nonexistence", "nsverify.dfs_nonexistence"),
    ("cli", "main", "cli.main"),
)

# counters recorded at the layer boundaries: (name, unit, better)
COUNTERS = (
    ("fock.apply_local.bytes_computed", "B", "lower"),
    ("fock.apply_diag_local.bytes_computed", "B", "lower"),
    ("msuqc.run_mixed.k1.busy_s", "s", "lower"),
    ("msuqc.run_mixed.k2.busy_s", "s", "lower"),
    ("msuqc.cutoff_max", "count", "lower"),
    ("opensys.jump_unravelling.trajectories", "count", "higher"),
    ("opensys.jump_unravelling.jumps", "count", "lower"),
    ("opensys.jump_unravelling.traj_per_s", "1/s", "higher"),
    ("cli.bytes_written", "B", "lower"),
)
# informational error margins from the correctness gates (not gates themselves)
MARGINS = (
    ("msuqc.max_dev", "1", "lower"),
    ("opensys.master_vs_ensemble_dist", "1", "lower"),
    ("opensys.eps_ratio", "1", "lower"),
)
OVERHEAD = ("trace.overhead_s", "s", "lower")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for _, _, layer in LAYERS:
        out += [(f"{layer}.calls", "count", "lower"), (f"{layer}.busy_s", "s", "lower"),
                (f"{layer}.self_s", "s", "lower")]
    return out + list(COUNTERS) + list(MARGINS) + [OVERHEAD]


def _nbytes(a) -> int:
    if hasattr(a, "indptr"):  # scipy sparse (CSR/CSC)
        return a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
    return a.nbytes


def _bytes_computed(key):
    def hook(tracer, args, _kwargs, result, _dt):
        array, _dims, operand = args[:3]
        tracer.counts[key] += array.nbytes + _nbytes(operand) + result.nbytes
    return hook


def _run_mixed_hook(tracer, args, _kwargs, _result, dt):
    tracer.counts[f"msuqc.run_mixed.k{args[0].qubit_count}.busy_s"] += dt


def _cutoff_hook(tracer, _args, _kwargs, result, _dt):
    tracer.peaks["msuqc.cutoff_max"] = max(tracer.peaks.get("msuqc.cutoff_max", 0), result)


def _jumps_hook(tracer, _args, _kwargs, result, _dt):
    tracer.counts["opensys.jump_unravelling.trajectories"] += result.n_trajectories
    tracer.counts["opensys.jump_unravelling.jumps"] += int(result.jump_counts.sum())


def _cli_bytes_hook(tracer, args, _kwargs, _result, _dt):
    # imported here: this module loads before the program's sources are on the path
    from tqpsim._io import sidecar_path
    argv = list(args[0])
    out = Path(argv[argv.index("--out") + 1])
    tracer.counts["cli.bytes_written"] += sum(p.stat().st_size for p in (out, sidecar_path(out))
                                              if p.exists())


_HOOKS = {
    "fock.apply_local": _bytes_computed("fock.apply_local.bytes_computed"),
    "fock.apply_diag_local": _bytes_computed("fock.apply_diag_local.bytes_computed"),
    "msuqc.run_mixed": _run_mixed_hook,
    "msuqc.mixed_equivalence_cutoff": _cutoff_hook,
    "opensys.jump_unravelling": _jumps_hook,
    "cli.main": _cli_bytes_hook,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: dict[str, float] = defaultdict(float)  # summed over the run
        self.peaks: dict[str, float] = {}  # maxima over the run
        self.run_id = None
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, layer in LAYERS:
            module = importlib.import_module(f"tqpsim.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, layer, fn):
        hook = _HOOKS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, time.perf_counter(), None, self._open[-1] if self._open else None,
                    self.run_id]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if hook is not None:
                hook(self, args, kwargs, result, span[2] - span[1])
            return result
        return traced

    def layer_totals(self) -> dict[str, float]:
        """calls, busy_s and self_s of every layer, summed over all spans."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = {f"{layer}.{kind}": 0.0 for _, _, layer in LAYERS
                  for kind in ("calls", "busy_s", "self_s")}
        for i, (layer, start, end, parent, _) in enumerate(self.spans):
            totals[f"{layer}.calls"] += 1
            totals[f"{layer}.self_s"] += end - start - child[i]
            while parent is not None and self.spans[parent][0] != layer:
                parent = self.spans[parent][3]
            if parent is None:  # outermost span of its layer
                totals[f"{layer}.busy_s"] += end - start
        return totals

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "run_id"],
                                    "spans": self.spans}))
