"""Spans around the calls into each mzgauss layer, recorded from outside the library.

:class:`Tracer` replaces each public function listed in :data:`LAYERS` by a
wrapper, in its home module and in every ``mzgauss`` module that imported it by
name, and restores the originals on :meth:`Tracer.remove`.  A span holds the
layer name, start, end, parent span and request id.  Spans stay in memory until
:meth:`Tracer.write_spans`; calls, busy time and self time (busy time minus the
time covered by child spans) are accumulated as the spans close.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

# (metric prefix, module holding the function, attribute name)
LAYERS = (
    ("states.port_moments", "mzgauss.states", "port_moments"),
    ("detection.sensitivity", "mzgauss.detection", "sensitivity"),
    ("detection.optimal_working_point", "mzgauss.detection", "optimal_working_point"),
    ("detection.observable_mean", "mzgauss.detection", "observable_mean"),
    ("detection.observable_variance", "mzgauss.detection", "observable_variance"),
    ("losses.lossy_sensitivity", "mzgauss.losses", "lossy_sensitivity"),
    ("losses.lossy_optimal_working_point", "mzgauss.losses", "lossy_optimal_working_point"),
    ("minimize.golden_minimize", "mzgauss._minimize", "golden_minimize"),
    ("fisher.fisher_matrix", "mzgauss.fisher", "fisher_matrix"),
    ("fisher.qfi", "mzgauss.fisher", "qfi"),
    ("fisher.qfi_closed_form", "mzgauss.fisher", "qfi_closed_form"),
    ("pmc.classify", "mzgauss.pmc", "classify"),
    ("pmc.apply_pmc", "mzgauss.pmc", "apply_pmc"),
    ("pmc.boundaries", "mzgauss.pmc", "boundaries"),
    ("cli.main", "mzgauss.cli", "main"),
    ("oracle.prepare", "mzgauss.oracle", "prepare"),
    ("oracle.evolve", "mzgauss.oracle", "evolve"),
    ("oracle.measure_stats", "mzgauss.oracle", "measure_stats"),
    ("oracle.numerical_fisher", "mzgauss.oracle", "numerical_fisher"),
    # kernels at the oracle boundary: the sparse beam-splitter exponential and
    # the dense single-mode one, whose cost depends on the BLAS thread setting
    ("oracle.expm_multiply", "scipy.sparse.linalg", "expm_multiply"),
    ("scipy.linalg.expm", "scipy.linalg", "expm"),
)

STATS = ("calls", "busy_s", "self_s")
_EVALS = ("detection.sensitivity", "losses.lossy_sensitivity")
_OPTIMA = ("detection.optimal_working_point", "losses.lossy_optimal_working_point")

RATIOS = {
    "states.moments_per_eval": "port_moments calls inside sensitivity evaluations per evaluation",
    "detection.evals_per_optimum": "sensitivity evaluations per working-point optimum",
    "detection.numeric_share": "golden_minimize calls per working-point optimum",
    "oracle.bs_per_case": "expm_multiply calls per verify case",
    "oracle.prepare_per_case": "oracle.prepare calls per verify case",
    "oracle.expm_per_case": "scipy.linalg.expm calls per verify case",
}


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _ in LAYERS]
        index = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        self.calls = [0] * n
        self.busy = [0.0] * n
        self.self_time = [0.0] * n
        self.active = [0] * n
        self._evals = tuple(index[x] for x in _EVALS)
        self._optima = tuple(index[x] for x in _OPTIMA)
        self._moments = index["states.port_moments"]
        self._golden = index["minimize.golden_minimize"]
        self.nested = {"moments_in_eval": 0, "evals_outer": 0,
                       "evals_in_optimum": 0, "golden_in_optimum": 0}
        self.request = -1
        self._stack = []
        self._label, self._parent, self._req = array("i"), array("i"), array("i")
        self._start, self._end = array("d"), array("d")
        self._origin = time.perf_counter()
        self._patches = []

    # --- span bookkeeping --------------------------------------------------------

    def _enter(self, idx):
        active = self.active
        if idx == self._moments:
            if any(active[e] for e in self._evals):
                self.nested["moments_in_eval"] += 1
        elif idx in self._evals:
            if not any(active[e] for e in self._evals):
                self.nested["evals_outer"] += 1
                if any(active[o] for o in self._optima):
                    self.nested["evals_in_optimum"] += 1
        elif idx == self._golden and any(active[o] for o in self._optima):
            self.nested["golden_in_optimum"] += 1
        active[idx] += 1
        span = len(self._label)
        self._label.append(idx)
        self._parent.append(self._stack[-1][1] if self._stack else -1)
        self._req.append(self.request)
        self._start.append(0.0)
        self._end.append(0.0)
        self._stack.append([idx, span, time.perf_counter(), 0.0])

    def _exit(self):
        now = time.perf_counter()
        idx, span, start, child = self._stack.pop()
        duration = now - start
        self.calls[idx] += 1
        self.busy[idx] += duration
        self.self_time[idx] += duration - child
        self.active[idx] -= 1
        self._start[span] = start - self._origin
        self._end[span] = now - self._origin
        if self._stack:
            self._stack[-1][3] += duration

    def _wrap(self, idx, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return traced

    # --- installation ----------------------------------------------------------

    def install(self):
        """Wrap every listed function that the program has imported by now."""
        program = [m for name, m in sys.modules.items()
                   if (name == "mzgauss" or name.startswith("mzgauss.")) and m is not None]
        for idx, (_, module_name, attr) in enumerate(LAYERS):
            home = sys.modules.get(module_name)
            original = getattr(home, attr, None) if home is not None else None
            if original is None:
                continue
            wrapper = self._wrap(idx, original)
            for module in [home, *program]:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def remove(self):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    # --- results ---------------------------------------------------------------

    def metrics(self, verify_cases: int) -> dict:
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.busy_s"] = self.busy[i]
            out[f"{name}.self_s"] = self.self_time[i]
        calls = dict(zip(self.names, self.calls))
        optima = sum(calls[o] for o in _OPTIMA)

        def ratio(num, den):
            return num / den if den else 0.0

        out["states.moments_per_eval"] = ratio(self.nested["moments_in_eval"],
                                               self.nested["evals_outer"])
        out["detection.evals_per_optimum"] = ratio(self.nested["evals_in_optimum"], optima)
        out["detection.numeric_share"] = ratio(self.nested["golden_in_optimum"], optima)
        out["oracle.bs_per_case"] = ratio(calls["oracle.expm_multiply"], verify_cases)
        out["oracle.prepare_per_case"] = ratio(calls["oracle.prepare"], verify_cases)
        out["oracle.expm_per_case"] = ratio(calls["scipy.linalg.expm"], verify_cases)
        return out

    def span_count(self) -> int:
        return len(self._label)

    def write_spans(self, path) -> None:
        """All spans as gzip CSV: span, parent, request, name, start_s, end_s."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,parent,request,name,start_s,end_s\n")
            names = self.names
            for span in range(len(self._label)):
                fh.write(f"{span},{self._parent[span]},{self._req[span]},"
                         f"{names[self._label[span]]},{self._start[span]:.9f},"
                         f"{self._end[span]:.9f}\n")
