"""mzgauss benchmark: seeded closed-loop CLI workloads with checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload optimize --seed 1 --seconds 25 --trace 0

One client in this process sends ``mzgauss.cli.main(argv)`` requests, the next
only after the last returns.  ``--trace 0`` times full request cycles for
``--seconds`` seconds of request time and reports the end-to-end metrics,
with every time scaled to the machine's reference speed (``calibration.py``);
``--trace 1`` runs a fixed seeded request list once untraced and once traced
and reports per-layer metrics.  Every response is checked outside the timed
region.  The last stdout line is one JSON object; the full result (environment
record included) and the span log go to ``.perfbench_out/``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy can load, in this process and every child:
# on a shared 2-core machine two threads make the oracle's dense expm slower
# and far noisier.  The setting is part of the environment record.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from calibration import REFERENCE_S, kernel_seconds  # noqa: E402
from spans import LAYERS, RATIOS, STATS, Tracer  # noqa: E402

END_TO_END = {"setup_s": "s", "rows_per_s": "rows/s", "req_ms_p50": "ms", "req_ms_tail": "ms",
              "peak_rss_mb": "MB"}
SETUP_SAMPLES = 7
KERNEL_EVERY_S = 0.25  # request time between two passes of the reference kernel
WINDOW = 3  # kernel passes on each side of a block that set its scale factor
WARMUP_REQUESTS = {"optimize": 2, "pointwise": 10, "verify": 1}
TRACED_CYCLES = {"optimize": 2, "pointwise": 5, "verify": 4}
IMPORT_MODULES = ("mzgauss", "mzgauss.cli", "mzgauss.oracle", "numpy",
                  "scipy.linalg", "scipy.sparse", "scipy.sparse.linalg")
OUT_DIR = ".perfbench_out"

_READY_CODE = """
import contextlib, io, sys
sys.path.insert(0, {src!r})
import mzgauss.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = mzgauss.cli.main({argv!r})
sys.stdout.write("ready %s\\n" % code)
sys.stdout.flush()
"""


def per_layer_units() -> dict:
    names = [f"{layer}.{stat}" for layer, _, _ in LAYERS for stat in STATS]
    names += list(RATIOS)
    names += [f"import.{m}.cum_s" for m in IMPORT_MODULES]
    names += ["error_rate", "trace.overhead_ratio"]
    return {n: "s" if n.endswith("_s") else "count" if n.endswith(".calls") else "ratio"
            for n in names}


# --- requests ------------------------------------------------------------------

def call(cli, argv):
    """One CLI request; returns (exit code or None, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed request, not a benchmark crash
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue()


class Client:
    """Closed-loop client that times each request and checks it afterwards."""

    def __init__(self, cli):
        self.cli = cli
        self.latencies = []
        self.rows = 0
        self.failures = []
        self.known_defects = 0
        self.cases = 0

    def _extra(self, argv):
        code, out, _ = call(self.cli, argv)
        return code, out

    def send(self, req, check=True):
        start = time.perf_counter()
        code, out, err = call(self.cli, req.argv)
        self.latencies.append(time.perf_counter() - start)
        self.cases += req.params.get("samples", 0)
        if not check:
            return
        outcome = workloads.check(req, code, out, self._extra, err)
        self.rows += outcome.rows
        if not outcome.ok:
            self.known_defects += outcome.known_defect
            self.failures.append({"argv": list(req.argv), "reason": outcome.reason,
                                  "known_defect": outcome.known_defect,
                                  "stderr": err[-500:]})


def warm_up(cli, workload, seed):
    stream = workloads.cycles(workload, seed, stream="warmup")
    client = Client(cli)
    while len(client.latencies) < WARMUP_REQUESTS[workload]:
        for req in next(stream):
            client.send(req, check=False)


# --- set-up time and import breakdown -----------------------------------------

def ready_times(root: Path, workload: str, samples: int, importtime_dir: Path | None = None):
    """Wall time for fresh interpreters to import the CLI and serve a minimal request."""
    code = _READY_CODE.format(src=str(root / "src"), argv=workloads.READY_REQUEST[workload])
    times, logs = [], []
    for i in range(samples):
        cmd = [sys.executable, "-s", "-c", code]
        with contextlib.ExitStack() as stack:
            stderr = subprocess.DEVNULL
            if importtime_dir is not None:
                cmd[1:1] = ["-X", "importtime"]
                logs.append(importtime_dir / f"importtime-{workload}-{i}.txt")
                stderr = stack.enter_context(open(logs[-1], "w", encoding="utf-8"))
            start = time.perf_counter()
            proc = stack.enter_context(subprocess.Popen(
                cmd, cwd=root, stdout=subprocess.PIPE, stderr=stderr, text=True))
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if line.strip() != "ready 0" or proc.returncode != 0:
            raise RuntimeError(f"fresh interpreter was not ready: {line!r}, exit {proc.returncode}")
        times.append(elapsed)
    return times, logs


def import_breakdown(logs) -> dict:
    """Median cumulative import time per module, 0 for modules never imported."""
    samples = {m: [] for m in IMPORT_MODULES}
    for path in logs:
        seen = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            name = parts[2].strip()
            if name in samples and name not in seen:
                try:
                    seen[name] = int(parts[1]) * 1e-6
                except ValueError:
                    continue
        for m in IMPORT_MODULES:
            samples[m].append(seen.get(m, 0.0))
    return {f"import.{m}.cum_s": statistics.median(v) for m, v in samples.items()}


# --- environment -----------------------------------------------------------------

def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(root: Path, args) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# --- runs ------------------------------------------------------------------------

def tail(latencies):
    """Highest percentile with at least ten requests beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def scale_factors(kernel):
    """Per block between two kernel passes: the reference kernel time over the
    mean of the 2 * WINDOW kernel times around the block."""
    return [REFERENCE_S / statistics.fmean(kernel[max(0, b + 1 - WINDOW):b + 1 + WINDOW])
            for b in range(len(kernel) - 1)]


def measured_run(cli, args, root):
    def sample_setup():
        factor = REFERENCE_S / statistics.fmean(kernel[-2 * WINDOW:])
        setup.extend(t * factor for t in ready_times(root, args.workload, 1)[0])

    setup, kernel, marks = [], [], []
    warm_up(cli, args.workload, args.seed)
    kernel_seconds()  # the kernel's first-call costs
    for _ in range(2 * WINDOW):  # a window before the first request
        kernel.append(kernel_seconds())
        marks.append(0)
    sample_setup()
    client = Client(cli)
    stream = workloads.cycles(args.workload, args.seed)
    since_kernel = 0.0
    # only full cycles, so every run has the workload's exact request mix
    while sum(client.latencies) < args.seconds:
        # set-up samples spread over the run see more of the machine's states
        if len(setup) < SETUP_SAMPLES * sum(client.latencies) / args.seconds:
            sample_setup()
        for req in next(stream):
            client.send(req)
            since_kernel += client.latencies[-1]
            if since_kernel >= KERNEL_EVERY_S:
                kernel.append(kernel_seconds())
                marks.append(len(client.latencies))
                since_kernel = 0.0
    for _ in range(WINDOW):  # and after the last one
        kernel.append(kernel_seconds())
        marks.append(len(client.latencies))
    while len(setup) < SETUP_SAMPLES:
        sample_setup()
    # each request at the reference speed
    scaled = []
    for b, factor in enumerate(scale_factors(kernel)):
        scaled += [t * factor for t in client.latencies[marks[b]:marks[b + 1]]]
    busy = sum(scaled)
    tail_s, tail_pct = tail(scaled)
    metrics = {
        "setup_s": statistics.median(setup),
        "rows_per_s": client.rows / busy,
        "req_ms_p50": 1e3 * statistics.median(scaled),
        "req_ms_tail": 1e3 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = sum(client.latencies)
    raw_tail_s, _ = tail(client.latencies)
    details = {"setup_samples_s": setup, "tail_percentile": tail_pct,
               "req_ms_mean": 1e3 * statistics.fmean(scaled),
               "kernel_s": kernel, "kernel_marks": marks,
               "raw_rows_per_s": client.rows / raw, "raw_req_ms_tail": 1e3 * raw_tail_s,
               "raw_req_ms_p50": 1e3 * statistics.median(client.latencies),
               "requests": len(client.latencies), "request_seconds": raw,
               "rows": client.rows, "latencies_s": client.latencies}
    return client, metrics, details


def traced_run(cli, args, root, out_dir):
    _, logs = ready_times(root, args.workload, 3, importtime_dir=out_dir)
    warm_up(cli, args.workload, args.seed)
    stream = workloads.cycles(args.workload, args.seed)
    requests = [req for _ in range(TRACED_CYCLES[args.workload]) for req in next(stream)]

    client = Client(cli)
    for req in requests:
        client.send(req)
    untraced_s = sum(client.latencies)

    tracer = Tracer()
    tracer.install()
    traced = Client(cli)
    try:
        for i, req in enumerate(requests):
            tracer.request = i
            traced.send(req, check=False)
    finally:
        tracer.remove()
    traced_s = sum(traced.latencies)

    metrics = tracer.metrics(verify_cases=traced.cases)
    metrics.update(import_breakdown(logs))
    metrics["error_rate"] = len(client.failures) / len(requests)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write_spans(spans_path)
    details = {"requests": len(requests), "untraced_s": untraced_s, "traced_s": traced_s,
               "spans": tracer.span_count(), "span_file": str(spans_path.relative_to(root)),
               "verify_cases": traced.cases}
    return client, metrics, details


def load_program(root: Path):
    src = root / "src"
    if not (src / "mzgauss" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no mzgauss sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import mzgauss.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: imported mzgauss from {cli.__file__}, not from {src}")
    return cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    cli = load_program(root)
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)

    if args.trace:
        client, metrics, details = traced_run(cli, args, root, out_dir)
        units = per_layer_units()
    else:
        client, metrics, details = measured_run(cli, args, root)
        units = END_TO_END
    reported = {n: {"value": metrics[n], "unit": unit} for n, unit in units.items()}

    attempted = len(client.latencies)
    failed = len(client.failures)
    unexpected = failed - client.known_defects
    env = environment(root, args)
    details.update({"attempted": attempted, "failed": failed,
                    "known_defect_failures": client.known_defects,
                    "failures": client.failures[:50]})
    result = {"env": env, "details": details, "metrics": reported}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print("env " + json.dumps(env, sort_keys=True))
    for n, unit in units.items():
        print(f"{n} = {metrics[n]:.6g} {unit}")
    if "tail_percentile" in details:
        print(f"req_ms_tail is p{details['tail_percentile']:.2f} of {attempted} requests; "
              f"mean request {details['req_ms_mean']:.6g} ms")
        print(f"times are at the reference speed (kernel {1e3 * REFERENCE_S:g} ms); the kernel "
              f"took {1e3 * statistics.median(details['kernel_s']):.4g} ms (median), and "
              f"unscaled rows_per_s = {details['raw_rows_per_s']:.6g}, "
              f"req_ms_tail = {details['raw_req_ms_tail']:.6g}")
    print(f"failed {failed} of {attempted} requests; {client.known_defects} of them are known "
          f"defects (see perfbench/README.md, Known defects)")
    for failure in client.failures[:5]:
        print(f"  failure: {failure['reason']} :: {' '.join(failure['argv'])}")
    print(json.dumps({"correct": unexpected == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
