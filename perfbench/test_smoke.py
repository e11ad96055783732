"""Smoke tests of the benchmark itself (not part of the library's test suite).

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_counts_repeat_and_cover_every_layer():
    runs = []
    for _ in range(2):
        proc = bench("--workload", "pointwise", "--seed", "3", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
    assert ({k: v["unit"] for k, v in runs[0].items()}
            == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]})
    counts = [{k: v["value"] for k, v in m.items() if k.endswith(".calls")} for m in runs]
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] > 0 and counts[0]["states.port_moments.calls"] > 0


def test_missing_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "pointwise", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# --- each check catches a corrupted row ------------------------------------------

@pytest.fixture(scope="module")
def cli():
    return run.load_program(ROOT)


def first_request(workload, kind):
    stream = workloads.cycles(workload, 5)
    for _ in range(20):
        for req in next(stream):
            # PMC2 keeps qfi and optimize clear of the known-defect signatures
            if req.kind == kind and (kind not in ("optimize", "qfi") or "pmc=pmc2" in req.argv):
                return req
    raise LookupError(kind)


def corrupt_row(output, index, edit):
    lines = output.splitlines()
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")][1:]
    cells = lines[data[index]].split(",")
    lines[data[index]] = ",".join(edit(cells))
    return "\n".join(lines) + "\n"


def scaled(column, factor):
    def edit(cells):
        cells[column] = repr(float(cells[column]) * factor)
        return cells
    return edit


def relabel(cells):
    cells[2] = {"pmc1": "pmc2", "pmc2": "pmc3", "pmc3": "pmc1"}[cells[2]]
    return cells


def failed_check(cells):
    cells[-1] = "0"
    return cells


def not_a_number(cells):
    cells[1] = "nan"
    return cells


@pytest.mark.parametrize("workload,kind,edit", [
    ("optimize", "optimize", scaled(1, 1.01)),     # df optimum worse than the phase grid
    ("optimize", "optimize", scaled(2, 1e-3)),     # sg optimum below the QCRB
    ("pointwise", "qfi", scaled(3, 1.0001)),       # QFI off its closed form
    ("pointwise", "regimes", relabel),             # named family is not the maximum
    ("pointwise", "phi", not_a_number),            # unparsable sensitivity
    ("pointwise", "heisenberg", not_a_number),
    ("verify", "verify", failed_check),            # one oracle check did not pass
])
def test_corrupted_row_is_caught(cli, workload, kind, edit):
    req = first_request(workload, kind)
    client = run.Client(cli)
    code, output, _ = run.call(cli, req.argv)
    assert workloads.check(req, code, output, client._extra).ok
    bad = corrupt_row(output, 0, edit)
    outcome = workloads.check(req, code, bad, client._extra)
    assert not outcome.ok and not outcome.known_defect


def test_only_known_defect_signatures_excuse_a_failed_exit():
    verify = first_request("verify", "verify")
    guard = "error: Richardson check failed: relative change 2.272e-05 at h=0.0001\n"
    sweep = first_request("pointwise", "phi")
    large = workloads.Request("phi", sweep.argv, dict(sweep.params, amplitude=6.5e4))
    small = workloads.Request("phi", sweep.argv, dict(sweep.params, amplitude=9e3))
    zero = workloads.ZERO_SENSITIVITY
    assert workloads.check(verify, 3, "", None, guard).known_defect
    assert workloads.check(large, None, "", None, zero).known_defect
    for req, code, stderr in ((verify, 3, "verify: 1 of 66 checks FAILED\n"),
                              (verify, 4, guard), (verify, None, guard),
                              (small, None, zero), (large, 1, zero),
                              (large, None, "ValueError: other\n")):
        outcome = workloads.check(req, code, "", None, stderr)
        assert not outcome.ok and not outcome.known_defect
