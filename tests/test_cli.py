"""Command-line front end: configs, CSV output, determinism, exit codes."""

import argparse
import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzgauss import cli, detection
from mzgauss.cli import _build_parser, build_scenario, fmt, load_config, main, parse_angle
from mzgauss.detection import (DifferenceIntensity, Homodyne, SingleModeIntensity,
                               optimal_working_point, sensitivity)
from mzgauss.errors import FlatObjective
from mzgauss.fisher import qcrb, qfi, qfi_closed_form
from mzgauss.heisenberg import PowerFractions
from mzgauss.pmc import PmcSet, classify

from conftest import mp_pmc3, scan_optimum

SRC = Path(__file__).resolve().parents[1] / "src"


def _rows(csv_text):
    lines = [l for l in csv_text.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def _comments(csv_text):
    return [l for l in csv_text.strip().splitlines() if l.startswith("#")]


def test_parse_angle_forms():
    assert parse_angle(1.5) == 1.5
    assert parse_angle("pi") == math.pi
    assert parse_angle("-pi") == -math.pi
    assert parse_angle("0.5*pi") == 0.5 * math.pi
    assert parse_angle("2*pi") == 2 * math.pi
    assert parse_angle("0.25") == 0.25


def test_qfi_coherent_config(capsys):
    assert main(["qfi", "--set", "port1.alpha.magnitude=2"]) == 0
    out = capsys.readouterr().out
    header, rows = _rows(out)
    record = dict(zip(header, rows[0]))
    assert float(record["qfi"]) == pytest.approx(4.0)
    assert float(record["qcrb"]) == pytest.approx(0.5)


def test_qfi_pmc2_doubles_single_port_information(capsys):
    code = main(["qfi", "--set", "port1.alpha.magnitude=1", "--set", "port0.beta.magnitude=1",
                 "--set", "port1.zeta.factor=0.5", "--set", "port0.xi.factor=0.5",
                 "--set", "pmc=pmc2"])
    assert code == 0
    header, rows = _rows(capsys.readouterr().out)
    assert float(dict(zip(header, rows[0]))["qfi"]) == pytest.approx(2 * math.e, rel=1e-12)


def test_qfi_footer_carries_limit_values(capsys):
    assert main(["qfi", "--set", "port0.xi.factor=2.3", "--set", "port1.zeta.factor=2.2"]) == 0
    comments = "\n".join(_comments(capsys.readouterr().out))
    assert "alpha_lim_13 = 2.53872" in comments
    assert "beta_lim_12 = 4.98683" in comments


def test_config_file_with_pi_strings(tmp_path, capsys):
    cfg = {"port1.alpha.magnitude": 1.0, "port1.alpha.phase": "0.5*pi",
           "port0.xi.factor": 0.5, "port0.xi.phase": "pi"}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    assert main(["qfi", "--config", str(path)]) == 0
    comments = "\n".join(_comments(capsys.readouterr().out))
    assert f'"port1.alpha.phase": {0.5 * math.pi}' in comments


def test_unknown_config_key_is_a_config_error(capsys):
    assert main(["qfi", "--set", "port1.alpha.mag=2"]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_invalid_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"phase": }')
    assert main(["qfi", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "broken.json:1" in err


def test_sweep_requires_two_steps(capsys):
    assert main(["sweep", "--axis", "eta", "--start", "1", "--stop", "1", "--steps", "1"]) == 2
    assert "steps" in capsys.readouterr().err


def test_sweep_takes_steps_up_to_its_bound(capsys):
    """The --steps bound is inclusive: a phi sweep of 100 000 steps prints every row."""
    argv = ["sweep", "--axis", "phi", "--start", "0", "--stop", "1", "--steps", "100000",
            "--set", "port1.alpha.magnitude=2", "--set", "scheme=df"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 100000 + 3  # the config and axis comments and the header


def test_sweep_homodyne_column_hits_closed_form(capsys):
    code = main(["sweep", "--axis", "phi", "--start", "0.5*pi", "--stop", "1.5*pi",
                 "--steps", "3", "--set", "port1.alpha.magnitude=1000",
                 "--set", "port1.zeta.factor=2.2", "--set", "port0.xi.factor=2.3",
                 "--set", "pmc=sqzvac_optimal", "--set", "scheme=hom"])
    assert code == 0
    header, rows = _rows(capsys.readouterr().out)
    at_pi = dict(zip(header, rows[1]))
    assert float(at_pi["phi"]) == pytest.approx(math.pi)
    assert float(at_pi["delta_phi_hom"]) == pytest.approx(math.exp(-2.3) / 1000, rel=1e-9)


def test_sweep_output_is_deterministic(tmp_path):
    argv = ["sweep", "--axis", "beta", "--start", "0.1", "--stop", "2.0", "--steps", "4",
            "--set", "port1.alpha.magnitude=1.5", "--set", "port0.xi.factor=0.8",
            "--set", "port1.zeta.factor=0.6", "--set", "pmc=pmc1"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["-o", str(a)]) == 0
    assert main(argv + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_regimes_header_and_classification(capsys):
    code = main(["regimes", "--r", "2.3", "--z", "2.2",
                 "--alpha-min", "0.5", "--alpha-max", "0.5",
                 "--beta-min", "0.25", "--beta-max", "0.25", "--points", "1"])
    assert code == 0
    out = capsys.readouterr().out
    comments = "\n".join(_comments(out))
    for token in ("2.53872", "2.48081", "3.76343", "4.98683", "5.52666"):
        assert token in comments
    header, rows = _rows(out)
    record = dict(zip(header, rows[0]))
    assert record["pmc"] == "pmc3"


@pytest.mark.parametrize("r,z,beta_23,beta_13", [
    ("0", "1", "0", "0"),    # alpha_circ = alpha_13: the beta_13 radicand is 0, not -1 ulp
    ("0.3", "0", "", ""),    # alpha_circ = 0 and z = 0: both curves are undefined there
])
def test_regimes_at_zero_squeeze(r, z, beta_23, beta_13, capsys):
    assert main(["regimes", "--r", r, "--z", z, "--points", "3"]) == 0
    out = capsys.readouterr().out
    comments = _comments(out)
    assert f"# beta_lim_23(alpha_circ) = {beta_23}" in comments
    assert f"# beta_lim_13(alpha_circ) = {beta_13}" in comments
    header, rows = _rows(out)
    assert len(rows) == 9 and all(row[2] in ("pmc1", "pmc2", "pmc3") for row in rows)


def _atlas_bounds(rng, spacing):
    if spacing == "log":  # bounds drawn like the benchmark's pointwise atlases
        lo_a, lo_b = 10.0 ** rng.uniform(-2.0, 0.0, 2)
        hi_a, hi_b = 10.0 ** rng.uniform(3.0, 5.0, 2)
    else:
        lo_a, lo_b = rng.uniform(0.0, 1.0), 0.0
        hi_a, hi_b = 10.0 ** rng.uniform(0.0, 5.0, 2)
    r, z = rng.uniform(0.0, 2.3, 2)
    return [float(x) for x in (r, z, lo_a, hi_a, lo_b, hi_b)]


@pytest.mark.parametrize("seed,points,spacing", [
    (1, 13, "log"), (2, 13, "log"), (3, 40, "log"),
    (4, 1, "linear"), (5, 2, "linear"), (6, 13, "linear"),
    # several blocks of |alpha| rows, the last one partial
    (7, 70, "log"), (8, 100, "linear"),
])
def test_regimes_rows_equal_scalar_closed_forms(seed, points, spacing, capsys):
    """The row-vectorized atlas prints fmt() of the scalar classify and closed forms."""
    r, z, lo_a, hi_a, lo_b, hi_b = _atlas_bounds(np.random.default_rng(seed), spacing)
    argv = ["regimes", "--r", repr(r), "--z", repr(z),
            "--alpha-min", repr(lo_a), "--alpha-max", repr(hi_a),
            "--beta-min", repr(lo_b), "--beta-max", repr(hi_b),
            "--points", str(points), "--spacing", spacing]
    assert main(argv) == 0
    _, rows = _rows(capsys.readouterr().out)

    def axis(lo, hi):
        if points == 1:
            return [lo]
        return (np.geomspace if spacing == "log" else np.linspace)(lo, hi, points)

    expected = []
    for a in axis(lo_a, hi_a):
        for b in axis(lo_b, hi_b):
            a, b = float(a), float(b)
            expected.append([fmt(a), fmt(b), classify(a, b, r, z).value]
                            + [fmt(qfi_closed_form(a, b, r, z, pmc=p))
                               for p in (PmcSet.PMC1, PmcSet.PMC2, PmcSet.PMC3)])
    assert rows == expected


def test_heisenberg_four_ninths(capsys):
    code = main(["heisenberg", "--pmc", "pmc2", "--fractions", "1/6,1/6,1/3,1/3",
                 "--n-tot", "10000"])
    assert code == 0
    header, rows = _rows(capsys.readouterr().out)
    record = dict(zip(header, rows[0]))
    assert float(record["asymptotic_ratio"]) == pytest.approx(4.0 / 9.0, rel=1e-12)


def test_verify_small_box_passes(tmp_path, capsys):
    code = main(["verify", "--samples", "3", "--phases", "2", "--seed", "7",
                 "--n-max", "40", "--alpha-max", "0.8", "--beta-max", "0.8",
                 "--squeeze-max", "0.4", "-o", str(tmp_path / "v.csv")])
    assert code == 0
    assert "all" in capsys.readouterr().err
    text = (tmp_path / "v.csv").read_text()
    header, rows = _rows(text)
    assert header[-1] == "pass"
    assert all(row[-1] == "1" for row in rows)


def test_verify_empty_box_vacuous_pass(capsys):
    assert main(["verify", "--samples", "0"]) == 0
    assert "vacuous" in capsys.readouterr().err


def test_verify_truncation_exit_code(capsys):
    code = main(["verify", "--samples", "2", "--alpha-max", "5", "--seed", "1"])
    assert code == 4
    assert "truncation" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("argv", [
    ["sweep", "--axis", "alpha", "--start", "1", "--stop", "2", "--steps", "3",
     "--set", "port0.beta.magnitude=nan", "--set", "port0.xi.factor=0.5"],
    ["qfi", "--set", "port1.alpha.magnitude=inf"],
    ["qfi", "--set", "phase=nan*pi"],
    ["sweep", "--axis", "phi", "--start", "0", "--stop", "inf", "--steps", "3"],
    ["heisenberg", "--pmc", "pmc2", "--fractions", "nan,1/3,1/3,1/3"],
    ["regimes", "--r", "nan", "--z", "1"],
    ["regimes", "--r", "1", "--z", "1", "--alpha-min", "inf", "--spacing", "linear"],
    ["regimes", "--r", "1", "--z=-inf"],
    ["heisenberg", "--pmc", "pmc2", "--fractions", "1/6,1/6,1/3,1/3", "--n-tot", "inf"],
    ["verify", "--samples", "1", "--alpha-max", "nan"],
    ["verify", "--samples", "1", "--squeeze-max", "inf"],
    # once a ValueError traceback from numpy's generator each
    ["verify", "--samples", "1", "--phases", "-1"],
    ["verify", "--samples", "1", "--seed", "-1"],
    ["verify", "--samples", "1", "--alpha-max", "-1"],
    ["verify", "--samples", "1", "--beta-max", "-1"],
    ["verify", "--samples", "1", "--squeeze-max", "-1"],
    ["qfi", "--set", "port1.alpha.magnitude=-1"],
    ["qfi", "--set", "port0.xi.factor=-1"],
    ["sweep", "--axis", "alpha", "--start", "-1", "--stop", "1", "--steps", "3"],
    # once "config error: --fractions: n_tot must be positive and finite, got 0.0"
    ["heisenberg", "--pmc", "pmc2", "--fractions", "1/6,1/6,1/3,1/3", "--n-tot", "0"],
])
def test_non_finite_numbers_are_config_errors(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "finite" in err
    assert "Traceback" not in err


def test_n_tot_error_names_its_flag(capsys):
    assert main(["heisenberg", "--pmc", "pmc2", "--fractions", "1/6,1/6,1/3,1/3",
                 "--n-tot", "0"]) == 2
    assert capsys.readouterr().err == "config error: --n-tot must be positive and finite, got 0.0\n"


def test_verify_small_off_diagonal_fisher_element_passes(tmp_path, capsys):
    """A cube case with F_sd = 3.6e-4 against F_ss = 3.6, once refused by a step guard."""
    path = tmp_path / "v.csv"
    code = main(["verify", "--samples", "2", "--phases", "5", "--seed", "317372315",
                 "-o", str(path)])
    assert code == 0, capsys.readouterr().err
    header, rows = _rows(path.read_text())
    assert len(rows) == 66
    assert all(row[-1] == "1" for row in rows)


@pytest.mark.parametrize("argv,code", [
    (["qfi", "--set", "port1.alpha.magnitude=1", "--set", "shots=0"], 2),
    (["qfi", "--set", "port1.zeta.factor=400"], 3),
    (["qfi", "--set", "port1.alpha.magnitude=1e200"], 3),
    (["verify", "--samples", "1", "--phases", "1", "--n-max", "0"], 2),
    (["verify", "--samples", "1", "--phases", "1", "--n-max", "1"], 2),
    # shots counts repetitions: a fraction of one is not floored away
    (["qfi", "--set", "port1.alpha.magnitude=1", "--set", "shots=2.9"], 2),
])
def test_out_of_range_inputs_exit_without_traceback(argv, code, capsys):
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("config error:" if code == 2 else "error:")
    assert "Traceback" not in err


def test_unwritable_output_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.csv"
    assert main(["qfi", "-o", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write output file {path}: ")
    assert "Traceback" not in err


def test_output_onto_a_device_is_written_directly(capsys):
    """A device is no regular file: no staging file beside /dev/null, no replace onto it."""
    assert main(["qfi", "--set", "port1.alpha.magnitude=2", "-o", os.devnull]) == 0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("qfi: F = 4,")


def test_failing_replace_keeps_the_output_file(monkeypatch, tmp_path, capsys):
    """An ``os.replace`` that fails exits 2, removes the staging file and keeps the target."""
    path = tmp_path / "keep.csv"
    path.write_bytes(b"case,value\n0,1\n")

    def refuse(src, dst):
        raise OSError("read-only file system")

    monkeypatch.setattr(os, "replace", refuse)
    assert main(["qfi", "--set", "port1.alpha.magnitude=2", "-o", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"config error: cannot write output file {path}: read-only file system\n")
    assert path.read_bytes() == b"case,value\n0,1\n"
    assert [entry.name for entry in tmp_path.iterdir()] == ["keep.csv"]


@pytest.mark.parametrize("argv,code", [
    (["qfi", "--set", "bogus=1"], 2),
    (["regimes", "--r", "2.3", "--z", "2.2", "--alpha-max", "1e200", "--points", "2"], 3),
    (["verify", "--alpha-max", "30"], 4),
])
def test_failed_command_leaves_the_output_file_as_it_was(argv, code, tmp_path, capsys):
    path = tmp_path / "keep.csv"
    path.write_bytes(b"case,value\n0,1\n")
    assert main([*argv, "-o", str(path)]) == code
    assert path.read_bytes() == b"case,value\n0,1\n"
    assert [entry.name for entry in tmp_path.iterdir()] == ["keep.csv"]  # no staging file left
    assert "Traceback" not in capsys.readouterr().err


def test_successful_command_replaces_the_output_file(tmp_path, capsys):
    path = tmp_path / "keep.csv"
    path.write_text("old\n")
    path.chmod(0o640)
    assert main(["qfi", "--set", "port1.alpha.magnitude=2", "-o", str(path)]) == 0
    assert capsys.readouterr().out == ""
    header, rows = _rows(path.read_text())
    assert header == ["f_ss", "f_dd", "f_sd", "qfi", "qcrb"] and float(rows[0][3]) == 4.0
    assert path.stat().st_mode & 0o777 == 0o640
    assert [entry.name for entry in tmp_path.iterdir()] == ["keep.csv"]


_CONFIG_FILES = {"list.json": "[1, 2]", "unknown.json": '{"bogus": 1}'}


@pytest.mark.parametrize("argv,message", [
    (["qfi", "--set", "convention=foo"],
     "field convention: expected symmetric|cube, got 'foo'"),
    (["qfi", "--set", "pmc=foo"], "field pmc: expected one of pmc1, "),
    (["qfi", "--set", "x"], "--set expects key=value, got 'x'"),
    (["qfi", "--set", "phase=abc"], "field phase: cannot parse angle 'abc'"),
    (["qfi", "--config", "{dir}/missing.json"], "cannot read config file {dir}/missing.json: "),
    (["qfi", "--config", "{dir}/list.json"], "{dir}/list.json: top level must be a flat JSON object"),
    (["qfi", "--config", "{dir}/unknown.json"], "{dir}/unknown.json: unknown config key 'bogus'"),
    (["regimes", "--r", "1", "--z", "1", "--points", "0"], "regimes requires points >= 1"),
    (["heisenberg", "--pmc", "pmc2", "--fractions", "1,1,1"],
     "--fractions expects f_alpha,f_beta,f_r,f_z"),
    (["sweep", "--axis", "eta", "--start", "0", "--stop", "1", "--steps", "3"],
     "efficiency must be in (0, 1], got 0.0"),
    (["qfi", "--set", "port1.alpha.magnitude=abc"],
     "field port1.alpha.magnitude: expected a number, got 'abc'"),
    (["heisenberg", "--pmc", "pmc2", "--fractions", "1/4,x,1/4,1/4"],
     "field fractions: cannot parse fraction 'x'"),
    (["heisenberg", "--pmc", "pmc2", "--fractions", "0.5,0.5,0.5,0.5"],
     "--fractions: fractions must sum to 1, got 2.0"),
    # the first efficiency is valid, a later one is not
    (["sweep", "--axis", "eta", "--start", "1", "--stop", "0", "--steps", "3"],
     "efficiency must be in (0, 1], got 0.0"),
    (["sweep", "--axis", "eta", "--start", "0.5", "--stop", "1.5", "--steps", "3"],
     "efficiency must be in (0, 1], got 1.5\n"),
    # the first of two efficiencies past 1 is named
    (["sweep", "--axis", "eta", "--start", "0.5", "--stop", "2", "--steps", "4"],
     "efficiency must be in (0, 1], got 1.5\n"),
    # a size flag past its bound is refused before anything is allocated
    (["sweep", "--axis", "phi", "--start", "0", "--stop", "1", "--steps", "100000000000000000000"],
     "sweep requires --steps <= 100000, got 100000000000000000000\n"),
    (["sweep", "--axis", "alpha", "--start", "0", "--stop", "1", "--steps", "100001"],
     "sweep requires --steps <= 100000, got 100001\n"),
    (["regimes", "--r", "1", "--z", "1", "--points", "100000000000000000000"],
     "regimes requires --points <= 100000, got 100000000000000000000\n"),
    (["verify", "--samples", "1", "--phases", "100000000000000000000"],
     "verify requires --phases <= 4508 at --n-max 60 (2^24 amplitudes per case), "
     "got 100000000000000000000\n"),
    (["verify", "--samples", "1", "--phases", "1", "--n-max", "100000000000000000000"],
     "verify requires --n-max <= 256, got 100000000000000000000\n"),
    (["verify", "--samples", "0", "--phases", "4509"],
     "verify requires --phases <= 4508 at --n-max 60 (2^24 amplitudes per case), got 4509\n"),
    (["verify", "--samples", "1", "--n-max", "256", "--phases", "255"],
     "verify requires --phases <= 254 at --n-max 256 (2^24 amplitudes per case), got 255\n"),
])
def test_config_errors_name_their_cause(argv, message, tmp_path, capsys):
    for name, text in _CONFIG_FILES.items():
        (tmp_path / name).write_text(text)
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + message.format(dir=tmp_path)), err
    assert "Traceback" not in err


def test_verify_fails_on_a_planted_defect(monkeypatch, capsys):
    """Closed-form means raised by 1e-7 relative fail exactly the 12 mean rows of 30."""
    exact = detection.observable_stats

    def planted(schemes, scenarios, phases):
        means, variances = exact(schemes, scenarios, phases)
        return means * (1.0 + 1e-7), variances

    monkeypatch.setattr(detection, "observable_stats", planted)
    assert main(["verify", "--samples", "2", "--phases", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "verify: 12 of 30 checks FAILED\n"
    _, rows = _rows(captured.out)
    failed = [row[1] for row in rows if row[-1] == "0"]
    assert len(rows) == 30 and len(failed) == 12
    assert set(failed) == {"mean_nd", "mean_n4", "mean_x"}


@pytest.mark.parametrize("shots,count", [("2", 2), ("2.0", 2), ("1e3", 1000)])
def test_integral_shots_in_any_notation(shots, count, capsys):
    assert main(["qfi", "--set", "port1.alpha.magnitude=1", "--set", f"shots={shots}"]) == 0
    assert f"at {count} shot(s)" in capsys.readouterr().err


_RANGE_ERRORS = [
    (["regimes", "--r", "400", "--z", "1"], "overflow"),
    (["regimes", "--r", "2.3", "--z", "2.2", "--alpha-max", "1e200", "--points", "2"], "overflow"),
    (["heisenberg", "--pmc", "pmc3", "--fractions", "1/4,1/4,1/4,1/4", "--n-tot", "1e308"],
     "overflow"),
    # exact_ratio, about 1 / n_tot, leaves the double range
    (["heisenberg", "--pmc", "pmc3", "--fractions", "1/4,1/4,1/4,1/4", "--n-tot", "1e-310"],
     "F/<N_tot>^2 overflows"),
    # the exact QFI underflows to 0: once exit 0 with exact_qfi and exact_ratio 0
    (["heisenberg", "--pmc", "pmc3", "--fractions", "1/4,1/4,1/4,1/4", "--n-tot", "5e-324"],
     "the exact QFI underflows to 0"),
    (["heisenberg", "--pmc", "pmc1", "--fractions", "1/4,1/4,1/4,1/4", "--n-tot", "1e-323"],
     "the exact QFI underflows to 0"),
    # the exact QFI, about 1e-330, underflows, though its ratio, about 1e-270, would not
    (["heisenberg", "--pmc", "pmc2", "--fractions", "1e-300,0,1/2,1/2", "--n-tot", "1e-30"],
     "the exact QFI underflows to 0"),
    # the last |alpha| row lies in a later block than the first: still checked before any row
    (["regimes", "--r", "2.3", "--z", "2.2", "--alpha-max", "1e200", "--points", "100"], "overflow"),
    # the sinh^2 2r term of pmc_qfis overflows, but only PMC3 uses it: the PMC1
    # value, sinh^2 r = 1e154, fits and is printed (once exit 3 for every family)
    (["heisenberg", "--pmc", "pmc1", "--fractions", "0,0,1,0", "--n-tot", "1e154"],
     {"exact_qfi": "1e+154", "exact_ratio": "1e-154"}),
    # e^{4r} of the boundaries overflows to inf, with no OverflowError on the way
    (["regimes", "--r", "177.6", "--z", "0"], "the regime boundaries overflow at r = 177.6, z = 0"),
    # a sweep's QCRB column: the QFI is the first quantity that overflows
    (["sweep", "--axis", "phi", "--start", "0", "--stop", "1", "--steps", "2",
      "--set", "port1.alpha.magnitude=1e153", "--set", "port0.beta.magnitude=1e153",
      "--set", "port0.xi.factor=3"], "the QFI overflows at F_ss = 1.00124e+153^2"),
    # each of Var n's two terms fits, their sum does not
    (["qfi", "--set", "port1.zeta.factor=177.97"],
     "the photon-number variance of a port overflows"),
]


@pytest.mark.parametrize("argv,cause", _RANGE_ERRORS,
                         ids=[f"argv{i}" for i in range(len(_RANGE_ERRORS))])
def test_overflow_exits_3_before_any_row(argv, cause, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if isinstance(cause, dict):  # no printed value overflows: exit 0 with these cells
        header, rows = _rows(captured.out)
        assert code == 0 and dict(zip(header, rows[0])).items() >= cause.items()
        return
    assert code == 3
    assert captured.err.startswith("error:") and cause in captured.err
    assert captured.out == ""  # no header, no row, so no nan or inf cell either


def test_overflowing_fisher_element_exits_3(capsys):
    """F_dd overflows at |alpha| = |beta| = 1e153 with squeeze factor 3: no inf, no qcrb 0."""
    code = main(["qfi", "--set", "port1.alpha.magnitude=1e153",
                 "--set", "port0.beta.magnitude=1e153", "--set", "port0.xi.factor=3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error:") and "overflow" in captured.err
    assert captured.out == ""


def test_homodyne_sweep_at_squeeze_factor_170(capsys):
    """The squeezed quadrature, e^{-340}/4, is no longer a cancelled difference."""
    code = main(["sweep", "--axis", "phi", "--start", "0", "--stop", "1", "--steps", "3",
                 "--set", "port1.zeta.factor=170", "--set", "port1.alpha.magnitude=1",
                 "--set", "scheme=hom"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    header, rows = _rows(captured.out)
    values = [[float(cell) for cell in row] for row in rows]
    assert all(v > 0 and not math.isnan(v) for row in values for v in row[1:])
    # phi = 0 reads the port-1 quadrature alone, whose mean has no slope (inf);
    # elsewhere the vacuum noise of port 0 sets Delta phi = 1 exactly
    assert [row[1] for row in values] == [math.inf, 1.0, 1.0]


def test_no_module_mentions_scipy():
    for path in sorted((SRC / "mzgauss").glob("*.py")):
        assert "scipy" not in path.read_text(encoding="utf-8"), path.name


def test_verify_runs_without_scipy():
    """The oracle, and so every command, runs on numpy alone."""
    probe = ("import sys; sys.modules['scipy'] = None; sys.path.insert(0, sys.argv[1]); "
             "from mzgauss.cli import main; "
             "sys.exit(main(['verify', '--samples', '1', '--phases', '2']))")
    proc = subprocess.run([sys.executable, "-c", probe, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, rows = _rows(proc.stdout)
    assert len(rows) == 6 * 2 + 3
    assert all(row[header.index("pass")] == "1" for row in rows)


def test_only_verify_loads_the_oracle():
    """Every other command starts without the oracle's import, so ``setup_s`` leaves it out."""
    probe = ("import json, os, sys; sys.path.insert(0, sys.argv[1]); "
             "from mzgauss.cli import main; "
             "codes = [main(argv + ['-o', os.devnull]) for argv in json.loads(sys.argv[2])]; "
             "print(json.dumps([codes, 'mzgauss.oracle' in sys.modules]))")
    argvs = [["qfi", "--set", "port1.alpha.magnitude=2"],
             ["sweep", "--axis", "alpha", "--start", "1", "--stop", "2", "--steps", "2",
              "--set", "pmc=sqzvac_optimal", "--set", "port0.xi.factor=0.5"],
             ["regimes", "--r", "0.5", "--z", "0.4", "--points", "2"],
             ["heisenberg", "--pmc", "pmc2", "--fractions", "1/4,1/4,1/4,1/4"]]
    proc = subprocess.run([sys.executable, "-c", probe, str(SRC), json.dumps(argvs)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0, 0, 0], False]


def test_fisher_imports_nothing_from_pmc():
    """The closed forms take a family's row from ``PmcSet.row``; ``pmc`` imports ``fisher``."""
    tree = ast.parse((SRC / "mzgauss" / "fisher.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module is None or "pmc" not in node.module.split("."), node.module
            assert all(alias.name != "pmc" for alias in node.names)
        elif isinstance(node, ast.Import):
            assert all("pmc" not in alias.name.split(".") for alias in node.names)


@pytest.mark.parametrize("fractions,n_tot", [("1e-20,1e-20,1,0", "1e154"),
                                             ("0.2,1e-150,0.8,0", "1.3e154"),
                                             ("1e-150,0.2,0.8,0", "1.3e154"),
                                             ("0.1,0.1,0.5,0.3", "1e154")])
def test_heisenberg_pmc3_past_an_overflowing_squeeze_sum(fractions, n_tot, capsys):
    """(sinh^2 2r + sinh^2 2z)/2 overflows at r = 178, but PMC3's value fits.

    In the first two cases it is the plain sum to within an ulp.  In the third,
    beta^2 e^{2r} is near the double range and the plain sum 1.5 times the value.
    In the last the squeeze sum fits, but e^{2r} e^{2z} overflows against
    alpha = beta, an inf times 0 in the unscaled numerator.
    """
    code = main(["heisenberg", "--pmc", "pmc3", "--fractions", fractions, "--n-tot", n_tot])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    header, rows = _rows(captured.out)
    record = dict(zip(header, rows[0]))
    split = PowerFractions(*map(float, fractions.split(",")), n_tot=float(n_tot))
    magnitudes = split.to_magnitudes()
    want = mp_pmc3(*magnitudes)
    assert record["exact_qfi"] == fmt(float(want))
    assert abs(qfi_closed_form(*magnitudes, pmc=PmcSet.PMC3) - want) < 1e-15 * want


def test_heisenberg_pmc3_divides_before_it_overflows(capsys):
    """The reduced PMC3 numerator overflows at N = 1e78, its quotient (about 4.2e155) does not."""
    code = main(["heisenberg", "--pmc", "pmc3", "--fractions", "1/4,1/4,1/4,1/4",
                 "--n-tot", "1e78"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    header, rows = _rows(captured.out)
    record = {key: float(value) for key, value in zip(header, rows[0])}
    assert math.isfinite(record["exact_qfi"])
    assert record["exact_ratio"] == pytest.approx(5.0 / 12.0, rel=1e-12)
    assert record["asymptotic_ratio"] == pytest.approx(5.0 / 12.0, rel=1e-12)


# --- sweeps against the scalar closed forms -------------------------------------

FAMILIES = ("pmc1", "pmc2", "pmc3", "sqzvac_optimal", "sqzvac_wideband")
SCHEMES = (DifferenceIntensity(), SingleModeIntensity(), Homodyne())


def _drawn_sets(rng, family, amplitudes, convention, **extra):
    """--set overrides of a scenario drawn like the benchmark's requests."""
    alpha, beta = 10.0 ** rng.uniform(*np.log10(amplitudes), 2)
    sets = {"pmc": family, "port1.alpha.magnitude": alpha,
            "port0.beta.magnitude": 0.0 if family.startswith("sqzvac") else beta,
            "port0.xi.factor": rng.uniform(0.0, 2.3), "port1.zeta.factor": rng.uniform(0.0, 2.3),
            "port1.alpha.phase": rng.uniform(0.0, 2 * math.pi), "convention": convention, **extra}
    return [f"{key}={float(value)!r}" if not isinstance(value, str) else f"{key}={value}"
            for key, value in sets.items()]


def _argv(axis, start, stop, steps, sets):
    return ["sweep", "--axis", axis, "--start", start, "--stop", stop, "--steps", str(steps),
            *(arg for item in sets for arg in ("--set", item))]


def _bound(scenario):
    value = qfi(scenario)
    return qcrb(value) if value > 0 else math.inf


@pytest.mark.parametrize("axis,start,stop,sets", [
    ("beta", "0.3", "40", ["pmc=pmc1", "port1.alpha.magnitude=2.5", "port0.xi.factor=0.9",
                           "port1.zeta.factor=0.4", "efficiency=0.75"]),
    ("alpha", "0.05", "300", ["pmc=pmc3", "port0.beta.magnitude=1.7", "port0.xi.factor=1.1",
                              "port1.zeta.factor=0.6", "convention=cube"]),
    ("beta", "0.1", "20", ["pmc=pmc2", "port1.alpha.magnitude=0.8", "port0.xi.factor=2.0",
                           "port1.zeta.factor=1.5", "convention=cube", "efficiency=0.6"]),
    ("alpha", "0.5", "50", ["pmc=sqzvac_optimal", "port0.xi.factor=0.7",
                            "port1.zeta.factor=0.3", "efficiency=0.9"]),
])
def test_amplitude_sweep_columns_do_not_couple_schemes(axis, start, stop, sets, capsys):
    """A three-scheme amplitude sweep prints, column for column, three one-scheme sweeps,
    and the df and hom columns of a df,hom sweep, which polishes no row."""
    def table(scheme):
        assert main(_argv(axis, start, stop, 9, [*sets, f"scheme={scheme}"])) == 0
        lines = capsys.readouterr().out.splitlines()
        return [line.split(",") for line in lines if not line.startswith("#")]

    together = table("hom,df,sg")
    for column, scheme in enumerate(("hom", "df", "sg"), start=1):
        alone = table(scheme)
        assert [row[column] for row in together] == [row[1] for row in alone]
        assert [[row[0], row[-1]] for row in together] == [[row[0], row[-1]] for row in alone]
    assert table("df,hom") == [[row[0], row[2], row[1], row[-1]] for row in together]


@pytest.mark.parametrize("seed", range(10))
def test_phase_and_efficiency_sweeps_equal_scalar_sensitivity(seed, capsys):
    """Every row of a vectorized phi or eta sweep prints fmt() of the scalar sensitivity."""
    rng = np.random.default_rng(seed)
    convention = ("symmetric", "cube")[seed % 2]
    for axis, key in (("phi", "phase"), ("eta", "efficiency")):
        family = FAMILIES[(seed + len(key)) % len(FAMILIES)]
        if axis == "phi":
            lossy = {"efficiency": rng.uniform(0.5, 0.99)} if seed % 4 >= 2 else {}
            sets = _drawn_sets(rng, family, (1e-2, 1e5), convention, **lossy)
            start, stop = "0", "2*pi"
        else:
            sets = _drawn_sets(rng, family, (1e-2, 1e5), convention,
                               phase=rng.uniform(0.0, 2 * math.pi))
            start, stop = repr(rng.uniform(0.3, 0.7)), "1"
        assert main(_argv(axis, start, stop, 33, sets)) == 0
        _, rows = _rows(capsys.readouterr().out)

        cfg = load_config(None, sets)
        expected = []
        for value in np.linspace(parse_angle(start), parse_angle(stop), 33):
            scenario = build_scenario(dict(cfg, **{key: float(value)}))
            expected.append([fmt(value)]
                            + [fmt(sensitivity(scheme, scenario).delta_phi) for scheme in SCHEMES]
                            + [fmt(_bound(scenario))])
        assert rows == expected, (axis, sets)


@pytest.mark.parametrize("seed", range(6))
def test_amplitude_sweep_optima_match_scan_reference(seed, capsys):
    """Batched working points: each row is the one-row optimum and matches a dense scan."""
    rng = np.random.default_rng(100 + seed)
    family = FAMILIES[seed % len(FAMILIES)]
    axis = "beta" if seed % 2 and not family.startswith("sqzvac") else "alpha"
    lossy = {"efficiency": rng.uniform(0.5, 0.99)} if seed % 3 else {}
    sets = _drawn_sets(rng, family, (0.05, 1e3), ("symmetric", "cube")[seed % 2], **lossy)
    start, stop = sorted(float(x) for x in 10.0 ** rng.uniform(np.log10(0.05), 3.0, 2))
    assert main(_argv(axis, repr(start), repr(stop), 9, sets)) == 0
    _, rows = _rows(capsys.readouterr().out)

    cfg = load_config(None, sets)
    key = "port1.alpha.magnitude" if axis == "alpha" else "port0.beta.magnitude"
    for row, value in zip(rows, np.linspace(start, stop, 9)):
        scenario = build_scenario(dict(cfg, **{key: float(value)}))
        for cell, scheme in zip(row[1:4], SCHEMES):
            point = optimal_working_point(scheme, scenario)
            assert cell == fmt(point.delta_phi)
            reference = scan_optimum(scheme, scenario)[1]
            assert abs(point.delta_phi - reference) <= 1e-12 * reference, (scheme, value)


def test_near_coherent_amplitude_sweeps_stay_above_the_qcrb(capsys):
    """No printed df or sg optimum of a near-coherent sweep beats the QCRB.

    With squeezing <= 0.05, a third of it exactly 0, the sg optimum sits next
    to a dark fringe, where the variance written out cancels to rounding
    noise.  Seeded like the amplitude sweeps of the benchmark; 1e-9 is the
    relative precision of the printed 12 digits.
    """
    rng = np.random.default_rng(5)
    families = ("pmc1", "pmc2", "pmc3", "sqzvac_optimal", "sqzvac_wideband", None)
    for _ in range(150):
        family = families[rng.integers(len(families))]
        axis = ("alpha", "beta")[rng.integers(2)]
        r, z = (rng.choice([0.0, 1e-3, rng.uniform(0.0, 0.05)]) for _ in range(2))
        sets = {"port1.alpha.magnitude": 10 ** rng.uniform(-3, 3),
                "port0.beta.magnitude": 10 ** rng.uniform(-3, 3),
                "port0.xi.factor": r, "port1.zeta.factor": z,
                "port1.alpha.phase": rng.uniform(0, 7), "port0.beta.phase": rng.uniform(0, 7),
                "convention": ("symmetric", "cube")[rng.integers(2)],
                "efficiency": rng.choice([1.0, rng.uniform(0.3, 1.0)])}
        if family:
            sets["pmc"] = family
        argv = _argv(axis, repr(10 ** rng.uniform(-3, 1)), repr(10 ** rng.uniform(1, 3)), 5,
                     [f"{key}={value}" for key, value in sets.items()])
        assert main(argv) == 0, argv
        _, rows = _rows(capsys.readouterr().out)
        for row in rows:
            df, sg, _, bound = (float(cell) for cell in row[1:])
            assert min(df, sg) >= bound * (1.0 - 1e-9), (argv, row)


def test_flat_rows_of_an_amplitude_sweep_print_inf(capsys):
    """Two equal squeezed vacua have no working point; displacing port 1 gives one."""
    sets = ["port1.zeta.factor=0.5", "port0.xi.factor=0.5"]
    assert main(_argv("alpha", "0", "1", 3, sets)) == 0
    _, rows = _rows(capsys.readouterr().out)
    assert rows[0][1:4] == ["inf", "inf", "inf"]
    cfg = load_config(None, sets)
    flat = build_scenario(cfg)
    for scheme in SCHEMES:
        with pytest.raises(FlatObjective):
            optimal_working_point(scheme, flat)
    assert all(math.isfinite(float(cell)) for row in rows[1:] for cell in row[1:4])


@pytest.mark.parametrize("argv", [
    _argv("alpha", "1e60", "1e61", 2, []),
    _argv("beta", "1", "2", 2, ["port1.zeta.factor=100", "pmc=pmc1"]),
])
def test_large_amplitude_sweeps_find_their_working_points(argv, capsys):
    """The variance times slope^2 of the stationarity polynomial once overflowed:
    an inf in the companion matrix ended in a LinAlgError traceback."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    _, rows = _rows(captured.out)
    for row in rows:
        *optima, bound = (float(cell) for cell in row[1:])
        assert all(0.0 < value < math.inf and value >= bound * (1.0 - 1e-9) for value in optima)
    if argv[2] == "alpha":  # a coherent port 1 and a vacuum: every scheme reaches 1/|alpha|
        assert rows[0][1:] == ["1e-60"] * 4


def test_flat_rows_at_squeeze_factor_170_print_inf(capsys):
    """Two equal squeezed vacua, then a displaced port 1: the flat rows of df and
    sg pass the judge and the polish with one candidate each, without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(_argv("alpha", "0", "1", 3, ["port1.zeta.factor=170", "port0.xi.factor=170"]))
    assert code == 0
    assert _rows(capsys.readouterr().out)[1] == [
        ["0", "inf", "inf", "inf", "inf"],
        ["0.5", "inf", "inf", "2.95779501129e-74", "2.95779501129e-74"],
        ["1", "inf", "inf", "1.47889750564e-74", "1.47889750564e-74"],
    ]


def test_equal_squeezed_vacua_have_zero_qfi(capsys):
    """F_dd of two equal squeezed vacua is exactly 0, so the QCRB is inf, not 2^26."""
    sets = ["port1.zeta.factor=0.5", "port0.xi.factor=0.5"]
    assert main(["qfi", *(arg for item in sets for arg in ("--set", item))]) == 0
    header, rows = _rows(capsys.readouterr().out)
    record = dict(zip(header, rows[0]))
    assert (record["f_dd"], record["qfi"], record["qcrb"]) == ("0", "0", "inf")
    assert main(_argv("alpha", "0", "1", 3, sets)) == 0
    _, rows = _rows(capsys.readouterr().out)
    assert rows[0][-1] == "inf"


_FUZZ_KEYS = ("port1.alpha.magnitude", "port1.alpha.phase", "port1.zeta.factor",
              "port1.zeta.phase", "port0.beta.magnitude", "port0.beta.phase",
              "port0.xi.factor", "port0.xi.phase", "phase", "homodyne.local_phase",
              "efficiency", "shots")
_FUZZ_VALUES = ("-1", "0", "1e-310", "1e-300", "0.5", "3", "200", "1e5", "1e153", "1e200", "nan",
                "inf", "1e400")
_FUZZ_FAMILIES = (None,) + tuple(family.value for family in PmcSet)
_FUZZ_SCHEMES = (None, "df", "sg", "hom", "difference,homodyne", "single,sg", "", "bogus")


def _run_contract(argv, codes):
    """Run ``main(argv)`` in-process; its exit code is one of ``codes``, with no
    traceback and no nan on stdout.  Returns the code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in codes, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert "nan" not in out.getvalue(), argv
    return code, out.getvalue()


@settings(max_examples=400, deadline=None)
# F_sd^2 overflows a float: once an OverflowError traceback
@example(command="qfi", values={"port1.alpha.magnitude": "1e153",
                                "port0.beta.magnitude": "1e153", "port0.beta.phase": "0.5"},
         pmc=None, convention="symmetric", scheme=None, stop="1")
# a variance that underflows, and the dark fringe of two equal coherent inputs
# at phi = pi/2: both once a Delta phi of 0 and a ValueError traceback
@example(command="phi", values={"port1.alpha.magnitude": "1e-300", "port0.beta.magnitude": "1e5"},
         pmc=None, convention="symmetric", scheme=None, stop="1")
@example(command="phi", values={"port1.alpha.magnitude": "1e5", "port0.beta.magnitude": "1e5"},
         pmc=None, convention="symmetric", scheme=None, stop="1")
# a detection variance that overflows: once inf cells, exit 0 and a RuntimeWarning
@example(command="phi", values={"port1.alpha.magnitude": "1e153", "efficiency": "1e-300"},
         pmc=None, convention="symmetric", scheme=None, stop="1")
# variance times slope^2 overflows in the working-point search: once a LinAlgError traceback
@example(command="alpha", values={}, pmc=None, convention="symmetric", scheme=None,
         stop="1e200")
@example(command="beta", values={"port1.zeta.factor": "200"}, pmc="pmc1",
         convention="symmetric", scheme=None, stop="3")
@given(command=st.sampled_from(("qfi", "phi", "alpha", "beta")),
       values=st.dictionaries(st.sampled_from(_FUZZ_KEYS), st.sampled_from(_FUZZ_VALUES)),
       pmc=st.sampled_from(_FUZZ_FAMILIES), convention=st.sampled_from(("symmetric", "cube")),
       scheme=st.sampled_from(_FUZZ_SCHEMES), stop=st.sampled_from(_FUZZ_VALUES))
def test_cli_contract_holds_for_every_number(command, values, pmc, convention, scheme, stop):
    """Exit 0, 2 or 3 and no traceback, whatever numbers the keys get; no nan is printed.

    Any subset of the keys is set, the rest keep their defaults, under any
    family (or none), either convention and any scheme list (or the default).
    ``alpha`` and ``beta`` sweep that amplitude from 0 to ``stop``.  An exit 0
    of ``qfi`` prints a finite, non-negative QFI and its QCRB
    1/sqrt(shots QFI), or inf at QFI 0.
    """
    argv = (["qfi"] if command == "qfi" else _argv("phi", "0", "2*pi", 5, []) if command == "phi"
            else _argv(command, "0", stop, 3, []))
    argv += ["--set", f"convention={convention}"] + ([] if pmc is None else ["--set", f"pmc={pmc}"])
    argv += [] if scheme is None else ["--set", f"scheme={scheme}"]
    for key, value in values.items():
        argv += ["--set", f"{key}={value}"]
    code, out = _run_contract(argv, (0, 2, 3))
    if code == 0 and command == "qfi":
        header, rows = _rows(out)
        record = dict(zip(header, rows[0]))
        value, bound = float(record["qfi"]), float(record["qcrb"])
        assert math.isfinite(value) and value >= 0.0, argv
        shots = json.loads(_comments(out)[0].removeprefix("# config: "))["shots"]
        if value == 0.0:
            assert bound == math.inf, argv
        else:  # both cells are printed to 12 digits
            assert bound == pytest.approx(1.0 / (math.sqrt(shots) * math.sqrt(value)), rel=1e-10), argv


@pytest.mark.parametrize("convention", ["symmetric", "cube"])
@pytest.mark.parametrize("magnitude", ["1e6", "1e7", "1e8", "1e12"])
def test_pmc3_qfi_does_not_cancel_at_large_amplitudes(magnitude, convention, capsys):
    """F_dd - F_sd^2/F_ss once printed 4091.1875 at 1e6, 4088 at 1e7 and 0 at 1e12."""
    assert main(["qfi", "--set", "pmc=pmc3", "--set", f"convention={convention}",
                 "--set", f"port1.alpha.magnitude={magnitude}",
                 "--set", f"port0.beta.magnitude={magnitude}",
                 "--set", "port0.xi.factor=2.3", "--set", "port1.zeta.factor=2.2"]) == 0
    header, rows = _rows(capsys.readouterr().out)
    record = dict(zip(header, rows[0]))
    assert float(record["qfi"]) == pytest.approx(4091.1926773, rel=1e-9)
    assert float(record["qcrb"]) == pytest.approx(1.0 / math.sqrt(4091.1926773), rel=1e-9)


def test_overflowing_detection_variance_exits_3(capsys):
    """The df variance, 1e300 x 1e306 photons of loss noise, once printed inf with exit 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sweep", "--axis", "phi", "--start", "0", "--stop", "1", "--steps", "3",
                     "--set", "port1.alpha.magnitude=1e153", "--set", "efficiency=1e-300"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error:") and "overflow" in captured.err
    assert captured.out == ""


def test_sweep_kernel_calls_do_not_grow_with_steps(monkeypatch, capsys):
    """One kernel pass per scheme and sweep, whatever the number of rows.

    The passes of a phi or an eta sweep share one set of phases, whose
    trigonometry is then computed once.
    """
    calls = []
    kernel = detection._kernel

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(detection, "_kernel", counted)
    sets = ["pmc=pmc2", "port1.alpha.magnitude=30", "port0.beta.magnitude=20",
            "port0.xi.factor=1.1", "port1.zeta.factor=0.7", "efficiency=0.8"]

    def count(axis, steps):
        calls.clear()
        assert main(_argv(axis, "0.5", "1" if axis == "eta" else "2", steps, sets)) == 0
        capsys.readouterr()
        return len(calls)

    assert count("phi", 64) == count("phi", 2) == len(SCHEMES)
    assert count("eta", 64) == count("eta", 2) == len(SCHEMES)
    assert count("alpha", 9) == count("alpha", 2) == count("beta", 17)
    for axis in ("phi", "eta"):
        count(axis, 64)
        assert len({id(phases) for _, _, phases, _ in calls}) == 1


_REGIMES_FLAGS = ("--r", "--z", "--alpha-min", "--alpha-max", "--beta-min", "--beta-max")


@settings(max_examples=150, deadline=None)
# a bound of 0 or below under log spacing: once a ValueError traceback and once nan rows
@example(values={"--alpha-max": "0"}, points=2, spacing="log")
@example(values={"--alpha-max": "-1"}, points=3, spacing="log")
# a subnormal z: once a nan in the beta_lim_13(alpha_circ) comment, from 0 * inf at alpha = 0
@example(values={"--r": "0", "--z": "1e-310"}, points=1, spacing="log")
@given(values=st.dictionaries(st.sampled_from(_REGIMES_FLAGS), st.sampled_from(_FUZZ_VALUES)),
       points=st.sampled_from((1, 2, 3, 4, 70)), spacing=st.sampled_from(("log", "linear")))
def test_regimes_contract_holds_for_every_number(values, points, spacing):
    """``regimes`` exits 0, 2 or 3 without a traceback or a nan, whatever its float flags get."""
    values = {"--r": "1", "--z": "1", **values}  # both are required
    argv = ["regimes", "--points", str(points), "--spacing", spacing]
    _run_contract(argv + [f"{flag}={value}" for flag, value in values.items()], (0, 2, 3))


@settings(max_examples=100, deadline=None)
# n_tot^2 underflows to 0: once a ZeroDivisionError traceback in the ratio columns
@example(n_tot="1e-170", pmc="pmc2", fractions="1/4,1/4,1/4,1/4")
# the exact QFI underflows to 0: once exit 0 with an exact_ratio of 0
@example(n_tot="5e-324", pmc="pmc3", fractions="1/4,1/4,1/4,1/4")
@given(n_tot=st.sampled_from(_FUZZ_VALUES),
       pmc=st.sampled_from([family.value for family in PmcSet]),
       fractions=st.sampled_from(("1/4,1/4,1/4,1/4", "1/2,0,1/2,0", "0,0,1/2,1/2", "1,0,0,0",
                                  "1/6,1/6,1/3,1/3")))
def test_heisenberg_contract_holds_for_every_number(n_tot, pmc, fractions):
    """``heisenberg`` exits 0, 2 or 3 without a traceback or a nan, whatever ``--n-tot`` gets.

    On exit 0, exact_ratio is positive: only two equal squeezed vacua under
    PMC2 have a QFI of 0, at every ``--n-tot``.
    """
    code, out = _run_contract(["heisenberg", "--pmc", pmc, "--fractions", fractions,
                               f"--n-tot={n_tot}"], (0, 2, 3))
    if code == 0:
        header, rows = _rows(out)
        exact_ratio = float(rows[0][header.index("exact_ratio")])
        vanishes = PmcSet(pmc).regime is PmcSet.PMC2 and fractions == "0,0,1/2,1/2"
        assert exact_ratio == 0.0 if vanishes else exact_ratio > 0.0, (n_tot, pmc, fractions)


_VERIFY_FLAGS = ("--alpha-max", "--beta-max", "--squeeze-max")


@settings(max_examples=60, deadline=None)
# a negative bound or phase count: once a ValueError traceback from numpy's generator
@example(values={"--alpha-max": "-1"}, phases=1, n_max=12)
@example(values={}, phases=-1, n_max=12)
@given(values=st.dictionaries(st.sampled_from(_VERIFY_FLAGS), st.sampled_from(_FUZZ_VALUES)),
       phases=st.integers(-1, 2), n_max=st.sampled_from((2, 6, 12)))
def test_verify_contract_holds_for_every_number(values, phases, n_max):
    """``verify`` exits 0, 2, 3 or 4 without a traceback or a nan, whatever its float flags get."""
    argv = ["verify", "--samples", "1", "--phases", str(phases), "--n-max", str(n_max)]
    _run_contract(argv + [f"{flag}={value}" for flag, value in values.items()], (0, 2, 3, 4))


@pytest.mark.parametrize("n_tot", ["1e-100", "1e-170"])
def test_heisenberg_ratios_survive_an_underflowing_n_tot_squared(n_tot, capsys):
    """At 1e-170, n_tot^2 underflows to 0; the ratio columns once divided by it."""
    assert main(["heisenberg", "--pmc", "pmc2", "--fractions", "1/4,1/4,1/4,1/4",
                 "--n-tot", n_tot]) == 0
    header, rows = _rows(capsys.readouterr().out)
    record = dict(zip(header, rows[0]))
    assert record["asymptotic_ratio"] == "0.5"
    assert 0.0 < float(record["exact_ratio"]) < math.inf


def test_verify_without_phases_checks_the_fisher_matrix(capsys):
    """``--phases 0`` once raised from a maximum over an empty variance array."""
    assert main(["verify", "--samples", "1", "--phases", "0"]) == 0
    _, rows = _rows(capsys.readouterr().out)
    assert [row[1] for row in rows] == ["f_ss", "f_dd", "f_sd"]


def test_slope_that_is_only_rounding_residue_prints_inf(capsys):
    """PMC3 makes <Jx> = 2 Re(a0* a1) and the homodyne Re(e^{-i phi_l} <a0>) exactly 0.

    Their rounding residue once gave finite slopes: at phi = 0 the symmetric
    convention printed 1.17e13, 2.33e13 and 3.92e13 and the cube one
    1.17e13, 2.33e13 and inf for the same physical point.
    """
    sets = ["pmc=pmc3", "port1.alpha.magnitude=3.9e4", "port0.beta.magnitude=1e3",
            "port1.alpha.phase=0.7", "port0.xi.factor=1", "port1.zeta.factor=0.8"]
    rows = {}
    for convention in ("symmetric", "cube"):
        assert main(_argv("phi", "0", "2*pi", 5, sets + [f"convention={convention}"])) == 0
        _, rows[convention] = _rows(capsys.readouterr().out)
        assert rows[convention][0][1:4] == ["inf"] * 3, convention
    assert rows["symmetric"][-1] == rows["cube"][-1]


# --- argv dispatch ---------------------------------------------------------------

def _parse_outcome(parse, argv):
    """(SystemExit code, stdout, stderr, parsed namespace) of ``parse(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    code = args = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = vars(parse(list(argv)))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), args


_SWEEP_FLAGS = ["--axis", "phi", "--start", "0", "--stop", "1", "--steps", "3"]


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["sweep", "-h"], ["--help"], ["qfi", "--help"],
    ["nosuch"], ["nosuch", "--steps", "3"], ["Qfi"], ["qf"], ["-x"], ["--", "qfi"],
    ["sweep", "--axis", "phi"], ["sweep"], ["regimes", "--r", "1"],
    ["sweep", "--axis", "psi", "--start", "0", "--stop", "1", "--steps", "3"],
    ["regimes", "--r", "1", "--z", "1", "--spacing", "cubic"],
    ["qfi", "--bogus", "1"], ["qfi", "stray", "tokens"], ["sweep", *_SWEEP_FLAGS, "--zzz"],
    ["sweep", "--ax", "phi", "--sta", "0", "--sto", "1", "--ste", "3"], ["qfi", "--se", "phase=1"],
    ["sweep", "--s", "0"], ["qfi", "--he"],
    ["qfi", "--set=port1.alpha.magnitude=2"],
    ["sweep", "--axis=phi", "--start=-1", "--stop=1", "--steps=3"],
    ["qfi", "--", "--set", "phase=1"], ["qfi", "--set", "phase=1", "--"],
    ["sweep", "--axis", "phi", "--start", "-1", "--stop", "-0.5", "--steps", "4"],
    ["regimes", "--r", "-1", "--z", "1"], ["sweep", "-1"], ["verify", "--seed", "-3", "-7"],
    ["qfi", "-o"], ["qfi", "--config"], ["sweep", *_SWEEP_FLAGS, "--steps", "x"],
    ["sweep", "--axis", "phi", "--axis", "eta", *_SWEEP_FLAGS[2:]], ["qfi", "--set", ""],
    ["regimes", "--r", "1", "--z", "1", "--points", "x"], ["verify", "-o", "FILE", "--seed", "3"],
])
def test_argv_dispatch_matches_the_top_level_parser(argv):
    """``main`` exits, prints and parses as ``_build_parser().parse_args`` does on the same argv."""
    want = _parse_outcome(_build_parser().parse_args, argv)
    if want[0] is None:  # parsed: the command runs on the same namespace
        assert _parse_outcome(cli._parse_args, argv) == want
    else:
        assert _parse_outcome(main, argv) == want


# Valid values of each command's required flags, and tokens that exercise every
# way argparse reads a token: abbreviations, --flag=value, -h, --, values that
# start with -, empty values, bad ints and floats, values outside the choices.
_REQUIRED_PAIRS = {
    "qfi": [], "verify": [],
    "sweep": [("--axis", "phi"), ("--start", "0"), ("--stop", "1"), ("--steps", "3")],
    "regimes": [("--r", "1"), ("--z", "0.5")],
    "heisenberg": [("--pmc", "pmc3"), ("--fractions", "1,0,0,0")],
}
_ARGV_VALUES = ("0", "3", "1.5", "2*pi", "nan", "inf", "1e400", " 2", "x", "", "-1", "-0.5", "-",
                "-1e3", "-x", "phi", "eta", "psi", "log", "linear", "cubic", "pmc3", "phase=1",
                "port1.alpha.magnitude=2", "FILE", "1,0,0,0")
_ARGV_TOKENS = ("-h", "--help", "--", "--ax", "--se", "--sta", "--alpha-m", "--n", "--s", "-o",
                "--set=phase=1", "--axis=eta", "--steps=4", "--r=2", "--points=3", "-oFILE",
                "--bogus", "stray", "-1")


def _good_value(action):
    """Values that the flag's type and choices accept."""
    if action.choices is not None:
        return st.sampled_from(list(action.choices))
    if action.type is int:
        return st.sampled_from(("0", "3", " 7"))
    if action.type is float:
        return st.sampled_from(("1.5", "2", "nan", "inf", "1e400"))
    return st.sampled_from(("2*pi", "phase=1", "pmc3", "FILE", "1,0,0,0", "x"))


@st.composite
def _command_argv(draw):
    command = draw(st.sampled_from(sorted(_REQUIRED_PAIRS)))
    commands = next(action for action in _build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    flags = [action for action in commands.choices[command]._actions if action.nargs is None]
    good = st.sampled_from(flags).flatmap(
        lambda action: st.tuples(st.sampled_from(action.option_strings), _good_value(action)))
    options = [option for action in flags for option in action.option_strings]
    any_pair = st.tuples(st.sampled_from(options), st.sampled_from(_ARGV_VALUES))
    single = st.sampled_from(_ARGV_TOKENS).map(lambda t: (t,))
    items = [*draw(st.sampled_from((_REQUIRED_PAIRS[command], []))),
             *draw(st.lists(st.one_of(good, good, good, any_pair, single), max_size=6))]
    return [command, *(token for item in draw(st.permutations(items)) for token in item)]


def _nan_free(outcome):
    """The outcome with each nan of the namespace as a string, so that equal outcomes compare equal."""
    code, out, err, args = outcome
    if args is not None:
        args = {key: "nan" if isinstance(value, float) and math.isnan(value) else value
                for key, value in args.items()}
    return code, out, err, args


@settings(max_examples=400, deadline=None)
@example(argv=["sweep", "--steps", "3", "--axis", "eta", "--stop", "1", "--start", "0",
               "--set", "phase=1", "--axis", "phi", "--set", "efficiency=0.5"])
@example(argv=["regimes", "--r", "nan", "--z", "1", "--spacing", "linear", "-o", "FILE"])
@given(argv=_command_argv())
def test_argv_parse_matches_the_top_level_parser(argv):
    """``_parse_args`` exits, prints and parses as ``_build_parser().parse_args`` does."""
    assert (_nan_free(_parse_outcome(cli._parse_args, argv))
            == _nan_free(_parse_outcome(_build_parser().parse_args, argv)))


# one request of each kind the benchmark sends
_BENCHMARK_ARGV = [
    ["sweep", "--axis", "alpha", "--start", "1.0", "--stop", "40.0", "--steps", "9",
     "--set", "pmc=pmc2", "--set", "port0.xi.factor=0.5", "--set", "efficiency=0.8"],
    ["sweep", "--axis", "phi", "--start", "0", "--stop", "2*pi", "--steps", "33",
     "--set", "pmc=pmc3", "--set", "convention=cube"],
    ["sweep", "--axis", "eta", "--start", "0.5", "--stop", "1", "--steps", "33",
     "--set", "port1.alpha.magnitude=3.5"],
    ["qfi", "--set", "port1.alpha.magnitude=2", "--set", "pmc=pmc1"],
    ["regimes", "--r", "1.2", "--z", "0.3", "--alpha-min", "0.05", "--alpha-max", "500.0",
     "--beta-min", "0.05", "--beta-max", "500.0", "--points", "40"],
    ["heisenberg", "--pmc", "pmc2", "--fractions", "0.25,0.25,0.25,0.25", "--n-tot", "1e4"],
    ["verify", "--samples", "2", "--phases", "5", "--seed", "123"],
]


def test_benchmark_argv_parse_without_argparse(monkeypatch):
    """A request of each benchmark kind is read off its command's flag table alone."""
    want = [vars(_build_parser().parse_args(argv)) for argv in _BENCHMARK_ARGV]

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a flag-value argv")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    assert [vars(cli._parse_args(argv)) for argv in _BENCHMARK_ARGV] == want
