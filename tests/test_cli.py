"""Command-line front end: configs, CSV output, determinism, exit codes."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from mzgauss.cli import main, parse_angle

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
])
def test_non_finite_numbers_are_config_errors(argv, capsys):
    assert main(argv) == 2
    assert "finite" in capsys.readouterr().err


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
])
def test_out_of_range_inputs_exit_without_traceback(argv, code, capsys):
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("config error:" if code == 2 else "error:")
    assert "Traceback" not in err


def test_cli_import_loads_no_scipy():
    """Only ``verify`` needs the oracle, and the oracle is the only scipy user."""
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import mzgauss.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe, str(SRC)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_no_module_imports_scipy_sparse():
    for path in sorted((SRC / "mzgauss").glob("*.py")):
        assert "scipy.sparse" not in path.read_text(encoding="utf-8"), path.name
