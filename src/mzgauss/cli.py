"""Deterministic command-line front end: JSON scenario configs in, CSV out.

Subcommands: ``qfi`` (Fisher matrix, QFI, Cramer-Rao bound), ``sweep``
(sensitivity curves over phi / alpha / beta / eta), ``regimes`` (optimal-PMC
atlas over the coherent amplitudes), ``heisenberg`` (power-fraction scaling)
and ``verify`` (closed-form vs Fock-oracle equivalence suite).

CSV goes to stdout or ``-o``; the human-readable report goes to stderr.  Output
bytes are a pure function of config plus seed.  Exit codes: 0 success,
2 config error, 3 verification failure, 4 truncation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import IO

import numpy as np

from . import detection
from .errors import (ConfigError, InvalidEfficiency, MzGaussError,
                     NumericalOverflow, TruncationError, UndefinedBoundary)
from .fisher import fisher_matrix, qcrb, qfi, qfi_closed_form
from .heisenberg import PowerFractions, asymptotic_qfi, heisenberg_optima
from .interferometer import BsConvention, MziScenario
from .pmc import REGIME_FAMILIES, PmcSet, apply_pmc, boundaries, regime_qfis
from .states import GaussianPort

_CONFIG_KEYS = {
    "port1.alpha.magnitude": 0.0,
    "port1.alpha.phase": 0.0,
    "port1.zeta.factor": 0.0,
    "port1.zeta.phase": 0.0,
    "port0.beta.magnitude": 0.0,
    "port0.beta.phase": 0.0,
    "port0.xi.factor": 0.0,
    "port0.xi.phase": 0.0,
    "convention": "symmetric",
    "phase": 0.0,
    "efficiency": 1.0,
    "scheme": "df,sg,hom",
    "homodyne.local_phase": None,
    "pmc": None,
    "shots": 1,
}

_ANGLE_KEYS = {
    "port1.alpha.phase", "port1.zeta.phase", "port0.beta.phase",
    "port0.xi.phase", "phase", "homodyne.local_phase",
}

_SCHEME_NAMES = {
    "df": "df", "difference": "df",
    "sg": "sg", "single": "sg",
    "hom": "hom", "homodyne": "hom",
}


def _finite(value: float, key: str) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"field {key}: expected a finite number, got {value!r}")
    return value


def parse_angle(value, key: str = "") -> float:
    """Numbers pass through; strings may carry a '*pi' suffix for exactness."""
    key = key or "angle"
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _finite(float(value), key)
    text = str(value).strip().replace(" ", "")
    try:
        if text.endswith("pi"):
            head = text[:-2].rstrip("*")
            if head in ("", "+"):
                return math.pi
            if head == "-":
                return -math.pi
            return _finite(float(head) * math.pi, key)
        return _finite(float(text), key)
    except ValueError:
        raise ConfigError(f"field {key}: cannot parse angle {value!r}") from None


def _non_negative(value: float, key: str) -> float:
    """Every number but an angle is a magnitude, a count or a seed."""
    if not 0.0 <= value < math.inf:
        raise ConfigError(f"field {key}: expected a finite number >= 0, got {fmt(value)}")
    return value


def _parse_number(value, key: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"field {key}: expected a number, got {value!r}") from None
    return _non_negative(number, key)


def load_config(path: str | None, overrides: list[str]) -> dict:
    cfg = dict(_CONFIG_KEYS)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be a flat JSON object")
        for key, value in raw.items():
            if key not in cfg:
                raise ConfigError(f"{path}: unknown config key {key!r}")
            cfg[key] = value
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in cfg:
            raise ConfigError(f"--set: unknown config key {key!r}")
        cfg[key] = value.strip()
    return cfg


def _schemes_from_config(cfg: dict) -> list[str]:
    names = []
    for part in str(cfg["scheme"]).split(","):
        part = part.strip().lower()
        if not part:
            continue
        if part not in _SCHEME_NAMES:
            raise ConfigError(f"field scheme: unknown detection scheme {part!r}")
        tag = _SCHEME_NAMES[part]
        if tag not in names:
            names.append(tag)
    if not names:
        raise ConfigError("field scheme: at least one detection scheme is required")
    return names


def _scheme_object(tag: str, cfg: dict) -> detection.DetectionScheme:
    if tag == "df":
        return detection.DifferenceIntensity()
    if tag == "sg":
        return detection.SingleModeIntensity()
    local = cfg["homodyne.local_phase"]
    return detection.Homodyne(None if local is None else parse_angle(local, "homodyne.local_phase"))


def _normalized(cfg: dict) -> dict:
    """Numeric view of the config used for scenario building and CSV comments."""
    out = {}
    for key, value in cfg.items():
        if key in ("convention", "scheme", "pmc"):
            out[key] = value if value is None else str(value).lower()
        elif key == "shots":
            out[key] = int(_parse_number(value, key))
            if out[key] < 1 or out[key] != float(value):  # never floor a fraction away
                raise ConfigError(f"field shots: expected an integer >= 1, got {value!r}")
        elif key == "homodyne.local_phase":
            out[key] = None if value is None else parse_angle(value, key)
        elif key in _ANGLE_KEYS:
            out[key] = parse_angle(value, key)
        else:
            out[key] = _parse_number(value, key)
    return out


def _pmc_family(value, key: str) -> PmcSet:
    """The family named by ``value``, in any case; ``key`` names the field in the error."""
    try:
        return PmcSet(str(value).lower())
    except ValueError:
        names = ", ".join(p.value for p in PmcSet)
        raise ConfigError(f"{key}: expected one of {names}, got {value!r}") from None


def build_scenario(cfg: dict, n: dict) -> MziScenario:
    """The scenario of a config, read from ``n``, its :func:`_normalized` view."""
    try:
        convention = BsConvention(n["convention"])
    except ValueError:
        raise ConfigError(f"field convention: expected symmetric|cube, got {cfg['convention']!r}") from None

    if n["pmc"] is not None:
        port1, port0 = apply_pmc(
            _pmc_family(cfg["pmc"], "field pmc"), n["port1.alpha.phase"],
            n["port1.alpha.magnitude"], n["port0.beta.magnitude"],
            n["port0.xi.factor"], n["port1.zeta.factor"], convention,
        )
    else:
        port1 = GaussianPort.from_params(
            n["port1.alpha.magnitude"], n["port1.alpha.phase"],
            n["port1.zeta.factor"], n["port1.zeta.phase"])
        port0 = GaussianPort.from_params(
            n["port0.beta.magnitude"], n["port0.beta.phase"],
            n["port0.xi.factor"], n["port0.xi.phase"])
    try:
        return MziScenario(port1, port0, convention, n["phase"], n["efficiency"])
    except MzGaussError as exc:
        raise ConfigError(str(exc)) from None


def fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _config_comment(normalized: dict) -> str:
    return "# config: " + json.dumps(normalized, sort_keys=True)


def _limit_comments(limits) -> list[str]:
    return [f"# alpha_lim_13 = {fmt(limits.alpha_13)}",
            f"# alpha_lim_23 = {fmt(limits.alpha_23)}",
            f"# alpha_lim_circ = {fmt(limits.alpha_circ)}",
            f"# beta_lim_12 = {fmt(limits.beta_12)}",
            f"# alpha_lim_single = {fmt(limits.alpha_lim_single)}"]


def _write_csv(stream: IO[str], comments: list[str], header: list[str], rows) -> None:
    for line in comments:
        stream.write(line + "\n")
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(fmt(v) for v in row) + "\n")


# --- subcommands --------------------------------------------------------------

def _bound(fisher_value: float, shots: int) -> float:
    return qcrb(fisher_value, shots) if fisher_value > 0 else math.inf


def cmd_qfi(cfg: dict, out: IO[str], err: IO[str]) -> int:
    n = _normalized(cfg)
    scenario = build_scenario(cfg, n)
    fm = fisher_matrix(scenario)
    value = qfi(scenario)
    bound = _bound(value, n["shots"])
    limits = boundaries(scenario.port0.squeeze.factor, scenario.port1.squeeze.factor)
    comments = [_config_comment(n), *_limit_comments(limits)]
    _write_csv(out, comments, ["f_ss", "f_dd", "f_sd", "qfi", "qcrb"],
               [[fm.f_ss, fm.f_dd, fm.f_sd, value, bound]])
    err.write(f"qfi: F = {fmt(value)}, QCRB = {fmt(bound)} at {n['shots']} shot(s)\n")
    return 0


_SWEEP_KEYS = {"phi": "phase", "alpha": "port1.alpha.magnitude",
               "beta": "port0.beta.magnitude", "eta": "efficiency"}


def cmd_sweep(cfg: dict, axis: str, start, stop, steps: int, out: IO[str], err: IO[str]) -> int:
    if steps < 2:
        raise ConfigError("sweep requires steps >= 2")
    if axis not in _SWEEP_KEYS:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    tags = _schemes_from_config(cfg)
    schemes = [_scheme_object(tag, cfg) for tag in tags]
    n = _normalized(cfg)
    lo = parse_angle(start, "start") if axis == "phi" else _parse_number(start, "start")
    hi = parse_angle(stop, "stop") if axis == "phi" else _parse_number(stop, "stop")
    grid = np.linspace(lo, hi, steps)

    def scenario_at(value):
        return build_scenario(cfg, dict(n, **{_SWEEP_KEYS[axis]: float(value)}))

    # every column is one array over the grid: one kernel pass per scheme
    if axis in ("alpha", "beta"):
        scenarios = [scenario_at(value) for value in grid]
        bounds = [_bound(qfi(scenario), n["shots"]) for scenario in scenarios]
        columns = [detection.working_points(scheme, scenarios)[1].tolist() for scheme in schemes]
        columns.append(bounds)
        tail = "\n"
    else:
        # neither the phase nor the efficiency enters the ports or the Fisher matrix
        base = scenario_at(grid[0])
        tail = "," + fmt(_bound(qfi(base), n["shots"])) + "\n"  # the same bound on every row
        if axis == "phi":
            columns = [detection.sensitivities(scheme, base, grid) for scheme in schemes]
        else:
            try:
                for value in grid:
                    base.with_efficiency(float(value))
            except InvalidEfficiency as exc:
                raise ConfigError(str(exc)) from None
            columns = [detection.sensitivities(scheme, base, base.phase, grid)
                       for scheme in schemes]
        columns = [column.tolist() for column in columns]

    header = [axis] + [f"delta_phi_{tag}" for tag in tags] + ["delta_phi_qcrb"]
    _write_csv(out, [_config_comment(n), f"# axis: {axis} from {fmt(lo)} to {fmt(hi)} in {steps} steps"],
               header, [])
    line = ",".join(["%.12g"] * (1 + len(columns))) + tail  # fmt() of each cell, inf included
    out.writelines(line % row for row in zip(grid.tolist(), *columns))
    err.write(f"sweep: {steps} rows over {axis}\n")
    return 0


_ATLAS_LINE = "%.12g,%.12g,%s,%.12g,%.12g,%.12g\n"  # fmt() of each cell, inf and nan included


def _boundary_at(curve, alpha: float):
    try:
        return curve(alpha)
    except UndefinedBoundary:
        return None


def cmd_regimes(r: float, z: float, alpha_min: float, alpha_max: float,
                beta_min: float, beta_max: float, points: int, spacing: str,
                out: IO[str], err: IO[str]) -> int:
    if points < 1:
        raise ConfigError("regimes requires points >= 1")
    limits = boundaries(r, z)

    def axis(lo, hi):
        if points == 1:
            return np.array([lo])
        if spacing == "log":
            if min(lo, hi) <= 0:
                raise ConfigError("log spacing requires positive axis bounds")
            return np.geomspace(lo, hi, points)
        return np.linspace(lo, hi, points)

    alphas = axis(alpha_min, alpha_max).tolist()
    betas = axis(beta_min, beta_max)
    comments = [
        f"# config: {json.dumps({'r': r, 'z': z, 'alpha_min': alpha_min, 'alpha_max': alpha_max, 'beta_min': beta_min, 'beta_max': beta_max, 'points': points, 'spacing': spacing}, sort_keys=True)}",
        *_limit_comments(limits),
        f"# beta_lim_23(alpha_circ) = {fmt(_boundary_at(limits.beta_23, limits.alpha_circ))}",
        f"# beta_lim_13(alpha_circ) = {fmt(_boundary_at(limits.beta_13, limits.alpha_circ))}",
    ]
    # Every term of the closed forms is monotone or convex in alpha^2, so an
    # overflow anywhere in the grid leaves an inf or a nan in the first or the
    # last row: both are checked before anything is written.
    edges = {i: regime_qfis(alphas[i], betas, r, z) for i in (0, len(alphas) - 1)}
    if not all(np.isfinite(values).all() for _, values in edges.values()):
        raise NumericalOverflow(f"the PMC QFIs overflow at r = {fmt(r)}, z = {fmt(z)} on the "
                                f"grid up to |alpha| = {fmt(max(alphas))}, |beta| = {fmt(betas.max())}")
    _write_csv(out, comments, ["alpha", "beta", "pmc", "qfi_pmc1", "qfi_pmc2", "qfi_pmc3"], [])
    names = [family.value for family in REGIME_FAMILIES]
    beta_cells = betas.tolist()
    for i, a in enumerate(alphas):  # one row of the atlas per evaluation; memory stays flat in points
        best, values = edges[i] if i in edges else regime_qfis(a, betas, r, z)
        out.writelines(_ATLAS_LINE % (a, b, names[k], f1, f2, f3)
                       for b, k, f1, f2, f3 in zip(beta_cells, best.tolist(), *values.tolist()))
    err.write(f"regimes: {points * points} grid points at r={fmt(r)}, z={fmt(z)}\n")
    return 0


def _parse_fraction(text: str, key: str) -> float:
    text = text.strip()
    try:
        if "/" in text:
            num, _, den = text.partition("/")
            return _finite(float(num) / float(den), key)
        return _finite(float(text), key)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"field {key}: cannot parse fraction {text!r}") from None


def cmd_heisenberg(pmc_name: str, fractions_text: str, n_tot: float,
                   out: IO[str], err: IO[str]) -> int:
    family = _pmc_family(pmc_name, "--pmc")
    parts = [p for p in fractions_text.split(",") if p.strip()]
    if len(parts) != 4:
        raise ConfigError("--fractions expects f_alpha,f_beta,f_r,f_z")
    vals = [_parse_fraction(p, "fractions") for p in parts]
    try:
        fractions = PowerFractions(*vals, n_tot=n_tot)
    except ValueError as exc:
        raise ConfigError(f"--fractions: {exc}") from None

    unit = PowerFractions(*vals, n_tot=1.0)
    asymptotic = asymptotic_qfi(family, fractions)
    # the leading order is <N_tot>^2 times its value at <N_tot> = 1, which no underflow zeroes
    ratio = asymptotic_qfi(family, unit)
    alpha, beta, r, z = fractions.to_magnitudes()
    exact = qfi_closed_form(alpha, beta, r, z, pmc=family)
    exact_ratio = exact / n_tot / n_tot
    if math.isinf(exact_ratio):  # about 1 / n_tot, past the double range below n_tot = 1e-308
        raise NumericalOverflow(f"F/<N_tot>^2 overflows at n_tot = {fmt(n_tot)}")
    # a QFI that is 0 at <N_tot> = 1 is 0 at every <N_tot>; any other 0 is an underflow
    if exact == 0.0 and qfi_closed_form(*unit.to_magnitudes(), pmc=family) > 0.0:
        raise NumericalOverflow(f"the exact QFI underflows to 0 at n_tot = {fmt(n_tot)}")
    comments = [
        f"# config: {json.dumps({'pmc': family.value, 'fractions': vals, 'n_tot': n_tot}, sort_keys=True)}",
    ]
    for manifold in heisenberg_optima(family).manifolds:
        comments.append("# optimum: " + json.dumps(manifold, sort_keys=True))
    _write_csv(out, comments,
               ["f_alpha", "f_beta", "f_r", "f_z", "n_tot",
                "asymptotic_qfi", "asymptotic_ratio", "exact_qfi", "exact_ratio"],
               [[*vals, n_tot, asymptotic, ratio, exact, exact_ratio]])
    err.write(f"heisenberg: {family.value} asymptotic F/N^2 = {fmt(ratio)}\n")
    return 0


def _relerr(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def cmd_verify(samples: int, phases: int, seed: int, n_max: int,
               alpha_max: float, beta_max: float, squeeze_max: float,
               out: IO[str], err: IO[str]) -> int:
    from . import oracle  # only this command needs the Fock oracle; the others never load it

    if n_max < 2:  # the truncation check measures the top two shells: no shell would be left
        raise ConfigError(f"verify requires --n-max >= 2, got {n_max}")
    rng = np.random.default_rng(seed)
    rows = []
    failures = 0
    if samples <= 0:
        err.write("verify: empty box, vacuous pass\n")
        _write_csv(out, ["# verify: empty box"],
                   ["case", "quantity", "phi", "closed", "oracle", "relerr", "pass"], [])
        return 0

    schemes = [("mean_nd", detection.DifferenceIntensity(), "n_diff", 1e-8),
               ("mean_n4", detection.SingleModeIntensity(), "n4", 1e-8),
               ("mean_x", detection.Homodyne(), "quad", 1e-8)]

    for case in range(samples):
        port1 = GaussianPort.from_params(
            rng.uniform(0.0, alpha_max), rng.uniform(0.0, 2.0 * math.pi),
            rng.uniform(0.0, squeeze_max), rng.uniform(0.0, 2.0 * math.pi))
        port0 = GaussianPort.from_params(
            rng.uniform(0.0, beta_max), rng.uniform(0.0, 2.0 * math.pi),
            rng.uniform(0.0, squeeze_max), rng.uniform(0.0, 2.0 * math.pi))
        convention = BsConvention.SYMMETRIC if case % 2 == 0 else BsConvention.CUBE
        base = MziScenario(port1, port0, convention)
        inside = oracle.apply_first_bs(oracle.prepare(base, n_max), convention)
        phis = rng.uniform(0.0, 2.0 * math.pi, phases)

        closed_forms = [detection.observable_stats(scheme, base, phis) for _, scheme, _, _ in schemes]
        for i, (phi, evolved) in enumerate(zip(phis, oracle.evolve_many(inside, phis))):
            stats = oracle.output_stats(evolved, base.port1.displacement.phase)
            for (name, _, obs, tol), (means, variances) in zip(schemes, closed_forms):
                closed = float(means[i])
                meas = stats[obs]
                rel = _relerr(closed, meas)
                ok = rel < tol
                failures += not ok
                rows.append([case, name, phi, closed, meas, rel, int(ok)])

                vname = name.replace("mean", "var")
                closed_v = float(variances[i])
                meas_v = stats[obs + "_sq"] - meas ** 2
                rel_v = _relerr(closed_v, meas_v)
                ok_v = rel_v < 1e-6
                failures += not ok_v
                rows.append([case, vname, phi, closed_v, meas_v, rel_v, int(ok_v)])

        closed_fm = fisher_matrix(base)
        oracle_fm = oracle.generator_fisher(inside)
        scale = max(closed_fm.f_ss, closed_fm.f_dd, 1.0)
        for qty, a, b in (("f_ss", closed_fm.f_ss, oracle_fm.f_ss),
                          ("f_dd", closed_fm.f_dd, oracle_fm.f_dd),
                          ("f_sd", abs(closed_fm.f_sd), abs(oracle_fm.f_sd))):
            rel = abs(a - b) / max(abs(a), abs(b), 1e-6 * scale)
            ok = rel < 1e-4
            failures += not ok
            rows.append([case, qty, "", a, b, rel, int(ok)])

    comments = [
        f"# config: {json.dumps({'samples': samples, 'phases': phases, 'seed': seed, 'n_max': n_max, 'alpha_max': alpha_max, 'beta_max': beta_max, 'squeeze_max': squeeze_max}, sort_keys=True)}",
    ]
    _write_csv(out, comments, ["case", "quantity", "phi", "closed", "oracle", "relerr", "pass"], rows)
    if failures:
        err.write(f"verify: {failures} of {len(rows)} checks FAILED\n")
        return 3
    err.write(f"verify: all {len(rows)} checks passed\n")
    return 0


# --- entry point ---------------------------------------------------------------

def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="JSON config file (flat dotted keys)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key; angles accept a '*pi' suffix")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzgauss",
        description="Phase-estimation performance of a Mach-Zehnder interferometer "
                    "with Gaussian input states (CSV to stdout, report to stderr; "
                    "plain text only, NO_COLOR is always honored).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-o", "--output", metavar="FILE", help="write CSV here instead of stdout")
        return p

    p = add("qfi", "Fisher matrix, QFI and Cramer-Rao bound")
    _add_config_arguments(p)

    p = add("sweep", "sensitivity curves over one axis")
    _add_config_arguments(p)
    p.add_argument("--axis", required=True, choices=("phi", "alpha", "beta", "eta"))
    p.add_argument("--start", required=True)
    p.add_argument("--stop", required=True)
    p.add_argument("--steps", required=True, type=int)

    p = add("regimes", "optimal-PMC atlas over (|alpha|, |beta|)")
    p.add_argument("--r", required=True, type=float)
    p.add_argument("--z", required=True, type=float)
    p.add_argument("--alpha-min", type=float, default=0.05)
    p.add_argument("--alpha-max", type=float, default=500.0)
    p.add_argument("--beta-min", type=float, default=0.05)
    p.add_argument("--beta-max", type=float, default=500.0)
    p.add_argument("--points", type=int, default=10)
    p.add_argument("--spacing", choices=("log", "linear"), default="log")

    p = add("heisenberg", "power-fraction scaling evaluation")
    p.add_argument("--pmc", required=True)
    p.add_argument("--fractions", required=True, metavar="FA,FB,FR,FZ")
    p.add_argument("--n-tot", type=float, default=1e4)

    p = add("verify", "closed forms vs truncated Fock oracle")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--phases", type=int, default=5)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--n-max", type=int, default=60)
    p.add_argument("--alpha-max", type=float, default=1.2)
    p.add_argument("--beta-max", type=float, default=1.2)
    p.add_argument("--squeeze-max", type=float, default=0.6)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    err = sys.stderr

    try:
        for name, value in vars(args).items():  # every number flag, e.g. --r or --seed
            if isinstance(value, (int, float)):
                _non_negative(value, "--" + name.replace("_", "-"))
        if args.output:
            out = open(args.output, "w", encoding="utf-8", newline="\n")
        else:
            out = sys.stdout
        try:
            if args.command == "qfi":
                cfg = load_config(args.config, args.set)
                return cmd_qfi(cfg, out, err)
            if args.command == "sweep":
                cfg = load_config(args.config, args.set)
                return cmd_sweep(cfg, args.axis, args.start, args.stop, args.steps, out, err)
            if args.command == "regimes":
                return cmd_regimes(args.r, args.z, args.alpha_min, args.alpha_max,
                                   args.beta_min, args.beta_max, args.points,
                                   args.spacing, out, err)
            if args.command == "heisenberg":
                return cmd_heisenberg(args.pmc, args.fractions, args.n_tot, out, err)
            if args.command == "verify":
                return cmd_verify(args.samples, args.phases, args.seed, args.n_max,
                                  args.alpha_max, args.beta_max, args.squeeze_max, out, err)
            raise ConfigError(f"unknown command {args.command!r}")
        finally:
            if args.output:
                out.close()
    except ConfigError as exc:
        err.write(f"config error: {exc}\n")
        return 2
    except TruncationError as exc:
        err.write(f"truncation error: {exc}\n")
        return 4
    except MzGaussError as exc:
        err.write(f"error: {exc}\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
