"""Deterministic command-line front end: JSON scenario configs in, CSV out.

Subcommands: ``qfi`` (Fisher matrix, QFI, Cramer-Rao bound), ``sweep``
(sensitivity curves over phi / alpha / beta / eta), ``regimes`` (optimal-PMC
atlas over the coherent amplitudes), ``heisenberg`` (power-fraction scaling)
and ``verify`` (closed-form vs Fock-oracle equivalence suite).

CSV goes to stdout or ``-o``; the human-readable report goes to stderr.  Output
bytes are a pure function of config plus seed, and an ``-o`` file is replaced
only by a command that exits 0.  Exit codes: 0 success,
2 config error, 3 verification failure, 4 truncation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import shutil
import sys
import tempfile
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
    """The parsed view of the defaults, the config file at ``path`` and the ``--set`` overrides.

    Numbers are floats, angles radians and ``shots`` an int; the names are in
    lower case, the convention and the family checked.  :func:`build_scenario`
    reads this view and the ``# config:`` line prints it.
    """
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
    return {key: _parse_field(key, value) for key, value in cfg.items()}


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


def _scheme_object(tag: str, local_phase: float | None) -> detection.DetectionScheme:
    if tag == "df":
        return detection.DifferenceIntensity()
    if tag == "sg":
        return detection.SingleModeIntensity()
    return detection.Homodyne(local_phase)


def _parse_field(key: str, value):
    if key == "convention":
        try:
            return BsConvention(str(value).lower()).value
        except ValueError:
            raise ConfigError(f"field convention: expected symmetric|cube, got {value!r}") from None
    if key == "pmc":
        return None if value is None else _pmc_family(value, "field pmc").value
    if key == "scheme":
        return value if value is None else str(value).lower()
    if key == "shots":
        shots = int(_parse_number(value, key))
        if shots < 1 or shots != float(value):  # never floor a fraction away
            raise ConfigError(f"field shots: expected an integer >= 1, got {value!r}")
        return shots
    if key == "homodyne.local_phase" and value is None:
        return None
    if key in _ANGLE_KEYS:
        return parse_angle(value, key)
    return _parse_number(value, key)


def _pmc_family(value, key: str) -> PmcSet:
    """The family named by ``value``, in any case; ``key`` names the field in the error."""
    try:
        return PmcSet(str(value).lower())
    except ValueError:
        names = ", ".join(p.value for p in PmcSet)
        raise ConfigError(f"{key}: expected one of {names}, got {value!r}") from None


def build_scenario(n: dict) -> MziScenario:
    """The scenario of ``n``, a view of :func:`load_config`."""
    convention = BsConvention(n["convention"])
    if n["pmc"] is not None:
        port1, port0 = apply_pmc(
            PmcSet(n["pmc"]), n["port1.alpha.phase"],
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
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _config_comment(normalized: dict) -> str:
    return "# config: " + json.dumps(normalized, sort_keys=True)


def _flags_comment(args: argparse.Namespace) -> str:
    """The ``# config:`` line of a command that its flags alone configure."""
    return _config_comment({key: value for key, value in vars(args).items()
                            if key not in ("command", "output")})


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


def cmd_qfi(args: argparse.Namespace, out: IO[str], err: IO[str]) -> int:
    n = load_config(args.config, args.set)
    scenario = build_scenario(n)
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


def cmd_sweep(args: argparse.Namespace, out: IO[str], err: IO[str]) -> int:
    axis, steps = args.axis, args.steps
    if steps < 2:
        raise ConfigError("sweep requires steps >= 2")
    n = load_config(args.config, args.set)
    tags = _schemes_from_config(n)
    schemes = [_scheme_object(tag, n["homodyne.local_phase"]) for tag in tags]
    parse = parse_angle if axis == "phi" else _parse_number
    lo, hi = parse(args.start, "start"), parse(args.stop, "stop")
    grid = np.linspace(lo, hi, steps)

    def scenario_at(value):
        return build_scenario(dict(n, **{_SWEEP_KEYS[axis]: float(value)}))

    # every column is one array over the grid, and all schemes come from one call: one
    # working-point pass over the alpha or beta rows, one sensitivity pass over phi or eta
    if axis in ("alpha", "beta"):
        scenarios = [scenario_at(value) for value in grid]
        bounds = [_bound(qfi(scenario), n["shots"]) for scenario in scenarios]
        columns = [*detection.working_points(schemes, scenarios)[1].tolist(), bounds]
        tail = "\n"
    else:
        # neither the phase nor the efficiency enters the ports or the Fisher matrix
        base = scenario_at(grid[0])
        tail = "," + fmt(_bound(qfi(base), n["shots"])) + "\n"  # the same bound on every row
        if axis == "phi":
            columns = detection.sensitivities(schemes, base, grid)
        else:
            outside = (grid <= 0.0) | (grid > 1.0)
            if outside.any():  # the scenario words the error for the first of them
                try:
                    base.with_efficiency(float(grid[outside.argmax()]))
                except InvalidEfficiency as exc:
                    raise ConfigError(str(exc)) from None
            columns = detection.sensitivities(schemes, base, base.phase, grid)
        columns = columns.tolist()

    header = [axis] + [f"delta_phi_{tag}" for tag in tags] + ["delta_phi_qcrb"]
    _write_csv(out, [_config_comment(n), f"# axis: {axis} from {fmt(lo)} to {fmt(hi)} in {steps} steps"],
               header, [])
    line = ",".join(["%.12g"] * (1 + len(columns))) + tail  # fmt() of each cell, inf included
    out.writelines(line % row for row in zip(grid.tolist(), *columns))
    err.write(f"sweep: {steps} rows over {axis}\n")
    return 0


_ATLAS_CELLS = 4096  # cells per regime_qfis call: memory stays flat in --points


def _boundary_at(curve, alpha: float):
    try:
        return curve(alpha)
    except UndefinedBoundary:
        return None


def cmd_regimes(args: argparse.Namespace, out: IO[str], err: IO[str]) -> int:
    r, z, points = args.r, args.z, args.points
    if points < 1:
        raise ConfigError("regimes requires points >= 1")
    limits = boundaries(r, z)

    def axis(lo, hi):
        if points == 1:
            return np.array([lo])
        if args.spacing == "log":
            if min(lo, hi) <= 0:
                raise ConfigError("log spacing requires positive axis bounds")
            return np.geomspace(lo, hi, points)
        return np.linspace(lo, hi, points)

    alphas = axis(args.alpha_min, args.alpha_max)
    betas = axis(args.beta_min, args.beta_max)
    comments = [
        _flags_comment(args),
        *_limit_comments(limits),
        f"# beta_lim_23(alpha_circ) = {fmt(_boundary_at(limits.beta_23, limits.alpha_circ))}",
        f"# beta_lim_13(alpha_circ) = {fmt(_boundary_at(limits.beta_13, limits.alpha_circ))}",
    ]
    rows = max(1, _ATLAS_CELLS // points)

    def block(start):
        return regime_qfis(alphas[start:start + rows, None], betas, r, z)

    # Every term of the closed forms is monotone or convex in alpha^2, so an
    # overflow anywhere in the grid leaves an inf or a nan in the first or the
    # last row: both are checked before anything is written.
    first = block(0)
    last = first if points <= rows else block(points - 1)
    if not (np.isfinite(first[1][:, 0]).all() and np.isfinite(last[1][:, -1]).all()):
        raise NumericalOverflow(f"the PMC QFIs overflow at r = {fmt(r)}, z = {fmt(z)} on the "
                                f"grid up to |alpha| = {fmt(alphas.max())}, |beta| = {fmt(betas.max())}")
    _write_csv(out, comments, ["alpha", "beta", "pmc", "qfi_pmc1", "qfi_pmc2", "qfi_pmc3"], [])
    # the tail of each (beta, family) cell; its three QFIs are filled in by one % per
    # row, and %.12g is fmt() of a float
    tails = np.array([[f",{fmt(b)},{family.value},%.12g,%.12g,%.12g\n" for family in REGIME_FAMILIES]
                      for b in betas], dtype=object)
    cells = np.arange(points)
    for start in range(0, points, rows):
        best, values = first if start == 0 else block(start)
        values = values.transpose(1, 2, 0).reshape(len(best), -1)
        for a, picked, row in zip(alphas[start:start + rows].tolist(), tails[cells, best].tolist(), values):
            head = fmt(a)
            out.write((head + head.join(picked)) % tuple(row.tolist()))
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


def cmd_heisenberg(args: argparse.Namespace, out: IO[str], err: IO[str]) -> int:
    family, n_tot = _pmc_family(args.pmc, "--pmc"), args.n_tot
    parts = [p for p in args.fractions.split(",") if p.strip()]
    if len(parts) != 4:
        raise ConfigError("--fractions expects f_alpha,f_beta,f_r,f_z")
    vals = [_parse_fraction(p, "fractions") for p in parts]
    if not (n_tot > 0.0 and math.isfinite(n_tot)):  # PowerFractions would blame no flag
        raise ConfigError(f"--n-tot must be positive and finite, got {n_tot}")
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
    for manifold in heisenberg_optima(family):
        comments.append("# optimum: " + json.dumps(manifold, sort_keys=True))
    _write_csv(out, comments,
               ["f_alpha", "f_beta", "f_r", "f_z", "n_tot",
                "asymptotic_qfi", "asymptotic_ratio", "exact_qfi", "exact_ratio"],
               [[*vals, n_tot, asymptotic, ratio, exact, exact_ratio]])
    err.write(f"heisenberg: {family.value} asymptotic F/N^2 = {fmt(ratio)}\n")
    return 0


_VERIFY_HEADER = ["case", "quantity", "phi", "closed", "oracle", "relerr", "pass"]
_VERIFY_LINE = "%d,%s,%.12g,%.12g,%.12g,%.12g,%d\n"  # fmt() of each cell; pass is 0 or 1
_FISHER_LINE = "%d,%s,,%.12g,%.12g,%.12g,%d\n"  # the same, with no phase


def _relerr(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def cmd_verify(args: argparse.Namespace, out: IO[str], err: IO[str]) -> int:
    from . import oracle  # only this command needs the Fock oracle; the others never load it

    samples, phases, n_max = args.samples, args.phases, args.n_max
    if n_max < 2:  # the truncation check measures the top two shells: no shell would be left
        raise ConfigError(f"verify requires --n-max >= 2, got {n_max}")
    rng = np.random.default_rng(args.seed)
    rows = []
    failures = 0
    if samples <= 0:
        err.write("verify: empty box, vacuous pass\n")
        _write_csv(out, ["# verify: empty box"], _VERIFY_HEADER, [])
        return 0

    schemes = [("mean_nd", detection.DifferenceIntensity(), "n_diff", 1e-8),
               ("mean_n4", detection.SingleModeIntensity(), "n4", 1e-8),
               ("mean_x", detection.Homodyne(), "quad", 1e-8)]

    for case in range(samples):
        port1 = GaussianPort.from_params(
            rng.uniform(0.0, args.alpha_max), rng.uniform(0.0, 2.0 * math.pi),
            rng.uniform(0.0, args.squeeze_max), rng.uniform(0.0, 2.0 * math.pi))
        port0 = GaussianPort.from_params(
            rng.uniform(0.0, args.beta_max), rng.uniform(0.0, 2.0 * math.pi),
            rng.uniform(0.0, args.squeeze_max), rng.uniform(0.0, 2.0 * math.pi))
        convention = BsConvention.SYMMETRIC if case % 2 == 0 else BsConvention.CUBE
        base = MziScenario(port1, port0, convention)
        inside = oracle.apply_first_bs(oracle.prepare(base, n_max), convention)
        phis = rng.uniform(0.0, 2.0 * math.pi, phases)

        stats = oracle.output_stats(oracle.evolve_many(inside, phis), base.port1.displacement.phase)
        checks = []  # (name, closed, oracle, tol), each value one entry per phase
        closed_means, closed_variances = detection.observable_stats(
            [scheme for _, scheme, _, _ in schemes], base, phis)
        for (name, _, obs, tol), means, variances in zip(schemes, closed_means, closed_variances):
            checks += [(name, means, stats[obs], tol),
                       (name.replace("mean", "var"), variances, stats[obs + "_sq"] - stats[obs] ** 2, 1e-6)]
        for i, phi in enumerate(phis):
            for name, closed, meas, tol in checks:
                rel = _relerr(closed[i], meas[i])
                ok = rel < tol
                failures += not ok
                rows.append(_VERIFY_LINE % (case, name, phi, closed[i], meas[i], rel, ok))

        closed_fm = fisher_matrix(base)
        oracle_fm = oracle.generator_fisher(inside)
        scale = max(closed_fm.f_ss, closed_fm.f_dd, 1.0)
        for qty, a, b in (("f_ss", closed_fm.f_ss, oracle_fm.f_ss),
                          ("f_dd", closed_fm.f_dd, oracle_fm.f_dd),
                          ("f_sd", abs(closed_fm.f_sd), abs(oracle_fm.f_sd))):
            rel = abs(a - b) / max(abs(a), abs(b), 1e-6 * scale)
            ok = rel < 1e-4
            failures += not ok
            rows.append(_FISHER_LINE % (case, qty, a, b, rel, ok))

    _write_csv(out, [_flags_comment(args)], _VERIFY_HEADER, [])
    out.writelines(rows)
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


def _build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


class _FlagTable:
    """A command's flags that take one value, read once off its subparser's own actions.

    :meth:`parse` builds the namespace of argv made only of flag-value pairs,
    as the subparser's ``parse_args`` would: each value converted by the
    flag's ``type`` and checked against its ``choices``, the last value of a
    store flag kept, the values of an append flag in a fresh list, and every
    other flag at its default, in action order, followed by the
    ``set_defaults`` entries.  (No flag here has a string default with a
    ``type``, which argparse would convert.)
    """

    def __init__(self, parser: argparse.ArgumentParser):
        actions = parser._actions  # argparse has no public view of a parser's actions
        self.flags = {option: action for action in actions if action.nargs is None
                      and isinstance(action, (argparse._StoreAction, argparse._AppendAction))
                      for option in action.option_strings}
        self.appends = {action.dest for action in actions if isinstance(action, argparse._AppendAction)}
        self.defaults = {action.dest: action.default for action in actions
                         if argparse.SUPPRESS not in (action.dest, action.default)}
        for dest, value in parser._defaults.items():
            self.defaults.setdefault(dest, value)
        self.required = {action for action in actions if action.required}

    def parse(self, tokens: list[str]) -> argparse.Namespace | None:
        """The namespace of ``tokens``, or None where argparse must parse them.

        That is any argv but exact flags each followed by a non-empty value
        that does not start with ``-``, and any value that the flag's type or
        choices refuse, or a required flag left out: argparse then words the
        error, or reads the abbreviation, ``--flag=value`` or ``--`` form.
        """
        if len(tokens) % 2:
            return None
        given, seen = {}, set()
        for flag, text in zip(tokens[::2], tokens[1::2]):
            action = self.flags.get(flag)
            if action is None or not text or text.startswith("-"):
                return None
            try:
                value = text if action.type is None else action.type(text)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
            if action.dest in self.appends:
                given.setdefault(action.dest, []).append(value)
            else:
                given[action.dest] = value
            seen.add(action)
        if not self.required <= seen:
            return None
        return argparse.Namespace(**{**self.defaults, **given})


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, _FlagTable]]:
    """The top-level parser and the flag table of each command name's subparser."""
    parser = argparse.ArgumentParser(
        prog="mzgauss",
        description="Phase-estimation performance of a Mach-Zehnder interferometer "
                    "with Gaussian input states (CSV to stdout, report to stderr; "
                    "plain text only, NO_COLOR is always honored).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, command):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-o", "--output", metavar="FILE", help="write CSV here instead of stdout")
        p.set_defaults(command=command)  # replaces the subcommand's name once it is parsed
        return p

    p = add("qfi", "Fisher matrix, QFI and Cramer-Rao bound", cmd_qfi)
    _add_config_arguments(p)

    p = add("sweep", "sensitivity curves over one axis", cmd_sweep)
    _add_config_arguments(p)
    p.add_argument("--axis", required=True, choices=("phi", "alpha", "beta", "eta"))
    p.add_argument("--start", required=True)
    p.add_argument("--stop", required=True)
    p.add_argument("--steps", required=True, type=int)

    p = add("regimes", "optimal-PMC atlas over (|alpha|, |beta|)", cmd_regimes)
    p.add_argument("--r", required=True, type=float)
    p.add_argument("--z", required=True, type=float)
    p.add_argument("--alpha-min", type=float, default=0.05)
    p.add_argument("--alpha-max", type=float, default=500.0)
    p.add_argument("--beta-min", type=float, default=0.05)
    p.add_argument("--beta-max", type=float, default=500.0)
    p.add_argument("--points", type=int, default=10)
    p.add_argument("--spacing", choices=("log", "linear"), default="log")

    p = add("heisenberg", "power-fraction scaling evaluation", cmd_heisenberg)
    p.add_argument("--pmc", required=True)
    p.add_argument("--fractions", required=True, metavar="FA,FB,FR,FZ")
    p.add_argument("--n-tot", type=float, default=1e4)

    p = add("verify", "closed forms vs truncated Fock oracle", cmd_verify)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--phases", type=int, default=5)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--n-max", type=int, default=60)
    p.add_argument("--alpha-max", type=float, default=1.2)
    p.add_argument("--beta-max", type=float, default=1.2)
    p.add_argument("--squeeze-max", type=float, default=0.6)

    return parser, {name: _FlagTable(command) for name, command in sub.choices.items()}


def _parse_args(argv) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, without argparse for flag-value argv.

    Argv that starts with a command name and goes on in exact flag-value
    pairs is read off the command's :class:`_FlagTable`; any other argv goes
    to the top-level parser, so argparse writes every error and help text.
    """
    parser, tables = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    table = tables.get(argv[0]) if argv else None
    args = None if table is None else table.parse(argv[1:])
    return parser.parse_args(argv) if args is None else args


def _open_output(path: str) -> tuple[IO[str], str | None]:
    """The ``-o`` stream, and the staging file that :func:`_close_output` moves onto ``path``.

    A regular file is written to a fresh file beside it, with the old file's
    mode or the mode ``open`` would give a new one, so that a command that
    fails leaves an existing file byte-identical; a device or a pipe is
    written directly.  A symbolic link is followed to the file it names.
    """
    target = os.path.realpath(path)
    try:
        if os.path.exists(target) and not os.path.isfile(target):
            return open(target, "w", encoding="utf-8", newline="\n"), None
        head, name = os.path.split(target)
        fd, staging = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=head)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from None
    if os.path.exists(target):
        shutil.copymode(target, staging)
    else:
        umask = os.umask(0o022)
        os.umask(umask)
        os.chmod(staging, 0o666 & ~umask)
    return os.fdopen(fd, "w", encoding="utf-8", newline="\n"), staging


def _close_output(stream: IO[str], staging: str | None, path: str, success: bool) -> None:
    stream.close()
    if staging is None:
        return
    if not success:
        os.unlink(staging)
        return
    try:
        os.replace(staging, os.path.realpath(path))
    except OSError as exc:
        os.unlink(staging)
        raise ConfigError(f"cannot write output file {path}: {exc}") from None


def main(argv=None) -> int:
    args = _parse_args(argv)
    err = sys.stderr

    try:
        for name, value in vars(args).items():  # every number flag, e.g. --r or --seed
            if isinstance(value, (int, float)):
                _non_negative(value, "--" + name.replace("_", "-"))
        if not args.output:
            return args.command(args, sys.stdout, err)
        out, staging = _open_output(args.output)
        code = None
        try:
            code = args.command(args, out, err)
        finally:
            _close_output(out, staging, args.output, code == 0)
        return code
    except ConfigError as exc:
        err.write(f"config error: {exc}\n")
        return 2
    except TruncationError as exc:
        err.write(f"truncation error: {exc}\n")
        return 4
    except MzGaussError as exc:
        err.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
