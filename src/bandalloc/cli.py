"""Command-line interface: scenario ingestion, envelope/compare sweeps, simulation.

Subcommands: rates, envelope, decompose, simulate, compare. Scenario files are
JSON (see ``load_scenario``); grid sweeps emit CSV by default, single results
structured text; ``--json`` switches everything to one JSON document. User and
band numbers are 1-based on the command line.

The CLI only parses arguments and formats output. ``simulate --system ...``
takes its policy from the library (there are no raw policy flags): S from
``orthogonal.max_slack_assignment`` decomposed into a schedule, S_hat from
``randalloc.selection_for_rates``, fixed from ``fixedalloc.best_margin_mapping``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import __version__, fixedalloc, model, orthogonal, randalloc, schedule, sim
from .model import ConfigurationError, PrimaryBand, Scenario, SecondaryUser, SlotConfig

_GRID_TOL = 2e-3
_ANALYTIC_TOL = 1e-9
_MAX_GRID_POINTS = 100_000
# Memory of a run does not grow with --slots, but its time does: 0.2-0.3 us
# per slot on the reference 2x2 scenario, so 1e8 slots take up to a minute.
_MAX_SLOTS = 10**8

_SLOT_FIELDS = {"T", "tau", "b"}
_BAND_FIELDS = {
    "physical": {"bandwidth_W", "arrival_rate_lambda_p", "gamma_p", "sigma2_p"},
    "abstract": {"bandwidth_W", "availability_pi", "out_complement_p"},
}
_USER_FIELDS = {
    "physical": {"arrival_rate_lambda_s", "gamma_s", "sigma2_s"},
    "abstract": {"arrival_rate_lambda_s", "out_complement_row"},
}


def _r(value) -> str:
    """repr of a builtin float (numpy scalars normalized) for deterministic text output."""
    return repr(float(value))


class CliError(Exception):
    """Fatal command error; message goes to stderr, exit status 1."""


def _reject_unknown(doc: dict, allowed: set[str], where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise CliError(f"{where}: unknown field(s) {sorted(unknown)}")


def _number(value, name: str):
    """``value`` when it is a finite JSON number (booleans are not numbers)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return value
        except OverflowError:  # an integer beyond the float range
            pass
    raise ConfigurationError(f"{name} must be a finite number, got {json.dumps(value, default=repr)}")


def _entry(cls, doc, fields: set[str], where: str):
    """``cls`` built from one scenario entry; every error reads ``where: message``.

    The entry must be an object with no field outside ``fields``, each value a
    finite number (``out_complement_row`` a list of them, checked last).
    """
    if not isinstance(doc, dict):
        raise CliError(f"{where}: must be an object")
    _reject_unknown(doc, fields, where)
    try:
        values = {name: _number(value, name) for name, value in doc.items() if name != "out_complement_row"}
        if "out_complement_row" in doc:
            row = doc["out_complement_row"]
            if not isinstance(row, list):
                raise ConfigurationError("out_complement_row must be a list")
            values["out_complement_row"] = tuple(
                _number(p, f"out_complement_row[{i}]") for i, p in enumerate(row))
        return cls(**values)
    except (ConfigurationError, TypeError) as exc:
        raise CliError(f"{where}: {exc}") from exc


def parse_scenario_dict(doc: dict) -> Scenario:
    """Build a Scenario from a parsed document, rejecting unknown fields."""
    if not isinstance(doc, dict):
        raise CliError("scenario document must be a JSON object")
    _reject_unknown(doc, {"mode", "slot", "bands", "users"}, "scenario")
    mode = doc.get("mode")
    if mode not in ("physical", "abstract"):
        raise CliError("scenario: mode must be 'physical' or 'abstract'")
    slot_doc = doc.get("slot")
    if slot_doc is None:
        if mode == "physical":
            raise CliError("scenario: physical mode requires a slot section")
        slot = SlotConfig()
    else:
        slot = _entry(SlotConfig, slot_doc, _SLOT_FIELDS, "slot")
    bands_doc = doc.get("bands")
    users_doc = doc.get("users")
    if not isinstance(bands_doc, list) or not bands_doc:
        raise CliError("scenario: bands must be a non-empty list")
    if not isinstance(users_doc, list) or not users_doc:
        raise CliError("scenario: users must be a non-empty list")
    bands = tuple(_entry(PrimaryBand, d, _BAND_FIELDS[mode], f"bands[{j}]") for j, d in enumerate(bands_doc))
    users = tuple(_entry(SecondaryUser, d, _USER_FIELDS[mode], f"users[{k}]") for k, d in enumerate(users_doc))
    try:
        scenario = Scenario(slot=slot, bands=bands, users=users)
    except ConfigurationError as exc:
        raise CliError(f"scenario: {exc}") from exc
    if scenario.mode != mode:
        raise CliError(f"scenario: entries do not match declared mode {mode!r}")
    return scenario


def load_scenario(path: str) -> tuple[Scenario, str]:
    """Load and validate a scenario file; returns (scenario, content digest)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read scenario file: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, oversized integer, deep nesting
        raise CliError(f"{path}: invalid JSON: {exc}") from exc
    return parse_scenario_dict(doc), digest


def _parse_grid(spec: str) -> list[float]:
    try:
        start_s, stop_s, step_s = spec.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError as exc:
        raise CliError(f"--grid must look like start:stop:step, got {spec!r}") from exc
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise CliError(f"--grid values must be finite, got {spec!r}")
    if start < 0 or step <= 0 or stop < start:
        raise CliError("--grid needs start >= 0, step > 0 and stop >= start")
    span = (stop - start) / step
    if span < _MAX_GRID_POINTS:  # bounds the list below (and keeps floor() finite)
        grid = [start + i * step for i in range(int(math.floor(span + 1e-9)) + 1)]
        if grid[-1] < stop - 1e-9:
            grid.append(stop)
        if len(grid) <= _MAX_GRID_POINTS:  # the appended stop point counts too
            return grid
    raise CliError(f"--grid {spec!r} has more than {_MAX_GRID_POINTS} points")


def _parse_fixed(spec: str | None, m_s: int) -> dict[int, float]:
    """Parse --fixed '1=0.4,3=0.35' into {0-based user: rate}."""
    fixed: dict[int, float] = {}
    if not spec:
        return fixed
    for item in spec.split(","):
        try:
            user_s, rate_s = item.split("=")
            user, rate = int(user_s), float(rate_s)
        except ValueError as exc:
            raise CliError(f"--fixed entries must look like k=rate, got {item!r}") from exc
        if not 1 <= user <= m_s:
            raise CliError(f"--fixed user {user} out of range 1..{m_s}")
        if not math.isfinite(rate):
            raise CliError(f"--fixed rates must be finite, got {item!r}")
        if rate < 0:
            raise CliError("--fixed rates must be >= 0")
        if user - 1 in fixed:
            raise CliError(f"--fixed user {user} is given twice")
        fixed[user - 1] = rate
    return fixed


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write output file: {exc}") from exc
    else:
        sys.stdout.write(text)


def _provenance(digest: str, seed: int | None = None) -> dict:
    prov = {"scenario_digest": digest, "tool_version": __version__}
    if seed is not None:
        prov["seed"] = seed
    return prov


def _csv_header(prov: dict) -> str:
    return "".join(f"# {key}={value}\n" for key, value in sorted(prov.items()))


def _axis_index(args_axis: int, m_s: int) -> int:
    if not 1 <= args_axis <= m_s:
        raise CliError(f"--axis user {args_axis} out of range 1..{m_s}")
    return args_axis - 1


def _axis_and_fixed(args, m_s: int) -> tuple[int, dict[int, float]]:
    """0-based ``--axis`` user and ``--fixed`` rates; the axis user cannot also be fixed."""
    fixed = _parse_fixed(args.fixed, m_s)
    axis = _axis_index(args.axis, m_s)
    if axis in fixed:
        raise CliError("--axis user cannot also be fixed")
    return axis, fixed


def _sweep_user(axis: int, fixed: dict[int, float], m_s: int) -> int:
    for u in range(m_s):
        if u != axis and u not in fixed:
            return u
    raise CliError("no free user left to sweep; adjust --fixed")


def cmd_rates(args) -> int:
    scenario, digest = load_scenario(args.scenario)
    rates = model.rate_matrix(scenario)
    if args.json:
        doc = {
            "provenance": _provenance(digest),
            "pi": [float(v) for v in rates.pi],
            "mu_p": [float(v) for v in rates.mu_p],
            "mu": [[float(v) for v in row] for row in rates.mu],
        }
        _emit(json.dumps(doc, sort_keys=True) + "\n", args.out)
        return 0
    lines = [_csv_header(_provenance(digest)).rstrip("\n")]
    lines.append("pi: " + " ".join(_r(v) for v in rates.pi))
    lines.append("mu_p: " + " ".join(_r(v) for v in rates.mu_p))
    lines.append("mu (bands x users):")
    for j in range(rates.m_p):
        lines.append(f"band {j + 1}: " + " ".join(_r(v) for v in rates.mu[j]))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _envelope_report(rates, digest, system, axis, sweep_user, fixed, grid, mapping=None) -> dict:
    """One envelope sweep as its ``--json`` document: the axis user's maximum at each grid point.

    ``values[i]`` is None where the grid point is infeasible. ``mapping``
    restricts the fixed system to that one mapping.
    """
    others = np.zeros(rates.m_s)
    others[list(fixed)] = list(fixed.values())
    if system == "S":
        points = orthogonal.sweep_envelope(rates, axis, grid, others, sweep_user)
        values = [p.max_rate if p.feasible else None for p in points]
    elif system == "S_hat":
        values = randalloc.shat_envelope(rates.mu, axis, grid)
    else:  # fixed
        sweep = fixedalloc.sweep_envelope(rates, axis, grid, others, sweep_user, mapping)
        values = [None if best is None else best[0] for best in sweep]
    return {
        "provenance": _provenance(digest),
        "system": system,
        "axis_user": axis + 1,
        "sweep_user": sweep_user + 1,
        "fixed": {str(u + 1): r for u, r in sorted(fixed.items())},
        "grid": [float(g) for g in grid],
        "values": [None if v is None else float(v) for v in values],
    }


def cmd_envelope(args) -> int:
    scenario, digest = load_scenario(args.scenario)
    axis, fixed = _axis_and_fixed(args, scenario.m_s)
    grid = _parse_grid(args.grid)
    sweep_user = _sweep_user(axis, fixed, scenario.m_s)
    rates = model.rate_matrix(scenario)
    report = _envelope_report(rates, digest, args.system, axis, sweep_user, fixed, grid)
    if args.json:
        _emit(json.dumps(report, sort_keys=True) + "\n", args.out)
        return 0
    lines = [_csv_header(report["provenance"]) + f"lambda_s{sweep_user + 1},lambda_s{axis + 1}_max,feasible"]
    for g, v in zip(grid, report["values"]):
        lines.append(f"{_r(g)},{'' if v is None else _r(v)},{v is not None}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_decompose(args) -> int:
    scenario, digest = load_scenario(args.scenario)
    rates = model.rate_matrix(scenario)
    axis, fixed = _axis_and_fixed(args, scenario.m_s)
    lam = np.zeros(scenario.m_s)
    lam[list(fixed)] = list(fixed.values())
    point = orthogonal.envelope_point(rates, lam, axis)
    if not point.feasible:
        raise CliError("envelope LP infeasible at the requested fixed rates")
    padded, sched = schedule.schedule_from_assignment(point.omega_star)
    prov = _provenance(digest)
    if args.json:
        doc = {
            "provenance": prov,
            "axis_user": axis + 1,
            "max_rate": point.max_rate,
            "omega": [[float(v) for v in row] for row in point.omega_star.omega],
            "padded": [[float(v) for v in row] for row in padded.m],
            "schedule": sched.to_dict(),
        }
        _emit(json.dumps(doc, sort_keys=True) + "\n", args.out)
        return 0
    lines = [_csv_header(prov).rstrip("\n")]
    lines.append(f"max lambda_s{axis + 1}: {_r(point.max_rate)}")
    lines.append("omega:")
    for row in point.omega_star.omega:
        lines.append("  " + " ".join(_r(v) for v in row))
    lines.append("padded doubly stochastic matrix:")
    for row in padded.m:
        lines.append("  " + " ".join(_r(v) for v in row))
    lines.append("schedule (band per user; 0 = idle):")
    for perm, w in sched.entries:
        lines.append(f"  {','.join(str(m) for m in perm)}  weight {_r(w)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _derive_policy(system: str, rates: model.RateMatrix, lam: np.ndarray) -> sim.Policy:
    """Pick a concrete policy for the requested rates (see module docstring)."""
    if system == "S":
        _, sched = schedule.schedule_from_assignment(orthogonal.max_slack_assignment(rates, lam))
        return sim.Policy.orthogonal(sched)
    if system == "S_hat":
        return sim.Policy.random(randalloc.selection_for_rates(rates.mu, lam))
    return sim.Policy.fixed(fixedalloc.best_margin_mapping(rates, lam))


def cmd_simulate(args) -> int:
    if args.slots > _MAX_SLOTS:
        raise CliError(f"--slots {args.slots} exceeds the limit of {_MAX_SLOTS}")
    scenario, digest = load_scenario(args.scenario)
    rates = model.rate_matrix(scenario)
    fixed = _parse_fixed(args.fixed, scenario.m_s)
    lam = np.array(scenario.arrival_rates, dtype=float)
    lam[list(fixed)] = list(fixed.values())
    if np.any(lam > 1):
        raise CliError("arrival rates must lie in [0, 1] packets/slot")
    users = tuple(replace(u, arrival_rate_lambda_s=float(lam[k])) for k, u in enumerate(scenario.users))
    scenario = replace(scenario, users=users)
    policy = _derive_policy(args.system, rates, lam)
    config = sim.SimConfig(n_slots=args.slots, seed=args.seed)
    result = sim.run(scenario, policy, config)
    prov = {**_provenance(digest, seed=args.seed), "stream_version": sim.STREAM_VERSION}
    if args.json:
        doc = {"provenance": prov, "system": args.system, "policy": policy.kind,
               "rates": [float(v) for v in lam], "result": result.to_dict()}
        _emit(json.dumps(doc, sort_keys=True) + "\n", args.out)
        return 0
    lines = [_csv_header(prov).rstrip("\n")]
    lines.append(f"system: {args.system} (policy {policy.kind}), slots {args.slots}, seed {args.seed}")
    lines.append("per-user arrival rates: " + " ".join(_r(v) for v in lam))
    lines.append("secondary throughput: " + " ".join(_r(v) for v in result.secondary_throughput))
    lines.append("empirical availability: " + " ".join(_r(v) for v in result.primary_empty_fraction))
    lines.append("collisions: " + str(result.collision_count))
    lines.append("primary verdicts: " + " ".join(result.verdicts_primary))
    lines.append("secondary verdicts: " + " ".join(result.verdicts_secondary))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_compare(args) -> int:
    scenario, digest = load_scenario(args.scenario)
    if scenario.m_s != 2 or scenario.m_p != 2:
        raise CliError("compare needs a 2x2 scenario (2 bands, 2 users)")
    rates = model.rate_matrix(scenario)
    axis = _axis_index(args.axis, scenario.m_s)
    sweep = 1 - axis
    grid = _parse_grid(args.grid)

    reports = {
        system: _envelope_report(rates, digest, system, axis, sweep, {}, grid)
        for system in ("S", "S_hat", "fixed")
    }
    columns = {
        "S": reports["S"]["values"],
        "S_hat": reports["S_hat"]["values"],
        "fixed_best": reports["fixed"]["values"],
    }
    for m in ((1, 2), (2, 1)):
        columns[f"fixed_d{m[0]}{m[1]}"] = _envelope_report(
            rates, digest, "fixed", axis, sweep, {}, grid, mapping=fixedalloc.FixedMapping(m))["values"]
    flags = []
    for s_val, shat_val, fixed_val in zip(columns["S"], columns["S_hat"], columns["fixed_best"]):
        row_violations = []
        if fixed_val is not None and (shat_val is None or fixed_val > shat_val + _GRID_TOL):
            row_violations.append("fixed>S_hat")
        if shat_val is not None and (s_val is None or shat_val > s_val + _GRID_TOL):
            row_violations.append("S_hat>S")
        if fixed_val is not None and (s_val is None or fixed_val > s_val + _ANALYTIC_TOL):
            row_violations.append("fixed>S")
        flags.append(row_violations)
    violations = sum(len(row_violations) for row_violations in flags)

    prov = _provenance(digest)
    if args.json:
        doc = {
            "provenance": prov,
            "axis_user": axis + 1,
            "sweep_user": sweep + 1,
            "grid": grid,
            "systems": columns,
            "reports": reports,
            "violations": flags,
        }
        _emit(json.dumps(doc, sort_keys=True) + "\n", args.out)
    else:
        fmt = lambda v: "" if v is None else _r(v)  # noqa: E731
        lines = [_csv_header(prov) + f"lambda_s{sweep + 1}," + ",".join(columns) + ",violations"]
        for idx, value in enumerate(grid):
            cells = [_r(value)] + [fmt(column[idx]) for column in columns.values()]
            lines.append(",".join(cells + [";".join(flags[idx])]))
        _emit("\n".join(lines) + "\n", args.out)
    if violations:
        print(f"containment violated at {violations} grid point(s)", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandalloc",
        description="Stability regions of cognitive-radio band-allocation systems.",
    )
    parser.add_argument("--version", action="version", version=f"bandalloc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, system=False, axis=False, grid=False, fixed=False, sim_flags=False):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        if system:
            p.add_argument("--system", choices=["S", "S_hat", "fixed"], required=True)
        if axis:
            p.add_argument("--axis", type=int, default=2, help="maximized user (1-based)")
        if grid:
            p.add_argument("--grid", required=True, help="start:stop:step over the swept user's rate")
        if fixed:
            p.add_argument("--fixed", default=None, help="fixed rates, e.g. 1=0.4,3=0.35 (1-based)")
        if sim_flags:
            p.add_argument("--slots", type=int, default=100_000)
            p.add_argument("--seed", type=int, required=True, help="seed (randomness is never implicit)")
        p.add_argument("--json", action="store_true", help="machine-readable JSON output")
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    p = sub.add_parser("rates", help="print mu, mu_p and pi for a scenario")
    common(p)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("envelope", help="stability envelope sweep of one system")
    common(p, system=True, axis=True, grid=True, fixed=True)
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("decompose", help="optimal assignment fractions and permutation schedule")
    common(p, axis=True, fixed=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("simulate", help="slot-level Monte Carlo run")
    common(p, system=True, fixed=True, sim_flags=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="side-by-side envelopes with containment checks (2x2)")
    common(p, axis=True, grid=True)
    p.set_defaults(func=cmd_compare)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
