"""Command-line front end.

Commands: expect, conditional, simulate, verify, report.
Exit codes: 0 success, 1 check failures, 2 usage error, 3 numeric error.
A value the caller chose (a flag, a config entry, a payoff the backend cannot
take) that is invalid is a usage error; a failure in computing from valid
inputs (a division by zero in the payoff) is a numeric error.
Any other exception is a bug and propagates with its traceback.
Precedence: command-line flags > config file > built-in defaults.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from .config import RunConfig, load_config
from .gcore import UsageError, default_scenario_family
from .gheat import gnormal_expect
from .glattice import (
    CylinderFunctional,
    build_lattice,
    conditional_expect,
    ensemble_to_csv,
    extract_worst_policy,
    lattice_expect,
    sample_paths,
)
from .payoff import PayoffSyntaxError, arity, parse
from .verifier import (CHECKS, VerificationReport, reports_to_json,
                       reports_to_table, run_suite)


# The flags that override a RunConfig field: flag -> (field, add_argument keywords).
_CONFIG_FLAGS = {
    "--seed": ("seed", dict(type=int)),
    "--sigma0-sq": ("sigma_lower_sq", dict(
        type=float, metavar="SIGMA0_SQ",
        help="lower variance rate of the volatility band")),
    "--n-steps": ("n_steps", dict(type=int)),
    "--n-paths": ("n_paths", dict(type=int)),
    "--out": ("out_dir", dict(metavar="DIR", help="output directory")),
    "--nx": ("nx", dict(type=int, help="PDE grid nodes")),
    "--cfl-safety": ("cfl_safety", dict(type=float)),
    "--digits": ("digits", dict(type=int,
                                help="printing precision (significant digits)")),
}


def _add_config_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    """--config and the given flags of ``_CONFIG_FLAGS``: the ones the command
    reads, so that any other is rejected by argparse."""
    p.add_argument("--config", metavar="PATH", help="flat key=value config file")
    for flag in flags:
        field, kw = _CONFIG_FLAGS[flag]
        p.add_argument(flag, dest=field, **kw)


def _build_config(args) -> RunConfig:
    """The config file and flags over the defaults; an unreadable file or an
    invalid value in either, the volatility band included, is a usage
    error."""
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        cfg = cfg.with_overrides(**{
            field: getattr(args, field, None) for field, _ in _CONFIG_FLAGS.values()
        })
        cfg.params  # build the band now, so that it fails here
    except (OSError, ValueError) as exc:
        raise UsageError(str(exc)) from None
    return cfg


def _horizon(args, cfg: RunConfig) -> float:
    """--t, else the config's horizon; --t must be finite and positive, and
    ``expect --backend pde`` also takes 0."""
    if args.t is None:
        return cfg.horizon
    pde = getattr(args, "backend", None) == "pde"
    if not (math.isfinite(args.t) and (args.t >= 0 if pde else args.t > 0)):
        raise UsageError(f"--t must be finite and {'>= 0' if pde else 'positive'}, "
                         f"got {args.t}")
    return args.t


def _output(path: str) -> str:
    """``path`` if its directory exists, checked before any work starts."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise UsageError(f"output directory {folder!r} does not exist")
    return path


def _fmt(cfg: RunConfig, x: float) -> str:
    return f"{x:.{cfg.digits}g}"


def _parse_levels(cfg: RunConfig, times: str | None, phi):
    """Anchor levels for ``phi``: --times, or one per variable evenly spaced."""
    n_anchors = max(arity(phi), 1)
    if times is None:
        return tuple(
            round(cfg.n_steps * (i + 1) / n_anchors) for i in range(n_anchors)
        )
    parts = [p for p in times.split(",") if p.strip()]
    try:
        levels = tuple(int(p) for p in parts)
    except ValueError:
        raise UsageError(f"--times takes integer levels, got {times!r}") from None
    if any(l < 1 or l > cfg.n_steps for l in levels):
        raise UsageError(f"--times levels must lie in [1, {cfg.n_steps}], got {times!r}")
    if any(a >= b for a, b in zip(levels, levels[1:])):
        raise UsageError(f"--times levels must strictly increase, got {times!r}")
    if len(levels) < n_anchors:
        raise UsageError(f"the payoff uses x{n_anchors} but --times gives "
                         f"{len(levels)} level(s): {times!r}")
    return levels


def cmd_expect(args) -> int:
    cfg = _build_config(args)
    t = _horizon(args, cfg)
    if args.csv:
        _output(args.csv)
    phi = parse(args.phi)
    levels = _parse_levels(cfg, args.times, phi)  # checked on every backend
    values = {}
    if args.backend in ("lattice", "both"):
        lat = build_lattice(t, cfg.n_steps, cfg.params, cfg.sigma_refinement)
        X = CylinderFunctional(levels, phi, mode=args.mode)
        values["lattice"] = lattice_expect(lat, X)
    if args.backend in ("pde", "both"):
        if arity(phi) > 1:
            raise UsageError("the PDE backend handles single-variable payoffs")
        # at x1's anchor time, as the lattice reads it; exactly t at n_steps
        values["pde"] = gnormal_expect(phi, t * (levels[0] / cfg.n_steps), cfg.params,
                                       nx=cfg.nx, cfl_safety=cfg.cfl_safety)
    for k in ("lattice", "pde"):
        if k in values:
            print(f"{k}: {_fmt(cfg, values[k])}")
    if len(values) == 2:
        print(f"diff: {_fmt(cfg, values['lattice'] - values['pde'])}")
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["backend", "value"])
            for k, v in values.items():
                w.writerow([k, repr(v)])
    return 0


def cmd_conditional(args) -> int:
    cfg = _build_config(args)
    out = _output(args.csv or os.path.join(cfg.out_dir, "conditional.csv"))
    phi = parse(args.phi)
    lat = build_lattice(_horizon(args, cfg), cfg.n_steps, cfg.params,
                        cfg.sigma_refinement)
    levels = _parse_levels(cfg, args.times, phi)
    X = CylinderFunctional(levels, phi, mode=args.mode)
    if not 0 <= args.j <= X.levels[-1]:
        raise UsageError(
            f"--j {args.j} lies outside [0, {X.levels[-1]}], the functional horizon"
        )
    table = conditional_expect(lat, X, args.j)
    mask = table.valid_mask()
    pos = table.positions()
    rows = sorted(zip(pos[mask].tolist(), table.values[mask].tolist()))
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["node", "psi"])
        for x, v in rows:
            w.writerow([repr(x), repr(v)])
    print(f"wrote {len(rows)} nodes to {out}")
    if args.j == 0:
        print(f"value: {_fmt(cfg, table.value_at_origin())}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _build_config(args)
    out = _output(args.csv or os.path.join(cfg.out_dir, "paths.csv"))
    lat = build_lattice(_horizon(args, cfg), cfg.n_steps, cfg.params,
                        cfg.sigma_refinement)
    if args.policy.startswith("worst:"):
        phi = parse(args.policy[len("worst:"):])
        X = CylinderFunctional((cfg.n_steps,), phi)
        policy = extract_worst_policy(lat, X)
    else:
        family = default_scenario_family(cfg.params)
        policy = family.by_name(args.policy)
    ens = sample_paths(lat, policy, cfg.n_paths, cfg.seed)
    ensemble_to_csv(ens, out)
    print(f"wrote {ens.n_paths} paths to {out}")
    return 0


def cmd_verify(args) -> int:
    cfg = _build_config(args)
    if args.no_timing:
        cfg = cfg.with_overrides(timing=False)
    only = [c.strip() for c in args.only.split(",")] if args.only else None
    out = _output(args.report or os.path.join(cfg.out_dir, "report.json"))
    reports, failures = run_suite(cfg, only=only)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(reports_to_json(reports))
    print(reports_to_table(reports))
    print(f"\n{len(reports)} checks, {failures} unexpected outcome(s); "
          f"report written to {out}")
    return 1 if failures else 0


# The report fields the table formats, and the JSON type each must have.
_REPORT_FIELD_TYPES = {
    "id": "a string", "lhs": "a real number", "rhs": "a real number",
    "tol": "a real number", "pass": "true or false", "expected_fail": "true or false",
}


def _has_type(v, want: str) -> bool:
    if want == "a string":
        return isinstance(v, str)
    if want == "true or false":
        return isinstance(v, bool)
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _report_from_dict(i: int, d) -> VerificationReport:
    """Entry ``i`` of a JSON report.  A field the table formats must have its
    type, so that a bad one is named rather than failing the format."""
    report = VerificationReport(
        check_id=d["id"], kind=d["kind"], lhs=d["lhs"], rhs=d["rhs"],
        tol=d["tol"], passed=d["pass"], backend=d["backend"],
        seed=d.get("seed"), n_paths=d.get("n_paths"),
        wall_ms=d.get("wall_ms", 0.0),
        expected_fail=d.get("expected_fail", False),
        details=d.get("details", {}),
    )
    for key, want in _REPORT_FIELD_TYPES.items():
        if not _has_type(d.get(key, False), want):
            raise TypeError(f"entry {i} ({d['id']!r}): {key!r} must be {want}, "
                            f"got {d[key]!r}")
    return report


def cmd_report(args) -> int:
    try:
        with open(args.input, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, list):
            raise TypeError("expected a list of check reports")
        reports = [_report_from_dict(i, d) for i, d in enumerate(data)]
    # JSONDecodeError is a ValueError; an entry without a field is a KeyError
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot read report {args.input!r}: "
                         f"{type(exc).__name__}: {exc}") from None
    print(reports_to_table(reports))
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gexpect",
        description="Sublinear expectations of path functionals under "
                    "uncertain volatility",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("expect", help="compute an upper expectation")
    pe.add_argument("--phi", required=True, help="payoff expression")
    pe.add_argument("--t", type=float, default=None,
                    help="horizon (default: the config's horizon)")
    pe.add_argument("--times", default=None,
                    help="anchor levels, comma-separated; the PDE uses the first")
    pe.add_argument("--mode", choices=("increments", "levels"),
                    default="increments")
    pe.add_argument("--backend", choices=("pde", "lattice", "both"),
                    default="both")
    pe.add_argument("--csv", default=None)
    _add_config_flags(pe, "--sigma0-sq", "--n-steps", "--nx", "--cfl-safety", "--digits")
    pe.set_defaults(func=cmd_expect)

    pc = sub.add_parser("conditional", help="conditional expectation node table")
    pc.add_argument("--phi", required=True)
    pc.add_argument("--t", type=float, default=None)
    pc.add_argument("--times", default=None)
    pc.add_argument("--mode", choices=("increments", "levels"),
                    default="increments")
    pc.add_argument("--j", type=int, required=True, help="conditioning level")
    pc.add_argument("--csv", default=None)
    _add_config_flags(pc, "--sigma0-sq", "--n-steps", "--out", "--digits")
    pc.set_defaults(func=cmd_conditional)

    ps = sub.add_parser("simulate", help="sample a seeded path ensemble")
    ps.add_argument("--policy", required=True,
                    help="scenario name or worst:<payoff>")
    ps.add_argument("--t", type=float, default=None)
    ps.add_argument("--csv", default=None)
    _add_config_flags(ps, "--seed", "--sigma0-sq", "--n-steps", "--n-paths", "--out")
    ps.set_defaults(func=cmd_simulate)

    pv = sub.add_parser("verify", help="run the verification suite")
    pv.add_argument("--only", default=None, help="comma-separated check ids: "
                    + ", ".join(CHECKS))
    pv.add_argument("--report", default=None, help="JSON report path")
    pv.add_argument("--no-timing", action="store_true",
                    help="zero wall times for byte-identical reports")
    _add_config_flags(pv, "--seed", "--sigma0-sq", "--n-paths", "--out")
    pv.set_defaults(func=cmd_verify)

    pr = sub.add_parser("report", help="render a JSON report as a table")
    pr.add_argument("--input", required=True)
    pr.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PayoffSyntaxError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FloatingPointError, RuntimeError,
            ZeroDivisionError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
