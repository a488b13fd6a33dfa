"""Command-line front end.

Subcommands: ks-energy, rep-energy, compare, counterexample, convergence,
oracle. Reports are canonical JSON (sorted keys, repr floats); sweep tables
and density fields go to CSV. Identical configuration and seed produce
byte-identical JSON regardless of --workers, timing fields aside.

Exit codes: 0 success, 1 runtime error, 2 configuration error, 3 numerical
warnings promoted to failure under --strict.
"""

import argparse
import json
import sys
import warnings

import numpy as np

from .config import EnergyConfig
from .errors import ConfigError, KSEnergyError, KSEnergyWarning
from .pipeline import Problem, run_compare, run_convergence, run_counterexample, run_ks, run_oracle, run_rep
from .reports import canonical_json, write_csv


def _add_common(parser):
    parser.add_argument("--config", help="JSON file with defaults for any flag")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--strict", action="store_true", help="promote numerical warnings to exit 3")
    parser.add_argument("--json", dest="json_out", help="write the JSON report here")
    parser.add_argument("--csv", dest="csv_prefix", help="prefix for CSV tables")


def _add_problem(parser):
    parser.add_argument("--space", default="euclidean:2", help="euclidean:m | max_norm_plane | circle | q:Q:m")
    parser.add_argument("--map", dest="map_spec", default="identity",
                        help="identity | constant[:v,..] | linear:r;r | winding:k | qsplit | swirl:a")
    parser.add_argument("--lower", default="0,0")
    parser.add_argument("--upper", default="1,1")
    parser.add_argument("--resolution", default="64")


def _add_energy(parser):
    parser.add_argument("--p", type=float, default=2.0)
    parser.add_argument("--h0", type=float, default=0.05)
    parser.add_argument("--h-count", type=int, default=6)
    parser.add_argument("--sphere-order", type=int, default=None)
    parser.add_argument("--ball-order", default=None, help="radial,angular")
    parser.add_argument("--K", dest="dense_count", type=int, default=512)
    parser.add_argument("--delta", type=float, default=None, help="fd step (default: spacing/8)")
    parser.add_argument("--no-truncation-check", action="store_true")


def build_parser():
    parser = argparse.ArgumentParser(prog="ksenergy", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name, helptext in [
        ("ks-energy", "ball-average energies over the h ladder, extrapolated"),
        ("rep-energy", "directional representation energy"),
        ("compare", "both routes on the same map, with the density gap field"),
        ("counterexample", "frame sum vs sphere average on the max-norm identity"),
        ("convergence", "h / K / sphere-order / delta sweep tables"),
    ]:
        aliases = ["frame-vs-sphere"] if name == "counterexample" else []
        p = sub.add_parser(name, help=helptext, aliases=aliases)
        _add_common(p)
        _add_problem(p)
        _add_energy(p)
        if name == "rep-energy":
            p.add_argument("--form", choices=["sphere", "ball", "both"], default="both")
        if name == "convergence":
            p.add_argument("--sweep", default="h,K,sphere,delta")

    p = sub.add_parser("oracle", help="print reference constants")
    _add_common(p)
    p.add_argument("--which", choices=["maxnorm", "linear"], required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--matrix", default=None)
    p.add_argument("--nodes", type=int, default=None)
    return parser


def _numbers(text, kind, flag):
    """Comma-separated numbers of one kind; malformed text is a ConfigError."""
    try:
        return tuple(kind(v) for v in str(text).split(","))
    except ValueError as exc:
        raise ConfigError(f"malformed {flag} {text!r}") from exc


def _resolution(text, dim):
    parts = _numbers(text, int, "--resolution")
    return parts if len(parts) > 1 else parts * dim


_CONFIG_ALIASES = {"K": "dense_count", "map": "map_spec", "json": "json_out", "csv": "csv_prefix"}


def _apply_config_file(args):
    """File values fill flags the user left at their parser defaults."""
    if not getattr(args, "config", None):
        return args
    try:
        with open(args.config) as fh:
            defaults = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from exc
    if not isinstance(defaults, dict):
        raise ConfigError(f"config file {args.config!r} must hold a JSON object")
    parser_defaults = vars(build_parser().parse_args([args.subcommand] + _required_stub(args)))
    for key, value in defaults.items():
        attr = _CONFIG_ALIASES.get(key, key.replace("-", "_"))
        if not hasattr(args, attr):
            raise ConfigError(f"unknown config key {key!r}")
        if getattr(args, attr) == parser_defaults.get(attr):
            setattr(args, attr, value)
    return args


def _required_stub(args):
    if args.subcommand == "oracle":
        return ["--which", args.which]
    return []


def _energy_config(args):
    ball_order = None
    if args.ball_order:
        ball_order = _numbers(args.ball_order, int, "--ball-order")
        if len(ball_order) != 2:
            raise ConfigError(f"--ball-order takes radial,angular, got {args.ball_order!r}")
    return EnergyConfig(
        p=args.p,
        h0=args.h0,
        h_count=args.h_count,
        sphere_order=args.sphere_order,
        ball_order=ball_order,
        dense_count=args.dense_count,
        fd_step=args.delta,
        check_truncation=not args.no_truncation_check,
        seed=args.seed,
        workers=args.workers,
    )


def _problem(args):
    lower = _numbers(args.lower, float, "--lower")
    upper = _numbers(args.upper, float, "--upper")
    return Problem(
        space_spec=args.space,
        map_spec=args.map_spec,
        lower=lower,
        upper=upper,
        resolution=_resolution(args.resolution, len(lower)),
    )


def _emit(args, report, tables):
    text = canonical_json(report)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.csv_prefix:
        for name, table in tables.items():
            write_csv(f"{args.csv_prefix}_{name}.csv", table[0], table[1:])


def _run(args):
    """Run the parsed subcommand; returns (report, tables)."""
    if args.subcommand == "oracle":
        return run_oracle(args.which, args.p, matrix=args.matrix, nodes=args.nodes), {}
    problem = _problem(args)
    cfg = _energy_config(args)
    if args.subcommand == "ks-energy":
        report, tables, _ = run_ks(problem, cfg)
    elif args.subcommand == "rep-energy":
        report, tables, _ = run_rep(problem, cfg, form=args.form)
    elif args.subcommand == "compare":
        report, tables, _ = run_compare(problem, cfg)
    elif args.subcommand in ("counterexample", "frame-vs-sphere"):
        report, tables, _ = run_counterexample(problem, cfg)
    elif args.subcommand == "convergence":
        sweeps = tuple(s.strip() for s in args.sweep.split(","))
        report, tables, _ = run_convergence(problem, cfg, sweeps=sweeps)
    else:  # pragma: no cover
        raise ConfigError(f"unknown subcommand {args.subcommand}")
    return report, tables


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config_file(args)
        # a non-finite report number is a NonFiniteResultError (pipeline._report),
        # so numpy's floating-point warnings would only repeat it on stderr
        with np.errstate(all="ignore"):
            report, tables = _run(args)
    except ConfigError as exc:
        sys.stderr.write(canonical_json({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 2
    except KSEnergyError as exc:
        sys.stderr.write(canonical_json({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 1

    _emit(args, report, tables)
    if args.strict and report.get("warnings"):
        sys.stderr.write(canonical_json({"error": {"type": "StrictWarnings", "message": ", ".join(report["warnings"])}}))
        return 3
    return 0


def console_main():
    """Command-line entry point: `main` with the package's warnings kept off stderr.

    Every such warning is also a coded entry in the report's `warnings`
    list, which is the contract (--strict reads it); in-process callers of
    `main` still see the Python warnings.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KSEnergyWarning)
        return main()


if __name__ == "__main__":
    sys.exit(console_main())
