"""Command-line front end.

Subcommands: ks-energy, rep-energy, compare, counterexample, convergence,
oracle. Reports are canonical JSON (sorted keys, repr floats); sweep tables
and density fields go to CSV. Identical configuration and seed produce
byte-identical JSON regardless of --workers and of the BLAS thread count,
timing fields aside.

--config FILE holds a JSON object of flag values. Keys are flag names
without "--" ("K", "h-count", "ball-order"); values are parsed exactly like
the same flag on the command line (true gives a bare flag such as
--strict, false or null leaves the flag out); command-line flags win over
the file.

Exit codes: 0 success, 1 runtime error, 2 configuration error (any bad
flag, config file, domain or output location, before any numerics), 3
numerical warnings promoted to failure under --strict. Errors are one JSON
object on stderr.
"""

import argparse
import json
import os
import sys
import warnings

import numpy as np

from .config import EnergyConfig
from .errors import ConfigError, KSEnergyError, KSEnergyWarning
from .pipeline import Problem, run_compare, run_convergence, run_counterexample, run_ks, run_oracle, run_rep
from .reports import canonical_json, write_csv


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises each error as a ConfigError instead of printing usage and exiting."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _numbers(kind, count=None):
    """argparse type: comma-separated numbers of one kind, exactly `count` of them when given."""

    def parse(text):
        try:
            values = tuple(kind(v) for v in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"malformed {kind.__name__} list {text!r}") from None
        if count is not None and len(values) != count:
            raise argparse.ArgumentTypeError(f"needs {count} comma-separated entries, got {text!r}")
        return values

    return parse


def _add_common(parser):
    parser.add_argument("--config", help="JSON file of flag values; command-line flags win")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--strict", action="store_true", help="promote numerical warnings to exit 3")
    parser.add_argument("--json", dest="json_out", help="write the JSON report here")
    parser.add_argument("--csv", dest="csv_prefix", help="prefix for CSV tables")


def _add_problem(parser):
    parser.add_argument("--space", default="euclidean:2", help="euclidean:m | max_norm_plane | circle | q:Q:m")
    parser.add_argument("--map", dest="map_spec", default="identity",
                        help="identity | constant[:v,..] | linear:r;r | winding:k | qsplit | swirl:a")
    parser.add_argument("--lower", type=_numbers(float), default="0,0")
    parser.add_argument("--upper", type=_numbers(float), default="1,1")
    parser.add_argument("--resolution", type=_numbers(int), default="64", help="per axis, or one for all")


def _add_energy(parser):
    parser.add_argument("--p", type=float, default=2.0)
    parser.add_argument("--h0", type=float, default=0.05)
    parser.add_argument("--h-count", type=int, default=6)
    parser.add_argument("--sphere-order", type=int, default=None)
    parser.add_argument("--ball-order", type=_numbers(int, 2), default=None, help="radial,angular")
    parser.add_argument("--K", dest="dense_count", type=int, default=512)
    parser.add_argument("--delta", type=float, default=None, help="fd step (default: spacing/8)")
    parser.add_argument("--no-truncation-check", action="store_true")


# Each subcommand's action maps the parsed flags to (report, tables). The
# runners are looked up when an action runs, so a patched module attribute
# (say cli.run_compare) is the one called.
_ENERGY_SUBCOMMANDS = [
    ("ks-energy", "ball-average energies over the h ladder, extrapolated",
     lambda args, problem, cfg: run_ks(problem, cfg)),
    ("rep-energy", "directional representation energy",
     lambda args, problem, cfg: run_rep(problem, cfg, form=args.form)),
    ("compare", "both routes on the same map, with the density gap field",
     lambda args, problem, cfg: run_compare(problem, cfg)),
    ("counterexample", "frame sum vs sphere average on the max-norm identity",
     lambda args, problem, cfg: run_counterexample(problem, cfg)),
    ("convergence", "h / K / sphere-order / delta sweep tables",
     lambda args, problem, cfg: run_convergence(problem, cfg, sweeps=args.sweep)),
]


def build_parser():
    parser = _Parser(prog="ksenergy", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name, helptext, runner in _ENERGY_SUBCOMMANDS:
        aliases = ["frame-vs-sphere"] if name == "counterexample" else []
        p = sub.add_parser(name, help=helptext, aliases=aliases)
        _add_common(p)
        _add_problem(p)
        _add_energy(p)
        if name == "rep-energy":
            p.add_argument("--form", choices=["sphere", "ball", "both"], default="both")
        if name == "convergence":
            p.add_argument("--sweep", type=lambda text: tuple(s.strip() for s in text.split(",")),
                           default="h,K,sphere,delta")
        p.set_defaults(run=lambda args, runner=runner: runner(args, _problem(args), _energy_config(args))[:2])

    p = sub.add_parser("oracle", help="print reference constants")
    _add_common(p)
    p.add_argument("--which", choices=["maxnorm", "linear"], required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--matrix", default=None)
    p.set_defaults(run=lambda args: (run_oracle(args.which, args.p, matrix=args.matrix), {}))
    return parser


def _config_tokens(path):
    """A --config file's entries as flags: {"K": 64, "strict": true} gives ["--K=64", "--strict"]."""
    try:
        with open(path) as fh:
            entries = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    if not isinstance(entries, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    if "config" in entries:
        raise ConfigError(f"config file {path!r} names another config file")
    return [f"--{key}" if value is True else f"--{key}={value}"
            for key, value in entries.items() if value is not False and value is not None]


def parse_args(argv=None):
    """Parse the command line, reading a --config file's entries as flags typed before it."""
    argv = list(sys.argv[1:] if argv is None else argv)
    prescan = _Parser(prog="ksenergy", add_help=False)
    prescan.add_argument("--config")
    config = prescan.parse_known_args(argv[1:])[0].config
    if config:
        argv[1:1] = _config_tokens(config)
    return build_parser().parse_args(argv)


def _energy_config(args):
    return EnergyConfig(
        p=args.p,
        h0=args.h0,
        h_count=args.h_count,
        sphere_order=args.sphere_order,
        ball_order=args.ball_order,
        dense_count=args.dense_count,
        fd_step=args.delta,
        check_truncation=not args.no_truncation_check,
        seed=args.seed,
        workers=args.workers,
    )


def _problem(args):
    resolution = args.resolution * len(args.lower) if len(args.resolution) == 1 else args.resolution
    return Problem(
        space_spec=args.space,
        map_spec=args.map_spec,
        lower=args.lower,
        upper=args.upper,
        resolution=resolution,
    )


def _check_outputs(args):
    """A --json or --csv location that cannot be written is a ConfigError before any numerics."""
    for flag, path in (("--json", args.json_out), ("--csv", args.csv_prefix)):
        if not path:
            continue
        if flag == "--json" and os.path.exists(path):
            # an existing target (a file, /dev/null) is written in place
            writable = not os.path.isdir(path) and os.access(path, os.W_OK)
        else:
            # the CSV files are <prefix>_<table>.csv, created next to the prefix
            folder = os.path.dirname(path) or "."
            writable = os.path.isdir(folder) and os.access(folder, os.W_OK)
        if not writable:
            raise ConfigError(f"{flag} {path!r}: not a writable location")


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


def main(argv=None):
    try:
        args = parse_args(argv)
        _check_outputs(args)
        # a non-finite report number is a NonFiniteResultError (pipeline._report),
        # so numpy's floating-point warnings would only repeat it on stderr
        with np.errstate(all="ignore"):
            report, tables = args.run(args)
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
