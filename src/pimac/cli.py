"""Command line interface.

Subcommands:
  pimac sweep    gain sweep to CSV (h12 = h31 = h, fixed h22)
  pimac point    every curve at one parameter point, key=value lines
  pimac validate Monte-Carlo covariance validation report

Exit codes: 0 success, 1 domain/config errors, 2 I/O errors. Each option is
declared once, in ``_COMMANDS``: its flag is ``--name`` (with ``-`` for
``_``) and its config-file key is the name. Each subcommand also accepts
``--config FILE`` with ``key = value`` lines; explicit flags override file
values.
"""

import argparse
import sys

from .bounds import GenieParams
from .errors import PimacError
from .experiments import (
    CSV_COLUMNS,
    CURVES,
    SweepConfig,
    _evaluate_rows,
    _row_cells,
    emit_csv,
    montecarlo_covariance_check,
    run_sweep,
)
from .model import PimacParams


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def _parse_optional(self, arg_string):
        # A token that reads as a number is a value, whatever its sign or
        # notation: argparse takes "-1e-3" or "-inf" for an option.
        try:
            float(arg_string)
            return None
        except ValueError:
            return super()._parse_optional(arg_string)


def _read_config_file(path) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            values[key.strip().lower().replace("-", "_")] = value.strip()
    return values


def _parse_curves(text) -> tuple:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _cmd_sweep(opts) -> int:
    cfg = SweepConfig(h_min=opts["h_min"], h_max=opts["h_max"],
                      steps=opts["steps"], h22=opts["h22"],
                      p1=opts["p1"], p2=opts["p2"], p3=opts["p3"],
                      which_curves=opts["curves"])
    rows = run_sweep(cfg)
    emit_csv(rows, opts["out"])
    print(f"wrote {opts['out']} ({len(rows)} rows)")
    return 0


def _cmd_point(opts) -> int:
    params = PimacParams(h12=opts["h12"], h22=opts["h22"], h31=opts["h31"],
                         p1_max=opts["p1"], p2_max=opts["p2"], p3_max=opts["p3"])
    cells = _row_cells(_evaluate_rows([params], CURVES)[0])
    for name, cell in zip(CSV_COLUMNS[1:], cells[1:]):
        print(f"{name}={cell}")
    return 0


def _cmd_validate(opts) -> int:
    params = PimacParams(h12=0.5, h22=0.2, h31=0.5,
                         p1_max=10.0, p2_max=10.0, p3_max=10.0)
    genie = GenieParams(rho1=0.0, rho2=0.0, eta1=1.0, eta2=1.0)
    report = montecarlo_covariance_check(params, genie,
                                         n_samples=opts["samples"],
                                         seed=opts["seed"])
    print(f"generator={report.generator}")
    print(f"seed={report.seed}")
    print(f"samples={report.n_samples}")
    for entry in report.entries:
        print(f"{entry.name}: analytic={entry.analytic:.9g} "
              f"sampled={entry.sampled:.9g} gap={entry.gap:.3g}")
    print(f"max_gap={report.max_gap:.3g}")
    print(f"sample_min_eigenvalue={report.sample_min_eigenvalue:.3g}")
    return 0


# Subcommand -> (help, handler, options). An option maps its name to
# (type, default) or (type, default, help); a default of None means required.
_COMMANDS = {
    "sweep": ("gain sweep to CSV", _cmd_sweep, {
        "h_min": (float, None),
        "h_max": (float, None),
        "steps": (int, None),
        "h22": (float, None),
        "p1": (float, None),
        "p2": (float, None),
        "p3": (float, None),
        "curves": (_parse_curves, CURVES,
                   f"comma-separated subset of {','.join(CURVES)}"),
        "out": (str, None),
    }),
    "point": ("evaluate one parameter point", _cmd_point, {
        "h12": (float, None),
        "h22": (float, None),
        "h31": (float, None),
        "p1": (float, None),
        "p2": (float, None),
        "p3": (float, None),
    }),
    "validate": ("Monte-Carlo covariance validation", _cmd_validate, {
        "seed": (int, 42),
        "samples": (int, 1_000_000),
    }),
}


def _options(args) -> dict:
    """Merge flag values, config-file values and defaults; check required.

    Unknown config keys are reported before anything else, so a file with a
    misspelt key names that key rather than the required option it misses.
    """
    options = _COMMANDS[args.command][2]
    config_values = _read_config_file(args.config) if args.config else {}
    unknown = set(config_values) - set(options)
    if unknown:
        raise _UsageError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for name, (conv, default, *_) in options.items():
        value = getattr(args, name)
        if value is None and name in config_values:
            try:
                value = conv(config_values[name])
            except ValueError as exc:
                raise _UsageError(f"bad config value for {name}: {exc}")
        if value is None:
            if default is None:
                raise _UsageError(f"missing required option --{name.replace('_', '-')}")
            value = default
        out[name] = value
    return out


def _build_parser() -> _Parser:
    parser = _Parser(prog="pimac",
                     description="Sum-rates and sum-capacity upper bounds for "
                                 "a MAC interfering with a point-to-point link")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, options) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text)
        for name, (conv, _, *flag_help) in options.items():
            cmd.add_argument("--" + name.replace("_", "-"), type=conv,
                             help=flag_help[0] if flag_help else None)
        cmd.add_argument("--config", type=str)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _, handler, _ = _COMMANDS[args.command]
        return handler(_options(args))
    except (_UsageError, PimacError, ValueError) as exc:
        print(f"pimac: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"pimac: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
