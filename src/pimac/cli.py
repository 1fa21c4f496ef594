"""Command line interface.

Subcommands:
  pimac sweep    gain sweep to CSV (h12 = h31 = h, fixed h22)
  pimac point    all six quantities at one parameter point, key=value lines
  pimac validate Monte-Carlo covariance validation report

Exit codes: 0 success, 1 domain/config errors, 2 I/O errors. Each
subcommand accepts ``--config FILE`` with ``key = value`` lines mirroring
the flags; explicit flags override file values.
"""

import argparse
import sys

from .bounds import GenieParams, c_sigma_1, c_sigma_2
from .errors import PimacError
from .experiments import (
    CURVES,
    SweepConfig,
    classify_power_point,
    emit_csv,
    montecarlo_covariance_check,
    run_sweep,
)
from .model import PimacParams
from .schemes import (
    pc_tin_sum_rate,
    plain_tdma_sum_rate,
    sd_tin_sum_rate,
    tdma_tin_sum_rate,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


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


def _resolve(args, spec, config_values):
    """Merge flag values, config-file values and defaults; check required.

    Unknown config keys are reported before anything else, so a file with a
    misspelt key names that key rather than the required option it misses.
    """
    unknown = set(config_values) - set(spec)
    if unknown:
        raise _UsageError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for name, (conv, default, required) in spec.items():
        flag_value = getattr(args, name)
        if flag_value is not None:
            out[name] = flag_value
        elif name in config_values:
            try:
                out[name] = conv(config_values[name])
            except ValueError as exc:
                raise _UsageError(f"bad config value for {name}: {exc}")
        elif required:
            raise _UsageError(f"missing required option --{name.replace('_', '-')}")
        else:
            out[name] = default
    return out


def _parse_curves(text) -> tuple:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    for name in names:
        if name not in CURVES:
            raise ValueError(f"unknown curve {name!r} (choose from {', '.join(CURVES)})")
    return names


def _fmt(value) -> str:
    return "NA" if value is None else f"{float(value):.9g}"


def _cmd_sweep(args) -> int:
    config_values = _read_config_file(args.config) if args.config else {}
    spec = {
        "h_min": (float, None, True),
        "h_max": (float, None, True),
        "steps": (int, None, True),
        "h22": (float, None, True),
        "p1": (float, None, True),
        "p2": (float, None, True),
        "p3": (float, None, True),
        "curves": (_parse_curves, CURVES, False),
        "out": (str, None, True),
    }
    opts = _resolve(args, spec, config_values)
    cfg = SweepConfig(h_min=opts["h_min"], h_max=opts["h_max"],
                      steps=opts["steps"], h22=opts["h22"],
                      p1=opts["p1"], p2=opts["p2"], p3=opts["p3"],
                      which_curves=tuple(opts["curves"]), out=opts["out"])
    rows = run_sweep(cfg)
    emit_csv(rows, cfg.out)
    print(f"wrote {cfg.out} ({len(rows)} rows)")
    return 0


def _cmd_point(args) -> int:
    config_values = _read_config_file(args.config) if args.config else {}
    spec = {
        "h12": (float, None, True),
        "h22": (float, None, True),
        "h31": (float, None, True),
        "p1": (float, None, True),
        "p2": (float, None, True),
        "p3": (float, None, True),
    }
    opts = _resolve(args, spec, config_values)
    params = PimacParams(h12=opts["h12"], h22=opts["h22"], h31=opts["h31"],
                         p1_max=opts["p1"], p2_max=opts["p2"], p3_max=opts["p3"])
    budgets = (params.p1_max, params.p2_max, params.p3_max)

    sd = sd_tin_sum_rate(params).sum_rate
    td_res = tdma_tin_sum_rate(params)
    pc_res = pc_tin_sum_rate(params)
    tdma = plain_tdma_sum_rate(params).sum_rate
    ub1_res = c_sigma_1(params)
    ub2 = c_sigma_2(params) if params.h31 ** 2 <= 1.0 else None

    print(f"sd_tin={_fmt(sd)}")
    print(f"tdma_tin={_fmt(td_res.sum_rate)}")
    print(f"pc_tin={_fmt(pc_res.sum_rate)}")
    print(f"tdma={_fmt(tdma)}")
    print(f"ub1={_fmt(ub1_res.sum_rate)}")
    print(f"ub2={_fmt(ub2)}")
    print(f"alpha_opt={_fmt(td_res.arg.alpha)}")
    p_opt = pc_res.arg.as_tuple()
    for i, value in enumerate(p_opt, 1):
        print(f"p{i}_opt={_fmt(value)}")
    genie = ub1_res.arg.as_tuple()
    for name, value in zip(("rho1", "rho2", "eta1", "eta2"), genie):
        print(f"{name}={_fmt(value)}")
    print(f"regime={classify_power_point(p_opt, budgets)}")
    return 0


def _cmd_validate(args) -> int:
    config_values = _read_config_file(args.config) if args.config else {}
    spec = {
        "seed": (int, 42, False),
        "samples": (int, 1_000_000, False),
    }
    opts = _resolve(args, spec, config_values)

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


def _build_parser() -> _Parser:
    parser = _Parser(prog="pimac",
                     description="Sum-rates and sum-capacity upper bounds for "
                                 "a MAC interfering with a point-to-point link")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="gain sweep to CSV")
    sweep.add_argument("--h-min", dest="h_min", type=float)
    sweep.add_argument("--h-max", dest="h_max", type=float)
    sweep.add_argument("--steps", type=int)
    sweep.add_argument("--h22", type=float)
    sweep.add_argument("--p1", type=float)
    sweep.add_argument("--p2", type=float)
    sweep.add_argument("--p3", type=float)
    sweep.add_argument("--curves", type=_parse_curves,
                       help=f"comma-separated subset of {','.join(CURVES)}")
    sweep.add_argument("--out", type=str)
    sweep.add_argument("--config", type=str)
    sweep.set_defaults(func=_cmd_sweep)

    point = sub.add_parser("point", help="evaluate one parameter point")
    point.add_argument("--h12", type=float)
    point.add_argument("--h22", type=float)
    point.add_argument("--h31", type=float)
    point.add_argument("--p1", type=float)
    point.add_argument("--p2", type=float)
    point.add_argument("--p3", type=float)
    point.add_argument("--config", type=str)
    point.set_defaults(func=_cmd_point)

    validate = sub.add_parser("validate",
                              help="Monte-Carlo covariance validation")
    validate.add_argument("--seed", type=int)
    validate.add_argument("--samples", type=int)
    validate.add_argument("--config", type=str)
    validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, PimacError, ValueError) as exc:
        print(f"pimac: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"pimac: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
