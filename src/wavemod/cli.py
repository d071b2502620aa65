"""Command-line front end for the BER / PSD / PAPR scenario runner.

Flags may be combined with a flat key=value config file, which may name
each key once; file entries override flags, and the subcommand alone sets
the metric.  A setting that neither gives keeps its ``ScenarioConfig`` (or
``WaveformParams``) default, and the file's integer keys are the fields
annotated ``int``.  The runs return their curves and this module writes
every file: the CSV of ``--out`` (or the file's ``output_path`` key) and the
plot data, both with the curve's ``MetricCurve.columns``.  Exit codes: 0
success, 2 configuration error, 3 a channel bin that zero forcing cannot
invert (``EqualizationError``).
"""

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .channel import EqualizationError
from .sim import (
    CHANNELS,
    METRICS,
    WAVEFORMS,
    ConfigError,
    ScenarioConfig,
    WaveformParams,
    run_scenario,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_WP_FIELDS = {f.name for f in fields(WaveformParams)}
_SC_FIELDS = {f.name for f in fields(ScenarioConfig)} - {"waveform_params", "metric"}
_KEYS = _SC_FIELDS | _WP_FIELDS | {"output_path"}  # output_path is the CLI's own: --out
_INTS = {f.name for f in fields(ScenarioConfig) + fields(WaveformParams) if f.type is int}


def parse_config_file(path) -> dict:
    """Flat key=value lines, each key once; '#' starts a comment, blank lines are skipped."""
    values = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in values:
                raise ConfigError(f"{path}:{lineno}: {key} is set a second time")
            values[key] = val
    return values


def _coerce(key: str, val: str):
    if key == "ebn0_grid_db":
        return tuple(float(v) for v in val.replace(",", " ").split())
    if key == "active":
        return tuple(int(v) for v in val.replace(",", " ").split())
    if key in _INTS:
        return int(val)
    if key == "error_target":
        return None if val.lower() in ("none", "off") else int(val)
    if key == "tvfs_corrected":
        flag = val.lower()
        if flag not in ("1", "true", "yes", "0", "false", "no"):
            raise ValueError("expected 1/true/yes or 0/false/no")
        return flag in ("1", "true", "yes")
    return val


def build_config(args) -> tuple[ScenarioConfig, str | None]:
    """The checked scenario of the flags and config file, and the CSV path, if any.

    Only the flags given enter it, so what neither sets keeps the dataclass default.
    """
    ebn0 = None if args.ebn0 is None else tuple(args.ebn0)
    flags = {"waveform": args.waveform, "channel": args.channel, "frames": args.frames,
             "seed": args.seed, "ebn0_grid_db": ebn0, "output_path": args.out}
    values = {key: val for key, val in flags.items() if val is not None}
    if args.config:
        for key, val in parse_config_file(args.config).items():
            if key not in _KEYS:
                raise ConfigError(f"config file: unknown key {key!r}")
            try:
                values[key] = _coerce(key, val)
            except ValueError as exc:
                raise ConfigError(f"{key}: cannot parse {val!r} ({exc})") from None
    if "waveform" not in values:
        raise ConfigError("waveform: required (flag --waveform or config file)")
    out = values.pop("output_path", None)
    wp = WaveformParams(**{k: values.pop(k) for k in _WP_FIELDS & values.keys()})
    config = ScenarioConfig(metric=args.metric, waveform_params=wp, **values)
    config.validate()
    for key, path in (("output_path", out), ("emit-plot-data", args.emit_plot_data)):
        if path and not Path(path).absolute().parent.is_dir():
            raise ConfigError(f"{key}: the directory of {path!r} does not exist")
        if path and Path(path).is_dir():
            raise ConfigError(f"{key}: {path!r} is a directory, not a file")
    return config, out


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavemod",
        description="Multicarrier waveform Monte Carlo simulations",
    )
    sub = parser.add_subparsers(dest="metric", required=True)
    for metric in METRICS:
        p = sub.add_parser(metric, help=f"run a {metric.upper()} scenario")
        p.add_argument("--waveform", choices=WAVEFORMS)
        p.add_argument("--channel", choices=CHANNELS)
        p.add_argument("--ebn0", type=float, nargs="+", help="Eb/N0 grid in dB (BER only)")
        p.add_argument("--frames", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--out", help="CSV output path")
        p.add_argument("--emit-plot-data", metavar="PATH",
                       help="also write gnuplot-ready whitespace columns")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    # An unreadable config file or an output path that cannot be written
    # (an OSError, which names the path) is a configuration mistake too.
    try:
        config, out = build_config(args)
        curve = run_scenario(config)
        if out:
            curve.write_csv(out)
        if args.emit_plot_data:
            cols = curve.columns()
            np.savetxt(args.emit_plot_data, np.column_stack(list(cols.values())), header=" ".join(cols))
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EqualizationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for x, v in zip(curve.abscissa, curve.values):
        print(f"{x:g}\t{v:.6e}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
