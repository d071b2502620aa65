"""Command-line front end for the BER / PSD / PAPR scenario runner.

Flags may be combined with a flat key=value config file; file entries
override flags, and the subcommand alone sets the metric.  The runs return
their curves and this module writes every file: the CSV of ``--out`` (or
the file's ``output_path`` key) and the plot data.  Exit codes: 0 success,
2 configuration error, 3 numerical failure.
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


def parse_config_file(path) -> dict:
    """Flat key=value lines; '#' starts a comment, blank lines are skipped."""
    values = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key] = val
    return values


def _coerce(key: str, val: str):
    if key in ("ebn0_grid_db",):
        return tuple(float(v) for v in val.replace(",", " ").split())
    if key in ("active",):
        return tuple(int(v) for v in val.replace(",", " ").split())
    if key in ("frames", "seed", "qam_order", "subcarriers", "subsymbols",
               "overlap", "cp_len", "n_fft", "min_bits"):
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
    """The checked scenario of the flags and config file, and the CSV path, if any."""
    values = {"waveform": args.waveform, "channel": args.channel, "frames": args.frames,
              "seed": args.seed, "output_path": args.out}
    if args.ebn0 is not None:
        values["ebn0_grid_db"] = tuple(args.ebn0)
    if args.config:
        for key, val in parse_config_file(args.config).items():
            if key not in _KEYS:
                raise ConfigError(f"config file: unknown key {key!r}")
            try:
                values[key] = _coerce(key, val)
            except ValueError as exc:
                raise ConfigError(f"{key}: cannot parse {val!r} ({exc})") from None
    out = values.pop("output_path")
    wp = WaveformParams(**{k: values.pop(k) for k in _WP_FIELDS & values.keys()})
    config = ScenarioConfig(metric=args.metric, waveform_params=wp, **values)
    if config.waveform is None:
        raise ConfigError("waveform: required (flag --waveform or config file)")
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
        p.add_argument("--channel", choices=CHANNELS, default="awgn")
        p.add_argument("--ebn0", type=float, nargs="+", default=None,
                       help="Eb/N0 grid in dB (BER only)")
        p.add_argument("--frames", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--out", default=None, help="CSV output path")
        p.add_argument("--emit-plot-data", default=None, metavar="PATH",
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
            cols = [curve.abscissa, curve.values] + [np.asarray(c) for c in curve.extra.values()]
            header = " ".join(["abscissa", "value"] + list(curve.extra))
            np.savetxt(args.emit_plot_data, np.column_stack(cols), header=header)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EqualizationError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for x, v in zip(curve.abscissa, curve.values):
        print(f"{x:g}\t{v:.6e}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
