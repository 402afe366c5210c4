"""Command-line interface.

Subcommands: ``simulate``, ``fit``, ``report``, ``validate-config``.
Exit codes: 0 success, 2 usage error, 3 bad configuration or data,
4 fit non-convergence.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import pipelines
from .config import load_config, write_template
from .dataio import read_fit_json
from .errors import DfgNoiseError, FitFailureError
from .report import build_report

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NO_CONVERGENCE = 4

_SIMULATE_KINDS = ("efficiency", "telecom-spectrum", "visible-spectrum", "power-sweep")


def _seed(text: str) -> int:
    """``--seed`` value: a non-negative integer, as ``seed`` in the config."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {seed}")
    return seed


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return value


def _non_negative_float(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfgnoise",
        description="Simulation and parameter estimation for visible-to-telecom "
                    "DFG frequency converters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", metavar="PATH", default=None,
                       help="YAML run configuration (default: built-in reference device)")
        p.add_argument("--seed", type=_seed, default=None,
                       help="override the configured RNG seed")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="output directory (default: from config)")

    sim = sub.add_parser("simulate", help="generate synthetic datasets")
    sim.add_argument("what", choices=_SIMULATE_KINDS)
    add_common(sim)
    sim.add_argument("--kind", choices=pipelines.NOISE_SWEEP_KINDS, default=None,
                     help="power-sweep flavor")
    sim.add_argument("--pump-w", type=_non_negative_float, default=None,
                     help="pump power for spectra (default: sweep maximum)")
    sim.add_argument("--collection", choices=("smf", "mmf"), default="smf",
                     help="fiber collection preset for the visible spectrum")
    sim.set_defaults(func=_cmd_simulate)

    fit = sub.add_parser("fit", help="run a parameter fit on data files")
    fit.add_argument("what", choices=("efficiency", "noise"))
    add_common(fit)
    fit.add_argument("--internal", metavar="CSV", default=None,
                     help="internal efficiency sweep (fit efficiency)")
    fit.add_argument("--external", metavar="CSV", default=None,
                     help="external efficiency sweep (fit efficiency)")
    fit.add_argument("--detuned", metavar="CSV", default=None,
                     help="detuned telecom counts file (fit noise)")
    fit.add_argument("--visible", metavar="CSV", default=None,
                     help="visible counts file (fit noise)")
    fit.add_argument("--points", type=_positive_int, default=4,
                     help="points used by the linear noise fit (default 4)")
    fit.add_argument("--efficiency-fit", metavar="JSON", default=None,
                     help="efficiency fit result fixing the noise-fit shape")
    fit.set_defaults(func=_cmd_fit)

    rep = sub.add_parser("report", help="summarize device parameters and figures")
    add_common(rep)
    rep.add_argument("--efficiency-fit", metavar="JSON", default=None)
    rep.add_argument("--noise-fit", metavar="JSON", default=None)
    rep.add_argument("--bandwidth-hz", type=_positive_float, default=1e6,
                     help="bandwidth for the rescaled noise figure (default 1 MHz)")
    rep.set_defaults(func=_cmd_report)

    val = sub.add_parser("validate-config", help="check a configuration file")
    val.add_argument("--config", metavar="PATH", default=None)
    val.add_argument("--write-template", metavar="PATH", default=None,
                     help="write the commented reference configuration and exit")
    val.set_defaults(func=_cmd_validate)

    return parser


def _resolve(args):
    cfg = load_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    out_dir = Path(cfg.output_dir if args.out is None else args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return cfg, seed, out_dir


def _cmd_simulate(args) -> int:
    cfg, seed, out_dir = _resolve(args)
    if args.what == "efficiency":
        paths = pipelines.simulate_efficiency(cfg, seed, out_dir)
    elif args.what == "telecom-spectrum":
        paths = [pipelines.simulate_telecom_spectrum(cfg, seed, out_dir, pump_w=args.pump_w)]
    elif args.what == "visible-spectrum":
        paths = [pipelines.simulate_visible_spectrum(
            cfg, seed, out_dir, pump_w=args.pump_w, collection=args.collection)]
    else:
        if args.kind is None:
            print("simulate power-sweep requires --kind", file=sys.stderr)
            return EXIT_USAGE
        paths = [pipelines.simulate_power_sweep(cfg, seed, out_dir, kind=args.kind)]
    for p in paths:
        print(f"wrote {p}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    cfg, _, out_dir = _resolve(args)
    if args.what == "efficiency":
        if args.internal is None or args.external is None:
            print("fit efficiency requires --internal and --external", file=sys.stderr)
            return EXIT_USAGE
        result, path = pipelines.run_fit_efficiency(
            cfg, Path(args.internal), Path(args.external), out_dir)
    else:
        if args.detuned is None and args.visible is None:
            print("fit noise requires --detuned and/or --visible", file=sys.stderr)
            return EXIT_USAGE
        eff = read_fit_json(args.efficiency_fit) if args.efficiency_fit else None
        result, path = pipelines.run_fit_noise(
            cfg, out_dir,
            detuned_path=Path(args.detuned) if args.detuned else None,
            visible_path=Path(args.visible) if args.visible else None,
            n_points=args.points, efficiency_fit=eff)
    for name in result.names:
        print(f"{name} = {result.values[name]:.6g} +/- {result.sigmas[name]:.3g}")
    print(f"wrote {path}")
    if not result.converged:
        print(f"fit did not converge: {result.message}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_report(args) -> int:
    cfg, _, out_dir = _resolve(args)
    eff = read_fit_json(args.efficiency_fit) if args.efficiency_fit else None
    noise = read_fit_json(args.noise_fit) if args.noise_fit else None
    text = build_report(cfg, efficiency_fit=eff, noise_fit=noise,
                        mode_bandwidth_hz=args.bandwidth_hz)
    path = out_dir / "report.txt"
    path.write_text(text)
    print(text, end="")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    if args.write_template is not None:
        path = write_template(args.write_template)
        print(f"wrote {path}")
        return EXIT_OK
    cfg = load_config(args.config)
    print(f"configuration ok ({cfg.source}): schema_version={cfg.schema_version}, "
          f"{len(cfg.modes)} modes, seed={cfg.seed}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FitFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except DfgNoiseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
