"""Command-line interface.

Commands: ``simulate efficiency|telecom-spectrum|visible-spectrum|power-sweep``,
``fit efficiency|noise``, ``report`` and ``validate-config``; each takes
only the options it reads, after its name.
Exit codes: 0 success, 2 usage error, 3 bad configuration or data,
4 fit non-convergence.

:func:`run` is the program entry (``dfgnoise`` and ``python -m
dfgnoise.cli``); :func:`main` runs one command in the calling process.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from pathlib import Path

from .config import load_config, write_template
from .errors import DfgNoiseError, FitFailureError
from .params import NOISE_SWEEP_KINDS

# The numpy layers (pipelines, dataio, report) are imported by the commands
# that run them, so validate-config starts without numpy.

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NO_CONVERGENCE = 4

# the variables OpenBLAS reads for its thread count, first one wins
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _number(kind: type, test, reason: str):
    """Parser of an option's ``kind`` number, which must pass ``test`` (must
    be ``reason``); argparse names ``kind`` in the error for a non-number."""
    def parse(text: str):
        value = kind(text)
        if not test(value):
            raise argparse.ArgumentTypeError(f"must be {reason}, got {value}")
        return value
    parse.__name__ = kind.__name__
    return parse


_seed = _number(int, lambda seed: seed >= 0, "non-negative")  # as the config's seed
_positive_int = _number(int, lambda v: v >= 1, "a positive integer")
_positive_float = _number(float, lambda v: 0 < v < math.inf, "positive and finite")
_non_negative_float = _number(float, lambda v: 0 <= v < math.inf, "finite and non-negative")


def _command(commands, name: str, func, help: str, *, seed: bool = False, out: bool = True,
             **defaults) -> argparse.ArgumentParser:
    """A command taking ``--config`` and, when asked, ``--seed`` and ``--out``;
    ``func`` runs it, with ``defaults`` set on the parsed arguments."""
    p = commands.add_parser(name, help=help)
    p.add_argument("--config", metavar="PATH", default=None,
                   help="YAML run configuration (default: built-in reference device)")
    if seed:
        p.add_argument("--seed", type=_seed, default=None, help="override the configured RNG seed")
    if out:
        p.add_argument("--out", metavar="DIR", default=None,
                       help="output directory (default: from config)")
    p.set_defaults(func=func, **defaults)
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfgnoise",
        description="Simulation and parameter estimation for visible-to-telecom "
                    "DFG frequency converters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # ``write(pipelines, args, cfg, seed, out_dir)`` of a simulate command
    # returns the written paths
    sim = sub.add_parser("simulate", help="generate synthetic datasets").add_subparsers(
        dest="what", required=True)
    _command(sim, "efficiency", _cmd_simulate, "internal and external efficiency sweeps",
             seed=True, write=lambda pl, args, *run: pl.simulate_efficiency(*run))
    tele = _command(sim, "telecom-spectrum", _cmd_simulate, "telecom noise scan", seed=True,
                    write=lambda pl, args, *run: [pl.simulate_telecom_spectrum(
                        *run, pump_w=args.pump_w)])
    vis = _command(sim, "visible-spectrum", _cmd_simulate, "visible noise scan", seed=True,
                   write=lambda pl, args, *run: [pl.simulate_visible_spectrum(
                       *run, pump_w=args.pump_w, collection=args.collection)])
    for scan in (tele, vis):
        scan.add_argument("--pump-w", type=_non_negative_float, default=None,
                          help="pump power (default: sweep maximum)")
    vis.add_argument("--collection", choices=("smf", "mmf"), default="smf",
                     help="fiber collection preset (default smf)")
    sweep = _command(sim, "power-sweep", _cmd_simulate, "raw counts of one noise sweep",
                     seed=True, write=lambda pl, args, *run: [pl.simulate_power_sweep(
                         *run, kind=args.kind)])
    sweep.add_argument("--kind", choices=NOISE_SWEEP_KINDS, required=True,
                       help="power-sweep flavor")

    fit = sub.add_parser("fit", help="run a parameter fit on data files").add_subparsers(
        dest="what", required=True)
    eff = _command(fit, "efficiency", _cmd_fit_efficiency, "shared-parameter efficiency fit")
    eff.add_argument("--internal", metavar="CSV", type=Path, required=True,
                     help="internal efficiency sweep")
    eff.add_argument("--external", metavar="CSV", type=Path, required=True,
                     help="external efficiency sweep")
    noise = _command(fit, "noise", _cmd_fit_noise, "noise-coefficient fits")
    noise.set_defaults(usage_error=noise.error)
    noise.add_argument("--detuned", metavar="CSV", type=Path, default=None,
                       help="detuned telecom counts file")
    noise.add_argument("--visible", metavar="CSV", type=Path, default=None,
                       help="visible counts file")
    noise.add_argument("--points", type=_positive_int, default=4,
                       help="points used by the linear noise fit (default 4)")
    noise.add_argument("--efficiency-fit", metavar="JSON", default=None,
                       help="efficiency fit result fixing the noise-fit shape")

    rep = _command(sub, "report", _cmd_report, "summarize device parameters and figures")
    rep.add_argument("--efficiency-fit", metavar="JSON", default=None)
    rep.add_argument("--noise-fit", metavar="JSON", default=None)
    rep.add_argument("--bandwidth-hz", type=_positive_float, default=1e6,
                     help="bandwidth for the rescaled noise figure (default 1 MHz)")

    val = _command(sub, "validate-config", _cmd_validate, "check a configuration file", out=False)
    val.add_argument("--write-template", metavar="PATH", default=None,
                     help="write the commented reference configuration and exit")
    return parser


def _resolve(args):
    """The configuration and the output directory, created."""
    cfg = load_config(args.config)
    out_dir = Path(cfg.output_dir if args.out is None else args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return cfg, out_dir


def _cmd_simulate(args) -> int:
    from . import pipelines

    cfg, out_dir = _resolve(args)
    seed = cfg.seed if args.seed is None else args.seed
    for p in args.write(pipelines, args, cfg, seed, out_dir):
        print(f"wrote {p}")
    return EXIT_OK


def _fit_outcome(result, path) -> int:
    for name in result.names:
        print(f"{name} = {result.values[name]:.6g} +/- {result.sigmas[name]:.3g}")
    print(f"wrote {path}")
    if not result.converged:
        print(f"fit did not converge: {result.message}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_fit_efficiency(args) -> int:
    from . import pipelines

    cfg, out_dir = _resolve(args)
    return _fit_outcome(*pipelines.run_fit_efficiency(cfg, args.internal, args.external, out_dir))


def _cmd_fit_noise(args) -> int:
    if args.detuned is None and args.visible is None:
        args.usage_error("one of the arguments --detuned --visible is required")
    from . import pipelines
    from .dataio import read_fit_json

    cfg, out_dir = _resolve(args)
    eff = read_fit_json(args.efficiency_fit) if args.efficiency_fit else None
    return _fit_outcome(*pipelines.run_fit_noise(
        cfg, out_dir, detuned_path=args.detuned, visible_path=args.visible,
        n_points=args.points, efficiency_fit=eff))


def _cmd_report(args) -> int:
    from .dataio import read_fit_json
    from .report import build_report

    cfg, out_dir = _resolve(args)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    # argparse would take the value of an option put before a subcommand
    # for the subcommand's name
    if (len(argv) > 1 and argv[0] in ("simulate", "fit") and argv[1].startswith("-")
            and argv[1] not in ("-h", "--help")):
        parser.error(f"option {argv[1].split('=')[0]} is misplaced: "
                     f"options follow '{argv[0]} <what>'")
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FitFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (DfgNoiseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    """Run the command of ``sys.argv`` as a program, then end the process.

    numpy's OpenBLAS gets one thread, unless one of ``BLAS_THREAD_VARS``
    is set: the fits solve at most 3x3 systems, and a thread per core
    costs more to start than it saves.  The process ends with
    ``os._exit``, skipping the interpreter's teardown of numpy and every
    module; every file is closed by then, as ``Path.write_text`` does,
    and stdout and stderr are flushed here.  A failed flush, such as
    stdout on a full disk, is one ``error:`` line and exit 3.
    """
    if not any(name in os.environ for name in BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        code = main()
    except SystemExit as exc:  # argparse's usage error or --help
        code = exc.code or EXIT_OK
    except OSError:  # stderr failed, so main could not write its error line
        code = EXIT_DATA
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except OSError as exc:
            code = EXIT_DATA
            with contextlib.suppress(OSError):  # stderr itself may have failed
                print(f"error: {exc}", file=sys.stderr, flush=True)
    os._exit(code)


if __name__ == "__main__":
    run()
