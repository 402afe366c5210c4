"""dfgnoise benchmark: one workload, one closed-loop client, one process.

    python3 bench/run_bench.py --workload closure_ensemble --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  The last line of standard output is the result,
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the details (machine, sample counts, checks, import breakdown).

``--trace 0`` times the workload with unwrapped functions and reports
the end-to-end metrics.  ``--trace 1`` runs half the time untraced and
half with every public package function wrapped, and reports the
per-layer metrics plus the tracing overhead; see ``tracer.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib.util import find_spec
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import (CHAIN, WORKLOADS, CliColdChain, analyze_spectra, child_env,
                       cli_in_process, spectral_problem)

ROOT = Path(__file__).resolve().parent.parent
CHILD_TIMEOUT_S = 120
SETUP_PROBES = 3
IMPORT_PROBES = 3
PROBE = "probe"
PROBE_PASSES = 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def run_ops(wl, seconds: float, first: int, tracer=None):
    """Closed loop from op ``first`` for ``seconds``, then to the end of the
    current block.  Returns (latencies of passing ops, attempted, failed,
    wall seconds, problems)."""
    latencies, problems = [], []
    i = first
    start = perf_counter()
    deadline = start + seconds
    while i - first < wl.min_ops or perf_counter() < deadline or (i - first) % wl.block:
        wl.prepare(i)
        t0 = perf_counter()
        try:
            with tracer.op_span(i) if tracer else contextlib.nullcontext():
                out = wl.op(i)
        except Exception:  # an op that raises is a failed op; keep measuring
            problems.append(f"op {i} raised: {traceback.format_exc().strip().splitlines()[-1]}")
            traceback.print_exc(file=sys.stderr)
        else:
            dt = perf_counter() - t0
            problem = wl.check(i, out)
            if problem:
                problems.append(problem)
            else:
                latencies.append(dt)
        i += 1
    attempted = i - first
    return latencies, attempted, attempted - len(latencies), perf_counter() - start, problems


def percentile(xs: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile of sorted ``xs`` and the samples beyond it."""
    rank = max(math.ceil(p / 100 * len(xs)), 1)
    return xs[rank - 1], len(xs) - rank


def tail(xs: list[float], preferred: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) at the highest ladder percentile
    not above ``preferred`` that leaves at least ten samples beyond it."""
    for p in [p for p in TAIL_LADDER if p <= preferred]:
        value, beyond = percentile(xs, p)
        if beyond >= TAIL_MIN_BEYOND or p == TAIL_LADDER[-1]:
            return p, value, beyond
    raise ValueError(f"no ladder percentile at or below {preferred}")


def now() -> float:
    """A clock shared by all processes on the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setup_probe_seconds(args) -> float:
    """Time from spawning a fresh benchmark process until its set-up is
    done: interpreter start, import, input generation, config, warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    t0 = now()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    words = proc.stdout.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
        raise RuntimeError(f"setup probe failed (exit {proc.returncode}): {proc.stderr[-500:]}")
    return float(words[1]) - t0


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def measure(args, wl) -> tuple[dict, dict, list[str], int, int]:
    latencies, attempted, failed, wall, problems = run_ops(wl, args.seconds, 0)
    problems += wl.finish()
    rss = peak_rss_mb(children=isinstance(wl, CliColdChain))
    setups = [setup_probe_seconds(args) for _ in range(SETUP_PROBES)]
    metrics = {"setup_s": (statistics.median(setups), "s"),
               "throughput_ops_s": (len(latencies) / wall, "ops/s"),
               "peak_rss_mb": (rss, "MB")}
    details = {"setup_samples_s": setups, "samples": len(latencies), "wall_s": wall}
    if latencies:
        latencies.sort()
        p, value, beyond = tail(latencies, wl.tail_percentile)
        metrics["latency_tail_ms"] = (value * 1e3, "ms")
        # The median is reported but not gated: op latencies here fall into
        # a fast and a slow mode (the host's shared cores), and the median
        # jumps between them from run to run by more than any bound allows.
        details.update(latency_p50_ms=percentile(latencies, 50.0)[0] * 1e3,
                       tail_percentile=p, tail_samples_beyond=beyond)
    details["failed_ops_frac"] = failed / attempted
    return metrics, details, problems, attempted, failed


# ---------------------------------------------------------------- traced run

def parse_importtime(text: str) -> dict:
    """Top-level rows and per-package totals from ``-X importtime`` output."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        if not cum_us.strip().isdigit():
            continue  # the header row
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), int(cum_us)))

    # Attribute each row's cumulative time to the first package of a group
    # met on its import path, so a module the group pulls in counts once:
    # numpy imported by scipy belongs to scipy.  Rows come children first;
    # walking backwards yields each row's ancestors.
    groups = ({"dfgnoise"}, {"scipy", "numpy", "yaml"})
    outermost: dict[str, int] = {}
    ancestors: list[tuple[int, str]] = []
    for depth, name, cum in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        top = name.split(".")[0]
        for group in groups:
            if top in group and all(a not in group for _, a in ancestors):
                outermost[top] = outermost.get(top, 0) + cum
        ancestors.append((depth, top))
    top_level = sorted(((name, cum) for depth, name, cum in rows if depth == 0),
                       key=lambda r: -r[1])
    return {"outermost_us": outermost, "top_level_us": top_level}


def import_breakdown(env: dict) -> tuple[dict, dict]:
    """Median start-up and import costs of the CLI over a few cold runs."""
    samples = []
    for _ in range(IMPORT_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                       timeout=CHILD_TIMEOUT_S)
        start_ms = (perf_counter() - t0) * 1e3
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import dfgnoise.cli"],
                              env=env, capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT_S)
        parsed = parse_importtime(proc.stderr)
        totals = parsed["outermost_us"]
        samples.append({
            "cli.python_start_ms": start_ms,
            "cli.import_ms": totals.get("dfgnoise", 0) / 1e3,
            "cli.import_scipy_ms": totals.get("scipy", 0) / 1e3,
            "cli.import_numpy_yaml_ms": (totals.get("numpy", 0) + totals.get("yaml", 0)) / 1e3,
        })
    metrics = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    return metrics, {"top_level_ms": [(n, us / 1e3) for n, us in parsed["top_level_us"][:12]]}


def layer_probe(wl, tracer: Tracer) -> list[str]:
    """Run the CLI chain in-process a few times under op id ``probe``, each
    pass followed by the spectral analysis of the spectra it wrote, so every
    per-call metric has calls to measure on every workload."""
    problems = []
    tracer.op = PROBE
    for k in range(PROBE_PASSES):
        chain = wl.work / f"probe{k}"
        chain.mkdir(parents=True)
        shutil.copy(wl.config_path, chain / "run.yaml")
        for argv in CHAIN:
            code, err = cli_in_process(argv, chain)
            if code != 0:
                problems.append(f"in-process {' '.join(argv[:2])} exited {code}: {err.strip()}")
        problem = spectral_problem(analyze_spectra(chain / "out" / "telecom_spectrum.csv",
                                                   chain / "out" / "visible_spectrum_mmf.csv"))
        if problem:
            problems.append(f"probe pass {k}: {problem}")
    tracer.op = None
    return problems


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("us_per_point"):
        return "us"
    if "bytes" in name:
        return "B"
    if name.endswith(("_frac", ".share")):
        return "frac"
    return "count"


def measure_traced(args, wl) -> tuple[dict, dict, list[str], int, int]:
    half = args.seconds / 2.0
    plain, n_plain, f_plain, _, problems = run_ops(wl, half, 0)
    tracer = Tracer()
    tracer.install()
    try:
        traced, n_traced, f_traced, _, more = run_ops(wl, half, n_plain, tracer)
        more += layer_probe(wl, tracer)
    finally:
        patched = tracer.patched_names
        tracer.uninstall()
    problems += more + wl.finish()
    values = tracer.op_metrics(range(n_plain, n_plain + n_traced))
    values.update(tracer.call_metrics(PROBE, PROBE_PASSES))
    imports, import_details = import_breakdown(child_env(ROOT))
    values.update(imports)
    overhead = (statistics.median(traced) / statistics.median(plain) - 1.0
                if plain and traced else 0.0)
    values["trace.overhead_frac"] = overhead
    trace_file = tracer.dump(ROOT / ".bench_traces" / f"{args.workload}.jsonl")
    metrics = {name: (value, layer_unit(name)) for name, value in values.items()}
    details = {"untraced_ops": n_plain, "traced_ops": n_traced,
               "tracing_overhead_frac": overhead, "wrapped_names": len(patched),
               "importtime": import_details, "spans": len(tracer.spans),
               "span_file": str(trace_file.relative_to(ROOT))}
    return metrics, details, problems, n_plain + n_traced, f_plain + f_traced


# ---------------------------------------------------------------- main

def machine_info() -> dict:
    model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    versions = {}
    for dist in ("numpy", "scipy", "PyYAML"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), **versions}


def source_info() -> dict:
    """Informational, ungated: package size and declared runtime deps."""
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    deps = None
    with contextlib.suppress(ImportError, OSError, KeyError):
        import tomllib
        deps = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    return {"src_lines": src_lines, "runtime_deps": deps}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    spec = find_spec("dfgnoise")
    if spec is None or not Path(spec.origin).resolve().is_relative_to(ROOT / "src"):
        print(f"error: no dfgnoise package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    wl = WORKLOADS[args.workload](ROOT, args.seed, work)
    if isinstance(wl, CliColdChain):
        wl.in_process = bool(args.trace)  # the traced run calls cli.main in-process
    try:
        wl.setup()
        if args.setup_only:
            print("ready", repr(now()), flush=True)
            return 0
        run = measure_traced if args.trace else measure
        metrics, details, problems, attempted, failed = run(args, wl)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, problems=problems[:20], checks=wl.stats,
                   machine=machine_info(), **source_info())
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not problems and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
