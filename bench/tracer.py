"""Span tracer that wraps the package's public functions from outside.

:meth:`Tracer.install` replaces every public function of each layer
module (the plain functions a module defines and exports) by a timing
wrapper, in every ``dfgnoise`` namespace that binds it.  Modules look up
functions they imported with ``from ... import`` in their own globals
(``pipelines.fit_efficiency_shared``, ``spectra.lsq_minimize``), so
patching only the defining module would miss those calls.
:meth:`Tracer.uninstall` puts every original back.  No file of the
package changes.

Each call of a wrapped function records a span: name, layer, start,
end, parent span and op id.  Spans stay in memory until the run ends.
A span's self time is its duration minus the time its child spans
cover.  The converter closed forms and the per-point counting functions
are cheap and called often (thousands of times per dense sweep), so they
get a call counter and a time accumulator instead of spans; their time
still counts as child time of the calling span and as their layer's.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
from pathlib import Path
from time import perf_counter_ns

PACKAGE = "dfgnoise"
LAYERS = ("cli", "config", "converter", "spectra", "counting", "fitting",
          "dataio", "pipelines", "report")
# functions counted and timed without spans: whole layers, or single names
COUNTED = frozenset({"converter", "counting.derive_seed", "counting.simulate_counts",
                     "counting.chain_transmission", "counting.normalize_to_waveguide",
                     "counting.visible_band_fraction_correction"})
# layers whose self time per op is reported as busy time (pipelines as
# pipelines.self_ms); every layer's self time is also reported as a share
BUSY_LAYERS = ("converter", "spectra", "counting", "fitting", "dataio")

# columns of a span row
NAME, LAYER, START, END, PARENT, OP, CHILD, INFO = range(8)

# spectra._filter_kernel truncates the kernel at +/- this many FWHM
_KERNEL_CUTOFF_FWHM = 5.0
_SIDECAR_WRITERS = {"dataio.write_scan_csv", "dataio.write_sweep_csv",
                    "dataio.write_counts_csv"}


def _file_size(path) -> int:
    try:
        return Path(path).stat().st_size
    except (OSError, TypeError):
        return 0


def _sidecar(path) -> Path:
    return Path(path).with_suffix(".meta.json")


class Tracer:
    """Records spans of the package's public functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self.counted: dict = {}  # (op id, name) -> [outermost calls, ns]
        self._stack: list[int] = []
        self._counted_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap every public function of every layer module."""
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        namespaces = [importlib.import_module(PACKAGE)] + modules
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            names = getattr(module, "__all__", None) or [
                n for n in vars(module) if not n.startswith("_")]
            for attr in names:
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(fn, layer))
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patches.append((namespace, attr, value))
                    setattr(namespace, attr, wrappers[id(value)][1])

    def uninstall(self) -> None:
        """Restore every wrapped name to its original function."""
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    @property
    def patched_names(self) -> list[str]:
        return [f"{ns.__name__}.{attr}" for ns, attr, _ in self._patches]

    @contextlib.contextmanager
    def op_span(self, op_id):
        """Root span of one op; spans opened inside carry its id."""
        self.op = op_id
        row = self._open("bench.op", "bench")
        try:
            yield
        finally:
            self._close(row)
            self.op = None

    def _open(self, name, layer) -> list:
        stack = self._stack
        row = [name, layer, 0, 0, stack[-1] if stack else -1, self.op, 0, None]
        stack.append(len(self.spans))
        self.spans.append(row)
        row[START] = perf_counter_ns()
        return row

    def _close(self, row) -> None:
        row[END] = end = perf_counter_ns()
        stack = self._stack
        stack.pop()
        if stack:
            self.spans[stack[-1]][CHILD] += end - row[START]

    def _wrap(self, fn, layer):
        name = f"{layer}.{fn.__name__}"
        if layer in COUNTED or name in COUNTED:
            return self._wrap_counted(fn, name)
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        if after is None and name.startswith("dataio.write_"):
            after = _after_write
        elif after is None and name.startswith("dataio.read_"):
            after = _after_read

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = self._open(name, layer)
            try:
                if before is not None:
                    args, kwargs = before(row, args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                self._close(row)
            if after is not None:
                after(row, args, kwargs, result)
            elif layer == "fitting" and hasattr(result, "converged"):
                _info(row)["converged"] = bool(result.converged)
            return result

        traced.bench_traced = True
        return traced

    def _wrap_counted(self, fn, name):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._counted_depth:
                return fn(*args, **kwargs)
            self._counted_depth = 1
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                self._counted_depth = 0
                acc = self.counted.setdefault((self.op, name), [0, 0])
                acc[0] += 1
                acc[1] += dt
                if self._stack:
                    self.spans[self._stack[-1]][CHILD] += dt

        counted.bench_traced = True
        return counted

    # ------------------------------------------------------------ output

    def dump(self, path: Path) -> Path:
        """Write the spans as JSON lines ``[name, layer, start_ns, end_ns,
        parent index, op id]``, then one ``{"counted", "op", "calls", "ns"}``
        line per counted function and op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for row in self.spans:
                fh.write(json.dumps(row[:CHILD]) + "\n")
            for (op, name), (calls, ns) in self.counted.items():
                fh.write(json.dumps({"counted": name, "op": op, "calls": calls, "ns": ns}) + "\n")
        return path

    def op_metrics(self, op_ids) -> dict:
        """Layer work per op: self time, counts and shares, over the spans
        of the given ops."""
        ops = set(op_ids)
        n = max(len(ops), 1)
        spans = [r for r in self.spans if r[OP] in ops]
        self_ns: dict[str, int] = {}
        for r in spans:
            self_ns[r[LAYER]] = self_ns.get(r[LAYER], 0) + (r[END] - r[START] - r[CHILD])
        converter_calls = 0
        for (op, name), (calls, ns) in self.counted.items():
            if op in ops:
                layer = name.split(".")[0]
                self_ns[layer] = self_ns.get(layer, 0) + ns
                converter_calls += calls if layer == "converter" else 0
        op_ns = sum(r[END] - r[START] for r in spans if r[NAME] == "bench.op")

        def info_sum(key, rows=spans):
            return sum((r[INFO] or {}).get(key, 0) for r in rows)

        fits = [r for r in spans if "converged" in (r[INFO] or {})
                and self._outermost(r, "fitting") is r]
        lsq = [r for r in spans if r[NAME] == "fitting.lsq_minimize"]
        # each outermost fitting call that ran LM keeps exactly one LM result
        kept = {id(self._outermost(r, "fitting")) for r in lsq}
        m = {
            "converter.calls": converter_calls / n,
            "spectra.grid_points": info_sum("grid_points") / n,
            "spectra.convolve_bytes_computed": info_sum("convolve_bytes") / n,
            "counting.points": info_sum("points") / n,
            "fitting.lsq_calls": len(lsq) / n,
            "fitting.lsq_iterations": info_sum("iterations", lsq) / n,
            "fitting.residual_evals": info_sum("residual_evals", lsq) / n,
            "fitting.jacobian_evals": info_sum("jacobian_evals", lsq) / n,
            "fitting.converged_frac": (sum(r[INFO]["converged"] for r in fits) / len(fits)
                                       if fits else 0.0),
            "fitting.restart_kept_frac": len(kept) / len(lsq) if lsq else 1.0,
            "dataio.files_written": info_sum("files_written") / n,
            "dataio.bytes_written": info_sum("bytes_written") / n,
            "dataio.bytes_read": info_sum("bytes_read") / n,
            "pipelines.self_ms": self_ns.get("pipelines", 0) / 1e6 / n,
        }
        for layer in BUSY_LAYERS:
            m[f"{layer}.busy_ms"] = self_ns.get(layer, 0) / 1e6 / n
        for layer in LAYERS:
            m[f"{layer}.share"] = self_ns.get(layer, 0) / op_ns if op_ns else 0.0
        return m

    def call_metrics(self, probe_op, passes: int) -> dict:
        """Cost per call of named functions, over every span of the run
        (ops and the layer probe, which calls each of them)."""
        totals: dict[str, list[int]] = {}
        for r in self.spans:
            t = totals.setdefault(r[NAME], [0, 0])
            t[0] += 1
            t[1] += r[END] - r[START]
        for (_, name), (calls, ns) in self.counted.items():
            t = totals.setdefault(name, [0, 0])
            t[0] += calls
            t[1] += ns

        def per_call_ms(*names):
            calls = sum(totals.get(k, (0, 0))[0] for k in names)
            return sum(totals.get(k, (0, 0))[1] for k in names) / 1e6 / calls if calls else 0.0

        def prefixed(prefix):
            return [k for k in totals if k.startswith(prefix)]

        # a point's cost is its share of the counting.simulate_sweep call
        sweeps = [r for r in self.spans if (r[INFO] or {}).get("points")]
        points = sum(r[INFO]["points"] for r in sweeps)
        sweep_ns = sum(r[END] - r[START] for r in sweeps)
        probe_loads = sum(1 for r in self.spans
                          if r[OP] == probe_op and r[NAME] == "config.load_config")
        return {
            "cli.main_ms": per_call_ms("cli.main"),
            "config.load_ms": per_call_ms("config.load_config"),
            "config.calls": probe_loads / passes,
            "spectra.synth_ms": per_call_ms("spectra.telecom_spectrum", "spectra.visible_spectrum"),
            "spectra.convolve_ms": per_call_ms("spectra.convolve_with_filter"),
            "spectra.fit_feature_ms": per_call_ms("spectra.fit_gaussian_feature"),
            "counting.us_per_point": sweep_ns / 1e3 / points if points else 0.0,
            "counting.derive_seed_ms": per_call_ms("counting.derive_seed"),
            "counting.normalize_ms": per_call_ms("counting.normalize_to_waveguide"),
            "dataio.write_ms": per_call_ms(*prefixed("dataio.write_")),
            "dataio.read_ms": per_call_ms(*prefixed("dataio.read_")),
            "dataio.sha256_ms": per_call_ms("dataio.sha256_digest"),
            "report.build_ms": per_call_ms("report.build_report"),
        }

    def _outermost(self, row, layer):
        """The outermost span of ``layer`` enclosing ``row`` (or ``row``)."""
        while row[PARENT] >= 0 and self.spans[row[PARENT]][LAYER] == layer:
            row = self.spans[row[PARENT]]
        return row


def _info(row) -> dict:
    if row[INFO] is None:
        row[INFO] = {}
    return row[INFO]


# ---------------------------------------------------------------- hooks
# Counts recorded at the layer boundary, from the arguments and results.

def _before_lsq(row, args, kwargs):
    """Count residual and Jacobian evaluations by wrapping the callables
    ``lsq_minimize(residual, initial, jacobian=None, ...)`` receives."""
    info = _info(row)
    info["residual_evals"] = info["jacobian_evals"] = 0

    def counting(fn, key):
        def wrapper(x):
            info[key] += 1
            return fn(x)
        return wrapper

    args = list(args)
    if args:
        args[0] = counting(args[0], "residual_evals")
    else:
        kwargs["residual"] = counting(kwargs["residual"], "residual_evals")
    if len(args) > 2 and args[2] is not None:
        args[2] = counting(args[2], "jacobian_evals")
    elif kwargs.get("jacobian") is not None:
        kwargs["jacobian"] = counting(kwargs["jacobian"], "jacobian_evals")
    return args, kwargs


def _after_lsq(row, args, kwargs, result):
    info = _info(row)
    info["iterations"] = result.n_iterations
    info["converged"] = bool(result.converged)


def _after_synth(row, args, kwargs, result):
    _info(row)["grid_points"] = len(result.wavelength_nm)


def _after_convolve(row, args, kwargs, result):
    scan, profile = args[0], args[1]
    taps = 2 * math.ceil(_KERNEL_CUTOFF_FWHM * profile.fwhm_nm / scan.step_nm) + 1
    _info(row)["convolve_bytes"] = len(scan.wavelength_nm) * taps * 8


def _after_sweep(row, args, kwargs, result):
    _info(row)["points"] = len(result)


def _after_write(row, args, kwargs, result):
    files = [result]
    if row[NAME] in _SIDECAR_WRITERS:
        files.append(_sidecar(result))
    info = _info(row)
    info["files_written"] = len(files)
    info["bytes_written"] = sum(_file_size(f) for f in files)


def _after_read(row, args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    _info(row)["bytes_read"] = _file_size(path) + _file_size(_sidecar(path))


_BEFORE = {"fitting.lsq_minimize": _before_lsq}
_AFTER = {
    "fitting.lsq_minimize": _after_lsq,
    "spectra.telecom_spectrum": _after_synth,
    "spectra.visible_spectrum": _after_synth,
    "spectra.convolve_with_filter": _after_convolve,
    "counting.simulate_sweep": _after_sweep,
}
