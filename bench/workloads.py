"""The four benchmark workloads.

Each workload is a closed loop with one client: op ``i + 1`` starts when
op ``i`` has ended.  ``setup`` generates the inputs, imports the package,
loads the config and runs one untimed warm-up op.  ``op`` is the timed
work; ``check`` validates its outputs afterwards, outside the timing,
and ``finish`` applies the run-level checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import inputs

KINDS = ("noise_tele_detuned", "noise_tele_onpeak", "noise_vis")
MAX_PULL = 5.0
# ensemble bounds are this many standard errors wide
ENSEMBLE_Z = 5.0
ONE_SIGMA_COVERAGE = 0.6827
SPECTRAL_TOLERANCE_NM = 0.02
# The deconvolved width scatters by about 0.0044 nm from scan to scan, so
# 0.02 nm is only 4.6 sigma: over the tens of thousands of scans a set of
# runs makes, correct code would miss it now and then.  Each scan is
# checked for gross errors only; the run mean carries the 0.02 nm bound
# and a bound of five standard errors.
WIDTH_GROSS_ERROR_NM = 0.05
COMMAND_TIMEOUT_S = 120


# The README's eleven CLI invocations, in order, run in a directory that
# holds ``run.yaml``; outputs go to ``out/``.
_COMMON = ["--config", "run.yaml", "--out", "out"]
CHAIN = [
    ["validate-config", "--write-template", "template.yaml"],
    ["validate-config", "--config", "run.yaml"],
    ["simulate", "efficiency", *_COMMON],
    ["simulate", "telecom-spectrum", *_COMMON],
    ["simulate", "visible-spectrum", *_COMMON, "--collection", "mmf"],
    *(["simulate", "power-sweep", "--kind", kind, *_COMMON] for kind in KINDS),
    ["fit", "efficiency", *_COMMON, "--internal", "out/efficiency_int.csv",
     "--external", "out/efficiency_ext.csv"],
    ["fit", "noise", *_COMMON, "--detuned", "out/sweep_noise_tele_detuned.csv",
     "--visible", "out/sweep_noise_vis.csv", "--efficiency-fit", "out/fit_efficiency.json"],
    ["report", *_COMMON, "--efficiency-fit", "out/fit_efficiency.json",
     "--noise-fit", "out/fit_noise.json"],
]
CHAIN_LENGTH = len(CHAIN)


def child_env(root: Path) -> dict:
    """Environment for child processes that import the package from ``root/src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def cli_in_process(argv: list[str], cwd: Path) -> tuple[int, str]:
    """``dfgnoise.cli.main(argv)`` run in ``cwd``; returns (exit code, stderr)."""
    cli = importlib.import_module("dfgnoise.cli")
    err = io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(previous)
    return code, err.getvalue()


def digest_tree(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def pull(value: float, sigma: float, truth: float) -> float:
    return (value - truth) / sigma if sigma > 0 else math.inf


class Workload:
    """Base class: a closed loop of ops over generated inputs."""

    name = ""
    n_points = 12     # sweeps.n_points of the generated config
    block = 1         # the loop only stops after a whole block of ops
    min_ops = 1
    # highest percentile with >= 10 samples beyond it at the expected op
    # count; fixed per workload so the metric means the same on every run
    tail_percentile = 95.0

    def __init__(self, root: Path, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.config_path = work / "run.yaml"
        self.stats: dict = {}

    def setup(self) -> None:
        inputs.write_config(self.config_path, self.seed, self.n_points)

    def prepare(self, i: int) -> None:
        """Untimed preparation before op ``i``."""

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> str | None:
        """A problem with op ``i``'s outputs, or None."""
        return None

    def finish(self) -> list[str]:
        """Run-level problems."""
        return []


class InProcessWorkload(Workload):
    """Calls the package's pipelines in this process."""

    def setup(self) -> None:
        super().setup()
        self.pipelines = importlib.import_module("dfgnoise.pipelines")
        self.dataio = importlib.import_module("dfgnoise.dataio")
        config = importlib.import_module("dfgnoise.config")
        self.cfg = config.load_config(self.config_path)
        self.out = None
        self.prepare(-1)
        self.op(-1)

    def prepare(self, i: int) -> None:
        # a fresh output directory per op: rewriting a file in place can make
        # the filesystem write it back on close (ext4 auto_da_alloc), which
        # would time the shared disk rather than the package
        if self.out is not None:
            shutil.rmtree(self.out)
        self.out = self.work / f"op{i}"
        self.out.mkdir(parents=True)

    def op_seed(self, i: int) -> int:
        return inputs.derive_seed(self.seed, self.name, i) % 2**31


class ClosureEnsemble(InProcessWorkload):
    """One op is one simulate-then-fit replicate on the 12-point sweeps."""

    name = "closure_ensemble"
    PARAMS = ("eta_max_int", "eta_n", "alpha_n_tele", "alpha_n_vis")

    def setup(self) -> None:
        self.pulls = {p: [] for p in self.PARAMS}
        super().setup()

    def op(self, i: int):
        pl, s, out = self.pipelines, self.op_seed(i), self.out
        eff_int, eff_ext = pl.simulate_efficiency(self.cfg, s, out)
        sweeps = {k: pl.simulate_power_sweep(self.cfg, s, out, kind=k) for k in KINDS}
        eff, eff_json = pl.run_fit_efficiency(self.cfg, eff_int, eff_ext, out)
        noise, _ = pl.run_fit_noise(
            self.cfg, out, detuned_path=sweeps["noise_tele_detuned"],
            visible_path=sweeps["noise_vis"],
            efficiency_fit=self.dataio.read_fit_json(eff_json))
        return eff, noise

    def check(self, i, out):
        eff, noise = out
        if not (eff.converged and noise.converged):
            return f"replicate {i}: fit did not converge ({eff.message}; {noise.message})"
        problem = None
        for fit in (eff, noise):
            for name in set(fit.names) & set(self.PARAMS):
                p = pull(fit.values[name], fit.sigmas[name], inputs.TRUTH[name])
                if i >= 0:
                    self.pulls[name].append(p)
                if abs(p) >= MAX_PULL:
                    problem = f"replicate {i}: {name} pull {p:.2f}"
        return problem

    def finish(self):
        problems = []
        for name, pulls in self.pulls.items():
            n = len(pulls)
            if n < 2:
                continue
            mean = sum(pulls) / n
            std = math.sqrt(sum((p - mean) ** 2 for p in pulls) / (n - 1))
            coverage = sum(abs(p) < 1.0 for p in pulls) / n
            self.stats[name] = {"n": n, "pull_mean": mean, "pull_std": std,
                                "coverage_1sigma": coverage}
            cov_err = math.sqrt(ONE_SIGMA_COVERAGE * (1 - ONE_SIGMA_COVERAGE) / n)
            if abs(mean) > ENSEMBLE_Z / math.sqrt(n):
                problems.append(f"{name}: pull mean {mean:.3f} over {n} replicates")
            if abs(std - 1.0) > ENSEMBLE_Z / math.sqrt(2 * (n - 1)):
                problems.append(f"{name}: pull std {std:.3f} over {n} replicates")
            if abs(coverage - ONE_SIGMA_COVERAGE) > ENSEMBLE_Z * cov_err:
                problems.append(f"{name}: 1-sigma coverage {coverage:.3f} over {n} replicates")
        return problems


class DenseSweep(InProcessWorkload):
    """One op simulates two 2000-point noise sweeps and fits them back."""

    name = "dense_sweep"
    n_points = 2000
    tail_percentile = 75.0

    def op(self, i: int):
        pl, s, out = self.pipelines, self.op_seed(i), self.out
        detuned = pl.simulate_power_sweep(self.cfg, s, out, kind="noise_tele_detuned")
        visible = pl.simulate_power_sweep(self.cfg, s, out, kind="noise_vis")
        fit, _ = pl.run_fit_noise(self.cfg, out, detuned_path=detuned, visible_path=visible)
        return fit

    def check(self, i, fit):
        if not fit.converged:
            return f"sweep {i}: fit did not converge ({fit.message})"
        for name in ("alpha_n_tele", "alpha_n_vis"):
            p = pull(fit.values[name], fit.sigmas[name], inputs.TRUTH[name])
            if abs(p) >= MAX_PULL:
                return f"sweep {i}: {name} pull {p:.2f}"
        return None


def analyze_spectra(telecom_csv: Path, visible_csv: Path) -> tuple[float, float, float]:
    """Read both spectra back, fit the 1541 nm dip and its partner peak, and
    deconvolve the grating; returns (dip center, dip width, peak center)."""
    dataio = importlib.import_module("dfgnoise.dataio")
    spectra = importlib.import_module("dfgnoise.spectra")
    tele, _ = dataio.read_scan_csv(telecom_csv)
    vis, _ = dataio.read_scan_csv(visible_csv)
    c = inputs.DIP_CENTER_NM
    dip = spectra.fit_gaussian_feature(tele, (c - 1.5, c + 1.5), "dip")
    v = inputs.partner_wavelength_nm(c)
    peak = spectra.fit_gaussian_feature(vis, (v - 0.35, v + 0.35), "peak")
    width = spectra.deconvolve_gaussian(dip.fwhm_nm, tele.filter_fwhm_nm)
    return dip.center_nm, width, peak.center_nm


def spectral_problem(found: tuple[float, float, float]) -> str | None:
    """Compare :func:`analyze_spectra` output with the configured device."""
    expected = (
        ("dip center", inputs.DIP_CENTER_NM, SPECTRAL_TOLERANCE_NM),
        ("dip width", inputs.DIP_FWHM_NM, WIDTH_GROSS_ERROR_NM),
        ("peak center", inputs.partner_wavelength_nm(inputs.DIP_CENTER_NM),
         SPECTRAL_TOLERANCE_NM),
    )
    for (key, want, tolerance), got in zip(expected, found):
        if not abs(got - want) <= tolerance:
            return f"{key} {got:.4f} nm, expected {want:.4f} +/- {tolerance} nm"
    return None


class SpectralScan(InProcessWorkload):
    """One op simulates both spectra and analyzes them (:func:`analyze_spectra`)."""

    name = "spectral_scan"

    def setup(self) -> None:
        self.widths = []
        super().setup()

    def op(self, i: int):
        pl, s, out = self.pipelines, self.op_seed(i), self.out
        return analyze_spectra(pl.simulate_telecom_spectrum(self.cfg, s, out),
                               pl.simulate_visible_spectrum(self.cfg, s, out, collection="mmf"))

    def check(self, i, found):
        problem = spectral_problem(found)
        if problem:
            return f"scan {i}: {problem}"
        if i >= 0:
            self.widths.append(found[1])
        return None

    def finish(self):
        n = len(self.widths)
        if n < 2:
            return []
        mean = sum(self.widths) / n
        std = math.sqrt(sum((w - mean) ** 2 for w in self.widths) / (n - 1))
        self.stats["dip_width_nm"] = {"n": n, "mean": mean, "std": std}
        error = abs(mean - inputs.DIP_FWHM_NM)
        if error > SPECTRAL_TOLERANCE_NM or error > ENSEMBLE_Z * std / math.sqrt(n):
            return [f"mean deconvolved width {mean:.5f} nm over {n} scans"]
        return []


class CliColdChain(Workload):
    """One op is one CLI command in a fresh ``python -m dfgnoise.cli``
    process; ops run the README chain in order, and every chain must
    reproduce the first chain's files byte for byte.

    With ``in_process`` set, the commands call ``cli.main`` in this
    process instead (the traced run)."""

    name = "cli_cold_chain"
    block = CHAIN_LENGTH
    min_ops = 2 * CHAIN_LENGTH
    tail_percentile = 50.0

    def __init__(self, root, seed, work):
        super().__init__(root, seed, work)
        self.in_process = False
        self.reference = None
        self.env = child_env(root)

    def setup(self) -> None:
        super().setup()
        self.chain_dir = self.work
        proc = self._cold(["validate-config", "--config", "run.yaml"])
        if proc.returncode != 0:
            raise RuntimeError(f"warm-up validate-config failed: {proc.stderr.strip()}")
        if self.in_process:
            importlib.import_module("dfgnoise.cli")

    def _cold(self, argv):
        return subprocess.run(
            [sys.executable, "-m", "dfgnoise.cli", *argv], cwd=self.chain_dir,
            env=self.env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)

    def prepare(self, i):
        if i % CHAIN_LENGTH == 0:
            self.chain_dir = self.work / f"chain{i // CHAIN_LENGTH}"
            self.chain_dir.mkdir(parents=True)
            shutil.copy(self.config_path, self.chain_dir / "run.yaml")

    def op(self, i):
        argv = CHAIN[i % CHAIN_LENGTH]
        if self.in_process:
            return cli_in_process(argv, self.chain_dir)
        proc = self._cold(argv)
        return proc.returncode, proc.stderr

    def check(self, i, out):
        code, stderr = out
        problem = None
        if code != 0:
            problem = f"command {i} exited {code}: {stderr.strip()[-200:]}"
        if i % CHAIN_LENGTH == CHAIN_LENGTH - 1:
            digests = digest_tree(self.chain_dir)
            shutil.rmtree(self.chain_dir)
            if self.reference is None:
                self.reference = digests
            elif digests != self.reference:
                differ = sorted(k for k in digests.keys() | self.reference.keys()
                                if digests.get(k) != self.reference.get(k))
                problem = problem or f"chain {i // CHAIN_LENGTH} differs from chain 0: {differ}"
        return problem


WORKLOADS = {w.name: w for w in (CliColdChain, ClosureEnsemble, DenseSweep, SpectralScan)}
