"""The shared efficiency fit ends at the global minimum of its cost.

For each seed, the template's efficiency sweeps are simulated at a
conversion parameter from the template's down to zero, and the fit's
final cost is checked against the lowest cost on a dense grid of
``eta_n``, at which each saturation value is solved in closed form.
"""

from dataclasses import replace

import numpy as np
import pytest

from dfgnoise import dataio, pipelines
from dfgnoise.config import default_config
from dfgnoise.fitting import fit_efficiency_shared

SEEDS = range(1, 51)
# the phase L*sqrt(eta_n*P) at the top pump power of the reference grid
PHASES = np.geomspace(1e-3, 6.0 * np.pi, 600)


def _cost(sweeps, eta_max, eta_n, length_cm):
    """Weighted sum of squared residuals of each of ``eta_n`` (an array),
    each sweep with its saturation values in ``eta_max`` (one row each)."""
    total = 0.0
    for sweep, scale in zip(sweeps, np.asarray(eta_max)):
        shape = np.sin(length_cm * np.sqrt(np.outer(eta_n, sweep.pump_w))) ** 2
        total = total + np.sum(((sweep.value - scale[:, None] * shape) / sweep.sigma) ** 2,
                               axis=1)
    return total


def _grid_minimum(sweeps, length_cm):
    """The lowest cost over the reference grid, each saturation value its
    sweep's weighted least-squares solution clipped to [0, 1]."""
    top = max(sweep.pump_w[-1] for sweep in sweeps)
    eta_n = (PHASES / length_cm) ** 2 / top
    eta_max = []
    for sweep in sweeps:
        shape = np.sin(length_cm * np.sqrt(np.outer(eta_n, sweep.pump_w))) ** 2
        weight = 1.0 / sweep.sigma ** 2
        eta_max.append(np.clip((shape * sweep.value * weight).sum(axis=1)
                               / (shape * shape * weight).sum(axis=1), 0.0, 1.0))
    return _cost(sweeps, eta_max, eta_n, length_cm).min()


@pytest.mark.parametrize("eta_n", [0.63, 0.05, 0.02, 0.01, 0.005, 0.0])
def test_fit_reaches_the_grid_minimum(eta_n, tmp_path):
    cfg = default_config()
    cfg = replace(cfg, converter=replace(cfg.converter, eta_n=eta_n))
    length = cfg.converter.length_cm
    for seed in SEEDS:
        paths = pipelines.simulate_efficiency(cfg, seed, tmp_path)
        sweeps = [dataio.read_sweep_csv(path, kind=kind)
                  for path, kind in zip(paths, ("efficiency_int", "efficiency_ext"))]
        result = fit_efficiency_shared(*sweeps, length)
        values = result.values
        cost = _cost(sweeps, [[values["eta_max_int"]], [values["eta_max_ext"]]],
                     [values["eta_n"]], length)[0]
        assert cost <= _grid_minimum(sweeps, length) * (1.0 + 1e-9), seed
        if result.converged:
            assert min(result.sigmas.values()) >= np.finfo(float).tiny, (seed, result.sigmas)
