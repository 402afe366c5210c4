"""Tests for the damped least-squares engine and the device fits."""

import numpy as np
import pytest

from dfgnoise import fitting
from dfgnoise.converter import ConverterParams, dip_depth, efficiency_curve
from dfgnoise.errors import InsufficientDataError, ParameterError
from dfgnoise.fitting import (
    PowerSweep,
    fit_alpha_linear,
    fit_alpha_visible,
    fit_efficiency_shared,
    lsq_minimize,
    predict_noise_curves,
)

PARAMS = ConverterParams(4.0, 0.67, 0.46, 0.63, 129e3, 25e9)


def _efficiency_sweeps(noise_rel=0.0, rng=None, n=15, eta_n=0.63):
    p = np.linspace(0.02, 0.44, n)
    data = {}
    for kind, eta in (("efficiency_int", 0.67), ("efficiency_ext", 0.46)):
        y = efficiency_curve(p, eta, eta_n, 4.0)
        sigma = np.maximum(noise_rel * y, 1e-4) if noise_rel else np.full_like(p, 0.01)
        if rng is not None and noise_rel:
            y = y + sigma * rng.standard_normal(n)
        data[kind] = PowerSweep(p, y, sigma, kind)
    return data["efficiency_int"], data["efficiency_ext"]


# ------------------------------------------------------------- lsq engine

def _bent_valley(x):
    # classic curved-valley test problem with minimum at (1, 1)
    return (np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]),
            np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]]))


@pytest.mark.parametrize("pump, value, sigma, row, rule", [
    ([-0.1, 0.2, 0.3], [1, 2, 3], [1, 1, 1], 0,
     "column 'pump_w' must be finite and non-negative, got -0.1"),
    ([0.1, 0.2, 0.2], [1, 2, 3], [1, 1, 1], 2,
     "column 'pump_w' must be strictly increasing, got 0.2"),
    # the first bad row, and in it the first bad column
    ([0.1, 0.2, 0.3], [1, np.inf, np.nan], [1, 0, 1], 1, "column 'value' must be finite, got inf"),
    ([0.1, 0.2, 0.3], [1, 2, 3], [1, 1, np.nan], 2,
     "column 'sigma' must be finite and positive, got nan"),
])
def test_power_sweep_names_bad_row_and_column(pump, value, sigma, row, rule):
    with pytest.raises(ParameterError) as excinfo:
        PowerSweep(pump, value, sigma, "efficiency_int")
    assert str(excinfo.value) == f"row {row}: {rule}"
    assert (excinfo.value.row, excinfo.value.rule) == (row, rule)


def test_linear_model_exact():
    x = np.linspace(0.0, 1.0, 7)
    result = lsq_minimize(lambda a: (3.0 * x - a[0] * x, -x[:, None]), [0.4], names=["a"])
    assert result.values["a"] == pytest.approx(3.0, abs=1e-14)
    assert result.converged
    assert result.n_iterations <= 5


def test_bent_valley_converges():
    result = lsq_minimize(_bent_valley, [-1.2, 1.0], names=["a", "b"])
    assert result.converged
    assert result.values["a"] == pytest.approx(1.0, abs=1e-6)
    assert result.values["b"] == pytest.approx(1.0, abs=1e-6)


def test_nonfinite_initial_residuals_rejected():
    from dfgnoise.errors import FitFailureError

    with pytest.raises(FitFailureError):
        lsq_minimize(lambda x: (np.array([np.nan]), np.zeros((1, 1))), [1.0], names=["a"])


def test_iteration_cap_reports_best_point(monkeypatch):
    monkeypatch.setattr(fitting, "_MAX_ITER", 2)
    result = lsq_minimize(_bent_valley, [-1.2, 1.0], names=["a", "b"])
    assert not result.converged
    assert "cap" in result.message
    assert np.isfinite(result.as_vector()).all()


def test_each_point_is_evaluated_once():
    # an accepted step's Jacobian, and the winner's, come with its residuals
    points = []

    def model(x):
        points.append(tuple(x))
        return _bent_valley(x)

    result = lsq_minimize(model, [-1.2, 1.0], names=["a", "b"])
    assert result.converged and result.n_iterations > 5
    assert len(points) == len(set(points))
    with pytest.raises(TypeError):  # one calling convention: names by keyword
        lsq_minimize(_bent_valley, [-1.2, 1.0], ["a", "b"])


def test_lsq_minimize_takes_one_start():
    for initial in (np.zeros((2, 2)), np.zeros(3), 1.0):
        with pytest.raises(ParameterError, match="one start value per name"):
            lsq_minimize(lambda a: (a, np.eye(len(a))), initial, names=["a", "b"])


def test_rank_deficient_model_flagged():
    # two parameters enter only through their sum: singular normal equations
    x = np.linspace(0, 1, 9)
    y = 2.0 * x

    result = lsq_minimize(lambda a: (y - (a[0] + a[1]) * x, np.column_stack([-x, -x])),
                          [0.3, 0.3], names=["a", "b"])
    assert "rank-deficient" in result.message
    assert result.values["a"] + result.values["b"] == pytest.approx(2.0, abs=1e-10)


def test_sigmas_are_worked_out_from_the_covariance():
    result = fitting.FitResult(names=["a", "b"], values={"a": 1.0, "b": 2.0},
                               covariance=np.array([[4e-4, 0.0], [0.0, -1e-30]]),
                               chi2_reduced=1.0, n_iterations=1, converged=True,
                               message="ok", n_points=3)
    assert result.sigmas == {"a": 0.02, "b": 0.0}
    result.covariance = np.diag([9e-4, 1e-4])
    assert result.sigmas == {"a": 0.03, "b": 0.01}
    with pytest.raises(AttributeError):
        result.sigmas = {"a": 1.0, "b": 1.0}


# ------------------------------------------------- shared efficiency fit

def test_shared_fit_noiseless_recovery():
    sweep_int, sweep_ext = _efficiency_sweeps()
    result = fit_efficiency_shared(sweep_int, sweep_ext, 4.0)
    assert result.values["eta_n"] == pytest.approx(0.63, abs=1e-8)
    assert result.values["eta_max_int"] == pytest.approx(0.67, abs=1e-8)
    assert result.values["eta_max_ext"] == pytest.approx(0.46, abs=1e-8)


@pytest.mark.parametrize("eta_n", [0.01, 20.0])
def test_shared_fit_noiseless_recovery_away_from_the_peak(eta_n):
    # at 0.01 the efficiency peak lies six times beyond the top pump power;
    # at 20 the curve turns over three times within the sweep
    result = fit_efficiency_shared(*_efficiency_sweeps(eta_n=eta_n), 4.0)
    assert result.converged
    assert result.values["eta_n"] == pytest.approx(eta_n, rel=1e-8)
    assert result.values["eta_max_int"] == pytest.approx(0.67, rel=1e-8)
    assert result.values["eta_max_ext"] == pytest.approx(0.46, rel=1e-8)


def test_shared_fit_of_zero_sweeps_leaves_eta_n_undetermined():
    # with both saturation values 0, no eta_n fits better than another
    p = np.array([0.1, 0.2, 0.3])
    zero = [PowerSweep(p, np.zeros(3), np.full(3, 0.01), kind)
            for kind in ("efficiency_int", "efficiency_ext")]
    result = fit_efficiency_shared(*zero, 4.0)
    assert not result.converged
    assert "eta_n undetermined" in result.message
    assert (result.values["eta_max_int"], result.values["eta_max_ext"]) == (0.0, 0.0)


def test_shared_fit_monte_carlo_statistics():
    rng = np.random.default_rng(42)
    etas = []
    for _ in range(50):
        sweep_int, sweep_ext = _efficiency_sweeps(noise_rel=0.02, rng=rng)
        result = fit_efficiency_shared(sweep_int, sweep_ext, 4.0)
        etas.append(result.values["eta_n"])
    # 2% point noise on 15 points leaves a sub-percent replicate spread,
    # at or below the scale of the quoted +/-0.02 uncertainty
    assert np.mean(etas) == pytest.approx(0.63, rel=0.01)
    assert 0.001 < np.std(etas) < 0.03


def test_shared_fit_flags_eta_n_mismatch():
    p = np.linspace(0.02, 0.44, 15)
    y_int = efficiency_curve(p, 0.67, 0.63, 4.0)
    y_ext = efficiency_curve(p, 0.46, 1.26, 4.0)  # doubled eta_n
    sweep_int = PowerSweep(p, y_int, 0.02 * np.abs(y_int) + 1e-4, "efficiency_int")
    sweep_ext = PowerSweep(p, y_ext, 0.02 * np.abs(y_ext) + 1e-4, "efficiency_ext")
    result = fit_efficiency_shared(sweep_int, sweep_ext, 4.0)
    assert result.chi2_reduced > 10.0


def test_shared_fit_insufficient_data():
    p = np.array([0.1, 0.2])
    sweep = PowerSweep(p, efficiency_curve(p, 0.67, 0.63, 4.0), [0.01, 0.01], "efficiency_int")
    full_int, full_ext = _efficiency_sweeps()
    with pytest.raises(InsufficientDataError):
        fit_efficiency_shared(sweep, full_ext, 4.0)
    with pytest.raises(InsufficientDataError):
        fit_efficiency_shared(full_int, sweep, 4.0)


def test_shared_fit_chi2_near_one_when_correctly_specified():
    rng = np.random.default_rng(3)
    chi2 = []
    for _ in range(40):
        sweep_int, sweep_ext = _efficiency_sweeps(noise_rel=0.02, rng=rng)
        chi2.append(fit_efficiency_shared(sweep_int, sweep_ext, 4.0).chi2_reduced)
    dof = 2 * 15 - 3
    assert np.mean(chi2) == pytest.approx(1.0, abs=3.0 / np.sqrt(2.0 * dof))


def test_fit_invariances():
    rng = np.random.default_rng(11)
    sweep_int, sweep_ext = _efficiency_sweeps(noise_rel=0.02, rng=rng)
    base = fit_efficiency_shared(sweep_int, sweep_ext, 4.0)

    # uniform sigma rescaling: same values, covariance scales by k^2
    k = 3.0
    scaled = fit_efficiency_shared(
        PowerSweep(sweep_int.pump_w, sweep_int.value, k * sweep_int.sigma, "efficiency_int"),
        PowerSweep(sweep_ext.pump_w, sweep_ext.value, k * sweep_ext.sigma, "efficiency_ext"),
        4.0,
    )
    for name in base.names:
        assert scaled.values[name] == pytest.approx(base.values[name], rel=1e-8)
    assert np.allclose(scaled.covariance, k * k * base.covariance, rtol=1e-6)


def test_fit_independent_of_point_order():
    # the minimizer must not care how residuals are ordered
    rng = np.random.default_rng(8)
    x = np.linspace(0.1, 1.0, 20)
    y = 0.7 * np.exp(1.1 * x) + 0.01 * rng.standard_normal(20)
    perm = rng.permutation(20)

    def fit(xs, ys):
        def model(a):
            e = np.exp(a[1] * xs)
            return ys - a[0] * e, np.column_stack([-e, -a[0] * xs * e])

        return lsq_minimize(model, [1.0, 1.0], names=["a", "b"])

    direct = fit(x, y)
    shuffled = fit(x[perm], y[perm])
    for name in ("a", "b"):
        assert shuffled.values[name] == pytest.approx(direct.values[name], rel=1e-8)


def test_jacobian_matches_central_differences():
    """The covariance is the inverse normal matrix of the Jacobian in
    (eta_max_int, eta_max_ext, eta_n), here by central differences."""
    rng = np.random.default_rng(5)
    sweep_int, sweep_ext = _efficiency_sweeps(noise_rel=0.02, rng=rng, n=9)
    result = fit_efficiency_shared(sweep_int, sweep_ext, 4.0)

    def residuals(theta):
        return np.concatenate([
            (s.value - eta_max * efficiency_curve(s.pump_w, 1.0, theta[2], 4.0)) / s.sigma
            for s, eta_max in ((sweep_int, theta[0]), (sweep_ext, theta[1]))])

    theta = result.as_vector()
    jac = np.empty((18, 3))
    for j in range(3):
        h = 1e-6 * theta[j]
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        jac[:, j] = (residuals(up) - residuals(dn)) / (2 * h)
    assert np.allclose(result.covariance, np.linalg.inv(jac.T @ jac), rtol=1e-5, atol=0)


# ------------------------------------------------------------- alpha fits

def test_alpha_linear_exact_recovery():
    p = np.linspace(0.005, 0.44, 12)
    rate = 129e3 * p * 4.0
    sweep = PowerSweep(p, rate, np.sqrt(rate) + 1.0, "noise_tele_detuned")
    result = fit_alpha_linear(sweep, 4.0, n_points=4)
    assert result.values["alpha_n"] == pytest.approx(129e3, rel=1e-12)


def test_alpha_linear_zero_rates():
    p = np.linspace(0.01, 0.1, 6)
    sweep = PowerSweep(p, np.zeros_like(p), np.ones_like(p), "noise_tele_detuned")
    assert fit_alpha_linear(sweep, 4.0).values["alpha_n"] == 0.0


def test_alpha_linear_too_many_points_requested():
    p = np.linspace(0.01, 0.1, 3)
    sweep = PowerSweep(p, p, np.ones_like(p), "noise_tele_detuned")
    with pytest.raises(InsufficientDataError):
        fit_alpha_linear(sweep, 4.0, n_points=4)


def test_alpha_visible_exact_recovery():
    p = np.linspace(0.02, 0.44, 12)
    shape = p * 4.0 * np.asarray(dip_depth(PARAMS, p))
    sweep = PowerSweep(p, 391e3 * shape, np.sqrt(391e3 * shape) + 1.0, "noise_vis")
    result = fit_alpha_visible(sweep, PARAMS)
    assert result.values["alpha_n"] == pytest.approx(391e3, rel=1e-12)


def test_alpha_fits_recover_within_sigma_under_noise():
    rng = np.random.default_rng(314)
    p = np.linspace(0.01, 0.44, 12)

    true_det = 129e3 * p * 4.0
    sig_det = 0.02 * true_det
    det = PowerSweep(p, true_det + sig_det * rng.standard_normal(12), sig_det,
                     "noise_tele_detuned")
    r_det = fit_alpha_linear(det, 4.0, n_points=4)
    assert abs(r_det.values["alpha_n"] - 129e3) < 2.0 * r_det.sigmas["alpha_n"]

    shape = p * 4.0 * np.asarray(dip_depth(PARAMS, p))
    true_vis = 391e3 * shape
    sig_vis = 0.03 * true_vis + 1.0
    vis = PowerSweep(p, true_vis + sig_vis * rng.standard_normal(12), sig_vis, "noise_vis")
    r_vis = fit_alpha_visible(vis, PARAMS)
    assert abs(r_vis.values["alpha_n"] - 391e3) < 2.0 * r_vis.sigmas["alpha_n"]


# ------------------------------------------------------ forward prediction

def test_predicted_curves_close_on_own_parameters():
    curves = predict_noise_curves(PARAMS, alpha_n_visible=391e3)
    p = np.linspace(0.0, 0.44, 23)
    from dfgnoise.converter import telecom_noise_rate, visible_noise_rate

    assert np.allclose(curves.telecom_onpeak(p), telecom_noise_rate(PARAMS, p), rtol=1e-14)
    assert np.allclose(curves.telecom_detuned(p), 129e3 * p * 4.0, rtol=1e-14)
    vis_params = ConverterParams(4.0, 0.67, 0.46, 0.63, 391e3, 25e9)
    assert np.allclose(curves.visible(p), visible_noise_rate(vis_params, p), rtol=1e-14)


def test_predicted_onpeak_to_detuned_ratio_at_full_power():
    curves = predict_noise_curves(PARAMS, alpha_n_visible=391e3)
    ratio = curves.telecom_onpeak(0.44) / curves.telecom_detuned(0.44)
    assert ratio == pytest.approx(1.0 - 0.40478302665, abs=5e-4)


def test_predicted_curves_without_efficiency_maximum():
    # eta_n = 0 is a valid device: no conversion, no suppression, no peak
    curves = predict_noise_curves(ConverterParams(4.0, 0.67, 0.46, 0.0, 129e3, 25e9),
                                  alpha_n_visible=391e3)
    assert curves.telecom_onpeak(0.44) == curves.telecom_detuned(0.44)


# ------------------------------------------------------------- power sweep

def test_power_sweep_validation():
    with pytest.raises(ParameterError):
        PowerSweep([0.2, 0.1], [1.0, 2.0], [0.1, 0.1], "noise_vis")
    with pytest.raises(ParameterError):
        PowerSweep([0.1, 0.2], [1.0, 2.0], [0.1, 0.0], "noise_vis")
    with pytest.raises(ParameterError):
        PowerSweep([0.1, 0.2], [1.0, 2.0], [0.1, 0.1], "mystery")


@pytest.mark.parametrize("column", ["pump_w", "value", "sigma"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_power_sweep_rejects_non_finite(column, bad):
    data = {"pump_w": [0.1, 0.2], "value": [1.0, 2.0], "sigma": [0.1, 0.1]}
    data[column] = [data[column][0], bad]
    with pytest.raises(ParameterError, match="finite"):
        PowerSweep(data["pump_w"], data["value"], data["sigma"], "noise_vis")

