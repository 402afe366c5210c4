"""Tests for the damped least-squares engine and the device fits."""

from dataclasses import replace

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


def _efficiency_sweeps(noise_rel=0.0, rng=None, n=15):
    p = np.linspace(0.02, 0.44, n)
    data = {}
    for kind, eta in (("efficiency_int", 0.67), ("efficiency_ext", 0.46)):
        y = efficiency_curve(p, eta, 0.63, 4.0)
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


@pytest.mark.parametrize(
    "initial",
    [(0.3, 0.3, 0.1), (0.9, 0.9, 0.1), (0.3, 0.3, 2.0), (0.9, 0.9, 2.0), (0.6, 0.6, 1.05)],
)
def test_shared_fit_initial_guess_basin(initial):
    # the ladder of eta_n starts finds the true basin from a start far off
    sweep_int, sweep_ext = _efficiency_sweeps()
    result, _ = _efficiency_ladder_reference(sweep_int, sweep_ext, 4.0, start=initial)
    assert result.values["eta_n"] == pytest.approx(0.63, abs=1e-8)
    assert result.values["eta_max_int"] == pytest.approx(0.67, abs=1e-8)
    assert result.values["eta_max_ext"] == pytest.approx(0.46, abs=1e-8)


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
    """Analytic Jacobians of the built-in models vs central finite differences."""
    from dfgnoise.fitting import _eta_model_and_grads, _logit, _sigmoid

    p = np.linspace(0.02, 0.44, 9)
    u = np.array([_logit(0.61), np.log(0.8)])

    def model_of_u(u_vec):
        return _eta_model_and_grads(p, _sigmoid(u_vec[0]), np.exp(u_vec[1]), 4.0)[0]

    _, d_logit, d_logeta = _eta_model_and_grads(p, _sigmoid(u[0]), np.exp(u[1]), 4.0)
    for j, analytic in ((0, d_logit), (1, d_logeta)):
        h = 1e-6 * max(1.0, abs(u[j]))
        up, dn = u.copy(), u.copy()
        up[j] += h
        dn[j] -= h
        fd = (model_of_u(up) - model_of_u(dn)) / (2 * h)
        assert np.allclose(analytic, fd, rtol=1e-5, atol=1e-9)


def test_sigmoid_finite_and_monotone_far_out():
    # the exp argument is clamped, so no OverflowError at large negative u
    from dfgnoise.fitting import _sigmoid

    u = [-1000.0, -709.5, -30.0, 0.0, 30.0, 1000.0]
    values = [_sigmoid(x) for x in u]
    assert all(np.isfinite(values))
    assert all(0.0 <= v <= 1.0 for v in values)
    assert values == sorted(values)
    assert values[0] < values[-1] == 1.0
    assert _sigmoid(0.0) == 0.5


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


# ------------------------------------------------------- several starts

def _cost(model, result):
    r = model(result.as_vector())[0]
    return float(r @ r)


def _assert_same_fit(a, b):
    assert a.names == b.names
    assert a.values == b.values
    assert a.sigmas == b.sigmas
    assert a.covariance.tobytes() == b.covariance.tobytes()
    assert a.chi2_reduced == b.chi2_reduced or (np.isnan(a.chi2_reduced)
                                                and np.isnan(b.chi2_reduced))
    assert (a.n_iterations, a.converged, a.message, a.n_points) == (
        b.n_iterations, b.converged, b.message, b.n_points)


def _exp_problem():
    x = np.linspace(0.1, 1.0, 12)
    y = 0.5 * np.exp(1.3 * x) + 0.01 * np.sin(7.0 * x)

    def model(a):
        e = np.exp(a[1] * x)
        return y - a[0] * e, np.column_stack([-e, -a[0] * x * e])

    return model, [[1.0, 1.0], [0.1, 3.0], [2.0, -1.0], [0.5, 1.3]]


def _rank_deficient_problem():
    x = np.linspace(0, 1, 9)
    return (lambda a: (2.0 * x - (a[0] + a[1]) * x, np.column_stack([-x, -x])),
            [[0.3, 0.3], [5.0, -1.0]])


def _forward_difference(model):
    """``model`` with its Jacobian approximated by forward differences."""
    def approximate(a):
        r0 = model(a)[0]
        steps = 1e-7 * np.maximum(1.0, np.abs(a))
        return r0, np.column_stack([(model(a + h * e)[0] - r0) / h
                                    for h, e in zip(steps, np.eye(len(a)))])
    return approximate


@pytest.mark.parametrize("problem", [_exp_problem, _rank_deficient_problem])
@pytest.mark.parametrize("analytic", [True, False])
def test_several_starts_match_the_best_single_start(problem, analytic):
    # the winner is picked on final cost, with an exact Jacobian or not
    model, starts = problem()
    model = model if analytic else _forward_difference(model)
    singles = [lsq_minimize(model, s, names=["a", "b"]) for s in starts]
    best = singles[int(np.argmin([_cost(model, s) for s in singles]))]
    ladder = lsq_minimize(model, np.array(starts), names=["a", "b"])
    _assert_same_fit(ladder, best)
    if problem is _rank_deficient_problem:
        assert "rank-deficient" in ladder.message


def test_several_starts_tie_keeps_the_earlier_start():
    # a mirror-symmetric cost: starts at +2 and -2 end at +1 and -1 with
    # bit-equal costs, so only the order of the starts decides
    def model(a):
        return np.array([a[0] * a[0] - 1.0]), np.array([[2.0 * a[0]]])

    def fit(starts):
        return lsq_minimize(model, starts, names=["a"])

    up, down = fit([2.0]), fit([-2.0])
    assert _cost(model, up) == _cost(model, down)
    assert up.values["a"] == -down.values["a"] > 0.0
    _assert_same_fit(fit([[2.0], [-2.0]]), up)
    _assert_same_fit(fit([[-2.0], [2.0]]), down)


def test_several_starts_reject_a_bad_shape():
    for starts in (np.zeros((2, 2, 2)), np.zeros((0, 2))):
        with pytest.raises(ParameterError, match="starts"):
            lsq_minimize(lambda a: (a, np.eye(len(a))), starts, names=["a", "b"])


def _efficiency_ladder_reference(sweep_int, sweep_ext, length_cm, start=None):
    """The shared efficiency fit as three single-start fits, each sweep's
    residuals computed separately and the winner chosen on a recomputed
    cost: the reference for the stacked residuals and the in-call ladder.
    ``start`` (eta_max_int, eta_max_ext, eta_n) replaces the data's own."""
    from dfgnoise.fitting import (_eta_model_and_grads, _initial_efficiency_guess, _logit,
                                  _sigmoid)

    if start is None:
        g_int, en_int = _initial_efficiency_guess(sweep_int, length_cm)
        g_ext, en_ext = _initial_efficiency_guess(sweep_ext, length_cm)
        start = (g_int, g_ext, np.sqrt(en_int * en_ext))
    p_i, y_i, s_i = sweep_int.pump_w, sweep_int.value, sweep_int.sigma
    p_e, y_e, s_e = sweep_ext.pump_w, sweep_ext.value, sweep_ext.sigma

    def model(u):
        a_i, a_e, eta_n = _sigmoid(u[0]), _sigmoid(u[1]), np.exp(u[2])
        m_i, di_logit, di_log = _eta_model_and_grads(p_i, a_i, eta_n, length_cm)
        m_e, de_logit, de_log = _eta_model_and_grads(p_e, a_e, eta_n, length_cm)
        jac = np.zeros((len(p_i) + len(p_e), 3))
        jac[: len(p_i), 0] = -di_logit / s_i
        jac[: len(p_i), 2] = -di_log / s_i
        jac[len(p_i):, 1] = -de_logit / s_e
        jac[len(p_i):, 2] = -de_log / s_e
        return np.concatenate([(y_i - m_i) / s_i, (y_e - m_e) / s_e]), jac

    raw, winner = None, None
    for i, factor in enumerate((1.0, 0.25, 4.0)):
        u0 = np.array([
            _logit(np.clip(start[0], 1e-3, 1 - 1e-3)),
            _logit(np.clip(start[1], 1e-3, 1 - 1e-3)),
            np.log(max(start[2] * factor, 1e-12)),
        ])
        candidate = lsq_minimize(model, u0, names=["u_int", "u_ext", "log_eta_n"])
        cand_cost = _cost(model, candidate)
        if raw is None or cand_cost < best_cost:
            raw, best_cost, winner = candidate, cand_cost, i

    u = raw.as_vector()
    theta = np.array([_sigmoid(u[0]), _sigmoid(u[1]), np.exp(u[2])])
    scale = np.array([theta[0] * (1 - theta[0]), theta[1] * (1 - theta[1]), theta[2]])
    cov = raw.covariance * np.outer(scale, scale)
    names = ["eta_max_int", "eta_max_ext", "eta_n"]
    return replace(
        raw,
        names=names,
        values=dict(zip(names, map(float, theta))),
        covariance=cov,
    ), winner


def test_shared_fit_matches_the_three_call_ladder():
    # 240 seeds over 3/12/40-point sweeps at 1% and 5% point noise
    cases = [(n, noise) for n in (3, 12, 40) for noise in (0.01, 0.05)]
    winners = set()
    for seed in range(240):
        n, noise = cases[seed % len(cases)]
        sweep_int, sweep_ext = _efficiency_sweeps(noise, np.random.default_rng(seed), n)
        expected, winner = _efficiency_ladder_reference(sweep_int, sweep_ext, 4.0)
        _assert_same_fit(fit_efficiency_shared(sweep_int, sweep_ext, 4.0), expected)
        winners.add(winner)
    # the 0.25x or the 4x eta_n start wins somewhere: the ladder is exercised
    assert winners - {0}


def test_eta_model_is_elementwise_in_eta_max():
    from dfgnoise.fitting import _eta_model_and_grads

    p = np.linspace(0.02, 0.44, 9)
    eta_max = np.where(np.arange(9) < 4, 0.67, 0.46)
    stacked = _eta_model_and_grads(p, eta_max, 0.63, 4.0)
    for a, b in ((slice(0, 4), 0.67), (slice(4, 9), 0.46)):
        single = _eta_model_and_grads(p[a], b, 0.63, 4.0)
        for s, out in zip(single, stacked):
            assert s.tobytes() == out[a].tobytes()
