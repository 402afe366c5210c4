"""Weighted least-squares machinery and the device parameter fits.

A small Levenberg-Marquardt minimizer (:func:`lsq_minimize`) drives all
nonlinear fits.  On top of it sit the three fits used to characterize a
converter:

* :func:`fit_efficiency_shared` -- joint sin^2 fit of the internal and
  external efficiency sweeps with a common conversion parameter,
* :func:`fit_alpha_linear` -- zero-intercept linear fit of the detuned
  telecom noise, giving the noise coefficient directly,
* :func:`fit_alpha_visible` -- visible noise fit with the saturation
  shape fixed and the noise coefficient as the only free parameter.

:func:`predict_noise_curves` then turns a parameter set into the model
curves for overlay plots, residual checks and the synthetic sweeps of
the simulator, with no further tuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import converter
from .converter import ConverterParams, suppression_depth
from .errors import FitFailureError, InsufficientDataError, ParameterError, RowError
from .params import NOISE_SWEEP_KINDS

__all__ = [
    "check_rows",
    "pump_rules",
    "PowerSweep",
    "FitResult",
    "EFFICIENCY_PARAMETERS",
    "NoiseCurves",
    "lsq_minimize",
    "fit_efficiency_shared",
    "fit_alpha_linear",
    "fit_alpha_visible",
    "predict_noise_curves",
]

SWEEP_KINDS = ("efficiency_int", "efficiency_ext") + NOISE_SWEEP_KINDS

# the parameters of the shared efficiency fit, in its covariance order
EFFICIENCY_PARAMETERS = ("eta_max_int", "eta_max_ext", "eta_n")

_MAX_DAMPING = 1e14
# iteration cap and convergence tolerances of lsq_minimize
_MAX_ITER = 200
_FTOL = 1e-10
_XTOL = 1e-12
_TINY = np.finfo(float).tiny


def check_rows(*rules) -> None:
    """Raise a :class:`RowError` for the first row that breaks one of
    ``rules``, naming the first, in order, that it breaks; each rule is
    (column name, values, mask of the rows that keep it, rule in words)."""
    kept = np.logical_and.reduce([keep for _, _, keep, _ in rules])
    if not kept.all():
        i = int(np.argmin(kept))
        name, values, _, rule = next(rule for rule in rules if not rule[2][i])
        raise RowError(i, f"column '{name}' must be {rule}, got {values.tolist()[i]!r}")


def pump_rules(pump_w: np.ndarray) -> tuple:
    """The rules of a pump-power column, a sweep's or a counts file's."""
    return (("pump_w", pump_w, (pump_w >= 0) & (pump_w < np.inf), "finite and non-negative"),
            ("pump_w", pump_w, pump_w > np.r_[-np.inf, pump_w[:-1]], "strictly increasing"))


@dataclass
class PowerSweep:
    """A rate-or-efficiency-vs-pump-power dataset with per-point uncertainty.

    ``value`` is in Hz for the noise kinds and dimensionless for the
    efficiency kinds; ``sigma`` shares its units.  A row that breaks a
    rule of its columns is a :class:`RowError`.
    """

    pump_w: np.ndarray
    value: np.ndarray
    sigma: np.ndarray
    kind: str

    def __post_init__(self):
        self.pump_w = np.asarray(self.pump_w, dtype=float)
        self.value = np.asarray(self.value, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        if self.kind not in SWEEP_KINDS:
            raise ParameterError(f"unknown sweep kind {self.kind!r}")
        if self.pump_w.ndim != 1 or len({len(self.pump_w), len(self.value), len(self.sigma)}) != 1:
            raise ParameterError("pump_w, value and sigma must be 1-d and equally long")
        check_rows(*pump_rules(self.pump_w),
                   ("value", self.value, np.isfinite(self.value), "finite"),
                   ("sigma", self.sigma, (self.sigma > 0) & (self.sigma < np.inf),
                    "finite and positive"))

    def __len__(self) -> int:
        return len(self.pump_w)


@dataclass
class FitResult:
    """Outcome of a least-squares fit.

    ``values`` is keyed by parameter name; ``covariance`` follows the
    ordering of ``names``, and :attr:`sigmas` is worked out from it.
    ``chi2_reduced`` is the weighted sum of squares per degree of freedom.
    """

    names: list[str]
    values: dict[str, float]
    covariance: np.ndarray
    chi2_reduced: float
    n_iterations: int
    converged: bool
    message: str
    n_points: int

    @property
    def sigmas(self) -> dict[str, float]:
        """Each parameter's uncertainty, keyed by name: the square root of
        its covariance diagonal entry, 0 where that entry is negative."""
        with np.errstate(invalid="ignore"):
            sig = np.sqrt(np.maximum(np.diag(self.covariance), 0.0))
        return {k: float(s) for k, s in zip(self.names, sig)}

    def as_vector(self) -> np.ndarray:
        return np.array([self.values[n] for n in self.names])


def lsq_minimize(
    model: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    initial: Sequence[float] | Sequence[Sequence[float]],
    *,
    names: Sequence[str],
) -> FitResult:
    """Minimize the sum of squared residuals with damped least squares.

    ``model`` maps a parameter vector to its vector of m weighted
    residuals and their Jacobian, the (m, n) matrix of partial
    derivatives, from one evaluation; ``names`` names the n parameters.
    The damping parameter is adapted multiplicatively: large damping
    makes steps gradient-descent-like, small damping Gauss-Newton-like.

    ``initial`` is one start (n values) or a (k, n) array of starts.
    Several starts are descended one after the other, in order, and the
    one that ends at the lowest cost wins; on a tie the earlier start is
    kept.  ``n_iterations``, ``converged`` and ``message`` are the
    winner's, and the covariance is computed for the winner only, from
    the Jacobian of its final point.

    Convergence is declared when the relative cost change drops below
    ``_FTOL`` or the step norm below ``_XTOL`` (relative to the parameter
    norm).  After ``_MAX_ITER`` iterations the best point found is
    returned with ``converged=False``.  Singular normal equations are
    solved in the least-squares sense and reported in ``message``.
    """
    starts = np.array(initial, dtype=float, ndmin=2)
    if starts.ndim != 2 or len(starts) == 0:
        raise ParameterError("initial must be one start vector or a (k, n) array of starts")
    n = starts.shape[1]
    names = list(names)
    if len(names) != n:
        raise ParameterError("names and initial vector disagree in length")

    best = None
    for x0 in starts:
        run = _descend(model, x0)
        if best is None or run[3] < best[3]:  # final costs; a tie keeps the earlier
            best = run
    x, r, jac, cost, n_iter, converged, message, rank_deficient = best
    m = len(r)

    hess = jac.T @ jac
    if np.linalg.matrix_rank(hess) < n:
        rank_deficient = True
        covariance = np.linalg.pinv(hess)
    else:
        try:
            covariance = np.linalg.inv(hess)
        except np.linalg.LinAlgError:
            rank_deficient = True
            covariance = np.linalg.pinv(hess)
    if rank_deficient:
        message += "; normal equations rank-deficient (covariance from pseudo-inverse)"

    chi2_red = cost / (m - n) if m > n else float("nan")
    return FitResult(
        names=names,
        values={k: float(v) for k, v in zip(names, x)},
        covariance=covariance,
        chi2_reduced=float(chi2_red),
        n_iterations=n_iter,
        converged=converged,
        message=message,
        n_points=m,
    )


def _evaluate(model, x):
    """The residuals and Jacobian of ``model`` at ``x``, as float arrays."""
    r, jac = model(x)
    return np.asarray(r, dtype=float), np.asarray(jac, dtype=float)


def _descend(model, x):
    """One Levenberg-Marquardt descent from ``x``.

    Returns the final point, its residuals, Jacobian and cost, the
    iteration count, the convergence flag and message, and whether a
    damped solve was singular.
    """
    r, jac = _evaluate(model, x)
    if not np.isfinite(r).all():
        raise FitFailureError("residuals are not finite at the initial point")
    cost = float(r @ r)

    lam = 1e-4
    rank_deficient = False
    converged = False
    message = f"iteration cap of {_MAX_ITER} reached"
    n_iter = 0

    for n_iter in range(1, _MAX_ITER + 1):
        hess = jac.T @ jac
        neg_grad = -(jac.T @ r)
        diag = hess.diagonal()
        diag_max = max(diag.max(), 1e-30)

        accepted = False
        while lam <= _MAX_DAMPING:
            damp = np.maximum(lam * diag, lam * diag_max * 1e-10)
            try:
                step = np.linalg.solve(hess + np.diag(damp), neg_grad)
            except np.linalg.LinAlgError:
                rank_deficient = True
                step = np.linalg.lstsq(hess + np.diag(damp), neg_grad, rcond=None)[0]
            x_try = x + step
            r_try, jac_try = _evaluate(model, x_try)
            if np.isfinite(r_try).all():
                cost_try = float(r_try @ r_try)
                if cost_try < cost:
                    accepted = True
                    break
            lam *= 10.0
        if not accepted:
            # no downhill direction left: treat as converged at a stationary point
            converged = True
            message = "no further cost reduction possible"
            break

        x, r, jac = x_try, r_try, jac_try
        prev_cost, cost = cost, cost_try
        lam = max(lam / 9.0, 1e-12)

        if cost == 0.0:
            converged = True
            message = "residuals vanished"
            break
        if (prev_cost - cost) < _FTOL * max(prev_cost, _TINY):
            converged = True
            message = "relative cost change below ftol"
            break
        if math.sqrt(step.dot(step)) < _XTOL * max(1.0, math.sqrt(x.dot(x))):
            converged = True
            message = "step norm below xtol"
            break
    return x, r, jac, cost, n_iter, converged, message, rank_deficient


def _logit(p):
    return np.log(p / (1.0 - p))


def _sigmoid(u):
    # the clamp keeps math.exp finite: far below -709 the result is ~1e-308
    return 1.0 / (1.0 + math.exp(min(-u, 709.0)))


def _eta_model_and_grads(p, eta_max, eta_n, length_cm):
    """sin^2 model plus derivatives w.r.t. logit(eta_max) and log(eta_n).

    Elementwise in ``p`` and ``eta_max``, which may be an array of the
    same length (one saturation value per point).
    """
    theta = length_cm * np.sqrt(eta_n * p)
    s = np.sin(theta)
    model = eta_max * s * s
    d_logit = s * s * eta_max * (1.0 - eta_max)
    d_logeta = eta_max * np.sin(2.0 * theta) * theta / 2.0
    return model, d_logit, d_logeta


def _initial_efficiency_guess(sweep: PowerSweep, length_cm: float) -> tuple[float, float]:
    """Crude (eta_max, eta_n) start: the largest observed efficiency and the
    conversion parameter implied by the position of the observed maximum."""
    eta_guess = float(np.clip(np.max(sweep.value), 1e-3, 1.0 - 1e-3))
    i_max = int(np.argmax(sweep.value))
    p_star = sweep.pump_w[i_max]
    if p_star <= 0:
        p_star = sweep.pump_w[-1]
    if i_max == len(sweep) - 1:
        # no turnover seen: assume the peak lies just beyond the scan
        p_star = 1.2 * p_star
    eta_n_guess = (np.pi / (2.0 * length_cm)) ** 2 / p_star
    return eta_guess, eta_n_guess


def fit_efficiency_shared(
    sweep_int: PowerSweep,
    sweep_ext: PowerSweep,
    length_cm: float,
) -> FitResult:
    """Joint fit of both efficiency sweeps with a shared conversion parameter.

    Fits eta_max * sin^2(L*sqrt(eta_n*P)) to the internal and external
    sweeps simultaneously; ``eta_n`` is common, the saturation values are
    separate.  Internally the fit runs in logit(eta_max) / log(eta_n)
    coordinates so the range constraints need no bounded optimizer;
    results and covariance are reported in natural units.
    """
    if len(sweep_int) < 3 or len(sweep_ext) < 3:
        raise InsufficientDataError("need at least 3 points per efficiency sweep")
    if length_cm <= 0:
        raise ParameterError("length_cm must be positive")

    # both sweeps stacked: one pump, value and sigma vector, and a mask of
    # the internal points, which take eta_max_int (the others eta_max_ext)
    p = np.concatenate([sweep_int.pump_w, sweep_ext.pump_w])
    y = np.concatenate([sweep_int.value, sweep_ext.value])
    sigma = np.concatenate([sweep_int.sigma, sweep_ext.sigma])
    n_int = len(sweep_int)
    is_int = np.arange(len(p)) < n_int

    def model(u):
        eta_max = np.where(is_int, _sigmoid(u[0]), _sigmoid(u[1]))
        eta, d_logit, d_log = _eta_model_and_grads(p, eta_max, np.exp(u[2]), length_cm)
        d_logit = -d_logit / sigma
        jac = np.zeros((len(p), 3))
        jac[:n_int, 0] = d_logit[:n_int]
        jac[n_int:, 1] = d_logit[n_int:]
        jac[:, 2] = -d_log / sigma
        return (y - eta) / sigma, jac

    # the sin^2 model has secondary cost basins when eta_n starts far off;
    # start from a small ladder of eta_n rescalings, the best one wins
    g_int, en_int = _initial_efficiency_guess(sweep_int, length_cm)
    g_ext, en_ext = _initial_efficiency_guess(sweep_ext, length_cm)
    en_start = np.sqrt(en_int * en_ext)
    starts = [[_logit(g_int), _logit(g_ext), np.log(max(en_start * factor, 1e-12))]
              for factor in (1.0, 0.25, 4.0)]
    raw = lsq_minimize(model, starts, names=["u_int", "u_ext", "log_eta_n"])

    u = raw.as_vector()
    theta = np.array([_sigmoid(u[0]), _sigmoid(u[1]), np.exp(u[2])])
    # covariance through the coordinate change, diag Jacobian
    scale = np.array([theta[0] * (1 - theta[0]), theta[1] * (1 - theta[1]), theta[2]])
    names = list(EFFICIENCY_PARAMETERS)
    return replace(
        raw,
        names=names,
        values=dict(zip(names, map(float, theta))),
        covariance=raw.covariance * np.outer(scale, scale),
    )


def _weighted_proportional_fit(basis, y, sigma, name):
    """Exact weighted fit of y = a * basis; returns a 1-parameter FitResult."""
    w = 1.0 / (sigma * sigma)
    denom = float(np.sum(w * basis * basis))
    if denom == 0.0:
        # all basis values zero: only y == 0 is consistent, report a = 0
        a, var = 0.0, float("inf")
    else:
        a = float(np.sum(w * basis * y) / denom)
        var = 1.0 / denom
    res = (y - a * basis) / sigma
    dof = len(y) - 1
    return FitResult(
        names=[name],
        values={name: a},
        covariance=np.array([[var]]),
        chi2_reduced=float(res @ res / dof) if dof > 0 else float("nan"),
        n_iterations=1,
        converged=True,
        message="closed-form weighted linear fit",
        n_points=len(y),
    )


def fit_alpha_linear(sweep: PowerSweep, length_cm: float, n_points: int = 4) -> FitResult:
    """Noise coefficient from the low-power, linear part of a noise sweep.

    Weighted zero-intercept fit of rate = alpha_n * L * P on the first
    ``n_points`` points, appropriate for detuned telecom data where the
    SFG suppression is absent.
    """
    if length_cm <= 0:
        raise ParameterError("length_cm must be positive")
    if n_points < 1 or n_points > len(sweep):
        raise InsufficientDataError(
            f"n_points={n_points} but sweep has {len(sweep)} points"
        )
    sel = slice(0, n_points)
    basis = sweep.pump_w[sel] * length_cm
    return _weighted_proportional_fit(basis, sweep.value[sel], sweep.sigma[sel], "alpha_n")


def fit_alpha_visible(
    sweep: PowerSweep,
    params: ConverterParams,
    shape_covariance: np.ndarray | None = None,
) -> FitResult:
    """Noise coefficient from a visible noise sweep with the shape fixed.

    The saturation shape P*L*(eta_max/2)*(1 - sinc(2L*sqrt(eta_n*P))) is
    fully determined by the efficiency fit; the visible data then only
    set the overall coefficient, which stays a linear parameter.

    When the shape parameters come from a fit, pass that fit's covariance
    (ordered eta_max_int, eta_max_ext, eta_n) as ``shape_covariance``:
    its contribution is propagated into the reported uncertainty, which
    otherwise reflects counting statistics only.
    """
    if len(sweep) < 2:
        raise InsufficientDataError("need at least 2 points for the visible fit")

    def alpha_for(eta_int: float, eta_n: float) -> FitResult:
        shape = sweep.pump_w * params.length_cm * suppression_depth(
            sweep.pump_w, eta_int, eta_n, params.length_cm
        )
        return _weighted_proportional_fit(shape, sweep.value, sweep.sigma, "alpha_n")

    result = alpha_for(params.eta_max_int, params.eta_n)
    if shape_covariance is None:
        return result

    # central-difference sensitivity of alpha to the shape parameters;
    # eta_max_ext never enters the visible shape, so its column is zero
    grad = np.zeros(3)
    for slot, value in ((0, params.eta_max_int), (2, params.eta_n)):
        h = 1e-6 * max(1.0, abs(value))
        if slot == 0:
            up = alpha_for(value + h, params.eta_n).values["alpha_n"]
            dn = alpha_for(value - h, params.eta_n).values["alpha_n"]
        else:
            up = alpha_for(params.eta_max_int, value + h).values["alpha_n"]
            dn = alpha_for(params.eta_max_int, value - h).values["alpha_n"]
        grad[slot] = (up - dn) / (2.0 * h)
    var_shape = float(grad @ np.asarray(shape_covariance, dtype=float) @ grad)
    var_total = result.covariance[0, 0] + max(var_shape, 0.0)
    result.covariance = np.array([[var_total]])
    return result


@dataclass
class NoiseCurves:
    """Model curves for rate-vs-power overlays, all callables of pump power in W."""

    telecom_onpeak: Callable[[np.ndarray], np.ndarray]
    telecom_detuned: Callable[[np.ndarray], np.ndarray]
    visible: Callable[[np.ndarray], np.ndarray]


def predict_noise_curves(params: ConverterParams, alpha_n_visible: float) -> NoiseCurves:
    """Forward noise-rate predictions from an already-determined parameter set.

    The telecom curves use ``params.alpha_n``; the visible curve uses
    ``alpha_n_visible`` (the visible coefficient refers to the full dip
    bandwidth rather than the telecom filter bandwidth).  Detuned from
    phase matching, no noise is converted back, so the detuned curve is
    the on-peak one of a device with zero efficiencies: the linear
    alpha_n * P * L.  No parameter is re-tuned here.
    """
    vis_params = replace(params, alpha_n=alpha_n_visible)
    detuned = replace(params, eta_max_int=0.0, eta_max_ext=0.0)
    return NoiseCurves(
        telecom_onpeak=lambda p: converter.telecom_noise_rate(params, p),
        telecom_detuned=lambda p: converter.telecom_noise_rate(detuned, p),
        visible=lambda p: converter.visible_noise_rate(vis_params, p),
    )
