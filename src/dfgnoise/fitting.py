"""Weighted least-squares machinery and the device parameter fits.

A small Levenberg-Marquardt minimizer (:func:`lsq_minimize`) drives the
spectral feature fit.  Three fits characterize a converter:

* :func:`fit_efficiency_shared` -- joint sin^2 fit of the internal and
  external efficiency sweeps with a common conversion parameter; the
  saturation values are solved in closed form, which leaves a 1-D
  search over the conversion parameter,
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
# iteration cap of both fit searches, convergence tolerances of lsq_minimize
_MAX_ITER = 200
_FTOL = 1e-10
_XTOL = 1e-12
_TINY = np.finfo(float).tiny
# the efficiency fit's grid of the phase L*sqrt(eta_n*P) at the top pump
# power: from far below the first efficiency peak (pi/2) to 6 pi
_THETA_GRID = np.geomspace(1e-3, 6.0 * np.pi, 600)
# its eta_n search stops at a step below this, relative to eta_n
_ETA_N_XTOL = 1e-10


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
    initial: Sequence[float],
    *,
    names: Sequence[str],
) -> FitResult:
    """Minimize the sum of squared residuals with damped least squares.

    ``model`` maps a parameter vector to its vector of m weighted
    residuals and their Jacobian, the (m, n) matrix of partial
    derivatives, from one evaluation; ``names`` names the n parameters,
    and ``initial`` holds their start values.  The damping parameter is
    adapted multiplicatively: large damping makes steps
    gradient-descent-like, small damping Gauss-Newton-like.  Each point
    tried is evaluated once, and the covariance comes from the Jacobian
    of the final point.

    Convergence is declared when the relative cost change drops below
    ``_FTOL`` or the step norm below ``_XTOL`` (relative to the parameter
    norm).  After ``_MAX_ITER`` iterations the best point found is
    returned with ``converged=False``.  Singular normal equations are
    solved in the least-squares sense and reported in ``message``.
    """
    x = np.array(initial, dtype=float)
    names = list(names)
    if x.ndim != 1 or len(names) != len(x):
        raise ParameterError("initial must be one start value per name")

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

    covariance, undetermined = _inverse_normal_matrix(jac)
    if rank_deficient or undetermined is not None:
        message += "; normal equations rank-deficient (covariance from pseudo-inverse)"
    m, n = len(r), len(x)
    return FitResult(
        names=names,
        values={k: float(v) for k, v in zip(names, x)},
        covariance=covariance,
        chi2_reduced=cost / (m - n) if m > n else float("nan"),
        n_iterations=n_iter,
        converged=converged,
        message=message,
        n_points=m,
    )


def _evaluate(model, x):
    """The residuals and Jacobian of ``model`` at ``x``, as float arrays."""
    r, jac = model(x)
    return np.asarray(r, dtype=float), np.asarray(jac, dtype=float)


def _inverse_normal_matrix(jac):
    """The covariance (J^T J)^-1 of a fit whose weighted residuals have the
    Jacobian ``jac``, and None; or, if J^T J is rank-deficient, its
    pseudo-inverse and the index of the parameter the data leave
    undetermined, the one that weighs most in its null direction."""
    hess = jac.T @ jac
    if np.linalg.matrix_rank(hess) == len(hess):
        try:
            return np.linalg.inv(hess), None
        except np.linalg.LinAlgError:
            pass
    null = np.linalg.eigh(hess)[1][:, 0]
    return np.linalg.pinv(hess), int(np.argmax(np.abs(null)))


def fit_efficiency_shared(
    sweep_int: PowerSweep,
    sweep_ext: PowerSweep,
    length_cm: float,
) -> FitResult:
    """Joint fit of both efficiency sweeps with a shared conversion parameter.

    Fits eta_max * sin^2(L*sqrt(eta_n*P)) to the internal and external
    sweeps simultaneously; ``eta_n`` is common, the saturation values are
    separate and enter linearly: at a given ``eta_n`` each is its own
    sweep's weighted least-squares solution, clipped to [0, 1].  That
    leaves a cost profile in ``eta_n`` alone, evaluated on the phase grid
    ``_THETA_GRID``; a Newton search polishes its lowest point between
    that point's neighbours, so no start is needed.  The covariance comes
    from the Jacobian in (eta_max_int, eta_max_ext, eta_n); when the data
    leave one of them undetermined, the fit has not converged and
    ``message`` names it.
    """
    if len(sweep_int) < 3 or len(sweep_ext) < 3:
        raise InsufficientDataError("need at least 3 points per efficiency sweep")
    if length_cm <= 0:
        raise ParameterError("length_cm must be positive")

    # both sweeps stacked, internal first: one pump vector, values and sin^2
    # basis in units of each point's sigma, and the sweep of each point
    p = np.concatenate([sweep_int.pump_w, sweep_ext.pump_w])
    inv_sigma = 1.0 / np.concatenate([sweep_int.sigma, sweep_ext.sigma])
    y = np.concatenate([sweep_int.value, sweep_ext.value]) * inv_sigma
    sweep_of = np.repeat([0, 1], [len(sweep_int), len(sweep_ext)])
    firsts = [0, len(sweep_int)]

    def profile(eta_n):
        """Residuals and saturation values at each of ``eta_n`` (one row
        each), with the unclipped solutions, the basis, the phase and each
        sweep's sum of squared basis values the search needs."""
        theta = length_cm * np.sqrt(np.multiply.outer(eta_n, p))
        basis = np.sin(theta) ** 2 * inv_sigma
        norm = np.add.reduceat(basis * basis, firsts, axis=-1)
        solved = np.divide(np.add.reduceat(basis * y, firsts, axis=-1), norm,
                           out=np.zeros_like(norm), where=norm > 0)
        eta_max = np.clip(solved, 0.0, 1.0)
        return y - eta_max[..., sweep_of] * basis, eta_max, solved, basis, theta, norm

    def point(eta_n):
        """Cost, half gradient and half Gauss-Newton curvature of the profile
        at one ``eta_n``, with its saturation values, basis and the basis'
        derivative."""
        r, eta_max, solved, basis, theta, norm = profile(eta_n)
        d_basis = np.sin(2.0 * theta) * theta / (2.0 * eta_n) * inv_sigma
        # how each saturation value off its bounds moves with eta_n
        d_eta_max = np.divide(
            np.add.reduceat((r - eta_max[sweep_of] * basis) * d_basis, firsts), norm,
            out=np.zeros(2), where=(solved > 0) & (solved < 1))
        d_r = -(eta_max[sweep_of] * d_basis + d_eta_max[sweep_of] * basis)
        return float(r @ r), float(r @ d_r), float(d_r @ d_r), (eta_max, basis, d_basis)

    grid = (_THETA_GRID / length_cm) ** 2 / p.max()
    r = profile(grid)[0]
    i = int(np.argmin(np.einsum("ij,ij->i", r, r)))
    # Newton search between the lowest grid point's neighbours (0 below the
    # grid, twice its top above): it keeps the lowest point x strictly inside
    # (lo, hi), whose ends cost at least as much.  A step downhill is kept
    # and the next takes its curvature from the secant of the gradient, or
    # from Gauss-Newton where that is not positive; a step uphill is halved,
    # and one out of (lo, hi) goes halfway to the end it heads for.
    lo, x, hi = map(float, np.r_[0.0, grid, 2.0 * grid[-1]][i:i + 3])
    cost, grad, curv, fit = point(x)
    step = -grad / curv if curv > 0 else 0.0
    n_iter = 0
    while abs(step) > _ETA_N_XTOL * x and n_iter < _MAX_ITER:
        n_iter += 1
        x_try = x + step
        if not lo < x_try < hi:
            x_try = (x + (hi if step > 0 else lo)) / 2.0
        cost_try, grad_try, curv, fit_try = point(x_try)
        if cost_try < cost:
            lo, hi = (x, hi) if x_try > x else (lo, x)
            slope = (grad_try - grad) / (x_try - x)
            curv = slope if slope > 0 else curv
            x, cost, grad, fit = x_try, cost_try, grad_try, fit_try
            step = -grad / curv if curv > 0 else 0.0
        else:
            lo, hi = (lo, x_try) if x_try > x else (x_try, hi)
            step = (x_try - x) / 2.0

    eta_max, basis, d_basis = fit
    jac = np.column_stack([-basis * (sweep_of == 0), -basis * (sweep_of == 1),
                           -eta_max[sweep_of] * d_basis])
    names = list(EFFICIENCY_PARAMETERS)
    converged = abs(step) <= _ETA_N_XTOL * x
    message = "eta_n step below xtol" if converged else f"iteration cap of {_MAX_ITER} reached"
    covariance, undetermined = _inverse_normal_matrix(jac)
    if undetermined is not None:
        converged = False
        message = (f"the data leave {names[undetermined]} undetermined (normal equations "
                   "rank-deficient, covariance from pseudo-inverse)")
    return FitResult(
        names=names,
        values=dict(zip(names, map(float, (*eta_max, x)))),
        covariance=covariance,
        chi2_reduced=cost / (len(p) - 3),
        n_iterations=n_iter,
        converged=converged,
        message=message,
        n_points=len(p),
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
