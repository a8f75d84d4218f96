"""Damped nonlinear least-squares fitting over a registry of named models.

The engine minimizes the weighted sum of squares

    cost(p) = sum_i ((y_i - model(p, x_i)) / y_err_i)^2

by iterating damped normal equations (J'J + lam * diag(J'J)) step = J'r with
a multiplicative damping schedule (lam = 1e-3 at the start, x10 on a
rejected step, /10 on an accepted one).  Using diag(J'J) rather than the
identity for the damping makes every step equivariant under per-parameter
rescaling, so fits behave identically when data and model are expressed in
rescaled units.

Convergence is declared when an accepted step reduces the cost by less than
``tol`` relatively, or when the scale-invariant gradient
max_i |g_i|/sqrt((J'J)_ii) falls below ``tol``.  A fit is ``singular`` in
two cases only: the damped steps made no progress, or the final J'J is
rank-deficient because a parameter sits at a bound with a vanishing
Jacobian column; either way every uncertainty is infinite.  Any other
rank-deficient J'J (lines that coincide, say) leaves the status alone and
gives infinite uncertainties only to the parameters its null space
touches.  Everything is pure and deterministic: identical inputs produce
bit-identical results.

Each iteration needs the Jacobian d model / d params.  Every model's one
callable, ``ModelSpec.evaluator``, gives it in closed form with the value,
one call per trial, and the accepted trial's Jacobian serves the next
iteration, the curvature and the bound check.  A trial step whose
evaluation raises ``ValueError`` or is non-finite counts as a rejected step;
only the initial guess may raise, and its error names ``init``.

The registry provides the seven named model functions used across the
toolkit, each with the layout arguments its factory takes, as name ->
(default, :class:`~snvsim.config.Domain`): ``lorentzian_multi``'s
``n_lines`` (``N_LINES``; its lines share one width) and ``reflection_dip``'s
required ``fix_f_in`` (``config.INPUT_COUPLING``, fig4b's domain).  A factory
gives its model a default start; :meth:`ModelSpec.with_init` is the one way
to set another.  Shapes owned by the physics modules are evaluated by them,
so a fitted curve and the forward model can never drift apart.

A ``snvsim fit`` request's keys are these names: ``model_args`` are checked
by the registry's domains, ``options`` by ``FitOptions.DOMAINS``, and
``init`` and ``bounds`` by :class:`ModelSpec` itself (one entry per
parameter, each bound non-empty, the start inside it).  Each refusal names
its field, and a parameter by index (``'init[1]'``), so the CLI keeps no
domain of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, Sequence

import numpy as np

from . import optical_dynamics, waveguide_qed
from .artifacts import json_number
from .config import INPUT_COUPLING, POSITIVE, Domain
from .units import TWO_PI

_UNBOUNDED = (-math.inf, math.inf)
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ModelSpec:
    """A named model function with parameter metadata.

    ``evaluator(params, x) -> (y, J)`` returns the model's values y and
    their exact Jacobian J = dy / d params, shape (x.size, n_params), in
    closed form; :func:`fit` calls it once per trial.  y must be finite on
    the data domain for any in-bounds parameter vector, and J wherever y is,
    unless the derivative itself lies beyond the float range.  ``bounds``
    are inclusive per-parameter (lo, hi) boxes; a degenerate box (lo == hi)
    freezes a parameter.
    """

    name: str
    param_names: tuple[str, ...]
    init: tuple[float, ...]
    evaluator: Callable[[np.ndarray, np.ndarray], tuple]
    bounds: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        # Each refusal names its field, and a parameter by index: they are a fit request's keys.
        model, names = f"model {self.name!r}", ", ".join(self.param_names)
        for key, given in (("init", self.init), ("bounds", self.bounds)):
            if given is not None and len(given) != len(self.param_names):
                raise ValueError(f"{model}: {key!r} must have one entry for each of {names}, "
                                 f"got {len(given)}")
        boxes = zip(self.bounds or (), self.init, self.param_names)
        for i, ((lo, hi), p0, pname) in enumerate(boxes):
            if lo > hi:
                raise ValueError(f"{model}: 'bounds[{i}]' ({pname}) is empty: [{lo}, {hi}]")
            if not lo <= p0 <= hi:
                raise ValueError(
                    f"{model}: 'init[{i}]' ({pname}) = {p0} outside 'bounds[{i}]' = [{lo}, {hi}]"
                )

    def with_init(self, init: Sequence[float]) -> "ModelSpec":
        """Copy of this model with a different initial guess."""
        return replace(self, init=tuple(float(v) for v in init))

    def bounds_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        bounds = self.bounds or tuple(_UNBOUNDED for _ in self.param_names)
        lo = np.array([b[0] for b in bounds], dtype=float)
        hi = np.array([b[1] for b in bounds], dtype=float)
        return lo, hi


@dataclass(frozen=True)
class FitOptions:
    """Iteration controls for :func:`fit`; ``DOMAINS`` holds each field's domain."""

    max_iter: int = 200
    tol: float = 1e-10
    DOMAINS: ClassVar[dict[str, Domain]] = {"max_iter": Domain(int, 1), "tol": POSITIVE}

    def __post_init__(self) -> None:
        for name, domain in self.DOMAINS.items():
            domain.check(name, getattr(self, name), "fit option")


@dataclass(frozen=True)
class FitResult:
    """Outcome of a damped least-squares fit.

    ``cost_trace`` lists the cost after the initial evaluation and after
    every accepted step (rejected proposals do not appear), so it is
    non-increasing by construction.  ``residual_norm`` is sqrt(cost).
    ``status`` is one of converged / max-iterations / singular; singular
    means the steps made no progress, or a parameter is stuck at a bound
    with a vanishing Jacobian column, and then every uncertainty is
    infinite.  Otherwise an infinite uncertainty marks a parameter in the
    null space of a rank-deficient J'J, and the others stay finite.
    ``param_names`` are the fitted model's, in ``params`` order.
    """

    params: tuple[float, ...]
    uncertainties: tuple[float, ...]
    covariance: np.ndarray
    cost: float
    residual_norm: float
    status: str
    iterations: int
    cost_trace: tuple[float, ...]
    message: str = ""
    param_names: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        """JSON-ready summary of the fit; a non-finite number becomes ``None``."""
        return {
            "params": [json_number(v) for v in self.params],
            "uncertainties": [json_number(v) for v in self.uncertainties],
            "cost": json_number(self.cost),
            "residual_norm": json_number(self.residual_norm),
            "status": self.status,
            "iterations": self.iterations,
            "message": self.message,
            "param_names": list(self.param_names),
        }


def poisson_sigma(y) -> np.ndarray:
    """Default per-point uncertainty sqrt(max(y, 1)) for Poisson count data."""
    return np.sqrt(np.maximum(np.asarray(y, dtype=float), 1.0))


def _extract_xy(data) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Accept a Spectrum-like object (.x/.y/.y_err) or an (x, y[, y_err]) tuple."""
    if hasattr(data, "x") and hasattr(data, "y"):
        x = np.asarray(data.x, dtype=float)
        y = np.asarray(data.y, dtype=float)
        y_err = getattr(data, "y_err", None)
    elif isinstance(data, (tuple, list)) and len(data) in (2, 3):
        x = np.asarray(data[0], dtype=float)
        y = np.asarray(data[1], dtype=float)
        y_err = data[2] if len(data) == 3 else None
    else:
        raise TypeError("data must expose .x/.y or be an (x, y[, y_err]) tuple")
    if y_err is not None:
        y_err = np.asarray(y_err, dtype=float)
    for name, values in (("x", x), ("y", y), ("y_err", y_err)):
        if values is not None and not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite")
    if y_err is not None and np.any(y_err <= 0.0):
        raise ValueError("y_err must be strictly positive")
    return x, y, y_err


def _checked(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("model evaluation produced non-finite values")
    return y


def _scaled_gradient_norm(gradient: np.ndarray, normal_diag: np.ndarray) -> float:
    scale = np.sqrt(np.maximum(normal_diag, 1e-300))
    return float(np.max(np.abs(gradient) / scale)) if gradient.size else 0.0


def fit(model: ModelSpec, data, options: FitOptions | None = None) -> FitResult:
    """Locally minimize the weighted sum of squared residuals.

    ``data`` is a Spectrum-like object or (x, y[, y_err]) tuple; points
    without uncertainties weight as y_err = 1.  The initial guess is
    ``model.init``, which :class:`ModelSpec` keeps in bounds; steps are
    projected back into the bounds box.
    """
    opts = options or FitOptions()
    x, y, y_err = _extract_xy(data)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if y_err is None:
        y_err = np.ones_like(y)
    n_params = len(model.param_names)
    if x.size < n_params:
        raise ValueError(f"{x.size} data points cannot constrain {n_params} parameters")

    lo, hi = model.bounds_arrays()
    params = np.asarray(model.init, dtype=float)

    def trial(p: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """Cost, residual and Jacobian at p."""
        value, jac = model.evaluator(p, x)
        residual = y - _checked(value)
        residual /= y_err
        return float(residual @ residual), residual, jac

    # _checked rejects non-finite output, so numpy's warnings add nothing.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        try:
            cost, residual, jac = trial(params)
        except ValueError as exc:  # a trial step falls back; the start has nothing to fall back to
            raise ValueError(f"model {model.name!r} at 'init' {params.tolist()}: {exc}") from None
        cost_trace = [cost]
        damping = 1e-3
        status = "max-iterations"
        message = ""
        iterations = 0

        for iterations in range(1, opts.max_iter + 1):
            jacobian = jac / y_err[:, None]
            normal = jacobian.T @ jacobian
            gradient = jacobian.T @ residual
            normal_diag = normal.diagonal().copy()

            if _scaled_gradient_norm(gradient, normal_diag) < opts.tol:
                status = "converged"
                message = "gradient below tolerance"
                break

            # Floor the Marquardt scaling so frozen/degenerate directions stay solvable.
            diag_floor = max(float(normal_diag.max()), 1e-300) * 1e-14
            scaling = np.maximum(normal_diag, diag_floor)

            stepped = False
            while True:
                damped = normal.copy()
                damped.flat[:: n_params + 1] += damping * scaling
                try:
                    step = np.linalg.solve(damped, gradient)
                except np.linalg.LinAlgError:
                    step = None
                if step is not None and np.isfinite(step).all():
                    candidate = np.minimum(np.maximum(params + step, lo), hi)
                    try:
                        new_cost, new_residual, new_jac = trial(candidate)
                    except ValueError:  # the trial left the model's domain
                        new_cost = math.inf
                    if new_cost <= cost:
                        relative_drop = (cost - new_cost) / max(cost, 1e-300)
                        params, cost, residual, jac = candidate, new_cost, new_residual, new_jac
                        cost_trace.append(cost)
                        damping = max(damping / 10.0, 1e-300)
                        stepped = True
                        if relative_drop < opts.tol:
                            status = "converged"
                            message = "relative cost reduction below tolerance"
                        break
                # Rejected, unsolvable or out-of-domain step: escalate the damping.
                damping *= 10.0
                if damping > 1e15:
                    break

            if not stepped:
                status = "singular"
                message = (
                    "normal equations remained unsolvable or made no progress up to "
                    f"damping {damping:.1e}"
                )
                break
            if status == "converged":
                break

        uncertainties, covariance, undetermined = _curvature_uncertainties(
            jac / y_err[:, None], cost
        )
        if status == "converged" and undetermined.any():
            # Clipped onto a bound where the model ignores it: zero gradient, no minimum.
            stuck = [name for i, name in enumerate(model.param_names)
                     if params[i] in (lo[i], hi[i]) and not np.any(jac[:, i])]
            if stuck:
                status = "singular"
                message = (
                    "curvature is singular at the final parameters; at a bound with a "
                    f"vanishing Jacobian column: {', '.join(stuck)}"
                )
        if status == "singular":  # no minimum was reached: nothing to take a curvature at
            uncertainties = tuple(math.inf for _ in params)
            covariance = np.full((params.size, params.size), np.inf)
    return FitResult(
        params=tuple(float(p) for p in params),
        uncertainties=uncertainties,
        covariance=covariance,
        cost=cost,
        residual_norm=math.sqrt(cost),
        status=status,
        iterations=iterations,
        cost_trace=tuple(cost_trace),
        message=message,
        param_names=model.param_names,
    )


def _curvature_uncertainties(
    jacobian: np.ndarray, cost: float
) -> tuple[tuple[float, ...], np.ndarray, np.ndarray]:
    """1-sigma uncertainties from the weighted Jacobian's normal-equations curvature.

    Returns ``(uncertainties, covariance, undetermined)``.  A rank test on the
    correlation-scaled J'J (unit diagonal, so the test does not depend on the
    parameters' units) counts an eigenvalue at or below n * eps of the largest
    as zero, the threshold of ``numpy.linalg.matrix_rank``.  A full-rank J'J
    is inverted.  Otherwise a parameter is ``undetermined`` when its share of
    the null space, divided by that threshold, exceeds the variance the other
    eigenvalues give it: a null eigenvalue anywhere below the threshold could
    then dominate its variance.  Undetermined parameters get infinite
    uncertainties and covariance rows; every other parameter gets its
    variance from the pseudo-inverse.  A zero Jacobian column is a null
    direction of its own, and a non-finite J'J leaves every parameter
    undetermined.
    """
    n_points, n_params = jacobian.shape
    normal = jacobian.T @ jacobian
    dof = max(n_points - n_params, 1)
    variance_scale = cost / dof
    scale = np.sqrt(np.diag(normal))
    if not np.isfinite(scale).all():  # |(J'J)_ij| <= scale_i scale_j bounds the rest
        undetermined = np.ones(n_params, dtype=bool)
        return (math.inf,) * n_params, np.full((n_params, n_params), np.inf), undetermined
    scale[scale == 0.0] = 1.0
    correlation = normal / np.outer(scale, scale)
    eigenvalues = np.linalg.eigvalsh(correlation)
    if eigenvalues[0] > eigenvalues[-1] * n_params * _EPS:
        covariance = variance_scale * np.linalg.inv(normal)
        undetermined = np.zeros(n_params, dtype=bool)
    else:
        eigenvalues, vectors = np.linalg.eigh(correlation)
        threshold = eigenvalues[-1] * n_params * _EPS
        null = eigenvalues <= threshold
        kept = vectors[:, ~null]
        pseudo_inverse = (kept / eigenvalues[~null]) @ kept.T
        null_share = np.sum(vectors[:, null] ** 2, axis=1)
        undetermined = null_share > threshold * np.diag(pseudo_inverse)
        covariance = variance_scale * pseudo_inverse / np.outer(scale, scale)
        covariance[undetermined, :] = np.inf
        covariance[:, undetermined] = np.inf
    uncertainties = tuple(float(v) for v in np.sqrt(np.maximum(np.diag(covariance), 0.0)))
    return uncertainties, covariance, undetermined


# --------------------------------------------------------------------------
# Model registry
# --------------------------------------------------------------------------

def lorentzian_sum(x, centers, fwhms, amplitudes, derivatives: bool = False):
    """Sum over lines k of amplitude_k / (1 + u_k^2), u_k = 2 (x - center_k) / fwhm_k.

    ``x`` is a 1-d grid; ``centers`` and ``amplitudes`` hold one entry per
    line, ``fwhms`` one per line or one shared by all.  The lines are laid
    out along the first axis of one (n_lines, x.size) array and added in
    order.  With ``derivatives`` the result is ``(sum, d_center, d_fwhm,
    d_amplitude)``, each partial of shape (n_lines, x.size), and the sum is
    bit-identical to the one without.  The partials are built from
    1/(1 + u^2) and u/(1 + u^2) = 1/(u + 1/u), both bounded by 1 for every
    u including 0 and +-inf, so none is NaN: at fwhm = 1e-300 or
    |x - center|/fwhm ~ 1e200 they only tend to 0.  A partial is at most
    ~1.3 |amplitude|/fwhm, so it can leave the float range only where that
    bound does (amplitude 1e8 at fwhm 1e-300).
    """
    x = np.asarray(x, dtype=float)
    centers = np.asarray(centers, dtype=float)[:, None]
    fwhms = np.asarray(fwhms, dtype=float)[..., None]
    amplitudes = np.asarray(amplitudes, dtype=float)[:, None]
    # u and u * u may overflow to inf; a line at u = +-inf adds its exact limit, 0.
    with np.errstate(over="ignore", divide="ignore"):
        u = 2.0 * (x - centers) / fwhms
        if not derivatives:
            return (amplitudes / (1.0 + u * u)).sum(axis=0)
        # In place to spare temporaries, by the same operations (+ and * commute
        # exactly), so the sum is the one above bit for bit.
        denominator = u * u
        denominator += 1.0
        even = 1.0 / denominator
        odd = 1.0 / u
        odd += u
        np.divide(1.0, odd, out=odd)
    # Bounded factors first: amplitude / fwhm alone may overflow where odd = 0.
    d_center = amplitudes * odd
    d_fwhm = d_center * odd
    d_center *= even
    d_center *= 4.0 / fwhms
    d_fwhm *= 2.0 / fwhms
    np.divide(amplitudes, denominator, out=denominator)
    return denominator.sum(axis=0), d_center, d_fwhm, even


def gaussian_profile(x, center: float, fwhm: float, amplitude: float):
    """Peak-normalized Gaussian with full width at half maximum ``fwhm``."""
    u = (np.asarray(x, dtype=float) - center) / fwhm
    return amplitude * np.exp(-4.0 * math.log(2.0) * u * u)


#: Line counts of a ``lorentzian_multi`` model.
N_LINES = Domain(int, 1)


def make_lorentzian_multi(n_lines: int = 1) -> ModelSpec:
    """Sum of Lorentzian lines of one homogeneous linewidth on a flat zero
    baseline (x in Hz): [fwhm, center_1, amplitude_1, ..., center_n, amplitude_n].
    """
    N_LINES.check("n_lines", n_lines, "argument")
    names = ["fwhm"]
    defaults = [70.0e6]
    bounds = [(1e-300, math.inf)]
    for i in range(1, n_lines + 1):
        names += [f"center_{i}", f"amplitude_{i}"]
        offset = (i - (n_lines + 1) / 2.0) / max(n_lines - 1, 1)
        defaults += [452.0e6 * offset, 1.0]
        bounds += [_UNBOUNDED, _UNBOUNDED]
    centers, amplitudes = slice(1, None, 2), slice(2, None, 2)

    def evaluator(params, x):
        value, d_center, d_fwhm, d_amplitude = lorentzian_sum(
            x, params[centers], params[0], params[amplitudes], derivatives=True
        )
        jac = np.empty((d_center.shape[1], params.size))
        jac[:, centers] = d_center.T
        jac[:, 0] = d_fwhm.sum(axis=0)
        jac[:, amplitudes] = d_amplitude.T
        return value, jac

    return ModelSpec(
        name="lorentzian_multi",
        param_names=tuple(names),
        init=tuple(defaults),
        evaluator=evaluator,
        bounds=tuple(bounds),
    )


def make_gaussian() -> ModelSpec:
    """Single Gaussian [center, fwhm, amplitude] (x in Hz)."""

    def evaluator(p, x):
        # u = (x - center) / fwhm is taken as 0 where the shape underflows: no inf * 0.
        shape = gaussian_profile(x, p[0], p[1], 1.0)
        u = np.where(shape > 0.0, (np.asarray(x, dtype=float) - p[0]) / p[1], 0.0)
        d_center = 8.0 * math.log(2.0) * p[2] * u * shape / p[1]
        return p[2] * shape, np.column_stack([d_center, u * d_center, shape])

    return ModelSpec(
        name="gaussian",
        param_names=("center", "fwhm", "amplitude"),
        init=(0.0, 90.0e9, 1.0),
        evaluator=evaluator,
        bounds=(_UNBOUNDED, (1e-300, math.inf), _UNBOUNDED),
    )


def make_exponential() -> ModelSpec:
    """Exponential relaxation [baseline, amplitude, tau]: y = baseline + amplitude e^(-x/tau).

    x and tau share whatever unit the caller picks (ns for optical decay,
    s for nuclear depolarization).
    """

    def evaluator(p, x):
        # d/dtau = amplitude * r e^(-r) / tau with r = x/tau; r e^(-r) is
        # written as 0 where e^(-r) underflows, so r = inf gives no inf * 0.
        # A derivative beyond the float range is inf, without a warning.
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            r = x / p[2]
            decay = np.exp(-r)
            r_decay = np.where(decay > 0.0, r * decay, 0.0)
            d_tau = p[1] * r_decay / p[2]
        return p[0] + p[1] * decay, np.column_stack([np.ones_like(x), decay, d_tau])

    return ModelSpec(
        name="exponential",
        param_names=("baseline", "amplitude", "tau"),
        init=(0.0, 1.0, 5.56),
        evaluator=evaluator,
        bounds=(_UNBOUNDED, _UNBOUNDED, (1e-300, math.inf)),
    )


def make_damped_rabi() -> ModelSpec:
    """Damped Rabi population [omega_rad_per_ns, t1_ns] (x = time in ns)."""

    def evaluator(p, x):
        # Differentiates rho = (1 - (cos(phi) + tau sin(phi) / phi) e^(-tau)) / 2 in phi = omega t
        # and tau = t / t1.  e^(-tau) multiplies t and tau first: no inf * 0 where it underflows.
        t = np.asarray(x, dtype=float)
        value = optical_dynamics.rabi_population(t * 1e-9, p[0] * 1e9, p[1] * 1e-9)
        phase, tau = p[0] * t, t / p[1]
        cos, sinc, decay = np.cos(phase), np.sinc(phase / np.pi), np.exp(-tau)
        d_omega = 0.5 * ((decay * t) * np.sin(phase) - (decay * tau) * (cos - sinc) / p[0])
        d_t1 = 0.5 * (decay * tau) * (sinc * (1.0 - tau) - cos) / p[1]
        return value, np.column_stack([d_omega, d_t1])

    return ModelSpec(
        name="damped_rabi",
        param_names=("omega_rad_per_ns", "t1_ns"),
        init=(TWO_PI * 0.230, 4.7),
        evaluator=evaluator,
        bounds=((1e-6, math.inf), (1e-6, math.inf)),
    )


def make_saturation() -> ModelSpec:
    """Fluorescence saturation [i_infinity, p_sat_pw] (x = power in pW)."""

    def evaluator(p, x):
        # d/dp_sat = -i_inf * x / (x + p_sat)^2 = -i_inf * g (1 - g) / p_sat with
        # g = x / (x + p_sat); both g and 1 - g are taken as 1 / (1 + ratio)
        # so neither cancels nor turns into inf / inf.
        power = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", divide="ignore"):
            g = 1.0 / (1.0 + p[1] / power)
            one_minus_g = 1.0 / (1.0 + power / p[1])
        value = optical_dynamics.saturation_rate(power, p[1], p[0])
        return value, np.column_stack([g, -(p[0] * g * one_minus_g) / p[1]])

    return ModelSpec(
        name="saturation",
        param_names=("i_infinity", "p_sat_pw"),
        init=(1.34e6, 120.0),
        evaluator=evaluator,
        bounds=((1e-300, math.inf), (1e-300, math.inf)),
    )


def make_reflection_dip(fix_f_in: float) -> ModelSpec:
    """Normalized reflection dip [cooperativity, gamma_h_hz] (x = detuning in Hz).

    The input-coupling ratio is constrained externally and held at ``fix_f_in``.
    """
    f_in = float(fix_f_in)
    return ModelSpec(
        name="reflection_dip",
        param_names=("cooperativity", "gamma_h_hz"),
        init=(0.027, 70.0e6),
        evaluator=lambda p, x: (
            waveguide_qed.normalized_reflection_params(x, p[0], f_in, p[1]),
            waveguide_qed.normalized_reflection_jacobian(x, p[0], f_in, p[1]),
        ),
        bounds=((0.0, math.inf), (1e-300, math.inf)),
    )


def make_contrast_saturation() -> ModelSpec:
    """Contrast roll-off [r0_contrast] vs saturation parameter (x = s)."""
    return ModelSpec(
        name="contrast_saturation",
        param_names=("r0_contrast",),
        init=(0.11,),
        evaluator=lambda p, x: (
            waveguide_qed.contrast_vs_saturation(x, p[0]),
            (1.0 / (1.0 + np.asarray(x, dtype=float)))[:, None],
        ),
        bounds=((0.0, 1.0),),
    )


def model_registry() -> dict[str, tuple[Callable[..., ModelSpec], dict]]:
    """All named model factories, keyed by registry name, each with the arguments it
    takes as a scenario's keys are given: name -> (default, domain), where a default
    of None marks an argument that must be given."""
    return {
        "lorentzian_multi": (make_lorentzian_multi, {"n_lines": (1, N_LINES)}),
        "gaussian": (make_gaussian, {}),
        "exponential": (make_exponential, {}),
        "damped_rabi": (make_damped_rabi, {}),
        "saturation": (make_saturation, {}),
        "reflection_dip": (make_reflection_dip, {"fix_f_in": (None, INPUT_COUPLING)}),
        "contrast_saturation": (make_contrast_saturation, {}),
    }
