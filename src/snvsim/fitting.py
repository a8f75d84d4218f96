"""Damped nonlinear least-squares fitting over a registry of named models.

The engine minimizes the weighted sum of squares

    cost(p) = sum_i ((y_i - model(p, x_i)) / y_err_i)^2

by iterating damped normal equations (J'J + lam * diag(J'J)) step = J'r with
a multiplicative damping schedule (x10 on a rejected step, /10 on an
accepted one).  Using diag(J'J) rather than the identity for the damping
makes every step equivariant under per-parameter rescaling, so fits behave
identically when data and model are expressed in rescaled units.

Convergence is declared when an accepted step reduces the cost by less than
``tol`` relatively, or when the scale-invariant gradient
max_i |g_i|/sqrt((J'J)_ii) falls below ``tol``.  A fit is ``singular`` in
two cases only: the damped steps made no progress, or the final J'J is
rank-deficient because a parameter sits at a bound with a vanishing
Jacobian column (then every uncertainty is infinite).  Any other
rank-deficient J'J (lines that coincide, say) leaves the status alone and
gives infinite uncertainties only to the parameters its null space
touches.  Everything is pure and deterministic: identical inputs produce
bit-identical results.

Each iteration needs the Jacobian d model / d params.  A model that
supplies ``ModelSpec.jacobian`` gives it in closed form; any other model
gets central differences (:func:`numeric_jacobian`), whose step turns
one-sided at a bound so the stencil never leaves the bounds box.  A trial
step whose evaluation raises ``ValueError`` or is non-finite counts as a
rejected step; only the initial guess may raise.

The registry provides the eight named model functions used across the
toolkit.  A factory takes layout arguments only and gives its model a
default start; :meth:`ModelSpec.with_init` is the one way to set another.
Shapes owned by the physics modules are evaluated by them, so a fitted
curve and the forward model can never drift apart.  Registry conventions:
``damped_rabi`` works in nanoseconds and ``saturation`` in picowatts, so
their parameters are O(1) or larger.  The difference step
1e-6 * max(|p|, 1) is relative only from |p| = 1 up; below that it is an
absolute 1e-6 in the parameter's own unit, which would swamp a time in
seconds or a power in watts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import optical_dynamics, spin_hamiltonian, waveguide_qed
from .units import TWO_PI

_UNBOUNDED = (-math.inf, math.inf)
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ModelSpec:
    """A named model function with parameter metadata.

    ``evaluator(params, x) -> y`` must be finite on the data domain for any
    in-bounds parameter vector.  ``bounds`` are inclusive per-parameter
    (lo, hi) boxes; a degenerate box (lo == hi) freezes a parameter.
    ``jacobian(params, x) -> (x.size, n_params)``, when given, is the exact
    d evaluator / d params that :func:`fit` uses in place of
    :func:`numeric_jacobian`; it must be finite wherever the evaluator is,
    unless the derivative itself lies beyond the float range.
    """

    name: str
    param_names: tuple[str, ...]
    init: tuple[float, ...]
    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bounds: tuple[tuple[float, float], ...] | None = None
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if len(self.init) != len(self.param_names):
            raise ValueError(
                f"model {self.name!r}: {len(self.param_names)} parameters but "
                f"{len(self.init)} initial values"
            )
        if self.bounds is not None:
            if len(self.bounds) != len(self.param_names):
                raise ValueError(f"model {self.name!r}: bounds/parameter count mismatch")
            for (lo, hi), p0, pname in zip(self.bounds, self.init, self.param_names):
                if lo > hi:
                    raise ValueError(f"model {self.name!r}: empty bounds for {pname}")
                if not lo <= p0 <= hi:
                    raise ValueError(
                        f"model {self.name!r}: initial {pname} = {p0} outside bounds [{lo}, {hi}]"
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
    """Iteration controls for :func:`fit`."""

    max_iter: int = 200
    tol: float = 1e-10
    damping_init: float = 1e-3

    def __post_init__(self) -> None:
        if self.max_iter < 1 or self.tol <= 0.0 or self.damping_init <= 0.0:
            raise ValueError("max_iter >= 1, tol > 0 and damping_init > 0 required")


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
            "params": [_finite_or_none(v) for v in self.params],
            "uncertainties": [_finite_or_none(v) for v in self.uncertainties],
            "cost": _finite_or_none(self.cost),
            "residual_norm": _finite_or_none(self.residual_norm),
            "status": self.status,
            "iterations": self.iterations,
            "message": self.message,
            "param_names": list(self.param_names),
        }


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


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
        if np.any(y_err <= 0.0):
            raise ValueError("y_err must be strictly positive")
    return x, y, y_err


def _checked_eval(evaluator, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    y = np.asarray(evaluator(params, x), dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError(
            f"model evaluation produced non-finite values at parameters {params.tolist()}"
        )
    return y


def numeric_jacobian(
    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray],
    params,
    x,
    step_scale: float = 1e-6,
    bounds: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Central-difference Jacobian d model / d params on the grid ``x``.

    Per-parameter step h_i = step_scale * max(|p_i|, 1); the truncation
    error of each entry is O(h_i^2).  With ``bounds`` = (lo, hi) a stencil
    point beyond a bound is pulled back onto it, so within h_i of a bound
    the difference is one-sided (error O(h_i)) and every evaluation stays
    in the box.  A frozen parameter (lo == hi) keeps the central stencil.
    """
    p = np.asarray(params, dtype=float)
    x = np.asarray(x, dtype=float)
    if bounds is None:
        bounds = (np.full(p.size, -math.inf), np.full(p.size, math.inf))
    lo, hi = bounds
    jacobian = np.empty((x.size, p.size))
    for i in range(p.size):
        h = step_scale * max(abs(p[i]), 1.0)
        up, down, span = p[i] + h, p[i] - h, 2.0 * h
        if lo[i] < hi[i] and (up > hi[i] or down < lo[i]):
            up, down = min(up, hi[i]), max(down, lo[i])
            span = up - down
        p_hi = p.copy()
        p_lo = p.copy()
        p_hi[i] = up
        p_lo[i] = down
        jacobian[:, i] = (_checked_eval(evaluator, p_hi, x) - _checked_eval(evaluator, p_lo, x)) / span
    return jacobian


def _jacobian(model: ModelSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The model's own Jacobian if it has one, else central differences in its bounds."""
    if model.jacobian is not None:
        return model.jacobian(params, x)
    return numeric_jacobian(model.evaluator, params, x, bounds=model.bounds_arrays())


def _scaled_gradient_norm(gradient: np.ndarray, normal_diag: np.ndarray) -> float:
    scale = np.sqrt(np.maximum(normal_diag, 1e-300))
    return float(np.max(np.abs(gradient) / scale)) if gradient.size else 0.0


def fit(model: ModelSpec, data, options: FitOptions | None = None) -> FitResult:
    """Locally minimize the weighted sum of squared residuals.

    ``data`` is a Spectrum-like object or (x, y[, y_err]) tuple; points
    without uncertainties weight as y_err = 1.  The initial guess is
    ``model.init`` and must be in bounds; steps are projected back into the
    bounds box.
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
    if np.any(params < lo) or np.any(params > hi):
        raise ValueError(f"initial guess {params.tolist()} outside bounds")

    def cost_of(p: np.ndarray) -> tuple[float, np.ndarray]:
        residual = (y - _checked_eval(model.evaluator, p, x)) / y_err
        return float(residual @ residual), residual

    # _checked_eval rejects non-finite output, so numpy's warnings add nothing.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        cost, residual = cost_of(params)
        cost_trace = [cost]
        damping = opts.damping_init
        status = "max-iterations"
        message = ""
        iterations = 0

        for iterations in range(1, opts.max_iter + 1):
            jacobian = _jacobian(model, params, x) / y_err[:, None]
            normal = jacobian.T @ jacobian
            gradient = jacobian.T @ residual
            normal_diag = np.diag(normal).copy()

            if _scaled_gradient_norm(gradient, normal_diag) < opts.tol:
                status = "converged"
                message = "gradient below tolerance"
                break

            # Floor the Marquardt scaling so frozen/degenerate directions stay solvable.
            diag_floor = max(float(normal_diag.max()), 1e-300) * 1e-14
            scaling = np.maximum(normal_diag, diag_floor)

            stepped = False
            while True:
                try:
                    step = np.linalg.solve(normal + damping * np.diag(scaling), gradient)
                except np.linalg.LinAlgError:
                    step = None
                if step is not None and np.all(np.isfinite(step)):
                    candidate = np.clip(params + step, lo, hi)
                    try:
                        new_cost, new_residual = cost_of(candidate)
                    except ValueError:  # the trial left the model's domain
                        new_cost = math.inf
                    if new_cost <= cost:
                        relative_drop = (cost - new_cost) / max(cost, 1e-300)
                        params, cost, residual = candidate, new_cost, new_residual
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
            model, params, x, y_err, cost
        )
        if status == "converged" and undetermined.any():
            # Clipped onto a bound where the model ignores it: zero gradient, no minimum.
            jacobian = _jacobian(model, params, x)
            stuck = [name for i, name in enumerate(model.param_names)
                     if params[i] in (lo[i], hi[i]) and not np.any(jacobian[:, i])]
            if stuck:
                status = "singular"
                message = (
                    "curvature is singular at the final parameters; at a bound with a "
                    f"vanishing Jacobian column: {', '.join(stuck)}"
                )
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
    model: ModelSpec,
    params: np.ndarray,
    x: np.ndarray,
    y_err: np.ndarray,
    cost: float,
) -> tuple[tuple[float, ...], np.ndarray, np.ndarray]:
    """1-sigma uncertainties from the residual-weighted normal-equations curvature.

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
    n_params = params.size
    jacobian = _jacobian(model, params, x) / y_err[:, None]
    normal = jacobian.T @ jacobian
    dof = max(x.size - n_params, 1)
    variance_scale = cost / dof
    scale = np.sqrt(np.diag(normal))
    if not np.all(np.isfinite(scale)):  # |(J'J)_ij| <= scale_i scale_j bounds the rest
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
    order.  With ``derivatives`` the result is the partials ``(d_center,
    d_fwhm, d_amplitude)`` in place of the sum, each of shape (n_lines,
    x.size); a Jacobian needs no sum, so none is formed.  The partials
    are built from 1/(1 + u^2) and u/(1 + u^2) = 1/(u + 1/u), both bounded
    by 1 for every u including 0 and +-inf, so none is NaN: at fwhm = 1e-300
    or |x - center|/fwhm ~ 1e200 they only tend to 0.  A partial is at most
    ~1.3 |amplitude|/fwhm, so it can leave the float range only where that
    bound does (amplitude 1e8 at fwhm 1e-300).
    """
    x = np.asarray(x, dtype=float)
    centers = np.asarray(centers, dtype=float)[:, None]
    fwhms = np.asarray(fwhms, dtype=float)[..., None]
    amplitudes = np.asarray(amplitudes, dtype=float)[:, None]
    u = 2.0 * (x - centers) / fwhms
    if not derivatives:
        return (amplitudes / (1.0 + u * u)).sum(axis=0)
    with np.errstate(over="ignore", divide="ignore"):
        even = 1.0 / (1.0 + u * u)
        odd = 1.0 / (u + 1.0 / u)
    # Bounded factors first: amplitude / fwhm alone may overflow where odd = 0.
    d_center = amplitudes * odd * even * (4.0 / fwhms)
    d_fwhm = amplitudes * odd * odd * (2.0 / fwhms)
    return d_center, d_fwhm, even


def gaussian_profile(x, center: float, fwhm: float, amplitude: float):
    """Peak-normalized Gaussian with full width at half maximum ``fwhm``."""
    u = (np.asarray(x, dtype=float) - center) / fwhm
    return amplitude * np.exp(-4.0 * math.log(2.0) * u * u)


def make_lorentzian_multi(n_lines: int = 1, shared_fwhm: bool = True) -> ModelSpec:
    """Sum of Lorentzian lines on a flat zero baseline (x in Hz).

    Shared-width layout (default, one homogeneous linewidth):
    [fwhm, center_1, amplitude_1, ..., center_n, amplitude_n];
    independent-width layout: [center_i, fwhm_i, amplitude_i] per line.
    """
    if n_lines < 1:
        raise ValueError(f"n_lines must be >= 1, got {n_lines}")
    if shared_fwhm:
        names = ["fwhm"]
        defaults = [70.0e6]
        bounds = [(1e-300, math.inf)]
        for i in range(1, n_lines + 1):
            names += [f"center_{i}", f"amplitude_{i}"]
            offset = (i - (n_lines + 1) / 2.0) / max(n_lines - 1, 1)
            defaults += [452.0e6 * offset, 1.0]
            bounds += [_UNBOUNDED, _UNBOUNDED]
        centers, fwhms, amplitudes = slice(1, None, 2), 0, slice(2, None, 2)
    else:
        names, defaults, bounds = [], [], []
        for i in range(1, n_lines + 1):
            names += [f"center_{i}", f"fwhm_{i}", f"amplitude_{i}"]
            offset = (i - (n_lines + 1) / 2.0) / max(n_lines - 1, 1)
            defaults += [452.0e6 * offset, 70.0e6, 1.0]
            bounds += [_UNBOUNDED, (1e-300, math.inf), _UNBOUNDED]
        centers, fwhms, amplitudes = slice(0, None, 3), slice(1, None, 3), slice(2, None, 3)

    def evaluator(params, x):
        return lorentzian_sum(x, params[centers], params[fwhms], params[amplitudes])

    def jacobian(params, x):
        d_center, d_fwhm, d_amplitude = lorentzian_sum(
            x, params[centers], params[fwhms], params[amplitudes], derivatives=True
        )
        jac = np.empty((d_center.shape[1], params.size))
        jac[:, centers] = d_center.T
        jac[:, fwhms] = d_fwhm.sum(axis=0) if shared_fwhm else d_fwhm.T
        jac[:, amplitudes] = d_amplitude.T
        return jac

    return ModelSpec(
        name="lorentzian_multi",
        param_names=tuple(names),
        init=tuple(defaults),
        evaluator=evaluator,
        bounds=tuple(bounds),
        jacobian=jacobian,
    )


def make_gaussian() -> ModelSpec:
    """Single Gaussian [center, fwhm, amplitude] (x in Hz)."""
    return ModelSpec(
        name="gaussian",
        param_names=("center", "fwhm", "amplitude"),
        init=(0.0, 90.0e9, 1.0),
        evaluator=lambda p, x: gaussian_profile(x, p[0], p[1], p[2]),
        bounds=(_UNBOUNDED, (1e-300, math.inf), _UNBOUNDED),
    )


def make_exponential() -> ModelSpec:
    """Exponential relaxation [baseline, amplitude, tau]: y = baseline + amplitude e^(-x/tau).

    x and tau share whatever unit the caller picks (ns for optical decay,
    s for nuclear depolarization).
    """

    def evaluator(p, x):
        return p[0] + p[1] * np.exp(-np.asarray(x, dtype=float) / p[2])

    def jacobian(p, x):
        # d/dtau = amplitude * r e^(-r) / tau with r = x/tau; r e^(-r) is
        # written as 0 where e^(-r) underflows, so r = inf gives no inf * 0.
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            r = x / p[2]
            decay = np.exp(-r)
            r_decay = np.where(decay > 0.0, r * decay, 0.0)
        return np.column_stack([np.ones_like(x), decay, p[1] * r_decay / p[2]])

    return ModelSpec(
        name="exponential",
        param_names=("baseline", "amplitude", "tau"),
        init=(0.0, 1.0, 5.56),
        evaluator=evaluator,
        bounds=(_UNBOUNDED, _UNBOUNDED, (1e-300, math.inf)),
        jacobian=jacobian,
    )


def make_damped_rabi() -> ModelSpec:
    """Damped Rabi population [omega_rad_per_ns, t1_ns] (x = time in ns)."""
    return ModelSpec(
        name="damped_rabi",
        param_names=("omega_rad_per_ns", "t1_ns"),
        init=(TWO_PI * 0.230, 4.7),
        evaluator=lambda p, x: optical_dynamics.rabi_population(
            np.asarray(x, dtype=float) * 1e-9, p[0] * 1e9, p[1] * 1e-9
        ),
        bounds=((1e-6, math.inf), (1e-6, math.inf)),
    )


def make_saturation() -> ModelSpec:
    """Fluorescence saturation [i_infinity, p_sat_pw] (x = power in pW)."""

    def jacobian(p, x):
        # d/dp_sat = -i_inf * x / (x + p_sat)^2 = -i_inf * g (1 - g) / p_sat with
        # g = x / (x + p_sat); both g and 1 - g are taken as 1 / (1 + ratio)
        # so neither cancels nor turns into inf / inf.
        power = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", divide="ignore"):
            g = 1.0 / (1.0 + p[1] / power)
            one_minus_g = 1.0 / (1.0 + power / p[1])
        return np.column_stack([g, -(p[0] * g * one_minus_g) / p[1]])

    return ModelSpec(
        name="saturation",
        param_names=("i_infinity", "p_sat_pw"),
        init=(1.34e6, 120.0),
        evaluator=lambda p, x: optical_dynamics.saturation_rate(x, p[1], p[0]),
        bounds=((1e-300, math.inf), (1e-300, math.inf)),
        jacobian=jacobian,
    )


def make_abs_cosine() -> ModelSpec:
    """Rectified cosine [amplitude, phi0]: y = |amplitude cos(x + phi0)| (x in rad)."""
    return ModelSpec(
        name="abs_cosine",
        param_names=("amplitude", "phi0"),
        init=(5.41, 0.0),
        evaluator=lambda p, x: spin_hamiltonian.angular_splitting_rate(p[0], p[1], x),
        bounds=((0.0, math.inf), (-TWO_PI, TWO_PI)),
    )


def make_reflection_dip(fix_f_in: float | None = None) -> ModelSpec:
    """Normalized reflection dip (x = detuning in Hz).

    Full layout [cooperativity, f_in, gamma_h_hz]; passing ``fix_f_in``
    removes the input-coupling ratio from the fit (it is usually
    constrained externally) leaving [cooperativity, gamma_h_hz].
    """
    if fix_f_in is None:
        return ModelSpec(
            name="reflection_dip",
            param_names=("cooperativity", "f_in", "gamma_h_hz"),
            init=(0.027, 0.95, 70.0e6),
            evaluator=lambda p, x: waveguide_qed.normalized_reflection_params(x, p[0], p[1], p[2]),
            bounds=((0.0, math.inf), (0.500001, 1.0), (1e-300, math.inf)),
        )
    f_in = float(fix_f_in)
    return ModelSpec(
        name="reflection_dip",
        param_names=("cooperativity", "gamma_h_hz"),
        init=(0.027, 70.0e6),
        evaluator=lambda p, x: waveguide_qed.normalized_reflection_params(x, p[0], f_in, p[1]),
        bounds=((0.0, math.inf), (1e-300, math.inf)),
    )


def make_contrast_saturation() -> ModelSpec:
    """Contrast roll-off [r0_contrast] vs saturation parameter (x = s)."""
    return ModelSpec(
        name="contrast_saturation",
        param_names=("r0_contrast",),
        init=(0.11,),
        evaluator=lambda p, x: waveguide_qed.contrast_vs_saturation(x, p[0]),
        bounds=((0.0, 1.0),),
    )


def model_registry() -> dict[str, Callable[..., ModelSpec]]:
    """All named model factories, keyed by registry name."""
    return {
        "lorentzian_multi": make_lorentzian_multi,
        "gaussian": make_gaussian,
        "exponential": make_exponential,
        "damped_rabi": make_damped_rabi,
        "saturation": make_saturation,
        "abs_cosine": make_abs_cosine,
        "reflection_dip": make_reflection_dip,
        "contrast_saturation": make_contrast_saturation,
    }
