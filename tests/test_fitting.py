"""Damped least-squares engine and model registry.

Dual routes:
- the central-difference oracle vs hand-coded analytic Lorentzian derivatives,
- each registry model's closed-form Jacobian vs the central-difference oracle
  on its own values,
- the hand-rolled minimizer vs scipy.optimize.curve_fit on the same data,
- curvature covariance vs explicit weighted normal equations for a line.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit

from oracles import (
    central_difference_rounding,
    lorentzian,
    lorentzian_shared_jacobian,
    numeric_jacobian,
    weighted_linear_covariance,
)
from snvsim import optical_dynamics, spin_hamiltonian, waveguide_qed
from snvsim.fitting import (
    FitOptions,
    FitResult,
    ModelSpec,
    fit,
    gaussian_profile,
    make_contrast_saturation,
    make_damped_rabi,
    make_exponential,
    make_gaussian,
    make_lorentzian_multi,
    make_reflection_dip,
    make_saturation,
    model_registry,
    poisson_sigma,
)
from snvsim.spectra import SpectralLine, frequency_grid, synthesize_spectrum
from snvsim.units import TWO_PI


def _doublet_data(noise: float = 0.05, seed: int = 77):
    x = np.arange(-800e6, 800e6 + 1.0, 2e6)
    lines = [
        SpectralLine(center_hz=-226e6, fwhm_hz=70e6, amplitude=1.0),
        SpectralLine(center_hz=+226e6, fwhm_hz=70e6, amplitude=1.0),
    ]
    return synthesize_spectrum(lines, x, noise_sigma=noise, seed=seed)


DOUBLET_INIT = (80e6, -200e6, 0.9, 210e6, 1.1)


def _values(model: ModelSpec):
    """The model's values alone, as the central-difference oracle differentiates them."""
    return lambda p, x: model.evaluator(p, x)[0]


def _assert_monotonic_trace(result: FitResult) -> None:
    trace = np.asarray(result.cost_trace)
    assert np.all(np.diff(trace) <= 0.0), "accepted steps must never increase the cost"


# --------------------------------------------------------------------------
# Core engine behavior
# --------------------------------------------------------------------------

def test_exact_data_converges_immediately():
    model = make_lorentzian_multi(2).with_init([70e6, -226e6, 1.0, 226e6, 1.0])
    x = np.arange(-800e6, 800e6 + 1.0, 2e6)
    y, _ = model.evaluator(np.asarray(model.init), x)
    result = fit(model, (x, y))
    assert result.status == "converged"
    assert result.iterations <= 2
    assert result.cost < 1e-18
    assert result.residual_norm < 1e-9
    assert result.params == model.init


def test_doublet_round_trip_recovers_centers_and_width():
    spectrum = _doublet_data()
    model = make_lorentzian_multi(2).with_init(DOUBLET_INIT)
    result = fit(model, spectrum)
    assert result.status == "converged"
    _assert_monotonic_trace(result)
    fwhm, c1, _, c2, _ = result.params
    assert abs(c1 - (-226e6)) < 2e6
    assert abs(c2 - (+226e6)) < 2e6
    assert abs(fwhm - 70e6) / 70e6 < 0.05
    assert all(u >= 0.0 for u in result.uncertainties)
    assert result.param_names == model.param_names
    assert result.as_dict()["param_names"] == list(model.param_names)


def test_engine_agrees_with_scipy_curve_fit():
    spectrum = _doublet_data()
    model = make_lorentzian_multi(2).with_init(DOUBLET_INIT)
    ours = fit(model, spectrum)

    def shape(x, w, c1, a1, c2, a2):
        return model.evaluator(np.array([w, c1, a1, c2, a2]), x)[0]

    theirs, _ = curve_fit(
        shape,
        spectrum.x,
        spectrum.y,
        p0=np.asarray(DOUBLET_INIT),
        sigma=spectrum.y_err,
        absolute_sigma=False,
        maxfev=10000,
    )
    assert np.allclose(ours.params, theirs, rtol=1e-6)


def test_damped_rabi_round_trip():
    omega_true = TWO_PI * 0.230  # rad/ns
    t1_true = 4.7  # ns
    t_ns = np.linspace(0.0, 15.0, 301)
    clean = optical_dynamics.rabi_population(t_ns * 1e-9, omega_true * 1e9, t1_true * 1e-9)
    rng = np.random.default_rng(88)
    y = clean + rng.normal(0.0, 0.03, size=t_ns.size)
    result = fit(make_damped_rabi().with_init((TWO_PI * 0.2, 6.0)), (t_ns, y))
    assert result.status == "converged"
    omega_fit, t1_fit = result.params
    assert abs(omega_fit - omega_true) / omega_true < 0.02
    assert abs(t1_fit - t1_true) / t1_true < 0.10


def test_deterministic_bit_identical_reruns():
    spectrum = _doublet_data()
    model = make_lorentzian_multi(2).with_init(DOUBLET_INIT)
    first = fit(model, spectrum)
    second = fit(model, spectrum)
    assert first.params == second.params
    assert first.uncertainties == second.uncertainties
    assert first.cost == second.cost
    assert first.cost_trace == second.cost_trace
    assert first.iterations == second.iterations
    assert np.array_equal(first.covariance, second.covariance)


def test_scale_equivariance_of_data_and_weights():
    """Scaling y and y_err by c rescales amplitudes by c and nothing else."""
    spectrum = _doublet_data()
    model = make_lorentzian_multi(2).with_init(DOUBLET_INIT)
    base = fit(model, spectrum)

    c = 4.0
    scaled_model = model.with_init([80e6, -200e6, 0.9 * c, 210e6, 1.1 * c])
    scaled = fit(scaled_model, (spectrum.x, c * spectrum.y, c * spectrum.y_err))

    # Equivariance is exact in exact arithmetic.  The Lorentzian Jacobian is
    # analytic, but the normal-equations solve has weighted columns spanning
    # ~8 orders of magnitude, and its rounding leaves ~3e-10 of scatter.
    # 1e-8 keeps a 30x margin over the observed worst case.
    shape_idx = [0, 1, 3]  # fwhm and the two centers
    amplitude_idx = [2, 4]
    for i in shape_idx:
        assert abs(scaled.params[i] - base.params[i]) <= 1e-8 * abs(base.params[i])
        assert abs(scaled.uncertainties[i] - base.uncertainties[i]) <= 1e-8 * base.uncertainties[i]
    for i in amplitude_idx:
        assert abs(scaled.params[i] - c * base.params[i]) <= 1e-8 * c * abs(base.params[i])
        assert (
            abs(scaled.uncertainties[i] - c * base.uncertainties[i])
            <= 1e-8 * c * base.uncertainties[i]
        )


def test_weight_only_scaling_leaves_everything_unchanged():
    spectrum = _doublet_data()
    model = make_lorentzian_multi(2).with_init(DOUBLET_INIT)
    base = fit(model, spectrum)
    scaled = fit(model, (spectrum.x, spectrum.y, 2.0 * spectrum.y_err))
    assert np.allclose(scaled.params, base.params, rtol=1e-10)
    assert np.allclose(scaled.uncertainties, base.uncertainties, rtol=1e-8)


# --------------------------------------------------------------------------
# Jacobians
# --------------------------------------------------------------------------

def test_jacobian_of_linear_model_is_design_matrix():
    def evaluator(p, x):
        return p[0] + p[1] * x + p[2] * x**2

    x = np.linspace(-2.0, 2.0, 41)
    jac = numeric_jacobian(evaluator, [0.3, -1.2, 2.5], x)
    design = np.column_stack([np.ones_like(x), x, x**2])
    # Central differences cancel ~ulp(f)/(2h) ~ 1e-9 here; 1e-8 leaves margin
    # while staying 100x below the 1e-6 accuracy the fit engine relies on.
    assert np.allclose(jac, design, rtol=0.0, atol=1e-8)


@given(
    st.floats(min_value=0.5, max_value=5.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_jacobian_matches_analytic_lorentzian_derivatives(w, c, a):
    model = make_lorentzian_multi(1)
    x = np.linspace(-8.0, 8.0, 81)
    numeric = numeric_jacobian(_values(model), [w, c, a], x)
    analytic = lorentzian_shared_jacobian([w, c, a], x)
    scale = np.abs(analytic).max()
    assert np.allclose(numeric, analytic, rtol=1e-6, atol=1e-6 * scale)


def test_jacobian_truncation_error_is_second_order():
    model = make_lorentzian_multi(1)
    params = [2.0, 0.3, 1.5]
    x = np.linspace(-5.0, 5.0, 51)
    analytic = lorentzian_shared_jacobian(params, x)
    err_h = np.abs(numeric_jacobian(_values(model), params, x, step_scale=1e-3) - analytic).max()
    err_half = np.abs(
        numeric_jacobian(_values(model), params, x, step_scale=5e-4) - analytic
    ).max()
    assert 2.5 < err_h / err_half < 6.0  # halving the step cuts the error ~4x


def test_numeric_jacobian_steps_one_sided_at_a_bound():
    def evaluator(p, x):
        if p[0] < 0.0:
            raise ValueError("outside the model's domain")
        return np.sqrt(p[0] + 1.0) * x

    x = np.linspace(0.0, 1.0, 11)
    bounds = (np.array([0.0]), np.array([math.inf]))
    with pytest.raises(ValueError):  # the central stencil steps to -1e-6
        numeric_jacobian(evaluator, [0.0], x)
    jac = numeric_jacobian(evaluator, [0.0], x, bounds=bounds)
    # One-sided: first-order error ~ h |f''| / 2 = 1e-6 / 8.
    assert np.allclose(jac[:, 0], 0.5 * x, rtol=0.0, atol=1e-6)


# Every registry model, with parameters on an O(1) scale so the central
# differences it is checked against are accurate to ~1e-9.  A model without a
# case here is a KeyError, so a new registry model cannot go unchecked.
GRID = np.linspace(-8.0, 8.0, 81)
REAL = st.floats(min_value=-3.0, max_value=3.0)
WIDTH = st.floats(min_value=0.5, max_value=5.0)
HEIGHT = st.floats(min_value=0.1, max_value=10.0)


def _lorentzian_case(draw):
    n_lines = draw(st.integers(min_value=1, max_value=4))
    params = [draw(WIDTH)] + [draw(s) for _ in range(n_lines) for s in (REAL, HEIGHT)]
    return make_lorentzian_multi(n_lines), params, GRID


CASES = {
    "lorentzian_multi": _lorentzian_case,
    "gaussian": lambda draw: (make_gaussian(), [draw(REAL), draw(WIDTH), draw(HEIGHT)], GRID),
    "exponential": lambda draw: (
        make_exponential(),
        [draw(REAL), draw(HEIGHT), draw(st.floats(min_value=0.5, max_value=20.0))],
        np.linspace(0.0, 20.0, 81),
    ),
    "damped_rabi": lambda draw: (
        make_damped_rabi(),
        [draw(st.floats(0.3, 3.0)), draw(st.floats(0.5, 20.0))],
        np.linspace(0.0, 15.0, 81),
    ),
    "saturation": lambda draw: (
        make_saturation(),
        [draw(st.floats(min_value=0.5, max_value=5e6)), draw(st.floats(1.0, 1e3))],
        np.geomspace(1.0, 2000.0, 81),
    ),
    "reflection_dip": lambda draw: (
        make_reflection_dip(fix_f_in=draw(st.floats(0.55, 0.99))),
        [draw(st.floats(0.01, 3.0)), draw(WIDTH)],
        GRID,
    ),
    "contrast_saturation": lambda draw: (
        make_contrast_saturation(), [draw(st.floats(0.01, 0.99))], np.linspace(0.0, 10.0, 81)
    ),
}


@st.composite
def _model_with_params(draw):
    model, params, x = CASES[draw(st.sampled_from(sorted(model_registry())))](draw)
    return model, np.array(params), x


# On f_in = (1 + C) / (2 + C) the reflection dip is 1 at every detuning, so its
# gamma_h column vanishes and both routes give rounding noise there.  A column
# whose 1e-6 relative bound lies below the oracle's rounding floor is checked
# against that floor instead.  The evaluators' rounding reaches 21x the
# eps |y| / h estimate (the reflection dip on that curve), hence 64.
ROUNDING_MARGIN = 64.0


@settings(max_examples=200)
@given(case=_model_with_params())
@example(case=(make_reflection_dip(fix_f_in=0.6179), np.array([0.6171875, 1.0]), GRID))
def test_closed_form_jacobians_match_central_differences(case):
    model, params, x = case
    value, analytic = model.evaluator(params, x)
    numeric = numeric_jacobian(_values(model), params, x, bounds=model.bounds_arrays())
    assert analytic.shape == (x.size, params.size)
    column_scale = np.abs(analytic).max(axis=0)
    floor = ROUNDING_MARGIN * central_difference_rounding(value, params)
    assert np.all(np.abs(analytic - numeric) <= np.maximum(1e-6 * column_scale, floor))


@given(
    st.floats(min_value=0.5, max_value=5.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_shared_lorentzian_jacobian_matches_the_oracle(w, c, a):
    x = np.linspace(-8.0, 8.0, 81)
    _, analytic = make_lorentzian_multi(1).evaluator(np.array([w, c, a]), x)
    oracle = lorentzian_shared_jacobian([w, c, a], x)
    assert np.allclose(analytic, oracle, rtol=1e-10, atol=1e-10 * np.abs(oracle).max())


@pytest.mark.parametrize(
    "model, params, x",
    [
        # fwhm at its lower bound: u = 0, 2 and ~2e300 on one grid.
        (make_lorentzian_multi(2), [1e-300, 0.0, 1.0, 1e-6, 2.0], [-1.0, 0.0, 1e-300, 1e-6, 1.0]),
        # |x - c| / fwhm ~ 1e200, and beyond the float range (u = inf).
        (make_lorentzian_multi(1), [1e-100, 0.0, 1.0], [-1e100, 0.0, 1e100, 1e300]),
        (make_exponential(), [0.5, 2.0, 1e-300], [0.0, 1e-300, 1.0, 1e10]),
        (make_saturation(), [1e6, 1e-300], [1e-300, 1.0, 1e300]),
        # fwhm at its lower bound, and (x - center) / fwhm beyond the float range.
        (make_gaussian(), [0.0, 1e-300, 1.0], [-1e10, 0.0, 1e-300, 1.0]),
        # Both at their lower bounds: e^(-t / t1) underflows where t / t1 is ~1e306.
        (make_damped_rabi(), [1e-6, 1e-6], [0.0, 1e-300, 1.0, 1e300]),
        # gamma_h at its lower bound: 2 delta / gamma_h overflows to inf.
        (make_reflection_dip(fix_f_in=0.500001), [0.0, 1e-300], [-1e10, 0.0, 1e-300, 1e10]),
        (make_reflection_dip(fix_f_in=1.0), [1e300, 1.0], [-1.0, 0.0, 1.0]),
        (make_contrast_saturation(), [1.0], [0.0, 1e-300, 1e300]),
        # p_sat / p overflows to inf at the smallest power: the rate's limit, 0.
        (make_saturation(), [1e6, 1e300], [1e-300, 1.0, 1e300]),
    ],
)
def test_closed_form_jacobians_are_finite_where_the_model_is(model, params, x):
    params, x = np.array(params), np.array(x)
    with np.errstate(over="ignore", divide="ignore"):  # u itself may overflow to inf
        value, jacobian = model.evaluator(params, x)
    assert np.all(np.isfinite(value))
    assert np.all(np.isfinite(jacobian))


# A fit of each model that reaches fit() through a scenario: (model, truth, x), fitted
# to the truth plus a smooth misfit at a tenth of its scale.
SCENARIO_FITS = {
    "quartet": (
        make_lorentzian_multi(n_lines=4),
        [60e6, -186e6, 1.0, -115e6, 1.0, 115e6, 1.0, 186e6, 1.0],
        np.linspace(-800e6, 800e6, 401),
    ),
    "fig1d": (
        make_gaussian().with_init((0.0, 90e9, 100.0)),
        [5e9, 110e9, 120.0],
        np.linspace(-300e9, 300e9, 61),
    ),
    "fig4b": (
        make_reflection_dip(fix_f_in=0.95).with_init((0.05, 100.0e6)),
        [0.027, 70e6],
        np.arange(-500e6, 500e6 + 1.0, 2e6),
    ),
    "fig4c": (make_contrast_saturation().with_init((0.05,)), [0.11], np.geomspace(0.01, 10.0, 25)),
    "rabi": (
        make_damped_rabi().with_init((TWO_PI * 0.2, 6.0)),
        [TWO_PI * 0.23, 4.7],
        np.linspace(0.0, 15.0, 301),
    ),
}


@pytest.mark.parametrize("case", sorted(SCENARIO_FITS))
def test_a_fit_makes_one_model_call_per_trial_and_none_after_the_loop(monkeypatch, case):
    calls, trials = [], []
    base, truth, x = SCENARIO_FITS[case]
    solve = np.linalg.solve

    def counting_solve(*args):
        step = solve(*args)
        trials.append(np.isfinite(step).all())  # a finite step is tried
        return step

    def counting(p, x):
        calls.append(p.copy())
        return base.evaluator(p, x)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    y, _ = base.evaluator(np.array(truth), x)
    model = replace(base, evaluator=counting)
    result = fit(model, (x, y + 0.1 * np.abs(y).max() * np.sin(x / (x.max() / 20.0))))
    assert result.status == "converged"
    assert len(calls) == 1 + sum(trials)
    if case in ("quartet", "rabi"):
        assert len(calls) > len(result.cost_trace)  # some trials were rejected


# --------------------------------------------------------------------------
# Covariance
# --------------------------------------------------------------------------

def test_covariance_matches_hand_written_normal_equations():
    rng = np.random.default_rng(5)
    x = np.linspace(0.0, 10.0, 40)
    y_err = np.full_like(x, 0.3)
    y = 1.5 + 0.7 * x + rng.normal(0.0, 0.3, size=x.size)
    model = ModelSpec(
        name="line",
        param_names=("intercept", "slope"),
        init=(0.0, 0.0),
        evaluator=lambda p, x: (p[0] + p[1] * x, np.column_stack([np.ones_like(x), x])),
    )
    result = fit(model, (x, y, y_err))
    oracle = weighted_linear_covariance(x, y, y_err, result.params)
    assert np.allclose(result.covariance, oracle, rtol=1e-6)
    assert np.allclose(
        result.uncertainties, np.sqrt(np.diag(oracle)), rtol=1e-6
    )


# --------------------------------------------------------------------------
# Bounds, statuses, validation
# --------------------------------------------------------------------------

def test_frozen_parameter_stays_frozen():
    model = ModelSpec(
        name="pinned",
        param_names=("fixed", "free"),
        init=(2.0, 0.5),
        evaluator=lambda p, x: (
            p[0] * np.exp(-x / p[1]),
            np.column_stack([np.exp(-x / p[1]), p[0] * x * np.exp(-x / p[1]) / p[1] ** 2]),
        ),
        bounds=((2.0, 2.0), (1e-6, math.inf)),
    )
    x = np.linspace(0.1, 3.0, 30)
    y = 2.0 * np.exp(-x / 0.8)
    result = fit(model, (x, y))
    assert result.params[0] == 2.0
    assert math.isclose(result.params[1], 0.8, rel_tol=1e-6)


def test_active_bound_is_respected():
    model = ModelSpec(
        name="capped",
        param_names=("gain",),
        init=(1.0,),
        evaluator=lambda p, x: (p[0] * x, x[:, None]),
        bounds=((0.0, 1.5),),
    )
    x = np.linspace(0.0, 1.0, 20)
    result = fit(model, (x, 2.0 * x))
    assert result.params[0] == 1.5  # clipped at the box edge nearest the optimum


def test_max_iterations_status():
    spectrum = _doublet_data()
    model = make_lorentzian_multi(2).with_init(DOUBLET_INIT)
    result = fit(model, spectrum, FitOptions(max_iter=2))
    assert result.status == "max-iterations"
    assert result.iterations == 2
    _assert_monotonic_trace(result)


def test_singular_status_on_overflowing_normal_equations():
    model = ModelSpec(
        name="overflow",
        param_names=("huge",),
        init=(1.0,),
        evaluator=lambda p, x: (p[0] * 1e200 * x, 1e200 * x[:, None]),
    )
    x = np.linspace(1.0, 2.0, 10)
    result = fit(model, (x, x))
    assert result.status == "singular"
    assert "damping" in result.message


def test_a_fit_that_makes_no_progress_has_no_finite_uncertainty():
    """The curvature at the start is finite, but no step left it: no minimum, no error bar."""

    def evaluator(p, x):  # every trial step away from the start leaves the domain
        return (p[0] * x if p[0] == 1.0 else np.full_like(x, np.nan)), x[:, None]

    model = ModelSpec(name="stuck_at_start", param_names=("a",), init=(1.0,), evaluator=evaluator)
    x = np.linspace(1.0, 2.0, 10)
    result = fit(model, (x, 2.0 * x))
    assert result.status == "singular" and "damping" in result.message
    assert result.uncertainties == (math.inf,)
    assert np.isinf(result.covariance).all()
    assert result.as_dict()["uncertainties"] == [None]


@pytest.mark.parametrize("entropy", [[2048, 30000, 4, 0], [2027, 30000, 48, 0]])
def test_coincident_lines_leave_the_fit_converged_with_the_pairs_undetermined(entropy):
    """At B = 0 the quartet's lines coincide in pairs, so J'J is exactly rank-deficient.

    Both noise draws (SNR 30, the field-sweep study's stream layout) once
    ended ``singular`` because inverting J'J hit an exact zero pivot.
    """
    transition = spin_hamiltonian.OpticalTransitionParams.from_cyclic_hz(452e6, 5.41e9)
    detunings = spin_hamiltonian.optical_transition_detunings(transition, 0.0)
    lines = [SpectralLine(center_hz=c, fwhm_hz=70e6, amplitude=1.0) for c in detunings]
    x = frequency_grid(-1.2e9, 1.2e9, 5e6)
    scan = synthesize_spectrum(lines, x, noise_sigma=1.0 / 30.0, seed=np.random.SeedSequence(entropy))
    init = [70e6]
    for c in detunings:
        init += [c, 1.0]
    result = fit(make_lorentzian_multi(n_lines=4).with_init(init), scan)
    assert result.status == "converged"
    fwhm_se, *pair_se = result.uncertainties
    assert math.isfinite(fwhm_se) and 0.0 < fwhm_se < 1e6
    assert pair_se == [math.inf] * 8


def test_a_parameter_the_model_ignores_is_undetermined_not_singular():
    model = ModelSpec(
        name="ignores_offset",
        param_names=("gain", "offset"),
        init=(1.0, 0.0),
        evaluator=lambda p, x: (p[0] * x, np.column_stack([x, np.zeros_like(x)])),
    )
    x = np.linspace(0.0, 1.0, 20)
    result = fit(model, (x, 2.0 * x + 0.01 * np.sin(7.0 * x)))
    assert result.status == "converged"
    assert math.isfinite(result.uncertainties[0]) and result.uncertainties[1] == math.inf


def test_nan_evaluation_raises_naming_parameters():
    model = ModelSpec(
        name="nan",
        param_names=("a",),
        init=(1.0,),
        evaluator=lambda p, x: (np.where(x > 0.5, np.nan, p[0] * x), x[:, None]),
    )
    x = np.linspace(0.0, 1.0, 10)
    with pytest.raises(ValueError, match="non-finite"):
        fit(model, (x, x))


def _domain_limited(kind: str) -> ModelSpec:
    """y = gain * x, whose evaluation fails for gain > 1.5 although it is unbounded."""

    def evaluator(p, x):
        if p[0] > 1.5:
            if kind == "raises":
                raise ValueError("gain out of range")
            return np.full_like(x, np.nan), x[:, None]
        return p[0] * x, x[:, None]

    return ModelSpec(name=kind, param_names=("gain",), init=(1.0,), evaluator=evaluator)


@pytest.mark.parametrize("kind", ["raises", "non-finite"])
def test_a_trial_step_out_of_the_model_domain_is_a_rejected_step(kind):
    x = np.linspace(0.0, 1.0, 20)
    result = fit(_domain_limited(kind), (x, 2.0 * x))
    assert result.params[0] <= 1.5
    assert result.params[0] > 1.4  # it still moved as far as the domain allows
    _assert_monotonic_trace(result)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["x", "y", "y_err"])
def test_non_finite_data_is_refused_by_name(name, bad):
    x = np.linspace(-5.0, 5.0, 21)
    data = {"x": x, "y": lorentzian(x, 0.0, 2.0, 1.0), "y_err": np.full_like(x, 0.1)}
    data[name] = data[name].copy()
    data[name][3] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        fit(make_lorentzian_multi(1), (data["x"], data["y"], data["y_err"]))


def test_data_validation():
    model = make_lorentzian_multi(1)
    with pytest.raises(ValueError, match="constrain"):
        fit(model, (np.array([1.0, 2.0]), np.array([1.0, 2.0])))
    x = np.linspace(0.0, 1.0, 10)
    with pytest.raises(ValueError, match="y_err"):
        fit(model, (x, x, np.zeros_like(x)))
    with pytest.raises(ValueError, match="equal length"):
        fit(model, (x, x[:-1]))
    with pytest.raises(TypeError, match="data"):
        fit(model, {"x": x})


def test_spectrum_and_tuple_inputs_are_equivalent():
    spectrum = _doublet_data()
    model = make_lorentzian_multi(2).with_init(DOUBLET_INIT)
    from_spectrum = fit(model, spectrum)
    from_tuple = fit(model, (spectrum.x, spectrum.y, spectrum.y_err))
    assert from_spectrum.params == from_tuple.params


def test_model_spec_validation():
    with pytest.raises(TypeError, match="evaluator"):  # no numeric fallback
        ModelSpec(name="bad", param_names=("a",), init=(1.0,))

    def identity(p, x):
        return x, x[:, None]

    with pytest.raises(ValueError, match="'init' must have one entry for each of a, b, got 1"):
        ModelSpec(
            name="bad",
            param_names=("a", "b"),
            init=(1.0,),
            evaluator=identity,
        )
    with pytest.raises(ValueError, match=r"'init\[0\]' \(a\) = 2.0 outside 'bounds\[0\]'"):
        ModelSpec(
            name="bad",
            param_names=("a",),
            init=(2.0,),
            evaluator=identity,
            bounds=((0.0, 1.0),),
        )
    with pytest.raises(ValueError, match=r"'bounds\[0\]' \(a\) is empty"):
        ModelSpec(
            name="bad",
            param_names=("a",),
            init=(0.5,),
            evaluator=identity,
            bounds=((1.0, 0.0),),
        )
    with pytest.raises(ValueError, match="'bounds' must have one entry for each of a, got 2"):
        ModelSpec(
            name="bad",
            param_names=("a",),
            init=(0.5,),
            evaluator=identity,
            bounds=((0.0, 1.0), (0.0, 1.0)),
        )
    with pytest.raises(ValueError, match="fit option 'max_iter' must be an integer >= 1, got 0"):
        FitOptions(max_iter=0)


def test_poisson_sigma_floor():
    assert np.array_equal(poisson_sigma([0.0, 1.0, 4.0, 100.0]), [1.0, 1.0, 2.0, 10.0])


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

def test_registry_contains_exactly_the_seven_models():
    registry = model_registry()
    assert set(registry) == {
        "lorentzian_multi",
        "gaussian",
        "exponential",
        "damped_rabi",
        "saturation",
        "reflection_dip",
        "contrast_saturation",
    }
    for name, (factory, arguments) in registry.items():
        # Each argument at its default; reflection_dip's fix_f_in has none, so fig4b's.
        spec = factory(**{key: 0.95 if default is None else default
                          for key, (default, domain) in arguments.items()})
        assert spec.name == name
        assert len(spec.param_names) == len(spec.init)


def test_registry_evaluators_match_owning_modules():
    x_hz = np.linspace(-3e8, 3e8, 11)

    single_line = make_lorentzian_multi(1)
    assert np.allclose(
        single_line.evaluator(np.array([70e6, 1e7, 2.0]), x_hz)[0],
        lorentzian(x_hz, 1e7, 70e6, 2.0),
        rtol=1e-12,
    )

    gaussian = make_gaussian()
    assert np.allclose(
        gaussian.evaluator(np.array([1e7, 9e7, 2.0]), x_hz)[0],
        gaussian_profile(x_hz, 1e7, 9e7, 2.0),
        rtol=1e-12,
    )

    exponential = make_exponential()
    t = np.linspace(0.0, 20.0, 11)
    assert np.allclose(
        exponential.evaluator(np.array([0.2, 1.5, 5.56]), t)[0],
        0.2 + 1.5 * np.exp(-t / 5.56),
        rtol=1e-12,
    )

    rabi = make_damped_rabi()
    t_ns = np.linspace(0.1, 10.0, 11)
    assert np.allclose(
        rabi.evaluator(np.array([TWO_PI * 0.23, 4.7]), t_ns)[0],
        optical_dynamics.rabi_population(t_ns * 1e-9, TWO_PI * 0.23e9, 4.7e-9),
        rtol=1e-12,
    )

    saturation = make_saturation()
    p_pw = np.geomspace(1.0, 2000.0, 11)
    assert np.allclose(
        saturation.evaluator(np.array([1.34e6, 120.0]), p_pw)[0],
        optical_dynamics.saturation_rate(p_pw * 1e-12, 120e-12, 1.34e6),
        rtol=1e-12,
    )

    dip = make_reflection_dip(fix_f_in=0.95)
    delta = np.linspace(-3e8, 3e8, 11)
    assert np.allclose(
        dip.evaluator(np.array([0.027, 70e6]), delta)[0],
        waveguide_qed.normalized_reflection_params(delta, 0.027, 0.95, 70e6),
        rtol=1e-12,
    )

    roll_off = make_contrast_saturation()
    s = np.linspace(0.0, 10.0, 11)
    assert np.allclose(
        roll_off.evaluator(np.array([0.11]), s)[0],
        waveguide_qed.contrast_vs_saturation(s, 0.11),
        rtol=1e-12,
    )


def test_line_sum_matches_lorentzian_model():
    x = np.linspace(-1e9, 1e9, 101)
    lines = [SpectralLine(center_hz=-226e6, fwhm_hz=70e6, amplitude=1.0)]
    model = make_lorentzian_multi(1)
    assert np.allclose(
        synthesize_spectrum(lines, x).y,
        model.evaluator(np.array([70e6, -226e6, 1.0]), x)[0],
        rtol=1e-12,
    )


def test_as_dict_writes_non_finite_numbers_as_none():
    result = FitResult(
        params=(1.0, math.inf),
        uncertainties=(math.nan, 0.5),
        covariance=np.zeros((2, 2)),
        cost=math.inf,
        residual_norm=2.0,
        status="max-iterations",
        iterations=3,
        cost_trace=(4.0,),
    )
    payload = result.as_dict()
    assert payload["params"] == [1.0, None]
    assert payload["uncertainties"] == [None, 0.5]
    assert payload["cost"] is None and payload["residual_norm"] == 2.0
