"""Acceptance suite: thirteen end-to-end checks, one test (and one
pass/fail line in the ``pytest -v`` output) per criterion.

Each test prints a ``[criterion NN] PASS/FAIL`` summary line with the
measured numbers (visible with ``-s``/``-rA`` and in failure reports);
the pytest verdict of the test itself is the authoritative pass/fail.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np

from snvsim import (
    optical_dynamics,
    photon_budget,
    spin_hamiltonian,
    waveguide_qed,
)
from snvsim.config import load_config
from snvsim.efficiency import (
    apply_loss_chain, budget_from_config, budget_report, loss_chain_from_config,
    single_pass_from_roundtrip,
)
from snvsim.fitting import (
    fit,
    make_damped_rabi,
    make_lorentzian_multi,
)
from snvsim.scenarios import run_scenario
from snvsim.spectra import (
    SpectralLine,
    apply_drift,
    average_spectra,
    frequency_grid,
    initial_line_guesses,
    recenter_scans,
    synthesize_spectrum,
)
from snvsim.units import TWO_PI, fourier_limited_fwhm_hz

from oracles import ground_branch_energies, lorentzian_shared_jacobian, numeric_jacobian


@contextmanager
def reported(number: int, summary: str):
    """Emit exactly one [criterion NN] PASS/FAIL line around a block of asserts."""
    try:
        yield
    except Exception as exc:
        print(f"[criterion {number:02d}] FAIL - {summary}: {exc}")
        raise
    print(f"[criterion {number:02d}] PASS - {summary}")


# --------------------------------------------------------------------------


def test_criterion_01_detection_budget_product():
    budget = budget_from_config(load_config("configs/table_s1.cfg"))
    total = budget_report(budget)["total_fraction"]
    stage_values = [value for _, value in budget]
    oracle = math.exp(math.fsum(math.log(v) for v in stage_values))
    with reported(1, f"stage product {total * 100:.4f}% vs reference ~1.7%"):
        assert sorted(stage_values) == sorted([0.80, 0.79, 0.43, 0.325, 0.57, 0.51, 0.68])
        assert math.isclose(total, oracle, rel_tol=1e-12)
        assert math.isclose(total, 0.017459139672, rel_tol=1e-9)
        assert abs(total - 0.017) <= 0.001  # within 0.1 percentage point


def test_criterion_02_reflection_contrast_and_inversion():
    model = waveguide_qed.ReflectionModel(cooperativity=0.027, f_in=0.95, gamma_h_hz=70e6)
    contrast = waveguide_qed.dip_contrast(model)
    r_norm0 = waveguide_qed.normalized_reflection(0.0, model)
    recovered = waveguide_qed.cooperativity_from_contrast(float(r_norm0), f_in=0.95)
    with reported(
        2, f"contrast {contrast * 100:.2f}% vs 11(1)%, inversion error {abs(recovered - 0.027):.2e}"
    ):
        assert math.isclose(contrast, 0.10792250900468237, rel_tol=1e-12)
        assert abs(contrast - 0.11) <= 0.01
        assert abs(recovered - 0.027) < 1e-10


def test_criterion_03_guided_coupling_and_quantum_efficiency():
    beta = waveguide_qed.beta_total(cooperativity=0.027, gamma_h_hz=70e6, gamma0_hz=28.6e6)
    eta_qe = waveguide_qed.quantum_efficiency_bound(beta)
    with reported(3, f"beta_tot {beta * 100:.2f}% vs 6.2(7)%, QE {eta_qe * 100:.1f}% vs 51(8)%"):
        assert math.isclose(beta, 0.027 * 70.0 / 28.6, rel_tol=1e-12)
        assert 0.059 <= beta <= 0.073
        assert math.isclose(
            eta_qe, beta / (0.32 * 0.57 * 0.65), rel_tol=1e-12
        )
        assert 0.43 <= eta_qe <= 0.59


def test_criterion_04_fourier_limited_linewidth():
    fwhm = fourier_limited_fwhm_hz(5.56e-9)
    oracle = 1.0 / (TWO_PI * 5.56e-9)
    with reported(4, f"Fourier limit {fwhm / 1e6:.4f} MHz vs 28.6(1) MHz"):
        assert math.isclose(fwhm, oracle, rel_tol=1e-15)
        assert abs(fwhm - 28.6e6) <= 0.1e6


def test_criterion_05_pi_pulse_fidelity_and_rabi_round_trip():
    omega = TWO_PI * 230e6
    t1 = 4.7e-9
    calibration = optical_dynamics.pi_pulse_calibration(omega, t1)
    t_pi_ns = calibration["t_pi"] * 1e9
    fidelity = calibration["fidelity"]

    # Generate -> fit round trip in the model's own (ns, rad/ns) scale.
    rng = np.random.default_rng(88)
    t_ns = np.arange(0.0, 15.0, 0.05)
    truth = (TWO_PI * 0.230, 4.7)
    y = optical_dynamics.rabi_population(t_ns * 1e-9, omega, t1) + rng.normal(
        0.0, 0.03, size=t_ns.size
    )
    result = fit(
        make_damped_rabi().with_init((TWO_PI * 0.2, 6.0)),
        (t_ns, y, np.full(t_ns.size, 0.03)),
    )
    omega_err = abs(result.params[0] - truth[0]) / truth[0]
    t1_err = abs(result.params[1] - truth[1]) / truth[1]
    with reported(
        5,
        f"pi-pulse F {fidelity:.4f} at {t_pi_ns:.3f} ns; "
        f"round trip omega off {omega_err * 100:.2f}%, T1 off {t1_err * 100:.2f}%",
    ):
        assert abs(fidelity - 0.815) <= 0.001
        assert abs(t_pi_ns - 2.17) <= 0.05
        assert result.status == "converged"
        assert omega_err < 0.02
        assert t1_err < 0.10


def test_criterion_06_eigenstructure_closed_forms_and_reduced_model_scaling():
    params = spin_hamiltonian.sn117_ground()
    h = spin_hamiltonian.build_ground_hamiltonian(params, (0.0, 0.0, 0.0))
    energies = spin_hamiltonian.eigenenergies(h)
    closed = ground_branch_energies(params)
    scale = abs(closed.antialigned)
    closed_err = max(
        abs(energies[0] - closed.antialigned), abs(energies[2] - closed.aligned)
    ) / scale

    # Reduced-model discrepancy must scale as the square of the transverse
    # hyperfine coupling: log-log slope 2 over two decades.
    ratios = np.geomspace(3e-4, 3e-2, 10)
    discrepancies = []
    for ratio in ratios:
        p = spin_hamiltonian.SpinSystemParams(
            lambda_so=params.lambda_so,
            gamma_e=params.gamma_e,
            gamma_n=params.gamma_n,
            a_par=params.a_par,
            a_perp=ratio * params.lambda_so,
        )
        full = spin_hamiltonian.eigenenergies(
            spin_hamiltonian.build_ground_hamiltonian(p, (0.0, 0.0, 0.0))
        )
        full_split = full[2] - full[0]
        discrepancies.append(abs(full_split - p.a_par / 2.0))
    slope = np.polyfit(np.log(ratios), np.log(discrepancies), 1)[0]
    with reported(
        6, f"closed-form error {closed_err:.2e}, discrepancy log-log slope {slope:.3f}"
    ):
        assert closed_err < 1e-10
        assert energies[0] == energies[1] and energies[2] == energies[3]
        assert abs(slope - 2.0) <= 0.1


def test_criterion_07_field_sweep_fit(scenario_output_root):
    start = time.perf_counter()
    result = run_scenario("fig2a", output_root=scenario_output_root / "acceptance_fig2a")
    elapsed = time.perf_counter() - start
    rows = {row["quantity"]: row["simulated"] for row in result.rows}
    slope = rows["splitting_slope_ghz_per_t"]
    split = rows["zero_field_splitting_mhz"]
    with reported(
        7,
        f"35-scan sweep in {elapsed:.1f} s: slope {slope:.3f} GHz/T, "
        f"zero-field splitting {split:.1f} MHz",
    ):
        assert elapsed < 60.0
        assert abs(slope - 5.41) / 5.41 < 0.03
        assert abs(split - 452.0) <= 5.0


def test_criterion_08_isotope_splitting_predictions():
    predictions = spin_hamiltonian.isotope_splitting_predictions_hz(452e6, "sn117")
    sn115 = predictions["sn115"] / 1e6
    sn119 = predictions["sn119"] / 1e6
    with reported(8, f"predicted splittings {sn115:.1f} / {sn119:.1f} MHz vs ~415 / ~475"):
        assert abs(sn115 - 415.0) <= 5.0
        assert abs(sn119 - 475.0) <= 5.0


def test_criterion_09_readout_statistics():
    mu_bright, mu_dark = 1.83, 0.13
    bright = photon_budget.poisson_reference_histogram(mu_bright)
    dark = photon_budget.poisson_reference_histogram(mu_dark)
    best = photon_budget.optimal_threshold(bright, dark)
    poisson_fidelity = best["fidelity"]
    oracle = 0.5 * ((1.0 - math.exp(-mu_bright)) + math.exp(-mu_dark))

    model = photon_budget.calibrate_readout_model(mu_bright, mu_dark, 0.80)
    start = time.perf_counter()
    histograms = photon_budget.simulate_readout(model, trials=100_000, seed=32)
    elapsed = time.perf_counter() - start
    mc_best = photon_budget.optimal_threshold(histograms["bright"], histograms["dark"])
    with reported(
        9,
        f"Poisson oracle F {poisson_fidelity:.4f} (k={best['k']}); "
        f"sampled F {mc_best['fidelity']:.4f} (k={mc_best['k']}) in {elapsed:.2f} s",
    ):
        assert best["k"] == 1
        assert math.isclose(poisson_fidelity, oracle, rel_tol=1e-12)
        assert abs(poisson_fidelity - 0.859) <= 1e-3
        assert mc_best["k"] == 1
        assert abs(mc_best["fidelity"] - 0.80) <= 0.01
        assert elapsed < 10.0


def test_criterion_10_coincidence_expectation():
    expected = photon_budget.nfold_coincidence_expectation(
        pulse_rate_hz=0.38e6, eta=0.0140, duty=0.40, duration_s=86400.0, n=5
    )
    log_steps = [
        math.log(
            photon_budget.nfold_coincidence_expectation(0.38e6, 0.0140, 0.40, 86400.0, n + 1)
        )
        - math.log(
            photon_budget.nfold_coincidence_expectation(0.38e6, 0.0140, 0.40, 86400.0, n)
        )
        for n in range(1, 8)
    ]
    with reported(10, f"five-fold events per day {expected:.3f}, window [3, 15]"):
        assert math.isclose(expected, 7.0631350272, rel_tol=1e-9)
        assert 3.0 <= expected <= 15.0
        for step in log_steps:
            assert math.isclose(step, math.log(0.0140), rel_tol=1e-12)


def test_criterion_11_fibre_loss_chain():
    single_pass = single_pass_from_roundtrip(0.27)
    chain = loss_chain_from_config(load_config("configs/loss_chain.cfg"))
    corrected = apply_loss_chain(chain)
    with reported(
        11, f"single pass {single_pass * 100:.1f}% vs 52(6)%, corrected {corrected * 100:.1f}%"
    ):
        assert math.isclose(single_pass, math.sqrt(0.27), rel_tol=1e-15)
        assert abs(single_pass - 0.52) <= 0.06
        assert math.isclose(corrected, 0.5693910665897446, rel_tol=1e-12)
        assert 0.51 <= corrected <= 0.63


def test_criterion_12_drift_compensation():
    line = SpectralLine(center_hz=0.0, fwhm_hz=70e6, amplitude=1.0)
    x = frequency_grid(-700e6, 700e6, 2e6)
    scans = [
        synthesize_spectrum([line], x, noise_sigma=0.02, seed=1000 + i) for i in range(30)
    ]
    drifted, true_shifts = apply_drift(
        scans, drift_amplitude_hz=200e6, timescale_scans=5.0, seed=1234
    )
    assert np.max(np.abs(true_shifts)) > 50e6  # the injected drift is material

    result = recenter_scans(drifted)
    # Recovered shifts are relative to the reference scan, so they carry its
    # center-fit error as a common offset.  That offset is unidentifiable (it
    # is a relabelling of the line center and leaves the aligned average
    # untouched), so the recovery error is judged with it projected out.
    residual = np.asarray(result.shifts) - np.asarray(true_shifts)
    mae = float(np.mean(np.abs(residual - residual.mean())))

    # Every recovered shift is the difference of two fitted centers (scan i
    # minus the reference scan), so its standard error is sqrt(2) times the
    # single-scan center standard error.
    center_ses = []
    for scan in drifted:
        model = make_lorentzian_multi(1).with_init(initial_line_guesses(scan, 1))
        center_ses.append(fit(model, scan).uncertainties[1])
    shift_se = math.sqrt(2.0) * float(np.median(center_ses))

    def fitted_fwhm(spectrum):
        model = make_lorentzian_multi(1).with_init(initial_line_guesses(spectrum, 1))
        return fit(model, spectrum).params[0]

    broadened = fitted_fwhm(average_spectra(drifted))
    recovered = fitted_fwhm(result.aligned)
    with reported(
        12,
        f"shift MAE {mae / 1e6:.2f} MHz vs shift SE {shift_se / 1e6:.2f} MHz; "
        f"width uncorrected {broadened / 1e6:.1f} MHz, recentered {recovered / 1e6:.1f} MHz",
    ):
        assert mae < shift_se
        assert broadened > 1.2 * 70e6
        assert abs(recovered - 70e6) / 70e6 < 0.05


def test_criterion_13_fit_engine_properties():
    x = frequency_grid(-800e6, 800e6, 2e6)
    lines = [SpectralLine(-226e6, 70e6, 1.0), SpectralLine(226e6, 70e6, 1.0)]
    spectrum = synthesize_spectrum(lines, x, noise_sigma=0.05, seed=77)
    model = make_lorentzian_multi(2).with_init((80e6, -200e6, 0.9, 210e6, 1.1))

    # Analytic vs finite-difference gradient at 1e-6.
    single = make_lorentzian_multi(1)
    params = np.array([70e6, -226e6, 1.0])
    numeric = numeric_jacobian(lambda p, x: single.evaluator(p, x)[0], params, x)
    analytic = lorentzian_shared_jacobian(params, x)
    jac_err = float(
        np.max(np.abs(numeric - analytic) / np.maximum(np.abs(analytic).max(axis=0), 1e-300))
    )

    first = fit(model, spectrum)
    second = fit(model, spectrum)
    trace = np.asarray(first.cost_trace)
    with reported(
        13,
        f"gradient agreement {jac_err:.1e}, {trace.size - 1} accepted steps monotone, "
        f"reruns bit-identical",
    ):
        assert jac_err < 1e-6
        assert np.all(np.diff(trace) <= 0.0)
        assert first.status == "converged"
        assert np.array_equal(first.params, second.params)
        assert np.array_equal(first.uncertainties, second.uncertainties)
        assert first.cost == second.cost
        assert first.iterations == second.iterations
        assert first.cost_trace == second.cost_trace
