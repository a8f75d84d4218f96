"""Efficiency budgets, loss chains, and photon-counting readout statistics.

Dual routes:
- stage products vs exp(sum of logs),
- closed-form pulse-chain mean / zero-count probability vs an exact
  dynamic-programming enumeration (tests/oracles.py),
- the exact readout count distribution vs the DP oracle convolved term by
  term with a Poisson background, and vs the closed-form mean and zero count,
- sampled readout histograms vs the Binomial limit and the DP distribution
  at 4-sigma sampling bounds, and vs a per-pulse sampler by a chi-square test,
- Poisson reference histograms vs hand-summed Poisson series and scipy.stats,
- the calibration bisection vs scipy.optimize.brentq on the same function.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.stats import chi2_contingency, poisson

from oracles import (
    binomial_pmf,
    convolve_with_poisson,
    poisson_pmf,
    poisson_tail,
    readout_signal_distribution,
    sample_readout_counts,
)
from snvsim.efficiency import (
    LossChain,
    LossCorrection,
    apply_loss_chain,
    budget_report,
    single_pass_from_roundtrip,
    taper_half_angle_deg,
)
from snvsim.photon_budget import (
    PhotonHistogram,
    ReadoutModel,
    analytic_threshold_fidelity_k1,
    calibrate_readout_model,
    mean_signal_counts,
    nfold_coincidence_expectation,
    optimal_threshold,
    poisson_reference_histogram,
    readout_count_pmf,
    simulate_readout,
    threshold_fidelity,
    zero_signal_probability,
)

TABLE_STAGES = [
    ("emitter_to_waveguide", 0.80),
    ("waveguide_to_taper", 0.79),
    ("taper_to_fibre", 0.43),
    ("fibre_network", 0.325),
    ("zero_phonon_fraction", 0.57),
    ("spectral_filter", 0.51),
    ("detector", 0.68),
]


# --------------------------------------------------------------------------
# Efficiency budget
# --------------------------------------------------------------------------

def test_table_budget_product_frozen():
    total = budget_report(TABLE_STAGES)["total_fraction"]
    assert abs(total - 0.017459139672) < 1e-12
    oracle = math.exp(math.fsum(math.log(v) for _, v in TABLE_STAGES))
    assert abs(total - oracle) < 1e-12


@given(
    st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=10),
    st.randoms(use_true_random=False),
)
def test_budget_product_is_permutation_invariant(values, rng):
    pairs = [(f"s{i}", v) for i, v in enumerate(values)]
    shuffled = pairs[:]
    rng.shuffle(shuffled)
    straight = budget_report(pairs)["total_fraction"]
    permuted = budget_report(shuffled)["total_fraction"]
    oracle = math.exp(math.fsum(math.log(v) for v in values))
    assert abs(straight - permuted) < 1e-12
    assert abs(straight - oracle) < 1e-12 * max(1.0, straight)


def test_budget_report_is_self_consistent():
    report = budget_report(TABLE_STAGES)
    cumulative = 1.0
    db_sum = 0.0
    for row, (name, value) in zip(report["stages"], TABLE_STAGES):
        cumulative *= value
        db_sum += row["loss_db"]
        assert row["stage"] == name
        assert math.isclose(row["fraction"], value, rel_tol=1e-15)
        assert math.isclose(row["cumulative_fraction"], cumulative, rel_tol=1e-12)
        assert math.isclose(row["cumulative_loss_db"], -10.0 * math.log10(cumulative), rel_tol=1e-12)
    assert math.isclose(report["total_fraction"], cumulative, rel_tol=1e-15)
    assert math.isclose(report["total_loss_db"], db_sum, rel_tol=1e-12)


def test_budget_validation():
    with pytest.raises(ValueError, match="at least one"):
        budget_report(())
    with pytest.raises(ValueError, match="detector"):
        budget_report([("detector", 0.0)])
    with pytest.raises(ValueError, match="detector"):
        budget_report([("detector", 1.2)])


# --------------------------------------------------------------------------
# Loss chain and taper geometry
# --------------------------------------------------------------------------

def test_single_pass_from_roundtrip_frozen():
    assert math.isclose(single_pass_from_roundtrip(0.27), 0.5196152422706632, rel_tol=1e-12)
    with pytest.raises(ValueError, match="roundtrip"):
        single_pass_from_roundtrip(0.0)


def test_correction_kinds_frozen():
    assert LossCorrection("scat", "fraction", 0.96).transmission() == 0.96
    assert math.isclose(
        LossCorrection("splice", "db", 0.04).transmission(), 0.9908319448927676, rel_tol=1e-12
    )
    assert math.isclose(
        LossCorrection("fibre", "db_per_km", 12.0, length_m=15.0).transmission(),
        0.9594006315159331,
        rel_tol=1e-12,
    )
    with pytest.raises(ValueError, match="unknown kind"):
        LossCorrection("x", "nepers", 1.0).transmission()
    with pytest.raises(ValueError, match="fraction"):
        LossCorrection("x", "fraction", 1.5).transmission()
    with pytest.raises(ValueError, match="dB"):
        LossCorrection("x", "db", -1.0).transmission()


def test_apply_loss_chain_frozen_and_oracle():
    chain = LossChain(
        measured_roundtrip=0.27,
        corrections=(
            LossCorrection("splice", "db", 0.04),
            LossCorrection("facet_scattering", "fraction", 0.96),
            LossCorrection("fibre_attenuation", "db_per_km", 12.0, length_m=15.0),
        ),
    )
    coupling = apply_loss_chain(chain)
    oracle = math.sqrt(0.27) / (10 ** (-0.04 / 10) * 0.96 * 10 ** (-12.0 * 0.015 / 10))
    assert math.isclose(coupling, oracle, rel_tol=1e-12)
    assert math.isclose(coupling, 0.5693910665897446, rel_tol=1e-12)


def test_loss_chain_rejects_overexplained_measurement():
    chain = LossChain(
        measured_roundtrip=0.9,
        corrections=(LossCorrection("huge", "fraction", 0.5),),
    )
    with pytest.raises(ValueError, match="inconsistent"):
        apply_loss_chain(chain)


def test_taper_half_angle_frozen():
    assert math.isclose(taper_half_angle_deg(1.5, 55.0), 1.562224916842398, rel_tol=1e-12)
    assert math.isclose(taper_half_angle_deg(1.5, 55.0), math.degrees(math.atan(1.5 / 55.0)), rel_tol=1e-15)
    with pytest.raises(ValueError, match="pull"):
        taper_half_angle_deg(1.5, 0.0)


# --------------------------------------------------------------------------
# Histograms
# --------------------------------------------------------------------------

def test_histogram_moments_on_known_distribution():
    h = PhotonHistogram(counts=(0.5, 0.5), total_trials=1.0)
    assert h.mean() == 0.5
    assert h.tail_probability(0) == 1.0
    assert h.tail_probability(1) == 0.5
    assert h.tail_probability(2) == 0.0


def test_histogram_validation():
    with pytest.raises(ValueError, match="sum"):
        PhotonHistogram(counts=(1.0, 1.0), total_trials=3.0)
    with pytest.raises(ValueError, match=">= 0"):
        PhotonHistogram(counts=(-1.0, 2.0), total_trials=1.0)


def test_poisson_reference_histogram_matches_series_oracle():
    mu = 1.83
    h = poisson_reference_histogram(mu, n_max=25)
    probabilities = h.probabilities()
    for k in range(25):
        assert math.isclose(probabilities[k], poisson_pmf(k, mu), rel_tol=1e-12)
    assert math.isclose(probabilities[25], poisson_tail(25, mu), rel_tol=1e-9)
    assert math.isclose(math.fsum(h.counts), h.total_trials, rel_tol=1e-12)


@pytest.mark.parametrize("mu", [0.0, 1e-3, 1.83, 50.0, 800.0])
def test_poisson_reference_histogram_matches_scipy(mu):
    h = poisson_reference_histogram(mu)
    n_max = len(h.counts) - 1
    probabilities = h.probabilities()
    pmf = poisson.pmf(np.arange(n_max + 1), mu)
    # scipy evaluates the same log-space form.  At mu = 800, lgamma(k+1) ~ 6.5e3
    # carries ~1e-12 absolute error in either implementation; scipy itself is
    # 1.4e-12 from a 50-digit reference there, so the two agree to a few 1e-12.
    rel_tol = 5e-12 if mu > 100.0 else 1e-12
    for k in range(n_max):
        if pmf[k] > 1e-300:
            assert math.isclose(probabilities[k], pmf[k], rel_tol=rel_tol)
    folded = pmf[n_max] + poisson.sf(n_max, mu)
    assert math.isclose(probabilities[n_max], folded, rel_tol=1e-9, abs_tol=1e-300)
    assert math.isclose(math.fsum(h.counts), 1.0, rel_tol=1e-12)


def test_poisson_reference_histogram_folds_a_tail_that_holds_the_peak():
    h = poisson_reference_histogram(800.0, n_max=5)
    assert math.isclose(h.probabilities()[5], poisson.sf(4, 800.0), rel_tol=1e-12)
    with pytest.raises(ValueError, match="finite"):
        poisson_reference_histogram(math.nan)


# --------------------------------------------------------------------------
# Threshold discrimination
# --------------------------------------------------------------------------

def test_threshold_zero_is_exactly_one_half():
    bright = poisson_reference_histogram(1.83)
    dark = poisson_reference_histogram(0.13)
    assert threshold_fidelity(bright, dark, 0) == 0.5


def test_poisson_threshold_fidelity_frozen():
    bright = poisson_reference_histogram(1.83)
    dark = poisson_reference_histogram(0.13)
    fidelity = threshold_fidelity(bright, dark, 1)
    oracle = 0.5 * ((1.0 - math.exp(-1.83)) + math.exp(-0.13))
    assert math.isclose(fidelity, oracle, rel_tol=1e-12)
    assert math.isclose(fidelity, 0.8588409315726943, rel_tol=1e-12)


def test_optimal_threshold_breaks_ties_low():
    bright = PhotonHistogram(counts=(0.0, 0.5, 0.5), total_trials=1.0)
    dark = PhotonHistogram(counts=(0.5, 0.5, 0.0), total_trials=1.0)
    # F(1) = F(2) = 0.75 exactly; the scan must return the smaller threshold.
    assert threshold_fidelity(bright, dark, 1) == threshold_fidelity(bright, dark, 2) == 0.75
    best = optimal_threshold(bright, dark)
    assert best["k"] == 1
    assert best["fidelity"] == 0.75


# --------------------------------------------------------------------------
# Pulse-chain closed forms vs dynamic-programming oracle
# --------------------------------------------------------------------------

@given(
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=0.0, max_value=0.3),
    st.integers(min_value=1, max_value=12),
)
@example(p_detect=0.5, p_flip=5e-324, n_pulses=1)
@example(p_detect=0.5, p_flip=5e-324, n_pulses=3)
def test_mean_signal_counts_matches_dp_oracle(p_detect, p_flip, n_pulses):
    pmf = readout_signal_distribution(p_detect, p_flip, 0.0, n_pulses, start_bright=True)
    oracle_mean = float(np.dot(np.arange(pmf.size), pmf))
    assert math.isclose(
        mean_signal_counts(p_detect, p_flip, n_pulses), oracle_mean, rel_tol=1e-12, abs_tol=1e-15
    )


@given(
    st.floats(min_value=1e-6, max_value=0.5),
    st.floats(min_value=0.0, max_value=0.3),
    st.integers(min_value=1, max_value=12),
)
@example(p_detect=1e-17, p_flip=5e-324, n_pulses=3)
@example(p_detect=1e-17, p_flip=1e-17, n_pulses=3)
@example(p_detect=1.0, p_flip=0.3, n_pulses=4)
@example(p_detect=0.3, p_flip=1.0, n_pulses=4)
def test_zero_signal_probability_matches_dp_oracle(p_detect, p_flip, n_pulses):
    pmf = readout_signal_distribution(p_detect, p_flip, 0.0, n_pulses, start_bright=True)
    assert math.isclose(
        zero_signal_probability(p_detect, p_flip, n_pulses), float(pmf[0]), rel_tol=1e-12
    )


def test_analytic_k1_fidelity_matches_dp_oracle():
    model = ReadoutModel(p_detect=0.02, p_flip_bright=0.015, n_pulses=150, dark_rate=0.13)
    analytic = analytic_threshold_fidelity_k1(model)
    pmf = readout_signal_distribution(0.02, 0.015, 0.0, 150, start_bright=True)
    p_zero_bright = float(pmf[0]) * poisson_pmf(0, 0.13)
    p_zero_dark = poisson_pmf(0, 0.13)
    oracle = 0.5 * ((1.0 - p_zero_bright) + p_zero_dark)
    assert math.isclose(analytic, oracle, rel_tol=1e-12)


# --------------------------------------------------------------------------
# Exact readout count distribution
# --------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=1, max_value=30),
    st.floats(min_value=0.0, max_value=20.0),
    st.booleans(),
)
@example(0.3, 0.02, 20, 0.7, True)
@example(0.3, 0.02, 20, 0.7, False)
@example(0.02, 0.015, 30, 1.83, True)
@example(1.0, 1.0, 5, 0.0, True)
@example(0.3, 0.02, 2, 1e-08, True)  # the oracle's tail starts at a subnormal term
def test_readout_count_pmf_matches_dp_oracle_convolved_with_poisson(
    p_detect, p_flip_bright, n_pulses, dark_rate, start_bright
):
    model = ReadoutModel(p_detect, p_flip_bright, n_pulses, dark_rate)
    pmf = readout_count_pmf(model, start_bright)
    assert abs(math.fsum(pmf) - 1.0) <= 1e-15
    assert np.all(pmf >= 0.0)
    # The oracle's dark spin may flip back; the model's never does.
    signal = readout_signal_distribution(p_detect, p_flip_bright, 0.0, n_pulses, start_bright)
    # The oracle folds its tail into bin n_max, well past the library's last
    # bin.  The library drops background counts whose total mass is below
    # 1e-17, so a bin is exact to that much absolutely, and to 1e-12 relatively.
    oracle = convolve_with_poisson(signal, dark_rate, pmf.size + 10)
    np.testing.assert_allclose(pmf, oracle[: pmf.size], rtol=1e-12, atol=1e-17)
    assert math.fsum(oracle[pmf.size :]) <= 1e-17


@pytest.mark.parametrize("n_pulses", [1, 150, 2000])
@pytest.mark.parametrize("dark_rate", [0.0, 0.13, 2.99, 40.0])
def test_readout_count_pmf_mean_and_zero_match_the_closed_forms(n_pulses, dark_rate):
    model = ReadoutModel(
        p_detect=0.02, p_flip_bright=0.015, n_pulses=n_pulses, dark_rate=dark_rate
    )
    for start_bright in (True, False):
        pmf = readout_count_pmf(model, start_bright)
        assert abs(math.fsum(pmf) - 1.0) <= 1e-15
        signal_mean = mean_signal_counts(0.02, 0.015, n_pulses) if start_bright else 0.0
        p_no_signal = zero_signal_probability(0.02, 0.015, n_pulses) if start_bright else 1.0
        mean = math.fsum(np.arange(pmf.size) * pmf)
        assert math.isclose(mean, signal_mean + dark_rate, rel_tol=1e-12, abs_tol=1e-15)
        assert math.isclose(pmf[0], p_no_signal * math.exp(-dark_rate), rel_tol=1e-12)


# --------------------------------------------------------------------------
# Sampled readout histograms
# --------------------------------------------------------------------------

def test_simulate_readout_matches_a_per_pulse_sampler_by_chi_square():
    p_detect, p_flip_bright, n_pulses, dark_rate = 0.3, 0.05, 20, 0.7
    trials = 20_000
    model = ReadoutModel(p_detect, p_flip_bright, n_pulses, dark_rate)
    histograms = simulate_readout(model, trials=trials, seed=11)
    rng = np.random.default_rng(12)
    for start_bright, key in ((True, "bright"), (False, "dark")):
        sampled = np.bincount(
            sample_readout_counts(
                p_detect, p_flip_bright, 0.0, n_pulses, dark_rate, start_bright, trials, rng
            )
        )
        drawn = np.asarray(histograms[key].counts)
        table = np.zeros((2, max(sampled.size, drawn.size)))
        table[0, : sampled.size] = sampled
        table[1, : drawn.size] = drawn
        # Pool the sparse top bins so every pooled bin holds at least 20 readouts.
        while table[:, -1].sum() < 20.0:
            table[:, -2] += table[:, -1]
            table = table[:, :-1]
        p_value = chi2_contingency(table, correction=False).pvalue
        assert p_value > 1e-3, f"{key}: chi-square p = {p_value:.2e} over {table.shape[1]} bins"


def test_simulate_readout_ends_at_the_largest_drawn_count_and_sizes_no_array():
    model = ReadoutModel(p_detect=0.02, p_flip_bright=0.015, n_pulses=150, dark_rate=0.13)
    tracemalloc.start()
    try:
        histograms = simulate_readout(model, trials=10**6, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A per-pulse sampler holds several arrays of 10^6 readouts (8 MB each).
    assert peak < 1_000_000
    for histogram in histograms.values():
        assert histogram.counts[-1] > 0.0
        assert math.fsum(histogram.counts) == histogram.total_trials == 10**6
        assert all(float(c).is_integer() for c in histogram.counts)

def test_simulate_readout_is_bit_reproducible():
    model = ReadoutModel(p_detect=0.02, p_flip_bright=0.015, n_pulses=50, dark_rate=0.1)
    first = simulate_readout(model, trials=2000, seed=7)
    second = simulate_readout(model, trials=2000, seed=7)
    assert first["bright"].counts == second["bright"].counts
    assert first["dark"].counts == second["dark"].counts
    assert first["bright"].total_trials == 2000.0
    different = simulate_readout(model, trials=2000, seed=8)
    assert first["bright"].counts != different["bright"].counts


def test_monte_carlo_matches_binomial_when_flips_and_background_off():
    """Spec invariant: mean and variance within 4 sigma of Binomial(n, p)."""
    n_pulses, p, trials = 40, 0.05, 100_000
    model = ReadoutModel(p_detect=p, p_flip_bright=0.0, n_pulses=n_pulses, dark_rate=0.0)
    histogram = simulate_readout(model, trials=trials, seed=123)["bright"]
    mean_true = n_pulses * p
    var_true = n_pulses * p * (1.0 - p)
    mean_tolerance = 4.0 * math.sqrt(var_true / trials)
    assert abs(histogram.mean() - mean_true) < mean_tolerance
    # Variance of the sample variance for a Binomial sum: mu4 - var^2, with
    # mu4 the fourth central moment, estimated via the normal approximation
    # 2 var^2 + O(1/n); 4 sigma with a safety factor of 1.5 on the bound.
    var_tolerance = 4.0 * 1.5 * math.sqrt(2.0 * var_true**2 / trials)
    probabilities = histogram.probabilities()
    photons = np.arange(probabilities.size)
    variance = float(np.dot((photons - histogram.mean()) ** 2, probabilities))
    assert abs(variance - var_true) < var_tolerance
    # Bin-level agreement with the exact Binomial law.
    for k in range(min(probabilities.size, n_pulses + 1)):
        p_k = binomial_pmf(k, n_pulses, p)
        if p_k < 1e-5:
            continue
        sampling_sigma = math.sqrt(p_k * (1.0 - p_k) / trials)
        assert abs(probabilities[k] - p_k) < 4.0 * sampling_sigma


def test_monte_carlo_matches_dp_distribution_with_flips_and_background():
    p_detect, p_flip_bright, n_pulses, dark_rate = 0.3, 0.02, 20, 0.7
    trials = 100_000
    model = ReadoutModel(
        p_detect=p_detect, p_flip_bright=p_flip_bright, n_pulses=n_pulses, dark_rate=dark_rate
    )
    histograms = simulate_readout(model, trials=trials, seed=321)
    for start_bright, key in ((True, "bright"), (False, "dark")):
        signal = readout_signal_distribution(p_detect, p_flip_bright, 0.0, n_pulses, start_bright)
        n_max = len(histograms[key].counts) + 10
        expected = convolve_with_poisson(signal, dark_rate, n_max)
        observed = histograms[key].probabilities()
        for k in range(observed.size):
            p_k = expected[k]
            if p_k < 1e-5:
                continue
            sampling_sigma = math.sqrt(p_k * (1.0 - p_k) / trials)
            assert abs(observed[k] - p_k) < 4.0 * sampling_sigma, f"{key} bin {k}"


# --------------------------------------------------------------------------
# Calibration to measured statistics
# --------------------------------------------------------------------------

def test_calibrated_model_reproduces_measured_statistics():
    model = calibrate_readout_model(1.83, 0.13, 0.80, n_pulses=150)
    assert math.isclose(analytic_threshold_fidelity_k1(model), 0.80, rel_tol=1e-10)
    signal = mean_signal_counts(model.p_detect, model.p_flip_bright, model.n_pulses)
    assert math.isclose(signal + model.dark_rate, 1.83, rel_tol=1e-9)
    assert model.dark_rate == 0.13
    assert 0.0 < model.p_detect < 1.0
    assert 0.0 < model.p_flip_bright < 1.0


def test_calibration_root_matches_scipy_brentq():
    model = calibrate_readout_model(1.83, 0.13, 0.80, n_pulses=150)

    def fidelity_error(q):
        p_detect = (1.83 - 0.13) * q / (1.0 - (1.0 - q) ** 150)
        trial = ReadoutModel(p_detect=p_detect, p_flip_bright=q, n_pulses=150, dark_rate=0.13)
        return analytic_threshold_fidelity_k1(trial) - 0.80

    q_star = brentq(fidelity_error, 1e-12, 0.1, xtol=1e-14)
    assert abs(model.p_flip_bright - q_star) <= 1e-12


def test_calibration_returns_the_smallest_root_past_a_fidelity_dip():
    # For these means F(k=1) dips to ~0.783 near q ~ 0.03 and recovers, so 0.79
    # has roots at q ~ 0.0149 and q ~ 0.0743; the smaller one is returned.
    model = calibrate_readout_model(1.83, 0.13, 0.79, n_pulses=150)
    assert math.isclose(analytic_threshold_fidelity_k1(model), 0.79, rel_tol=1e-10)
    signal = mean_signal_counts(model.p_detect, model.p_flip_bright, model.n_pulses)
    assert math.isclose(signal + model.dark_rate, 1.83, rel_tol=1e-9)
    assert 0.0 < model.p_flip_bright < 0.03


def test_calibration_rejects_unreachable_targets():
    # The flip-free ceiling for these means is ~0.860.
    with pytest.raises(ValueError, match="flip-free"):
        calibrate_readout_model(1.83, 0.13, 0.87)
    with pytest.raises(ValueError, match="mean_bright"):
        calibrate_readout_model(0.10, 0.13, 0.8)


# --------------------------------------------------------------------------
# Coincidences
# --------------------------------------------------------------------------

def test_five_fold_coincidence_frozen():
    expected = nfold_coincidence_expectation(0.38e6, 0.014, 0.40, 86400.0, 5)
    assert math.isclose(expected, 7.0631350272, rel_tol=1e-12)


def test_coincidence_log_linearity_exact():
    values = [
        nfold_coincidence_expectation(0.38e6, 0.014, 0.40, 86400.0, n) for n in range(1, 9)
    ]
    ratios = [math.log(b) - math.log(a) for a, b in zip(values, values[1:])]
    for ratio in ratios:
        assert math.isclose(ratio, math.log(0.014), rel_tol=1e-12)


def test_coincidence_validation():
    with pytest.raises(ValueError, match="rate"):
        nfold_coincidence_expectation(0.0, 0.014, 0.4, 86400.0, 5)
    with pytest.raises(ValueError, match="eta"):
        nfold_coincidence_expectation(0.38e6, 1.5, 0.4, 86400.0, 5)
    with pytest.raises(ValueError, match="n must"):
        nfold_coincidence_expectation(0.38e6, 0.014, 0.4, 86400.0, 0)


def test_readout_model_validation():
    with pytest.raises(ValueError, match="p_detect"):
        ReadoutModel(p_detect=1.5)
    with pytest.raises(ValueError, match="n_pulses"):
        ReadoutModel(p_detect=0.5, n_pulses=0)
    with pytest.raises(ValueError, match="dark_rate"):
        ReadoutModel(p_detect=0.5, dark_rate=-0.1)
