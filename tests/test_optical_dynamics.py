"""Optical dynamics: damped Rabi model, correlations, pumping, saturation.

Dual route on the flagship number: the numerically maximized pulse
calibration is checked against the closed-form half-period maximum from
tests/oracles.py.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import damped_rabi_population, pi_fidelity_closed_form
from snvsim.optical_dynamics import (
    g2_autocorrelation,
    nuclear_polarization_decay,
    pi_pulse_calibration,
    pumping_fidelity,
    pumping_time_constant,
    rabi_population,
    saturation_rate,
    spontaneous_decay,
)
from snvsim.units import TWO_PI

OMEGA = TWO_PI * 230.0e6
T1 = 4.7e-9
P_SAT = 120.0e-12
I_INFINITY = 1.34e6


# --------------------------------------------------------------------------
# Damped Rabi model
# --------------------------------------------------------------------------

@given(
    st.floats(min_value=0.0, max_value=100e-9),
    st.floats(min_value=1e8, max_value=1e10),
    st.floats(min_value=0.5e-9, max_value=50e-9),
)
def test_rabi_population_stays_in_unit_interval(t, omega, t1):
    population = rabi_population(t, omega, t1)
    assert 0.0 <= population <= 1.0


@given(
    st.floats(min_value=1e-12, max_value=100e-9),
    st.floats(min_value=1e8, max_value=1e10),
    st.floats(min_value=0.5e-9, max_value=50e-9),
)
def test_rabi_population_matches_independent_formula(t, omega, t1):
    assert math.isclose(
        rabi_population(t, omega, t1),
        damped_rabi_population(t, omega, t1),
        rel_tol=1e-12,
        abs_tol=1e-15,
    )


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_rabi_stationary_points_at_multiples_of_half_period(k):
    t_k = k * math.pi / OMEGA
    h = 1e-7 * t_k
    derivative = (rabi_population(t_k + h, OMEGA, T1) - rabi_population(t_k - h, OMEGA, T1)) / (2 * h)
    # Population varies at rate ~Omega; the stationary point must beat that by orders.
    assert abs(derivative) < 1e-9 * OMEGA
    before = (rabi_population(t_k - 100 * h, OMEGA, T1) - rabi_population(t_k - 101 * h, OMEGA, T1))
    after = (rabi_population(t_k + 101 * h, OMEGA, T1) - rabi_population(t_k + 100 * h, OMEGA, T1))
    assert before * after < 0.0  # derivative changes sign: a genuine extremum


def test_rabi_small_drive_limit():
    # Omega -> 0: population -> (1 - (1 + t/T1) e^(-t/T1)) / 2.
    t = 3.0e-9
    tiny = 1.0e-3
    limit = 0.5 * (1.0 - (1.0 + t / T1) * math.exp(-t / T1))
    assert math.isclose(rabi_population(t, tiny, T1), limit, rel_tol=1e-9)


def test_rabi_validation():
    with pytest.raises(ValueError, match="omega"):
        rabi_population(1e-9, 0.0, T1)
    with pytest.raises(ValueError, match="t1"):
        rabi_population(1e-9, OMEGA, -1.0)
    with pytest.raises(ValueError, match="non-negative"):
        rabi_population(-1e-9, OMEGA, T1)


def test_pi_pulse_calibration_matches_closed_form_oracle():
    result = pi_pulse_calibration(OMEGA, T1)
    t_pi_oracle, fidelity_oracle = pi_fidelity_closed_form(OMEGA, T1)
    assert math.isclose(result["t_pi"], t_pi_oracle, rel_tol=1e-6)
    assert math.isclose(result["fidelity"], fidelity_oracle, rel_tol=1e-9)


def test_pi_pulse_frozen_values():
    result = pi_pulse_calibration(OMEGA, T1)
    assert math.isclose(result["t_pi"] * 1e9, 2.1739130434782608, rel_tol=1e-6)
    assert math.isclose(result["fidelity"], 0.8148427816382287, rel_tol=1e-9)


# --------------------------------------------------------------------------
# Intensity autocorrelation
# --------------------------------------------------------------------------

def test_g2_zero_delay_equals_background_exactly():
    assert g2_autocorrelation(0.0, OMEGA, T1, background=0.0) == 0.0
    assert g2_autocorrelation(0.0, OMEGA, T1, background=0.052) == 0.052


def test_g2_is_symmetric_and_settles_to_one():
    # Integer multiples of the step make the grid exactly sign-symmetric,
    # so the correlation must be exactly palindromic.
    tau = np.arange(-200, 201) * 0.15e-9
    g2 = g2_autocorrelation(tau, OMEGA, T1, background=0.052)
    assert np.array_equal(g2, g2[::-1])
    assert math.isclose(g2_autocorrelation(1e-6, OMEGA, T1), 1.0, rel_tol=1e-9)


@given(st.floats(min_value=0.0, max_value=60e-9))
def test_g2_envelope_bound(tau):
    g2 = g2_autocorrelation(tau, OMEGA, T1)
    bound = math.exp(-tau / T1) * (1.0 + 1.0 / (OMEGA * T1))
    assert abs(g2 - 1.0) <= bound + 1e-12


def test_g2_background_validation():
    tau = np.array([0.0, 1e-9, 1e-6])
    assert np.array_equal(g2_autocorrelation(tau, OMEGA, T1, background=1.0), np.ones(3))
    for background in (-0.1, 1.0000000000000002):
        with pytest.raises(ValueError, match="background"):
            g2_autocorrelation(0.0, OMEGA, T1, background=background)


# --------------------------------------------------------------------------
# Decay, Fourier limit, saturation
# --------------------------------------------------------------------------

def test_spontaneous_decay_is_pure_exponential():
    assert math.isclose(spontaneous_decay(5.56e-9, 5.56e-9), math.exp(-1.0), rel_tol=1e-15)
    with pytest.raises(ValueError, match="lifetime"):
        spontaneous_decay(1e-9, 0.0)


def test_saturation_half_rate_at_saturation_power():
    assert math.isclose(saturation_rate(P_SAT, P_SAT, I_INFINITY), I_INFINITY / 2.0, rel_tol=1e-15)


def test_saturation_increasing_and_concave():
    powers = np.geomspace(1e-12, 1e-8, 200)
    rates = saturation_rate(powers, P_SAT, I_INFINITY)
    assert np.all(np.diff(rates) > 0.0)
    # Concavity on a uniform grid: second difference never positive.
    uniform = np.linspace(1e-12, 2e-9, 200)
    rates_uniform = saturation_rate(uniform, P_SAT, I_INFINITY)
    assert np.all(np.diff(rates_uniform, 2) <= 1e-9 * I_INFINITY)


def test_saturation_rate_is_zero_where_the_power_ratio_overflows():
    assert saturation_rate(1e-300, 1e300, I_INFINITY) == 0.0


def test_saturation_validation():
    for power in (0.0, -1e-12, [1e-12, 0.0]):
        with pytest.raises(ValueError, match="power must be positive"):
            saturation_rate(power, P_SAT, I_INFINITY)
    for p_sat, i_infinity in ((0.0, I_INFINITY), (-1.0, I_INFINITY), (P_SAT, 0.0), (P_SAT, -1.0)):
        with pytest.raises(ValueError, match="limiting intensity must be positive"):
            saturation_rate(1e-12, p_sat, i_infinity)


# --------------------------------------------------------------------------
# Pumping and nuclear relaxation
# --------------------------------------------------------------------------

def test_pumping_fidelity_endpoints():
    assert pumping_fidelity(0.0, 0.986, 6.8e-6) == 0.5
    assert math.isclose(pumping_fidelity(1.0, 0.986, 6.8e-6), 0.986, rel_tol=1e-12)
    # Each end of the steady-state range [0.5, 1] is taken.
    assert pumping_fidelity(1.0, 0.5, 6.8e-6) == 0.5
    assert math.isclose(pumping_fidelity(1.0, 1.0, 6.8e-6), 1.0, rel_tol=1e-12)


@pytest.mark.parametrize(
    "f_infinity, tau_pump, message",
    [
        (math.nextafter(0.5, 0.0), 6.8e-6, "f_infinity"),
        (math.nextafter(1.0, 2.0), 6.8e-6, "f_infinity"),
        (0.986, 0.0, "tau_pump"),
        (0.986, -6.8e-6, "tau_pump"),
    ],
)
def test_pumping_validation(f_infinity, tau_pump, message):
    with pytest.raises(ValueError, match=message):
        pumping_fidelity(1e-6, f_infinity, tau_pump)


@given(
    st.floats(min_value=1e-7, max_value=1e-3),
    st.floats(min_value=0.55, max_value=0.999),
)
def test_pumping_time_constant_inverts_pumping_fidelity(tau, f_infinity):
    t_probe = 2.5 * tau
    fidelity = pumping_fidelity(t_probe, f_infinity, tau)
    recovered = pumping_time_constant(t_probe, fidelity, f_infinity)
    assert math.isclose(recovered, tau, rel_tol=1e-9)


def test_pumping_time_constant_frozen_calibration_point():
    tau = pumping_time_constant(30e-6, 0.98, 0.986)
    assert math.isclose(tau * 1e6, 6.826794199701282, rel_tol=1e-12)


def test_pumping_time_constant_rejects_unreachable_fidelity():
    # fidelity == 1/2, the unpolarized start, would divide by log(1) = 0.
    for fidelity in (0.99, 0.5):
        with pytest.raises(ValueError, match=r"must lie in \(0.5, 0.986\) to be reachable"):
            pumping_time_constant(30e-6, fidelity, 0.986)


def test_nuclear_polarization_decays_to_one_half():
    assert nuclear_polarization_decay(0.0, 1.25, 0.98) == pytest.approx(0.98, rel=1e-15)
    assert math.isclose(nuclear_polarization_decay(100.0, 1.25, 0.98), 0.5, rel_tol=1e-12)
    assert math.isclose(
        nuclear_polarization_decay(1.25, 1.25, 0.98),
        0.5 + 0.48 * math.exp(-1.0),
        rel_tol=1e-15,
    )

