"""Closed-form optical dynamics of the driven two-level transition.

Spontaneous decay, damped Rabi oscillations with pi-pulse calibration,
intensity autocorrelation, fluorescence saturation, optical-pumping
initialization, and nuclear polarization decay.  Each function takes bare
parameters and checks them; the fit models of :mod:`snvsim.fitting` call
the same functions, so a formula is stated once.

The damped Rabi model used throughout is

    rho_ee(t) = 1/2 * [1 - (cos(Omega t) + sin(Omega t)/(Omega T1)) * exp(-t/T1)]

which starts from the ground state, saturates to 1/2, and has its extrema
exactly at Omega t = k pi; the population transferred by a resonant pi
pulse is therefore (1 + exp(-pi/(Omega T1))) / 2.
"""

from __future__ import annotations

import math
import sys

import numpy as np


def _lifetimes(t: np.ndarray, tau: float) -> np.ndarray:
    """t / tau, clipped to the largest float where the quotient overflows.

    exp(-t / tau) is then exactly 0, its limit there, and the quotient times
    a bounded factor stays finite; every decay below takes its exponent here.
    """
    with np.errstate(over="ignore"):
        return np.minimum(t / tau, sys.float_info.max)


def spontaneous_decay(t_s, tau_s: float):
    """Excited-state population exp(-t/tau) after pulsed excitation."""
    if tau_s <= 0.0:
        raise ValueError(f"lifetime must be positive, got {tau_s}")
    t = np.asarray(t_s, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("time must be non-negative")
    return np.exp(-_lifetimes(t, tau_s))


def rabi_population(t_s, omega: float, t1: float):
    """Damped-Rabi excited population starting from the ground state.

    ``omega`` is the angular Rabi frequency (rad/s), ``t1`` the optical
    relaxation time (s).  Evaluated through sin(x)/x so small Omega*t is
    exact; the steady state is 1/2.  An Omega*t beyond the float range is a
    ``ValueError``.
    """
    if omega <= 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    if t1 <= 0.0:
        raise ValueError(f"t1 must be positive, got {t1}")
    t = np.asarray(t_s, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("time must be non-negative")
    with np.errstate(over="ignore"):
        phase = omega * t
    if not np.isfinite(phase).all():
        raise ValueError("omega * t must be finite: the phase is beyond the float range")
    elapsed = _lifetimes(t, t1)
    # sin(omega t) / (omega t1) == (t / t1) * sinc(omega t / pi)
    ringdown = np.cos(phase) + elapsed * np.sinc(phase / np.pi)
    return 0.5 * (1.0 - ringdown * np.exp(-elapsed))


def pi_pulse_calibration(omega: float, t1: float) -> dict[str, float]:
    """Duration and fidelity of the population-maximizing resonant pulse.

    The damped-Rabi population has derivative

        d rho_ee / dt = 1/2 * (Omega + 1/(Omega T1^2)) * sin(Omega t) * exp(-t/T1)

    so on (0, 2 pi / Omega] its only maximum sits at Omega t = pi, and the
    pi pulse is t_pi = pi / Omega exactly.
    Returns ``{"t_pi": seconds, "fidelity": population}``.
    """
    if omega <= 0.0:  # checked before the divide; rabi_population checks t1
        raise ValueError(f"omega must be positive, got {omega}")
    t_pi = math.pi / omega
    return {"t_pi": t_pi, "fidelity": float(rabi_population(t_pi, omega, t1))}


def g2_autocorrelation(tau_s, omega: float, t1: float, background: float = 0.0):
    """Second-order intensity autocorrelation of the driven transition.

    The ideal antibunched correlation is the normalized re-excitation
    transient 2*rho_ee(tau); uncorrelated background counts fold in as one
    affine parameter:

        g2(tau) = (1 - background) * 2 rho_ee(tau) + background

    so g2(0) = background exactly and g2 -> 1 at long delay; a background
    of 1 is all uncorrelated counts, g2 = 1 at every delay.
    """
    if not 0.0 <= background <= 1.0:
        raise ValueError(f"background must be in [0, 1], got {background}")
    ideal = 2.0 * rabi_population(np.abs(np.asarray(tau_s, dtype=float)), omega, t1)
    return (1.0 - background) * ideal + background


def saturation_rate(p_w, p_sat: float, i_infinity: float):
    """Detected fluorescence rate i_infinity / (1 + p_sat/p) at drive power ``p_w``.

    Where p_sat/p overflows, the rate is 0, its limit, as it is where the
    quotient i_infinity / (1 + p_sat/p) underflows.
    """
    if p_sat <= 0.0 or i_infinity <= 0.0:
        raise ValueError("saturation power and limiting intensity must be positive")
    p = np.asarray(p_w, dtype=float)
    if np.any(p <= 0.0):
        raise ValueError("power must be positive")
    with np.errstate(over="ignore"):
        return i_infinity / (1.0 + p_sat / p)


def pumping_fidelity(t_s, f_infinity: float, tau_pump: float):
    """Initialization fidelity after pumping for ``t_s`` seconds.

    Single-exponential approach, with time constant ``tau_pump``, from the
    unpolarized start 1/2 to the steady state ``f_infinity``.
    """
    if not 0.5 <= f_infinity <= 1.0:
        raise ValueError(f"f_infinity must be in [0.5, 1], got {f_infinity}")
    if tau_pump <= 0.0:
        raise ValueError(f"tau_pump must be positive, got {tau_pump}")
    t = np.asarray(t_s, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("time must be non-negative")
    return f_infinity - (f_infinity - 0.5) * np.exp(-_lifetimes(t, tau_pump))


def pumping_time_constant(t_s: float, fidelity: float, f_infinity: float) -> float:
    """Calibrate the pumping time constant from one (duration, fidelity) point,
    pumped from the unpolarized start 1/2."""
    if not 0.5 < fidelity < f_infinity:
        raise ValueError(f"fidelity {fidelity} must lie in (0.5, {f_infinity}) to be reachable")
    return t_s / math.log((f_infinity - 0.5) / (f_infinity - fidelity))


def nuclear_polarization_decay(t_s, t1n: float, f_init: float):
    """Nuclear initialization fidelity relaxing to the unpolarized value 1/2.

        f(t) = 1/2 + (f_init - 1/2) * exp(-t / t1n)
    """
    if t1n <= 0.0:
        raise ValueError(f"t1n must be positive, got {t1n}")
    t = np.asarray(t_s, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("time must be non-negative")
    return 0.5 + (f_init - 0.5) * np.exp(-_lifetimes(t, t1n))
