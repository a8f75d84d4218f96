"""Unit conventions and conversions.

The rates of the optical dynamics (decay rates, Rabi frequencies) are
angular, rad/s, because they enter as phases and exponents.  Every other
frequency is cyclic Hz, as the spectra that show them are, so that values
compare directly with instrument readings: the spin-Hamiltonian couplings
and levels, detunings, line widths and the optical-transition parameters.
Where the two meet, a value converts once, by ``TWO_PI``.

Magnetic fields are tesla, times are seconds, powers are watts unless a
function name says otherwise.  The tabulated nuclear gyromagnetic ratios
live here too, in cyclic Hz per tesla, so the scenario registry can name
the isotopes without loading the spin model.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi

#: Nuclear gyromagnetic ratios gamma_n / 2pi in Hz per tesla for the
#: spin-1/2 tin isotopes, from standard NMR reference tables.
NUCLEAR_GYROMAGNETIC_HZ_PER_T = {
    "sn115": -14.0077e6,
    "sn117": -15.2610e6,
    "sn119": -15.9659e6,
}


def db_to_fraction(loss_db: float) -> float:
    """Transmitted power fraction for an attenuation given in dB.

    A positive ``loss_db`` means loss: ``db_to_fraction(3.0) ~= 0.5``.
    """
    return 10.0 ** (-loss_db / 10.0)


def fraction_to_db(fraction: float) -> float:
    """Attenuation in dB for a transmitted power fraction in (0, 1]."""
    if fraction <= 0.0:
        raise ValueError(f"power fraction must be positive, got {fraction}")
    return -10.0 * math.log10(fraction)


def fwhm_to_sigma(fwhm: float) -> float:
    """Standard deviation of a Gaussian with the given full width at half maximum."""
    return fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))


def sigma_to_fwhm(sigma: float) -> float:
    """Full width at half maximum of a Gaussian with the given standard deviation."""
    return sigma * 2.0 * math.sqrt(2.0 * math.log(2.0))


def fourier_limited_fwhm_hz(lifetime_s: float) -> float:
    """Lorentzian FWHM (cyclic Hz) of a transition with the given excited-state lifetime.

    A purely lifetime-broadened line has an angular linewidth equal to the
    population decay rate 1/tau, i.e. a cyclic FWHM of 1/(2*pi*tau).
    """
    if lifetime_s <= 0.0:
        raise ValueError(f"lifetime must be positive, got {lifetime_s}")
    return 1.0 / (TWO_PI * lifetime_s)
