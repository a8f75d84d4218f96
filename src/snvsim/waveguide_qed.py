"""Reflection of a waveguide-coupled emitter behind a broadband mirror.

The emitter acts as a weakly coupled scatterer inside a single-sided,
broadband cavity formed by the waveguide and its Bragg reflector.  Near
resonance the reflected amplitude is

    r(delta) = 1 - (2 f_in) / (1 + C / (1 + 2 i delta / gamma_h))

with cooperativity C, input-coupling ratio f_in = kappa_in/kappa_tot, and
homogeneous linewidth gamma_h.  Measured spectra are normalized to the
far-detuned intensity |r(inf)|^2 = (1 - 2 f_in)^2.

The zero-detuning contrast is quadratic in C, so inverting it has two
branches; the inversion takes the small-C branch, which keeps the sign of
the on-resonance amplitude equal to the far-detuned one and is valid up to
the branch boundary C* = 2 f_in - 1 where the reflection dips to zero.

The known factors of the total guided-mode coupling efficiency are
constants: beta_tot = BETA_CAV * ETA_DW * eta_qe * ETA_ORB, where BETA_CAV
is the guided-mode fraction of emitted photons, ETA_DW the fraction emitted
into the zero-phonon line and ETA_ORB the branching ratio into the
addressed orbital transition.  The radiative quantum efficiency eta_qe is
the unknown: :func:`quantum_efficiency_bound` infers it from a measured
beta_tot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BETA_CAV = 0.32
ETA_DW = 0.57
ETA_ORB = 0.65


@dataclass(frozen=True)
class ReflectionModel:
    """Parameters of the emitter-waveguide reflection line shape.

    Attributes
    ----------
    cooperativity:
        Emitter-mode cooperativity C (dimensionless, >= 0).
    f_in:
        Input coupling ratio kappa_in/kappa_tot in (0, 1].
    gamma_h_hz:
        Homogeneous linewidth (cyclic Hz) of the optical transition.
    """

    cooperativity: float = 0.027
    f_in: float = 0.95
    gamma_h_hz: float = 70.0e6

    def __post_init__(self) -> None:
        if self.cooperativity < 0.0:
            raise ValueError(f"cooperativity must be >= 0, got {self.cooperativity}")
        if not 0.0 < self.f_in <= 1.0:
            raise ValueError(f"f_in must be in (0, 1], got {self.f_in}")
        if self.gamma_h_hz <= 0.0:
            raise ValueError(f"gamma_h_hz must be positive, got {self.gamma_h_hz}")


def _amplitude(delta_hz, cooperativity: float, f_in: float, gamma_h_hz: float) -> np.ndarray:
    """r(delta) from bare parameters, unvalidated so optimizers may probe freely."""
    delta = np.asarray(delta_hz, dtype=float)
    # Within a few ulp of the float maximum, a cooperativity overflows the scale
    # of numpy's complex division, which then rounds 2 f_in / (...) ~ 1e-308 to 0.
    with np.errstate(over="ignore"):
        return 1.0 - 2.0 * f_in / (1.0 + cooperativity / (1.0 + 2.0j * delta / gamma_h_hz))


def normalized_reflection_params(delta_hz, cooperativity: float, f_in: float, gamma_h_hz: float):
    """Normalized reflected intensity from bare parameters (no container).

    Formula core shared by :func:`normalized_reflection` and the fit-model
    registry; performs no validation so optimizers may probe freely.
    """
    reference = 1.0 - 2.0 * f_in
    if reference == 0.0:
        raise ValueError("f_in = 0.5 makes the far-detuned reference intensity zero")
    return np.abs(_amplitude(delta_hz, cooperativity, f_in, gamma_h_hz)) ** 2 / reference**2


def normalized_reflection_jacobian(delta_hz, cooperativity: float, f_in: float, gamma_h_hz: float):
    """Partials of :func:`normalized_reflection_params` in (C, gamma_h) at fixed f_in, shape (n, 2).

    With q = 1/(1 + 2i delta/gamma_h) and d = 1/(1 + C q), both of modulus <= 1
    for C >= 0, r = 1 - 2 f_in d.  A partial of |r / (1 - 2 f_in)|^2 is
    2 Re(conj(r) dr) / (1 - 2 f_in)^2.  The partials are built as rows and
    returned transposed, column-major: the last bits of
    :func:`~snvsim.fitting.fit`'s J'J depend on the layout, and fig4b's
    pinned outputs were made with this one.
    """
    q = 1.0 / (1.0 + 2.0j * np.asarray(delta_hz, dtype=float) / gamma_h_hz)
    d = 1.0 / (1.0 + cooperativity * q)
    r = 1.0 - 2.0 * f_in * d
    dr_dgamma = 2.0 * f_in * cooperativity * q * (1.0 - q) * d * d / gamma_h_hz
    dr = np.array([2.0 * f_in * q * d * d, dr_dgamma])
    return (2.0 * (np.conj(r) * dr).real / (1.0 - 2.0 * f_in) ** 2).T


def normalized_reflection(delta_hz, model: ReflectionModel):
    """Reflected intensity normalized to its far-detuned value.

    |r(delta)|^2 / |r(inf)|^2 with r(inf) = 1 - 2 f_in; tends to 1 at large
    detuning.  Undefined at f_in = 1/2 where the reference vanishes.
    """
    return normalized_reflection_params(
        delta_hz, model.cooperativity, model.f_in, model.gamma_h_hz
    )


def on_resonance_reflection(cooperativity: float, f_in: float) -> float:
    """Normalized reflected intensity at zero detuning.

        R(0) = ((1 - 2 f_in/(1+C)) / (1 - 2 f_in))^2
    """
    if f_in == 0.5:
        raise ValueError("f_in = 0.5 makes the far-detuned reference intensity zero")
    return ((1.0 - 2.0 * f_in / (1.0 + cooperativity)) / (1.0 - 2.0 * f_in)) ** 2


def dip_contrast(model: ReflectionModel) -> float:
    """Depth 1 - R(0) of the normalized on-resonance reflection dip."""
    return 1.0 - on_resonance_reflection(model.cooperativity, model.f_in)


def dip_fwhm_hz(model: ReflectionModel) -> float:
    """Full width at half depth of the normalized reflection dip.

    The contrast 1 - R(delta) is an exact Lorentzian in detuning for this
    model, of width gamma_h * (1 + C).
    """
    return model.gamma_h_hz * (1.0 + model.cooperativity)


def cooperativity_from_contrast(r_norm0: float, f_in: float) -> float:
    """Invert the on-resonance normalized reflection for the cooperativity.

    The zero-detuning intensity determines |1 - 2 f_in/(1+C)| only up to
    sign, giving two roots, C = 2 f_in / (1 -+ (1 - 2 f_in) sqrt(r_norm0)) - 1.
    This is the small-C root (on-resonance amplitude of the same sign as
    the far-detuned one),

        C = 2 f_in / (1 - (1 - 2 f_in) sqrt(r_norm0)) - 1,

    which round-trips with ``on_resonance_reflection`` for C <= 2 f_in - 1.
    """
    if not 0.0 < r_norm0 <= 1.0:
        raise ValueError(f"r_norm0 must be in (0, 1], got {r_norm0}")
    if f_in == 0.5:
        raise ValueError("f_in = 0.5 makes the far-detuned reference intensity zero")
    denominator = 1.0 - (1.0 - 2.0 * f_in) * math.sqrt(r_norm0)
    if denominator <= 0.0:
        raise ValueError(f"contrast {r_norm0} is not attainable for f_in = {f_in}")
    c = 2.0 * f_in / denominator - 1.0
    if c < 0.0:
        raise ValueError(
            f"contrast {r_norm0} with f_in = {f_in} implies negative cooperativity {c:.3g}"
        )
    return c


def beta_total(cooperativity: float, gamma_h_hz: float, gamma0_hz: float) -> float:
    """Total guided-mode coupling beta_tot = C * gamma_h / gamma0.

    The emitter-mode interaction rate is C * gamma_h; dividing by the total
    decay rate gives the fraction of decays into the guided mode.  A ratio
    above 1 is returned as it is: no physical coupling gives one, and
    judging it is the caller's job.
    """
    if gamma_h_hz <= 0.0 or gamma0_hz <= 0.0:
        raise ValueError("linewidths must be positive")
    if cooperativity < 0.0:
        raise ValueError(f"cooperativity must be >= 0, got {cooperativity}")
    return cooperativity * gamma_h_hz / gamma0_hz


def quantum_efficiency_bound(beta_tot: float) -> float:
    """Radiative quantum efficiency implied by a measured beta_tot.

        eta_qe = beta_tot / (BETA_CAV * ETA_DW * ETA_ORB)

    A lower bound: any unmodeled interference or loss only raises the true
    value.
    """
    if beta_tot < 0.0:
        raise ValueError(f"beta_tot must be >= 0, got {beta_tot}")
    return beta_tot / (BETA_CAV * ETA_DW * ETA_ORB)


def contrast_vs_saturation(saturation, r0_contrast: float):
    """Reflection contrast R(0)/(1+s) at saturation parameter ``saturation``."""
    s = np.asarray(saturation, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("saturation parameter must be >= 0")
    return r0_contrast / (1.0 + s)
