"""Electronuclear spin Hamiltonian of the tin-vacancy ground manifold.

The model lives on an 8-dimensional product space

    orbital {e+, e-}  x  electron spin {up, down}  x  nuclear spin {up, down}

(in that tensor order) and contains spin-orbit coupling, electron and
nuclear Zeeman terms, and a longitudinal + transverse hyperfine interaction:

    H = lambda_so * L_z S_z
      + gamma_e * B . S  +  gamma_n * B . I
      + a_par * S_z I_z  +  a_perp * (S_x I_x + S_y I_y)

with L_z the orbital Pauli-z operator and S, I spin-1/2 operators.  The
couplings, the Hamiltonian and its eigenenergies are cyclic (Hz, Hz per
tesla), as are the optical-transition parameters and detunings: the
spectra that show them are read in Hz.

Because the spin-orbit splitting dominates every other scale by roughly
three orders of magnitude, the lower orbital branch is close to diagonal in
the S_z, I_z basis; the leading correction to its hyperfine splitting is
the transverse-hyperfine level repulsion
(sqrt(lambda_so^2 + a_perp^2) - lambda_so)/2 ~ a_perp^2 / (4 lambda_so).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import NUCLEAR_GYROMAGNETIC_HZ_PER_T

# Pauli matrices and spin-1/2 operators (S = sigma / 2).
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

SPIN_X = 0.5 * PAULI_X
SPIN_Y = 0.5 * PAULI_Y
SPIN_Z = 0.5 * PAULI_Z


@dataclass(frozen=True)
class SpinSystemParams:
    """Couplings of one orbital manifold of the register, in cyclic units.

    Attributes
    ----------
    lambda_so:
        Spin-orbit splitting (Hz); must be positive.
    gamma_e:
        Electron gyromagnetic ratio (Hz per T); must be positive.
    gamma_n:
        Nuclear gyromagnetic ratio (Hz per T); negative for tin.
    a_par:
        Longitudinal hyperfine coupling of S_z I_z (Hz).
    a_perp:
        Transverse hyperfine coupling of S_x I_x + S_y I_y (Hz).
    """

    lambda_so: float
    gamma_e: float
    gamma_n: float
    a_par: float
    a_perp: float

    def __post_init__(self) -> None:
        if self.lambda_so <= 0.0:
            raise ValueError(f"lambda_so must be positive, got {self.lambda_so}")
        if self.gamma_e <= 0.0:
            raise ValueError(f"gamma_e must be positive, got {self.gamma_e}")


@dataclass(frozen=True)
class OpticalTransitionParams:
    """Ground/excited differences governing the optical hyperfine structure.

    Both are cyclic, as the spectra that show them are.

    Attributes
    ----------
    zero_field_splitting_hz:
        Full zero-field splitting of the optical line (Hz): the difference
        of longitudinal hyperfine couplings between the two optically
        connected manifolds, halved.
    slope_hz_per_t:
        Rate (Hz per T) at which the spin-conserving lines separate with
        axial field: the difference of the manifolds' effective electron
        gyromagnetic ratios.
    """

    zero_field_splitting_hz: float
    slope_hz_per_t: float

    def __post_init__(self) -> None:
        if self.zero_field_splitting_hz == 0.0:
            raise ValueError(
                "zero_field_splitting_hz must be nonzero (optical line would not split)"
            )

    @classmethod
    def from_cyclic_hz(
        cls,
        zero_field_splitting_hz: float = 452.0e6,
        slope_hz_per_t: float = 5.41e9,
    ) -> "OpticalTransitionParams":
        """Build from the measured full zero-field splitting and field slope (Hz, Hz/T)."""
        return cls(zero_field_splitting_hz, slope_hz_per_t)


def sn117_ground() -> SpinSystemParams:
    """Default ground-manifold parameters for the 117-isotope register.

    The longitudinal hyperfine coupling is set to 2 * 452 MHz = 904 MHz so
    that, with a negligible excited-state coupling, the ground/excited
    difference reproduces the measured 452 MHz optical splitting.  The
    transverse coupling is taken equal to the longitudinal one (isotropic
    contact interaction) — an assumption, but immaterial below the 1e-3
    relative level because its effect is suppressed by a_perp / lambda_so.
    """
    return SpinSystemParams(
        lambda_so=850.0e9,
        gamma_e=28.0e9,
        gamma_n=NUCLEAR_GYROMAGNETIC_HZ_PER_T["sn117"],
        a_par=904.0e6,
        a_perp=904.0e6,
    )


def _three_site(op_orbital: np.ndarray, op_electron: np.ndarray, op_nuclear: np.ndarray) -> np.ndarray:
    return np.kron(op_orbital, np.kron(op_electron, op_nuclear))


def build_ground_hamiltonian(params: SpinSystemParams, b_field_t) -> np.ndarray:
    """Full 8x8 Hamiltonian (Hz) at a static field ``b_field_t`` (tesla).

    ``b_field_t`` is a length-3 sequence (bx, by, bz) in the defect frame
    with z along the symmetry axis.  The spin-orbit term acts as
    (lambda_so/2) * sigma_z(orbital) x sigma_z(electron) x identity(nucleus).
    """
    b = np.asarray(b_field_t, dtype=float)
    if b.shape != (3,):
        raise ValueError(f"b_field_t must be a 3-vector, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError(f"b_field_t must be finite, got {b}")
    bx, by, bz = b

    h = params.lambda_so * _three_site(PAULI_Z, SPIN_Z, IDENTITY_2)

    h += params.gamma_e * (
        bx * _three_site(IDENTITY_2, SPIN_X, IDENTITY_2)
        + by * _three_site(IDENTITY_2, SPIN_Y, IDENTITY_2)
        + bz * _three_site(IDENTITY_2, SPIN_Z, IDENTITY_2)
    )
    h += params.gamma_n * (
        bx * _three_site(IDENTITY_2, IDENTITY_2, SPIN_X)
        + by * _three_site(IDENTITY_2, IDENTITY_2, SPIN_Y)
        + bz * _three_site(IDENTITY_2, IDENTITY_2, SPIN_Z)
    )

    h += params.a_par * _three_site(IDENTITY_2, SPIN_Z, SPIN_Z)
    h += params.a_perp * (
        _three_site(IDENTITY_2, SPIN_X, SPIN_X)
        + _three_site(IDENTITY_2, SPIN_Y, SPIN_Y)
    )
    return h


def eigenenergies(hamiltonian: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of a Hermitian Hamiltonian, in its unit (Hz here).

    Raises ``ValueError`` if the matrix is not Hermitian to numerical
    precision, which catches construction mistakes early.
    """
    h = np.asarray(hamiltonian)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"hamiltonian must be square, got shape {h.shape}")
    scale = max(float(np.abs(h).max()), 1.0)
    if not np.allclose(h, h.conj().T, rtol=0.0, atol=1e-12 * scale):
        raise ValueError("hamiltonian is not Hermitian")
    return np.linalg.eigvalsh(h)


def optical_transition_detunings(
    transition: OpticalTransitionParams,
    bz_t: float,
) -> np.ndarray:
    """Sorted detunings (cyclic Hz) of the four spin-conserving optical lines.

    Each line is offset from the mean optical frequency by

        delta = n * splitting/2 + e * (slope/2) * bz,    n, e in {-1, +1},

    so at zero field the four lines collapse pairwise onto +-splitting/2.
    """
    if not math.isfinite(bz_t):
        raise ValueError(f"bz_t must be finite, got {bz_t}")
    zeeman = 0.5 * transition.slope_hz_per_t * bz_t
    hyperfine = 0.5 * transition.zero_field_splitting_hz
    lines = [
        n * hyperfine + e * zeeman
        for n in (-1.0, +1.0)
        for e in (-1.0, +1.0)
    ]
    return np.sort(lines)


def inner_line_crossing_field_t(transition: OpticalTransitionParams) -> float:
    """Axial field at which the two inner optical lines cross."""
    return transition.zero_field_splitting_hz / transition.slope_hz_per_t


def isotope_scaled_splitting(
    split_ref: float,
    gamma_ref: float,
    gamma_target: float,
) -> float:
    """Scale a hyperfine splitting to another isotope.

    The contact hyperfine coupling is proportional to the nuclear
    gyromagnetic ratio, so the splitting scales by gamma_target/gamma_ref.
    Inputs and output share whatever frequency unit ``split_ref`` uses.
    """
    if gamma_ref == 0.0:
        raise ValueError("gamma_ref must be nonzero")
    return split_ref * gamma_target / gamma_ref


def isotope_splitting_predictions_hz(
    reference_splitting_hz: float = 452.0e6,
    reference_isotope: str = "sn117",
) -> dict[str, float]:
    """Predicted optical splittings (Hz) for every tabulated spin-1/2 isotope."""
    try:
        g_ref = NUCLEAR_GYROMAGNETIC_HZ_PER_T[reference_isotope]
    except KeyError:
        known = ", ".join(sorted(NUCLEAR_GYROMAGNETIC_HZ_PER_T))
        raise KeyError(f"unknown isotope {reference_isotope!r}; known isotopes: {known}") from None
    return {
        isotope: isotope_scaled_splitting(reference_splitting_hz, g_ref, g_tgt)
        for isotope, g_tgt in sorted(NUCLEAR_GYROMAGNETIC_HZ_PER_T.items())
    }
