"""Electronuclear spin Hamiltonian of the tin-vacancy ground manifold.

The model lives on an 8-dimensional product space

    orbital {e+, e-}  x  electron spin {up, down}  x  nuclear spin {up, down}

(in that tensor order) and contains spin-orbit coupling, electron and
nuclear Zeeman terms, and a longitudinal + transverse hyperfine interaction:

    H = lambda_so * L_z S_z
      + gamma_e * B . S  +  gamma_n * B . I
      + a_par * S_z I_z  +  a_perp * (S_x I_x + S_y I_y)

with L_z the orbital Pauli-z operator and S, I spin-1/2 operators.  All
couplings are stored in angular units (rad/s, rad/s per tesla); use the
``from_cyclic_hz`` constructors and ``*_hz`` helpers at the boundaries.

Because the spin-orbit splitting dominates every other scale by roughly
three orders of magnitude, the lower orbital branch is well described by a
diagonal 4-dimensional effective model (``reduced_hamiltonian``); the
leading correction is the transverse-hyperfine level repulsion
(sqrt(lambda_so^2 + a_perp^2) - lambda_so)/2 ~ a_perp^2 / (4 lambda_so).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .units import NUCLEAR_GYROMAGNETIC_HZ_PER_T, TWO_PI, cyclic_to_angular

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
    """Couplings of one orbital manifold of the register, in angular units.

    Attributes
    ----------
    lambda_so:
        Spin-orbit splitting (rad/s); must be positive.
    gamma_e:
        Electron gyromagnetic ratio (rad/s per T); must be positive.
    gamma_n:
        Nuclear gyromagnetic ratio (rad/s per T); negative for tin.
    a_par:
        Longitudinal hyperfine coupling of S_z I_z (rad/s).
    a_perp:
        Transverse hyperfine coupling of S_x I_x + S_y I_y (rad/s).
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

    @classmethod
    def from_cyclic_hz(
        cls,
        lambda_so_hz: float,
        gamma_e_hz_per_t: float,
        gamma_n_hz_per_t: float,
        a_par_hz: float,
        a_perp_hz: float,
    ) -> "SpinSystemParams":
        """Build parameters from cyclic-frequency inputs (Hz, Hz/T)."""
        return cls(
            lambda_so=cyclic_to_angular(lambda_so_hz),
            gamma_e=cyclic_to_angular(gamma_e_hz_per_t),
            gamma_n=cyclic_to_angular(gamma_n_hz_per_t),
            a_par=cyclic_to_angular(a_par_hz),
            a_perp=cyclic_to_angular(a_perp_hz),
        )


@dataclass(frozen=True)
class OpticalTransitionParams:
    """Ground/excited differences governing the optical hyperfine structure.

    Attributes
    ----------
    delta_a_par:
        Difference of longitudinal hyperfine couplings between the two
        optically connected manifolds (rad/s).  The zero-field splitting of
        the optical line is |delta_a_par| / 2 in angular units.
    delta_gamma_eff:
        Difference of the effective electron gyromagnetic ratios of the two
        manifolds (rad/s per T); sets the rate at which the spin-conserving
        lines separate with axial field.
    """

    delta_a_par: float
    delta_gamma_eff: float

    def __post_init__(self) -> None:
        if self.delta_a_par == 0.0:
            raise ValueError("delta_a_par must be nonzero (optical line would not split)")

    @classmethod
    def from_cyclic_hz(
        cls,
        zero_field_splitting_hz: float = 452.0e6,
        slope_hz_per_t: float = 5.41e9,
    ) -> "OpticalTransitionParams":
        """Build from the measured full zero-field splitting and field slope (Hz, Hz/T)."""
        return cls(
            delta_a_par=2.0 * cyclic_to_angular(zero_field_splitting_hz),
            delta_gamma_eff=cyclic_to_angular(slope_hz_per_t),
        )

    @property
    def zero_field_splitting_hz(self) -> float:
        """Full zero-field splitting of the optical line in cyclic Hz."""
        return abs(self.delta_a_par) / (2.0 * TWO_PI)

    @property
    def slope_hz_per_t(self) -> float:
        """Line-separation rate in cyclic Hz per tesla."""
        return self.delta_gamma_eff / TWO_PI


def sn117_ground() -> SpinSystemParams:
    """Default ground-manifold parameters for the 117-isotope register.

    The longitudinal hyperfine coupling is set to 2 * 452 MHz = 904 MHz so
    that, with a negligible excited-state coupling, the ground/excited
    difference reproduces the measured 452 MHz optical splitting.  The
    transverse coupling is taken equal to the longitudinal one (isotropic
    contact interaction) — an assumption, but immaterial below the 1e-3
    relative level because its effect is suppressed by a_perp / lambda_so.
    """
    return SpinSystemParams.from_cyclic_hz(
        lambda_so_hz=850.0e9,
        gamma_e_hz_per_t=28.0e9,
        gamma_n_hz_per_t=-15.24e6,
        a_par_hz=904.0e6,
        a_perp_hz=904.0e6,
    )


def excited_params_from_ground(
    ground: SpinSystemParams, transition: OpticalTransitionParams
) -> SpinSystemParams:
    """Excited-manifold parameters implied by the measured differences.

    Only the difference of longitudinal hyperfine couplings is measured, so
    the excited manifold takes a_par(exc) = a_par(gnd) - delta_a_par with
    unchanged spin-orbit and transverse couplings.  This split between the
    manifolds is an assumption, not a measurement.
    """
    return SpinSystemParams(
        lambda_so=ground.lambda_so,
        gamma_e=ground.gamma_e + transition.delta_gamma_eff,
        gamma_n=ground.gamma_n,
        a_par=ground.a_par - transition.delta_a_par,
        a_perp=ground.a_perp,
    )


def _three_site(op_orbital: np.ndarray, op_electron: np.ndarray, op_nuclear: np.ndarray) -> np.ndarray:
    return np.kron(op_orbital, np.kron(op_electron, op_nuclear))


def build_ground_hamiltonian(params: SpinSystemParams, b_field_t) -> np.ndarray:
    """Full 8x8 Hamiltonian (rad/s) at a static field ``b_field_t`` (tesla).

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
    """Sorted eigenvalues (rad/s) of a Hermitian Hamiltonian.

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


def eigenenergies_hz(hamiltonian: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of ``hamiltonian`` converted to cyclic Hz."""
    return eigenenergies(hamiltonian) / TWO_PI


class GroundBranchEnergies(NamedTuple):
    """Closed-form zero-field energies (rad/s) of the lower orbital branch."""

    aligned: float
    antialigned: float


def ground_branch_energies(params: SpinSystemParams) -> GroundBranchEnergies:
    """Closed-form zero-field energies of the lower-branch hyperfine levels.

        E_aligned     = -lambda_so / 2 + a_par / 4
        E_antialigned = -sqrt(lambda_so^2 + a_perp^2) / 2 - a_par / 4

    The antialigned doublet is pushed down by the transverse hyperfine
    coupling; their difference tends to a_par / 2 as a_perp -> 0.
    """
    aligned = -params.lambda_so / 2.0 + params.a_par / 4.0
    antialigned = -math.sqrt(params.lambda_so**2 + params.a_perp**2) / 2.0 - params.a_par / 4.0
    return GroundBranchEnergies(aligned=aligned, antialigned=antialigned)


def reduced_hamiltonian(
    params: SpinSystemParams,
    gamma_eff: float | None = None,
    bz_t: float = 0.0,
) -> np.ndarray:
    """Diagonal 4x4 effective Hamiltonian (rad/s) of the lower orbital branch.

    Valid for a field along the symmetry axis when all spin scales are small
    against the spin-orbit splitting:

        H_eff = gamma_eff * bz * S_z + gamma_n * bz * I_z + a_par * S_z I_z

    over the basis {upUp, upDn, dnUp, dnDn}, with energies measured from the
    branch centre.  ``gamma_eff`` is the quenched in-branch electron
    gyromagnetic ratio and defaults to the bare ``params.gamma_e``.
    """
    if abs(params.a_perp) / params.lambda_so > 0.01:
        warnings.warn(
            "transverse hyperfine coupling exceeds 1% of the spin-orbit splitting; "
            "the reduced diagonal model neglects O(a_perp^2/lambda_so) corrections",
            stacklevel=2,
        )
    ge = params.gamma_e if gamma_eff is None else gamma_eff
    return (
        ge * bz_t * np.kron(SPIN_Z, IDENTITY_2)
        + params.gamma_n * bz_t * np.kron(IDENTITY_2, SPIN_Z)
        + params.a_par * np.kron(SPIN_Z, SPIN_Z)
    )


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


def angular_splitting_rate(
    amplitude_ghz_per_t: float,
    phi0_rad: float,
    phi_rad,
):
    """Field-angle dependence |amplitude * cos(phi + phi0)| of the splitting rate.

    Only the axial field projection splits the lines to first order, so the
    measured splitting rate vanishes when the total field is orthogonal to
    the symmetry axis; the dependence has period pi.
    """
    return np.abs(amplitude_ghz_per_t * np.cos(np.asarray(phi_rad, dtype=float) + phi0_rad))


def project_field(magnitude_t: float, angle_deg: float = 35.0) -> float:
    """Project an applied field of given magnitude onto the symmetry axis.

    The device geometry fixes the angle between the applied field and the
    defect axis; only the axial projection enters the reduced Hamiltonian.
    """
    return magnitude_t * math.cos(math.radians(angle_deg))


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
