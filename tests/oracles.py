"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles with a
different algorithm than the module under test uses, so an agreement
between the two routes is meaningful:

- eigenvalues via hand-coded cyclic Jacobi rotations (vs LAPACK),
- Poisson probabilities via explicit series (vs scipy.stats),
- the photon-counting pulse chain two ways: an exact dynamic program over
  the spin state with a term-by-term Poisson convolution, and a per-pulse
  sampler of single readouts (vs the package's vectorized recursion and
  its multinomial histograms),
- central-difference Jacobians (vs each fit model's closed form), and
  analytic Lorentzian derivatives (vs both),
- closed-form damped-Rabi quantities (vs numeric maximization),
- the single-exponential decays as optical_dynamics once stated them, one
  wrapper each (vs the ``exponential`` fit model whose values the scenarios
  now sample; these are references to agree with bit for bit),
- closed-form zero-field branch energies and the reflection branch
  boundary (vs diagonalization and the reflection line shape).

Only math and numpy are used; nothing imports the package under test.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


# --------------------------------------------------------------------------
# Eigenvalues: cyclic Jacobi rotations
# --------------------------------------------------------------------------

def jacobi_eigenvalues_symmetric(matrix, max_sweeps: int = 100) -> np.ndarray:
    """Sorted eigenvalues of a real symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(matrix, dtype=float, copy=True)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    scale = max(float(np.abs(a).max()), 1.0)
    for _ in range(max_sweeps):
        off = math.sqrt(float(np.sum(np.square(a - np.diag(np.diag(a))))))
        if off <= 1e-15 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
    return np.sort(np.diag(a))


def jacobi_eigenvalues_hermitian(matrix) -> np.ndarray:
    """Sorted eigenvalues of a complex Hermitian matrix.

    Uses the real embedding [[Re, -Im], [Im, Re]], whose spectrum is that
    of the Hermitian matrix with every eigenvalue doubled, then the real
    Jacobi solver above.
    """
    h = np.asarray(matrix, dtype=complex)
    embedded = np.block([[h.real, -h.imag], [h.imag, h.real]])
    doubled = jacobi_eigenvalues_symmetric(embedded)
    return doubled[::2]


# --------------------------------------------------------------------------
# Poisson and binomial probabilities from explicit series
# --------------------------------------------------------------------------

def poisson_pmf(k: int, mu: float) -> float:
    if k < 0:
        return 0.0
    return math.exp(-mu + k * math.log(mu) - math.lgamma(k + 1)) if mu > 0 else (1.0 if k == 0 else 0.0)


def poisson_tail(k: int, mu: float) -> float:
    """P(N >= k) for N ~ Poisson(mu), by direct summation of the tail.

    Summing the tail terms themselves (rather than 1 - head) stays accurate
    when the tail is far below the rounding error of 1.
    """
    if k <= 0:
        return 1.0
    terms = []
    i = k
    while True:
        term = poisson_pmf(i, mu)
        terms.append(term)
        # <=, not <: below terms[0] ~ 1e-293 the bound underflows to 0, and
        # only a term that has underflowed as well can end the sum.
        if term <= 1e-30 * (terms[0] if terms[0] > 0.0 else 1.0) and i > mu + k:
            break
        i += 1
    return math.fsum(terms)


def binomial_pmf(k: int, n: int, p: float) -> float:
    if not 0 <= k <= n:
        return 0.0
    return math.comb(n, k) * p**k * (1.0 - p) ** (n - k)


# --------------------------------------------------------------------------
# Photon-counting pulse chain: exact distribution by dynamic programming
# --------------------------------------------------------------------------

def readout_signal_distribution(
    p_detect: float,
    p_flip_bright: float,
    p_flip_dark: float,
    n_pulses: int,
    start_bright: bool,
) -> np.ndarray:
    """Exact distribution of signal photon counts after the pulse chain.

    Per pulse: a bright spin yields a photon with probability p_detect,
    then flips dark with probability p_flip_bright; a dark spin yields
    nothing and flips bright with probability p_flip_dark.  Returns
    P(count = 0..n_pulses).
    """
    bright = np.zeros(n_pulses + 1)
    dark = np.zeros(n_pulses + 1)
    (bright if start_bright else dark)[0] = 1.0
    for _ in range(n_pulses):
        new_bright = np.zeros_like(bright)
        new_dark = np.zeros_like(dark)
        stay = 1.0 - p_flip_bright
        # bright, no photon
        new_bright += bright * (1.0 - p_detect) * stay
        new_dark += bright * (1.0 - p_detect) * p_flip_bright
        # bright, photon detected (count shifts up one)
        new_bright[1:] += bright[:-1] * p_detect * stay
        new_dark[1:] += bright[:-1] * p_detect * p_flip_bright
        # dark, never a photon
        new_dark += dark * (1.0 - p_flip_dark)
        new_bright += dark * p_flip_dark
        bright, dark = new_bright, new_dark
    return bright + dark


def convolve_with_poisson(signal_pmf: np.ndarray, mu: float, n_max: int) -> np.ndarray:
    """Distribution of signal + Poisson(mu) background, tail folded into bin n_max."""
    out = np.zeros(n_max + 1)
    for s, ps in enumerate(signal_pmf):
        if ps == 0.0:
            continue
        for b in range(n_max + 1):
            total = s + b
            out[min(total, n_max)] += ps * poisson_pmf(b, mu)
        # background beyond the enumerated range lands in the top bin
        out[n_max] += ps * poisson_tail(n_max + 1, mu)
    return out


def sample_readout_counts(
    p_detect: float,
    p_flip_bright: float,
    p_flip_dark: float,
    n_pulses: int,
    dark_rate: float,
    start_bright: bool,
    trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Detected counts of ``trials`` readouts, simulated pulse by pulse.

    Each pulse draws, per readout, whether a bright spin yields a photon
    and then whether the spin flips; a Poisson background is added last.
    """
    bright = np.full(trials, start_bright)
    signal = np.zeros(trials, dtype=np.int64)
    for _ in range(n_pulses):
        signal += bright & (rng.random(trials) < p_detect)
        flips_down = bright & (rng.random(trials) < p_flip_bright)
        flips_up = ~bright & (rng.random(trials) < p_flip_dark)
        bright = (bright & ~flips_down) | flips_up
    return signal + rng.poisson(dark_rate, size=trials)


# --------------------------------------------------------------------------
# Analytic derivatives and closed forms
# --------------------------------------------------------------------------

def numeric_jacobian(evaluator, params, x, step_scale: float = 1e-6, bounds=None) -> np.ndarray:
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
    for i, h in enumerate(_central_steps(p, step_scale)):
        up, down = p[i] + h, p[i] - h
        if lo[i] < hi[i]:
            up, down = min(up, hi[i]), max(down, lo[i])
        p_up, p_down = p.copy(), p.copy()
        p_up[i], p_down[i] = up, down
        y_up = np.asarray(evaluator(p_up, x), dtype=float)
        y_down = np.asarray(evaluator(p_down, x), dtype=float)
        jacobian[:, i] = (y_up - y_down) / (up - down)
    return jacobian


def _central_steps(params: np.ndarray, step_scale: float) -> np.ndarray:
    return step_scale * np.maximum(np.abs(params), 1.0)


def central_difference_rounding(y, params, step_scale: float = 1e-6) -> np.ndarray:
    """Rounding error of each column of :func:`numeric_jacobian`, about eps |y| / h_i.

    Each evaluation of the model is rounded to a few eps of |y|, and the
    difference divides that by the step, so a column whose true scale is
    below this floor cannot be checked relative to itself.  The estimate
    leaves out the evaluator's own error growth; callers add a margin.
    """
    p = np.asarray(params, dtype=float)
    return np.finfo(float).eps * float(np.abs(y).max()) / _central_steps(p, step_scale)


def lorentzian(x, center: float, fwhm: float, amplitude: float) -> np.ndarray:
    """One peak-normalized Lorentzian line, written out term by term."""
    x = np.asarray(x, dtype=float)
    return amplitude / (1.0 + (2.0 * (x - center) / fwhm) ** 2)


def lorentzian_shared_jacobian(params, x) -> np.ndarray:
    """Analytic Jacobian of the shared-width Lorentzian [fwhm, center, amplitude]."""
    w, c, a = params
    x = np.asarray(x, dtype=float)
    u = 2.0 * (x - c) / w
    denom = (1.0 + u * u) ** 2
    d_w = 2.0 * a * u * u / (w * denom)
    d_c = 4.0 * a * u / (w * denom)
    d_a = 1.0 / (1.0 + u * u)
    return np.column_stack([d_w, d_c, d_a])


def damped_rabi_population(t_s: float, omega: float, t1: float) -> float:
    """Excited-state population of a decaying driven two-level system."""
    phase = omega * t_s
    sinc = math.sin(phase) / phase if phase != 0.0 else 1.0
    return 0.5 * (1.0 - (math.cos(phase) + (t_s / t1) * sinc) * math.exp(-t_s / t1))


def _decay(t_s, tau: float) -> np.ndarray:
    """exp(-t / tau), with t / tau clipped to the largest float where it overflows."""
    with np.errstate(over="ignore"):
        return np.exp(-np.minimum(np.asarray(t_s, dtype=float) / tau, np.finfo(float).max))


def spontaneous_decay(t_s, tau_s: float) -> np.ndarray:
    """Excited-state population exp(-t/tau) after pulsed excitation."""
    return _decay(t_s, tau_s)


def pumping_fidelity(t_s, f_infinity: float, tau_pump: float) -> np.ndarray:
    """Initialization fidelity pumped from the unpolarized 1/2 toward ``f_infinity``."""
    return f_infinity - (f_infinity - 0.5) * _decay(t_s, tau_pump)


def nuclear_polarization_decay(t_s, t1n: float, f_init: float) -> np.ndarray:
    """Nuclear initialization fidelity relaxing from ``f_init`` to the unpolarized 1/2."""
    return 0.5 + (f_init - 0.5) * _decay(t_s, t1n)


def pi_fidelity_closed_form(omega: float, t1: float) -> tuple[float, float]:
    """(t_pi, fidelity) of the first population maximum, in closed form.

    The first maximum of the damped oscillation sits exactly at the
    half-period t = pi/omega, where the population is (1 + e^(-t/T1))/2.
    """
    t_pi = math.pi / omega
    return t_pi, 0.5 * (1.0 + math.exp(-t_pi / t1))


def weighted_linear_covariance(x, y, y_err, params) -> np.ndarray:
    """Curvature covariance of y = a + b x by explicit normal equations.

    Scaled by the reduced chi-square exactly as a curvature-based fit
    quotes it, but assembled from the hand-written design matrix.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = 1.0 / np.asarray(y_err, dtype=float) ** 2
    normal = np.array(
        [
            [math.fsum(w), math.fsum(w * x)],
            [math.fsum(w * x), math.fsum(w * x * x)],
        ]
    )
    a, b = params
    chi2 = math.fsum(w * (y - a - b * x) ** 2)
    dof = x.size - 2
    return (chi2 / dof) * np.linalg.inv(normal)


class GroundBranchEnergies(NamedTuple):
    """Closed-form zero-field energies (Hz) of the lower orbital branch."""

    aligned: float
    antialigned: float


def ground_branch_energies(params) -> GroundBranchEnergies:
    """Closed-form zero-field energies of the lower-branch hyperfine levels.

        E_aligned     = -lambda_so / 2 + a_par / 4
        E_antialigned = -sqrt(lambda_so^2 + a_perp^2) / 2 - a_par / 4

    ``params`` carries the couplings in Hz (``lambda_so``, ``a_par``,
    ``a_perp``).  The antialigned doublet is pushed down by the transverse
    hyperfine coupling; their difference tends to a_par / 2 as a_perp -> 0.
    """
    aligned = -params.lambda_so / 2.0 + params.a_par / 4.0
    antialigned = -math.sqrt(params.lambda_so**2 + params.a_perp**2) / 2.0 - params.a_par / 4.0
    return GroundBranchEnergies(aligned=aligned, antialigned=antialigned)


def branch_boundary_cooperativity(f_in: float) -> float:
    """Cooperativity C* = 2 f_in - 1 at which the on-resonance reflection vanishes.

    Below C* the on-resonance amplitude keeps the sign of the far-detuned
    amplitude (small-C branch) and the dip deepens with C; beyond it the
    amplitude changes sign and the dip fills back in.
    """
    return 2.0 * f_in - 1.0
