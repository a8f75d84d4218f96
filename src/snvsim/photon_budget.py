"""Photon-counting readout statistics and coincidence expectations.

Two pieces of bookkeeping around detected photons:

* single-shot spin readout: the exact photon-count distribution of the
  pulse chain, histograms sampled from it, and threshold discrimination, and
* expected N-photon coincidence counts.

The scalar efficiency budgets and loss chains live in
:mod:`snvsim.efficiency`, which needs no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ReadoutModel:
    """Generative model of pulsed single-shot spin readout.

    Per readout window, ``n_pulses`` excitation pulses are applied.  On
    each pulse a bright spin yields a detected photon with probability
    ``p_detect`` and afterwards flips to dark with probability
    ``p_flip_bright``; a dark spin yields no signal and flips to bright
    with probability ``p_flip_dark`` (zero by default, so a dark spin
    yields background only).  An independent Poisson background with mean
    ``dark_rate`` counts per window adds to both cases.
    """

    p_detect: float
    p_flip_bright: float = 0.0
    p_flip_dark: float = 0.0
    n_pulses: int = 150
    dark_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p_detect", "p_flip_bright", "p_flip_dark"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.n_pulses < 1:
            raise ValueError(f"n_pulses must be >= 1, got {self.n_pulses}")
        if self.dark_rate < 0.0:
            raise ValueError(f"dark_rate must be >= 0, got {self.dark_rate}")


@dataclass(frozen=True)
class PhotonHistogram:
    """Counts of readout windows by detected photon number 0, 1, 2, ...

    ``counts`` may be fractional so exact reference distributions (e.g.
    Poisson probabilities over ``total_trials`` = 1) fit the same container.
    """

    counts: tuple[float, ...]
    total_trials: float

    def __post_init__(self) -> None:
        if not self.counts:
            raise ValueError("histogram must have at least one bin")
        if any(c < 0.0 for c in self.counts):
            raise ValueError("histogram counts must be >= 0")
        total = math.fsum(self.counts)
        if not math.isclose(total, self.total_trials, rel_tol=1e-9, abs_tol=1e-9):
            raise ValueError(
                f"histogram counts sum to {total}, expected total_trials = {self.total_trials}"
            )

    def probabilities(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=float) / self.total_trials

    def mean(self) -> float:
        p = self.probabilities()
        return float(np.dot(np.arange(p.size), p))

    def variance(self) -> float:
        p = self.probabilities()
        return float(np.dot((np.arange(p.size) - self.mean()) ** 2, p))

    def tail_probability(self, k: int) -> float:
        """P(n >= k) under this histogram."""
        if k <= 0:
            return 1.0
        p = self.probabilities()
        if k >= p.size:
            return 0.0
        return float(np.sum(p[k:]))


def poisson_reference_histogram(mu: float, n_max: int | None = None) -> PhotonHistogram:
    """Poisson(mu) photon-number distribution as a histogram of probabilities.

    Bins run to ``n_max`` with all residual tail mass folded into the last
    bin so the counts still sum to 1.

    The pmf is evaluated in log space, exp(k log mu - mu - lgamma(k+1)),
    because exp(-mu) mu^k / k! underflows for mu above ~745.  The tail
    P(N > n_max) is summed forward from term n_max + 1 rather than taken
    as 1 - head, which would lose a small tail to rounding.
    """
    if not 0.0 <= mu < math.inf:
        raise ValueError(f"mu must be finite and >= 0, got {mu}")
    if n_max is None:
        n_max = max(20, int(mu + 10.0 * math.sqrt(mu + 1.0)))
    if mu == 0.0:
        pmf = [1.0] + [0.0] * n_max
    else:
        log_mu = math.log(mu)
        pmf = [_poisson_pmf(k, mu, log_mu) for k in range(n_max + 1)]
        pmf[-1] += _poisson_tail_after(n_max, mu, log_mu)
    return PhotonHistogram(counts=tuple(pmf), total_trials=1.0)


def _poisson_pmf(k: int, mu: float, log_mu: float) -> float:
    return math.exp(k * log_mu - mu - math.lgamma(k + 1.0))


def _poisson_tail_after(n: int, mu: float, log_mu: float) -> float:
    """P(N > n) for N ~ Poisson(mu > 0), summed forward from term n + 1.

    Each term is evaluated in log space, not as the previous term times
    mu/j: when n is far below a large mu the first terms underflow to zero,
    and a recurrence would stay at zero through the peak.  The sum stops
    past the peak once a term no longer changes it.
    """
    tail = 0.0
    j = n + 1
    while True:
        term = _poisson_pmf(j, mu, log_mu)
        tail += term
        if j >= mu and term <= tail * 1e-17:
            return tail
        j += 1


def readout_count_pmf(model: ReadoutModel, start_bright: bool) -> np.ndarray:
    """Exact distribution P(n = 0, 1, ...) of the counts detected in one readout window.

    A forward recursion over the pulses carries the signal-count
    distribution jointly with a bright and a dark spin, so it covers flips
    both ways, in O(n_pulses^2).  It is convolved with the Poisson
    background of :func:`poisson_reference_histogram`, whose top bin folds
    in the tail and so stands for the wrong count: the background is
    extended until that bin holds less than 1e-17, and the bin is dropped.
    """
    p, up, down = model.p_detect, model.p_flip_dark, model.p_flip_bright
    bright, dark = np.zeros((2, model.n_pulses + 1))
    (bright if start_bright else dark)[0] = 1.0
    for _ in range(model.n_pulses):
        after = bright * (1.0 - p)
        after[1:] += bright[:-1] * p  # a detected photon shifts the count up one
        bright, dark = after * (1.0 - down) + dark * up, after * down + dark * (1.0 - up)
    background = poisson_reference_histogram(model.dark_rate).probabilities()
    while background[-1] >= 1e-17:
        background = poisson_reference_histogram(model.dark_rate, 2 * background.size).probabilities()
    pmf = np.convolve(bright + dark, background[:-1])
    return pmf / pmf.sum()


def simulate_readout(model: ReadoutModel, trials: int, seed: int) -> dict[str, PhotonHistogram]:
    """Photon-count histograms of ``trials`` bright- and dark-prepared readouts.

    Each is one multinomial draw from :func:`readout_count_pmf`, ending at
    its largest drawn count.  The bright and dark ensembles use independent
    child streams of ``seed``, so a fixed seed fixes both.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    histograms = {}
    for key, seq in zip(("bright", "dark"), np.random.SeedSequence(seed).spawn(2)):
        pmf = readout_count_pmf(model, start_bright=key == "bright")
        counts = np.random.default_rng(seq).multinomial(trials, pmf)
        counts = counts[: np.flatnonzero(counts)[-1] + 1]
        histograms[key] = PhotonHistogram(tuple(map(float, counts)), float(trials))
    return histograms


def threshold_fidelity(bright: PhotonHistogram, dark: PhotonHistogram, k: int) -> float:
    """Average discrimination fidelity at photon threshold ``k``.

        F(k) = 1/2 [ P(n >= k | bright) + P(n < k | dark) ]

    At k = 0 every window classifies as bright and F = 1/2 exactly.
    """
    return 0.5 * (bright.tail_probability(k) + (1.0 - dark.tail_probability(k)))


def optimal_threshold(bright: PhotonHistogram, dark: PhotonHistogram) -> dict[str, float]:
    """Exhaustive scan for the fidelity-maximizing threshold, ties to smallest k.

    Returns ``{"k": threshold, "fidelity": value}``.  A best fidelity at or
    below 1/2 signals inverted (or indistinguishable) state labels.
    """
    k_max = max(len(bright.counts), len(dark.counts))
    best_k, best_f = 0, threshold_fidelity(bright, dark, 0)
    for k in range(1, k_max + 1):
        f = threshold_fidelity(bright, dark, k)
        if f > best_f + 1e-15:
            best_k, best_f = k, f
    return {"k": best_k, "fidelity": best_f}


def mean_signal_counts(p_detect: float, p_flip_bright: float, n_pulses: int) -> float:
    """Expected signal photons from a bright spin, excluding background.

    The spin survives pulse i bright with probability (1-q)^(i-1), so the
    mean is p * (1 - (1-q)^n) / q, continuously extended at q = 0.

    The ratio (1 - (1-q)^n) / q is formed first and only then scaled by p.
    For a subnormal q, 1 - (1-q)^n is itself subnormal and keeps only a few
    significant bits, and p * (1 - (1-q)^n) can underflow to zero before
    the divide.  When n*q < 1e-8 the ratio is therefore taken from the
    alternating binomial series n - C(n,2) q + C(n,3) q^2 - ..., whose
    first two terms are exact to double precision there (and give n at
    q = 0).  Otherwise the expm1/log1p form keeps the ratio accurate, where
    the direct power would round to 1 and cancel to zero.
    """
    n, q = n_pulses, p_flip_bright
    if q == 1.0:
        return p_detect  # detection precedes the flip, so pulse 1 still counts
    if n * q < 1e-8:
        ratio = n - 0.5 * n * (n - 1) * q
    else:
        ratio = -math.expm1(n * math.log1p(-q)) / q
    return p_detect * ratio


def zero_signal_probability(p_detect: float, p_flip_bright: float, n_pulses: int) -> float:
    """Probability a bright spin yields no signal photon in the whole window.

    Conditioning on the pulse after which the spin flips (detection happens
    before the flip channel on each pulse):

        P(0) = sum_{m=1}^{n-1} q (1-q)^(m-1) (1-p)^m  +  (1-q)^(n-1) (1-p)^n

    With r = (1-q)(1-p) the geometric head is q (1-p) (1 - r^(n-1)) / (1-r).
    Both differences are formed without cancellation: 1 - r as p + q(1-p)
    and 1 - r^(n-1) through expm1/log1p.  Forming 1 - r directly rounds to
    zero once p and q are both below ~1e-16.
    """
    p, q, n = p_detect, p_flip_bright, n_pulses
    if q == 0.0:
        return (1.0 - p) ** n
    if p == 0.0:
        return 1.0
    if p == 1.0 or q == 1.0:
        return 1.0 - p  # the first pulse either detects or ends in the dark state
    log_r_pow = (n - 1) * (math.log1p(-p) + math.log1p(-q))
    head = q * (1.0 - p) * -math.expm1(log_r_pow) / (p + q * (1.0 - p))
    return head + math.exp(log_r_pow) * (1.0 - p)


def analytic_threshold_fidelity_k1(model: ReadoutModel) -> float:
    """Closed-form F(k=1) for the readout model with p_flip_dark = 0.

    P(0 | bright) = P(no signal) * P(no background); P(0 | dark) is the
    Poisson zero of the background alone.
    """
    if model.p_flip_dark != 0.0:
        raise ValueError("closed form only valid for one-way (bright->dark) flips")
    p_zero_background = math.exp(-model.dark_rate)
    p_zero_bright = (
        zero_signal_probability(model.p_detect, model.p_flip_bright, model.n_pulses)
        * p_zero_background
    )
    return 0.5 * ((1.0 - p_zero_bright) + p_zero_background)


def calibrate_readout_model(
    mean_bright: float,
    mean_dark: float,
    fidelity_target: float,
    n_pulses: int = 150,
) -> ReadoutModel:
    """Find (p_detect, p_flip_bright) reproducing measured readout statistics.

    The background rate equals the dark-state mean; for each candidate flip
    probability the detection probability is fixed by the bright-state mean
    and the flip probability is then solved so the closed-form one-photon
    threshold fidelity matches ``fidelity_target``.  Requires the target to
    lie below the flip-free fidelity.  With p_detect re-fitted to the
    bright mean the fidelity is not monotone in the flip probability (it
    can dip and recover), so a target may have several roots; the smallest
    is returned.
    """
    if mean_dark < 0.0 or mean_bright <= mean_dark:
        raise ValueError("need mean_bright > mean_dark >= 0")
    signal_mean = mean_bright - mean_dark

    def p_detect_for(q: float) -> float:
        return signal_mean / mean_signal_counts(1.0, q, n_pulses)

    def fidelity_error(q: float) -> float:
        model = ReadoutModel(
            p_detect=p_detect_for(q),
            p_flip_bright=q,
            n_pulses=n_pulses,
            dark_rate=mean_dark,
        )
        return analytic_threshold_fidelity_k1(model) - fidelity_target

    no_flip_error = fidelity_error(0.0)
    if no_flip_error < 0.0:
        raise ValueError(
            f"target fidelity {fidelity_target} exceeds the flip-free maximum "
            f"{fidelity_target + no_flip_error:.4f}"
        )
    # Walk q up in steps of 0.01, while p_detect_for(q) is still a valid
    # probability, and bisect the first sign change: that is the smallest
    # root unless the fidelity dips below the target and back within a step.
    q_hi = 0.01
    while fidelity_error(q_hi) > 0.0:
        q_next = q_hi + 0.01
        if q_next >= 1.0 or p_detect_for(q_next) > 1.0:
            raise ValueError(
                f"target fidelity {fidelity_target} is not reachable by any flip probability"
            )
        q_hi = q_next
    # The walk above leaves a sign change on [1e-12, q_hi]; ~43 halvings reach 1e-14.
    q_lo = 1e-12
    while q_hi - q_lo > 1e-14:
        q_mid = 0.5 * (q_lo + q_hi)
        if fidelity_error(q_mid) > 0.0:
            q_lo = q_mid
        else:
            q_hi = q_mid
    q_star = 0.5 * (q_lo + q_hi)
    return ReadoutModel(
        p_detect=p_detect_for(q_star),
        p_flip_bright=q_star,
        n_pulses=n_pulses,
        dark_rate=mean_dark,
    )


def nfold_coincidence_expectation(
    pulse_rate_hz: float,
    eta: float,
    duty: float,
    duration_s: float,
    n: int,
) -> float:
    """Expected N-fold coincidence events in ``duration_s`` of acquisition.

    Attempt-wise independent detection: duty * rate * duration attempts,
    each yielding N consecutive detections with probability eta^N, so the
    expectation is log-linear in N with slope ln(eta).
    """
    if pulse_rate_hz <= 0.0 or duration_s <= 0.0:
        raise ValueError("rate and duration must be positive")
    if not 0.0 < eta <= 1.0 or not 0.0 < duty <= 1.0:
        raise ValueError("eta and duty must be in (0, 1]")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return duty * pulse_rate_hz * duration_s * eta**n
