"""Closed-form coherence and correlation curves for a driven two-level emitter.

The emitter model: incoherent pumping at rate w_p into a vibronic level that
relaxes at gamma_vib to the emitting state, spontaneous decay at gamma_spon,
pure dephasing at gamma_pure on the optical transition.  All rates in 1/ns,
delays in ns.  Everything here is deterministic; the Monte Carlo modules are
checked against these curves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# conversion between a Gaussian FWHM and its sigma, 2*sqrt(2*ln 2)
FWHM_TO_SIGMA = 2.3548200450309493

# gamma_vib value meaning the vibronic relaxation is treated as instantaneous
INSTANTANEOUS = math.inf

# largest IRF FWHM / sampling step: the kernel spans +-5 sigma, about 4.25
# samples per unit of the ratio, and np.convolve costs samples x kernel
MAX_IRF_STEPS = 500


@dataclass(frozen=True)
class EmitterParams:
    """Rates defining the emitter. gamma_vib=INSTANTANEOUS skips that stage."""

    gamma_spon: float
    gamma_pure: float = 0.0
    w_p: float = 1.0
    gamma_vib: float = INSTANTANEOUS

    def __post_init__(self):
        if not 0 < self.gamma_spon < math.inf:
            raise ValueError("gamma_spon must be positive and finite")
        if not 0 <= self.gamma_pure < math.inf:
            raise ValueError("gamma_pure must be non-negative and finite")
        if not 0 < self.w_p < math.inf:
            raise ValueError("w_p must be positive and finite")
        if not self.gamma_vib > 0:
            raise ValueError("gamma_vib must be positive or INSTANTANEOUS")

    @property
    def gamma_total(self):
        """Optical coherence decay rate, gamma_spon/2 + gamma_pure."""
        return 0.5 * self.gamma_spon + self.gamma_pure

    @property
    def t2(self):
        """Coherence time 1/gamma_total."""
        return 1.0 / self.gamma_total


@dataclass(frozen=True)
class BeamSplitterConfig:
    """Splitting angle and mode overlap of the recombining beam splitter.

    cos(theta)^2 is the transmission; theta = pi/4 is the balanced case.
    mode_match is the spatial overlap factor applied to the interference term.
    """

    theta: float = math.pi / 4
    mode_match: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi / 2:
            raise ValueError("theta must lie in [0, pi/2]")
        if not 0.0 <= self.mode_match <= 1.0:
            raise ValueError("mode_match must lie in [0, 1]")

    @property
    def intensity_split(self):
        """(cos^2 theta, sin^2 theta): the transmission and the reflection."""
        return math.cos(self.theta) ** 2, math.sin(self.theta) ** 2

    @property
    def interference_weight(self):
        """w = sin^2 cos^2 / (cos^4 + sin^4), the scale of the Monte Carlo's
        bunching probability q = 2 w M exp(-2 gamma_pure |u_a - u_b|).  Only
        pairs drawn to opposite ports (cos^4 + sin^4) lose a coincidence, so
        g2_34's interference term is 2 sin^2 cos^2 M g1^2."""
        c2, s2 = self.intensity_split
        return s2 * c2 / (c2 * c2 + s2 * s2)


def g1(tau, p: EmitterParams):
    """Field autocorrelation |g1(tau)| = exp(-gamma_total |tau|)."""
    tau = np.asarray(tau, dtype=float)
    return np.exp(-p.gamma_total * np.abs(tau))


def g2_source(tau, p: EmitterParams):
    """Source intensity correlation 1 - exp(-(w_p + gamma_spon)|tau|).

    Antibunched at tau = 0 and recovering at the pumping-limited rate.
    """
    tau = np.asarray(tau, dtype=float)
    return 1.0 - np.exp(-(p.w_p + p.gamma_spon) * np.abs(tau))


def g2_34(tau, p: EmitterParams, bs: BeamSplitterConfig, pol: str):
    """Normalized cross-correlation of the two interferometer outputs.

    Valid when the arm delay is long against all correlation times, so the
    two interfering photons are consecutive and uncorrelated with the rest.
    pol is "parallel" (interfering) or "orthogonal" (marker polarizations).
    With c = cos(theta), s = sin(theta) and w = 2 s^2 c^2, photon pairs that
    took the same arm give w g2_source(tau), pairs that took opposite arms
    (delta_t apart at the source) give c^4 + s^4, and interference removes
    w M g1(tau)^2.  For a balanced splitter w and c^4 + s^4 are both exactly
    0.5.
    """
    c2, s2 = bs.intensity_split
    w = 2.0 * s2 * c2
    base = w * g2_source(tau, p) + (c2 * c2 + s2 * s2)
    if pol == "orthogonal":
        return base
    if pol == "parallel":
        return base - w * bs.mode_match * g1(tau, p) ** 2
    raise ValueError("pol must be 'parallel' or 'orthogonal'")


def overlap_sq(delta_t, p: EmitterParams):
    """Squared wave-packet overlap exp(-2 gamma_total delta_t) of photons
    separated by delta_t >= 0."""
    delta_t = np.asarray(delta_t, dtype=float)
    if np.any(delta_t < 0):
        raise ValueError("delta_t must be non-negative")
    return np.exp(-2.0 * p.gamma_total * delta_t)


def visibility(g2_par_0, g2_orth_0):
    """Two-photon interference visibility (g_orth - g_par)/g_orth at tau = 0."""
    if not g2_orth_0 > 0:
        raise ValueError("g2_orth_0 must be positive")
    return (g2_orth_0 - g2_par_0) / g2_orth_0


@functools.lru_cache(maxsize=64)
def _irf_kernel(step, fwhm):
    """Half-width in samples and the unit-sum Gaussian kernel (read-only,
    as every caller shares it) for one sampling step and FWHM."""
    sigma = fwhm / FWHM_TO_SIGMA
    half = int(np.ceil(5.0 * sigma / step))
    x = step * np.arange(-half, half + 1)
    kernel = np.exp(-0.5 * (x / sigma) ** 2)
    kernel /= kernel.sum()
    kernel.flags.writeable = False
    return half, kernel


def uniform_step(tau):
    """The step of an increasing, uniformly sampled axis of at least two
    samples: every step within a relative 1e-6 of the first, else
    ValueError (a NaN sample fails too)."""
    steps = tau[1:] - tau[:-1]
    step = float(steps[0])
    if not (step > 0 and abs(steps - step).max() <= 1e-6 * step):
        raise ValueError("tau must be uniformly sampled")
    return step


def convolve_irf(tau, values, fwhm):
    """Convolve a uniformly sampled curve with a unit-area Gaussian IRF.

    values is one curve, or a 2-d array with one curve per row.  fwhm = 0
    returns the curve unchanged.  Otherwise the sampling step must lie in
    [fwhm/MAX_IRF_STEPS, fwhm/4]; the kernel is truncated at +-5 sigma and
    edge-padded, which preserves the integral of curves flat near the
    window edges.
    """
    tau = np.asarray(tau, dtype=float)
    values = np.asarray(values, dtype=float)
    if tau.ndim != 1 or values.ndim not in (1, 2) or values.shape[-1] != len(tau):
        raise ValueError("tau must be 1-d and values 1-d or 2-d with rows as long as tau")
    if not 0 <= fwhm < math.inf:
        raise ValueError("fwhm must be non-negative and finite")
    if fwhm == 0:
        return values.copy()
    n = len(tau)
    if n < 2:
        raise ValueError("need at least two samples")
    step = uniform_step(tau)
    if step > fwhm / 4 + 1e-12 * fwhm:
        raise ValueError("sampling step must be <= fwhm/4")
    if fwhm > MAX_IRF_STEPS * step:  # checked before the kernel is built
        raise ValueError("IRF FWHM / step (--irf-fwhm-ns / --tau-step-ns) is %.3g; it may be at most %d"
                         % (fwhm / step, MAX_IRF_STEPS))
    half, kernel = _irf_kernel(step, float(fwhm))
    padded = values[..., np.minimum(np.maximum(np.arange(-half, n + half), 0), n - 1)]
    if values.ndim == 1:
        return np.convolve(padded, kernel, mode="valid")
    return np.array([np.convolve(row, kernel, mode="valid") for row in padded])
