"""Detector imperfections and the start-stop correlation electronics.

Click streams per output port go through, in order: quantum efficiency
thinning, Gaussian timing jitter, dead time, and uniform background
injection.  Correlation is recorded either by a single-stop TAC/MCA chain
(the default, mirroring the hardware) or by histogramming all cross pairs
("full"), which is statistically cleaner and is what the oracle comparisons
use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherence import FWHM_TO_SIGMA
from .histogram import CorrelationHistogram, make_bin_edges, pairwise_delay_counts

CHANNELS = (3, 4)


@dataclass(frozen=True)
class DetectionConfig:
    """Detector pair and correlator settings.  Times in ns.

    irf_fwhm_pair is the FWHM of the pair response; each detector jitters
    with FWHM irf_fwhm_pair/sqrt(2).  electronic_delay None means the stop
    cable delay is set to -tau_min so the recorded axis is centred.
    """

    irf_fwhm_pair: float = 0.42
    efficiency: tuple[float, float] = (1.0, 1.0)
    dead_time: tuple[float, float] = (0.0, 0.0)
    background_fraction: float = 0.0
    electronic_delay: float | None = None
    # 238 bins of 0.21 ns; zero delay falls on a bin edge
    mca_range: tuple[float, float] = (-24.99, 24.99)
    bin_width: float = 0.21
    correlation_mode: str = "tac"

    def __post_init__(self):
        if not 0 <= self.irf_fwhm_pair < math.inf:
            raise ValueError("irf_fwhm_pair must be non-negative and finite")
        for e in self.efficiency:
            if not 0.0 <= e <= 1.0:
                raise ValueError("efficiency must lie in [0, 1]")
        for d in self.dead_time:
            if not 0 <= d < math.inf:
                raise ValueError("dead_time must be non-negative and finite")
        if not 0.0 <= self.background_fraction < 1.0:
            raise ValueError("background_fraction must lie in [0, 1)")
        if self.correlation_mode not in ("tac", "full"):
            raise ValueError("correlation_mode must be 'tac' or 'full'")
        if self.electronic_delay is not None and not math.isfinite(self.electronic_delay):
            raise ValueError("electronic_delay must be finite")
        if not all(math.isfinite(v) for v in (*self.mca_range, self.bin_width)):
            raise ValueError("mca_range and bin_width must be finite")
        # fail early if the binning cannot tile the range
        make_bin_edges(self.mca_range[0], self.mca_range[1], self.bin_width)

    @property
    def resolved_delay(self):
        return -self.mca_range[0] if self.electronic_delay is None else self.electronic_delay

    @property
    def jitter_sigma(self):
        """Per-detector sigma so the pair response has the configured FWHM."""
        return self.irf_fwhm_pair / np.sqrt(2.0) / FWHM_TO_SIGMA


def _dead_time_filter(times, dead):
    if dead <= 0 or len(times) == 0:
        return times
    keep = np.zeros(len(times), dtype=bool)
    last = -np.inf
    for i, t in enumerate(times):
        if t - last >= dead:
            keep[i] = True
            last = t
    return times[keep]


def apply_detector(channels, cfg: DetectionConfig, rng, duration):
    """Run both click streams through the detector chain.

    channels is {3: times, 4: times} with sorted arrays; duration bounds the
    uniform background.  Returns the same structure, sorted per channel.
    """
    sigma = cfg.jitter_sigma
    out = {}
    for k, ch in enumerate(CHANNELS):
        t = np.asarray(channels[ch], dtype=float)
        if cfg.efficiency[k] < 1.0:
            t = t[rng.random(len(t)) < cfg.efficiency[k]]
        if sigma > 0 and len(t):
            t = np.sort(t + rng.normal(0.0, sigma, len(t)))
        t = _dead_time_filter(t, cfg.dead_time[k])
        out[ch] = t

    f = cfg.background_fraction
    if f > 0:
        total = sum(len(out[ch]) for ch in CHANNELS)
        n_bg = rng.poisson(total * f / (1.0 - f))
        if n_bg:
            t_bg = rng.uniform(0.0, duration, n_bg)
            pick3 = rng.random(n_bg) < 0.5
            out[3] = np.sort(np.concatenate([out[3], t_bg[pick3]]))
            out[4] = np.sort(np.concatenate([out[4], t_bg[~pick3]]))
    return out


def tac_mca_histogram(channels, cfg: DetectionConfig) -> CorrelationHistogram:
    """Correlate channel 3 starts against channel 4 stops.

    tac mode: stops pass through the delay cable, a newer start supersedes a
    pending one, and each recorded conversion consumes its start.  full mode
    histograms every cross pair, delay folded in the same way.
    """
    tau_min, tau_max = cfg.mca_range
    edges = make_bin_edges(tau_min, tau_max, cfg.bin_width)
    t3 = np.asarray(channels[3], dtype=float)
    t4 = np.asarray(channels[4], dtype=float)

    if cfg.correlation_mode == "full":
        # axis value for a pair is (t4 + delay) - t3 + tau_min, which is the
        # plain delay t4 - t3 when the cable delay is the default -tau_min
        counts = pairwise_delay_counts(t3, t4 + (cfg.resolved_delay + tau_min), edges)
        return CorrelationHistogram(edges, counts)

    stops = t4 + cfg.resolved_delay
    span = tau_max - tau_min
    nbins = len(edges) - 1
    js = np.searchsorted(t3, stops, side="right") - 1
    counts = np.zeros(nbins, dtype=np.int64)
    last_consuming = -np.inf
    for k in range(len(stops)):
        j = js[k]
        if j < 0 or t3[j] <= last_consuming:
            continue
        a = stops[k] - t3[j]
        if a < span:
            counts[min(int(a // cfg.bin_width), nbins - 1)] += 1
        last_consuming = stops[k]
    return CorrelationHistogram(edges, counts)


def normalize(hist: CorrelationHistogram, norm_region) -> CorrelationHistogram:
    """Scale counts so the mean over |tau| in norm_region is 1."""
    lo, hi = norm_region
    if not 0 <= lo < hi:
        raise ValueError("norm_region must satisfy 0 <= lo < hi")
    centers = np.abs(hist.bin_centers)
    sel = (centers >= lo) & (centers <= hi)
    if not np.any(sel):
        raise ValueError("norm_region selects no bins")
    level = hist.counts[sel].mean()
    if level <= 0:
        raise ValueError("norm_region has zero counts")
    out = hist.copy()
    out.normalized = hist.counts / level
    out.normalization_constant = float(level)
    out.norm_region = (float(lo), float(hi))
    return out
