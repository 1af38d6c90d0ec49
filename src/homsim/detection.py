"""Detector imperfections and the start-stop correlation electronics.

Click streams per output port go through, in order: quantum efficiency
thinning, Gaussian timing jitter, dead time, uniform background injection,
and the time tagger, which records each click on a 1-ps grid.  Correlation
is recorded either by a single-stop TAC/MCA chain (the default, mirroring
the hardware) or by histogramming all cross pairs ("full"), which is
statistically cleaner and is what the oracle comparisons use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherence import FWHM_TO_SIGMA
from .histogram import CorrelationHistogram, make_bin_edges, pairwise_delay_counts

CHANNELS = (3, 4)
# the time tagger's grid: every click time is a whole number of picoseconds
TICKS_PER_NS = 1e3


@dataclass(frozen=True)
class DetectionConfig:
    """Detector pair and correlator settings.  Times in ns.

    irf_fwhm_pair is the FWHM of the pair response; each detector jitters
    with FWHM irf_fwhm_pair/sqrt(2).  The stop cable delay is -tau_min, so
    each bin of mca_range is labelled with its true start-stop delay.
    """

    irf_fwhm_pair: float = 0.42
    efficiency: tuple[float, float] = (1.0, 1.0)
    dead_time: tuple[float, float] = (0.0, 0.0)
    background_fraction: float = 0.0
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
        if not all(math.isfinite(v) for v in (*self.mca_range, self.bin_width)):
            raise ValueError("mca_range and bin_width must be finite")
        # fail early if the binning cannot tile the range
        make_bin_edges(self.mca_range[0], self.mca_range[1], self.bin_width)

    @property
    def jitter_sigma(self):
        """Per-detector sigma so the pair response has the configured FWHM."""
        return self.irf_fwhm_pair / np.sqrt(2.0) / FWHM_TO_SIGMA


def _dead_time_filter(times, dead):
    """Drop the clicks that come within `dead` of the last kept click.

    A click at t is kept when t >= last + dead (non-paralyzable dead time).
    times must be sorted.
    """
    n = len(times)
    if dead <= 0 or n == 0:
        return times
    t = times
    # nxt[i]: the first click that a kept click i lets through (where t_i +
    # dead rounds to t_i, the first of t_i's ties, which starts a run)
    nxt = np.searchsorted(t, t + dead, side="left")
    # a click at or past its predecessor + dead is kept whatever came before
    # (last + dead is monotone in last); inside each run of closer clicks
    # the kept ones are the nxt chain from the run's first.  The chains are
    # followed by pointer doubling: after round r every chain is marked to
    # depth 2**r, so a long run costs log2 rounds
    keep = np.zeros(n + 1, dtype=bool)
    keep[0] = True
    keep[1:n] = t[1:] >= t[:-1] + dead
    jump = np.append(nxt, n)
    jump[keep[jump]] = n  # a chain ends where the next run starts
    reached = np.flatnonzero(keep)
    while True:
        hit = jump[reached]
        hit = hit[hit < n]
        if not len(hit):
            return np.compress(keep[:n], t)  # as t[keep[:n]], faster on a random mask
        keep[hit] = True
        reached = np.concatenate([reached, hit])
        jump = jump[jump]


def apply_detector(channels, cfg: DetectionConfig, rng, duration):
    """Run both click streams through the detector chain.

    channels is {3: times, 4: times} with sorted arrays; duration bounds the
    uniform background.  Returns the same structure, sorted per channel and
    on the tagger's grid, in new arrays.
    """
    sigma = cfg.jitter_sigma
    out = {}
    for k, ch in enumerate(CHANNELS):
        t = np.asarray(channels[ch], dtype=float)
        if cfg.efficiency[k] < 1.0:
            t = np.compress(rng.random(len(t)) < cfg.efficiency[k], t)
        if sigma > 0 and len(t):
            # the jitter (sigma ~0.1 ns) is small next to the click spacing,
            # so the jittered clicks are long sorted runs for timsort
            jittered = rng.normal(0.0, sigma, len(t))
            jittered += t
            jittered.sort(kind="stable")
            t = jittered
        t = _dead_time_filter(t, cfg.dead_time[k])
        out[ch] = t

    f = cfg.background_fraction
    if f > 0:
        total = sum(len(out[ch]) for ch in CHANNELS)
        n_bg = rng.poisson(total * f / (1.0 - f))
        if n_bg:
            t_bg = rng.uniform(0.0, duration, n_bg)
            pick3 = rng.random(n_bg) < 0.5
            # each channel is then two sorted runs, which timsort merges
            for ch, pick in ((3, pick3), (4, ~pick3)):
                out[ch] = np.sort(np.concatenate([out[ch], np.sort(t_bg[pick])]), kind="stable")
    for ch in CHANNELS:
        # rounding keeps the order; the product is a new array, so the
        # caller's is never written; + 0.0 turns the -0.0 of a click in
        # (-0.5 ps, 0) into +0.0
        out[ch] = np.rint(out[ch] * TICKS_PER_NS) / TICKS_PER_NS + 0.0
    return out


def tac_mca_histogram(channels, cfg: DetectionConfig) -> CorrelationHistogram:
    """Correlate channel 3 starts against channel 4 stops.

    tac mode: stops pass through the delay cable (-tau_min), a newer start
    supersedes a pending one, and each recorded conversion consumes its
    start.  full mode histograms the delay t4 - t3 of every cross pair.
    """
    tau_min, tau_max = cfg.mca_range
    edges = make_bin_edges(tau_min, tau_max, cfg.bin_width)
    t3 = np.asarray(channels[3], dtype=float)
    t4 = np.asarray(channels[4], dtype=float)

    if cfg.correlation_mode == "full":
        return CorrelationHistogram(edges, pairwise_delay_counts(t3, t4, edges))

    stops = t4 - tau_min
    span = tau_max - tau_min
    nbins = len(edges) - 1
    js = np.searchsorted(t3, stops, side="right") - 1
    # a stop converts when it follows a start and is the first stop since
    # that start: the previous conversion consumed any start before it
    rec = (js >= 0) & np.r_[True, js[1:] != js[:-1]]
    a = stops[rec] - t3[js[rec]]
    a = a[a < span]  # over-range conversions still consume their start
    # numpy's float // is Python's floor division, bin for bin
    idx = np.minimum((a // cfg.bin_width).astype(np.int64), nbins - 1)
    return CorrelationHistogram(edges, np.bincount(idx, minlength=nbins))

