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
    """Drop the clicks that come within `dead` of the last kept click.

    A click at t is kept when t - last >= dead.  The test stays in this form
    rather than t >= last + dead: the two round differently, and the other
    form would keep other clicks at pinned seeds.  times must be sorted.
    """
    n = len(times)
    if dead <= 0 or n == 0:
        return times
    t = times
    # nxt[i]: first click a kept click i lets through.  searchsorted tests
    # t >= t_i + dead, which rounds differently from t - t_i >= dead, so nxt
    # is moved to the first click of the exact predicate; the predicate is
    # monotone in the index and equal times share it, so it steps tie groups
    nxt = np.searchsorted(t, t + dead, side="left")
    i = np.flatnonzero(nxt < n)
    i = i[t[nxt[i]] - t[i] < dead]
    while len(i):
        nxt[i] = np.searchsorted(t, t[nxt[i]], side="right")
        i = i[nxt[i] < n]
        i = i[t[nxt[i]] - t[i] < dead]
    i = np.flatnonzero(nxt > 0)
    i = i[t[nxt[i] - 1] - t[i] >= dead]
    while len(i):
        nxt[i] = np.searchsorted(t, t[nxt[i] - 1], side="left")
        i = i[nxt[i] > 0]
        i = i[t[nxt[i] - 1] - t[i] >= dead]

    # a click at least `dead` after its predecessor is kept whatever came
    # before (rounding of t - last is monotone in last); inside each run of
    # closer clicks the kept ones are the nxt chain from the run's first.
    # The chains are followed by pointer doubling: after round r every
    # chain is marked to depth 2**r, so a long run costs log2 rounds
    keep = np.zeros(n + 1, dtype=bool)
    keep[0] = True
    keep[1:n] = np.diff(t) >= dead
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
    uniform background.  Returns the same structure, sorted per channel.
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
    # a stop converts when it follows a start and is the first stop since
    # that start: the previous conversion consumed any start before it
    rec = (js >= 0) & np.r_[True, js[1:] != js[:-1]]
    a = stops[rec] - t3[js[rec]]
    a = a[a < span]  # over-range conversions still consume their start
    # numpy's float // is Python's floor division, bin for bin
    idx = np.minimum((a // cfg.bin_width).astype(np.int64), nbins - 1)
    return CorrelationHistogram(edges, np.bincount(idx, minlength=nbins))


def norm_bins(centers, norm_region):
    """The bins whose |center| lies in norm_region = (lo, hi); ValueError
    unless 0 <= lo < hi and at least one bin is selected."""
    lo, hi = norm_region
    if not 0 <= lo < hi:
        raise ValueError("norm_region must satisfy 0 <= lo < hi")
    sel = (np.abs(centers) >= lo) & (np.abs(centers) <= hi)
    if not np.any(sel):
        raise ValueError("norm_region selects no bins")
    return sel


def normalize(hist: CorrelationHistogram, norm_region) -> CorrelationHistogram:
    """Scale counts so the mean over |tau| in norm_region is 1."""
    level = hist.counts[norm_bins(hist.bin_centers, norm_region)].mean()
    if level <= 0:
        raise ValueError("norm_region has zero counts")
    out = hist.copy()
    out.normalized = hist.counts / level
    out.normalization_constant = float(level)
    out.norm_region = tuple(float(v) for v in norm_region)
    return out
