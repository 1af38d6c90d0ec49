"""Shared correlation-histogram container and the pair-delay binning used
across the pipeline."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

MAX_BINS = 1_000_000  # the most bins of a correlation axis, and the most steps per side of analytic's
# entries per block in every block loop (blocks only partition the work);
# 16,384 raised the peak RSS of simulate --pol parallel about 4%, 32,768 did not
BLOCK = 32_768


def make_bin_edges(tau_min, tau_max, bin_width):
    """Uniform bin edges over [tau_min, tau_max), at most MAX_BINS bins.

    bin_width must divide the range to within one part in 1e6.
    """
    if tau_max <= tau_min:
        raise ValueError("tau_max must exceed tau_min")
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    n = (tau_max - tau_min) / bin_width
    if not n < MAX_BINS + 0.5:  # checked before any edge is built: a huge range would not fail fast
        raise ValueError("tau_min %g, tau_max %g and bin_width %g make %.3g bins; at most %d are allowed"
                         % (tau_min, tau_max, bin_width, n, MAX_BINS))
    n_round = round(n)
    if n_round < 1 or abs(n - n_round) > 1e-6 * n_round:
        raise ValueError(
            "bin_width %g does not divide range [%g, %g]" % (bin_width, tau_min, tau_max)
        )
    return tau_min + bin_width * np.arange(n_round + 1)


@dataclass
class CorrelationHistogram:
    """Binned start-stop delay counts plus optional normalization state.

    normalized and normalization_constant are filled by detection.normalize;
    norm_region records the |tau| interval used so rebinning can renormalize.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    normalized: np.ndarray | None = None
    normalization_constant: float | None = None
    norm_region: tuple[float, float] | None = None

    def __post_init__(self):
        self.bin_edges = np.asarray(self.bin_edges, dtype=float)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.bin_edges.ndim != 1 or len(self.bin_edges) < 2:
            raise ValueError("need at least one bin")
        if len(self.counts) != len(self.bin_edges) - 1:
            raise ValueError("counts length does not match bin edges")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")

    @property
    def bin_centers(self):
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def bin_width(self):
        return float(self.bin_edges[1] - self.bin_edges[0])

    @property
    def total_counts(self):
        return int(self.counts.sum())

    def same_geometry(self, other):
        return len(self.bin_edges) == len(other.bin_edges) and np.allclose(
            self.bin_edges, other.bin_edges, rtol=0, atol=1e-9
        )

    def copy(self):
        return replace(
            self,
            bin_edges=self.bin_edges.copy(),
            counts=self.counts.copy(),
            normalized=None if self.normalized is None else self.normalized.copy(),
        )


def empirical_g2(stream, bin_width: float, max_tau: float) -> CorrelationHistogram:
    """Histogram of ordered emission-time separations of a PhotonStream,
    normalized so the uncorrelated level is 1 (rate-squared estimate)."""
    times = stream.emission_times
    if len(times) < 2:
        raise ValueError("stream too short for a correlation estimate")
    if np.any(np.diff(times) <= 0):
        raise ValueError("emission times must be strictly increasing")
    edges = make_bin_edges(0.0, max_tau, bin_width)
    counts = pairwise_delay_counts(times, times, edges)
    counts[0] -= len(times)  # drop the self pairs sitting at zero delay
    norm = len(times) ** 2 / stream.duration * bin_width
    hist = CorrelationHistogram(edges, counts)
    hist.normalized = counts / norm
    hist.normalization_constant = norm
    return hist


def window_pairs(lo, hi):
    """Flat index arrays (i, j) of every lo[i] <= j < hi[i], in (i, j)
    order, for hi >= lo elementwise."""
    n = hi - lo
    i = np.repeat(np.arange(len(n)), n)
    j = np.arange(len(i)) - np.repeat(np.cumsum(n) - n - lo, n)
    return i, j


def pairwise_delay_counts(ts_a, ts_b, edges):
    """Counts of t_b - t_a over all pairs, binned by edges.  Both arrays must
    be sorted ascending; start times are taken BLOCK at a time to bound memory."""
    ts_a = np.asarray(ts_a, dtype=float)
    ts_b = np.asarray(ts_b, dtype=float)
    nbins = len(edges) - 1
    width = edges[1] - edges[0]
    counts = np.zeros(nbins, dtype=np.int64)
    for start in range(0, len(ts_a), BLOCK):
        a = ts_a[start : start + BLOCK]
        lo = np.searchsorted(ts_b, a + edges[0], side="left")
        hi = np.searchsorted(ts_b, a + edges[-1], side="left")
        i, j = window_pairs(lo, hi)
        idx = np.floor((ts_b[j] - a[i] - edges[0]) / width).astype(np.int64)
        np.clip(idx, 0, nbins - 1, out=idx)
        counts += np.bincount(idx, minlength=nbins)
    return counts
