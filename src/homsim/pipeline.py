"""End-to-end runs: emission -> interferometer -> detectors -> histogram.

RunConfig bundles the three stage configs with the run length, seed,
replica count and normalization region; fileio reads and writes it.

Each replica uses seed + replica_index for the emission stream and
independent substreams (SeedSequence spawn keys) for the optics and the
detector chain, so a run is reproducible bit for bit from its config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherence import BeamSplitterConfig, EmitterParams
from .detection import DetectionConfig, apply_detector, norm_bins, tac_mca_histogram
from .emitter import StreamConfig, simulate_emission_stream
from .histogram import make_bin_edges
from .interferometer import InterferometerConfig, interfere_stream


@dataclass(frozen=True)
class RunConfig:
    emitter: EmitterParams
    interferometer: InterferometerConfig
    detection: DetectionConfig
    duration: float
    seed: int = 0
    replicas: int = 1
    norm_region: tuple[float, float] = (12.0, 24.0)

    def __post_init__(self):
        if not 0 < self.duration < math.inf:
            raise ValueError("duration must be positive and finite")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if not all(math.isfinite(v) for v in self.norm_region):
            raise ValueError("norm_region must be finite")
        edges = make_bin_edges(*self.detection.mca_range, self.detection.bin_width)
        norm_bins(0.5 * (edges[:-1] + edges[1:]), self.norm_region)  # fail before the Monte Carlo


# defaults mirror the experimental configuration; correlation_mode is "full"
# here because at simulation-feasible count rates the single-stop TAC drowns
# in start replacement (use "tac" with low efficiencies for hardware realism)
def default_run_config() -> RunConfig:
    return RunConfig(
        emitter=EmitterParams(gamma_spon=1.0 / 3.4, gamma_pure=0.2, w_p=6.5),
        interferometer=InterferometerConfig(delta_t=4.6, bs=BeamSplitterConfig(theta=math.pi / 4, mode_match=0.7)),
        detection=DetectionConfig(background_fraction=0.05, correlation_mode="full"),
        duration=1.0e6,
        seed=0,
        replicas=1,
    )


def _stage_rng(seed, stage):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stage,)))


def run_replica(rc: RunConfig, replica_index=0):
    """One replica; returns (stream, detected channel times)."""
    seed = rc.seed + replica_index
    stream = simulate_emission_stream(StreamConfig(rc.emitter, rc.duration, seed))
    channels = interfere_stream(stream, rc.interferometer, rc.emitter, _stage_rng(seed, 1))
    channels = apply_detector(channels, rc.detection, _stage_rng(seed, 2), rc.duration)
    return stream, channels


def run_replicas(rc: RunConfig):
    """All replicas; returns (merged tag channels, merged raw histogram).

    Tag times of replica k are offset by k * duration so the merged list is
    a single coherent timeline; histograms are accumulated per replica.
    """
    hist = None
    tags = {3: [], 4: []}
    for k in range(rc.replicas):
        _, channels = run_replica(rc, k)
        h = tac_mca_histogram(channels, rc.detection)
        hist = h if hist is None else hist.merge(h)
        # replica 0's clicks are handed through, not copied
        for ch in (3, 4):
            tags[ch].append(channels[ch] + k * rc.duration if k else channels[ch])
    merged = {ch: np.concatenate(parts) if len(parts) > 1 else parts[0] for ch, parts in tags.items()}
    return merged, hist
