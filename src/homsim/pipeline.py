"""End-to-end runs: emission -> interferometer -> detectors -> histogram.

RunConfig bundles the three stage configs with the run length, seed and
normalization region; fileio reads and writes it.

A run is one continuous timeline.  Its emission stream draws from the seed
itself, and the optics and the detector chain from independent substreams
of it (SeedSequence spawn keys), so a run is reproducible bit for bit from
its config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherence import BeamSplitterConfig, EmitterParams
from .detection import DetectionConfig, apply_detector, tac_mca_histogram
from .emitter import simulate_emission_stream
from .histogram import make_bin_edges, norm_bins
from .interferometer import InterferometerConfig, interfere_stream


@dataclass(frozen=True)
class RunConfig:
    emitter: EmitterParams
    interferometer: InterferometerConfig
    detection: DetectionConfig
    duration: float
    seed: int = 0
    norm_region: tuple[float, float] = (12.0, 24.0)

    def __post_init__(self):
        if not 0 < self.duration < math.inf:
            raise ValueError("duration must be positive and finite")
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
    )


def _stage_rng(seed, stage):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stage,)))


def run_replica(rc: RunConfig):
    """One run; returns (stream, detected channel times)."""
    stream = simulate_emission_stream(rc.emitter, rc.duration, rc.seed)
    channels = interfere_stream(stream, rc.interferometer, rc.emitter, _stage_rng(rc.seed, 1))
    channels = apply_detector(channels, rc.detection, _stage_rng(rc.seed, 2), rc.duration)
    return stream, channels


def run_replicas(rc: RunConfig):
    """One run; returns (tag channels, raw histogram of those tags).

    The emission stream is only an argument of the interferometer, so it is
    freed before the detector chain runs.
    """
    channels = interfere_stream(simulate_emission_stream(rc.emitter, rc.duration, rc.seed), rc.interferometer,
                                rc.emitter, _stage_rng(rc.seed, 1))
    channels = apply_detector(channels, rc.detection, _stage_rng(rc.seed, 2), rc.duration)
    return channels, tac_mca_histogram(channels, rc.detection)
