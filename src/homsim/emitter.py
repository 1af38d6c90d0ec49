"""Monte Carlo photon stream from a single incoherently pumped emitter.

Emission is a renewal process: each cycle waits Exp(w_p) for re-excitation,
Exp(gamma_vib) for vibronic relaxation (skipped when instantaneous), then
Exp(gamma_spon) for the spontaneous decay that ends the cycle.  The recorded
emission_time is the instant the emitting level is populated, i.e. the origin
of the photon wave packet; the decay draw of the same cycle is kept as
envelope_delay because it both delays the next cycle and locates the photon
inside its exponential envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherence import EmitterParams


@dataclass(frozen=True)
class StreamConfig:
    emitter: EmitterParams
    duration: float
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 < self.duration < math.inf:
            raise ValueError("duration must be positive and finite")


@dataclass
class PhotonStream:
    """Array-backed photon record; times strictly increasing, in ns."""

    emission_times: np.ndarray
    envelope_delays: np.ndarray
    duration: float

    def __post_init__(self):
        self.emission_times = np.asarray(self.emission_times, dtype=float)
        self.envelope_delays = np.asarray(self.envelope_delays, dtype=float)
        if self.emission_times.shape != self.envelope_delays.shape:
            raise ValueError("times and delays must have equal length")

    def __len__(self):
        return len(self.emission_times)

    @property
    def mean_rate(self):
        return len(self) / self.duration


def mean_cycle_time(p: EmitterParams):
    """Expected time per emission cycle."""
    vib = 0.0 if math.isinf(p.gamma_vib) else 1.0 / p.gamma_vib
    return 1.0 / p.w_p + vib + 1.0 / p.gamma_spon


def simulate_emission_stream(cfg: StreamConfig) -> PhotonStream:
    """Generate the photon stream for one run.  Bit-identical for equal configs."""
    p = cfg.emitter
    rng = np.random.default_rng(cfg.rng_seed)
    has_vib = not math.isinf(p.gamma_vib)
    mean_wait = mean_cycle_time(p)

    times_parts = []
    eps_parts = []
    t_last = 0.0
    prev_eps = 0.0
    n_block = max(int(cfg.duration / mean_wait * 1.1) + 64, 64)
    while True:
        # exponential(scale) is scale * standard_exponential, so drawing into
        # the block's two arrays and scaling them in place gives the same
        # bits with no temporary; the vibronic waits borrow the eps array
        t = rng.standard_exponential(n_block)
        t *= 1.0 / p.w_p
        eps = rng.standard_exponential(n_block)
        if has_vib:
            eps *= 1.0 / p.gamma_vib
            t += eps
            rng.standard_exponential(out=eps)
        eps *= 1.0 / p.gamma_spon
        # the decay that ends cycle n delays the start of cycle n+1
        t[0] += prev_eps
        t[1:] += eps[:-1]
        np.cumsum(t, out=t)
        t += t_last
        times_parts.append(t)
        eps_parts.append(eps)
        t_last = t[-1]
        prev_eps = eps[-1]
        if t_last >= cfg.duration:
            break
        n_block = max(int((cfg.duration - t_last) / mean_wait * 1.2) + 64, 64)

    # the times increase, so only the last block runs past the end.  It is
    # shrunk in place to its photons before the end (no view of it is
    # alive): its surplus draws, about a tenth of the stream, are freed
    # without a copy.  Only a run that needed more blocks joins them
    n = int(np.searchsorted(t, cfg.duration))
    t.resize(n, refcheck=False)
    eps.resize(n, refcheck=False)
    if len(times_parts) > 1:
        t, eps = np.concatenate(times_parts), np.concatenate(eps_parts)
    return PhotonStream(t, eps, cfg.duration)
