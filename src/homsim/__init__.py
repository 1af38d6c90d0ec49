"""Two-photon interference simulator for a single dephasing emitter.

Analytic coherence curves, a Monte Carlo emission/interferometer/detection
pipeline, and the joint fit used to extract dephasing and pump rates from
measured coincidence histograms.

A process that imports homsim before numpy, the CLI's or a library user's,
loads OpenBLAS single-threaded unless OPENBLAS_NUM_THREADS is set: an idle
worker would spin for about 0.13 s of CPU, and the fit's 4x4 solves run on
one thread anyway.  The variable is unset again once numpy has loaded.
"""

import os

if "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy  # OpenBLAS reads the variable once, when numpy loads it

    del os.environ["OPENBLAS_NUM_THREADS"]

from .analysis import HomFitResult, difference_curve, fit_hom_model, rebin, v0_from_histograms
from .coherence import (
    INSTANTANEOUS,
    BeamSplitterConfig,
    EmitterParams,
    convolve_irf,
    g1,
    g2_34,
    g2_source,
    overlap_sq,
    visibility,
)
from .detection import DetectionConfig, apply_detector, normalize, tac_mca_histogram
from .emitter import PhotonStream, simulate_emission_stream
from .histogram import CorrelationHistogram, empirical_g2, make_bin_edges
from .interferometer import InterferometerConfig, bunching_probability, interfere_stream, route
from .pipeline import RunConfig, default_run_config, run_replica, run_replicas
from .selftest import run_selftest

__version__ = "0.1.0"

__all__ = [
    "BeamSplitterConfig",
    "CorrelationHistogram",
    "DetectionConfig",
    "EmitterParams",
    "HomFitResult",
    "INSTANTANEOUS",
    "InterferometerConfig",
    "PhotonStream",
    "RunConfig",
    "apply_detector",
    "bunching_probability",
    "convolve_irf",
    "default_run_config",
    "difference_curve",
    "empirical_g2",
    "fit_hom_model",
    "g1",
    "g2_34",
    "g2_source",
    "interfere_stream",
    "make_bin_edges",
    "normalize",
    "overlap_sq",
    "rebin",
    "route",
    "run_replica",
    "run_replicas",
    "run_selftest",
    "simulate_emission_stream",
    "tac_mca_histogram",
    "v0_from_histograms",
    "visibility",
]
