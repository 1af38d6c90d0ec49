"""End-to-end build check behind the selftest subcommand.

Each check runs a whole user-visible path: the emission stream drawn twice
at one seed; the Monte Carlo from emitter to normalized histogram, counts
conserved, against the closed-form g2_34 in both polarizations; the config
echo and the histogram and time-tag CSV round-trips; and, without --quick,
the fit on noise-free curves.  sign_flip flips the interference term's sign
and must fail the suite, so a build that loses the dip cannot pass.  Unit
identities and single helpers are checked by the tier-1 tests, not here.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from . import analysis, coherence, detection, emitter, fileio
from .coherence import BeamSplitterConfig, EmitterParams
from .detection import DetectionConfig
from .histogram import CorrelationHistogram, make_bin_edges, norm_sigma, normalize
from .interferometer import InterferometerConfig
from .pipeline import RunConfig, default_run_config, run_replica


class _Report:
    def __init__(self):
        self.lines = []
        self.ok = True

    def check(self, name, cond, detail=""):
        if cond:
            self.lines.append("ok - %s" % name)
        else:
            self.ok = False
            self.lines.append("FAIL - %s%s" % (name, (": " + detail) if detail else ""))


def _stream_check(rep: _Report, quick):
    p = EmitterParams(gamma_spon=1.0, gamma_pure=3.0, w_p=2.5)
    s1, s2 = (emitter.simulate_emission_stream(p, 2e4 if quick else 2e5, seed=11) for _ in range(2))
    same = np.array_equal(s1.emission_times, s2.emission_times)
    rep.check("stream determinism", same and np.array_equal(s1.envelope_delays, s2.envelope_delays))


def _interference_oracle(rep: _Report, quick, sign_flip):
    p = EmitterParams(gamma_spon=1.0, gamma_pure=3.0, w_p=2.5)
    bs = BeamSplitterConfig(theta=math.pi / 4, mode_match=1.0)
    dur = 6e4 if quick else 4e5
    det = DetectionConfig(
        irf_fwhm_pair=0.0, background_fraction=0.0, correlation_mode="full",
        mca_range=(-14.0, 14.0), bin_width=0.05,
    )
    frac_min = 0.8 if quick else 0.9
    for pol in ("parallel", "orthogonal"):
        rc = RunConfig(
            emitter=p,
            interferometer=InterferometerConfig(delta_t=4.6, bs=bs, pol_mode=pol),
            detection=det,
            duration=dur,
            seed=23,
            norm_region=(9.0, 13.9),
        )
        stream, channels = run_replica(rc)
        rep.check("count conservation %s" % pol, len(channels[3]) + len(channels[4]) == len(stream))
        hist = normalize(detection.tac_mca_histogram(channels, det), rc.norm_region)
        centers = hist.bin_centers
        sel = np.abs(centers) <= 0.5
        model = coherence.g2_34(centers[sel], p, bs, pol)
        if sign_flip and pol == "parallel":  # the interference term with its sign flipped
            model = 2 * coherence.g2_34(centers[sel], p, bs, "orthogonal") - model
        z = (hist.normalized[sel] - model) / norm_sigma(hist)[sel]
        frac = float(np.mean(np.abs(z) < 3.0))
        rep.check("interference oracle %s" % pol, frac >= frac_min, "frac3sigma %.3f" % frac)


def _io_checks(rep: _Report):
    rc = default_run_config()
    echo = fileio.format_config(rc)
    rc2 = fileio.build_run_config(fileio.parse_config_text(echo))
    rep.check("config echo round-trip", fileio.format_config(rc2) == echo)

    with tempfile.TemporaryDirectory() as d:
        hist = CorrelationHistogram(make_bin_edges(-2, 2, 0.5), np.arange(8) + 3)
        hist = normalize(hist, (0.0, 2.0))
        path = os.path.join(d, "h.csv")
        fileio.write_histogram(path, hist)
        back = fileio.read_histogram(path)
        rep.check(
            "histogram csv round-trip",
            np.array_equal(back.counts, hist.counts)
            and np.array_equal(back.bin_centers, hist.bin_centers)
            and np.array_equal(back.normalized, hist.normalized),
        )
        tags = {3: np.array([0.5, 1.25]), 4: np.array([0.75])}
        tpath = os.path.join(d, "t.csv")
        fileio.write_timetags(tpath, tags)
        tback = fileio.read_timetags(tpath)
        rep.check(
            "timetag csv round-trip",
            np.array_equal(tback[3], tags[3]) and np.array_equal(tback[4], tags[4]),
        )


def _fit_check(rep: _Report):
    # synthetic noise-free curves must be recovered to fit tolerance
    det = DetectionConfig(irf_fwhm_pair=0.42)
    edges = make_bin_edges(det.mca_range[0], det.mca_range[1], det.bin_width)
    centers = 0.5 * (edges[:-1] + edges[1:])
    truth = dict(gamma_pure=0.2, w_p=0.8, contrast=0.55, background=0.06)
    par, orth = analysis.hom_model_curves(
        centers, 0.21, 1 / 3.4, truth["gamma_pure"], truth["w_p"],
        truth["contrast"], truth["background"], 4.6, det.irf_fwhm_pair,
    )
    scale = 2e6
    h_par, h_orth = (CorrelationHistogram(edges, np.rint(c * scale).astype(np.int64)) for c in (par, orth))
    for h in (h_par, h_orth):
        h.normalized, h.normalization_constant = h.counts / scale, scale
    fit = analysis.fit_hom_model(h_par, h_orth, 1 / 3.4, det, 4.6)
    ok = (
        abs(fit.gamma_pure_hat - truth["gamma_pure"]) < 1e-4 * truth["gamma_pure"] + 1e-5
        and abs(fit.w_p_hat - truth["w_p"]) < 1e-4 * truth["w_p"] + 1e-5
        and abs(fit.contrast_hat - truth["contrast"]) < 1e-4
        and abs(fit.background_hat - truth["background"]) < 1e-4
    )
    rep.check("fit self-consistency", ok, "gp %.5f wp %.5f" % (fit.gamma_pure_hat, fit.w_p_hat))


def run_selftest(quick=False, sign_flip=False):
    """Run all invariant checks; returns (passed, report lines)."""
    rep = _Report()
    _stream_check(rep, quick)
    _interference_oracle(rep, quick, sign_flip)
    _io_checks(rep)
    if not quick:
        _fit_check(rep)
    return rep.ok, rep.lines
