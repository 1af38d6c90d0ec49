"""Built-in invariant suite behind the selftest subcommand.

Each check is cheap enough to run routinely; --quick trims the Monte Carlo
statistics further.  The sign_flip argument corrupts the oracle comparison
on purpose and must make the suite fail; it exists so a broken build cannot
pass silently.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from . import analysis, coherence, detection, emitter, fileio
from .coherence import BeamSplitterConfig, EmitterParams
from .detection import DetectionConfig
from .histogram import CorrelationHistogram, empirical_g2, make_bin_edges
from .interferometer import InterferometerConfig, bunching_probability
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


def _analytic_checks(rep: _Report):
    p = EmitterParams(gamma_spon=1.0, gamma_pure=3.0, w_p=2.5)
    tau = np.linspace(-0.5, 0.5, 81)
    bs = BeamSplitterConfig()

    rep.check("t2 reciprocal", abs(p.t2 * p.gamma_total - 1.0) < 1e-15)
    rep.check("g1 at zero", coherence.g1(0.0, p) == 1.0)
    rep.check(
        "curve symmetry",
        np.allclose(coherence.g1(tau, p), coherence.g1(-tau, p), rtol=0, atol=0)
        and np.allclose(
            coherence.g2_34(tau, p, bs, "parallel"),
            coherence.g2_34(-tau, p, bs, "parallel"),
            rtol=0,
            atol=1e-15,
        ),
    )
    par = coherence.g2_34(tau, p, bs, "parallel")
    orth = coherence.g2_34(tau, p, bs, "orthogonal")
    gap = orth - par
    want = bs.interference_weight * bs.mode_match * coherence.g1(tau, p) ** 2
    rep.check("orth-par gap", np.all(gap >= 0) and np.max(np.abs(gap - want)) < 1e-14)
    rep.check(
        "overlap equals g1 squared",
        np.max(np.abs(coherence.overlap_sq(np.abs(tau), p) - coherence.g1(tau, p) ** 2)) < 1e-14,
    )
    for theta in (0.0, math.pi / 2):
        bs0 = BeamSplitterConfig(theta=theta)
        d = coherence.g2_34(tau, p, bs0, "parallel") - coherence.g2_34(tau, p, bs0, "orthogonal")
        rep.check("splitter collapse theta=%g" % theta, np.max(np.abs(d)) < 1e-12)

    # pairwise bunching law: the fully overlapped reference point and bounds
    bs1 = BeamSplitterConfig(theta=math.pi / 4, mode_match=1.0)
    q = bunching_probability(1.2, 0.2, 0.0, 0.0, 0.2, bs1)
    rep.check("bunching example", abs(q - math.exp(-0.4)) < 1e-12)
    rng = np.random.default_rng(7)
    arr_a, arr_b = rng.uniform(0, 5, 200), rng.uniform(0, 5, 200)
    q = bunching_probability(rng.uniform(-1, 8, 200), rng.uniform(-1, 8, 200), arr_a, arr_b, 0.2, bs1)
    rep.check("bunching bounds", bool(np.all((q >= 0.0) & (q <= 1.0))))


def _emitter_checks(rep: _Report, quick):
    p = EmitterParams(gamma_spon=1.0, gamma_pure=3.0, w_p=2.5)
    dur = 2e4 if quick else 2e5
    cfg = emitter.StreamConfig(p, dur, rng_seed=11)
    s1 = emitter.simulate_emission_stream(cfg)
    s2 = emitter.simulate_emission_stream(cfg)
    rep.check(
        "stream determinism",
        np.array_equal(s1.emission_times, s2.emission_times)
        and np.array_equal(s1.envelope_delays, s2.envelope_delays),
    )
    rep.check("stream ordering", np.all(np.diff(s1.emission_times) > 0))

    waits = np.diff(s1.emission_times)
    sa, sb = 1 / p.w_p, 1 / p.gamma_spon
    mean_w = sa + sb
    var_w = sa**2 + sb**2
    n = len(waits)
    se_mean = math.sqrt(var_w / n)
    # var of the sample variance needs the fourth central moment of the sum
    cm4 = 9 * sa**4 + 9 * sb**4 + 6 * sa**2 * sb**2
    se_var = math.sqrt((cm4 - var_w**2) / n)
    rep.check("waiting-time mean", abs(waits.mean() - mean_w) < 3 * se_mean, "%g vs %g" % (waits.mean(), mean_w))
    rep.check("waiting-time variance", abs(waits.var() - var_w) < 3 * se_var, "%g vs %g" % (waits.var(), var_w))

    rate = p.w_p * p.gamma_spon / (p.w_p + p.gamma_spon)
    rep.check("mean rate", abs(s1.mean_rate - rate) < 3 * math.sqrt(rate / dur))

    h = empirical_g2(s1, 0.02, 1.0)
    rep.check("antibunched origin", h.normalized[0] < 0.1, "bin0 %g" % h.normalized[0])


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
        hist = detection.normalize(detection.tac_mca_histogram(channels, det), rc.norm_region)
        centers = hist.bin_centers
        sel = np.abs(centers) <= 0.5
        model = coherence.g2_34(centers[sel], p, bs, pol)
        if sign_flip and pol == "parallel":  # the interference term with its sign flipped
            model = 2 * coherence.g2_34(centers[sel], p, bs, "orthogonal") - model
        sigma = np.sqrt(np.maximum(hist.counts[sel], 1)) / hist.normalization_constant
        z = (hist.normalized[sel] - model) / sigma
        frac = float(np.mean(np.abs(z) < 3.0))
        rep.check("interference oracle %s" % pol, frac >= frac_min, "frac3sigma %.3f" % frac)


def _detection_checks(rep: _Report):
    rng = np.random.default_rng(3)
    t3 = np.sort(rng.uniform(0, 1e4, 2000))
    t4 = np.sort(rng.uniform(0, 1e4, 2000))
    det = DetectionConfig(irf_fwhm_pair=0.42, background_fraction=0.0, mca_range=(-10.0, 10.0), bin_width=0.5)
    out = detection.apply_detector({3: t3, 4: t4}, det, rng, 1e4)
    rep.check("jitter preserves totals", len(out[3]) == len(t3) and len(out[4]) == len(t4))

    full = DetectionConfig(
        irf_fwhm_pair=0.0, background_fraction=0.0, correlation_mode="full",
        mca_range=(-5.0, 5.0), bin_width=0.5,
    )
    h = detection.tac_mca_histogram({3: t3[:200], 4: t4[:200]}, full)
    brute = np.zeros(len(h.counts), dtype=np.int64)
    edges = h.bin_edges
    for a in t3[:200]:
        for b in t4[:200]:
            d = b - a
            if edges[0] <= d < edges[-1]:
                brute[int((d - edges[0]) // 0.5)] += 1
    rep.check("full mode equals brute force", np.array_equal(h.counts, brute))

    tac = DetectionConfig(
        irf_fwhm_pair=0.0, background_fraction=0.0, correlation_mode="tac",
        mca_range=(0.0, 10.0), bin_width=0.5,
    )
    ht = detection.tac_mca_histogram({3: t3, 4: t4}, tac)
    rep.check("tac records bounded by starts", ht.total_counts <= len(t3))

    flat = CorrelationHistogram(make_bin_edges(-5, 5, 1.0), np.full(10, 250))
    nf = detection.normalize(flat, (0.0, 5.0))
    rep.check("normalize flat", np.allclose(nf.normalized, 1.0) and nf.normalization_constant == 250)


def _io_checks(rep: _Report):
    rc = default_run_config()
    echo = fileio.format_config(rc)
    rc2 = fileio.build_run_config(fileio.parse_config_text(echo))
    rep.check("config echo round-trip", fileio.format_config(rc2) == echo)

    with tempfile.TemporaryDirectory() as d:
        hist = CorrelationHistogram(make_bin_edges(-2, 2, 0.5), np.arange(8) + 3)
        hist = detection.normalize(hist, (0.0, 2.0))
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


def _analysis_checks(rep: _Report, quick):
    hist = CorrelationHistogram(make_bin_edges(0, 4, 1.0), [1, 2, 3, 4])
    rb = analysis.rebin(hist, 2)
    rep.check("rebin pairs", np.array_equal(rb.counts, [3, 7]))

    h = CorrelationHistogram(make_bin_edges(-2, 2, 0.5), np.full(8, 100))
    h = detection.normalize(h, (0.0, 2.0))
    dc = analysis.difference_curve(h, h)
    rep.check("self difference zero", np.all(dc.value[dc.defined] == 0.0))

    if quick:
        return
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
    h_par = CorrelationHistogram(edges, np.rint(par * scale).astype(np.int64))
    h_orth = CorrelationHistogram(edges, np.rint(orth * scale).astype(np.int64))
    h_par.normalized = h_par.counts / scale
    h_orth.normalized = h_orth.counts / scale
    h_par.normalization_constant = scale
    h_orth.normalization_constant = scale
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
    _analytic_checks(rep)
    _emitter_checks(rep, quick)
    _interference_oracle(rep, quick, sign_flip)
    _detection_checks(rep)
    _io_checks(rep)
    _analysis_checks(rep, quick)
    return rep.ok, rep.lines
