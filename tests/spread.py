"""Seed spread of the pinned-seed statistical tests.

Reruns the set-up of test_analysis.py::test_fit_monte_carlo_recovery over
the seed pairs (314 + k, 1314 + k), and the runs of acceptance criteria 3,
4, 6 and 7 over neighbouring seeds (criterion 4's pairs are
(2024 + k, 3024 + k)); k = 0 is each test's own pinned seed.  Criterion 5,
about 30 s a run, has its own flag: its seed set j adds 10000 j to every
seed of both of its batches, and j = 0 is its pinned set.  The criteria
are read from test_acceptance.py, never changed; criterion 5's batches live
inside its test function, so criterion_5 below restates them.  For each assert it prints
the pass rate over the seeds and the mean, sd, minimum and maximum of the
asserted quantity, as a markdown table.  It checks nothing: it exits 0 once
the runs finish.  pytest does not collect it (its name does not start with
test_).

    PYTHONPATH=src python tests/spread.py                     # 20 fit, 10 criterion seeds
    PYTHONPATH=src python tests/spread.py --fit-pairs 2 --criterion-pairs 2 --scale 0.05
    PYTHONPATH=src python tests/spread.py --fit-pairs 0 --criterion-pairs 0 --criterion-5-sets 10

--scale multiplies every run's duration (a smoke run; its rates say nothing).
"""

import argparse
import math
import sys

import numpy as np

from homsim import (
    BeamSplitterConfig,
    DetectionConfig,
    EmitterParams,
    InterferometerConfig,
    RunConfig,
    fit_hom_model,
    g2_34,
    normalize,
    rebin,
    run_replica,
    tac_mca_histogram,
    v0_from_histograms,
)
from homsim.analysis import difference_curve
from homsim.histogram import norm_sigma
from test_acceptance import EXP_DET, MOLECULE, _run, _z_from_unity
from test_analysis import BACKGROUND_PAIRS, T2_B, _monte_carlo_fit


def fit_rows(k, scale):
    """(assert, asserted quantity, passed) of test_fit_monte_carlo_recovery
    at seed pair k."""
    fit = _monte_carlo_fit(MOLECULE, 314 + k, 1314 + k, 9e6 * scale)
    z_bg = (fit.background_hat - BACKGROUND_PAIRS) / fit.stderr_background
    rows = [
        ("converged", float(fit.converged), fit.converged),
        ("\\|gamma_pure_hat - 0.2\\| <= 0.02", fit.gamma_pure_hat, abs(fit.gamma_pure_hat - 0.2) <= 0.02),
        ("\\|t2_hat - T2_B\\| <= 0.1 T2_B", fit.t2_hat, abs(fit.t2_hat - T2_B) <= 0.1 * T2_B),
        ("\\|w_p_hat - 6.5\\| <= 0.65", fit.w_p_hat, abs(fit.w_p_hat - 6.5) <= 0.65),
        ("0.5 < contrast_hat < 0.85", fit.contrast_hat, 0.5 < fit.contrast_hat < 0.85),
        ("0.3 < v0_hat < 0.5", fit.v0_hat, 0.3 < fit.v0_hat < 0.5),
        ("0 < stderr_gamma_pure < 0.05", fit.stderr_gamma_pure, 0 < fit.stderr_gamma_pure < 0.05),
        ("\\|background_hat - 0.0975\\| <= 3 stderr: z", z_bg, abs(z_bg) <= 3),
    ]
    rows.append(("every assert", float(all(r[2] for r in rows)), all(r[2] for r in rows)))
    return rows


def criterion_3(k, scale):
    # test_criterion_3_simulation_matches_closed_form at seeds 101 + k, 202 + k
    emitter = EmitterParams(gamma_spon=1.0, gamma_pure=3.0, w_p=2.5)
    bs = BeamSplitterConfig(theta=math.pi / 4, mode_match=1.0)
    det = DetectionConfig(irf_fwhm_pair=0.0, background_fraction=0.0, correlation_mode="full",
                          mca_range=(-14.0, 14.0), bin_width=0.025)
    rows = []
    for pol, seed in (("parallel", 101 + k), ("orthogonal", 202 + k)):
        rc = RunConfig(emitter=emitter, interferometer=InterferometerConfig(delta_t=4.6, bs=bs, pol_mode=pol),
                       detection=det, duration=1.45e6 * scale, seed=seed, norm_region=(9.0, 13.9))
        _, channels = run_replica(rc)
        hist = normalize(tac_mca_histogram(channels, det), rc.norm_region)
        sel = np.abs(hist.bin_centers) <= 0.5
        model = g2_34(hist.bin_centers[sel], emitter, bs, pol)
        frac = float(np.mean(np.abs(hist.normalized[sel] - model) < 3 * norm_sigma(hist)[sel]))
        rows.append(("3: %s fraction within 3 sigma >= 0.95" % pol, frac, frac >= 0.95))
    return rows


def criteria_4_6(k, scale):
    # the experiment runs at seeds 2024 + k, 3024 + k; criterion 6's control at 606 + k
    par = _run(MOLECULE, "parallel", 2024 + k, 4.5e7 * scale)
    orth = _run(MOLECULE, "orthogonal", 3024 + k, 4.5e7 * scale)
    dip = float(par.normalized[np.abs(par.bin_centers) <= 0.75].min())
    v0 = float(v0_from_histograms(par, orth, window=0.42))
    near = np.abs(np.abs(par.bin_centers) - 4.6) <= 0.33
    z = float(np.abs(_z_from_unity(par)[near]).max())
    top = float(par.normalized[near].max())
    control = _run(MOLECULE, "parallel", 606 + k, 9e6 * scale, delta_t=0.0, pairing="none")
    near_c = np.abs(np.abs(control.bin_centers) - 4.6) <= 0.33
    z_c = float(np.abs(_z_from_unity(control)[near_c]).max())
    return [
        ("4: 0.25 <= dip <= 0.55", dip, 0.25 <= dip <= 0.55),
        ("4: 0.15 <= v0 <= 0.35", v0, 0.15 <= v0 <= 0.35),
        ("6: sidelobe max \\|z\\| >= 3", z, z >= 3.0),
        ("6: sidelobe normalized < 1 (max)", top, top < 1.0),
        ("6: control max \\|z\\| < 3", z_c, z_c < 3.0),
    ]


def criterion_7(k, scale):
    # test_criterion_7_same_mode_null_difference at seeds 7001 + 2k, 7002 + 2k
    h1 = _run(MOLECULE, "parallel", 7001 + 2 * k, 4.5e6 * scale)
    h2 = _run(MOLECULE, "parallel", 7002 + 2 * k, 4.5e6 * scale)
    dc = difference_curve(rebin(h1, 7), rebin(h2, 7))
    z = float(np.abs(dc.value / dc.sigma).max()) if np.all(dc.defined) else math.inf
    return [("7: max \\|z\\| < 3 (all bins defined)", z, z < 3.0)]


def criterion_5(j, scale):
    # test_criterion_5_parameter_recovery with 10000 j added to every seed
    truth_gp, truth_wp = 0.4, 0.5
    emitter = EmitterParams(gamma_spon=1 / 3.4, gamma_pure=truth_gp, w_p=truth_wp)
    recorded = []

    def batch(seed_pairs, duration):
        gps, wps, hit = [], [], 0
        for sp, so in seed_pairs:
            h_par = _run(emitter, "parallel", sp + 10000 * j, duration * scale)
            h_orth = _run(emitter, "orthogonal", so + 10000 * j, duration * scale)
            recorded.append(h_par.total_counts)
            fit = fit_hom_model(h_par, h_orth, 1 / 3.4, EXP_DET, 4.6)
            gps.append(fit.gamma_pure_hat)
            wps.append(fit.w_p_hat)
            if abs(fit.gamma_pure_hat - truth_gp) <= 0.1 * truth_gp and \
               abs(fit.w_p_hat - truth_wp) <= 0.1 * truth_wp:
                hit += 1
        return np.array(gps), np.array(wps), hit

    mad = lambda x: np.median(np.abs(x - np.median(x)))
    gp1, wp1, hit1 = batch([(11 * k, 11 * k + 1000) for k in range(1, 11)], 4.8e6)
    gp4, wp4, hit4 = batch([(2000 + k, 3000 + k) for k in range(1, 11)], 1.92e7)
    r_gp, r_wp = mad(gp1) / mad(gp4), mad(wp1) / mad(wp4)
    rows = [
        ("5: recorded coincidences >= 100000 (min)", float(min(recorded)), min(recorded) >= 100_000),
        ("5: hit1 >= 8", float(hit1), hit1 >= 8),
        ("5: hit4 >= 8", float(hit4), hit4 >= 8),
        ("5: 1.4 <= MAD ratio gamma_pure <= 3.0", r_gp, 1.4 <= r_gp <= 3.0),
        ("5: 1.4 <= MAD ratio w_p <= 3.0", r_wp, 1.4 <= r_wp <= 3.0),
    ]
    rows.append(("every criterion 5 assert", float(all(r[2] for r in rows)), all(r[2] for r in rows)))
    return rows


def criteria_rows(k, scale):
    rows = criterion_3(k, scale) + criteria_4_6(k, scale) + criterion_7(k, scale)
    rows.append(("every criterion assert", float(all(r[2] for r in rows)), all(r[2] for r in rows)))
    return rows


def table(title, row_fn, pairs, scale):
    samples = []
    for k in range(pairs):
        samples.append(row_fn(k, scale))
        print("%s: seed %d of %d done" % (title, k + 1, pairs), file=sys.stderr, flush=True)
    print("\n%s, %d seeds\n" % (title, pairs))
    print("| assert | pass | mean | sd | min | max |")
    print("|---|---|---|---|---|---|")
    for i, (name, _, _) in enumerate(samples[0]):
        vals = np.array([s[i][1] for s in samples])
        passed = sum(bool(s[i][2]) for s in samples)
        sd = vals.std(ddof=1) if pairs > 1 else math.nan
        print("| %s | %d/%d | %.4f | %.4f | %.4f | %.4f |" % (name, passed, pairs, vals.mean(), sd, vals.min(), vals.max()))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--fit-pairs", type=int, default=20)
    ap.add_argument("--criterion-pairs", type=int, default=10)
    ap.add_argument("--criterion-5-sets", type=int, default=0, help="seed sets of criterion 5, about 30 s each")
    ap.add_argument("--scale", type=float, default=1.0, help="multiplies every run's duration")
    args = ap.parse_args(argv)
    for title, row_fn, n in (("test_fit_monte_carlo_recovery", fit_rows, args.fit_pairs),
                             ("acceptance criteria 3, 4, 6 and 7", criteria_rows, args.criterion_pairs),
                             ("acceptance criterion 5 (seed sets)", criterion_5, args.criterion_5_sets)):
        if n > 0:
            table(title, row_fn, n, args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
