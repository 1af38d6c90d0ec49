"""Command line interface: analytic curves, simulation, analysis, selftest.

Exit codes: 0 success, 2 usage error, 3 runtime or data error (a request
for more memory than the machine can give included), 4 selftest failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext

import numpy as np

from . import analysis, coherence, detection, fileio, pipeline, selftest
from .coherence import BeamSplitterConfig, EmitterParams
from .histogram import MAX_BINS


def _add_emitter_flags(sub, gamma_spon, gamma_pure, wp):
    sub.add_argument("--gamma-spon", type=float, default=gamma_spon, help="spontaneous decay rate (1/ns)")
    sub.add_argument("--gamma-pure", type=float, default=gamma_pure, help="pure dephasing rate (1/ns)")
    sub.add_argument("--wp", dest="w_p", type=float, default=wp, help="pump rate (1/ns)")


def build_parser():
    p = argparse.ArgumentParser(prog="homsim", description="two-photon interference simulator for a dephasing single emitter")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analytic", help="write the closed-form correlation curves (long-delay limit) as CSV")
    _add_emitter_flags(pa, 1.0, 3.0, 2.5)
    pa.add_argument("--theta", type=float, default=math.pi / 4, help="splitter angle (rad)")
    pa.add_argument("--mode-match", type=float, default=1.0)
    pa.add_argument("--irf-fwhm-ns", type=float, default=0.42)
    pa.add_argument("--tau-max-ns", type=float, default=None, help="default 0.5/gamma_spon")
    pa.add_argument("--tau-step-ns", type=float, default=None, help="default tau_max/40")
    pa.add_argument("--out", default=None, help="output CSV path (default stdout)")
    pa.set_defaults(func=cmd_analytic)

    # every dest but config and out is a config key (fileio.CONFIG_FIELDS)
    ps = sub.add_parser("simulate", help="run the Monte Carlo pipeline and write tags + histogram")
    ps.add_argument("--config", default=None, help="flat key=value config file")
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--duration-ns", dest="duration", type=float, default=None)
    ps.add_argument("--pol", dest="pol_mode", choices=("parallel", "orthogonal"), default=None)
    ps.add_argument("--theta", type=float, default=None)
    ps.add_argument("--delta-t-ns", dest="delta_t", type=float, default=None)
    _add_emitter_flags(ps, None, None, None)
    ps.add_argument("--mode-match", type=float, default=None)
    ps.add_argument("--irf-fwhm-ns", dest="irf_fwhm_pair", type=float, default=None)
    ps.add_argument("--out", default="run", help="output path prefix")
    ps.set_defaults(func=cmd_simulate)

    pn = sub.add_parser("analyze", help="fit parallel/orthogonal histograms and write results")
    pn.add_argument("--par", required=True, help="parallel histogram CSV")
    pn.add_argument("--orth", required=True, help="orthogonal histogram CSV")
    pn.add_argument("--bin", type=int, default=2, help="rebin factor for the fitted curves")
    pn.add_argument("--bin-diff", type=int, default=7, help="rebin factor for the difference curve")
    rc = pipeline.default_run_config()
    pn.add_argument("--gamma-spon", type=float, default=rc.emitter.gamma_spon)
    pn.add_argument("--delta-t-ns", type=float, default=rc.interferometer.delta_t)
    pn.add_argument("--irf-fwhm-ns", type=float, default=rc.detection.irf_fwhm_pair)
    pn.add_argument("--fit-window-ns", type=float, default=8.0)
    pn.add_argument("--out", default="analysis", help="output path prefix")
    pn.set_defaults(func=cmd_analyze)

    pt = sub.add_parser("selftest", help="run the built-in invariant suite")
    pt.add_argument("--quick", action="store_true", help="reduced statistics")
    pt.add_argument("--sentinel-sign-flip", action="store_true", help=argparse.SUPPRESS)
    pt.set_defaults(func=cmd_selftest)
    return p


def cmd_analytic(args):
    p = EmitterParams(gamma_spon=args.gamma_spon, gamma_pure=args.gamma_pure, w_p=args.w_p)
    bs = BeamSplitterConfig(theta=args.theta, mode_match=args.mode_match)
    tau_max = args.tau_max_ns if args.tau_max_ns is not None else 0.5 / p.gamma_spon
    step = args.tau_step_ns if args.tau_step_ns is not None else tau_max / 40
    if not 0 < tau_max < math.inf or not 0 < step < math.inf or not tau_max / step < math.inf:
        raise ValueError("--tau-max-ns and --tau-step-ns must be positive and finite, and so must their ratio")
    n = max(int(round(tau_max / step)), 1)
    # checked before any curve is built: a huge ratio would not fail fast
    if n > MAX_BINS:
        raise ValueError("--tau-max-ns / --tau-step-ns is %.3g; it may be at most %d" % (tau_max / step, MAX_BINS))
    tau = (np.arange(2 * n + 1) - n) * (tau_max / n)

    curves = {
        "tau_ns": tau,
        "g1": coherence.g1(tau, p),
        "g2_source": coherence.g2_source(tau, p),
        "g2_par": coherence.g2_34(tau, p, bs, "parallel"),
        "g2_orth": coherence.g2_34(tau, p, bs, "orthogonal"),
    }
    curves["g2_par_irf"] = coherence.convolve_irf(tau, curves["g2_par"], args.irf_fwhm_ns)
    curves["g2_orth_irf"] = coherence.convolve_irf(tau, curves["g2_orth"], args.irf_fwhm_ns)

    out = nullcontext(sys.stdout) if args.out is None else open(args.out, "w", encoding="utf-8", newline="\n")
    with out as fh:
        fh.write(
            "# gamma_spon = %r, gamma_pure = %r, w_p = %r, theta = %r, mode_match = %r, irf_fwhm_ns = %r\n"
            "# t2_ns = %.2f\n" % (p.gamma_spon, p.gamma_pure, p.w_p, bs.theta, bs.mode_match, args.irf_fwhm_ns, p.t2)
        )
        fileio.write_table(fh, ",".join(curves), list(curves.values()))
    return 0


def _simulate_config(args):
    mapping = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            mapping = fileio.parse_config_text(fh.read())
    for k, v in vars(args).items():
        if k in fileio.CONFIG_FIELDS and v is not None:
            mapping[k] = v if isinstance(v, str) else repr(v)
    return fileio.build_run_config(mapping)


def cmd_simulate(args):
    rc = _simulate_config(args)
    tags, hist = pipeline.run_replicas(rc)
    hist = detection.normalize(hist, rc.norm_region)

    fileio.write_config(args.out + ".config.txt", rc)
    fileio.write_timetags(args.out + ".tags.csv", tags)
    fileio.write_histogram(args.out + ".hist.csv", hist)
    print(
        "simulate: %d + %d clicks, %d correlation records -> %s.{config.txt,tags.csv,hist.csv}"
        % (len(tags[3]), len(tags[4]), hist.total_counts, args.out)
    )
    return 0


def cmd_analyze(args):
    h_par = fileio.read_histogram(args.par)
    h_orth = fileio.read_histogram(args.orth)

    det = detection.DetectionConfig(irf_fwhm_pair=args.irf_fwhm_ns)
    # at least one bin wide: zero delay sits on a bin edge, so a narrower
    # window (--irf-fwhm-ns 0) would select no bins
    v0_raw = analysis.v0_from_histograms(h_par, h_orth, window=max(args.irf_fwhm_ns, h_par.bin_width))

    hp = analysis.rebin(h_par, args.bin)
    ho = analysis.rebin(h_orth, args.bin)
    fit = analysis.fit_hom_model(
        hp, ho, args.gamma_spon, det, args.delta_t_ns, fit_window=args.fit_window_ns
    )
    dc = analysis.difference_curve(analysis.rebin(h_par, args.bin_diff), analysis.rebin(h_orth, args.bin_diff))

    fileio.write_results(args.out + ".results.txt", fit)
    fileio.write_difference(args.out + ".diff.csv", dc)
    print(
        "analyze: gamma_pure %.4f +- %.4f /ns, w_p %.4f /ns, contrast %.3f, background %.3f, "
        "t2 %.3f ns, v0(fit) %.3f, v0(window) %.3f, converged %s -> %s.{results.txt,diff.csv}"
        % (
            fit.gamma_pure_hat, fit.stderr_gamma_pure, fit.w_p_hat, fit.contrast_hat,
            fit.background_hat, fit.t2_hat, fit.v0_hat, v0_raw, fit.converged, args.out,
        )
    )
    return 0


def cmd_selftest(args):
    ok, lines = selftest.run_selftest(quick=args.quick, sign_flip=args.sentinel_sign_flip)
    for line in lines:
        print(line)
    print("selftest: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 4


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else int(e.code)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 3


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
