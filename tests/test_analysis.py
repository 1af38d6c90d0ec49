"""Rebinning, difference curves, and the joint correlation-curve fit."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest

from homsim import (
    BeamSplitterConfig,
    CorrelationHistogram,
    DetectionConfig,
    EmitterParams,
    InterferometerConfig,
    RunConfig,
    difference_curve,
    fit_hom_model,
    make_bin_edges,
    normalize,
    rebin,
    run_replicas,
    v0_from_histograms,
)
from homsim import analysis
from homsim.analysis import _levenberg_marquardt, hom_model, hom_model_curves
from homsim.coherence import visibility
from homsim.fileio import read_histogram, write_histogram
from homsim.pipeline import default_run_config

T2_B = 2.88135593220338983


def _hist(counts, tau_max=None, width=1.0):
    counts = np.asarray(counts)
    tau_max = len(counts) * width if tau_max is None else tau_max
    return CorrelationHistogram(make_bin_edges(0.0, tau_max, width), counts)


def test_rebin_groups_counts():
    out = rebin(_hist([1, 2, 3, 4]), 2)
    assert np.array_equal(out.counts, [3, 7])
    np.testing.assert_allclose(out.bin_edges, [0.0, 2.0, 4.0])
    same = rebin(_hist([1, 2, 3, 4]), 1)
    assert np.array_equal(same.counts, [1, 2, 3, 4])
    with pytest.raises(ValueError):
        rebin(_hist([1, 2, 3, 4]), 0)
    with pytest.raises(ValueError):
        rebin(_hist([1, 2, 3, 4]), 5)


def test_rebin_truncates_with_warning():
    with pytest.warns(UserWarning):
        out = rebin(_hist([1, 2, 3, 4, 5]), 2)
    assert np.array_equal(out.counts, [3, 7])
    np.testing.assert_allclose(out.bin_edges, [0.0, 2.0, 4.0])


def test_rebin_commutes_with_normalize(rng):
    raw = CorrelationHistogram(make_bin_edges(-10.0, 10.0, 0.5), rng.poisson(100.0, 40))
    region = (6.0, 10.0)  # aligned with both the fine and the coarse grid
    a = rebin(normalize(raw, region), 2)
    b = normalize(rebin(raw, 2), region)
    np.testing.assert_allclose(a.normalized, b.normalized, rtol=1e-12)
    assert a.normalization_constant == pytest.approx(b.normalization_constant, rel=1e-12)


def test_rebin_of_a_read_histogram_matches_memory(tmp_path):
    # analyze rebins a histogram read from its file, whose constant is
    # inferred from one bin; the library rebins the one normalize made.
    # Both follow one rule, so they agree to round-off at every factor
    rc = default_run_config()
    path = tmp_path / "h.hist.csv"
    for seed, duration in [(s, 2e5) for s in range(1, 13)] + [(5, 3e5)]:
        run = dataclasses.replace(rc, duration=duration, seed=seed)
        h = normalize(run_replicas(run)[1], run.norm_region)
        write_histogram(path, h)
        back = read_histogram(path)
        for factor in (1, 2, 7):
            np.testing.assert_allclose(rebin(back, factor).normalized, rebin(h, factor).normalized, rtol=1e-15, atol=0)


def test_rebin_scales_rate_normalization():
    h = _hist([10, 20, 30, 40])
    h.normalized = h.counts / 200.0
    h.normalization_constant = 200.0
    out = rebin(h, 2)
    assert out.normalization_constant == 400.0
    np.testing.assert_allclose(out.normalized, [30 / 400.0, 70 / 400.0])


def test_difference_curve_null_and_sigma(rng):
    raw = CorrelationHistogram(make_bin_edges(-10.0, 10.0, 1.0), rng.poisson(100.0, 20))
    h = normalize(raw, (5.0, 9.0))
    dc = difference_curve(h, h)
    assert np.all(dc.defined)
    assert np.all(dc.value == 0.0)
    k = 3
    a = h.normalized[k]
    s = math.sqrt(h.counts[k]) / h.normalization_constant
    expect = math.sqrt((a / a) ** 2 * (s / a) ** 2 + (s / a) ** 2)
    assert dc.sigma[k] == pytest.approx(expect, rel=1e-12)


def test_difference_curve_undefined_bins(rng):
    counts = rng.poisson(100.0, 20)
    counts_b = counts.copy()
    counts_b[0] = 0
    edges = make_bin_edges(-10.0, 10.0, 1.0)
    ha = normalize(CorrelationHistogram(edges, counts), (5.0, 9.0))
    hb = normalize(CorrelationHistogram(edges, counts_b), (5.0, 9.0))
    dc = difference_curve(ha, hb)
    assert not dc.defined[0]
    assert np.isnan(dc.value[0])
    assert np.all(dc.defined[1:])


def test_difference_curve_validation(rng):
    edges = make_bin_edges(-10.0, 10.0, 1.0)
    raw = CorrelationHistogram(edges, rng.poisson(100.0, 20))
    h = normalize(raw, (5.0, 9.0))
    with pytest.raises(ValueError):
        difference_curve(h, raw)  # unnormalized
    other = normalize(CorrelationHistogram(make_bin_edges(-10.0, 10.0, 0.5), rng.poisson(100.0, 40)), (5.0, 9.0))
    with pytest.raises(ValueError):
        difference_curve(h, other)


def test_v0_window_selection():
    edges = make_bin_edges(-1.05, 1.05, 0.21)
    c = 0.5 * (edges[:-1] + edges[1:])
    par = CorrelationHistogram(edges, np.ones(len(c), dtype=np.int64))
    par.normalized = np.where(np.abs(c) <= 0.21, 0.7, 5.0)
    par.normalization_constant = 1.0
    orth = CorrelationHistogram(edges, np.ones(len(c), dtype=np.int64))
    orth.normalized = np.ones(len(c))
    orth.normalization_constant = 1.0
    assert v0_from_histograms(par, orth, window=0.42) == pytest.approx(0.3, rel=1e-12)
    with pytest.raises(ValueError):
        v0_from_histograms(par, orth, window=0.01)


def test_model_curves_structure():
    edges = make_bin_edges(-24.99, 24.99, 0.21)
    c = 0.5 * (edges[:-1] + edges[1:])
    par, orth = hom_model_curves(c, 0.21, 1 / 3.4, 0.2, 6.5, 0.7, 0.05, 4.6, 0.42)
    np.testing.assert_allclose(par, par[::-1], rtol=1e-10)
    np.testing.assert_allclose(orth, orth[::-1], rtol=1e-10)
    assert np.all(par <= orth + 1e-12)
    i0 = int(np.argmin(np.abs(c)))
    i_side = int(np.argmin(np.abs(c - 4.6)))
    i_far = int(np.argmin(np.abs(c - 12.0)))
    assert par[i0] < orth[i0]  # central interference dip
    assert orth[i_side] < orth[i_far] - 0.01  # arm-delay sidelobe exists without interference
    assert abs(orth[i_far] - 1.0) < 0.02


@pytest.mark.parametrize(
    "bin_width, delta_t, irf_fwhm",
    [
        (0.21, 4.6, -1.0),
        (0.21, 4.6, math.nan),
        (0.21, 4.6, math.inf),
        (0.0, 4.6, 0.42),
        (-0.21, 4.6, 0.42),
        (math.nan, 4.6, 0.42),
        (math.inf, 4.6, 0.42),
        (0.21, math.nan, 0.42),
        (0.21, math.inf, 0.42),
        (0.21, -4.6, 0.42),
    ],
)
def test_model_rejects_bad_geometry(bin_width, delta_t, irf_fwhm):
    c = np.array([-0.21, 0.0, 0.21])
    with pytest.raises(ValueError):
        hom_model(c, bin_width, 1 / 3.4, delta_t, irf_fwhm)
    with pytest.raises(ValueError):
        hom_model_curves(c, bin_width, 1 / 3.4, 0.2, 6.5, 0.7, 0.05, delta_t, irf_fwhm)


def _synthetic_pair(gamma_pure, w_p, contrast, background, scale=2e6):
    det = DetectionConfig()
    edges = make_bin_edges(*det.mca_range, det.bin_width)
    c = 0.5 * (edges[:-1] + edges[1:])
    par_m, orth_m = hom_model_curves(c, det.bin_width, 1 / 3.4, gamma_pure, w_p, contrast, background, 4.6, det.irf_fwhm_pair)
    out = []
    for m in (par_m, orth_m):
        counts = np.rint(m * scale).astype(np.int64)
        h = CorrelationHistogram(edges, counts)
        h.normalized = counts / scale
        h.normalization_constant = scale
        out.append(h)
    return out[0], out[1], det


def _recording_model(probes):
    """analysis.hom_model whose curves append each parameter vector they are
    called with to probes."""
    build = analysis.hom_model

    def recording(*geometry):
        curves = build(*geometry)

        def recorded(*x):
            probes.append(x)
            return curves(*x)

        return recorded

    return recording


def test_fit_recovers_noise_free_synthetic():
    h_par, h_orth, det = _synthetic_pair(0.3, 2.0, 0.6, 0.08)
    probes = []
    with mock.patch.object(analysis, "hom_model", _recording_model(probes)):
        fit = fit_hom_model(h_par, h_orth, 1 / 3.4, det, 4.6)
    assert fit.converged
    assert fit.gamma_pure_hat == pytest.approx(0.3, abs=2e-3)
    assert fit.w_p_hat == pytest.approx(2.0, abs=2e-2)
    assert fit.contrast_hat == pytest.approx(0.6, abs=5e-3)
    assert fit.background_hat == pytest.approx(0.08, abs=5e-3)
    assert fit.t2_hat == pytest.approx(1.0 / (0.5 / 3.4 + fit.gamma_pure_hat), rel=1e-12)
    for s in (fit.stderr_gamma_pure, fit.stderr_w_p, fit.stderr_contrast, fit.stderr_background):
        assert np.isfinite(s) and s > 0
    # every model call is a residuals call but v0_hat's
    assert len(probes) == fit.n_evaluations + 1
    # v0_hat is the tau = 0 bin of the fitted model on a grid wide enough
    # that the IRF never reaches its edges
    wide = det.bin_width * np.arange(-20, 21)
    m_par, m_orth = hom_model_curves(
        wide, det.bin_width, 1 / 3.4, fit.gamma_pure_hat, fit.w_p_hat, fit.contrast_hat, fit.background_hat,
        4.6, det.irf_fwhm_pair,
    )
    assert fit.v0_hat == pytest.approx(visibility(m_par[20], m_orth[20]), rel=1e-12)


NOISE_FREE_TRUTHS = [
    (0.2, 6.5, 0.7, 0.05),  # the paper's operating point
    (2.0, 20.0, 0.3, 0.3),  # strong dephasing
    (0.0, 2.0, 1.0, 0.0),  # gamma_pure, contrast and background at a bound
    (5.0, 50.0, 0.2, 0.45),  # gamma_pure, w_p and background at a bound
]


@pytest.mark.parametrize("truth", NOISE_FREE_TRUTHS)
def test_fit_recovers_noise_free_points(truth):
    h_par, h_orth, det = _synthetic_pair(*truth)
    fit = fit_hom_model(h_par, h_orth, 1 / 3.4, det, 4.6)
    assert fit.converged
    x = [fit.gamma_pure_hat, fit.w_p_hat, fit.contrast_hat, fit.background_hat]
    np.testing.assert_allclose(x, truth, rtol=1e-4, atol=5e-5)


def test_fit_at_bound_corner_probes_inside_box():
    h_par, h_orth, det = _synthetic_pair(0.0, 2.0, 1.0, 0.0)
    probes = []
    with mock.patch.object(analysis, "hom_model", _recording_model(probes)):
        fit = fit_hom_model(h_par, h_orth, 1 / 3.4, det, 4.6)
    assert fit.converged
    assert fit.n_evaluations < 1000
    # the case at hand: the fit ends on the contrast and background bounds
    assert 1.0 - fit.contrast_hat <= 1e-9 and fit.background_hat <= 1e-9
    # every parameter vector that reaches the model, the solver's, the error
    # estimate's Jacobian columns and v0_hat's included, lies inside the box
    assert len(probes) == fit.n_evaluations + 1
    names = ("gamma_pure", "w_p", "contrast", "background")
    assert all(analysis._BOUNDS[k][0] <= v <= analysis._BOUNDS[k][1] for x in probes for k, v in zip(names, x))
    for s in (fit.stderr_gamma_pure, fit.stderr_w_p, fit.stderr_contrast, fit.stderr_background):
        assert math.isfinite(s) and s > 1e-8


def test_fit_rank_deficient_does_not_raise():
    h_par, h_orth, det = _synthetic_pair(0.3, 2.0, 0.6, 0.08)
    # the bins either side of zero mirror each other: four residuals of rank
    # two for four parameters
    fit = fit_hom_model(h_par, h_orth, 1 / 3.4, det, 4.6, fit_window=0.11)
    assert all(math.isfinite(v) for v in (fit.gamma_pure_hat, fit.w_p_hat, fit.contrast_hat, fit.background_hat, fit.rss))
    # a parameter the residuals ignore gives a zero Jacobian column
    x, r, rss, converged = _levenberg_marquardt(
        lambda x: np.array([x[0] - 0.5, 2.0 * (x[0] - 0.5)]), np.array([0.1, 0.3]), np.zeros(2), np.ones(2)
    )
    assert converged
    assert x[0] == pytest.approx(0.5, abs=1e-9) and x[1] == 0.3
    assert rss < 1e-15 and rss == float(r @ r)


def test_curvature_stderr_is_gauss_newton():
    # residuals linear in x: the covariance is exactly (J'J)^-1, and a
    # correlated pair widens both marginal errors past 1/sqrt(diag(J'J))
    np.testing.assert_allclose(analysis._curvature_stderr(np.array([[1.0, 1.0], [0.0, 1.0]])), [math.sqrt(2.0), 1.0])
    np.testing.assert_allclose(analysis._curvature_stderr(np.diag([2.0, 4.0])), [0.5, 0.25])
    assert all(math.isnan(s) for s in analysis._curvature_stderr(np.zeros((3, 2))))


@pytest.mark.parametrize("truth", NOISE_FREE_TRUTHS + ["monte_carlo"])
def test_fit_minimum_does_not_depend_on_start(truth, request):
    # the fit runs once from _START; from each of three other starts (log
    # offsets drawn from default_rng(0).normal(0, 0.15, 4), clipped into the
    # box) it must reach the same minimum, or the single start misses one
    if truth == "monte_carlo":
        h_par, h_orth = request.getfixturevalue("small_pair")
        det = default_run_config().detection
    else:
        h_par, h_orth, det = _synthetic_pair(*truth)
    names = ("gamma_pure", "w_p", "contrast", "background")
    lo = np.array([analysis._BOUNDS[k][0] for k in names])
    hi = np.array([analysis._BOUNDS[k][1] for k in names])
    ref = fit_hom_model(h_par, h_orth, 1 / 3.4, det, 4.6)
    assert ref.converged
    rng = np.random.default_rng(0)
    for _ in range(3):
        start = np.clip(np.array(analysis._START) * np.exp(rng.normal(0, 0.15, 4)), lo + 1e-9, hi - 1e-9)
        with mock.patch.object(analysis, "_START", tuple(start)):
            fit = fit_hom_model(h_par, h_orth, 1 / 3.4, det, 4.6)
        assert fit.converged
        for k in names:
            got, want = getattr(fit, k + "_hat"), getattr(ref, k + "_hat")
            assert abs(got - want) <= 1e-4 * getattr(ref, "stderr_" + k), k
        assert fit.rss == pytest.approx(ref.rss, rel=1e-9)


def test_fit_scale_invariance():
    h_par, h_orth, det = _synthetic_pair(0.3, 2.0, 0.6, 0.08)
    fit1 = fit_hom_model(h_par, h_orth, 1 / 3.4, det, 4.6)
    for h in (h_par, h_orth):
        h.counts = h.counts * 4
        h.normalization_constant = h.normalization_constant * 4
        h.normalized = h.counts / h.normalization_constant
    fit4 = fit_hom_model(h_par, h_orth, 1 / 3.4, det, 4.6)
    assert fit4.gamma_pure_hat == pytest.approx(fit1.gamma_pure_hat, rel=1e-9)
    assert fit4.w_p_hat == pytest.approx(fit1.w_p_hat, rel=1e-9)
    assert fit4.contrast_hat == pytest.approx(fit1.contrast_hat, rel=1e-9)


# the fit's background is a fraction of pairs: 1 - (1 - 0.05)^2 at a 5%
# click-level background
BACKGROUND_PAIRS = 1 - (1 - 0.05) ** 2


def _monte_carlo_fit(molecule, seed_par, seed_orth, duration=9e6):
    """Fit a simulated parallel/orthogonal pair at the molecule operating
    point: M = 0.7, 5% background, full mode.  tests/spread.py reruns it
    over other seed pairs."""
    bs = BeamSplitterConfig(theta=math.pi / 4, mode_match=0.7)
    det = DetectionConfig(background_fraction=0.05, correlation_mode="full")
    hists = {}
    for pol, seed in (("parallel", seed_par), ("orthogonal", seed_orth)):
        rc = RunConfig(
            emitter=molecule,
            interferometer=InterferometerConfig(delta_t=4.6, bs=bs, pol_mode=pol),
            detection=det,
            duration=duration,
            seed=seed,
        )
        _, h = run_replicas(rc)
        hists[pol] = normalize(h, rc.norm_region)
    return fit_hom_model(hists["parallel"], hists["orthogonal"], 1 / 3.4, det, 4.6)


def test_fit_monte_carlo_recovery(molecule):
    # end to end at the molecule operating point with a pinned seed pair
    fit = _monte_carlo_fit(molecule, 314, 1314)
    assert fit.converged
    assert abs(fit.gamma_pure_hat - 0.2) <= 0.02
    assert abs(fit.t2_hat - T2_B) <= 0.1 * T2_B
    assert abs(fit.w_p_hat - 6.5) <= 0.65
    assert 0.5 < fit.contrast_hat < 0.85
    assert abs(fit.background_hat - BACKGROUND_PAIRS) <= 3 * fit.stderr_background
    assert 0.3 < fit.v0_hat < 0.5
    assert 0 < fit.stderr_gamma_pure < 0.05
