"""Histogram post-processing: rebinning, difference curves, and the joint
fit of the parallel/orthogonal correlation curves.

The fit forward model is the finite-arm-delay cross-correlation of a
balanced splitter: three copies of the source correlation weighted 1/2,
1/4, 1/4 at delays 0 and +-delta_t, minus the interference kernel on the
parallel curve, convolved with the detection IRF, on top of a flat
background folded in convexly so the asymptote stays at 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .coherence import FWHM_TO_SIGMA, MAX_IRF_STEPS, EmitterParams, convolve_irf, g2_source, overlap_sq, visibility
from .detection import DetectionConfig, normalize
from .histogram import CorrelationHistogram

# sub-samples per bin when averaging the model across a histogram bin
FINE = 5

_BOUNDS = {
    "gamma_pure": (0.0, 5.0),
    "w_p": (1e-3, 50.0),
    "contrast": (0.0, 1.0),
    "background": (0.0, 0.45),
}

_START = (0.3, 0.5, 0.6, 0.08)


@dataclass
class HomFitResult:
    gamma_pure_hat: float
    w_p_hat: float
    contrast_hat: float
    background_hat: float
    t2_hat: float
    v0_hat: float
    stderr_gamma_pure: float
    stderr_w_p: float
    stderr_contrast: float
    stderr_background: float
    rss: float
    converged: bool
    n_evaluations: int  # residuals calls, the error estimate's Jacobian included


def rebin(hist: CorrelationHistogram, factor: int) -> CorrelationHistogram:
    """Merge groups of `factor` adjacent bins.  A trailing partial group is
    dropped with a warning.  Normalization, when present, is recomputed on
    the coarse bins."""
    if factor < 1 or factor != int(factor):
        raise ValueError("factor must be a positive integer")
    factor = int(factor)
    if factor == 1:
        return hist.copy()
    nbins = len(hist.counts)
    n_groups = nbins // factor
    if n_groups == 0:
        raise ValueError("factor exceeds the number of bins")
    if n_groups * factor != nbins:
        warnings.warn("rebin dropped %d trailing bins" % (nbins - n_groups * factor))
    edges = hist.bin_edges[: n_groups * factor + 1 : factor]
    counts = hist.counts[: n_groups * factor].reshape(n_groups, factor).sum(axis=1)
    out = CorrelationHistogram(edges, counts)
    if hist.norm_region is not None:
        out = normalize(out, hist.norm_region)
    elif hist.normalization_constant is not None:
        # rate-style normalization scales with the bin width
        out.normalization_constant = hist.normalization_constant * factor
        out.normalized = counts / out.normalization_constant
    return out


@dataclass
class DifferenceCurve:
    tau: np.ndarray
    value: np.ndarray
    sigma: np.ndarray
    defined: np.ndarray  # False where the reference histogram has no counts


def _normalized_pair(h_a, h_b):
    if h_a.normalized is None or h_b.normalized is None:
        raise ValueError("both histograms must be normalized first")
    if not h_a.same_geometry(h_b):
        raise ValueError("histogram geometries differ")


def _norm_sigma(hist):
    return np.sqrt(np.maximum(hist.counts, 1)) / hist.normalization_constant


def difference_curve(h_a: CorrelationHistogram, h_b: CorrelationHistogram) -> DifferenceCurve:
    """Per-bin (b - a)/b with propagated Poisson uncertainty.

    With a = parallel and b = orthogonal this is the interference visibility
    curve; with two same-mode runs it is a null consistency check.
    """
    _normalized_pair(h_a, h_b)
    a, b = h_a.normalized, h_b.normalized
    sa, sb = _norm_sigma(h_a), _norm_sigma(h_b)
    defined = b > 0
    bb = np.where(defined, b, 1.0)
    value = np.where(defined, (b - a) / bb, np.nan)
    var = (a / bb) ** 2 * (sb / bb) ** 2 + (sa / bb) ** 2
    sigma = np.where(defined, np.sqrt(var), np.nan)
    return DifferenceCurve(h_a.bin_centers.copy(), value, sigma, defined)


def v0_from_histograms(h_par, h_orth, window=0.42):
    """Visibility from the mean normalized level within |tau| <= window/2."""
    _normalized_pair(h_par, h_orth)
    sel = np.abs(h_par.bin_centers) <= window / 2
    if not np.any(sel):
        raise ValueError("window selects no bins")
    return visibility(h_par.normalized[sel].mean(), h_orth.normalized[sel].mean())


def hom_model(centers, bin_width, gamma_spon, delta_t, irf_fwhm):
    """Bin-averaged forward model of the parallel and orthogonal normalized
    curves on fixed bins.

    Everything that does not depend on the fitted parameters (the sub-bin
    grid, the delays 0 and +-delta_t on it, |grid|) is built here once; the
    returned curves(gamma_pure, w_p, contrast, background) gives the
    (parallel, orthogonal) bin means.
    """
    if not (math.isfinite(bin_width) and bin_width > 0):
        raise ValueError("bin_width must be positive and finite")
    if not (math.isfinite(irf_fwhm) and irf_fwhm >= 0):
        raise ValueError("irf_fwhm must be non-negative and finite")
    if not (math.isfinite(delta_t) and delta_t >= 0):
        raise ValueError("delta_t must be non-negative and finite")
    centers = np.asarray(centers, dtype=float)
    n_sub = FINE
    if irf_fwhm > 0:  # keep the sub-grid fine enough for the IRF kernel
        n_sub = max(FINE, int(np.ceil(4.0 * bin_width / irf_fwhm - 1e-9)))
    step = bin_width / n_sub
    if irf_fwhm > MAX_IRF_STEPS * step:  # convolve_irf's bound, before the fit and in analyze's flags
        raise ValueError("--irf-fwhm-ns is %.3g fitted bins (--bin histogram bins each); it may be at most %.3g"
                         % (irf_fwhm / bin_width, MAX_IRF_STEPS / n_sub))
    offs = (np.arange(n_sub) - (n_sub - 1) / 2.0) * step
    grid = (centers[:, None] + offs[None, :]).ravel()
    delays = np.stack([grid, grid - delta_t, grid + delta_t])
    abs_grid = np.abs(grid)
    n = len(centers)

    def curves(gamma_pure, w_p, contrast, background):
        p = EmitterParams(gamma_spon=gamma_spon, gamma_pure=gamma_pure, w_p=w_p)
        g = g2_source(delays, p)
        base = 0.5 * g[0] + 0.25 * g[1] + 0.25 * g[2]
        kernel = 0.5 * contrast * overlap_sq(abs_grid, p)
        both = np.array([base - kernel, base])
        if irf_fwhm > 0:
            both = convolve_irf(grid, both, irf_fwhm)
        both = (1.0 - background) * both + background
        # bin means, row by row as for a single curve; sum / n_sub is what
        # ndarray.mean computes, without its Python-level overhead
        return both[0].reshape(n, n_sub).sum(axis=1) / n_sub, both[1].reshape(n, n_sub).sum(axis=1) / n_sub

    return curves


def hom_model_curves(centers, bin_width, gamma_spon, gamma_pure, w_p, contrast, background, delta_t, irf_fwhm):
    """Bin-averaged model for the parallel and orthogonal normalized curves."""
    return hom_model(centers, bin_width, gamma_spon, delta_t, irf_fwhm)(gamma_pure, w_p, contrast, background)


def fit_hom_model(
    h_par: CorrelationHistogram,
    h_orth: CorrelationHistogram,
    gamma_spon: float,
    det: DetectionConfig,
    delta_t: float,
    fit_window=8.0,
) -> HomFitResult:
    """Joint Poisson-weighted least squares fit of both curves.

    gamma_spon is held fixed; gamma_pure, w_p and the background are shared
    between the curves while the interference contrast enters the parallel
    one only.  Levenberg-Marquardt runs once within _BOUNDS from _START, and
    converged is its own flag; the errors come from the Jacobian at the
    point it ends on.  The model assumes a balanced splitter.
    """
    _normalized_pair(h_par, h_orth)

    centers = h_par.bin_centers
    sel = np.abs(centers) <= fit_window
    n_sel = np.count_nonzero(sel)
    if n_sel < 2:  # two residuals per bin, four fitted parameters
        raise ValueError("fit window must select at least 2 bins per curve for 4 parameters, not %d" % n_sel)
    c_sel = centers[sel]
    width = h_par.bin_width
    d_par, d_orth = h_par.normalized[sel], h_orth.normalized[sel]
    s_par, s_orth = _norm_sigma(h_par)[sel], _norm_sigma(h_orth)[sel]

    names = ("gamma_pure", "w_p", "contrast", "background")
    lo = np.array([_BOUNDS[k][0] for k in names])
    hi = np.array([_BOUNDS[k][1] for k in names])

    model = hom_model(c_sel, width, gamma_spon, delta_t, det.irf_fwhm_pair)
    n_eval = [0]

    def residuals(x):
        n_eval[0] += 1
        m_par, m_orth = model(x[0], x[1], x[2], x[3])
        return np.concatenate([(d_par - m_par) / s_par, (d_orth - m_orth) / s_orth])

    x, r, rss, converged = _levenberg_marquardt(residuals, _START, lo, hi)
    stderr = _curvature_stderr(_jacobian(residuals, x, r, hi))

    # the tau = 0 bin, with enough bins either side that the IRF kernel
    # never reaches the grid's edge padding
    k = int(np.ceil(5.0 * det.irf_fwhm_pair / FWHM_TO_SIGMA / width)) + 1
    m_par0, m_orth0 = hom_model_curves(
        width * np.arange(-k, k + 1), width, gamma_spon, x[0], x[1], x[2], x[3], delta_t, det.irf_fwhm_pair
    )
    v0_hat = visibility(float(m_par0[k]), float(m_orth0[k]))

    return HomFitResult(
        gamma_pure_hat=float(x[0]),
        w_p_hat=float(x[1]),
        contrast_hat=float(x[2]),
        background_hat=float(x[3]),
        t2_hat=float(EmitterParams(gamma_spon, x[0], x[1]).t2),
        v0_hat=float(v0_hat),
        stderr_gamma_pure=stderr[0],
        stderr_w_p=stderr[1],
        stderr_contrast=stderr[2],
        stderr_background=stderr[3],
        rss=rss,
        converged=converged,
        n_evaluations=n_eval[0],
    )


def _levenberg_marquardt(residuals, x0, lo, hi):
    """Minimise |residuals(x)|^2 within the box [lo, hi] by Levenberg-Marquardt.

    The Jacobian is _jacobian's.  A parameter at a bound whose gradient
    points out of the box is held there for the step; the damped system
    solves (J'J + lam diag) delta = -J'r, its diagonal floored so that a flat
    column cannot make it singular, and the trial point is clipped to the
    box.  Returns (x, r, rss, converged) with r = residuals(x): converged
    when an accepted step lowers the rss by at most 1e-12 relative, or when
    no step lowers it at all, within 200 iterations.
    """
    x = np.array(x0, dtype=float)
    r = residuals(x)
    rss = float(r @ r)
    lam = 1e-3
    for _ in range(200):
        jac = _jacobian(residuals, x, r, hi)
        grad = jac.T @ r
        free = ~(((x <= lo) & (grad > 0)) | ((x >= hi) & (grad < 0)))
        if not np.any(grad[free]):
            return x, r, rss, True
        a = (jac.T @ jac)[np.ix_(free, free)]
        damp = np.diag(np.maximum(np.diag(a), 1e-12 * np.trace(a)))
        while True:
            trial = x.copy()
            trial[free] -= np.linalg.solve(a + lam * damp, grad[free])
            trial = np.clip(trial, lo, hi)
            r_trial = residuals(trial)
            rss_trial = float(r_trial @ r_trial)
            if rss_trial < rss:
                break
            lam *= 10.0
            if lam > 1e10:
                return x, r, rss, True
        done = rss - rss_trial <= 1e-12 * rss
        x, r, rss, lam = trial, r_trial, rss_trial, lam / 10.0
        if done:
            return x, r, rss, True
    return x, r, rss, False


def _jacobian(residuals, x, r, hi):
    """Forward-difference Jacobian of residuals at x, where r = residuals(x).
    A coordinate too close to its upper bound is stepped downward, so every
    probe stays in the box."""
    h = 1.5e-8 * np.maximum(np.abs(x), 1.0)
    h = np.where(x + h > hi, -h, h)
    jac = np.empty((len(r), len(x)))
    for j in range(len(x)):
        xj = x.copy()
        xj[j] += h[j]
        jac[:, j] = (residuals(xj) - r) / h[j]
    return jac


def _curvature_stderr(jac):
    """1-sigma errors sqrt(diag((J'J)^-1)) from the Jacobian of the weighted
    residuals at the best point: J'J is the Gauss-Newton curvature of the
    rss, half its Hessian.  A singular J'J or a non-positive variance gives
    nan."""
    try:
        var = np.diag(np.linalg.inv(jac.T @ jac))
    except np.linalg.LinAlgError:
        return [float("nan")] * jac.shape[1]
    return [float(np.sqrt(v)) if v > 0 else float("nan") for v in var]
