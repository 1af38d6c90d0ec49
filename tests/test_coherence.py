"""Closed-form coherence functions against frozen high-precision references.

The reference numbers were computed once at 50-digit precision directly from
the closed forms and pasted here, so a regression in the module cannot hide
behind shared code.  Emitter A is the strong-dephasing operating point
(gamma_spon=1, gamma_pure=3, w_p=2.5 with a balanced splitter, M=1);
emitter B is the molecule-like one (gamma_spon=1/3.4, gamma_pure=0.2).
Off a balanced splitter the Monte Carlo is the oracle for g2_34.
"""

import math
from unittest import mock

import numpy as np
import pytest

from homsim import (
    INSTANTANEOUS,
    BeamSplitterConfig,
    DetectionConfig,
    EmitterParams,
    InterferometerConfig,
    RunConfig,
    convolve_irf,
    g1,
    g2_34,
    g2_source,
    normalize,
    overlap_sq,
    run_replicas,
    visibility,
)
from homsim import coherence
from homsim.coherence import FWHM_TO_SIGMA, MAX_IRF_STEPS, _irf_kernel
from homsim.histogram import norm_sigma

G1_A_AT_02 = 0.496585303791409515
G2_SOURCE_A_AT_02 = 0.503414696208590485
G2_PAR_A_AT_02 = 0.628408866133492004
G2_ORTH_A_AT_02 = 0.751707348104295243
T2_B = 2.88135593220338983
OVERLAP_B_AT_46 = 0.0410509551055792236
OVERLAP_B_NODEPH_AT_46 = 0.258478909473967164
VIS_EXAMPLE = 0.239543726235741445  # (0.526 - 0.4) / 0.526


def test_emitter_params_validation():
    with pytest.raises(ValueError):
        EmitterParams(gamma_spon=0.0, gamma_pure=0.1, w_p=1.0)
    with pytest.raises(ValueError):
        EmitterParams(gamma_spon=1.0, gamma_pure=-0.1, w_p=1.0)
    with pytest.raises(ValueError):
        EmitterParams(gamma_spon=1.0, gamma_pure=0.1, w_p=0.0)
    with pytest.raises(ValueError):
        EmitterParams(gamma_spon=1.0, gamma_pure=0.1, w_p=1.0, gamma_vib=0.0)
    # infinitely fast vibrational relaxation is the default and is legal
    p = EmitterParams(gamma_spon=1.0, gamma_pure=0.1, w_p=1.0, gamma_vib=INSTANTANEOUS)
    assert p.gamma_vib == INSTANTANEOUS


def test_gamma_total_and_t2(strong_dephasing, molecule):
    assert strong_dephasing.gamma_total == pytest.approx(3.5, rel=1e-15)
    assert strong_dephasing.t2 == pytest.approx(1 / 3.5, rel=1e-15)
    assert molecule.gamma_total == pytest.approx(0.5 / 3.4 + 0.2, rel=1e-15)
    assert molecule.t2 == pytest.approx(T2_B, rel=1e-14)
    # the value usually quoted for this emitter is 2.883 ns
    assert abs(molecule.t2 - 2.883) < 5e-3


def test_beam_splitter_validation():
    with pytest.raises(ValueError):
        BeamSplitterConfig(theta=-0.1, mode_match=1.0)
    with pytest.raises(ValueError):
        BeamSplitterConfig(theta=math.pi / 2 + 0.1, mode_match=1.0)
    with pytest.raises(ValueError):
        BeamSplitterConfig(theta=0.5, mode_match=1.2)
    # boundary angles are legal (they just switch interference off)
    BeamSplitterConfig(theta=0.0, mode_match=0.5)
    BeamSplitterConfig(theta=math.pi / 2, mode_match=0.5)


def test_interference_weight_balanced(balanced_splitter):
    # s^2 c^2 / (c^4 + s^4) evaluates to exactly 0.5 at theta = pi/4
    assert balanced_splitter.interference_weight == 0.5
    tilted = BeamSplitterConfig(theta=0.5, mode_match=1.0)
    s2, c2 = math.sin(0.5) ** 2, math.cos(0.5) ** 2
    assert tilted.interference_weight == pytest.approx(s2 * c2 / (c2**2 + s2**2), rel=1e-14)


def test_g1_values(strong_dephasing):
    assert g1(0.0, strong_dephasing) == 1.0
    assert g1(0.2, strong_dephasing) == pytest.approx(G1_A_AT_02, abs=1e-15)
    tau = np.arange(-20, 21) * 0.1  # sign-symmetric floats, so the check is exact
    vals = g1(tau, strong_dephasing)
    assert np.array_equal(vals, vals[::-1])
    assert np.all(vals > 0) and np.all(vals <= 1)


def test_g2_source_values(strong_dephasing):
    assert g2_source(0.0, strong_dephasing) == 0.0
    assert g2_source(0.2, strong_dephasing) == pytest.approx(G2_SOURCE_A_AT_02, abs=1e-15)
    assert g2_source(-0.2, strong_dephasing) == g2_source(0.2, strong_dephasing)
    tau = np.linspace(0.0, 1.0, 11)
    vals = g2_source(tau, strong_dephasing)
    assert np.all(np.diff(vals) > 0)
    assert g2_source(5.0, strong_dephasing) > 0.999999


def test_g2_34_frozen_values(strong_dephasing, balanced_splitter):
    par0 = g2_34(0.0, strong_dephasing, balanced_splitter, "parallel")
    orth0 = g2_34(0.0, strong_dephasing, balanced_splitter, "orthogonal")
    assert abs(par0) <= 1e-12
    assert abs(orth0 - 0.5) <= 1e-12
    par = g2_34(0.2, strong_dephasing, balanced_splitter, "parallel")
    orth = g2_34(0.2, strong_dephasing, balanced_splitter, "orthogonal")
    assert par == pytest.approx(G2_PAR_A_AT_02, abs=1e-9)
    assert orth == pytest.approx(G2_ORTH_A_AT_02, abs=1e-9)
    tau = np.linspace(-1, 1, 17)
    assert g2_34(tau, strong_dephasing, balanced_splitter, "parallel").shape == tau.shape


def test_g2_34_gap_identity(strong_dephasing, rng):
    # orthogonal minus parallel is the interference term 2 s^2 c^2 M g1^2
    bs = BeamSplitterConfig(theta=0.6, mode_match=0.8)
    tau = rng.uniform(-3, 3, 200)
    par = g2_34(tau, strong_dephasing, bs, "parallel")
    orth = g2_34(tau, strong_dephasing, bs, "orthogonal")
    s2, c2 = math.sin(0.6) ** 2, math.cos(0.6) ** 2
    gap = 2 * s2 * c2 * bs.mode_match * g1(tau, strong_dephasing) ** 2
    np.testing.assert_allclose(orth - par, gap, atol=1e-14)
    assert np.all(par <= orth + 1e-15)
    # the dip is symmetric in tau
    np.testing.assert_allclose(g2_34(-tau, strong_dephasing, bs, "parallel"), par, rtol=0, atol=1e-15)
    # far from zero delay both curves are 2 s^2 c^2 + c^4 + s^4 = 1
    for pol in ("parallel", "orthogonal"):
        np.testing.assert_allclose(g2_34(40.0, strong_dephasing, bs, pol), 1.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("theta", [0.5, 1.2])
def test_g2_34_matches_monte_carlo_off_balance(strong_dephasing, theta):
    # the criterion-3 set-up on an unbalanced splitter, both polarizations
    # and two mode matches: the bins within half a lifetime of zero delay
    det = DetectionConfig(irf_fwhm_pair=0.0, background_fraction=0.0, correlation_mode="full",
                          mca_range=(-14.0, 14.0), bin_width=0.025)
    for mode_match in (0.6, 1.0):
        bs = BeamSplitterConfig(theta=theta, mode_match=mode_match)
        for pol, seed in (("parallel", 11), ("orthogonal", 12)):
            rc = RunConfig(
                emitter=strong_dephasing,
                interferometer=InterferometerConfig(delta_t=4.6, bs=bs, pol_mode=pol),
                detection=det, duration=4e5, seed=seed, norm_region=(9.0, 13.9),
            )
            hist = normalize(run_replicas(rc)[1], rc.norm_region)
            sel = np.abs(hist.bin_centers) <= 0.5
            model = g2_34(hist.bin_centers[sel], strong_dephasing, bs, pol)
            z = (hist.normalized[sel] - model) / norm_sigma(hist)[sel]
            assert np.mean(np.abs(z) < 3) >= 0.95, (mode_match, pol)
            assert abs(z.sum()) / math.sqrt(len(z)) < 4, (mode_match, pol)


def test_g2_34_collapses_without_interference(strong_dephasing):
    tau = np.linspace(-1, 1, 21)
    for bs in (
        BeamSplitterConfig(theta=0.0, mode_match=1.0),
        BeamSplitterConfig(theta=math.pi / 2, mode_match=1.0),
        BeamSplitterConfig(theta=math.pi / 4, mode_match=0.0),
    ):
        par = g2_34(tau, strong_dephasing, bs, "parallel")
        orth = g2_34(tau, strong_dephasing, bs, "orthogonal")
        np.testing.assert_allclose(par, orth, atol=1e-12)


def test_g2_34_rejects_unknown_polarization(strong_dephasing, balanced_splitter):
    with pytest.raises(ValueError):
        g2_34(0.1, strong_dephasing, balanced_splitter, "diagonal")


def test_overlap_sq(molecule):
    got = overlap_sq(4.6, molecule)
    assert got == pytest.approx(OVERLAP_B_AT_46, abs=1e-12)
    assert abs(got - 0.0411) <= 1e-4
    no_deph = EmitterParams(gamma_spon=1 / 3.4, gamma_pure=0.0, w_p=6.5)
    assert overlap_sq(4.6, no_deph) == pytest.approx(OVERLAP_B_NODEPH_AT_46, abs=1e-12)
    assert overlap_sq(4.6, molecule) == pytest.approx(g1(4.6, molecule) ** 2, rel=1e-14)
    tau = np.linspace(-10, 10, 161)
    for p in (molecule, no_deph):
        np.testing.assert_allclose(overlap_sq(np.abs(tau), p), g1(tau, p) ** 2, rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        overlap_sq(-1.0, molecule)


def test_visibility():
    v = visibility(0.4, 0.526)
    assert v == pytest.approx(VIS_EXAMPLE, abs=1e-15)
    assert abs(v - 0.24) < 5e-3
    assert visibility(0.5, 0.5) == 0.0
    with pytest.raises(ValueError):
        visibility(0.1, 0.0)


def test_convolve_irf_identity_and_constant():
    tau = np.linspace(-5, 5, 401)
    vals = np.exp(-np.abs(tau))
    out = convolve_irf(tau, vals, 0.0)
    assert np.array_equal(out, vals)
    assert out is not vals
    const = np.full_like(tau, 0.7)
    np.testing.assert_allclose(convolve_irf(tau, const, 0.4), const, atol=1e-9)


def test_convolve_irf_preserves_area_and_smooths():
    tau = np.linspace(-10, 10, 801)
    vals = np.exp(-0.5 * tau**2)  # well inside the grid, edge effects negligible
    out = convolve_irf(tau, vals, 0.3)
    assert out.sum() == pytest.approx(vals.sum(), rel=1e-6)
    assert out.max() < vals.max()
    assert np.argmax(out) == np.argmax(vals)


def test_convolve_irf_validation():
    vals = np.ones(11)
    with pytest.raises(ValueError):
        # grid step 1 ns cannot resolve a 0.42 ns response
        convolve_irf(np.linspace(0, 10, 11), vals, 0.42)
    with pytest.raises(ValueError):
        convolve_irf(np.array([0.0, 0.1, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]), vals, 0.42)
    tau = 0.1 * np.arange(11)
    for k in (0, 5, 10):  # a NaN sample fails the uniformity test wherever it sits
        bad = tau.copy()
        bad[k] = np.nan
        with pytest.raises(ValueError):
            convolve_irf(bad, vals, 0.42)
    # steps may deviate from the first by 1e-6 of it, and no more
    step = tau[1] - tau[0]
    for factor, ok in ((0.9e-6, True), (1.1e-6, False)):
        off = tau.copy()
        off[6:] += factor * step
        if ok:
            convolve_irf(off, vals, 0.42)
        else:
            with pytest.raises(ValueError):
                convolve_irf(off, vals, 0.42)
    for bad in (tau[::-1], np.zeros(11), np.r_[tau[:5], tau[4:10]]):  # decreasing, constant, repeated
        with pytest.raises(ValueError):
            convolve_irf(bad, vals, 0.42)
    with pytest.raises(ValueError):
        convolve_irf(tau, np.ones((2, 10)), 0.42)  # rows shorter than tau
    with pytest.raises(ValueError):
        convolve_irf(tau, np.ones((2, 2, 11)), 0.42)
    for fwhm in (-0.42, math.inf, math.nan):
        with pytest.raises(ValueError):
            convolve_irf(tau, vals, fwhm)
    with pytest.raises(ValueError):
        convolve_irf(tau[:1], vals[:1], 0.42)


def test_convolve_irf_rows_and_cached_kernel():
    tau = np.linspace(-5, 5, 401)
    curves = np.array([np.exp(-np.abs(tau)), np.exp(-0.5 * tau**2)])
    expect = [convolve_irf(tau, c, 0.4) for c in curves]
    both = convolve_irf(tau, curves, 0.4)
    assert both.shape == curves.shape
    assert all(np.array_equal(b, e) for b, e in zip(both, expect))
    # every call shares the cached kernel: it is read-only, and writing to a
    # result cannot reach it
    _, kernel = _irf_kernel(float(tau[1] - tau[0]), 0.4)
    with pytest.raises(ValueError):
        kernel[0] = 1.0
    want = both.copy()
    both[:] = 1e9
    expect[0][:] = 1e9
    assert np.array_equal(convolve_irf(tau, curves, 0.4), want)
    assert np.array_equal(convolve_irf(tau, curves[0], 0.4), want[0])


def test_convolve_irf_bounds_the_kernel():
    # up to MAX_IRF_STEPS samples per FWHM are allowed; one ulp past it the
    # call fails before any kernel is built (steps and FWHM exact in binary)
    step = 2.0**-10
    tau = step * np.arange(-20, 21)
    fwhm = MAX_IRF_STEPS * step
    np.testing.assert_allclose(convolve_irf(tau, np.ones(len(tau)), fwhm), 1.0)
    with mock.patch.object(coherence, "_irf_kernel", wraps=_irf_kernel) as kernel:
        for values in (np.ones(len(tau)), np.ones((2, len(tau)))):
            with pytest.raises(ValueError, match="--irf-fwhm-ns / --tau-step-ns"):
                convolve_irf(tau, values, np.nextafter(fwhm, math.inf))
    kernel.assert_not_called()


def test_fwhm_sigma_constant():
    assert FWHM_TO_SIGMA == pytest.approx(2 * math.sqrt(2 * math.log(2)), rel=1e-15)
