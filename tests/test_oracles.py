"""The vectorised matcher, TAC and dead time against the loops they
replaced, the tag writer against a per-row %.3f writer, the window-pair
expansion against a double loop, the overlap-bounded pair search against
the full window expansion, the stream stages (emission, routing and port
split, detector chain) against the copying and re-sorting versions they
replaced, and the fit's build-once forward model against the model it
replaced.

Each oracle below is the earlier implementation, kept verbatim in its logic
(the detector chain's gains the tagger's 1-ps grid as its last step, and
the port split deals its uniforms in emission order).  The new code must
give the same accepted mask, the same histogram counts, the same kept
clicks, the same file bytes and the same model bits: pinned-seed outputs
and fit results stay bit-identical only if these agree on every input,
including ties, lattice-valued times and dead times one ulp either side of
a gap.
"""

import dataclasses
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homsim import analysis, emitter, fileio, histogram, interferometer
from homsim.coherence import FWHM_TO_SIGMA, BeamSplitterConfig, EmitterParams, convolve_irf, g2_source
from homsim.detection import CHANNELS, DetectionConfig, _dead_time_filter, apply_detector, tac_mca_histogram
from homsim.emitter import PhotonStream, simulate_emission_stream
from homsim.histogram import make_bin_edges, window_pairs
from homsim.interferometer import (
    Q_MIN,
    InterferometerConfig,
    _candidate_pairs,
    bunching_probability,
    interfere_stream,
    match_pairs,
    route,
)
from homsim.pipeline import _stage_rng, default_run_config, run_replicas

SETTINGS = settings(max_examples=300, deadline=None)


# --- oracles ----------------------------------------------------------------


def _match_pairs_loop(n_photons, a_idx, b_idx, q, rng):
    order = np.argsort(-q, kind="stable")
    a_o, b_o, q_o = a_idx[order], b_idx[order], q[order]
    m = len(q_o)
    if m == 0:
        return a_o, b_o, np.zeros(0, dtype=bool)
    p_fire = np.clip(q_o / np.maximum(_survival_products_loop(a_o, b_o, q_o), Q_MIN), 0.0, 1.0)
    fired = rng.random(m) < p_fire
    used = np.zeros(n_photons, dtype=bool)
    accepted = np.zeros(m, dtype=bool)
    for k in np.flatnonzero(fired):
        x, y = a_o[k], b_o[k]
        if used[x] or used[y]:
            continue
        used[x] = used[y] = True
        accepted[k] = True
    return a_o, b_o, accepted


def _survival_products_loop(a_o, b_o, q_o):
    m = len(q_o)
    flat_ph = np.concatenate([a_o, b_o])
    flat_pos = np.concatenate([np.arange(m), np.arange(m)])
    flat_q = np.concatenate([q_o, q_o])
    so = np.lexsort((flat_pos, flat_ph))
    ph_s, q_s = flat_ph[so], flat_q[so]
    cs = np.cumsum(q_s)
    grp = np.flatnonzero(np.r_[True, ph_s[1:] != ph_s[:-1]])
    base = np.repeat(cs[grp] - q_s[grp], np.diff(np.r_[grp, len(ph_s)]))
    surv = 1.0 - (cs - q_s - base)
    inv = np.empty(len(so), dtype=np.int64)
    inv[so] = np.arange(len(so))
    return surv[inv[:m]] * surv[inv[m:]]


def _candidate_pairs_window(arrival, envelope_delays, long_arm, p, bs, window, chunk=50_000):
    u = arrival + envelope_delays
    idx_long = np.flatnonzero(long_arm)
    idx_short = np.flatnonzero(~long_arm)
    arr_short = arrival[idx_short]
    out_a, out_b, out_q = [], [], []
    for start in range(0, len(idx_long), chunk):
        il = idx_long[start : start + chunk]
        lo = np.searchsorted(arr_short, arrival[il] - window, side="left")
        hi = np.searchsorted(arr_short, arrival[il] + window, side="right")
        a, b = window_pairs(lo, hi)
        a, b = il[a], idx_short[b]
        q = bunching_probability(u[a], u[b], arrival[a], arrival[b], p.gamma_pure, bs)
        keep = q > Q_MIN
        out_a.append(a[keep])
        out_b.append(b[keep])
        out_q.append(q[keep])
    if not out_a:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), np.zeros(0)
    return np.concatenate(out_a), np.concatenate(out_b), np.concatenate(out_q)


def _tac_loop(t3, t4, cfg):
    tau_min, tau_max = cfg.mca_range
    edges = make_bin_edges(tau_min, tau_max, cfg.bin_width)
    stops = t4 + -tau_min
    span = tau_max - tau_min
    nbins = len(edges) - 1
    js = np.searchsorted(t3, stops, side="right") - 1
    counts = np.zeros(nbins, dtype=np.int64)
    last_consuming = -np.inf
    for k in range(len(stops)):
        j = js[k]
        if j < 0 or t3[j] <= last_consuming:
            continue
        a = stops[k] - t3[j]
        if a < span:
            counts[min(int(a // cfg.bin_width), nbins - 1)] += 1
        last_consuming = stops[k]
    return counts


def _dead_time_loop(times, dead):
    if dead <= 0 or len(times) == 0:
        return times
    keep = np.zeros(len(times), dtype=bool)
    last = -np.inf
    for i, t in enumerate(times):
        if t >= last + dead:
            keep[i] = True
            last = t
    return times[keep]


def _write_timetags_rows(path, channels):
    ch = np.concatenate([np.full(len(channels[c]), c, dtype=np.int64) for c in (3, 4)])
    t = np.concatenate([np.asarray(channels[c], dtype=float) for c in (3, 4)])
    order = np.argsort(t, kind="stable")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("channel,time_ns\n")
        for c, ti in zip(ch[order], t[order]):
            fh.write("%d,%.3f\n" % (c, ti))


def _convolve_irf_padded(tau, values, fwhm):
    tau = np.asarray(tau, dtype=float)
    values = np.asarray(values, dtype=float)
    if tau.ndim != 1 or tau.shape != values.shape:
        raise ValueError("tau and values must be 1-d arrays of equal length")
    if fwhm < 0:
        raise ValueError("fwhm must be non-negative")
    if fwhm == 0:
        return values.copy()
    if len(tau) < 2:
        raise ValueError("need at least two samples")
    steps = np.diff(tau)
    step = steps[0]
    if step <= 0 or not np.allclose(steps, step, rtol=1e-6, atol=0):
        raise ValueError("tau must be uniformly sampled")
    if step > fwhm / 4 + 1e-12 * fwhm:
        raise ValueError("sampling step must be <= fwhm/4")
    sigma = fwhm / FWHM_TO_SIGMA
    half = int(np.ceil(5.0 * sigma / step))
    x = step * np.arange(-half, half + 1)
    kernel = np.exp(-0.5 * (x / sigma) ** 2)
    kernel /= kernel.sum()
    padded = np.pad(values, half, mode="edge")
    return np.convolve(padded, kernel, mode="valid")


def _hom_model_curves_per_call(centers, bin_width, gamma_spon, gamma_pure, w_p, contrast, background, delta_t, irf_fwhm):
    centers = np.asarray(centers, dtype=float)
    n_sub = analysis.FINE
    if irf_fwhm > 0:
        n_sub = max(analysis.FINE, int(np.ceil(4.0 * bin_width / irf_fwhm - 1e-9)))
    step = bin_width / n_sub
    offs = (np.arange(n_sub) - (n_sub - 1) / 2.0) * step
    grid = (centers[:, None] + offs[None, :]).ravel()
    p = EmitterParams(gamma_spon=gamma_spon, gamma_pure=gamma_pure, w_p=w_p)
    base = (
        0.5 * g2_source(grid, p)
        + 0.25 * g2_source(grid - delta_t, p)
        + 0.25 * g2_source(grid + delta_t, p)
    )
    kernel = 0.5 * contrast * np.exp(-(gamma_spon + 2.0 * gamma_pure) * np.abs(grid))
    par = base - kernel
    orth = base
    if irf_fwhm > 0:
        par = _convolve_irf_padded(grid, par, irf_fwhm)
        orth = _convolve_irf_padded(grid, orth, irf_fwhm)
    par = (1.0 - background) * par + background
    orth = (1.0 - background) * orth + background
    n = len(centers)
    return par.reshape(n, n_sub).mean(axis=1), orth.reshape(n, n_sub).mean(axis=1)


def _emission_concat(p, duration, seed):
    # draws through rng.exponential, and joins the blocks with np.concatenate
    # even when there is one; mean_cycle_time is looked up on the module so
    # a test can patch it for both versions
    rng = np.random.default_rng(seed)
    has_vib = not math.isinf(p.gamma_vib)
    mean_wait = emitter.mean_cycle_time(p)
    times_parts, eps_parts = [], []
    t_last = 0.0
    prev_eps = 0.0
    n_block = max(int(duration / mean_wait * 1.1) + 64, 64)
    while True:
        waits = rng.exponential(1.0 / p.w_p, n_block)
        if has_vib:
            waits += rng.exponential(1.0 / p.gamma_vib, n_block)
        eps = rng.exponential(1.0 / p.gamma_spon, n_block)
        waits[0] += prev_eps
        waits[1:] += eps[:-1]
        t0 = np.cumsum(waits, out=waits)
        t0 += t_last
        times_parts.append(t0)
        eps_parts.append(eps)
        t_last = t0[-1]
        prev_eps = eps[-1]
        if t_last >= duration:
            break
        n_block = max(int((duration - t_last) / mean_wait * 1.2) + 64, 64)
    n = np.searchsorted(t0, duration)
    times_parts[-1], eps_parts[-1] = t0[:n], eps[:n]
    return PhotonStream(np.concatenate(times_parts), np.concatenate(eps_parts), duration)


def _interfere_stream_int8(stream, cfg, p, rng):
    # the routed stream gathered into arrival order (an argsort and three
    # gathers), one port uniform per photon in one draw, dealt in emission
    # order, an int8 port per photon through a nested np.where, the
    # window-expansion pair search and default-kind sorts; the matcher gets
    # emission indices, as in interfere_stream, so its survival sums add in
    # the same order
    long_arm = rng.random(len(stream)) < 0.5
    arrival = stream.emission_times + cfg.delta_t * long_arm
    order = np.argsort(arrival, kind="stable")
    arrival, long_arm, env = arrival[order], long_arm[order], stream.envelope_delays[order]
    n = len(arrival)
    u = arrival + env
    c2 = math.cos(cfg.bs.theta) ** 2
    s2 = math.sin(cfg.bs.theta) ** 2
    r = rng.random(n)[order]
    ch = np.where(np.where(long_arm, r < s2, r < c2), np.int8(3), np.int8(4))
    if cfg.pol_mode == "parallel" and cfg.pairing == "weighted" and cfg.bs.mode_match > 0 and n > 1:
        a_idx, b_idx, q = _candidate_pairs_window(arrival, env, long_arm, p, cfg.bs, 10.0 / p.gamma_spon)
        a_o, b_o, acc = match_pairs(n, order[a_idx], order[b_idx], q, rng)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        det = np.where(rng.random(len(a_o)) < 0.5, 3, 4).astype(np.int8)
        ch[rank[a_o[acc]]] = det[acc]
        ch[rank[b_o[acc]]] = det[acc]
    return {3: np.sort(u[ch == 3]), 4: np.sort(u[ch == 4])}


def _apply_detector_resort(channels, cfg, rng, duration):
    # default-kind sorts; the background is concatenated unsorted, then the
    # whole channel is sorted
    sigma = cfg.jitter_sigma
    out = {}
    for k, ch in enumerate(CHANNELS):
        t = np.asarray(channels[ch], dtype=float)
        if cfg.efficiency[k] < 1.0:
            t = t[rng.random(len(t)) < cfg.efficiency[k]]
        if sigma > 0 and len(t):
            t = np.sort(t + rng.normal(0.0, sigma, len(t)))
        out[ch] = _dead_time_filter(t, cfg.dead_time[k])
    f = cfg.background_fraction
    if f > 0:
        total = sum(len(out[ch]) for ch in CHANNELS)
        n_bg = rng.poisson(total * f / (1.0 - f))
        if n_bg:
            t_bg = rng.uniform(0.0, duration, n_bg)
            pick3 = rng.random(n_bg) < 0.5
            out[3] = np.sort(np.concatenate([out[3], t_bg[pick3]]))
            out[4] = np.sort(np.concatenate([out[4], t_bg[~pick3]]))
    # the tagger's 1-ps grid, with +0.0 for a click in (-0.5 ps, 0)
    return {ch: np.rint(t * 1e3) / 1e3 + 0.0 for ch, t in out.items()}


# --- strategies -------------------------------------------------------------


@st.composite
def sorted_times(draw, max_size=40):
    """Sorted click times: either generic floats or multiples of a step on a
    shifted lattice, so ties and rounding at large offsets both occur."""
    if draw(st.booleans()):
        vals = draw(st.lists(st.floats(-1e3, 1e3), max_size=max_size))
        return np.sort(np.array(vals, dtype=float))
    step = draw(st.sampled_from([0.1, 0.21, 0.5, 1.0, 3.0]))
    offset = draw(st.sampled_from([0.0, -7.3, 1e6 + 0.1, 3e9]))
    ks = draw(st.lists(st.integers(-60, 60), max_size=max_size))
    return np.sort(offset + step * np.array(ks, dtype=float))


# --- window pairs -----------------------------------------------------------


@SETTINGS
@given(ranges=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 4)), max_size=12))
def test_window_pairs_equals_double_loop(ranges):
    # the oracle is the definition; empty ranges, zero-length input and
    # overlapping ranges all occur
    lo = np.array([r[0] for r in ranges], dtype=np.int64)
    hi = lo + np.array([r[1] for r in ranges], dtype=np.int64)
    i, j = window_pairs(lo, hi)
    want = [(a, b) for a in range(len(lo)) for b in range(lo[a], hi[a])]
    assert list(zip(i.tolist(), j.tolist())) == want


# --- matcher ----------------------------------------------------------------


def _assert_same_matching(n, a_idx, b_idx, q, seed):
    want = _match_pairs_loop(n, a_idx, b_idx, q, np.random.default_rng(seed))
    # the matcher permutes its inputs in place and returns them
    a, b = a_idx.copy(), b_idx.copy()
    got = match_pairs(n, a, b, q.copy(), np.random.default_rng(seed))
    assert got[0] is a and got[1] is b
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


@SETTINGS
@given(
    n=st.integers(1, 12),
    pairs=st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11), st.sampled_from([1.0, 0.9, 0.5, 0.3, 1e-3]) | st.floats(1e-12, 1.0)),
        max_size=40,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_match_pairs_equals_sequential_greedy(n, pairs, seed):
    pairs = [(a % n, b % n, q) for a, b, q in pairs]
    a_idx = np.array([p[0] for p in pairs], dtype=np.int64)
    b_idx = np.array([p[1] for p in pairs], dtype=np.int64)
    q = np.array([p[2] for p in pairs], dtype=float)
    _assert_same_matching(n, a_idx, b_idx, q, seed)


def test_match_pairs_long_chain():
    # a path whose pairs come in order along it: the greedy result takes
    # every other pair, and the rounds resolve one pair each
    n = 301
    a_idx = np.arange(n - 1)
    _assert_same_matching(n, a_idx, a_idx + 1, np.ones(n - 1), 5)
    _assert_same_matching(n, a_idx, a_idx + 1, np.linspace(1.0, 0.5, n - 1), 6)


def test_match_pairs_random_graph():
    rng = np.random.default_rng(11)
    n = 5000
    a_idx = rng.integers(0, n, 20000)
    b_idx = rng.integers(0, n, 20000)
    _assert_same_matching(n, a_idx, b_idx, rng.uniform(0.0, 1.0, 20000), 12)


def test_match_pairs_edge_sizes():
    empty = np.zeros(0, dtype=np.int64)
    _assert_same_matching(3, empty, empty.copy(), np.zeros(0), 1)
    _assert_same_matching(3, np.array([0]), np.array([2]), np.array([0.4]), 2)


@pytest.mark.parametrize("values", [(0.5, 0.25), (1.0, 0.3, 1e-3)])
def test_match_pairs_tied_q(values):
    # large enough for numpy's SIMD sort, which leaves equal q in no fixed
    # order: the matcher must restore candidate order within each tie
    rng = np.random.default_rng(len(values))
    n, m = 6000, 25000
    a_idx = rng.integers(0, n, m)
    b_idx = rng.integers(0, n, m)
    q = rng.choice(np.array(values), m)
    assert np.isin(a_idx, b_idx).any()  # photons on both sides
    assert not np.array_equal(np.argsort(-q), np.argsort(-q, kind="stable"))
    _assert_same_matching(n, a_idx, b_idx, q, 13)


def test_survival_products_exact_below_an_ulp():
    # one entry per photon (pair k joins photons 2k and 2k + 1), so every
    # photon has spent nothing and each product is exactly 1.  Half of q lies
    # below an ulp of the running sum, where the float cs - q can step down
    # by an ulp from one entry to the next: a base taken as a running maximum
    # of it, instead of at the group start by index, then leaves a residue
    # (at 2 of these 40 seeds).
    m = 100_000
    k = np.arange(m)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        q = rng.permutation(np.r_[rng.uniform(0.5, 1.0, m // 2), 10.0 ** rng.uniform(-12.0, -9.0, m - m // 2)])
        got = interferometer._survival_products(2 * k, 2 * k + 1, q)
        np.testing.assert_array_equal(got, _survival_products_loop(2 * k, 2 * k + 1, q), err_msg="seed %d" % seed)
        assert np.all(got == 1.0), seed


def test_survival_products_groups_across_blocks():
    # 2m entries span several blocks of the in-place base subtraction, and
    # each photon's group crosses block edges: a pass that ran from the start
    # would read group starts it had already changed
    rng = np.random.default_rng(5)
    m = 100_000
    a_o, b_o = rng.integers(0, 3000, m), rng.integers(0, 3000, m)
    q = np.where(rng.random(m) < 0.5, rng.uniform(0.0, 1e-3, m), 10.0 ** rng.uniform(-12.0, -9.0, m))
    assert 2 * m > 2 * interferometer.BLOCK
    got = interferometer._survival_products(a_o, b_o, q)
    np.testing.assert_array_equal(got, _survival_products_loop(a_o, b_o, q))


# --- candidate pairs --------------------------------------------------------


def _assert_same_candidates(routed, p, bs, window, block=histogram.BLOCK):
    with mock.patch.object(interferometer, "BLOCK", block):
        got = _candidate_pairs(*routed, p, bs, window)
    want = _candidate_pairs_window(*routed, p, bs, window)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)
    return len(want[2])


@st.composite
def routed_streams(draw):
    """(arrival, envelope delays, long_arm) in emission order: sorted
    emission times (ties, and lattices at large offsets) plus a long-arm
    delay that is zero or interleaves the arms, arms mixed or all one side,
    and envelope delays that are zero, generic, on the arrival lattice or
    longer than any window drawn."""
    emission = draw(sorted_times())
    n = len(emission)
    arms = draw(st.sampled_from(["mixed", "long", "short"]))
    if arms == "mixed":
        long_arm = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    else:
        long_arm = np.full(n, arms == "long")
    arrival = emission + draw(st.sampled_from([0.0, 0.5, 4.6])) * long_arm
    delays = draw(st.sampled_from(["zero", "generic", "lattice", "long"]))
    if delays == "zero":
        env = np.zeros(n)
    elif delays == "generic":
        env = np.array(draw(st.lists(st.floats(0.0, 40.0), min_size=n, max_size=n)))
    elif delays == "lattice":
        env = 0.5 * np.array(draw(st.lists(st.integers(0, 80), min_size=n, max_size=n)), dtype=float)
    else:
        env = np.array(draw(st.lists(st.floats(40.0, 200.0), min_size=n, max_size=n)))
    return arrival, env, long_arm


@SETTINGS
@given(
    routed=routed_streams(),
    gamma_pure=st.sampled_from([0.0, 0.2, 3.0]),
    mode_match=st.sampled_from([0.7, 1.0]),
    window=st.sampled_from([0.5, 1.0, 3.0, 34.0]),
    block=st.sampled_from([1, 2, 7, histogram.BLOCK]),
)
def test_candidate_pairs_equals_window_expansion(routed, gamma_pure, mode_match, window, block):
    p = EmitterParams(gamma_spon=1 / 3.4, gamma_pure=gamma_pure)
    _assert_same_candidates(routed, p, BeamSplitterConfig(mode_match=mode_match), window, block)


def test_candidate_pairs_equals_window_expansion_on_a_run():
    rc = default_run_config()
    stream = simulate_emission_stream(rc.emitter, 2e5, 4)
    long_arm, _ = route(stream, rc.interferometer, np.random.default_rng(4))
    arrival = interferometer._arrival(rc.interferometer.delta_t, long_arm, stream.emission_times)
    window = 10.0 / rc.emitter.gamma_spon
    routed = arrival, stream.envelope_delays, long_arm
    assert _assert_same_candidates(routed, rc.emitter, rc.interferometer.bs, window) > 10_000


# --- TAC --------------------------------------------------------------------

TAC_CONFIGS = [
    DetectionConfig(mca_range=(0.0, 10.0), bin_width=0.5, correlation_mode="tac"),
    DetectionConfig(correlation_mode="tac"),
    # off-centre ranges, whose stop cable delay -tau_min is not the default's
    DetectionConfig(mca_range=(-0.3, 1.8), bin_width=0.21, correlation_mode="tac"),
    DetectionConfig(mca_range=(2.0, 4.0), bin_width=0.1, correlation_mode="tac"),
]


@SETTINGS
@given(t3=sorted_times(), t4=sorted_times(), cfg=st.sampled_from(TAC_CONFIGS))
def test_tac_equals_start_stop_loop(t3, t4, cfg):
    got = tac_mca_histogram({3: t3, 4: t4}, cfg).counts
    np.testing.assert_array_equal(got, _tac_loop(t3, t4, cfg))


def test_tac_edge_cases():
    cfg = TAC_CONFIGS[0]
    empty = np.zeros(0)
    cases = [
        (empty, empty),
        (np.array([1.0]), empty),
        (empty, np.array([1.0])),
        (np.array([5.0]), np.array([0.0, 1.0, 4.9])),  # stops with no start
        (np.array([0.0, 20.0]), np.array([15.0, 16.0, 20.5])),  # over-range consumes
        (np.array([0.0, 20.0]), np.array([10.0, np.nextafter(30.0, 0.0)])),  # at and below the range end
        (np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0, 1.5])),  # tied starts and stops
    ]
    for t3, t4 in cases:
        np.testing.assert_array_equal(tac_mca_histogram({3: t3, 4: t4}, cfg).counts, _tac_loop(t3, t4, cfg))


# --- dead time --------------------------------------------------------------


@SETTINGS
@given(data=st.data(), times=sorted_times(max_size=60))
def test_dead_time_equals_loop(data, times):
    if len(times) >= 2 and data.draw(st.booleans()):
        # a dead time equal to one of the gaps, or one ulp either side of it
        i, j = sorted(data.draw(st.lists(st.integers(0, len(times) - 1), min_size=2, max_size=2)))
        gap = times[j] - times[i]
        dead = data.draw(st.sampled_from([gap, np.nextafter(gap, np.inf), np.nextafter(gap, -np.inf)]))
    else:
        dead = data.draw(st.sampled_from([0.0, 1e-300, 0.1, 0.21, 0.3, 1.0, 2.5, 22.0, 1e4]))
    np.testing.assert_array_equal(_dead_time_filter(times, dead), _dead_time_loop(times, dead))


def test_dead_time_edge_cases():
    for times, dead in [
        (np.zeros(0), 1.0),
        (np.array([1.0, 2.0]), 0.0),
        (np.full(50, 3.0), 1.0),  # all tied
        (np.arange(0.0, 100.0, 1.0), 1.5),  # one long run of close clicks
        (1e6 + 0.1 * np.arange(200), 0.3),  # lattice where t + dead rounds
        (np.array([6.28, 6.74]), 0.46),  # t >= last + dead holds, t - last >= dead does not
        (np.array([-4.5, -1.2100000000000002]), 3.29),  # t - last >= dead holds, t >= last + dead does not
    ]:
        np.testing.assert_array_equal(_dead_time_filter(times, dead), _dead_time_loop(times, dead))


# --- tag writer -------------------------------------------------------------

# Times on the 1-ps grid: integer picoseconds up to the writer's 2**50
# bound, the same near zero, quantized floats (small negatives give -0.0)
# and both zeros.
TAG_VALUES = (
    st.integers(-(2**50) + 1, 2**50 - 1).map(lambda k: k / 1e3)
    | st.integers(-10**6, 10**6).map(lambda k: k / 1e3)
    | st.floats(-1e6, 1e6).map(lambda x: float(np.rint(x * 1e3) / 1e3))
    | st.sampled_from([0.0, -0.0, (2**50 - 1) / 1e3, -(2**50 - 1) / 1e3])
)


@SETTINGS
@given(
    t3=st.lists(TAG_VALUES, max_size=30),
    t4=st.lists(TAG_VALUES, max_size=30),
    block=st.sampled_from([1, 2, 7, histogram.BLOCK]),
)
def test_write_timetags_equals_row_writer(t3, t4, block):
    channels = {3: np.array(t3, dtype=float), 4: np.array(t4, dtype=float)}
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.csv"), os.path.join(tmp, "want.csv")
        with mock.patch.object(fileio, "BLOCK", block):
            fileio.write_timetags(got, channels)
        _write_timetags_rows(want, channels)
        with open(got, "rb") as g, open(want, "rb") as w:
            assert g.read() == w.read()


def test_write_timetags_equals_row_writer_on_a_run(tmp_path):
    # two full blocks and one row of a simulated run's tags
    rc = dataclasses.replace(default_run_config(), duration=5e5, seed=17)
    tags, _ = run_replicas(rc)
    cut = np.sort(np.concatenate([tags[3], tags[4]]))[2 * fileio.BLOCK + 1]
    channels = {c: tags[c][tags[c] < cut] for c in (3, 4)}
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    fileio.write_timetags(got, channels)
    _write_timetags_rows(want, channels)
    assert want.read_text().count("\n") == 2 * fileio.BLOCK + 2
    assert got.read_bytes() == want.read_bytes()


# --- stream stages ----------------------------------------------------------


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _assert_same_channels(got, want):
    assert sorted(got) == sorted(want) == [3, 4]
    for ch in (3, 4):
        _assert_same_bits(got[ch], want[ch])


EMITTERS = st.builds(
    EmitterParams,
    gamma_spon=st.sampled_from([1 / 3.4, 1.0]),
    gamma_pure=st.sampled_from([0.2, 3.0]),
    w_p=st.sampled_from([6.5, 2.5, 0.3]),
    gamma_vib=st.sampled_from([math.inf, 5.0, 0.7]),
)
SEEDS = st.integers(0, 2**32 - 1)


@SETTINGS
@given(p=EMITTERS, duration=st.sampled_from([0.01, 1.0, 30.0, 3000.0]), seed=SEEDS,
       cycle_scale=st.sampled_from([1.0, 1.5, 3.0, 40.0]))
def test_emission_equals_drawn_and_concatenated(p, duration, seed, cycle_scale):
    # cycle_scale > 1 overstates the mean cycle time, so the first block
    # falls short and the continuation blocks run
    mean = emitter.mean_cycle_time
    with mock.patch.object(emitter, "mean_cycle_time", lambda q: mean(q) * cycle_scale):
        got, want = simulate_emission_stream(p, duration, seed), _emission_concat(p, duration, seed)
    _assert_same_bits(got.emission_times, want.emission_times)
    _assert_same_bits(got.envelope_delays, want.envelope_delays)


@SETTINGS
@given(
    p=EMITTERS,
    duration=st.sampled_from([1.0, 30.0, 3000.0]),
    seed=SEEDS,
    delta_t=st.sampled_from([0.0, 4.6, 30.0]),
    theta=st.sampled_from([math.pi / 4, 0.3, 0.0, math.pi / 2]),
    mode_match=st.sampled_from([0.0, 0.7, 1.0]),
    pol_mode=st.sampled_from(["parallel", "orthogonal"]),
    pairing=st.sampled_from(["weighted", "none"]),
)
def test_interfere_stream_equals_int8_port_split(p, duration, seed, delta_t, theta, mode_match, pol_mode, pairing):
    cfg = InterferometerConfig(delta_t=delta_t, bs=BeamSplitterConfig(theta=theta, mode_match=mode_match),
                               pol_mode=pol_mode, pairing=pairing)
    stream = simulate_emission_stream(p, duration, seed)
    before = stream.emission_times.copy(), stream.envelope_delays.copy()
    got = interfere_stream(stream, cfg, p, np.random.default_rng(seed))
    # the input stream is read, never written
    _assert_same_bits(stream.emission_times, before[0])
    _assert_same_bits(stream.envelope_delays, before[1])
    _assert_same_channels(got, _interfere_stream_int8(stream, cfg, p, np.random.default_rng(seed)))


@st.composite
def photon_streams(draw):
    """Short simulated streams, or emission times on a lattice: repeated
    instants, and long-arm arrivals that equal a later photon's emission
    exactly (e_i + delta_t == e_j for delta_t 100 at step 0.5, often for
    4.6 at steps 2.3 and 4.6)."""
    if draw(st.booleans()):
        return simulate_emission_stream(draw(EMITTERS), draw(st.sampled_from([30.0, 300.0])), draw(SEEDS))
    step = draw(st.sampled_from([0.5, 2.3, 4.6]))
    offset = draw(st.sampled_from([0.0, 1e6]))
    ks = np.sort(np.array(draw(st.lists(st.integers(0, 300), max_size=60)), dtype=float))
    env = 0.5 * np.array(draw(st.lists(st.integers(0, 40), min_size=len(ks), max_size=len(ks))), dtype=float)
    return PhotonStream(offset + step * ks, env, offset + 400 * step)


def _assert_blocks_equal_int8_port_split(stream, cfg, p, seed, block):
    with mock.patch.object(interferometer, "BLOCK", block):
        got = interfere_stream(stream, cfg, p, np.random.default_rng(seed))
    _assert_same_channels(got, _interfere_stream_int8(stream, cfg, p, np.random.default_rng(seed)))


@SETTINGS
@given(
    stream=photon_streams(),
    seed=SEEDS,
    delta_t=st.sampled_from([0.0, 4.6, 100.0]),
    block=st.sampled_from([1, 2, 7]),
    pol_mode=st.sampled_from(["parallel", "orthogonal"]),
    theta=st.sampled_from([math.pi / 4, 0.3]),
)
def test_interfere_stream_blocks_equal_int8_port_split(stream, seed, delta_t, block, pol_mode, theta):
    # the arm and port draws and the instants, over many blocks: a stream of
    # the other tests never reaches a second BLOCK
    p = EmitterParams(gamma_spon=1 / 3.4, gamma_pure=0.2, w_p=6.5)
    cfg = InterferometerConfig(delta_t=delta_t, bs=BeamSplitterConfig(theta=theta, mode_match=0.7), pol_mode=pol_mode)
    _assert_blocks_equal_int8_port_split(stream, cfg, p, seed, block)


@pytest.mark.parametrize("block", [1, 2, 7, histogram.BLOCK])
def test_interfere_stream_blocks_on_tied_lattice(block):
    # every long-arm photon arrives exactly when the photon 200 places later
    # is emitted, and those ties straddle the block edges
    e = 0.5 * np.arange(900.0)
    stream = PhotonStream(e, np.full(900, 1.5), 450.0)
    p = EmitterParams(gamma_spon=1 / 3.4, gamma_pure=0.2, w_p=6.5)
    for pol_mode in ("parallel", "orthogonal"):
        cfg = InterferometerConfig(delta_t=100.0, bs=BeamSplitterConfig(mode_match=0.7), pol_mode=pol_mode)
        arrival = e + 100.0 * (np.random.default_rng(3).random(900) < 0.5)
        assert len(np.unique(arrival)) < 800
        _assert_blocks_equal_int8_port_split(stream, cfg, p, 3, block)


@st.composite
def click_times(draw):
    """Sorted non-negative click times, generic or on a lattice (ties).  The
    pipeline makes no negative zero, so none is drawn: a stable and an
    unstable sort may order -0.0 and 0.0 differently."""
    if draw(st.booleans()):
        vals = np.array(draw(st.lists(st.floats(0.0, 1e4), max_size=60)), dtype=float)
    else:
        step = draw(st.sampled_from([0.21, 1.0, 3.0, 25.0]))
        offset = draw(st.sampled_from([0.0, 1e6 + 0.1]))
        vals = offset + step * np.array(draw(st.lists(st.integers(0, 400), max_size=60)), dtype=float)
    return np.sort(vals + 0.0)


@SETTINGS
@given(
    t3=click_times(),
    t4=click_times(),
    seed=SEEDS,
    irf=st.sampled_from([0.0, 0.42, 5.0]),
    efficiency=st.tuples(*[st.sampled_from([1.0, 0.3, 0.0])] * 2),
    dead_time=st.tuples(*[st.sampled_from([0.0, 1.0, 22.0])] * 2),
    background=st.sampled_from([0.0, 0.05, 0.5, 0.9]),
    duration=st.sampled_from([1e3, 1e4]),
)
def test_apply_detector_equals_resorting_chain(t3, t4, seed, irf, efficiency, dead_time, background, duration):
    cfg = DetectionConfig(irf_fwhm_pair=irf, efficiency=efficiency, dead_time=dead_time,
                          background_fraction=background)
    channels = {3: t3, 4: t4}
    got = apply_detector(channels, cfg, np.random.default_rng(seed), duration)
    _assert_same_bits(channels[3], t3)
    _assert_same_channels(got, _apply_detector_resort(channels, cfg, np.random.default_rng(seed), duration))


@pytest.mark.parametrize("pol_mode,correlation", [("parallel", "full"), ("orthogonal", "tac")])
def test_stream_stages_equal_old_chain_on_a_run(pol_mode, correlation):
    # the paper's point with pairing, and the benchmark's TAC detector chain
    rc = default_run_config()
    det = rc.detection
    if correlation == "tac":
        det = dataclasses.replace(det, correlation_mode="tac", efficiency=(0.3, 0.3), dead_time=(22.0, 22.0))
    rc = dataclasses.replace(rc, interferometer=dataclasses.replace(rc.interferometer, pol_mode=pol_mode),
                             detection=det, duration=3e5, seed=8)
    stream = simulate_emission_stream(rc.emitter, rc.duration, rc.seed)
    old = _emission_concat(rc.emitter, rc.duration, rc.seed)
    _assert_same_bits(stream.emission_times, old.emission_times)
    got = interfere_stream(stream, rc.interferometer, rc.emitter, _stage_rng(rc.seed, 1))
    want = _interfere_stream_int8(stream, rc.interferometer, rc.emitter, _stage_rng(rc.seed, 1))
    _assert_same_channels(got, want)
    assert min(len(got[3]), len(got[4])) > 30_000
    got = apply_detector(got, rc.detection, _stage_rng(rc.seed, 2), rc.duration)
    want = _apply_detector_resort(want, rc.detection, _stage_rng(rc.seed, 2), rc.duration)
    _assert_same_channels(got, want)


# --- fit forward model ------------------------------------------------------

FIT_PARAMS = st.tuples(*(st.floats(*analysis._BOUNDS[k]) for k in ("gamma_pure", "w_p", "contrast", "background")))


def _fit_centers(bin_width, window):
    edges = make_bin_edges(-24.99, 24.99, bin_width)
    c = 0.5 * (edges[:-1] + edges[1:])
    return c[np.abs(c) <= window]


@SETTINGS
@given(
    x=FIT_PARAMS,
    bin_width=st.sampled_from([0.21, 0.42]),
    # 0.1 ns needs n_sub = 9 or 17 sub-samples per bin, more than FINE
    irf_fwhm=st.sampled_from([0.0, 0.42, 0.1]),
    delta_t=st.sampled_from([4.6, 0.0, 12.5]),
    window=st.sampled_from([8.0, 1.0, 30.0]),
)
def test_hom_model_equals_per_call_model(x, bin_width, irf_fwhm, delta_t, window):
    c = _fit_centers(bin_width, window)
    want = _hom_model_curves_per_call(c, bin_width, 1 / 3.4, *x, delta_t, irf_fwhm)
    for got in (
        analysis.hom_model(c, bin_width, 1 / 3.4, delta_t, irf_fwhm)(*x),
        analysis.hom_model_curves(c, bin_width, 1 / 3.4, *x, delta_t, irf_fwhm),
    ):
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return "ValueError"


@SETTINGS
@given(
    data=st.data(),
    n=st.integers(2, 60),
    rows=st.integers(1, 3),
    step=st.sampled_from([0.01, 0.042, 0.084, 0.1]),
    start=st.floats(-30.0, 30.0),
    fwhm=st.sampled_from([0.0, 0.42, 1.0, 0.3, 0.04]),
)
def test_convolve_irf_equals_padded_convolution(data, n, rows, step, start, fwhm):
    tau = start + step * np.arange(n)
    if data.draw(st.booleans()):
        # one step off by about the 1e-6 relative bound, or a NaN sample
        k = data.draw(st.integers(0, n - 1))
        tau[k:] += data.draw(st.sampled_from([0.5e-6, 0.999e-6, 1.001e-6, 2e-6, -1.001e-6])) * step
        if data.draw(st.booleans()):
            tau[k] = np.nan
    values = np.array(data.draw(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n), min_size=rows, max_size=rows)))
    got = _outcome(convolve_irf, tau, values, fwhm)
    for r in range(rows):
        want = _outcome(_convolve_irf_padded, tau, values[r], fwhm)
        if isinstance(want, str):
            assert got == want
            assert _outcome(convolve_irf, tau, values[r], fwhm) == want
        else:
            np.testing.assert_array_equal(got[r], want)
            np.testing.assert_array_equal(convolve_irf(tau, values[r], fwhm), want)


def test_fit_with_per_call_model_is_bit_equal(small_pair):
    def per_call_model(centers, bin_width, gamma_spon, delta_t, irf_fwhm):
        return lambda *x: _hom_model_curves_per_call(centers, bin_width, gamma_spon, *x, delta_t, irf_fwhm)

    det = default_run_config().detection
    got = dataclasses.asdict(analysis.fit_hom_model(*small_pair, 1 / 3.4, det, 4.6))
    with mock.patch.object(analysis, "hom_model", per_call_model):
        want = dataclasses.asdict(analysis.fit_hom_model(*small_pair, 1 / 3.4, det, 4.6))
    assert got["n_evaluations"] == want["n_evaluations"]
    assert got["v0_hat"] == pytest.approx(want["v0_hat"], rel=1e-12)
    # repr tells every float bit apart (signed zeros and NaN included)
    assert {k: repr(v) for k, v in got.items() if k != "v0_hat"} == {k: repr(v) for k, v in want.items() if k != "v0_hat"}
    assert all(math.isfinite(v) for v in got.values() if isinstance(v, float))


# rss of this pair's fit by four Nelder-Mead runs, the solver before
# Levenberg-Marquardt: scipy.optimize.minimize(method="Nelder-Mead", options
# maxfev 10,000, xatol 1e-9, fatol 1e-10, adaptive) on the penalised rss
# objective over the same fit window, model and Poisson sigmas, from the
# start (0.3, 0.5, 0.6, 0.08) and three restarts clip(x0 * exp(N(0, 0.15, 4)))
# drawn from default_rng(0), keeping the lowest.  scipy is not a dependency;
# the value was computed once (scipy 1.17.1) on the data of the 1-ps tagger
# grid and the emission-order port draw
NELDER_MEAD_RSS = 81.42240771741555


def test_fit_rss_no_higher_than_nelder_mead(small_pair):
    fit = analysis.fit_hom_model(*small_pair, 1 / 3.4, default_run_config().detection, 4.6)
    assert fit.converged
    assert fit.rss <= NELDER_MEAD_RSS * (1 + 1e-9)
