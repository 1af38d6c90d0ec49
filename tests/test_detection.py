"""Detector chain and start-stop correlator, including the exact single-stop
law: with Poissonian starts (r3) and stops (r4) and start replacement, the
recorded delay density is r3 r4 T exp(-(r3+r4) A), which reduces to the
familiar r3 r4 T exp(-r4 A) only when starts are scarce."""

import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from homsim import CorrelationHistogram as Hist
from homsim import DetectionConfig, default_run_config, make_bin_edges, normalize, run_replicas, tac_mca_histogram
from homsim import pipeline
from homsim.detection import _dead_time_filter, apply_detector


def _flat_cfg(**kw):
    kw.setdefault("irf_fwhm_pair", 0.0)
    return DetectionConfig(**kw)


def _poisson_times(rng, rate, duration):
    return np.sort(rng.uniform(0.0, duration, rng.poisson(rate * duration)))


# --- histogram container -------------------------------------------------

def test_make_bin_edges():
    edges = make_bin_edges(0.0, 1.0, 0.25)
    np.testing.assert_allclose(edges, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        make_bin_edges(0.0, 1.0, 0.3)
    with pytest.raises(ValueError):
        make_bin_edges(1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        make_bin_edges(0.0, 1.0, -0.1)


def test_histogram_container_validation():
    edges = make_bin_edges(0.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        Hist(edges, np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError):
        Hist(edges, np.array([1, -1, 0, 0]))
    h = Hist(edges, np.array([1, 2, 3, 4]))
    assert h.bin_width == 0.5
    np.testing.assert_allclose(h.bin_centers, [0.25, 0.75, 1.25, 1.75])
    assert h.total_counts == 10


# --- detector chain -------------------------------------------------------

def test_all_off_chain_is_identity(rng):
    # with every stage off, only the tagger's 1-ps grid moves a click
    ch = {3: _poisson_times(rng, 0.01, 1e4), 4: _poisson_times(rng, 0.01, 1e4)}
    out = apply_detector(ch, _flat_cfg(), np.random.default_rng(1), 1e4)
    for c in (3, 4):
        np.testing.assert_array_equal(out[c], np.rint(ch[c] * 1e3) / 1e3)
        assert np.max(np.abs(out[c] - ch[c])) <= 0.0005


@pytest.mark.parametrize("irf", [0.0, 0.42])
def test_detector_output_on_the_grid(irf):
    # clicks near zero, where jitter and the grid make negative times and
    # -0.0; the output is new arrays on the grid, with no -0.0
    times = np.array([-0.0004, -0.0, 0.0, 0.0004, 0.0006, 0.25, 1.0])
    ch = {3: times, 4: np.sort(np.random.default_rng(5).uniform(-0.01, 0.01, 500))}
    before = {c: ch[c].copy() for c in (3, 4)}
    out = apply_detector(ch, _flat_cfg(irf_fwhm_pair=irf), np.random.default_rng(6), 10.0)
    for c in (3, 4):
        assert ch[c].tobytes() == before[c].tobytes()
        assert out[c] is not ch[c]
        assert np.array_equal(np.rint(out[c] * 1e3) / 1e3, out[c])
        assert not np.any(np.signbit(out[c]) & (out[c] == 0))
        assert np.all(np.diff(out[c]) >= 0)
    if irf == 0.0:
        assert out[3].tolist() == [0.0, 0.0, 0.0, 0.0, 0.001, 0.25, 1.0]


def test_efficiency_thins_each_channel():
    n = 20000
    ch = {3: np.arange(n) * 1.0, 4: np.arange(n) * 1.0}
    cfg = _flat_cfg(efficiency=(0.5, 0.8))
    out = apply_detector(ch, cfg, np.random.default_rng(2), float(n))
    assert abs(len(out[3]) - 0.5 * n) < 3 * math.sqrt(n * 0.25)
    assert abs(len(out[4]) - 0.8 * n) < 3 * math.sqrt(n * 0.16)


def test_efficiency_quarters_pair_rate():
    # symmetric 50% efficiency keeps the histogram shape and scales the
    # windowed pair count by ~1/4
    rng = np.random.default_rng(515)
    ch = {k: _poisson_times(rng, 0.02, 1e5) for k in (3, 4)}
    full = _flat_cfg(correlation_mode="full")
    base = tac_mca_histogram(ch, full).total_counts
    thin = apply_detector(ch, _flat_cfg(efficiency=(0.5, 0.5)), np.random.default_rng(99), 1e5)
    ratio = tac_mca_histogram(thin, full).total_counts / base
    assert abs(ratio - 0.25) < 0.035


def test_jitter_preserves_totals_and_spread():
    n = 10000
    times = np.arange(n) * 1e3  # spacing huge vs jitter, order survives
    cfg = _flat_cfg(irf_fwhm_pair=0.42)
    out = apply_detector({3: times, 4: times.copy()}, cfg, np.random.default_rng(3), n * 1e3)
    assert len(out[3]) == n and len(out[4]) == n
    assert np.all(np.diff(out[3]) > 0)
    d = out[3] - times
    sig = cfg.jitter_sigma
    assert abs(d.mean()) < 3 * sig / math.sqrt(n)
    assert abs(d.std() - sig) < 3 * sig / math.sqrt(2 * n)


def test_jitter_sigma_value():
    cfg = DetectionConfig(irf_fwhm_pair=0.42)
    expected = 0.42 / math.sqrt(2) / (2 * math.sqrt(2 * math.log(2)))
    assert cfg.jitter_sigma == pytest.approx(expected, rel=1e-12)


def test_dead_time_filter():
    times = np.array([0.0, 1.0, 2.5, 2.6, 5.0])
    cfg = _flat_cfg(dead_time=(2.0, 0.0))
    out = apply_detector({3: times, 4: times.copy()}, cfg, np.random.default_rng(4), 10.0)
    np.testing.assert_array_equal(out[3], [0.0, 2.5, 5.0])
    np.testing.assert_array_equal(out[4], times)
    # the law is t >= last + dead in floating point; t - last >= dead rounds
    # apart from it where a gap lies within one rounding of the dead time
    np.testing.assert_array_equal(_dead_time_filter(np.array([6.28, 6.74]), 0.46), [6.28, 6.74])
    np.testing.assert_array_equal(_dead_time_filter(np.array([-4.5, -1.2100000000000002]), 3.29), [-4.5])


def test_background_injection():
    rng = np.random.default_rng(6)
    n = 2000
    ch = {3: np.sort(rng.uniform(0, 1e4, n)), 4: np.sort(rng.uniform(0, 1e4, n))}
    cfg = _flat_cfg(background_fraction=0.25)
    out = apply_detector(ch, cfg, np.random.default_rng(7), 1e4)
    added = len(out[3]) + len(out[4]) - 2 * n
    expect = 2 * n * 0.25 / 0.75
    assert abs(added - expect) < 3 * math.sqrt(expect)
    # background splits evenly between the ports and stays inside the run
    assert abs((len(out[3]) - n) - (len(out[4]) - n)) < 3 * math.sqrt(expect)
    for c in (3, 4):
        assert out[c][0] >= 0 and out[c][-1] <= 1e4
        assert np.all(np.diff(out[c]) >= 0)


def test_detection_config_validation():
    with pytest.raises(ValueError):
        DetectionConfig(efficiency=(1.2, 1.0))
    with pytest.raises(ValueError):
        DetectionConfig(dead_time=(-1.0, 0.0))
    with pytest.raises(ValueError):
        DetectionConfig(background_fraction=1.0)
    with pytest.raises(ValueError):
        DetectionConfig(correlation_mode="both")
    with pytest.raises(ValueError):
        DetectionConfig(mca_range=(0.0, 10.0), bin_width=0.3)
    with pytest.raises(ValueError):
        DetectionConfig(mca_range=(5.0, 1.0), bin_width=0.1)


# --- correlator -----------------------------------------------------------

TAC = dict(mca_range=(0.0, 10.0), bin_width=0.5, correlation_mode="tac")


def test_tac_basic_conversion():
    h = tac_mca_histogram({3: np.array([0.0, 1.0]), 4: np.array([1.5])}, _flat_cfg(**TAC))
    assert h.total_counts == 1
    assert h.counts[1] == 1  # newest start supersedes: delay 0.5, not 1.5


def test_tac_start_consumed_by_conversion():
    h = tac_mca_histogram({3: np.array([0.0]), 4: np.array([1.0, 2.0])}, _flat_cfg(**TAC))
    assert h.total_counts == 1
    assert h.counts[2] == 1


def test_tac_stop_without_start():
    h = tac_mca_histogram({3: np.array([1.0]), 4: np.array([0.5, 1.4])}, _flat_cfg(**TAC))
    assert h.total_counts == 1
    assert h.counts[0] == 1


def test_tac_overrange_conversion_still_consumes():
    h = tac_mca_histogram({3: np.array([0.0, 20.0]), 4: np.array([15.0, 20.5])}, _flat_cfg(**TAC))
    # the 15 ns conversion overflows the MCA but eats both the start and stop
    assert h.total_counts == 1
    assert h.counts[1] == 1


def test_tac_single_stop_exact_law():
    rng = np.random.default_rng(2718)
    r3 = r4 = 0.002
    duration = 2e7
    ch = {3: _poisson_times(rng, r3, duration), 4: _poisson_times(rng, r4, duration)}
    h = tac_mca_histogram(ch, _flat_cfg(**TAC))
    # each record takes one start and one stop
    assert h.total_counts <= len(ch[3]) and h.total_counts <= len(ch[4])
    expect = r3 * r4 * duration * 0.5 * np.exp(-(r3 + r4) * h.bin_centers)
    z = (h.counts - expect) / np.sqrt(expect)
    assert abs(h.total_counts - expect.sum()) < 3.5 * math.sqrt(expect.sum())
    assert np.abs(z).max() < 4.0


def test_full_mode_matches_bruteforce(rng):
    t3 = np.sort(rng.uniform(0, 100, 37))
    t4 = np.sort(rng.uniform(0, 100, 53))
    cfg = _flat_cfg(correlation_mode="full")
    got = tac_mca_histogram({3: t3, 4: t4}, cfg)
    edges = got.bin_edges
    expect = np.zeros(len(edges) - 1, dtype=np.int64)
    for a in t3:
        for b in t4:
            d = b - a
            if edges[0] <= d < edges[-1]:
                expect[min(int((d - edges[0]) / cfg.bin_width), len(expect) - 1)] += 1
    assert np.array_equal(got.counts, expect)


def test_off_centre_range_bins_true_delay():
    # the stop cable delay is -tau_min, so on a range that excludes zero both
    # correlators put a 3.05-ns pair in the bin whose label holds 3.05 ns
    ch = {3: np.array([5.0]), 4: np.array([8.05])}
    for mode in ("tac", "full"):
        h = tac_mca_histogram(ch, _flat_cfg(mca_range=(2.0, 4.0), bin_width=0.1, correlation_mode=mode))
        assert h.total_counts == 1
        i = int(np.flatnonzero(h.counts)[0])
        assert h.bin_edges[i] <= 3.05 < h.bin_edges[i + 1]


def test_default_delay_centres_the_axis():
    # with the default cable delay, a stop 0.5 ns after its start lands at tau=+0.5
    cfg = _flat_cfg(correlation_mode="full")
    h = tac_mca_histogram({3: np.array([100.0]), 4: np.array([100.5])}, cfg)
    k = int(np.flatnonzero(h.counts)[0])
    assert h.bin_edges[k] <= 0.5 < h.bin_edges[k + 1]


# --- normalization --------------------------------------------------------

def test_normalize_flat():
    h = Hist(make_bin_edges(-10.0, 10.0, 1.0), np.full(20, 50))
    out = normalize(h, (3.0, 9.0))
    np.testing.assert_allclose(out.normalized, 1.0)
    assert out.normalization_constant == 50.0
    assert h.normalized is None  # input untouched


def test_normalize_validation():
    h = Hist(make_bin_edges(-10.0, 10.0, 1.0), np.zeros(20, dtype=np.int64))
    with pytest.raises(ValueError):
        normalize(h, (9.0, 3.0))
    with pytest.raises(ValueError):
        normalize(h, (-1.0, 3.0))
    with pytest.raises(ValueError):
        normalize(h, (100.0, 200.0))
    with pytest.raises(ValueError):
        normalize(h, (3.0, 9.0))  # region empty of counts


# --- run memory -------------------------------------------------------------


def test_run_replicas_frees_the_stream_before_the_detector():
    # the benchmark's TAC point: the emission stream is only an argument of
    # the interferometer, so under the detector chain the two output
    # channels (one float per photon) are alive, not also the stream's two
    # photon-sized arrays
    rc = default_run_config()
    det = dataclasses.replace(rc.detection, correlation_mode="tac", efficiency=(0.3, 0.3), dead_time=(22.0, 22.0))
    rc = dataclasses.replace(rc, interferometer=dataclasses.replace(rc.interferometer, pol_mode="orthogonal"),
                             detection=det, duration=1e6, seed=5)
    at_entry = []

    def probe(channels, *args):
        at_entry.append((tracemalloc.get_traced_memory()[0], sum(t.nbytes for t in channels.values())))
        return apply_detector(channels, *args)

    with mock.patch.object(pipeline, "apply_detector", probe):
        tracemalloc.start()
        try:
            run_replicas(rc)
        finally:
            tracemalloc.stop()
    # 1.00 of the channels' bytes alive at entry (1.31 when the run is the
    # process's first, which imports modules on the way), 3.31 with the stream
    alive, channel_bytes = at_entry[0]
    assert channel_bytes > 2_000_000
    assert alive <= 1.5 * channel_bytes
