"""Renewal photon-stream sampler: determinism, moments, correlations."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from homsim import (
    EmitterParams,
    PhotonStream,
    empirical_g2,
    g2_source,
    make_bin_edges,
    simulate_emission_stream,
)
from homsim.emitter import mean_cycle_time
from homsim.histogram import pairwise_delay_counts


def test_reproducible_and_seed_sensitive(strong_dephasing):
    s1 = simulate_emission_stream(strong_dephasing, 5e4, seed=5)
    s2 = simulate_emission_stream(strong_dephasing, 5e4, seed=5)
    assert np.array_equal(s1.emission_times, s2.emission_times)
    assert np.array_equal(s1.envelope_delays, s2.envelope_delays)
    s3 = simulate_emission_stream(strong_dephasing, 5e4, seed=6)
    assert not np.array_equal(s1.emission_times, s3.emission_times)


def test_stream_rejects_bad_duration(strong_dephasing):
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            simulate_emission_stream(strong_dephasing, bad)


def test_ordering_and_bounds(strong_dephasing):
    st = simulate_emission_stream(strong_dephasing, 2e4, seed=2)
    assert np.all(np.diff(st.emission_times) > 0)
    assert st.emission_times[0] > 0
    assert st.emission_times[-1] < st.duration
    assert np.all(st.envelope_delays > 0)
    assert len(st.envelope_delays) == len(st)


@pytest.mark.parametrize("gamma_vib", [math.inf, 5.0])
def test_emission_peak_memory(molecule, gamma_vib):
    # each block is drawn into the two arrays that become the stream (about
    # 1.1 photon-sized arrays each) and shrunk in place: no temporary, copy
    # or concatenation adds a third.  Copying the block out held about 4.2
    # photon-sized arrays.
    p = dataclasses.replace(molecule, gamma_vib=gamma_vib)
    simulate_emission_stream(p, 1e3, seed=1)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        st = simulate_emission_stream(p, 1e6, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(st) > 200_000
    assert peak <= 2.3 * st.emission_times.nbytes


def test_mean_cycle_time(strong_dephasing):
    # pump 2.5 + decay 1.0 stage; instantaneous vibrational relaxation adds nothing
    assert mean_cycle_time(strong_dephasing) == pytest.approx(1.4, rel=1e-15)
    with_vib = EmitterParams(gamma_spon=1.0, gamma_pure=3.0, w_p=2.5, gamma_vib=10.0)
    assert mean_cycle_time(with_vib) == pytest.approx(1.5, rel=1e-15)


def test_mean_rate(strong_dephasing):
    st = simulate_emission_stream(strong_dephasing, 2e5, seed=8)
    expected = 2.5 * 1.0 / 3.5  # W_P Gamma / (W_P + Gamma)
    se = np.sqrt(len(st)) / st.duration
    assert abs(st.mean_rate - expected) < 3 * se


def test_waiting_time_moments():
    p = EmitterParams(gamma_spon=1.0, gamma_pure=0.0, w_p=2.0)
    st = simulate_emission_stream(p, 3e5, seed=12)
    waits = np.diff(st.emission_times)
    n = len(waits)
    mean, var = 1 / 2 + 1, 1 / 4 + 1
    # central 4th moment of a sum of two independent exponentials
    cm4 = 9 * (1 / 2) ** 4 + 9 * 1.0 + 6 * (1 / 4) * 1.0
    assert abs(waits.mean() - mean) < 3 * np.sqrt(var / n)
    assert abs(waits.var() - var) < 3 * np.sqrt((cm4 - var**2) / n)


def test_vibronic_stage_adds_delay():
    p = EmitterParams(gamma_spon=1.0, gamma_pure=0.0, w_p=2.0, gamma_vib=4.0)
    st = simulate_emission_stream(p, 3e5, seed=13)
    waits = np.diff(st.emission_times)
    mean = 1 / 2 + 1 / 4 + 1
    var = 1 / 4 + 1 / 16 + 1
    assert abs(waits.mean() - mean) < 3 * np.sqrt(var / len(waits))


def test_antibunching_and_source_model(strong_dephasing):
    st = simulate_emission_stream(strong_dephasing, 1.4e6, seed=17)
    assert len(st) >= 1_000_000
    hist = empirical_g2(st, 0.02, 1.0)
    assert hist.normalized[0] < 0.1
    model = g2_source(hist.bin_centers, strong_dephasing)
    sigma = np.sqrt(np.maximum(hist.counts, 1)) / hist.normalization_constant
    z = (hist.normalized - model) / sigma
    assert np.mean(np.abs(z) < 3) >= 0.9


def test_empirical_g2_normalization(strong_dephasing):
    st = simulate_emission_stream(strong_dephasing, 1e4, seed=3)
    hist = empirical_g2(st, 0.05, 2.0)
    assert hist.normalization_constant == pytest.approx(len(st) ** 2 / st.duration * 0.05, rel=1e-12)
    np.testing.assert_allclose(hist.normalized, hist.counts / hist.normalization_constant)


def test_empirical_g2_rejects_unsorted():
    st = PhotonStream(np.array([2.0, 1.0, 3.0]), np.array([0.1, 0.1, 0.1]), 10.0)
    with pytest.raises(ValueError):
        empirical_g2(st, 0.1, 1.0)
    with pytest.raises(ValueError):
        empirical_g2(PhotonStream(np.array([1.0]), np.array([0.1]), 10.0), 0.1, 1.0)


def test_empirical_g2_drops_self_pairs():
    st = PhotonStream(np.array([1.0, 1.005]), np.array([0.1, 0.1]), 10.0)
    hist = empirical_g2(st, 0.01, 0.1)
    # one ordered pair at +5 ps; the two zero-delay self pairs are removed
    assert hist.counts[0] == 1
    assert hist.total_counts == 1


def test_pairwise_delay_counts_matches_bruteforce(rng):
    a = np.sort(rng.uniform(0, 50, 37))
    b = np.sort(rng.uniform(0, 50, 53))
    edges = make_bin_edges(-5.0, 5.0, 0.5)
    got = pairwise_delay_counts(a, b, edges, chunk=7)
    expect = np.zeros(len(edges) - 1, dtype=np.int64)
    for ta in a:
        for tb in b:
            d = tb - ta
            if edges[0] <= d < edges[-1]:
                k = min(int((d - edges[0]) / 0.5), len(expect) - 1)
                expect[k] += 1
    assert np.array_equal(got, expect)
    assert got.sum() < len(a) * len(b)  # window really cuts pairs
