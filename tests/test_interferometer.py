"""Delay-line routing, pairwise interference law, and stochastic matching."""

import math

import numpy as np
import pytest

from homsim import (
    BeamSplitterConfig,
    EmitterParams,
    InterferometerConfig,
    PhotonStream,
    StreamConfig,
    bunching_probability,
    interfere_stream,
    route,
    simulate_emission_stream,
)
from homsim.interferometer import RoutedStream, _candidate_pairs, match_pairs

Q_EXAMPLE = 0.670320046035639301  # exp(-0.4), balanced splitter, M=1


def _itf(**kw):
    kw.setdefault("delta_t", 4.6)
    kw.setdefault("bs", BeamSplitterConfig(theta=math.pi / 4, mode_match=1.0))
    kw.setdefault("pol_mode", "parallel")
    return InterferometerConfig(**kw)


def test_route_applies_exact_delay(strong_dephasing):
    stream = simulate_emission_stream(StreamConfig(strong_dephasing, 3e3, rng_seed=4))
    routed = route(stream, _itf(), np.random.default_rng(7))
    assert len(routed) == len(stream)
    assert np.all(np.diff(routed.arrival_times) >= 0)
    # replay the arm draw: each photon's arrival is its emission plus exactly
    # 0 or exactly delta_t (the forward sum, so the float op matches bit for
    # bit), and its arm and envelope delay travel with it through the sort
    long_arm = np.random.default_rng(7).random(len(stream)) < 0.5
    arrival = stream.emission_times + 4.6 * long_arm
    order = np.argsort(arrival, kind="stable")
    np.testing.assert_array_equal(routed.arrival_times, arrival[order])
    np.testing.assert_array_equal(routed.long_arm, long_arm[order])
    np.testing.assert_array_equal(routed.envelope_delays, stream.envelope_delays[order])


def test_route_arm_fraction_and_polarization(strong_dephasing):
    stream = simulate_emission_stream(StreamConfig(strong_dephasing, 3e4, rng_seed=9))
    cfg = _itf(arm_prob_long=0.3, pol_mode="orthogonal")
    routed = route(stream, cfg, np.random.default_rng(11))
    frac = routed.long_arm.mean()
    assert abs(frac - 0.3) < 3 * math.sqrt(0.3 * 0.7 / len(routed))
    # polarization decides only whether pairs interfere, never the routing
    par = route(stream, _itf(arm_prob_long=0.3), np.random.default_rng(11))
    np.testing.assert_array_equal(par.arrival_times, routed.arrival_times)
    np.testing.assert_array_equal(par.long_arm, routed.long_arm)


def test_bunching_probability_frozen_example(balanced_splitter):
    # both instants inside both envelopes, 1 ns apart, gamma_pure 0.2
    q = bunching_probability(1.0, 0.0, 0.0, 0.0, 0.2, balanced_splitter)
    assert q == pytest.approx(Q_EXAMPLE, abs=1e-12)
    # equal instants: the full weight 2 w M, perfect bunching when balanced
    assert bunching_probability(0.3, 0.3, 0.0, 0.1, 0.3, balanced_splitter) == 1.0
    bs = BeamSplitterConfig(theta=0.9, mode_match=0.6)
    want = 2.0 * bs.interference_weight * 0.6
    assert bunching_probability(0.3, 0.3, 0.0, 0.1, 0.3, bs) == pytest.approx(want, rel=1e-15)
    # distinguishable instants give a probability strictly inside (0, 1)
    assert 0.02 < bunching_probability(0.3, 0.7, 0.0, 0.1, 0.3, balanced_splitter) < 0.98


def test_bunching_probability_overlap_cases(balanced_splitter):
    # both detection instants after both arrivals: full overlap
    assert bunching_probability(3.0, 3.0, 0.0, 2.0, 0.0, balanced_splitter) == 1.0
    # either instant before the later wave packet has started: no overlap
    assert bunching_probability(1.5, 3.0, 0.0, 2.0, 0.0, balanced_splitter) == 0.0
    assert bunching_probability(3.0, 1.5, 0.0, 2.0, 0.0, balanced_splitter) == 0.0
    # both instants before either envelope exists
    assert bunching_probability(-1.0, -1.0, 0.0, 2.0, 0.0, balanced_splitter) == 0.0
    q = bunching_probability(np.array([3.0, 1.5]), np.array([3.0, 3.0]), 0.0, np.array([2.0, 2.0]), 0.0,
                             balanced_splitter)
    np.testing.assert_array_equal(q, [1.0, 0.0])


def test_bunching_probability_bounds(rng):
    n = 2000
    for _ in range(20):
        bs = BeamSplitterConfig(theta=rng.uniform(0, math.pi / 2), mode_match=rng.uniform(0, 1))
        arr_a, arr_b = rng.uniform(0, 5, n), rng.uniform(0, 5, n)
        u_a = arr_a + rng.exponential(1.25, n)
        u_b = arr_b + rng.exponential(1.25, n)
        q = bunching_probability(u_a, u_b, arr_a, arr_b, rng.uniform(0, 2), bs)
        top = 2.0 * bs.interference_weight * bs.mode_match
        assert top <= 1.0
        assert np.all((q >= 0.0) & (q <= top))
        assert np.any(q > 0.0) and np.any(q == 0.0)


def test_unpaired_port_probabilities():
    # without pairing a short-arm photon reaches port 3 with cos^2(theta)
    # and a long-arm photon with sin^2(theta)
    bs = BeamSplitterConfig(theta=0.9, mode_match=1.0)
    c2 = math.cos(0.9) ** 2
    n = 20000
    stream = PhotonStream(np.arange(n) * 10.0 + 1.0, np.full(n, 0.5), n * 10.0)
    p = EmitterParams(gamma_spon=1.0)
    se = 3 * math.sqrt(c2 * (1 - c2) / n)
    for arm_prob_long, p3 in ((0.0, c2), (1.0, 1 - c2)):
        cfg = _itf(bs=bs, arm_prob_long=arm_prob_long, pairing="none")
        out = interfere_stream(stream, cfg, p, np.random.default_rng(5))
        assert len(out[3]) + len(out[4]) == n
        assert abs(len(out[3]) / n - p3) < se
        # detection instant is the arrival plus the envelope delay
        assert np.isin(out[3], stream.emission_times + 4.6 * arm_prob_long + 0.5).all()


def test_candidate_pairs_weights_and_window():
    p = EmitterParams(gamma_spon=1 / 3.4, gamma_pure=0.2, w_p=1.0)
    bs = BeamSplitterConfig(theta=math.pi / 4, mode_match=0.7)
    routed = RoutedStream(
        arrival_times=np.array([0.0, 0.1]),
        long_arm=np.array([False, True]),
        envelope_delays=np.array([0.5, 0.6]),
    )
    a, b, q = _candidate_pairs(routed, p, bs, window=5.0)
    assert (a.tolist(), b.tolist()) == ([1], [0])
    assert q[0] == pytest.approx(0.7 * math.exp(-2 * 0.2 * 0.2), rel=1e-12)

    # arrival separation beyond the pairing window: no candidates
    far = RoutedStream(
        arrival_times=np.array([0.0, 100.0]),
        long_arm=np.array([False, True]),
        envelope_delays=np.array([0.5, 0.6]),
    )
    a, b, q = _candidate_pairs(far, p, bs, window=5.0)
    assert len(q) == 0

    # second wave packet starts only after the first detection: zero overlap
    stale = RoutedStream(
        arrival_times=np.array([0.0, 5.0]),
        long_arm=np.array([False, True]),
        envelope_delays=np.array([1.0, 1.0]),
    )
    a, b, q = _candidate_pairs(stale, p, bs, window=10.0)
    assert len(q) == 0

    # every photon in one arm (arm_prob_long 0 or 1): typed empty arrays
    for long_arm in (False, True):
        one_arm = RoutedStream(np.arange(5.0), np.full(5, long_arm), np.full(5, 0.5))
        a, b, q = _candidate_pairs(one_arm, p, bs, window=10.0)
        assert (len(a), len(b), len(q)) == (0, 0, 0)
        assert (a.dtype, b.dtype, q.dtype) == (np.int64, np.int64, np.float64)


def test_match_pairs_unconditional_rates():
    # chains of three photons: pair A (q=0.5) shares its second photon with
    # pair B (q=0.4).  The survival correction must keep the unconditional
    # acceptance of B at 0.4 even though A is resolved first.
    m = 20000
    k = np.arange(m)
    a_idx = np.empty(2 * m, dtype=np.int64)
    b_idx = np.empty(2 * m, dtype=np.int64)
    q = np.empty(2 * m)
    a_idx[0::2], b_idx[0::2], q[0::2] = 3 * k, 3 * k + 1, 0.5
    a_idx[1::2], b_idx[1::2], q[1::2] = 3 * k + 1, 3 * k + 2, 0.4
    a_o, b_o, acc = match_pairs(3 * m, a_idx, b_idx, q, np.random.default_rng(99))
    q_o = np.where(b_o % 3 == 1, 0.5, 0.4)  # recover pair type after reordering
    frac_a = acc[q_o == 0.5].mean()
    frac_b = acc[q_o == 0.4].mean()
    assert abs(frac_a - 0.5) < 3.5 * math.sqrt(0.25 / m)
    assert abs(frac_b - 0.4) < 3.5 * math.sqrt(0.24 / m)


def test_match_pairs_overcommitted_photon():
    # two q=0.9 pairs share a photon; only 1.0 of probability is available.
    # The first pair keeps its 0.9, the second fires whenever possible (the
    # clamp) and lands at 0.1 unconditionally.
    m = 20000
    k = np.arange(m)
    a_idx = np.empty(2 * m, dtype=np.int64)
    b_idx = np.empty(2 * m, dtype=np.int64)
    a_idx[0::2], b_idx[0::2] = 3 * k, 3 * k + 1
    a_idx[1::2], b_idx[1::2] = 3 * k + 1, 3 * k + 2
    q = np.full(2 * m, 0.9)
    a_o, b_o, acc = match_pairs(3 * m, a_idx, b_idx, q, np.random.default_rng(7))
    first = b_o % 3 == 1
    assert abs(acc[first].mean() - 0.9) < 3.5 * math.sqrt(0.09 / m)
    assert abs(acc[~first].mean() - 0.1) < 3.5 * math.sqrt(0.09 / m)


def test_match_pairs_exclusive(rng):
    n = 4000
    a_idx = rng.integers(0, n, 6000)
    b_idx = (a_idx + rng.integers(1, n, 6000)) % n
    q = rng.uniform(0.0, 0.4, 6000)
    a_o, b_o, acc = match_pairs(n, a_idx, b_idx, q, rng)
    used = np.concatenate([a_o[acc], b_o[acc]])
    assert len(np.unique(used)) == len(used)
    assert a_o.shape == b_o.shape == acc.shape


def test_interfere_stream_conserves_and_reproduces(strong_dephasing):
    stream = simulate_emission_stream(StreamConfig(strong_dephasing, 2e4, rng_seed=31))
    for pairing in ("weighted", "none"):
        cfg = _itf(pairing=pairing)
        out1 = interfere_stream(stream, cfg, strong_dephasing, np.random.default_rng(7))
        out2 = interfere_stream(stream, cfg, strong_dephasing, np.random.default_rng(7))
        assert len(out1[3]) + len(out1[4]) == len(stream)
        assert np.all(np.diff(out1[3]) >= 0) and np.all(np.diff(out1[4]) >= 0)
        np.testing.assert_array_equal(out1[3], out2[3])
        np.testing.assert_array_equal(out1[4], out2[4])


def test_no_interference_paths_agree(strong_dephasing):
    # orthogonal polarization, M=0 and pairing "none" all skip the pairing
    # stage and must consume identical random draws
    stream = simulate_emission_stream(StreamConfig(strong_dephasing, 2e4, rng_seed=41))
    ref = interfere_stream(stream, _itf(pairing="none"), strong_dephasing, np.random.default_rng(3))
    orth = interfere_stream(stream, _itf(pol_mode="orthogonal"), strong_dephasing, np.random.default_rng(3))
    bs0 = BeamSplitterConfig(theta=math.pi / 4, mode_match=0.0)
    nomatch = interfere_stream(stream, _itf(bs=bs0), strong_dephasing, np.random.default_rng(3))
    for ch in (3, 4):
        np.testing.assert_array_equal(ref[ch], orth[ch])
        np.testing.assert_array_equal(ref[ch], nomatch[ch])


def test_interferometer_config_validation(balanced_splitter):
    with pytest.raises(ValueError):
        _itf(delta_t=-1.0)
    with pytest.raises(ValueError):
        _itf(pol_mode="circular")
    with pytest.raises(ValueError):
        _itf(pairing="quadratic")
    with pytest.raises(ValueError):
        _itf(pairing="greedy")
    for bad in (dict(delta_t=math.nan), dict(delta_t=math.inf), dict(pairing_window=math.inf)):
        with pytest.raises(ValueError):
            _itf(**bad)
    p = EmitterParams(gamma_spon=2.0, gamma_pure=0.0, w_p=1.0)
    assert _itf().resolved_window(p) == pytest.approx(5.0)
    assert _itf(pairing_window=3.0).resolved_window(p) == 3.0
